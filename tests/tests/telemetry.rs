//! Telemetry invariants across the replay and export layers.
//!
//! The heart of the sharded-collection design is an algebra: per-worker
//! [`MetricsSnapshot`] deltas merged together must equal what one worker
//! would have recorded, for *any* workload split. These tests drive that
//! property with generated workloads, and pin down determinism and the
//! exporter round trip at the integration level.

use proptest::prelude::*;

use dejavu_core::prelude::*;
use dejavu_p4ir::builder::*;
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::{fref, well_known, Expr, FieldRef, Value};
use dejavu_traffic::flows::FlowGen;
use dejavu_traffic::replay::replay_flows;

/// Forward-by-ipv4-dst program: 10.0.0.0/8 to port 2, rest drops.
fn router() -> dejavu_p4ir::Program {
    ProgramBuilder::new("router")
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .parser(
            ParserBuilder::new()
                .node("eth", "ethernet", 0)
                .node("ip", "ipv4", 14)
                .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                .accept("ip")
                .start("eth"),
        )
        .action(
            ActionBuilder::new("fwd")
                .param("port", 16)
                .set(FieldRef::meta("egress_spec"), Expr::Param("port".into()))
                .build(),
        )
        .action(ActionBuilder::new("deny").drop_packet().build())
        .table(
            TableBuilder::new("route")
                .key_lpm(fref("ipv4", "dst_addr"))
                .action("fwd")
                .default_action("deny")
                .build(),
        )
        .control(ControlBuilder::new("ingress").apply("route").build())
        .entry("ingress")
        .build()
        .unwrap()
}

fn testbed(telemetry: bool) -> Switch {
    let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
    sw.set_trace_level(TraceLevel::Off);
    sw.set_telemetry(telemetry);
    sw.load_program(PipeletId::ingress(0), router()).unwrap();
    // Half the 10.x space forwards, so generated flows both hit and miss.
    sw.install_entry(
        PipeletId::ingress(0),
        "route",
        TableEntry {
            matches: vec![KeyMatch::Lpm(Value::new(0x0a01_0000, 32), 16)],
            action: "fwd".into(),
            action_args: vec![Value::new(2, 16)],
            priority: 0,
        },
    )
    .unwrap();
    sw
}

fn workers(workers: usize) -> RtcConfig {
    RtcConfig {
        workers,
        ..RtcConfig::default()
    }
}

/// The pipeline's own series. The session's `rtc_*` / `pool_*` series are
/// per worker (and, on ring depth, per schedule) by design.
fn pipeline_series(mut m: MetricsSnapshot) -> MetricsSnapshot {
    m.metrics
        .retain(|name, _| !name.starts_with("rtc_") && !name.starts_with("pool_"));
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lossless sharding: for any flow count, packets-per-flow, payload
    /// size, and worker count, the merged per-worker snapshots equal a
    /// one-worker run of the same workload — counter for counter,
    /// histogram bucket for histogram bucket.
    #[test]
    fn sharded_snapshot_merge_equals_single_thread(
        seed in 0u64..1000,
        n_flows in 1usize..24,
        per_flow in 1usize..6,
        payload in 0usize..64,
        n_workers in 2usize..8,
    ) {
        let sw = testbed(true);
        // Flows split between the forwarding 10.1/16 and the denied 10.2/16.
        let flows = FlowGen::new(seed, (0x0a01_0000, 16), (0x0a02_0000, 16)).flows(n_flows);
        let single = replay_flows(&sw, &flows, 0, per_flow, payload, &workers(1));
        let sharded = replay_flows(&sw, &flows, 0, per_flow, payload, &workers(n_workers));

        let injected = (n_flows * per_flow) as u64;
        prop_assert_eq!(single.metrics.counter("packets_injected"), injected);
        prop_assert_eq!(
            single.metrics.counter("packets_emitted") + single.metrics.counter("packets_dropped"),
            injected
        );
        // The report's tallies agree with the telemetry view of the same run.
        prop_assert_eq!(sharded.injected, sharded.metrics.counter("packets_injected"));
        prop_assert_eq!(sharded.emitted, sharded.metrics.counter("packets_emitted"));
        prop_assert_eq!(pipeline_series(single.metrics), pipeline_series(sharded.metrics));
    }

    /// Replay is deterministic: the same workload replayed twice produces
    /// identical snapshots (atomics introduce no drift).
    #[test]
    fn replay_telemetry_is_deterministic(
        seed in 0u64..1000,
        n_flows in 1usize..12,
        n_workers in 1usize..5,
    ) {
        let sw = testbed(true);
        let flows = FlowGen::new(seed, (0x0a01_0000, 16), (0x0a02_0000, 16)).flows(n_flows);
        let a = replay_flows(&sw, &flows, 0, 2, 8, &workers(n_workers));
        let b = replay_flows(&sw, &flows, 0, 2, 8, &workers(n_workers));
        prop_assert_eq!(a.worker_packets, b.worker_packets);
        prop_assert_eq!(pipeline_series(a.metrics), pipeline_series(b.metrics));
    }
}

/// Every series a replay counted is named in the Prometheus text dump.
#[test]
fn export_round_trip_and_prometheus_cover_the_same_series() {
    let sw = testbed(true);
    let flows = FlowGen::new(3, (0x0a01_0000, 16), (0x0a02_0000, 16)).flows(8);
    let report = replay_flows(&sw, &flows, 0, 4, 16, &workers(2));
    let snap = &report.metrics;
    assert!(!snap.is_zero());

    let prom = to_prometheus(snap);
    assert!(prom.contains("packets_injected 32"));
    assert!(prom.contains("packet_latency_ns_count"));
    for key in ["packets_emitted", "packets_dropped", "pipelet_packets"] {
        assert!(prom.contains(key), "prometheus dump misses {key}");
    }
}

/// `run_suite_with_metrics` wires PTF cases to the same registry the
/// replay layer uses, on an otherwise untouched switch.
#[test]
fn ptf_metrics_assertions_see_suite_traffic() {
    let mut sw = testbed(false);
    let mut pkt = dejavu_traffic::PacketBuilder::udp()
        .src_ip(0x0a00_0001)
        .dst_ip(0x0a01_0007)
        .build();
    pkt[..6].copy_from_slice(&[0, 0, 0, 0, 0, 1]);
    let report = dejavu_ptf::run_suite_with_metrics(
        &mut sw,
        vec![dejavu_ptf::TestCase::expect_port("routed", 0, pkt, 2)],
        dejavu_ptf::MetricsExpectations::new()
            .counter("packets_injected", 1)
            .counter("packets_emitted", 1)
            .counter_at_least("pipelet_packets{pipelet=\"ingress0\"}", 1)
            .family_total("packet_recirc_depth", 1),
    );
    report.assert_all_passed();
    assert!(!sw.telemetry_enabled());
}

/// The classification-index telemetry (`table_index_kind` /
/// `table_index_probes` / `table_index_rebuilds`) flows through
/// `MetricsSnapshot` and the PTF expectation helpers: forcing a policy is
/// visible as the kind gauge, suite traffic moves the probe counter, and
/// the rebuild counter stays flat over the suite (the forced reindex
/// happened before the baseline snapshot, and counters are deltas).
#[test]
fn ptf_index_expectations_see_forced_policy_and_probes() {
    let mut sw = testbed(false);
    sw.set_table_index(
        PipeletId::ingress(0),
        "route",
        dejavu_asic::IndexPolicy::Force(dejavu_asic::IndexKind::TupleSpace),
    )
    .unwrap();
    let mut pkt = dejavu_traffic::PacketBuilder::udp()
        .src_ip(0x0a00_0001)
        .dst_ip(0x0a01_0007)
        .build();
    pkt[..6].copy_from_slice(&[0, 0, 0, 0, 0, 1]);
    let report = dejavu_ptf::run_suite_with_metrics(
        &mut sw,
        vec![dejavu_ptf::TestCase::expect_port("routed", 0, pkt, 2)],
        dejavu_ptf::MetricsExpectations::new()
            .index_kind("ingress0", "route", dejavu_asic::IndexKind::TupleSpace)
            .index_probes_at_least("ingress0", "route", 1)
            .index_rebuilds("ingress0", "route", 0),
    );
    report.assert_all_passed();
}

/// The run-to-completion session's own telemetry (`rtc_worker_packets`,
/// `rtc_ring_depth`, `pool_in_use`, `pool_exhausted`) flows through the
/// merged snapshot and the PTF expectation helpers, alongside the core
/// pipeline series the workers' switch clones recorded.
#[test]
fn ptf_rtc_expectations_see_worker_and_pool_series() {
    let sw = testbed(true);
    let flows = FlowGen::new(9, (0x0a01_0000, 16), (0x0a02_0000, 16)).flows(16);
    let report = replay_flows(&sw, &flows, 0, 4, 16, &workers(4));
    assert_eq!(report.injected, 64);
    assert_eq!(report.errors, 0);

    let rows = dejavu_ptf::MetricsExpectations::new()
        .rtc_packets(64)
        .rtc_ring_samples(64)
        .pool_exhausted(0)
        .pool_in_use_at_least(1)
        .counter("packets_injected", 64)
        .evaluate(&report.metrics);
    for r in &rows {
        assert!(r.failure.is_none(), "{}: {:?}", r.name, r.failure);
    }

    // The per-core split covers every packet, and each touched core's
    // series passes the per-worker expectation helper.
    let mut covered = 0;
    for (core, &n) in report.worker_packets.iter().enumerate() {
        covered += n;
        if n > 0 {
            let per = dejavu_ptf::MetricsExpectations::new()
                .rtc_worker_at_least(core, n)
                .evaluate(&report.metrics);
            assert!(
                per[0].failure.is_none(),
                "{}: {:?}",
                per[0].name,
                per[0].failure
            );
        }
    }
    assert_eq!(covered, 64);
}
