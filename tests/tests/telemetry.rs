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

/// `run_suite_with_metrics` wires PTF cases to the same scrape the replay
/// layer uses, on an otherwise untouched switch.
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

// ---------------------------------------------------------------------
// Pinned scrapes: every exported series, by name, kind and value.
// ---------------------------------------------------------------------

const VIP: u32 = 0xc633_6450; // 198.51.100.80

/// FNV-1a over the rows `name \t kind \t value \n`, in name order: a
/// scrape's whole content in one number.
fn scrape_hash(snap: &MetricsSnapshot) -> u64 {
    use dejavu_asic::telemetry::MetricValue;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, value) in &snap.metrics {
        let row = match value {
            MetricValue::Counter(v) => format!("{name}\tcounter\t{v}\n"),
            MetricValue::Gauge(v) => format!("{name}\tgauge\t{v}\n"),
            MetricValue::Histogram(hs) => {
                format!(
                    "{name}\thistogram\t{} {} {:?}\n",
                    hs.count, hs.sum, hs.buckets
                )
            }
        };
        for b in row.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The fixed packet mix: each Fig. 2 path to three ports (TCP/22 on path
/// 1 is the firewall's deny), a flow outside every chain, and an
/// injection on a port the switch does not have.
fn packet_mix() -> Vec<(Vec<u8>, PortId)> {
    use dejavu_integration::{chain_packet, IN_PORT};
    let mut mix: Vec<(Vec<u8>, PortId)> = [1u16, 2, 3]
        .into_iter()
        .flat_map(|path| [80, 22, 443].map(|port| (chain_packet(path, VIP, port), IN_PORT)))
        .collect();
    let stray = dejavu_traffic::PacketBuilder::tcp()
        .src_ip(0xac10_0001)
        .dst_ip(VIP)
        .build();
    mix.push((stray.clone(), IN_PORT));
    mix.push((stray, 999));
    mix
}

/// The Fig. 9 testbed after [`packet_mix`] on one engine, telemetry on,
/// with one LB session installed so path 1 both punts and exits.
fn fig9_scrape(mode: ExecMode) -> MetricsSnapshot {
    use dejavu_nf::load_balancer::{five_tuple_of, session_entry_for, SESSION_TABLE};
    let (mut sw, dep) = dejavu_integration::fig9_testbed();
    sw.set_exec_mode(mode);
    sw.set_telemetry(true);
    let pkt = dejavu_integration::chain_packet(1, VIP, 443);
    let session = session_entry_for(&five_tuple_of(&pkt).unwrap(), 0x0a63_0001);
    dep.install(&mut sw, "lb", SESSION_TABLE, session).unwrap();
    for (bytes, port) in packet_mix() {
        let _ = sw.inject(InjectedPacket::new(bytes, port));
    }
    sw.metrics_snapshot()
}

/// The replacement fleet on its pre-shift optimum as a 3-member
/// [`deploy_cluster`], telemetry on, NAT learning registered and armed:
/// path 1 (10.1/16) classified through the NAT, path 2 (11/8) to the
/// marker.
fn armed_fleet() -> (dejavu_core::transport::ClusterHandle, Vec<NfModule>) {
    use dejavu_core::multiswitch::{deploy_cluster, ClusterWiring};
    use dejavu_core::orchestrator::{ExhaustiveSearch, PlacementSearch};
    use dejavu_integration::{replacement_fleet, replacement_fleet_nfs, EXIT_PORT};
    use dejavu_nf::{classifier, nat, router};
    let fleet = replacement_fleet();
    let nfs = replacement_fleet_nfs();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let pre = ExhaustiveSearch::default().search(&fleet).unwrap();
    let mut handle = deploy_cluster(
        &refs,
        fleet.chains(),
        &pre.placement,
        &TofinoProfile::wedge_100b_32x(),
        [(1u16, EXIT_PORT), (2u16, EXIT_PORT)].into_iter().collect(),
        &ClusterWiring::default(),
        &fleet_deploy_options(),
    )
    .unwrap();
    for member in 0..handle.members() {
        handle.switch(member).unwrap().set_telemetry(true);
    }
    handle
        .register_learn_policy("nat", nat::NAT_FLOW_STREAM, nat::nat_learn_policy())
        .unwrap();
    let rules = [
        (
            "classifier",
            classifier::CLASSIFY_TABLE,
            classifier::classify_entry((0x0a01_0000, 16), (0, 0), 1, 100),
        ),
        (
            "classifier",
            classifier::CLASSIFY_TABLE,
            classifier::classify_entry((0x0b00_0000, 8), (0, 0), 2, 100),
        ),
        (
            "nat",
            nat::NAT_OUT_TABLE,
            nat::nat_out_entry((0x0a01_0000, 16), 0xc633_6401),
        ),
        (
            "router",
            router::ROUTES_TABLE,
            router::route_entry((0, 0), EXIT_PORT, 0x0200_0000_0099, 0x0200_0000_0001),
        ),
    ];
    for (nf, table, entry) in rules {
        handle.install(nf, table, entry).unwrap();
    }
    (handle, nfs)
}

fn fleet_deploy_options() -> dejavu_core::deploy::DeployOptions {
    dejavu_core::deploy::DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    }
}

/// A scrape's rows are pinned: the switch, the cluster and the
/// orchestrator export exactly these names, kinds and values, however
/// their counters are kept. The orchestrator's migration-duration
/// histogram is wall-clock time, so only its sample count is hashed.
#[test]
fn scrapes_are_pinned() {
    use dejavu_core::orchestrator::{ExhaustiveSearch, PlacementSearch};
    use dejavu_core::orchestrator::{FleetSpec, Orchestrator, StepOutcome};
    use dejavu_integration::{replacement_fleet, EXIT_PORT};

    let fresh = Switch::new(TofinoProfile::wedge_100b_32x()).metrics_snapshot();
    assert_eq!(fresh.metrics.len(), 115);

    let compiled = fig9_scrape(ExecMode::Compiled);
    assert_eq!(compiled, fig9_scrape(ExecMode::Reference));

    let (mut handle, nfs) = armed_fleet();
    for (bytes, port) in packet_mix() {
        let _ = handle.inject(InjectedPacket::new(bytes, port));
    }
    handle.process_digests().unwrap();
    let scrape = handle.metrics_snapshot().unwrap();
    let per_switch: Vec<u64> = scrape.per_switch.iter().map(scrape_hash).collect();

    // One replan: a baseline window, then two B-heavy windows (the first
    // suppressed by hysteresis) over scrapes built by hand.
    let fleet = replacement_fleet();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let wiring = dejavu_core::multiswitch::ClusterWiring::default();
    let deploy = fleet_deploy_options();
    let spec = FleetSpec {
        nfs: &refs,
        chains: fleet.chains(),
        profile: &TofinoProfile::wedge_100b_32x(),
        exit_ports: [(1u16, EXIT_PORT), (2u16, EXIT_PORT)].into_iter().collect(),
        wiring: &wiring,
        deploy: &deploy,
    };
    let pre = ExhaustiveSearch::default().search(&fleet).unwrap();
    let mut orch = Orchestrator::new(
        fleet.clone(),
        pre.placement,
        Box::new(ExhaustiveSearch::default()),
    )
    .unwrap();
    let window = |n: u64| -> Vec<MetricsSnapshot> {
        [18 * n, 16 * n, 0]
            .into_iter()
            .map(|injected| {
                let mut s = MetricsSnapshot::default();
                s.set_counter("packets_injected", injected);
                s
            })
            .collect()
    };
    let outcomes: Vec<StepOutcome> = (0..3)
        .map(|n| orch.step(&mut handle, &spec, &window(n)).unwrap())
        .collect();
    assert!(
        matches!(outcomes[2], StepOutcome::Migrated { .. }),
        "{outcomes:?}"
    );
    let mut orch_metrics = orch.metrics();
    let duration = orch_metrics
        .histogram("orchestrator_migration_duration_ns")
        .unwrap()
        .count;
    assert_eq!(duration, 1);
    orch_metrics.set_counter("orchestrator_migration_duration_ns", duration);

    let hashes = [
        ("fresh switch, telemetry off", scrape_hash(&fresh)),
        ("Fig. 9, both engines", scrape_hash(&compiled)),
        ("cluster member 0", per_switch[0]),
        ("cluster member 1", per_switch[1]),
        ("cluster member 2", per_switch[2]),
        ("cluster merged", scrape_hash(&scrape.merged)),
        ("orchestrator", scrape_hash(&orch_metrics)),
    ];
    let pinned: [u64; 7] = [
        0x7e56_ba16_d4c5_18a5,
        0x2a72_5450_3472_1333,
        0x1887_1d41_7896_46a5,
        0x6e1a_e117_521e_236b,
        0x8247_4614_11d9_6fb8,
        0x6b0f_65e5_ff00_245d,
        0xd27d_fd17_2539_7ba5,
    ];
    for ((what, got), want) in hashes.iter().zip(pinned) {
        assert_eq!(*got, want, "{what}: scrape hash {got:#018x}");
    }
}
