//! Workload replay: flow-grouped packet lists through the switch's
//! run-to-completion engine.
//!
//! One driver. [`replay`] interleaves the flows into one arrival stream
//! (round-robin across flows, each flow's internal order preserved) and
//! hands it to a [`dejavu_asic::RtcSession`] booted from the caller's
//! switch: `cfg.workers` switch clones — programs, table entries, register
//! state, *and* metric counters — each fed by flow hash over pooled
//! buffers, so all packets of one flow hit the same clone in order and
//! per-flow state stays coherent within a worker. Cross-flow shared state
//! (e.g. a global rate-limiter register) diverges between workers, exactly
//! as it would across the pipes of a real multi-pipeline ASIC — use one
//! worker when that matters. The caller's switch is never mutated.
//!
//! The merged [`RtcReport::metrics`] equals, on every pipeline series, what
//! a one-worker replay of the same workload records (telemetry disabled ⇒
//! it is simply empty); the session's own `rtc_*` / `pool_*` series are per
//! worker by design. See [`dejavu_asic::rtc`] for how the deltas merge.

use crate::flows::FlowSpec;
use dejavu_asic::switch::PortId;
use dejavu_asic::{InjectedPacket, RtcConfig, RtcReport, RtcSession, Switch};

/// Replays `packets` (already grouped per flow: `packets[f]` is flow `f`'s
/// ordered packet list) through a fresh [`RtcSession`] on `switch`.
pub fn replay(switch: &Switch, packets: &[Vec<InjectedPacket>], cfg: &RtcConfig) -> RtcReport {
    let longest = packets.iter().map(Vec::len).max().unwrap_or(0);
    let mut stream = Vec::with_capacity(packets.iter().map(Vec::len).sum());
    for i in 0..longest {
        for flow in packets {
            if let Some(p) = flow.get(i) {
                stream.push(p.clone());
            }
        }
    }
    RtcSession::new(switch, cfg.clone()).run(&stream)
}

/// Convenience wrapper: materializes `packets_per_flow` packets for each
/// flow (all injected on `port` with `payload_len`-byte payloads) and
/// replays them via [`replay`].
pub fn replay_flows(
    switch: &Switch,
    flows: &[FlowSpec],
    port: PortId,
    packets_per_flow: usize,
    payload_len: usize,
    cfg: &RtcConfig,
) -> RtcReport {
    let packets: Vec<Vec<InjectedPacket>> = flows
        .iter()
        .map(|f| {
            let bytes = f.packet(payload_len);
            vec![InjectedPacket::new(bytes, port); packets_per_flow]
        })
        .collect();
    replay(switch, &packets, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::FlowGen;
    use dejavu_asic::{MetricsSnapshot, PipeletId, TofinoProfile};
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::table::{KeyMatch, TableEntry};
    use dejavu_p4ir::{fref, well_known, Expr, FieldRef, Value};

    /// Forward-by-ipv4-dst program: everything under 10.0.0.0/8 goes to
    /// port 2, rest drops.
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

    fn testbed() -> Switch {
        let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
        sw.load_program(PipeletId::ingress(0), router()).unwrap();
        sw.install_entry(
            PipeletId::ingress(0),
            "route",
            TableEntry {
                matches: vec![KeyMatch::Lpm(Value::new(0x0a00_0000, 32), 8)],
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

    /// The pipeline's own series: what must not depend on the worker count.
    fn pipeline_series(mut m: MetricsSnapshot) -> MetricsSnapshot {
        m.metrics
            .retain(|name, _| !name.starts_with("rtc_") && !name.starts_with("pool_"));
        m
    }

    #[test]
    fn sharded_replay_matches_single_worker_counts() {
        let sw = testbed();
        let flows = FlowGen::new(11, (0x0a01_0000, 16), (0x0a02_0000, 16)).flows(24);
        let single = replay_flows(&sw, &flows, 0, 4, 16, &workers(1));
        let sharded = replay_flows(&sw, &flows, 0, 4, 16, &workers(4));
        assert_eq!(single.injected, 96);
        assert_eq!(sharded.injected, 96);
        assert_eq!(single.emitted, sharded.emitted);
        assert_eq!(single.dropped, sharded.dropped);
        assert_eq!(single.errors + sharded.errors, 0);
        assert_eq!(single.pool_dropped + sharded.pool_dropped, 0);
        assert_eq!(sharded.workers, 4);
        assert_eq!(sharded.worker_packets.iter().sum::<u64>(), 96);
        assert!(sharded.packets_per_sec > 0.0);
    }

    #[test]
    fn sharded_metrics_merge_equals_single_worker() {
        let mut sw = testbed();
        sw.set_telemetry(true);
        let flows = FlowGen::new(7, (0x0a01_0000, 16), (0x0a02_0000, 16)).flows(12);
        let single = replay_flows(&sw, &flows, 0, 3, 8, &workers(1));
        let sharded = replay_flows(&sw, &flows, 0, 3, 8, &workers(4));
        assert_eq!(single.metrics.counter("packets_injected"), 36);
        assert_eq!(
            sharded.metrics.counter_family_total("rtc_worker_packets"),
            36
        );
        assert_eq!(
            pipeline_series(single.metrics),
            pipeline_series(sharded.metrics)
        );
    }

    #[test]
    fn disabled_telemetry_yields_empty_metrics() {
        let sw = testbed();
        let flows = FlowGen::new(5, (0x0a01_0000, 16), (0x0a02_0000, 16)).flows(4);
        let r = replay_flows(&sw, &flows, 0, 2, 0, &workers(2));
        assert!(r.metrics.is_zero());
    }

    #[test]
    fn replay_leaves_original_switch_untouched() {
        let sw = testbed();
        let flows = FlowGen::new(3, (0x0a01_0000, 16), (0x0a02_0000, 16)).flows(8);
        let _ = replay_flows(&sw, &flows, 0, 2, 0, &workers(2));
        // Workers clone the switch; the caller's counters stay at zero.
        let c = sw.tables(PipeletId::ingress(0)).unwrap().counters("route");
        assert_eq!(c.hits + c.misses, 0);
    }

    #[test]
    fn empty_workload_is_fine() {
        let sw = testbed();
        let r = replay(&sw, &[], &workers(8));
        assert_eq!(r.injected, 0);
        assert_eq!(r.worker_packets, vec![0; 8]);
    }
}
