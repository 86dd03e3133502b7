//! Workload replay — a full traffic trace through the §5 prototype.
//!
//! Generates a multi-tenant Fig. 2 workload (weighted path mix, per-chain
//! source prefixes, Zipf-skewed flow popularity), replays thousands of
//! packets through the deployed 5-NF switch with a live control plane
//! learning LB sessions from punts, and reports per-path outcomes, the
//! latency distribution, and the recirculation histogram.

use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, RtcConfig};
use dejavu_bench::{banner, row, write_json};
use dejavu_core::control_plane::{rewind_and_clear, ControlPlane, PuntResponse};
use dejavu_integration::{fig9_testbed, EXIT_PORT, IN_PORT};
use dejavu_nf::load_balancer::{five_tuple_of, session_entry_for, SESSION_TABLE};
use dejavu_traffic::{replay, FlowGen, WorkloadMix};
use serde::Serialize;
use std::collections::BTreeMap;

const VIP: u32 = 0xc633_6450;
const BACKEND_POOL: [u32; 4] = [0x0a63_0001, 0x0a63_0002, 0x0a63_0003, 0x0a63_0004];
const PACKETS: usize = 5_000;
const FLOWS: usize = 200;

#[derive(Serialize, Default)]
struct Report {
    packets: usize,
    flows: usize,
    emitted: usize,
    punted_then_learned: u64,
    dropped: usize,
    recirc_histogram: BTreeMap<usize, usize>,
    latency_p50_ns: f64,
    latency_p99_ns: f64,
    sessions_installed: u64,
    fast_path_pps_1_worker: f64,
    fast_path_pps_4_workers: f64,
}

fn main() {
    banner(
        "Workload replay",
        "Fig. 2 mix through the live §5 prototype",
    );
    let (mut switch, dep) = fig9_testbed();

    // Control plane: learn LB sessions, sticky per 5-tuple hash.
    let mut cp = ControlPlane::new();
    cp.register_handler(
        "lb",
        Box::new(move |bytes| match five_tuple_of(bytes) {
            Some(t) if t.dst_addr == VIP => {
                let backend = BACKEND_POOL[(t.session_hash() as usize) % BACKEND_POOL.len()];
                PuntResponse {
                    install: vec![(
                        "lb".into(),
                        SESSION_TABLE.into(),
                        session_entry_for(&t, backend),
                    )],
                    reinject: true,
                    reinject_bytes: rewind_and_clear(bytes),
                }
            }
            _ => PuntResponse::default(),
        }),
    );

    // Workload: the Fig. 2 weights, 200 flows, Zipf(1.1) popularity.
    let mix = WorkloadMix::from_weights(&[(1, 0.5), (2, 0.3), (3, 0.2)]);
    let flows = mix.flows(42, FLOWS);
    let mut gen = FlowGen::new(7, (0, 0), (0, 0));
    let schedule = gen.zipf_schedule(FLOWS, PACKETS, 1.1);

    let mut report = Report {
        packets: PACKETS,
        flows: FLOWS,
        ..Default::default()
    };
    let mut latencies = Vec::with_capacity(PACKETS);
    for &flow_idx in &schedule {
        let (_path, flow) = &flows[flow_idx];
        // All flows target the VIP so the LB path is exercised.
        let mut f = *flow;
        f.dst_ip = VIP;
        f.protocol = 6;
        let pkt = f.packet(16);
        let t = cp.inject_tracking_punts(&mut switch, pkt, IN_PORT).unwrap();
        match t.disposition {
            Disposition::Emitted { port } => {
                assert_eq!(port, EXIT_PORT);
                report.emitted += 1;
                *report.recirc_histogram.entry(t.recirculations).or_insert(0) += 1;
                latencies.push(t.latency_ns);
            }
            Disposition::ToCpu => { /* counted via control-plane stats */ }
            Disposition::Dropped => report.dropped += 1,
        }
        // Drain punts immediately (an inline control plane).
        let reinjected = cp.process_punts(&mut switch, &dep).unwrap();
        for t in reinjected {
            if let Disposition::Emitted { .. } = t.disposition {
                report.emitted += 1;
                *report.recirc_histogram.entry(t.recirculations).or_insert(0) += 1;
                latencies.push(t.latency_ns);
            }
        }
    }
    report.punted_then_learned = cp.stats.reinjections;
    report.sessions_installed = cp.stats.installs;

    latencies.sort_by(f64::total_cmp);
    report.latency_p50_ns = latencies[latencies.len() / 2];
    report.latency_p99_ns = latencies[latencies.len() * 99 / 100];

    row("packets replayed", "—", &PACKETS.to_string());
    row(
        "emitted end-to-end",
        "all service paths work",
        &report.emitted.to_string(),
    );
    row(
        "LB sessions learned via punts",
        "one per flow",
        &report.sessions_installed.to_string(),
    );
    row(
        "dropped",
        "0 (no deny rules hit)",
        &report.dropped.to_string(),
    );
    println!("  recirculation histogram: {:?}", report.recirc_histogram);
    println!(
        "  latency p50 {:.0} ns, p99 {:.0} ns",
        report.latency_p50_ns, report.latency_p99_ns
    );

    // Every packet eventually emitted; every path-1/2/3 flow to the VIP
    // traverses with exactly one recirculation under this placement.
    assert_eq!(report.emitted, PACKETS);
    assert_eq!(report.dropped, 0);
    assert_eq!(
        report.recirc_histogram.keys().copied().collect::<Vec<_>>(),
        vec![1]
    );
    // Sessions: one per distinct flow (path-1 flows punt once each).
    assert!(report.sessions_installed <= FLOWS as u64);
    assert!(report.punted_then_learned == report.sessions_installed);

    // ---- fast-path ablation: the same trace, replayed on the warm switch.
    // All LB sessions are now installed, so the whole workload runs in the
    // data plane; the replay driver measures pure packets/sec through
    // run-to-completion workers, no traces.
    const REPLAY_SCALE: usize = 8;
    let mut per_flow: BTreeMap<usize, Vec<InjectedPacket>> = BTreeMap::new();
    for &flow_idx in &schedule {
        let (_path, flow) = &flows[flow_idx];
        let mut f = *flow;
        f.dst_ip = VIP;
        f.protocol = 6;
        let pkt = f.packet(16);
        per_flow.entry(flow_idx).or_default().extend(
            std::iter::repeat_with(|| InjectedPacket::new(pkt.clone(), IN_PORT)).take(REPLAY_SCALE),
        );
    }
    let grouped: Vec<Vec<InjectedPacket>> = per_flow.into_values().collect();
    let workers = |workers| RtcConfig {
        workers,
        ..RtcConfig::default()
    };
    let single = replay(&switch, &grouped, &workers(1));
    let sharded = replay(&switch, &grouped, &workers(4));
    let total = (PACKETS * REPLAY_SCALE) as u64;
    assert_eq!(single.injected, total);
    assert_eq!(single.emitted, total);
    assert_eq!(sharded.emitted, total);
    report.fast_path_pps_1_worker = single.packets_per_sec;
    report.fast_path_pps_4_workers = sharded.packets_per_sec;
    row(
        "fast-path replay (1 worker)",
        "—",
        &format!("{:.0} pps", report.fast_path_pps_1_worker),
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    row(
        "fast-path replay (4 workers)",
        "—",
        &format!(
            "{:.0} pps ({cores} host core{} available)",
            report.fast_path_pps_4_workers,
            if cores == 1 { "" } else { "s" }
        ),
    );

    write_json("workload_replay", &report);
    println!("\n  SHAPE CHECK: a realistic multi-tenant trace runs entirely in the data plane after first-packet session learning; every packet stays within the §5 one-recirculation budget.");
}
