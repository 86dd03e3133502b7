//! `sfc_edge` — the paper's headline: a whole service chain on one ASIC.
//!
//! The §5 prototype (`fig9_testbed`: classifier+firewall on ingress 0,
//! VGW+LB on egress 1, router on ingress 1, pipeline 1 in loopback) under
//! the Fig. 2 traffic mix: three paths weighted 0.5/0.3/0.2, 1000 TCP
//! flows sent on a Zipf(1.1) schedule of 4096 packets, frame sizes
//! 64/576/1500 at 7:4:1, LB sessions pre-installed, and 2 % of path-1
//! flows aimed at TCP/22, which the firewall must drop. Every packet makes
//! about four pipelet passes and one recirculation over small tables, so
//! pass execution, the merged parser and the traffic-manager loop
//! dominate and the index idles. The same schedule then goes through a
//! warm [`RtcSession`].

use super::single::{self, Schedule};
use crate::harness::{Meter, Scale};
use crate::stats::{Kind, Series};
use crate::trace::{Tracer, ROOT};
use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, PacketPool, RtcConfig, RtcSession, Switch};
use dejavu_core::deploy::Deployment;
use dejavu_integration::{fig9_testbed, src_prefix, EXIT_PORT, IN_PORT};
use dejavu_nf::load_balancer::{five_tuple_of, session_entry_for, SESSION_TABLE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value as Json;
use std::hint::black_box;
use std::time::Instant;

/// Scheduled packets.
pub const SCHEDULE_LEN: usize = 4096;
/// Zipf exponent of flow popularity.
pub const ZIPF_S: f64 = 1.1;
/// The virtual IP path-1 and path-2 traffic is addressed to (inside the
/// VGW's 198.51.100.0/24).
const VIP: u32 = 0xc633_6450;
/// Backend the LB sessions rewrite to.
const BACKEND: u32 = 0x0a63_0001;

/// Flows at each scale.
pub fn flows_for(scale: Scale) -> usize {
    match scale {
        Scale::Full | Scale::Quick => 1000,
        Scale::Smoke => 100,
    }
}

/// One flow of the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Service path (1, 2 or 3).
    pub path: u16,
    /// The flow's packet.
    pub bytes: Vec<u8>,
    /// True for path-1 flows aimed at TCP/22 (firewall deny).
    pub denied: bool,
}

/// Paths of ten consecutive flow ranks: the Fig. 2 weights 0.5/0.3/0.2.
const PATH_CYCLE: [u16; 10] = [1, 2, 1, 3, 1, 2, 1, 2, 1, 3];
/// Frame sizes of twelve consecutive ranks within a path: 64/576/1500 at
/// 7:4:1.
const FRAME_CYCLE: [usize; 12] = [64, 576, 64, 64, 576, 64, 1500, 64, 576, 64, 576, 64];

/// The flows, most popular first. Path and frame size follow fixed cycles
/// over the popularity rank, so every seed offers the same mix of work at
/// every level of popularity (drawing them at random lets the few heavy
/// hitters of a Zipf schedule decide the mix, and `pps` then moves ±5 %
/// with the seed alone); addresses and ports are the seed's. The path-1
/// flows of rank 10, 74, 138, … aim at TCP/22 — about 2 % of path-1
/// packets — and must be dropped by the firewall.
pub fn flows(n: usize, seed: u64) -> Vec<Flow> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5fc);
    let mut rank_in_path = [0usize; 4];
    (0..n)
        .map(|i| {
            let path = PATH_CYCLE[i % PATH_CYCLE.len()];
            let rank = rank_in_path[path as usize];
            rank_in_path[path as usize] += 1;
            let frame = FRAME_CYCLE[rank % FRAME_CYCLE.len()];
            let denied = path == 1 && rank % 64 == 9;
            let bytes = dejavu_traffic::PacketBuilder::tcp()
                .src_ip(src_prefix(path).0 | rng.gen_range(1..0xffffu32))
                .dst_ip(VIP)
                .src_port(rng.gen_range(1024..=u16::MAX))
                .dst_port(if denied { 22 } else { 443 })
                .payload(&vec![0u8; frame - 4 - 54])
                .build();
            Flow {
                path,
                bytes,
                denied,
            }
        })
        .collect()
}

/// The schedule: flow popularity is Zipf by flow index.
pub fn schedule(flows: &[Flow], seed: u64) -> Schedule {
    let mut gen = dejavu_traffic::FlowGen::new(seed ^ 0x21bf, (0, 0), (0, 0));
    Schedule {
        packets: flows
            .iter()
            .map(|f| InjectedPacket::new(f.bytes.clone(), IN_PORT))
            .collect(),
        expect: flows
            .iter()
            .map(|f| {
                if f.denied {
                    Disposition::Dropped
                } else {
                    Disposition::Emitted { port: EXIT_PORT }
                }
            })
            .collect(),
        order: gen
            .zipf_schedule(flows.len(), SCHEDULE_LEN, ZIPF_S)
            .into_iter()
            .map(|i| i as u32)
            .collect(),
    }
}

/// Builds the prototype from nothing: merge, compose, allocate, deploy,
/// baseline rules, and one LB session per path-1 flow.
pub fn build(flows: &[Flow]) -> (Switch, Deployment) {
    let (mut sw, dep) = fig9_testbed();
    for f in flows.iter().filter(|f| f.path == 1 && !f.denied) {
        let tuple = five_tuple_of(&f.bytes).expect("flow packets are eth/ipv4/tcp");
        dep.install(
            &mut sw,
            "lb",
            SESSION_TABLE,
            session_entry_for(&tuple, BACKEND),
        )
        .expect("session installs");
    }
    (sw, dep)
}

/// Workers the RTC session runs with, and the schedule mode that follows
/// from `RtcSession`'s rule (inline when it is asked for more workers than
/// the host has cores, one thread per worker otherwise).
fn rtc_shape() -> (usize, &'static str) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = cores.saturating_sub(1).max(1);
    (
        workers,
        if workers > cores {
            "inline"
        } else {
            "threaded"
        },
    )
}

/// Runs `reps` timed repetitions of the schedule through a warm session.
fn rtc_reps(meter: &mut Meter<'_>, sw: &Switch, sched: &Schedule, reps: usize) -> (Series, u64) {
    let (workers, mode) = rtc_shape();
    meter.out.note("rtc_workers", Json::UInt(workers as u64));
    meter.out.note("rtc_schedule", Json::Str(mode.to_string()));
    let workload: Vec<InjectedPacket> = sched
        .order
        .iter()
        .map(|&i| sched.packets[i as usize].clone())
        .collect();
    let expect_emitted = sched
        .order
        .iter()
        .filter(|&&i| matches!(sched.expect[i as usize], Disposition::Emitted { .. }))
        .count() as u64;
    let mut session = RtcSession::new(
        sw,
        RtcConfig {
            workers,
            ..RtcConfig::default()
        },
    );
    session.run(&workload); // warm: pools and scratch grow once
    let mut pps = Series::default();
    let mut exhausted = 0u64;
    meter.reopen();
    for _ in 0..reps {
        let (mut packets, mut bad, mut elapsed) = (0u64, 0u64, 0.0f64);
        while elapsed < meter.cfg.rep_s {
            // The session is quiescent between runs: a safe place to tick.
            let t = Instant::now();
            let r = session.run(&workload);
            elapsed += t.elapsed().as_secs_f64();
            meter.tick();
            packets += r.injected;
            exhausted += r.pool_exhausted;
            bad += r.errors + r.pool_dropped + r.emitted.abs_diff(expect_emitted);
        }
        let slowness = meter.close_rep().mean;
        meter.out.count(packets, bad);
        pps.push(Kind::Rate, packets as f64 / elapsed, slowness);
    }
    (pps, exhausted)
}

/// Runs the workload.
pub fn run(meter: &mut Meter<'_>) {
    let seed = meter.cfg.seed;
    let flows = flows(flows_for(meter.cfg.scale), seed);
    let (mut sw, _dep) = meter.setup(|_| build(&flows));
    let sched = schedule(&flows, seed);
    let facts = single::oracle(&sw, &sched, &mut meter.out);
    meter.out.layer("recirc_per_pkt", facts.recirc_per_pkt);
    meter.out.layer("sim_latency_ns", facts.sim_latency_ns);
    if meter.cfg.measure_s > 0.0 {
        // Four repetitions in five go to inject_buf, one to the session.
        let reps = meter.reps();
        let rtc = (reps / 5).max(1);
        single::measure(meter, &mut sw, &sched, (reps - rtc).max(1));
        let (pps, _) = rtc_reps(meter, &sw, &sched, rtc);
        meter.out.layer_series("rtc_pps", &pps);
    }
    if meter.cfg.trace_s > 0.0 {
        single::traced(meter, &mut sw, &sched);
        traced_rtc(meter, &sw, &sched);
    }
}

/// The RTC layers: `rtc.run ⊃ pool.acquire_copy + switch.inject_buf`.
fn traced_rtc(meter: &mut Meter<'_>, sw: &Switch, sched: &Schedule) {
    let reps = ((meter.cfg.trace_s * 0.15 / meter.cfg.rep_s).ceil() as usize).max(1);
    let (pps, exhausted) = rtc_reps(meter, sw, sched, reps);
    let rtc_pps = pps.figure("1/s");
    let run_ns = 1e9 / rtc_pps.raw;
    if !meter.out.per_layer.contains_key("rtc_pps") {
        meter.out.layer_series("rtc_pps", &pps);
    }
    meter.out.layer("asic.rtc.pool_exhausted", exhausted as f64);

    // The pool on its own: copy the packet in, hand the buffer back.
    let cfg = RtcConfig::default();
    let pool = PacketPool::new(cfg.pool_packets, cfg.buf_capacity);
    let mut tracer = Tracer::new();
    let layer = tracer.layer("asic.pool.acquire_copy");
    let n = sched.order.len() * 4;
    tracer.reserve(n);
    for op in 0..n {
        let pkt = &sched.packets[sched.order[op % sched.order.len()] as usize];
        tracer.span(layer, ROOT, op as u32, || {
            black_box(pool.acquire_copy(&pkt.bytes));
        });
    }
    let acquire_ns = tracer.layers()["asic.pool.acquire_copy"].mean_ns();
    meter.out.layer("asic.pool.acquire_copy_ns", acquire_ns);
    meter.out.layer("asic.rtc.run_ns_per_pkt", run_ns);
    let inject_ns = meter
        .out
        .per_layer
        .get("asic.switch.inject_buf_ns")
        .map_or(0.0, |f| f.value);
    meter.out.layer(
        "asic.rtc.self_ns",
        (run_ns - acquire_ns - inject_ns).max(0.0),
    );
}
