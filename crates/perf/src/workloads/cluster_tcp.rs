//! `cluster_tcp` — per-frame cost of the cluster runtime.
//!
//! Nine marker NFs, three per switch (the `cluster_demo` fleet), booted by
//! `spawn_cluster` on [`TcpTransport`] over 127.0.0.1 — the host's
//! loopback interface, not a real link. 256 SFC-encapsulated flows.
//! Phase A keeps one packet in flight (`ClusterHandle::inject`) and gives
//! `latency_p50_us`; phase B keeps 32 in flight (`inject_async` /
//! `recv_delivered`) and gives `pps`. A packet crosses four frames and
//! three worker threads; the switches' own work is a small share, so this
//! is the wire format, the sockets, the worker loop and the controller.

use super::cluster::{self, HOPS_PER_FLIGHT};
use crate::harness::{self, Meter, Outcome, Scale};
use crate::stats::{self, Kind, LogHist, Series};
use crate::trace::{Tracer, ROOT};
use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, PipeletId, TofinoProfile};
use dejavu_core::deploy::DeployOptions;
use dejavu_core::multiswitch::{deploy_cluster, ClusterNet, ClusterPlacement, ClusterWiring};
use dejavu_core::placement::Placement;
use dejavu_core::transport::{
    spawn_cluster, ClusterHandle, ClusterOptions, TcpTransport, Transport, WireTraversal,
};
use dejavu_core::{ChainPolicy, ChainSet, NfModule, SfcHeader};
use dejavu_integration::{marker_nf, EXIT_PORT, IN_PORT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value as Json;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Packets kept in flight in phase B.
pub const WINDOW: usize = 32;
/// How long a delivery may take before it counts as lost.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(10);

/// Flows at each scale.
pub fn flows_for(scale: Scale) -> usize {
    match scale {
        Scale::Full | Scale::Quick => 256,
        Scale::Smoke => 32,
    }
}

/// The nine-NF, three-switch fleet.
pub struct Fleet {
    nfs: Vec<NfModule>,
    chains: ChainSet,
    placement: ClusterPlacement,
    exit_ports: BTreeMap<u16, u16>,
}

impl Fleet {
    /// One chain of nine marker NFs; switch `s` hosts NFs `3s` and `3s+1`
    /// on its ingress pipelet and `3s+2` on its egress pipelet.
    pub fn new() -> Self {
        let names: Vec<String> = (0..9).map(|i| format!("fw{i}")).collect();
        let nfs = names
            .iter()
            .enumerate()
            .map(|(i, n)| marker_nf(n, i as u32))
            .collect();
        let chains = ChainSet::new(vec![ChainPolicy {
            path_id: 1,
            name: "spilled".into(),
            nfs: names.clone(),
            weight: 1.0,
        }])
        .expect("one valid chain");
        let placement = ClusterPlacement {
            switches: (0..3)
                .map(|s| {
                    let mut p = Placement::default();
                    p.pipelets.insert(
                        PipeletId::ingress(0),
                        vec![names[s * 3].clone(), names[s * 3 + 1].clone()],
                    );
                    p.pipelets
                        .insert(PipeletId::egress(0), vec![names[s * 3 + 2].clone()]);
                    p
                })
                .collect(),
        };
        Fleet {
            nfs,
            chains,
            placement,
            exit_ports: [(1u16, EXIT_PORT)].into_iter().collect(),
        }
    }

    /// Boots the fleet as communicating workers over `transport`.
    pub fn spawn(&self, transport: &mut dyn Transport) -> ClusterHandle {
        let refs: Vec<&NfModule> = self.nfs.iter().collect();
        spawn_cluster(
            &refs,
            &self.chains,
            &self.placement,
            &TofinoProfile::wedge_100b_32x(),
            self.exit_ports.clone(),
            &ClusterWiring::default(),
            &DeployOptions::default(),
            transport,
            &ClusterOptions::default(),
        )
        .expect("cluster spawns")
    }

    /// The same fleet as one lockstep call stack — the oracle.
    pub fn lockstep(&self) -> ClusterNet {
        let refs: Vec<&NfModule> = self.nfs.iter().collect();
        deploy_cluster(
            &refs,
            &self.chains,
            &self.placement,
            &TofinoProfile::wedge_100b_32x(),
            self.exit_ports.clone(),
            &ClusterWiring::default(),
            &DeployOptions::default(),
        )
        .expect("lockstep cluster deploys")
    }
}

impl Default for Fleet {
    fn default() -> Self {
        Self::new()
    }
}

/// `n` SFC-encapsulated TCP packets of path 1, service index 0, with
/// seeded addresses and ports.
pub fn flows(n: usize, seed: u64) -> Vec<InjectedPacket> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc1a5);
    (0..n)
        .map(|_| {
            let raw = dejavu_traffic::PacketBuilder::tcp()
                .src_ip(0x0a00_0000 | rng.gen_range(1..0x00ff_ffffu32))
                .dst_ip(0xc633_6400 | rng.gen_range(1..255u32))
                .src_port(rng.gen_range(1024..=u16::MAX))
                .dst_port(443)
                .build();
            let sfc = SfcHeader::for_path(1);
            let mut bytes = Vec::with_capacity(raw.len() + 20);
            bytes.extend_from_slice(&raw[..12]);
            bytes.extend_from_slice(&dejavu_core::sfc::SFC_ETHERTYPE.to_be_bytes());
            bytes.extend_from_slice(&sfc.to_bytes());
            bytes.extend_from_slice(&raw[14..]);
            InjectedPacket::new(bytes, IN_PORT)
        })
        .collect()
}

/// Output oracle: every flow once through the transport cluster and once
/// through the lockstep `ClusterNet`; the flights must agree. Returns each
/// flow's flight (the expectation the timed phases check against) and the
/// mean simulated latency.
fn oracle(
    fleet: &Fleet,
    handle: &mut ClusterHandle,
    flows: &[InjectedPacket],
    out: &mut Outcome,
) -> (Vec<WireTraversal>, f64) {
    let mut lockstep = fleet.lockstep();
    let mut flights = Vec::with_capacity(flows.len());
    let mut bad = 0u64;
    let mut sim = 0.0;
    for pkt in flows {
        let wire = handle.inject(pkt.clone());
        let reference = lockstep.inject(pkt.clone());
        let agree = match (&wire, &reference) {
            (Ok(w), Ok(r)) => {
                w.disposition == Disposition::Emitted { port: EXIT_PORT }
                    && w.disposition == r.disposition
                    && w.final_bytes == r.final_bytes
                    && w.latency_ns == r.latency_ns
                    && w.recirculations == r.recirculations
                    && w.inter_switch_hops == r.inter_switch_hops
                    && w.hops.len() == r.hops.len()
            }
            _ => false,
        };
        bad += u64::from(!agree);
        let flight = wire.unwrap_or_else(|_| WireTraversal {
            hops: Vec::new(),
            disposition: Disposition::Dropped,
            final_bytes: Vec::new(),
            latency_ns: 0.0,
            recirculations: 0,
            resubmissions: 0,
            inter_switch_hops: 0,
        });
        sim += flight.latency_ns;
        flights.push(flight);
    }
    out.count(flows.len() as u64, bad);
    out.note("oracle_packets", Json::UInt(flows.len() as u64));
    out.note("oracle_mismatches", Json::UInt(bad));
    (flights, sim / flows.len().max(1) as f64)
}

fn as_expected(got: &WireTraversal, want: &WireTraversal) -> bool {
    got.disposition == want.disposition
        && got.final_bytes == want.final_bytes
        && got.latency_ns == want.latency_ns
}

/// Phase A: one packet in flight for `seconds`. Appends each flight's
/// latency in µs to `lat_us`; returns `(flights, failed)`.
fn one_in_flight(
    handle: &mut ClusterHandle,
    flows: &[InjectedPacket],
    flights: &[WireTraversal],
    cursor: &mut usize,
    seconds: f64,
    lat_us: &mut Vec<f64>,
    mut tick: impl FnMut() -> f64,
) -> (u64, u64) {
    let (mut n, mut failed) = (0u64, 0u64);
    let (mut busy, mut next_tick) = (0.0, harness::TICK_S);
    while busy < seconds {
        let i = *cursor % flows.len();
        *cursor += 1;
        let pkt = flows[i].clone();
        let t = Instant::now();
        let r = handle.inject(pkt);
        let took = t.elapsed().as_secs_f64();
        lat_us.push(took * 1e6);
        busy += took;
        failed += u64::from(!r.is_ok_and(|w| as_expected(&w, &flights[i])));
        n += 1;
        // With one in flight the workers are idle between injects: the
        // calibration kernel has the CPU to itself.
        if busy >= next_tick {
            next_tick += harness::TICK_S;
            tick();
        }
    }
    (n, failed)
}

/// Phase B: [`WINDOW`] packets in flight for `seconds`. Returns
/// `(flights completed, failed, elapsed seconds)`; the window is drained
/// before returning so phases do not overlap.
fn windowed(
    handle: &mut ClusterHandle,
    flows: &[InjectedPacket],
    flights: &[WireTraversal],
    cursor: &mut usize,
    seconds: f64,
) -> (u64, u64, f64) {
    let mut pending: VecDeque<(u64, usize)> = VecDeque::with_capacity(WINDOW);
    let (mut done, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut send = |handle: &mut ClusterHandle, pending: &mut VecDeque<(u64, usize)>| {
        let i = *cursor % flows.len();
        *cursor += 1;
        match handle.inject_async(flows[i].clone()) {
            Ok(trace) => pending.push_back((trace, i)),
            Err(_) => failed += 1,
        }
    };
    for _ in 0..WINDOW {
        send(handle, &mut pending);
    }
    let mut lost = 0u64;
    while !pending.is_empty() {
        let Ok(Some(d)) = handle.recv_delivered(DELIVERY_TIMEOUT) else {
            lost = pending.len() as u64;
            break;
        };
        let flow = pending
            .iter()
            .position(|(trace, _)| *trace == d.trace)
            .and_then(|at| pending.remove(at))
            .map(|(_, flow)| flow);
        let ok = match (flow, d.result) {
            (Some(flow), Ok(w)) => as_expected(&w, &flights[flow]),
            _ => false,
        };
        lost += u64::from(!ok);
        done += 1;
        if start.elapsed().as_secs_f64() < seconds {
            send(handle, &mut pending);
        }
    }
    (done, failed + lost, start.elapsed().as_secs_f64())
}

/// Runs the workload.
pub fn run(meter: &mut Meter<'_>) {
    let fleet = Fleet::new();
    let mut handle = meter.setup(|_| fleet.spawn(&mut TcpTransport::new()));
    let flows = flows(flows_for(meter.cfg.scale), meter.cfg.seed);
    let (flights, sim_ns) = oracle(&fleet, &mut handle, &flows, &mut meter.out);
    meter.out.layer("recirc_per_pkt", 0.0);
    meter.out.layer("sim_latency_ns", sim_ns);
    meter
        .out
        .note("transport", Json::Str(handle.transport_kind().to_string()));
    meter.out.note("in_flight", Json::UInt(WINDOW as u64));

    let mut cursor = 0usize;
    if meter.cfg.measure_s > 0.0 {
        let (mut pps, mut lat) = (Series::default(), Series::default());
        let mut lat_all = LogHist::default();
        let reps = meter.reps().div_ceil(2);
        meter.reopen();
        for _ in 0..reps {
            let mut lat_rep = Vec::new();
            let rep_s = meter.cfg.rep_s;
            let (n, bad) = one_in_flight(
                &mut handle,
                &flows,
                &flights,
                &mut cursor,
                rep_s,
                &mut lat_rep,
                || meter.tick(),
            );
            let slowness = meter.close_rep();
            meter.out.count(n, bad);
            lat.push(
                Kind::Duration,
                stats::median_in_place(&mut lat_rep),
                slowness.median,
            );
            lat_all.extend(&lat_rep);

            let (n, bad, elapsed) =
                windowed(&mut handle, &flows, &flights, &mut cursor, meter.cfg.rep_s);
            let slowness = meter.close_rep();
            meter.out.count(n, bad);
            pps.push(Kind::Rate, n as f64 / elapsed, slowness.mean);
        }
        meter.out.e2e("pps", pps.figure("1/s"));
        meter.out.e2e("latency_p50_us", lat.figure("us"));
        harness::record_tail(&mut meter.out, &lat_all);
    }
    if meter.cfg.trace_s > 0.0 {
        traced(meter, &fleet, &mut handle, &flows, &flights, &mut cursor);
    }
    let clean = handle.shutdown().is_ok();
    meter.out.count(1, u64::from(!clean));
}

/// The traced pass: `cluster.inject ⊃ multiswitch.inject (3 switch
/// executions, lockstep) + 4 × (transport.hop ⊃ wire.encode +
/// wire.decode)`; what is left of the root span is the runtime itself —
/// worker loops, controller, thread hand-offs.
fn traced(
    meter: &mut Meter<'_>,
    fleet: &Fleet,
    handle: &mut ClusterHandle,
    flows: &[InjectedPacket],
    flights: &[WireTraversal],
    cursor: &mut usize,
) {
    // Untraced reference, one in flight.
    let mut lat_us = Vec::new();
    let started = Instant::now();
    let (n, bad) = one_in_flight(
        handle,
        flows,
        flights,
        cursor,
        (meter.cfg.trace_s * 0.2).max(0.02),
        &mut lat_us,
        || 0.0,
    );
    let untraced_rate = n as f64 / started.elapsed().as_secs_f64();
    meter.out.count(n, bad);
    if !meter.out.per_layer.contains_key("driver.latency_p99_us") {
        let mut tail = LogHist::default();
        tail.extend(&lat_us);
        harness::record_tail(&mut meter.out, &tail);
    }

    let mut tracer = Tracer::new();
    let l_root = tracer.layer("core.cluster.inject");
    let l_lockstep = tracer.layer("core.multiswitch.inject");
    let ops = ((untraced_rate * meter.cfg.trace_s * 0.3) as usize)
        .clamp(64, meter.cfg.trace_ops_cap() / 16);
    tracer.reserve(ops * (2 + 3 * HOPS_PER_FLIGHT) + 64);

    let mut roots = Vec::with_capacity(ops);
    let mut failed = 0u64;
    let loop_start = Instant::now();
    for op in 0..ops {
        let i = *cursor % flows.len();
        *cursor += 1;
        let pkt = flows[i].clone();
        let (id, r) = tracer.span(l_root, ROOT, op as u32, || handle.inject(pkt));
        failed += u64::from(!r.is_ok_and(|w| as_expected(&w, &flights[i])));
        roots.push((id, i));
    }
    let traced_rate = ops as f64 / loop_start.elapsed().as_secs_f64();
    meter.out.count(ops as u64, failed);

    let mut lockstep = fleet.lockstep();
    let mut failed = 0u64;
    for (op, &(root, i)) in roots.iter().enumerate() {
        let pkt = flows[i].clone();
        let (_, r) = tracer.span(l_lockstep, root, op as u32, || lockstep.inject(pkt));
        failed += u64::from(!r.is_ok_and(|t| t.final_bytes == flights[i].final_bytes));
    }
    meter.out.count(ops as u64, failed);

    let flights_by_flow: Vec<(InjectedPacket, WireTraversal)> =
        flows.iter().cloned().zip(flights.iter().cloned()).collect();
    cluster::probe_frames(
        &mut meter.out,
        &mut tracer,
        &mut TcpTransport::new(),
        &flights_by_flow,
        &roots,
        "core.transport.tcp.hop_us",
    );
    cluster::control_rtt_us(&mut meter.out, &mut tracer, handle);

    let lt = tracer.layers();
    let root = lt["core.cluster.inject"];
    let lock = lt["core.multiswitch.inject"];
    let out = &mut meter.out;
    out.layer("core.multiswitch.inject_us", lock.mean_ns() / 1e3);
    out.layer(
        "core.cluster.runtime_us",
        (stats::median(&lat_us) - lock.mean_ns() / 1e3).max(0.0),
    );
    out.layer(
        "driver.trace_overhead_pct",
        100.0 * (1.0 - traced_rate / untraced_rate),
    );
    // The harness's own share: cloning the packet it hands over.
    let t = Instant::now();
    for i in 0..4096 {
        std::hint::black_box(flows[i % flows.len()].clone());
    }
    let clone_s = t.elapsed().as_secs_f64() / 4096.0;
    out.layer("driver.generator_share", 100.0 * clone_s * untraced_rate);
    for (key, ns) in [
        ("share_runtime_self_pct", root.self_ns),
        ("share_switch_execution_pct", lock.total_ns),
        (
            "share_transport_hops_pct",
            lt["core.transport.hop"].total_ns,
        ),
    ] {
        out.note(key, Json::Float(100.0 * ns / root.total_ns));
    }
    out.note("traced_ops", Json::UInt(ops as u64));
    out.note("timer_overhead_ns", Json::Float(tracer.overhead_ns()));
    meter.out.tracer = Some(tracer);
}
