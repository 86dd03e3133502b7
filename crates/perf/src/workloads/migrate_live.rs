//! `migrate_live` — the control loop's user-visible cost.
//!
//! The `micro_dataplane::migration` fleet: classifier, `dynamic_nat`,
//! router and a marker NF over three switches on [`ChannelTransport`],
//! with 256 learned NAT flows. Two placements — the optimum under the
//! chain weights as deployed, and the optimum with the weights inverted —
//! differ in where the NAT lives. Each repetition streams 512
//! established-flow packets asynchronously, runs `orchestrator::migrate`
//! to the other placement while they are in the air, and collects every
//! delivery. `pps` is the stream's goodput across the re-placement;
//! `latency_p50_us` is the PAUSE→RESUME downtime of one migration. The
//! channel transport bypasses the sockets, so a TCP-only change must
//! leave this workload flat.

use super::cluster;
use crate::harness::{Meter, Outcome, Scale};
use crate::stats::{Kind, Series};
use crate::trace::{Tracer, ROOT};
use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, PortId, StateSnapshot, TofinoProfile};
use dejavu_core::deploy::DeployOptions;
use dejavu_core::multiswitch::{ClusterPlacement, ClusterProblem, ClusterWiring};
use dejavu_core::orchestrator::{
    migrate, ExhaustiveSearch, FleetProblem, FleetSpec, MigrationOutcome, PlacementSearch,
};
use dejavu_core::placement::PlacementProblem;
use dejavu_core::transport::{
    spawn_cluster, ChannelTransport, ClusterHandle, ClusterOptions, WireTraversal,
};
use dejavu_core::{ChainPolicy, ChainSet, NfModule};
use dejavu_integration::{marker_nf, EXIT_PORT, IN_PORT};
use dejavu_nf::nat::{
    dynamic_nat, nat_learn_policy, nat_out_entry, NAT_FLOW_STREAM, NAT_OUT_TABLE,
};
use dejavu_nf::{classifier, router};
use serde::json::Value as Json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SERVER: u32 = 0x0808_0808;
const PUBLIC_IP: u32 = 0xc633_6401;
const CLIENT_NET: u32 = 0x0a01_0000;
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(30);

/// `(learned flows, stream packets per migration)` at each scale.
pub fn sizes_for(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full | Scale::Quick => (256, 512),
        Scale::Smoke => (16, 32),
    }
}

/// A NAT flow: a client address and source port drawn from the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Private client address (inside 10.1.0.0/16).
    pub client: u32,
    /// Client source port — the learned key.
    pub port: u16,
}

/// `n` flows with distinct ports.
pub fn flows(n: usize, seed: u64) -> Vec<Flow> {
    let base = 20_000 + (seed.wrapping_mul(0x9e37) % 20_000) as u16;
    (0..n)
        .map(|i| Flow {
            client: CLIENT_NET
                | ((seed as u32).wrapping_mul(31).wrapping_add(i as u32) & 0xffff).max(1),
            port: base + i as u16,
        })
        .collect()
}

impl Flow {
    /// The flow's outbound packet (client → server).
    pub fn outbound(&self) -> InjectedPacket {
        InjectedPacket::new(
            dejavu_traffic::PacketBuilder::tcp()
                .src_ip(self.client)
                .dst_ip(SERVER)
                .src_port(self.port)
                .dst_port(80)
                .build(),
            IN_PORT,
        )
    }

    /// The return packet (server → public address).
    pub fn inbound(&self) -> InjectedPacket {
        InjectedPacket::new(
            dejavu_traffic::PacketBuilder::tcp()
                .src_ip(SERVER)
                .dst_ip(PUBLIC_IP)
                .src_port(80)
                .dst_port(self.port)
                .build(),
            IN_PORT,
        )
    }
}

fn ip_at(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_be_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

fn emitted(t: &WireTraversal) -> bool {
    t.disposition == Disposition::Emitted { port: EXIT_PORT }
}

/// The fleet's fixed parts: NF modules, the placement problem, wiring.
pub struct Fleet {
    nfs: Vec<NfModule>,
    problem: FleetProblem,
    wiring: ClusterWiring,
    deploy: DeployOptions,
    exit_ports: BTreeMap<u16, PortId>,
}

impl Fleet {
    /// The placement-sensitive fleet of the replacement tests: the NAT
    /// cannot share a pipelet with the classifier, so inverting the chain
    /// weights moves it across switches.
    pub fn new() -> Self {
        let chains = ChainSet::new(vec![
            ChainPolicy::new(1, "nat_path", vec!["classifier", "nat", "router"], 1.0),
            ChainPolicy::new(2, "mark_path", vec!["classifier", "mark_a"], 6.0),
        ])
        .expect("two valid chains");
        let stages: BTreeMap<String, u32> =
            [("classifier", 2), ("nat", 6), ("router", 2), ("mark_a", 2)]
                .into_iter()
                .map(|(n, s)| (n.to_string(), s))
                .collect();
        let mut template = PlacementProblem::new(chains, stages);
        template.pipelines = 1;
        Fleet {
            nfs: vec![
                classifier::classifier(),
                dynamic_nat(),
                router::router(),
                marker_nf("mark_a", 0),
            ],
            problem: FleetProblem::new(ClusterProblem::new(template, 3)),
            wiring: ClusterWiring::default(),
            deploy: DeployOptions {
                entry_nf: Some("classifier".into()),
                ..Default::default()
            },
            exit_ports: [(1u16, EXIT_PORT), (2u16, EXIT_PORT)].into_iter().collect(),
        }
    }

    /// The two placements the workload alternates between: the optimum as
    /// weighted, and the optimum with the weights inverted.
    pub fn placements(&self) -> [ClusterPlacement; 2] {
        let search = ExhaustiveSearch::default();
        let a = search.search(&self.problem).expect("fleet has an optimum");
        let b = search
            .search(&self.problem.with_weights(&[8.0, 1.0]))
            .expect("shifted fleet has an optimum");
        [a.placement, b.placement]
    }

    /// Boots the fleet on the channel transport under `placement`,
    /// installs the static rules and learns every flow.
    pub fn spawn(
        &self,
        placement: &ClusterPlacement,
        flows: &[Flow],
    ) -> Result<ClusterHandle, String> {
        let refs: Vec<&NfModule> = self.nfs.iter().collect();
        let mut handle = spawn_cluster(
            &refs,
            self.problem.chains(),
            placement,
            &TofinoProfile::wedge_100b_32x(),
            self.exit_ports.clone(),
            &self.wiring,
            &self.deploy,
            &mut ChannelTransport::new(),
            &ClusterOptions::default(),
        )
        .map_err(|e| e.to_string())?;
        let e = |e: dejavu_core::transport::ClusterError| e.to_string();
        handle
            .register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
            .map_err(e)?;
        for (prefix, path) in [
            ((CLIENT_NET, 16u16), 1u16),
            ((0x0800_0000, 8), 1),
            ((0x0b00_0000, 8), 2),
        ] {
            let entry = classifier::classify_entry(prefix, (0, 0), path, 100);
            handle
                .install("classifier", classifier::CLASSIFY_TABLE, entry)
                .map_err(e)?;
        }
        handle
            .install(
                "nat",
                NAT_OUT_TABLE,
                nat_out_entry((CLIENT_NET, 16), PUBLIC_IP),
            )
            .map_err(e)?;
        let route = router::route_entry((0, 0), EXIT_PORT, 0x0200_0000_0099, 0x0200_0000_0001);
        handle
            .install("router", router::ROUTES_TABLE, route)
            .map_err(e)?;
        for f in flows {
            let t = handle.inject(f.outbound()).map_err(e)?;
            if !emitted(&t) {
                return Err(format!("learn packet ended {:?}", t.disposition));
            }
        }
        handle.process_digests().map_err(e)?;
        Ok(handle)
    }

    fn spec(&self) -> (Vec<&NfModule>, TofinoProfile) {
        (self.nfs.iter().collect(), TofinoProfile::wedge_100b_32x())
    }
}

impl Default for Fleet {
    fn default() -> Self {
        Self::new()
    }
}

/// The live system: the cluster and which of the two placements it runs.
pub struct System {
    handle: ClusterHandle,
    placements: [ClusterPlacement; 2],
    current: usize,
}

/// Builds everything from nothing: both searches, spawn, rules, learning.
pub fn build(fleet: &Fleet, flows: &[Flow]) -> System {
    let placements = fleet.placements();
    assert_ne!(
        placements[0], placements[1],
        "weight inversion must move the placement"
    );
    System {
        handle: fleet
            .spawn(&placements[0], flows)
            .expect("fleet boots and learns"),
        placements,
        current: 0,
    }
}

/// One repetition: stream, migrate mid-stream, collect. Returns the
/// migration's outcome, `(packets, failed)` and the stream's wall time.
fn migrate_once(
    fleet: &Fleet,
    sys: &mut System,
    outbound: &[InjectedPacket],
    stream: usize,
    expected: &[Vec<u8>],
) -> (Option<MigrationOutcome>, u64, f64, f64) {
    let (refs, profile) = fleet.spec();
    let spec = FleetSpec {
        nfs: &refs,
        chains: fleet.problem.chains(),
        profile: &profile,
        exit_ports: fleet.exit_ports.clone(),
        wiring: &fleet.wiring,
        deploy: &fleet.deploy,
    };
    let mut traces: Vec<(u64, usize)> = Vec::with_capacity(stream);
    let mut failed = 0u64;
    let started = Instant::now();
    for i in 0..stream {
        let flow = i % outbound.len();
        match sys.handle.inject_async(outbound[flow].clone()) {
            Ok(trace) => traces.push((trace, flow)),
            Err(_) => failed += 1,
        }
    }
    let target = 1 - sys.current;
    let migration_started = Instant::now();
    let outcome = migrate(
        &mut sys.handle,
        &spec,
        &sys.placements[sys.current],
        &sys.placements[target],
    )
    .ok();
    let migrate_wall_s = migration_started.elapsed().as_secs_f64();
    if outcome.is_some() {
        sys.current = target;
    } else {
        failed += 1;
    }
    for _ in 0..traces.len() {
        let Ok(Some(d)) = sys.handle.recv_delivered(DELIVERY_TIMEOUT) else {
            failed += 1;
            continue;
        };
        let flow = traces.iter().find(|(t, _)| *t == d.trace).map(|(_, f)| *f);
        let ok = match (flow, d.result) {
            (Some(flow), Ok(t)) => emitted(&t) && t.final_bytes == expected[flow],
            _ => false,
        };
        failed += u64::from(!ok);
    }
    (
        outcome,
        failed,
        started.elapsed().as_secs_f64(),
        migrate_wall_s,
    )
}

/// Output oracle: a never-migrated cluster learns the same flows; after
/// one migration the live cluster must translate every flow, out and
/// back, byte for byte the same. Returns each flow's expected outbound
/// bytes.
fn oracle(
    fleet: &Fleet,
    sys: &mut System,
    flows: &[Flow],
    stream: usize,
    out: &mut Outcome,
) -> Vec<Vec<u8>> {
    let mut pristine = fleet
        .spawn(&sys.placements[0], flows)
        .expect("oracle fleet boots and learns");
    let mut expected = Vec::with_capacity(flows.len());
    let mut bad = 0u64;
    for f in flows {
        match pristine.inject(f.outbound()) {
            Ok(t) if emitted(&t) && ip_at(&t.final_bytes, 26) == Some(PUBLIC_IP) => {
                expected.push(t.final_bytes)
            }
            _ => {
                bad += 1;
                expected.push(Vec::new());
            }
        }
    }
    let outbound: Vec<InjectedPacket> = flows.iter().map(Flow::outbound).collect();
    let (outcome, failed, ..) = migrate_once(fleet, sys, &outbound, stream, &expected);
    bad += failed + u64::from(outcome.is_none());
    let mut surviving = 0u64;
    for f in flows {
        let live = sys.handle.inject(f.inbound());
        let reference = pristine.inject(f.inbound());
        let ok = match (&live, &reference) {
            (Ok(l), Ok(r)) => {
                emitted(l)
                    && l.final_bytes == r.final_bytes
                    && ip_at(&l.final_bytes, 30) == Some(f.client)
            }
            _ => false,
        };
        surviving += u64::from(ok);
    }
    bad += flows.len() as u64 - surviving;
    bad += u64::from(pristine.shutdown().is_err());
    out.count((2 * flows.len() + stream + 1) as u64, bad);
    out.note("flows_learned", Json::UInt(flows.len() as u64));
    out.note("flows_surviving", Json::UInt(surviving));
    out.note("oracle_mismatches", Json::UInt(bad));
    expected
}

/// Runs the workload.
pub fn run(meter: &mut Meter<'_>) {
    let fleet = Fleet::new();
    let (n_flows, stream) = sizes_for(meter.cfg.scale);
    let flows = flows(n_flows, meter.cfg.seed);
    let mut sys = meter.setup(|_| build(&fleet, &flows));
    let expected = oracle(&fleet, &mut sys, &flows, stream, &mut meter.out);
    let outbound: Vec<InjectedPacket> = flows.iter().map(Flow::outbound).collect();
    meter.out.layer("recirc_per_pkt", 0.0);
    meter.out.note(
        "transport",
        Json::Str(sys.handle.transport_kind().to_string()),
    );
    meter.out.note("stream_packets", Json::UInt(stream as u64));

    if meter.cfg.measure_s > 0.0 {
        let (mut pps, mut downtime) = (Series::default(), Series::default());
        let started = Instant::now();
        meter.reopen();
        // One migration per repetition; as many as fit the budget, at
        // least twelve (one full A→B→A cycle six times over).
        while started.elapsed().as_secs_f64() < meter.cfg.measure_s || pps.len() < 12 {
            let (outcome, failed, elapsed, _) =
                migrate_once(&fleet, &mut sys, &outbound, stream, &expected);
            let slowness = meter.close_rep().mean;
            meter.out.count(stream as u64 + 1, failed);
            pps.push(Kind::Rate, stream as f64 / elapsed, slowness);
            if let Some(o) = outcome {
                downtime.push(Kind::Duration, o.duration_ns as f64 / 1e3, slowness);
            }
            if meter.cfg.scale == Scale::Smoke && pps.len() >= 2 {
                break;
            }
        }
        meter.out.e2e("pps", pps.figure("1/s"));
        let fig = downtime.figure("us");
        meter.out.layer("migration_downtime_ms", fig.value / 1e3);
        meter.out.e2e("latency_p50_us", fig);
        meter.out.note("migrations", Json::UInt(pps.len() as u64));
    }
    if meter.cfg.trace_s > 0.0 {
        traced(
            meter, &fleet, &mut sys, &flows, &outbound, stream, &expected,
        );
    }
    // Every learned flow must still translate after the last migration.
    let mut lost = 0u64;
    for f in &flows {
        let ok = sys
            .handle
            .inject(f.inbound())
            .is_ok_and(|t| emitted(&t) && ip_at(&t.final_bytes, 30) == Some(f.client));
        lost += u64::from(!ok);
    }
    meter.out.count(flows.len() as u64, lost);
    meter.out.note("flows_lost_at_end", Json::UInt(lost));
    let clean = sys.handle.shutdown().is_ok();
    meter.out.count(1, u64::from(!clean));
}

/// The traced pass: `migrate ⊃ build + [pause … snapshot … restore …
/// resume]`. `migrate()` is one call from outside, so the root span is the
/// call, its downtime window comes from [`MigrationOutcome`], and the
/// verbs inside the window are timed individually on the live fleet.
fn traced(
    meter: &mut Meter<'_>,
    fleet: &Fleet,
    sys: &mut System,
    flows: &[Flow],
    outbound: &[InjectedPacket],
    stream: usize,
    expected: &[Vec<u8>],
) {
    // Untraced reference: two migrations, there and back.
    let mut reference = Vec::new();
    for _ in 0..2 {
        let (_, failed, elapsed, _) = migrate_once(fleet, sys, outbound, stream, expected);
        meter.out.count(stream as u64 + 1, failed);
        reference.push(stream as f64 / elapsed);
    }
    let mut tracer = Tracer::new();
    let l_migrate = tracer.layer("core.orchestrator.migrate");
    let l_pause = tracer.layer("core.cluster.pause_resume");
    let l_snapshot = tracer.layer("core.cluster.snapshot_state");
    let l_restore = tracer.layer("core.cluster.restore_state");
    let l_inject = tracer.layer("core.cluster.inject");

    let (mut downtime_ms, mut build_ms) = (Vec::new(), Vec::new());
    let (mut migrated, mut parked, mut quiesced) = (0u64, 0u64, 0u64);
    let mut goodput = Vec::new();
    let started = Instant::now();
    let mut op = 0u32;
    while started.elapsed().as_secs_f64() < meter.cfg.trace_s * 0.6 || op < 4 {
        let t0 = Instant::now();
        let (outcome, failed, elapsed, wall_s) =
            migrate_once(fleet, sys, outbound, stream, expected);
        let root = tracer.record(l_migrate, ROOT, op, t0, Instant::now());
        meter.out.count(stream as u64 + 1, failed);
        goodput.push(stream as f64 / elapsed);
        if let Some(o) = outcome {
            downtime_ms.push(o.duration_ns as f64 / 1e6);
            build_ms.push(wall_s * 1e3 - o.duration_ns as f64 / 1e6);
            migrated += o.flows_migrated;
            parked += o.parked_packets;
            quiesced += o.quiesced_packets;
        }

        // The verbs of the window, one at a time on the idle fleet.
        let (_, r) = tracer.span(l_pause, root, op, || {
            sys.handle
                .pause_ingress()
                .and_then(|_| sys.handle.resume_ingress())
        });
        let mut bad = u64::from(r.is_err());
        let (_, snaps) = tracer.span(l_snapshot, root, op, || sys.handle.snapshot_state());
        match snaps {
            Ok(snaps) => {
                // Restoring a pipelet's own snapshot is idempotent: every
                // entry is already there, so only the verb is measured.
                if let Some((sw, pipelet, snap)) =
                    snaps.iter().max_by_key(|(_, _, s)| s.total_entries())
                {
                    let (_, r) = tracer.span(l_restore, root, op, || {
                        sys.handle.restore_state(*sw, *pipelet, snap)
                    });
                    bad += u64::from(r.is_err());
                }
            }
            Err(_) => bad += 1,
        }
        meter.out.count(3, bad);
        op += 1;
        if meter.cfg.scale == Scale::Smoke && op >= 2 {
            break;
        }
    }

    // One in flight on the channel fleet, for the hop probe's roots.
    let n = 256.min(meter.cfg.trace_ops_cap());
    let mut roots = Vec::with_capacity(n);
    let mut flights = Vec::with_capacity(flows.len());
    let mut failed = 0u64;
    for pkt in outbound {
        match sys.handle.inject(pkt.clone()) {
            Ok(t) => flights.push((pkt.clone(), t)),
            Err(_) => failed += 1,
        }
    }
    if flights.len() == flows.len() {
        for i in 0..n {
            let flow = i % flows.len();
            let pkt = outbound[flow].clone();
            let (id, r) = tracer.span(l_inject, ROOT, op + i as u32, || sys.handle.inject(pkt));
            failed += u64::from(!r.is_ok_and(|t| t.final_bytes == expected[flow]));
            roots.push((id, flow));
        }
        cluster::probe_frames(
            &mut meter.out,
            &mut tracer,
            &mut ChannelTransport::new(),
            &flights,
            &roots,
            "core.transport.channel.hop_us",
        );
    }
    meter.out.count((flows.len() + n) as u64, failed);
    cluster::control_rtt_us(&mut meter.out, &mut tracer, &mut sys.handle);
    state_probes(&mut meter.out, flows);

    let lt = tracer.layers();
    let mean_ms = |name: &str| lt.get(name).map_or(0.0, |l| l.mean_ns() / 1e6);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let per = |x: u64| x as f64 / downtime_ms.len().max(1) as f64;
    let out = &mut meter.out;
    out.layer_if_absent("migration_downtime_ms", crate::stats::median(&downtime_ms));
    out.layer("core.orchestrator.migrate_build_ms", mean(&build_ms));
    out.layer("core.orchestrator.flows_migrated", per(migrated));
    out.layer("core.orchestrator.parked_packets", per(parked));
    out.layer("core.orchestrator.quiesced_packets", per(quiesced));
    out.layer(
        "core.cluster.pause_resume_ms",
        mean_ms("core.cluster.pause_resume"),
    );
    out.layer(
        "core.cluster.snapshot_state_ms",
        mean_ms("core.cluster.snapshot_state"),
    );
    out.layer(
        "core.cluster.restore_state_ms",
        mean_ms("core.cluster.restore_state"),
    );
    out.layer(
        "driver.trace_overhead_pct",
        100.0 * (1.0 - crate::stats::median(&goodput) / crate::stats::median(&reference)),
    );
    // The harness's own share of a repetition: cloning the stream's packets.
    let t = Instant::now();
    for i in 0..stream {
        black_box(outbound[i % outbound.len()].clone());
    }
    out.layer(
        "driver.generator_share",
        100.0 * t.elapsed().as_secs_f64() * crate::stats::median(&goodput) / stream as f64,
    );
    out.note("traced_migrations", Json::UInt(u64::from(op)));
    out.note(
        "traced_goodput_pps",
        Json::Float(crate::stats::median(&goodput)),
    );
    out.note("timer_overhead_ns", Json::Float(tracer.overhead_ns()));
    meter.out.tracer = Some(tracer);
}

/// `state.*`: snapshot, restore and JSON round trip of the NAT pipelet of
/// a standalone switch holding the same number of learned flows, and the
/// cost of a telemetry scrape of that switch.
fn state_probes(out: &mut Outcome, flows: &[Flow]) {
    let mut sys = super::learn_churn::build();
    let mut fresh = super::learn_churn::build();
    sys.sw.set_telemetry(true);
    let mut bad = 0u64;
    for f in flows {
        let mut buf = f.outbound().bytes;
        // learn_churn's NAT rules cover 10.1.0.0/16 a /24 at a time.
        bad += u64::from(sys.sw.inject_buf(&mut buf, IN_PORT).is_err());
    }
    bad += u64::from(sys.cp.process_digests(&mut sys.sw, &sys.dep).ok() != Some(flows.len()));
    let pipelet = sys.dep.nf_location("nat").expect("nat is placed");
    let rounds = 16u32;
    let (mut snap_s, mut restore_s, mut json_s) = (0.0, 0.0, 0.0);
    for _ in 0..rounds {
        let t = Instant::now();
        let snap = sys
            .sw
            .snapshot_state(pipelet)
            .expect("nat pipelet is loaded");
        snap_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let back = StateSnapshot::from_json(&snap.to_json());
        json_s += t.elapsed().as_secs_f64();
        bad += u64::from(back.as_ref() != Ok(&snap));
        let t = Instant::now();
        let report = fresh.sw.restore_state(pipelet, &snap);
        restore_s += t.elapsed().as_secs_f64();
        bad += u64::from(!report.is_ok_and(|r| r.is_clean()));
    }
    let t = Instant::now();
    for _ in 0..rounds {
        black_box(sys.sw.metrics_snapshot());
    }
    out.layer(
        "telemetry.snapshot_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(rounds),
    );
    out.layer("state.snapshot_ms", snap_s * 1e3 / f64::from(rounds));
    out.layer("state.restore_ms", restore_s * 1e3 / f64::from(rounds));
    out.layer("state.json_roundtrip_ms", json_s * 1e3 / f64::from(rounds));
    out.count(u64::from(rounds) * 2 + flows.len() as u64 + 1, bad);
}
