//! Tentpole acceptance for the closed-loop re-placement orchestrator:
//! a 3-switch cluster serving a learned-NAT chain undergoes a traffic
//! shift, the orchestrator re-places mid-flight, and not a single learned
//! flow is dropped or mistranslated — on threads over channel and TCP
//! transports and on the single-threaded reference, with every flight
//! differentially checked against a never-migrated reference cluster.
//! Plus: the same scripted session replays identically on the reference,
//! seeded-deterministic metaheuristics matching the exhaustive oracle on
//! small instances and scaling to a 100-chain/8-switch synthetic fleet, a
//! TCP snapshot/restore round-trip while async injections are in flight,
//! and a TCP checkpoint compared with the reference's, which never
//! crossed a socket or a thread.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dejavu_asic::switch::Disposition;
use dejavu_asic::telemetry::MetricsRegistry;
use dejavu_asic::{InjectedPacket, MetricsSnapshot, TofinoProfile};
use dejavu_core::deploy::DeployOptions;
use dejavu_core::multiswitch::{deploy_cluster, ClusterPlacement, ClusterProblem, ClusterWiring};
use dejavu_core::orchestrator::{
    migrate, AnnealingSearch, DetectorConfig, ExhaustiveSearch, FleetProblem, FleetSpec,
    Orchestrator, OrchestratorConfig, PlacementSearch, ShiftDecision, ShiftDetector, StepOutcome,
    SwarmSearch,
};
use dejavu_core::placement::PlacementProblem;
use dejavu_core::transport::{
    spawn_cluster, ChannelTransport, ClusterHandle, ClusterOptions, TcpTransport, Transport,
};
use dejavu_core::{ChainPolicy, ChainSet, NfModule};
use dejavu_integration::{marker_nf, EXIT_PORT, IN_PORT};
use dejavu_nf::nat::{
    dynamic_nat, nat_learn_policy, nat_out_entry, NAT_FLOW_STREAM, NAT_IN_TABLE, NAT_OUT_TABLE,
};
use dejavu_nf::{classifier, router};
use dejavu_p4ir::table::TableEntry;
use dejavu_ptf::MetricsExpectations;

// ---------------------------------------------------------------------
// The fleet instance: chain A = classifier → mark_a (marker), chain B =
// classifier → nat → router (learned NAT), three switches, one pipeline
// of 12 stages per member. The stage model makes {classifier, nat} too
// big for one pipelet, so the optimum placement genuinely depends on the
// traffic matrix: under A-heavy traffic the NAT spills to switch 1;
// under B-heavy traffic it folds onto switch 0 at the price of one
// recirculation, and mark_a spills instead.
// ---------------------------------------------------------------------

const SERVER: u32 = 0x0808_0808;
const PUBLIC_IP: u32 = 0xc633_6401;
const CLIENT: u32 = 0x0a01_0101;
const MARK_CLIENT: u32 = 0x0b01_0101;
const FLOWS: u16 = 12;
const BASE_PORT: u16 = 41000;

fn outbound(src_port: u16) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::tcp()
        .src_ip(CLIENT)
        .dst_ip(SERVER)
        .src_port(src_port)
        .dst_port(80)
        .build()
}

fn inbound(dst_port: u16) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::tcp()
        .src_ip(SERVER)
        .dst_ip(PUBLIC_IP)
        .src_port(80)
        .dst_port(dst_port)
        .build()
}

fn mark_packet(src_port: u16) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::tcp()
        .src_ip(MARK_CLIENT)
        .dst_ip(SERVER)
        .src_port(src_port)
        .dst_port(80)
        .build()
}

fn ip_at(bytes: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
}

/// Chain weights are the assumed traffic matrix: A-heavy before the
/// shift.
fn fleet_problem() -> FleetProblem {
    let chains = ChainSet::new(vec![
        ChainPolicy::new(1, "nat_path", vec!["classifier", "nat", "router"], 1.0),
        ChainPolicy::new(2, "mark_path", vec!["classifier", "mark_a"], 6.0),
    ])
    .unwrap();
    let stages: BTreeMap<String, u32> = [
        ("classifier".to_string(), 2),
        ("nat".to_string(), 6),
        ("router".to_string(), 2),
        ("mark_a".to_string(), 2),
    ]
    .into_iter()
    .collect();
    let mut template = PlacementProblem::new(chains, stages);
    template.pipelines = 1;
    FleetProblem::new(ClusterProblem::new(template, 3))
}

fn build_nfs() -> Vec<NfModule> {
    vec![
        classifier::classifier(),
        dynamic_nat(),
        router::router(),
        marker_nf("mark_a", 0),
    ]
}

fn exit_ports() -> BTreeMap<u16, dejavu_asic::PortId> {
    [(1u16, EXIT_PORT), (2u16, EXIT_PORT)].into_iter().collect()
}

fn deploy_options() -> DeployOptions {
    DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    }
}

/// The static rules every cluster starts from, as `(nf, table, entry)`:
/// classification for both chains, NAT pool, route to exit.
fn arming_rules() -> Vec<(&'static str, &'static str, TableEntry)> {
    let mut rules: Vec<_> = [
        ((0x0a01_0000u32, 16u16), 1u16),
        ((0x0800_0000, 8), 1),
        ((0x0b00_0000, 8), 2),
    ]
    .into_iter()
    .map(|(prefix, path)| {
        (
            "classifier",
            classifier::CLASSIFY_TABLE,
            classifier::classify_entry(prefix, (0, 0), path, 100),
        )
    })
    .collect();
    rules.push((
        "nat",
        NAT_OUT_TABLE,
        nat_out_entry((0x0a01_0000, 16), PUBLIC_IP),
    ));
    rules.push((
        "router",
        router::ROUTES_TABLE,
        router::route_entry((0, 0), EXIT_PORT, 0x0200_0000_0099, 0x0200_0000_0001),
    ));
    rules
}

/// Boots the fleet on `placement` and arms it (learn policy plus
/// [`arming_rules`]): on threads over `transport`, or — with none — as the
/// single-threaded reference, whose telemetry is switched on through the
/// member accessor.
fn fleet_cluster(
    placement: &ClusterPlacement,
    transport: Option<&mut dyn Transport>,
    telemetry: bool,
) -> ClusterHandle {
    let nfs = build_nfs();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let problem = fleet_problem();
    let profile = TofinoProfile::wedge_100b_32x();
    let wiring = ClusterWiring::default();
    let mut handle = match transport {
        Some(transport) => spawn_cluster(
            &refs,
            problem.chains(),
            placement,
            &profile,
            exit_ports(),
            &wiring,
            &deploy_options(),
            transport,
            &ClusterOptions {
                telemetry,
                ..Default::default()
            },
        ),
        None => deploy_cluster(
            &refs,
            problem.chains(),
            placement,
            &profile,
            exit_ports(),
            &wiring,
            &deploy_options(),
        ),
    }
    .unwrap();
    for member in 0..handle.members() {
        if let Some(switch) = handle.switch(member) {
            switch.set_telemetry(telemetry);
        }
    }
    handle
        .register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
        .unwrap();
    for (nf, table, entry) in arming_rules() {
        handle.install(nf, table, entry).unwrap();
    }
    handle
}

/// Every flight both clusters must agree on, keyed by a unique label.
#[derive(Default)]
struct FlightLog {
    sent: Vec<(String, Vec<u8>)>,
    got: BTreeMap<String, (Disposition, Vec<u8>)>,
}

impl FlightLog {
    fn inject(&mut self, handle: &mut ClusterHandle, label: &str, bytes: Vec<u8>) {
        self.sent.push((label.to_string(), bytes.clone()));
        let t = handle
            .inject(InjectedPacket::new(bytes, IN_PORT))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        self.got
            .insert(label.to_string(), (t.disposition, t.final_bytes));
    }

    /// Replays the full recorded sequence on a never-migrated oracle and
    /// demands identical fates and bytes (latency and hop counts differ —
    /// the placements differ — but the traffic-visible outcome may not).
    fn check_against_oracle(&self, oracle: &mut ClusterHandle) {
        for (label, bytes) in &self.sent {
            let t = oracle
                .inject(InjectedPacket::new(bytes.clone(), IN_PORT))
                .unwrap_or_else(|e| panic!("oracle {label}: {e}"));
            let (disposition, final_bytes) =
                self.got.get(label).expect("every sent flight recorded");
            assert_eq!(&t.disposition, disposition, "{label}: fate diverged");
            assert_eq!(&t.final_bytes, final_bytes, "{label}: bytes diverged");
        }
    }
}

/// The headline: learn flows, shift traffic, let the orchestrator notice,
/// re-place mid-flight, and prove zero flow loss + oracle equivalence.
/// `boot_live` builds the cluster that is migrated (telemetry on). Returns
/// how many of the eight flights put in the air before the migration were
/// still flying when ingress paused.
fn hitless_replacement(boot_live: impl FnOnce(&ClusterPlacement) -> ClusterHandle) -> u64 {
    let nfs = build_nfs();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let problem = fleet_problem();
    let wiring = ClusterWiring::default();
    let deploy = deploy_options();

    // The pre-shift optimum, from the exhaustive oracle: NAT and router
    // spill to switch 1, the A-heavy chain stays whole on switch 0.
    let pre = ExhaustiveSearch::default().search(&problem).unwrap();
    assert_eq!(pre.placement.switch_of("classifier"), Some(0));
    assert_eq!(pre.placement.switch_of("mark_a"), Some(0));
    assert_eq!(pre.placement.switch_of("nat"), Some(1));
    assert_eq!(pre.placement.switch_of("router"), Some(1));

    let mut handle = boot_live(&pre.placement);

    // The oracle: the same fleet as the single-threaded reference, never
    // migrated.
    let mut oracle = fleet_cluster(&pre.placement, None, false);

    let spec = FleetSpec {
        nfs: &refs,
        chains: problem.chains(),
        profile: &TofinoProfile::wedge_100b_32x(),
        exit_ports: exit_ports(),
        wiring: &wiring,
        deploy: &deploy,
    };
    let mut orch = Orchestrator::new(
        problem.clone(),
        pre.placement.clone(),
        Box::new(ExhaustiveSearch::default()),
        OrchestratorConfig {
            detector: DetectorConfig {
                drift_threshold: 0.25,
                hysteresis: 2,
                min_packets: 8,
                cooldown: 1,
            },
            min_gain: 0.5,
        },
    )
    .unwrap();

    let mut log = FlightLog::default();

    // Phase 1 — learn: every NAT flow crosses the cluster and is learned
    // from eagerly pushed digests.
    for f in 0..FLOWS {
        log.inject(&mut handle, &format!("learn/{f}"), outbound(BASE_PORT + f));
        let (d, bytes) = &log.got[&format!("learn/{f}")];
        assert_eq!(*d, Disposition::Emitted { port: EXIT_PORT });
        assert_eq!(ip_at(bytes, 26), PUBLIC_IP, "flow {f} not translated");
    }
    handle.process_digests().unwrap();
    oracle.process_digests().unwrap();

    // Window 1 — baseline scrape; the detector has no history yet.
    let scrape = handle.metrics_snapshot().unwrap();
    assert!(matches!(
        orch.step(&mut handle, &spec, &scrape.per_switch).unwrap(),
        StepOutcome::Warming
    ));

    // Phase 2 — the shift: traffic turns B-heavy (16 NAT packets to 2
    // mark packets per window; the placement assumed 1:6 the other way).
    let shifted_window = |log: &mut FlightLog, handle: &mut ClusterHandle, tag: &str| {
        for f in 0..FLOWS {
            log.inject(handle, &format!("{tag}/nat/{f}"), outbound(BASE_PORT + f));
        }
        for f in 0..4 {
            log.inject(handle, &format!("{tag}/nat-in/{f}"), inbound(BASE_PORT + f));
        }
        for f in 0..2 {
            log.inject(handle, &format!("{tag}/mark/{f}"), mark_packet(5000 + f));
        }
    };

    shifted_window(&mut log, &mut handle, "w2");
    let scrape = handle.metrics_snapshot().unwrap();
    let out = orch.step(&mut handle, &spec, &scrape.per_switch).unwrap();
    assert!(
        matches!(out, StepOutcome::Suppressed { drift } if drift > 0.25),
        "first drifted window must be suppressed by hysteresis, got {out:?}"
    );

    // Phase 3 — second drifted window, with a batch of flights still in
    // the air when the orchestrator decides to migrate: the pause/quiesce
    // barrier must land them safely before state moves.
    shifted_window(&mut log, &mut handle, "w3");
    // Scrape first (deterministic deltas — every sync flight has landed),
    // then put a batch in the air for the migration window to handle.
    let scrape = handle.metrics_snapshot().unwrap();
    let mut inflight = BTreeMap::new();
    for f in 0..8u16 {
        let bytes = outbound(BASE_PORT + (f % FLOWS));
        log.sent.push((format!("w3/air/{f}"), bytes.clone()));
        let trace = handle
            .inject_async(InjectedPacket::new(bytes, IN_PORT))
            .unwrap();
        inflight.insert(trace, format!("w3/air/{f}"));
    }
    let out = orch.step(&mut handle, &spec, &scrape.per_switch).unwrap();
    let StepOutcome::Migrated {
        drift,
        gain,
        outcome,
    } = out
    else {
        panic!("sustained shift must migrate, got {out:?}");
    };
    assert!(drift > 0.25, "migration drift {drift}");
    assert!(gain > 0.5, "migration gain {gain}");
    // NAT + router fold onto switch 0 (one recirculation beats paying the
    // hop for the now-dominant chain), mark_a spills to switch 1.
    assert_eq!(orch.current_placement().switch_of("nat"), Some(0));
    assert_eq!(orch.current_placement().switch_of("router"), Some(0));
    assert_eq!(orch.current_placement().switch_of("mark_a"), Some(1));
    assert_eq!(handle.switch_of("nat"), Some(0), "routing map not remapped");
    // The learned NAT entries, the NAT pool entry, and the route crossed
    // switches alive; nothing else moved.
    let moved: Vec<&str> = outcome.moves.iter().map(|m| m.nf.as_str()).collect();
    assert_eq!(moved, vec!["nat", "router", "mark_a"]);
    assert_eq!(
        outcome.flows_migrated,
        u64::from(FLOWS) + 2,
        "learned flows + NAT pool + route"
    );
    assert!(outcome.restored_entries >= outcome.flows_migrated + 3);
    assert!(outcome.duration_ns > 0);

    // The in-flight batch landed despite the migration window.
    for _ in 0..inflight.len() {
        let d = handle
            .recv_delivered(Duration::from_secs(30))
            .unwrap()
            .expect("in-flight delivery");
        let label = inflight.remove(&d.trace).expect("known trace");
        let t = d.result.unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
        log.got.insert(label, (t.disposition, t.final_bytes));
    }
    assert!(inflight.is_empty());

    // Phase 4 — zero flow loss: every flow learned before the migration
    // still translates identically on the re-placed cluster.
    for f in 0..FLOWS {
        log.inject(&mut handle, &format!("post/in/{f}"), inbound(BASE_PORT + f));
        let (d, bytes) = &log.got[&format!("post/in/{f}")];
        assert_eq!(*d, Disposition::Emitted { port: EXIT_PORT });
        assert_eq!(ip_at(bytes, 30), CLIENT, "flow {f} lost in the migration");
    }
    for f in 0..FLOWS {
        log.inject(
            &mut handle,
            &format!("post/out/{f}"),
            outbound(BASE_PORT + f),
        );
        let (_, bytes) = &log.got[&format!("post/out/{f}")];
        assert_eq!(ip_at(bytes, 26), PUBLIC_IP);
    }
    for f in 0..2 {
        log.inject(
            &mut handle,
            &format!("post/mark/{f}"),
            mark_packet(5000 + f),
        );
    }

    // The members that replaced the scraped ones are scraped too: every
    // member serving an NF has counted the post-migration traffic.
    let scrape = handle.metrics_snapshot().unwrap();
    for member in [0, 1] {
        assert!(
            scrape.per_switch[member].counter("packets_injected") > 0,
            "member {member} lost its telemetry in the swap"
        );
    }

    // Differential check: the never-migrated oracle agrees on the fate
    // and bytes of every single flight, pre- and post-migration.
    log.check_against_oracle(&mut oracle);

    // Satellite: the orchestrator_* metrics tell the same story, checked
    // through the PTF expectation machinery.
    let metrics = orch.metrics();
    let report = MetricsExpectations::new()
        .replans_triggered(1)
        .replans_skipped_hysteresis(1)
        .flows_migrated(u64::from(FLOWS) + 2)
        .migrations_timed(1)
        .evaluate(&metrics);
    for r in &report {
        assert!(r.failure.is_none(), "{}: {:?}", r.name, r.failure);
    }

    handle.shutdown().unwrap();
    oracle.shutdown().unwrap();
    outcome.quiesced_packets
}

#[test]
fn hitless_replacement_over_channel_transport() {
    hitless_replacement(|p| fleet_cluster(p, Some(&mut ChannelTransport::new()), true));
}

#[test]
fn hitless_replacement_over_tcp_transport() {
    hitless_replacement(|p| fleet_cluster(p, Some(&mut TcpTransport::new()), true));
}

/// The whole closed loop with no thread and no clock: the migrated cluster
/// is itself a reference cluster, so what the pause finds in the air is not
/// up to a scheduler — all eight flights, every time.
#[test]
fn hitless_replacement_in_lockstep() {
    assert_eq!(hitless_replacement(|p| fleet_cluster(p, None, true)), 8);
}

// ---------------------------------------------------------------------
// Determinism: one scripted session — packet mix, a learn storm issued
// as one async burst, flush, aging, a migration — leaves the same
// transcript on two fresh reference clusters, down to the order the burst
// is delivered in.
// ---------------------------------------------------------------------

fn scripted_session() -> Vec<String> {
    const STORM: u16 = 32;
    let nfs = build_nfs();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let problem = fleet_problem();
    let wiring = ClusterWiring::default();
    let deploy = deploy_options();
    let pre = ExhaustiveSearch::default().search(&problem).unwrap();
    let mut net = fleet_cluster(&pre.placement, None, true);
    let mut script = Vec::new();

    for (label, bytes) in [
        ("out", outbound(BASE_PORT)),
        ("mark", mark_packet(5000)),
        ("unlearned", inbound(BASE_PORT + 1)),
    ] {
        let t = net.inject(InjectedPacket::new(bytes, IN_PORT)).unwrap();
        script.push(format!("{label}: {t:?}"));
    }

    let burst: Vec<u64> = (0..STORM)
        .map(|f| {
            net.inject_async(InjectedPacket::new(outbound(BASE_PORT + 100 + f), IN_PORT))
                .unwrap()
        })
        .collect();
    for _ in &burst {
        // The reference never waits: what a quiet cluster has not
        // delivered, it never will.
        let d = net.recv_delivered(Duration::ZERO).unwrap().expect("burst");
        script.push(format!("burst {}: {:?}", d.trace, d.result));
    }
    script.push(format!("flush: {:?}", net.process_digests().unwrap()));

    net.set_idle_timeout("nat", NAT_IN_TABLE, Some(50)).unwrap();
    script.push(format!("age: {:?}", net.advance_time(7).unwrap()));

    // One migration, to the placement the shifted matrix would pick.
    let shifted = problem.with_weights(&[6.0, 1.0]);
    let post = ExhaustiveSearch::default().search(&shifted).unwrap();
    assert_ne!(post.placement, pre.placement);
    let spec = FleetSpec {
        nfs: &refs,
        chains: problem.chains(),
        profile: &TofinoProfile::wedge_100b_32x(),
        exit_ports: exit_ports(),
        wiring: &wiring,
        deploy: &deploy,
    };
    let mut outcome = migrate(&mut net, &spec, &pre.placement, &post.placement).unwrap();
    outcome.duration_ns = 0; // Wall clock: the one field allowed to differ.
    script.push(format!("migrate: {outcome:?}"));

    for f in 0..STORM {
        let bytes = inbound(BASE_PORT + 100 + f);
        let t = net.inject(InjectedPacket::new(bytes, IN_PORT)).unwrap();
        assert_eq!(ip_at(&t.final_bytes, 30), CLIENT, "flow {f} lost");
        script.push(format!("return {f}: {t:?}"));
    }
    script.push(format!("state: {:?}", net.snapshot_state().unwrap()));
    script.push(format!(
        "metrics: {:?}",
        net.metrics_snapshot().unwrap().per_switch
    ));
    script
}

#[test]
fn lockstep_sessions_replay_identically() {
    let first = scripted_session();
    let second = scripted_session();
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------
// Satellite: snapshot/restore round-trip over TCP while async injections
// are in flight (previously only exercised lockstep/channel-side).
// ---------------------------------------------------------------------

#[test]
fn tcp_snapshot_restore_round_trip_with_flights_in_the_air() {
    let pre = ExhaustiveSearch::default()
        .search(&fleet_problem())
        .unwrap();
    let mut handle = fleet_cluster(&pre.placement, Some(&mut TcpTransport::new()), false);

    for f in 0..FLOWS {
        let t = handle
            .inject(InjectedPacket::new(outbound(BASE_PORT + f), IN_PORT))
            .unwrap();
        assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    }
    handle.process_digests().unwrap();

    // Launch a storm and snapshot while it is still flying: the snapshot
    // barrier serializes against the data path per member, so the capture
    // is consistent even though deliveries are pending.
    let mut traces = std::collections::BTreeSet::new();
    for f in 0..FLOWS {
        traces.insert(
            handle
                .inject_async(InjectedPacket::new(inbound(BASE_PORT + f), IN_PORT))
                .unwrap(),
        );
    }
    let snapshots = handle.snapshot_state().unwrap();
    assert!(!snapshots.is_empty());
    let learned: usize = snapshots
        .iter()
        .flat_map(|(_, _, s)| s.tables.iter())
        .filter(|t| t.name == "nat__nat_in")
        .map(|t| t.entries.len())
        .sum();
    assert_eq!(
        learned,
        usize::from(FLOWS),
        "snapshot saw every learned flow"
    );

    // Restore each capture back onto its own member — idempotent, and
    // legal mid-traffic: pre-existing duplicates count as restored.
    for (switch, pipelet, snap) in &snapshots {
        let restored = handle.restore_state(*switch, *pipelet, snap).unwrap();
        let expected: usize = snap.tables.iter().map(|t| t.entries.len()).sum();
        assert_eq!(restored, expected, "restore onto switch {switch} {pipelet}");
    }

    // Every flight that was in the air lands translated.
    for _ in 0..FLOWS {
        let d = handle
            .recv_delivered(Duration::from_secs(30))
            .unwrap()
            .expect("storm delivery");
        assert!(traces.remove(&d.trace));
        let t = d.result.expect("flight");
        assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
        assert_eq!(ip_at(&t.final_bytes, 30), CLIENT);
    }
    assert!(traces.is_empty());
    handle.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Satellite: the checkpoint a TCP cluster ships equals the one the
// reference cluster ships — same machines, same arming, same traffic; one
// side crossed sockets and four threads, the other neither.
// ---------------------------------------------------------------------

#[test]
fn tcp_checkpoint_equals_the_lockstep_one() {
    let pre = ExhaustiveSearch::default()
        .search(&fleet_problem())
        .unwrap();
    let mut handle = fleet_cluster(&pre.placement, Some(&mut TcpTransport::new()), false);
    let mut net = fleet_cluster(&pre.placement, None, false);

    // The same learn traffic, aging configuration and clock on both.
    for cluster in [&mut handle, &mut net] {
        cluster
            .set_idle_timeout("nat", NAT_IN_TABLE, Some(500))
            .unwrap();
        for f in 0..FLOWS {
            cluster
                .inject(InjectedPacket::new(outbound(BASE_PORT + f), IN_PORT))
                .unwrap();
        }
        cluster.process_digests().unwrap();
        cluster.advance_time(7).unwrap();
    }

    let mut shipped = handle.snapshot_state().unwrap();
    shipped.sort_by_key(|(switch, pipelet, _)| (*switch, *pipelet));
    let expected = net.snapshot_state().unwrap();
    assert_eq!(shipped, expected);
    let learned: usize = shipped
        .iter()
        .filter_map(|(_, _, s)| s.table("nat__nat_in"))
        .map(|t| t.entries.len())
        .sum();
    assert_eq!(learned, usize::from(FLOWS), "and it is not vacuous");
    handle.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Search strategies: seeded determinism, oracle agreement on the small
// instance, bounded-time scaling on the synthetic fleet.
// ---------------------------------------------------------------------

#[test]
fn metaheuristics_match_exhaustive_on_the_small_instance() {
    let problem = fleet_problem();
    let exact = ExhaustiveSearch::default().search(&problem).unwrap();
    let anneal = AnnealingSearch::new(7, 4000).search(&problem).unwrap();
    let swarm = SwarmSearch::new(7, 24, 80).search(&problem).unwrap();
    assert!(
        anneal.score.weighted <= exact.score.weighted + 1e-9,
        "annealing {} vs exact {}",
        anneal.score.weighted,
        exact.score.weighted
    );
    assert!(
        swarm.score.weighted <= exact.score.weighted + 1e-9,
        "swarm {} vs exact {}",
        swarm.score.weighted,
        exact.score.weighted
    );
    // Exhaustive can't be beaten, so all three agree on the optimum.
    assert!((anneal.score.weighted - exact.score.weighted).abs() < 1e-9);
    assert!((swarm.score.weighted - exact.score.weighted).abs() < 1e-9);
}

#[test]
fn searches_are_seeded_deterministic() {
    let problem = FleetProblem::synthetic(12, 3, 99);
    for strategy in [
        Box::new(AnnealingSearch::new(42, 600)) as Box<dyn PlacementSearch>,
        Box::new(SwarmSearch::new(42, 10, 30)),
    ] {
        let a = strategy.search(&problem).unwrap();
        let b = strategy.search(&problem).unwrap();
        assert_eq!(
            a.placement,
            b.placement,
            "{} not deterministic",
            strategy.name()
        );
        assert_eq!(a.score.weighted, b.score.weighted);
        assert_eq!(a.evaluated, b.evaluated);
    }
    // Different seeds are allowed to explore differently (they usually
    // do); determinism is per-seed, not global.
    let c = AnnealingSearch::new(43, 600).search(&problem).unwrap();
    assert!(problem.feasible(&c.placement));
}

#[test]
fn metaheuristics_scale_to_the_synthetic_fleet_in_bounded_time() {
    let problem = FleetProblem::synthetic(100, 8, 7);
    // The exact oracle must refuse an instance this size, loudly.
    assert!(matches!(
        ExhaustiveSearch::default().search(&problem),
        Err(dejavu_core::placement::PlacementError::SearchTooLarge { .. })
    ));
    let started = Instant::now();
    let anneal = AnnealingSearch::new(3, 800).search(&problem).unwrap();
    let swarm = SwarmSearch::new(3, 12, 40).search(&problem).unwrap();
    let elapsed = started.elapsed();
    assert!(problem.feasible(&anneal.placement));
    assert!(problem.feasible(&swarm.placement));
    // Both must do no worse than the greedy seed they started from.
    let seed = problem.seed_placement().unwrap();
    let seed_score = problem.score(&seed).unwrap();
    assert!(anneal.score.weighted <= seed_score.weighted + 1e-9);
    assert!(swarm.score.weighted <= seed_score.weighted + 1e-9);
    assert!(
        elapsed < Duration::from_secs(120),
        "fleet search took {elapsed:?}"
    );
}

// ---------------------------------------------------------------------
// Detector semantics: hysteresis, cooldown, rebase.
// ---------------------------------------------------------------------

fn scrape_with(per_switch: &[u64]) -> Vec<MetricsSnapshot> {
    per_switch
        .iter()
        .map(|n| {
            let mut reg = MetricsRegistry::enabled();
            let id = reg.counter("packets_injected");
            reg.add(id, *n);
            MetricsSnapshot::capture(&reg)
        })
        .collect()
}

#[test]
fn detector_applies_hysteresis_and_cooldown() {
    let config = DetectorConfig {
        drift_threshold: 0.25,
        hysteresis: 2,
        min_packets: 8,
        cooldown: 1,
    };
    // Expected: 75% of traffic stops at switch 0, 25% reaches switch 1.
    let mut det = ShiftDetector::new(config, vec![0.75, 0.25]);
    assert_eq!(det.observe(&scrape_with(&[0, 0])), ShiftDecision::Warming);
    // Matching window: quiet.
    let d = det.observe(&scrape_with(&[30, 10]));
    assert!(matches!(d, ShiftDecision::Quiet { .. }), "{d:?}");
    // Tiny window: below min_packets, judged by nobody.
    assert_eq!(det.observe(&scrape_with(&[32, 11])), ShiftDecision::Warming);
    // Two drifted windows: the first is suppressed, the second fires.
    let d = det.observe(&scrape_with(&[82, 61]));
    assert!(matches!(d, ShiftDecision::Suppressed { .. }), "{d:?}");
    let d = det.observe(&scrape_with(&[132, 111]));
    assert!(
        matches!(d, ShiftDecision::Replan { drift } if drift > 0.25),
        "{d:?}"
    );
    // After a replan the caller rebases; the cooldown eats the next
    // drifted window even though the streak would have fired.
    det.rebase(vec![0.75, 0.25]);
    let d = det.observe(&scrape_with(&[182, 161]));
    assert!(matches!(d, ShiftDecision::Suppressed { .. }), "{d:?}");
}
