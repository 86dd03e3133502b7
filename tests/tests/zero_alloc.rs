//! The warm packet path allocates nothing, in counts — no wall clock.
//!
//! [`Switch::inject_buf`] is the zero-allocation entry point: once the
//! switch's scratch buffers have grown to size, a traversal on the compiled
//! engine touches no heap. This binary installs a counting global allocator
//! (the shape of `crates/perf`'s `CountingAlloc`, counted per thread so
//! libtest's other threads cannot add to a test's count), warms each switch
//! with one pass over its packets, and asserts that eight more passes
//! allocate nothing: on the one-table sweep pipelets (exact, LPM, ternary
//! and the ACL decision tree) and on the Fig. 9 chain (merged parser,
//! `Hash`, header add/remove, recirculation, firewall deny), the chain also
//! at 64-, 576- and 1 500-byte frames on every path. The placement
//! search's proposal loop is held to the same rule: an annealing proposal is
//! checked and scored without touching the heap. A cluster flight does
//! allocate (frames, channel slots, the delivery), but what a member runs
//! adds nothing to it: the inline driver runs on the test's thread, so its
//! allocations per flight are counted and compared across members that run
//! one marker NF and three, and a learned NAT flow's outbound flight costs
//! its return flight plus learning the one digest it emits, pinned to the
//! allocation, and so is the window of a NAT migration that moves 64
//! learned flows between members. A traced `inject` allocates, but not per table:
//! a full trace of the Fig. 9 chain's path 1 (18 tables) costs the same
//! allocations as path 3's (12). The deploy path is held in counts too:
//! validating a composed Fig. 2 pipelet touches no heap, one Fig. 2
//! `deploy` (merge, compose, validate, lint, analyze, allocate, load, route)
//! stays under a fixed allocation budget, and a cluster build is pinned to
//! the allocation: it merges once and builds each distinct pipelet plan
//! once, so a member with no NF costs less than one pipelet's build.

use dejavu_asic::{
    ExecMode, Gress, InjectedPacket, LoadableProgram, PipeletId, PortId, Switch, TofinoProfile,
    TraceLevel,
};
use dejavu_compiler::StageAllocator;
use dejavu_core::compose::{compose_pipelet, CompositionMode, PipeletPlan, PlannedNf};
use dejavu_core::deploy::{deploy, DeployOptions, Deployment};
use dejavu_core::lint::pipelet_lint_config;
use dejavu_core::merge::merge_programs;
use dejavu_core::multiswitch::{deploy_cluster, ClusterPlacement, ClusterWiring};
use dejavu_core::orchestrator::{AnnealingSearch, ExhaustiveSearch, FleetProblem, PlacementSearch};
use dejavu_core::placement::{Placement, PlacementProblem};
use dejavu_core::routing::{RoutingConfig, SegmentOptions};
use dejavu_core::transport::ClusterHandle;
use dejavu_core::{ChainPolicy, ChainSet, NfModule};
use dejavu_integration::{
    chain_packet, encapsulated_packet, fig9_testbed, marker_nf, replacement_fleet,
    replacement_fleet_nfs, src_prefix, sweep_testbed, SweepKey, EXIT_PORT, IN_PORT,
    LOOPBACK_PORT_P0, LOOPBACK_PORT_P1,
};
use dejavu_nf::load_balancer::{five_tuple_of, session_entry_for, SESSION_TABLE};
use dejavu_nf::nat::{
    dynamic_nat, nat_learn_policy, nat_out_entry, NAT_FLOW_STREAM, NAT_OUT_TABLE,
};
use dejavu_nf::{classifier, router};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    /// Heap allocations (reallocations included) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread past its TLS teardown has no counter left and no test to
    // report to; its allocations are not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// [`System`] plus a per-thread allocation counter.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with its arguments unchanged,
// so `System`'s guarantees carry over; the only addition is bumping a
// const-initialised thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` (caller's contract).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Heap allocations per packet over eight passes of `packets` through
/// `sw` on `port`, after one warm-up pass.
fn allocs_per_packet(sw: &mut Switch, packets: &[Vec<u8>], port: PortId) -> f64 {
    const PASSES: usize = 8;
    let mut buf = Vec::with_capacity(2048);
    let mut pass = |sw: &mut Switch| {
        for p in packets {
            buf.clear();
            buf.extend_from_slice(p);
            sw.inject_buf(&mut buf, port).expect("packet walks");
        }
    };
    pass(sw);
    let before = ALLOCS.with(Cell::get);
    for _ in 0..PASSES {
        pass(sw);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    allocs as f64 / (PASSES * packets.len()) as f64
}

#[test]
fn sweep_pipelets_allocate_nothing_per_packet() {
    for (key, sizes) in [
        (SweepKey::Exact, &[1, 100, 10_000][..]),
        (SweepKey::Lpm, &[1, 100, 10_000]),
        (SweepKey::Ternary, &[1, 100, 10_000]),
        (SweepKey::Acl, &[10_000]),
    ] {
        for &n in sizes {
            let (mut sw, packets) = sweep_testbed(key, n);
            let a = allocs_per_packet(&mut sw, &packets, IN_PORT);
            assert_eq!(a, 0.0, "{key:?}, {n} entries: allocations per packet");
        }
    }
}

#[test]
fn fig9_chain_allocates_nothing_per_packet() {
    // The §5 prototype with path 1's LB session installed; one packet per
    // Fig. 2 path, then a path-1 packet the firewall denies.
    let (mut sw, dep) = fig9_testbed();
    let path1 = chain_packet(1, 0xc633_6450, 80);
    let tuple = five_tuple_of(&path1).expect("path-1 packet has a five-tuple");
    dep.install(
        &mut sw,
        "lb",
        SESSION_TABLE,
        session_entry_for(&tuple, 0x0a63_0001),
    )
    .expect("LB session installs");
    let packets = [
        path1,
        chain_packet(2, 0xc633_6450, 80),
        chain_packet(3, 0xc633_6450, 80),
        chain_packet(1, 0xc633_6450, 22),
    ];
    let a = allocs_per_packet(&mut sw, &packets, IN_PORT);
    assert_eq!(a, 0.0, "fig9 chain: allocations per packet");
}

#[test]
fn fig9_encap_and_decap_allocate_nothing_at_every_frame_size() {
    // Every Fig. 2 path at 64, 576 and 1 500 bytes. The SFC header takes a
    // 1 500-byte frame past 1 500 bytes, so the gap its encap opens must
    // land in capacity the packet buffers already have.
    let (mut sw, dep) = fig9_testbed();
    let frame = |path: u16, len: usize| {
        dejavu_traffic::PacketBuilder::tcp()
            .src_ip(src_prefix(path).0 | 0x0101)
            .dst_ip(0xc633_6450)
            .src_port(40000 + path)
            .dst_port(80)
            .payload(&vec![0xa5; len - 54])
            .build()
    };
    let tuple = five_tuple_of(&frame(1, 64)).expect("path-1 packet has a five-tuple");
    dep.install(
        &mut sw,
        "lb",
        SESSION_TABLE,
        session_entry_for(&tuple, 0x0a63_0001),
    )
    .expect("LB session installs");
    let packets: Vec<Vec<u8>> = [64, 576, 1500]
        .into_iter()
        .flat_map(|len| (1..=3).map(move |path| frame(path, len)))
        .collect();
    assert!(packets.iter().all(|p| [64, 576, 1500].contains(&p.len())));
    let a = allocs_per_packet(&mut sw, &packets, IN_PORT);
    assert_eq!(
        a, 0.0,
        "fig9 chain at 64 / 576 / 1 500 bytes: allocations per packet"
    );
}

/// Heap allocations of one warm traced `inject` of `packet` (the test's own
/// copy of the packet included), and the tables the packet applied.
fn allocs_per_traced_inject(sw: &mut Switch, packet: &[u8]) -> (u64, usize) {
    let mut inject = || {
        sw.inject(InjectedPacket::new(packet.to_vec(), IN_PORT))
            .expect("packet walks")
    };
    inject();
    let before = ALLOCS.with(Cell::get);
    let t = black_box(inject());
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs, t.tables_applied().len())
}

#[test]
fn a_traced_inject_allocates_the_same_whatever_its_tables() {
    // A trace event is a fixed-size id record and the names stay with the
    // programs, so a full trace of path 1 costs what path 3's does, and
    // nothing per table: the test's packet copy, the packet buffer the
    // `Traversal` took away regrowing in the switch, and the event log
    // copied out. Events that carried two name strings each cost 42 and 30.
    let (mut sw, dep) = fig9_testbed();
    sw.set_exec_mode(ExecMode::Compiled);
    sw.set_trace_level(TraceLevel::Full);
    let path1 = chain_packet(1, 0xc633_6450, 80);
    let tuple = five_tuple_of(&path1).expect("path-1 packet has a five-tuple");
    dep.install(
        &mut sw,
        "lb",
        SESSION_TABLE,
        session_entry_for(&tuple, 0x0a63_0001),
    )
    .expect("LB session installs");
    let (long, long_tables) = allocs_per_traced_inject(&mut sw, &path1);
    let (short, short_tables) =
        allocs_per_traced_inject(&mut sw, &chain_packet(3, 0xc633_6450, 80));
    assert_eq!((long_tables, short_tables), (18, 12), "tables applied");
    assert_eq!(
        long, short,
        "allocations per traced inject, path 1 vs path 3"
    );
    assert!(long <= 3, "a traced inject: {long} allocations");
}

/// Allocations over 64 flights through a two-switch inline cluster with
/// `per_member` marker NFs on each member, after eight warm-up flights.
fn allocs_per_cluster_flights(per_member: usize) -> u64 {
    let names: Vec<String> = (0..2 * per_member).map(|i| format!("n{i}")).collect();
    let nfs: Vec<NfModule> = names
        .iter()
        .enumerate()
        .map(|(i, n)| marker_nf(n, i as u32))
        .collect();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let chain = names.iter().map(String::as_str).collect();
    let chains =
        ChainSet::new(vec![ChainPolicy::new(1, "long", chain, 1.0)]).expect("one valid chain");
    // Up to two markers in the ingress pipelet, the rest in egress.
    let member = |nfs: &[String]| {
        let mut p = Placement::default();
        let (ingress, egress) = nfs.split_at(nfs.len().min(2));
        p.pipelets.insert(PipeletId::ingress(0), ingress.to_vec());
        if !egress.is_empty() {
            p.pipelets.insert(PipeletId::egress(0), egress.to_vec());
        }
        p
    };
    let placement = ClusterPlacement {
        switches: names.chunks(per_member).map(member).collect(),
    };
    let mut net = deploy_cluster(
        &refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        [(1u16, EXIT_PORT)].into_iter().collect(),
        &ClusterWiring::default(),
        &DeployOptions::default(),
    )
    .expect("marker cluster deploys");
    let packet = InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT);
    let fly = |net: &mut ClusterHandle| {
        let t = net.inject(packet.clone()).expect("flight completes");
        assert_eq!(t.hops.len(), 2, "the flight crosses both members");
    };
    for _ in 0..8 {
        fly(&mut net);
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..64 {
        fly(&mut net);
    }
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_cluster_flight_allocates_the_same_whatever_its_members_run() {
    // A hop record is fixed-size and a worker forwards on `inject_buf`, so
    // three markers per member cost a flight no more heap than one.
    assert_eq!(
        allocs_per_cluster_flights(1),
        allocs_per_cluster_flights(3),
        "allocations over 64 inline-driver flights"
    );
}

const SERVER: u32 = 0x0808_0808;
const PUBLIC_IP: u32 = 0xc633_6401;
const CLIENT: u32 = 0x0a01_0101;

/// The NAT path (classifier, nat, router) and its deploy options.
fn nat_chain() -> (Vec<NfModule>, ChainSet, DeployOptions) {
    let nfs = vec![classifier::classifier(), dynamic_nat(), router::router()];
    let chains = ChainSet::new(vec![ChainPolicy::new(
        1,
        "nat_path",
        vec!["classifier", "nat", "router"],
        1.0,
    )])
    .expect("one valid chain");
    let deploy = DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    };
    (nfs, chains, deploy)
}

/// The NAT path on a two-member inline cluster (classifier and nat on
/// member 0, router on member 1), its policy registered and its rules
/// installed.
fn nat_cluster() -> ClusterHandle {
    let (nfs, chains, deploy) = nat_chain();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let placement = ClusterPlacement {
        switches: vec![
            Placement::sequential(vec![(PipeletId::ingress(0), vec!["classifier", "nat"])]),
            Placement::sequential(vec![(PipeletId::egress(0), vec!["router"])]),
        ],
    };
    let mut net = deploy_cluster(
        &refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        [(1u16, EXIT_PORT)].into_iter().collect(),
        &ClusterWiring::default(),
        &deploy,
    )
    .expect("NAT cluster deploys");
    net.register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
        .expect("policy registers");
    for prefix in [(0x0a01_0000u32, 16u16), (0x0800_0000, 8)] {
        let steer = classifier::classify_entry(prefix, (0, 0), 1, 100);
        net.install("classifier", classifier::CLASSIFY_TABLE, steer)
            .expect("classifier rule installs");
    }
    net.install(
        "nat",
        NAT_OUT_TABLE,
        nat_out_entry((0x0a01_0000, 16), PUBLIC_IP),
    )
    .expect("NAT rule installs");
    let route = router::route_entry((0, 0), EXIT_PORT, 0x0200_0000_0099, 0x0200_0000_0001);
    net.install("router", router::ROUTES_TABLE, route)
        .expect("route installs");
    net
}

/// A TCP packet of the NAT path arriving on the cluster's ingress port.
fn tcp(src: u32, dst: u32, sport: u16, dport: u16) -> InjectedPacket {
    let builder = dejavu_traffic::PacketBuilder::tcp().src_ip(src).dst_ip(dst);
    let bytes = builder.src_port(sport).dst_port(dport).build();
    InjectedPacket::new(bytes, IN_PORT)
}

/// Allocations over 64 flights each of an outbound packet of one learned
/// NAT flow and of its return packet, through [`nat_cluster`], after eight
/// warm-up flights of each.
fn allocs_per_nat_flights() -> (u64, u64) {
    let mut net = nat_cluster();
    let outbound = tcp(CLIENT, SERVER, 40_000, 80);
    let inbound = tcp(SERVER, PUBLIC_IP, 80, 40_000);
    net.inject(outbound.clone())
        .expect("the flow's first packet");
    let report = net.process_digests().expect("the flow is learned");
    assert_eq!(report.entries_installed, 1, "one flow learned");

    let mut count = |packet: &InjectedPacket, ip_at: usize, ip: u32| {
        let mut fly = || {
            let t = net.inject(packet.clone()).expect("flight completes");
            assert_eq!(t.hops.len(), 2, "the flight crosses both members");
            let at = t.final_bytes[ip_at..ip_at + 4].try_into().expect("4 bytes");
            assert_eq!(u32::from_be_bytes(at), ip, "translated");
        };
        for _ in 0..8 {
            fly();
        }
        let before = ALLOCS.with(Cell::get);
        for _ in 0..64 {
            fly();
        }
        ALLOCS.with(Cell::get) - before
    };
    // Outbound leaves with the public source; the return packet comes back
    // to the client.
    let out = count(&outbound, 26, PUBLIC_IP);
    let back = count(&inbound, 30, CLIENT);
    (out, back)
}

#[test]
fn a_learned_nat_flight_allocates_its_pinned_count() {
    // Over 64 flights. The return flight crosses 3 frames (in to member 0,
    // on to member 1, delivered to the controller). So does the outbound
    // one: member 0 learns the digest its packet emits, with no controller
    // round trip. Sending it up, installing back down and acking took 3
    // more frames and brought the outbound count to 2 576 (return: 842).
    const OUTBOUND: u64 = 1_226;
    const RETURN: u64 = 842;
    // What one learned digest adds to a flight: its record's values (1)
    // and the drain's list (1); the entry built to check it (keys, action,
    // arguments) and the exact index's probe key (4). The learn policy
    // keeps its table and action under their merged names; renaming both
    // per digest, and naming the NF for an error not taken, cost 5 more
    // (1 674 outbound). The record shares its stream name with the
    // compiled program, and the pipelet's pending list keeps its capacity
    // across passes; copying the name and growing a fresh list cost 2 more
    // (1 354 outbound).
    const DIGEST_RECORD: u64 = 2;
    const ENTRY_CHECK: u64 = 4;
    let (out, back) = allocs_per_nat_flights();
    assert_eq!(
        (out, back),
        (OUTBOUND, RETURN),
        "allocations over 64 outbound and 64 return flights"
    );
    assert!(out <= back + 64 * (DIGEST_RECORD + ENTRY_CHECK));
}

/// The two members of the NAT path with the NAT moved onto member 1,
/// beside the router, built as a migration's BUILD builds them: each
/// reaches the NFs it does not host over the forward link, and member 1,
/// the last, exits the chain and decapsulates.
fn nat_moved_members() -> Vec<(Switch, Deployment)> {
    let (nfs, chains, deploy_options) = nat_chain();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let members = [
        Placement::sequential(vec![(PipeletId::ingress(0), vec!["classifier"])]),
        Placement::sequential(vec![(PipeletId::ingress(0), vec!["nat", "router"])]),
    ];
    let link = ClusterWiring::default().egress_link_port;
    let build = |(s, local): (usize, &Placement)| {
        let remote = chains.all_nfs().into_iter();
        let remote_ports = remote
            .filter(|nf| local.location(nf).is_none())
            .map(|nf| (nf, link))
            .collect();
        let last = s + 1 == members.len();
        let config = RoutingConfig {
            loopback_port: Default::default(),
            exit_ports: [(1u16, if last { EXIT_PORT } else { link })].into(),
            honor_out_port: false,
        };
        let segment = SegmentOptions {
            remote_ports,
            decap_on_exit: last,
        };
        let options = DeployOptions {
            segment: Some(segment),
            ..deploy_options.clone()
        };
        let profile = TofinoProfile::wedge_100b_32x();
        deploy(&refs, &chains, local, &profile, &config, &options).expect("member deploys")
    };
    members.iter().enumerate().map(build).collect()
}

/// Allocations of a NAT migration's window, PAUSE to RESUME, on the inline
/// driver, with `flows` learned flows: the NAT moves from member 0 onto
/// member 1, both members built and staged before the window as `migrate`
/// stages them, and its verbs called as `migrate` calls them. Every flow
/// still translates after it.
fn allocs_per_nat_migration_window(flows: u16) -> u64 {
    let mut net = nat_cluster();
    for f in 0..flows {
        net.inject(tcp(CLIENT, SERVER, 40_000 + f, 80))
            .expect("a flow's first packet");
    }
    let report = net.process_digests().expect("the flows are learned");
    assert_eq!(report.entries_installed, usize::from(flows));
    for (s, (switch, deployment)) in nat_moved_members().into_iter().enumerate() {
        net.stage_member(s, switch, deployment)
            .expect("member stages");
    }
    let wanted = [(0, vec![("nat".to_string(), PipeletId::ingress(0))])].into();

    let before = ALLOCS.with(Cell::get);
    net.pause_ingress().expect("PAUSE");
    let mut slices = net.snapshot_slices(wanted).expect("SNAPSHOT");
    let nat = slices
        .remove(&0)
        .and_then(|mut s| s.pop())
        .expect("one slice");
    let state = [(1, vec![(PipeletId::ingress(0), nat)])];
    let restored = net.flip(state.into()).expect("FLIP");
    net.resume_ingress().expect("RESUME");
    let allocs = ALLOCS.with(Cell::get) - before;

    net.retire(&[0, 1]).expect("RETIRE");
    // The flows and the NAT's own rule, the router's route and the
    // classifier's two rules, handed over.
    assert_eq!(restored, u64::from(flows) + 4, "entries restored");
    for f in 0..flows {
        let back = tcp(SERVER, PUBLIC_IP, 80, 40_000 + f);
        let t = net.inject(back).expect("return flight");
        let at = t.final_bytes[30..34].try_into().expect("4 bytes");
        assert_eq!(u32::from_be_bytes(at), CLIENT, "flow {f} translated");
    }
    allocs
}

#[test]
fn a_nat_migration_window_allocates_its_pinned_count() {
    // 64 learned flows, 65 moved entries. The old home copies the NAT's
    // tables only and seals them; the controller relays the seal; the new
    // member opens it once and moves its entries in: 3 allocations an
    // entry to copy them out, 3 to decode them, 2 for the exact index's
    // keys (the duplicate check's probe and the stored key). When the old
    // home copied the whole pipelet and cut the NAT's tables from it, the
    // controller decoded and re-encoded the slice and the restore cloned
    // every entry again, the same window took 1 448.
    const WINDOW: u64 = 679;
    assert_eq!(
        allocs_per_nat_migration_window(64),
        WINDOW,
        "allocations of one migration window"
    );
}

#[test]
fn an_annealing_proposal_allocates_nothing() {
    // The first 100 × 8 synthetic fleet `plan_deploy` re-plans at seed 1.
    let fleet = (64..)
        .map(|s| FleetProblem::synthetic(100, 8, s))
        .find(|p| p.seed_placement().is_ok_and(|seed| p.feasible(&seed)))
        .expect("a synthetic fleet with a feasible seed");
    // Start-up and the returned placement allocate; the proposals between
    // them must not. The outcome's share is what a copy of it allocates,
    // since its size depends on where the search ended.
    let allocs = |iterations| {
        let before = ALLOCS.with(Cell::get);
        let found = AnnealingSearch::new(1, iterations)
            .search(&fleet)
            .expect("the fleet has a feasible start");
        let searched = ALLOCS.with(Cell::get) - before;
        let before = ALLOCS.with(Cell::get);
        let copy = black_box(found.placement.clone());
        let outcome = ALLOCS.with(Cell::get) - before;
        drop(copy);
        searched - outcome
    };
    assert_eq!(
        allocs(200),
        allocs(2_200),
        "allocations per 2 000 proposals"
    );
}

/// The Fig. 2 instance `plan_deploy` solves, and the placement it deploys.
fn fig2_solved() -> (PlacementProblem, Placement) {
    let stages = [
        ("classifier", 2u32),
        ("firewall", 3),
        ("vgw", 2),
        ("lb", 3),
        ("router", 3),
    ];
    let stages = stages
        .into_iter()
        .map(|(n, s)| (n.to_string(), s))
        .collect();
    let fig2 = PlacementProblem::new(ChainSet::edge_cloud_example(), stages);
    let placement = fig2.exhaustive(1 << 22).expect("Fig. 2 has an optimum");
    (fig2, placement)
}

#[test]
fn validating_a_composed_pipelet_allocates_nothing() {
    // Each pipelet is validated three times per deploy (composition, the
    // allocator, the switch); 323 allocations a call when it copied the
    // header catalog, the control bodies and every read and write set.
    let (_, placement) = fig2_solved();
    let nfs = dejavu_nf::edge_cloud_suite();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let merged = merge_programs("dejavu", &refs).expect("the suite merges");
    for pipeline in 0..2 {
        for gress in [Gress::Ingress, Gress::Egress] {
            let pipelet = PipeletId { pipeline, gress };
            let planned = placement.pipelets.get(&pipelet).into_iter().flatten();
            let plan = PipeletPlan {
                pipelet,
                nfs: planned
                    .map(|n| match n.as_str() {
                        "classifier" => PlannedNf::entry(n.clone()),
                        _ => PlannedNf::indexed(n.clone()),
                    })
                    .collect(),
                mode: placement.mode(pipelet),
            };
            let program = compose_pipelet(&merged, &plan).expect("pipelet composes");
            let before = ALLOCS.with(Cell::get);
            let verdict = black_box(&program).validate();
            let allocs = ALLOCS.with(Cell::get) - before;
            assert_eq!(verdict, Ok(()), "{pipelet}");
            assert_eq!(allocs, 0, "{pipelet}: allocations in Program::validate");
        }
    }
}

#[test]
fn a_fig2_deploy_stays_within_its_allocation_budget() {
    // Merge, compose, the verifier and the allocator on four pipelets,
    // loading and routing: 16 586 allocations when each check copied the
    // IR it read, 5 582 once each check read it in place (the four
    // pipelets are distinct plans, so each is built), 5 346 since the
    // switch names its metric series only when scraped. The budget leaves
    // that count ≈ 12 % of margin.
    const BUDGET: u64 = 6_000;
    let (fig2, placement) = fig2_solved();
    let nfs = dejavu_nf::edge_cloud_suite();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let config = RoutingConfig {
        loopback_port: [(0usize, LOOPBACK_PORT_P0), (1usize, LOOPBACK_PORT_P1)]
            .into_iter()
            .collect(),
        exit_ports: fig2
            .chains
            .chains
            .iter()
            .map(|c| (c.path_id, EXIT_PORT))
            .collect(),
        honor_out_port: false,
    };
    let options = DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    };
    let profile = TofinoProfile::wedge_100b_32x();
    let before = ALLOCS.with(Cell::get);
    let deployed = deploy(&refs, &fig2.chains, &placement, &profile, &config, &options);
    let allocs = ALLOCS.with(Cell::get) - before;
    drop(black_box(deployed.expect("Fig. 2 deploys")));
    assert!(allocs <= BUDGET, "one Fig. 2 deploy: {allocs} allocations");
}

/// Allocations of one `deploy_cluster` build of the replacement fleet
/// under its pre-shift optimum, cut to its first `members` members.
fn allocs_per_fleet_build(members: usize) -> u64 {
    let fleet = replacement_fleet();
    let nfs = replacement_fleet_nfs();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let mut placement = ExhaustiveSearch::default()
        .search(&fleet)
        .expect("the fleet has an optimum")
        .placement;
    placement.switches.truncate(members);
    let options = DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    };
    let before = ALLOCS.with(Cell::get);
    let built = deploy_cluster(
        &refs,
        fleet.chains(),
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        [(1u16, EXIT_PORT), (2u16, EXIT_PORT)].into_iter().collect(),
        &ClusterWiring::default(),
        &options,
    );
    let allocs = ALLOCS.with(Cell::get) - before;
    drop(black_box(built.expect("the fleet deploys")));
    allocs
}

/// Allocations of building the fleet's empty ingress pipelet on its own:
/// compose, the allocator (validate, lint, analyze, allocate) and the
/// switch's validate and compile.
fn allocs_per_empty_pipelet_build() -> u64 {
    let nfs = replacement_fleet_nfs();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let merged = merge_programs("dejavu", &refs).expect("the fleet merges");
    let plan = PipeletPlan {
        pipelet: PipeletId::ingress(0),
        nfs: Vec::new(),
        mode: CompositionMode::Sequential,
    };
    let before = ALLOCS.with(Cell::get);
    let program = compose_pipelet(&merged, &plan).expect("the empty pipelet composes");
    let allocation = StageAllocator::new(TofinoProfile::wedge_100b_32x())
        .with_lint_config(pipelet_lint_config(&program, &plan))
        .compile(&program)
        .expect("the empty pipelet fits");
    let loadable = LoadableProgram::new(program).expect("the empty pipelet compiles");
    let allocs = ALLOCS.with(Cell::get) - before;
    drop(black_box((allocation, loadable)));
    allocs
}

#[test]
fn a_cluster_build_compiles_each_distinct_pipelet_once() {
    // Three members, 12 pipelets, 5 distinct plans: the three hosting NFs,
    // the empty ingress and the empty egress, each built once. When every
    // member merged and every pipelet was built, the build made 12 693
    // allocations, member 2 (no NF) 3 913 of them; when each member's
    // switch also named its 115 metric series, 6 649.
    const BUILD: u64 = 5_941;
    let three = allocs_per_fleet_build(3);
    assert_eq!(three, BUILD, "allocations of one 3-member fleet build");
    // Member 2 loads the two empty programs its predecessors built: it
    // adds its switch, table state, routing, commit check and worker, and
    // less than building one empty pipelet costs.
    let empty_member = three - allocs_per_fleet_build(2);
    let one_build = allocs_per_empty_pipelet_build();
    assert!(
        empty_member < one_build,
        "member 2 adds {empty_member} allocations; one empty pipelet's build is {one_build}"
    );
}

/// Building a switch names none of its metric series: its counters are
/// zeroed fields, named only when scraped. When every `Switch::new`
/// formatted and registered all 115 names, it made 242 allocations.
#[test]
fn a_switch_is_built_without_naming_its_series() {
    const NEW: u64 = 6;
    let profile = TofinoProfile::wedge_100b_32x();
    let before = ALLOCS.with(Cell::get);
    let sw = Switch::new(profile);
    let allocs = ALLOCS.with(Cell::get) - before;
    drop(black_box(sw));
    assert_eq!(allocs, NEW, "allocations of one Switch::new");
}
