//! §7 multi-switch chaining, physically executed: a chain too large for one
//! ASIC deployed across wired back-to-back switches, driven packet by
//! packet through the whole cluster.

use dejavu_asic::state::TableSnapshot;
use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, PipeletId, StateSnapshot, Switch, TofinoProfile};
use dejavu_core::control_plane::{rewind_and_clear, ControlPlane, PuntHandler, PuntResponse};
use dejavu_core::deploy::{deploy, DeployError, DeployOptions, Deployment};
use dejavu_core::multiswitch::{
    deploy_cluster, ClusterConfigError, ClusterNet, ClusterPlacement, ClusterWiring,
};
use dejavu_core::placement::Placement;
use dejavu_core::routing::{RoutingConfig, SegmentOptions};
use dejavu_core::transport::wire::MAX_PAYLOAD;
use dejavu_core::transport::{
    spawn_cluster, ChannelTransport, ClusterError, ClusterOptions, SealedSlice, WireTraversal,
};
use dejavu_core::{ChainPolicy, ChainSet, NfModule};
use dejavu_integration::{
    baseline_rules, chain_packet, encapsulated_packet, fig9_testbed, marker_nf, EXIT_PORT, IN_PORT,
};
use dejavu_nf::load_balancer::{five_tuple_of, session_entry_for, SESSION_TABLE};
use dejavu_nf::nat::{
    dynamic_nat, nat_learn_policy, nat_out_entry, NAT_FLOW_STREAM, NAT_IN_TABLE, NAT_OUT_TABLE,
};
use dejavu_nf::{classifier, firewall, load_balancer, router, vgw};
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use std::time::Duration;

/// The NAT's public address.
const PUBLIC_IP: u32 = 0xc633_6401;

fn six_nf_setup() -> (Vec<dejavu_core::NfModule>, ChainSet, ClusterPlacement) {
    let names: Vec<String> = (0..6).map(|i| format!("n{i}")).collect();
    let nfs: Vec<_> = names
        .iter()
        .enumerate()
        .map(|(i, n)| marker_nf(n, i as u32))
        .collect();
    let chains = ChainSet::new(vec![ChainPolicy {
        path_id: 1,
        name: "long".into(),
        nfs: names,
        weight: 1.0,
    }])
    .unwrap();
    // Three NFs per switch, spread across pipelets.
    let placement = ClusterPlacement {
        switches: vec![
            Placement::sequential(vec![
                (PipeletId::ingress(0), vec!["n0", "n1"]),
                (PipeletId::egress(0), vec!["n2"]),
            ]),
            Placement::sequential(vec![
                (PipeletId::ingress(0), vec!["n3", "n4"]),
                (PipeletId::egress(0), vec!["n5"]),
            ]),
        ],
    };
    (nfs, chains, placement)
}

fn six_nf_cluster() -> ClusterNet {
    let (nfs, chains, placement) = six_nf_setup();
    let refs: Vec<_> = nfs.iter().collect();
    deploy_cluster(
        &refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        [(1u16, EXIT_PORT)].into_iter().collect(),
        &ClusterWiring::default(),
        &DeployOptions::default(),
    )
    .unwrap()
}

/// The bits the marker NFs flipped in a decapsulated packet's IPv4 source
/// address: each marker whose `work` table misses XORs in its own bit.
fn marks(frame: &[u8]) -> u32 {
    let src = u32::from_be_bytes(frame[26..30].try_into().unwrap());
    src ^ 0x0a00_0001
}

/// A marker's `work` entry that lets TCP pass unmarked.
fn pass_tcp() -> TableEntry {
    TableEntry {
        matches: vec![KeyMatch::Exact(dejavu_p4ir::Value::new(6, 8))],
        action: "pass".into(),
        action_args: vec![],
        priority: 0,
    }
}

/// `entry` as `nf`'s pipelet holds it: its action in merged names.
fn merged(entry: TableEntry, nf: &str) -> TableEntry {
    TableEntry {
        action: format!("{nf}__{}", entry.action),
        ..entry
    }
}

/// Turns telemetry on for every member of an inline cluster.
fn telemetry_on(net: &mut ClusterNet) {
    for i in 0..net.members() {
        net.switch(i).unwrap().set_telemetry(true);
    }
}

/// Per member, the sum of the `family` counter (`table_hits` or
/// `table_misses`) over the tables whose name ends in `suffix`, read from
/// the members' own telemetry through the cluster scrape.
fn table_counts(net: &mut ClusterNet, family: &str, suffix: &str) -> Vec<u64> {
    let prefix = format!("{family}{{");
    let suffix = format!("{suffix}\"}}");
    net.metrics_snapshot()
        .unwrap()
        .per_switch
        .iter()
        .map(|snap| {
            snap.metrics
                .iter()
                .filter(|(name, _)| name.starts_with(&prefix) && name.ends_with(&suffix))
                .filter_map(|(_, v)| v.as_counter())
                .sum()
        })
        .collect()
}

/// Per member, how many times an NF `work` table was applied (hit or
/// miss) while `f` ran.
fn work_applied(net: &mut ClusterNet, f: impl FnOnce(&mut ClusterNet)) -> Vec<u64> {
    let count = |net: &mut ClusterNet| {
        let hits = table_counts(net, "table_hits", "__work");
        let misses = table_counts(net, "table_misses", "__work");
        hits.iter()
            .zip(misses)
            .map(|(h, m)| h + m)
            .collect::<Vec<_>>()
    };
    let before = count(net);
    f(net);
    let after = count(net);
    after.iter().zip(before).map(|(a, b)| a - b).collect()
}

#[test]
fn chain_executes_across_two_switches() {
    let mut net = six_nf_cluster();
    telemetry_on(&mut net);
    let mut flight = None;
    let applied = work_applied(&mut net, |net| {
        flight = Some(
            net.inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
                .unwrap(),
        );
    });
    let t = flight.unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    assert_eq!(t.inter_switch_hops, 1, "one forward wire hop");
    assert_eq!(t.hops.len(), 2, "visited both switches");
    for (i, hop) in t.hops.iter().enumerate() {
        assert_eq!(hop.switch as usize, i);
    }
    // All six NFs ran, three per switch.
    assert_eq!(applied, [3, 3], "work tables applied per member");
    // Decapsulated only at the final exit, with every NF's mark.
    let out = &t.final_bytes;
    assert_eq!(u16::from_be_bytes([out[12], out[13]]), 0x0800);
    assert_eq!(marks(out), 0b11_1111, "every marker ran once");

    // The forwarding rule, pinned without the runtime: follow the cable by
    // hand through the member switches of a second, untouched cluster.
    let wiring = ClusterWiring::default();
    let mut by_hand = six_nf_cluster();
    let first = by_hand
        .switch(0)
        .unwrap()
        .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();
    assert_eq!(
        first.disposition,
        Disposition::Emitted {
            port: wiring.egress_link_port
        }
    );
    // The intermediate wire carried the packet still encapsulated.
    let mid = &first.final_bytes;
    assert_eq!(
        u16::from_be_bytes([mid[12], mid[13]]),
        dejavu_core::sfc::SFC_ETHERTYPE,
        "packet crosses the wire SFC-encapsulated"
    );
    let second = by_hand
        .switch(1)
        .unwrap()
        .inject(InjectedPacket::new(mid.clone(), wiring.ingress_link_port))
        .unwrap();
    assert_eq!(t.disposition, second.disposition);
    assert_eq!(t.final_bytes, second.final_bytes);
    assert_eq!(
        t.latency_ns,
        first.latency_ns + wiring.cable_ns + second.latency_ns
    );
    for (hop, chip) in t.hops.iter().zip([&first, &second]) {
        assert_eq!(hop.latency_ns, chip.latency_ns);
        assert_eq!(hop.recirculations as usize, chip.recirculations);
        assert_eq!(hop.resubmissions as usize, chip.resubmissions);
    }
    // The hand-chained traces name the tables: each member ran its own
    // three markers, each a miss.
    for (chip, nfs) in [(&first, 0..3), (&second, 3..6)] {
        let want: Vec<String> = nfs.map(|nf| format!("n{nf}__work")).collect();
        let work = |tables: Vec<&str>| -> Vec<String> {
            tables
                .into_iter()
                .filter(|t| t.ends_with("__work"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(work(chip.tables_applied()), want);
        assert!(work(chip.tables_hit()).is_empty());
    }
    // Latency: two port-to-port traversals + cable + any recirculations.
    assert!(t.latency_ns > 1300.0, "latency {}", t.latency_ns);
}

#[test]
fn mid_chain_entry_on_second_switch_only_runs_remaining_nfs() {
    // A packet arriving at switch 0 with service index 3 skips switch 0's
    // NFs (the branching table forwards it straight over the link).
    let mut net = six_nf_cluster();
    telemetry_on(&mut net);
    let mut flight = None;
    let applied = work_applied(&mut net, |net| {
        flight = Some(
            net.inject(InjectedPacket::new(encapsulated_packet(1, 3), IN_PORT))
                .unwrap(),
        );
    });
    let t = flight.unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    assert_eq!(t.hops.len(), 2, "switch 0 still forwards it");
    // Switch 0 applied no NF work tables; switch 1 ran n3..n5.
    assert_eq!(applied, [0, 3], "work tables applied per member");
    assert_eq!(marks(&t.final_bytes), 0b11_1000, "only n3..n5 marked it");
}

#[test]
fn backward_chains_are_rejected_at_deploy() {
    let (nfs, _chains, placement) = six_nf_setup();
    let refs: Vec<_> = nfs.iter().collect();
    // A chain that needs switch 1 then switch 0: forward-only wiring can't.
    let chains = ChainSet::new(vec![ChainPolicy::new(1, "back", vec!["n3", "n0"], 1.0)]).unwrap();
    let err = deploy_cluster(
        &refs,
        &chains,
        &placement,
        &dejavu_asic::TofinoProfile::wedge_100b_32x(),
        [(1u16, EXIT_PORT)].into_iter().collect(),
        &ClusterWiring::default(),
        &DeployOptions::default(),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            ClusterError::Deploy(DeployError::ClusterConfig(
                ClusterConfigError::NonMonotoneChain { .. }
            ))
        ),
        "got {err}"
    );
}

#[test]
fn cluster_install_routes_rules_to_owning_switch() {
    let mut net = six_nf_cluster();
    assert_eq!(net.switch_of("n0"), Some(0));
    assert_eq!(net.switch_of("n5"), Some(1));
    assert_eq!(net.switch_of("ghost"), None);
    // Installing through the cluster API lands on the right switch: make
    // n5's marker pass instead of mark for TCP.
    net.install("n5", "work", pass_tcp()).unwrap();
    telemetry_on(&mut net);
    let hits_before = table_counts(&mut net, "table_hits", "n5__work");
    let t = net
        .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    // n5's table hit the pass entry this time, on member 1 only, so n5
    // alone left its bit alone.
    let hits = table_counts(&mut net, "table_hits", "n5__work");
    assert_eq!(hits_before, [0, 0]);
    assert_eq!(hits, [0, 1], "n5__work hits per member");
    assert_eq!(marks(&t.final_bytes), 0b01_1111);
}

/// A replacement for member 1 of [`six_nf_cluster`] that also hosts n2,
/// which member 0 hosted.
fn member_one_replacement() -> (Switch, Deployment) {
    let (nfs, chains, _) = six_nf_setup();
    let refs: Vec<_> = nfs.iter().collect();
    let placement = Placement::sequential(vec![
        (PipeletId::ingress(0), vec!["n2", "n3", "n4"]),
        (PipeletId::egress(0), vec!["n5"]),
    ]);
    let link = ClusterWiring::default().egress_link_port;
    let options = DeployOptions {
        segment: Some(SegmentOptions {
            remote_ports: [("n0".to_string(), link), ("n1".to_string(), link)].into(),
            decap_on_exit: true,
        }),
        ..Default::default()
    };
    let config = RoutingConfig {
        loopback_port: Default::default(),
        exit_ports: [(1u16, EXIT_PORT)].into(),
        honor_out_port: false,
    };
    let profile = TofinoProfile::wedge_100b_32x();
    deploy(&refs, &chains, &placement, &profile, &config, &options)
        .expect("the replacement deploys")
}

/// A member swapped in goes live routed to, on the cluster's clock and
/// holding its state: once its `flip` acks, `switch_of` names it for
/// every NF its deployment hosts, it reads the clock of the member it
/// replaced, and the slice it carried was restored at that clock.
#[test]
fn a_swapped_in_member_is_routed_to_at_the_cluster_clock() {
    let mut net = six_nf_cluster();
    net.advance_time(5).unwrap();

    // One slice for the newcomer: an n2 rule that ages out after 3 ticks.
    let rule = merged(pass_tcp(), "n2");
    let mut slice = StateSnapshot::empty("n2");
    slice.tables.push(TableSnapshot {
        name: "n2__work".into(),
        idle_timeout: Some(3),
        entries: vec![rule.clone()],
    });
    let (switch, deployment) = member_one_replacement();
    assert_eq!(net.switch_of("n2"), Some(0));
    let state = vec![(PipeletId::ingress(0), SealedSlice::seal(&slice))];
    net.stage_member(1, switch, deployment).unwrap();
    assert_eq!(net.flip([(1, state)].into()).unwrap(), 1);
    net.retire(&[1]).unwrap();

    for (nf, member) in [
        ("n0", 0),
        ("n1", 0),
        ("n2", 1),
        ("n3", 1),
        ("n4", 1),
        ("n5", 1),
    ] {
        assert_eq!(net.switch_of(nf), Some(member), "{nf}");
    }
    assert_eq!(net.switch(1).unwrap().now(), 5, "the newcomer's clock");
    // Stamped at 5, the rule is 2 ticks idle at 7 and 3 (its timeout) at 8.
    let n2_rules = |net: &mut ClusterNet| {
        let tables = net
            .switch(1)
            .unwrap()
            .tables(PipeletId::ingress(0))
            .unwrap();
        tables.entries("n2__work").to_vec()
    };
    net.advance_time(2).unwrap();
    assert_eq!(n2_rules(&mut net), [rule], "restored before clock 5");
    net.advance_time(1).unwrap();
    assert_eq!(n2_rules(&mut net), [], "restored after clock 5");
}

/// A swap whose state does not restore is refused by the worker: the
/// outgoing member stays live, routed to and holding its entries.
#[test]
fn a_swap_that_fails_to_restore_keeps_the_outgoing_member() {
    let mut net = six_nf_cluster();
    net.install("n3", "work", pass_tcp()).unwrap();
    let (switch, deployment) = member_one_replacement();
    // The newcomer has two pipelines: nothing is loaded on a third.
    let empty = SealedSlice::seal(&StateSnapshot::empty("n3"));
    let state = vec![(PipeletId::ingress(2), empty)];
    net.stage_member(1, switch, deployment).unwrap();
    let err = net.flip([(1, state)].into()).unwrap_err();
    assert!(matches!(err, ClusterError::Remote(_)), "got {err}");

    assert_eq!(net.switch_of("n2"), Some(0));
    assert_eq!(net.switch_of("n3"), Some(1));
    let tables = net
        .switch(1)
        .unwrap()
        .tables(PipeletId::ingress(0))
        .unwrap();
    assert_eq!(tables.entries("n3__work"), [merged(pass_tcp(), "n3")]);
    let t = net
        .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    // Every marker but n3, whose rule the old member still holds.
    assert_eq!(marks(&t.final_bytes), 0b11_0111);
}

/// A flip carrying a seal that does not open — its bytes cut short, or its
/// entry count off by one — is refused before anything is restored: the
/// outgoing member stays live, routed to and holding its entries, and the
/// good seal beside the bad one is restored nowhere.
#[test]
fn a_flip_with_a_bad_seal_keeps_the_outgoing_member() {
    let mut net = six_nf_cluster();
    net.install("n3", "work", pass_tcp()).unwrap();
    let mut slice = StateSnapshot::empty("n2");
    slice.tables.push(TableSnapshot {
        name: "n2__work".into(),
        idle_timeout: None,
        entries: vec![merged(pass_tcp(), "n2")],
    });
    let good = SealedSlice::seal(&slice);
    let cut = SealedSlice {
        bytes: good.bytes[..good.bytes.len() - 1].to_vec(),
        ..good.clone()
    };
    let miscounted = SealedSlice {
        entries: good.entries + 1,
        ..good.clone()
    };
    for bad in [cut, miscounted] {
        let (switch, deployment) = member_one_replacement();
        net.stage_member(1, switch, deployment).unwrap();
        let state = vec![
            (PipeletId::ingress(0), good.clone()),
            (PipeletId::ingress(0), bad),
        ];
        match net.flip([(1, state)].into()) {
            Err(ClusterError::Remote(m)) => assert!(m.contains("slice for"), "got {m}"),
            other => panic!("expected the flip refused, got {other:?}"),
        }
        net.retire(&[1]).unwrap();

        assert_eq!(net.switch_of("n2"), Some(0));
        assert_eq!(net.switch_of("n3"), Some(1));
        let tables = net
            .switch(1)
            .unwrap()
            .tables(PipeletId::ingress(0))
            .unwrap();
        assert_eq!(tables.entries("n3__work"), [merged(pass_tcp(), "n3")]);
        assert_eq!(tables.entries("n2__work"), []);
        let t = net
            .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
            .unwrap();
        assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
        assert_eq!(marks(&t.final_bytes), 0b11_0111);
    }
}

/// A swap whose state restores only in part is refused as well: an n2
/// slice whose entry names the NF-view action `pass`, which the merged
/// program calls `n2__pass`, would go live without that entry.
#[test]
fn a_swap_whose_restore_drops_an_entry_keeps_the_outgoing_member() {
    let mut net = six_nf_cluster();
    let mut slice = StateSnapshot::empty("n2");
    slice.tables.push(TableSnapshot {
        name: "n2__work".into(),
        idle_timeout: None,
        entries: vec![pass_tcp()],
    });
    let (switch, deployment) = member_one_replacement();
    let state = vec![(PipeletId::ingress(0), SealedSlice::seal(&slice))];
    net.stage_member(1, switch, deployment).unwrap();
    match net.flip([(1, state)].into()) {
        Err(ClusterError::Remote(m)) => {
            assert!(m.contains("action no longer defined"), "got {m}")
        }
        other => panic!("expected the swap refused, got {other:?}"),
    }
    assert_eq!(net.switch_of("n2"), Some(0));
    assert_eq!(net.switch_of("n3"), Some(1));
}

/// `RestoreState` keeps the rule a flip keeps: a restore that drops an
/// entry (here one naming the NF-view action `pass`, which the merged
/// program calls `n2__pass`) is refused, naming why, and the entries that
/// did restore stay installed.
#[test]
fn a_lossy_restore_state_is_refused() {
    let mut net = six_nf_cluster();
    let mut slice = StateSnapshot::empty("n2");
    slice.tables.push(TableSnapshot {
        name: "n2__work".into(),
        idle_timeout: None,
        entries: vec![merged(pass_tcp(), "n2"), pass_tcp()],
    });
    match net.restore_state(0, PipeletId::egress(0), &slice) {
        Err(ClusterError::Remote(m)) => {
            assert!(m.contains("action no longer defined"), "got {m}")
        }
        other => panic!("expected the restore refused, got {other:?}"),
    }
    let tables = net.switch(0).unwrap().tables(PipeletId::egress(0)).unwrap();
    assert_eq!(tables.entries("n2__work"), [merged(pass_tcp(), "n2")]);
}

#[test]
fn a_packet_the_first_link_refuses_fails_at_once() {
    // A frame past MAX_PAYLOAD never reaches worker 0: the injector hears
    // the link's error straight away, under the packet's own trace id.
    let mut net = six_nf_cluster();
    let huge = InjectedPacket::new(vec![0; MAX_PAYLOAD + 1], IN_PORT);
    let over_length = |m: &str| m.contains("exceeds maximum");
    match net.inject(huge.clone()) {
        Err(ClusterError::Remote(m)) => assert!(over_length(&m), "got {m}"),
        other => panic!("expected a remote error naming the frame, got {other:?}"),
    }
    let trace = net.inject_async(huge.clone()).unwrap();
    let d = net.recv_delivered(Duration::ZERO).unwrap().unwrap();
    assert_eq!(d.trace, trace);
    assert!(d.result.is_err_and(|m| over_length(&m)));
    // A refused packet never went in flight: the quiesce barrier has
    // nothing to wait for. Parked and released, it fails the same way.
    assert_eq!(net.pause_ingress().unwrap(), 0);
    let parked = net.inject_async(huge).unwrap();
    assert_eq!(net.resume_ingress().unwrap(), 1);
    let d = net.recv_delivered(Duration::ZERO).unwrap().unwrap();
    assert_eq!(d.trace, parked);
    assert!(d.result.is_err_and(|m| over_length(&m)));
    // The cluster keeps forwarding.
    let t = net
        .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
}

#[test]
fn cluster_state_sync_spans_member_switches() {
    let mut net = six_nf_cluster();

    // Dynamic state on both members: one extra rule per switch.
    net.install("n0", "work", pass_tcp()).unwrap();
    net.install("n4", "work", pass_tcp()).unwrap();

    // The cluster-wide checkpoint sees the state where it lives.
    let snaps = net.snapshot_state().unwrap();
    let has = |sw: usize, table: &str| {
        snaps
            .iter()
            .any(|(i, _, s)| *i == sw && s.table(table).is_some_and(|t| !t.entries.is_empty()))
    };
    assert!(has(0, "n0__work"), "switch 0 state missing from checkpoint");
    assert!(has(1, "n4__work"), "switch 1 state missing from checkpoint");

    // No learning NFs deployed: a cluster learning round is a no-op, and
    // the merged report says so per member.
    let report = net.process_digests().unwrap();
    assert_eq!(report.digests_seen, 0);
    assert_eq!(report.entries_installed, 0);
    assert_eq!(report.per_switch.len(), 2);

    // Synchronized aging: both members advance together and both evict.
    net.set_idle_timeout("n0", "work", Some(3)).unwrap();
    net.set_idle_timeout("n4", "work", Some(3)).unwrap();
    let report = net.advance_time(5).unwrap();
    let members: std::collections::BTreeSet<usize> =
        report.evictions.iter().map(|(i, _, _)| *i).collect();
    assert_eq!(members, [0, 1].into_iter().collect());
    assert_eq!(report.evicted(), report.evictions.len());
    assert!(report.per_switch[0].evictions >= 1);
    assert!(report.per_switch[1].evictions >= 1);
    let clocks: Vec<u64> = (0..2).map(|i| net.switch(i).unwrap().now()).collect();
    assert_eq!(clocks, [5, 5]);
}

// ---------------------------------------------------------------------
// The learn loop across members: the NAT on member 1 emits the digest, and
// its entry lands in the NAT's table on member 1, never on member 0 — on
// either driver.
// ---------------------------------------------------------------------

/// Learns one NAT flow on a cluster driven by threads or stepped inline.
fn learn_on_the_nat_member(threaded: bool) {
    let nfs: Vec<NfModule> = vec![classifier::classifier(), dynamic_nat(), router::router()];
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let chains = ChainSet::new(vec![ChainPolicy::new(
        1,
        "nat_path",
        vec!["classifier", "nat", "router"],
        1.0,
    )])
    .unwrap();
    let placement = ClusterPlacement {
        switches: vec![
            Placement::sequential(vec![(PipeletId::ingress(0), vec!["classifier"])]),
            Placement::sequential(vec![(PipeletId::ingress(0), vec!["nat", "router"])]),
        ],
    };
    let options = DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    };
    let profile = TofinoProfile::wedge_100b_32x();
    let exits = [(1u16, EXIT_PORT)].into_iter().collect();
    let wiring = ClusterWiring::default();
    let mut net = if threaded {
        spawn_cluster(
            &refs,
            &chains,
            &placement,
            &profile,
            exits,
            &wiring,
            &options,
            &mut ChannelTransport::new(),
            &ClusterOptions::default(),
        )
    } else {
        deploy_cluster(
            &refs, &chains, &placement, &profile, exits, &wiring, &options,
        )
    }
    .unwrap();
    assert_eq!(net.switch_of("classifier"), Some(0));
    assert_eq!(net.switch_of("nat"), Some(1));

    net.register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
        .unwrap();
    net.install(
        "classifier",
        classifier::CLASSIFY_TABLE,
        classifier::classify_entry((0x0a01_0000, 16), (0, 0), 1, 100),
    )
    .unwrap();
    net.install(
        "nat",
        NAT_OUT_TABLE,
        nat_out_entry((0x0a01_0000, 16), PUBLIC_IP),
    )
    .unwrap();
    net.install(
        "router",
        router::ROUTES_TABLE,
        router::route_entry((0, 0), EXIT_PORT, 0x0200_0000_0099, 0x0200_0000_0001),
    )
    .unwrap();
    // Learned return entries per member.
    let learned = |net: &mut ClusterNet| {
        let mut entries = [0usize; 2];
        for (member, _, snap) in net.snapshot_state().unwrap() {
            if let Some(t) = snap.table(&format!("nat__{NAT_IN_TABLE}")) {
                entries[member] += t.entries.len();
            }
        }
        entries
    };
    assert_eq!(learned(&mut net), [0, 0]);

    let flow = dejavu_traffic::PacketBuilder::tcp()
        .src_ip(0x0a01_0101)
        .dst_ip(0x0808_0808)
        .src_port(40000)
        .dst_port(80)
        .build();
    let t = net.inject(InjectedPacket::new(flow, IN_PORT)).unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    assert_eq!(t.hops.len(), 2);

    let report = net.process_digests().unwrap();
    assert_eq!(report.per_switch[1].digests, 1, "emitted on member 1");
    assert_eq!(report.per_switch[1].installed, 1, "installed on member 1");
    assert_eq!(report.per_switch[0].installed, 0);
    assert_eq!(learned(&mut net), [0, 1], "the entry landed on member 1");

    // A learn storm in flight when ingress pauses: once the barrier opens,
    // every member has learned every digest its packets emitted, so a
    // migration's snapshot has no digest left to flush.
    const STORM: u16 = 8;
    for f in 1..=STORM {
        let flow = dejavu_traffic::PacketBuilder::tcp()
            .src_ip(0x0a01_0101)
            .dst_ip(0x0808_0808)
            .src_port(40000 + f)
            .dst_port(80)
            .build();
        net.inject_async(InjectedPacket::new(flow, IN_PORT))
            .unwrap();
    }
    let quiesced = net.pause_ingress().unwrap();
    if !threaded {
        assert_eq!(quiesced, u64::from(STORM), "the storm was in flight");
        for member in 0..net.members() {
            let switch = net.switch(member).unwrap();
            for pipeline in 0..switch.profile().pipelines {
                assert_eq!(switch.digest_backlog(pipeline), 0, "member {member}");
            }
        }
    }
    net.resume_ingress().unwrap();
    let storm = usize::from(STORM);
    assert_eq!(learned(&mut net), [0, 1 + storm], "the storm was learned");
}

#[test]
fn learned_entry_lands_on_the_member_that_owns_the_nf() {
    learn_on_the_nat_member(false);
    learn_on_the_nat_member(true);
}

// ---------------------------------------------------------------------
// The punt loop across members (Fig. 4): the LB on member 1 punts a
// session miss, the controller installs the handler's session on member 1
// and reinjects the packet into member 1, on either driver.
// ---------------------------------------------------------------------

/// The Fig. 4 VIP and the backend the handler pins its sessions to.
const VIP: u32 = 0xc633_6450;
const BACKEND: u32 = 0x0a63_0001;

/// The Fig. 2 chains on two members: classifier, firewall and VGW on
/// member 0, the LB and the router on member 1, baseline rules installed.
fn fig4_cluster(threaded: bool) -> ClusterNet {
    let nfs = [
        classifier::classifier(),
        firewall::firewall(),
        vgw::vgw(),
        load_balancer::load_balancer(),
        router::router(),
    ];
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let chains = ChainSet::edge_cloud_example();
    let placement = ClusterPlacement {
        switches: vec![
            Placement::sequential(vec![
                (PipeletId::ingress(0), vec!["classifier", "firewall"]),
                (PipeletId::egress(0), vec!["vgw"]),
            ]),
            // The router in a pipelet of its own, as in Fig. 9: a punt is
            // caught at the pipelet's end, before the next NF runs.
            Placement::sequential(vec![
                (PipeletId::ingress(0), vec!["lb"]),
                (PipeletId::egress(0), vec!["router"]),
            ]),
        ],
    };
    let options = DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    };
    let profile = TofinoProfile::wedge_100b_32x();
    let exits = chains
        .chains
        .iter()
        .map(|c| (c.path_id, EXIT_PORT))
        .collect();
    let wiring = ClusterWiring::default();
    let mut net = if threaded {
        spawn_cluster(
            &refs,
            &chains,
            &placement,
            &profile,
            exits,
            &wiring,
            &options,
            &mut ChannelTransport::new(),
            &ClusterOptions::default(),
        )
    } else {
        deploy_cluster(
            &refs, &chains, &placement, &profile, exits, &wiring, &options,
        )
    }
    .unwrap();
    for (nf, table, entry) in baseline_rules() {
        net.install(nf, table, entry).unwrap();
    }
    net
}

/// The §3.1 LB handler: claims packets to the VIP, installs their session
/// and asks for the rewound packet to be reinjected.
fn session_handler() -> PuntHandler {
    Box::new(|bytes| match five_tuple_of(bytes) {
        Some(t) if t.dst_addr == VIP => PuntResponse {
            install: vec![(
                "lb".into(),
                SESSION_TABLE.into(),
                session_entry_for(&t, BACKEND),
            )],
            reinject: true,
            reinject_bytes: rewind_and_clear(bytes),
        },
        _ => PuntResponse::default(),
    })
}

/// The members a flight visited, in order.
fn members(t: &WireTraversal) -> Vec<u32> {
    t.hops.iter().map(|h| h.switch).collect()
}

/// Serves one session miss on a cluster driven by threads or stepped
/// inline, and checks it against the single-switch control plane.
fn lb_punt_on_member_1(threaded: bool) {
    let pkt = chain_packet(1, VIP, 80);
    let (mut switch, dep) = fig9_testbed();
    let mut cp = ControlPlane::new();
    cp.register_handler("lb", session_handler());
    cp.inject_tracking_punts(&mut switch, pkt.clone(), IN_PORT)
        .unwrap();
    let single = cp.process_punts(&mut switch, &dep).unwrap();

    let mut net = fig4_cluster(threaded);
    assert_eq!(net.switch_of("lb"), Some(1));
    net.register_handler("lb", session_handler()).unwrap();
    let sessions = |net: &mut ClusterNet| {
        let mut entries = [0usize; 2];
        for (member, _, snap) in net.snapshot_state().unwrap() {
            if let Some(t) = snap.table(&format!("lb__{SESSION_TABLE}")) {
                entries[member] += t.entries.len();
            }
        }
        entries
    };
    assert_eq!(sessions(&mut net), [0, 0]);

    // The miss punts on member 1, is served, and is reinjected there.
    let t = net
        .inject(InjectedPacket::new(pkt.clone(), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    assert_eq!(members(&t), [0, 1, 1], "reinjected into member 1");
    assert_eq!(t.final_bytes, single[0].final_bytes);
    assert_eq!(sessions(&mut net), [0, 1], "the session landed on member 1");

    // The next packet of the flow hits the session: no punt.
    let t = net.inject(InjectedPacket::new(pkt, IN_PORT)).unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    assert_eq!(members(&t), [0, 1]);
    assert_eq!(t.final_bytes, single[0].final_bytes);
}

#[test]
fn a_cluster_serves_the_lb_punt_on_the_member_that_hosts_it() {
    lb_punt_on_member_1(false);
    lb_punt_on_member_1(true);
}

#[test]
fn a_packet_is_reinjected_at_most_once() {
    // A handler that always asks for the rewound packet to be reinjected
    // and installs nothing: the LB misses again, and the second punt comes
    // back as `ToCpu` instead of looping.
    for threaded in [false, true] {
        let mut net = fig4_cluster(threaded);
        net.register_handler(
            "lb",
            Box::new(|bytes| PuntResponse {
                reinject: true,
                reinject_bytes: rewind_and_clear(bytes),
                ..Default::default()
            }),
        )
        .unwrap();
        let t = net
            .inject(InjectedPacket::new(chain_packet(1, VIP, 80), IN_PORT))
            .unwrap();
        assert_eq!(t.disposition, Disposition::ToCpu);
        assert_eq!(members(&t), [0, 1, 1]);
    }
}

#[test]
fn a_nacked_punt_install_fails_the_flight() {
    let mut net = fig4_cluster(false);
    net.register_handler(
        "lb",
        Box::new(|_| PuntResponse {
            install: vec![(
                "lb".into(),
                "no_such_table".into(),
                session_entry_for(&five_tuple_of(&chain_packet(1, VIP, 80)).unwrap(), BACKEND),
            )],
            reinject: true,
            reinject_bytes: None,
        }),
    )
    .unwrap();
    let pkt = InjectedPacket::new(chain_packet(1, VIP, 80), IN_PORT);
    match net.inject(pkt) {
        Err(ClusterError::Remote(m)) => {
            assert!(m.contains("lb/no_such_table"), "names the install: {m}")
        }
        other => panic!("expected the nack to end the flight, got {other:?}"),
    }
    // The failed flight is no longer in flight: the quiesce barrier opens.
    assert_eq!(net.pause_ingress().unwrap(), 0);
    net.resume_ingress().unwrap();
}

#[test]
fn registering_for_an_unplaced_nf_fails_at_once() {
    let mut net = fig4_cluster(false);
    assert!(matches!(
        net.register_learn_policy("ghost", NAT_FLOW_STREAM, nat_learn_policy()),
        Err(ClusterError::Unplaced(nf)) if nf == "ghost"
    ));
    assert!(matches!(
        net.register_handler("ghost", session_handler()),
        Err(ClusterError::Unplaced(nf)) if nf == "ghost"
    ));
    // The placed NFs still register.
    net.register_handler("lb", session_handler()).unwrap();
}

// ---------------------------------------------------------------------
// Stage, then flip: a migration rebuilds and flips only the members it
// changes, hands the state of an NF that stays on a changed member over
// inside that member, and leaves a member it does not change alone.
// ---------------------------------------------------------------------

/// A replacement for member 0 of [`six_nf_cluster`] hosting n0 and n1 in
/// one ingress pipelet.
fn member_zero_replacement() -> (Switch, Deployment) {
    let (nfs, chains, _) = six_nf_setup();
    let refs: Vec<_> = nfs.iter().collect();
    let placement = Placement::sequential(vec![(PipeletId::ingress(0), vec!["n0", "n1"])]);
    let link = ClusterWiring::default().egress_link_port;
    let remote = ["n2", "n3", "n4", "n5"].map(|nf| (nf.to_string(), link));
    let options = DeployOptions {
        segment: Some(SegmentOptions {
            remote_ports: remote.into(),
            decap_on_exit: false,
        }),
        ..Default::default()
    };
    let config = RoutingConfig {
        loopback_port: Default::default(),
        exit_ports: [(1u16, link)].into(),
        honor_out_port: false,
    };
    let profile = TofinoProfile::wedge_100b_32x();
    deploy(&refs, &chains, &placement, &profile, &config, &options)
        .expect("the replacement deploys")
}

/// One flip, fanned out to two members, one of which fails: the other
/// still goes live and is routed to, and the failed one keeps its outgoing
/// member. The failure answers the flip.
#[test]
fn a_failed_flip_still_flips_and_routes_the_others() {
    let mut net = six_nf_cluster();
    let (switch, deployment) = member_zero_replacement();
    net.stage_member(0, switch, deployment).unwrap();
    let (switch, deployment) = member_one_replacement();
    net.stage_member(1, switch, deployment).unwrap();
    // Member 0's newcomer has two pipelines: nothing is loaded on a third.
    let empty = SealedSlice::seal(&StateSnapshot::empty("n0"));
    let state = [(0, vec![(PipeletId::ingress(2), empty)])];
    let err = net.flip(state.into()).unwrap_err();
    assert!(matches!(err, ClusterError::Remote(_)), "got {err}");
    net.retire(&[0, 1]).unwrap();

    for (nf, member) in [("n0", 0), ("n1", 0), ("n2", 1), ("n3", 1), ("n5", 1)] {
        assert_eq!(net.switch_of(nf), Some(member), "{nf}");
    }
    // Member 0 kept its old build, which still runs n2 in its egress pass.
    let member0 = net.deployment(0).unwrap();
    assert_eq!(member0.nf_location("n2"), Some(PipeletId::egress(0)));
    assert_eq!(
        net.deployment(1).unwrap().nf_location("n2"),
        Some(PipeletId::ingress(0))
    );
}

/// What a member was built as: per loaded pipelet, its program and the
/// entries of every framework table (every table no NF's `<nf>__` prefix
/// names), rendered — what `routing_pinned.rs` hashes, compared here
/// unhashed so a failure shows the pipelet that differs.
fn build_of(switch: &Switch, nfs: &[&str]) -> Vec<String> {
    let ours = |table: &str| nfs.iter().any(|nf| table.starts_with(&format!("{nf}__")));
    let mut build = Vec::new();
    for pipelet in switch.loaded_pipelets() {
        // Without its name, which a program shared by several pipelets
        // takes from the first one built.
        let p = switch.program(pipelet).unwrap();
        let program = (
            (&p.header_types, &p.meta_fields, &p.parser, &p.actions),
            (&p.tables, &p.registers, &p.controls, &p.entry),
        );
        build.push(format!("{pipelet:?} {program:?}"));
        let snapshot = switch.snapshot_state(pipelet).unwrap();
        for table in snapshot.tables.iter().filter(|t| !ours(&t.name)) {
            build.push(format!("{pipelet:?} {}: {:?}", table.name, table.entries));
        }
    }
    build
}

/// Four markers on four members. Chain 1 is n0 → n1, chain 2 n0 → n2. The
/// migration moves n1 from member 1 to member 3, so member 2 keeps n2 but
/// stops being the final member (its exit becomes the forward link), and
/// member 0 is wholly unchanged.
fn four_member_fleet() -> (Vec<NfModule>, ChainSet, [ClusterPlacement; 2]) {
    let nfs: Vec<NfModule> = (0..3).map(|i| marker_nf(&format!("n{i}"), i)).collect();
    let chains = ChainSet::new(vec![
        ChainPolicy::new(1, "one", vec!["n0", "n1"], 1.0),
        ChainPolicy::new(2, "two", vec!["n0", "n2"], 1.0),
    ])
    .unwrap();
    let on = |nfs: Vec<&str>| Placement::sequential(vec![(PipeletId::ingress(0), nfs)]);
    let old = ClusterPlacement {
        switches: vec![on(vec!["n0"]), on(vec!["n1"]), on(vec!["n2"]), on(vec![])],
    };
    let new = ClusterPlacement {
        switches: vec![on(vec!["n0"]), on(vec![]), on(vec!["n2"]), on(vec!["n1"])],
    };
    (nfs, chains, [old, new])
}

#[test]
fn a_migrated_cluster_matches_a_fresh_deploy() {
    let (nfs, chains, [old, new]) = four_member_fleet();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let (profile, wiring) = (TofinoProfile::wedge_100b_32x(), ClusterWiring::default());
    let exits: std::collections::BTreeMap<u16, u16> = [(1, EXIT_PORT), (2, EXIT_PORT)].into();
    let boot = |placement: &ClusterPlacement| {
        let options = DeployOptions::default();
        deploy_cluster(
            &refs,
            &chains,
            placement,
            &profile,
            exits.clone(),
            &wiring,
            &options,
        )
        .unwrap()
    };
    let names = ["n0", "n1", "n2"];
    let (mut net, mut fresh, mut before) = (boot(&old), boot(&new), boot(&old));
    // Member 2's build depends on its being the final member.
    let member2 = |net: &mut ClusterNet| build_of(net.switch(2).unwrap(), &names);
    assert_ne!(member2(&mut before), member2(&mut fresh));
    for path in [1, 2] {
        net.inject(InjectedPacket::new(encapsulated_packet(path, 0), IN_PORT))
            .unwrap();
    }

    let spec = dejavu_core::orchestrator::FleetSpec {
        nfs: &refs,
        chains: &chains,
        profile: &profile,
        exit_ports: exits.clone(),
        wiring: &wiring,
        deploy: &DeployOptions::default(),
    };
    let outcome = dejavu_core::orchestrator::migrate(&mut net, &spec, &old, &new).unwrap();
    let moved: Vec<(&str, usize, usize)> = (outcome.moves.iter())
        .map(|m| (m.nf.as_str(), m.from, m.to))
        .collect();
    assert_eq!(moved, [("n1", 1, 3)]);
    assert!(outcome.phases.total_ns() <= outcome.duration_ns);
    assert!(outcome.phases.flip_ns > 0 && outcome.phases.snapshot_ns > 0);

    for member in 0..4 {
        let got = build_of(net.switch(member).unwrap(), &names);
        let want = build_of(fresh.switch(member).unwrap(), &names);
        let differs = got.iter().zip(&want).position(|(g, w)| g != w);
        assert_eq!(
            got.len(),
            want.len(),
            "member {member}: pipelets and tables"
        );
        assert_eq!(
            differs,
            None,
            "member {member}: {:#?}",
            differs.map(|at| (&got[at], &want[at]))
        );
    }
    for path in [1, 2] {
        let packet = || InjectedPacket::new(encapsulated_packet(path, 0), IN_PORT);
        let (got, want) = (
            net.inject(packet()).unwrap(),
            fresh.inject(packet()).unwrap(),
        );
        assert_eq!(got.disposition, Disposition::Emitted { port: EXIT_PORT });
        assert_eq!(got.final_bytes, want.final_bytes, "chain {path}");
        assert_eq!(members(&got), members(&want), "chain {path}");
    }
}

/// The rate limiter keeps its member and moves from its ingress pipelet
/// to the egress one. Its member is flipped, and the hand-over inside the
/// worker carries its class entries and its counters over: the registers
/// read what the traffic before the migration left in them, the idle
/// timeout holds, and each entry is stamped at the clock it was last hit
/// at — the flip's, since the packets that hit them ran just before it —
/// so it ages out at that clock plus its timeout, not before, not after.
#[test]
fn an_nf_that_stays_keeps_its_registers_and_stamps() {
    use dejavu_nf::rate_limiter::{class_entry, rate_limiter, BUCKET_REGISTER, CLASSES_TABLE};
    const TIMEOUT: u64 = 10;
    const CLOCK: u64 = 4;
    let nfs = [rate_limiter(), marker_nf("m", 0)];
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let chains = ChainSet::new(vec![ChainPolicy::new(
        1,
        "limited",
        vec!["rate_limiter", "m"],
        1.0,
    )])
    .unwrap();
    let at = |gress: PipeletId, nfs: Vec<&str>| Placement::sequential(vec![(gress, nfs)]);
    let old = ClusterPlacement {
        switches: vec![
            at(PipeletId::ingress(0), vec!["rate_limiter"]),
            at(PipeletId::ingress(0), vec!["m"]),
        ],
    };
    let new = ClusterPlacement {
        switches: vec![
            at(PipeletId::egress(0), vec!["rate_limiter"]),
            at(PipeletId::ingress(0), vec!["m"]),
        ],
    };
    let (profile, wiring) = (TofinoProfile::wedge_100b_32x(), ClusterWiring::default());
    let exits: std::collections::BTreeMap<u16, u16> = [(1, EXIT_PORT)].into();
    let options = DeployOptions::default();
    let mut net = deploy_cluster(
        &refs,
        &chains,
        &old,
        &profile,
        exits.clone(),
        &wiring,
        &options,
    )
    .unwrap();
    // Sources in 10/8 count in cell 7, under a budget nothing here reaches.
    let rule = class_entry((0x0a00_0000, 8), 7, 1000);
    net.install("rate_limiter", CLASSES_TABLE, rule.clone())
        .unwrap();
    net.set_idle_timeout("rate_limiter", CLASSES_TABLE, Some(TIMEOUT))
        .unwrap();
    net.advance_time(CLOCK).unwrap();
    for _ in 0..5 {
        let t = net
            .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
            .unwrap();
        assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    }
    let table = format!("rate_limiter__{CLASSES_TABLE}");
    let register = format!("rate_limiter__{BUCKET_REGISTER}");
    let counted =
        |net: &mut ClusterNet, pipelet| net.switch(0).unwrap().register_peek(pipelet, &register, 7);
    assert_eq!(counted(&mut net, PipeletId::ingress(0)), Some(5));

    let spec = dejavu_core::orchestrator::FleetSpec {
        nfs: &refs,
        chains: &chains,
        profile: &profile,
        exit_ports: exits,
        wiring: &wiring,
        deploy: &options,
    };
    let outcome = dejavu_core::orchestrator::migrate(&mut net, &spec, &old, &new).unwrap();
    assert!(outcome.moves.is_empty());
    assert_eq!((outcome.flows_migrated, outcome.restored_entries), (0, 1));
    assert_eq!(
        net.deployment(0).unwrap().nf_location("rate_limiter"),
        Some(PipeletId::egress(0))
    );

    let home = PipeletId::egress(0);
    assert_eq!(counted(&mut net, home), Some(5), "the counters");
    let tables = |net: &mut ClusterNet| {
        let tables = net.switch(0).unwrap().tables(home).unwrap();
        (tables.idle_timeout(&table), tables.entries(&table).len())
    };
    assert_eq!(net.switch(0).unwrap().now(), CLOCK);
    assert_eq!(tables(&mut net), (Some(TIMEOUT), 1));
    net.advance_time(TIMEOUT - 1).unwrap();
    assert_eq!(
        tables(&mut net),
        (Some(TIMEOUT), 1),
        "aged before its stamp plus its timeout"
    );
    net.advance_time(1).unwrap();
    assert_eq!(
        tables(&mut net),
        (Some(TIMEOUT), 0),
        "outlived its stamp plus its timeout"
    );
}
