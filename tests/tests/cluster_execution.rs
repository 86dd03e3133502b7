//! §7 multi-switch chaining, physically executed: a chain too large for one
//! ASIC deployed across wired back-to-back switches, driven packet by
//! packet through the whole cluster.

use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, PipeletId, TofinoProfile};
use dejavu_core::control_plane::LearnResponse;
use dejavu_core::deploy::{DeployError, DeployOptions};
use dejavu_core::multiswitch::{
    deploy_cluster, ClusterConfigError, ClusterNet, ClusterPlacement, ClusterWiring,
};
use dejavu_core::placement::Placement;
use dejavu_core::transport::{spawn_cluster, ChannelTransport, ClusterError, ClusterOptions};
use dejavu_core::{ChainPolicy, ChainSet, NfModule};
use dejavu_integration::{encapsulated_packet, marker_nf, EXIT_PORT, IN_PORT};
use dejavu_nf::nat::{dynamic_nat, nat_out_entry, NAT_FLOW_STREAM, NAT_OUT_TABLE};
use dejavu_nf::{classifier, router};

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

#[test]
fn chain_executes_across_two_switches() {
    let mut net = six_nf_cluster();
    let t = net
        .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    assert_eq!(t.inter_switch_hops, 1, "one forward wire hop");
    assert_eq!(t.hops.len(), 2, "visited both switches");
    // All six NFs ran, three per switch.
    for (i, hop) in t.hops.iter().enumerate() {
        assert_eq!(hop.switch as usize, i);
        for nf in 0..3 {
            let table = format!("n{}__work", i * 3 + nf);
            assert!(
                hop.tables_applied.contains(&table),
                "switch {i} missing {table}: {:?}",
                hop.tables_applied
            );
        }
    }
    // Decapsulated only at the final exit.
    let out = &t.final_bytes;
    assert_eq!(u16::from_be_bytes([out[12], out[13]]), 0x0800);

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
        assert_eq!(hop.tables_applied, chip.tables_applied());
        assert_eq!(hop.tables_hit, chip.tables_hit());
    }
    // Latency: two port-to-port traversals + cable + any recirculations.
    assert!(t.latency_ns > 1300.0, "latency {}", t.latency_ns);
}

#[test]
fn mid_chain_entry_on_second_switch_only_runs_remaining_nfs() {
    // A packet arriving at switch 0 with service index 3 skips switch 0's
    // NFs (the branching table forwards it straight over the link).
    let mut net = six_nf_cluster();
    let t = net
        .inject(InjectedPacket::new(encapsulated_packet(1, 3), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    // Switch 0 applied no NF work tables.
    assert!(!t.hops[0]
        .tables_applied
        .iter()
        .any(|x| x.ends_with("__work")));
    // Switch 1 ran n3..n5.
    for nf in ["n3", "n4", "n5"] {
        let table = format!("{nf}__work");
        assert!(t.hops[1].tables_applied.contains(&table));
    }
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
    use dejavu_p4ir::table::{KeyMatch, TableEntry};
    net.install(
        "n5",
        "work",
        TableEntry {
            matches: vec![KeyMatch::Exact(dejavu_p4ir::Value::new(6, 8))],
            action: "pass".into(),
            action_args: vec![],
            priority: 0,
        },
    )
    .unwrap();
    let t = net
        .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    // n5's table hit the pass entry this time.
    assert!(t.hops[1].tables_hit.contains(&"n5__work".to_string()));
}

#[test]
fn cluster_state_sync_spans_member_switches() {
    let mut net = six_nf_cluster();

    // Dynamic state on both members: one extra rule per switch.
    let pass_entry = || dejavu_p4ir::table::TableEntry {
        matches: vec![dejavu_p4ir::table::KeyMatch::Exact(
            dejavu_p4ir::Value::new(6, 8),
        )],
        action: "pass".into(),
        action_args: vec![],
        priority: 0,
    };
    net.install("n0", "work", pass_entry()).unwrap();
    net.install("n4", "work", pass_entry()).unwrap();

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
// A learn policy that answers for another member's NF: the digest is
// emitted by the NAT on member 1, the entry it asks for belongs to the
// classifier on member 0. The controller routes the install by NF, not by
// where the digest came from — on either driver.
// ---------------------------------------------------------------------

/// Runs the cross-member learn on a cluster driven by threads or stepped
/// inline, and returns the thread the policy was called on.
fn learn_across_members(threaded: bool) -> std::thread::ThreadId {
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

    // The learned entry: a more specific classification for the flow's
    // source, into the classifier's own table.
    let learned = || classifier::classify_entry((0x0a01_0101, 32), (0, 0), 1, 200);
    let (seen_tx, seen_rx) = std::sync::mpsc::channel();
    net.register_learn_policy(
        "nat",
        NAT_FLOW_STREAM,
        Box::new(move |_pipeline: usize, _values: &[dejavu_p4ir::Value]| {
            let _ = seen_tx.send(std::thread::current().id());
            LearnResponse {
                install: vec![(
                    "classifier".into(),
                    classifier::CLASSIFY_TABLE.into(),
                    learned(),
                )],
            }
        }),
    )
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
        nat_out_entry((0x0a01_0000, 16), 0xc633_6401),
    )
    .unwrap();
    net.install(
        "router",
        router::ROUTES_TABLE,
        router::route_entry((0, 0), EXIT_PORT, 0x0200_0000_0099, 0x0200_0000_0001),
    )
    .unwrap();
    // Classifier entries per member (every segment carries the entry NF's
    // table; only member 0's is the classifier's home).
    let classified = |net: &mut ClusterNet| {
        let mut entries = [0usize; 2];
        for (member, _, snap) in net.snapshot_state().unwrap() {
            if let Some(t) = snap.table("classifier__classify") {
                entries[member] += t.entries.len();
            }
        }
        entries
    };
    assert_eq!(classified(&mut net), [1, 0]);

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
    assert_eq!(report.per_switch[0].installed, 1, "installed on member 0");
    assert_eq!(report.per_switch[1].installed, 0);
    assert_eq!(classified(&mut net), [2, 0], "the entry landed on member 0");
    seen_rx.try_recv().expect("the policy ran")
}

#[test]
fn learned_entry_lands_on_the_member_that_owns_the_nf() {
    // A `deploy_cluster` cluster has no thread of its own: the controller —
    // and the policy it owns — runs on the caller's, inside the facade call.
    let me = std::thread::current().id();
    assert_eq!(learn_across_members(false), me);
    assert_ne!(learn_across_members(true), me);
}
