//! Routing pinned entry for entry: an FNV-1a hash of every framework entry
//! the routing synthesis produces, in order, for the paper's placements,
//! the Fig. 2 optimum, the §5 testbed, every 3-NF placement of the
//! model-vs-switch sweep and each member of a 3-switch cluster.
//!
//! Routing derives from the placement's traversal model; a change to either
//! that moves a single branching, dispatch or decap entry changes a hash
//! here. The values were recorded on the synthesis that decided each
//! branching action on its own, before it was derived from the model.
//!
//! What each pipelet runs is pinned the same way: per loaded pipelet, the
//! program (everything but its name), the `Allocation` its deployment
//! recorded and the label its state snapshots carry, for the Fig. 2
//! optimum and every member of the replacement fleet under both of its
//! placements. These values were recorded while every pipelet was merged,
//! composed, checked and compiled on its own.

use dejavu_asic::{PipeletId, Switch, TofinoProfile};
use dejavu_core::compose::names;
use dejavu_core::deploy::{deploy, DeployOptions, Deployment};
use dejavu_core::multiswitch::{deploy_cluster, ClusterPlacement, ClusterWiring};
use dejavu_core::orchestrator::{ExhaustiveSearch, PlacementSearch};
use dejavu_core::placement::{Placement, PlacementProblem};
use dejavu_core::routing::{RoutingConfig, RoutingSynthesis};
use dejavu_core::{ChainPolicy, ChainSet, NfModule};
use dejavu_integration::{
    deploy_markers, fig9_testbed, marker_nf, replacement_fleet, replacement_fleet_nfs, EXIT_PORT,
    LOOPBACK_PORT_P0, LOOPBACK_PORT_P1,
};
use std::collections::BTreeMap;

/// FNV-1a over the rendered `(pipelet, table, entry)` triples, in order.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, pipelet: PipeletId, table: &str, entry: &impl std::fmt::Debug) {
        for b in format!("{pipelet:?}|{table}|{entry:?}\n").bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn synthesis(mut self, s: &RoutingSynthesis) -> Self {
        for (pipelet, table, entry) in &s.entries {
            self.add(*pipelet, table, entry);
        }
        self
    }
}

fn assert_pinned(what: &str, got: Fnv, want: u64) {
    assert_eq!(
        got.0, want,
        "{what}: hashes to {:#018x}, pinned {want:#018x}",
        got.0
    );
}

fn chain(path_id: u16, name: &str, nfs: &[&str]) -> ChainPolicy {
    ChainPolicy::new(path_id, name, nfs.to_vec(), 1.0)
}

fn fig6_synthesis(placement: &Placement) -> Fnv {
    let chains = ChainSet::new(vec![chain(1, "abcdef", &["A", "B", "C", "D", "E", "F"])]).unwrap();
    let (_, deployment) = deploy_markers(&chains, placement).expect("Fig. 6 deploys");
    Fnv::new().synthesis(&deployment.synthesis)
}

#[test]
fn fig6_routing_is_pinned() {
    let naive = Placement::sequential(vec![
        (PipeletId::ingress(0), vec!["A", "B"]),
        (PipeletId::egress(0), vec!["C"]),
        (PipeletId::ingress(1), vec!["D"]),
        (PipeletId::egress(1), vec!["E", "F"]),
    ]);
    let optimized = Placement::sequential(vec![
        (PipeletId::ingress(0), vec!["A", "B"]),
        (PipeletId::egress(1), vec!["C"]),
        (PipeletId::ingress(1), vec!["D"]),
        (PipeletId::egress(0), vec!["E", "F"]),
    ]);
    assert_pinned("Fig. 6(a)", fig6_synthesis(&naive), 0xb174_63db_ac3b_2c08);
    assert_pinned(
        "Fig. 6(b)",
        fig6_synthesis(&optimized),
        0x6ea9_9f2b_4095_67bb,
    );
}

/// The Fig. 2 optimum, deployed with the classifier as the entry NF.
fn fig2_deployed() -> (Switch, Deployment) {
    let stages = [
        ("classifier", 2u32),
        ("firewall", 3),
        ("vgw", 2),
        ("lb", 3),
        ("router", 3),
    ];
    let stages = stages.map(|(n, s)| (n.to_string(), s)).into();
    let fig2 = PlacementProblem::new(ChainSet::edge_cloud_example(), stages);
    let placement = fig2.exhaustive(1 << 22).expect("Fig. 2 has an optimum");
    let nfs = dejavu_nf::edge_cloud_suite();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let config = RoutingConfig {
        loopback_port: [(0, LOOPBACK_PORT_P0), (1, LOOPBACK_PORT_P1)].into(),
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
    deploy(&refs, &fig2.chains, &placement, &profile, &config, &options).expect("Fig. 2 deploys")
}

#[test]
fn fig2_optimum_routing_is_pinned() {
    let (_, deployment) = fig2_deployed();
    assert_pinned(
        "Fig. 2 optimum",
        Fnv::new().synthesis(&deployment.synthesis),
        0xed13_2775_7784_5033,
    );
}

#[test]
fn fig9_testbed_routing_is_pinned() {
    let (_, deployment) = fig9_testbed();
    assert_pinned(
        "fig9_testbed",
        Fnv::new().synthesis(&deployment.synthesis),
        0x558d_fa27_4f04_5974,
    );
}

#[test]
fn every_3nf_placement_routing_is_pinned() {
    // The 64 placements of `placement_model_vs_switch`, in its order.
    let pipelets = [
        PipeletId::ingress(0),
        PipeletId::egress(0),
        PipeletId::ingress(1),
        PipeletId::egress(1),
    ];
    let chains = ChainSet::new(vec![chain(1, "seq", &["n0", "n1", "n2"])]).unwrap();
    let mut fnv = Fnv::new();
    for i in 0..64 {
        let mut placement = Placement::default();
        for (k, nf) in ["n0", "n1", "n2"].into_iter().enumerate() {
            let at = pipelets[(i >> (4 - 2 * k)) & 3];
            placement.pipelets.entry(at).or_default().push(nf.into());
        }
        let (_, deployment) = deploy_markers(&chains, &placement).expect("placement deploys");
        fnv = fnv.synthesis(&deployment.synthesis);
    }
    assert_pinned("64 three-NF placements", fnv, 0xdb12_1fbb_dc1d_487d);
}

/// Every framework entry installed on a member, per pipelet and table in
/// a fixed order, each table's entries in install order — which is
/// synthesis order, since routing installs its entries one by one.
fn installed(fnv: &mut Fnv, switch: &Switch) {
    for pipelet in switch.loaded_pipelets() {
        let tables = switch.tables(pipelet).expect("a loaded pipelet has tables");
        let slots = (0..)
            .take_while(|&k| {
                switch
                    .program(pipelet)
                    .unwrap()
                    .tables
                    .contains_key(&names::check_next_nf(k))
            })
            .count();
        let mut framework: Vec<String> = (0..slots).map(names::check_next_nf).collect();
        framework.extend((0..slots).map(names::check_sfc_flags));
        framework.extend([names::BRANCHING.to_string(), names::DECAP.to_string()]);
        for table in framework {
            for entry in tables.entries(&table) {
                fnv.add(pipelet, &table, entry);
            }
        }
    }
}

#[test]
fn cluster_member_routing_is_pinned() {
    // Three members, six markers. Chain 1 crosses all three; chain 2 ends
    // on the middle member, whose exit is the forward link. Member 0's run
    // of chain 1 ends in an egress pass before a remote NF; the first two
    // members forward SFC-encapsulated (no decap), the last decapsulates.
    let names6: Vec<String> = (0..6).map(|i| format!("n{i}")).collect();
    let nfs: Vec<NfModule> = names6
        .iter()
        .enumerate()
        .map(|(i, n)| marker_nf(n, i as u32))
        .collect();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let chains = ChainSet::new(vec![
        chain(1, "long", &["n0", "n1", "n2", "n3", "n4", "n5"]),
        chain(2, "short", &["n1", "n3"]),
    ])
    .unwrap();
    let placement = ClusterPlacement {
        switches: vec![
            Placement::sequential(vec![
                (PipeletId::ingress(0), vec!["n0"]),
                (PipeletId::egress(0), vec!["n1"]),
            ]),
            Placement::sequential(vec![
                (PipeletId::egress(1), vec!["n2"]),
                (PipeletId::ingress(1), vec!["n3"]),
            ]),
            Placement::sequential(vec![
                (PipeletId::egress(1), vec!["n4"]),
                (PipeletId::egress(0), vec!["n5"]),
            ]),
        ],
    };
    let mut cluster = deploy_cluster(
        &refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        [(1, EXIT_PORT), (2, EXIT_PORT)].into(),
        &ClusterWiring::default(),
        &DeployOptions::default(),
    )
    .expect("the cluster deploys");
    let want = [
        0xefda_265f_9ec9_4dd7u64,
        0x0826_228b_9102_a9a3,
        0x8765_e8bd_b7d8_02c0,
    ];
    for (member, want) in want.into_iter().enumerate() {
        let mut fnv = Fnv::new();
        installed(&mut fnv, cluster.switch(member).expect("an inline member"));
        assert_pinned(&format!("cluster member {member}"), fnv, want);
    }
}

/// Every loaded pipelet of a switch, in order: its program without the
/// name, the allocation its deployment recorded and its snapshot label.
fn programs(
    fnv: &mut Fnv,
    switch: &Switch,
    allocations: &BTreeMap<PipeletId, impl std::fmt::Debug>,
) {
    for pipelet in switch.loaded_pipelets() {
        let p = switch
            .program(pipelet)
            .expect("a loaded pipelet has a program");
        let program = (
            (&p.header_types, &p.meta_fields, &p.parser, &p.actions),
            (&p.tables, &p.registers, &p.controls, &p.entry),
        );
        fnv.add(pipelet, "program", &program);
        fnv.add(pipelet, "allocation", &allocations[&pipelet]);
        let snapshot = switch.snapshot_state(pipelet).expect("a loaded pipelet");
        fnv.add(pipelet, "label", &snapshot.program);
    }
}

#[test]
fn fig2_pipelet_programs_are_pinned() {
    let (switch, deployment) = fig2_deployed();
    let mut fnv = Fnv::new();
    programs(&mut fnv, &switch, &deployment.allocations);
    assert_pinned("Fig. 2 optimum programs", fnv, 0x6454_0e3b_ffea_c307);
}

#[test]
fn replacement_fleet_pipelet_programs_are_pinned() {
    let fleet = replacement_fleet();
    let nfs = replacement_fleet_nfs();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let options = DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    };
    // The optimum as weighted, and with the weights inverted: the two
    // placements `migrate_live` alternates between.
    let search = ExhaustiveSearch::default();
    let placements = [
        search.search(&fleet).expect("the fleet has an optimum"),
        search
            .search(&fleet.with_weights(&[8.0, 1.0]))
            .expect("the shifted fleet has an optimum"),
    ];
    let mut got = Vec::new();
    for found in &placements {
        let mut cluster = deploy_cluster(
            &refs,
            fleet.chains(),
            &found.placement,
            &TofinoProfile::wedge_100b_32x(),
            [(1, EXIT_PORT), (2, EXIT_PORT)].into(),
            &ClusterWiring::default(),
            &options,
        )
        .expect("the fleet deploys");
        for member in 0..cluster.members() {
            let deployment = cluster.deployment(member).expect("an inline member");
            let allocations = deployment.allocations.clone();
            let switch = cluster.switch(member).expect("an inline member");
            let mut fnv = Fnv::new();
            programs(&mut fnv, switch, &allocations);
            got.push(format!("{:#018x}", fnv.0));
        }
    }
    // Member 2 hosts no NF under either placement.
    let want = [
        "0x286c90bc5d63d432",
        "0xbfa0191a1dbca806",
        "0x4516c189461d4f8d",
        "0x98118f7023a0803c",
        "0x3eaab812ba4f68c6",
        "0x4516c189461d4f8d",
    ];
    assert_eq!(got, want, "per member, both placements in order");
}
