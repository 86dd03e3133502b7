//! Shared fixtures for the cross-crate integration tests.
//!
//! The centerpiece is [`fig9_testbed`]: the paper's §5 prototype — the five
//! Fig. 2 NFs deployed on a Wedge-100B-like profile (2 pipelines, 4
//! pipelets), pipeline 1's Ethernet ports in loopback mode, so the switch
//! offers half its capacity externally and every packet may recirculate
//! once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dejavu_asic::{PipeletId, PortId, Switch, TofinoProfile};
use dejavu_core::deploy::{deploy, DeployOptions, Deployment};
use dejavu_core::placement::Placement;
use dejavu_core::routing::RoutingConfig;
use dejavu_core::{ChainSet, NfModule};
use dejavu_nf::{classifier, firewall, load_balancer, router, vgw};

/// Port where external traffic enters (pipeline 0).
pub const IN_PORT: PortId = 0;
/// Exit port for all chains (pipeline 0).
pub const EXIT_PORT: PortId = 2;
/// A loopback port on pipeline 1 (its whole bank is in loopback in §5; the
/// simulator only needs one for correctness).
pub const LOOPBACK_PORT_P1: PortId = 16;
/// A loopback port on pipeline 0 (for completeness; §5 routes all
/// recirculation through pipeline 1).
pub const LOOPBACK_PORT_P0: PortId = 15;

/// Per-path source prefixes the classifier steers (`10.<path>.0.0/16`).
pub fn src_prefix(path_id: u16) -> (u32, u16) {
    (0x0a00_0000 | (u32::from(path_id) << 16), 16)
}

/// The §5 prototype placement: classifier+firewall on ingress 0, VGW+LB on
/// egress 1, router on ingress 1; exit via egress 0. Every chain needs at
/// most one recirculation — matching the paper's "allow all the traffic
/// \[to\] recirculate on the ASIC for once".
pub fn fig9_placement() -> Placement {
    Placement::sequential(vec![
        (PipeletId::ingress(0), vec!["classifier", "firewall"]),
        (PipeletId::egress(1), vec!["vgw", "lb"]),
        (PipeletId::ingress(1), vec!["router"]),
    ])
}

/// Builds and deploys the §5 prototype; returns the live switch and the
/// deployment handle. Classifier/firewall/VGW/router rules are installed;
/// LB sessions are not (so the first packet of each flow punts, as in the
/// paper's §3.1 control-plane flow).
pub fn fig9_testbed() -> (Switch, Deployment) {
    let nfs: Vec<NfModule> = vec![
        classifier::classifier(),
        firewall::firewall(),
        vgw::vgw(),
        load_balancer::load_balancer(),
        router::router(),
    ];
    let nf_refs: Vec<&NfModule> = nfs.iter().collect();
    let chains = ChainSet::edge_cloud_example();

    let config = RoutingConfig {
        loopback_port: [(0usize, LOOPBACK_PORT_P0), (1usize, LOOPBACK_PORT_P1)]
            .into_iter()
            .collect(),
        exit_ports: chains
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
    let (mut switch, deployment) = deploy(
        &nf_refs,
        &chains,
        &fig9_placement(),
        &TofinoProfile::wedge_100b_32x(),
        &config,
        &options,
    )
    .expect("fig9 prototype deploys");

    install_baseline_rules(&mut switch, &deployment);
    (switch, deployment)
}

/// Installs classifier / vgw / router rules for the three chains. The
/// firewall gets one deny rule (TCP to port 22 on path 1's prefix) so the
/// deny path is testable; LB sessions are left to the tests.
pub fn install_baseline_rules(switch: &mut Switch, deployment: &Deployment) {
    let mut install = |nf: &str, table: &str, entry| {
        deployment
            .install(switch, nf, table, entry)
            .expect("rule installs");
    };
    // Classifier: one prefix per path.
    for path in [1u16, 2, 3] {
        install(
            "classifier",
            dejavu_nf::classifier::CLASSIFY_TABLE,
            dejavu_nf::classifier::classify_entry(src_prefix(path), (0, 0), path, 100 + path),
        );
    }
    // Firewall: deny TCP/22 from path 1's prefix.
    install(
        "firewall",
        dejavu_nf::firewall::ACL_TABLE,
        dejavu_nf::firewall::deny_entry(src_prefix(1), (0, 0), Some(6), (22, 22), 10),
    );
    // VGW: all of 198.51.100.0/24 is VNI 700.
    install(
        "vgw",
        dejavu_nf::vgw::VNI_TABLE,
        dejavu_nf::vgw::vni_entry((0xc633_6400, 24), 700),
    );
    // Router: default route out the exit port.
    install(
        "router",
        dejavu_nf::router::ROUTES_TABLE,
        dejavu_nf::router::route_entry((0, 0), EXIT_PORT, 0x0200_0000_0099, 0x0200_0000_0001),
    );
}

/// A marker NF for placement sweeps: XORs `1 << bit` into `ipv4.dscp`-free
/// territory (`src_addr`) so traversal is observable on the wire, and
/// otherwise conforms to the NF API.
pub fn marker_nf(name: &str, bit: u32) -> NfModule {
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::{fref, Expr};
    let p = ProgramBuilder::new(name)
        .header(dejavu_p4ir::well_known::ethernet())
        .header(dejavu_p4ir::well_known::ipv4())
        .header(dejavu_core::sfc::sfc_header_type())
        .parser(
            ParserBuilder::new()
                .node("eth", "ethernet", 0)
                .node("ip", "ipv4", 14)
                .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                .accept("ip")
                .start("eth"),
        )
        .action(
            ActionBuilder::new("mark")
                .set(
                    fref("ipv4", "src_addr"),
                    Expr::Xor(
                        Box::new(Expr::field("ipv4", "src_addr")),
                        Box::new(Expr::val(1u128 << bit, 32)),
                    ),
                )
                .build(),
        )
        .action(ActionBuilder::new("pass").build())
        .table(
            TableBuilder::new("work")
                .key_exact(fref("ipv4", "protocol"))
                .default_action("mark")
                .action("pass")
                .size(16)
                .build(),
        )
        .control(ControlBuilder::new("ctrl").apply("work").build())
        .entry("ctrl")
        .build()
        .expect("marker NF is well-formed");
    NfModule::new(p).expect("marker NF conforms to the API")
}

/// Builds an SFC-encapsulated TCP packet for `path_id` at service index
/// `index` (as if already classified) — used to drive chains that have no
/// classifier NF.
pub fn encapsulated_packet(path_id: u16, index: u8) -> Vec<u8> {
    let raw = dejavu_traffic::PacketBuilder::tcp()
        .src_ip(0x0a00_0001)
        .dst_ip(0x0a00_0002)
        .build();
    let mut sfc = dejavu_core::SfcHeader::for_path(path_id);
    sfc.service_index = index;
    let mut out = Vec::with_capacity(raw.len() + 20);
    out.extend_from_slice(&raw[..12]);
    out.extend_from_slice(&dejavu_core::sfc::SFC_ETHERTYPE.to_be_bytes());
    out.extend_from_slice(&sfc.to_bytes());
    out.extend_from_slice(&raw[14..]);
    out
}

/// Deploys marker NFs under an arbitrary placement with default loopback /
/// exit ports — the harness for placement-model-vs-switch sweeps.
pub fn deploy_markers(
    chains: &ChainSet,
    placement: &Placement,
) -> Result<(Switch, Deployment), dejavu_core::deploy::DeployError> {
    deploy_markers_with(chains, placement, DeployOptions::default())
}

/// [`deploy_markers`] with explicit deployment options (composition-mode
/// overrides etc.).
pub fn deploy_markers_with(
    chains: &ChainSet,
    placement: &Placement,
    options: DeployOptions,
) -> Result<(Switch, Deployment), dejavu_core::deploy::DeployError> {
    let names = chains.all_nfs();
    let nfs: Vec<NfModule> = names
        .iter()
        .enumerate()
        .map(|(i, n)| marker_nf(n, (i % 32) as u32))
        .collect();
    let nf_refs: Vec<&NfModule> = nfs.iter().collect();
    let config = RoutingConfig {
        loopback_port: [(0usize, LOOPBACK_PORT_P0), (1usize, LOOPBACK_PORT_P1)]
            .into_iter()
            .collect(),
        exit_ports: chains
            .chains
            .iter()
            .map(|c| (c.path_id, EXIT_PORT))
            .collect(),
        honor_out_port: false,
    };
    deploy(
        &nf_refs,
        chains,
        placement,
        &TofinoProfile::wedge_100b_32x(),
        &config,
        &options,
    )
}

/// A TCP packet of `path`'s prefix toward the VIP-ish destination.
pub fn chain_packet(path: u16, dst_ip: u32, dst_port: u16) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::tcp()
        .src_ip(src_prefix(path).0 | 0x0101)
        .dst_ip(dst_ip)
        .src_port(40000 + path)
        .dst_port(dst_port)
        .build()
}

/// The one table of a [`sweep_program`] pipelet.
pub const SWEEP_TABLE: &str = "sweep";

/// `acl_4k`'s ruleset seed: the rules of a [`SweepKey::Acl`] testbed.
pub const ACL_SEED: u64 = 0xac1;

/// Key shape of the one-table sweep pipelet: the workloads the index
/// selection tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKey {
    /// `ethernet.dst_mac`, exact; entry `i` is MAC `i`.
    Exact,
    /// `ipv4.dst_addr`, longest prefix; entry `i` is the /24 at
    /// `10.0.0.0 + (i << 8)`.
    Lpm,
    /// `ipv4.dst_addr`, ternary under a /24 mask: the prefixes of `Lpm`.
    Ternary,
    /// Source × destination address, both ternary (the shape of
    /// `acl_4k`'s table); the rules are `acl_ruleset(n, ACL_SEED)`.
    Acl,
}

/// Ethernet → IPv4, then one ingress table of `key`'s shape holding up to
/// `capacity` entries: `fwd(port)` on a hit, `deny` on a miss.
pub fn sweep_program(key: SweepKey, capacity: u32) -> dejavu_p4ir::Program {
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::{fref, well_known, Expr, FieldRef};
    let table = TableBuilder::new(SWEEP_TABLE);
    let table = match key {
        SweepKey::Exact => table.key_exact(fref("ethernet", "dst_mac")),
        SweepKey::Lpm => table.key_lpm(fref("ipv4", "dst_addr")),
        SweepKey::Ternary => table.key_ternary(fref("ipv4", "dst_addr")),
        SweepKey::Acl => table
            .key_ternary(fref("ipv4", "src_addr"))
            .key_ternary(fref("ipv4", "dst_addr")),
    };
    ProgramBuilder::new("sweep")
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
            table
                .action("fwd")
                .default_action("deny")
                .size(capacity)
                .build(),
        )
        .control(ControlBuilder::new("ingress").apply(SWEEP_TABLE).build())
        .entry("ingress")
        .build()
        .expect("sweep program validates")
}

/// A switch running [`sweep_program`] on ingress pipelet 0 with `n`
/// entries installed one at a time under `Auto`, and up to 256 packets
/// spread evenly over those entries, each a hit that forwards to
/// [`EXIT_PORT`].
pub fn sweep_testbed(key: SweepKey, n: usize) -> (Switch, Vec<Vec<u8>>) {
    use dejavu_p4ir::table::{KeyMatch, TableEntry};
    use dejavu_p4ir::Value;
    let pid = PipeletId::ingress(0);
    let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
    sw.load_program(pid, sweep_program(key, 2 * n.max(1024) as u32))
        .expect("sweep program loads");
    let fwd = vec![Value::new(u128::from(EXIT_PORT), 16)];
    let rules = match key {
        SweepKey::Acl => dejavu_traffic::acl_ruleset(n, ACL_SEED),
        _ => Vec::new(),
    };
    let prefix = |i: usize| 0x0a00_0000 | ((i as u32) << 8);
    let single = |m| TableEntry {
        matches: vec![m],
        action: "fwd".into(),
        action_args: fwd.clone(),
        priority: 0,
    };
    let entry = |i: usize| match key {
        SweepKey::Exact => single(KeyMatch::Exact(Value::new(i as u128, 48))),
        SweepKey::Lpm => single(KeyMatch::Lpm(Value::new(prefix(i).into(), 32), 24)),
        SweepKey::Ternary => single(KeyMatch::Ternary(
            Value::new(prefix(i).into(), 32),
            Value::new(0xffff_ff00, 32),
        )),
        SweepKey::Acl => acl_entry(&rules[i], "fwd", fwd.clone()),
    };
    for i in 0..n {
        sw.install_entry(pid, SWEEP_TABLE, entry(i))
            .expect("sweep entry installs");
    }
    let pool = n.min(256);
    let packets = (0..pool)
        .map(|k| {
            let i = k * n / pool;
            let (src, dst) = match key {
                SweepKey::Acl => dejavu_traffic::matching_flow(&rules[i], i as u64),
                _ => (0x0a00_0001, prefix(i) | 1),
            };
            let mut p = dejavu_traffic::PacketBuilder::udp()
                .src_ip(src)
                .dst_ip(dst)
                .src_port(1000)
                .dst_port(53)
                .payload(&[0u8; 18])
                .build();
            if key == SweepKey::Exact {
                p[..6].copy_from_slice(&(i as u64).to_be_bytes()[2..]);
            }
            p
        })
        .collect();
    (sw, packets)
}

/// `rule` as an entry of a table keyed on source × destination address,
/// both ternary (the shape of `acl_4k`'s table), running `action(args)`.
pub fn acl_entry(
    rule: &dejavu_traffic::AclRule,
    action: &str,
    args: Vec<dejavu_p4ir::Value>,
) -> dejavu_p4ir::table::TableEntry {
    use dejavu_p4ir::table::KeyMatch;
    use dejavu_p4ir::Value;
    let ternary = |val: u32, mask: u32| {
        KeyMatch::Ternary(
            Value::new(u128::from(val), 32),
            Value::new(u128::from(mask), 32),
        )
    };
    dejavu_p4ir::table::TableEntry {
        matches: vec![
            ternary(rule.src_val, rule.src_mask),
            ternary(rule.dst_val, rule.dst_mask),
        ],
        action: action.to_string(),
        action_args: args,
        priority: rule.priority,
    }
}
