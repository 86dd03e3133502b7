//! Multi-switch chaining (§7): place a chain too large for one ASIC across
//! a back-to-back cluster.
//!
//! ```text
//! cargo run -p dejavu-examples --bin multi_switch -- [chain_length] [cluster_size]
//! ```
//!
//! Defaults: a 14-NF chain over 3 switches. Prints the spill placement,
//! the hop/recirculation breakdown, and the latency estimate using the
//! on-chip (≈75 ns) vs off-chip (≈145 ns) costs of Fig. 8(b).

use dejavu_core::placement::FleetProblem;
use dejavu_core::prelude::*;
use std::collections::BTreeMap;

/// Marker NF (same shape as the integration fixtures').
fn dejavu_integration_marker(name: &str, bit: u32) -> dejavu_core::NfModule {
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
                        Box::new(Expr::val(1u128 << (bit % 32), 32)),
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
        .unwrap();
    dejavu_core::NfModule::new(p).unwrap()
}

/// An SFC-encapsulated TCP packet for `path` at index 0.
fn encapsulated(path: u16) -> Vec<u8> {
    let raw = dejavu_traffic::PacketBuilder::tcp().build();
    let sfc = dejavu_core::SfcHeader::for_path(path);
    let mut out = Vec::new();
    out.extend_from_slice(&raw[..12]);
    out.extend_from_slice(&dejavu_core::sfc::SFC_ETHERTYPE.to_be_bytes());
    out.extend_from_slice(&sfc.to_bytes());
    out.extend_from_slice(&raw[14..]);
    out
}

fn main() {
    let chain_len: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(14);
    let cluster_size: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);

    let nfs: Vec<String> = (0..chain_len).map(|i| format!("NF{i}")).collect();
    let chains = ChainSet::new(vec![ChainPolicy {
        path_id: 1,
        name: "long-chain".into(),
        nfs: nfs.clone(),
        weight: 1.0,
    }])
    .unwrap();
    let stages: BTreeMap<String, u32> = nfs.iter().map(|n| (n.clone(), 3u32)).collect();
    let template = PlacementProblem::new(chains, stages);
    let problem = ClusterProblem::new(template, cluster_size);

    println!("chain of {chain_len} NFs (3 stages each) over {cluster_size} back-to-back switches");
    match problem.greedy_spill() {
        Ok(placement) => {
            for (i, sw) in placement.switches.iter().enumerate() {
                if sw.pipelets.values().any(|v| !v.is_empty()) {
                    println!("\nswitch {i}:");
                    print!("{sw}");
                }
            }
            let cost = problem
                .chain_cost(&problem.template.chains.chains[0], &placement)
                .unwrap();
            println!("\ninter-switch hops: {}", cost.inter_switch_hops);
            println!("on-chip recirculations: {}", cost.recirculations);
            println!("resubmissions: {}", cost.resubmissions);
            let used = placement
                .switches
                .iter()
                .filter(|p| p.pipelets.values().any(|v| !v.is_empty()))
                .count();
            let timing = TimingModel::tofino();
            let passes = (2 * used) as u32 + 2 * cost.recirculations + 2 * cost.inter_switch_hops;
            println!(
                "estimated end-to-end latency: {:.0} ns",
                chain_latency_ns(&cost, passes, 12, &timing)
            );
            // The cluster objective is the fleet objective without its
            // stage-pressure term.
            let fleet = FleetProblem {
                cluster: problem.clone(),
                pressure_weight: 0.0,
            };
            println!(
                "objective (recirc-equivalents, off-chip hop = {:.1}x): {:.2}",
                problem.hop_weight,
                fleet.score(&placement).unwrap().weighted
            );

            // Now run it for real: deploy the cluster with marker NFs and
            // drive a packet through every switch.
            let nf_names: Vec<String> = (0..chain_len).map(|i| format!("NF{i}")).collect();
            let nfs: Vec<_> = nf_names
                .iter()
                .enumerate()
                .map(|(i, n)| dejavu_integration_marker(n, i as u32))
                .collect();
            let refs: Vec<_> = nfs.iter().collect();
            let mut net = deploy_cluster(
                &refs,
                &problem.template.chains,
                &placement,
                &dejavu_asic::TofinoProfile::wedge_100b_32x(),
                [(1u16, 2u16)].into_iter().collect(),
                &ClusterWiring::default(),
                &DeployOptions::default(),
            )
            .expect("cluster deploys");
            let pkt = encapsulated(1);
            let t = net.inject(InjectedPacket::new(pkt, 0)).expect("injection");
            println!("\nlive run: {:?}", t.disposition);
            println!(
                "  switches visited: {:?}, wire hops: {}, recirculations: {}, latency {:.0} ns",
                t.hops.iter().map(|h| h.switch).collect::<Vec<_>>(),
                t.inter_switch_hops,
                t.recirculations,
                t.latency_ns
            );
        }
        Err(e) => {
            println!("infeasible: {e}");
            println!(
                "try a larger cluster: cargo run --bin multi_switch -- {chain_len} {}",
                cluster_size + 1
            );
        }
    }
}
