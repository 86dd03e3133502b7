//! Cluster runtime demo: a 9-NF chain spilled across three switches, each
//! running as a real worker thread behind a framed TCP socket on localhost
//! (§7: back-to-back ASICs as one big pipeline).
//!
//! ```text
//! cargo run -p dejavu-examples --bin cluster_demo
//! ```
//!
//! Packets are injected through the synchronous facade; each one crosses
//! the cluster carrying its own in-band flight record, and the controller
//! scrapes and merges every member's telemetry at the end. Exits non-zero
//! if any flight misbehaves, so CI can gate on it.

use dejavu_core::prelude::*;
use std::collections::BTreeMap;

/// Marker NF (same shape as the integration fixtures').
fn marker(name: &str, bit: u32) -> dejavu_core::NfModule {
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

/// An SFC-encapsulated TCP packet for `path` at service index `idx`.
fn encapsulated(path: u16, idx: u8) -> Vec<u8> {
    let raw = dejavu_traffic::PacketBuilder::tcp().build();
    let mut sfc = SfcHeader::for_path(path);
    sfc.service_index = idx;
    let mut out = Vec::with_capacity(raw.len() + 20);
    out.extend_from_slice(&raw[..12]);
    out.extend_from_slice(&SFC_ETHERTYPE.to_be_bytes());
    out.extend_from_slice(&sfc.to_bytes());
    out.extend_from_slice(&raw[14..]);
    out
}

const EXIT_PORT: u16 = 2;
const IN_PORT: u16 = 0;

/// Per member, how often an NF `work` table has been applied (hits plus
/// misses), from the members' scraped telemetry.
fn work_applied(cluster: &mut ClusterHandle) -> Vec<u64> {
    let scrape = cluster.metrics_snapshot().expect("metrics scrape");
    scrape
        .per_switch
        .iter()
        .map(|snap| {
            snap.metrics
                .iter()
                .filter(|(name, _)| {
                    (name.starts_with("table_hits{") || name.starts_with("table_misses{"))
                        && name.ends_with("__work\"}")
                })
                .filter_map(|(_, v)| v.as_counter())
                .sum()
        })
        .collect()
}

fn main() {
    // A chain of nine NFs: too many MAU stages for one ASIC, so spill it
    // three-per-switch across a three-member cluster.
    let names: Vec<String> = (0..9).map(|i| format!("fw{i}")).collect();
    let nfs: Vec<NfModule> = names
        .iter()
        .enumerate()
        .map(|(i, n)| marker(n, i as u32))
        .collect();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let chains = ChainSet::new(vec![ChainPolicy {
        path_id: 1,
        name: "spilled".into(),
        nfs: names.clone(),
        weight: 1.0,
    }])
    .unwrap();
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

    // Real worker threads talking framed TCP over localhost.
    let mut transport = TcpTransport::new();
    let exit_ports: BTreeMap<u16, PortId> = [(1u16, EXIT_PORT)].into_iter().collect();
    let mut cluster = spawn_cluster(
        &refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        exit_ports,
        &ClusterWiring::default(),
        &DeployOptions::default(),
        &mut transport,
        &ClusterOptions {
            telemetry: true,
            ..Default::default()
        },
    )
    .expect("cluster spawns");
    println!(
        "cluster up: {} workers over {} transport",
        cluster.members(),
        cluster.transport_kind()
    );
    for nf in &names {
        print!("  {nf}→sw{} ", cluster.switch_of(nf).unwrap());
    }
    println!();

    // Drive a few flights: a full-chain packet plus mid-chain entries.
    // Every packet transits all three members, but a mid-chain entry does
    // NF work only from its service index onward — earlier switches just
    // forward it over the wire.
    // Which members did NF work is their own telemetry, not the packet's:
    // a hop record is fixed-size.
    let mut ok = true;
    for (label, idx, working_switches) in [
        ("full chain   ", 0u8, 3usize),
        ("enter at fw3 ", 3, 2),
        ("enter at fw6 ", 6, 1),
    ] {
        let before = work_applied(&mut cluster);
        let t = cluster
            .inject(InjectedPacket::new(encapsulated(1, idx), IN_PORT))
            .expect("flight completes");
        let visited: Vec<String> = t.hops.iter().map(|h| format!("sw{}", h.switch)).collect();
        let worked = work_applied(&mut cluster)
            .iter()
            .zip(before)
            .filter(|(after, before)| **after > *before)
            .count();
        println!(
            "{label} {:>7.1} ns  {} wire hop(s)  via [{}]  work on {worked} member(s)  {:?}",
            t.latency_ns,
            t.inter_switch_hops,
            visited.join(" → "),
            t.disposition,
        );
        ok &= t.disposition == dejavu_asic::switch::Disposition::Emitted { port: EXIT_PORT };
        ok &= t.hops.len() == 3 && worked == working_switches;
    }

    // Merged telemetry: one scrape fans out to every worker and folds the
    // snapshots into a single cluster-wide view.
    let scrape = cluster.metrics_snapshot().expect("metrics scrape");
    println!(
        "telemetry: cluster saw {} packets ({} per-member snapshots merged)",
        scrape.merged.counter("packets_injected"),
        scrape.per_switch.len()
    );
    for (i, snap) in scrape.per_switch.iter().enumerate() {
        println!(
            "  sw{i}: injected={} emitted={}",
            snap.counter("packets_injected"),
            snap.counter("packets_emitted"),
        );
    }
    ok &= scrape.merged.counter("packets_injected") >= 3;

    cluster.shutdown().expect("clean shutdown");
    if !ok {
        eprintln!("cluster_demo: unexpected flight results");
        std::process::exit(1);
    }
    println!("cluster_demo OK");
}
