//! Recirculation study: interactive exploration of the §4 models.
//!
//! ```text
//! cargo run -p dejavu-examples --bin recirculation_study -- [loopback_ports]
//! ```
//!
//! For a given number of loopback ports (default 16, the §5 configuration)
//! prints the capacity split, the per-k throughput table, and latency
//! figures from the calibrated timing model, then replays packet batches
//! through the compiled fast path and — with telemetry enabled — compares
//! the *measured* recirculation-depth distribution against the analytic
//! delivery-ratio model ([`dejavu_asic::feedback::delivery_ratio`]).
//! The full metrics snapshot is exported to
//! `target/experiments/TELEMETRY_snapshot.json` and re-parsed with the
//! crate's own JSON parser as a self-check.

use dejavu_asic::feedback::{
    delivery_ratio, effective_throughput_gbps, simulate_fluid, solve_mix, TrafficClass,
};
use dejavu_core::prelude::*;
use dejavu_p4ir::builder::*;
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::well_known;
use dejavu_p4ir::{fref, Expr, FieldRef, Value};
use std::time::Instant;

/// Packets per recirculation depth in the measured study.
const PACKETS_PER_K: usize = 2_000;
/// Deepest exactly-k chain the study drives.
const MAX_K: usize = 4;
/// Loopback port feeding the recirculation chain (pipeline 1).
const LOOP_PORT: PortId = 16;
/// Front-panel port the study emits finished packets on.
const OUT_PORT: PortId = 2;

/// L2 forward-by-dst-MAC program used by the packet-rate section.
fn l2_program() -> dejavu_p4ir::Program {
    ProgramBuilder::new("l2")
        .header(well_known::ethernet())
        .parser(
            ParserBuilder::new()
                .node("eth", "ethernet", 0)
                .accept("eth")
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
            TableBuilder::new("l2")
                .key_exact(fref("ethernet", "dst_mac"))
                .action("fwd")
                .default_action("deny")
                .build(),
        )
        .control(ControlBuilder::new("ingress").apply("l2").build())
        .entry("ingress")
        .build()
        .expect("l2 program validates")
}

/// Hop-counter program: `ether_type` carries the number of recirculations
/// still owed. Non-zero → decrement and bounce off the loopback port;
/// zero → emit on the front-panel port. One table entry per depth gives
/// exactly-k recirculation paths, the packet analogue of the §4 fluid
/// classes.
fn hop_program() -> dejavu_p4ir::Program {
    ProgramBuilder::new("hop")
        .header(well_known::ethernet())
        .parser(
            ParserBuilder::new()
                .node("eth", "ethernet", 0)
                .accept("eth")
                .start("eth"),
        )
        .action(
            ActionBuilder::new("hop")
                .param("port", 16)
                .set(
                    fref("ethernet", "ether_type"),
                    Expr::Sub(
                        Box::new(Expr::field("ethernet", "ether_type")),
                        Box::new(Expr::val(1, 16)),
                    ),
                )
                .set(FieldRef::meta("egress_spec"), Expr::Param("port".into()))
                .build(),
        )
        .action(
            ActionBuilder::new("out")
                .param("port", 16)
                .set(FieldRef::meta("egress_spec"), Expr::Param("port".into()))
                .build(),
        )
        .action(ActionBuilder::new("deny").drop_packet().build())
        .table(
            TableBuilder::new("hop")
                .key_exact(fref("ethernet", "ether_type"))
                .action("hop")
                .action("out")
                .default_action("deny")
                .build(),
        )
        .control(ControlBuilder::new("ingress").apply("hop").build())
        .entry("ingress")
        .build()
        .expect("hop program validates")
}

fn eth_packet(dst: u64, ether_type: u16) -> Vec<u8> {
    let mut p = vec![0u8; 64];
    p[..6].copy_from_slice(&dst.to_be_bytes()[2..]);
    p[12..14].copy_from_slice(&ether_type.to_be_bytes());
    p
}

fn install_hop_entries(sw: &mut Switch, pipelet: PipeletId) {
    // 0 recirculations owed → out the front-panel port.
    sw.install_entry(
        pipelet,
        "hop",
        TableEntry {
            matches: vec![KeyMatch::Exact(Value::new(0, 16))],
            action: "out".into(),
            action_args: vec![Value::new(u128::from(OUT_PORT), 16)],
            priority: 0,
        },
    )
    .expect("out entry installs");
    for k in 1..=MAX_K as u128 {
        sw.install_entry(
            pipelet,
            "hop",
            TableEntry {
                matches: vec![KeyMatch::Exact(Value::new(k, 16))],
                action: "hop".into(),
                action_args: vec![Value::new(u128::from(LOOP_PORT), 16)],
                priority: 0,
            },
        )
        .expect("hop entry installs");
    }
}

fn install_fwd(sw: &mut Switch, pipelet: PipeletId, dst: u64, port: u16) {
    sw.install_entry(
        pipelet,
        "l2",
        TableEntry {
            matches: vec![KeyMatch::Exact(Value::new(u128::from(dst), 48))],
            action: "fwd".into(),
            action_args: vec![Value::new(u128::from(port), 16)],
            priority: 0,
        },
    )
    .expect("entry installs");
}

/// Injects `count` copies of `packet` on port 0 through the in-place path
/// ([`Switch::inject_buf`]), each of which must be emitted. Returns the
/// recirculations and the summed model latency.
fn inject_copies(sw: &mut Switch, packet: &[u8], count: usize) -> (usize, f64) {
    let (mut recirculations, mut latency_ns) = (0, 0.0);
    let mut buf = Vec::with_capacity(packet.len());
    for _ in 0..count {
        buf.clear();
        buf.extend_from_slice(packet);
        let out = sw.inject_buf(&mut buf, 0).expect("port 0 takes traffic");
        assert_eq!(out.disposition, Disposition::Emitted { port: OUT_PORT });
        recirculations += out.recirculations;
        latency_ns += out.latency_ns;
    }
    (recirculations, latency_ns)
}

/// Replays packets through the compiled fast path ([`Switch::inject_buf`])
/// and prints measured packets/sec at k = 0 and k = 1 recirculations.
fn replay_fast_path() {
    // MAC 1 goes straight out (k=0); MAC 2 takes loopback port 16 into
    // pipeline 1, whose ingress then forwards it out (k=1).
    let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
    sw.load_program(PipeletId::ingress(0), l2_program())
        .expect("program loads");
    sw.load_program(PipeletId::ingress(1), l2_program())
        .expect("program loads");
    sw.set_loopback(16, true).expect("port 16 exists");
    install_fwd(&mut sw, PipeletId::ingress(0), 1, 2);
    install_fwd(&mut sw, PipeletId::ingress(0), 2, 16);
    install_fwd(&mut sw, PipeletId::ingress(1), 2, 2);

    println!("\nmeasured fast-path packet rate (in-place injection, traces off):");
    const PACKETS: usize = 20_000;
    for (label, dst, expect_recircs) in [("k=0 direct", 1u64, 0usize), ("k=1 loopback", 2, 1)] {
        let start = Instant::now();
        let (recirculations, latency_ns) = inject_copies(&mut sw, &eth_packet(dst, 0), PACKETS);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(recirculations, expect_recircs * PACKETS);
        println!(
            "  {label}: {:>10.0} pps ({PACKETS} packets, {recirculations} recirculations, avg model latency {:.0} ns)",
            PACKETS as f64 / elapsed,
            latency_ns / PACKETS as f64,
        );
    }
}

/// Drives exactly-k recirculation chains with telemetry on, prints the
/// measured depth distribution next to the analytic delivery-ratio model,
/// exports the snapshot as JSON, and re-parses it as a self-check.
fn telemetry_study() {
    let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
    sw.set_trace_level(TraceLevel::Off);
    sw.set_telemetry(true);
    sw.load_program(PipeletId::ingress(0), hop_program())
        .expect("program loads");
    sw.load_program(PipeletId::ingress(1), hop_program())
        .expect("program loads");
    sw.set_loopback(LOOP_PORT, true).expect("loop port exists");
    install_hop_entries(&mut sw, PipeletId::ingress(0));
    install_hop_entries(&mut sw, PipeletId::ingress(1));

    // Per-depth measured latency via snapshot diffs around each depth's run.
    let mut per_k = Vec::new();
    for k in 0..=MAX_K {
        let before = sw.metrics_snapshot();
        let (recirculations, _) = inject_copies(&mut sw, &eth_packet(1, k as u16), PACKETS_PER_K);
        assert_eq!(recirculations, k * PACKETS_PER_K);
        per_k.push(sw.metrics_snapshot().diff(&before));
    }

    let snap = sw.metrics_snapshot();
    let injected = snap.counter("packets_injected");
    println!(
        "\nmeasured recirculation-depth distribution vs §4 model \
         ({PACKETS_PER_K} packets per depth, telemetry on):"
    );
    println!(
        "  {:>3} {:>9} {:>7} {:>10} {:>14} {:>13}",
        "k", "packets", "share", "rho(k)", "model rho(k)^k", "mean lat ns"
    );
    for (k, delta) in per_k.iter().enumerate() {
        let depth = snap.counter(&format!("packet_recirc_depth{{k=\"{k}\"}}"));
        assert_eq!(depth as usize, PACKETS_PER_K, "measured depth {k} count");
        let rho = delivery_ratio(k);
        let mean_lat = delta
            .histogram("packet_latency_ns")
            .map(|h| h.mean())
            .unwrap_or(0.0);
        println!(
            "  {k:>3} {depth:>9} {:>7.3} {rho:>10.3} {:>14.3} {mean_lat:>13.0}",
            depth as f64 / injected as f64,
            rho.powi(k as i32),
        );
    }
    println!(
        "  (model: rho(k) solves the §4 fixed point; rho(k)^k is the per-packet \
         delivery probability at depth k under loopback contention — the \
         simulator is uncontended, so every measured packet delivers)"
    );
    let recirc_total: u64 = (0..sw.profile().pipelines)
        .map(|p| snap.counter(&format!("recirculations{{pipeline=\"{p}\"}}")))
        .sum();
    println!(
        "  totals: {injected} injected, {} emitted, {recirc_total} recirculations, \
         feedback-queue delivery ratio {:.3}",
        snap.counter("packets_emitted"),
        snap.counter("packets_emitted") as f64 / injected as f64,
    );

    // Export the snapshot once its key series are checked.
    for key in [
        "packets_injected",
        "packets_emitted",
        "packet_recirc_depth{k=\"1\"}",
        "packet_recirc_depth{k=\"4\"}",
    ] {
        assert!(snap.counter(key) > 0, "snapshot key {key} present");
    }
    assert_eq!(snap.counter("packets_injected"), injected);
    assert!(
        snap.histogram("packet_latency_ns").is_some(),
        "latency histogram present"
    );
    let json = to_json_string(&snap);
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir).expect("experiments dir");
    let path = dir.join("TELEMETRY_snapshot.json");
    std::fs::write(&path, &json).expect("snapshot written");
    println!(
        "  snapshot: {} series -> {} ({} bytes)",
        snap.metrics.len(),
        path.display(),
        json.len()
    );
}

fn main() {
    let m: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let profile = TofinoProfile::wedge_100b_32x();
    assert!(
        m <= profile.total_ports(),
        "at most {} ports",
        profile.total_ports()
    );

    println!(
        "switch: {} ports × {:.0}G, {} pipelines",
        profile.total_ports(),
        profile.port_gbps,
        profile.pipelines
    );
    println!("loopback ports: {m}");
    println!(
        "external capacity: {:.0} Gbps",
        profile.external_capacity_gbps(m)
    );
    println!(
        "fraction of external traffic that can recirculate once: {:.0} %",
        profile.single_recirc_fraction(m) * 100.0
    );

    println!("\nthroughput vs recirculations (one 100G port + its loopback peer):");
    println!("  {:>3} {:>12} {:>12}", "k", "analytic", "fluid sim");
    for k in 0..=5 {
        println!(
            "  {k:>3} {:>10.2} G {:>10.2} G",
            effective_throughput_gbps(100.0, k),
            simulate_fluid(100.0, k, 4000)
        );
    }

    // A mixed workload over the pooled loopback capacity.
    let loop_cap =
        m as f64 * profile.port_gbps + profile.dedicated_recirc_gbps * profile.pipelines as f64;
    let external = profile.external_capacity_gbps(m);
    let mix = solve_mix(
        &[
            TrafficClass {
                rate_gbps: external * 0.5,
                recirculations: 0,
            },
            TrafficClass {
                rate_gbps: external * 0.3,
                recirculations: 1,
            },
            TrafficClass {
                rate_gbps: external * 0.2,
                recirculations: 2,
            },
        ],
        loop_cap.max(1.0),
    );
    println!("\nmixed workload (50% k=0 / 30% k=1 / 20% k=2) over {loop_cap:.0}G loopback:");
    println!(
        "  delivery ratio at the loopback ports: {:.3}",
        mix.delivery_ratio
    );
    for (i, thr) in mix.class_throughput_gbps.iter().enumerate() {
        println!("  class {i}: {thr:.1} Gbps delivered");
    }
    println!(
        "  total goodput: {:.1} Gbps of {external:.0} offered",
        mix.total_gbps()
    );

    let t = TimingModel::tofino();
    println!("\nlatency (calibrated to the paper's measurements):");
    for k in 0..=3 {
        println!(
            "  {k} recirculations: {:.0} ns",
            t.path_with_recircs_ns(12, k)
        );
    }
    println!(
        "  off-chip hop penalty (1 m DAC): {:.0} ns",
        t.recirc_off_chip_ns
    );

    replay_fast_path();
    telemetry_study();
}
