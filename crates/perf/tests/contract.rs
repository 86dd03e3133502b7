//! The benchmark's contract with its driver and with its own baseline:
//! `BENCHMARK.json` states what the crate's spec states, inputs are a pure
//! function of the seed, and a 50 ms smoke of every workload fails nothing
//! and reproduces the exact figures of the committed baseline.

use dejavu_asic::telemetry::parse_json;
use dejavu_perf::harness::{Meter, Outcome, RunCfg, Scale};
use dejavu_perf::host::Kernel;
use dejavu_perf::ledger::EXACT;
use dejavu_perf::report::{as_f64, as_str, driver_line, get, Emit};
use dejavu_perf::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use dejavu_perf::workloads::{
    self, acl, cluster_tcp, fwd_min, learn_churn, migrate_live, plan_deploy, sfc_edge,
};
use serde::json::Value;
use std::collections::BTreeSet;
use std::path::Path;

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn array<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    match get(v, key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

fn string<'v>(v: &'v Value, key: &str) -> &'v str {
    get(v, key)
        .and_then(as_str)
        .unwrap_or_else(|| panic!("{key}: expected a string"))
}

#[test]
fn benchmark_json_states_the_spec() {
    let doc = parse_json(&repo_file("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let Value::Object(fields) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ],
        "exactly the driver's keys"
    );

    let command: Vec<&str> = array(&doc, "command").iter().filter_map(as_str).collect();
    assert_eq!(command, ["bash", "crates/perf/run.sh"]);
    let paths: Vec<&str> = array(&doc, "paths").iter().filter_map(as_str).collect();
    assert_eq!(paths, ["crates/perf"]);
    let run_seconds = get(&doc, "run_seconds")
        .and_then(as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    assert_eq!(
        run_seconds,
        RunCfg::full(1).measure_s,
        "run.sh's own full run measures as long as the driver's"
    );

    let workloads = array(&doc, "workloads");
    let gated: Vec<_> = WORKLOADS.iter().filter(|w| w.gated).collect();
    assert_eq!(workloads.len(), gated.len());
    assert!((2..=8).contains(&gated.len()));
    for (w, s) in workloads.iter().zip(gated) {
        assert_eq!(string(w, "name"), s.name);
        assert_eq!(string(w, "why"), s.why);
        assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
    }

    let e2e = array(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, s) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(string(m, "name"), s.name);
        assert_eq!(string(m, "unit"), s.unit);
        assert_eq!(
            string(m, "better") == "lower",
            s.lower_is_better,
            "{}",
            s.name
        );
        assert_eq!(
            get(m, "bound").and_then(as_f64),
            Some(s.bound),
            "{}",
            s.name
        );
        assert!(s.bound > 0.0 && s.bound <= 0.25, "{}", s.name);
    }
    let setup = spec::end_to_end("setup_s").expect("setup_s is required");
    assert!(setup.unit == "s" && setup.lower_is_better);
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layers = array(&doc, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (m, s) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(string(m, "name"), s.name);
        assert_eq!(string(m, "unit"), s.unit);
        assert_eq!(
            string(m, "better") == "lower",
            s.lower_is_better,
            "{}",
            s.name
        );
        assert!(
            get(m, "bound").is_none(),
            "{}: per-layer metrics have no bound",
            s.name
        );
    }
}

#[test]
fn names_obey_the_naming_rule_and_are_used_once() {
    let mut seen = BTreeSet::new();
    for name in WORKLOADS.iter().map(|w| w.name) {
        assert!(spec::valid_name(name), "{name}");
        assert!(seen.insert(name), "{name} used twice");
    }
    let mut seen = BTreeSet::new();
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(spec::valid_name(m.name), "{}", m.name);
        assert!(spec::valid_unit(m.unit), "{}: unit {}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} used twice", m.name);
    }
    for e in EXACT {
        assert!(spec::per_layer(e).is_some(), "{e}");
    }
    assert!(!spec::valid_name("-x") && !spec::valid_name("a b") && !spec::valid_name(""));
    assert!(!spec::valid_name(&"x".repeat(65)) && spec::valid_name(&"x".repeat(64)));
    assert!(!spec::valid_unit("") && !spec::valid_unit("µs") && spec::valid_unit("1/s"));
}

/// Every byte a workload's library sees, for one seed.
fn inputs(seed: u64) -> Vec<Vec<u8>> {
    let rules = dejavu_traffic::acl_ruleset(acl::rules_for(Scale::Smoke), acl::RULESET_SEED);
    let flows = sfc_edge::flows(sfc_edge::flows_for(Scale::Smoke), seed);
    let cat = |packets: Vec<dejavu_asic::InjectedPacket>| {
        packets.into_iter().flat_map(|p| p.bytes).collect()
    };
    let fleets = plan_deploy::fleet_instances(seed, 12, 3);
    vec![
        fwd_min::schedule(seed).wire_bytes(),
        acl::schedule(&rules, seed).wire_bytes(),
        sfc_edge::schedule(&flows, seed).wire_bytes(),
        learn_churn::Traffic::new(seed).wire_bytes(12),
        cat(cluster_tcp::flows(32, seed)),
        cat(migrate_live::flows(16, seed)
            .iter()
            .map(migrate_live::Flow::outbound)
            .collect()),
        format!(
            "{:?}",
            fleets
                .iter()
                .map(|f| f.chains().clone())
                .collect::<Vec<_>>()
        )
        .into_bytes(),
    ]
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    let (a, again, b) = (inputs(1), inputs(1), inputs(2));
    assert_eq!(a.len(), WORKLOADS.len());
    for (i, w) in WORKLOADS.iter().enumerate() {
        assert!(!a[i].is_empty(), "{}: no input generated", w.name);
        assert_eq!(a[i], again[i], "{}: seed 1 is not reproducible", w.name);
        assert_ne!(a[i], b[i], "{}: seeds 1 and 2 give the same input", w.name);
    }
}

fn smoke(name: &str) -> Outcome {
    let kernel = Kernel::new();
    let mut cfg = RunCfg::smoke(1);
    cfg.trace_s = 0.05;
    let mut meter = Meter::new(cfg, &kernel);
    assert!(workloads::run(name, &mut meter), "{name} is not a workload");
    meter.finish()
}

/// The first line of `history.jsonl`: the baseline `BENCHMARK.json` quotes.
fn baseline() -> Value {
    let text = repo_file("history.jsonl");
    parse_json(text.lines().next().expect("history.jsonl has a first line"))
        .expect("baseline parses")
}

fn check_smoke(name: &str) -> Outcome {
    let out = smoke(name);
    assert!(out.attempted > 0, "{name}: nothing attempted");
    assert_eq!(
        out.failed, 0,
        "{name}: {} of {} operations failed",
        out.failed, out.attempted
    );
    for m in &END_TO_END {
        let f = out
            .end_to_end
            .get(m.name)
            .unwrap_or_else(|| panic!("{name}: {} missing", m.name));
        assert!(
            f.value.is_finite() && f.value > 0.0,
            "{name}: {} = {}",
            m.name,
            f.value
        );
    }
    assert!(
        out.per_layer.contains_key("driver.trace_overhead_pct"),
        "{name}: no trace overhead"
    );
    assert!(
        out.tracer.as_ref().is_some_and(|t| !t.is_empty()),
        "{name}: traced pass left no spans"
    );

    // Both driver lines parse and carry exactly the metrics they owe.
    for (emit, owed) in [
        (Emit::EndToEnd, END_TO_END.len()),
        (Emit::PerLayer, PER_LAYER.len()),
    ] {
        let line = parse_json(&driver_line(&out, emit)).expect("driver line parses");
        assert_eq!(get(&line, "correct"), Some(&Value::Bool(true)), "{name}");
        match get(&line, "metrics") {
            Some(Value::Object(m)) => assert_eq!(m.len(), owed, "{name}"),
            other => panic!("{name}: metrics = {other:?}"),
        }
    }

    // Simulated figures do not depend on input size: the smoke must land
    // on the baseline's values exactly (fleet_objective is checked in
    // `fleet_objective_matches_the_baseline`, at full size).
    let base = baseline();
    let recorded = get(get(&base, "workloads").expect("workloads"), name)
        .unwrap_or_else(|| panic!("{name} missing from the baseline"));
    for exact in ["recirc_per_pkt", "sim_latency_ns"] {
        if let Some(want) = get(recorded, exact).and_then(as_f64) {
            let got = out.per_layer.get(exact).map(|f| f.value);
            assert_eq!(got, Some(want), "{name}: {exact} moved off the baseline");
        }
    }
    out
}

#[test]
fn smoke_fwd_min() {
    check_smoke("fwd_min");
}

#[test]
fn smoke_acl_4k() {
    check_smoke("acl_4k");
}

#[test]
fn smoke_sfc_edge() {
    let out = check_smoke("sfc_edge");
    assert_eq!(
        out.per_layer["recirc_per_pkt"].value, 1.0,
        "one recirculation per packet"
    );
}

#[test]
fn smoke_learn_churn() {
    check_smoke("learn_churn");
}

#[test]
fn smoke_cluster_tcp() {
    check_smoke("cluster_tcp");
}

#[test]
fn smoke_migrate_live() {
    check_smoke("migrate_live");
}

#[test]
fn smoke_plan_deploy() {
    check_smoke("plan_deploy");
}

#[test]
fn fleet_objective_matches_the_baseline() {
    let (chains, switches, iterations) = plan_deploy::fleet_size(Scale::Full);
    let fleets = plan_deploy::fleet_instances(1, chains, switches);
    let search = dejavu_core::orchestrator::AnnealingSearch::new(1, iterations);
    let outcome = dejavu_core::orchestrator::PlacementSearch::search(&search, &fleets[0])
        .expect("the first fleet of seed 1 is searchable");
    let base = baseline();
    let want = get(
        get(get(&base, "workloads").expect("workloads"), "plan_deploy").expect("plan_deploy"),
        "fleet_objective",
    )
    .and_then(as_f64)
    .expect("baseline records fleet_objective");
    assert_eq!(
        outcome.score.weighted, want,
        "fleet_objective moved off the baseline"
    );
}
