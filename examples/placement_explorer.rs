//! Placement explorer: compare fleet-scale search strategies on a
//! workload you describe on the command line.
//!
//! ```text
//! cargo run -p dejavu-examples --bin placement_explorer -- [n_chains] [n_switches] [seed]
//! ```
//!
//! Builds a reproducible synthetic fleet (defaults: 6 chains, 2 switches,
//! seed 7), then drives every [`PlacementSearch`] strategy — the
//! exhaustive oracle when the space is small enough, and simulated
//! annealing — over the same weighted objective
//! (recirculations + cross-switch hops + per-switch stage pressure) and
//! prints a comparison table: score breakdown, candidates evaluated, and
//! wall-clock time per strategy.

use dejavu_core::orchestrator::{
    AnnealingSearch, ExhaustiveSearch, FleetProblem, PlacementSearch, SearchOutcome,
};
use std::time::Instant;

fn show(problem: &FleetProblem, name: &str, outcome: &SearchOutcome, elapsed_ms: f64) {
    let s = &outcome.score;
    println!(
        "{name:<22} {:>10.3} {:>7} {:>7} {:>6} {:>9.3} {:>10} {:>9.1}",
        s.weighted,
        s.recirculations,
        s.inter_switch_hops,
        s.resubmissions,
        s.pressure,
        outcome.evaluated,
        elapsed_ms,
    );
    for (sw, p) in outcome.placement.switches.iter().enumerate() {
        let nfs: Vec<String> = p
            .pipelets
            .iter()
            .map(|(id, nfs)| format!("{id}:[{}]", nfs.join(", ")))
            .collect();
        if !nfs.is_empty() {
            println!("    switch {sw}: {}", nfs.join("  "));
        }
    }
    debug_assert!(problem.feasible(&outcome.placement));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_chains: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(6);
    let n_switches: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(7);

    let problem = FleetProblem::synthetic(n_chains, n_switches, seed);
    println!(
        "fleet workload (seed {seed}): {} chains over {} switches, {} distinct NFs",
        problem.chains().chains.len(),
        problem.switches(),
        problem.nfs().len(),
    );
    for c in &problem.chains().chains {
        println!(
            "  {} (weight {:.2}): {}",
            c.name,
            c.weight,
            c.nfs.join(" -> ")
        );
    }

    println!(
        "\n{:<22} {:>10} {:>7} {:>7} {:>6} {:>9} {:>10} {:>9}",
        "strategy", "weighted", "recirc", "hops", "resub", "pressure", "evaluated", "ms"
    );
    let strategies: Vec<Box<dyn PlacementSearch>> = vec![
        Box::new(ExhaustiveSearch::default()),
        Box::new(AnnealingSearch::new(seed, 5000)),
    ];
    let mut best: Option<f64> = None;
    for strategy in &strategies {
        let started = Instant::now();
        match strategy.search(&problem) {
            Ok(outcome) => {
                let ms = started.elapsed().as_secs_f64() * 1e3;
                show(&problem, strategy.name(), &outcome, ms);
                let w = outcome.score.weighted;
                best = Some(best.map_or(w, |b: f64| b.min(w)));
            }
            Err(e) => println!("{:<22} {e}", strategy.name()),
        }
    }
    if let Some(best) = best {
        println!("\nbest weighted objective found: {best:.3}");
    }
}
