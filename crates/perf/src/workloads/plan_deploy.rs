//! `plan_deploy` — time to plan. No packets are timed.
//!
//! The paper's contributions 1–4 — parser merge, composition, placement,
//! allocation — measured as what an operator waits for. Each repetition
//! runs one fleet re-plan (`AnnealingSearch::new(seed, 2000)` on
//! one of eight seeded `FleetProblem::synthetic(100, 8, ·)` instances, in
//! turn) and fifty times "solve the
//! Fig. 2 instance with `PlacementProblem::exhaustive`, then `deploy()`
//! it". `latency_p50_us` is the re-plan, `pps` counts solve-and-deploy
//! operations per second. The packet path is bypassed entirely, so a
//! dataplane change must leave this workload flat; it is the guard for
//! the one-placement-core refactor.

use crate::harness::{Meter, Outcome, Scale};
use crate::stats::{Kind, Series};
use crate::trace::{Tracer, ROOT};
use dejavu_asic::switch::Disposition;
use dejavu_asic::{CompiledProgram, Gress, InjectedPacket, PipeletId, Switch, TofinoProfile};
use dejavu_compiler::StageAllocator;
use dejavu_core::compose::{compose_pipelet, PipeletPlan, PlannedNf};
use dejavu_core::deploy::{deploy, DeployOptions, Deployment};
use dejavu_core::merge::merge_programs;
use dejavu_core::orchestrator::{AnnealingSearch, FleetProblem, PlacementSearch, SearchOutcome};
use dejavu_core::placement::{traverse, Placement, PlacementProblem};
use dejavu_core::routing::{RoutingConfig, RoutingSynthesis};
use dejavu_core::{ChainSet, NfModule};
use dejavu_integration::{
    chain_packet, install_baseline_rules, EXIT_PORT, IN_PORT, LOOPBACK_PORT_P0, LOOPBACK_PORT_P1,
};
use dejavu_nf::load_balancer::{five_tuple_of, session_entry_for, SESSION_TABLE};
use serde::json::Value as Json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Solve-and-deploy operations per repetition.
pub const DEPLOYS_PER_REP: usize = 50;
/// Candidate cap handed to the exhaustive placement search.
const EXHAUSTIVE_CAP: u128 = 1 << 22;
const VIP: u32 = 0xc633_6450;

/// `(chains, switches, annealing iterations)` of the fleet re-plan.
pub fn fleet_size(scale: Scale) -> (usize, usize, u32) {
    match scale {
        Scale::Full | Scale::Quick => (100, 8, 2000),
        Scale::Smoke => (12, 3, 200),
    }
}

/// Fleet instances a run re-plans in turn. The annealer's time depends on
/// the instance (how many proposals are feasible) by ±10 %; the median
/// over a family is steadier across seeds than any one instance.
pub const FLEETS: usize = 8;

/// Everything the planner is asked to plan.
pub struct Inputs {
    /// The synthetic fleets, re-planned round-robin.
    pub fleets: Vec<FleetProblem>,
    /// The fleet search strategy (seeded).
    pub search: AnnealingSearch,
    /// The Fig. 2 NF modules.
    pub nfs: Vec<NfModule>,
    /// The Fig. 2 single-switch placement problem.
    pub fig2: PlacementProblem,
    /// Ports of the §5 configuration.
    pub config: RoutingConfig,
    /// Deploy options (the classifier is the entry NF).
    pub options: DeployOptions,
}

/// Synthetic instances drawn per seed; the first [`FLEETS`] usable ones
/// are kept. All are always drawn and checked, so `setup_s` does not
/// depend on how early the usable ones come.
const CANDIDATES: u64 = 40;

/// The fleet instances for `seed`: the first [`FLEETS`] of
/// `FleetProblem::synthetic(chains, switches, s)`, `s = 64·seed, 64·seed +
/// 1, …`, whose greedy seed placement is feasible. Roughly every other
/// synthetic instance has an infeasible seed placement, and
/// `AnnealingSearch` returns such a seed unchanged (none of its proposals
/// pass `feasible()`) — recorded in the README's findings, and no input
/// for a benchmark on which nothing may fail.
pub fn fleet_instances(seed: u64, chains: usize, switches: usize) -> Vec<FleetProblem> {
    let usable: Vec<FleetProblem> = (0..CANDIDATES)
        .map(|j| FleetProblem::synthetic(chains, switches, seed.wrapping_mul(64).wrapping_add(j)))
        .filter(|p| p.seed_placement().is_ok_and(|s| p.feasible(&s)))
        .collect();
    usable.into_iter().take(FLEETS).collect()
}

/// Builds the planner's inputs from nothing.
pub fn build(seed: u64, scale: Scale) -> Inputs {
    let (chains, switches, iterations) = fleet_size(scale);
    let stages: BTreeMap<String, u32> = [
        ("classifier", 2u32),
        ("firewall", 3),
        ("vgw", 2),
        ("lb", 3),
        ("router", 3),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_string(), s))
    .collect();
    let fig2 = PlacementProblem::new(ChainSet::edge_cloud_example(), stages);
    Inputs {
        fleets: fleet_instances(seed, chains, switches),
        search: AnnealingSearch::new(seed, iterations),
        nfs: dejavu_nf::edge_cloud_suite(),
        config: RoutingConfig {
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
        },
        fig2,
        options: DeployOptions {
            entry_nf: Some("classifier".into()),
            ..Default::default()
        },
    }
}

impl Inputs {
    /// Solves the Fig. 2 instance exhaustively.
    pub fn solve(&self) -> Option<Placement> {
        self.fig2.exhaustive(EXHAUSTIVE_CAP).ok()
    }

    /// Deploys the Fig. 2 chains under `placement`.
    pub fn deploy(&self, placement: &Placement) -> Option<(Switch, Deployment)> {
        let refs: Vec<&NfModule> = self.nfs.iter().collect();
        deploy(
            &refs,
            &self.fig2.chains,
            placement,
            &TofinoProfile::wedge_100b_32x(),
            &self.config,
            &self.options,
        )
        .ok()
    }

    /// One re-plan of fleet `i` (modulo the family).
    pub fn replan(&self, i: usize) -> Option<SearchOutcome> {
        self.search
            .search(self.fleets.get(i % self.fleets.len().max(1))?)
            .ok()
    }
}

/// What the oracle established about the plans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanFacts {
    /// Weighted objective the seeded search reaches on the first fleet.
    pub fleet_objective: f64,
    /// Weighted recirculations per packet of the Fig. 2 plan, as the
    /// deployed switch executes it.
    pub recirc_per_pkt: f64,
    /// Weighted simulated latency per packet of the Fig. 2 plan.
    pub sim_latency_ns: f64,
}

/// Output oracle: every fleet's plan must be feasible and reproduce its own
/// score; the Fig. 2 plan must be feasible, cost at most one weighted
/// recirculation, deploy, and carry one packet per chain to the exit port
/// with exactly the recirculations the placement model predicts.
pub fn oracle(inputs: &Inputs, out: &mut Outcome) -> PlanFacts {
    let mut facts = PlanFacts::default();
    let mut bad = 0u64;
    bad += u64::from(inputs.fleets.len() != FLEETS);
    for (i, fleet) in inputs.fleets.iter().enumerate() {
        match inputs.replan(i) {
            Some(o) => {
                let rescored = fleet.score(&o.placement).map(|s| s.weighted).ok();
                bad +=
                    u64::from(!fleet.feasible(&o.placement) || rescored != Some(o.score.weighted));
                // The exact figure is the first instance's objective.
                if i == 0 {
                    facts.fleet_objective = o.score.weighted;
                }
            }
            None => bad += 1,
        }
    }
    let mut checked = 2 + FLEETS as u64;
    match inputs.solve().and_then(|p| Some((inputs.deploy(&p)?, p))) {
        Some(((mut sw, dep), placement)) => {
            let cost = inputs.fig2.cost(&placement).unwrap_or(f64::INFINITY);
            bad += u64::from(!inputs.fig2.feasible(&placement) || cost > 1.0);
            install_baseline_rules(&mut sw, &dep);
            let total = inputs.fig2.chains.total_weight();
            for chain in &inputs.fig2.chains.chains {
                checked += 1;
                let pkt = chain_packet(chain.path_id, VIP, 443);
                if chain.nfs.iter().any(|n| n == "lb") {
                    let tuple = five_tuple_of(&pkt).expect("chain packets are tcp");
                    let _ = dep.install(
                        &mut sw,
                        "lb",
                        SESSION_TABLE,
                        session_entry_for(&tuple, 0x0a63_0001),
                    );
                }
                let model = traverse(
                    chain,
                    &placement,
                    inputs.fig2.entry_pipeline,
                    inputs.fig2.exit_pipeline,
                    false,
                )
                .ok();
                match sw.inject(InjectedPacket::new(pkt, IN_PORT)) {
                    Ok(t) if t.disposition == (Disposition::Emitted { port: EXIT_PORT }) => {
                        bad += u64::from(
                            model.map(|m| m.recirculations as usize) != Some(t.recirculations),
                        );
                        facts.recirc_per_pkt += chain.weight / total * t.recirculations as f64;
                        facts.sim_latency_ns += chain.weight / total * t.latency_ns;
                    }
                    _ => bad += 1,
                }
            }
        }
        None => bad += 1,
    }
    out.count(checked, bad);
    out.note("oracle_mismatches", Json::UInt(bad));
    facts
}

/// Runs the workload.
pub fn run(meter: &mut Meter<'_>) {
    let (seed, scale) = (meter.cfg.seed, meter.cfg.scale);
    let inputs = meter.setup(|_| build(seed, scale));
    let facts = oracle(&inputs, &mut meter.out);
    meter.out.layer("fleet_objective", facts.fleet_objective);
    meter.out.layer("recirc_per_pkt", facts.recirc_per_pkt);
    meter.out.layer("sim_latency_ns", facts.sim_latency_ns);
    let deploys = if scale == Scale::Smoke {
        2
    } else {
        DEPLOYS_PER_REP
    };

    if meter.cfg.measure_s > 0.0 {
        let (mut replan, mut rate) = (Series::default(), Series::default());
        let started = Instant::now();
        meter.reopen();
        while started.elapsed().as_secs_f64() < meter.cfg.measure_s || replan.is_empty() {
            let t = Instant::now();
            let plan = black_box(inputs.replan(replan.len()));
            let replan_s = t.elapsed().as_secs_f64();
            // The search is one call: its slowness rests on the samples
            // either side of it; the deploys get their own, with ticks.
            let replan_slowness = meter.close_rep().mean;
            let mut bad = u64::from(plan.is_none());
            let mut deploy_s = 0.0;
            for i in 0..deploys {
                if i % 5 == 0 {
                    meter.tick();
                }
                let t = Instant::now();
                let deployed = inputs.solve().and_then(|p| inputs.deploy(&p));
                bad += u64::from(black_box(deployed).is_none());
                deploy_s += t.elapsed().as_secs_f64();
            }
            let slowness = meter.close_rep().mean;
            meter.out.count(1 + deploys as u64, bad);
            replan.push(Kind::Duration, replan_s * 1e6, replan_slowness);
            rate.push(Kind::Rate, deploys as f64 / deploy_s, slowness);
        }
        let replan = replan.figure("us");
        let rate = rate.figure("1/s");
        meter.out.layer("replan_ms", replan.value / 1e3);
        meter.out.layer("deploy_ms", 1e3 / rate.value);
        meter.out.e2e("latency_p50_us", replan);
        meter.out.e2e("pps", rate);
    }
    if meter.cfg.trace_s > 0.0 {
        traced(meter, &inputs, deploys);
    }
}

/// The traced pass: `deploy ⊃ merge + compose + alloc + compile +
/// synthesize`, each inner layer called through its own public function on
/// the Fig. 2 inputs; plus the placement and fleet searches as roots.
fn traced(meter: &mut Meter<'_>, inputs: &Inputs, deploys: usize) {
    let mut tracer = Tracer::new();
    let l_search = tracer.layer("core.orchestrator.search");
    let l_score = tracer.layer("core.orchestrator.score");
    let l_exhaustive = tracer.layer("core.placement.exhaustive");
    let l_deploy = tracer.layer("core.deploy.deploy");
    let l_merge = tracer.layer("core.merge.merge_programs");
    let l_compose = tracer.layer("core.compose.compose_pipelet");
    let l_alloc = tracer.layer("compiler.alloc.compile");
    let l_compile = tracer.layer("asic.compiled.compile");
    let l_synth = tracer.layer("core.routing.synthesize");

    let profile = TofinoProfile::wedge_100b_32x();
    let refs: Vec<&NfModule> = inputs.nfs.iter().collect();
    let mut evaluated = 0u64;
    let mut bad = 0u64;
    let mut ops = 0u32;
    let mut untimed_rate = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < meter.cfg.trace_s * 0.8 || ops < 1 {
        let fleet = &inputs.fleets[ops as usize % inputs.fleets.len()];
        let (_, plan) = tracer.span(l_search, ROOT, ops, || inputs.replan(ops as usize));
        match plan {
            Some(o) => {
                evaluated += o.evaluated;
                for _ in 0..32 {
                    let (_, s) = tracer.span(l_score, ROOT, ops, || fleet.score(&o.placement));
                    bad += u64::from(s.is_err());
                }
            }
            None => bad += 1,
        }
        // Untraced reference for the overhead figure.
        let t = Instant::now();
        for _ in 0..deploys {
            bad += u64::from(inputs.solve().and_then(|p| inputs.deploy(&p)).is_none());
        }
        untimed_rate.push(deploys as f64 / t.elapsed().as_secs_f64());

        for _ in 0..deploys {
            let (_, placement) = tracer.span(l_exhaustive, ROOT, ops, || inputs.solve());
            let Some(placement) = placement else {
                bad += 1;
                continue;
            };
            let (root, deployed) = tracer.span(l_deploy, ROOT, ops, || inputs.deploy(&placement));
            bad += u64::from(deployed.is_none());

            // The layers of deploy(), through their own entry points.
            let (_, merged) = tracer.span(l_merge, root, ops, || merge_programs("dejavu", &refs));
            let Ok(merged) = merged else {
                bad += 1;
                continue;
            };
            let allocator = StageAllocator::new(profile.clone());
            for pipeline in 0..profile.pipelines {
                for gress in [Gress::Ingress, Gress::Egress] {
                    let pipelet = PipeletId { pipeline, gress };
                    let nfs = placement
                        .pipelets
                        .get(&pipelet)
                        .into_iter()
                        .flatten()
                        .map(|n| {
                            if inputs.options.entry_nf.as_deref() == Some(n.as_str()) {
                                PlannedNf::entry(n.clone())
                            } else {
                                PlannedNf::indexed(n.clone())
                            }
                        })
                        .collect();
                    let plan = PipeletPlan {
                        pipelet,
                        nfs,
                        mode: placement.mode(pipelet),
                    };
                    let (_, program) =
                        tracer.span(l_compose, root, ops, || compose_pipelet(&merged, &plan));
                    let Ok(program) = program else {
                        bad += 1;
                        continue;
                    };
                    let lint = dejavu_core::lint::pipelet_lint_config(&program, &plan);
                    let (_, allocation) = tracer.span(l_alloc, root, ops, || {
                        allocator.clone().with_lint_config(lint).compile(&program)
                    });
                    bad += u64::from(allocation.is_err());
                    let (_, compiled) =
                        tracer.span(l_compile, root, ops, || CompiledProgram::compile(&program));
                    bad += u64::from(compiled.is_err());
                }
            }
            let (_, synthesis) = tracer.span(l_synth, root, ops, || {
                RoutingSynthesis::synthesize(
                    &placement,
                    &inputs.fig2.chains,
                    &profile,
                    &inputs.config,
                )
            });
            bad += u64::from(synthesis.is_err());
        }
        meter.out.count(1 + 3 * deploys as u64, bad);
        bad = 0;
        ops += 1;
    }

    let lt = tracer.layers();
    let deploy_count = lt["core.deploy.deploy"].count.max(1) as f64;
    // Per deploy() call: compose, alloc and compile run once per pipelet.
    let per_deploy_ms = |name: &str| {
        lt.get(name)
            .map_or(0.0, |l| l.total_ns / 1e6 / deploy_count)
    };
    let mean_ms = |name: &str| lt.get(name).map_or(0.0, |l| l.mean_ns() / 1e6);
    let out = &mut meter.out;
    out.layer(
        "core.orchestrator.search_ms",
        mean_ms("core.orchestrator.search"),
    );
    out.layer(
        "core.orchestrator.search_evaluated",
        evaluated as f64 / f64::from(ops.max(1)),
    );
    out.layer(
        "core.orchestrator.score_us",
        mean_ms("core.orchestrator.score") * 1e3,
    );
    out.layer(
        "core.placement.exhaustive_ms",
        mean_ms("core.placement.exhaustive"),
    );
    out.layer("core.deploy.deploy_ms", mean_ms("core.deploy.deploy"));
    out.layer(
        "core.merge.merge_programs_ms",
        per_deploy_ms("core.merge.merge_programs"),
    );
    out.layer(
        "core.compose.compose_pipelet_ms",
        per_deploy_ms("core.compose.compose_pipelet"),
    );
    out.layer(
        "compiler.alloc.compile_ms",
        per_deploy_ms("compiler.alloc.compile"),
    );
    out.layer(
        "asic.compiled.compile_ms",
        per_deploy_ms("asic.compiled.compile"),
    );
    out.layer(
        "core.routing.synthesize_ms",
        per_deploy_ms("core.routing.synthesize"),
    );
    out.layer_if_absent("replan_ms", mean_ms("core.orchestrator.search"));
    let traced_ms = mean_ms("core.placement.exhaustive") + mean_ms("core.deploy.deploy");
    out.layer_if_absent("deploy_ms", traced_ms);
    out.layer(
        "driver.trace_overhead_pct",
        100.0 * (1.0 - (1e3 / traced_ms) / crate::stats::median(&untimed_rate)),
    );
    out.layer("driver.generator_share", 0.0);
    let d = lt["core.deploy.deploy"];
    out.note(
        "share_deploy_self_pct",
        Json::Float(100.0 * d.self_ns / d.total_ns),
    );
    out.note("traced_reps", Json::UInt(u64::from(ops)));
    out.note("timer_overhead_ns", Json::Float(tracer.overhead_ns()));
    meter.out.tracer = Some(tracer);
}
