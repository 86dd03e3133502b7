//! NF placement (paper §3.3, widened to §7's back-to-back switches): which
//! pipelet of which switch hosts which NF.
//!
//! **One problem.** Everything that prices, checks or enumerates a placement
//! goes through [`FleetProblem`]: N chains over M switches, with a
//! [`PlacementProblem`] as the per-switch template. The paper's single-ASIC
//! question is the M = 1 fleet, [`FleetProblem::single`], and
//! [`PlacementProblem::cost`], [`feasible`](PlacementProblem::feasible) and
//! [`exhaustive`](PlacementProblem::exhaustive) are views of it.
//!
//! **One objective**, [`FleetProblem::score`]:
//!
//! ```text
//! score(P) = Σ_chains w_c · (recirc_w·R_c + resub_w·S_c + hop_w·H_c)
//!          + pressure_w · Σ_switches (stage demand_s / stage capacity)²
//! ```
//!
//! `R_c`/`S_c` come from the traversal model ([`traverse`]: how packets move
//! across pipelets under Tofino's constraints; Fig. 6's 3 recirculations
//! naive and 1 optimized, exactly) over each per-switch run of the chain;
//! `H_c` counts inter-switch hops. The quadratic pressure term rewards
//! spreading stage demand, which is what lets a traffic shift move a fleet's
//! optimum. `single` sets `hop_w = pressure_w = 0` (and one switch has no
//! hops), so its score is the paper's weighted recirculation count bit for
//! bit: `x + 0.0` is exact.
//!
//! **One feasibility rule**: every chain NF on exactly one switch, every
//! pipelet within its stage budget, every chain visiting switches in
//! non-decreasing order (the wiring `deploy_cluster` builds is forward-only).
//! At M = 1 that is "everything placed and everything fits".
//!
//! **One enumerator**, [`ExhaustiveSearch`], behind the [`PlacementSearch`]
//! trait it shares with the seeded [`AnnealingSearch`] and [`SwarmSearch`].
//!
//! **Seeds** are kept as they are because answers depend on them bit for bit:
//! [`naive`](PlacementProblem::naive) (the baseline the paper critiques),
//! [`greedy`](PlacementProblem::greedy), [`ClusterProblem::greedy_spill`] and
//! the monotone first-fit behind [`FleetProblem::seed_placement`].
//! `greedy_spill` can break the monotone rule; a metaheuristic started on
//! such a seed rejects every proposal and would hand it back. Search
//! start-up — not `seed_placement`, whose output callers filter on —
//! therefore replaces an infeasible seed with the monotone first-fit.
//!
//! **Two annealing neighbourhoods**, on purpose. [`PlacementProblem::anneal`]
//! moves one NF or swaps the *contents* of two pipelets — the only feasible
//! step from Fig. 6(a) to 6(b). [`AnnealingSearch`] moves one NF or swaps two
//! NFs, which scales to fleets but stalls at 2 recirculations on Fig. 6.
//! Both run on the shared objective and feasibility rule.

mod fleet;
mod search;

pub use fleet::{
    chain_latency_ns, ClusterCost, ClusterPlacement, ClusterProblem, FleetProblem, FleetScore,
    FleetSlot,
};
pub use search::{AnnealingSearch, ExhaustiveSearch, PlacementSearch, SearchOutcome, SwarmSearch};

use crate::chain::{ChainPolicy, ChainSet};
use crate::compose::CompositionMode;
use dejavu_asic::{Gress, PipeletId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// Cost of one chain traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraversalCost {
    /// Recirculations taken (egress → ingress loops).
    pub recirculations: u32,
    /// Resubmissions taken (ingress → same ingress loops).
    pub resubmissions: u32,
}

/// Weights of the objective. Recirculations consume loopback-port bandwidth
/// (§4) and dominate; resubmissions only revisit the ingress pipe and are
/// much cheaper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one recirculation.
    pub recirc_weight: f64,
    /// Cost of one resubmission.
    pub resub_weight: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            recirc_weight: 1.0,
            resub_weight: 0.25,
        }
    }
}

/// Errors from placement evaluation / search.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// A chain references an NF with no assigned pipelet.
    UnplacedNf(String),
    /// Traversal did not terminate (pathological placement).
    TraversalDiverged(String),
    /// The search space exceeds the configured exhaustive-search budget.
    SearchTooLarge {
        /// Number of candidate assignments.
        candidates: u128,
        /// Configured cap.
        cap: u128,
    },
    /// No feasible placement exists under the resource surrogate.
    Infeasible(String),
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::UnplacedNf(nf) => write!(f, "NF {nf} has no pipelet assignment"),
            PlacementError::TraversalDiverged(c) => write!(f, "traversal diverged for chain {c}"),
            PlacementError::SearchTooLarge { candidates, cap } => {
                write!(
                    f,
                    "exhaustive search too large: {candidates} candidates > cap {cap}"
                )
            }
            PlacementError::Infeasible(m) => write!(f, "no feasible placement: {m}"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// A full placement: which NFs live on which pipelet, in which composed
/// order, with which composition mode.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Placement {
    /// NFs per pipelet, in composed (slot) order.
    pub pipelets: BTreeMap<PipeletId, Vec<String>>,
    /// Composition mode per pipelet (default sequential).
    pub modes: BTreeMap<PipeletId, CompositionMode>,
}

impl Placement {
    /// Builds a placement from `(pipelet, NFs)` pairs, all sequential.
    pub fn sequential(parts: Vec<(PipeletId, Vec<&str>)>) -> Self {
        let mut p = Placement::default();
        for (pipelet, nfs) in parts {
            p.pipelets
                .insert(pipelet, nfs.into_iter().map(str::to_string).collect());
        }
        p
    }

    /// Pipelet hosting an NF.
    pub fn location(&self, nf: &str) -> Option<PipeletId> {
        self.pipelets
            .iter()
            .find(|(_, nfs)| nfs.iter().any(|n| n == nf))
            .map(|(p, _)| *p)
    }

    /// Slot index of an NF within its pipelet.
    pub fn slot(&self, nf: &str) -> Option<usize> {
        let loc = self.location(nf)?;
        self.pipelets[&loc].iter().position(|n| n == nf)
    }

    /// Composition mode of a pipelet.
    pub fn mode(&self, pipelet: PipeletId) -> CompositionMode {
        self.modes
            .get(&pipelet)
            .copied()
            .unwrap_or(CompositionMode::Sequential)
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pipelet, nfs) in &self.pipelets {
            if !nfs.is_empty() {
                writeln!(
                    f,
                    "  {pipelet}: [{}] ({:?})",
                    nfs.join(", "),
                    self.mode(*pipelet)
                )?;
            }
        }
        Ok(())
    }
}

/// Recirculation decision granularity (§7, "Implications for
/// hardware/compiler designers").
///
/// Current ASICs support recirculation only at *per-port* granularity, with
/// the decision made in the ingress pipe — the paper's constraint set. A
/// hypothetical ASIC with *per-packet* granularity lets a packet choose,
/// after egress processing, whether to be recirculated (and towards which
/// pipeline) or sent out — which the paper predicts would yield
/// "potentially fewer recirculations in the pipelines".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecircGranularity {
    /// Today's hardware: port-granularity loopback, ingress-time decision.
    #[default]
    PerPort,
    /// Hypothetical: per-packet decision after egress processing.
    PerPacket,
}

/// Simulates one chain's traversal over a placement, counting loops.
///
/// `entry_pipeline` is where external packets arrive; `exit_pipeline` is the
/// pipeline owning the final output port. NFs absent from the placement
/// produce [`PlacementError::UnplacedNf`] unless `skip_unplaced` (used by
/// the greedy optimizer's partial evaluations).
pub fn traverse(
    chain: &ChainPolicy,
    placement: &Placement,
    entry_pipeline: usize,
    exit_pipeline: usize,
    skip_unplaced: bool,
) -> Result<TraversalCost, PlacementError> {
    traverse_with(
        chain,
        placement,
        entry_pipeline,
        exit_pipeline,
        skip_unplaced,
        RecircGranularity::PerPort,
    )
}

/// [`traverse`] with an explicit recirculation-granularity model.
pub fn traverse_with(
    chain: &ChainPolicy,
    placement: &Placement,
    entry_pipeline: usize,
    exit_pipeline: usize,
    skip_unplaced: bool,
    granularity: RecircGranularity,
) -> Result<TraversalCost, PlacementError> {
    let mut visits = Vec::new();
    for nf in &chain.nfs {
        match placement.location(nf) {
            Some(loc) => visits.push((nf, loc)),
            None if skip_unplaced => {}
            None => return Err(PlacementError::UnplacedNf(nf.clone())),
        }
    }
    let ends = (entry_pipeline, exit_pipeline);
    walk(&chain.name, &visits, placement, ends, granularity)
}

/// An NF a chain visits and the pipelet hosting it.
type Visit<'a> = (&'a String, PipeletId);

/// The traversal model proper, over a run of visits on one switch — a whole
/// chain, or the part of one a cluster member hosts. `chain` only names the
/// chain in errors.
fn walk(
    chain: &str,
    visits: &[Visit<'_>],
    placement: &Placement,
    (entry_pipeline, exit_pipeline): (usize, usize),
    granularity: RecircGranularity,
) -> Result<TraversalCost, PlacementError> {
    let mut cost = TraversalCost::default();
    let mut cur = PipeletId::ingress(entry_pipeline);
    let mut idx = 0usize;
    // Slot pointer within the current pass: next runnable slot index.
    let mut pass_slot: isize = -1;
    let mut ran_in_pass = 0usize;

    let mut steps = 0usize;
    while idx < visits.len() {
        steps += 1;
        if steps > 10_000 {
            return Err(PlacementError::TraversalDiverged(chain.to_string()));
        }
        let (nf, target) = visits[idx];
        if target == cur {
            // Can this pass still run the NF?
            let hosted = &placement.pipelets[&cur];
            let slot = hosted
                .iter()
                .position(|n| n == nf)
                .expect("visit is hosted") as isize;
            let runnable = match placement.mode(cur) {
                CompositionMode::Sequential => slot > pass_slot,
                CompositionMode::Parallel => ran_in_pass == 0,
            };
            if runnable {
                pass_slot = slot;
                ran_in_pass += 1;
                idx += 1;
                continue;
            }
            // Same pipelet but needs a fresh pass.
            match cur.gress {
                Gress::Ingress => {
                    cost.resubmissions += 1;
                }
                Gress::Egress => {
                    // Recirculate to our own ingress, pass through, and
                    // return: egress→ingress costs one recirculation; the
                    // ingress→egress hop is free.
                    cost.recirculations += 1;
                }
            }
            pass_slot = -1;
            ran_in_pass = 0;
            continue;
        }
        // Move toward the target pipelet.
        match (cur.gress, target.gress) {
            (Gress::Ingress, Gress::Egress) => {
                cur = target; // TM crossing, free
            }
            (Gress::Ingress, Gress::Ingress) => {
                // Must loop through the target pipeline's loopback port:
                // TM → egress(target) [pass-through] → recirc → ingress(target).
                cost.recirculations += 1;
                cur = target;
            }
            (Gress::Egress, Gress::Ingress) if granularity == RecircGranularity::PerPacket => {
                // Per-packet granularity: the packet chooses its next
                // pipeline after egress processing — one recirculation
                // lands it in the target ingress directly.
                cost.recirculations += 1;
                cur = target;
            }
            (Gress::Egress, _) => {
                // Per-port hardware: the only way out of an egress pipe is
                // recirculating to the own pipeline's ingress.
                cost.recirculations += 1;
                cur = PipeletId::ingress(cur.pipeline);
            }
        }
        pass_slot = -1;
        ran_in_pass = 0;
    }

    // Exit: reach a port on `exit_pipeline`'s egress pipe.
    match cur.gress {
        Gress::Ingress => {} // TM forwards to any egress for free
        Gress::Egress => {
            if cur.pipeline != exit_pipeline && granularity == RecircGranularity::PerPort {
                cost.recirculations += 1; // loop home, then TM to the exit pipe
            }
            // Per-packet granularity: the packet may be emitted directly
            // after egress processing — no positioning loop needed.
        }
    }
    Ok(cost)
}

/// Resource surrogate + instance description for the optimizers.
#[derive(Debug, Clone)]
pub struct PlacementProblem {
    /// Number of pipelines (pipelets = 2× this).
    pub pipelines: usize,
    /// MAU stages per pipelet.
    pub stages_per_pipelet: u32,
    /// The chains to serve.
    pub chains: ChainSet,
    /// Stage span of each NF (from the compiler).
    pub nf_stages: BTreeMap<String, u32>,
    /// Framework stages consumed per hosted NF (dispatch + flag check).
    pub framework_stages_per_nf: u32,
    /// Framework stages consumed per pipelet regardless of NFs (branching /
    /// decap).
    pub framework_stages_fixed: u32,
    /// Pipeline where external traffic enters.
    pub entry_pipeline: usize,
    /// Pipeline owning the final output ports.
    pub exit_pipeline: usize,
    /// Objective weights.
    pub cost_model: CostModel,
}

impl PlacementProblem {
    /// A problem over the default two-pipeline, 12-stage profile.
    pub fn new(chains: ChainSet, nf_stages: BTreeMap<String, u32>) -> Self {
        PlacementProblem {
            pipelines: 2,
            stages_per_pipelet: 12,
            chains,
            nf_stages,
            framework_stages_per_nf: 2,
            framework_stages_fixed: 1,
            entry_pipeline: 0,
            exit_pipeline: 0,
            cost_model: CostModel::default(),
        }
    }

    /// All pipelets, ingress-then-egress per pipeline, in the naive
    /// baseline's alternating order: Ing0, Eg0, Ing1, Eg1, …
    pub fn pipelets_alternating(&self) -> Vec<PipeletId> {
        (0..self.pipelines)
            .flat_map(|p| [PipeletId::ingress(p), PipeletId::egress(p)])
            .collect()
    }

    /// Stage demand of hosting `nfs` on one pipelet (sequential surrogate).
    pub fn pipelet_stage_demand(&self, nfs: &[String]) -> u32 {
        if nfs.is_empty() {
            return 0;
        }
        self.framework_stages_fixed
            + nfs
                .iter()
                .map(|n| self.nf_stages.get(n).copied().unwrap_or(1) + self.framework_stages_per_nf)
                .sum::<u32>()
    }

    /// Does a pipelet's NF list fit?
    pub fn fits(&self, nfs: &[String]) -> bool {
        self.pipelet_stage_demand(nfs) <= self.stages_per_pipelet
    }

    /// `pipelet`'s NF list with `nf` appended, if that still fits.
    fn with_nf(&self, on: &Placement, pipelet: PipeletId, nf: &str) -> Option<Vec<String>> {
        let mut nfs = on.pipelets.get(&pipelet).cloned().unwrap_or_default();
        nfs.push(nf.to_string());
        self.fits(&nfs).then_some(nfs)
    }

    /// Whole-placement feasibility: the fleet rule at M = 1 (everything
    /// placed, everything fits).
    pub fn feasible(&self, placement: &Placement) -> bool {
        fleet::feasible(
            self,
            &self.canonical_order(),
            std::slice::from_ref(placement),
        )
    }

    /// Weighted objective of a placement over all chains: the fleet
    /// objective at M = 1.
    pub fn cost(&self, placement: &Placement) -> Result<f64, PlacementError> {
        self.cost_of(placement, false)
    }

    /// [`cost`](Self::cost), optionally skipping unplaced NFs (partial
    /// placements during greedy construction).
    fn cost_of(&self, placement: &Placement, skip_unplaced: bool) -> Result<f64, PlacementError> {
        let switches = std::slice::from_ref(placement);
        Ok(fleet::score(self, fleet::SINGLE, switches, skip_unplaced)?.weighted)
    }

    /// Canonical NF order: first-appearance across chains (used for intra-
    /// pipelet ordering and the naive baseline).
    pub fn canonical_order(&self) -> Vec<String> {
        self.chains.all_nfs()
    }

    // ------------------------------------------------------------------
    // Optimizers
    // ------------------------------------------------------------------

    /// The paper's naive baseline: place NFs one by one in canonical order,
    /// alternating Ing0, Eg0, Ing1, Eg1, …, packing while they fit.
    pub fn naive(&self) -> Result<Placement, PlacementError> {
        let pipelets = self.pipelets_alternating();
        let mut placement = Placement::default();
        let mut cursor = 0usize;
        for nf in self.canonical_order() {
            loop {
                let Some(&pipelet) = pipelets.get(cursor) else {
                    return Err(PlacementError::Infeasible(format!(
                        "naive placement ran out of pipelets at NF {nf}"
                    )));
                };
                if let Some(nfs) = self.with_nf(&placement, pipelet, &nf) {
                    placement.pipelets.insert(pipelet, nfs);
                    break;
                }
                cursor += 1;
            }
        }
        Ok(placement)
    }

    /// Greedy: NFs in descending traffic weight, each assigned to the
    /// feasible pipelet minimizing the partial objective.
    pub fn greedy(&self) -> Result<Placement, PlacementError> {
        // Weight of each NF = total weight of chains visiting it.
        let mut weight: BTreeMap<String, f64> = BTreeMap::new();
        for c in &self.chains.chains {
            for nf in &c.nfs {
                *weight.entry(nf.clone()).or_insert(0.0) += c.weight;
            }
        }
        let mut order = self.canonical_order();
        order.sort_by(|a, b| {
            weight[b]
                .partial_cmp(&weight[a])
                .unwrap()
                .then_with(|| a.cmp(b))
        });

        let mut placement = Placement::default();
        for nf in order {
            let mut best: Option<(f64, PipeletId)> = None;
            for pipelet in self.pipelets_alternating() {
                let Some(nfs) = self.with_nf(&placement, pipelet, &nf) else {
                    continue;
                };
                let mut trial = placement.clone();
                trial.pipelets.insert(pipelet, nfs);
                // Keep intra-pipelet order canonical for determinism.
                let cost = self.cost_of(&self.canonicalize(trial), true)?;
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, pipelet));
                }
            }
            let Some((_, pipelet)) = best else {
                return Err(PlacementError::Infeasible(format!(
                    "no pipelet fits NF {nf}"
                )));
            };
            placement.pipelets.entry(pipelet).or_default().push(nf);
        }
        let placement = self.canonicalize(placement);
        // Greedy construction can land in a local optimum worse than the
        // trivial baseline; never return worse than naive.
        if let Ok(naive) = self.naive() {
            if let (Ok(gc), Ok(nc)) = (self.cost(&placement), self.cost(&naive)) {
                if nc < gc {
                    return Ok(naive);
                }
            }
        }
        Ok(placement)
    }

    /// Exhaustive search over pipelet assignments (intra-pipelet order is
    /// canonical). Exact minimizer for small instances; errors when the
    /// space exceeds `cap` candidates. This is [`ExhaustiveSearch`] on the
    /// M = 1 fleet.
    pub fn exhaustive(&self, cap: u128) -> Result<Placement, PlacementError> {
        let mut found = ExhaustiveSearch { cap }.search(&FleetProblem::single(self.clone()))?;
        Ok(found.placement.switches.swap_remove(0))
    }

    /// Simulated annealing from the naive start. Deterministic for a given
    /// seed.
    pub fn anneal(&self, seed: u64, iterations: usize) -> Result<Placement, PlacementError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pipelets = self.pipelets_alternating();
        let nfs = self.canonical_order();
        let mut current = self.naive().or_else(|_| self.greedy())?;
        let mut current_cost = self.cost(&current)?;
        let mut best = current.clone();
        let mut best_cost = current_cost;
        let mut temperature = 2.0f64;
        let cooling = (0.01f64 / 2.0).powf(1.0 / iterations.max(1) as f64);

        for _ in 0..iterations {
            // Moves: (a) reassign one NF, or (b) swap the entire contents of
            // two pipelets. The swap escapes the local optima where single
            // reassignments pass through infeasible states — e.g. turning
            // Fig. 6(a) into Fig. 6(b) swaps the two egress pipelets
            // wholesale.
            let mut trial = current.clone();
            if rng.gen_bool(0.7) {
                let nf = &nfs[rng.gen_range(0..nfs.len())];
                let target = pipelets[rng.gen_range(0..pipelets.len())];
                for list in trial.pipelets.values_mut() {
                    list.retain(|n| n != nf);
                }
                trial.pipelets.entry(target).or_default().push(nf.clone());
            } else {
                let a = pipelets[rng.gen_range(0..pipelets.len())];
                let b = pipelets[rng.gen_range(0..pipelets.len())];
                if a != b {
                    let list_a = trial.pipelets.remove(&a).unwrap_or_default();
                    let list_b = trial.pipelets.remove(&b).unwrap_or_default();
                    trial.pipelets.insert(a, list_b);
                    trial.pipelets.insert(b, list_a);
                }
            }
            let trial = self.canonicalize(trial);
            if !self.feasible(&trial) {
                temperature *= cooling;
                continue;
            }
            let trial_cost = self.cost(&trial)?;
            let accept = trial_cost <= current_cost
                || rng.gen::<f64>() < ((current_cost - trial_cost) / temperature).exp();
            if accept {
                current = trial;
                current_cost = trial_cost;
                if current_cost < best_cost {
                    best = current.clone();
                    best_cost = current_cost;
                }
            }
            temperature *= cooling;
        }
        Ok(best)
    }

    /// Reorders NFs within each pipelet into canonical chain order (the
    /// order optimizers assume).
    pub fn canonicalize(&self, mut placement: Placement) -> Placement {
        let order = self.canonical_order();
        for nfs in placement.pipelets.values_mut() {
            nfs.sort_by_key(|n| order.iter().position(|o| o == n).unwrap_or(usize::MAX));
        }
        placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 6 instance: one chain A-B-C-D-E-F over 2 pipelines, exit on
    /// pipe 0. NF sizes chosen so that AB (and EF) share a pipelet but C and
    /// D need their own — the shape drawn in the paper.
    fn fig6_problem() -> PlacementProblem {
        let chains = ChainSet::new(vec![ChainPolicy::new(
            1,
            "abcdef",
            vec!["A", "B", "C", "D", "E", "F"],
            1.0,
        )])
        .unwrap();
        let mut stages = BTreeMap::new();
        for nf in ["A", "B", "E", "F"] {
            stages.insert(nf.to_string(), 2u32);
        }
        for nf in ["C", "D"] {
            stages.insert(nf.to_string(), 6u32);
        }
        PlacementProblem::new(chains, stages)
    }

    fn fig6a_placement() -> Placement {
        Placement::sequential(vec![
            (PipeletId::ingress(0), vec!["A", "B"]),
            (PipeletId::egress(0), vec!["C"]),
            (PipeletId::ingress(1), vec!["D"]),
            (PipeletId::egress(1), vec!["E", "F"]),
        ])
    }

    fn fig6b_placement() -> Placement {
        Placement::sequential(vec![
            (PipeletId::ingress(0), vec!["A", "B"]),
            (PipeletId::egress(1), vec!["C"]),
            (PipeletId::ingress(1), vec!["D"]),
            (PipeletId::egress(0), vec!["E", "F"]),
        ])
    }

    #[test]
    fn fig6a_costs_three_recirculations() {
        let p = fig6_problem();
        let c = traverse(&p.chains.chains[0], &fig6a_placement(), 0, 0, false).unwrap();
        assert_eq!(
            c.recirculations, 3,
            "paper: naive Fig 6(a) needs 3 recirculations"
        );
        assert_eq!(c.resubmissions, 0);
    }

    #[test]
    fn fig6b_costs_one_recirculation() {
        let p = fig6_problem();
        let c = traverse(&p.chains.chains[0], &fig6b_placement(), 0, 0, false).unwrap();
        assert_eq!(
            c.recirculations, 1,
            "paper: optimized Fig 6(b) needs 1 recirculation"
        );
        assert_eq!(c.resubmissions, 0);
    }

    #[test]
    fn naive_reproduces_fig6a_shape() {
        let p = fig6_problem();
        let naive = p.naive().unwrap();
        assert_eq!(naive.pipelets[&PipeletId::ingress(0)], vec!["A", "B"]);
        assert_eq!(naive.pipelets[&PipeletId::egress(0)], vec!["C"]);
        assert_eq!(naive.pipelets[&PipeletId::ingress(1)], vec!["D"]);
        assert_eq!(naive.pipelets[&PipeletId::egress(1)], vec!["E", "F"]);
        assert_eq!(p.cost(&naive).unwrap(), 3.0);
    }

    #[test]
    fn exhaustive_finds_one_recirculation_optimum() {
        let p = fig6_problem();
        let opt = p.exhaustive(1 << 20).unwrap();
        let cost = p.cost(&opt).unwrap();
        assert!(
            cost <= 1.0,
            "exhaustive cost {cost} should be ≤ the paper's 1 recirculation"
        );
    }

    /// The Fig. 2 edge-cloud instance as the benchmark plans it.
    fn fig2_problem() -> PlacementProblem {
        let stages = [
            ("classifier", 2u32),
            ("firewall", 3),
            ("vgw", 2),
            ("lb", 3),
            ("router", 3),
        ];
        PlacementProblem::new(
            ChainSet::edge_cloud_example(),
            stages.into_iter().map(|(n, s)| (n.into(), s)).collect(),
        )
    }

    /// `random_instance(seed)` of the `ablation_placement` bench.
    fn ablation_instance(seed: u64) -> PlacementProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_nfs = rng.gen_range(4..=7);
        let n_chains = rng.gen_range(1..=4);
        let nfs: Vec<String> = (0..n_nfs).map(|i| format!("N{i}")).collect();
        let mut chains = Vec::new();
        for c in 0..n_chains {
            let mut seq: Vec<String> = nfs.iter().filter(|_| rng.gen_bool(0.75)).cloned().collect();
            if seq.len() < 2 {
                seq = nfs[..2].to_vec();
            }
            chains.push(ChainPolicy {
                path_id: (c + 1) as u16,
                name: format!("c{c}"),
                nfs: seq,
                weight: rng.gen_range(0.1..1.0),
            });
        }
        let stages = nfs
            .iter()
            .map(|n| (n.clone(), rng.gen_range(1..5)))
            .collect();
        PlacementProblem::new(ChainSet { chains }, stages)
    }

    #[test]
    fn optimizers_never_beat_exhaustive_and_never_lose_to_naive() {
        let p = fig6_problem();
        let exact = p.cost(&p.exhaustive(1 << 20).unwrap()).unwrap();
        let naive = p.cost(&p.naive().unwrap()).unwrap();
        let greedy = p.cost(&p.greedy().unwrap()).unwrap();
        let annealed = p.cost(&p.anneal(7, 3000).unwrap()).unwrap();
        assert!(exact <= greedy + 1e-9);
        assert!(exact <= annealed + 1e-9);
        assert!(greedy <= naive + 1e-9);
        assert!(annealed <= naive + 1e-9);
        // The pipelet-content swap is what reaches Fig. 6(b); greedy, which
        // only adds NFs one at a time, stays at the naive placement.
        assert_eq!(p.cost(&p.anneal(11, 5000).unwrap()).unwrap(), 1.0);
        assert_eq!(greedy, 3.0);

        // The exhaustive answers as `PlacementProblem::exhaustive` gave them
        // before it became `ExhaustiveSearch` on the M = 1 fleet (b0b232c):
        // same placement, same cost, to the bit.
        let pinned = [
            (
                fig2_problem(),
                0.8,
                "  ingress0: [classifier, firewall] (Sequential)\n  egress0: [lb, router] (Sequential)\n  ingress1: [vgw] (Sequential)\n",
            ),
            (
                fig6_problem(),
                1.0,
                "  ingress0: [A, B] (Sequential)\n  egress0: [E, F] (Sequential)\n  ingress1: [D] (Sequential)\n  egress1: [C] (Sequential)\n",
            ),
            (
                ablation_instance(1),
                2.0606059306612696,
                "  ingress0: [N0] (Sequential)\n  egress0: [N5, N6] (Sequential)\n  ingress1: [N4, N3] (Sequential)\n  egress1: [N1, N2] (Sequential)\n",
            ),
            (
                ablation_instance(8),
                0.7156239412184158,
                "  ingress0: [N0, N1, N3] (Sequential)\n  egress0: [N2, N4] (Sequential)\n",
            ),
            (
                ablation_instance(29),
                1.0467253480332597,
                "  ingress0: [N0, N3] (Sequential)\n  egress0: [N4, N5] (Sequential)\n  ingress1: [N1, N2] (Sequential)\n",
            ),
        ];
        for (p, cost, shown) in pinned {
            let exact = p.exhaustive(1 << 24).unwrap();
            assert_eq!(exact.to_string(), shown);
            assert_eq!(p.cost(&exact).unwrap(), cost);
        }
    }

    #[test]
    fn unplaced_nf_detected() {
        let p = fig6_problem();
        let partial = Placement::sequential(vec![(PipeletId::ingress(0), vec!["A"])]);
        let err = traverse(&p.chains.chains[0], &partial, 0, 0, false).unwrap_err();
        assert!(matches!(err, PlacementError::UnplacedNf(_)));
        // skip_unplaced tolerates it.
        assert!(traverse(&p.chains.chains[0], &partial, 0, 0, true).is_ok());
    }

    #[test]
    fn same_ingress_out_of_order_costs_resubmission() {
        let chains = ChainSet::new(vec![ChainPolicy::new(1, "ba", vec!["B", "A"], 1.0)]).unwrap();
        let mut stages = BTreeMap::new();
        stages.insert("A".into(), 1u32);
        stages.insert("B".into(), 1u32);
        let p = PlacementProblem::new(chains, stages);
        // A before B in slot order, chain needs B then A.
        let placement = Placement::sequential(vec![(PipeletId::ingress(0), vec!["A", "B"])]);
        let c = traverse(&p.chains.chains[0], &placement, 0, 0, false).unwrap();
        assert_eq!(c.resubmissions, 1);
        assert_eq!(c.recirculations, 0);
    }

    #[test]
    fn same_egress_out_of_order_costs_recirculation() {
        let chains = ChainSet::new(vec![ChainPolicy::new(1, "ba", vec!["B", "A"], 1.0)]).unwrap();
        let mut stages = BTreeMap::new();
        stages.insert("A".into(), 1u32);
        stages.insert("B".into(), 1u32);
        let p = PlacementProblem::new(chains, stages);
        let placement = Placement::sequential(vec![(PipeletId::egress(0), vec!["A", "B"])]);
        let c = traverse(&p.chains.chains[0], &placement, 0, 0, false).unwrap();
        assert_eq!(c.recirculations, 1); // loop home between B and A
    }

    #[test]
    fn parallel_pipelet_single_nf_per_pass() {
        let chains = ChainSet::new(vec![ChainPolicy::new(1, "ab", vec!["A", "B"], 1.0)]).unwrap();
        let mut stages = BTreeMap::new();
        stages.insert("A".into(), 1u32);
        stages.insert("B".into(), 1u32);
        let p = PlacementProblem::new(chains, stages);
        let mut placement = Placement::sequential(vec![(PipeletId::ingress(0), vec!["A", "B"])]);
        placement
            .modes
            .insert(PipeletId::ingress(0), CompositionMode::Parallel);
        let c = traverse(&p.chains.chains[0], &placement, 0, 0, false).unwrap();
        // Branch transition on an ingress pipe = one resubmission (§3.2).
        assert_eq!(c.resubmissions, 1);
    }

    #[test]
    fn feasibility_surrogate() {
        let p = fig6_problem();
        // C (6) + D (6) + framework (2×2 + 1) = 17 > 12 stages.
        assert!(!p.fits(&["C".to_string(), "D".to_string()]));
        // A (2) + B (2) + framework (5) = 9 ≤ 12.
        assert!(p.fits(&["A".to_string(), "B".to_string()]));
    }

    #[test]
    fn more_pipelines_never_hurt() {
        // A 4-pipeline ASIC (Tofino-2 class) gives the optimizer more
        // pipelets: the exhaustive optimum must be at least as good as on
        // 2 pipelines, and for the Fig. 6 chain it stays at 1 recirculation.
        let two = fig6_problem();
        let mut four = fig6_problem();
        four.pipelines = 4;
        let cost2 = two.cost(&two.exhaustive(1 << 22).unwrap()).unwrap();
        let cost4 = four.cost(&four.exhaustive(1 << 24).unwrap()).unwrap();
        assert!(
            cost4 <= cost2 + 1e-9,
            "4 pipelines {cost4} vs 2 pipelines {cost2}"
        );
    }

    #[test]
    fn exhaustive_cap_enforced() {
        let p = fig6_problem();
        let err = p.exhaustive(10).unwrap_err();
        assert!(matches!(err, PlacementError::SearchTooLarge { .. }));
        // 4 pipelets ^ 64 NFs wraps a u128 to 0: the count must saturate,
        // not pass the cap and start enumerating.
        let nfs: Vec<String> = (0..64).map(|i| format!("N{i}")).collect();
        let chain = ChainPolicy {
            path_id: 1,
            name: "long".into(),
            nfs: nfs.clone(),
            weight: 1.0,
        };
        let p = PlacementProblem::new(
            ChainSet::new(vec![chain]).unwrap(),
            nfs.into_iter().map(|n| (n, 1)).collect(),
        );
        let err = p.exhaustive(1 << 24).unwrap_err();
        assert!(matches!(err, PlacementError::SearchTooLarge { .. }));
    }

    #[test]
    fn per_packet_granularity_reduces_recirculations() {
        // §7: per-packet recirculation decisions shrink the Fig. 6(a)
        // traversal from 3 recirculations to 1 (direct egress→ingress hops
        // and direct emission after the last egress NF).
        let p = fig6_problem();
        let per_port = traverse_with(
            &p.chains.chains[0],
            &fig6a_placement(),
            0,
            0,
            false,
            RecircGranularity::PerPort,
        )
        .unwrap();
        let per_packet = traverse_with(
            &p.chains.chains[0],
            &fig6a_placement(),
            0,
            0,
            false,
            RecircGranularity::PerPacket,
        )
        .unwrap();
        assert_eq!(per_port.recirculations, 3);
        assert_eq!(per_packet.recirculations, 1);
    }

    #[test]
    fn entry_on_egress_exit_mismatch_costs_extra() {
        // Single NF on egress 1, exit on pipe 0 → one recirculation to get
        // home after processing.
        let chains = ChainSet::new(vec![ChainPolicy::new(1, "x", vec!["X"], 1.0)]).unwrap();
        let mut stages = BTreeMap::new();
        stages.insert("X".into(), 1u32);
        let p = PlacementProblem::new(chains, stages);
        let placement = Placement::sequential(vec![(PipeletId::egress(1), vec!["X"])]);
        let c = traverse(&p.chains.chains[0], &placement, 0, 0, false).unwrap();
        assert_eq!(c.recirculations, 1);
        // Exit on pipe 1 instead: free.
        let c = traverse(&p.chains.chains[0], &placement, 0, 1, false).unwrap();
        assert_eq!(c.recirculations, 0);
    }
}
