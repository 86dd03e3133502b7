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
//! **One move rule**, `next_move`: the move (run, resubmit, loop, cross or
//! leave) a packet takes toward its next NF or port. The traversal model
//! folds it over a chain, routing renders each branching entry from it
//! ([`crate::routing`]), and DJV103 ([`crate::lint::lint_routing`]) holds
//! the installed entries to it.
//!
//! **One feasibility rule**: every chain NF on exactly one switch, every
//! pipelet within its stage budget, every chain visiting switches in
//! non-decreasing order (the wiring `deploy_cluster` builds is forward-only).
//! At M = 1 that is "everything placed and everything fits".
//!
//! The objective, the rule and the traversal model read a *located view*
//! of a candidate, never its NF names: the chains are interned once per
//! problem (NF index, stage demand, each chain as NF indices), and the view
//! holds each slot's NF count and stage load and each NF's slot and
//! position. A search refills one view from every assignment vector it
//! proposes and decodes only the placement it returns; the `&Placement`
//! API ([`FleetProblem::score`], [`PlacementProblem::cost`], [`traverse`],
//! …) builds the view from the placement in one pass, keeping what only a
//! placement can say — parallel pipelets, any slot order, NFs on no chain
//! (they still take stages), and an NF listed twice (its first listing
//! counts).
//!
//! **One enumerator**, [`ExhaustiveSearch`], behind the [`PlacementSearch`]
//! trait it shares with the seeded [`AnnealingSearch`].
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
//! **One annealing loop, two neighbourhoods.** [`AnnealingSearch`] and
//! [`PlacementProblem::anneal`] run the same Metropolis loop on assignment
//! vectors and differ only in what they propose. The M = 1 annealer moves
//! one NF or swaps the *contents* of two pipelets — the only feasible step
//! from Fig. 6(a) to 6(b) — by relabelling two slots in the vector.
//! [`AnnealingSearch`] moves one NF or swaps two NFs, which scales to fleets
//! but stalls at 2 recirculations on Fig. 6.

mod fleet;
mod search;

pub use fleet::{
    chain_latency_ns, ClusterCost, ClusterPlacement, ClusterProblem, FleetProblem, FleetScore,
    FleetSlot, HOP_WEIGHT,
};
pub use search::{AnnealingSearch, ExhaustiveSearch, PlacementSearch, SearchOutcome};

use crate::chain::{ChainPolicy, ChainSet};
use crate::compose::CompositionMode;
use dejavu_asic::{Gress, PipeletId};
use fleet::{Interned, Located};
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

/// Objective cost of one recirculation: it consumes loopback-port
/// bandwidth (§4) and dominates.
pub const RECIRC_WEIGHT: f64 = 1.0;

/// Objective cost of one resubmission: it only revisits the ingress pipe,
/// so it is much cheaper than a recirculation.
pub const RESUB_WEIGHT: f64 = 0.25;

/// Framework stages consumed per hosted NF (dispatch + flag check).
pub const FRAMEWORK_STAGES_PER_NF: u32 = 2;

/// Framework stages consumed per pipelet hosting any NF, regardless of how
/// many (branching / decap).
pub const FRAMEWORK_STAGES_FIXED: u32 = 1;

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

/// The one "can this pass run the NF" rule: a sequential pipelet runs later
/// slots only, a parallel one a single NF per pass.
fn pass_can_run(mode: CompositionMode, last: Option<usize>, slot: usize) -> bool {
    match mode {
        CompositionMode::Sequential => last.is_none_or(|l| slot > l),
        CompositionMode::Parallel => last.is_none(),
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
    // The model needs no stage data: the chain is interned on its own.
    let stageless = PlacementProblem::new(ChainSet { chains: Vec::new() }, BTreeMap::new());
    let fleet = Interned::new(&stageless, std::slice::from_ref(chain));
    let view = Located::of(&fleet, std::slice::from_ref(placement));
    let ends = (entry_pipeline, exit_pipeline);
    let c = fleet::chain_cost(&fleet, 0, &view, ends, granularity, skip_unplaced)?;
    Ok(TraversalCost {
        recirculations: c.recirculations,
        resubmissions: c.resubmissions,
    })
}

/// An NF a chain visits: the pipelet hosting it and its position there.
type Visit = (PipeletId, usize);

/// One move of a packet through a switch — the unit the traversal model
/// prices and routing installs. Only a loop and a resubmission cost
/// anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Move {
    /// The current pass runs the next NF.
    Run,
    /// A fresh pass through the same ingress pipe: one resubmission.
    Resubmit,
    /// Out a loopback port into the ingress pipe `to`: one recirculation.
    /// From an ingress pipe the packet passes through `to`'s egress pipe on
    /// the way.
    Loop {
        /// The ingress pipelet the packet re-enters.
        to: PipeletId,
    },
    /// Across the traffic manager into the egress pipe `to`: free.
    Cross {
        /// The egress pipelet the packet enters.
        to: PipeletId,
    },
    /// Out of the switch: from an ingress pipe across the traffic manager
    /// to the port's egress pipe, or from the egress pipe of the port.
    Leave,
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Move::Run => f.write_str("run"),
            Move::Resubmit => f.write_str("resubmit"),
            Move::Loop { to } => write!(f, "loop to {to}"),
            Move::Cross { to } => write!(f, "cross to {to}"),
            Move::Leave => f.write_str("leave"),
        }
    }
}

/// Where a packet heads next.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Goal {
    /// The NF at a visit, on a pipelet composed in the given mode.
    Run(Visit, CompositionMode),
    /// A port on `Some(pipeline)`; `None` for a port chosen only in an
    /// ingress pass, so an egress pass reaches it through its own ingress.
    Leave(Option<usize>),
}

/// The slot of "the last NF a pass ran" once the pass is over: at the
/// branching table, which every ingress pass applies after all its slots.
pub(crate) const PASS_DONE: Option<usize> = Some(usize::MAX);

/// The one move rule: the move a packet in `cur`, whose pass last ran
/// `last`, takes toward `goal`. The traversal model folds it over a chain
/// ([`Walk`]), routing renders its first move from each ingress pipelet as
/// a branching entry, and DJV103 walks the installed entries against it.
pub(crate) fn next_move(
    cur: PipeletId,
    last: Option<usize>,
    goal: Goal,
    granularity: RecircGranularity,
) -> Move {
    let home = Move::Loop {
        to: PipeletId::ingress(cur.pipeline),
    };
    match (cur.gress, goal) {
        (Gress::Ingress, Goal::Leave(_)) => Move::Leave,
        (Gress::Egress, Goal::Leave(exit)) => {
            // Per-port hardware leaves an egress pipe only by the port the
            // ingress chose; per-packet hardware may emit after egress.
            if granularity == RecircGranularity::PerPacket || exit == Some(cur.pipeline) {
                Move::Leave
            } else {
                home
            }
        }
        (_, Goal::Run((target, slot), mode)) if target == cur => {
            if pass_can_run(mode, last, slot) {
                Move::Run
            } else if cur.gress == Gress::Ingress {
                Move::Resubmit
            } else {
                // A fresh egress pass: recirculate home, cross back.
                home
            }
        }
        (Gress::Ingress, Goal::Run((target, _), _)) => match target.gress {
            Gress::Egress => Move::Cross { to: target },
            Gress::Ingress => Move::Loop { to: target },
        },
        (Gress::Egress, Goal::Run((target, _), _))
            if target.gress == Gress::Ingress && granularity == RecircGranularity::PerPacket =>
        {
            // Per-packet granularity: one recirculation lands the packet in
            // the target ingress directly.
            Move::Loop { to: target }
        }
        // Per-port hardware: an egress pipe's only way on is its own
        // pipeline's loopback port.
        (Gress::Egress, Goal::Run(..)) => home,
    }
}

/// The traversal model proper: a packet walking a chain, one [`next_move`]
/// at a time, through one switch per run of visits — the whole chain, or
/// the part of it each cluster member hosts.
pub(crate) struct Walk {
    granularity: RecircGranularity,
    /// The pipelet the packet is in.
    pub(crate) cur: PipeletId,
    /// Slot of the last NF the current pass ran.
    last: Option<usize>,
    /// Moves and passes on this switch, against a runaway model.
    steps: usize,
    /// Loops taken so far, across switches.
    cost: TraversalCost,
}

impl Walk {
    /// A packet arriving from outside on `entry_pipeline`.
    fn enter(entry_pipeline: usize, granularity: RecircGranularity) -> Self {
        Self::at(PipeletId::ingress(entry_pipeline), None, granularity)
    }

    /// A packet in `cur` whose pass last ran `last`.
    pub(crate) fn at(cur: PipeletId, last: Option<usize>, granularity: RecircGranularity) -> Self {
        Walk {
            granularity,
            cur,
            last,
            steps: 0,
            cost: TraversalCost::default(),
        }
    }

    /// Takes the rule's next move toward `goal`, counting what it costs.
    pub(crate) fn step(&mut self, goal: Goal) -> Move {
        let m = next_move(self.cur, self.last, goal, self.granularity);
        match m {
            Move::Run => {
                if let Goal::Run((_, slot), _) = goal {
                    self.last = Some(slot);
                }
            }
            Move::Resubmit => {
                self.cost.resubmissions += 1;
                self.last = None;
            }
            Move::Loop { to } => {
                self.cost.recirculations += 1;
                (self.cur, self.last) = (to, None);
            }
            Move::Cross { to } => (self.cur, self.last) = (to, None),
            Move::Leave => {}
        }
        m
    }

    /// Moves the packet until a pass has run the NF at `slot` of `target`,
    /// a pipelet composed in `mode`. Errs (with nothing to say) when the
    /// model has taken more than 10 000 steps on this switch.
    fn visit(&mut self, visit: Visit, mode: CompositionMode) -> Result<(), ()> {
        loop {
            self.steps += 1;
            if self.steps > 10_000 {
                return Err(());
            }
            if self.step(Goal::Run(visit, mode)) == Move::Run {
                return Ok(());
            }
        }
    }

    /// Takes the packet out by a port on the exit pipeline of `ends`; a
    /// further visit enters the next switch on its entry pipeline.
    fn leave(&mut self, (entry_pipeline, exit_pipeline): (usize, usize)) {
        while self.step(Goal::Leave(Some(exit_pipeline))) != Move::Leave {}
        (self.cur, self.last, self.steps) = (PipeletId::ingress(entry_pipeline), None, 0);
    }
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
    /// Pipeline where external traffic enters.
    pub entry_pipeline: usize,
    /// Pipeline owning the final output ports.
    pub exit_pipeline: usize,
}

impl PlacementProblem {
    /// A problem over the default two-pipeline, 12-stage profile.
    pub fn new(chains: ChainSet, nf_stages: BTreeMap<String, u32>) -> Self {
        PlacementProblem {
            pipelines: 2,
            stages_per_pipelet: 12,
            chains,
            nf_stages,
            entry_pipeline: 0,
            exit_pipeline: 0,
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
        let load = nfs.iter().map(|n| self.nf_demand(n)).sum();
        self.stage_demand(nfs.len(), load)
    }

    /// Stages one hosted NF takes: its span plus its framework stages.
    fn nf_demand(&self, nf: &str) -> u32 {
        self.nf_stages.get(nf).copied().unwrap_or(1) + FRAMEWORK_STAGES_PER_NF
    }

    /// Stage demand of a pipelet hosting `hosted` NFs whose
    /// [`nf_demand`](Self::nf_demand)s sum to `load`.
    fn stage_demand(&self, hosted: usize, load: u32) -> u32 {
        if hosted == 0 {
            0
        } else {
            FRAMEWORK_STAGES_FIXED + load
        }
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
        let fleet = self.interned();
        fleet::feasible(
            &fleet,
            &Located::of(&fleet, std::slice::from_ref(placement)),
        )
    }

    /// The chains on indices, for locating candidates against.
    fn interned(&self) -> Interned<'_> {
        Interned::new(self, &self.chains.chains)
    }

    /// Weighted objective of a placement over all chains: the fleet
    /// objective at M = 1.
    pub fn cost(&self, placement: &Placement) -> Result<f64, PlacementError> {
        Self::cost_of(&self.interned(), placement, false)
    }

    /// [`cost`](Self::cost) against chains interned once, optionally
    /// skipping unplaced NFs (partial placements during greedy
    /// construction).
    fn cost_of(
        fleet: &Interned,
        placement: &Placement,
        skip_unplaced: bool,
    ) -> Result<f64, PlacementError> {
        let view = Located::of(fleet, std::slice::from_ref(placement));
        Ok(fleet::score(fleet, fleet::SINGLE_PRESSURE, &view, skip_unplaced)?.weighted)
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

        let fleet = self.interned();
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
                let cost = Self::cost_of(&fleet, &fleet.canonicalize(trial), true)?;
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
        let placement = fleet.canonicalize(placement);
        // Greedy construction can land in a local optimum worse than the
        // trivial baseline; never return worse than naive.
        if let Ok(naive) = self.naive() {
            let cost = |p| Self::cost_of(&fleet, p, false);
            if let (Ok(gc), Ok(nc)) = (cost(&placement), cost(&naive)) {
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

    /// Simulated annealing from the naive start (greedy when there is no
    /// naive placement). Deterministic for a given seed.
    pub fn anneal(&self, seed: u64, iterations: usize) -> Result<Placement, PlacementError> {
        let problem = FleetProblem::single(self.clone());
        let mut space = search::Space::new(&problem);
        let start = space.encode(&[self.naive().or_else(|_| self.greedy())?])?;
        let n_slots = space.slots.len();
        let cooling = (0.01f64 / 2.0).powf(1.0 / iterations.max(1) as f64);
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = (2.0, cooling);
        // Moves: (a) reassign one NF, or (b) swap the entire contents of two
        // pipelets. The swap escapes the local optima where single
        // reassignments pass through infeasible states — e.g. turning
        // Fig. 6(a) into Fig. 6(b) swaps the two egress pipelets wholesale.
        // In the vector it relabels two slots.
        let propose = |rng: &mut StdRng, assignment: &mut [usize]| {
            if rng.gen_bool(0.7) {
                let nf = rng.gen_range(0..assignment.len());
                assignment[nf] = rng.gen_range(0..n_slots);
            } else {
                let (a, b) = (rng.gen_range(0..n_slots), rng.gen_range(0..n_slots));
                for slot in assignment {
                    if *slot == a {
                        *slot = b;
                    } else if *slot == b {
                        *slot = a;
                    }
                }
            }
        };
        let mut found = search::anneal(&mut space, start, &mut rng, iterations, schedule, propose)?;
        Ok(found.placement.switches.swap_remove(0))
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

    /// FNV-1a of `s`: a placement pinned in one number.
    pub(super) fn fnv(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn the_single_switch_annealer_is_pinned_bit_for_bit() {
        // Recorded on the loop that built, canonicalized and located a
        // `Placement` for every proposal: the cost's bits and an FNV of the
        // placement's `Display`, per (seed, iterations). At 8 stages a
        // pipelet, `ablation_instance` 14 and 36 have no naive placement,
        // so the search starts from greedy.
        let tight = |seed| PlacementProblem {
            stages_per_pipelet: 8,
            ..ablation_instance(seed)
        };
        let fig6_a = (0x4008_0000_0000_0000, 0xb030_444f_2056_3e70);
        let fig6_b = (0x3ff0_0000_0000_0000, 0xb021_337a_a89f_1ef6);
        // Per problem: (seed, iterations) → (cost bits, FNV of `Display`).
        type Runs<'a> = &'a [((u64, usize), (u64, u64))];
        let pinned: [(PlacementProblem, Runs); 8] = [
            (
                fig6_problem(),
                &[
                    ((11, 5000), fig6_b),
                    ((7, 3000), fig6_b),
                    ((0, 2000), fig6_b),
                    ((3, 1), fig6_b),
                    ((5, 0), fig6_a),
                ],
            ),
            (
                fig2_problem(),
                &[
                    ((3, 4000), (0x3fe9_9999_9999_999a, 0xeb9c_e9a5_394e_9a07)),
                    ((1, 500), (0x3fe9_9999_9999_999a, 0xf7c7_c163_2ce1_3743)),
                ],
            ),
            (
                ablation_instance(1),
                &[(
                    (1 ^ 0xABCD, 2000),
                    (0x4002_710b_c698_2926, 0x5e12_ef66_2082_eac2),
                )],
            ),
            (
                ablation_instance(8),
                &[(
                    (8 ^ 0xABCD, 2000),
                    (0x3fe6_e664_2df8_912e, 0x111e_df53_6e10_99c5),
                )],
            ),
            (
                ablation_instance(29),
                &[(
                    (29 ^ 0xABCD, 2000),
                    (0x3ff0_bf63_141b_2731, 0x853d_48bb_3626_4c50),
                )],
            ),
            (
                ablation_instance(13),
                &[((13, 500), (0x0, 0x6a9f_2819_b110_2cb4))],
            ),
            (
                tight(14),
                &[
                    ((14, 2000), (0x400e_5f6b_5571_18be, 0xf97e_69a8_6724_9dd7)),
                    ((2, 300), (0x4011_a0e5_9dff_13c7, 0x76c0_26af_ac10_38e3)),
                ],
            ),
            (
                tight(36),
                &[((36, 2000), (0x4004_b43a_694d_3afe, 0x5e49_3c8e_26b2_a8bd))],
            ),
        ];
        for (p, runs) in pinned {
            for &((seed, iterations), (cost, shown)) in runs {
                let annealed = p.anneal(seed, iterations).unwrap();
                let got = (
                    p.cost(&annealed).unwrap().to_bits(),
                    fnv(&annealed.to_string()),
                );
                assert_eq!(got, (cost, shown), "({seed}, {iterations}):\n{annealed}");
            }
        }
        assert!(tight(14).naive().is_err() && tight(36).naive().is_err());
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
    fn cost_reads_what_only_a_placement_can_say() {
        // The Fig. 6, resubmission, recirculation and parallel cases above,
        // priced through `cost`: a reordered slot list and a parallel
        // pipelet are placements no assignment vector describes.
        let two = |nfs: Vec<&str>| {
            let chains = ChainSet::new(vec![ChainPolicy::new(1, "c", nfs, 1.0)]).unwrap();
            PlacementProblem::new(chains, [("A".into(), 1), ("B".into(), 1)].into())
        };
        let mut parallel = Placement::sequential(vec![(PipeletId::ingress(0), vec!["A", "B"])]);
        parallel
            .modes
            .insert(PipeletId::ingress(0), CompositionMode::Parallel);
        let cases = [
            (fig6_problem(), fig6a_placement(), (3, 0)),
            (fig6_problem(), fig6b_placement(), (1, 0)),
            (
                two(vec!["B", "A"]),
                Placement::sequential(vec![(PipeletId::ingress(0), vec!["A", "B"])]),
                (0, 1),
            ),
            (
                two(vec!["B", "A"]),
                Placement::sequential(vec![(PipeletId::egress(0), vec!["A", "B"])]),
                (1, 0),
            ),
            (two(vec!["A", "B"]), parallel, (0, 1)),
        ];
        for (p, placement, (recirc, resub)) in cases {
            let c = traverse(&p.chains.chains[0], &placement, 0, 0, false).unwrap();
            assert_eq!((c.recirculations, c.resubmissions), (recirc, resub));
            let weighted = f64::from(recirc) + 0.25 * f64::from(resub);
            assert_eq!(p.cost(&placement).unwrap(), weighted, "{placement}");
            assert!(p.feasible(&placement), "{placement}");
        }

        // NFs on no chain still take stages: fit, and fleet pressure.
        let p = fig6_problem();
        let mut stray = fig6b_placement();
        let ing1 = stray.pipelets.get_mut(&PipeletId::ingress(1)).unwrap();
        ing1.extend(["X".to_string(), "Y".to_string()]);
        assert_eq!(p.cost(&stray).unwrap(), 1.0);
        assert!(!p.feasible(&stray), "D + X + Y overflow ingress1");
        let fleet = FleetProblem::new(ClusterProblem::new(p.clone(), 1));
        let score = |p: &Placement| {
            let switches = vec![p.clone()];
            fleet.score(&ClusterPlacement { switches }).unwrap()
        };
        let util = |demand: f64| (demand / 48.0) * (demand / 48.0);
        assert_eq!(score(&fig6b_placement()).pressure, util(36.0));
        assert_eq!(score(&stray).pressure, util(42.0));

        // An NF listed twice is where it is first listed: C on egress0 (as
        // in Fig. 6(a)) and again after E, F on egress1 walks as Fig. 6(a).
        let mut twice = fig6a_placement();
        let eg1 = twice.pipelets.get_mut(&PipeletId::egress(1)).unwrap();
        eg1.push("C".to_string());
        assert_eq!(p.cost(&twice).unwrap(), 3.0);
        let c = traverse(&p.chains.chains[0], &twice, 0, 0, false).unwrap();
        assert_eq!(c.recirculations, 3);
        // Across switches the first member hosting it counts, and the
        // placement is infeasible: C sits on two switches.
        let fleet = FleetProblem::new(ClusterProblem::new(p.clone(), 2));
        let shadow = Placement::sequential(vec![(PipeletId::egress(1), vec!["C"])]);
        let spread = ClusterPlacement {
            switches: vec![fig6a_placement(), shadow],
        };
        assert_eq!(spread.switch_of("C"), Some(0));
        assert!(!fleet.feasible(&spread));
        let alone = ClusterPlacement {
            switches: vec![fig6a_placement(), Placement::default()],
        };
        let (spread, alone) = (fleet.score(&spread).unwrap(), fleet.score(&alone).unwrap());
        assert_eq!(spread.recirculations, 3);
        assert_eq!(spread.inter_switch_hops, 0);
        assert!(spread.pressure > alone.pressure);
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
