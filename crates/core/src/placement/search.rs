//! Search strategies over the fleet objective (see the [module doc](super)).
//! The randomized ones take an explicit seed and draw from [`StdRng`], so a
//! (problem, seed) pair reproduces bit-identical results — the orchestrator's
//! decisions are replayable.

use super::fleet::{
    self, ClusterPlacement, FleetProblem, FleetScore, FleetSlot, Interned, Located,
};
use super::{Placement, PlacementError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of one search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best feasible placement found.
    pub placement: ClusterPlacement,
    /// Its fleet score.
    pub score: FleetScore,
    /// How many candidate placements were scored (search effort).
    pub evaluated: u64,
}

/// A placement search strategy over the fleet objective.
pub trait PlacementSearch {
    /// Human-readable strategy name (for reports and benches).
    fn name(&self) -> &'static str;

    /// Runs the search; errors if the instance admits no feasible
    /// placement the strategy can find (or, for exhaustive, if the space
    /// exceeds its cap).
    fn search(&self, problem: &FleetProblem) -> Result<SearchOutcome, PlacementError>;
}

/// What a search derives from its problem once: assignment vectors say
/// `fleet.nfs[i]` lives in `slots[a[i]]`, and `view` is where each
/// candidate is located to be checked and scored — no candidate is decoded
/// but the one returned.
pub(super) struct Space<'a> {
    problem: &'a FleetProblem,
    fleet: Interned<'a>,
    pub(super) slots: Vec<FleetSlot>,
    view: Located,
}

impl<'a> Space<'a> {
    pub(super) fn new(problem: &'a FleetProblem) -> Self {
        let fleet = problem.cluster.template.interned();
        let slots = problem.slots();
        let view = Located::for_assignments(&fleet, &slots, problem.switches());
        Space {
            problem,
            fleet,
            slots,
            view,
        }
    }

    /// Decodes an assignment vector. NFs are pushed in canonical-index
    /// order, so every pipelet's list is already in canonical order.
    fn decode(&self, assignment: &[usize]) -> ClusterPlacement {
        let mut switches = vec![Placement::default(); self.problem.switches()];
        for (nf, &slot) in self.fleet.nfs.iter().zip(assignment) {
            let (sw, pipelet) = self.slots[slot];
            switches[sw]
                .pipelets
                .entry(pipelet)
                .or_default()
                .push(nf.to_string());
        }
        ClusterPlacement { switches }
    }

    /// Encodes a placement of every member as an assignment vector, with
    /// its score: where a search starts. Errs when some chain NF is
    /// unplaced.
    pub(super) fn encode(
        &self,
        switches: &[Placement],
    ) -> Result<(Vec<usize>, FleetScore), PlacementError> {
        let placed = Located::of(&self.fleet, switches);
        let assignment = (0..self.fleet.nfs.len())
            .map(|nf| {
                let slot = placed.slot_of(nf)?;
                self.slots.iter().position(|&s| s == slot)
            })
            .collect::<Option<_>>()
            .ok_or_else(|| PlacementError::Infeasible("seed left NFs unplaced".into()))?;
        let score = fleet::score(&self.fleet, self.problem.pressure_weight, &placed, false)?;
        Ok((assignment, score))
    }

    /// Locates a candidate and scores it if it is feasible.
    fn evaluate(&mut self, assignment: &[usize]) -> Result<Option<FleetScore>, PlacementError> {
        self.view.assign(&self.fleet, assignment);
        if !fleet::feasible(&self.fleet, &self.view) {
            return Ok(None);
        }
        fleet::score(&self.fleet, self.problem.pressure_weight, &self.view, false).map(Some)
    }

    /// Where the fleet search starts: the seed placement, encoded.
    /// `greedy_spill` seeds can break the monotone rule, and a search
    /// started on an infeasible point rejects every proposal and would
    /// return it; such a seed is replaced by the monotone first-fit
    /// (feasible by construction), and if there is none the search has no
    /// start.
    fn start(&self) -> Result<(Vec<usize>, FleetScore), PlacementError> {
        let mut seed = self.problem.seed_placement()?;
        if !fleet::feasible(&self.fleet, &Located::of(&self.fleet, &seed.switches)) {
            seed = self.problem.monotone_first_fit()?;
        }
        self.encode(&seed.switches)
    }
}

/// Exact enumeration of every NF→slot assignment. Oracle for small
/// instances; errors with [`PlacementError::SearchTooLarge`] beyond
/// `cap` candidates.
#[derive(Debug, Clone)]
pub struct ExhaustiveSearch {
    /// Maximum number of candidate assignments to enumerate.
    pub cap: u128,
}

impl Default for ExhaustiveSearch {
    fn default() -> Self {
        ExhaustiveSearch { cap: 5_000_000 }
    }
}

impl PlacementSearch for ExhaustiveSearch {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn search(&self, problem: &FleetProblem) -> Result<SearchOutcome, PlacementError> {
        let mut space = Space::new(problem);
        let n_slots = space.slots.len();
        let n_nfs = space.fleet.nfs.len();
        let candidates = (n_slots as u128)
            .checked_pow(n_nfs as u32)
            .unwrap_or(u128::MAX);
        if candidates > self.cap {
            return Err(PlacementError::SearchTooLarge {
                candidates,
                cap: self.cap,
            });
        }
        if candidates == 0 {
            return Err(PlacementError::Infeasible(
                "no slot to place an NF on".to_string(),
            ));
        }
        let mut assignment = vec![0usize; n_nfs];
        let mut best: Option<(Vec<usize>, FleetScore)> = None;
        let mut evaluated = 0u64;
        loop {
            if let Some(score) = space.evaluate(&assignment)? {
                evaluated += 1;
                if best
                    .as_ref()
                    .is_none_or(|(_, b)| score.weighted < b.weighted)
                {
                    best = Some((assignment.clone(), score));
                }
            }
            // Odometer increment over the slot radix.
            let mut i = 0;
            loop {
                if i == assignment.len() {
                    let (best, score) = best.ok_or_else(|| {
                        PlacementError::Infeasible(
                            "no feasible assignment in exhaustive space".to_string(),
                        )
                    })?;
                    return Ok(SearchOutcome {
                        placement: space.decode(&best),
                        score,
                        evaluated,
                    });
                }
                assignment[i] += 1;
                if assignment[i] < n_slots {
                    break;
                }
                assignment[i] = 0;
                i += 1;
            }
        }
    }
}

/// The one annealing loop (cf. the SFC placement survey, arXiv:1910.02613):
/// from `start`, `propose` rewrites a copy of the current assignment; a
/// feasible candidate is accepted downhill always and uphill with Metropolis
/// probability, at a temperature that starts at `start_temp` and is
/// multiplied by `cooling` after every proposal. The neighbourhood is the
/// caller's: [`AnnealingSearch`]'s, or
/// [`PlacementProblem::anneal`](super::PlacementProblem::anneal)'s.
pub(super) fn anneal(
    space: &mut Space,
    (mut current, mut current_score): (Vec<usize>, FleetScore),
    rng: &mut StdRng,
    iterations: usize,
    (start_temp, cooling): (f64, f64),
    mut propose: impl FnMut(&mut StdRng, &mut [usize]),
) -> Result<SearchOutcome, PlacementError> {
    let mut best = current.clone();
    let mut best_score = current_score;
    let mut evaluated = 1u64;
    // No NF to move: the start is the answer.
    let iterations = if current.is_empty() { 0 } else { iterations };
    let mut temp = start_temp;
    // Proposals are written over a copy of `current` in one buffer.
    let mut candidate = current.clone();
    for _ in 0..iterations {
        candidate.copy_from_slice(&current);
        propose(rng, &mut candidate);
        if let Some(score) = space.evaluate(&candidate)? {
            evaluated += 1;
            let delta = score.weighted - current_score.weighted;
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp() {
                std::mem::swap(&mut current, &mut candidate);
                current_score = score;
                if score.weighted < best_score.weighted {
                    best.copy_from_slice(&current);
                    best_score = score;
                }
            }
        }
        temp *= cooling;
    }
    Ok(SearchOutcome {
        placement: space.decode(&best),
        score: best_score,
        evaluated,
    })
}

/// Simulated annealing over the fleet: from the seed placement, propose
/// single-NF reassignments or two-NF swaps under a fixed geometric cooling
/// schedule.
#[derive(Debug, Clone)]
pub struct AnnealingSearch {
    /// RNG seed — same seed, same problem → same answer.
    pub seed: u64,
    /// Number of proposal steps.
    pub iterations: u32,
}

impl AnnealingSearch {
    /// Starting temperature (objective units).
    const START_TEMP: f64 = 4.0;
    /// Final temperature.
    const END_TEMP: f64 = 0.05;

    /// A search of `iterations` proposal steps.
    pub fn new(seed: u64, iterations: u32) -> Self {
        AnnealingSearch { seed, iterations }
    }
}

impl PlacementSearch for AnnealingSearch {
    fn name(&self) -> &'static str {
        "annealing"
    }

    fn search(&self, problem: &FleetProblem) -> Result<SearchOutcome, PlacementError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut space = Space::new(problem);
        let start = space.start()?;
        let n_slots = space.slots.len();
        let cooling = if self.iterations > 1 {
            (Self::END_TEMP / Self::START_TEMP).powf(1.0 / f64::from(self.iterations - 1))
        } else {
            1.0
        };
        let schedule = (Self::START_TEMP, cooling);
        let propose = |rng: &mut StdRng, candidate: &mut [usize]| {
            if candidate.len() >= 2 && rng.gen_bool(0.3) {
                // Swap the slots of two NFs (preserves per-slot load shape).
                let a = rng.gen_range(0..candidate.len());
                let b = rng.gen_range(0..candidate.len());
                candidate.swap(a, b);
            } else {
                // Reassign one NF to a fresh slot.
                let i = rng.gen_range(0..candidate.len());
                candidate[i] = rng.gen_range(0..n_slots);
            }
        };
        let iterations = self.iterations as usize;
        anneal(&mut space, start, &mut rng, iterations, schedule, propose)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainPolicy, ChainSet};
    use crate::placement::tests::fnv;
    use crate::placement::{ClusterProblem, PlacementProblem};

    fn metaheuristics() -> [Box<dyn PlacementSearch>; 1] {
        [Box::new(AnnealingSearch::new(3, 200))]
    }

    #[test]
    fn an_infeasible_seed_is_repaired_not_returned() {
        // On these instances `greedy_spill` hands back a non-monotone seed;
        // every proposal from it is rejected, and the searches used to
        // return it as the best "feasible" placement.
        for instance in [1, 2, 4, 5] {
            let problem = FleetProblem::synthetic(100, 8, instance);
            let seed = problem.seed_placement().unwrap();
            assert!(!problem.feasible(&seed), "instance {instance}");
            for search in metaheuristics() {
                if let Ok(found) = search.search(&problem) {
                    assert!(problem.feasible(&found.placement), "instance {instance}");
                    assert!(found.evaluated > 1, "{} never moved", search.name());
                }
            }
        }
    }

    #[test]
    fn no_monotone_start_is_an_error() {
        // A, C fill switch 0 and B spills to switch 1, so chain "ba" runs
        // against cluster order; the precedence A→C→B→A is cyclic, so no
        // monotone placement exists either.
        let chains = ChainSet::new(vec![
            ChainPolicy::new(1, "acb", vec!["A", "C", "B"], 1.0),
            ChainPolicy::new(2, "ba", vec!["B", "A"], 1.0),
        ])
        .unwrap();
        let stages = ["A", "B", "C"].map(|n| (n.to_string(), 9u32));
        let mut template = PlacementProblem::new(chains, stages.into_iter().collect());
        template.pipelines = 1;
        let problem = FleetProblem::new(ClusterProblem::new(template, 2));
        assert!(!problem.feasible(&problem.seed_placement().unwrap()));
        for search in metaheuristics() {
            let err = search.search(&problem).unwrap_err();
            assert!(matches!(err, PlacementError::Infeasible(_)), "{err}");
        }
    }

    /// Every member's placement as `Display` prints it.
    fn shown(placement: &ClusterPlacement) -> String {
        let members = placement.switches.iter().enumerate();
        members
            .map(|(sw, p)| format!("switch {sw}:\n{p}"))
            .collect()
    }

    /// The fleets `plan_deploy` re-plans at seed 1: the first eight
    /// `synthetic(100, 8, 64 + j)` whose seed placement is feasible.
    fn plan_deploy_fleets() -> Vec<FleetProblem> {
        let fleets = (64..104).map(|s| FleetProblem::synthetic(100, 8, s));
        let usable = fleets.filter(|p| p.seed_placement().is_ok_and(|s| p.feasible(&s)));
        usable.take(8).collect()
    }

    /// `migrate_live`'s three-switch fleet: the NAT cannot share a pipelet
    /// with the classifier.
    fn migrate_live_fleet() -> FleetProblem {
        let chains = ChainSet::new(vec![
            ChainPolicy::new(1, "nat_path", vec!["classifier", "nat", "router"], 1.0),
            ChainPolicy::new(2, "mark_path", vec!["classifier", "mark_a"], 6.0),
        ])
        .unwrap();
        let stages = [("classifier", 2), ("nat", 6), ("router", 2), ("mark_a", 2)];
        let stages = stages
            .into_iter()
            .map(|(n, s)| (n.to_string(), s))
            .collect();
        let mut template = PlacementProblem::new(chains, stages);
        template.pipelines = 1;
        FleetProblem::new(ClusterProblem::new(template, 3))
    }

    #[test]
    fn outcomes_are_pinned_bit_for_bit() {
        // Recorded at 9a59bd7, where every candidate was decoded into
        // `Placement`s before it was checked and scored.
        let fleets = plan_deploy_fleets();
        let annealed: [(u64, u64, u64); 8] = [
            (0x4077_adb6_c16c_16c5, 358, 0x2551_14a5_6ad1_ad41),
            (0x4077_c28e_93e9_3e92, 332, 0xad4f_138b_3d87_624b),
            (0x4078_01a7_d27d_27d4, 304, 0xdb2c_dd51_0f4e_84d1),
            (0x4077_7ded_dddd_dddf, 357, 0x6923_9a38_fa2b_c285),
            (0x4075_9dae_38e3_8e3a, 295, 0x3694_54e0_28fd_f307),
            (0x4076_cb1e_38e3_8e37, 300, 0x6ed9_f317_1efe_8f97),
            (0x4078_af5e_38e3_8e38, 263, 0xcf17_786e_23c9_3ed7),
            (0x4075_0d44_9f49_f4a0, 338, 0xa703_104c_66f5_2c0f),
        ];
        let runs = annealed.iter().enumerate().map(|(j, pin)| {
            let search: Box<dyn PlacementSearch> = Box::new(AnnealingSearch::new(1, 2000));
            (search, j, pin)
        });
        for (search, j, &(weighted, evaluated, placement)) in runs {
            let found = search.search(&fleets[j]).unwrap();
            let shown = shown(&found.placement);
            let got = (found.score.weighted.to_bits(), found.evaluated, fnv(&shown));
            let context = format!("{} on fleet {j}:\n{shown}", search.name());
            assert_eq!(got, (weighted, evaluated, placement), "{context}");
            assert_eq!(
                Ok(found.score),
                fleets[j].score(&found.placement),
                "{context}"
            );
        }

        let fleet = migrate_live_fleet();
        let exhaustive = [
            (
                fleet.clone(),
                0x4003_d8e3_8e38_e38e,
                "switch 0:\n  ingress0: [classifier, mark_a] (Sequential)\nswitch 1:\n  ingress0: [nat] (Sequential)\n  egress0: [router] (Sequential)\nswitch 2:\n",
            ),
            (
                fleet.with_weights(&[8.0, 1.0]),
                0x4025_3638_e38e_38e4,
                "switch 0:\n  ingress0: [classifier, router] (Sequential)\n  egress0: [nat] (Sequential)\nswitch 1:\n  ingress0: [mark_a] (Sequential)\nswitch 2:\n",
            ),
        ];
        for (fleet, weighted, placement) in exhaustive {
            let found = ExhaustiveSearch::default().search(&fleet).unwrap();
            assert_eq!(found.score.weighted.to_bits(), weighted);
            assert_eq!(found.evaluated, 156);
            assert_eq!(shown(&found.placement), placement);
        }
    }

    /// A small fleet over NFs `N0`…`N5`: chains list them in any order,
    /// repeats allowed, and `stages` can overflow a pipelet.
    fn small_fleet(
        (switches, pipelines): (usize, usize),
        chains: &[(Vec<usize>, u32)],
        stages: &[u32],
    ) -> FleetProblem {
        let name = |i: &usize| format!("N{i}");
        let chains = chains
            .iter()
            .enumerate()
            .map(|(c, (nfs, weight))| ChainPolicy {
                path_id: c as u16 + 1,
                name: format!("c{c}"),
                nfs: nfs.iter().map(name).collect(),
                weight: f64::from(*weight) / 8.0,
            });
        let stages = stages.iter().enumerate().map(|(i, s)| (name(&i), *s));
        let chains = ChainSet::new(chains.collect()).unwrap();
        let mut template = PlacementProblem::new(chains, stages.collect());
        template.pipelines = pipelines;
        FleetProblem::new(ClusterProblem::new(template, switches))
    }

    /// A score as bits, so that equal means bit-identical.
    fn bits(s: FleetScore) -> (u32, u32, u32, u64, u64) {
        let (w, p) = (s.weighted.to_bits(), s.pressure.to_bits());
        (s.recirculations, s.resubmissions, s.inter_switch_hops, p, w)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn an_assignment_is_located_as_its_placement(
            shape in (1usize..=3, 1usize..=2),
            chains in proptest::collection::vec(
                (proptest::collection::vec(0usize..6, 1..=4), 1u32..=16),
                1..=6,
            ),
            stages in proptest::collection::vec(1u32..=5, 6),
            raw in proptest::collection::vec(proptest::prelude::any::<usize>(), 6),
        ) {
            let problem = small_fleet(shape, &chains, &stages);
            let mut space = Space::new(&problem);
            let n_slots = space.slots.len();
            let nfs = space.fleet.nfs.len();
            let assignment: Vec<usize> = raw[..nfs].iter().map(|r| r % n_slots).collect();
            space.view.assign(&space.fleet, &assignment);
            let decoded = space.decode(&assignment);
            let of = Located::of(&space.fleet, &decoded.switches);

            let feasible = fleet::feasible(&space.fleet, &space.view);
            proptest::prop_assert_eq!(feasible, fleet::feasible(&space.fleet, &of));
            proptest::prop_assert_eq!(feasible, problem.feasible(&decoded));
            let weight = problem.pressure_weight;
            let assigned = fleet::score(&space.fleet, weight, &space.view, false).map(bits);
            let placed = fleet::score(&space.fleet, weight, &of, false).map(bits);
            proptest::prop_assert_eq!(&assigned, &placed);
            proptest::prop_assert_eq!(&assigned, &problem.score(&decoded).map(bits));
            if feasible {
                let evaluated = space.evaluate(&assignment).map(|s| s.map(bits));
                proptest::prop_assert_eq!(evaluated, assigned.map(Some));
            }
        }
    }

    #[test]
    fn degenerate_instances_are_answered() {
        // Nowhere to put an NF: no switches, or switches without pipelines.
        let mut no_pipelines = migrate_live_fleet();
        no_pipelines.cluster.template.pipelines = 0;
        let no_slots = [FleetProblem::synthetic(4, 0, 1), no_pipelines];
        // Nothing to put anywhere: an empty chain set is a valid instance.
        let template = PlacementProblem::new(ChainSet::new(vec![]).unwrap(), Default::default());
        let no_nfs = FleetProblem::new(ClusterProblem::new(template, 2));
        let strategies: [Box<dyn PlacementSearch>; 2] = [
            Box::new(ExhaustiveSearch::default()),
            Box::new(AnnealingSearch::new(3, 200)),
        ];
        for search in &strategies {
            for problem in &no_slots {
                let err = search.search(problem).unwrap_err();
                assert!(matches!(err, PlacementError::Infeasible(_)), "{err}");
            }
            let found = search.search(&no_nfs).unwrap();
            assert_eq!(found.score.weighted, 0.0, "{}", search.name());
            if search.name() == "annealing" {
                assert_eq!(found.evaluated, 1, "nothing to move: the start");
            }
        }
        let single = &no_nfs.cluster.template;
        let annealed = single.anneal(0, 50).unwrap();
        assert_eq!(single.cost(&annealed), Ok(0.0));
        let err = no_slots[1]
            .cluster
            .template
            .exhaustive(1 << 20)
            .unwrap_err();
        assert!(matches!(err, PlacementError::Infeasible(_)), "{err}");
    }

    #[test]
    fn a_feasible_seed_is_searched_as_before() {
        // Outcomes recorded at b0b232c, before start-up checked the seed.
        let problem = FleetProblem::synthetic(100, 8, 7);
        let expected = [(400.8421874999999, 34)];
        for (search, (weighted, evaluated)) in metaheuristics().iter().zip(expected) {
            let found = search.search(&problem).unwrap();
            assert_eq!(found.score.weighted, weighted, "{}", search.name());
            assert_eq!(found.evaluated, evaluated, "{}", search.name());
        }
    }
}
