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
struct Space<'a> {
    problem: &'a FleetProblem,
    fleet: Interned<'a>,
    slots: Vec<FleetSlot>,
    view: Located,
}

impl<'a> Space<'a> {
    fn new(problem: &'a FleetProblem) -> Self {
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

    /// Encodes a located placement as an assignment vector; `None` when
    /// some chain NF is unplaced.
    fn encode(&self, placed: &Located) -> Option<Vec<usize>> {
        (0..self.fleet.nfs.len())
            .map(|nf| {
                let slot = placed.slot_of(nf)?;
                self.slots.iter().position(|&s| s == slot)
            })
            .collect()
    }

    /// Locates a candidate and scores it if it is feasible.
    fn evaluate(&mut self, assignment: &[usize]) -> Result<Option<FleetScore>, PlacementError> {
        self.view.assign(&self.fleet, assignment);
        if !fleet::feasible(&self.fleet, &self.view) {
            return Ok(None);
        }
        let weights = self.problem.weights();
        fleet::score(&self.fleet, weights, &self.view, false).map(Some)
    }

    /// Where the metaheuristics start: the seed placement as an assignment
    /// vector, with its score. `greedy_spill` seeds can break the monotone
    /// rule, and a search started on an infeasible point rejects every
    /// proposal and would return it; such a seed is replaced by the
    /// monotone first-fit (feasible by construction), and if there is none
    /// the search has no start.
    fn start(&self) -> Result<(Vec<usize>, FleetScore), PlacementError> {
        let seed = self.problem.seed_placement()?;
        let mut placed = Located::of(&self.fleet, &seed.switches);
        if !fleet::feasible(&self.fleet, &placed) {
            let seed = self.problem.monotone_first_fit()?;
            placed = Located::of(&self.fleet, &seed.switches);
        }
        let assignment = self
            .encode(&placed)
            .ok_or_else(|| PlacementError::Infeasible("seed left NFs unplaced".into()))?;
        let score = fleet::score(&self.fleet, self.problem.weights(), &placed, false)?;
        Ok((assignment, score))
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

/// Simulated annealing (cf. the SFC placement survey, arXiv:1910.02613):
/// from the seed placement, propose single-NF reassignments or two-NF swaps
/// and accept uphill moves with Metropolis probability under a fixed
/// geometric cooling schedule.
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
        let (mut current, mut current_score) = space.start()?;
        let mut best = current.clone();
        let mut best_score = current_score;
        let mut evaluated = 1u64;
        if current.is_empty() {
            // No NF to move: the start is the answer.
            return Ok(SearchOutcome {
                placement: space.decode(&best),
                score: best_score,
                evaluated,
            });
        }
        let cooling = if self.iterations > 1 {
            (Self::END_TEMP / Self::START_TEMP).powf(1.0 / f64::from(self.iterations - 1))
        } else {
            1.0
        };
        let mut temp = Self::START_TEMP;
        // Proposals are written over a copy of `current` in one buffer.
        let mut candidate = current.clone();
        for _ in 0..self.iterations {
            candidate.copy_from_slice(&current);
            if candidate.len() >= 2 && rng.gen_bool(0.3) {
                // Swap the slots of two NFs (preserves per-slot load shape).
                let a = rng.gen_range(0..candidate.len());
                let b = rng.gen_range(0..candidate.len());
                candidate.swap(a, b);
            } else {
                // Reassign one NF to a fresh slot.
                let i = rng.gen_range(0..candidate.len());
                candidate[i] = rng.gen_range(0..space.slots.len());
            }
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
}

/// Discrete particle swarm (cf. arXiv:2105.05248): each particle adopts
/// coordinates from its personal best and the global best, plus mutation.
/// Particle 0 starts at the seed placement, so the swarm never does worse.
#[derive(Debug, Clone)]
pub struct SwarmSearch {
    /// RNG seed — same seed, same problem → same answer.
    pub seed: u64,
    /// Population size.
    pub particles: u32,
    /// Update rounds.
    pub iterations: u32,
}

impl SwarmSearch {
    /// Per-coordinate probability of adopting the personal best.
    const P_PERSONAL: f64 = 0.25;
    /// Per-coordinate probability of adopting the global best.
    const P_GLOBAL: f64 = 0.35;
    /// Per-coordinate probability of a random mutation.
    const P_MUTATE: f64 = 0.08;

    /// A swarm of `particles` updated for `iterations` rounds.
    pub fn new(seed: u64, particles: u32, iterations: u32) -> Self {
        SwarmSearch {
            seed,
            particles,
            iterations,
        }
    }
}

impl PlacementSearch for SwarmSearch {
    fn name(&self) -> &'static str {
        "swarm"
    }

    fn search(&self, problem: &FleetProblem) -> Result<SearchOutcome, PlacementError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut space = Space::new(problem);
        let (seed_assignment, seed_score) = space.start()?;
        let mut evaluated = 1u64;

        // Particle state: position, personal best (assignment, score).
        let n = seed_assignment.len();
        let n_slots = space.slots.len();
        let mut positions: Vec<Vec<usize>> = Vec::new();
        let mut pbest: Vec<(Vec<usize>, FleetScore)> = Vec::new();
        let mut gbest = (seed_assignment.clone(), seed_score);
        for p in 0..self.particles.max(1) {
            let pos = if p == 0 {
                seed_assignment.clone()
            } else {
                // Random restarts around the space; infeasible starts are
                // fine — they inherit the seed as personal best.
                (0..n).map(|_| rng.gen_range(0..n_slots)).collect()
            };
            pbest.push(match space.evaluate(&pos)? {
                Some(score) => {
                    evaluated += 1;
                    if score.weighted < gbest.1.weighted {
                        gbest = (pos.clone(), score);
                    }
                    (pos.clone(), score)
                }
                None => (seed_assignment.clone(), seed_score),
            });
            positions.push(pos);
        }

        for _ in 0..self.iterations {
            for (pos, pbest) in positions.iter_mut().zip(&mut pbest) {
                for (i, slot) in pos.iter_mut().enumerate() {
                    if rng.gen_bool(Self::P_PERSONAL) {
                        *slot = pbest.0[i];
                    }
                    if rng.gen_bool(Self::P_GLOBAL) {
                        *slot = gbest.0[i];
                    }
                    if rng.gen_bool(Self::P_MUTATE) {
                        *slot = rng.gen_range(0..n_slots);
                    }
                }
                let Some(score) = space.evaluate(pos)? else {
                    continue;
                };
                evaluated += 1;
                if score.weighted < pbest.1.weighted {
                    pbest.0.copy_from_slice(pos);
                    pbest.1 = score;
                }
                if score.weighted < gbest.1.weighted {
                    gbest.0.copy_from_slice(pos);
                    gbest.1 = score;
                }
            }
        }
        Ok(SearchOutcome {
            placement: space.decode(&gbest.0),
            score: gbest.1,
            evaluated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainPolicy, ChainSet};
    use crate::placement::{ClusterProblem, PlacementProblem};

    fn metaheuristics() -> [Box<dyn PlacementSearch>; 2] {
        [
            Box::new(AnnealingSearch::new(3, 200)),
            Box::new(SwarmSearch::new(3, 6, 10)),
        ]
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

    /// FNV-1a of `s`: a fleet-sized placement pinned in one number.
    fn fnv(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
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
        let swarmed = [
            (0, (0x407c_c932_7d27_d27e, 92, 0x624c_a928_ac9d_5989)),
            (5, (0x407a_e682_7d27_d27f, 83, 0x4753_0c9b_ca31_2ecb)),
        ];
        let runs = annealed.iter().enumerate().map(|(j, pin)| {
            let search: Box<dyn PlacementSearch> = Box::new(AnnealingSearch::new(1, 2000));
            (search, j, pin)
        });
        let runs = runs.chain(swarmed.iter().map(|(j, pin)| {
            let search: Box<dyn PlacementSearch> = Box::new(SwarmSearch::new(1, 20, 120));
            (search, *j, pin)
        }));
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
            let weights = problem.weights();
            let assigned = fleet::score(&space.fleet, weights, &space.view, false).map(bits);
            let placed = fleet::score(&space.fleet, weights, &of, false).map(bits);
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
        let strategies: [Box<dyn PlacementSearch>; 3] = [
            Box::new(ExhaustiveSearch::default()),
            Box::new(AnnealingSearch::new(3, 200)),
            Box::new(SwarmSearch::new(3, 6, 10)),
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
        let expected = [(400.8421874999999, 34), (452.22031250000003, 6)];
        for (search, (weighted, evaluated)) in metaheuristics().iter().zip(expected) {
            let found = search.search(&problem).unwrap();
            assert_eq!(found.score.weighted, weighted, "{}", search.name());
            assert_eq!(found.evaluated, evaluated, "{}", search.name());
        }
    }
}
