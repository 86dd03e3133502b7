//! Search strategies over the fleet objective (see the [module doc](super)).
//! The randomized ones take an explicit seed and draw from [`StdRng`], so a
//! (problem, seed) pair reproduces bit-identical results — the orchestrator's
//! decisions are replayable.

use super::fleet::{self, ClusterPlacement, FleetProblem, FleetScore, FleetSlot};
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
/// `nfs[i]` lives in `slots[a[i]]`.
struct Space<'a> {
    problem: &'a FleetProblem,
    nfs: Vec<String>,
    slots: Vec<FleetSlot>,
}

impl<'a> Space<'a> {
    fn new(problem: &'a FleetProblem) -> Self {
        Space {
            problem,
            nfs: problem.nfs(),
            slots: problem.slots(),
        }
    }

    /// Decodes an assignment vector. NFs are pushed in canonical-index
    /// order, so every pipelet's list is already in canonical order.
    fn decode(&self, assignment: &[usize]) -> ClusterPlacement {
        let mut switches = vec![Placement::default(); self.problem.switches()];
        for (nf, &slot) in self.nfs.iter().zip(assignment) {
            let (sw, pipelet) = self.slots[slot];
            switches[sw]
                .pipelets
                .entry(pipelet)
                .or_default()
                .push(nf.clone());
        }
        ClusterPlacement { switches }
    }

    /// Encodes a placement as an assignment vector; `None` when some chain
    /// NF is unplaced.
    fn encode(&self, placement: &ClusterPlacement) -> Option<Vec<usize>> {
        self.nfs
            .iter()
            .map(|nf| {
                let slot = fleet::locate(&placement.switches, nf)?;
                self.slots.iter().position(|&s| s == slot)
            })
            .collect()
    }

    /// Decodes a candidate and scores it if it is feasible.
    fn evaluate(
        &self,
        assignment: &[usize],
    ) -> Result<Option<(ClusterPlacement, FleetScore)>, PlacementError> {
        let placement = self.decode(assignment);
        let template = &self.problem.cluster.template;
        if !fleet::feasible(template, &self.nfs, &placement.switches) {
            return Ok(None);
        }
        let score = self.problem.score(&placement)?;
        Ok(Some((placement, score)))
    }

    /// Where the metaheuristics start: the seed placement as an assignment
    /// vector, with its score. `greedy_spill` seeds can break the monotone
    /// rule, and a search started on an infeasible point rejects every
    /// proposal and would return it; such a seed is replaced by the
    /// monotone first-fit (feasible by construction), and if there is none
    /// the search has no start.
    fn start(&self) -> Result<(Vec<usize>, FleetScore), PlacementError> {
        let mut seed = self.problem.seed_placement()?;
        if !self.problem.feasible(&seed) {
            seed = self.problem.monotone_first_fit()?;
        }
        let assignment = self
            .encode(&seed)
            .ok_or_else(|| PlacementError::Infeasible("seed left NFs unplaced".into()))?;
        Ok((assignment, self.problem.score(&seed)?))
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
        let space = Space::new(problem);
        let n_slots = space.slots.len();
        let candidates = (n_slots as u128)
            .checked_pow(space.nfs.len() as u32)
            .unwrap_or(u128::MAX);
        if candidates > self.cap {
            return Err(PlacementError::SearchTooLarge {
                candidates,
                cap: self.cap,
            });
        }
        let mut assignment = vec![0usize; space.nfs.len()];
        let mut best: Option<(ClusterPlacement, FleetScore)> = None;
        let mut evaluated = 0u64;
        loop {
            if let Some((placement, score)) = space.evaluate(&assignment)? {
                evaluated += 1;
                if best
                    .as_ref()
                    .is_none_or(|(_, b)| score.weighted < b.weighted)
                {
                    best = Some((placement, score));
                }
            }
            // Odometer increment over the slot radix.
            let mut i = 0;
            loop {
                if i == assignment.len() {
                    let (placement, score) = best.ok_or_else(|| {
                        PlacementError::Infeasible(
                            "no feasible assignment in exhaustive space".to_string(),
                        )
                    })?;
                    return Ok(SearchOutcome {
                        placement,
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
        let space = Space::new(problem);
        let (mut current, mut current_score) = space.start()?;
        let mut best = current.clone();
        let mut best_score = current_score;
        let mut evaluated = 1u64;
        let cooling = if self.iterations > 1 {
            (Self::END_TEMP / Self::START_TEMP).powf(1.0 / f64::from(self.iterations - 1))
        } else {
            1.0
        };
        let mut temp = Self::START_TEMP;
        for _ in 0..self.iterations {
            let mut candidate = current.clone();
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
            if let Some((_, score)) = space.evaluate(&candidate)? {
                evaluated += 1;
                let delta = score.weighted - current_score.weighted;
                if delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp() {
                    current = candidate;
                    current_score = score;
                    if score.weighted < best_score.weighted {
                        best = current.clone();
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
        let space = Space::new(problem);
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
                Some((_, score)) => {
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
                let Some((_, score)) = space.evaluate(pos)? else {
                    continue;
                };
                evaluated += 1;
                if score.weighted < pbest.1.weighted {
                    *pbest = (pos.clone(), score);
                }
                if score.weighted < gbest.1.weighted {
                    gbest = (pos.clone(), score);
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
