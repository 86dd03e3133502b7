//! Closed-loop re-placement orchestration: telemetry-driven placement
//! search with hitless live migration.
//!
//! The paper solves the *static* placement problem — one chain set, one
//! traffic matrix, one ASIC. This subsystem closes the loop at fleet
//! scale: watch the running cluster's telemetry, notice when the traffic
//! matrix the current placement assumed has drifted
//! ([`detector`]), search for a better placement under the observed
//! matrix (a [`PlacementSearch`] over the [`FleetProblem`] objective — both
//! live in [`crate::placement`] and are re-exported here), and if the gain
//! clears a cost/benefit bar, migrate the live cluster to it without
//! dropping a learned flow ([`migrate()`]).
//!
//! The [`Orchestrator`] type sequences one `observe → infer → search →
//! decide → migrate` round per telemetry window and records what it did
//! in `orchestrator_*` metrics:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `orchestrator_replans_triggered` | counter | migrations executed |
//! | `orchestrator_replans_skipped_hysteresis` | counter | drifted windows suppressed by hysteresis/cooldown |
//! | `orchestrator_replans_skipped_gain` | counter | replans abandoned at the cost/benefit bar |
//! | `orchestrator_flows_migrated` | counter | dynamic entries that crossed switches alive |
//! | `orchestrator_migration_duration_ns` | histogram | pause→resume downtime per migration |

pub mod detector;
pub mod migrate;

pub use crate::placement::{
    AnnealingSearch, ExhaustiveSearch, FleetProblem, FleetScore, FleetSlot, PlacementSearch,
    SearchOutcome,
};
pub use detector::{ShiftDecision, ShiftDetector};
pub use migrate::{migrate, FleetSpec, MigrationError, MigrationOutcome, MigrationPhases, NfMove};

use crate::placement::{ClusterPlacement, PlacementError};
use crate::transport::ClusterHandle;
use dejavu_asic::telemetry::{Histogram, MetricsSnapshot};

/// L1 distance between observed and expected per-switch shares above
/// which a window counts as drifted. Shares sum to 1, so the distance
/// ranges over [0, 2].
pub const DRIFT_THRESHOLD: f64 = 0.25;
/// Consecutive drifted windows required before a replan is recommended.
pub const HYSTERESIS: u32 = 2;
/// Minimum packets in a window for it to be judged at all; smaller
/// windows are noise and reset nothing.
pub const MIN_PACKETS: u64 = 8;
/// Windows to stay quiet after a replan (the migration transient itself
/// skews shares).
pub const COOLDOWN: u32 = 1;
/// Minimum weighted-objective improvement a candidate placement must offer
/// (under the *observed* matrix) before a migration is worth its downtime:
/// the cost/benefit bar.
pub const MIN_GAIN: f64 = 0.5;

/// What one orchestration round did.
#[derive(Debug)]
pub enum StepOutcome {
    /// Not enough telemetry history yet.
    Warming,
    /// Traffic tracks the assumed matrix; nothing to do.
    Quiet {
        /// L1 drift this window.
        drift: f64,
    },
    /// Drift seen but suppressed (hysteresis or post-migration cooldown).
    Suppressed {
        /// L1 drift this window.
        drift: f64,
    },
    /// Replan ran but the best found placement didn't clear [`MIN_GAIN`].
    NotWorthIt {
        /// L1 drift this window.
        drift: f64,
        /// Weighted-objective gain the search offered.
        gain: f64,
    },
    /// The cluster was migrated to a better placement.
    Migrated {
        /// L1 drift that triggered the replan.
        drift: f64,
        /// Weighted-objective gain realized (old − new, observed matrix).
        gain: f64,
        /// What the migration moved.
        outcome: MigrationOutcome,
    },
}

/// Why an orchestration round failed.
#[derive(Debug)]
pub enum OrchestratorError {
    /// Scoring or searching the fleet objective failed.
    Placement(PlacementError),
    /// The live migration failed.
    Migration(MigrationError),
}

impl std::fmt::Display for OrchestratorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrchestratorError::Placement(e) => write!(f, "placement search: {e}"),
            OrchestratorError::Migration(e) => write!(f, "migration: {e}"),
        }
    }
}

impl std::error::Error for OrchestratorError {}

impl From<PlacementError> for OrchestratorError {
    fn from(e: PlacementError) -> Self {
        OrchestratorError::Placement(e)
    }
}

impl From<MigrationError> for OrchestratorError {
    fn from(e: MigrationError) -> Self {
        OrchestratorError::Migration(e)
    }
}

/// The closed-loop controller: owns the assumed traffic matrix (as chain
/// weights on its [`FleetProblem`]), the placement the cluster currently
/// serves, a shift detector baselined to that pair, and a search
/// strategy.
pub struct Orchestrator {
    problem: FleetProblem,
    current: ClusterPlacement,
    detector: ShiftDetector,
    search: Box<dyn PlacementSearch>,
    replans_triggered: u64,
    replans_skipped_hysteresis: u64,
    replans_skipped_gain: u64,
    flows_migrated: u64,
    migration_duration: Histogram,
}

impl Orchestrator {
    /// Builds an orchestrator for a cluster currently serving
    /// `current` under the matrix assumed by `problem`'s chain weights.
    pub fn new(
        problem: FleetProblem,
        current: ClusterPlacement,
        search: Box<dyn PlacementSearch>,
    ) -> Result<Self, PlacementError> {
        let expected = problem.expected_switch_shares(&current)?;
        let detector = ShiftDetector::new(expected);
        Ok(Orchestrator {
            problem,
            current,
            detector,
            search,
            replans_triggered: 0,
            replans_skipped_hysteresis: 0,
            replans_skipped_gain: 0,
            flows_migrated: 0,
            migration_duration: Histogram::default(),
        })
    }

    /// The placement the orchestrator believes the cluster is serving.
    pub fn current_placement(&self) -> &ClusterPlacement {
        &self.current
    }

    /// The fleet problem under the currently assumed traffic matrix.
    pub fn problem(&self) -> &FleetProblem {
        &self.problem
    }

    /// Snapshot of the `orchestrator_*` metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, value) in [
            ("orchestrator_replans_triggered", self.replans_triggered),
            (
                "orchestrator_replans_skipped_hysteresis",
                self.replans_skipped_hysteresis,
            ),
            (
                "orchestrator_replans_skipped_gain",
                self.replans_skipped_gain,
            ),
            ("orchestrator_flows_migrated", self.flows_migrated),
        ] {
            snap.set_counter(name, value);
        }
        snap.set_histogram(
            "orchestrator_migration_duration_ns",
            self.migration_duration.snapshot(),
        );
        snap
    }

    /// Re-estimates per-chain traffic weights from the observed per-switch
    /// shares. Chains are grouped by the furthest switch they reach under
    /// the current placement; since every packet transits members
    /// `0..=reach`, the weight of reach-class `k` is proportional to
    /// `share[k] - share[k+1]`. Within a class the observation can't
    /// distinguish chains, so the class weight is split proportionally to
    /// the previously assumed weights. Total weight is preserved so
    /// objective gains stay comparable across rounds.
    pub fn infer_weights(&self, observed: &[f64]) -> Result<Vec<f64>, PlacementError> {
        let chains = &self.problem.chains().chains;
        let reaches: Vec<usize> = chains
            .iter()
            .map(|c| self.problem.chain_reach(c, &self.current))
            .collect::<Result<_, _>>()?;
        let share = |k: usize| observed.get(k).copied().unwrap_or(0.0);
        let class_raw: Vec<f64> = (0..self.problem.switches())
            .map(|k| (share(k) - share(k + 1)).max(0.0))
            .collect();
        let old_total: f64 = chains.iter().map(|c| c.weight).sum();
        let raw_total: f64 = reaches.iter().map(|&k| class_raw[k]).sum::<f64>();
        if raw_total <= 0.0 {
            // Degenerate observation; keep the assumed matrix.
            return Ok(chains.iter().map(|c| c.weight).collect());
        }
        let mut weights = Vec::with_capacity(chains.len());
        for (k, raw) in class_raw.iter().enumerate() {
            let members: Vec<usize> = (0..chains.len()).filter(|i| reaches[*i] == k).collect();
            if members.is_empty() {
                continue;
            }
            let class_weight = raw / raw_total * old_total;
            let old_class_total: f64 = members.iter().map(|&i| chains[i].weight).sum();
            for &i in &members {
                let fraction = if old_class_total > 0.0 {
                    chains[i].weight / old_class_total
                } else {
                    1.0 / members.len() as f64
                };
                weights.push((i, class_weight * fraction));
            }
        }
        weights.sort_by_key(|(i, _)| *i);
        Ok(weights.into_iter().map(|(_, w)| w).collect())
    }

    /// Runs one orchestration round against one telemetry window
    /// (`per_switch`: one scrape per member, in cluster order). Decides,
    /// and if a replan clears the bar, migrates `handle` live.
    pub fn step(
        &mut self,
        handle: &mut ClusterHandle,
        spec: &FleetSpec<'_>,
        per_switch: &[MetricsSnapshot],
    ) -> Result<StepOutcome, OrchestratorError> {
        let drift = match self.detector.observe(per_switch) {
            ShiftDecision::Warming => return Ok(StepOutcome::Warming),
            ShiftDecision::Quiet { drift } => return Ok(StepOutcome::Quiet { drift }),
            ShiftDecision::Suppressed { drift } => {
                self.replans_skipped_hysteresis += 1;
                return Ok(StepOutcome::Suppressed { drift });
            }
            ShiftDecision::Replan { drift } => drift,
        };

        // Infer the observed matrix and re-search under it.
        let observed = self.detector.observed_shares().to_vec();
        let weights = self.infer_weights(&observed)?;
        let shifted = self.problem.with_weights(&weights);
        let found = self.search.search(&shifted)?;
        let current_score = shifted.score(&self.current)?;
        let gain = current_score.weighted - found.score.weighted;
        if gain < MIN_GAIN || found.placement == self.current {
            self.replans_skipped_gain += 1;
            // The drift is real even if no better placement exists; adopt
            // the observed matrix so the detector stops firing on it.
            self.problem = shifted;
            let expected = self.problem.expected_switch_shares(&self.current)?;
            self.detector.rebase(expected);
            return Ok(StepOutcome::NotWorthIt { drift, gain });
        }

        // Migrate live.
        let outcome = migrate(handle, spec, &self.current, &found.placement)?;
        self.replans_triggered += 1;
        self.flows_migrated += outcome.flows_migrated;
        self.migration_duration.observe(outcome.duration_ns);
        self.problem = shifted;
        self.current = found.placement;
        let expected = self.problem.expected_switch_shares(&self.current)?;
        self.detector.rebase(expected);
        Ok(StepOutcome::Migrated {
            drift,
            gain,
            outcome,
        })
    }
}
