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
    SearchOutcome, SwarmSearch,
};
pub use detector::{DetectorConfig, ShiftDecision, ShiftDetector};
pub use migrate::{migrate, FleetSpec, MigrationError, MigrationOutcome, NfMove, PlacementDelta};

use crate::placement::{ClusterPlacement, PlacementError};
use crate::transport::ClusterHandle;
use dejavu_asic::telemetry::{CounterId, HistogramId, MetricsRegistry, MetricsSnapshot};

/// Orchestrator tuning knobs.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Shift-detection thresholds.
    pub detector: DetectorConfig,
    /// Minimum weighted-objective improvement a candidate placement must
    /// offer (under the *observed* matrix) before a migration is worth its
    /// downtime. The cost/benefit bar.
    pub min_gain: f64,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            detector: DetectorConfig::default(),
            min_gain: 1e-6,
        }
    }
}

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
    /// Replan ran but the best found placement didn't clear `min_gain`.
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
    config: OrchestratorConfig,
    registry: MetricsRegistry,
    replans_triggered: CounterId,
    replans_skipped_hysteresis: CounterId,
    replans_skipped_gain: CounterId,
    flows_migrated: CounterId,
    migration_duration: HistogramId,
}

impl Orchestrator {
    /// Builds an orchestrator for a cluster currently serving
    /// `current` under the matrix assumed by `problem`'s chain weights.
    pub fn new(
        problem: FleetProblem,
        current: ClusterPlacement,
        search: Box<dyn PlacementSearch>,
        config: OrchestratorConfig,
    ) -> Result<Self, PlacementError> {
        let expected = problem.expected_switch_shares(&current)?;
        let detector = ShiftDetector::new(config.detector.clone(), expected);
        let mut registry = MetricsRegistry::enabled();
        let replans_triggered = registry.counter("orchestrator_replans_triggered");
        let replans_skipped_hysteresis =
            registry.counter("orchestrator_replans_skipped_hysteresis");
        let replans_skipped_gain = registry.counter("orchestrator_replans_skipped_gain");
        let flows_migrated = registry.counter("orchestrator_flows_migrated");
        let migration_duration = registry.histogram("orchestrator_migration_duration_ns");
        Ok(Orchestrator {
            problem,
            current,
            detector,
            search,
            config,
            registry,
            replans_triggered,
            replans_skipped_hysteresis,
            replans_skipped_gain,
            flows_migrated,
            migration_duration,
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
        MetricsSnapshot::capture(&self.registry)
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
                self.registry.inc(self.replans_skipped_hysteresis);
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
        if gain < self.config.min_gain || found.placement == self.current {
            self.registry.inc(self.replans_skipped_gain);
            // The drift is real even if no better placement exists; adopt
            // the observed matrix so the detector stops firing on it.
            self.problem = shifted;
            let expected = self.problem.expected_switch_shares(&self.current)?;
            self.detector.rebase(expected);
            return Ok(StepOutcome::NotWorthIt { drift, gain });
        }

        // Migrate live.
        let outcome = migrate(handle, spec, &self.current, &found.placement)?;
        self.registry.inc(self.replans_triggered);
        self.registry
            .add(self.flows_migrated, outcome.flows_migrated);
        self.registry
            .observe(self.migration_duration, outcome.duration_ns);
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
