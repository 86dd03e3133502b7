//! Traffic-shift detection: when does the observed traffic stop looking
//! like the matrix the current placement assumed?
//!
//! The detector consumes successive per-switch [`MetricsSnapshot`]s (one
//! scrape per cluster member, as returned by
//! `ClusterHandle::metrics_snapshot`). For each observation window it:
//!
//! 1. diffs against the previous window's snapshots, extracting the
//!    per-switch `packets_injected` **deltas** — new work that arrived at
//!    each member during the window;
//! 2. normalizes the deltas into per-switch *shares* and computes the L1
//!    distance to the shares the current placement + assumed matrix
//!    predict ([`FleetProblem::expected_switch_shares`](crate::orchestrator::FleetProblem::expected_switch_shares));
//! 3. applies hysteresis: only after [`HYSTERESIS`] consecutive windows
//!    above [`DRIFT_THRESHOLD`] — and outside the post-replan [`COOLDOWN`]
//!    — does it recommend a replan. A window of fewer than
//!    [`MIN_PACKETS`] packets is not judged.
//!
//! Hysteresis plus cooldown is the anti-flapping contract: a one-window
//! burst, or the transient skew caused by a migration itself, never
//! triggers a replan.

use super::{COOLDOWN, DRIFT_THRESHOLD, HYSTERESIS, MIN_PACKETS};
use dejavu_asic::MetricsSnapshot;

/// What the detector concluded about one observation window.
#[derive(Debug, Clone, PartialEq)]
pub enum ShiftDecision {
    /// Not enough history (first window) or not enough packets to judge.
    Warming,
    /// Observed shares track the assumed matrix.
    Quiet {
        /// L1 distance this window.
        drift: f64,
    },
    /// Drifted, but hysteresis or cooldown suppressed the replan.
    Suppressed {
        /// L1 distance this window.
        drift: f64,
    },
    /// Sustained drift: re-planning is recommended.
    Replan {
        /// L1 distance this window.
        drift: f64,
    },
}

/// Stateful shift detector. Feed it one `Vec<MetricsSnapshot>` (one entry
/// per cluster member, in switch order) per observation window.
#[derive(Debug, Clone)]
pub struct ShiftDetector {
    expected: Vec<f64>,
    previous: Option<Vec<u64>>,
    streak: u32,
    cooldown_left: u32,
    last_observed: Vec<f64>,
}

impl ShiftDetector {
    /// A detector expecting the given per-switch traffic shares
    /// (normalized; from [`FleetProblem::expected_switch_shares`](crate::orchestrator::FleetProblem::expected_switch_shares)).
    pub fn new(expected_shares: Vec<f64>) -> Self {
        ShiftDetector {
            expected: expected_shares,
            previous: None,
            streak: 0,
            cooldown_left: 0,
            last_observed: Vec::new(),
        }
    }

    /// The per-switch shares observed in the most recent judged window
    /// (empty until the first full window). Input for traffic-matrix
    /// re-inference when a replan fires.
    pub fn observed_shares(&self) -> &[f64] {
        &self.last_observed
    }

    /// Re-baselines the detector after a migration: new expected shares,
    /// cleared streak, cooldown armed. The packet counters are *kept* —
    /// the next window diffs against the latest scrape, not against zero.
    pub fn rebase(&mut self, expected_shares: Vec<f64>) {
        self.expected = expected_shares;
        self.streak = 0;
        self.cooldown_left = COOLDOWN;
    }

    /// Judges one observation window.
    pub fn observe(&mut self, per_switch: &[MetricsSnapshot]) -> ShiftDecision {
        let counts: Vec<u64> = per_switch
            .iter()
            .map(|s| s.counter("packets_injected"))
            .collect();
        let Some(prev) = self.previous.replace(counts.clone()) else {
            return ShiftDecision::Warming;
        };
        let deltas: Vec<u64> = counts
            .iter()
            .zip(prev.iter())
            .map(|(now, before)| now.saturating_sub(*before))
            .collect();
        let total: u64 = deltas.iter().sum();
        if total < MIN_PACKETS {
            return ShiftDecision::Warming;
        }
        let observed: Vec<f64> = deltas.iter().map(|d| *d as f64 / total as f64).collect();
        let drift: f64 = observed
            .iter()
            .zip(self.expected.iter().chain(std::iter::repeat(&0.0)))
            .map(|(o, e)| (o - e).abs())
            .sum();
        self.last_observed = observed;
        if drift <= DRIFT_THRESHOLD {
            self.streak = 0;
            self.cooldown_left = self.cooldown_left.saturating_sub(1);
            return ShiftDecision::Quiet { drift };
        }
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return ShiftDecision::Suppressed { drift };
        }
        self.streak += 1;
        if self.streak < HYSTERESIS {
            ShiftDecision::Suppressed { drift }
        } else {
            self.streak = 0;
            ShiftDecision::Replan { drift }
        }
    }
}
