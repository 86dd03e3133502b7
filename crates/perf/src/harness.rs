//! What every workload shares: the run configuration, the bracketed
//! repetition loop, set-up timing, and the record a run produces.

use crate::host::{self, Bracket, Kernel, Slowness};
use crate::spec;
use crate::stats::{self, Figure, Kind, LogHist, Series};
use crate::trace::Tracer;
use serde::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// How large the inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json`'s bounds were fixed on.
    Full,
    /// `--quick`: `acl_4k` shrinks to 1000 rules (and says so in its
    /// record); everything else keeps its size and runs shorter.
    Quick,
    /// Test-sized inputs for the crate's smoke tests (debug build).
    Smoke,
}

impl Scale {
    /// Name written into records.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
            Scale::Smoke => "smoke",
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed: the library sees only inputs generated from it.
    pub seed: u64,
    /// Seconds of untraced measurement (the end-to-end figures).
    pub measure_s: f64,
    /// Seconds the traced pass may take (0 = no traced pass).
    pub trace_s: f64,
    /// Length of one timed repetition.
    pub rep_s: f64,
    /// Seconds spent building the system over and over for `setup_s`
    /// (at least one build happens regardless).
    pub setup_budget_s: f64,
    /// Input sizes.
    pub scale: Scale,
    /// The workload's `spec::Workload::host_sensitivity` (0 in the crate's
    /// tests, which compare nothing across runs).
    pub host_sensitivity: f64,
}

impl RunCfg {
    /// The full run: 60 repetitions of 0.25 s, `BENCHMARK.json`'s
    /// `run_seconds`.
    pub fn full(seed: u64) -> Self {
        RunCfg {
            seed,
            measure_s: 15.0,
            trace_s: 0.0,
            rep_s: 0.25,
            setup_budget_s: 1.5,
            scale: Scale::Full,
            host_sensitivity: 0.0,
        }
    }

    /// `--quick`: 5 repetitions of 0.1 s.
    pub fn quick(seed: u64) -> Self {
        RunCfg {
            seed,
            measure_s: 0.5,
            trace_s: 0.0,
            rep_s: 0.1,
            setup_budget_s: 0.3,
            scale: Scale::Quick,
            host_sensitivity: 0.0,
        }
    }

    /// The crate's smoke tests: one 50 ms measurement on small inputs.
    pub fn smoke(seed: u64) -> Self {
        RunCfg {
            seed,
            measure_s: 0.05,
            trace_s: 0.0,
            rep_s: 0.05,
            setup_budget_s: 0.0,
            scale: Scale::Smoke,
            host_sensitivity: 0.0,
        }
    }

    /// Operations a traced loop may record before it stops early.
    pub fn trace_ops_cap(&self) -> usize {
        match self.scale {
            Scale::Full => 1 << 17,
            Scale::Quick => 1 << 15,
            Scale::Smoke => 1 << 10,
        }
    }
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations performed or checked.
    pub attempted: u64,
    /// Of those, how many erred, timed out, ended in an unexpected
    /// disposition, or disagreed with the oracle.
    pub failed: u64,
    /// End-to-end figures by name.
    pub end_to_end: BTreeMap<&'static str, Figure>,
    /// Per-layer figures by name (traced pass and layer probes).
    pub per_layer: BTreeMap<&'static str, Figure>,
    /// Free-form facts that qualify the figures (index kind, rule count,
    /// rtc schedule, tail-latency percentile and counts, …).
    pub notes: Vec<(String, Value)>,
    /// The spans of the traced pass, if one ran.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records an end-to-end figure; the name must be in the spec.
    pub fn e2e(&mut self, name: &'static str, fig: Figure) {
        debug_assert!(spec::end_to_end(name).is_some(), "{name} not in spec");
        self.end_to_end.insert(name, fig);
    }

    /// Records a per-layer figure in the unit the spec gives it.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let m = spec::per_layer(name).unwrap_or_else(|| panic!("{name} not in spec::PER_LAYER"));
        self.per_layer.insert(name, Figure::exact(value, m.unit));
    }

    /// Records a per-layer figure unless the untraced measurement already
    /// did — for the figures both passes can produce, the measurement's
    /// normalised median wins over the traced pass's mean.
    pub fn layer_if_absent(&mut self, name: &'static str, value: f64) {
        if !self.per_layer.contains_key(name) {
            self.layer(name, value);
        }
    }

    /// Records a per-layer figure that has repetitions behind it.
    pub fn layer_series(&mut self, name: &'static str, series: &Series) {
        let m = spec::per_layer(name).unwrap_or_else(|| panic!("{name} not in spec::PER_LAYER"));
        self.per_layer.insert(name, series.figure(m.unit));
    }

    /// Adds a note, replacing an earlier one under the same key.
    pub fn note(&mut self, key: &str, value: Value) {
        match self.notes.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.notes.push((key.to_string(), value)),
        }
    }

    /// Counts `n` checked operations, `bad` of them failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Share of attempted operations that failed.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The measuring context a workload runs in: configuration, calibration
/// bracket and the record being filled.
pub struct Meter<'k> {
    /// The run's parameters.
    pub cfg: RunCfg,
    /// The record being filled.
    pub out: Outcome,
    bracket: Bracket<'k>,
}

impl<'k> Meter<'k> {
    /// Opens the first calibration bracket.
    pub fn new(cfg: RunCfg, kernel: &'k Kernel) -> Self {
        Meter {
            cfg,
            out: Outcome::default(),
            bracket: Bracket::open(kernel),
        }
    }

    /// Closes the repetition that just ran; returns the host slowness over
    /// it. Call once after every timed repetition.
    pub fn close_rep(&mut self) -> Slowness {
        self.bracket.close()
    }

    /// Re-opens the bracket after untimed work (oracle, warm-up), so the
    /// next repetition is not charged for a stale kernel reading.
    pub fn reopen(&mut self) {
        self.bracket.reopen();
    }

    /// Samples the calibration kernel inside a repetition; returns the
    /// seconds it took, for the caller to keep out of its measurement.
    /// Only for single-threaded workloads: see [`Bracket`].
    pub fn tick(&mut self) -> f64 {
        let t = Instant::now();
        self.bracket.tick();
        t.elapsed().as_secs_f64()
    }

    /// Repetitions the untraced measurement should make.
    pub fn reps(&self) -> usize {
        ((self.cfg.measure_s / self.cfg.rep_s).round() as usize).max(1)
    }

    /// Times `build` — the workload's whole system from nothing — as many
    /// times as fit the set-up budget (at least once), records the median
    /// as `setup_s`, and returns the last system built. Earlier systems
    /// are torn down outside the timing. `build` is handed a hook that
    /// samples the calibration kernel (its time is kept out of the build's);
    /// a build that takes seconds calls it as it goes, the others are
    /// sampled between builds.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut dyn FnMut()) -> T) -> T {
        self.reopen();
        let phase = Instant::now();
        let mut times = Vec::new();
        let mut last;
        let mut since_tick = 0.0;
        loop {
            let mut paused = 0.0;
            let bracket = &mut self.bracket;
            let mut tick = || {
                let t = Instant::now();
                bracket.tick();
                paused += t.elapsed().as_secs_f64();
            };
            let t = Instant::now();
            let system = build(&mut tick);
            let took = t.elapsed().as_secs_f64() - paused;
            times.push(took);
            last = Some(system);
            if phase.elapsed().as_secs_f64() >= self.cfg.setup_budget_s {
                break;
            }
            // Torn down (threads joined) before the kernel samples the CPU.
            drop(last.take());
            since_tick += took;
            if since_tick >= TICK_S {
                since_tick = 0.0;
                self.bracket.tick();
            }
        }
        let slowness = self.close_rep().mean;
        let mut series = Series::default();
        for t in times {
            series.push(Kind::Duration, t, slowness);
        }
        self.out.e2e("setup_s", series.median_figure("s"));
        last.expect("at least one build ran")
    }

    /// Finishes the record: the run-level contention correction of the two
    /// timed end-to-end figures ([`host::contention_factor`]), peak memory,
    /// and the harness's own figures.
    pub fn finish(mut self) -> Outcome {
        let slowness = stats::median(&self.bracket.history);
        let factor = host::contention_factor(slowness, self.cfg.host_sensitivity);
        for (name, kind) in [("pps", Kind::Rate), ("latency_p50_us", Kind::Duration)] {
            if let Some(fig) = self.out.end_to_end.get_mut(name) {
                fig.rescale(kind, factor);
            }
        }
        self.out.note("contention_factor", Value::Float(factor));
        self.out
            .e2e("peak_rss_mb", Figure::exact(host::peak_rss_mib(), "MiB"));
        self.out.layer("driver.host_slowness", slowness);
        self.out
    }
}

/// Seconds of work between two kernel samples inside a repetition.
pub const TICK_S: f64 = 0.012;

/// Tail-latency notes and the two `driver.latency_*` layer figures from
/// the run's per-operation latencies in microseconds.
pub fn record_tail(out: &mut Outcome, latencies_us: &LogHist) {
    let n = latencies_us.len();
    out.layer("driver.latency_p99_us", latencies_us.percentile(99.0));
    if let Some((p, beyond)) = stats::tail_percentile(n) {
        out.layer("driver.latency_tail_us", latencies_us.percentile(p));
        out.note("latency_tail_percentile", Value::Float(p));
        out.note("latency_tail_samples_beyond", Value::UInt(beyond));
    }
    out.note("latency_samples", Value::UInt(n));
}
