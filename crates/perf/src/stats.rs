//! Order statistics the ledger reports: medians, quartiles, percentiles
//! and the "highest percentile with at least ten samples beyond it" tail.

use serde::Serialize;

/// Sorted copy of `values` with non-finite samples removed.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0 when
/// there are no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them, so a spread printed here equals the one the benchmark
/// driver derives from the same values. Fewer than two samples give the
/// single value (or 0) for both.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        // j = i * (n + 1) // 4, clamped to [1, n - 1]; delta = remainder.
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median of `values`, sorting them in place (no copy: a repetition's
/// latency samples are the largest thing the harness holds, and a copy of
/// them would show in `peak_rss_mb`).
pub fn median_in_place(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// of `n` samples beyond it: `(percentile, samples beyond)`. `None` below
/// twenty samples (not even p50 qualifies).
pub fn tail_percentile(n: u64) -> Option<(f64, u64)> {
    [99.999, 99.99, 99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find_map(|p| {
            let beyond = n - ((p / 100.0) * n as f64).ceil() as u64;
            (beyond >= 10).then_some((p, beyond))
        })
}

/// Buckets per octave of a [`LogHist`]: neighbouring buckets differ by
/// 2^(1/128), so a percentile read off it is within 0.3 % of the sample.
const HIST_SUB: f64 = 128.0;
/// Octaves below 1 that a [`LogHist`] resolves (2^-10 µs ≈ 1 ns).
const HIST_LOW_OCTAVES: f64 = 10.0;
/// Buckets of a [`LogHist`]: 2^-10 … 2^30 (with µs samples: 1 ns … 18 min).
const HIST_BUCKETS: usize = 40 * 128;

/// Every latency sample of a run, as counts in logarithmic buckets. Its
/// size does not depend on how many samples a run takes — a plain vector of
/// them made `peak_rss_mb` a function of the host's speed.
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; HIST_BUCKETS],
            n: 0,
        }
    }
}

impl LogHist {
    /// Counts `samples` (positive, finite; anything else lands in the
    /// lowest bucket).
    pub fn extend(&mut self, samples: &[f64]) {
        for &x in samples {
            let b = ((x.log2() + HIST_LOW_OCTAVES) * HIST_SUB).floor();
            // NaN and negatives fail the comparison and fall to bucket 0.
            let b = if b > 0.0 { b as usize } else { 0 };
            self.counts[b.min(HIST_BUCKETS - 1)] += 1;
        }
        self.n += samples.len() as u64;
    }

    /// Samples counted.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nearest-rank percentile `p` in `[0, 100]` (the geometric middle of
    /// the bucket the rank falls in); 0 when there are no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (((p / 100.0) * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ((b as f64 + 0.5) / HIST_SUB - HIST_LOW_OCTAVES).exp2();
            }
        }
        unreachable!("the counts sum to n")
    }
}

/// One reported figure of a timed quantity: the **favourable quartile** of
/// its repetitions (the third quartile of rates, the first of durations),
/// each normalised by the host-slowness bracket around it, with the median,
/// the raw wall-clock median, both quartiles and the sample count beside it.
///
/// Why a quartile and not the median: what the shared host adds to a
/// repetition is one-sided (a neighbour only ever slows it) and comes in
/// episodes of 8–30 s during which the calibration kernel under-reads the
/// slowdown (README, "the favourable quartile, and 15 s"). The median of a run
/// follows an episode as soon as it covers half the run; the favourable
/// quartile needs the episode to cover three quarters of it.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct Figure {
    /// The reported value: favourable quartile of the normalised
    /// repetitions (their median for `setup_s` and for exact figures).
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// Median of the normalised repetitions.
    pub median: f64,
    /// Median of the raw (un-normalised) repetitions.
    pub raw: f64,
    /// First quartile of the normalised repetitions.
    pub q1: f64,
    /// Third quartile of the normalised repetitions.
    pub q3: f64,
    /// Repetitions behind the value.
    pub n: usize,
}

impl Figure {
    /// Scales the normalised statistics as if the host had been `factor`
    /// times slower than the repetitions' own brackets said (`raw` stays
    /// what the clock read).
    pub fn rescale(&mut self, kind: Kind, factor: f64) {
        for x in [
            &mut self.value,
            &mut self.median,
            &mut self.q1,
            &mut self.q3,
        ] {
            *x = normalise(kind, *x, factor);
        }
    }

    /// A figure that is one exact number (a count, a simulated latency).
    pub fn exact(value: f64, unit: &str) -> Self {
        Figure {
            value,
            unit: unit.to_string(),
            median: value,
            raw: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// Whether a larger or a smaller value of a timed series is the slow side:
/// the host-slowness factor divides durations and multiplies rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A time: a slow host inflates it, so normalising divides.
    Duration,
    /// A rate: a slow host deflates it, so normalising multiplies.
    Rate,
}

/// Repetitions of one timed quantity, each with the host slowness that
/// bracketed it.
#[derive(Debug, Clone, Default)]
pub struct Series {
    kind: Option<Kind>,
    raw: Vec<f64>,
    norm: Vec<f64>,
}

impl Series {
    /// Records one repetition measured while the host ran `slowness`
    /// times slower than the reference (`1.0` = reference speed). Every
    /// repetition of a series is of the same `kind`.
    pub fn push(&mut self, kind: Kind, raw: f64, slowness: f64) {
        debug_assert!(self.kind.is_none_or(|k| k == kind));
        self.kind = Some(kind);
        self.raw.push(raw);
        self.norm.push(normalise(kind, raw, slowness));
    }

    /// Repetitions recorded so far.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True before the first repetition.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Summarises the series as a [`Figure`] in `unit` whose value is the
    /// favourable quartile: `q3` of rates, `q1` of durations.
    pub fn figure(&self, unit: &str) -> Figure {
        let mut f = self.median_figure(unit);
        f.value = match self.kind {
            Some(Kind::Rate) => f.q3,
            Some(Kind::Duration) => f.q1,
            None => f.median,
        };
        f
    }

    /// Summarises the series as a [`Figure`] whose value is the median —
    /// for `setup_s`, which the driver's contract defines as a median.
    pub fn median_figure(&self, unit: &str) -> Figure {
        let (q1, q3) = quartiles(&self.norm);
        let mid = median(&self.norm);
        Figure {
            value: mid,
            unit: unit.to_string(),
            median: mid,
            raw: median(&self.raw),
            q1,
            q3,
            n: self.norm.len(),
        }
    }
}

/// Scales one raw measurement to the reference host speed.
pub fn normalise(kind: Kind, raw: f64, slowness: f64) -> f64 {
    match kind {
        Kind::Duration => raw / slowness,
        Kind::Rate => raw * slowness,
    }
}

/// How far `new` is on the *worse* side of `old`, as a share of `old`
/// (negative when `new` is better). `lower_is_better` picks the side.
pub fn worsening(old: f64, new: f64, lower_is_better: bool) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    let rel = (new - old) / old.abs();
    if lower_is_better {
        rel
    } else {
        -rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[f64::NAN, 5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank_within_a_bucket() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut h = LogHist::default();
        h.extend(&v);
        assert_eq!(h.len(), 100);
        for (p, want) in [(50.0, 50.0), (99.0, 99.0), (100.0, 100.0), (0.0, 1.0)] {
            let got = h.percentile(p);
            assert!((got / want - 1.0).abs() < 0.003, "p{p}: {got} vs {want}");
        }
        assert_eq!(LogHist::default().percentile(99.0), 0.0);
        // Out-of-range samples are counted, at the edges.
        let mut h = LogHist::default();
        h.extend(&[0.0, -1.0, f64::NAN, 1e300]);
        assert_eq!(h.len(), 4);
        assert!(h.percentile(50.0) < 1e-3 && h.percentile(100.0) > 1e8);
    }

    #[test]
    fn median_in_place_sorts_its_argument() {
        let mut v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median_in_place(&mut v), 2.5);
        assert_eq!(v, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(median_in_place(&mut []), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 leaves exactly ten beyond; p99.9 leaves one.
        assert_eq!(tail_percentile(1000), Some((99.0, 10)));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some((50.0, 10)));
        assert_eq!(tail_percentile(1_000_000), Some((99.999, 10)));
    }

    #[test]
    fn normalisation_divides_times_and_multiplies_rates() {
        assert_eq!(normalise(Kind::Duration, 12.0, 1.2), 10.0);
        assert_eq!(normalise(Kind::Rate, 100.0, 1.2), 120.0);
        let mut s = Series::default();
        s.push(Kind::Rate, 100.0, 1.0);
        s.push(Kind::Rate, 80.0, 1.25);
        s.push(Kind::Rate, 50.0, 2.0);
        let f = s.figure("1/s");
        assert_eq!(f.median, 100.0);
        assert_eq!(f.raw, 80.0);
        assert_eq!(f.n, 3);
    }

    #[test]
    fn a_figure_reports_the_favourable_quartile() {
        // Quartiles of 1..=10 are 2.75 and 8.25, the median 5.5.
        let (mut rate, mut time) = (Series::default(), Series::default());
        for x in (1..=10).map(f64::from) {
            rate.push(Kind::Rate, x, 1.0);
            time.push(Kind::Duration, x, 1.0);
        }
        assert_eq!(rate.figure("1/s").value, 8.25, "rates: the fast quartile");
        assert_eq!(time.figure("s").value, 2.75, "durations: the short one");
        assert_eq!(time.figure("s").median, 5.5);
        assert_eq!(time.median_figure("s").value, 5.5);
        assert_eq!(Series::default().figure("s").value, 0.0);
    }

    #[test]
    fn rescaling_moves_everything_but_the_raw_reading() {
        let mut f = Figure::exact(10.0, "us");
        f.rescale(Kind::Duration, 2.0);
        assert_eq!(
            (f.value, f.median, f.q1, f.q3, f.raw),
            (5.0, 5.0, 5.0, 5.0, 10.0)
        );
        f.rescale(Kind::Rate, 2.0);
        assert_eq!(f.value, 10.0);
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, true), 0.0);
    }
}
