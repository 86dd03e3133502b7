//! Point-in-time metric snapshots: the unit of merging, diffing, and export.
//!
//! A [`MetricsSnapshot`] is a plain, ordered map from metric name to value —
//! no atomics, no handles — so it can be sent across threads, compared in
//! tests, subtracted to isolate one run's contribution, and summed to merge
//! per-shard results. The algebra is the reason replay sharding is lossless:
//! each worker computes `end − start` over its own shard and the driver
//! folds the deltas together; counters and histogram buckets are plain sums,
//! so the result equals a single-threaded run over the concatenated work.

use serde::json::Value;
use serde::Serialize;
use std::collections::BTreeMap;

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-log2-bucket sample counts (bucket `i` = samples in
    /// `[2^i, 2^(i+1))`, bucket 0 also holds zeros).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`) from the log2 buckets, using
    /// the geometric midpoint of the winning bucket. Good to a factor of
    /// √2 — enough for latency dashboards, not for billing.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let hi = (1u128 << (i + 1)) as f64;
                return (lo * hi).max(lo * lo).sqrt().max(lo);
            }
        }
        self.buckets.len() as f64
    }
}

/// One metric's value in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Instantaneous gauge.
    Gauge(i64),
    /// Log2-bucketed histogram.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The counter value, or `None` for other kinds.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }
}

/// An ordered name → value map, rendered from its owner's counter fields
/// when scraped. See the module docs for the merge/diff algebra.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Metrics by full name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Inserts (or overwrites) a counter by name — how an owner's render
    /// names each of its counter fields.
    pub fn set_counter(&mut self, name: impl Into<String>, value: u64) {
        self.metrics
            .insert(name.into(), MetricValue::Counter(value));
    }

    /// Inserts (or overwrites) a gauge by name — the gauge counterpart of
    /// [`MetricsSnapshot::set_counter`].
    pub fn set_gauge(&mut self, name: impl Into<String>, value: i64) {
        self.metrics.insert(name.into(), MetricValue::Gauge(value));
    }

    /// Inserts (or overwrites) a histogram by name.
    pub fn set_histogram(&mut self, name: impl Into<String>, value: HistogramSnapshot) {
        self.metrics
            .insert(name.into(), MetricValue::Histogram(value));
    }

    /// Counter value by name (0 when absent — absent and never-incremented
    /// are indistinguishable by design, so deltas of sparse shards work).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram by name (`None` when absent or a different kind).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Sum of every counter whose name starts with `prefix` — convenient
    /// for label families like `recirc_depth{k="…"}`.
    pub fn counter_family_total(&self, prefix: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .filter_map(|(_, v)| v.as_counter())
            .sum()
    }

    /// Folds `other` into `self`: counters and histogram buckets add;
    /// gauges take the maximum (a merge of instantaneous values has no
    /// single right answer — max is deterministic and order-independent).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.metrics {
            match self.metrics.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(value.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    match (e.get_mut(), value) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                            if a.buckets.len() < b.buckets.len() {
                                a.buckets.resize(b.buckets.len(), 0);
                            }
                            for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
                                *x += y;
                            }
                            a.count += b.count;
                            a.sum += b.sum;
                        }
                        // Kind mismatch: keep the existing value. Names are
                        // kind-stable by construction, so this is unreachable
                        // in practice but must not panic on foreign data.
                        _ => {}
                    }
                }
            }
        }
    }

    /// `self − base`, element-wise: the contribution between two captures
    /// of the same source. Counters and histograms subtract (saturating, so
    /// a reset source yields zeros rather than wrap); gauges keep `self`'s
    /// instantaneous value.
    pub fn diff(&self, base: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for (name, value) in &self.metrics {
            let d = match (value, base.metrics.get(name)) {
                (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                    MetricValue::Counter(a.saturating_sub(*b))
                }
                (MetricValue::Histogram(a), Some(MetricValue::Histogram(b))) => {
                    MetricValue::Histogram(HistogramSnapshot {
                        buckets: a
                            .buckets
                            .iter()
                            .enumerate()
                            .map(|(i, &x)| x.saturating_sub(b.buckets.get(i).copied().unwrap_or(0)))
                            .collect(),
                        count: a.count.saturating_sub(b.count),
                        sum: a.sum.saturating_sub(b.sum),
                    })
                }
                (v, _) => v.clone(),
            };
            out.metrics.insert(name.clone(), d);
        }
        out
    }

    /// True when every counter is zero and every histogram empty.
    pub fn is_zero(&self) -> bool {
        self.metrics.values().all(|v| match v {
            MetricValue::Counter(c) => *c == 0,
            MetricValue::Gauge(_) => true,
            MetricValue::Histogram(h) => h.count == 0,
        })
    }
}

impl Serialize for MetricsSnapshot {
    fn to_json(&self) -> Value {
        let fields = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let v = match value {
                    MetricValue::Counter(c) => Value::UInt(*c),
                    // Gauges wrap in an object: bare JSON numbers cannot
                    // tell a non-negative gauge from a counter back apart.
                    MetricValue::Gauge(g) => {
                        Value::Object(vec![("gauge".to_string(), Value::Int(*g))])
                    }
                    MetricValue::Histogram(h) => {
                        // Trailing zero buckets are elided to keep dumps
                        // readable; parsers must treat missing as zero.
                        let last = h.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
                        Value::Object(vec![
                            ("count".to_string(), Value::UInt(h.count)),
                            ("sum".to_string(), Value::UInt(h.sum)),
                            (
                                "buckets_log2".to_string(),
                                Value::Array(
                                    h.buckets[..last].iter().map(|&b| Value::UInt(b)).collect(),
                                ),
                            ),
                        ])
                    }
                };
                (name.clone(), v)
            })
            .collect();
        Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pairs: &[(&str, u64)]) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for (n, v) in pairs {
            s.set_counter(*n, *v);
        }
        s
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = snap(&[("x", 1), ("y", 2)]);
        let b = snap(&[("y", 3), ("z", 4)]);
        a.merge(&b);
        assert_eq!(a.counter("x"), 1);
        assert_eq!(a.counter("y"), 5);
        assert_eq!(a.counter("z"), 4);
    }

    #[test]
    fn diff_isolates_a_run() {
        let base = snap(&[("x", 10)]);
        let end = snap(&[("x", 17)]);
        assert_eq!(end.diff(&base).counter("x"), 7);
    }

    #[test]
    fn histogram_merge_and_stats() {
        let h = crate::Histogram::default();
        for v in [100u64, 200, 400, 800] {
            h.observe(v);
        }
        let mut s1 = MetricsSnapshot::default();
        s1.set_histogram("lat", h.snapshot());
        let mut merged = s1.clone();
        merged.merge(&s1);
        let hist = merged.histogram("lat").unwrap();
        assert_eq!(hist.count, 8);
        assert_eq!(hist.sum, 3000);
        assert!((hist.mean() - 375.0).abs() < 1e-9);
        assert!(hist.quantile(0.5) >= 128.0);
    }

    #[test]
    fn family_total() {
        let s = snap(&[("recirc_depth{k=\"0\"}", 3), ("recirc_depth{k=\"1\"}", 4)]);
        assert_eq!(s.counter_family_total("recirc_depth{"), 7);
    }

    #[test]
    fn json_round_trip() {
        let h = crate::Histogram::default();
        h.observe(650);
        let mut s = snap(&[("pkts", 9)]);
        s.set_histogram("lat", h.snapshot());
        let text = serde_json::to_string_pretty(&s).unwrap();
        let parsed = crate::export::parse_json(&text).unwrap();
        assert_eq!(parsed, s.to_json());
        let Value::Object(fields) = parsed else {
            panic!("a snapshot exports as an object");
        };
        let get = |name: &str| fields.iter().find(|(n, _)| n == name).map(|(_, v)| v);
        assert_eq!(get("pkts"), Some(&Value::UInt(9)));
        let Some(Value::Object(lat)) = get("lat") else {
            panic!("a histogram exports as an object");
        };
        assert!(lat.contains(&("sum".to_string(), Value::UInt(650))));
        assert!(lat.contains(&("count".to_string(), Value::UInt(1))));
    }
}
