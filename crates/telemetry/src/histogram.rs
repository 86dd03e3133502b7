//! The log2-bucket histogram a metric owner keeps beside its counters.
//!
//! Counters are plain `Cell<u64>` fields of whoever counts (the switch,
//! the orchestrator); a latency distribution is one [`Histogram`] field.
//! Both are named only when scraped, by the owner's render into a
//! [`crate::MetricsSnapshot`]. `Clone` copies the current values, so a
//! cloned owner is an independent shard.

use crate::snapshot::HistogramSnapshot;
use std::cell::Cell;

/// Number of log2 buckets a [`Histogram`] keeps. Bucket `i` counts samples
/// in `[2^i, 2^(i+1))` (bucket 0 also takes 0), so 48 buckets cover every
/// latency up to ~3.26 days in nanoseconds.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// The log2 bucket a value falls into.
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        return 0;
    }
    ((63 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Adds `n` to a cell, wrapping as an atomic add does.
#[inline]
fn bump(counter: &Cell<u64>, n: u64) {
    counter.set(counter.get().wrapping_add(n));
}

/// A log2-bucketed histogram: per-bucket counts plus exact sum and count.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [Cell<u64>; HISTOGRAM_BUCKETS],
    count: Cell<u64>,
    sum: Cell<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| Cell::new(0)),
            count: Cell::new(0),
            sum: Cell::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn observe(&self, value: u64) {
        bump(&self.buckets[bucket_of(value)], 1);
        bump(&self.count, 1);
        bump(&self.sum, value);
    }

    /// The current values.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(Cell::get).collect(),
            count: self.count.get(),
            sum: self.sum.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_an_independent_shard() {
        let h = Histogram::default();
        h.observe(650);
        let shard = h.clone();
        h.observe(3);
        assert_eq!(h.snapshot().count, 2);
        assert_eq!(shard.snapshot().count, 1);
        assert_eq!(shard.snapshot().sum, 650);
        assert_eq!(shard.snapshot().buckets[9], 1);
    }

    #[test]
    fn log2_buckets() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(650), 9);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }
}
