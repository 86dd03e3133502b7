//! What the benchmark knows about the machine it runs on: the CPUs it may
//! use, its peak memory, and — through a fixed calibration kernel — how
//! fast that machine is running right now.

use std::hint::black_box;
use std::time::Instant;

/// Wall time of one [`Kernel::run`] on the reference host (the 2-core
/// sandbox this benchmark was sized on) in its fast state. Every timed
/// repetition is bracketed by the kernel and scaled by
/// `bracket_time / KERNEL_REF_S`, so a run on a slower or contended host
/// reports the figures the reference host would have produced.
pub const KERNEL_REF_S: f64 = 0.45e-3;

/// 16 KiB of `u64`: resident in L1, so the kernel answers "how fast is
/// this core issuing instructions right now", not "how busy is the memory
/// system".
const KERNEL_WORDS: usize = 1 << 11;
/// Independent hash chains advanced per step.
const KERNEL_LANES: usize = 8;
/// Steps per run, sized so one run takes about half a millisecond.
const KERNEL_STEPS: usize = 95_000;

/// The calibration kernel: eight independent hash-walks over a 16 KiB
/// table. Each lane's next address depends on its previous load, and the
/// eight lanes keep the core's issue ports as busy as the packet path
/// does — which is what makes the kernel slow down *with* the workloads.
/// On the reference host the dominant noise is a neighbour on the sibling
/// hardware thread: a single dependent chain (latency-bound) or a walk
/// over 1 MiB (cache-bound) did not track it (the first ignores it, the
/// second over-reacts to cache pressure the packet path does not feel);
/// see the README's "why normalised".
pub struct Kernel {
    table: Vec<u64>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Builds the table from a fixed xorshift stream (the benchmark seed
    /// never reaches the kernel: it must do identical work in every run of
    /// every workload).
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..KERNEL_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Kernel { table }
    }

    /// Runs the walk once; returns its wall time in seconds.
    pub fn run(&self) -> f64 {
        let mask = KERNEL_WORDS - 1;
        let start = Instant::now();
        let mut lanes: [u64; KERNEL_LANES] = std::array::from_fn(|j| j as u64 + 1);
        for _ in 0..KERNEL_STEPS {
            for (j, x) in lanes.iter_mut().enumerate() {
                let w = self.table[(*x >> 20) as usize & mask];
                *x = (*x ^ w).wrapping_mul(0x0100_0000_01b3).rotate_left(13) + j as u64;
            }
        }
        black_box(lanes);
        start.elapsed().as_secs_f64()
    }
}

/// How much slower than the reference the host ran over one repetition,
/// from the calibration kernel's samples across it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowness {
    /// Mean of the samples over the reference time: scales what a
    /// repetition sums up (its rate, one long duration).
    pub mean: f64,
    /// Median of the samples over the reference time: scales a median of
    /// many short operations. A burst that slows a third of a repetition
    /// moves neither median, but it moves the mean — dividing a median
    /// latency by the mean slowness over-corrected it by up to 25 %.
    pub median: f64,
}

/// Samples the calibration kernel around and inside timed repetitions.
/// A repetition's slowness rests on every sample taken from the one
/// that closed the previous repetition to the one that closes this one:
/// single-threaded workloads [`tick`](Bracket::tick) every few
/// milliseconds, so a repetition rests on some twenty samples; the cluster
/// workloads cannot (their worker threads would compete with the kernel
/// for the pinned CPU) and rest on the samples at their edges.
pub struct Bracket<'k> {
    kernel: &'k Kernel,
    samples: Vec<f64>,
    /// Every mean slowness handed out, for `driver.host_slowness`.
    pub history: Vec<f64>,
}

impl<'k> Bracket<'k> {
    /// Opens the first repetition (one kernel run).
    pub fn open(kernel: &'k Kernel) -> Self {
        let mut b = Bracket {
            kernel,
            samples: Vec::with_capacity(64),
            history: Vec::new(),
        };
        b.reopen();
        b
    }

    /// Forgets the samples so far and opens a repetition now — after
    /// untimed work, whose kernel readings would be stale.
    pub fn reopen(&mut self) {
        self.samples.clear();
        self.tick();
    }

    /// Samples the kernel once inside a repetition. The caller keeps the
    /// time this takes out of what it measures.
    pub fn tick(&mut self) {
        self.samples.push(self.kernel.run());
    }

    /// Closes the current repetition and opens the next: returns the
    /// slowness of the host over the repetition just finished.
    pub fn close(&mut self) -> Slowness {
        self.tick();
        // A repetition that could not tick inside still gets four samples.
        while self.samples.len() < 4 {
            self.tick();
        }
        let n = self.samples.len();
        let slowness = Slowness {
            mean: self.samples.iter().sum::<f64>() / n as f64 / KERNEL_REF_S,
            median: crate::stats::median(&self.samples) / KERNEL_REF_S,
        };
        self.history.push(slowness.mean);
        // The closing sample opens the next repetition.
        self.samples.drain(..n - 1);
        slowness
    }
}

/// Slowness from which the host counts as heavily contended: up to here
/// the calibration kernel tracks the workloads, beyond it they fall behind
/// it (see [`contention_factor`]). In units of [`KERNEL_REF_S`].
pub const HEAVY_SLOWNESS: f64 = 1.25;

/// What a run's timed end-to-end values are scaled by, on top of the
/// per-repetition normalisation, when the host was heavily contended over
/// the run: `(slowness / HEAVY_SLOWNESS) ^ sensitivity`, and 1 up to
/// [`HEAVY_SLOWNESS`]. The kernel lives in L1; a neighbour that slows it
/// by more than a quarter also takes cache and memory bandwidth, which the
/// workloads with a working set feel and the kernel does not. Forty runs
/// of each workload (four sets of ten, median slowness 1.0–1.65) put the
/// shortfall at that power law with `sensitivity` 0.6–0.7 for the
/// workloads that touch tables, 0.9–1.0 for `acl_4k`'s 4000-rule tree,
/// 0.35 for the planner and 0 for `fwd_min`
/// (`spec::Workload::host_sensitivity`); applying it took the worst
/// spread of ten runs from 12 % to 8 % and left quiet runs untouched.
pub fn contention_factor(slowness: f64, sensitivity: f64) -> f64 {
    (slowness / HEAVY_SLOWNESS).max(1.0).powf(sensitivity)
}

/// The `key:` line of `/proc/self/status`, trimmed.
fn proc_status(key: &str) -> Option<String> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Parses a kernel CPU list (`0-1,4`) into CPU numbers.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (lo, hi) = match part.split_once('-') {
            Some((lo, hi)) => (lo.parse::<usize>(), hi.parse::<usize>()),
            None => (part.parse::<usize>(), part.parse::<usize>()),
        };
        if let (Ok(lo), Ok(hi)) = (lo, hi) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// CPUs this process may run on (empty when `/proc` is unavailable).
pub fn cpus_allowed() -> Vec<usize> {
    proc_status("Cpus_allowed_list")
        .map(|l| parse_cpu_list(&l))
        .unwrap_or_default()
}

/// Peak resident set (`VmHWM`) in MiB; 0 when `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    proc_status("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median cost of an empty span (two clock reads), in nanoseconds —
/// subtracted from every traced span so short layers are not billed for
/// the clock.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2048)
        .map(|_| {
            let t = Instant::now();
            black_box(t).elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert_eq!(parse_cpu_list("0-2,5,7-8"), vec![0, 1, 2, 5, 7, 8]);
        assert!(parse_cpu_list("").is_empty());
        assert!(parse_cpu_list("x-y").is_empty());
    }

    #[test]
    fn bracket_summarises_its_samples() {
        let k = Kernel::new();
        let mut b = Bracket::open(&k);
        b.tick();
        assert_eq!(b.samples.len(), 2);
        let s = b.close();
        assert!(s.mean > 0.0 && s.mean.is_finite());
        assert!(s.median > 0.0 && s.median.is_finite());
        assert_eq!(b.history, vec![s.mean]);
        assert_eq!(
            b.samples.len(),
            1,
            "the closing sample opens the next repetition"
        );
    }

    #[test]
    fn contention_only_counts_beyond_heavy() {
        assert_eq!(contention_factor(1.0, 0.7), 1.0);
        assert_eq!(contention_factor(HEAVY_SLOWNESS, 0.7), 1.0);
        assert_eq!(contention_factor(2.0 * HEAVY_SLOWNESS, 1.0), 2.0);
        assert_eq!(contention_factor(2.0 * HEAVY_SLOWNESS, 0.0), 1.0);
        let f = contention_factor(1.6, 0.7);
        assert!((f - (1.6f64 / 1.25).powf(0.7)).abs() < 1e-12 && f > 1.18 && f < 1.19);
    }
}
