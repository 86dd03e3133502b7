//! # dejavu-bench — experiment harness
//!
//! One bench target per table and figure of the paper's evaluation, plus
//! ablation studies and a workload replay. Each is a `harness = false`
//! main that prints the paper's rows/series next to the reproduction's
//! measurements, asserts their shape, and writes a JSON record under
//! `target/experiments/` so EXPERIMENTS.md is regenerable. Timing is not
//! measured here: that is `crates/perf`'s job.
//!
//! Run everything with `cargo bench -p dejavu-bench` (`scripts/check.sh`
//! does); run one experiment with e.g.
//! `cargo bench -p dejavu-bench --bench fig8a_throughput`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Prints a section header for an experiment.
pub fn banner(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Prints a two-column paper-vs-measured comparison row.
pub fn row(label: &str, paper: &str, measured: &str) {
    println!("  {label:<44} paper: {paper:<16} measured: {measured}");
}

/// Writes an experiment's JSON record under `target/experiments/<id>.json`.
pub fn write_json<T: Serialize>(id: &str, value: &T) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{id}.json"));
        if let Ok(s) = serde_json::to_string_pretty(value) {
            let _ = fs::write(&path, s);
            println!("  [record: {}]", path.display());
        }
    }
}

/// Relative-error helper for summaries.
pub fn pct_err(measured: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        return 0.0;
    }
    100.0 * (measured - reference).abs() / reference.abs()
}

#[cfg(test)]
mod tests {
    #[test]
    fn pct_err_basics() {
        assert_eq!(super::pct_err(38.2, 38.2), 0.0);
        assert!((super::pct_err(50.0, 40.0) - 25.0).abs() < 1e-12);
        assert_eq!(super::pct_err(1.0, 0.0), 0.0);
    }
}
