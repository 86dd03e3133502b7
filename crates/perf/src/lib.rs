//! # dejavu-perf — the repo's benchmark
//!
//! One command (`crates/perf/run.sh`), seven seeded workloads, and a
//! ledger of end-to-end and per-layer figures for the dataplane, the
//! cluster runtime and the planner. See `README.md` for the workload and
//! metric tables, how the numbers are taken (pinned, closed loop,
//! normalised) and how to read a trace.
//!
//! The crate touches no library code: every layer is measured from
//! outside, by timing calls into its public functions.

#![warn(missing_docs)]

pub mod alloc;
pub mod harness;
pub mod host;
pub mod ledger;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
