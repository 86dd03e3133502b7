//! # dejavu-telemetry
//!
//! Low-overhead metrics for the dataplane: a log2-bucket [`Histogram`] to
//! keep beside plain counter fields; [`MetricsSnapshot`] values that merge
//! and diff with a lossless algebra (so sharded replay workers can be
//! aggregated exactly); and JSON + Prometheus-text exporters with a
//! self-contained JSON parser for round-trip validation.
//!
//! Design in one paragraph: whoever counts keeps its counters as plain
//! `Cell<u64>` fields grouped by family, and names them only when
//! scraped, by rendering a [`MetricsSnapshot`]; the per-packet hot path is
//! a `bool` check plus one add, and a disabled owner (a switch's default)
//! short-circuits on the `bool` alone. Aggregation across threads is done
//! by *snapshot algebra*, not shared state: `Clone` copies an owner into
//! an independent shard, each worker computes `end.diff(&start)`, and the
//! driver `merge`s the deltas — counters and histogram buckets are plain
//! sums, so the result equals a single-threaded run.
//!
//! ```
//! use dejavu_telemetry::{Histogram, MetricsSnapshot};
//! use std::cell::Cell;
//!
//! let pkts = Cell::new(0u64);
//! let lat = Histogram::default();
//! pkts.set(pkts.get() + 1);
//! lat.observe(650);
//!
//! let mut snap = MetricsSnapshot::default();
//! snap.set_counter("pipelet_packets{pipelet=\"ingress0\"}", pkts.get());
//! snap.set_histogram("packet_latency_ns", lat.snapshot());
//! assert_eq!(snap.counter("pipelet_packets{pipelet=\"ingress0\"}"), 1);
//! let json = dejavu_telemetry::to_json_string(&snap);
//! assert!(json.contains("packet_latency_ns"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod histogram;
pub mod snapshot;

pub use export::{parse_json, to_json_string, to_prometheus};
pub use histogram::{bucket_of, Histogram, HISTOGRAM_BUCKETS};
pub use snapshot::{HistogramSnapshot, MetricValue, MetricsSnapshot};
