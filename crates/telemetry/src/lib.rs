//! # dejavu-telemetry
//!
//! Low-overhead metrics for the dataplane: a handle-based
//! [`MetricsRegistry`] of counters, gauges, and log2-bucket histograms;
//! [`MetricsSnapshot`] values that merge and diff with a lossless algebra
//! (so sharded replay workers can be aggregated exactly); and JSON +
//! Prometheus-text exporters with a self-contained JSON parser for
//! round-trip validation.
//!
//! Design in one paragraph: metrics are registered once at configuration
//! time and return dense copyable handles; the per-packet hot path is a
//! `bool` check plus one relaxed atomic add, and a disabled registry (the
//! default) short-circuits on the `bool` alone. Aggregation across threads
//! is done by *snapshot algebra*, not shared state: `Clone` deep-copies a
//! registry into an independent shard, each worker computes
//! `end.diff(&start)`, and the driver `merge`s the deltas — counters and
//! histogram buckets are plain sums, so the result equals a
//! single-threaded run.
//!
//! ```
//! use dejavu_telemetry::{MetricsRegistry, MetricsSnapshot};
//!
//! let mut reg = MetricsRegistry::enabled();
//! let pkts = reg.counter("pipelet_packets{pipelet=\"ingress0\"}");
//! let lat = reg.histogram("packet_latency_ns");
//! reg.inc(pkts);
//! reg.observe(lat, 650);
//!
//! let snap = MetricsSnapshot::capture(&reg);
//! assert_eq!(snap.counter("pipelet_packets{pipelet=\"ingress0\"}"), 1);
//! let json = dejavu_telemetry::to_json_string(&snap);
//! assert!(json.contains("packet_latency_ns"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod registry;
pub mod snapshot;

pub use export::{parse_json, to_json_string, to_prometheus};
pub use registry::{
    bucket_of, CounterId, GaugeId, HistogramId, MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use snapshot::{HistogramSnapshot, MetricValue, MetricsSnapshot};
