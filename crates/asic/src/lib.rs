//! # dejavu-asic — a programmable switch ASIC simulator
//!
//! This crate stands in for the Barefoot Tofino (Wedge-100B 32X) testbed of
//! the Dejavu paper. It models the RMT / Portable Switch Architecture the
//! paper describes in §2 and Fig. 1:
//!
//! * multiple **pipelines**, each an ingress *pipelet* and an egress
//!   *pipelet* joined by a shared **traffic manager**,
//! * per-pipelet **MAU stages** with finite resources (table IDs, SRAM,
//!   TCAM, crossbars, gateways, VLIW slots),
//! * **Ethernet ports** hardwired to pipelines, a dedicated **recirculation
//!   port** per pipeline, and port **loopback mode**,
//! * the three packet paths of Fig. 1 — normal, **resubmission** (ingress →
//!   same ingress parser), and **recirculation** (egress → ingress parser),
//!   under Tofino's constraints (§3.3 a–d),
//! * a calibrated **timing model** (§4: ~650 ns port-to-port, ~75 ns on-chip
//!   recirculation, ~145 ns off-chip via a direct-attach cable), and
//! * the **feedback-queue bandwidth model** of §4 (both the analytic fixed
//!   point and a slotted discrete-time simulation).
//!
//! The [`interp`] module executes `dejavu-p4ir` programs over packets; the
//! [`switch`] module drives a packet through pipelets, the traffic manager,
//! resubmission and recirculation until it leaves the chip, producing a full
//! event trace that the packet test framework and the placement validator
//! consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod feedback;
pub mod index;
pub mod interp;
pub mod metrics;
pub mod packet;
pub mod pool;
pub mod resources;
pub mod rtc;
pub mod switch;
pub mod tables;
pub mod timing;
pub mod tofino;

/// The telemetry crate, re-exported so downstream crates reach the
/// histogram/snapshot/exporter types through `dejavu_asic::telemetry`
/// without a separate dependency.
pub use dejavu_telemetry as telemetry;

/// The flow-state crate, re-exported so downstream crates reach the
/// snapshot/migration types through `dejavu_asic::state` without a
/// separate dependency.
pub use dejavu_state as state;

pub use compiled::{BufPass, CompiledProgram, ExecScratch, NamedTableEvent};
pub use index::{IndexKind, IndexPolicy, IndexStats, IndexTelemetry};
pub use interp::{Interpreter, TableEvent};
pub use metrics::SwitchMetrics;
pub use packet::{flow_hash, HeaderInstance, ParsedPacket};
pub use pool::{PacketHandle, PacketPool};
pub use resources::{ResourceVector, StageResources};
pub use rtc::{ExhaustionPolicy, RtcConfig, RtcReport, RtcSession};
pub use state::{MigrationReport, StateSnapshot};
pub use switch::{
    BufOutcome, ExecMode, Gress, InjectedPacket, LoadableProgram, PipeletId, PortId, Switch,
    TraceEvent, TraceLevel, Traversal,
};
pub use tables::{DigestRecord, Eviction, TableCounters, TableState};
pub use telemetry::MetricsSnapshot;
pub use timing::TimingModel;
pub use tofino::TofinoProfile;
