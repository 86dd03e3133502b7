//! # dejavu-core — the Dejavu service-chaining framework
//!
//! The primary contribution of *Accelerated Service Chaining on a Single
//! Switch ASIC* (HotNets 2019): a framework that composes multiple network
//! functions into one multi-pipelet data-plane program, places them on a
//! programmable switch ASIC, and routes packets through their service chains
//! on-chip.
//!
//! Module map, following the paper's §3:
//!
//! * [`sfc`] — the customized NSH-based SFC header (Fig. 3): service path
//!   ID, service index, mirrored platform metadata, 12 bytes of key-value
//!   context, next-protocol byte; inserted between Ethernet and IP under a
//!   dedicated EtherType.
//! * [`chain`] — SFC policies: weighted NF sequences per path ID (Fig. 2).
//! * [`nfmodule`] — the control-block programming interface (§3.1): an NF is
//!   a program whose entry control touches only packet headers (including
//!   `sfc.*`) and NF-local metadata — platform metadata is framework
//!   territory and API compliance is checked.
//! * [`merge`] — the generic parser (§3): DAG merging over
//!   `(header_type, offset)` vertex identities with a global-ID table, plus
//!   namespacing of NF-local actions/tables/metadata.
//! * [`compose`] — sequential and parallel NF composition (Fig. 5),
//!   generating the per-pipelet programs with the framework's
//!   `check_nextNF`/`check_sfcFlags`/branching tables.
//! * [`placement`] — NF placement optimization (§3.3, §7): the traversal
//!   cost model (reproducing Fig. 6 exactly) and one fleet problem — one
//!   objective, one feasibility rule, exhaustive search and one annealing
//!   loop, the naive, greedy and spill seeds — of which the single ASIC is
//!   the M = 1 instance.
//! * [`routing`] — on-chip packet routing (§3.4): synthesis of branching-
//!   table entries after placement.
//! * [`deploy`] — end-to-end deployment: compose → compile → load → route a
//!   chain set onto a `dejavu_asic::Switch`.
//! * [`control_plane`] — the merged control plane (§7): per-NF API views
//!   translated onto the merged program, and the to-CPU reinjection loop.
//! * [`multiswitch`] — the multi-switch extension (§7): wiring, deploying
//!   and running a cluster of back-to-back ASICs in lockstep.
//! * [`transport`] — the cluster runtime: per-switch workers communicating
//!   over pluggable transports (in-memory channels or framed TCP) under an
//!   event-driven control plane.
//! * [`orchestrator`] — closed-loop re-placement at fleet scale:
//!   telemetry-driven traffic-shift detection, a [`placement`] search under
//!   the observed matrix, and a hitless live-migration driver over the
//!   cluster runtime.
//! * [`ingress`] — the map of injection entry points (three adapters over
//!   the switch's one packet walk, the run-to-completion session, and the
//!   cluster paths).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod chain;
pub mod compose;
pub mod control_plane;
pub mod deploy;
pub mod ingress;
pub mod lint;
pub mod merge;
pub mod multiswitch;
pub mod nfmodule;
pub mod orchestrator;
pub mod placement;
pub mod routing;
pub mod sfc;
pub mod transport;

pub use analyze::{analyze_pipelets, check_learn_policy};
pub use chain::{ChainPolicy, ChainSet};
pub use compose::{compose_pipelet, CompositionMode, PipeletPlan};
pub use merge::{merge_parsers, MergeError};
pub use nfmodule::{ApiViolation, NfModule};
pub use placement::{Placement, PlacementProblem, RecircGranularity, TraversalCost};
pub use routing::RoutingSynthesis;
pub use sfc::SfcHeader;

/// One-stop imports for building, deploying, and driving a service chain.
///
/// ```
/// use dejavu_core::prelude::*;
///
/// let sw = Switch::new(TofinoProfile::tiny());
/// assert!(!sw.telemetry_enabled());
/// ```
///
/// Pulls in the switch simulator surface (switch, profiles, execution and
/// trace modes, the unified [`InjectedPacket`](dejavu_asic::InjectedPacket)
/// injection API, telemetry snapshot and exporter types) and the
/// framework surface (chains, NF modules, composition, placement,
/// deployment, the merged control plane, the multi-switch cluster, and the
/// transport-backed cluster runtime).
///
/// **Injecting packets?** Every entry point — single packet, in-place
/// buffer, batch, run-to-completion session, lockstep cluster, transport
/// cluster — consumes the same
/// [`InjectedPacket`](dejavu_asic::InjectedPacket); see [`crate::ingress`]
/// for the one-page map of which to use when.
pub mod prelude {
    pub use crate::analyze::{analyze_pipelets, check_learn_policy};
    pub use crate::chain::{ChainPolicy, ChainSet};
    pub use crate::compose::{compose_pipelet, CompositionMode, PipeletPlan, PlannedNf};
    pub use crate::control_plane::{
        clear_sfc_flags, rewind_and_clear, ControlPlane, ControlPlaneStats, LearnPolicy,
        PuntResponse,
    };
    pub use crate::deploy::{deploy, DeployError, DeployOptions, Deployment, UpgradeOutcome};
    pub use crate::lint::{lint_chain_budget, lint_pipelet, BudgetSpec};
    pub use crate::merge::{merge_programs, MergeError};
    pub use crate::multiswitch::{
        chain_latency_ns, deploy_cluster, ClusterConfigError, ClusterNet, ClusterPlacement,
        ClusterProblem, ClusterWiring,
    };
    pub use crate::nfmodule::NfModule;
    pub use crate::placement::{Placement, PlacementProblem, RecircGranularity, TraversalCost};
    pub use crate::routing::{RoutingConfig, RoutingSynthesis};
    pub use crate::sfc::{sfc_header_type, SfcHeader, SFC_ETHERTYPE};
    pub use crate::transport::{
        spawn_cluster, ChannelTransport, ClusterError, ClusterHandle, ClusterOptions,
        ClusterReport, PerSwitchReport, TcpTransport, Transport, TransportError, WireTraversal,
    };
    pub use dejavu_asic::state::{
        MigrationReport, RegisterSnapshot, StateSnapshot, TableSnapshot, SNAPSHOT_FORMAT_VERSION,
    };
    pub use dejavu_asic::switch::Disposition;
    pub use dejavu_asic::telemetry::{parse_json, to_json_string, to_prometheus, MetricsSnapshot};
    pub use dejavu_asic::{
        BufOutcome, DigestRecord, Eviction, ExecMode, Gress, InjectedPacket, PipeletId, PortId,
        RtcConfig, RtcReport, RtcSession, Switch, SwitchMetrics, TimingModel, TofinoProfile,
        TraceLevel, Traversal,
    };
    pub use dejavu_p4ir::lint::{Diagnostic, LintCode, LintConfig, LintReport, Severity};
}
