//! The one Ingress story: how packets enter a Dejavu data plane.
//!
//! A switch has **one** packet walk (ingress pipelet → traffic manager →
//! egress pipelet → port or loopback, `dejavu_asic::switch`) behind **one**
//! admission check: loopback-mode ports and dedicated recirculation ports
//! take no external traffic, down links reject, unknown ports are out of
//! range. Three adapters feed it, all consuming the same unit of work — an
//! [`InjectedPacket`] (wire bytes + arrival port) or its two halves — and
//! all running on whichever engine [`ExecMode`](dejavu_asic::ExecMode)
//! selects:
//!
//! | Adapter | Returns | Use when |
//! |---|---|---|
//! | [`Switch::inject`] | [`Traversal`] | You want the full per-packet story: events (at [`TraceLevel::Full`](dejavu_asic::TraceLevel)), disposition, final bytes, latency, recirculations, mirror copies. The default. |
//! | [`Switch::inject_buf`] | [`BufOutcome`] | The same walk, no trace: your buffer in, final bytes out, zero allocations once warm. Mirror copies queue for [`Switch::drain_mirrored`]. |
//! | [`Switch::inject_batch`] | [`BatchStats`] | `inject_buf` over a slice: aggregate tallies only, per-packet errors counted not raised. |
//!
//! Above a single call there is one multi-worker engine,
//! [`RtcSession::run`] → [`RtcReport`]: per-core switch clones, pooled
//! buffers and rings, flow-hash steering, each worker running `inject_buf`.
//! `dejavu_traffic::replay` is the one replay driver: it interleaves a
//! flow-grouped workload and runs it through a fresh session, configured by
//! an [`RtcConfig`].
//!
//! Beyond a single switch, the same packet shape feeds the cluster:
//! [`ClusterHandle::inject`](crate::transport::cluster::ClusterHandle::inject)
//! / [`inject_async`](crate::transport::cluster::ClusterHandle::inject_async)
//! carry it across the member workers — real threads (and, over
//! [`TcpTransport`](crate::transport::tcp::TcpTransport), real sockets) on a
//! [`spawn_cluster`](crate::transport::cluster::spawn_cluster) cluster, the
//! caller's own thread on a
//! [`deploy_cluster`](crate::transport::cluster::deploy_cluster) one — and
//! it comes back as a
//! [`WireTraversal`](crate::transport::cluster::WireTraversal).

pub use dejavu_asic::switch::{BatchStats, BufOutcome, Traversal};
pub use dejavu_asic::{InjectedPacket, PortId, RtcConfig, RtcReport, RtcSession, Switch};
