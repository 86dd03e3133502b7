//! The cluster runtime: communicating switch workers under an event-driven
//! control plane — one set of machines, two drivers.
//!
//! A cluster is one [`SwitchWorker`] per member, wired over a pluggable
//! [`Transport`], under a **controller** that learns concurrently with
//! traffic:
//!
//! * learn digests pushed upstream by workers are mapped through their
//!   [`LearnPolicy`] into table installs *while packets keep flowing* — no
//!   "process digests now" call required;
//! * table updates, idle timeouts, clock advances, metrics scrapes and
//!   state snapshots are request/reply command round trips;
//! * finished packets come back as [`Delivery`] records carrying the whole
//!   multi-switch flight summary, one fixed-size [`HopSummary`] per member
//!   visited.
//!
//! [`spawn_cluster`] gives the controller and every worker a thread of its
//! own. [`deploy_cluster`] boots the very same machines over a private
//! [`ChannelTransport`] and keeps them inside the handle, stepping them on
//! the caller's thread — controller queue, controller inbox, then worker
//! 0…n−1, until every queue is empty — between a facade request and its
//! reply: the deterministic reference (no thread, no clock, one fixed
//! interleaving) that the threaded and TCP paths are checked against.
//!
//! [`ClusterHandle`] is the synchronous facade over either: `inject`,
//! `install`, `advance_time`, `process_digests`, `snapshot_state`, the
//! migration verbs — and `inject_async` / `recv_delivered` for the
//! pipelined path underneath.

use super::wire::{ControlMsg, DataMsg, HopSummary, Message, TelemetryMsg};
use super::worker::SwitchWorker;
use super::{ChannelTransport, Endpoint, Link, Transport, TransportError};
use crate::chain::ChainSet;
use crate::control_plane::LearnPolicy;
use crate::deploy::{DeployError, DeployOptions, Deployment};
use crate::multiswitch::{build_cluster_members, ClusterPlacement, ClusterWiring};
use crate::nfmodule::NfModule;
use dejavu_asic::switch::Disposition;
use dejavu_asic::tables::Eviction;
use dejavu_asic::telemetry::{parse_json, snapshot_from_json};
use dejavu_asic::{
    InjectedPacket, MetricsSnapshot, PipeletId, PortId, StateSnapshot, Switch, TofinoProfile,
};
use dejavu_p4ir::table::TableEntry;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

// ---------------------------------------------------------------------
// Public result / report types
// ---------------------------------------------------------------------

/// Cluster runtime failure.
#[derive(Debug)]
pub enum ClusterError {
    /// Deployment failed before any worker was spawned.
    Deploy(DeployError),
    /// The transport failed while wiring the cluster.
    Transport(TransportError),
    /// A worker reported a failure executing a command or packet.
    Remote(String),
    /// A command round trip exceeded the configured timeout.
    Timeout(&'static str),
    /// The cluster was already shut down.
    Closed,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Deploy(e) => write!(f, "deploy: {e}"),
            ClusterError::Transport(e) => write!(f, "transport: {e}"),
            ClusterError::Remote(m) => write!(f, "remote: {m}"),
            ClusterError::Timeout(op) => write!(f, "timed out waiting for {op}"),
            ClusterError::Closed => write!(f, "cluster already shut down"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<DeployError> for ClusterError {
    fn from(e: DeployError) -> Self {
        ClusterError::Deploy(e)
    }
}

impl From<TransportError> for ClusterError {
    fn from(e: TransportError) -> Self {
        ClusterError::Transport(e)
    }
}

/// Spawn-time runtime configuration.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Enable telemetry on every member switch.
    pub telemetry: bool,
    /// How long synchronous facade calls wait for their round trip.
    pub op_timeout: Duration,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            telemetry: false,
            op_timeout: Duration::from_secs(10),
        }
    }
}

/// Per-member slice of a [`ClusterReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerSwitchReport {
    /// Cluster index of the member.
    pub switch: usize,
    /// Entries evicted on this member.
    pub evictions: usize,
    /// Digests this member emitted.
    pub digests: usize,
    /// Entries installed on this member.
    pub installed: usize,
}

/// Merged outcome of a cluster-wide maintenance operation.
#[derive(Debug, Clone, Default)]
pub struct ClusterReport {
    /// Evicted entries, attributed to the switch and pipelet they aged out
    /// on.
    pub evictions: Vec<(usize, PipeletId, Eviction)>,
    /// Digests consumed cluster-wide.
    pub digests_seen: usize,
    /// Entries installed cluster-wide (excludes idempotent re-learns).
    pub entries_installed: usize,
    /// Per-member breakdown, indexed by cluster position.
    pub per_switch: Vec<PerSwitchReport>,
}

impl ClusterReport {
    fn sized(n: usize) -> Self {
        ClusterReport {
            per_switch: (0..n)
                .map(|switch| PerSwitchReport {
                    switch,
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        }
    }

    /// Total evictions across the cluster.
    pub fn evicted(&self) -> usize {
        self.evictions.len()
    }
}

/// Merged + per-member metrics, as returned by
/// [`ClusterHandle::metrics_snapshot`].
#[derive(Debug, Clone, Default)]
pub struct ClusterScrape {
    /// All member snapshots merged (counters summed, histograms pooled).
    pub merged: MetricsSnapshot,
    /// Per-member snapshots, indexed by cluster position.
    pub per_switch: Vec<MetricsSnapshot>,
}

/// End-to-end record of one packet's flight across the cluster, built from
/// the fixed-size [`HopSummary`] postcards the packet accumulated in-band:
/// where it went and what each member cost, not which tables it met. A
/// member's table activity is its telemetry (`table_hits` /
/// `table_misses` in [`ClusterHandle::metrics_snapshot`]'s `per_switch`)
/// or, on a [`deploy_cluster`] cluster, its switch
/// ([`ClusterHandle::switch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WireTraversal {
    /// Per-switch summaries, in visit order.
    pub hops: Vec<HopSummary>,
    /// Final disposition (on the last switch visited).
    pub disposition: Disposition,
    /// Final wire bytes.
    pub final_bytes: Vec<u8>,
    /// Total latency including cable hops.
    pub latency_ns: f64,
    /// Total on-chip recirculations across switches.
    pub recirculations: usize,
    /// Total resubmissions across switches.
    pub resubmissions: usize,
    /// Inter-switch wire hops taken.
    pub inter_switch_hops: usize,
}

impl WireTraversal {
    fn from_delivery(disposition: Disposition, data: DataMsg) -> Self {
        let recirculations = data.hops.iter().map(|h| h.recirculations as usize).sum();
        let resubmissions = data.hops.iter().map(|h| h.resubmissions as usize).sum();
        WireTraversal {
            disposition,
            final_bytes: data.bytes,
            latency_ns: data.latency_ns,
            recirculations,
            resubmissions,
            inter_switch_hops: data.inter_switch_hops as usize,
            hops: data.hops,
        }
    }
}

/// One finished packet, as surfaced by [`ClusterHandle::recv_delivered`].
#[derive(Debug)]
pub struct Delivery {
    /// The trace id [`ClusterHandle::inject_async`] returned.
    pub trace: u64,
    /// The flight record, or the remote failure that ended it.
    pub result: Result<WireTraversal, String>,
}

// ---------------------------------------------------------------------
// Controller internals
// ---------------------------------------------------------------------

enum Request {
    Data(DataMsg),
    Install {
        nf: String,
        table: String,
        entry: TableEntry,
        reply: Sender<Result<u64, ClusterError>>,
    },
    Remove {
        nf: String,
        table: String,
        entry: TableEntry,
        reply: Sender<Result<u64, ClusterError>>,
    },
    SetIdleTimeout {
        nf: String,
        table: String,
        ticks: Option<u64>,
        reply: Sender<Result<u64, ClusterError>>,
    },
    AdvanceTime {
        ticks: u64,
        reply: Sender<Result<ClusterReport, ClusterError>>,
    },
    Flush {
        reply: Sender<Result<ClusterReport, ClusterError>>,
    },
    Scrape {
        reply: Sender<Result<ClusterScrape, ClusterError>>,
    },
    Snapshot {
        #[allow(clippy::type_complexity)]
        reply: Sender<Result<Vec<(usize, PipeletId, StateSnapshot)>, ClusterError>>,
    },
    Restore {
        switch: usize,
        pipelet: PipeletId,
        snapshot: StateSnapshot,
        reply: Sender<Result<u64, ClusterError>>,
    },
    RegisterPolicy {
        stream: String,
        nf: String,
        policy: LearnPolicy,
    },
    /// Park new ingress packets and reply once every in-flight packet has
    /// been delivered or nacked (the migration quiesce barrier). Replies
    /// with the number of packets that were still in flight when the pause
    /// was requested.
    PauseIngress {
        reply: Sender<Result<u64, ClusterError>>,
    },
    /// Release parked ingress packets and resume normal injection. Replies
    /// with the number of packets released.
    ResumeIngress {
        reply: Sender<Result<u64, ClusterError>>,
    },
    /// Stage a freshly built member on a worker's side channel, tagged with
    /// the swap command's seq, and command the swap over the wire.
    SwapMember {
        switch: usize,
        member: Box<(Switch, Deployment)>,
        reply: Sender<Result<u64, ClusterError>>,
    },
    /// Replace the NF → switch routing map after a re-placement.
    Remap {
        nf_switch: BTreeMap<String, usize>,
        reply: Sender<Result<u64, ClusterError>>,
    },
    Shutdown {
        reply: Sender<Result<(), ClusterError>>,
    },
}

/// Answers a request with an error (the caller may have stopped waiting).
fn refuse<T>(reply: Sender<Result<T, ClusterError>>, e: ClusterError) {
    let _ = reply.send(Err(e));
}

enum CtrlEvent {
    Frame(Vec<u8>),
    PumpClosed,
    Request(Request),
}

enum Pending {
    /// Reply `info` straight to the caller (Ack) or the error (Nack).
    Simple(Sender<Result<u64, ClusterError>>),
    /// A learned install triggered by a digest; on ack, account it to the
    /// switch and release the flush barrier if one is waiting.
    Learned { switch: usize },
    /// Part of a broadcast; the id indexes `Controller::gathers`.
    Gather { id: u64, switch: usize },
    /// A shutdown ack.
    Bye,
}

enum GatherAcc {
    Evictions {
        acc: Vec<(usize, PipeletId, Eviction)>,
        reply: Sender<Result<ClusterReport, ClusterError>>,
    },
    Metrics {
        acc: Vec<MetricsSnapshot>,
        reply: Sender<Result<ClusterScrape, ClusterError>>,
    },
    Snapshot {
        acc: Vec<(usize, PipeletId, StateSnapshot)>,
        #[allow(clippy::type_complexity)]
        reply: Sender<Result<Vec<(usize, PipeletId, StateSnapshot)>, ClusterError>>,
    },
    Drain {
        reply: Sender<Result<ClusterReport, ClusterError>>,
    },
}

struct Gather {
    expect: usize,
    acc: GatherAcc,
}

struct Controller {
    n: usize,
    events: Receiver<CtrlEvent>,
    links: Vec<Link>,
    nf_switch: BTreeMap<String, usize>,
    /// Learn policies and the NF that registered them, by merged stream.
    policies: BTreeMap<String, (String, LearnPolicy)>,
    delivered_tx: Sender<Delivery>,
    next_seq: u64,
    pending: BTreeMap<u64, Pending>,
    gathers: BTreeMap<u64, Gather>,
    next_gather: u64,
    /// Learned installs sent but not yet acked.
    learn_outstanding: usize,
    /// Digest / learned-install counters since the last flush report.
    digests_per_switch: Vec<usize>,
    installed_per_switch: Vec<usize>,
    /// A `process_digests` barrier waiting for quiescence.
    flush: Option<Sender<Result<ClusterReport, ClusterError>>>,
    /// Ingress pause state: while `true`, new data requests are parked
    /// instead of sent to worker 0 (the migration window).
    paused: bool,
    /// Packets parked while paused, released in arrival order on resume.
    parked: Vec<DataMsg>,
    /// Packets injected but not yet delivered or nacked.
    in_flight: usize,
    /// A `pause_ingress` barrier waiting for `in_flight` to drain.
    quiesce: Option<(u64, Sender<Result<u64, ClusterError>>)>,
    /// Per-worker side channels for staging live member swaps, each member
    /// tagged with the seq of the command that adopts it.
    swap_txs: Vec<Sender<(u64, Switch, Deployment)>>,
    /// Outstanding shutdown acks; reply once all workers said goodbye.
    bye: Option<(usize, Sender<Result<(), ClusterError>>)>,
    op_timeout: Duration,
}

impl Controller {
    fn seq(&mut self) -> u64 {
        self.next_seq += 2; // Even: can never collide with odd trace ids.
        self.next_seq
    }

    fn send_to(&mut self, switch: usize, msg: Message) -> Result<(), ClusterError> {
        self.links[switch].send(&msg).map_err(ClusterError::from)
    }

    /// Sends one command whose ack answers `reply`. A frame the link
    /// refuses (past `MAX_PAYLOAD`, or the link is gone) can never be
    /// acked: answer with the link's error now, not at `op_timeout`.
    fn command(
        &mut self,
        switch: usize,
        msg: ControlMsg,
        reply: Sender<Result<u64, ClusterError>>,
    ) {
        let seq = msg.seq();
        match self.send_to(switch, Message::Control(msg)) {
            Ok(()) => {
                self.pending.insert(seq, Pending::Simple(reply));
            }
            Err(e) => refuse(reply, e),
        }
    }

    /// Puts one packet on the link to worker 0. A frame the link refuses
    /// (past `MAX_PAYLOAD`, or worker 0 is gone) can never be delivered or
    /// nacked: answer its injector with the link's error now, not at
    /// `op_timeout`. It never went in flight, so `in_flight` is untouched.
    fn ingress(&mut self, d: DataMsg) {
        let trace = d.trace;
        match self.send_to(0, Message::Data(d)) {
            Ok(()) => self.in_flight += 1,
            Err(e) => {
                let _ = self.delivered_tx.send(Delivery {
                    trace,
                    result: Err(e.to_string()),
                });
            }
        }
    }

    /// The threaded driver: blocks on the event queue until shutdown.
    fn run(mut self) {
        loop {
            match self.events.recv_timeout(self.op_timeout) {
                Ok(ev) => {
                    if self.on_event(ev) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) if self.bye.is_none() => {}
                // The handle is gone, or workers never acked shutdown: stop
                // waiting.
                Err(_) => {
                    self.finish_shutdown();
                    return;
                }
            }
        }
    }

    /// Handles one event; `true` once a shutdown has completed.
    fn on_event(&mut self, ev: CtrlEvent) -> bool {
        match ev {
            // Workers only send telemetry upstream; a corrupt frame is
            // already a typed error — skip it.
            CtrlEvent::Frame(frame) => {
                if let Ok(Message::Telemetry(t)) = super::wire::decode(&frame) {
                    self.on_telemetry(t);
                }
            }
            CtrlEvent::PumpClosed => return self.finish_shutdown(),
            CtrlEvent::Request(req) => self.on_request(req),
        }
        self.bye.as_ref().is_some_and(|(left, _)| *left == 0) && self.finish_shutdown()
    }

    /// Answers a pending shutdown, if there is one.
    fn finish_shutdown(&mut self) -> bool {
        let Some((_, reply)) = self.bye.take() else {
            return false;
        };
        let _ = reply.send(Ok(()));
        true
    }

    fn on_request(&mut self, req: Request) {
        match req {
            Request::Data(d) => {
                if self.paused {
                    // Migration window: hold the packet, deliver it after
                    // the new placement is live. The injector's trace id
                    // stays valid — parked, not dropped.
                    self.parked.push(d);
                } else {
                    self.ingress(d);
                }
            }
            Request::Install {
                nf,
                table,
                entry,
                reply,
            } => self.command_for_nf(&nf, reply, |seq, nf| ControlMsg::Install {
                seq,
                nf,
                table,
                entry,
            }),
            Request::Remove {
                nf,
                table,
                entry,
                reply,
            } => self.command_for_nf(&nf, reply, |seq, nf| ControlMsg::Remove {
                seq,
                nf,
                table,
                entry,
            }),
            Request::SetIdleTimeout {
                nf,
                table,
                ticks,
                reply,
            } => self.command_for_nf(&nf, reply, |seq, nf| ControlMsg::SetIdleTimeout {
                seq,
                nf,
                table,
                ticks,
            }),
            Request::AdvanceTime { ticks, reply } => self.broadcast(
                GatherAcc::Evictions {
                    acc: Vec::new(),
                    reply,
                },
                |seq| ControlMsg::AdvanceTime { seq, ticks },
            ),
            Request::Flush { reply } => self.broadcast(GatherAcc::Drain { reply }, |seq| {
                ControlMsg::DrainDigests { seq }
            }),
            Request::Scrape { reply } => self.broadcast(
                GatherAcc::Metrics {
                    acc: vec![MetricsSnapshot::default(); self.n],
                    reply,
                },
                |seq| ControlMsg::ScrapeMetrics { seq },
            ),
            Request::Snapshot { reply } => self.broadcast(
                GatherAcc::Snapshot {
                    acc: Vec::new(),
                    reply,
                },
                |seq| ControlMsg::SnapshotState { seq },
            ),
            Request::Restore {
                switch,
                pipelet,
                snapshot,
                reply,
            } => {
                if switch >= self.n {
                    let _ = reply.send(Err(ClusterError::Remote(format!(
                        "no switch {switch} in a cluster of {}",
                        self.n
                    ))));
                } else {
                    let seq = self.seq();
                    let msg = ControlMsg::RestoreState {
                        seq,
                        pipelet,
                        snapshot,
                    };
                    self.command(switch, msg, reply);
                }
            }
            Request::RegisterPolicy { stream, nf, policy } => {
                self.policies.insert(stream, (nf, policy));
            }
            Request::PauseIngress { reply } => {
                self.paused = true;
                let outstanding = self.in_flight as u64;
                if outstanding == 0 {
                    let _ = reply.send(Ok(0));
                } else {
                    // Park the reply; the last delivery/nack releases it.
                    self.quiesce = Some((outstanding, reply));
                }
            }
            Request::ResumeIngress { reply } => {
                self.paused = false;
                let released = self.parked.len() as u64;
                for d in std::mem::take(&mut self.parked) {
                    self.ingress(d);
                }
                let _ = reply.send(Ok(released));
            }
            Request::SwapMember {
                switch,
                member,
                reply,
            } => {
                if switch >= self.n {
                    let _ = reply.send(Err(ClusterError::Remote(format!(
                        "no switch {switch} in a cluster of {}",
                        self.n
                    ))));
                } else {
                    // The tag keeps a member whose command the link refuses
                    // from being adopted by the next swap.
                    let seq = self.seq();
                    let (member_switch, deployment) = *member;
                    if self.swap_txs[switch]
                        .send((seq, member_switch, deployment))
                        .is_err()
                    {
                        let _ = reply.send(Err(ClusterError::Remote(format!(
                            "switch {switch}: side channel closed (worker gone?)"
                        ))));
                    } else {
                        self.command(switch, ControlMsg::SwapMember { seq }, reply);
                    }
                }
            }
            Request::Remap { nf_switch, reply } => {
                if let Some((nf, &sw)) = nf_switch.iter().find(|(_, &sw)| sw >= self.n) {
                    let _ = reply.send(Err(ClusterError::Remote(format!(
                        "NF {nf} mapped to switch {sw} in a cluster of {}",
                        self.n
                    ))));
                } else {
                    self.nf_switch = nf_switch;
                    let _ = reply.send(Ok(0));
                }
            }
            Request::Shutdown { reply } => {
                let mut sent = 0usize;
                for switch in 0..self.n {
                    let seq = self.seq();
                    self.pending.insert(seq, Pending::Bye);
                    if self
                        .send_to(switch, Message::Control(ControlMsg::Shutdown { seq }))
                        .is_ok()
                    {
                        sent += 1;
                    }
                }
                self.bye = Some((sent, reply));
            }
        }
    }

    /// Sends a single-worker command routed by NF placement.
    fn command_for_nf(
        &mut self,
        nf: &str,
        reply: Sender<Result<u64, ClusterError>>,
        make: impl FnOnce(u64, String) -> ControlMsg,
    ) {
        let Some(&switch) = self.nf_switch.get(nf) else {
            let _ = reply.send(Err(ClusterError::Remote(format!(
                "NF {nf} is not placed on any cluster member"
            ))));
            return;
        };
        let seq = self.seq();
        let msg = make(seq, nf.to_string());
        self.command(switch, msg, reply);
    }

    /// Sends one command to every member and opens the gather its replies
    /// fold into. A member the command cannot reach fails the verb at once.
    fn broadcast(&mut self, acc: GatherAcc, make: impl Fn(u64) -> ControlMsg) {
        self.next_gather += 1;
        let id = self.next_gather;
        let expect = self.n;
        self.gathers.insert(id, Gather { expect, acc });
        for switch in 0..self.n {
            let seq = self.seq();
            if let Err(e) = self.send_to(switch, Message::Control(make(seq))) {
                return self.fail_gather(id, e);
            }
            self.pending.insert(seq, Pending::Gather { id, switch });
        }
    }

    fn on_telemetry(&mut self, t: TelemetryMsg) {
        match t {
            TelemetryMsg::Ack { seq, info } => self.settle(seq, Ok(info)),
            TelemetryMsg::Nack { seq, error } => {
                if seq % 2 == 1 {
                    // Odd: a data-plane trace failed mid-flight.
                    let _ = self.delivered_tx.send(Delivery {
                        trace: seq,
                        result: Err(error),
                    });
                    self.on_packet_done();
                } else {
                    self.settle(seq, Err(ClusterError::Remote(error)));
                }
            }
            TelemetryMsg::Digests { switch, records } => {
                let switch = switch as usize;
                for (_, record) in records {
                    let Some((nf, policy)) = self.policies.get(&record.name) else {
                        continue; // No policy: dropped, like a learn filter.
                    };
                    let install = policy
                        .entry(&record.values)
                        .map(|entry| (nf.clone(), policy.table.clone(), entry));
                    if let Some(slot) = self.digests_per_switch.get_mut(switch) {
                        *slot += 1;
                    }
                    let Some((nf, table, entry)) = install else {
                        continue;
                    };
                    let Some(&target) = self.nf_switch.get(&nf) else {
                        continue;
                    };
                    let seq = self.seq();
                    let sent = self.send_to(
                        target,
                        Message::Control(ControlMsg::Install {
                            seq,
                            nf,
                            table,
                            entry,
                        }),
                    );
                    // Track only sends that can still produce an ack: a dead
                    // link yields no ack, and an undrainable
                    // learn_outstanding would park every later flush
                    // barrier forever.
                    if sent.is_ok() {
                        self.pending
                            .insert(seq, Pending::Learned { switch: target });
                        self.learn_outstanding += 1;
                    }
                }
            }
            TelemetryMsg::DrainDone { seq, digests: _ } => {
                // The digests themselves arrived (and were dispatched) just
                // before this marker on the same FIFO link.
                self.settle(seq, Ok(0));
            }
            TelemetryMsg::Metrics { seq, json } => {
                let snap = parse_json(&json)
                    .and_then(|v| snapshot_from_json(&v))
                    .unwrap_or_default();
                // Indexed, so per-switch order is stable whatever the
                // arrival order.
                self.gathered(seq, |acc, switch| {
                    if let GatherAcc::Metrics { acc, .. } = acc {
                        acc[switch] = snap;
                    }
                });
            }
            TelemetryMsg::Snapshot { seq, items } => self.gathered(seq, |acc, switch| {
                if let GatherAcc::Snapshot { acc, .. } = acc {
                    acc.extend(items.into_iter().map(|(p, snap)| (switch, p, snap)));
                }
            }),
            TelemetryMsg::Evictions { seq, evictions } => self.gathered(seq, |acc, switch| {
                if let GatherAcc::Evictions { acc, .. } = acc {
                    acc.extend(evictions.into_iter().map(|(p, ev)| (switch, p, ev)));
                }
            }),
            TelemetryMsg::Delivered { disposition, data } => {
                let _ = self.delivered_tx.send(Delivery {
                    trace: data.trace,
                    result: Ok(WireTraversal::from_delivery(disposition, data)),
                });
                self.on_packet_done();
            }
        }
        self.maybe_finish_flush();
    }

    /// Resolves one pending command with an ack (`Ok(info)`) or nack.
    fn settle(&mut self, seq: u64, outcome: Result<u64, ClusterError>) {
        match self.pending.remove(&seq) {
            Some(Pending::Simple(reply)) => {
                let _ = reply.send(outcome);
            }
            Some(Pending::Learned { switch }) => {
                self.learn_outstanding = self.learn_outstanding.saturating_sub(1);
                if matches!(outcome, Ok(1)) {
                    if let Some(slot) = self.installed_per_switch.get_mut(switch) {
                        *slot += 1;
                    }
                }
            }
            Some(Pending::Gather { id, switch: _ }) => match outcome {
                // A member that cannot ship its reply fails the broadcast.
                Err(e) => self.fail_gather(id, e),
                // DrainDone: nothing to accumulate, just count the arrival.
                Ok(_) => self.gather_done(id),
            },
            Some(Pending::Bye) => {
                if let Some((left, _)) = self.bye.as_mut() {
                    *left = left.saturating_sub(1);
                }
            }
            None => {}
        }
    }

    /// Folds one member's reply into the gather `seq` belongs to.
    fn gathered(&mut self, seq: u64, fold: impl FnOnce(&mut GatherAcc, usize)) {
        if let Some(Pending::Gather { id, switch }) = self.pending.remove(&seq) {
            if let Some(g) = self.gathers.get_mut(&id) {
                fold(&mut g.acc, switch);
            }
            self.gather_done(id);
        }
    }

    /// Answers a gather with `e` at once and forgets it (later arrivals for
    /// it are ignored): a checkpoint missing one member's state must never
    /// read as a shorter `Ok`.
    fn fail_gather(&mut self, id: u64, e: ClusterError) {
        match self.gathers.remove(&id).map(|g| g.acc) {
            Some(GatherAcc::Evictions { reply, .. } | GatherAcc::Drain { reply }) => {
                refuse(reply, e)
            }
            Some(GatherAcc::Metrics { reply, .. }) => refuse(reply, e),
            Some(GatherAcc::Snapshot { reply, .. }) => refuse(reply, e),
            None => {}
        }
    }

    fn gather_done(&mut self, id: u64) {
        let finished = {
            let Some(g) = self.gathers.get_mut(&id) else {
                return;
            };
            g.expect = g.expect.saturating_sub(1);
            g.expect == 0
        };
        if !finished {
            return;
        }
        let g = self.gathers.remove(&id).expect("present");
        match g.acc {
            GatherAcc::Evictions { acc, reply } => {
                let mut report = ClusterReport::sized(self.n);
                for (switch, _, _) in &acc {
                    if let Some(p) = report.per_switch.get_mut(*switch) {
                        p.evictions += 1;
                    }
                }
                report.evictions = acc;
                let _ = reply.send(Ok(report));
            }
            GatherAcc::Metrics { acc, reply } => {
                let mut merged = MetricsSnapshot::default();
                for s in &acc {
                    merged.merge(s);
                }
                let _ = reply.send(Ok(ClusterScrape {
                    merged,
                    per_switch: acc,
                }));
            }
            GatherAcc::Snapshot { acc, reply } => {
                let _ = reply.send(Ok(acc));
            }
            GatherAcc::Drain { reply } => {
                // All workers flushed. Learned installs may still be in
                // flight; park the reply until they are acked.
                self.flush = Some(reply);
            }
        }
    }

    /// One in-flight packet finished (delivered or nacked mid-flight);
    /// releases a waiting quiesce barrier when the last one lands.
    fn on_packet_done(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
        if self.in_flight == 0 {
            if let Some((outstanding, reply)) = self.quiesce.take() {
                let _ = reply.send(Ok(outstanding));
            }
        }
    }

    /// Completes a parked `process_digests` barrier once every learned
    /// install has been acked.
    fn maybe_finish_flush(&mut self) {
        if self.learn_outstanding > 0 {
            return;
        }
        let Some(reply) = self.flush.take() else {
            return;
        };
        let mut report = ClusterReport::sized(self.n);
        for (i, p) in report.per_switch.iter_mut().enumerate() {
            p.digests = self.digests_per_switch[i];
            p.installed = self.installed_per_switch[i];
            report.digests_seen += p.digests;
            report.entries_installed += p.installed;
        }
        self.digests_per_switch.iter_mut().for_each(|d| *d = 0);
        self.installed_per_switch.iter_mut().for_each(|d| *d = 0);
        let _ = reply.send(Ok(report));
    }
}

// ---------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------

/// The machines of a cluster nobody gave threads to: the handle steps them
/// itself.
struct Machines {
    controller: Controller,
    ctrl_inbox: Endpoint,
    workers: Vec<SwitchWorker>,
}

impl Machines {
    /// Runs the cluster until it is quiet: controller queue, controller
    /// inbox, then worker 0…n−1, each drained oldest frame first, again and
    /// again until a whole round finds every queue empty. The order is
    /// fixed, so a session of facade calls replays identically.
    fn settle(&mut self) {
        let mut busy = true;
        while busy {
            busy = false;
            while let Ok(ev) = self.controller.events.try_recv() {
                self.controller.on_event(ev);
                busy = true;
            }
            while let Ok(Some(frame)) = self.ctrl_inbox.try_recv_raw() {
                self.controller.on_event(CtrlEvent::Frame(frame));
                busy = true;
            }
            for worker in &mut self.workers {
                while worker.poll() {
                    busy = true;
                }
            }
        }
    }
}

/// Who runs the controller and the workers.
enum Driver {
    /// [`spawn_cluster`]: a thread each (controller first); the handle only
    /// waits for their replies.
    Threads(Vec<JoinHandle<()>>),
    /// [`deploy_cluster`]: the handle owns the machines and steps them on
    /// the caller's thread.
    Inline(Box<Machines>),
}

impl Driver {
    /// The one seam between the drivers: every wait of the handle — a
    /// command's reply, a delivery — goes through here. Threads block up to
    /// `timeout`; the inline driver settles the cluster and looks once, so
    /// a reply that is not there when the cluster is quiet times out at
    /// once, without ever sleeping.
    fn recv<T>(&mut self, rx: &Receiver<T>, timeout: Duration) -> Result<T, RecvTimeoutError> {
        match self {
            Driver::Threads(_) => rx.recv_timeout(timeout),
            Driver::Inline(machines) => {
                machines.settle();
                rx.try_recv().map_err(|e| match e {
                    TryRecvError::Empty => RecvTimeoutError::Timeout,
                    TryRecvError::Disconnected => RecvTimeoutError::Disconnected,
                })
            }
        }
    }
}

/// Owner's view of a running cluster: the synchronous facade (`inject`,
/// `install`, `advance_time`, `process_digests`, `snapshot_state`, the
/// migration verbs) plus the pipelined
/// [`inject_async`](ClusterHandle::inject_async) /
/// [`recv_delivered`](ClusterHandle::recv_delivered) pair. Dropping the
/// handle shuts the cluster down.
pub struct ClusterHandle {
    events_tx: Sender<CtrlEvent>,
    delivered_rx: Receiver<Delivery>,
    stashed: Vec<Delivery>,
    nf_switch: BTreeMap<String, usize>,
    n: usize,
    kind: &'static str,
    next_trace: u64,
    op_timeout: Duration,
    driver: Driver,
    closed: bool,
}

impl fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterHandle")
            .field("members", &self.n)
            .field("transport", &self.kind)
            .field("closed", &self.closed)
            .finish_non_exhaustive()
    }
}

impl ClusterHandle {
    /// Number of member switches.
    pub fn members(&self) -> usize {
        self.n
    }

    /// The transport kind this cluster runs over (`"channel"`, `"tcp"`, …).
    pub fn transport_kind(&self) -> &'static str {
        self.kind
    }

    /// Which cluster member hosts an NF.
    pub fn switch_of(&self, nf: &str) -> Option<usize> {
        self.nf_switch.get(nf).copied()
    }

    fn request(&self, req: Request) -> Result<(), ClusterError> {
        if self.closed {
            return Err(ClusterError::Closed);
        }
        self.events_tx
            .send(CtrlEvent::Request(req))
            .map_err(|_| ClusterError::Closed)
    }

    /// The member switch at `index`, while this thread owns the machines:
    /// `Some` only on a [`deploy_cluster`] cluster — a spawned member lives
    /// on its worker's thread, reachable only through messages.
    pub fn switch(&mut self, index: usize) -> Option<&mut Switch> {
        match &mut self.driver {
            Driver::Inline(machines) => machines.workers.get_mut(index).map(|w| &mut w.switch),
            Driver::Threads(_) => None,
        }
    }

    fn wait<T>(
        &mut self,
        rx: Receiver<Result<T, ClusterError>>,
        op: &'static str,
    ) -> Result<T, ClusterError> {
        match self.driver.recv(&rx, self.op_timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err(ClusterError::Timeout(op)),
            Err(RecvTimeoutError::Disconnected) => Err(ClusterError::Closed),
        }
    }

    /// Injects a packet at switch 0 and returns its trace id immediately;
    /// the flight record arrives later via
    /// [`recv_delivered`](ClusterHandle::recv_delivered). This is the
    /// pipelined path: many packets can be in flight across the cluster at
    /// once, while the control plane learns from their digests in parallel.
    pub fn inject_async(&mut self, packet: impl Into<InjectedPacket>) -> Result<u64, ClusterError> {
        let InjectedPacket { bytes, port } = packet.into();
        self.next_trace += 2; // Odd: distinct from even command seqs.
        let trace = self.next_trace;
        self.request(Request::Data(DataMsg {
            trace,
            port,
            latency_ns: 0.0,
            inter_switch_hops: 0,
            hops: Vec::new(),
            bytes,
        }))?;
        Ok(trace)
    }

    /// Waits for the next finished packet. `Ok(None)` when nothing arrived
    /// within `timeout`.
    pub fn recv_delivered(&mut self, timeout: Duration) -> Result<Option<Delivery>, ClusterError> {
        if !self.stashed.is_empty() {
            return Ok(Some(self.stashed.remove(0)));
        }
        match self.driver.recv(&self.delivered_rx, timeout) {
            Ok(d) => Ok(Some(d)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ClusterError::Closed),
        }
    }

    /// Synchronous facade: injects on `port` of switch 0 and blocks until
    /// this packet's flight record comes back.
    pub fn inject(
        &mut self,
        packet: impl Into<InjectedPacket>,
    ) -> Result<WireTraversal, ClusterError> {
        let trace = self.inject_async(packet)?;
        // An earlier waiter may have pulled this packet's delivery off the
        // channel and stashed it already.
        if let Some(pos) = self.stashed.iter().position(|d| d.trace == trace) {
            let d = self.stashed.remove(pos);
            return d.result.map_err(ClusterError::Remote);
        }
        let deadline = std::time::Instant::now() + self.op_timeout;
        loop {
            let left = deadline
                .checked_duration_since(std::time::Instant::now())
                .ok_or(ClusterError::Timeout("packet delivery"))?;
            // Read the channel directly: the stash holds only foreign
            // deliveries (checked above), so going through recv_delivered
            // here would cycle pop/re-push on the stash without ever
            // blocking on the channel.
            match self.driver.recv(&self.delivered_rx, left) {
                Ok(d) if d.trace == trace => return d.result.map_err(ClusterError::Remote),
                // A concurrent packet finished first; keep it for its waiter.
                Ok(d) => self.stashed.push(d),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(ClusterError::Timeout("packet delivery"))
                }
                Err(RecvTimeoutError::Disconnected) => return Err(ClusterError::Closed),
            }
        }
    }

    /// Installs an NF rule on whichever switch hosts the NF.
    pub fn install(
        &mut self,
        nf: &str,
        table: &str,
        entry: TableEntry,
    ) -> Result<(), ClusterError> {
        let (tx, rx) = channel();
        self.request(Request::Install {
            nf: nf.to_string(),
            table: table.to_string(),
            entry,
            reply: tx,
        })?;
        self.wait(rx, "install").map(|_| ())
    }

    /// Removes a previously installed entry; `Ok(true)` when it existed.
    pub fn remove(
        &mut self,
        nf: &str,
        table: &str,
        entry: TableEntry,
    ) -> Result<bool, ClusterError> {
        let (tx, rx) = channel();
        self.request(Request::Remove {
            nf: nf.to_string(),
            table: table.to_string(),
            entry,
            reply: tx,
        })?;
        self.wait(rx, "remove").map(|info| info == 1)
    }

    /// Sets or clears a table's idle timeout through the NF's API view.
    pub fn set_idle_timeout(
        &mut self,
        nf: &str,
        table: &str,
        ticks: Option<u64>,
    ) -> Result<(), ClusterError> {
        let (tx, rx) = channel();
        self.request(Request::SetIdleTimeout {
            nf: nf.to_string(),
            table: table.to_string(),
            ticks,
            reply: tx,
        })?;
        self.wait(rx, "set_idle_timeout").map(|_| ())
    }

    /// Advances logical time on every member and returns the merged
    /// eviction report. Clocks stay synchronized: every member advances by
    /// the same ticks before this returns.
    pub fn advance_time(&mut self, ticks: u64) -> Result<ClusterReport, ClusterError> {
        let (tx, rx) = channel();
        self.request(Request::AdvanceTime { ticks, reply: tx })?;
        self.wait(rx, "advance_time")
    }

    /// Flushes every member's digest queues and waits until all resulting
    /// learned installs have been acked — the synchronous face of the
    /// always-on learning loop. The report covers **all** digest activity
    /// since the previous call (the controller learns continuously, not
    /// just inside this call).
    pub fn process_digests(&mut self) -> Result<ClusterReport, ClusterError> {
        let (tx, rx) = channel();
        self.request(Request::Flush { reply: tx })?;
        self.wait(rx, "process_digests")
    }

    /// Registers the learn policy for an NF's digest stream on the
    /// controller (see
    /// [`ControlPlane::register_learn_policy`](crate::control_plane::ControlPlane::register_learn_policy));
    /// learned entries are installed on the member hosting `nf`.
    pub fn register_learn_policy(
        &mut self,
        nf: &str,
        stream: &str,
        policy: LearnPolicy,
    ) -> Result<(), ClusterError> {
        self.request(Request::RegisterPolicy {
            stream: crate::merge::scoped(nf, stream),
            nf: nf.to_string(),
            policy,
        })
    }

    /// Scrapes every member's metrics and returns merged + per-member
    /// snapshots.
    pub fn metrics_snapshot(&mut self) -> Result<ClusterScrape, ClusterError> {
        let (tx, rx) = channel();
        self.request(Request::Scrape { reply: tx })?;
        self.wait(rx, "metrics_snapshot")
    }

    /// Snapshots the dynamic state of every loaded pipelet across the
    /// cluster (the cluster-wide checkpoint).
    #[allow(clippy::type_complexity)]
    pub fn snapshot_state(
        &mut self,
    ) -> Result<Vec<(usize, PipeletId, StateSnapshot)>, ClusterError> {
        let (tx, rx) = channel();
        self.request(Request::Snapshot { reply: tx })?;
        self.wait(rx, "snapshot_state")
    }

    /// Restores a state snapshot onto one member's pipelet; returns the
    /// number of entries restored.
    pub fn restore_state(
        &mut self,
        switch: usize,
        pipelet: PipeletId,
        snapshot: &StateSnapshot,
    ) -> Result<usize, ClusterError> {
        let (tx, rx) = channel();
        self.request(Request::Restore {
            switch,
            pipelet,
            snapshot: snapshot.clone(),
            reply: tx,
        })?;
        self.wait(rx, "restore_state").map(|n| n as usize)
    }

    // ------------------------------------------------------------------
    // Migration verbs (the hitless re-placement window; see
    // `crate::orchestrator::migrate` for the driver that sequences them).
    // ------------------------------------------------------------------

    /// Parks new ingress traffic and blocks until every in-flight packet
    /// has finished its cluster flight (delivered or nacked) — the quiesce
    /// barrier opening a migration window. Packets injected while paused
    /// are queued, not rejected: their trace ids resolve after
    /// [`resume_ingress`](Self::resume_ingress). Returns how many packets
    /// were still in flight when the pause took effect.
    pub fn pause_ingress(&mut self) -> Result<u64, ClusterError> {
        let (tx, rx) = channel();
        self.request(Request::PauseIngress { reply: tx })?;
        self.wait(rx, "pause_ingress")
    }

    /// Releases traffic parked by [`pause_ingress`](Self::pause_ingress)
    /// in arrival order and resumes normal injection. Returns the number
    /// of packets released.
    pub fn resume_ingress(&mut self) -> Result<u64, ClusterError> {
        let (tx, rx) = channel();
        self.request(Request::ResumeIngress { reply: tx })?;
        self.wait(rx, "resume_ingress")
    }

    /// Replaces one member's switch and deployment with a freshly built
    /// pair, live; the newcomer keeps the telemetry setting of the member
    /// it replaces. The swap is transparent to peers — wiring, inboxes and
    /// links are untouched — but the new member starts with empty dynamic
    /// state and a zero clock: callers are expected to quiesce first and
    /// restore state after (the orchestrator's migration driver sequences
    /// this).
    pub fn swap_member(
        &mut self,
        switch: usize,
        member_switch: Switch,
        deployment: Deployment,
    ) -> Result<(), ClusterError> {
        let (tx, rx) = channel();
        self.request(Request::SwapMember {
            switch,
            member: Box::new((member_switch, deployment)),
            reply: tx,
        })?;
        self.wait(rx, "swap_member").map(|_| ())
    }

    /// Replaces the NF → switch routing map (both the controller's copy,
    /// which routes installs and learned entries, and this handle's copy
    /// behind [`switch_of`](Self::switch_of)) after members were swapped
    /// to a new placement.
    pub fn remap_nfs(&mut self, nf_switch: BTreeMap<String, usize>) -> Result<(), ClusterError> {
        let (tx, rx) = channel();
        self.request(Request::Remap {
            nf_switch: nf_switch.clone(),
            reply: tx,
        })?;
        self.wait(rx, "remap_nfs")?;
        self.nf_switch = nf_switch;
        Ok(())
    }

    /// Stops every worker and the controller. Idempotent; also invoked on
    /// drop.
    pub fn shutdown(&mut self) -> Result<(), ClusterError> {
        if self.closed {
            return Ok(());
        }
        let (tx, rx) = channel();
        let sent = self.request(Request::Shutdown { reply: tx });
        self.closed = true;
        if sent.is_ok() {
            let _ = self.wait(rx, "shutdown");
        }
        if let Driver::Threads(threads) = &mut self.driver {
            for t in threads.drain(..) {
                let _ = t.join();
            }
        }
        Ok(())
    }
}

impl Drop for ClusterHandle {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

// ---------------------------------------------------------------------
// Booting
// ---------------------------------------------------------------------

/// Deploys a chain set across a back-to-back cluster and boots it as
/// communicating workers over `transport`, the controller and every worker
/// on a thread of its own.
#[allow(clippy::too_many_arguments)]
pub fn spawn_cluster(
    nfs: &[&NfModule],
    chains: &ChainSet,
    placement: &ClusterPlacement,
    profile: &TofinoProfile,
    exit_ports: BTreeMap<u16, PortId>,
    wiring: &ClusterWiring,
    deploy_options: &DeployOptions,
    transport: &mut dyn Transport,
    options: &ClusterOptions,
) -> Result<ClusterHandle, ClusterError> {
    let members = build_cluster_members(
        nfs,
        chains,
        placement,
        profile,
        exit_ports,
        wiring,
        deploy_options,
    )?;
    boot(members, chains, wiring, transport, options, true)
}

/// Deploys a chain set across a back-to-back cluster and boots the same
/// controller and workers [`spawn_cluster`] does, over a private
/// [`ChannelTransport`] — but keeps them in the handle and steps them on the
/// caller's thread, in the fixed order the module docs give: no thread is
/// spawned, no facade call waits on a clock, and the same session always
/// replays the same way. This is the reference the threaded and TCP paths
/// are checked against.
pub fn deploy_cluster(
    nfs: &[&NfModule],
    chains: &ChainSet,
    placement: &ClusterPlacement,
    profile: &TofinoProfile,
    exit_ports: BTreeMap<u16, PortId>,
    wiring: &ClusterWiring,
    options: &DeployOptions,
) -> Result<ClusterHandle, ClusterError> {
    let members =
        build_cluster_members(nfs, chains, placement, profile, exit_ports, wiring, options)?;
    let transport = &mut ChannelTransport::new();
    boot(
        members,
        chains,
        wiring,
        transport,
        &ClusterOptions::default(),
        false,
    )
}

fn spawn_named(
    name: &str,
    f: impl FnOnce() + Send + 'static,
) -> Result<JoinHandle<()>, ClusterError> {
    thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .map_err(|e| ClusterError::Transport(TransportError::Io(e.to_string())))
}

/// Wires deployed members into a cluster — the one construction path under
/// both constructors; `threaded` only decides who drives the machines.
fn boot(
    members: Vec<(Switch, Deployment)>,
    chains: &ChainSet,
    wiring: &ClusterWiring,
    transport: &mut dyn Transport,
    options: &ClusterOptions,
    threaded: bool,
) -> Result<ClusterHandle, ClusterError> {
    let n = members.len();
    let kind = transport.kind();

    // NF → switch routing map, captured before deployments move away.
    let mut nf_switch = BTreeMap::new();
    for (i, (_, dep)) in members.iter().enumerate() {
        for nf in chains.all_nfs() {
            if dep.nf_location(&nf).is_some() {
                nf_switch.entry(nf).or_insert(i);
            }
        }
    }

    // Bind everyone first so links can be connected in one pass.
    let ctrl_inbox = transport.bind("ctrl")?;
    let ctrl_addr = ctrl_inbox.addr().clone();
    let mut worker_inboxes = Vec::with_capacity(n);
    for i in 0..n {
        worker_inboxes.push(transport.bind(&format!("w{i}"))?);
    }
    let worker_addrs: Vec<_> = worker_inboxes.iter().map(|e| e.addr().clone()).collect();

    // Controller-side links (control + ingress data for worker 0).
    let mut ctrl_links = Vec::with_capacity(n);
    for addr in &worker_addrs {
        ctrl_links.push(transport.connect(addr)?);
    }

    let mut workers = Vec::with_capacity(n);
    let mut swap_txs = Vec::with_capacity(n);
    for (i, ((mut switch, deployment), inbox)) in
        members.into_iter().zip(worker_inboxes).enumerate()
    {
        if options.telemetry {
            switch.set_telemetry(true);
        }
        let upstream = transport.connect(&ctrl_addr)?;
        let mut links = BTreeMap::new();
        if i + 1 < n {
            let next = transport.connect(&worker_addrs[i + 1])?;
            links.insert(wiring.egress_link_port, (next, wiring.ingress_link_port));
        }
        let (swap_tx, swap_rx) = channel();
        swap_txs.push(swap_tx);
        workers.push(SwitchWorker {
            index: i,
            switch,
            deployment,
            inbox,
            upstream,
            links,
            cable_ns: wiring.cable_ns,
            swap_rx,
        });
    }

    let (events_tx, events_rx) = channel();
    let (delivered_tx, delivered_rx) = channel();
    let controller = Controller {
        n,
        events: events_rx,
        links: ctrl_links,
        nf_switch: nf_switch.clone(),
        policies: BTreeMap::new(),
        delivered_tx,
        next_seq: 0,
        pending: BTreeMap::new(),
        gathers: BTreeMap::new(),
        next_gather: 0,
        learn_outstanding: 0,
        digests_per_switch: vec![0; n],
        installed_per_switch: vec![0; n],
        flush: None,
        paused: false,
        parked: Vec::new(),
        in_flight: 0,
        quiesce: None,
        swap_txs,
        bye: None,
        op_timeout: options.op_timeout,
    };

    let driver = if threaded {
        // The pump forwards upstream frames into the unified controller
        // queue, where they interleave with facade requests.
        let pump_tx = events_tx.clone();
        spawn_named("dejavu-ctrl-pump", move || loop {
            match ctrl_inbox.recv_raw() {
                Ok(frame) => {
                    if pump_tx.send(CtrlEvent::Frame(frame)).is_err() {
                        return;
                    }
                }
                Err(_) => {
                    let _ = pump_tx.send(CtrlEvent::PumpClosed);
                    return;
                }
            }
        })?;
        let mut threads = vec![spawn_named("dejavu-ctrl", move || controller.run())?];
        for worker in workers {
            let name = format!("dejavu-worker-{}", worker.index);
            threads.push(spawn_named(&name, move || worker.run())?);
        }
        Driver::Threads(threads)
    } else {
        Driver::Inline(Box::new(Machines {
            controller,
            ctrl_inbox,
            workers,
        }))
    };

    Ok(ClusterHandle {
        events_tx,
        delivered_rx,
        stashed: Vec::new(),
        nf_switch,
        n,
        kind,
        next_trace: 1,
        op_timeout: options.op_timeout,
        driver,
        closed: false,
    })
}
