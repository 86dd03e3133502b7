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
//! * packets an NF punts to the CPU are served by the registered punt
//!   handlers: the controller installs their remedy on the member hosting
//!   each NF and reinjects the packet, at most once per trace, into the
//!   member that punted it — its flight goes on under the same trace id;
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
//! `install`, `advance_time`, `process_digests`, `register_learn_policy`,
//! `register_handler`, `snapshot_state`, the migration verbs — and
//! `inject_async` / `recv_delivered` for the pipelined path underneath.

use super::wire::{self, ControlMsg, DataMsg, HopSummary, Message, TelemetryMsg};
use super::worker::SwitchWorker;
use super::{ChannelTransport, Endpoint, Link, Transport, TransportError};
use crate::chain::ChainSet;
use crate::control_plane::{DecisionCore, LearnPolicy, PuntHandler, PuntResponse};
use crate::deploy::{DeployError, DeployOptions, Deployment};
use crate::multiswitch::{build_cluster_members, ClusterPlacement, ClusterWiring};
use crate::nfmodule::NfModule;
use dejavu_asic::switch::Disposition;
use dejavu_asic::tables::Eviction;
use dejavu_asic::{
    InjectedPacket, MetricsSnapshot, PipeletId, PortId, StateSnapshot, Switch, TofinoProfile,
};
use dejavu_p4ir::table::TableEntry;
use std::collections::{BTreeMap, BTreeSet};
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
    /// No cluster member hosts the named NF.
    Unplaced(String),
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
            ClusterError::Unplaced(nf) => write!(f, "NF {nf} is not placed on any cluster member"),
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
    /// Frames dropped because they did not decode, controller and members.
    pub rejected_frames: u64,
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

/// Answers a request with an error (the caller may have stopped waiting).
fn refuse<T>(reply: Sender<Result<T, ClusterError>>, e: ClusterError) {
    let _ = reply.send(Err(e));
}

/// What the controller's queue carries.
enum CtrlEvent {
    /// A frame from a worker.
    Frame(Vec<u8>),
    /// The upstream pump lost the controller's inbox.
    PumpClosed,
    /// A packet to inject at switch 0 (unboxed: the hot path).
    Data(DataMsg),
    /// Any other facade request: the handle sends the code the controller
    /// runs for it, replying on the channel the code captured.
    Run(Box<dyn FnOnce(&mut Controller) + Send>),
}

enum Pending {
    /// Reply `info` straight to the caller (Ack) or the error (Nack).
    Simple(Sender<Result<u64, ClusterError>>),
    /// A learned install triggered by a digest; on ack, account it to the
    /// switch and release the flush barrier if one is waiting.
    Learned { switch: usize },
    /// An install a punt handler asked for the packet `trace`; `what` names
    /// the NF and table for the error a nack ends the flight with.
    Punt { trace: u64, what: String },
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
        acc: ClusterScrape,
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

/// A punted packet waiting for the installs its handlers asked for.
struct Punt {
    /// The flight so far.
    data: DataMsg,
    /// The bytes to reinject once every install is acked; `None` delivers
    /// the packet as `ToCpu` instead.
    reinject: Option<Vec<u8>>,
    /// Installs not yet acked.
    outstanding: usize,
}

struct Controller {
    n: usize,
    events: Receiver<CtrlEvent>,
    links: Vec<Link>,
    nf_switch: BTreeMap<String, usize>,
    /// The learn policies and punt handlers, and what they decide.
    decisions: DecisionCore,
    /// Punted packets waiting for their installs, by trace id.
    punts: BTreeMap<u64, Punt>,
    /// Traces reinjected after a punt and not yet finished: a second punt
    /// of one of them is delivered, not served again.
    reinjected: BTreeSet<u64>,
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
    /// Upstream frames dropped because they did not decode.
    rejected_frames: u64,
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
            // The one receive step: workers only send telemetry upstream; a
            // frame that does not decode is counted and dropped.
            CtrlEvent::Frame(frame) => match wire::decode(&frame) {
                Ok(Message::Telemetry(t)) => self.on_telemetry(t),
                Ok(_) => {}
                Err(_) => self.rejected_frames += 1,
            },
            CtrlEvent::PumpClosed => return self.finish_shutdown(),
            CtrlEvent::Data(d) if self.paused => {
                // Migration window: hold the packet, deliver it after the
                // new placement is live. The injector's trace id stays
                // valid — parked, not dropped.
                self.parked.push(d);
            }
            CtrlEvent::Data(d) => self.ingress(d),
            CtrlEvent::Run(run) => run(self),
        }
        self.bye.as_ref().is_some_and(|(left, _)| *left == 0) && self.finish_shutdown()
    }

    /// Tells every worker to stop; the reply waits for their acks.
    fn shutdown(&mut self, reply: Sender<Result<(), ClusterError>>) {
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

    /// Answers a pending shutdown, if there is one.
    fn finish_shutdown(&mut self) -> bool {
        let Some((_, reply)) = self.bye.take() else {
            return false;
        };
        let _ = reply.send(Ok(()));
        true
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
                    self.finish(seq, Err(error));
                } else {
                    self.settle(seq, Err(ClusterError::Remote(error)));
                }
            }
            TelemetryMsg::Digests { switch, records } => {
                for (_, record) in records {
                    let Some((nf, policy)) = self.decisions.learn(&record) else {
                        continue; // No policy: dropped, like a learn filter.
                    };
                    if let Some(slot) = self.digests_per_switch.get_mut(switch as usize) {
                        *slot += 1;
                    }
                    let Some(entry) = policy.entry(&record.values) else {
                        continue;
                    };
                    let Some(&target) = self.nf_switch.get(nf) else {
                        continue;
                    };
                    let (nf, table) = (nf.to_string(), policy.table.clone());
                    // Track only sends that can still produce an ack: a dead
                    // link yields no ack, and an undrainable
                    // learn_outstanding would park every later flush
                    // barrier forever.
                    let learned = Pending::Learned { switch: target };
                    if self.send_install(target, nf, table, entry, learned).is_ok() {
                        self.learn_outstanding += 1;
                    }
                }
            }
            TelemetryMsg::DrainDone { seq, digests: _ } => {
                // The digests themselves arrived (and were dispatched) just
                // before this marker on the same FIFO link.
                self.settle(seq, Ok(0));
            }
            TelemetryMsg::Metrics {
                seq,
                snapshot,
                rejected_frames,
            } => self.gathered(seq, |acc, switch| {
                // Indexed, so per-switch order is stable whatever the
                // arrival order.
                if let GatherAcc::Metrics { acc, .. } = acc {
                    acc.per_switch[switch] = snapshot;
                    acc.rejected_frames += rejected_frames;
                }
            }),
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
            TelemetryMsg::Delivered {
                disposition: Disposition::ToCpu,
                data,
            } => self.on_punt(data),
            TelemetryMsg::Delivered { disposition, data } => {
                let trace = data.trace;
                self.finish(trace, Ok(WireTraversal::from_delivery(disposition, data)));
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
            Some(Pending::Punt { trace, what }) => {
                let Some(punt) = self.punts.get_mut(&trace) else {
                    return; // An earlier install of this punt failed.
                };
                punt.outstanding -= 1;
                if let Err(e) = outcome {
                    self.punts.remove(&trace);
                    self.finish(trace, Err(format!("{what}: {e}")));
                } else if punt.outstanding == 0 {
                    let punt = self.punts.remove(&trace).expect("present");
                    self.reinject(punt);
                }
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
        let Some(g) = self.gathers.get_mut(&id) else {
            return;
        };
        g.expect = g.expect.saturating_sub(1);
        if g.expect > 0 {
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
            GatherAcc::Metrics { mut acc, reply } => {
                for s in &acc.per_switch {
                    acc.merged.merge(s);
                }
                acc.rejected_frames += self.rejected_frames;
                let _ = reply.send(Ok(acc));
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

    /// Sends one install to `switch`, tracking `pending` for its ack only
    /// if the link took the frame.
    fn send_install(
        &mut self,
        switch: usize,
        nf: String,
        table: String,
        entry: TableEntry,
        pending: Pending,
    ) -> Result<(), ClusterError> {
        let seq = self.seq();
        let install = ControlMsg::Install {
            seq,
            nf,
            table,
            entry,
        };
        self.send_to(switch, Message::Control(install))?;
        self.pending.insert(seq, pending);
        Ok(())
    }

    /// Serves a packet that came back punted: the handlers' installs go to
    /// the members hosting their NFs, and the packet is reinjected once the
    /// last one acks. A packet no handler claims, or one already reinjected
    /// under its trace, is delivered as `ToCpu`; an install that cannot be
    /// routed or sent ends the flight with an error naming it.
    fn on_punt(&mut self, data: DataMsg) {
        let trace = data.trace;
        let answer = if self.reinjected.contains(&trace) {
            PuntResponse::default()
        } else {
            self.decisions.punt(&data.bytes)
        };
        let mut punt = Punt {
            data,
            reinject: answer.reinject_bytes,
            outstanding: 0,
        };
        for (nf, table, entry) in answer.install {
            let what = format!("punt install into {nf}/{table}");
            let sent = match self.nf_switch.get(&nf) {
                Some(&target) => {
                    let pending = Pending::Punt {
                        trace,
                        what: what.clone(),
                    };
                    self.send_install(target, nf, table, entry, pending)
                }
                None => Err(ClusterError::Unplaced(nf)),
            };
            if let Err(e) = sent {
                return self.finish(trace, Err(format!("{what}: {e}")));
            }
            punt.outstanding += 1;
        }
        if punt.outstanding == 0 {
            self.reinject(punt);
        } else {
            self.punts.insert(trace, punt);
        }
    }

    /// Sends a served punt's bytes back into the member that punted it, on
    /// the port the packet arrived on there, under the same trace id — so
    /// its flight record runs on. Without bytes to reinject, the packet is
    /// delivered as `ToCpu`.
    fn reinject(&mut self, mut punt: Punt) {
        let trace = punt.data.trace;
        let Some(bytes) = punt.reinject else {
            let delivery = WireTraversal::from_delivery(Disposition::ToCpu, punt.data);
            return self.finish(trace, Ok(delivery));
        };
        punt.data.bytes = bytes;
        let member = punt.data.hops.last().map_or(0, |h| h.switch as usize);
        match self.send_to(member, Message::Data(punt.data)) {
            Ok(()) => {
                self.reinjected.insert(trace);
            }
            Err(e) => self.finish(trace, Err(e.to_string())),
        }
    }

    /// Hands a finished in-flight packet (delivered, or failed mid-flight)
    /// to its injector; releases a waiting quiesce barrier when the last
    /// one lands.
    fn finish(&mut self, trace: u64, result: Result<WireTraversal, String>) {
        self.reinjected.remove(&trace);
        let _ = self.delivered_tx.send(Delivery { trace, result });
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

    fn request(&self, ev: CtrlEvent) -> Result<(), ClusterError> {
        if self.closed {
            return Err(ClusterError::Closed);
        }
        self.events_tx.send(ev).map_err(|_| ClusterError::Closed)
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

    /// One request/reply round trip: the controller runs `run` with the
    /// reply channel, and the reply is waited for as `op`.
    fn call<T: Send + 'static>(
        &mut self,
        op: &'static str,
        run: impl FnOnce(&mut Controller, Sender<Result<T, ClusterError>>) + Send + 'static,
    ) -> Result<T, ClusterError> {
        let (tx, rx) = channel();
        self.request(CtrlEvent::Run(Box::new(move |c| run(c, tx))))?;
        self.wait(rx, op)
    }

    /// A round trip for the command `make` builds, from its seq, for
    /// member `switch`.
    fn command(
        &mut self,
        op: &'static str,
        switch: usize,
        make: impl FnOnce(u64) -> ControlMsg + Send + 'static,
    ) -> Result<u64, ClusterError> {
        self.member(switch)?;
        self.call(op, move |c, reply| {
            let seq = c.seq();
            c.command(switch, make(seq), reply)
        })
    }

    /// A round trip for the command `make` builds, from its seq and `nf`,
    /// for the member hosting `nf`.
    fn command_for_nf(
        &mut self,
        op: &'static str,
        nf: &str,
        make: impl FnOnce(u64, String) -> ControlMsg + Send + 'static,
    ) -> Result<u64, ClusterError> {
        let (switch, nf) = (self.host(nf)?, nf.to_string());
        self.command(op, switch, move |seq| make(seq, nf))
    }

    /// The member hosting `nf`; [`ClusterError::Unplaced`] when none does.
    fn host(&self, nf: &str) -> Result<usize, ClusterError> {
        self.switch_of(nf)
            .ok_or_else(|| ClusterError::Unplaced(nf.to_string()))
    }

    /// [`ClusterError::Remote`] unless `switch` is a member.
    fn member(&self, switch: usize) -> Result<(), ClusterError> {
        if switch < self.n {
            return Ok(());
        }
        Err(ClusterError::Remote(format!(
            "no switch {switch} in a cluster of {}",
            self.n
        )))
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
        self.request(CtrlEvent::Data(DataMsg {
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
        let table = table.to_string();
        self.command_for_nf("install", nf, |seq, nf| ControlMsg::Install {
            seq,
            nf,
            table,
            entry,
        })
        .map(|_| ())
    }

    /// Removes a previously installed entry; `Ok(true)` when it existed.
    pub fn remove(
        &mut self,
        nf: &str,
        table: &str,
        entry: TableEntry,
    ) -> Result<bool, ClusterError> {
        let table = table.to_string();
        self.command_for_nf("remove", nf, |seq, nf| ControlMsg::Remove {
            seq,
            nf,
            table,
            entry,
        })
        .map(|info| info == 1)
    }

    /// Sets or clears a table's idle timeout through the NF's API view.
    pub fn set_idle_timeout(
        &mut self,
        nf: &str,
        table: &str,
        ticks: Option<u64>,
    ) -> Result<(), ClusterError> {
        let table = table.to_string();
        self.command_for_nf("set_idle_timeout", nf, move |seq, nf| {
            ControlMsg::SetIdleTimeout {
                seq,
                nf,
                table,
                ticks,
            }
        })
        .map(|_| ())
    }

    /// Advances logical time on every member and returns the merged
    /// eviction report. Clocks stay synchronized: every member advances by
    /// the same ticks before this returns.
    pub fn advance_time(&mut self, ticks: u64) -> Result<ClusterReport, ClusterError> {
        self.call("advance_time", move |c, reply| {
            let acc = GatherAcc::Evictions {
                acc: Vec::new(),
                reply,
            };
            c.broadcast(acc, |seq| ControlMsg::AdvanceTime { seq, ticks })
        })
    }

    /// Flushes every member's digest queues and waits until all resulting
    /// learned installs have been acked — the synchronous face of the
    /// always-on learning loop. The report covers **all** digest activity
    /// since the previous call (the controller learns continuously, not
    /// just inside this call).
    pub fn process_digests(&mut self) -> Result<ClusterReport, ClusterError> {
        self.call("process_digests", |c, reply| {
            c.broadcast(GatherAcc::Drain { reply }, |seq| ControlMsg::DrainDigests {
                seq,
            })
        })
    }

    /// Registers the learn policy for an NF's digest stream on the
    /// controller, as
    /// [`ControlPlane::register_learn_policy`](crate::control_plane::ControlPlane::register_learn_policy)
    /// does; learned entries are installed on the member hosting `nf`.
    /// [`ClusterError::Unplaced`] when no member hosts `nf`.
    pub fn register_learn_policy(
        &mut self,
        nf: &str,
        stream: &str,
        policy: LearnPolicy,
    ) -> Result<(), ClusterError> {
        let (owner, stream) = (nf.to_string(), stream.to_string());
        self.register(nf, move |d| {
            d.register_learn_policy(&owner, &stream, policy)
        })
    }

    /// Sends an NF's punt handler to the controller. A packet that comes
    /// back punted goes through the handlers instead of being delivered:
    /// their entries are installed on the members hosting their NFs and,
    /// once all are acked, the packet is reinjected into the member that
    /// punted it — at most once per trace; a second punt is delivered as
    /// `ToCpu`. [`ClusterError::Unplaced`] when no member hosts `nf`.
    pub fn register_handler(&mut self, nf: &str, handler: PuntHandler) -> Result<(), ClusterError> {
        let owner = nf.to_string();
        self.register(nf, move |d| d.register_handler(&owner, handler))
    }

    fn register(
        &mut self,
        nf: &str,
        register: impl FnOnce(&mut DecisionCore) + Send + 'static,
    ) -> Result<(), ClusterError> {
        self.host(nf)?;
        self.request(CtrlEvent::Run(Box::new(|c| register(&mut c.decisions))))
    }

    /// Scrapes every member's metrics and returns merged + per-member
    /// snapshots. A reply that fails its check names no member, so the
    /// scrape fails with [`ClusterError::Timeout`] instead of reading zeros.
    pub fn metrics_snapshot(&mut self) -> Result<ClusterScrape, ClusterError> {
        self.call("metrics_snapshot", |c, reply| {
            let acc = ClusterScrape {
                per_switch: vec![MetricsSnapshot::default(); c.n],
                ..Default::default()
            };
            c.broadcast(GatherAcc::Metrics { acc, reply }, |seq| {
                ControlMsg::ScrapeMetrics { seq }
            })
        })
    }

    /// Snapshots the dynamic state of every loaded pipelet across the
    /// cluster (the cluster-wide checkpoint).
    #[allow(clippy::type_complexity)]
    pub fn snapshot_state(
        &mut self,
    ) -> Result<Vec<(usize, PipeletId, StateSnapshot)>, ClusterError> {
        self.call("snapshot_state", |c, reply| {
            let acc = Vec::new();
            c.broadcast(GatherAcc::Snapshot { acc, reply }, |seq| {
                ControlMsg::SnapshotState { seq }
            })
        })
    }

    /// Restores a state snapshot onto one member's pipelet; returns the
    /// number of entries restored.
    pub fn restore_state(
        &mut self,
        switch: usize,
        pipelet: PipeletId,
        snapshot: &StateSnapshot,
    ) -> Result<usize, ClusterError> {
        let snapshot = snapshot.clone();
        self.command("restore_state", switch, move |seq| {
            ControlMsg::RestoreState {
                seq,
                pipelet,
                snapshot,
            }
        })
        .map(|n| n as usize)
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
        self.call("pause_ingress", |c, reply| {
            c.paused = true;
            match c.in_flight as u64 {
                0 => drop(reply.send(Ok(0))),
                // Park the reply; the last delivery/nack releases it.
                outstanding => c.quiesce = Some((outstanding, reply)),
            }
        })
    }

    /// Releases traffic parked by [`pause_ingress`](Self::pause_ingress)
    /// in arrival order and resumes normal injection. Returns the number
    /// of packets released.
    pub fn resume_ingress(&mut self) -> Result<u64, ClusterError> {
        self.call("resume_ingress", |c, reply| {
            c.paused = false;
            let parked = std::mem::take(&mut c.parked);
            let released = parked.len() as u64;
            parked.into_iter().for_each(|d| c.ingress(d));
            let _ = reply.send(Ok(released));
        })
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
        self.member(switch)?;
        self.call("swap_member", move |c, reply| {
            // The tag keeps a member whose command the link refuses from
            // being adopted by the next swap.
            let seq = c.seq();
            if c.swap_txs[switch]
                .send((seq, member_switch, deployment))
                .is_err()
            {
                let e = format!("switch {switch}: side channel closed (worker gone?)");
                return refuse(reply, ClusterError::Remote(e));
            }
            c.command(switch, ControlMsg::SwapMember { seq }, reply)
        })
        .map(|_| ())
    }

    /// Replaces the NF → switch routing map (both the controller's copy,
    /// which routes installs and learned entries, and this handle's copy
    /// behind [`switch_of`](Self::switch_of)) after members were swapped
    /// to a new placement.
    pub fn remap_nfs(&mut self, nf_switch: BTreeMap<String, usize>) -> Result<(), ClusterError> {
        if let Some((nf, &sw)) = nf_switch.iter().find(|(_, &sw)| sw >= self.n) {
            return Err(ClusterError::Remote(format!(
                "NF {nf} mapped to switch {sw} in a cluster of {}",
                self.n
            )));
        }
        let map = nf_switch.clone();
        self.call("remap_nfs", |c, reply| {
            c.nf_switch = map;
            let _ = reply.send(Ok(0));
        })?;
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
        let sent = self.request(CtrlEvent::Run(Box::new(|c| c.shutdown(tx))));
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
            rejected_frames: 0,
        });
    }

    let (events_tx, events_rx) = channel();
    let (delivered_tx, delivered_rx) = channel();
    let controller = Controller {
        n,
        events: events_rx,
        links: ctrl_links,
        nf_switch: nf_switch.clone(),
        decisions: DecisionCore::default(),
        punts: BTreeMap::new(),
        reinjected: BTreeSet::new(),
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
        rejected_frames: 0,
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
