//! The cluster runtime: communicating switch workers under an event-driven
//! control plane — one set of machines, two drivers.
//!
//! A cluster is one [`SwitchWorker`] per member, wired over a pluggable
//! [`Transport`], under a **controller**:
//!
//! * each member learns its own digests, after every packet, through the
//!   [`LearnPolicy`] registered on every member — the digest's NF, and so
//!   its table, is on the member that emitted it, so learning needs no
//!   controller round trip and no "process digests now" call;
//! * packets an NF punts to the CPU are served by the registered punt
//!   handlers: the controller installs their remedy on the member hosting
//!   each NF and reinjects the packet, at most once per trace, into the
//!   member that punted it — its flight goes on under the same trace id;
//! * table updates, idle timeouts, clock advances, metrics scrapes and
//!   state snapshots are request/reply command round trips, each reply
//!   handled by the code that sent the command; a verb addressed to
//!   several members sends each its command at once and gathers the
//!   replies by member index;
//! * whatever the controller awaits — a command's reply, a packet's
//!   delivery — fails with [`ClusterError::Timeout`] once `op_timeout` has
//!   passed since it was sent, so a lost frame wedges nothing after it;
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
//! `register_handler`, `snapshot_state` / `restore_state`, the migration
//! verbs `stage_member`, `pause_ingress`, `snapshot_slices`, `flip`,
//! `resume_ingress` and `retire` — and `inject_async` / `recv_delivered`
//! for the pipelined path underneath.

use super::wire::{self, ControlMsg, DataMsg, HopSummary, Message, SealedSlice, TelemetryMsg};
use super::worker::SwitchWorker;
use super::{ChannelTransport, Endpoint, Link, Transport, TransportError};
use crate::chain::ChainSet;
use crate::control_plane::{DecisionCore, LearnPolicy, Learned, PuntHandler, PuntResponse};
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
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

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
    /// How long synchronous facade calls wait for their round trip, and
    /// how long the controller awaits a reply or a delivery before it
    /// fails it.
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
    /// Digests this member emitted that a policy claimed.
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

/// What a flight that outlived `op_timeout` fails with.
const FLIGHT_TIMEOUT: ClusterError = ClusterError::Timeout("packet delivery");

/// A finished flight on its way to the handle, by trace id. Its failure is
/// [`FLIGHT_TIMEOUT`] or a [`ClusterError::Remote`] with the text a
/// [`Delivery`] reports, so [`ClusterHandle::inject`] returns it as is.
type Landed = (u64, Result<WireTraversal, ClusterError>);

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

/// A member's reply to one command, or the failure that stands in for it —
/// a nack, a link that refused the frame, or `op_timeout`.
type Reply = Result<TelemetryMsg, ClusterError>;

/// What a command's reply does, left by the code that sent the command. It
/// runs once.
type Then = Box<dyn FnOnce(&mut Controller, Reply) + Send>;

/// What a broadcast's replies do: every member's reply, or the failure
/// standing in for it, in the order the members were addressed.
type Gathered = Box<dyn FnOnce(&mut Controller, Vec<Reply>) + Send>;

/// A broadcast's replies as they come in, by position in its member list.
struct Gather {
    replies: Vec<Option<Reply>>,
    left: usize,
    done: Option<Gathered>,
}

/// A plain command's reply: the ack's `info`.
fn info(reply: Reply) -> Result<u64, ClusterError> {
    match reply? {
        TelemetryMsg::Ack { info, .. } => Ok(info),
        other => Err(ClusterError::Remote(format!("not an ack: {other:?}"))),
    }
}

/// The [`Then`] of a plain command: its `info`, or the failure, to `reply`.
fn reply_info(reply: Sender<Result<u64, ClusterError>>) -> Then {
    Box::new(move |_, r| drop(reply.send(info(r))))
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
    /// The punt handlers, and what they decide; the learn policies are the
    /// members'.
    decisions: DecisionCore,
    /// Punted packets waiting for their installs, by trace id.
    punts: BTreeMap<u64, Punt>,
    /// Traces reinjected after a punt and not yet finished: a second punt
    /// of one of them is delivered, not served again.
    reinjected: BTreeSet<u64>,
    delivered_tx: Sender<Landed>,
    next_seq: u64,
    /// Commands sent and not yet answered, by seq: their deadline and what
    /// their reply does.
    pending: BTreeMap<u64, (Instant, Then)>,
    /// Ingress pause state: while `true`, new data requests are parked
    /// instead of sent to worker 0 (the migration window).
    paused: bool,
    /// Packets parked while paused, released in arrival order on resume.
    parked: Vec<DataMsg>,
    /// Packets injected and not yet delivered or nacked, by trace id, with
    /// their deadline.
    in_flight: BTreeMap<u64, Instant>,
    /// A `pause_ingress` barrier waiting for `in_flight` to drain.
    quiesce: Option<(u64, Sender<Result<u64, ClusterError>>)>,
    /// A shutdown in progress: whether every worker has answered, and the
    /// reply to send once they have.
    bye: Option<(bool, Sender<Result<(), ClusterError>>)>,
    op_timeout: Duration,
    /// When the event being handled arrived, which deadlines count from:
    /// the threaded driver reads the clock once per event. The inline
    /// driver expires by quiet, not by clock, and never reads it.
    now: Instant,
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

    /// Sends one command; `then` handles its reply. A frame the link
    /// refuses (past `MAX_PAYLOAD`, or the link is gone) can never be
    /// answered: `then` gets the link's error now, not at `op_timeout`.
    fn command(&mut self, switch: usize, msg: ControlMsg, then: Then) {
        let seq = msg.seq();
        match self.send_to(switch, Message::Control(msg)) {
            Ok(()) => {
                let deadline = self.now + self.op_timeout;
                self.pending.insert(seq, (deadline, then));
            }
            Err(e) => then(self, Err(e)),
        }
    }

    /// Sends each of `members` the command `make` builds from the member
    /// and a fresh seq, all at once, and hands `done` every reply, or the
    /// failure standing in for it, in `members` order once the last is
    /// in. Every member is sent its command before any reply is read, so
    /// a member that fails stops none of the others.
    fn broadcast(
        &mut self,
        members: Vec<usize>,
        mut make: impl FnMut(usize, u64) -> ControlMsg,
        done: Gathered,
    ) {
        if members.is_empty() {
            return done(self, Vec::new());
        }
        let gather = Arc::new(Mutex::new(Gather {
            replies: members.iter().map(|_| None).collect(),
            left: members.len(),
            done: Some(done),
        }));
        for (at, &switch) in members.iter().enumerate() {
            let msg = make(switch, self.seq());
            let gather = Arc::clone(&gather);
            let then: Then = Box::new(move |c, reply| {
                let finished = {
                    let mut g = gather.lock().expect("only the controller's thread gathers");
                    g.replies[at] = Some(reply);
                    g.left -= 1;
                    if g.left == 0 {
                        g.done
                            .take()
                            .map(|done| (done, std::mem::take(&mut g.replies)))
                    } else {
                        None
                    }
                };
                if let Some((done, replies)) = finished {
                    done(c, replies.into_iter().flatten().collect())
                }
            });
            self.command(switch, msg, then);
        }
    }

    /// Puts one packet on the link to worker 0. A frame the link refuses
    /// (past `MAX_PAYLOAD`, or worker 0 is gone) can never be delivered or
    /// nacked: answer its injector with the link's error now, not at
    /// `op_timeout`. It never went in flight.
    fn ingress(&mut self, d: DataMsg) {
        let trace = d.trace;
        match self.send_to(0, Message::Data(d)) {
            Ok(()) => {
                self.in_flight.insert(trace, self.now + self.op_timeout);
            }
            Err(e) => {
                let failed = Err(ClusterError::Remote(e.to_string()));
                let _ = self.delivered_tx.send((trace, failed));
            }
        }
    }

    /// The threaded driver: blocks on the event queue until shutdown, and
    /// expires what is overdue at least every `op_timeout / 4`.
    fn run(mut self) {
        let sweep = self.op_timeout / 4;
        let mut due = self.now + sweep;
        loop {
            // A queued event needs no clock to be taken; only an empty
            // queue is waited on, until the next sweep.
            let ev = self.events.try_recv().or_else(|_| {
                self.events
                    .recv_timeout(due.saturating_duration_since(self.now))
            });
            self.now = Instant::now();
            match ev {
                Ok(ev) => {
                    if self.on_event(ev) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                // The handle and the pump are gone: stop waiting.
                Err(RecvTimeoutError::Disconnected) => {
                    self.finish_shutdown();
                    return;
                }
            }
            if self.now >= due {
                if self.expire(Some(self.now)) {
                    return;
                }
                due = self.now + sweep;
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
        self.said_bye()
    }

    /// Fails everything awaited past its deadline: a command through its
    /// [`Then`] (`ClusterError::Timeout`), a flight as a failed
    /// [`Delivery`]. With `now` `None`, everything awaited — the inline
    /// driver's rule once the cluster is quiet, when nothing outstanding
    /// can be answered any more. `true` once that completes a shutdown.
    fn expire(&mut self, now: Option<Instant>) -> bool {
        let late = |deadline: &Instant| now.is_none_or(|now| *deadline <= now);
        let seqs: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, (deadline, _))| late(deadline))
            .map(|(&seq, _)| seq)
            .collect();
        for seq in seqs {
            self.settle(seq, Err(ClusterError::Timeout("reply")));
        }
        let traces: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, deadline)| late(deadline))
            .map(|(&trace, _)| trace)
            .collect();
        for trace in traces {
            self.finish(trace, Err(FLIGHT_TIMEOUT));
        }
        self.said_bye()
    }

    /// Tells every worker to stop; the reply waits for their acks, or the
    /// failures standing in for them.
    fn shutdown(&mut self, reply: Sender<Result<(), ClusterError>>) {
        self.bye = Some((false, reply));
        let done: Gathered = Box::new(|c, _| {
            if let Some((said, _)) = c.bye.as_mut() {
                *said = true;
            }
        });
        let make = |_, seq| ControlMsg::Shutdown { seq };
        self.broadcast((0..self.n).collect(), make, done);
    }

    /// Completes a shutdown every member has answered; `true` if it did.
    fn said_bye(&mut self) -> bool {
        self.bye.as_ref().is_some_and(|(said, _)| *said) && self.finish_shutdown()
    }

    /// Answers a pending shutdown, if there is one.
    fn finish_shutdown(&mut self) -> bool {
        let Some((_, reply)) = self.bye.take() else {
            return false;
        };
        let _ = reply.send(Ok(()));
        true
    }

    fn on_telemetry(&mut self, t: TelemetryMsg) {
        match t {
            // Odd: a data-plane trace failed mid-flight.
            TelemetryMsg::Nack { seq, error } if seq % 2 == 1 => {
                self.finish(seq, Err(ClusterError::Remote(error)))
            }
            TelemetryMsg::Nack { seq, error } => self.settle(seq, Err(ClusterError::Remote(error))),
            reply @ (TelemetryMsg::Ack { seq, .. }
            | TelemetryMsg::DrainDone { seq, .. }
            | TelemetryMsg::Metrics { seq, .. }
            | TelemetryMsg::Snapshot { seq, .. }
            | TelemetryMsg::Slices { seq, .. }
            | TelemetryMsg::Evictions { seq, .. }) => self.settle(seq, Ok(reply)),
            TelemetryMsg::Delivered {
                disposition: Disposition::ToCpu,
                data,
            } => self.on_punt(data),
            TelemetryMsg::Delivered { disposition, data } => {
                let trace = data.trace;
                self.finish(trace, Ok(WireTraversal::from_delivery(disposition, data)));
            }
        }
    }

    /// Hands a reply, or the failure standing in for it, to the code the
    /// command `seq` left for it. A seq nobody waits for any more is
    /// dropped.
    fn settle(&mut self, seq: u64, reply: Reply) {
        if let Some((_, then)) = self.pending.remove(&seq) {
            then(self, reply);
        }
    }

    /// Serves a packet that came back punted: the handlers' installs go to
    /// the members hosting their NFs, and the packet is reinjected once the
    /// last one acks. A packet no handler claims, or one already reinjected
    /// under its trace, is delivered as `ToCpu`; an install that cannot be
    /// routed or sent ends the flight with an error naming it. A punt of a
    /// trace no longer in flight (it expired) is not served.
    fn on_punt(&mut self, data: DataMsg) {
        let trace = data.trace;
        if !self.in_flight.contains_key(&trace) {
            return;
        }
        let answer = if self.reinjected.contains(&trace) {
            PuntResponse::default()
        } else {
            self.decisions.punt(&data.bytes)
        };
        let punt = Punt {
            data,
            reinject: answer.reinject_bytes,
            outstanding: answer.install.len(),
        };
        if punt.outstanding == 0 {
            return self.reinject(punt);
        }
        self.punts.insert(trace, punt);
        for (nf, table, entry) in answer.install {
            if !self.punts.contains_key(&trace) {
                return; // An install already failed: the flight is over.
            }
            let what = format!("punt install into {nf}/{table}");
            let then: Then = Box::new(move |c, reply| {
                let acked = reply
                    .map(drop)
                    .map_err(|e| ClusterError::Remote(format!("{what}: {e}")));
                c.punt_acked(trace, acked)
            });
            match self.nf_switch.get(&nf) {
                Some(&target) => {
                    let seq = self.seq();
                    let install = ControlMsg::Install {
                        seq,
                        nf,
                        table,
                        entry,
                    };
                    self.command(target, install, then);
                }
                None => then(self, Err(ClusterError::Unplaced(nf))),
            }
        }
    }

    /// Counts one answered install of the punt `trace`: a failure ends its
    /// flight, and the last ack reinjects it.
    fn punt_acked(&mut self, trace: u64, acked: Result<(), ClusterError>) {
        let Some(punt) = self.punts.get_mut(&trace) else {
            return; // An earlier install failed, or the flight expired.
        };
        punt.outstanding -= 1;
        if let Err(e) = acked {
            self.finish(trace, Err(e));
        } else if punt.outstanding == 0 {
            let punt = self.punts.remove(&trace).expect("present");
            self.reinject(punt);
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
            Err(e) => self.finish(trace, Err(ClusterError::Remote(e.to_string()))),
        }
    }

    /// Hands a finished flight (delivered, failed mid-flight, or expired)
    /// to its injector, once: a trace no longer in flight — a duplicated
    /// frame, or a late one after its flight expired — is dropped. Releases
    /// a waiting quiesce barrier when the last flight lands.
    fn finish(&mut self, trace: u64, result: Result<WireTraversal, ClusterError>) {
        if self.in_flight.remove(&trace).is_none() {
            return;
        }
        self.reinjected.remove(&trace);
        self.punts.remove(&trace);
        let _ = self.delivered_tx.send((trace, result));
        if self.in_flight.is_empty() {
            if let Some((outstanding, reply)) = self.quiesce.take() {
                let _ = reply.send(Ok(outstanding));
            }
        }
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
    /// fixed, so a session of facade calls replays identically. Whatever
    /// is still awaited then can never be answered, so it expires — no
    /// clock needed.
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
        self.controller.expire(None);
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
/// `install`, `advance_time`, `process_digests`, `snapshot_state`,
/// `restore_state` and the migration verbs `stage_member`,
/// `pause_ingress`, `snapshot_slices`, `flip`, `resume_ingress` and
/// `retire`, which [`orchestrator::migrate`](fn@crate::orchestrator::migrate)
/// sequences; replacing one member is those three member verbs for it
/// alone) plus the pipelined [`inject_async`](ClusterHandle::inject_async) /
/// [`recv_delivered`](ClusterHandle::recv_delivered) pair. Dropping the
/// handle shuts the cluster down.
pub struct ClusterHandle {
    events_tx: Sender<CtrlEvent>,
    delivered_rx: Receiver<Landed>,
    stashed: Vec<Landed>,
    nf_switch: BTreeMap<String, usize>,
    n: usize,
    kind: &'static str,
    next_trace: u64,
    /// Per-worker side channels for staging members, each tagged with the
    /// number the flip that makes it live names.
    swap_txs: Vec<Sender<(u64, Switch, Deployment)>>,
    /// Members staged and not yet flipped: their tag and the NFs they host.
    staged: BTreeMap<usize, (u64, Vec<String>)>,
    next_stage: u64,
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

    /// The deployment of member `index`, on the same terms as
    /// [`ClusterHandle::switch`]: `Some` only on a [`deploy_cluster`]
    /// cluster.
    pub fn deployment(&self, index: usize) -> Option<&Deployment> {
        match &self.driver {
            Driver::Inline(machines) => machines.workers.get(index).map(|w| &w.deployment),
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
            c.command(switch, make(seq), reply_info(reply))
        })
    }

    /// A round trip for the command `make` builds, from the member and its
    /// seq, for each of `members` at once. `done` turns their replies, in
    /// `members` order, into the verb's answer; the first failure in that
    /// order answers it instead.
    fn broadcast<T: Send + 'static>(
        &mut self,
        op: &'static str,
        members: Vec<usize>,
        make: impl FnMut(usize, u64) -> ControlMsg + Send + 'static,
        done: impl FnOnce(&mut Controller, Vec<TelemetryMsg>, Sender<Result<T, ClusterError>>)
            + Send
            + 'static,
    ) -> Result<T, ClusterError> {
        for &switch in &members {
            self.member(switch)?;
        }
        self.call(op, |c, reply| {
            let done: Gathered = Box::new(move |c, replies| {
                match replies.into_iter().collect::<Result<Vec<_>, _>>() {
                    Ok(replies) => done(c, replies, reply),
                    Err(e) => refuse(reply, e),
                }
            });
            c.broadcast(members, make, done)
        })
    }

    /// Every member, in order: the address of a cluster-wide verb.
    fn everyone(&self) -> Vec<usize> {
        (0..self.n).collect()
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
    /// once, each member learning from their digests as they pass.
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
        let (trace, result) = if self.stashed.is_empty() {
            match self.driver.recv(&self.delivered_rx, timeout) {
                Ok(landed) => landed,
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(ClusterError::Closed),
            }
        } else {
            self.stashed.remove(0)
        };
        let result = result.map_err(|e| match e {
            ClusterError::Remote(text) => text,
            e => e.to_string(),
        });
        Ok(Some(Delivery { trace, result }))
    }

    /// Synchronous facade: injects on `port` of switch 0 and blocks until
    /// this packet's flight record comes back.
    pub fn inject(
        &mut self,
        packet: impl Into<InjectedPacket>,
    ) -> Result<WireTraversal, ClusterError> {
        let trace = self.inject_async(packet)?;
        let deadline = Instant::now() + self.op_timeout;
        loop {
            let left = deadline
                .checked_duration_since(Instant::now())
                .ok_or(FLIGHT_TIMEOUT)?;
            // Read the channel directly: the stash holds only foreign
            // deliveries (this trace is new), so going through
            // recv_delivered here would cycle pop/re-push on the stash
            // without ever blocking on the channel.
            match self.driver.recv(&self.delivered_rx, left) {
                // An expired flight is this wait's own timeout, whichever
                // side noticed first.
                Ok((t, result)) if t == trace => return result,
                // A concurrent packet finished first; keep it for its waiter.
                Ok(landed) => self.stashed.push(landed),
                Err(RecvTimeoutError::Timeout) => return Err(FLIGHT_TIMEOUT),
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
    /// the same ticks before this returns `Ok`. Every member is asked at
    /// once, so a member that fails does not stop the others from getting
    /// the ticks.
    pub fn advance_time(&mut self, ticks: u64) -> Result<ClusterReport, ClusterError> {
        let make = move |_, seq| ControlMsg::AdvanceTime { seq, ticks };
        let members = self.everyone();
        self.broadcast("advance_time", members, make, |c, replies, reply| {
            let mut report = ClusterReport::sized(c.n);
            for (switch, r) in replies.into_iter().enumerate() {
                if let TelemetryMsg::Evictions { evictions, .. } = r {
                    report.per_switch[switch].evictions = evictions.len();
                    let attributed = evictions.into_iter().map(|(p, ev)| (switch, p, ev));
                    report.evictions.extend(attributed);
                }
            }
            let _ = reply.send(Ok(report));
        })
    }

    /// Has every member learn what its digest queues still hold, and
    /// reports what each learned since the previous call. Members learn
    /// after every packet, not just inside this call, so the report covers
    /// **all** digest activity since then.
    pub fn process_digests(&mut self) -> Result<ClusterReport, ClusterError> {
        let make = |_, seq| ControlMsg::DrainDigests { seq };
        let members = self.everyone();
        self.broadcast("process_digests", members, make, |c, replies, reply| {
            let mut report = ClusterReport::sized(c.n);
            for (switch, r) in replies.into_iter().enumerate() {
                if let TelemetryMsg::DrainDone {
                    digests, installed, ..
                } = r
                {
                    let member = &mut report.per_switch[switch];
                    member.digests = digests as usize;
                    member.installed = installed as usize;
                    report.digests_seen += digests as usize;
                    report.entries_installed += installed as usize;
                }
            }
            let _ = reply.send(Ok(report));
        })
    }

    /// Registers the learn policy for an NF's digest stream on every
    /// member, as
    /// [`ControlPlane::register_learn_policy`](crate::control_plane::ControlPlane::register_learn_policy)
    /// does on one switch, and returns once every member has acked. Every
    /// member holds every policy, so one that migration makes the NF's
    /// new home learns its digests too. [`ClusterError::Unplaced`] when no
    /// member hosts `nf`.
    pub fn register_learn_policy(
        &mut self,
        nf: &str,
        stream: &str,
        policy: LearnPolicy,
    ) -> Result<(), ClusterError> {
        self.host(nf)?;
        let (nf, stream) = (nf.to_string(), stream.to_string());
        let make = move |_, seq| ControlMsg::RegisterLearnPolicy {
            seq,
            nf: nf.clone(),
            stream: stream.clone(),
            policy: policy.clone(),
        };
        let members = self.everyone();
        self.broadcast("register_learn_policy", members, make, |_, _, reply| {
            drop(reply.send(Ok(())))
        })
    }

    /// Sends an NF's punt handler to the controller. A packet that comes
    /// back punted goes through the handlers instead of being delivered:
    /// their entries are installed on the members hosting their NFs and,
    /// once all are acked, the packet is reinjected into the member that
    /// punted it — at most once per trace; a second punt is delivered as
    /// `ToCpu`. [`ClusterError::Unplaced`] when no member hosts `nf`.
    pub fn register_handler(&mut self, nf: &str, handler: PuntHandler) -> Result<(), ClusterError> {
        self.host(nf)?;
        let owner = nf.to_string();
        let register = move |c: &mut Controller| c.decisions.register_handler(&owner, handler);
        self.request(CtrlEvent::Run(Box::new(register)))
    }

    /// Scrapes every member's metrics and returns merged + per-member
    /// snapshots. A reply that fails its check names no member, so the
    /// scrape fails with [`ClusterError::Timeout`] instead of reading zeros.
    pub fn metrics_snapshot(&mut self) -> Result<ClusterScrape, ClusterError> {
        let make = |_, seq| ControlMsg::ScrapeMetrics { seq };
        let members = self.everyone();
        self.broadcast("metrics_snapshot", members, make, |c, replies, reply| {
            let mut scrape = ClusterScrape {
                rejected_frames: c.rejected_frames,
                ..Default::default()
            };
            for r in replies {
                if let TelemetryMsg::Metrics {
                    snapshot,
                    rejected_frames,
                    ..
                } = r
                {
                    scrape.merged.merge(&snapshot);
                    scrape.per_switch.push(snapshot);
                    scrape.rejected_frames += rejected_frames;
                }
            }
            let _ = reply.send(Ok(scrape));
        })
    }

    /// Snapshots the dynamic state of every loaded pipelet across the
    /// cluster (the cluster-wide checkpoint).
    #[allow(clippy::type_complexity)]
    pub fn snapshot_state(
        &mut self,
    ) -> Result<Vec<(usize, PipeletId, StateSnapshot)>, ClusterError> {
        let make = |_, seq| ControlMsg::SnapshotState { seq };
        let members = self.everyone();
        self.broadcast("snapshot_state", members, make, |_, replies, reply| {
            let mut items = Vec::new();
            for (switch, r) in replies.into_iter().enumerate() {
                if let TelemetryMsg::Snapshot { items: got, .. } = r {
                    items.extend(got.into_iter().map(|(p, snap)| (switch, p, snap)));
                }
            }
            let _ = reply.send(Ok(items));
        })
    }

    /// Restores a state snapshot onto one member's pipelet; returns the
    /// number of entries restored. A restore that drops anything fails
    /// with [`ClusterError::Remote`] naming the first entry dropped, as a
    /// [`flip`](Self::flip) does; the entries that did restore stay.
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
            match c.in_flight.len() as u64 {
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

    /// STAGE: puts a freshly built member on worker `switch`'s side
    /// channel, where it waits beside the live one until
    /// [`flip`](Self::flip) makes it live; no frame is sent and no traffic
    /// is touched. A member staged again before a flip replaces the earlier
    /// one, which the worker drops.
    pub fn stage_member(
        &mut self,
        switch: usize,
        member_switch: Switch,
        deployment: Deployment,
    ) -> Result<(), ClusterError> {
        self.member(switch)?;
        let hosts = hosted(&deployment);
        self.next_stage += 1;
        let tag = self.next_stage;
        if self.swap_txs[switch]
            .send((tag, member_switch, deployment))
            .is_err()
        {
            let e = format!("switch {switch}: side channel closed (worker gone?)");
            return Err(ClusterError::Remote(e));
        }
        self.staged.insert(switch, (tag, hosts));
        Ok(())
    }

    /// SNAPSHOT of a migration: each member `wanted` names cuts the slices
    /// asked of it, each `(nf, pipelet)` from that pipelet, and returns
    /// only those, sealed — one per ask, in the order asked, empty when the
    /// NF holds no state there. The members are asked at once. A member
    /// that answers with anything but one slice per ask fails the verb
    /// with [`ClusterError::Remote`] naming it: its NFs would otherwise
    /// move without their state.
    pub fn snapshot_slices(
        &mut self,
        mut wanted: BTreeMap<usize, Vec<(String, PipeletId)>>,
    ) -> Result<BTreeMap<usize, Vec<SealedSlice>>, ClusterError> {
        let members: Vec<usize> = wanted.keys().copied().collect();
        let asked: Vec<(usize, usize)> = wanted.iter().map(|(&s, w)| (s, w.len())).collect();
        let make = move |switch, seq| ControlMsg::SnapshotSlices {
            seq,
            slices: wanted.remove(&switch).unwrap_or_default(),
        };
        self.broadcast("snapshot_slices", members, make, |_, replies, reply| {
            let mut slices = BTreeMap::new();
            for ((switch, n), r) in asked.into_iter().zip(replies) {
                let answered = match r {
                    TelemetryMsg::Slices { slices: got, .. } if got.len() == n => {
                        slices.insert(switch, got);
                        continue;
                    }
                    TelemetryMsg::Slices { slices: got, .. } => got.len().to_string(),
                    _ => "no".to_string(),
                };
                let e = format!("switch {switch}: {answered} slices for {n} asked");
                return refuse(reply, ClusterError::Remote(e));
            }
            let _ = reply.send(Ok(slices));
        })
    }

    /// FLIP: makes every staged member live at once, one command per
    /// member, fanned out. Each takes the telemetry setting and the clock
    /// of the member it replaces, the state of every NF both host (handed
    /// over in its worker, with no frame) and the slices `state` addresses
    /// to it, sealed as [`snapshot_slices`](Self::snapshot_slices) returned
    /// them and opened only there, and goes live only once all of them
    /// opened and restored whole; the outgoing member is kept until
    /// [`retire`](Self::retire). Returns the
    /// entries restored, hand-over included. Each member that acks is
    /// routed to — the NF → member map (the controller's, which routes
    /// installs and punt remedies, and [`switch_of`](Self::switch_of)'s)
    /// names it for every NF its deployment hosts — whether or not another
    /// member failed. A member whose restore fails keeps its outgoing
    /// member live and answers with [`ClusterError::Remote`], the first
    /// such failure in member order. Wiring, inboxes and links are
    /// untouched; callers quiesce first (the migration driver does).
    pub fn flip(
        &mut self,
        mut state: BTreeMap<usize, Vec<(PipeletId, SealedSlice)>>,
    ) -> Result<u64, ClusterError> {
        if let Some(switch) = state.keys().find(|s| !self.staged.contains_key(s)) {
            let e = format!("switch {switch}: no staged member to flip in");
            return Err(ClusterError::Remote(e));
        }
        let staged = std::mem::take(&mut self.staged);
        let (routed, flipped) = self.call("flip", move |c, reply| {
            let members: Vec<usize> = staged.keys().copied().collect();
            let tags: BTreeMap<usize, u64> =
                staged.iter().map(|(&s, (tag, _))| (s, *tag)).collect();
            let make = move |switch, seq| ControlMsg::Flip {
                seq,
                staged: tags[&switch],
                state: state.remove(&switch).unwrap_or_default(),
            };
            let done: Gathered = Box::new(move |c, replies| {
                let mut flipped = Ok(0);
                for ((switch, (_, hosts)), r) in staged.into_iter().zip(replies) {
                    match info(r) {
                        Ok(entries) => {
                            host_nfs(&mut c.nf_switch, switch, hosts);
                            flipped = flipped.map(|total| total + entries);
                        }
                        Err(e) => flipped = flipped.and(Err(e)),
                    }
                }
                let _ = reply.send(Ok((c.nf_switch.clone(), flipped)));
            });
            c.broadcast(members, make, done)
        })?;
        self.nf_switch = routed;
        flipped
    }

    /// RETIRE: drops, on each of `members` at once, the switch its last
    /// flip replaced and any member staged there and never flipped —
    /// outside a migration's window.
    pub fn retire(&mut self, members: &[usize]) -> Result<(), ClusterError> {
        self.staged.retain(|s, _| !members.contains(s));
        let make = |_, seq| ControlMsg::Retire { seq };
        self.broadcast("retire", members.to_vec(), make, |_, _, reply| {
            drop(reply.send(Ok(())))
        })
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
        |_| true,
    )?;
    boot(members, wiring, transport, options, true)
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
    let members = build_cluster_members(
        nfs,
        chains,
        placement,
        profile,
        exit_ports,
        wiring,
        options,
        |_| true,
    )?;
    let transport = &mut ChannelTransport::new();
    boot(
        members,
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

/// The NFs `deployment` hosts.
fn hosted(deployment: &Deployment) -> Vec<String> {
    let nfs = deployment.chains.all_nfs().into_iter();
    nfs.filter(|nf| deployment.nf_location(nf).is_some())
        .collect()
}

/// Points `nf_switch` at member `switch` for exactly the NFs in `hosts`:
/// the routing a member brings with it, at boot and at every flip.
fn host_nfs(nf_switch: &mut BTreeMap<String, usize>, switch: usize, hosts: Vec<String>) {
    nf_switch.retain(|_, member| *member != switch);
    for nf in hosts {
        nf_switch.insert(nf, switch);
    }
}

/// Wires deployed members into a cluster — the one construction path under
/// both constructors; `threaded` only decides who drives the machines.
fn boot(
    members: Vec<Option<(Switch, Deployment)>>,
    wiring: &ClusterWiring,
    transport: &mut dyn Transport,
    options: &ClusterOptions,
    threaded: bool,
) -> Result<ClusterHandle, ClusterError> {
    let members: Vec<(Switch, Deployment)> = (members.into_iter())
        .map(|m| m.expect("a cluster boots every member"))
        .collect();
    let n = members.len();
    let kind = transport.kind();

    // NF → switch routing map, captured before deployments move away.
    let mut nf_switch = BTreeMap::new();
    for (i, (_, dep)) in members.iter().enumerate() {
        host_nfs(&mut nf_switch, i, hosted(dep));
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
            applied_seq: 0,
            retired: None,
            decisions: DecisionCore::default(),
            learned: Learned::default(),
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
        paused: false,
        parked: Vec::new(),
        in_flight: BTreeMap::new(),
        quiesce: None,
        bye: None,
        op_timeout: options.op_timeout,
        now: Instant::now(),
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
        swap_txs,
        staged: BTreeMap::new(),
        next_stage: 0,
        op_timeout: options.op_timeout,
        driver,
        closed: false,
    })
}
