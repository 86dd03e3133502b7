//! Per-switch worker: one state machine owning one [`Switch`] and its
//! [`Deployment`].
//!
//! A worker is the unit the cluster runtime deploys. All its I/O goes
//! through its inbox and its [`Link`]s, so who drives it is the caller's
//! choice: [`SwitchWorker::run`] blocks a thread of its own on the inbox
//! (or, with a TCP transport, potentially a process on another machine),
//! [`SwitchWorker::poll`] takes one queued frame on the caller's thread —
//! the two drivers of [`ClusterHandle`](super::cluster::ClusterHandle).
//! Either way it:
//!
//! * executes arriving [`DataMsg`] packets on its switch, in place on the
//!   frame's byte buffer ([`Switch::inject_buf`]), appending a fixed-size
//!   [`HopSummary`] and forwarding the packet over
//!   the outgoing wire for its egress port, or reporting it
//!   [`Delivered`](TelemetryMsg::Delivered) upstream when it leaves the
//!   cluster — the one place a packet moves between members;
//! * executes [`ControlMsg`] commands (installs, removals, idle timeouts,
//!   clock advances, snapshot/restore, learn policies, the flip to a
//!   staged member and the retire after it) and acks them;
//! * learns its own digests after every packet, with the learn loop a
//!   single switch runs: a digest's NF, and so its table, is on the member
//!   that emitted it, so the packet that taught an entry installs it, with
//!   no controller round trip. Every member holds every policy, because
//!   migration moves NFs between members.

use super::wire::{self, ControlMsg, DataMsg, HopSummary, Message, SealedSlice, TelemetryMsg};
use super::{Endpoint, Link, TransportError};
use crate::control_plane::{DecisionCore, Learned};
use crate::deploy::Deployment;
use dejavu_asic::switch::Disposition;
use dejavu_asic::{MigrationReport, PipeletId, PortId, StateSnapshot, Switch};
use std::collections::BTreeMap;
use std::sync::mpsc::Receiver;

/// One cluster member: a switch plus the machinery to talk to its peers
/// and its controller. Constructed by the cluster constructors; driven by
/// [`SwitchWorker::run`] on its own thread or stepped with
/// [`SwitchWorker::poll`].
pub struct SwitchWorker {
    /// Position in the cluster chain.
    pub index: usize,
    /// The member switch (owned — nobody else touches it).
    pub switch: Switch,
    /// The deployment handle translating NF-view table names.
    pub deployment: Deployment,
    /// The single inbox all peers and the controller deliver into.
    pub inbox: Endpoint,
    /// Link to the controller (replies, deliveries).
    pub upstream: Link,
    /// Outgoing wiring: egress port → (link to the next switch, the port
    /// the packet arrives on over there).
    pub links: BTreeMap<PortId, (Link, PortId)>,
    /// One-way cable latency added per forwarded packet, in nanoseconds.
    pub cable_ns: f64,
    /// In-process side channel for live member replacement. STAGE: the
    /// cluster handle puts a freshly built `(Switch, Deployment)` pair here,
    /// under a tag, before the migration window opens, and it waits beside
    /// the live switch. FLIP: a [`ControlMsg::Flip`] naming the tag takes
    /// it off, hands over the state of the NFs that stay on this member,
    /// restores the slices the command carries and only then makes it
    /// live; the outgoing pair waits in `retired` until a
    /// [`ControlMsg::Retire`], after the window, drops it. `Switch` is not
    /// wire-serializable, so a genuinely remote worker (no side channel
    /// sender alive) nacks the flip — live re-placement over real process
    /// boundaries needs a program-shipping bootstrap protocol (ROADMAP).
    pub swap_rx: Receiver<(u64, Switch, Deployment)>,
    /// Frames dropped because they did not decode (sent with each scrape).
    pub rejected_frames: u64,
    /// The highest command seq applied. The controller numbers commands as
    /// it sends them down this FIFO link, so a seq at or below it is a
    /// duplicate: dropped, never applied twice.
    pub(super) applied_seq: u64,
    /// The learn policies registered on this member; they outlive a flip.
    pub(super) decisions: DecisionCore,
    /// The pair the last flip replaced, kept until a retire drops it.
    pub(super) retired: Option<(Switch, Deployment)>,
    /// What the learn loop did since the last [`ControlMsg::DrainDigests`].
    pub(super) learned: Learned,
}

impl SwitchWorker {
    /// Runs the event loop until a [`ControlMsg::Shutdown`] arrives or the
    /// inbox disconnects. Consumes the worker; its switch state lives (and
    /// dies) with the loop, reachable only through messages.
    pub fn run(mut self) {
        // Every sender gone ends the loop: the cluster is tearing down.
        while let Ok(frame) = self.inbox.recv_raw() {
            if self.on_frame(&frame) {
                break;
            }
        }
    }

    /// One step of [`run`](Self::run) without blocking: handles the oldest
    /// queued frame. `false` when the inbox had nothing to take.
    pub fn poll(&mut self) -> bool {
        let Ok(Some(frame)) = self.inbox.try_recv_raw() else {
            return false;
        };
        self.on_frame(&frame);
        true
    }

    /// The one receive step: decodes a frame and handles it; `true` means
    /// shut down. A frame that does not decode costs one frame, not the
    /// member: it is counted and dropped.
    fn on_frame(&mut self, frame: &[u8]) -> bool {
        match wire::decode(frame) {
            Ok(Message::Data(d)) => self.on_data(d),
            Ok(Message::Control(c)) => return self.on_control(c),
            // Workers never receive telemetry; ignore stray frames
            // rather than crash the member.
            Ok(Message::Telemetry(_)) => {}
            Err(_) => self.rejected_frames += 1,
        }
        false
    }

    fn send_up(&mut self, msg: TelemetryMsg) {
        // An unreachable controller is unrecoverable mid-run; drop the
        // report rather than wedge the data path.
        let _ = self.upstream.send(&Message::Telemetry(msg));
    }

    /// Executes one packet in place on its frame's own buffer (the
    /// zero-allocation `inject_buf` walk) and either forwards it down the
    /// wire or reports delivery upstream.
    fn on_data(&mut self, mut d: DataMsg) {
        let outcome = self.switch.inject_buf(&mut d.bytes, d.port);
        // Mirror copies are a tap's output, not the flight's: discard them
        // rather than let them pile up on the switch.
        self.switch.drain_mirrored();
        self.learn();
        let out = match outcome {
            Ok(out) => out,
            Err(e) => {
                let trace = d.trace;
                self.send_up(TelemetryMsg::Nack {
                    seq: trace,
                    error: format!("switch {}: {e}", self.index),
                });
                return;
            }
        };
        d.latency_ns += out.latency_ns;
        d.hops.push(HopSummary {
            switch: self.index as u32,
            latency_ns: out.latency_ns,
            recirculations: out.recirculations as u32,
            resubmissions: out.resubmissions as u32,
        });
        match out.disposition {
            Disposition::Emitted { port } if self.links.contains_key(&port) => {
                d.latency_ns += self.cable_ns;
                d.inter_switch_hops += 1;
                let (link, in_port) = self.links.get_mut(&port).expect("checked above");
                d.port = *in_port;
                let trace = d.trace;
                if link.send(&Message::Data(d)).is_err() {
                    // Next hop gone: the packet is lost on the wire. Nack
                    // its (odd) trace id so the controller routes a failed
                    // delivery to the injector instead of leaving it
                    // waiting forever.
                    self.send_up(TelemetryMsg::Nack {
                        seq: trace,
                        error: "downstream link closed".to_string(),
                    });
                }
            }
            other => {
                self.send_up(TelemetryMsg::Delivered {
                    disposition: other,
                    data: d,
                });
            }
        }
    }

    /// Runs the learn loop on the switch's queued digests. A failed install
    /// costs that entry, not the member: the flow's next packet relearns it.
    fn learn(&mut self) {
        let (switch, deployment) = (&mut self.switch, &self.deployment);
        let _ = self.decisions.learn(switch, deployment, &mut self.learned);
    }

    /// Executes one control command; `true` means shut down.
    fn on_control(&mut self, c: ControlMsg) -> bool {
        let seq = c.seq();
        if seq <= self.applied_seq {
            return false;
        }
        self.applied_seq = seq;
        let (dep, sw) = (&self.deployment, &mut self.switch);
        match c {
            ControlMsg::Install {
                nf, table, entry, ..
            } => {
                let installed = dep.install_if_absent(sw, &nf, &table, entry);
                self.answer(seq, installed.map(u64::from));
            }
            ControlMsg::Remove {
                nf, table, entry, ..
            } => {
                let removed = dep.remove(sw, &nf, &table, entry);
                self.answer(seq, removed.map(u64::from));
            }
            ControlMsg::SetIdleTimeout {
                nf, table, ticks, ..
            } => {
                let set = dep.set_idle_timeout(sw, &nf, &table, ticks);
                self.answer(seq, set.map(|()| 0));
            }
            ControlMsg::AdvanceTime { ticks, .. } => {
                let evictions = self.switch.advance_time(ticks);
                self.send_up(TelemetryMsg::Evictions { seq, evictions });
            }
            ControlMsg::DrainDigests { .. } => {
                self.learn();
                let Learned { digests, installed } = std::mem::take(&mut self.learned);
                self.send_up(TelemetryMsg::DrainDone {
                    seq,
                    digests,
                    installed,
                });
            }
            ControlMsg::RegisterLearnPolicy {
                nf, stream, policy, ..
            } => {
                self.decisions.register_learn_policy(&nf, &stream, policy);
                self.send_up(TelemetryMsg::Ack { seq, info: 0 });
            }
            ControlMsg::ScrapeMetrics { .. } => self.send_up(TelemetryMsg::Metrics {
                seq,
                snapshot: self.switch.metrics_snapshot(),
                rejected_frames: self.rejected_frames,
            }),
            ControlMsg::SnapshotState { .. } => {
                let mut items = Vec::new();
                for pipelet in self.switch.loaded_pipelets() {
                    if let Some(snap) = self.switch.snapshot_state(pipelet) {
                        items.push((pipelet, snap));
                    }
                }
                self.send_reply(seq, TelemetryMsg::Snapshot { seq, items });
            }
            ControlMsg::SnapshotSlices { slices, .. } => {
                let cut = |(nf, pipelet): &(String, PipeletId)| {
                    SealedSlice::seal(&slice(&self.switch, nf, *pipelet))
                };
                let slices = slices.iter().map(cut).collect();
                self.send_reply(seq, TelemetryMsg::Slices { seq, slices });
            }
            ControlMsg::RestoreState {
                pipelet, snapshot, ..
            } => {
                let restored = self.switch.restore(pipelet, snapshot);
                let restored = restored.map_err(|e| e.to_string()).and_then(whole);
                self.answer(seq, restored.map(|r| r.restored_entries as u64));
            }
            ControlMsg::Flip { staged, state, .. } => {
                // Every seal is opened before anything is restored.
                let opened = state.into_iter().map(|(pipelet, seal)| match seal.open() {
                    Ok(slice) => Ok((pipelet, slice)),
                    Err(e) => Err(format!("slice for {pipelet}: {e}")),
                });
                let moved = match opened.collect::<Result<Vec<_>, _>>() {
                    Ok(moved) => moved,
                    Err(why) => {
                        self.nack(seq, &why);
                        return false;
                    }
                };
                // The member was staged on the side channel before the wire
                // command was sent, so it is already queued (or will never
                // arrive: nack rather than block the data path). One staged
                // for a flip that never came carries another tag and is
                // dropped here.
                let staged = std::iter::from_fn(|| self.swap_rx.try_recv().ok())
                    .find(|(tag, ..)| *tag == staged);
                let Some((_, mut switch, deployment)) = staged else {
                    self.nack(seq, "no staged member to flip in");
                    return false;
                };
                // The newcomer takes its predecessor's clock before its
                // state, so restored entries are stamped at the cluster's.
                switch.set_telemetry(self.switch.telemetry_enabled());
                switch.advance_time(self.switch.now());
                let stays = hand_over(&self.switch, &self.deployment, &deployment);
                let mut report = MigrationReport::default();
                for (pipelet, snap) in stays.into_iter().chain(moved) {
                    match switch.restore(pipelet, snap) {
                        Ok(r) => report.merge(r),
                        Err(e) => {
                            self.nack(seq, &e.to_string());
                            return false;
                        }
                    }
                }
                // A newcomer that lost state would serve flows its
                // predecessor knew as new ones: the outgoing member stays.
                let report = match whole(report) {
                    Ok(report) => report,
                    Err(why) => {
                        self.nack(seq, &why);
                        return false;
                    }
                };
                // Kept until a retire, so dropping it costs the window nothing.
                let switch = std::mem::replace(&mut self.switch, switch);
                let deployment = std::mem::replace(&mut self.deployment, deployment);
                self.retired = Some((switch, deployment));
                let entries = report.restored_entries as u64;
                self.send_up(TelemetryMsg::Ack { seq, info: entries });
            }
            ControlMsg::Retire { .. } => {
                let retired = self.retired.take();
                // A member staged for a flip that never came goes too.
                while self.swap_rx.try_recv().is_ok() {}
                self.send_up(TelemetryMsg::Ack { seq, info: 0 });
                drop(retired);
            }
            ControlMsg::Shutdown { .. } => {
                self.send_up(TelemetryMsg::Ack { seq, info: 0 });
                return true;
            }
        }
        false
    }

    /// Sends a reply that carries state. One the link refuses (past
    /// `MAX_PAYLOAD`) must not leave the controller waiting out its
    /// timeout: it is nacked with the size.
    fn send_reply(&mut self, seq: u64, reply: TelemetryMsg) {
        if let Err(TransportError::Wire(e)) = self.upstream.send(&Message::Telemetry(reply)) {
            self.nack(seq, &e.to_string());
        }
    }

    /// Acks a command with `info`, or nacks it with the error.
    fn answer(&mut self, seq: u64, outcome: Result<u64, impl std::fmt::Display>) {
        match outcome {
            Ok(info) => self.send_up(TelemetryMsg::Ack { seq, info }),
            Err(e) => self.nack(seq, &e.to_string()),
        }
    }

    fn nack(&mut self, seq: u64, error: &str) {
        let error = format!("switch {}: {error}", self.index);
        self.send_up(TelemetryMsg::Nack { seq, error });
    }
}

/// A restore as a worker answers it: one that dropped anything (an entry
/// whose table or action the program lacks, a register) is refused with
/// its summary and the first entry dropped, since the member would serve
/// flows the snapshot knew as new ones. What did restore stays installed:
/// a restore is idempotent, so the same snapshot can be sent again.
fn whole(report: MigrationReport) -> Result<MigrationReport, String> {
    if report.is_clean() {
        return Ok(report);
    }
    let first = (report.dropped_entries.first()).map(|d| format!("; {}: {}", d.table, d.reason));
    Err(format!("{}{}", report.summary(), first.unwrap_or_default()))
}

/// `nf`'s slice of `pipelet` on `switch`: empty when no program is loaded
/// there.
fn slice(switch: &Switch, nf: &str, pipelet: PipeletId) -> StateSnapshot {
    (switch.snapshot_slice(pipelet, nf)).unwrap_or_else(|| StateSnapshot::empty(""))
}

/// The in-process hand-over of a flip: the state of every NF that both the
/// live deployment and the staged one host, cut from its pipelet on the
/// live `switch` and addressed to its pipelet in the staged member. No
/// frame carries it. NFs with no state are left out.
fn hand_over(
    switch: &Switch,
    live: &Deployment,
    staged: &Deployment,
) -> Vec<(PipeletId, StateSnapshot)> {
    let stays = (staged.chains.all_nfs().into_iter())
        .filter_map(|nf| Some((live.nf_location(&nf)?, staged.nf_location(&nf)?, nf)));
    let handed = stays.map(|(from, to, nf)| (to, slice(switch, &nf, from)));
    handed.filter(|(_, slice)| !slice.is_empty()).collect()
}
