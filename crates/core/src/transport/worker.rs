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
//! * executes arriving [`DataMsg`] packets on its switch, appending a
//!   [`HopSummary`] and forwarding the packet over
//!   the outgoing wire for its egress port, or reporting it
//!   [`Delivered`](TelemetryMsg::Delivered) upstream when it leaves the
//!   cluster — the one place a packet moves between members;
//! * executes [`ControlMsg`] commands (installs, removals, idle timeouts,
//!   clock advances, snapshot/restore) and acks them;
//! * pushes learn digests upstream **eagerly** after every packet — the
//!   control plane learns while traffic keeps flowing, instead of waiting
//!   for a "process digests now" call.

use super::wire::{ControlMsg, DataMsg, HopSummary, Message, TelemetryMsg};
use super::{Endpoint, Link, TransportError};
use crate::deploy::Deployment;
use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, PortId, Switch};
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
    /// Link to the controller (telemetry, digests, acks, deliveries).
    pub upstream: Link,
    /// Outgoing wiring: egress port → (link to the next switch, the port
    /// the packet arrives on over there).
    pub links: BTreeMap<PortId, (Link, PortId)>,
    /// One-way cable latency added per forwarded packet, in nanoseconds.
    pub cable_ns: f64,
    /// In-process side channel for live member replacement: the controller
    /// stages a freshly built `(Switch, Deployment)` pair here, then sends
    /// [`ControlMsg::SwapMember`] over the wire to make the worker adopt
    /// it. `Switch` is not wire-serializable, so a genuinely remote worker
    /// (no side channel sender alive) nacks the swap — live re-placement
    /// over real process boundaries needs a program-shipping bootstrap
    /// protocol (ROADMAP).
    pub swap_rx: Receiver<(Switch, Deployment)>,
}

impl SwitchWorker {
    /// Runs the event loop until a [`ControlMsg::Shutdown`] arrives or the
    /// inbox disconnects. Consumes the worker; its switch state lives (and
    /// dies) with the loop, reachable only through messages.
    pub fn run(mut self) {
        loop {
            match self.inbox.recv() {
                Ok(msg) => {
                    if self.on_message(msg) {
                        break;
                    }
                }
                // A corrupt payload costs one frame, not the member: skip
                // it (as the controller does) and keep serving traffic.
                Err(TransportError::Wire(_)) => continue,
                // Every sender gone: the cluster is tearing down.
                Err(_) => break,
            }
        }
    }

    /// One step of [`run`](Self::run) without blocking: handles the oldest
    /// queued frame. `false` when the inbox had nothing to take.
    pub fn poll(&mut self) -> bool {
        match self.inbox.try_recv() {
            Ok(Some(msg)) => {
                self.on_message(msg);
                true
            }
            Err(TransportError::Wire(_)) => true,
            Ok(None) | Err(_) => false,
        }
    }

    /// Handles one message; `true` means shut down.
    fn on_message(&mut self, msg: Message) -> bool {
        match msg {
            Message::Data(d) => {
                self.on_data(d);
                false
            }
            Message::Control(c) => self.on_control(c),
            // Workers never receive telemetry; ignore stray frames
            // rather than crash the member.
            Message::Telemetry(_) => false,
        }
    }

    fn send_up(&mut self, msg: TelemetryMsg) {
        // An unreachable controller is unrecoverable mid-run; drop the
        // report rather than wedge the data path.
        let _ = self.upstream.send(&Message::Telemetry(msg));
    }

    /// Executes one packet and either forwards it down the wire or reports
    /// delivery upstream.
    fn on_data(&mut self, mut d: DataMsg) {
        let bytes = std::mem::take(&mut d.bytes);
        let t = match self.switch.inject(InjectedPacket::new(bytes, d.port)) {
            Ok(t) => t,
            Err(e) => {
                let trace = d.trace;
                self.send_up(TelemetryMsg::Nack {
                    seq: trace,
                    error: format!("switch {}: {e}", self.index),
                });
                return;
            }
        };
        d.latency_ns += t.latency_ns;
        d.hops.push(HopSummary {
            switch: self.index as u32,
            latency_ns: t.latency_ns,
            recirculations: t.recirculations as u32,
            resubmissions: t.resubmissions as u32,
            tables_applied: t.tables_applied().iter().map(|s| s.to_string()).collect(),
            tables_hit: t.tables_hit().iter().map(|s| s.to_string()).collect(),
        });
        let disposition = t.disposition;
        let final_bytes = t.final_bytes;
        // Learn path: push any digests this packet produced upstream right
        // away, so the controller can learn concurrently with traffic.
        self.push_digests();
        match disposition {
            Disposition::Emitted { port } if self.links.contains_key(&port) => {
                d.bytes = final_bytes;
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
                d.bytes = final_bytes;
                self.send_up(TelemetryMsg::Delivered {
                    disposition: other,
                    data: d,
                });
            }
        }
    }

    /// Drains the switch's digest queues upstream. Returns how many digests
    /// were flushed.
    fn push_digests(&mut self) -> u64 {
        let digests = self.switch.drain_digests();
        if digests.is_empty() {
            return 0;
        }
        let n = digests.len() as u64;
        let records = digests
            .into_iter()
            .map(|(pipeline, record)| (pipeline as u32, record))
            .collect();
        let switch = self.index as u32;
        self.send_up(TelemetryMsg::Digests { switch, records });
        n
    }

    /// Executes one control command; `true` means shut down.
    fn on_control(&mut self, c: ControlMsg) -> bool {
        let seq = c.seq();
        match c {
            ControlMsg::Install {
                nf, table, entry, ..
            } => {
                match self
                    .deployment
                    .install_if_absent(&mut self.switch, &nf, &table, entry)
                {
                    Ok(installed) => self.send_up(TelemetryMsg::Ack {
                        seq,
                        info: u64::from(installed),
                    }),
                    Err(e) => self.nack(seq, &e.to_string()),
                }
            }
            ControlMsg::Remove {
                nf, table, entry, ..
            } => {
                let (pipelet, merged) = self.deployment.nf_table(&nf, &table);
                let Some(pipelet) = pipelet else {
                    self.nack(seq, &format!("NF {nf} not placed on switch {}", self.index));
                    return false;
                };
                let mut scoped = entry;
                scoped.action = crate::merge::scoped(&nf, &scoped.action);
                match self.switch.remove_entry(pipelet, &merged, &scoped) {
                    Ok(removed) => self.send_up(TelemetryMsg::Ack {
                        seq,
                        info: u64::from(removed),
                    }),
                    Err(e) => self.nack(seq, &e.to_string()),
                }
            }
            ControlMsg::SetIdleTimeout {
                nf, table, ticks, ..
            } => {
                match self
                    .deployment
                    .set_idle_timeout(&mut self.switch, &nf, &table, ticks)
                {
                    Ok(()) => self.send_up(TelemetryMsg::Ack { seq, info: 0 }),
                    Err(e) => self.nack(seq, &e.to_string()),
                }
            }
            ControlMsg::AdvanceTime { ticks, .. } => {
                let evictions = self.switch.advance_time(ticks);
                self.send_up(TelemetryMsg::Evictions { seq, evictions });
            }
            ControlMsg::DrainDigests { .. } => {
                let digests = self.push_digests();
                self.send_up(TelemetryMsg::DrainDone { seq, digests });
            }
            ControlMsg::ScrapeMetrics { .. } => {
                let snap = self.switch.metrics_snapshot();
                let json = dejavu_asic::telemetry::to_json_string(&snap);
                self.send_up(TelemetryMsg::Metrics { seq, json });
            }
            ControlMsg::SnapshotState { .. } => {
                let mut items = Vec::new();
                for pipelet in self.switch.loaded_pipelets() {
                    if let Some(snap) = self.switch.snapshot_state(pipelet) {
                        items.push((pipelet, snap));
                    }
                }
                // A reply the link refuses (past `MAX_PAYLOAD`) must not leave
                // the controller waiting out its timeout: nack with the size.
                let reply = Message::Telemetry(TelemetryMsg::Snapshot { seq, items });
                if let Err(TransportError::Wire(e)) = self.upstream.send(&reply) {
                    self.nack(seq, &e.to_string());
                }
            }
            ControlMsg::RestoreState {
                pipelet, snapshot, ..
            } => match self.switch.restore_state(pipelet, &snapshot) {
                Ok(report) => self.send_up(TelemetryMsg::Ack {
                    seq,
                    info: report.restored_entries as u64,
                }),
                Err(e) => self.nack(seq, &e.to_string()),
            },
            ControlMsg::SwapMember { .. } => {
                // The staged member was sent on the side channel before the
                // wire command, so it is already queued (or will never
                // arrive: nack rather than block the data path).
                match self.swap_rx.try_recv() {
                    Ok((mut switch, deployment)) => {
                        // The newcomer behaves like the member it replaces.
                        switch.set_telemetry(self.switch.telemetry_enabled());
                        self.switch = switch;
                        self.deployment = deployment;
                        self.send_up(TelemetryMsg::Ack { seq, info: 0 });
                    }
                    Err(_) => self.nack(seq, "no staged member to swap in"),
                }
            }
            ControlMsg::Shutdown { .. } => {
                self.send_up(TelemetryMsg::Ack { seq, info: 0 });
                return true;
            }
        }
        false
    }

    fn nack(&mut self, seq: u64, error: &str) {
        let error = format!("switch {}: {error}", self.index);
        self.send_up(TelemetryMsg::Nack { seq, error });
    }
}
