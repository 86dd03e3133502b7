//! Merged control plane (paper §7, "Control plane merge").
//!
//! After Dejavu merges N data-plane programs into one, the NFs' control
//! planes still speak their *original* API — "install an entry into my
//! `lb_session` table". The paper proposes a translation layer mapping the
//! original control-plane APIs onto the merged SFC program. [`ControlPlane`]
//! is that layer:
//!
//! * [`ControlPlane::install`] — translate `(nf, table, entry)` to the
//!   merged table name on the pipelet hosting the NF, and install it,
//! * [`ControlPlane::process_punts`] — the to-CPU loop: packets an NF sent
//!   to the control plane (e.g. the Fig. 4 load balancer's session misses)
//!   are handed to a registered per-NF handler, which may install entries
//!   and ask for reinjection ("the control plane will simply install a new
//!   session … and reinject the packet into the data plane").
//! * [`ControlPlane::process_digests`] — the learn loop: digests the data
//!   plane emitted (`digest(...)` in an action, queued per pipeline by the
//!   switch) are dispatched to the [`LearnPolicy`] registered for their
//!   stream, which turns flow observations into table entries — the fast
//!   learn path that installs state *without* punting the packet itself.

use crate::deploy::Deployment;
use dejavu_asic::switch::Disposition;
use dejavu_asic::{MetricsSnapshot, PortId, Switch, Traversal};
use dejavu_p4ir::table::TableEntry;
use dejavu_p4ir::{IrError, Value};
use std::collections::BTreeMap;

/// What a punt handler asks the control plane to do.
#[derive(Debug, Clone, Default)]
pub struct PuntResponse {
    /// Entries to install, as `(nf, table, entry)` in the NF's own naming.
    pub install: Vec<(String, String, TableEntry)>,
    /// Reinject the punted packet afterwards.
    pub reinject: bool,
    /// Bytes to reinject instead of the punted ones. Handlers typically use
    /// [`rewind_and_clear`] so the NF that punted re-executes against the
    /// freshly installed entry; when `None`, the control plane reinjects
    /// the punted bytes with the SFC platform flags cleared (the stale
    /// to-CPU flag would otherwise punt the packet forever).
    pub reinject_bytes: Option<Vec<u8>>,
}

/// Clears the SFC header's platform flags in wire bytes (no-op when the
/// packet carries no SFC header).
pub fn clear_sfc_flags(bytes: &mut [u8]) {
    let Some(mut h) = read_wire_sfc(bytes) else {
        return;
    };
    h.resub_flag = false;
    h.recirc_flag = false;
    h.drop_flag = false;
    h.mirror_flag = false;
    h.to_cpu_flag = false;
    write_wire_sfc(bytes, &h);
}

/// Prepares a punted packet for reinjection after the remedy was installed:
/// clears the platform flags and rewinds the service index by one, so the
/// NF that punted (whose dispatch advanced the index before the flag check
/// caught the punt) runs again — this time hitting the new entry. Returns
/// `None` when the packet has no SFC header or the index is already 0.
pub fn rewind_and_clear(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut out = bytes.to_vec();
    let mut h = read_wire_sfc(&out)?;
    if h.service_index == 0 {
        return None;
    }
    h.service_index -= 1;
    h.resub_flag = false;
    h.recirc_flag = false;
    h.drop_flag = false;
    h.mirror_flag = false;
    h.to_cpu_flag = false;
    write_wire_sfc(&mut out, &h);
    Some(out)
}

fn read_wire_sfc(bytes: &[u8]) -> Option<crate::sfc::SfcHeader> {
    if bytes.len() < 34 {
        return None;
    }
    let ether_type = u16::from_be_bytes([bytes[12], bytes[13]]);
    if ether_type != crate::sfc::SFC_ETHERTYPE {
        return None;
    }
    let hdr: [u8; 20] = bytes[14..34].try_into().ok()?;
    Some(crate::sfc::SfcHeader::from_bytes(&hdr))
}

fn write_wire_sfc(bytes: &mut [u8], h: &crate::sfc::SfcHeader) {
    bytes[14..34].copy_from_slice(&h.to_bytes());
}

/// Handler invoked for packets an NF punted to the CPU. Receives the punted
/// wire bytes; returns what to do.
pub type PuntHandler = Box<dyn FnMut(&[u8]) -> PuntResponse>;

/// What a learn policy asks the control plane to do with one digest.
#[derive(Debug, Clone, Default)]
pub struct LearnResponse {
    /// Entries to install, as `(nf, table, entry)` in the NF's own naming.
    pub install: Vec<(String, String, TableEntry)>,
}

/// A pluggable consumer of one digest stream. Implementations turn the
/// field values an action's `digest(...)` carried into table entries — a
/// NAT learning return-path bindings, an LB pinning a session to a backend.
///
/// Any `FnMut(usize, &[Value]) -> LearnResponse` closure is a policy (the
/// arguments are the emitting pipeline and the digest's field values).
///
/// Policies are `Send`: the cluster runtime's controller thread owns them
/// (see [`crate::transport::cluster::ClusterHandle::register_learn_policy`]),
/// so a boxed policy must be movable across threads.
pub trait LearnPolicy: Send {
    /// Handles one digest from `pipeline` carrying `values`.
    fn on_digest(&mut self, pipeline: usize, values: &[Value]) -> LearnResponse;
}

impl<F: FnMut(usize, &[Value]) -> LearnResponse + Send> LearnPolicy for F {
    fn on_digest(&mut self, pipeline: usize, values: &[Value]) -> LearnResponse {
        self(pipeline, values)
    }
}

/// The merged control plane.
pub struct ControlPlane {
    handlers: BTreeMap<String, PuntHandler>,
    /// Learn policies keyed by merged digest stream name (`<nf>__<stream>`).
    learn_policies: BTreeMap<String, Box<dyn LearnPolicy>>,
    /// Declared learn contracts, verified by `dejavu_core::analyze`.
    learn_contracts: Vec<crate::analyze::LearnContract>,
    /// Packets punted to the CPU, with the port they were injected on.
    punt_queue: Vec<(Vec<u8>, PortId)>,
    /// Telemetry state at the previous [`ControlPlane::scrape`].
    last_scrape: MetricsSnapshot,
    /// Statistics.
    pub stats: ControlPlaneStats,
}

/// Counters of control-plane activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlPlaneStats {
    /// Punted packets seen.
    pub punts: u64,
    /// Entries installed through the translation layer.
    pub installs: u64,
    /// Packets reinjected.
    pub reinjections: u64,
    /// Telemetry scrapes performed.
    pub scrapes: u64,
    /// Digests consumed by the learn loop.
    pub digests: u64,
    /// Entries installed by learn policies (excludes idempotent re-learns).
    pub learns: u64,
}

impl Default for ControlPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl ControlPlane {
    /// An empty control plane.
    pub fn new() -> Self {
        ControlPlane {
            handlers: BTreeMap::new(),
            learn_policies: BTreeMap::new(),
            learn_contracts: Vec::new(),
            punt_queue: Vec::new(),
            last_scrape: MetricsSnapshot::default(),
            stats: ControlPlaneStats::default(),
        }
    }

    /// Periodic telemetry scrape: captures the switch's metrics and returns
    /// the delta since the previous scrape (the first scrape returns totals
    /// since boot). The control plane keeps the cumulative snapshot, so a
    /// monitoring loop gets lossless non-overlapping increments no matter
    /// how often it runs.
    pub fn scrape(&mut self, switch: &Switch) -> MetricsSnapshot {
        let now = switch.metrics_snapshot();
        let delta = now.diff(&self.last_scrape);
        self.last_scrape = now;
        self.stats.scrapes += 1;
        delta
    }

    /// The cumulative snapshot as of the last [`ControlPlane::scrape`].
    pub fn last_scrape(&self) -> &MetricsSnapshot {
        &self.last_scrape
    }

    /// Registers the punt handler of an NF.
    pub fn register_handler(&mut self, nf: &str, handler: PuntHandler) {
        self.handlers.insert(nf.to_string(), handler);
    }

    /// Registers the learn policy for an NF's digest stream. The stream is
    /// named in the NF's own view — `("nat", "flow")` resolves to the merged
    /// `nat__flow` stream that the NF's `digest("flow", …)` primitive emits
    /// after composition.
    pub fn register_learn_policy(&mut self, nf: &str, stream: &str, policy: Box<dyn LearnPolicy>) {
        self.learn_policies
            .insert(crate::merge::scoped(nf, stream), policy);
    }

    /// Declares the learn contract for an NF's digest stream. Contracts are
    /// not enforced at runtime; they are checked statically by
    /// [`crate::analyze::check_learn_contracts`] against the NF's program.
    pub fn register_learn_contract(&mut self, contract: crate::analyze::LearnContract) {
        self.learn_contracts.push(contract);
    }

    /// Learn contracts declared so far, in registration order.
    pub fn learn_contracts(&self) -> &[crate::analyze::LearnContract] {
        &self.learn_contracts
    }

    /// Drains the switch's learn queues and dispatches each digest to the
    /// policy registered for its stream (digests with no policy are
    /// dropped, as a hardware learn filter would). Requested entries are
    /// installed through the translation layer; an entry that is already
    /// installed is skipped, which makes learning idempotent — duplicate
    /// digests raced in before the first install, and entries aged out and
    /// re-observed, both converge. Returns the number of entries installed.
    /// The queues are already drained, so a failed install does not stop
    /// the batch: every other digest is still learned, and the first error
    /// is returned at the end.
    pub fn process_digests(
        &mut self,
        switch: &mut Switch,
        deployment: &Deployment,
    ) -> Result<usize, IrError> {
        let digests = switch.drain_digests();
        let mut installed = 0usize;
        let mut first_err = None;
        for (pipeline, record) in digests {
            let Some(policy) = self.learn_policies.get_mut(&record.name) else {
                continue;
            };
            self.stats.digests += 1;
            let resp = policy.on_digest(pipeline, &record.values);
            for (nf, table, entry) in resp.install {
                match deployment.install_if_absent(switch, &nf, &table, entry) {
                    Ok(true) => installed += 1,
                    Ok(false) => {}
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        self.stats.installs += installed as u64;
        self.stats.learns += installed as u64;
        first_err.map_or(Ok(installed), Err)
    }

    /// Translates and installs an entry through the NF's original API view:
    /// `(nf, table)` resolves to the merged `<nf>__<table>` on the pipelet
    /// hosting the NF.
    pub fn install(
        &mut self,
        switch: &mut Switch,
        deployment: &Deployment,
        nf: &str,
        table: &str,
        entry: TableEntry,
    ) -> Result<(), IrError> {
        deployment.install(switch, nf, table, entry)?;
        self.stats.installs += 1;
        Ok(())
    }

    /// Records a punted packet for later processing.
    pub fn enqueue_punt(&mut self, bytes: Vec<u8>, in_port: PortId) {
        self.stats.punts += 1;
        self.punt_queue.push((bytes, in_port));
    }

    /// Convenience: inject a packet and, if it lands at the CPU, queue it.
    pub fn inject_tracking_punts(
        &mut self,
        switch: &mut Switch,
        bytes: Vec<u8>,
        port: PortId,
    ) -> Result<Traversal, IrError> {
        let t = switch.inject(dejavu_asic::InjectedPacket::new(bytes, port))?;
        if t.disposition == Disposition::ToCpu {
            self.enqueue_punt(t.final_bytes.clone(), port);
        }
        Ok(t)
    }

    /// Drains the punt queue: every punted packet goes to every registered
    /// handler (an NF handler that does not recognize the packet returns an
    /// empty response). Installs requested entries and reinjects packets,
    /// returning the traversals of reinjected packets.
    pub fn process_punts(
        &mut self,
        switch: &mut Switch,
        deployment: &Deployment,
    ) -> Result<Vec<Traversal>, IrError> {
        let queue = std::mem::take(&mut self.punt_queue);
        let mut traversals = Vec::new();
        for (bytes, in_port) in queue {
            let mut reinject = false;
            let mut installs = Vec::new();
            let mut override_bytes = None;
            for handler in self.handlers.values_mut() {
                let resp = handler(&bytes);
                installs.extend(resp.install);
                reinject |= resp.reinject;
                if resp.reinject_bytes.is_some() {
                    override_bytes = resp.reinject_bytes;
                }
            }
            for (nf, table, entry) in installs {
                self.install(switch, deployment, &nf, &table, entry)?;
            }
            if reinject {
                self.stats.reinjections += 1;
                let bytes = override_bytes.unwrap_or_else(|| {
                    let mut b = bytes;
                    clear_sfc_flags(&mut b);
                    b
                });
                let t = switch.inject(dejavu_asic::InjectedPacket::new(bytes, in_port))?;
                if t.disposition == Disposition::ToCpu {
                    // Still punting: requeue (handler may converge next round).
                    self.enqueue_punt(t.final_bytes.clone(), in_port);
                }
                traversals.push(t);
            }
        }
        Ok(traversals)
    }

    /// Number of packets waiting in the punt queue.
    pub fn pending_punts(&self) -> usize {
        self.punt_queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn punt_queue_and_stats() {
        let mut cp = ControlPlane::new();
        cp.enqueue_punt(vec![1, 2, 3], 0);
        cp.enqueue_punt(vec![4], 1);
        assert_eq!(cp.pending_punts(), 2);
        assert_eq!(cp.stats.punts, 2);
    }

    #[test]
    fn scrape_returns_non_overlapping_deltas() {
        use dejavu_asic::TofinoProfile;
        let mut cp = ControlPlane::new();
        let mut sw = Switch::new(TofinoProfile::tiny());
        sw.set_telemetry(true);
        // No program loaded: the packet traverses ingress0 and is dropped,
        // which still books telemetry.
        let _ = sw.inject(dejavu_asic::InjectedPacket::new(vec![0u8; 64], 0));
        let first = cp.scrape(&sw);
        assert_eq!(first.counter("packets_injected"), 1);
        assert_eq!(first.counter("packets_dropped"), 1);
        // Nothing happened since: the next delta is empty, not a repeat.
        let second = cp.scrape(&sw);
        assert!(second.is_zero());
        assert_eq!(cp.stats.scrapes, 2);
        assert_eq!(cp.last_scrape().counter("packets_dropped"), 1);
    }

    #[test]
    fn handler_registration() {
        let mut cp = ControlPlane::new();
        cp.register_handler("lb", Box::new(|_| PuntResponse::default()));
        assert_eq!(cp.handlers.len(), 1);
    }
    // Full punt → install → reinject round-trips are exercised by the
    // cross-crate integration tests, where a real LB NF is deployed.
}
