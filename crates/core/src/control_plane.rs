//! Merged control plane (paper §7, "Control plane merge").
//!
//! After Dejavu merges N data-plane programs into one, the NFs' control
//! planes still speak their *original* API — "install an entry into my
//! `lb_session` table". The paper proposes a translation layer mapping the
//! original control-plane APIs onto the merged SFC program. That layer
//! decides in one place and acts in two:
//!
//! * `DecisionCore` makes the decisions: it holds the learn policies and
//!   punt handlers the NFs registered, runs the learn loop (digests the
//!   data plane emitted become table entries — the fast learn path that
//!   installs state *without* punting the packet itself), and maps a
//!   punted packet to the merged answer of every handler;
//! * [`ControlPlane`] acts on them against one `Switch`:
//!   [`ControlPlane::process_digests`] runs the learn loop, and
//!   [`ControlPlane::process_punts`] the to-CPU loop (packets an NF sent to
//!   the control plane, e.g. the Fig. 4 load balancer's session misses, get
//!   their remedy installed and are reinjected: "the control plane will
//!   simply install a new session … and reinject the packet into the data
//!   plane");
//! * on a cluster, every member runs the learn loop after every packet, and
//!   the controller serves punts against the member hosting each NF
//!   ([`ClusterHandle::register_handler`](crate::transport::ClusterHandle::register_handler)).

use crate::deploy::Deployment;
use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, PortId, Switch, Traversal};
use dejavu_p4ir::table::{KeyMatch, TableEntry};
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
    if let Some(mut h) = read_wire_sfc(bytes) {
        h.resub_flag = false;
        h.recirc_flag = false;
        h.drop_flag = false;
        h.mirror_flag = false;
        h.to_cpu_flag = false;
        write_wire_sfc(bytes, &h);
    }
}

/// Prepares a punted packet for reinjection after the remedy was installed:
/// clears the platform flags and rewinds the service index by one, so the
/// NF that punted (whose dispatch advanced the index before the flag check
/// caught the punt) runs again — this time hitting the new entry. Returns
/// `None` when the packet has no SFC header or the index is already 0.
pub fn rewind_and_clear(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut h = read_wire_sfc(bytes)?;
    h.service_index = h.service_index.checked_sub(1)?;
    let mut out = bytes.to_vec();
    write_wire_sfc(&mut out, &h);
    clear_sfc_flags(&mut out);
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
/// wire bytes; returns what to do. `Send`, so a cluster's controller thread
/// can run it.
pub type PuntHandler = Box<dyn FnMut(&[u8]) -> PuntResponse + Send>;

/// How one digest stream becomes table entries — a NAT learning
/// return-path bindings, an LB pinning a session to a backend. Digest field
/// `key_map[i]` becomes the `i`-th exact-match key of `table`, and
/// `arg_map[j]` the `j`-th argument of `action`; the entry is installed at
/// priority 0 into the table of the NF that registered the policy.
///
/// The one value is both what the learn loop runs
/// (`DecisionCore::learn`, for [`ControlPlane::process_digests`] and every
/// cluster member) and what DJV302/DJV303 check against the NF's program
/// ([`crate::analyze::check_learn_policy`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnPolicy {
    /// The NF's table the learned entries go in (the NF's own naming).
    pub table: String,
    /// The action those entries invoke.
    pub action: String,
    /// Digest field index installed as each match key, in key order.
    pub key_map: Vec<usize>,
    /// Digest field index bound to each action parameter, in parameter
    /// order.
    pub arg_map: Vec<usize>,
}

impl LearnPolicy {
    /// The entry one digest's field values map to; `None` when the digest
    /// carries fewer fields than the maps name.
    pub fn entry(&self, values: &[Value]) -> Option<TableEntry> {
        let fits = self
            .key_map
            .iter()
            .chain(&self.arg_map)
            .all(|&i| i < values.len());
        // Indexed maps over the slices, so each vector is allocated at its
        // exact length: learned entries stay resident by the thousand.
        fits.then(|| TableEntry {
            matches: self
                .key_map
                .iter()
                .map(|&i| KeyMatch::Exact(values[i]))
                .collect(),
            action: self.action.clone(),
            action_args: self.arg_map.iter().map(|&i| values[i]).collect(),
            priority: 0,
        })
    }
}

/// What the learn loop did: the digests a policy claimed, and the entries
/// they installed (idempotent re-learns excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Learned {
    pub digests: u64,
    pub installed: u64,
}

/// The control plane's decisions: the learn policies and punt handlers the
/// NFs registered, the learn loop, and the merged answer to a punt. The
/// single-switch [`ControlPlane`], every cluster member and the cluster
/// controller each hold one, so a digest or a punt is decided the same way
/// on one switch and on a cluster.
#[derive(Default)]
pub(crate) struct DecisionCore {
    handlers: BTreeMap<String, PuntHandler>,
    /// Learn policies and the NF that registered them, keyed by merged
    /// digest stream name (`<nf>__<stream>`). Each policy's table and action
    /// are stored under their merged names, resolved at registration, so
    /// a digest's entry is built and looked up without naming anything.
    learn_policies: BTreeMap<String, (String, LearnPolicy)>,
}

impl DecisionCore {
    /// Registers the punt handler of an NF, replacing an earlier one.
    pub fn register_handler(&mut self, nf: &str, handler: PuntHandler) {
        self.handlers.insert(nf.to_string(), handler);
    }

    /// Registers the learn policy for an NF's digest stream (see
    /// [`ControlPlane::register_learn_policy`]).
    pub fn register_learn_policy(&mut self, nf: &str, stream: &str, policy: LearnPolicy) {
        use crate::merge::scoped;
        let merged = LearnPolicy {
            table: scoped(nf, &policy.table),
            action: scoped(nf, &policy.action),
            ..policy
        };
        self.learn_policies
            .insert(scoped(nf, stream), (nf.to_string(), merged));
    }

    /// The learn loop: drains the switch's learn queues and installs each
    /// digest's entry through its stream's policy, unless already present
    /// (idempotent: duplicate digests and re-observed flows converge). A
    /// digest no policy claims is dropped, as a hardware learn filter
    /// would; the others, and their installs, are counted in `learned`. A
    /// failed install does not stop the batch; the first error is returned
    /// at the end.
    pub fn learn(
        &self,
        switch: &mut Switch,
        deployment: &Deployment,
        learned: &mut Learned,
    ) -> Result<(), IrError> {
        let mut first_err = None;
        for (_, record) in switch.drain_digests() {
            let Some((nf, policy)) = self.learn_policies.get(&*record.name) else {
                continue;
            };
            learned.digests += 1;
            let Some(entry) = policy.entry(&record.values) else {
                continue;
            };
            match deployment.install_merged_if_absent(switch, nf, &policy.table, entry) {
                Ok(true) => learned.installed += 1,
                Ok(false) => {}
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Runs every handler on a punted packet and merges their answers: the
    /// installs in handler order, a reinjection if any handler asked for
    /// one, the last handler's replacement bytes. In the merged answer
    /// `reinject_bytes` is `Some` exactly when `reinject` is set — the
    /// punted bytes with their platform flags cleared when no handler gave
    /// its own. A handler that does not recognize the packet answers empty,
    /// so a packet no handler claims gets no installs and no bytes.
    pub fn punt(&mut self, bytes: &[u8]) -> PuntResponse {
        let mut merged = PuntResponse::default();
        for handler in self.handlers.values_mut() {
            let resp = handler(bytes);
            merged.install.extend(resp.install);
            merged.reinject |= resp.reinject;
            if resp.reinject_bytes.is_some() {
                merged.reinject_bytes = resp.reinject_bytes;
            }
        }
        if !merged.reinject {
            merged.reinject_bytes = None;
        } else if merged.reinject_bytes.is_none() {
            let mut cleared = bytes.to_vec();
            clear_sfc_flags(&mut cleared);
            merged.reinject_bytes = Some(cleared);
        }
        merged
    }
}

/// The merged control plane of one switch: a `DecisionCore` and the punt
/// queue, acting on a `Switch` through its `Deployment`.
#[derive(Default)]
pub struct ControlPlane {
    decisions: DecisionCore,
    /// Packets punted to the CPU, with the port they were injected on.
    punt_queue: Vec<(Vec<u8>, PortId)>,
    /// Statistics.
    pub stats: ControlPlaneStats,
}

/// Counters of control-plane activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlPlaneStats {
    /// Punted packets seen.
    pub punts: u64,
    /// Entries installed through the translation layer (excludes entries
    /// that were already present).
    pub installs: u64,
    /// Packets reinjected.
    pub reinjections: u64,
    /// Digests consumed by the learn loop.
    pub digests: u64,
    /// Entries installed by learn policies (excludes idempotent re-learns).
    pub learns: u64,
}

impl ControlPlane {
    /// An empty control plane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the punt handler of an NF, replacing an earlier one.
    pub fn register_handler(&mut self, nf: &str, handler: PuntHandler) {
        self.decisions.register_handler(nf, handler);
    }

    /// Registers the learn policy for an NF's digest stream. The stream is
    /// named in the NF's own view — `("nat", "flow")` resolves to the merged
    /// `nat__flow` stream that the NF's `digest("flow", …)` primitive emits
    /// after composition, and its entries go in that NF's `policy.table`.
    pub fn register_learn_policy(&mut self, nf: &str, stream: &str, policy: LearnPolicy) {
        self.decisions.register_learn_policy(nf, stream, policy);
    }

    /// Runs the learn loop (`DecisionCore::learn`) on the switch's queued
    /// digests. Returns the number of entries installed, or the first
    /// failed install's error once the batch is done.
    pub fn process_digests(
        &mut self,
        switch: &mut Switch,
        deployment: &Deployment,
    ) -> Result<usize, IrError> {
        let mut learned = Learned::default();
        let result = self.decisions.learn(switch, deployment, &mut learned);
        self.stats.digests += learned.digests;
        self.stats.installs += learned.installed;
        self.stats.learns += learned.installed;
        result.map(|()| learned.installed as usize)
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
        let t = switch.inject(InjectedPacket::new(bytes, port))?;
        if t.disposition == Disposition::ToCpu {
            self.enqueue_punt(t.final_bytes.clone(), port);
        }
        Ok(t)
    }

    /// Drains the punt queue: each punted packet gets the merged answer of
    /// every handler (`DecisionCore::punt`), whose entries are installed
    /// (idempotently, as learned ones are) before the packet is reinjected
    /// on the port it was injected on. Returns the traversals of reinjected
    /// packets; one that punts again is queued for the next round. A failed
    /// install or reinjection does not stop the batch: that punt goes back
    /// on the queue, every other one is still served, and the first error
    /// is returned at the end.
    pub fn process_punts(
        &mut self,
        switch: &mut Switch,
        deployment: &Deployment,
    ) -> Result<Vec<Traversal>, IrError> {
        let mut traversals = Vec::new();
        let mut first_err = None;
        for (bytes, in_port) in std::mem::take(&mut self.punt_queue) {
            let answer = self.decisions.punt(&bytes);
            match self.apply_punt(switch, deployment, answer, in_port) {
                Ok(t) => traversals.extend(t),
                Err(e) => {
                    first_err.get_or_insert(e);
                    self.punt_queue.push((bytes, in_port));
                }
            }
        }
        first_err.map_or(Ok(traversals), Err)
    }

    /// Acts on one merged punt answer: installs its entries, then reinjects
    /// its bytes, if any, on `in_port`.
    fn apply_punt(
        &mut self,
        switch: &mut Switch,
        deployment: &Deployment,
        answer: PuntResponse,
        in_port: PortId,
    ) -> Result<Option<Traversal>, IrError> {
        for (nf, table, entry) in answer.install {
            if deployment.install_if_absent(switch, &nf, &table, entry)? {
                self.stats.installs += 1;
            }
        }
        let Some(bytes) = answer.reinject_bytes else {
            return Ok(None);
        };
        let t = switch.inject(InjectedPacket::new(bytes, in_port))?;
        self.stats.reinjections += 1;
        if t.disposition == Disposition::ToCpu {
            // Still punting: requeue (handler may converge next round).
            self.enqueue_punt(t.final_bytes.clone(), in_port);
        }
        Ok(Some(t))
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
    fn handler_registration() {
        let mut cp = ControlPlane::new();
        cp.register_handler("lb", Box::new(|_| PuntResponse::default()));
        assert_eq!(cp.decisions.handlers.len(), 1);
    }
    // Full punt → install → reinject round-trips are exercised by the
    // cross-crate integration tests, where a real LB NF is deployed.
}
