//! On-chip packet routing (paper §3.4).
//!
//! > "We insert a branching table in the last MAU stage of all ingress
//! > pipelets, which directs packets to their next NFs based on the service
//! > path ID and index in the SFC header. … Routing rules of this table can
//! > only be installed after NF placement."
//!
//! Given a placement, the chain set, and the physical port configuration
//! (which port of each pipeline is in loopback mode, which port each chain
//! exits on), this module synthesizes every runtime table entry the
//! framework needs:
//!
//! * `dv_check_next_nf_<k>` — an entry per `(pathID, serviceIndex)` pair
//!   that dispatches slot *k*'s NF,
//! * `dv_branching` — per ingress pipelet: resubmit when the next NF is
//!   local, forward to the next pipelet's loopback port, or forward to the
//!   chain's exit port when done (default: punt unroutable packets),
//! * `dv_check_sfc_flags_<k>` — the constant flag-translation entries,
//! * `dv_decap` — strip the SFC header on the way out of exit ports.
//!
//! Each branching entry renders the one move rule of [`crate::placement`]
//! from its ingress pipelet; DJV103 ([`crate::lint::lint_routing`]) walks
//! the installed entries back against the same rule, and the packet-level
//! sweeps hold the switch to the model's recirculation counts.

use crate::chain::{ChainPolicy, ChainSet};
use crate::compose::{names, CompositionMode};
use crate::placement::{Goal, Move, Placement, RecircGranularity, Walk, PASS_DONE};
use crate::sfc::{NEXT_PROTO_IPV4, SFC_PORT_UNSET};
use dejavu_asic::{PipeletId, PortId, Switch, TofinoProfile};
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Routing synthesis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutingError {
    /// A pipeline needs a loopback port but none is configured.
    MissingLoopback {
        /// The pipeline.
        pipeline: usize,
    },
    /// A chain has no exit port.
    MissingExitPort {
        /// The chain's path ID.
        path_id: u16,
    },
    /// A chain references an unplaced NF.
    UnplacedNf(String),
    /// Exit port out of profile range.
    BadExitPort {
        /// The port.
        port: PortId,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::MissingLoopback { pipeline } => {
                write!(f, "pipeline {pipeline} has no loopback port configured")
            }
            RoutingError::MissingExitPort { path_id } => {
                write!(f, "chain {path_id} has no exit port")
            }
            RoutingError::UnplacedNf(nf) => write!(f, "NF {nf} is not placed"),
            RoutingError::BadExitPort { port } => write!(f, "exit port {port} out of range"),
        }
    }
}

impl std::error::Error for RoutingError {}

/// Physical routing configuration.
#[derive(Debug, Clone, Default)]
pub struct RoutingConfig {
    /// Loopback port per pipeline (at least one wherever recirculation into
    /// that pipeline is needed). The dedicated recirculation port is used
    /// automatically when no Ethernet loopback port is configured.
    pub loopback_port: BTreeMap<usize, PortId>,
    /// Exit port per chain path ID.
    pub exit_ports: BTreeMap<u16, PortId>,
    /// When true, completed chains are forwarded to `sfc.out_port` (the
    /// paper's "If the outPort of a packet is already set, the branching
    /// table will directly forward the packet to the port") instead of the
    /// statically configured exit port. Requires every chain to end in an
    /// NF that sets `sfc.out_port` (e.g. the Router); the static
    /// `exit_ports` are still used to size the decap entries.
    pub honor_out_port: bool,
}

impl RoutingConfig {
    /// Loopback port of a pipeline, falling back to the dedicated
    /// recirculation port.
    pub fn loopback_of(&self, pipeline: usize) -> PortId {
        self.loopback_port
            .get(&pipeline)
            .copied()
            .unwrap_or(dejavu_asic::switch::RECIRC_PORT_BASE + pipeline as PortId)
    }
}

/// All synthesized entries, ready to install.
#[derive(Debug, Clone, Default)]
pub struct RoutingSynthesis {
    /// `(pipelet, table name, entry)` triples.
    pub entries: Vec<(PipeletId, String, TableEntry)>,
}

/// Ethernet type restored on decapsulation for an SFC next-protocol code.
pub fn ethertype_for_proto(code: u8) -> u16 {
    match code {
        NEXT_PROTO_IPV4 => 0x0800,
        0x02 => 0x0806,
        0x03 => 0x86dd,
        _ => 0xffff,
    }
}

/// Extra parameters for segment synthesis on a multi-switch cluster.
#[derive(Debug, Clone, Default)]
pub struct SegmentOptions {
    /// NFs hosted on *other* switches, mapped to the local port that leads
    /// toward them (the inter-switch link). The branching table forwards
    /// there and the packet rides the wire, still SFC-encapsulated.
    pub remote_ports: BTreeMap<String, PortId>,
    /// Whether exit ports decapsulate. True on the final switch of a
    /// cluster (and on single-switch deployments); false on middle switches
    /// whose "exit" is the forward link — stripping the SFC header there
    /// would break the rest of the chain.
    pub decap_on_exit: bool,
}

impl SegmentOptions {
    /// Single-switch defaults: no remote NFs, decapsulate on exit.
    pub fn single_switch() -> Self {
        SegmentOptions {
            remote_ports: BTreeMap::new(),
            decap_on_exit: true,
        }
    }
}

impl RoutingSynthesis {
    /// Synthesizes all framework entries for a deployed placement.
    pub fn synthesize(
        placement: &Placement,
        chains: &ChainSet,
        profile: &TofinoProfile,
        config: &RoutingConfig,
    ) -> Result<RoutingSynthesis, RoutingError> {
        Self::synthesize_segment(
            placement,
            chains,
            profile,
            config,
            &SegmentOptions::single_switch(),
        )
    }

    /// Segment synthesis: like [`Self::synthesize`], but NFs listed in
    /// `segment.remote_ports` are reachable through an inter-switch link
    /// instead of a local pipelet (§7's back-to-back clusters).
    pub fn synthesize_segment(
        placement: &Placement,
        chains: &ChainSet,
        profile: &TofinoProfile,
        config: &RoutingConfig,
        segment: &SegmentOptions,
    ) -> Result<RoutingSynthesis, RoutingError> {
        let route = Route::new(placement, chains, profile, config, segment)?;
        let mut out = RoutingSynthesis::default();
        out.synth_check_next_nf(placement, chains);
        out.synth_flag_entries(placement);
        out.synth_branching(&route, chains, profile)?;
        if segment.decap_on_exit {
            out.synth_decap(&route, chains);
        }
        Ok(out)
    }

    /// Installs every synthesized entry into the switch (programs must be
    /// loaded already).
    pub fn apply(&self, switch: &mut Switch) -> Result<(), dejavu_p4ir::IrError> {
        for (pipelet, table, entry) in &self.entries {
            switch.install_entry(*pipelet, table, entry.clone())?;
        }
        Ok(())
    }

    /// Entries destined for one pipelet + table (tests).
    pub fn entries_for(&self, pipelet: PipeletId, table: &str) -> Vec<&TableEntry> {
        self.entries
            .iter()
            .filter(|(p, t, _)| *p == pipelet && t == table)
            .map(|(_, _, e)| e)
            .collect()
    }

    fn synth_check_next_nf(&mut self, placement: &Placement, chains: &ChainSet) {
        for (pipelet, nfs) in &placement.pipelets {
            for (slot, nf) in nfs.iter().enumerate() {
                let table = names::check_next_nf(slot);
                for chain in &chains.chains {
                    for (idx, cnf) in chain.nfs.iter().enumerate() {
                        if cnf == nf {
                            self.entries.push((
                                *pipelet,
                                table.clone(),
                                TableEntry {
                                    matches: sfc_key(chain.path_id, idx),
                                    action: names::PROCEED.into(),
                                    action_args: vec![],
                                    priority: 0,
                                },
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Constant flag-translation entries: one per platform-metadata flag,
    /// priority-ordered (drop > to-CPU > resubmit > mirror).
    fn synth_flag_entries(&mut self, placement: &Placement) {
        let flag_entry = |bit: usize, action: &str, priority: i32| {
            let mut matches = vec![KeyMatch::Any; 4];
            matches[bit] = KeyMatch::Ternary(Value::new(1, 1), Value::new(1, 1));
            TableEntry {
                matches,
                action: action.into(),
                action_args: vec![],
                priority,
            }
        };
        for (pipelet, nfs) in &placement.pipelets {
            let slots = match placement.mode(*pipelet) {
                CompositionMode::Sequential => nfs.len(),
                CompositionMode::Parallel => 1.min(nfs.len()),
            };
            for slot in 0..slots {
                let table = names::check_sfc_flags(slot);
                for e in [
                    flag_entry(0, names::FLAG_DROP, 40),
                    flag_entry(1, names::FLAG_TO_CPU, 30),
                    flag_entry(2, names::FLAG_RESUBMIT, 20),
                    flag_entry(3, names::FLAG_MIRROR, 10),
                ] {
                    self.entries.push((*pipelet, table.clone(), e));
                }
            }
        }
    }

    /// One branching entry per chain, service index and ingress pipelet —
    /// even NF-less ones that packets merely pass through after a loopback.
    fn synth_branching(
        &mut self,
        route: &Route,
        chains: &ChainSet,
        profile: &TofinoProfile,
    ) -> Result<(), RoutingError> {
        for chain in &chains.chains {
            for index in 0..=chain.nfs.len() {
                for pipeline in 0..profile.pipelines {
                    let at = PipeletId::ingress(pipeline);
                    let (action, port) = route.branch(chain, index, at)?;
                    self.entries.push((
                        at,
                        names::BRANCHING.into(),
                        TableEntry {
                            matches: sfc_key(chain.path_id, index),
                            action: action.into(),
                            action_args: port
                                .map(|p| vec![Value::new(u128::from(p), 16)])
                                .unwrap_or_default(),
                            priority: 0,
                        },
                    ));
                }
            }
        }
        Ok(())
    }

    /// One decap entry per (exit port, next protocol) on the owning egress
    /// pipelet, for the protocols we encapsulate.
    fn synth_decap(&mut self, route: &Route, chains: &ChainSet) {
        let mut seen = std::collections::BTreeSet::new();
        for chain in &chains.chains {
            let (exit_port, pipeline) = route.exits[&chain.path_id];
            for proto in [NEXT_PROTO_IPV4, 0x02u8, 0x03u8] {
                if !seen.insert((exit_port, proto)) {
                    continue;
                }
                self.entries.push((
                    PipeletId::egress(pipeline),
                    names::DECAP.into(),
                    TableEntry {
                        matches: vec![
                            KeyMatch::Exact(Value::new(u128::from(exit_port), 16)),
                            KeyMatch::Exact(Value::new(u128::from(proto), 8)),
                        ],
                        action: names::DO_DECAP.into(),
                        action_args: vec![Value::new(u128::from(ethertype_for_proto(proto)), 16)],
                        priority: 0,
                    },
                ));
            }
        }
    }
}

/// The `(sfc.path_id, sfc.service_index)` key of a dispatch or branching
/// entry.
fn sfc_key(path_id: u16, index: usize) -> Vec<KeyMatch> {
    vec![
        KeyMatch::Exact(Value::new(u128::from(path_id), 16)),
        KeyMatch::Exact(Value::new(index as u128, 8)),
    ]
}

/// One switch's routing inputs, with every chain's exit port resolved
/// once: what a chain's packet heads for at each service index, and the
/// branching entry that sends it there.
pub(crate) struct Route<'a> {
    placement: &'a Placement,
    config: &'a RoutingConfig,
    segment: &'a SegmentOptions,
    /// Per chain path ID: the exit port and its pipeline.
    pub(crate) exits: BTreeMap<u16, (PortId, usize)>,
}

impl<'a> Route<'a> {
    /// Resolves each chain's exit port; errs on a chain without one or
    /// with one out of range.
    pub(crate) fn new(
        placement: &'a Placement,
        chains: &ChainSet,
        profile: &TofinoProfile,
        config: &'a RoutingConfig,
        segment: &'a SegmentOptions,
    ) -> Result<Self, RoutingError> {
        Ok(Route {
            placement,
            config,
            segment,
            exits: exits(chains, profile, config)?,
        })
    }

    /// Where `chain`'s packet at service index `index` heads next: the goal,
    /// and the port a leave takes — the chain's exit at its end
    /// (`Goal::Leave(Some(pipeline))`), or the link toward the member
    /// hosting the next NF (`Goal::Leave(None)`: a link is picked only in
    /// an ingress pass, so an egress pass reaches it through its own
    /// ingress).
    pub(crate) fn next(
        &self,
        chain: &ChainPolicy,
        index: usize,
    ) -> Result<(Goal, Option<PortId>), RoutingError> {
        let Some(nf) = chain.nfs.get(index) else {
            let (port, pipeline) = self.exits[&chain.path_id];
            return Ok((Goal::Leave(Some(pipeline)), Some(port)));
        };
        let mut hosts = self.placement.pipelets.iter();
        match hosts.find_map(|(at, nfs)| Some((*at, nfs.iter().position(|n| n == nf)?))) {
            Some((at, slot)) => Ok((Goal::Run((at, slot), self.placement.mode(at)), None)),
            None => match self.segment.remote_ports.get(nf) {
                Some(&link) => Ok((Goal::Leave(None), Some(link))),
                None => Err(RoutingError::UnplacedNf(nf.clone())),
            },
        }
    }

    /// The branching entry at ingress pipelet `at` for `chain`'s packet at
    /// `index` — the rule's first move once the pass is done, as an action
    /// and its port. A resubmission resubmits; a loop forwards to the
    /// loopback port of the pipeline it enters; a leave forwards to the
    /// port (to `sfc.out_port` at the chain's end under `honor_out_port`).
    /// A crossing forwards to the port the egress pass leaves by, when the
    /// rule leaves after that pass's runs, and to the egress pipeline's
    /// loopback port otherwise.
    fn branch(
        &self,
        chain: &ChainPolicy,
        mut index: usize,
        at: PipeletId,
    ) -> Result<(&'static str, Option<PortId>), RoutingError> {
        let (mut goal, mut port) = self.next(chain, index)?;
        let mut walk = Walk::at(at, PASS_DONE, RecircGranularity::PerPort);
        Ok(match walk.step(goal) {
            Move::Resubmit => (names::RESUBMIT, None),
            Move::Loop { to } => (names::FWD, Some(self.config.loopback_of(to.pipeline))),
            Move::Leave if self.config.honor_out_port && matches!(goal, Goal::Leave(Some(_))) => {
                (names::FWD_OUT, None)
            }
            Move::Leave => (names::FWD, port),
            Move::Cross { to } => loop {
                match walk.step(goal) {
                    Move::Run => {
                        index += 1;
                        (goal, port) = self.next(chain, index)?;
                    }
                    Move::Leave => break (names::FWD, port),
                    _ => break (names::FWD, Some(self.config.loopback_of(to.pipeline))),
                }
            },
            Move::Run => unreachable!("a finished pass runs no NF"),
        })
    }
}

/// Each chain's exit port and its pipeline, by path ID: every chain has
/// one, in the profile's range and below the `out_port` sentinel.
fn exits(
    chains: &ChainSet,
    profile: &TofinoProfile,
    config: &RoutingConfig,
) -> Result<BTreeMap<u16, (PortId, usize)>, RoutingError> {
    chains
        .chains
        .iter()
        .map(|chain| {
            let path_id = chain.path_id;
            let port = *config
                .exit_ports
                .get(&path_id)
                .ok_or(RoutingError::MissingExitPort { path_id })?;
            match profile.pipeline_of_port(usize::from(port)) {
                Some(pipeline) if port < SFC_PORT_UNSET => Ok((path_id, (port, pipeline))),
                _ => Err(RoutingError::BadExitPort { port }),
            }
        })
        .collect()
}

/// Sanity-checks a routing config against a chain set: every chain has an
/// in-range exit port, and the `out_port` sentinel is representable.
pub fn validate_config(
    chains: &ChainSet,
    profile: &TofinoProfile,
    config: &RoutingConfig,
) -> Result<(), RoutingError> {
    exits(chains, profile, config).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainPolicy;

    fn fig6_placement() -> Placement {
        Placement::sequential(vec![
            (PipeletId::ingress(0), vec!["A", "B"]),
            (PipeletId::egress(1), vec!["C"]),
            (PipeletId::ingress(1), vec!["D"]),
            (PipeletId::egress(0), vec!["E", "F"]),
        ])
    }

    fn chains() -> ChainSet {
        ChainSet::new(vec![ChainPolicy::new(
            1,
            "abcdef",
            vec!["A", "B", "C", "D", "E", "F"],
            1.0,
        )])
        .unwrap()
    }

    fn config() -> RoutingConfig {
        RoutingConfig {
            loopback_port: [(0, 15), (1, 31)].into_iter().collect(),
            exit_ports: [(1u16, 2 as PortId)].into_iter().collect(),
            ..Default::default()
        }
    }

    fn synth() -> RoutingSynthesis {
        RoutingSynthesis::synthesize(
            &fig6_placement(),
            &chains(),
            &TofinoProfile::wedge_100b_32x(),
            &config(),
        )
        .unwrap()
    }

    fn branching_action_at(
        s: &RoutingSynthesis,
        pipeline: usize,
        index: u128,
    ) -> (String, Vec<Value>) {
        let e = s
            .entries_for(PipeletId::ingress(pipeline), names::BRANCHING)
            .into_iter()
            .find(|e| match &e.matches[1] {
                KeyMatch::Exact(v) => v.raw() == index,
                _ => false,
            })
            .expect("entry exists");
        (e.action.clone(), e.action_args.clone())
    }

    #[test]
    fn dispatch_entries_per_path_index_pair() {
        let s = synth();
        // Slot 0 of ingress 0 hosts A → entry (path 1, index 0).
        let entries = s.entries_for(PipeletId::ingress(0), &names::check_next_nf(0));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].matches[0], KeyMatch::Exact(Value::new(1, 16)));
        assert_eq!(entries[0].matches[1], KeyMatch::Exact(Value::new(0, 8)));
        // Slot 1 hosts B → index 1.
        let entries = s.entries_for(PipeletId::ingress(0), &names::check_next_nf(1));
        assert_eq!(entries[0].matches[1], KeyMatch::Exact(Value::new(1, 8)));
    }

    #[test]
    fn branching_follows_fig6b_traversal() {
        let s = synth();
        // At ingress 0 after A,B ran (index 2, next = C on egress 1): the
        // chain continues after C (D on ingress 1), so forward to pipeline
        // 1's loopback port 31.
        let (action, args) = branching_action_at(&s, 0, 2);
        assert_eq!(action, names::FWD);
        assert_eq!(args[0].raw(), 31);
        // At ingress 1 after D ran (index 4, next = E on egress 0): E and F
        // both run in egress 0 and the chain then ends; exit port 2 is on
        // pipeline 0 → forward straight to the exit port.
        let (action, args) = branching_action_at(&s, 1, 4);
        assert_eq!(action, names::FWD);
        assert_eq!(args[0].raw(), 2);
        // Completed chain (index 6) from anywhere → exit port.
        let (action, args) = branching_action_at(&s, 0, 6);
        assert_eq!(action, names::FWD);
        assert_eq!(args[0].raw(), 2);
    }

    #[test]
    fn local_ingress_miss_resubmits() {
        // Chain B then A, both on ingress 0 in slot order [A, B].
        let placement = Placement::sequential(vec![(PipeletId::ingress(0), vec!["A", "B"])]);
        let chains = ChainSet::new(vec![ChainPolicy::new(1, "ba", vec!["B", "A"], 1.0)]).unwrap();
        let s = RoutingSynthesis::synthesize(
            &placement,
            &chains,
            &TofinoProfile::wedge_100b_32x(),
            &config(),
        )
        .unwrap();
        // After B ran (index 1, next = A, local at ingress 0) → resubmit.
        let (action, _) = branching_action_at(&s, 0, 1);
        assert_eq!(action, names::RESUBMIT);
    }

    #[test]
    fn decap_entries_on_exit_pipeline() {
        let s = synth();
        let entries = s.entries_for(PipeletId::egress(0), names::DECAP);
        assert_eq!(entries.len(), 3); // ipv4, arp, ipv6 codes for port 2
        assert!(entries.iter().all(|e| e.action == names::DO_DECAP));
        // IPv4 restores 0x0800.
        let ip = entries
            .iter()
            .find(|e| matches!(&e.matches[1], KeyMatch::Exact(v) if v.raw() == u128::from(NEXT_PROTO_IPV4)))
            .unwrap();
        assert_eq!(ip.action_args[0].raw(), 0x0800);
    }

    #[test]
    fn flag_entries_priority_ordered() {
        let s = synth();
        let entries = s.entries_for(PipeletId::ingress(0), &names::check_sfc_flags(0));
        assert_eq!(entries.len(), 4);
        let drop = entries
            .iter()
            .find(|e| e.action == names::FLAG_DROP)
            .unwrap();
        let mirror = entries
            .iter()
            .find(|e| e.action == names::FLAG_MIRROR)
            .unwrap();
        assert!(drop.priority > mirror.priority);
    }

    #[test]
    fn missing_exit_port_rejected() {
        let mut cfg = config();
        cfg.exit_ports.clear();
        let err = RoutingSynthesis::synthesize(
            &fig6_placement(),
            &chains(),
            &TofinoProfile::wedge_100b_32x(),
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(err, RoutingError::MissingExitPort { .. }));
    }

    #[test]
    fn unplaced_nf_rejected() {
        let placement = Placement::sequential(vec![(PipeletId::ingress(0), vec!["A"])]);
        let err = RoutingSynthesis::synthesize(
            &placement,
            &chains(),
            &TofinoProfile::wedge_100b_32x(),
            &config(),
        )
        .unwrap_err();
        assert!(matches!(err, RoutingError::UnplacedNf(_)));
    }

    #[test]
    fn config_validation() {
        let profile = TofinoProfile::wedge_100b_32x();
        assert!(validate_config(&chains(), &profile, &config()).is_ok());
        let mut bad = config();
        bad.exit_ports.insert(1, 999);
        assert!(matches!(
            validate_config(&chains(), &profile, &bad).unwrap_err(),
            RoutingError::BadExitPort { .. }
        ));
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(ethertype_for_proto(NEXT_PROTO_IPV4), 0x0800);
        assert_eq!(ethertype_for_proto(0x02), 0x0806);
        assert_eq!(ethertype_for_proto(0x77), 0xffff);
    }
}
