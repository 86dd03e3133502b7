//! Multi-switch chaining (paper §7, "Towards clusters of switch data
//! planes").
//!
//! > "In the simplest case, multiple switches can be chained back-to-back to
//! > provide the same bandwidth of a single switch but with manyfold more
//! > MAU stages. … Our off-chip recirculation latency in Fig 8(b) also
//! > reflects that the packet transition delay from one switch to another is
//! > low enough to be practical."
//!
//! This module is the *configuration* of a linear cluster of ASICs: the
//! cable ([`ClusterWiring`]), the checks a cluster must pass before any
//! switch is configured ([`ClusterConfigError`]) and the per-member
//! deployment both cluster constructors share. It runs nothing: packets,
//! learning, aging and checkpoints are [`crate::transport`]'s — one
//! controller and one worker per member, driven by threads
//! ([`spawn_cluster`](crate::transport::cluster::spawn_cluster)) or stepped
//! on the caller's thread ([`deploy_cluster`]). Which NF goes on which
//! member is [`crate::placement`]'s question; its cluster types are
//! re-exported here.

pub use crate::placement::{chain_latency_ns, ClusterCost, ClusterPlacement, ClusterProblem};
pub use crate::transport::cluster::deploy_cluster;
/// What [`deploy_cluster`] returns, under the name it had when the
/// single-threaded cluster was a runtime of its own (`crates/perf` still
/// spells it so).
pub use crate::transport::cluster::ClusterHandle as ClusterNet;

use crate::chain::ChainSet;
use crate::deploy::{deploy_with, Builds, DeployError, DeployOptions, Deployment};
use crate::nfmodule::NfModule;
use crate::routing::{RoutingConfig, SegmentOptions};
use dejavu_asic::{PortId, Switch, TofinoProfile};
use std::collections::BTreeMap;
use std::fmt;

/// A cluster configuration rejected at build time — the typed face of the
/// checks [`ClusterWiring::new`], [`deploy_cluster`] and
/// [`spawn_cluster`](crate::transport::cluster::spawn_cluster) perform
/// before any switch is configured.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterConfigError {
    /// The placement has zero member switches.
    EmptyCluster,
    /// The egress and ingress link ports collide: a switch would receive
    /// chain traffic on the same port it forwards out of.
    LinkPortCollision {
        /// The port claimed by both roles.
        port: PortId,
    },
    /// A chain's exit port collides with the inter-switch cable ports; in a
    /// multi-switch cluster the wiring owns those ports exclusively.
    ExitPortCollision {
        /// The chain whose exit port collides.
        path_id: u16,
        /// The colliding port.
        port: PortId,
    },
    /// The cable latency is not a finite, non-negative number.
    BadCableLatency(f64),
    /// A chain names an NF no provided module implements.
    DanglingNf {
        /// The unknown NF name.
        nf: String,
        /// The chain that references it.
        path_id: u16,
    },
    /// An NF is placed on more than one member switch.
    DuplicatePlacement {
        /// The NF placed twice.
        nf: String,
        /// First switch hosting it.
        first: usize,
        /// Second switch hosting it.
        second: usize,
    },
    /// A chain visits switches against cluster order; the wiring is
    /// forward-only, so the NF must be re-placed.
    NonMonotoneChain {
        /// The offending chain.
        path_id: u16,
        /// The NF whose placement goes backwards.
        nf: String,
        /// The switch the chain was already on.
        from: usize,
        /// The earlier switch the chain would have to jump back to.
        to: usize,
    },
}

impl fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterConfigError::EmptyCluster => write!(f, "cluster has no member switches"),
            ClusterConfigError::LinkPortCollision { port } => {
                write!(f, "egress and ingress link ports both claim port {port}")
            }
            ClusterConfigError::ExitPortCollision { path_id, port } => write!(
                f,
                "chain {path_id} exits on port {port}, which the inter-switch wiring owns"
            ),
            ClusterConfigError::BadCableLatency(ns) => {
                write!(
                    f,
                    "cable latency {ns} ns is not a finite non-negative number"
                )
            }
            ClusterConfigError::DanglingNf { nf, path_id } => {
                write!(
                    f,
                    "chain {path_id} names NF {nf}, but no module implements it"
                )
            }
            ClusterConfigError::DuplicatePlacement { nf, first, second } => write!(
                f,
                "NF {nf} is placed on both switch {first} and switch {second}"
            ),
            ClusterConfigError::NonMonotoneChain {
                path_id,
                nf,
                from,
                to,
            } => write!(
                f,
                "chain {path_id} visits switch {to} (NF {nf}) after switch {from}; \
                 forward-only wiring requires non-decreasing order — re-place NF {nf}"
            ),
        }
    }
}

impl std::error::Error for ClusterConfigError {}

impl From<ClusterConfigError> for DeployError {
    fn from(e: ClusterConfigError) -> Self {
        DeployError::ClusterConfig(e)
    }
}

/// How consecutive cluster switches are wired: one unidirectional cable per
/// hop, from `egress_link_port` of switch *s* into `ingress_link_port` of
/// switch *s+1*.
#[derive(Debug, Clone, Copy)]
pub struct ClusterWiring {
    /// Port each non-final switch forwards chain traffic out of.
    pub egress_link_port: PortId,
    /// Port each non-first switch receives chain traffic on.
    pub ingress_link_port: PortId,
    /// One-way cable latency in nanoseconds (1 m DAC ≈ 5 ns; SerDes are
    /// already in the per-switch MAC accounting).
    pub cable_ns: f64,
}

impl Default for ClusterWiring {
    fn default() -> Self {
        ClusterWiring {
            egress_link_port: 14,
            ingress_link_port: 13,
            cable_ns: 5.0,
        }
    }
}

impl ClusterWiring {
    /// Validating constructor: rejects wirings whose link ports collide or
    /// whose cable latency is not a finite non-negative number, so a bad
    /// wiring fails where it is written instead of at deploy time.
    pub fn new(
        egress_link_port: PortId,
        ingress_link_port: PortId,
        cable_ns: f64,
    ) -> Result<Self, ClusterConfigError> {
        let w = ClusterWiring {
            egress_link_port,
            ingress_link_port,
            cable_ns,
        };
        w.validate()?;
        Ok(w)
    }

    /// Re-checks the constructor invariants (useful for wirings built with
    /// struct literals or mutated after construction).
    pub fn validate(&self) -> Result<(), ClusterConfigError> {
        if self.egress_link_port == self.ingress_link_port {
            return Err(ClusterConfigError::LinkPortCollision {
                port: self.egress_link_port,
            });
        }
        if !self.cable_ns.is_finite() || self.cable_ns < 0.0 {
            return Err(ClusterConfigError::BadCableLatency(self.cable_ns));
        }
        Ok(())
    }
}

/// Validates a cluster configuration and deploys one `(Switch, Deployment)`
/// pair per member — the builder behind [`deploy_cluster`] and
/// [`spawn_cluster`](crate::transport::cluster::spawn_cluster).
///
/// Checks performed before any switch is configured (all typed,
/// [`ClusterConfigError`]): non-empty placement, valid wiring, no exit-port
/// collisions with the cable ports, every chained NF backed by a module and
/// placed on exactly one switch, and every chain visiting switches in
/// non-decreasing cluster order (the wiring is forward-only). Each member
/// is deployed as its segment — its own NFs, the rest behind the forward
/// link — so `deploy`'s commit check (DJV103) walks every member's
/// installed routing against the model's walk of that member's run. The
/// members' deploys share one merge and build each distinct pipelet plan
/// once: a member with no NF builds nothing its predecessors have not.
///
/// Only the members `build` picks are deployed; the others are `None`. A
/// cluster boots every member; a migration's BUILD skips the members
/// [`member_changes`] says it leaves alone. The whole placement is checked
/// either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_cluster_members(
    nfs: &[&NfModule],
    chains: &ChainSet,
    placement: &ClusterPlacement,
    profile: &TofinoProfile,
    exit_ports: BTreeMap<u16, PortId>,
    wiring: &ClusterWiring,
    options: &DeployOptions,
    build: impl Fn(usize) -> bool,
) -> Result<Vec<Option<(Switch, Deployment)>>, DeployError> {
    let n = placement.switches.len();
    if n == 0 {
        return Err(ClusterConfigError::EmptyCluster.into());
    }
    wiring.validate().map_err(DeployError::from)?;
    if n > 1 {
        for (&path_id, &port) in &exit_ports {
            if port == wiring.egress_link_port || port == wiring.ingress_link_port {
                return Err(ClusterConfigError::ExitPortCollision { path_id, port }.into());
            }
        }
    }

    // Every chained NF must be backed by a module (dangling names would
    // otherwise surface deep inside the merge pass, chain by chain).
    for chain in &chains.chains {
        for nf in &chain.nfs {
            if !nfs.iter().any(|m| m.name() == *nf) {
                return Err(ClusterConfigError::DanglingNf {
                    nf: nf.clone(),
                    path_id: chain.path_id,
                }
                .into());
            }
        }
    }

    // Every chained NF placed on exactly one switch.
    for nf in chains.all_nfs() {
        let hosts: Vec<usize> = placement
            .switches
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.location(&nf).map(|_| i))
            .collect();
        match hosts.as_slice() {
            [] => return Err(DeployError::UnplacedNf(nf)),
            [_] => {}
            [first, second, ..] => {
                return Err(ClusterConfigError::DuplicatePlacement {
                    nf,
                    first: *first,
                    second: *second,
                }
                .into())
            }
        }
    }

    // Validate monotone chain order.
    let switch_of = |nf: &str| placement.switch_of(nf);
    for chain in &chains.chains {
        let mut last = 0usize;
        for nf in &chain.nfs {
            let s = switch_of(nf).ok_or_else(|| DeployError::UnplacedNf(nf.clone()))?;
            if s < last {
                return Err(ClusterConfigError::NonMonotoneChain {
                    path_id: chain.path_id,
                    nf: nf.clone(),
                    from: last,
                    to: s,
                }
                .into());
            }
            last = s;
        }
    }
    let final_switch = final_member(chains, placement);

    let builds = &mut Builds::default();
    let mut members = Vec::new();
    for s in 0..n {
        if !build(s) {
            members.push(None);
            continue;
        }
        let local = &placement.switches[s];
        // Remote NFs reachable over the forward link.
        let mut remote_ports = BTreeMap::new();
        for nf in chains.all_nfs() {
            if local.location(&nf).is_none() {
                remote_ports.insert(nf, wiring.egress_link_port);
            }
        }
        let is_final = s == final_switch;
        let config = RoutingConfig {
            loopback_port: BTreeMap::new(), // dedicated recirc ports
            exit_ports: if is_final {
                exit_ports.clone()
            } else {
                chains
                    .chains
                    .iter()
                    .map(|c| (c.path_id, wiring.egress_link_port))
                    .collect()
            },
            honor_out_port: false,
        };
        let seg_options = DeployOptions {
            entry_nf: options.entry_nf.clone(),
            segment: Some(SegmentOptions {
                remote_ports,
                decap_on_exit: is_final,
            }),
        };
        let member = deploy_with(builds, nfs, chains, local, profile, &config, &seg_options)?;
        members.push(Some(member));
        // A live cluster's threads may share this core: let them run
        // between member builds. A migration builds while traffic is in
        // the air, and whatever the workers have not finished when it
        // pauses ingress is drained with ingress parked.
        std::thread::yield_now();
    }
    Ok(members)
}

/// The member that decapsulates and exits every chain: the last one
/// hosting a chained NF.
fn final_member(chains: &ChainSet, placement: &ClusterPlacement) -> usize {
    let hosts = chains.chains.iter().flat_map(|c| c.nfs.iter());
    hosts
        .filter_map(|nf| placement.switch_of(nf))
        .max()
        .unwrap_or(0)
}

/// Whether member `s` deploys differently under `new` than under `old`.
/// [`build_cluster_members`] reads two inputs per member — its own
/// placement and whether it is the final member — so a member for which
/// both are the same is one a migration leaves alone: it is not built,
/// staged, snapshotted, flipped or retired, and keeps its switch, clock,
/// counters and state.
pub(crate) fn member_changes(
    chains: &ChainSet,
    old: &ClusterPlacement,
    new: &ClusterPlacement,
    s: usize,
) -> bool {
    let finals = (
        final_member(chains, old) == s,
        final_member(chains, new) == s,
    );
    old.switches.get(s) != new.switches.get(s) || finals.0 != finals.1
}
