//! Hitless migration driver: execute a placement change against a live
//! cluster without losing a single learned flow.
//!
//! The driver sequences the `ClusterHandle` migration verbs into the
//! state machine documented in DESIGN.md:
//!
//! ```text
//! BUILD → PAUSE → FLUSH → SNAPSHOT → SWAP → RESYNC → RESTORE → REMAP → RESUME
//! ```
//!
//! * **BUILD** — compile the new placement into fresh `(Switch,
//!   Deployment)` members *before* touching traffic; a placement that
//!   fails to deploy aborts the migration with the old cluster intact.
//! * **PAUSE** — `pause_ingress`: park new injections and quiesce until
//!   every in-flight packet has delivered or nacked. Packets injected
//!   during the window are queued, never rejected.
//! * **FLUSH** — `process_digests`: every member learns what its digest
//!   queues still hold and reports, so every learn digest emitted by
//!   pre-pause traffic is an installed entry before state is captured.
//!   (Members learn as packets pass, so the queues are normally empty.)
//! * **SNAPSHOT** — `snapshot_state`: checkpoint every pipelet's dynamic
//!   state, then split it **per NF** by the `<nf>__` merged-name prefix so
//!   each NF's tables can land wherever the new placement puts them. An
//!   NF's slice is taken from its old home pipelet only: every composed
//!   pipelet carries the whole merged namespace, so the others hold a
//!   dormant, empty copy of its tables and registers.
//! * **SWAP** — `swap_member` on every member: adopt the new switches.
//!   Their dynamic state is empty and their clocks are zero.
//! * **RESYNC** — `advance_time` over empty tables to the maximum
//!   snapshotted clock. Restoring *before* resyncing would stamp entries
//!   at clock 0 and the resync would mass-evict them; this ordering makes
//!   the fresh idle stamps land at the restored clock.
//! * **RESTORE** — `restore_state` each NF's slice onto its new (switch,
//!   pipelet) home; dropped entries are reported, not silently lost.
//! * **REMAP** — `remap_nfs`: flip the NF→switch routing so installs and
//!   punt remedies target the new homes (each member learns for the NFs
//!   it hosts, so learning follows the swap by itself).
//! * **RESUME** — `resume_ingress`: release parked traffic in arrival
//!   order. Migration downtime is the PAUSE→RESUME wall-clock span.

use crate::chain::ChainSet;
use crate::deploy::{DeployError, DeployOptions};
use crate::multiswitch::{build_cluster_members, ClusterPlacement, ClusterWiring};
use crate::nfmodule::NfModule;
use crate::transport::{ClusterError, ClusterHandle};
use dejavu_asic::{PipeletId, PortId, StateSnapshot, TofinoProfile};
use std::collections::BTreeMap;
use std::time::Instant;

/// One NF changing (or keeping) its home during a migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NfMove {
    /// The NF (deployment name).
    pub nf: String,
    /// Old cluster position.
    pub from: usize,
    /// New cluster position.
    pub to: usize,
}

/// The difference between two cluster placements: which NFs move.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementDelta {
    /// NFs whose switch changes, in canonical order.
    pub moves: Vec<NfMove>,
}

impl PlacementDelta {
    /// Diffs two placements over the given NFs. NFs unplaced on either
    /// side are skipped (the deploy layer rejects them anyway).
    pub fn between(old: &ClusterPlacement, new: &ClusterPlacement, nfs: &[String]) -> Self {
        let moves = nfs
            .iter()
            .filter_map(|nf| {
                let from = old.switch_of(nf)?;
                let to = new.switch_of(nf)?;
                (from != to).then(|| NfMove {
                    nf: nf.clone(),
                    from,
                    to,
                })
            })
            .collect();
        PlacementDelta { moves }
    }

    /// No NF changes switches.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Everything needed to rebuild cluster members for a new placement —
/// the same inputs `spawn_cluster` took, minus the transport (the live
/// cluster keeps its wiring; only switches are swapped).
pub struct FleetSpec<'a> {
    /// The NF modules, by reference (modules are compiled per placement).
    pub nfs: &'a [&'a NfModule],
    /// The chain policies being served.
    pub chains: &'a ChainSet,
    /// The ASIC profile members are built against.
    pub profile: &'a TofinoProfile,
    /// Chain path id → cluster exit port.
    pub exit_ports: BTreeMap<u16, PortId>,
    /// Inter-member cabling model.
    pub wiring: &'a ClusterWiring,
    /// Deploy-time options (entry NF, composition overrides, …).
    pub deploy: &'a DeployOptions,
}

/// What a completed migration did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationOutcome {
    /// Which NFs changed switches.
    pub moves: Vec<NfMove>,
    /// Dynamic entries restored for *moving* NFs — the learned flows that
    /// crossed switches alive.
    pub flows_migrated: u64,
    /// Dynamic entries restored across the whole fleet (moving and
    /// staying NFs both; every member is rebuilt, so all state is
    /// re-seated).
    pub restored_entries: u64,
    /// Packets that arrived during the pause window and were parked, then
    /// released on resume.
    pub parked_packets: u64,
    /// Packets that were mid-flight when the pause began (the quiesce
    /// barrier waited for them).
    pub quiesced_packets: u64,
    /// PAUSE→RESUME wall-clock time — the migration's downtime window.
    pub duration_ns: u64,
}

/// Why a migration failed.
#[derive(Debug)]
pub enum MigrationError {
    /// The new placement failed to compile/deploy (old cluster intact).
    Deploy(DeployError),
    /// A live cluster operation failed mid-migration.
    Cluster(ClusterError),
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::Deploy(e) => write!(f, "building new placement: {e}"),
            MigrationError::Cluster(e) => write!(f, "migrating live cluster: {e}"),
        }
    }
}

impl std::error::Error for MigrationError {}

impl From<DeployError> for MigrationError {
    fn from(e: DeployError) -> Self {
        MigrationError::Deploy(e)
    }
}

impl From<ClusterError> for MigrationError {
    fn from(e: ClusterError) -> Self {
        MigrationError::Cluster(e)
    }
}

/// Splits a pipelet snapshot into one snapshot per NF of `nfs`, keyed by
/// the `<nf>__` merged-name prefix the deploy layer scopes tables and
/// registers with.
fn split_by_nf<'a>(
    snap: &StateSnapshot,
    nfs: impl Iterator<Item = &'a String>,
) -> Vec<(String, StateSnapshot)> {
    let mut out = Vec::new();
    for nf in nfs {
        let prefix = format!("{nf}__");
        let mut piece = StateSnapshot::empty(&snap.program);
        piece.clock = snap.clock;
        piece.tables = snap
            .tables
            .iter()
            .filter(|t| t.name.starts_with(&prefix))
            .cloned()
            .collect();
        piece.registers = snap
            .registers
            .iter()
            .filter(|r| r.name.starts_with(&prefix))
            .cloned()
            .collect();
        if !piece.tables.is_empty() || !piece.registers.is_empty() {
            out.push((nf.clone(), piece));
        }
    }
    out
}

/// Executes a hitless migration of a live cluster onto `new_placement`.
///
/// On success the cluster serves the new placement with every learned
/// flow re-seated; parked traffic has been released and will resolve
/// through the normal delivery path. On [`MigrationError::Deploy`] the
/// cluster is untouched; on [`MigrationError::Cluster`] the cluster may
/// be mid-swap and should be torn down.
pub fn migrate(
    handle: &mut ClusterHandle,
    spec: &FleetSpec<'_>,
    old_placement: &ClusterPlacement,
    new_placement: &ClusterPlacement,
) -> Result<MigrationOutcome, MigrationError> {
    let nf_names: Vec<String> = spec.chains.all_nfs();
    let delta = PlacementDelta::between(old_placement, new_placement, &nf_names);

    // BUILD — before touching traffic, so deploy failures are harmless.
    let members = build_cluster_members(
        spec.nfs,
        spec.chains,
        new_placement,
        spec.profile,
        spec.exit_ports.clone(),
        spec.wiring,
        spec.deploy,
    )?;

    // PAUSE — quiesce barrier; in-flight packets finish, new ones park.
    let started = Instant::now();
    let quiesced_packets = handle.pause_ingress()?;

    // FLUSH — every digest from pre-pause traffic becomes an entry.
    handle.process_digests()?;

    // SNAPSHOT — checkpoint, then split per NF, each from its old home:
    // restoring a dormant copy over it would reset its idle timeouts and
    // zero its registers.
    let snapshots = handle.snapshot_state()?;
    let max_clock = snapshots.iter().map(|(_, _, s)| s.clock).max().unwrap_or(0);
    let mut per_nf: Vec<(String, StateSnapshot)> = Vec::new();
    for (switch, pipelet, snap) in &snapshots {
        let homed_here = |nf: &&String| {
            old_placement.switch_of(nf) == Some(*switch)
                && old_placement.switches[*switch].location(nf) == Some(*pipelet)
        };
        per_nf.extend(split_by_nf(snap, nf_names.iter().filter(homed_here)));
    }

    // SWAP — adopt the new members (empty state, zero clocks).
    for (switch, (member_switch, deployment)) in members.into_iter().enumerate() {
        handle.swap_member(switch, member_switch, deployment)?;
    }

    // RESYNC — advance empty tables to the old clock so restored entries
    // get idle stamps that survive the next advance_time.
    if max_clock > 0 {
        handle.advance_time(max_clock)?;
    }

    // RESTORE — each NF's slice onto its new home.
    let mut outcome = MigrationOutcome {
        moves: delta.moves.clone(),
        quiesced_packets,
        ..MigrationOutcome::default()
    };
    for (nf, snap) in &per_nf {
        let Some(sw) = new_placement.switch_of(nf) else {
            continue;
        };
        let Some(pipelet) = new_placement.switches[sw].location(nf) else {
            continue;
        };
        let restored = handle.restore_state(sw, pipelet, snap)? as u64;
        outcome.restored_entries += restored;
        if delta.moves.iter().any(|m| &m.nf == nf) {
            outcome.flows_migrated += restored;
        }
    }

    // REMAP — route learned entries and installs to the new homes.
    let nf_switch: BTreeMap<String, usize> = nf_names
        .iter()
        .filter_map(|nf| new_placement.switch_of(nf).map(|sw| (nf.clone(), sw)))
        .collect();
    handle.remap_nfs(nf_switch)?;

    // RESUME — release parked traffic; downtime window closes.
    outcome.parked_packets = handle.resume_ingress()?;
    outcome.duration_ns = started.elapsed().as_nanos() as u64;
    Ok(outcome)
}

/// Builds the pipelet→NF view the restore step needs for one member.
/// Exposed for tests that restore snapshots manually.
pub fn nf_location(placement: &ClusterPlacement, nf: &str) -> Option<(usize, PipeletId)> {
    let sw = placement.switch_of(nf)?;
    let pipelet = placement.switches[sw].location(nf)?;
    Some((sw, pipelet))
}
