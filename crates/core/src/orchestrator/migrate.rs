//! Hitless migration driver: execute a placement change against a live
//! cluster without losing a single learned flow.
//!
//! The driver sequences the `ClusterHandle` migration verbs into the
//! state machine documented in DESIGN.md:
//!
//! ```text
//! BUILD → PAUSE → SNAPSHOT → SWAP → RESUME
//! ```
//!
//! * **BUILD** — compile the new placement into fresh `(Switch,
//!   Deployment)` members *before* touching traffic; a placement that
//!   fails to deploy aborts the migration with the old cluster intact.
//!   The members' deploys merge the NF set once and build each distinct
//!   pipelet plan once, sharing the program across every pipelet and
//!   member with that plan; nothing is kept from one BUILD to the next,
//!   so a migration always compiles what it loads.
//! * **PAUSE** — `pause_ingress`: park new injections and quiesce until
//!   every in-flight packet has delivered or nacked. Packets injected
//!   during the window are queued, never rejected. A member learns each
//!   packet's digests right after executing it, before it forwards, so
//!   once the last flight has landed every digest is an installed entry.
//! * **SNAPSHOT** — `snapshot_state`: checkpoint every pipelet's dynamic
//!   state, then split it **per NF** by the `<nf>__` merged-name prefix so
//!   each NF's tables can land wherever the new placement puts them. An
//!   NF's slice is taken from its old home pipelet only: every composed
//!   pipelet carries the whole merged namespace, so the others hold a
//!   dormant, empty copy of its tables and registers. Slices are grouped
//!   by each NF's new member and addressed to its new pipelet.
//! * **SWAP** — `swap_member` on every member, carrying its slices: the
//!   worker restores them onto the newcomer at its predecessor's clock
//!   before it goes live, and its ack points the NF → member routing
//!   (installs, punt remedies, [`ClusterHandle::switch_of`]) at it for
//!   every NF it hosts. A failed restore leaves the outgoing member live.
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

/// Why a migration failed, and in what state it left the cluster.
#[derive(Debug)]
pub enum MigrationError {
    /// The new placement failed to compile or deploy (BUILD). Traffic was
    /// never touched: the old cluster serves as before.
    Deploy(DeployError),
    /// A live cluster verb failed. Before the first SWAP (PAUSE or
    /// SNAPSHOT) ingress has been resumed and the old members serve,
    /// their state untouched. From SWAP on the cluster may be mid-swap
    /// (the member whose swap failed keeps its old switch), with ingress
    /// parked, and should be torn down.
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

/// Moves `nf`'s slice out of a pipelet snapshot: the tables and registers
/// under the `<nf>__` merged-name prefix the deploy layer scopes them
/// with; `None` when there are none.
fn cut(snap: &mut StateSnapshot, nf: &str) -> Option<StateSnapshot> {
    let prefix = format!("{nf}__");
    let mine = |name: &str| name.starts_with(&prefix);
    let mut piece = StateSnapshot::empty(&snap.program);
    piece.clock = snap.clock;
    piece.tables = snap.tables.extract_if(.., |t| mine(&t.name)).collect();
    piece.registers = snap.registers.extract_if(.., |r| mine(&r.name)).collect();
    (!piece.tables.is_empty() || !piece.registers.is_empty()).then_some(piece)
}

/// The NFs of `nfs` whose switch differs between two placements, in
/// `nfs` order. NFs unplaced on either side are skipped (the deploy layer
/// rejects them anyway).
fn moves(old: &ClusterPlacement, new: &ClusterPlacement, nfs: &[String]) -> Vec<NfMove> {
    nfs.iter()
        .filter_map(|nf| {
            let from = old.switch_of(nf)?;
            let to = new.switch_of(nf)?;
            (from != to).then(|| NfMove {
                nf: nf.clone(),
                from,
                to,
            })
        })
        .collect()
}

/// An NF's home in a cluster placement: its member and pipelet.
fn home(placement: &ClusterPlacement, nf: &str) -> Option<(usize, PipeletId)> {
    let switch = placement.switch_of(nf)?;
    Some((switch, placement.switches[switch].location(nf)?))
}

/// Executes a hitless migration of a live cluster onto `new_placement`.
///
/// On success the cluster serves the new placement with every learned
/// flow re-seated; parked traffic has been released and will resolve
/// through the normal delivery path. [`MigrationError`] says which
/// failures leave the old cluster serving and which leave it mid-swap.
pub fn migrate(
    handle: &mut ClusterHandle,
    spec: &FleetSpec<'_>,
    old_placement: &ClusterPlacement,
    new_placement: &ClusterPlacement,
) -> Result<MigrationOutcome, MigrationError> {
    let nf_names: Vec<String> = spec.chains.all_nfs();
    let moves = moves(old_placement, new_placement, &nf_names);

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
    // SNAPSHOT — checkpoint every member. Until the first swap the old
    // members are whole, so a failure here resumes them.
    let started = Instant::now();
    let paused = handle
        .pause_ingress()
        .and_then(|quiesced| Ok((quiesced, handle.snapshot_state()?)));
    let (quiesced_packets, mut snapshots) = match paused {
        Ok(paused) => paused,
        Err(e) => {
            let _ = handle.resume_ingress();
            return Err(e.into());
        }
    };
    // Cut each NF's slice from its old home only: restoring a dormant copy
    // over it would reset its idle timeouts and zero its registers. The
    // slice goes to the NF's new home, grouped by member.
    let mut outcome = MigrationOutcome {
        moves,
        quiesced_packets,
        ..MigrationOutcome::default()
    };
    let mut state: Vec<Vec<(PipeletId, StateSnapshot)>> = vec![Vec::new(); members.len()];
    for nf in &nf_names {
        let (Some(from), Some((to, at))) = (home(old_placement, nf), home(new_placement, nf))
        else {
            continue;
        };
        let old_home = snapshots.iter_mut().filter(|(s, p, _)| (*s, *p) == from);
        for slice in old_home.filter_map(|(.., snap)| cut(snap, nf)) {
            // It lands on a program built from the same NF, so its swap
            // restores every entry it carries.
            if from.0 != to {
                let entries = slice.tables.iter().map(|t| t.entries.len() as u64);
                outcome.flows_migrated += entries.sum::<u64>();
            }
            state[to].push((at, slice));
        }
    }

    // SWAP — each newcomer goes live holding its slices, at its
    // predecessor's clock, routed to.
    for (switch, (member, slices)) in members.into_iter().zip(state).enumerate() {
        let (member_switch, deployment) = member;
        outcome.restored_entries +=
            handle.swap_member(switch, member_switch, deployment, slices)?;
    }

    // RESUME — release parked traffic; downtime window closes.
    outcome.parked_packets = handle.resume_ingress()?;
    outcome.duration_ns = started.elapsed().as_nanos() as u64;
    Ok(outcome)
}
