//! Hitless migration driver: execute a placement change against a live
//! cluster without losing a single learned flow.
//!
//! The driver sequences the `ClusterHandle` migration verbs into the
//! state machine documented in DESIGN.md:
//!
//! ```text
//! BUILD → STAGE → PAUSE → SNAPSHOT → FLIP → RESUME → RETIRE
//!                 └──────── the window ────────┘
//! ```
//!
//! Only the members the migration changes take part. A member is
//! unchanged when its own placement and its being the final member are
//! the same in both placements — the only per-member inputs of its build
//! (`multiswitch::member_changes`) — and an unchanged member is not
//! built, staged, snapshotted, flipped or retired: it keeps its switch,
//! clock, counters and state.
//!
//! * **BUILD** — compile the changed members into fresh `(Switch,
//!   Deployment)` pairs *before* touching traffic; a placement that fails
//!   to deploy aborts the migration with the old cluster intact. The
//!   deploys merge the NF set once and build each distinct pipelet plan
//!   once; nothing is kept from one BUILD to the next, so a migration
//!   always compiles what it loads.
//! * **STAGE** — `stage_member`: each built member goes to its worker's
//!   side channel, where it waits beside the live switch. No frame.
//! * **PAUSE** — `pause_ingress`: park new injections and quiesce until
//!   every in-flight packet has delivered or nacked. Packets injected
//!   during the window are queued, never rejected. A member learns each
//!   packet's digests right after executing it, before it forwards, so
//!   once the last flight has landed every digest is an installed entry.
//! * **SNAPSHOT** — `snapshot_slices`, fanned out to the old homes of the
//!   NFs that change members, and to nobody else: each copies the moving
//!   NFs' slices out of their old home pipelets itself and returns just
//!   those, sealed. No framework table crosses the link. The seals are
//!   grouped by each NF's new member and addressed to its new pipelet
//!   unopened: the driver reads only their entry counts.
//! * **FLIP** — `flip`, one command per changed member, fanned out: the
//!   worker gives its staged member the live switch's telemetry setting
//!   and clock, hands over in process the NFs that stay on it (cut on the
//!   live switch, restored at their new pipelet), opens and restores the
//!   moved slices the command carries, and only then makes it live,
//!   keeping the outgoing switch as retired. Each ack points the NF → member routing
//!   (installs, punt remedies, [`ClusterHandle::switch_of`]) at the member
//!   for every NF it hosts. A failed restore leaves the outgoing member
//!   live.
//! * **RESUME** — `resume_ingress`: release parked traffic in arrival
//!   order. Migration downtime is the PAUSE→RESUME wall-clock span.
//! * **RETIRE** — `retire`, fanned out to the changed members after the
//!   window: each worker drops the switch the flip replaced.

use crate::chain::ChainSet;
use crate::deploy::{DeployError, DeployOptions};
use crate::multiswitch::{build_cluster_members, member_changes, ClusterPlacement, ClusterWiring};
use crate::nfmodule::NfModule;
use crate::transport::{ClusterError, ClusterHandle, SealedSlice};
use dejavu_asic::{PipeletId, PortId, TofinoProfile};
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
/// cluster keeps its wiring; only switches are flipped).
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
    /// Dynamic entries re-seated on the flipped members: the moved slices
    /// and the hand-over of the NFs that stay on a changed member. An
    /// unchanged member keeps its state where it is and adds nothing.
    pub restored_entries: u64,
    /// Packets that arrived during the pause window and were parked, then
    /// released on resume.
    pub parked_packets: u64,
    /// Packets that were mid-flight when the pause began (the quiesce
    /// barrier waited for them).
    pub quiesced_packets: u64,
    /// PAUSE→RESUME wall-clock time — the migration's downtime window.
    pub duration_ns: u64,
    /// Where `duration_ns` went, phase by phase.
    pub phases: MigrationPhases,
}

/// Wall-clock nanoseconds of each phase inside a migration's window,
/// back to back: they add up to [`MigrationOutcome::duration_ns`]. SNAPSHOT
/// includes grouping the slices by new member. Their `Debug` prints no
/// value, so a session's transcript replays line for line once its
/// `duration_ns` is zeroed.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationPhases {
    /// PAUSE: the quiesce barrier.
    pub pause_ns: u64,
    /// SNAPSHOT: the moved NFs' slices, cut on their old members.
    pub snapshot_ns: u64,
    /// FLIP: every changed member made live, holding its state.
    pub flip_ns: u64,
    /// RESUME: parked traffic released.
    pub resume_ns: u64,
}

impl MigrationPhases {
    /// The four phases together.
    pub fn total_ns(&self) -> u64 {
        self.pause_ns + self.snapshot_ns + self.flip_ns + self.resume_ns
    }
}

impl std::fmt::Debug for MigrationPhases {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigrationPhases").finish_non_exhaustive()
    }
}

/// Why a migration failed, and in what state it left the cluster.
#[derive(Debug)]
pub enum MigrationError {
    /// The new placement failed to compile or deploy (BUILD). Traffic was
    /// never touched: the old cluster serves as before.
    Deploy(DeployError),
    /// A live cluster verb failed. Before FLIP (STAGE, PAUSE or SNAPSHOT)
    /// ingress has been resumed, what was staged is dropped and the old
    /// members serve, their state untouched. A failed FLIP leaves the
    /// cluster mid-flip (each member whose flip failed keeps its old
    /// switch), with ingress parked, and it should be torn down.
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
/// failures leave the old cluster serving and which leave it mid-flip.
pub fn migrate(
    handle: &mut ClusterHandle,
    spec: &FleetSpec<'_>,
    old_placement: &ClusterPlacement,
    new_placement: &ClusterPlacement,
) -> Result<MigrationOutcome, MigrationError> {
    let nf_names: Vec<String> = spec.chains.all_nfs();
    let moves = moves(old_placement, new_placement, &nf_names);
    let changes = |s: usize| member_changes(spec.chains, old_placement, new_placement, s);
    let changed: Vec<usize> = (0..new_placement.switches.len())
        .filter(|&s| changes(s))
        .collect();

    // BUILD — before touching traffic, so deploy failures are harmless.
    let members = build_cluster_members(
        spec.nfs,
        spec.chains,
        new_placement,
        spec.profile,
        spec.exit_ports.clone(),
        spec.wiring,
        spec.deploy,
        changes,
    )?;

    // STAGE — each changed member waits on its worker beside the live one.
    let staged = members.into_iter().enumerate().try_for_each(|(s, member)| {
        let Some((switch, deployment)) = member else {
            return Ok(());
        };
        handle.stage_member(s, switch, deployment)
    });
    if let Err(e) = staged {
        let _ = handle.retire(&changed);
        return Err(e.into());
    }

    // SNAPSHOT asks each moving NF's old member for its slice, cut from its
    // old home pipelet, and notes where the slice lands.
    let mut wanted: BTreeMap<usize, Vec<(String, PipeletId)>> = BTreeMap::new();
    let mut lands: BTreeMap<usize, Vec<(usize, PipeletId)>> = BTreeMap::new();
    for m in &moves {
        let (Some((_, from)), Some(to)) = (home(old_placement, &m.nf), home(new_placement, &m.nf))
        else {
            continue;
        };
        wanted.entry(m.from).or_default().push((m.nf.clone(), from));
        lands.entry(m.from).or_default().push(to);
    }

    // PAUSE — quiesce barrier; in-flight packets finish, new ones park.
    // SNAPSHOT — the moved slices only. Until FLIP the old members are
    // whole, so a failure here resumes them and drops what was staged.
    let started = Instant::now();
    let quiesced = handle.pause_ingress();
    let paused = Instant::now();
    let snapped = quiesced.and_then(|q| Ok((q, handle.snapshot_slices(wanted)?)));
    let (quiesced_packets, slices) = match snapped {
        Ok(snapped) => snapped,
        Err(e) => {
            let _ = handle.resume_ingress();
            let _ = handle.retire(&changed);
            return Err(e.into());
        }
    };
    let mut outcome = MigrationOutcome {
        moves,
        quiesced_packets,
        ..MigrationOutcome::default()
    };
    let mut state: BTreeMap<usize, Vec<(PipeletId, SealedSlice)>> = BTreeMap::new();
    for (from, got) in slices {
        for (&(to, at), slice) in lands[&from].iter().zip(got) {
            if slice.is_empty() {
                continue;
            }
            // It lands on a program built from the same NF, so its flip
            // restores every entry its seal counts.
            outcome.flows_migrated += slice.entries;
            state.entry(to).or_default().push((at, slice));
        }
    }
    let sliced = Instant::now();

    // FLIP — every changed member goes live at once, holding its state, at
    // its predecessor's clock, routed to.
    outcome.restored_entries = handle.flip(state)?;
    let flipped = Instant::now();

    // RESUME — release parked traffic; downtime window closes.
    outcome.parked_packets = handle.resume_ingress()?;
    let resumed = Instant::now();
    let ns = |from: Instant, to: Instant| (to - from).as_nanos() as u64;
    outcome.duration_ns = ns(started, resumed);
    outcome.phases = MigrationPhases {
        pause_ns: ns(started, paused),
        snapshot_ns: ns(paused, sliced),
        flip_ns: ns(sliced, flipped),
        resume_ns: ns(flipped, resumed),
    };

    // RETIRE — outside the window. The migration is done either way: a
    // retire that fails leaves an outgoing switch in memory until the
    // member's next flip or retire.
    let _ = handle.retire(&changed);
    Ok(outcome)
}
