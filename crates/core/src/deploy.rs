//! End-to-end deployment: NFs + chains + placement → a configured switch.
//!
//! [`deploy`] runs the full Dejavu tool flow the paper describes:
//!
//! 1. merge the NF programs into one namespace with a generic parser
//!    ([`crate::merge`]),
//! 2. build a pipelet plan from the placement and compose each pipelet's
//!    program ([`crate::compose`]),
//! 3. compile every pipelet against the ASIC profile — placements that
//!    exceed stage or resource budgets are rejected here
//!    (`dejavu_compiler`),
//! 4. load programs onto a simulated switch, configure loopback ports,
//! 5. synthesize and install all framework routing entries
//!    ([`crate::routing`]).
//!
//! The result is a live [`Switch`] plus a [`Deployment`] handle that the
//! control plane uses to translate per-NF API calls onto merged tables.

use crate::chain::ChainSet;
use crate::compose::{compose_pipelet, CompositionMode, PipeletPlan, PlannedNf};
use crate::merge::{merge_programs, MergeError, MergedProgram};
use crate::nfmodule::NfModule;
use crate::placement::Placement;
use crate::routing::{validate_config, RoutingConfig, RoutingError, RoutingSynthesis};
use dejavu_asic::{Gress, PipeletId, Switch, TofinoProfile};
use dejavu_compiler::{Allocation, CompileError, StageAllocator};
use std::collections::BTreeMap;
use std::fmt;

/// Deployment failure.
#[derive(Debug)]
pub enum DeployError {
    /// Program merging failed.
    Merge(MergeError),
    /// A pipelet program failed to compose or validate.
    Compose(dejavu_p4ir::IrError),
    /// A pipelet program does not fit its stages/resources.
    Compile {
        /// The pipelet.
        pipelet: PipeletId,
        /// The compiler error.
        error: CompileError,
    },
    /// Routing synthesis failed.
    Routing(RoutingError),
    /// Switch configuration failed.
    Switch(dejavu_p4ir::IrError),
    /// The placement misses an NF that some chain needs.
    UnplacedNf(String),
    /// A multi-switch cluster configuration constraint was violated (typed:
    /// see [`ClusterConfigError`](crate::multiswitch::ClusterConfigError)).
    ClusterConfig(crate::multiswitch::ClusterConfigError),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Merge(e) => write!(f, "merge: {e}"),
            DeployError::Compose(e) => write!(f, "compose: {e}"),
            DeployError::Compile { pipelet, error } => write!(f, "compile {pipelet}: {error}"),
            DeployError::Routing(e) => write!(f, "routing: {e}"),
            DeployError::Switch(e) => write!(f, "switch: {e}"),
            DeployError::UnplacedNf(nf) => write!(f, "NF {nf} not placed"),
            DeployError::ClusterConfig(e) => write!(f, "cluster: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

/// A deployed service chain set.
#[derive(Debug)]
pub struct Deployment {
    /// The merged program namespace.
    pub merged: MergedProgram,
    /// The placement used.
    pub placement: Placement,
    /// The chain policies.
    pub chains: ChainSet,
    /// Physical routing configuration.
    pub config: RoutingConfig,
    /// Per-pipelet compilation results (resource usage, stage maps).
    pub allocations: BTreeMap<PipeletId, Allocation>,
    /// The synthesized routing entries.
    pub synthesis: RoutingSynthesis,
    /// Name of the chain-entry NF (classifier), if any.
    pub entry_nf: Option<String>,
    /// The deployment options used (needed to recompose pipelets on
    /// upgrade).
    options: DeployOptions,
    /// The switch profile deployed against.
    profile: TofinoProfile,
}

impl Deployment {
    /// Pipelet hosting an NF.
    pub fn nf_location(&self, nf: &str) -> Option<PipeletId> {
        self.placement.location(nf)
    }

    /// Merged table name of an NF's table on its pipelet.
    pub fn nf_table(&self, nf: &str, table: &str) -> (Option<PipeletId>, String) {
        (self.nf_location(nf), crate::merge::scoped(nf, table))
    }

    /// Installs a table entry through the NF's original API view: both the
    /// table name and the entry's action name are translated into the
    /// merged `<nf>__<name>` namespace, and the entry lands on the pipelet
    /// hosting the NF. This is the per-entry face of the §7 control-plane
    /// translation layer.
    pub fn install(
        &self,
        switch: &mut Switch,
        nf: &str,
        table: &str,
        entry: dejavu_p4ir::table::TableEntry,
    ) -> Result<(), dejavu_p4ir::IrError> {
        let (pipelet, merged, entry) = self.scope(nf, table, entry)?;
        switch.install_entry(pipelet, &merged, entry)
    }

    /// [`Deployment::install`] unless the exact entry is already there —
    /// the idempotence behind the learning loop, so a digest retransmitted
    /// before the first install landed (or after an aged-out entry was
    /// re-learned) never duplicates an entry. `Ok(true)` when it installed.
    pub fn install_if_absent(
        &self,
        switch: &mut Switch,
        nf: &str,
        table: &str,
        entry: dejavu_p4ir::table::TableEntry,
    ) -> Result<bool, dejavu_p4ir::IrError> {
        let (pipelet, merged, entry) = self.scope(nf, table, entry)?;
        let present = switch
            .tables(pipelet)
            .is_some_and(|state| state.contains_entry(&merged, &entry));
        if !present {
            switch.install_entry(pipelet, &merged, entry)?;
        }
        Ok(!present)
    }

    /// The hosting pipelet, the merged table name and the entry with its
    /// action renamed into the merged namespace.
    fn scope(
        &self,
        nf: &str,
        table: &str,
        mut entry: dejavu_p4ir::table::TableEntry,
    ) -> Result<(PipeletId, String, dejavu_p4ir::table::TableEntry), dejavu_p4ir::IrError> {
        let pipelet = self
            .nf_location(nf)
            .ok_or(dejavu_p4ir::IrError::Undefined {
                kind: "NF placement",
                name: nf.to_string(),
            })?;
        entry.action = crate::merge::scoped(nf, &entry.action);
        Ok((pipelet, crate::merge::scoped(nf, table), entry))
    }

    /// Configures the idle timeout of an NF's table through the NF's
    /// original API view (see [`Switch::set_idle_timeout`]).
    pub fn set_idle_timeout(
        &self,
        switch: &mut Switch,
        nf: &str,
        table: &str,
        timeout: Option<u64>,
    ) -> Result<(), dejavu_p4ir::IrError> {
        let pipelet = self
            .nf_location(nf)
            .ok_or(dejavu_p4ir::IrError::Undefined {
                kind: "NF placement",
                name: nf.to_string(),
            })?;
        switch.set_idle_timeout(pipelet, &crate::merge::scoped(nf, table), timeout)
    }
}

/// Why an in-place NF upgrade was refused.
#[derive(Debug)]
pub enum UpgradeError {
    /// The NF is not part of this deployment.
    UnknownNf(String),
    /// The new version changes the generic parser (new headers / vertices);
    /// other pipelets would diverge — a full redeploy is required. This
    /// mirrors the operational reality §7 notes: "data plane programs have
    /// a much higher loading cost and should be operated at a relatively
    /// larger timescale".
    ParserChanged,
    /// Recomposition / recompilation / reload of the pipelet failed.
    Deploy(DeployError),
}

impl fmt::Display for UpgradeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpgradeError::UnknownNf(nf) => write!(f, "NF {nf} is not deployed"),
            UpgradeError::ParserChanged => {
                write!(
                    f,
                    "upgrade changes the generic parser; full redeploy required"
                )
            }
            UpgradeError::Deploy(e) => write!(f, "upgrade failed: {e}"),
        }
    }
}

impl std::error::Error for UpgradeError {}

/// Result of a successful in-place NF upgrade.
#[derive(Debug)]
pub struct UpgradeOutcome {
    /// NFs co-located on the reloaded pipelet. Their dynamic state was
    /// migrated; rules the migration *dropped* (see `migration`) must be
    /// reinstalled by their control planes.
    pub affected_nfs: Vec<String>,
    /// Accounting of the state migration across the program swap.
    pub migration: dejavu_asic::MigrationReport,
}

/// Options for [`deploy`].
#[derive(Debug, Clone, Default)]
pub struct DeployOptions {
    /// NF dispatched when a packet has no SFC header yet (the classifier).
    pub entry_nf: Option<String>,
    /// Composition mode overrides per pipelet (default sequential).
    pub modes: BTreeMap<PipeletId, CompositionMode>,
    /// Multi-switch segment options: NFs reachable over inter-switch links
    /// and whether exit ports decapsulate. `None` = single-switch deployment.
    pub segment: Option<crate::routing::SegmentOptions>,
}

impl DeployOptions {
    /// The segment routing is synthesized for: single switch when unset.
    fn routed_segment(&self) -> crate::routing::SegmentOptions {
        self.segment
            .clone()
            .unwrap_or_else(crate::routing::SegmentOptions::single_switch)
    }
}

impl Deployment {
    /// §7 "service upgrade and expansion": hot-swaps one NF's implementation
    /// in place. Only the pipelet hosting the NF is recomposed, recompiled
    /// and reloaded — every other pipelet is untouched. The reloaded
    /// pipelet's state is *migrated* across the swap: its dynamic table
    /// entries, aging configuration and register cells are snapshotted
    /// before the reload and remapped onto the new program by merged name,
    /// so live flows (learned NAT bindings, LB affinity, conntrack state)
    /// survive the upgrade. Entries the new program can no longer hold —
    /// table removed, action gone, key shape changed — are reported in the
    /// returned [`UpgradeOutcome::migration`], never silently dropped. The
    /// pipelet's framework entries are reinstalled automatically.
    ///
    /// Upgrades that would change the *generic parser* are refused with
    /// [`UpgradeError::ParserChanged`] — the other pipelets still run the
    /// old parser, so such changes need a full [`deploy`].
    pub fn upgrade_nf(
        &mut self,
        switch: &mut Switch,
        new_nf: &NfModule,
        all_nfs: &[&NfModule],
    ) -> Result<UpgradeOutcome, UpgradeError> {
        let name = new_nf.name().to_string();
        let pipelet = self
            .nf_location(&name)
            .ok_or_else(|| UpgradeError::UnknownNf(name.clone()))?;

        // Re-merge with the upgraded NF substituted in.
        let replaced: Vec<&NfModule> = all_nfs
            .iter()
            .map(|nf| if nf.name() == name { new_nf } else { *nf })
            .collect();
        let merged = merge_programs("dejavu", &replaced)
            .map_err(|e| UpgradeError::Deploy(DeployError::Merge(e)))?;
        if merged.program.parser != self.merged.program.parser {
            return Err(UpgradeError::ParserChanged);
        }

        // Recompose and recompile just this pipelet.
        let (plan, program, allocation) = build_pipelet(
            &merged,
            &self.placement,
            &self.options,
            pipelet,
            &self.profile,
        )
        .map_err(UpgradeError::Deploy)?;

        // Snapshot the pipelet's mutable state before the reload wipes it.
        let snapshot = switch.snapshot_state(pipelet);

        switch
            .load_program(pipelet, program)
            .map_err(|e| UpgradeError::Deploy(DeployError::Switch(e)))?;
        self.allocations.insert(pipelet, allocation);
        self.merged = merged;

        // Reinstall the framework entries of the reloaded pipelet.
        for (p, table, entry) in &self.synthesis.entries {
            if *p == pipelet {
                switch
                    .install_entry(*p, table, entry.clone())
                    .map_err(|e| UpgradeError::Deploy(DeployError::Switch(e)))?;
            }
        }

        // Migrate surviving state onto the new program. The restore skips
        // entries already present (the framework entries just reinstalled),
        // so nothing is duplicated.
        let migration = match &snapshot {
            Some(snap) => switch
                .restore_state(pipelet, snap)
                .map_err(|e| UpgradeError::Deploy(DeployError::Switch(e)))?,
            None => dejavu_asic::MigrationReport::default(),
        };
        Ok(UpgradeOutcome {
            affected_nfs: plan.nfs.into_iter().map(|nf| nf.name).collect(),
            migration,
        })
    }
}

impl Deployment {
    /// §7 "failure handling": reacts to a port link failure.
    ///
    /// * If the failed port was a configured **loopback** port, recirculation
    ///   for its pipeline falls back to the dedicated recirculation port.
    /// * If it was a chain's **exit** port, the chain is moved to
    ///   `replacement_exit` (required in that case — the control plane must
    ///   know an alternate uplink).
    ///
    /// The framework routing entries are re-synthesized and swapped in
    /// atomically (clear + reinstall); NF tables and register state are
    /// untouched.
    pub fn handle_port_failure(
        &mut self,
        switch: &mut Switch,
        port: dejavu_asic::PortId,
        replacement_exit: Option<dejavu_asic::PortId>,
    ) -> Result<(), DeployError> {
        let mut config = self.config.clone();
        // Loopback fallback: dropping the entry makes loopback_of() use the
        // dedicated recirculation port.
        config.loopback_port.retain(|_, p| *p != port);
        // Exit-port replacement.
        let affected: Vec<u16> = config
            .exit_ports
            .iter()
            .filter(|(_, p)| **p == port)
            .map(|(path, _)| *path)
            .collect();
        if !affected.is_empty() {
            let replacement = replacement_exit.ok_or(DeployError::Routing(
                crate::routing::RoutingError::MissingExitPort {
                    path_id: affected[0],
                },
            ))?;
            for path in affected {
                config.exit_ports.insert(path, replacement);
            }
        }
        validate_config(&self.chains, &self.profile, &config).map_err(DeployError::Routing)?;

        // The same segment `deploy` routed for: on a cluster member, remote
        // NFs stay reachable over their links and a middle switch still
        // forwards SFC-encapsulated.
        let synthesis = RoutingSynthesis::synthesize_segment(
            &self.placement,
            &self.chains,
            &self.profile,
            &config,
            &self.options.routed_segment(),
        )
        .map_err(DeployError::Routing)?;
        // The replacement routing exists: only now touch the switch. Mark
        // the port down, then swap — clear every framework table the old
        // synthesis touched and install the new entries.
        switch.set_port_down(port, true);
        let mut cleared = std::collections::BTreeSet::new();
        for (pipelet, table, _) in &self.synthesis.entries {
            if cleared.insert((*pipelet, table.clone())) {
                switch.clear_table(*pipelet, table);
            }
        }
        synthesis.apply(switch).map_err(DeployError::Switch)?;
        self.synthesis = synthesis;
        self.config = config;
        Ok(())
    }
}

/// Plans, composes and compiles one pipelet of a placement: the NFs placed
/// there (the entry NF gated on "no SFC header yet"), in the mode resolved as
/// explicit option override, then the placement's own mode, then sequential;
/// vetted under [`crate::lint::pipelet_lint_config`].
fn build_pipelet(
    merged: &MergedProgram,
    placement: &Placement,
    options: &DeployOptions,
    pipelet: PipeletId,
    profile: &TofinoProfile,
) -> Result<(PipeletPlan, dejavu_p4ir::Program, Allocation), DeployError> {
    let nfs = placement.pipelets.get(&pipelet).into_iter().flatten();
    let plan = PipeletPlan {
        pipelet,
        nfs: nfs
            .map(|n| {
                if options.entry_nf.as_deref() == Some(n.as_str()) {
                    PlannedNf::entry(n.clone())
                } else {
                    PlannedNf::indexed(n.clone())
                }
            })
            .collect(),
        mode: options
            .modes
            .get(&pipelet)
            .copied()
            .unwrap_or_else(|| placement.mode(pipelet)),
    };
    let program = compose_pipelet(merged, &plan).map_err(DeployError::Compose)?;
    let allocation = StageAllocator::new(profile.clone())
        .with_lint_config(crate::lint::pipelet_lint_config(&program, &plan))
        .compile(&program)
        .map_err(|error| DeployError::Compile { pipelet, error })?;
    Ok((plan, program, allocation))
}

/// Runs the full flow; returns the configured switch and the deployment
/// handle.
pub fn deploy(
    nfs: &[&NfModule],
    chains: &ChainSet,
    placement: &Placement,
    profile: &TofinoProfile,
    config: &RoutingConfig,
    options: &DeployOptions,
) -> Result<(Switch, Deployment), DeployError> {
    // Every chained NF must be placed — locally, or (in a cluster segment)
    // reachable over an inter-switch link.
    for nf in chains.all_nfs() {
        let remote = options
            .segment
            .as_ref()
            .is_some_and(|seg| seg.remote_ports.contains_key(&nf));
        if placement.location(&nf).is_none() && !remote {
            return Err(DeployError::UnplacedNf(nf));
        }
    }
    validate_config(chains, profile, config).map_err(DeployError::Routing)?;

    let merged = merge_programs("dejavu", nfs).map_err(DeployError::Merge)?;

    let mut switch = Switch::new(profile.clone());
    let mut allocations = BTreeMap::new();

    // Every pipelet gets a program: pipelets without NFs still need the
    // generic parser plus branching (ingress) / decap (egress) so that
    // pass-through and loopback traffic is routed correctly.
    for pipeline in 0..profile.pipelines {
        for gress in [Gress::Ingress, Gress::Egress] {
            let pipelet = PipeletId { pipeline, gress };
            let (_, program, allocation) =
                build_pipelet(&merged, placement, options, pipelet, profile)?;
            switch
                .load_program(pipelet, program)
                .map_err(DeployError::Switch)?;
            allocations.insert(pipelet, allocation);
        }
    }

    // Loopback ports.
    for (&_pipeline, &port) in &config.loopback_port {
        switch
            .set_loopback(port, true)
            .map_err(DeployError::Switch)?;
    }

    // Routing entries.
    let segment = options.routed_segment();
    let synthesis =
        RoutingSynthesis::synthesize_segment(placement, chains, profile, config, &segment)
            .map_err(DeployError::Routing)?;
    synthesis.apply(&mut switch).map_err(DeployError::Switch)?;

    Ok((
        switch,
        Deployment {
            merged,
            placement: placement.clone(),
            chains: chains.clone(),
            config: config.clone(),
            allocations,
            synthesis,
            entry_nf: options.entry_nf.clone(),
            options: options.clone(),
            profile: profile.clone(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainPolicy;
    use crate::sfc::sfc_header_type;
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::fref;
    use dejavu_p4ir::well_known;

    /// Marker NF: on any IPv4 packet, XORs a bit pattern into src_addr so
    /// traversal order is observable.
    fn marker_nf(name: &str, bit: u32) -> NfModule {
        let p = ProgramBuilder::new(name)
            .header(well_known::ethernet())
            .header(well_known::ipv4())
            .header(sfc_header_type())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .node("ip", "ipv4", 14)
                    .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                    .accept("ip")
                    .start("eth"),
            )
            .action(
                ActionBuilder::new("mark")
                    .set(
                        fref("ipv4", "src_addr"),
                        dejavu_p4ir::Expr::Xor(
                            Box::new(dejavu_p4ir::Expr::field("ipv4", "src_addr")),
                            Box::new(dejavu_p4ir::Expr::val(1u128 << bit, 32)),
                        ),
                    )
                    .build(),
            )
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("work")
                    .key_exact(fref("ipv4", "protocol"))
                    .default_action("mark")
                    .action("pass")
                    .size(16)
                    .build(),
            )
            .control(ControlBuilder::new("ctrl").apply("work").build())
            .entry("ctrl")
            .build()
            .unwrap();
        NfModule::new(p).unwrap()
    }

    #[test]
    fn deploy_small_chain_succeeds() {
        let a = marker_nf("alpha", 0);
        let b = marker_nf("beta", 1);
        let chains =
            ChainSet::new(vec![ChainPolicy::new(1, "ab", vec!["alpha", "beta"], 1.0)]).unwrap();
        let placement = Placement::sequential(vec![
            (PipeletId::ingress(0), vec!["alpha"]),
            (PipeletId::egress(0), vec!["beta"]),
        ]);
        let config = RoutingConfig {
            loopback_port: [(0, 15), (1, 31)].into_iter().collect(),
            exit_ports: [(1u16, 2u16)].into_iter().collect(),
            ..Default::default()
        };
        let (switch, deployment) = deploy(
            &[&a, &b],
            &chains,
            &placement,
            &TofinoProfile::wedge_100b_32x(),
            &config,
            &DeployOptions::default(),
        )
        .unwrap();
        // Every pipelet carries a program.
        for p in 0..2 {
            assert!(switch.program(PipeletId::ingress(p)).is_some());
            assert!(switch.program(PipeletId::egress(p)).is_some());
        }
        assert_eq!(deployment.nf_location("alpha"), Some(PipeletId::ingress(0)));
        let (loc, table) = deployment.nf_table("alpha", "work");
        assert_eq!(loc, Some(PipeletId::ingress(0)));
        assert_eq!(table, "alpha__work");
        // Allocations recorded for all four pipelets.
        assert_eq!(deployment.allocations.len(), 4);
    }

    #[test]
    fn unplaced_nf_rejected() {
        let a = marker_nf("alpha", 0);
        let chains =
            ChainSet::new(vec![ChainPolicy::new(1, "ab", vec!["alpha", "ghost"], 1.0)]).unwrap();
        let placement = Placement::sequential(vec![(PipeletId::ingress(0), vec!["alpha"])]);
        let config = RoutingConfig {
            loopback_port: BTreeMap::new(),
            exit_ports: [(1u16, 2u16)].into_iter().collect(),
            ..Default::default()
        };
        let err = deploy(
            &[&a],
            &chains,
            &placement,
            &TofinoProfile::wedge_100b_32x(),
            &config,
            &DeployOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DeployError::UnplacedNf(_)));
    }

    #[test]
    fn oversized_placement_rejected_at_compile() {
        // A pipelet plan that cannot fit: an NF with a huge table chain on
        // the tiny profile.
        let a = marker_nf("alpha", 0);
        let b = marker_nf("beta", 1);
        let c = marker_nf("gamma", 2);
        let d = marker_nf("delta", 3);
        let chains = ChainSet::new(vec![ChainPolicy::new(
            1,
            "abcd",
            vec!["alpha", "beta", "gamma", "delta"],
            1.0,
        )])
        .unwrap();
        // All four sequential on one tiny pipelet (4 stages): the framework
        // dispatch chain alone needs 5 dependent stages.
        let placement = Placement::sequential(vec![(
            PipeletId::ingress(0),
            vec!["alpha", "beta", "gamma", "delta"],
        )]);
        let config = RoutingConfig {
            loopback_port: BTreeMap::new(),
            exit_ports: [(1u16, 2u16)].into_iter().collect(),
            ..Default::default()
        };
        let err = deploy(
            &[&a, &b, &c, &d],
            &chains,
            &placement,
            &TofinoProfile::tiny(),
            &config,
            &DeployOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DeployError::Compile { .. }), "got: {err}");
    }
}
