//! The framework-aware `dejavu-lint` passes (`DJV101`–`DJV102`).
//!
//! The diagnostics framework and the per-program passes live in
//! [`dejavu_p4ir::lint`] and [`dejavu_p4ir::analyze`]; the passes here know
//! the SFC framework and emit into the same registry and report
//! ([`crate::analyze`] holds the stateful-safety ones):
//!
//! * [`lint_pipelet`] runs the p4ir linter over a composed pipelet program
//!   with a [`pipelet_lint_config`] that encodes the framework's documented
//!   invariants (the consume-once flag tables, entry-gated dispatch slots),
//!   then verifies the **SFC-header invariants** (DJV101): the merged
//!   program must know the SFC header type, the generic parser must have an
//!   SFC vertex, every ingress pipelet must end in the branching table and
//!   every egress pipelet must carry the decap table.
//! * [`lint_chain_budget`] checks the **recirculation budget** (DJV102):
//!   the weighted recirculation demand of a chain set under a placement,
//!   priced against the Tofino loopback capacity actually provisioned
//!   (§4 of the paper: recirculations consume real port bandwidth).

use crate::chain::ChainSet;
use crate::compose::{names, NfGate, PipeletPlan};
use crate::placement::{traverse, Placement};
use crate::sfc::SFC_HEADER;
use dejavu_asic::{Gress, TofinoProfile};
use dejavu_p4ir::lint::{check_with_config, Diagnostic, LintCode, LintConfig, LintReport};
use dejavu_p4ir::Program;

/// The lint configuration composed pipelets are judged under.
///
/// Three families of findings are *expected by construction* and therefore
/// allow-listed rather than fixed:
///
/// * `DJV004` on `dv_check_sfc_flags_*` — consecutive flag-translation
///   tables read all four SFC flags and clear the one that fired
///   (consume-once semantics), which the pairwise dependency test sees as a
///   cycle through distinct flag fields. The framework orders these tables
///   explicitly, so the apparent cycle is a documented invariant.
/// * `DJV005` on the dispatch table of an entry-gated slot — for a
///   [`NfGate::NoSfcHeader`] slot the validity gate (`!sfc.isValid()`)
///   replaces the `check_next_nf` application, but the table is still
///   installed so routing synthesis has a uniform target per slot.
/// * `DJV005`/`DJV006` on *foreign* NFs' entities — every pipelet carries
///   the full merged namespace (table definitions, controls) but applies
///   only its own plan's NFs; the other NFs' namespaced tables and
///   controls are intentionally dormant here.
pub fn pipelet_lint_config(program: &Program, plan: &PipeletPlan) -> LintConfig {
    let mut cfg = LintConfig::new().allow(LintCode::DependencyCycle, "dv_check_sfc_flags_*");
    for (k, nf) in plan.nfs.iter().enumerate() {
        if nf.gate == NfGate::NoSfcHeader {
            cfg = cfg.allow(LintCode::UnreachableTable, names::check_next_nf(k));
        }
    }
    // Dormant foreign-NF entities: anything namespaced `<nf>__...` where
    // `<nf>` is not planned on this pipelet.
    let planned: std::collections::BTreeSet<&str> =
        plan.nfs.iter().map(|nf| nf.name.as_str()).collect();
    let foreign = |entity: &str| {
        entity
            .split_once("__")
            .is_some_and(|(owner, _)| !planned.contains(owner))
    };
    for table in program.tables.keys().filter(|t| foreign(t)) {
        cfg = cfg.allow(LintCode::UnreachableTable, table.clone());
    }
    for control in program.controls.keys().filter(|c| foreign(c)) {
        cfg = cfg.allow(LintCode::UnreachableControl, control.clone());
    }
    cfg
}

/// Lints one composed pipelet program: the full p4ir analysis suite under
/// [`pipelet_lint_config`], plus the DJV101 SFC-header invariants.
pub fn lint_pipelet(program: &Program, plan: &PipeletPlan) -> LintReport {
    let cfg = pipelet_lint_config(program, plan);
    let mut report = check_with_config(program, &cfg);

    let mut sfc_invariant = |entity: &str, message: String, note: &str| {
        let diag = Diagnostic::new(LintCode::SfcInvariant, entity, message).with_note(note);
        report.emit(&cfg, diag);
    };

    if !program.header_types.contains_key(SFC_HEADER) {
        sfc_invariant(
            &program.name,
            format!("composed pipelet lacks the `{SFC_HEADER}` header type"),
            "every Dejavu pipelet must understand the SFC encapsulation",
        );
    }
    if !program
        .parser
        .nodes
        .iter()
        .any(|n| n.header_type == SFC_HEADER)
    {
        sfc_invariant(
            &program.name,
            format!("generic parser has no `{SFC_HEADER}` vertex"),
            "SFC-encapsulated packets would fall off the parse graph",
        );
    }

    let order = program.tables_in_order();
    match plan.pipelet.gress {
        Gress::Ingress => {
            if !program.tables.contains_key(names::BRANCHING) {
                sfc_invariant(
                    names::BRANCHING,
                    "ingress pipelet has no branching table".into(),
                    "packets could not be routed to their next hop (§3.4)",
                );
            } else if order.last().map(String::as_str) != Some(names::BRANCHING) {
                sfc_invariant(
                    names::BRANCHING,
                    "branching table is not the last table applied on the ingress pipelet".into(),
                    "an NF applied after branching could override the routing decision",
                );
            }
        }
        Gress::Egress => {
            if !program.tables.contains_key(names::DECAP) {
                sfc_invariant(
                    names::DECAP,
                    "egress pipelet has no decap table".into(),
                    "packets leaving an external port would keep the SFC header",
                );
            }
        }
    }

    report.sort();
    report
}

/// Provisioned recirculation capacity and offered load for the DJV102 check.
#[derive(Debug, Clone, Copy)]
pub struct BudgetSpec<'a> {
    /// The target ASIC's resource profile.
    pub profile: &'a TofinoProfile,
    /// Front-panel ports sacrificed as loopback ports (the paper's `m`).
    pub loopback_ports: usize,
    /// External offered load in Gbps across all chains.
    pub offered_gbps: f64,
    /// Pipeline where external packets enter.
    pub entry_pipeline: usize,
    /// Pipeline owning the output ports.
    pub exit_pipeline: usize,
}

impl BudgetSpec<'_> {
    /// Total recirculation bandwidth in Gbps: the provisioned loopback
    /// ports plus each pipeline's dedicated recirculation port.
    pub fn recirc_capacity_gbps(&self) -> f64 {
        self.loopback_ports as f64 * self.profile.port_gbps
            + self.profile.pipelines as f64 * self.profile.dedicated_recirc_gbps
    }
}

/// Checks the chain set's weighted recirculation demand against the
/// provisioned loopback budget (DJV102), and surfaces per-chain traversal
/// failures as DJV101 findings.
///
/// Demand is `offered_gbps × E[recirculations]`, the expectation taken over
/// the chain weights — every recirculation sends the packet through a
/// loopback port once, so a chain recirculating twice consumes twice its
/// arrival bandwidth in loopback capacity.
pub fn lint_chain_budget(
    chains: &ChainSet,
    placement: &Placement,
    spec: &BudgetSpec<'_>,
) -> LintReport {
    let cfg = LintConfig::default();
    let mut report = LintReport::default();
    let total_weight = chains.total_weight();
    let mut weighted_recircs = 0.0;
    let mut per_chain = Vec::new();

    for chain in &chains.chains {
        match traverse(
            chain,
            placement,
            spec.entry_pipeline,
            spec.exit_pipeline,
            false,
        ) {
            Ok(cost) => {
                let share = if total_weight > 0.0 {
                    chain.weight / total_weight
                } else {
                    0.0
                };
                weighted_recircs += share * f64::from(cost.recirculations);
                per_chain.push(format!(
                    "chain `{}` (weight {:.2}): {} recirculation(s), {} resubmission(s)",
                    chain.name, chain.weight, cost.recirculations, cost.resubmissions
                ));
            }
            Err(e) => {
                let message = format!("chain cannot be traversed under this placement: {e}");
                let diag = Diagnostic::new(LintCode::SfcInvariant, &chain.name, message);
                report.emit(&cfg, diag);
            }
        }
    }

    let demand = spec.offered_gbps * weighted_recircs;
    let capacity = spec.recirc_capacity_gbps();
    if demand > capacity {
        let mut d = Diagnostic::new(
            LintCode::RecircBudget,
            "placement",
            format!(
                "recirculation demand {demand:.1} Gbps exceeds loopback capacity \
                 {capacity:.1} Gbps ({} loopback port(s) + dedicated recirc)",
                spec.loopback_ports
            ),
        )
        .with_note(format!(
            "weighted recirculations per packet: {weighted_recircs:.3} at \
             {:.1} Gbps offered",
            spec.offered_gbps
        ))
        .with_note(format!(
            "with {} loopback port(s) the profile sustains a single recirculation for \
             {:.0}% of external traffic",
            spec.loopback_ports,
            spec.profile.single_recirc_fraction(spec.loopback_ports) * 100.0
        ));
        for line in &per_chain {
            d = d.with_note(line.clone());
        }
        report.emit(&cfg, d);
    }

    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainPolicy;
    use crate::compose::{compose_pipelet, CompositionMode, PlannedNf};
    use crate::merge::merge_programs;
    use crate::nfmodule::NfModule;
    use crate::sfc::sfc_header_type;
    use dejavu_asic::PipeletId;
    use dejavu_p4ir::well_known;
    use dejavu_p4ir::{
        fref, ActionBuilder, ControlBuilder, Expr, ParserBuilder, ProgramBuilder, TableBuilder,
    };

    fn mini_nf(name: &str) -> NfModule {
        let program = ProgramBuilder::new(name)
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
                    .set(fref("ipv4", "dscp"), Expr::val(7, 6))
                    .build(),
            )
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("work")
                    .key_exact(fref("ipv4", "dst_addr"))
                    .action("mark")
                    .default_action("pass")
                    .build(),
            )
            .control(ControlBuilder::new("ctrl").apply("work").build())
            .entry("ctrl")
            .build()
            .expect("mini NF builds");
        NfModule::new(program).expect("mini NF is API-compliant")
    }

    /// A minimal chain-entry NF: encapsulates every packet with the SFC
    /// header, as the framework's entry-gate contract requires.
    fn mini_classifier(name: &str) -> NfModule {
        let program = ProgramBuilder::new(name)
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
                ActionBuilder::new("encap")
                    .add_header("sfc", Some("ipv4"))
                    .set(fref("sfc", "path_id"), Expr::val(1, 16))
                    .set(fref("sfc", "service_index"), Expr::val(0, 8))
                    .set(
                        fref("ethernet", "ether_type"),
                        Expr::val(u128::from(crate::sfc::SFC_ETHERTYPE), 16),
                    )
                    .build(),
            )
            .table(
                TableBuilder::new("classify")
                    .key_exact(fref("ipv4", "dst_addr"))
                    .action("encap")
                    .default_action("encap")
                    .build(),
            )
            .control(ControlBuilder::new("ctrl").apply("classify").build())
            .entry("ctrl")
            .build()
            .expect("mini classifier builds");
        NfModule::new(program).expect("mini classifier is API-compliant")
    }

    fn sequential_plan() -> PipeletPlan {
        PipeletPlan {
            pipelet: PipeletId::ingress(0),
            nfs: vec![PlannedNf::indexed("alpha"), PlannedNf::indexed("beta")],
            mode: CompositionMode::Sequential,
        }
    }

    #[test]
    fn composed_pipelet_lints_clean() {
        let (a, b) = (mini_nf("alpha"), mini_nf("beta"));
        let merged = merge_programs("sfc_demo", &[&a, &b]).expect("merge");
        let plan = sequential_plan();
        let program = compose_pipelet(&merged, &plan).expect("compose");
        let report = lint_pipelet(&program, &plan);
        assert!(
            report.is_clean(),
            "composed pipelet should lint clean:\n{}",
            report.render_pretty()
        );
    }

    #[test]
    fn entry_gated_pipelet_lints_clean() {
        let (a, b) = (mini_classifier("alpha"), mini_nf("beta"));
        let merged = merge_programs("sfc_demo", &[&a, &b]).expect("merge");
        let plan = PipeletPlan {
            pipelet: PipeletId::ingress(0),
            nfs: vec![PlannedNf::entry("alpha"), PlannedNf::indexed("beta")],
            mode: CompositionMode::Sequential,
        };
        let program = compose_pipelet(&merged, &plan).expect("compose");
        let report = lint_pipelet(&program, &plan);
        assert!(
            report.is_clean(),
            "entry-gated pipelet should lint clean:\n{}",
            report.render_pretty()
        );
    }

    #[test]
    fn missing_branching_table_violates_sfc_invariant() {
        let (a, b) = (mini_nf("alpha"), mini_nf("beta"));
        let merged = merge_programs("sfc_demo", &[&a, &b]).expect("merge");
        let plan = sequential_plan();
        let mut program = compose_pipelet(&merged, &plan).expect("compose");
        program.tables.remove(names::BRANCHING);
        for ctrl in program.controls.values_mut() {
            ctrl.body.retain(|s| {
                !matches!(s,
                dejavu_p4ir::Stmt::Apply(t) if t == names::BRANCHING)
            });
        }
        let report = lint_pipelet(&program, &plan);
        assert!(report
            .errors()
            .iter()
            .any(|d| d.code == LintCode::SfcInvariant && d.message.contains("no branching")));
    }

    #[test]
    fn branching_not_last_violates_sfc_invariant() {
        let (a, b) = (mini_nf("alpha"), mini_nf("beta"));
        let merged = merge_programs("sfc_demo", &[&a, &b]).expect("merge");
        let plan = sequential_plan();
        let mut program = compose_pipelet(&merged, &plan).expect("compose");
        // Apply an NF table again after the branching table.
        let entry = program.entry.clone();
        program
            .controls
            .get_mut(&entry)
            .expect("entry control")
            .body
            .push(dejavu_p4ir::Stmt::Apply("alpha__work".into()));
        let report = lint_pipelet(&program, &plan);
        assert!(report
            .errors()
            .iter()
            .any(|d| d.code == LintCode::SfcInvariant && d.message.contains("not the last")));
    }

    fn two_pipeline_chains() -> (ChainSet, Placement) {
        let chains = ChainSet {
            chains: vec![ChainPolicy {
                path_id: 1,
                name: "ping_pong".into(),
                nfs: vec!["a".into(), "b".into(), "c".into()],
                weight: 1.0,
            }],
        };
        // a and c on pipeline 0's ingress, b on pipeline 1's ingress:
        // every hop is ingress→ingress, costing a recirculation each.
        let placement = Placement::sequential(vec![
            (PipeletId::ingress(0), vec!["a", "c"]),
            (PipeletId::ingress(1), vec!["b"]),
        ]);
        (chains, placement)
    }

    #[test]
    fn recirc_budget_overrun_detected() {
        let profile = TofinoProfile::wedge_100b_32x();
        let (chains, placement) = two_pipeline_chains();
        let spec = BudgetSpec {
            profile: &profile,
            loopback_ports: 2,
            offered_gbps: 1600.0,
            entry_pipeline: 0,
            exit_pipeline: 0,
        };
        let report = lint_chain_budget(&chains, &placement, &spec);
        assert!(
            report.has_errors(),
            "expected DJV102:\n{}",
            report.render_pretty()
        );
        assert!(report
            .errors()
            .iter()
            .any(|d| d.code == LintCode::RecircBudget));
    }

    #[test]
    fn recirc_budget_within_capacity_is_clean() {
        let profile = TofinoProfile::wedge_100b_32x();
        let (chains, placement) = two_pipeline_chains();
        let spec = BudgetSpec {
            profile: &profile,
            loopback_ports: 8,
            offered_gbps: 100.0,
            entry_pipeline: 0,
            exit_pipeline: 0,
        };
        let report = lint_chain_budget(&chains, &placement, &spec);
        assert!(report.is_clean(), "{}", report.render_pretty());
    }

    #[test]
    fn unplaced_nf_surfaces_as_invariant_error() {
        let chains = ChainSet {
            chains: vec![ChainPolicy {
                path_id: 1,
                name: "dangling".into(),
                nfs: vec!["ghost".into()],
                weight: 1.0,
            }],
        };
        let placement = Placement::default();
        let profile = TofinoProfile::wedge_100b_32x();
        let spec = BudgetSpec {
            profile: &profile,
            loopback_ports: 2,
            offered_gbps: 100.0,
            entry_pipeline: 0,
            exit_pipeline: 0,
        };
        let report = lint_chain_budget(&chains, &placement, &spec);
        assert!(report
            .errors()
            .iter()
            .any(|d| d.code == LintCode::SfcInvariant && d.entity == "dangling"));
    }
}
