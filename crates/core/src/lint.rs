//! The framework-aware `dejavu-lint` passes (`DJV101`–`DJV103`).
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
//! * [`lint_routing`] is the **commit check** (DJV103): it reads the
//!   routing entries a switch has installed back, walks every chain
//!   through them as the hardware would, and holds each walk to the one
//!   move rule the traversal model and routing synthesis share
//!   ([`crate::placement`]). `deploy` and `handle_port_failure` run it and
//!   fail on a finding.

use crate::chain::{ChainPolicy, ChainSet};
use crate::compose::{names, CompositionMode, NfGate, PipeletPlan};
use crate::deploy::Deployment;
use crate::placement::{traverse, Goal, Move, Placement, RecircGranularity, Walk};
use crate::routing::{Route, SegmentOptions};
use crate::sfc::{NEXT_PROTO_IPV4, SFC_HEADER};
use dejavu_asic::{Gress, PipeletId, PortId, Switch, TofinoProfile};
use dejavu_p4ir::lint::{check_with_config, Diagnostic, LintCode, LintConfig, LintReport};
use dejavu_p4ir::table::{KeyMatch, TableEntry};
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

/// How a walk leaves the switch: the port (`None` for `sfc.out_port`) and
/// whether that port strips the SFC header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Exit {
    port: Option<PortId>,
    decap: bool,
}

/// Passes one walk may take before DJV103 calls it a forwarding loop.
const MAX_PASSES: usize = 64;

/// Checks the routing installed on a switch against the traversal model
/// (DJV103), without sending a packet.
///
/// The entries are read back from `switch` — each slot's
/// `dv_check_next_nf_<k>`, each ingress pipelet's `dv_branching`, each
/// egress pipelet's `dv_decap` — with its loopback and port-down state. From
/// every pipeline's ingress, each `(pathID, serviceIndex)` of each chain is
/// walked to the port it leaves by, as the hardware would take it: a pass
/// runs every slot whose dispatch entry matches (a slot gated on "no SFC
/// header yet" counts as serviceIndex 0; a parallel pipelet runs one), a
/// resubmit re-enters the same ingress, a forward crosses to the port's
/// egress pipe and then loops back in through a loopback port or leaves.
/// The walk's moves, port and decap must be the ones the one move rule
/// ([`crate::placement`]) takes over the deployment's placement; each
/// difference is a DJV103 error naming the chain, pathID, serviceIndex and
/// the pipelet where the two part, with the model's and the installed move.
pub fn lint_routing(switch: &Switch, deployment: &Deployment) -> LintReport {
    let cfg = LintConfig::default();
    let mut report = LintReport::default();
    let segment = deployment.options.routed_segment();
    let route = match Route::new(
        &deployment.placement,
        &deployment.chains,
        &deployment.profile,
        &deployment.config,
        &segment,
    ) {
        Ok(route) => route,
        Err(e) => {
            let diag = Diagnostic::new(LintCode::RoutingWalk, "routing", e.to_string());
            report.emit(&cfg, diag);
            return report;
        }
    };
    let installed = Installed::new(switch, deployment);
    let (mut model, mut read) = (Vec::new(), Vec::new());
    for chain in &deployment.chains.chains {
        for pipeline in 0..deployment.profile.pipelines {
            let start = PipeletId::ingress(pipeline);
            for index in 0..=chain.nfs.len() {
                model.clear();
                read.clear();
                let want = model_walk(
                    &route, deployment, &segment, chain, start, index, &mut model,
                );
                let got = installed.walk(chain.path_id.into(), start, index, &mut read);
                if model != read || want.is_err() || want != got {
                    let diag = walk_mismatch(chain, start, index, (&model, want), (&read, got));
                    report.emit(&cfg, diag);
                }
            }
        }
    }
    report.sort();
    report
}

/// The moves the one move rule takes for `chain`'s packet arriving fresh at
/// `start` with service index `index`, each with the pipelet it is taken
/// from, and how the packet leaves.
fn model_walk(
    route: &Route,
    deployment: &Deployment,
    segment: &SegmentOptions,
    chain: &ChainPolicy,
    start: PipeletId,
    mut index: usize,
    moves: &mut Vec<(PipeletId, Move)>,
) -> Result<Exit, String> {
    let mut walk = Walk::at(start, None, RecircGranularity::PerPort);
    let (mut goal, mut port) = route.next(chain, index).map_err(|e| e.to_string())?;
    while moves.len() < MAX_PASSES * 4 {
        let from = walk.cur;
        let m = walk.step(goal);
        moves.push((from, m));
        let end = matches!(goal, Goal::Leave(Some(_)));
        match m {
            Move::Run => {
                index += 1;
                (goal, port) = route.next(chain, index).map_err(|e| e.to_string())?;
            }
            Move::Leave
                if end && deployment.config.honor_out_port && from.gress == Gress::Ingress =>
            {
                return Ok(Exit {
                    port: None,
                    decap: false,
                });
            }
            Move::Leave => {
                return Ok(Exit {
                    port,
                    decap: end && segment.decap_on_exit,
                });
            }
            _ => {}
        }
    }
    Err("the model does not leave the switch".into())
}

/// The framework entries installed on one switch, read back.
struct Installed<'a> {
    switch: &'a Switch,
    placement: &'a Placement,
    entry_nf: Option<&'a str>,
    /// `dv_check_next_nf_<k>` for every slot a pipelet has.
    slot_tables: Vec<String>,
}

impl<'a> Installed<'a> {
    fn new(switch: &'a Switch, deployment: &'a Deployment) -> Self {
        let slots = deployment.placement.pipelets.values().map(Vec::len);
        Installed {
            switch,
            placement: &deployment.placement,
            entry_nf: deployment.options.entry_nf.as_deref(),
            slot_tables: (0..slots.max().unwrap_or(0))
                .map(names::check_next_nf)
                .collect(),
        }
    }

    /// The installed entry of `table` on `pipelet` whose two exact keys
    /// are `keys`: `(pathID, serviceIndex)`, or `(port, next protocol)`.
    fn find(&self, pipelet: PipeletId, table: &str, keys: [usize; 2]) -> Option<&TableEntry> {
        let entries = self.switch.tables(pipelet)?.entries(table);
        entries.iter().find(|e| match e.matches.as_slice() {
            [KeyMatch::Exact(a), KeyMatch::Exact(b)] => {
                [a.raw(), b.raw()] == keys.map(|k| k as u128)
            }
            _ => false,
        })
    }

    /// One pass through `pipelet`: each slot whose dispatch entry matches
    /// runs its NF and advances the index; a parallel pipelet runs one.
    fn pass(
        &self,
        pipelet: PipeletId,
        path: usize,
        index: &mut usize,
        moves: &mut Vec<(PipeletId, Move)>,
    ) {
        let Some(nfs) = self.placement.pipelets.get(&pipelet) else {
            return;
        };
        let parallel = self.placement.mode(pipelet) == CompositionMode::Parallel;
        for (k, nf) in nfs.iter().enumerate() {
            let runs = if self.entry_nf == Some(nf.as_str()) {
                *index == 0
            } else {
                self.find(pipelet, &self.slot_tables[k], [path, *index])
                    .is_some_and(|e| e.action == names::PROCEED)
            };
            if runs {
                moves.push((pipelet, Move::Run));
                *index += 1;
                if parallel {
                    return;
                }
            }
        }
    }

    /// The walk the installed entries take `path`'s packet on, arriving
    /// fresh at `start` with service index `index`.
    fn walk(
        &self,
        path: usize,
        mut at: PipeletId,
        mut index: usize,
        moves: &mut Vec<(PipeletId, Move)>,
    ) -> Result<Exit, String> {
        for _ in 0..MAX_PASSES {
            self.pass(at, path, &mut index, moves);
            let Some(entry) = self.find(at, names::BRANCHING, [path, index]) else {
                return Err(format!(
                    "no branching entry on {at} for serviceIndex {index}: punted to the CPU"
                ));
            };
            let port = match (entry.action.as_str(), entry.action_args.as_slice()) {
                (names::RESUBMIT, _) => {
                    moves.push((at, Move::Resubmit));
                    continue;
                }
                (names::FWD_OUT, _) => {
                    moves.push((at, Move::Leave));
                    return Ok(Exit {
                        port: None,
                        decap: false,
                    });
                }
                (names::FWD, [port]) => port.raw() as PortId,
                (action, _) => return Err(format!("branching on {at} runs {action}")),
            };
            if self.switch.is_port_down(port) {
                return Err(format!("{at} forwards to port {port}, which is down"));
            }
            let Some(pipeline) = self.switch.pipeline_of(port) else {
                return Err(format!("{at} forwards to port {port}, on no pipeline"));
            };
            let looped = self.switch.is_recirc_port(port) || self.switch.is_loopback(port);
            let egress = PipeletId::egress(pipeline);
            // A crossing shows only when the egress pass runs an NF; an
            // empty egress pass is the loop's or the leave's way out.
            let crossing = moves.len();
            moves.push((at, Move::Cross { to: egress }));
            self.pass(egress, path, &mut index, moves);
            let from = if moves.len() == crossing + 1 {
                moves.pop();
                at
            } else {
                egress
            };
            if looped {
                at = PipeletId::ingress(pipeline);
                moves.push((from, Move::Loop { to: at }));
                continue;
            }
            moves.push((from, Move::Leave));
            let decap = self
                .find(egress, names::DECAP, [port.into(), NEXT_PROTO_IPV4.into()])
                .is_some_and(|e| e.action == names::DO_DECAP);
            return Ok(Exit {
                port: Some(port),
                decap,
            });
        }
        Err(format!("does not leave the switch in {MAX_PASSES} passes"))
    }
}

/// The DJV103 finding for one walk the model and the installed entries
/// take differently.
fn walk_mismatch(
    chain: &ChainPolicy,
    start: PipeletId,
    index: usize,
    (model, want): (&[(PipeletId, Move)], Result<Exit, String>),
    (read, got): (&[(PipeletId, Move)], Result<Exit, String>),
) -> Diagnostic {
    let render = |moves: &[(PipeletId, Move)]| {
        let steps: Vec<String> = moves.iter().map(|(at, m)| format!("{at}: {m}")).collect();
        steps.join(", ")
    };
    let ending = |exit: &Result<Exit, String>| match exit {
        Ok(Exit {
            port: Some(p),
            decap,
        }) => {
            format!("leaves by port {p}{}", if *decap { " (decap)" } else { "" })
        }
        Ok(Exit { port: None, .. }) => "leaves by sfc.out_port".into(),
        Err(why) => why.clone(),
    };
    let step =
        |m: Option<&(PipeletId, Move)>| m.map_or("nothing".into(), |(_, m)| format!("`{m}`"));
    let parted = (0..model.len().max(read.len())).find(|&i| model.get(i) != read.get(i));
    let what = match parted {
        Some(i) => format!(
            "at {}: the model takes {}, the installed entries {}",
            model.get(i).or(read.get(i)).map_or(start, |(at, _)| *at),
            step(model.get(i)),
            step(read.get(i))
        ),
        None => format!(
            "the model {}, the installed entries {}",
            ending(&want),
            ending(&got)
        ),
    };
    Diagnostic::new(
        LintCode::RoutingWalk,
        &chain.name,
        format!(
            "chain `{}` (pathID {}, serviceIndex {index}) from {start}: {what}",
            chain.name, chain.path_id
        ),
    )
    .with_note(format!("model: {} — {}", render(model), ending(&want)))
    .with_note(format!("installed: {} — {}", render(read), ending(&got)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainPolicy;
    use crate::compose::{compose_pipelet, PlannedNf};
    use crate::deploy::{deploy, DeployOptions};
    use crate::merge::merge_programs;
    use crate::nfmodule::NfModule;
    use crate::routing::RoutingConfig;
    use crate::sfc::sfc_header_type;
    use dejavu_p4ir::well_known;
    use dejavu_p4ir::{
        fref, ActionBuilder, ControlBuilder, Expr, ParserBuilder, ProgramBuilder, TableBuilder,
        Value,
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

    /// Fig. 6(b) behind a classifier, plus a chain that loops between the
    /// ingress pipes and one that resubmits: every move the rule has.
    fn routed() -> (Switch, Deployment) {
        let nfs = [
            mini_classifier("cls"),
            mini_nf("a"),
            mini_nf("b"),
            mini_nf("c"),
            mini_nf("d"),
            mini_nf("e"),
            mini_nf("f"),
        ];
        let refs: Vec<&NfModule> = nfs.iter().collect();
        let chain =
            |path_id, name: &str, nfs: &[&str]| ChainPolicy::new(path_id, name, nfs.to_vec(), 1.0);
        let chains = ChainSet::new(vec![
            chain(1, "fig6b", &["cls", "a", "b", "c", "d", "e"]),
            chain(2, "back", &["cls", "c", "a"]),
            chain(3, "resub", &["cls", "f", "c"]),
        ])
        .expect("valid chains");
        let placement = Placement::sequential(vec![
            (PipeletId::ingress(0), vec!["cls", "a"]),
            (PipeletId::egress(1), vec!["b"]),
            (PipeletId::ingress(1), vec!["c", "f"]),
            (PipeletId::egress(0), vec!["d", "e"]),
        ]);
        let config = RoutingConfig {
            loopback_port: [(0, 15), (1, 16)].into(),
            exit_ports: [(1, 2), (2, 2), (3, 3)].into(),
            honor_out_port: false,
        };
        let options = DeployOptions {
            entry_nf: Some("cls".into()),
            ..Default::default()
        };
        let profile = TofinoProfile::wedge_100b_32x();
        deploy(&refs, &chains, &placement, &profile, &config, &options)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn the_commit_check_passes_what_routing_installs() {
        // `deploy` runs DJV103 itself and fails on a finding; the check is
        // also callable on its own.
        let (switch, deployment) = routed();
        let report = lint_routing(&switch, &deployment);
        assert!(report.is_clean(), "{}", report.render_pretty());
    }

    #[test]
    fn a_misrouted_branching_entry_is_djv103() {
        // Re-point chain `back`'s serviceIndex-2 entry on ingress 1 (after
        // `c` ran, `a` is on ingress 0) at pipeline 1's own loopback port.
        let (mut switch, deployment) = routed();
        let at = PipeletId::ingress(1);
        let entries = switch
            .tables(at)
            .unwrap()
            .entries(names::BRANCHING)
            .to_vec();
        switch.clear_table(at, names::BRANCHING);
        for mut e in entries {
            let key = (e.matches[0].clone(), e.matches[1].clone());
            if key
                == (
                    KeyMatch::Exact(Value::new(2, 16)),
                    KeyMatch::Exact(Value::new(2, 8)),
                )
            {
                assert_eq!(e.action_args, vec![Value::new(15, 16)], "loop to ingress 0");
                e.action_args = vec![Value::new(16, 16)];
            }
            switch.install_entry(at, names::BRANCHING, e).unwrap();
        }
        let report = lint_routing(&switch, &deployment);
        let found: Vec<&Diagnostic> = report.errors();
        assert!(!found.is_empty(), "the misrouted entry went unseen");
        assert!(found
            .iter()
            .all(|d| d.code == LintCode::RoutingWalk && d.entity == "back"));
        let message = &found[0].message;
        for part in [
            "chain `back`",
            "pathID 2",
            "serviceIndex",
            "ingress1",
            "loop to ingress0",
        ] {
            assert!(message.contains(part), "{part} missing from: {message}");
        }
    }
}
