//! NF composition (paper §3.2, Fig. 5) and the framework data-plane logic.
//!
//! Given the merged program namespace and a *pipelet plan* (which NFs live
//! on this pipelet, in what order, composed how), this module generates the
//! pipelet's executable program:
//!
//! * **Sequential composition** places NFs back-to-back: every NF gets its
//!   own dispatch slot, so one pass can run several consecutive chain hops
//!   — at the price of the implicit dependency chain forcing separate MAU
//!   stages.
//! * **Parallel composition** places NFs side-by-side in an if/else-if
//!   ladder: at most one NF runs per pass (branch transitions need a
//!   resubmission or recirculation), but the branches can share stages.
//!
//! Around the NF calls the framework weaves its own tables — the three
//! table families §5 measures in Table 1:
//!
//! * `dv_check_next_nf_<k>` — per dispatch slot, matches
//!   `(sfc.path_id, sfc.service_index)` and decides whether slot *k*'s NF is
//!   the packet's next hop (an entry per (pathID, serviceIndex) pair),
//! * `dv_check_sfc_flags_<k>` — translates the SFC header's platform flags
//!   (set by NFs through the one-argument API) into real platform metadata
//!   (an entry per platform-metadata field),
//! * `dv_branching` — last slot of every **ingress** pipelet: routes the
//!   packet to its next NF's pipelet, resubmits, or forwards out
//!   (entries synthesized after placement by [`crate::routing`]),
//! * `dv_decap` — on every **egress** pipelet: removes the SFC header and
//!   restores the EtherType when the packet leaves through a non-loopback
//!   port (an entry per external port × next-protocol).

use crate::merge::MergedProgram;
use crate::sfc::sfc_field;
use dejavu_asic::{Gress, PipeletId};
use dejavu_p4ir::action::{ActionDef, Expr, PrimitiveOp};
use dejavu_p4ir::control::{BoolExpr, ControlBlock, Stmt};
use dejavu_p4ir::table::{TableDef, TableKey};
use dejavu_p4ir::{FieldRef, IrError, MatchKind, Program};

/// How NFs on a pipelet are composed (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompositionMode {
    /// Back-to-back: several chain hops per pass, stages add up.
    Sequential,
    /// Side-by-side: one hop per pass, stages shared.
    Parallel,
}

/// How a planned NF is gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfGate {
    /// Normal: dispatched when `(path_id, service_index)` matches.
    Indexed,
    /// Chain entry (the Classifier): dispatched when the packet carries no
    /// SFC header yet.
    NoSfcHeader,
}

/// One NF assigned to a pipelet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedNf {
    /// NF name (as in the merged namespace).
    pub name: String,
    /// Dispatch gate.
    pub gate: NfGate,
}

impl PlannedNf {
    /// An index-gated NF.
    pub fn indexed(name: impl Into<String>) -> Self {
        PlannedNf {
            name: name.into(),
            gate: NfGate::Indexed,
        }
    }

    /// A chain-entry NF (classifier).
    pub fn entry(name: impl Into<String>) -> Self {
        PlannedNf {
            name: name.into(),
            gate: NfGate::NoSfcHeader,
        }
    }
}

/// Assignment of NFs to one pipelet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipeletPlan {
    /// The pipelet.
    pub pipelet: PipeletId,
    /// NFs in composed order.
    pub nfs: Vec<PlannedNf>,
    /// Composition mode.
    pub mode: CompositionMode,
}

/// Framework table/action names.
pub mod names {
    /// Dispatch table of slot `k`.
    pub fn check_next_nf(k: usize) -> String {
        format!("dv_check_next_nf_{k}")
    }
    /// Flag-translation table of slot `k`.
    pub fn check_sfc_flags(k: usize) -> String {
        format!("dv_check_sfc_flags_{k}")
    }
    /// The branching table (ingress pipelets).
    pub const BRANCHING: &str = "dv_branching";
    /// The decapsulation table (egress pipelets).
    pub const DECAP: &str = "dv_decap";
    /// Dispatch-hit action.
    pub const PROCEED: &str = "dv_proceed";
    /// Dispatch-miss action.
    pub const SKIP: &str = "dv_skip";
    /// Forward-to-port branching action.
    pub const FWD: &str = "dv_fwd";
    /// Resubmit branching action.
    pub const RESUBMIT: &str = "dv_resubmit";
    /// Forward to `sfc.out_port` branching action.
    pub const FWD_OUT: &str = "dv_fwd_out_port";
    /// Punt-to-CPU action (branching default: unroutable → control plane).
    pub const TO_CPU: &str = "dv_to_cpu";
    /// Flag-translation actions.
    pub const FLAG_DROP: &str = "dv_flag_drop";
    /// Translate to-CPU flag.
    pub const FLAG_TO_CPU: &str = "dv_flag_to_cpu";
    /// Translate resubmit flag.
    pub const FLAG_RESUBMIT: &str = "dv_flag_resubmit";
    /// Translate mirror flag.
    pub const FLAG_MIRROR: &str = "dv_flag_mirror";
    /// No flag set.
    pub const FLAG_NONE: &str = "dv_flag_none";
    /// Decap action.
    pub const DO_DECAP: &str = "dv_do_decap";
    /// Decap no-op default.
    pub const NO_DECAP: &str = "dv_no_decap";
}

/// Default capacity of the dispatch/branching tables ("their sizes are
/// determined at compile time" — an entry per (pathID, serviceIndex) pair).
pub const DISPATCH_TABLE_SIZE: u32 = 256;

/// Generates the executable program of one pipelet from the merged
/// namespace and the pipelet's plan.
pub fn compose_pipelet(merged: &MergedProgram, plan: &PipeletPlan) -> Result<Program, IrError> {
    let mut program = merged.program.clone();
    program.name = pipelet_program_name(merged, plan.pipelet);

    add_framework_actions(&mut program);

    // Per-slot framework tables.
    for k in 0..plan.nfs.len() {
        program
            .tables
            .insert(names::check_next_nf(k), check_next_nf_table(k));
        program
            .tables
            .insert(names::check_sfc_flags(k), check_sfc_flags_table(k));
    }
    if plan.pipelet.gress == Gress::Ingress {
        program
            .tables
            .insert(names::BRANCHING.into(), branching_table());
    } else {
        program.tables.insert(names::DECAP.into(), decap_table());
    }

    // Entry control.
    let mut body: Vec<Stmt> = Vec::new();
    match plan.mode {
        CompositionMode::Sequential => {
            for (k, nf) in plan.nfs.iter().enumerate() {
                body.push(slot_stmt(merged, nf, k, true)?);
            }
        }
        CompositionMode::Parallel => {
            // if / else-if ladder, innermost-first construction.
            let mut ladder: Vec<Stmt> = Vec::new();
            for (k, nf) in plan.nfs.iter().enumerate().rev() {
                let slot = slot_stmt_parallel(merged, nf, k, ladder)?;
                ladder = vec![slot];
            }
            body.extend(ladder);
            // One flag check after whichever branch ran (Fig. 5 bottom).
            body.push(Stmt::Apply(names::check_sfc_flags(0)));
        }
    }
    match plan.pipelet.gress {
        Gress::Ingress => body.push(Stmt::Apply(names::BRANCHING.into())),
        Gress::Egress => body.push(Stmt::Apply(names::DECAP.into())),
    }

    let entry_name = "dv_pipelet_main".to_string();
    program.controls.insert(
        entry_name.clone(),
        ControlBlock::new(entry_name.clone(), body),
    );
    program.entry = entry_name;
    program.validate()?;
    Ok(program)
}

/// The name of the program composed for `pipelet`: `<merged>@<pipelet>`.
pub(crate) fn pipelet_program_name(merged: &MergedProgram, pipelet: PipeletId) -> String {
    format!("{}@{}", merged.program.name, pipelet)
}

/// Sequential slot: gate (whose hit action advances the index), NF call,
/// flag check.
fn slot_stmt(
    merged: &MergedProgram,
    nf: &PlannedNf,
    k: usize,
    with_flags: bool,
) -> Result<Stmt, IrError> {
    let entry = nf_entry(merged, &nf.name)?;
    let mut hit: Vec<Stmt> = vec![Stmt::Call(entry)];
    match nf.gate {
        NfGate::Indexed => {
            if with_flags {
                hit.push(Stmt::Apply(names::check_sfc_flags(k)));
            }
            Ok(Stmt::ApplySelect {
                table: names::check_next_nf(k),
                arms: vec![(names::PROCEED.into(), hit)],
                default: vec![],
            })
        }
        NfGate::NoSfcHeader => {
            // Classifier: runs when no SFC header is present; it inserts the
            // header itself and sets service_index to 1 (hop 0 done).
            if with_flags {
                hit.push(Stmt::Apply(names::check_sfc_flags(k)));
            }
            Ok(Stmt::If {
                cond: BoolExpr::Not(Box::new(BoolExpr::Valid(crate::sfc::SFC_HEADER.into()))),
                then_branch: hit,
                else_branch: vec![],
            })
        }
    }
}

/// Parallel slot: gate with the rest of the ladder as the else branch.
fn slot_stmt_parallel(
    merged: &MergedProgram,
    nf: &PlannedNf,
    k: usize,
    else_branch: Vec<Stmt>,
) -> Result<Stmt, IrError> {
    let entry = nf_entry(merged, &nf.name)?;
    let hit = vec![Stmt::Call(entry)];
    match nf.gate {
        NfGate::Indexed => Ok(Stmt::ApplySelect {
            table: names::check_next_nf(k),
            arms: vec![(names::PROCEED.into(), hit)],
            default: else_branch,
        }),
        NfGate::NoSfcHeader => Ok(Stmt::If {
            cond: BoolExpr::Not(Box::new(BoolExpr::Valid(crate::sfc::SFC_HEADER.into()))),
            then_branch: vec![Stmt::Call(nf_entry(merged, &nf.name)?)],
            else_branch,
        }),
    }
}

fn nf_entry(merged: &MergedProgram, nf: &str) -> Result<String, IrError> {
    merged
        .nf_entries
        .get(nf)
        .cloned()
        .ok_or(IrError::Undefined {
            kind: "NF",
            name: nf.to_string(),
        })
}

fn add_framework_actions(program: &mut Program) {
    let mut add = |a: ActionDef| {
        program.actions.insert(a.name.clone(), a);
    };
    // The dispatch-hit action advances the service index — this is the
    // data dependency that forces consecutive Dejavu dispatch tables into
    // separate MAU stages (the paper's Table 1 observation).
    add(ActionDef::simple(
        names::PROCEED,
        vec![PrimitiveOp::Set {
            dst: sfc_field("service_index"),
            value: Expr::Add(
                Box::new(Expr::Field(sfc_field("service_index"))),
                Box::new(Expr::val(1, 8)),
            ),
        }],
    ));
    add(ActionDef::simple(names::SKIP, vec![PrimitiveOp::NoOp]));
    // Flag translations: SFC header flag → platform metadata. Each
    // translation *consumes* the in-band flag (clears it) so a request is
    // honored exactly once — otherwise every later pipelet would re-apply
    // it (e.g. mirroring the packet once per pipe).
    let flag_action = |name: &str, meta_flag: &str, sfc_flag: &str| {
        ActionDef::simple(
            name,
            vec![
                PrimitiveOp::Set {
                    dst: FieldRef::meta(meta_flag),
                    value: Expr::val(1, 1),
                },
                PrimitiveOp::Set {
                    dst: sfc_field(sfc_flag),
                    value: Expr::val(0, 1),
                },
            ],
        )
    };
    add(flag_action(names::FLAG_DROP, "drop_flag", "drop_flag"));
    add(flag_action(
        names::FLAG_TO_CPU,
        "to_cpu_flag",
        "to_cpu_flag",
    ));
    add(flag_action(
        names::FLAG_RESUBMIT,
        "resubmit_flag",
        "resub_flag",
    ));
    add(flag_action(
        names::FLAG_MIRROR,
        "mirror_flag",
        "mirror_flag",
    ));
    add(ActionDef::simple(names::FLAG_NONE, vec![PrimitiveOp::NoOp]));
    // Branching actions.
    add(ActionDef {
        name: names::FWD.into(),
        params: vec![("port".into(), 16)],
        ops: vec![PrimitiveOp::Set {
            dst: FieldRef::meta("egress_spec"),
            value: Expr::Param("port".into()),
        }],
    });
    add(ActionDef::simple(
        names::RESUBMIT,
        vec![PrimitiveOp::Set {
            dst: FieldRef::meta("resubmit_flag"),
            value: Expr::val(1, 1),
        }],
    ));
    add(ActionDef::simple(
        names::FWD_OUT,
        vec![PrimitiveOp::Set {
            dst: FieldRef::meta("egress_spec"),
            value: Expr::Field(sfc_field("out_port")),
        }],
    ));
    add(ActionDef::simple(
        names::TO_CPU,
        vec![PrimitiveOp::Set {
            dst: FieldRef::meta("to_cpu_flag"),
            value: Expr::val(1, 1),
        }],
    ));
    // Decap.
    add(ActionDef {
        name: names::DO_DECAP.into(),
        params: vec![("ethertype".into(), 16)],
        ops: vec![
            PrimitiveOp::Set {
                dst: dejavu_p4ir::fref("ethernet", "ether_type"),
                value: Expr::Param("ethertype".into()),
            },
            PrimitiveOp::RemoveHeader {
                header: crate::sfc::SFC_HEADER.into(),
            },
        ],
    });
    add(ActionDef::simple(names::NO_DECAP, vec![PrimitiveOp::NoOp]));
}

fn check_next_nf_table(k: usize) -> TableDef {
    TableDef {
        name: names::check_next_nf(k),
        keys: vec![
            TableKey {
                field: sfc_field("path_id"),
                kind: MatchKind::Exact,
            },
            TableKey {
                field: sfc_field("service_index"),
                kind: MatchKind::Exact,
            },
        ],
        actions: vec![names::PROCEED.into(), names::SKIP.into()],
        default_action: names::SKIP.into(),
        default_action_args: vec![],
        size: DISPATCH_TABLE_SIZE,
    }
}

fn check_sfc_flags_table(k: usize) -> TableDef {
    TableDef {
        name: names::check_sfc_flags(k),
        keys: vec![
            TableKey {
                field: sfc_field("drop_flag"),
                kind: MatchKind::Ternary,
            },
            TableKey {
                field: sfc_field("to_cpu_flag"),
                kind: MatchKind::Ternary,
            },
            TableKey {
                field: sfc_field("resub_flag"),
                kind: MatchKind::Ternary,
            },
            TableKey {
                field: sfc_field("mirror_flag"),
                kind: MatchKind::Ternary,
            },
        ],
        actions: vec![
            names::FLAG_DROP.into(),
            names::FLAG_TO_CPU.into(),
            names::FLAG_RESUBMIT.into(),
            names::FLAG_MIRROR.into(),
            names::FLAG_NONE.into(),
        ],
        default_action: names::FLAG_NONE.into(),
        default_action_args: vec![],
        size: 8,
    }
}

fn branching_table() -> TableDef {
    TableDef {
        name: names::BRANCHING.into(),
        keys: vec![
            TableKey {
                field: sfc_field("path_id"),
                kind: MatchKind::Exact,
            },
            TableKey {
                field: sfc_field("service_index"),
                kind: MatchKind::Exact,
            },
        ],
        actions: vec![
            names::FWD.into(),
            names::RESUBMIT.into(),
            names::FWD_OUT.into(),
            names::TO_CPU.into(),
        ],
        default_action: names::TO_CPU.into(),
        default_action_args: vec![],
        size: DISPATCH_TABLE_SIZE,
    }
}

fn decap_table() -> TableDef {
    TableDef {
        name: names::DECAP.into(),
        keys: vec![
            TableKey {
                field: FieldRef::meta("egress_spec"),
                kind: MatchKind::Exact,
            },
            TableKey {
                field: sfc_field("next_protocol"),
                kind: MatchKind::Exact,
            },
        ],
        actions: vec![names::DO_DECAP.into(), names::NO_DECAP.into()],
        default_action: names::NO_DECAP.into(),
        default_action_args: vec![],
        size: 1024,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_programs;
    use crate::nfmodule::NfModule;
    use crate::sfc::sfc_header_type;
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::fref;
    use dejavu_p4ir::well_known;

    /// A minimal indexed NF: bumps ipv4.ttl-like marker via a table.
    fn mini_nf(name: &str) -> NfModule {
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
            .unwrap();
        NfModule::new(p).unwrap()
    }

    fn merged_two() -> crate::merge::MergedProgram {
        let a = mini_nf("alpha");
        let b = mini_nf("beta");
        merge_programs("sfc_demo", &[&a, &b]).unwrap()
    }

    #[test]
    fn sequential_ingress_pipelet_validates() {
        let merged = merged_two();
        let plan = PipeletPlan {
            pipelet: PipeletId::ingress(0),
            nfs: vec![PlannedNf::indexed("alpha"), PlannedNf::indexed("beta")],
            mode: CompositionMode::Sequential,
        };
        let program = compose_pipelet(&merged, &plan).unwrap();
        // Framework tables present.
        assert!(program.tables.contains_key("dv_check_next_nf_0"));
        assert!(program.tables.contains_key("dv_check_next_nf_1"));
        assert!(program.tables.contains_key("dv_check_sfc_flags_0"));
        assert!(program.tables.contains_key(names::BRANCHING));
        assert!(!program.tables.contains_key(names::DECAP));
        // NF tables carried over with namespacing.
        assert!(program.tables.contains_key("alpha__work"));
        assert!(program.tables.contains_key("beta__work"));
        // Branching is applied last.
        let order = program.tables_in_order();
        assert_eq!(order.last().unwrap(), names::BRANCHING);
    }

    #[test]
    fn egress_pipelet_has_decap_not_branching() {
        let merged = merged_two();
        let plan = PipeletPlan {
            pipelet: PipeletId::egress(1),
            nfs: vec![PlannedNf::indexed("alpha")],
            mode: CompositionMode::Sequential,
        };
        let program = compose_pipelet(&merged, &plan).unwrap();
        assert!(program.tables.contains_key(names::DECAP));
        assert!(!program.tables.contains_key(names::BRANCHING));
    }

    #[test]
    fn parallel_mode_shares_one_flag_check() {
        let merged = merged_two();
        let plan = PipeletPlan {
            pipelet: PipeletId::ingress(0),
            nfs: vec![PlannedNf::indexed("alpha"), PlannedNf::indexed("beta")],
            mode: CompositionMode::Parallel,
        };
        let program = compose_pipelet(&merged, &plan).unwrap();
        // Only slot 0's flag table exists in parallel mode.
        assert!(program.tables.contains_key("dv_check_sfc_flags_0"));
        // The dispatch ladder nests beta's check inside alpha's default arm:
        // both tables exist.
        assert!(program.tables.contains_key("dv_check_next_nf_0"));
        assert!(program.tables.contains_key("dv_check_next_nf_1"));
        program.validate().unwrap();
    }

    #[test]
    fn sequential_has_deeper_dependency_chain_than_parallel() {
        // The paper's trade-off: sequential composition imposes implicit
        // dependencies (more stages); parallel shares stages.
        use dejavu_p4ir::DependencyGraph;
        let merged = merged_two();
        let seq = compose_pipelet(
            &merged,
            &PipeletPlan {
                pipelet: PipeletId::ingress(0),
                nfs: vec![PlannedNf::indexed("alpha"), PlannedNf::indexed("beta")],
                mode: CompositionMode::Sequential,
            },
        )
        .unwrap();
        let par = compose_pipelet(
            &merged,
            &PipeletPlan {
                pipelet: PipeletId::ingress(0),
                nfs: vec![PlannedNf::indexed("alpha"), PlannedNf::indexed("beta")],
                mode: CompositionMode::Parallel,
            },
        )
        .unwrap();
        let seq_stages = DependencyGraph::build(&seq).min_stages();
        let par_stages = DependencyGraph::build(&par).min_stages();
        assert!(
            seq_stages >= par_stages,
            "sequential {seq_stages} < parallel {par_stages}"
        );
    }

    #[test]
    fn entry_gate_wraps_classifier() {
        let merged = merged_two();
        let plan = PipeletPlan {
            pipelet: PipeletId::ingress(0),
            nfs: vec![PlannedNf::entry("alpha"), PlannedNf::indexed("beta")],
            mode: CompositionMode::Sequential,
        };
        let program = compose_pipelet(&merged, &plan).unwrap();
        // Slot 0 is an If on sfc validity, so check_next_nf_0 exists but is
        // not applied.
        let order = program.tables_in_order();
        assert!(!order.contains(&"dv_check_next_nf_0".to_string()));
        assert!(order.contains(&"dv_check_next_nf_1".to_string()));
    }

    #[test]
    fn unknown_nf_is_an_error() {
        let merged = merged_two();
        let plan = PipeletPlan {
            pipelet: PipeletId::ingress(0),
            nfs: vec![PlannedNf::indexed("ghost")],
            mode: CompositionMode::Sequential,
        };
        assert!(compose_pipelet(&merged, &plan).is_err());
    }
}
