//! The stateful-safety `dejavu-lint` passes across merged pipelets
//! (`DJV301`–`DJV303`).
//!
//! The per-program passes reason about one program at a time. The defects
//! the paper's merge step can introduce are *cross-program*: two pipelets
//! sharing a register array, or a control-plane learn policy whose installed
//! entries no longer line up with the digest payload an action emits. The
//! passes here emit the `DJV3xx` band of the one registry
//! ([`dejavu_p4ir::lint::LintCode`]) into the one report:
//!
//! * **`DJV301` register hazard** — the same register array is accessed
//!   from two or more pipelet programs with at least one writer. Registers
//!   are per-pipelet state on the ASIC (paper §3); a merged chain that
//!   read/write-shares one observes torn state. Read-only sharing is fine.
//! * **`DJV302` learn-policy mismatch** — the digest payload an action
//!   emits disagrees with the registered [`LearnPolicy`]: missing stream
//!   or table, a target key that is not exact-match, key/argument index
//!   out of bounds, or a width mismatch between a digest field and the
//!   table key / action parameter it feeds.
//! * **`DJV303` learn without aging** — a learn policy installs into a
//!   table with no idle-timeout aging: under flow churn the table only ever
//!   fills (the PR-4 LRU path then evicts live sessions).
//!
//! [`check_learn_policy`] checks the very [`LearnPolicy`] value the control
//! plane registers and runs, against the NF's actual program.

use crate::control_plane::LearnPolicy;
use dejavu_p4ir::action::{ActionDef, Expr, PrimitiveOp};
use dejavu_p4ir::deps::register_accesses;
use dejavu_p4ir::lint::{Diagnostic, LintCode, LintConfig, LintReport};
use dejavu_p4ir::table::MatchKind;
use dejavu_p4ir::Program;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Natural width of an expression, mirroring the interpreter (binary ops
/// take the left operand's width).
fn expr_width(program: &Program, action: &ActionDef, e: &Expr) -> u16 {
    match e {
        Expr::Const(v) => v.bits(),
        Expr::Field(fr) => program.field_width(fr).unwrap_or(128),
        Expr::Param(p) => action
            .params
            .iter()
            .find(|(n, _)| n == p)
            .map(|(_, w)| *w)
            .unwrap_or(128),
        Expr::Add(a, _)
        | Expr::Sub(a, _)
        | Expr::And(a, _)
        | Expr::Or(a, _)
        | Expr::Xor(a, _)
        | Expr::Shl(a, _)
        | Expr::Shr(a, _) => expr_width(program, action, a),
    }
}

/// The digest payload an action emits on `stream`: per-field widths, in
/// emission order. `None` if no action in the program digests that stream.
fn digest_layout(program: &Program, stream: &str) -> Option<Vec<u16>> {
    for action in program.actions.values() {
        for op in &action.ops {
            if let PrimitiveOp::Digest { name, fields } = op {
                if name == stream {
                    return Some(
                        fields
                            .iter()
                            .map(|f| expr_width(program, action, f))
                            .collect(),
                    );
                }
            }
        }
    }
    None
}

/// Verifies the learn policy `program` registers for `stream` against the
/// program that emits the digests and hosts the target table (`DJV302`),
/// and against the set of tables with idle-timeout aging enabled
/// (`DJV303`). Names are in the NF's own view: pass the standalone NF
/// program, whose name is the NF's.
pub fn check_learn_policy(
    program: &Program,
    stream: &str,
    policy: &LearnPolicy,
    aged_tables: &BTreeSet<String>,
) -> LintReport {
    let cfg = LintConfig::default();
    let mut report = LintReport::default();
    let nf = &program.name;
    let entity = format!("{nf}/{stream}");
    let witness = vec![format!(
        "policy {entity} -> {}.{}",
        policy.table, policy.action
    )];
    let mut mismatch = |message: String| {
        let diag = Diagnostic::new(LintCode::LearnPolicyMismatch, &entity, message);
        report.emit(&cfg, diag.with_witness(witness.clone()));
    };
    let Some(layout) = digest_layout(program, stream) else {
        mismatch(format!(
            "no action in program {nf} digests stream `{stream}`"
        ));
        return report;
    };
    let Some(table) = program.tables.get(&policy.table) else {
        mismatch(format!(
            "learn target table `{}` does not exist",
            policy.table
        ));
        return report;
    };
    if policy.key_map.len() != table.keys.len() {
        mismatch(format!(
            "policy installs {} key(s) but table {} matches on {}",
            policy.key_map.len(),
            table.name,
            table.keys.len()
        ));
    } else {
        for (i, (digest_idx, key)) in policy.key_map.iter().zip(&table.keys).enumerate() {
            if key.kind != MatchKind::Exact {
                mismatch(format!(
                    "table key {} is {:?}-matched, but a learn policy installs \
                         exact keys",
                    key.field, key.kind
                ));
            }
            let Some(dw) = layout.get(*digest_idx) else {
                mismatch(format!(
                    "key {i} maps digest field {digest_idx}, but the digest \
                         carries only {} field(s)",
                    layout.len()
                ));
                continue;
            };
            let kw = program.field_width(&key.field).unwrap_or(0);
            if *dw != kw {
                mismatch(format!(
                    "digest field {digest_idx} is {dw} bits but table key {} \
                         is {kw} bits",
                    key.field
                ));
            }
        }
    }
    if !table.actions.contains(&policy.action) {
        mismatch(format!(
            "table {} cannot run learn action `{}`",
            table.name, policy.action
        ));
    } else if let Some(action) = program.actions.get(&policy.action) {
        if policy.arg_map.len() != action.params.len() {
            mismatch(format!(
                "policy binds {} argument(s) but action {} takes {}",
                policy.arg_map.len(),
                action.name,
                action.params.len()
            ));
        } else {
            for (j, (digest_idx, (pname, pw))) in
                policy.arg_map.iter().zip(&action.params).enumerate()
            {
                let Some(dw) = layout.get(*digest_idx) else {
                    mismatch(format!(
                        "argument {j} maps digest field {digest_idx}, but the \
                             digest carries only {} field(s)",
                        layout.len()
                    ));
                    continue;
                };
                if dw != pw {
                    mismatch(format!(
                        "digest field {digest_idx} is {dw} bits but action \
                             parameter {pname} is {pw} bits"
                    ));
                }
            }
        }
    }
    if !aged_tables.contains(&policy.table) {
        let diag = Diagnostic::new(
            LintCode::LearnWithoutAging,
            &entity,
            format!(
                "learn target table `{}` has no idle-timeout aging: learned \
                 entries accumulate until the table exhausts",
                policy.table
            ),
        );
        let recipe = format!(
            "enable with Deployment::set_idle_timeout(\"{nf}\", \"{}\", ..)",
            policy.table
        );
        report.emit(&cfg, diag.with_witness(vec![recipe]));
    }
    report.sort();
    report
}

/// Cross-pipelet register hazard analysis (`DJV301`): flags every register
/// array accessed from two or more of the given programs when at least one
/// of them writes it. `programs` pairs a label (e.g. the pipelet id) with
/// the composed program running there.
pub fn analyze_pipelets(programs: &[(String, &Program)]) -> LintReport {
    let cfg = LintConfig::default();
    let mut report = LintReport::default();
    // register -> per-label access summary
    let mut by_register: BTreeMap<String, BTreeMap<String, dejavu_p4ir::RegisterAccess>> =
        BTreeMap::new();
    for (label, program) in programs {
        for (reg, access) in register_accesses(program) {
            by_register
                .entry(reg)
                .or_default()
                .insert(label.clone(), access);
        }
    }
    for (reg, sites) in by_register {
        if sites.len() < 2 {
            continue;
        }
        if !sites.values().any(|a| a.writes) {
            continue; // read-only sharing is safe
        }
        let witness: Vec<String> = sites
            .iter()
            .map(|(label, a)| {
                let mode = match (a.reads, a.writes) {
                    (true, true) => "read+write",
                    (false, true) => "write",
                    _ => "read",
                };
                format!("{label}: {mode}")
            })
            .collect();
        let diag = Diagnostic::new(
            LintCode::RegisterHazard,
            &reg,
            format!(
                "register `{reg}` is accessed from {} pipelets with at least one \
                 writer; per-pipelet state cannot be shared coherently",
                sites.len()
            ),
        );
        report.emit(&cfg, diag.with_witness(witness));
    }
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_p4ir::header::FieldRef;
    use dejavu_p4ir::table::{RegisterDef, TableDef, TableKey};
    use dejavu_p4ir::{fref, HeaderType};

    fn learn_program() -> Program {
        let mut p = Program::new("nf");
        p.header_types.insert(
            "ipv4".into(),
            HeaderType::new("ipv4", vec![("src_addr", 32u16), ("dst_addr", 32)]).unwrap(),
        );
        p.actions.insert(
            "learn".into(),
            ActionDef::simple(
                "learn",
                vec![PrimitiveOp::Digest {
                    name: "flow".into(),
                    fields: vec![Expr::field("ipv4", "src_addr"), Expr::val(7, 16)],
                }],
            ),
        );
        p.actions.insert(
            "hit".into(),
            ActionDef {
                name: "hit".into(),
                params: vec![("port".into(), 16)],
                ops: vec![PrimitiveOp::Set {
                    dst: FieldRef::meta("egress_spec"),
                    value: Expr::Param("port".into()),
                }],
            },
        );
        p.tables.insert(
            "sessions".into(),
            TableDef {
                name: "sessions".into(),
                keys: vec![TableKey {
                    field: fref("ipv4", "src_addr"),
                    kind: MatchKind::Exact,
                }],
                actions: vec!["hit".into()],
                default_action: "hit".into(),
                default_action_args: vec![dejavu_p4ir::Value::new(0, 16)],
                size: 1024,
            },
        );
        p
    }

    fn policy() -> LearnPolicy {
        LearnPolicy {
            table: "sessions".into(),
            action: "hit".into(),
            key_map: vec![0],
            arg_map: vec![1],
        }
    }

    #[test]
    fn conforming_contract_needs_only_aging() {
        let p = learn_program();
        let none: BTreeSet<String> = BTreeSet::new();
        let report = check_learn_policy(&p, "flow", &policy(), &none);
        let codes: Vec<_> = report.diagnostics.iter().map(|f| f.code.code()).collect();
        assert_eq!(codes, vec!["DJV303"]);
        assert_eq!(report.diagnostics[0].entity, "nf/flow");
        let aged: BTreeSet<String> = ["sessions".to_string()].into();
        assert!(check_learn_policy(&p, "flow", &policy(), &aged)
            .diagnostics
            .is_empty());
    }

    #[test]
    fn width_and_index_mismatches_flagged() {
        let mut p = learn_program();
        let aged: BTreeSet<String> = ["sessions".to_string()].into();
        let mut swapped = policy();
        swapped.key_map = vec![1]; // 16-bit digest field into a 32-bit key
        swapped.arg_map = vec![0]; // 32-bit digest field into a 16-bit param
        let report = check_learn_policy(&p, "flow", &swapped, &aged);
        assert_eq!(report.diagnostics.len(), 2);
        assert!(report
            .diagnostics
            .iter()
            .all(|f| f.code == LintCode::LearnPolicyMismatch));

        let mut oob = policy();
        oob.key_map = vec![5];
        assert!(check_learn_policy(&p, "flow", &oob, &aged).has_errors());

        let report = check_learn_policy(&p, "nope", &policy(), &aged);
        assert!(report.diagnostics[0].message.contains("digests stream"));

        // A learned entry is exact: a prefix-matched target cannot hold it.
        p.tables.get_mut("sessions").unwrap().keys[0].kind = MatchKind::Lpm;
        let report = check_learn_policy(&p, "flow", &policy(), &aged);
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.diagnostics[0].message.contains("exact"));
    }

    #[test]
    fn register_hazard_across_pipelets() {
        let mut a = Program::new("a");
        a.registers.insert(
            "shared".into(),
            RegisterDef {
                name: "shared".into(),
                width_bits: 32,
                size: 16,
            },
        );
        a.actions.insert(
            "bump".into(),
            ActionDef::simple(
                "bump",
                vec![PrimitiveOp::RegisterWrite {
                    register: "shared".into(),
                    index: Expr::val(0, 8),
                    value: Expr::val(1, 32),
                }],
            ),
        );
        let mut b = Program::new("b");
        b.registers.insert(
            "shared".into(),
            RegisterDef {
                name: "shared".into(),
                width_bits: 32,
                size: 16,
            },
        );
        b.actions.insert(
            "peek".into(),
            ActionDef::simple(
                "peek",
                vec![PrimitiveOp::RegisterRead {
                    dst: FieldRef::meta("egress_spec"),
                    register: "shared".into(),
                    index: Expr::val(0, 8),
                }],
            ),
        );
        let report = analyze_pipelets(&[("pipe0".into(), &a), ("pipe1".into(), &b)]);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, LintCode::RegisterHazard);
        assert_eq!(
            report.diagnostics[0].witness,
            vec!["pipe0: write", "pipe1: read"]
        );

        // Read-only sharing is not a hazard.
        let mut c = Program::new("c");
        c.actions.insert(
            "peek".into(),
            ActionDef::simple(
                "peek",
                vec![PrimitiveOp::RegisterRead {
                    dst: FieldRef::meta("egress_spec"),
                    register: "shared".into(),
                    index: Expr::val(0, 8),
                }],
            ),
        );
        let report = analyze_pipelets(&[("pipe0".into(), &b), ("pipe1".into(), &c)]);
        assert!(report.diagnostics.is_empty());
    }
}
