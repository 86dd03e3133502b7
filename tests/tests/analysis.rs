//! The value and stateful-safety passes of `dejavu-lint`: seeded-bug corpus
//! and soundness.
//!
//! Two halves:
//!
//! * **Seeded corpus** — one fixture per DJV2xx/3xx code, asserting the
//!   rule fires on a program planted with exactly that defect and names
//!   the right entity with a usable witness. This pins the registry:
//!   a refactor that stops a rule from firing fails here, not in the
//!   field.
//! * **Soundness** — the abstract interpreter may only call a branch arm
//!   infeasible if no packet can reach it. For generated programs whose
//!   branch arms each record a distinct bit in an observable field, every
//!   arm that live traffic actually exercises (on *both* execution
//!   engines) must not have been reported as a DJV202 finding. False
//!   "unreachable" reports on live paths are the one failure mode a
//!   static gate cannot afford.

use proptest::prelude::*;

use dejavu_asic::{ExecMode, InjectedPacket, PipeletId, Switch, TofinoProfile};
use dejavu_core::analyze::{analyze_pipelets, check_learn_contracts, LearnContract};
use dejavu_p4ir::analyze::{check, check_with_config};
use dejavu_p4ir::builder::*;
use dejavu_p4ir::lint::{LintCode, LintConfig};
use dejavu_p4ir::table::KeyMatch;
use dejavu_p4ir::{fref, well_known, BoolExpr, CmpOp, Expr, FieldRef, Program, Stmt, Value};

// ---------------------------------------------------------------------------
// Seeded-bug corpus: each DJV2xx/3xx code fires on its planted defect.
// ---------------------------------------------------------------------------

fn eth_ip_base(name: &str) -> ProgramBuilder {
    ProgramBuilder::new(name)
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .parser(
            ParserBuilder::new()
                .node("eth", "ethernet", 0)
                .node("ip", "ipv4", 14)
                .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                .accept("ip")
                .start("eth"),
        )
}

#[test]
fn djv201_truncation_fires() {
    let p = eth_ip_base("t201")
        .action(
            ActionBuilder::new("squash")
                .set(fref("ipv4", "ttl"), Expr::field("ipv4", "src_addr"))
                .build(),
        )
        .control(ControlBuilder::new("ingress").invoke("squash").build())
        .entry("ingress")
        .build()
        .unwrap();
    let report = check(&p);
    let f = report
        .diagnostics
        .iter()
        .find(|f| f.code == LintCode::ValueTruncation)
        .expect("DJV201 fires");
    assert_eq!(f.entity, "squash");
    assert!(f.message.contains("32-bit"), "message: {}", f.message);
    assert!(f.message.contains("8 bits"), "message: {}", f.message);
}

#[test]
fn djv202_infeasible_branch_fires() {
    // Outer guard pins ttl < 4; the nested arm demands ttl == 9.
    let p = eth_ip_base("t202")
        .action(ActionBuilder::new("nop").build())
        .control(
            ControlBuilder::new("ingress")
                .stmt(Stmt::If {
                    cond: BoolExpr::Cmp(Expr::field("ipv4", "ttl"), CmpOp::Lt, Expr::val(4, 8)),
                    then_branch: vec![Stmt::If {
                        cond: BoolExpr::Cmp(Expr::field("ipv4", "ttl"), CmpOp::Eq, Expr::val(9, 8)),
                        then_branch: vec![Stmt::Do("nop".into())],
                        else_branch: vec![],
                    }],
                    else_branch: vec![],
                })
                .build(),
        )
        .entry("ingress")
        .build()
        .unwrap();
    let report = check(&p);
    let f = report
        .diagnostics
        .iter()
        .find(|f| f.code == LintCode::InfeasiblePath)
        .expect("DJV202 fires");
    assert_eq!(f.entity, "ingress");
    assert!(f.message.contains("always false"), "message: {}", f.message);
    assert!(!f.witness.is_empty(), "witness records the path");
}

#[test]
fn djv203_unmatchable_entry_fires() {
    // The table only runs under ether_type == 0x800, yet the installed
    // entry matches 0x86DD.
    let p = eth_ip_base("t203")
        .action(ActionBuilder::new("nop").build())
        .table(
            TableBuilder::new("routes")
                .key_exact(fref("ethernet", "ether_type"))
                .action("nop")
                .default_action("nop")
                .build(),
        )
        .control(
            ControlBuilder::new("ingress")
                .stmt(Stmt::If {
                    cond: BoolExpr::Cmp(
                        Expr::field("ethernet", "ether_type"),
                        CmpOp::Eq,
                        Expr::val(0x800, 16),
                    ),
                    then_branch: vec![Stmt::Apply("routes".into())],
                    else_branch: vec![],
                })
                .build(),
        )
        .entry("ingress")
        .build()
        .unwrap();
    let cfg = LintConfig::new().with_entries(
        "routes",
        vec![vec![KeyMatch::Exact(Value::new(0x86DD, 16))]],
    );
    let report = check_with_config(&p, &cfg);
    let f = report
        .diagnostics
        .iter()
        .find(|f| f.code == LintCode::UnmatchableEntry)
        .expect("DJV203 fires");
    assert_eq!(f.entity, "routes");
    assert!(f.message.contains("entry 0"), "message: {}", f.message);
    assert!(report.has_errors(), "DJV203 is error-level by default");
}

#[test]
fn djv204_unbounded_recirc_fires() {
    // The resubmit flag is raised unconditionally and nothing ever
    // changes any field a guard could read.
    let p = eth_ip_base("t204")
        .action(
            ActionBuilder::new("again")
                .set(FieldRef::meta("resubmit_flag"), Expr::val(1, 1))
                .build(),
        )
        .control(ControlBuilder::new("ingress").invoke("again").build())
        .entry("ingress")
        .build()
        .unwrap();
    let report = check(&p);
    let f = report
        .diagnostics
        .iter()
        .find(|f| f.code == LintCode::UnboundedRecirc)
        .expect("DJV204 fires");
    assert_eq!(f.entity, "again");
    assert!(
        f.message.contains("no guarding condition"),
        "message: {}",
        f.message
    );
}

#[test]
fn djv301_register_hazard_fires() {
    let mut writer = Program::new("w");
    writer.registers.insert(
        "shared".into(),
        dejavu_p4ir::table::RegisterDef {
            name: "shared".into(),
            width_bits: 32,
            size: 8,
        },
    );
    writer.actions.insert(
        "bump".into(),
        dejavu_p4ir::ActionDef::simple(
            "bump",
            vec![dejavu_p4ir::PrimitiveOp::RegisterWrite {
                register: "shared".into(),
                index: Expr::val(0, 8),
                value: Expr::val(1, 32),
            }],
        ),
    );
    let mut reader = Program::new("r");
    reader.actions.insert(
        "peek".into(),
        dejavu_p4ir::ActionDef::simple(
            "peek",
            vec![dejavu_p4ir::PrimitiveOp::RegisterRead {
                dst: FieldRef::meta("m0"),
                register: "shared".into(),
                index: Expr::val(0, 8),
            }],
        ),
    );
    let report = analyze_pipelets(&[("ingress0".into(), &writer), ("egress1".into(), &reader)]);
    let f = report
        .diagnostics
        .iter()
        .find(|f| f.code == LintCode::RegisterHazard)
        .expect("DJV301 fires");
    assert_eq!(f.entity, "shared");
    assert_eq!(f.witness, vec!["egress1: read", "ingress0: write"]);
}

#[test]
fn djv302_learn_contract_mismatch_fires() {
    // The digest carries (src_addr:32, port:16); the contract installs the
    // 16-bit field into the 32-bit key.
    let p = eth_ip_base("t302")
        .header(well_known::tcp())
        .action(
            ActionBuilder::new("learn")
                .digest(
                    "flow",
                    vec![
                        Expr::field("ipv4", "src_addr"),
                        Expr::field("tcp", "src_port"),
                    ],
                )
                .build(),
        )
        .action(ActionBuilder::new("hit").build())
        .table(
            TableBuilder::new("sessions")
                .key_exact(fref("ipv4", "src_addr"))
                .action("hit")
                .default_action("hit")
                .build(),
        )
        .control(ControlBuilder::new("ingress").apply("sessions").build())
        .entry("ingress")
        .build()
        .unwrap();
    let contract = LearnContract {
        nf: "t302".into(),
        stream: "flow".into(),
        target_table: "sessions".into(),
        target_action: "hit".into(),
        key_map: vec![1], // 16-bit digest field into the 32-bit key
        arg_map: vec![],
    };
    let aged = ["sessions".to_string()].into();
    let report = check_learn_contracts(&p, &[contract], &aged);
    let f = report
        .diagnostics
        .iter()
        .find(|f| f.code == LintCode::LearnContractMismatch)
        .expect("DJV302 fires");
    assert_eq!(f.entity, "t302/flow");
    assert!(
        f.message.contains("16 bits") && f.message.contains("32 bits"),
        "message: {}",
        f.message
    );
    assert!(
        f.witness[0].contains("sessions.hit"),
        "witness: {:?}",
        f.witness
    );
}

#[test]
fn djv303_learn_without_aging_fires() {
    // A perfectly conforming contract, but nobody enabled idle timeouts on
    // the learned table.
    let nf = dejavu_nf::nat::dynamic_nat();
    let contract = dejavu_nf::nat::nat_learn_contract();
    let report = check_learn_contracts(nf.program(), &[contract], &Default::default());
    let codes: Vec<_> = report.diagnostics.iter().map(|f| f.code).collect();
    assert_eq!(codes, vec![LintCode::LearnWithoutAging]);
    let f = &report.diagnostics[0];
    assert_eq!(f.entity, "nat/nat_flow");
    assert!(
        f.witness[0].contains("set_idle_timeout"),
        "witness points at the fix: {:?}",
        f.witness
    );
}

/// One report carries every band, and its JSON is the same shape for all of
/// them: `scripts/check.sh` and CI read the artifact `lint_nfs` writes with a
/// generic parser, so a structural (DJV0xx) and a value (DJV2xx) diagnostic
/// must both parse and both carry `notes` and `witness` arrays.
#[test]
fn merged_report_json_parses_with_both_bands() {
    use serde::json::Value as Json;
    // ipv4 is never parsed: DJV001 on the table key (with a note); the
    // 48 → 8 bit copy is DJV201 (with a witness).
    let program = ProgramBuilder::new("both")
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .meta_field("narrow", 8)
        .parser(
            ParserBuilder::new()
                .node("eth", "ethernet", 0)
                .accept("eth")
                .start("eth"),
        )
        .action(
            ActionBuilder::new("squeeze")
                .set(FieldRef::meta("narrow"), Expr::field("ethernet", "dst_mac"))
                .build(),
        )
        .table(
            TableBuilder::new("routes")
                .key_exact(fref("ipv4", "dst_addr"))
                .action("squeeze")
                .default_action("squeeze")
                .build(),
        )
        .control(ControlBuilder::new("ingress").apply("routes").build())
        .entry("ingress")
        .build()
        .unwrap();
    let mut report = dejavu_p4ir::lint::check(&program);
    report.merge(check(&program));
    let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(
        codes,
        vec![LintCode::InvalidHeaderAccess, LintCode::ValueTruncation],
        "{}",
        report.render_pretty()
    );
    let pretty = report.render_pretty();
    assert!(pretty.contains("  note: ") && pretty.contains("  via: action squeeze"));

    let parsed = dejavu_asic::telemetry::parse_json(&report.render_json()).expect("valid JSON");
    let Json::Array(objects) = parsed else {
        panic!("findings artifact must be a JSON array");
    };
    assert_eq!(objects.len(), 2);
    for (object, code) in objects.iter().zip(["DJV001", "DJV201"]) {
        let Json::Object(fields) = object else {
            panic!("each finding is an object: {object:?}");
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert_eq!(get("code"), Some(&Json::Str(code.into())));
        for key in ["severity", "entity", "message"] {
            assert!(
                matches!(get(key), Some(Json::Str(_))),
                "{key} in {object:?}"
            );
        }
        for key in ["notes", "witness"] {
            assert!(
                matches!(get(key), Some(Json::Array(_))),
                "{key} in {object:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Soundness: no live branch arm is ever reported infeasible.
// ---------------------------------------------------------------------------

/// One comparison `ipv4.<field> <op> <const>` over a small domain, so
/// nested conditions contradict (and DJV202 fires) reasonably often.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cond {
    field: usize, // index into COND_FIELDS
    op: CmpOp,
    k: u8,
}

const COND_FIELDS: [(&str, u16); 3] = [("ttl", 8), ("protocol", 8), ("dscp", 6)];

impl Cond {
    fn bool_expr(&self) -> BoolExpr {
        let (name, bits) = COND_FIELDS[self.field];
        BoolExpr::Cmp(
            Expr::field("ipv4", name),
            self.op,
            Expr::val(u128::from(self.k), bits),
        )
    }

    /// The exact rendering `dejavu-analyze` uses in DJV202 messages.
    fn desc(&self) -> String {
        let (name, bits) = COND_FIELDS[self.field];
        let sym = match self.op {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        format!("ipv4.{name} {sym} {}", Value::new(u128::from(self.k), bits))
    }
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    (
        0usize..COND_FIELDS.len(),
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
        ],
        0u8..6,
    )
        .prop_map(|(field, op, k)| Cond { field, op, k })
}

/// Builds a full binary decision tree of depth 3 (7 nodes, 14 arms). Arm
/// `2*i` (then) and `2*i + 1` (else) of node `i` each OR a distinct bit
/// into `meta.m0`; a trailing action exposes the bitmap in
/// `ipv4.src_addr` and forwards the packet, so the wire bytes of every
/// emitted packet record exactly which arms ran.
fn tree_program(conds: &[Cond; 7]) -> Program {
    let mut b = eth_ip_base("sound").meta_field("m0", 16);
    for arm in 0..14u8 {
        b = b.action(
            ActionBuilder::new(format!("mark{arm}"))
                .set(
                    FieldRef::meta("m0"),
                    Expr::Or(
                        Box::new(Expr::meta("m0")),
                        Box::new(Expr::val(1u128 << arm, 16)),
                    ),
                )
                .build(),
        );
    }
    b = b.action(
        ActionBuilder::new("expose")
            .set(fref("ipv4", "src_addr"), Expr::meta("m0"))
            .set(FieldRef::meta("egress_spec"), Expr::val(1, 16))
            .build(),
    );

    // Nodes laid out heap-style: node i has children 2i+1 / 2i+2; leaves
    // (4..7) have no children.
    fn node(i: usize, conds: &[Cond; 7]) -> Stmt {
        let mut then_branch = vec![Stmt::Do(format!("mark{}", 2 * i))];
        let mut else_branch = vec![Stmt::Do(format!("mark{}", 2 * i + 1))];
        if 2 * i + 2 < 7 {
            then_branch.push(node(2 * i + 1, conds));
            else_branch.push(node(2 * i + 2, conds));
        }
        Stmt::If {
            cond: conds[i].bool_expr(),
            then_branch,
            else_branch,
        }
    }

    b.control(
        ControlBuilder::new("ingress")
            .stmt(node(0, conds))
            .invoke("expose")
            .build(),
    )
    .entry("ingress")
    .build()
    .expect("decision tree validates")
}

/// Arms reported infeasible by DJV202 — only for conditions whose
/// rendering is unique in the tree (a duplicated condition string cannot
/// be attributed to one node).
fn flagged_arms(program: &Program, conds: &[Cond; 7]) -> Vec<u8> {
    let report = check(program);
    let mut flagged = Vec::new();
    for (i, c) in conds.iter().enumerate() {
        if conds.iter().filter(|o| o.desc() == c.desc()).count() != 1 {
            continue;
        }
        let then_dead = format!("branch condition `{}` is always false", c.desc());
        let else_dead = format!(
            "else-branch of always-true condition `{}` never runs",
            c.desc()
        );
        for f in &report.diagnostics {
            if f.code != LintCode::InfeasiblePath {
                continue;
            }
            if f.message == then_dead {
                flagged.push(2 * i as u8);
            } else if f.message == else_dead {
                flagged.push(2 * i as u8 + 1);
            }
        }
    }
    flagged
}

/// Guards the proptest against vacuity: a planted contradiction must
/// produce a flagged arm for the harness to check against live traffic.
#[test]
fn harness_detects_planted_contradiction() {
    let mut conds = [
        Cond {
            field: 0,
            op: CmpOp::Lt,
            k: 2,
        }, // node 0: ttl < 2
        Cond {
            field: 0,
            op: CmpOp::Ge,
            k: 2,
        }, // node 1 (then-child): ttl >= 2
        Cond {
            field: 1,
            op: CmpOp::Eq,
            k: 0,
        },
        Cond {
            field: 2,
            op: CmpOp::Lt,
            k: 1,
        },
        Cond {
            field: 2,
            op: CmpOp::Gt,
            k: 1,
        },
        Cond {
            field: 1,
            op: CmpOp::Ne,
            k: 3,
        },
        Cond {
            field: 0,
            op: CmpOp::Le,
            k: 5,
        },
    ];
    let program = tree_program(&conds);
    // Node 1 sits under "ttl < 2", so its own "ttl >= 2" is always false:
    // its then-arm (bit 2) is dead.
    assert!(
        flagged_arms(&program, &conds).contains(&2),
        "planted contradiction must be flagged"
    );

    // And a duplicated condition string is never attributed to any node:
    // node 1 repeating node 0's condition makes node 1's else-arm (bit 3)
    // dead, but the shared rendering is ambiguous, so it stays unflagged.
    conds[1] = conds[0];
    let program = tree_program(&conds);
    let flagged = flagged_arms(&program, &conds);
    assert!(!flagged.contains(&2) && !flagged.contains(&3));
}

fn packet(ttl: u8, protocol: u8, dscp: u8) -> Vec<u8> {
    let mut p = dejavu_traffic::PacketBuilder::udp()
        .src_ip(0x0a00_0001)
        .dst_ip(0x0a00_0002)
        .src_port(1000)
        .dst_port(53)
        .ttl(ttl)
        .build();
    p[15] = dscp << 2; // ToS byte: DSCP in the top six bits
    p[23] = protocol;
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn no_live_arm_reported_infeasible(
        conds_vec in proptest::collection::vec(arb_cond(), 7),
        packets in proptest::collection::vec((0u8..8, 0u8..8, 0u8..8), 1..24),
    ) {
        let conds: [Cond; 7] = conds_vec.try_into().unwrap();
        let program = tree_program(&conds);
        let flagged = flagged_arms(&program, &conds);

        for mode in [ExecMode::Reference, ExecMode::Compiled] {
            let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
            sw.set_exec_mode(mode);
            sw.load_program(PipeletId::ingress(0), program.clone()).unwrap();
            for &(ttl, protocol, dscp) in &packets {
                let t = sw.inject(InjectedPacket::new(packet(ttl, protocol, dscp), 0)).unwrap();
                // The arm bitmap the data plane recorded, read back from
                // the rewritten source address.
                let b = &t.final_bytes[26..30];
                let executed = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
                for &arm in &flagged {
                    prop_assert!(
                        executed & (1 << arm) == 0,
                        "{mode:?}: arm {arm} executed (bitmap {executed:#x}) for packet \
                         (ttl={ttl}, proto={protocol}, dscp={dscp}) despite being \
                         reported infeasible; conds: {conds:?}",
                    );
                }
            }
        }
    }
}
