//! The checks a pipelet goes through, pinned bit for bit.
//!
//! Before a program reaches a switch it is validated
//! (`Program::validate`), linted by both per-program passes of
//! `dejavu-lint` (the structural pass and the abstract-interpretation
//! pass), given a table dependency graph, and allocated onto stages. This
//! binary pins what each of them says about a fixed corpus, in FNV-1a
//! hashes of:
//!
//! * the merged lint + analysis report as `LintReport::render_json` prints
//!   it (every diagnostic's code, severity, entity, message, notes and
//!   witness, in report order);
//! * the dependency graph (apply order and every edge with its kind);
//! * `Program::validate`'s verdict and the `StageAllocator` outcome (each
//!   table's first and last stage, its charged demand and every stage's
//!   usage, or the refusal).
//!
//! The corpus: every NF of `dejavu_nf` under the default configuration;
//! every composed pipelet of the Fig. 2 plan `plan_deploy` deploys, of the
//! §5 prototype and of both `migrate_live` placements' members, under
//! `pipelet_lint_config`; and four seeded families of 64 programs — pairs
//! of `arb_clean_nf` composed, merged `arb_subparser` parsers,
//! `arb_messy_program`, and the value-analysis programs built below. A
//! family is folded into one hash; when one differs, every rendered
//! program of it is printed, so the diff against the recorded code can be
//! read off directly.
//!
//! Values recorded at e8149bc, where each check cloned the tables, actions
//! and control bodies it visited and kept its per-path state in string-keyed
//! sets and maps.

mod generators;

use dejavu_asic::{Gress, PipeletId, TofinoProfile};
use dejavu_compiler::StageAllocator;
use dejavu_core::compose::{compose_pipelet, CompositionMode, PipeletPlan, PlannedNf};
use dejavu_core::lint::pipelet_lint_config;
use dejavu_core::merge::{merge_parsers, merge_programs};
use dejavu_core::multiswitch::{ClusterPlacement, ClusterProblem};
use dejavu_core::orchestrator::{ExhaustiveSearch, FleetProblem, PlacementSearch};
use dejavu_core::placement::{Placement, PlacementProblem};
use dejavu_core::{ChainPolicy, ChainSet, NfModule};
use dejavu_p4ir::builder::{ActionBuilder, ControlBuilder, ProgramBuilder, TableBuilder};
use dejavu_p4ir::table::KeyMatch;
use dejavu_p4ir::{
    analyze, fref, lint, well_known, BoolExpr, CmpOp, ControlBlock, DependencyGraph, Expr,
    FieldRef, LintConfig, ParserDag, PrimitiveOp, Program, Stmt, Value,
};
use generators::{arb_clean_nf, arb_messy_program, arb_subparser};
use proptest::strategy::Strategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Programs drawn per seeded family.
const SEEDS: u64 = 64;

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What the checks say about one program, rendered.
struct Rendered {
    report: String,
    graph: String,
    allocation: String,
    findings: usize,
}

fn render(program: &Program, config: &LintConfig) -> Rendered {
    let mut report = lint::check_with_config(program, config);
    report.merge(analyze::check_with_config(program, config));
    let graph = DependencyGraph::build(program);
    let mut shown = format!("order {:?}\n", graph.order);
    for e in &graph.edges {
        shown.push_str(&format!("{} -> {}: {:?}\n", e.from, e.to, e.kind));
    }
    let allocated = StageAllocator::new(TofinoProfile::wedge_100b_32x())
        .with_lint_config(config.clone())
        .compile(program);
    let allocation = match allocated {
        Ok(a) => {
            let used: Vec<_> = a.stages.iter().map(|s| s.used).collect();
            format!(
                "{:?}\nstage_of {:?}\nlast_stage_of {:?}\ndemand_of {:?}\nused {:?}",
                program.validate(),
                a.stage_of,
                a.last_stage_of,
                a.demand_of,
                used
            )
        }
        Err(e) => format!("{:?}\n{e:?}", program.validate()),
    };
    Rendered {
        report: report.render_json(),
        graph: shown,
        allocation,
        findings: report.diagnostics.len(),
    }
}

/// `(report, graph, allocation, findings)` of a group of programs, each
/// hash folded over the group in order.
type Pin = (u64, u64, u64, usize);

/// A program and the configuration it is checked under.
type Checked = (Program, LintConfig);

fn pin_of(label: &str, programs: &[Checked]) -> (Pin, String) {
    let rendered: Vec<Rendered> = programs.iter().map(|(p, c)| render(p, c)).collect();
    let fold = |part: fn(&Rendered) -> &str| {
        let all: Vec<&str> = rendered.iter().map(part).collect();
        fnv(&all.join("\n--\n"))
    };
    let pin = (
        fold(|r| &r.report),
        fold(|r| &r.graph),
        fold(|r| &r.allocation),
        rendered.iter().map(|r| r.findings).sum(),
    );
    let mut dump = String::new();
    for ((p, _), r) in programs.iter().zip(&rendered) {
        dump.push_str(&format!(
            "== {label} / {}\n{}\n{}{}\n",
            p.name, r.report, r.graph, r.allocation
        ));
    }
    (pin, dump)
}

fn check(pins: &[(&str, Vec<Checked>, Pin)]) {
    let mut wrong = Vec::new();
    for (label, programs, want) in pins {
        let (got, dump) = pin_of(label, programs);
        if got != *want {
            eprintln!("{dump}");
            wrong.push(format!("{label}: got {got:#x?}, pinned {want:#x?}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

// ---------------------------------------------------------------------
// Composed pipelets
// ---------------------------------------------------------------------

/// Every pipelet of `placement`, composed and configured as `deploy`
/// composes and vets it (the classifier is the entry NF).
fn composed(nfs: &[NfModule], placement: &Placement) -> Vec<Checked> {
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let merged = merge_programs("dejavu", &refs).expect("NFs merge");
    let profile = TofinoProfile::wedge_100b_32x();
    let mut out = Vec::new();
    for pipeline in 0..profile.pipelines {
        for gress in [Gress::Ingress, Gress::Egress] {
            let pipelet = PipeletId { pipeline, gress };
            let planned = placement.pipelets.get(&pipelet).into_iter().flatten();
            let plan = PipeletPlan {
                pipelet,
                nfs: planned
                    .map(|n| match n.as_str() {
                        "classifier" => PlannedNf::entry(n.clone()),
                        _ => PlannedNf::indexed(n.clone()),
                    })
                    .collect(),
                mode: placement.mode(pipelet),
            };
            let program = compose_pipelet(&merged, &plan).expect("pipelet composes");
            let config = pipelet_lint_config(&program, &plan);
            out.push((program, config));
        }
    }
    out
}

/// The Fig. 2 instance `plan_deploy` solves and deploys.
fn fig2_pipelets() -> Vec<Checked> {
    let stages = [
        ("classifier", 2u32),
        ("firewall", 3),
        ("vgw", 2),
        ("lb", 3),
        ("router", 3),
    ];
    let stages = stages
        .into_iter()
        .map(|(n, s)| (n.to_string(), s))
        .collect();
    let fig2 = PlacementProblem::new(ChainSet::edge_cloud_example(), stages);
    let placement = fig2.exhaustive(1 << 22).expect("Fig. 2 has an optimum");
    composed(&dejavu_nf::edge_cloud_suite(), &placement)
}

/// `migrate_live`'s fleet: classifier, dynamic NAT, router and a marker
/// NF over three switches; the optimum as weighted and with the weights
/// inverted.
fn migrate_live_placements() -> (Vec<NfModule>, [ClusterPlacement; 2]) {
    let chains = ChainSet::new(vec![
        ChainPolicy::new(1, "nat_path", vec!["classifier", "nat", "router"], 1.0),
        ChainPolicy::new(2, "mark_path", vec!["classifier", "mark_a"], 6.0),
    ])
    .expect("two valid chains");
    let stages = [("classifier", 2), ("nat", 6), ("router", 2), ("mark_a", 2)];
    let stages = stages
        .into_iter()
        .map(|(n, s)| (n.to_string(), s))
        .collect();
    let mut template = PlacementProblem::new(chains, stages);
    template.pipelines = 1;
    let fleet = FleetProblem::new(ClusterProblem::new(template, 3));
    let search = ExhaustiveSearch::default();
    let a = search.search(&fleet).expect("fleet has an optimum");
    let b = search
        .search(&fleet.with_weights(&[8.0, 1.0]))
        .expect("shifted fleet has an optimum");
    let nfs = vec![
        dejavu_nf::classifier::classifier(),
        dejavu_nf::nat::dynamic_nat(),
        dejavu_nf::router::router(),
        dejavu_integration::marker_nf("mark_a", 0),
    ];
    (nfs, [a.placement, b.placement])
}

// ---------------------------------------------------------------------
// Seeded families
// ---------------------------------------------------------------------

fn rng(family: u64, seed: u64) -> StdRng {
    StdRng::seed_from_u64(family.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed)
}

/// Two `arb_clean_nf`s merged and composed on one pipelet, in either order,
/// mode and gress.
fn clean_pair(seed: u64) -> Checked {
    let mut rng = rng(1, seed);
    let a = arb_clean_nf("alpha").sample(&mut rng);
    let b = arb_clean_nf("beta").sample(&mut rng);
    let merged = merge_programs("prop_sfc", &[&a, &b]).expect("clean NFs merge");
    let mut names = vec!["alpha", "beta"];
    if rng.gen_bool(0.5) {
        names.reverse();
    }
    let plan = PipeletPlan {
        pipelet: if rng.gen_bool(0.5) {
            PipeletId::ingress(0)
        } else {
            PipeletId::egress(0)
        },
        nfs: names.into_iter().map(PlannedNf::indexed).collect(),
        mode: if rng.gen_bool(0.5) {
            CompositionMode::Parallel
        } else {
            CompositionMode::Sequential
        },
    };
    let program = compose_pipelet(&merged, &plan).expect("clean NFs compose");
    let config = pipelet_lint_config(&program, &plan);
    (program, config)
}

/// One to four `arb_subparser`s merged into one parser, under a program
/// whose tables key on every header the universe has (some of which the
/// merged parser may never extract), guarded or not by their validity.
fn merged_subparsers(seed: u64) -> Checked {
    let mut rng = rng(2, seed);
    let n = rng.gen_range(1..5usize);
    let dags: Vec<(String, ParserDag)> = (0..n)
        .map(|i| (format!("nf{i}"), arb_subparser().sample(&mut rng)))
        .collect();
    let refs: Vec<(&str, &ParserDag)> = dags.iter().map(|(n, d)| (n.as_str(), d)).collect();
    let (parser, _) = merge_parsers(&refs).expect("sub-parsers merge");
    let mut b = ProgramBuilder::new("subparsers")
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .header(well_known::tcp())
        .header(well_known::udp())
        .parser(parser)
        .action(ActionBuilder::new("nop").build())
        .action(
            ActionBuilder::new("mark")
                .set(fref("ipv4", "dscp"), Expr::val(3, 6))
                .build(),
        );
    let mut control = ControlBuilder::new("ingress");
    for (i, key) in [
        fref("ethernet", "ether_type"),
        fref("ipv4", "dst_addr"),
        fref("tcp", "dst_port"),
        fref("udp", "dst_port"),
    ]
    .into_iter()
    .enumerate()
    {
        let name = format!("t{i}");
        let header = key.header.clone();
        b = b.table(
            TableBuilder::new(&name)
                .key_exact(key)
                .action("mark")
                .action("nop")
                .default_action("nop")
                .build(),
        );
        control = if rng.gen_bool(0.5) {
            control.stmt(Stmt::If {
                cond: BoolExpr::Valid(header),
                then_branch: vec![Stmt::Apply(name)],
                else_branch: vec![],
            })
        } else {
            control.apply(&name)
        };
    }
    let program = b
        .control(control.build())
        .entry("ingress")
        .build_unchecked();
    (program, LintConfig::new())
}

/// `arb_messy_program`, with installed-entry patterns for its first table.
fn messy(seed: u64) -> Checked {
    let mut rng = rng(3, seed);
    let program = arb_messy_program().sample(&mut rng);
    let patterns = (0..rng.gen_range(0..3usize))
        .map(|_| vec![key_match(&mut rng, 16)])
        .collect();
    (program, LintConfig::new().with_entries("t0", patterns))
}

fn key_match(rng: &mut StdRng, bits: u16) -> KeyMatch {
    let v = |rng: &mut StdRng| Value::new(u128::from(rng.gen_range(0..0x1_0000u32)), bits);
    match rng.gen_range(0..5u8) {
        0 => KeyMatch::Exact(v(rng)),
        1 => KeyMatch::Ternary(v(rng), v(rng)),
        2 => KeyMatch::Lpm(v(rng), rng.gen_range(0..=bits)),
        3 => {
            let (lo, hi) = (v(rng), v(rng));
            KeyMatch::Range(lo.min(hi), lo.max(hi))
        }
        _ => KeyMatch::Any,
    }
}

/// Fields the value programs read, write and branch on.
fn value_fields() -> [FieldRef; 7] {
    [
        fref("ethernet", "ether_type"),
        fref("ipv4", "ttl"),
        fref("ipv4", "dst_addr"),
        fref("tcp", "dst_port"),
        fref("udp", "dst_port"),
        FieldRef::meta("m0"),
        FieldRef::meta("m1"),
    ]
}

/// A random program built for the value analysis: parser selects with
/// feasible, duplicate and out-of-range cases and a re-parsed header,
/// nested gateways on parsed fields and metadata, `ApplySelect` arms (some
/// naming actions the table cannot run), resubmissions behind guards that
/// no action may write, narrowing assignments and register accesses,
/// installed entries for one table, and now and then a defect `validate`
/// refuses (an unlisted miss action, an undefined key field, a call or
/// apply of something undefined from the entry).
fn value_program(seed: u64) -> Checked {
    let mut rng = rng(4, seed);
    let mut p = Program::new("values");
    for h in [
        well_known::ethernet(),
        well_known::ipv4(),
        well_known::tcp(),
        well_known::udp(),
    ] {
        p.header_types.insert(h.name.clone(), h);
    }
    for (name, bits) in [("m0", 8), ("m1", 16), ("flag", 1)] {
        p.meta_fields.push(dejavu_p4ir::FieldDef {
            name: name.into(),
            bits,
        });
    }
    p.registers.insert(
        "r16".into(),
        dejavu_p4ir::table::RegisterDef {
            name: "r16".into(),
            width_bits: 16,
            size: 64,
        },
    );

    // Parser: eth → ipv4 → {tcp, udp, ipv4 again}, with extra cases.
    use dejavu_p4ir::{ParseNode, Target, Transition};
    let end = |rng: &mut StdRng| {
        if rng.gen_bool(0.7) {
            Target::Accept
        } else {
            Target::Reject
        }
    };
    let mut eth_cases = vec![(Value::new(0x0800, 16), Target::Node(1))];
    if rng.gen_bool(0.3) {
        eth_cases.push((Value::new(0x0800, 16), end(&mut rng)));
    }
    if rng.gen_bool(0.3) {
        eth_cases.push((Value::new(0x1_0800, 17), Target::Node(1)));
    }
    let mut ip_cases = vec![
        (Value::new(6, 8), Target::Node(2)),
        (Value::new(17, 8), Target::Node(3)),
    ];
    if rng.gen_bool(0.4) {
        ip_cases.push((Value::new(4, 8), Target::Node(4)));
    }
    if rng.gen_bool(0.3) {
        ip_cases.push((Value::new(300, 16), Target::Node(2)));
    }
    let (eth_default, ip_default) = (end(&mut rng), end(&mut rng));
    let nodes = [
        ("ethernet", 0, eth_cases, "ether_type", eth_default),
        ("ipv4", 14, ip_cases, "protocol", ip_default),
    ];
    for (header, offset, cases, field, default) in nodes {
        p.parser.add_node(ParseNode {
            header_type: header.into(),
            offset,
            transition: Transition::Select {
                field: field.into(),
                cases,
                default,
            },
        });
    }
    for (header, offset) in [("tcp", 34), ("udp", 34), ("ipv4", 34)] {
        p.parser.add_node(ParseNode {
            header_type: header.into(),
            offset,
            transition: Transition::Unconditional(Target::Accept),
        });
    }
    p.parser.start = Some(Target::Node(0));

    // Actions.
    let m0 = || FieldRef::meta("m0");
    let c = |raw: u128, bits: u16| Expr::val(raw, bits);
    let actions: Vec<(&str, Vec<PrimitiveOp>)> = vec![
        ("nop", vec![PrimitiveOp::NoOp]),
        (
            "set_m0",
            vec![PrimitiveOp::Set {
                dst: m0(),
                value: c(rng.gen_range(0..300u32).into(), 16),
            }],
        ),
        (
            "ttl_to_m1",
            vec![PrimitiveOp::Set {
                dst: FieldRef::meta("m1"),
                value: Expr::Add(Box::new(Expr::field("ipv4", "ttl")), Box::new(c(1, 8))),
            }],
        ),
        (
            "narrow",
            vec![PrimitiveOp::Set {
                dst: m0(),
                value: Expr::field("ipv4", "dst_addr"),
            }],
        ),
        (
            "masked",
            vec![PrimitiveOp::Set {
                dst: m0(),
                value: Expr::And(
                    Box::new(Expr::field("ipv4", "dst_addr")),
                    Box::new(c(0xff, 32)),
                ),
            }],
        ),
        (
            "resub",
            vec![PrimitiveOp::Set {
                dst: FieldRef::meta("resubmit_flag"),
                value: c(1, 1),
            }],
        ),
        (
            "resub_consume",
            vec![
                PrimitiveOp::Set {
                    dst: FieldRef::meta("recirc_flag"),
                    value: Expr::meta("flag"),
                },
                PrimitiveOp::Set {
                    dst: FieldRef::meta("flag"),
                    value: c(0, 1),
                },
            ],
        ),
        (
            "dec_ttl",
            vec![
                PrimitiveOp::Set {
                    dst: fref("ipv4", "ttl"),
                    value: Expr::Sub(Box::new(Expr::field("ipv4", "ttl")), Box::new(c(1, 8))),
                },
                PrimitiveOp::Ipv4ChecksumUpdate {
                    header: "ipv4".into(),
                },
            ],
        ),
        ("drop", vec![PrimitiveOp::Drop]),
        (
            "add_tcp",
            vec![PrimitiveOp::AddHeader {
                header: "tcp".into(),
                before: None,
            }],
        ),
        (
            "rm_udp",
            vec![PrimitiveOp::RemoveHeader {
                header: "udp".into(),
            }],
        ),
        (
            "reg_rw",
            vec![
                PrimitiveOp::RegisterRead {
                    dst: m0(),
                    register: "r16".into(),
                    index: c(0, 8),
                },
                PrimitiveOp::RegisterWrite {
                    register: "r16".into(),
                    index: Expr::field("tcp", "dst_port"),
                    value: Expr::field("ipv4", "dst_addr"),
                },
            ],
        ),
        (
            "hash",
            vec![PrimitiveOp::Hash {
                dst: FieldRef::meta("m1"),
                algo: dejavu_p4ir::action::HashAlgorithm::Crc16,
                inputs: vec![Expr::field("ipv4", "src_addr")],
            }],
        ),
    ];
    let action_names: Vec<&str> = actions.iter().map(|(n, _)| *n).collect();
    for (name, ops) in &actions {
        let mut def = dejavu_p4ir::ActionDef::simple(*name, ops.clone());
        if *name == "set_m0" && rng.gen_bool(0.3) {
            def.params.push(("p".into(), 8));
            def.ops.push(PrimitiveOp::Set {
                dst: FieldRef::meta("m1"),
                value: Expr::Param("p".into()),
            });
        }
        p.actions.insert(name.to_string(), def);
    }
    let pick = |rng: &mut StdRng, names: &[&str]| names[rng.gen_range(0..names.len())].to_string();

    // Tables.
    let fields = value_fields();
    let tables: Vec<String> = (0..rng.gen_range(2..6usize))
        .map(|i| format!("t{i}"))
        .collect();
    let mut key_width = BTreeMap::new();
    for name in &tables {
        let key = fields[rng.gen_range(0..fields.len())].clone();
        key_width.insert(name.clone(), p.field_width(&key).unwrap_or(16));
        let mut t = TableBuilder::new(name);
        t = match rng.gen_range(0..4u8) {
            0 => t.key_exact(key),
            1 => t.key_ternary(key),
            2 => t.key_lpm(key),
            _ => t.key_range(key),
        };
        let mut listed = Vec::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let a = pick(&mut rng, &action_names);
            if !listed.contains(&a) {
                t = t.action(&a);
                listed.push(a);
            }
        }
        let mut def = t.default_action(&listed[0]).build();
        if rng.gen_bool(0.1) {
            // A miss action the table may not list: refused by `validate`.
            def.default_action = pick(&mut rng, &action_names);
        }
        if rng.gen_bool(0.05) {
            def.keys.push(dejavu_p4ir::table::TableKey {
                field: fref("ipv4", "bogus"),
                kind: dejavu_p4ir::MatchKind::Exact,
            });
        }
        p.tables.insert(name.clone(), def);
    }

    // Controls: the entry, one callee and one dormant control.
    let mut ctx = StmtGen {
        rng: &mut rng,
        tables: &tables,
        actions: &action_names,
    };
    let sub = ctx.block(2, false);
    let dormant = ctx.block(1, false);
    let mut ingress = ctx.block(0, true);
    if rng.gen_bool(0.05) {
        ingress.push(Stmt::Call("ghost".into()));
    }
    if rng.gen_bool(0.05) {
        ingress.push(Stmt::Apply("ghost".into()));
    }
    for (name, body) in [("sub", sub), ("dormant", dormant), ("ingress", ingress)] {
        p.controls
            .insert(name.into(), ControlBlock::new(name, body));
    }
    p.entry = "ingress".into();

    let target = &tables[rng.gen_range(0..tables.len())];
    let bits = key_width[target];
    let patterns = (0..rng.gen_range(1..4usize))
        .map(|_| {
            let mut km = vec![key_match(&mut rng, bits)];
            if rng.gen_bool(0.1) {
                km.push(KeyMatch::Any); // wrong arity
            }
            km
        })
        .collect();
    (p, LintConfig::new().with_entries(target.clone(), patterns))
}

struct StmtGen<'a> {
    rng: &'a mut StdRng,
    tables: &'a [String],
    actions: &'a [&'a str],
}

impl StmtGen<'_> {
    fn block(&mut self, depth: usize, may_call: bool) -> Vec<Stmt> {
        let n = self.rng.gen_range(1..4usize);
        (0..n).map(|_| self.stmt(depth, may_call)).collect()
    }

    fn table(&mut self) -> String {
        self.tables[self.rng.gen_range(0..self.tables.len())].clone()
    }

    fn action(&mut self) -> String {
        self.actions[self.rng.gen_range(0..self.actions.len())].to_string()
    }

    fn stmt(&mut self, depth: usize, may_call: bool) -> Stmt {
        let nest = depth < 3;
        match self.rng.gen_range(0..6u8) {
            0 => Stmt::Apply(self.table()),
            1 if nest => {
                let table = self.table();
                let arms = (0..self.rng.gen_range(1..3usize))
                    .map(|_| (self.action(), self.block(depth + 1, may_call)))
                    .collect();
                let default = if self.rng.gen_bool(0.5) {
                    self.block(depth + 1, may_call)
                } else {
                    Vec::new()
                };
                Stmt::ApplySelect {
                    table,
                    arms,
                    default,
                }
            }
            2 | 3 if nest => {
                let cond = self.cond(2);
                let then_branch = self.block(depth + 1, may_call);
                let else_branch = if self.rng.gen_bool(0.5) {
                    self.block(depth + 1, may_call)
                } else {
                    Vec::new()
                };
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                }
            }
            4 if may_call => Stmt::Call("sub".into()),
            _ => Stmt::Do(self.action()),
        }
    }

    fn cond(&mut self, depth: usize) -> BoolExpr {
        let fields = value_fields();
        match self.rng.gen_range(0..6u8) {
            0 if depth > 0 => BoolExpr::And(
                Box::new(self.cond(depth - 1)),
                Box::new(self.cond(depth - 1)),
            ),
            1 if depth > 0 => BoolExpr::Or(
                Box::new(self.cond(depth - 1)),
                Box::new(self.cond(depth - 1)),
            ),
            2 if depth > 0 => BoolExpr::Not(Box::new(self.cond(depth - 1))),
            3 => {
                let headers = ["ipv4", "tcp", "udp"];
                BoolExpr::Valid(headers[self.rng.gen_range(0..3usize)].into())
            }
            _ => {
                let field = Expr::Field(fields[self.rng.gen_range(0..fields.len())].clone());
                let consts = [0u128, 1, 5, 64, 0x800, 300];
                let value = Expr::val(consts[self.rng.gen_range(0..consts.len())], 16);
                let ops = [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ];
                let op = ops[self.rng.gen_range(0..ops.len())];
                if self.rng.gen_bool(0.8) {
                    BoolExpr::Cmp(field, op, value)
                } else {
                    BoolExpr::Cmp(value, op, field)
                }
            }
        }
    }
}

fn family(f: fn(u64) -> Checked) -> Vec<Checked> {
    (0..SEEDS).map(f).collect()
}

// ---------------------------------------------------------------------
// The pins
// ---------------------------------------------------------------------

#[test]
fn nf_library_is_pinned() {
    let nfs = [
        dejavu_nf::classifier::classifier(),
        dejavu_nf::firewall::firewall(),
        dejavu_nf::firewall::conntrack_firewall(),
        dejavu_nf::vgw::vgw(),
        dejavu_nf::load_balancer::load_balancer(),
        dejavu_nf::load_balancer::affinity_lb(),
        dejavu_nf::router::router(),
        dejavu_nf::nat::nat(),
        dejavu_nf::nat::dynamic_nat(),
        dejavu_nf::mirror_tap::mirror_tap(),
        dejavu_nf::rate_limiter::rate_limiter(),
        dejavu_nf::syn_guard::syn_guard(),
        dejavu_nf::vxlan_gateway::vxlan_gateway(),
        dejavu_nf::null_nf("noop"),
    ];
    let pins: [Pin; 14] = [
        (
            0x3eed_b691_4fda_7020,
            0x5d41_780c_72ad_e21f,
            0x41ba_71a9_8a2a_b0f1,
            3,
        ),
        (
            0xdd4b_8d89_a89c_bb36,
            0xf766_e39e_84a2_c66d,
            0xc76f_bb7b_e4b1_4561,
            5,
        ),
        (
            0x5233_423f_3805_3950,
            0xa37c_8178_2c71_b7f7,
            0x6d3e_458c_d8c1_c04f,
            6,
        ),
        (
            0xa37f_fc2a_bd6c_bf62,
            0x98f6_5b03_f9d6_fefb,
            0x89a6_7438_f452_bb30,
            5,
        ),
        (
            0x0e39_5e30_e859_b5be,
            0xf3f4_3ddf_1c1a_c5ea,
            0x07ec_bd5e_8d6c_53fa,
            6,
        ),
        (
            0x0bec_224d_2ca2_2a5e,
            0xd9d1_5a45_f4fd_a4bc,
            0x2244_64e2_5762_137c,
            5,
        ),
        (
            0xdad5_7d4c_2287_0824,
            0x447e_e86a_bc10_f197,
            0xef0b_4802_1c20_6c90,
            5,
        ),
        (
            0xf72d_fbcc_0e84_6b1b,
            0x2fb5_5bfc_bcdc_0bc1,
            0xaee1_6209_e5d2_54c9,
            1,
        ),
        (
            0x4d1e_6a89_c88e_0053,
            0x1223_4f95_8e83_7e82,
            0x85a1_c394_8c2c_a28d,
            5,
        ),
        (
            0xa1b9_fef4_0246_a442,
            0x1e8c_c920_a01a_e7d3,
            0x53ac_0d4e_64a8_47fd,
            5,
        ),
        (
            0x0cab_c98b_cabb_ac90,
            0x5e32_9ef4_7262_9831,
            0x868c_3a7a_0704_97ad,
            2,
        ),
        (
            0xf302_0a93_be05_4a81,
            0x9222_90d4_a8c3_3ae1,
            0x38cf_b048_74c0_693b,
            4,
        ),
        (
            0x4863_365f_c320_4d05,
            0x0366_9858_236e_e707,
            0x3c3d_8bb8_80b8_a8d1,
            4,
        ),
        (
            0x0961_2b07_b5ec_b5a5,
            0x5616_68a8_7591_c52d,
            0xea78_7abb_236d_f284,
            0,
        ),
    ];
    let rows: Vec<_> = nfs
        .iter()
        .zip(pins)
        .map(|(nf, pin)| {
            let programs = vec![(nf.program().clone(), LintConfig::new())];
            (nf.name(), programs, pin)
        })
        .collect();
    check(&rows);
}

#[test]
fn composed_pipelets_are_pinned() {
    let (nfs, [a, b]) = migrate_live_placements();
    let members = |placement: &ClusterPlacement| -> Vec<Checked> {
        let members = placement.switches.iter();
        members.flat_map(|p| composed(&nfs, p)).collect()
    };
    let fig5 = [
        dejavu_nf::classifier::classifier(),
        dejavu_nf::firewall::firewall(),
        dejavu_nf::vgw::vgw(),
        dejavu_nf::load_balancer::load_balancer(),
        dejavu_nf::router::router(),
    ];
    check(&[
        (
            "fig2",
            fig2_pipelets(),
            (
                0xd399_6868_7eff_552b,
                0xfa08_b07f_c5ea_4906,
                0x5890_5650_3448_cea6,
                88,
            ),
        ),
        (
            "fig9",
            composed(&fig5, &dejavu_integration::fig9_placement()),
            (
                0xfc41_dadc_6a82_b9cf,
                0x9d4b_6781_d9ac_fc2b,
                0x927c_1457_1c16_5f26,
                88,
            ),
        ),
        (
            "migrate_live as weighted",
            members(&a),
            (
                0xe0e9_4dae_b7f5_fa6d,
                0x2c10_b7f4_51b8_f00f,
                0xfeeb_f9d9_f7a6_a3ce,
                163,
            ),
        ),
        (
            "migrate_live inverted",
            members(&b),
            (
                0x49da_ec63_98ab_e09d,
                0x83cb_4bd1_b413_9123,
                0x0a01_c76a_a8d4_cd62,
                163,
            ),
        ),
    ]);
}

#[test]
fn seeded_programs_are_pinned() {
    check(&[
        (
            "clean pairs",
            family(clean_pair),
            (
                0x7c4d_02de_01b3_8b28,
                0xad07_334b_af8b_97fc,
                0x1c05_f0a9_7da4_421a,
                986,
            ),
        ),
        (
            "merged sub-parsers",
            family(merged_subparsers),
            (
                0x49d6_8215_f39b_5c1b,
                0xb798_9fc5_c8a2_e203,
                0xd782_45fb_1e4b_e58a,
                104,
            ),
        ),
        (
            "messy programs",
            family(messy),
            (
                0x8ae8_a0dc_ff20_7455,
                0x1362_e4e0_8f33_c846,
                0xe600_a687_0a8a_e4e0,
                159,
            ),
        ),
        (
            "value programs",
            family(value_program),
            (
                0x1698_d3e2_11db_a460,
                0xc569_0c9b_9f1e_4db3,
                0x95ad_bb2c_ee26_e439,
                1085,
            ),
        ),
    ]);
}
