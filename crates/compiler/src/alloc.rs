//! Stage allocation: placing a program's tables into MAU stages.
//!
//! Implements the compiler pass Dejavu relies on (§3.2): given a program and
//! a pipelet's stage count/capacities, assign each table to a stage such
//! that
//!
//! * match/action dependencies put dependent tables in strictly later
//!   stages (successor dependencies allow co-residence with predication),
//! * no stage's resource capacity is exceeded.
//!
//! The allocator is ASAP-greedy over the dependency levels — the same
//! strategy the NSDI'15 compiler paper uses as its baseline. It reports
//! stage-by-stage usage, which [`crate::report`] turns into Table-1-style
//! percentages.

use crate::demand::{gateway_scopes, DemandModel};
use dejavu_asic::{ResourceVector, StageResources, TofinoProfile};
use dejavu_p4ir::analyze;
use dejavu_p4ir::lint::{self, LintConfig};
use dejavu_p4ir::{DependencyGraph, Program};
use std::collections::BTreeMap;
use std::fmt;

/// Why compilation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A table needs more resources than one whole stage offers.
    TableTooLarge {
        /// Offending table.
        table: String,
        /// Its demand.
        demand: Box<ResourceVector>,
    },
    /// The program needs more stages than the pipelet has.
    OutOfStages {
        /// Table that could not be placed.
        table: String,
        /// Stages available.
        stages: usize,
    },
    /// Program failed validation.
    InvalidProgram(String),
    /// The static verifier (`dejavu-lint`: the structural pass and the
    /// abstract-interpretation pass) found error-level defects.
    LintRejected {
        /// One summary line per error-level diagnostic.
        diagnostics: Vec<String>,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TableTooLarge { table, demand } => {
                write!(
                    f,
                    "table {table} exceeds single-stage capacity (needs {demand})"
                )
            }
            CompileError::OutOfStages { table, stages } => {
                write!(f, "no stage left for table {table} within {stages} stages")
            }
            CompileError::InvalidProgram(msg) => write!(f, "invalid program: {msg}"),
            CompileError::LintRejected { diagnostics } => {
                write!(
                    f,
                    "program rejected by dejavu-lint ({} error(s))",
                    diagnostics.len()
                )?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The result of compiling one program onto one pipelet.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Stage index of each placed table (first chunk, for split tables).
    pub stage_of: BTreeMap<String, usize>,
    /// Stage index of each table's last chunk (equals `stage_of` for
    /// unsplit tables); dependents are floored past this.
    pub last_stage_of: BTreeMap<String, usize>,
    /// Per-stage usage after placement.
    pub stages: Vec<StageResources>,
    /// Demand charged per table.
    pub demand_of: BTreeMap<String, ResourceVector>,
}

impl Allocation {
    /// Number of stages with any usage.
    pub fn stages_used(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.used != ResourceVector::ZERO)
            .count()
    }

    /// Highest stage index used, plus one (the program's stage span).
    pub fn stage_span(&self) -> usize {
        self.stage_of.values().map(|s| s + 1).max().unwrap_or(0)
    }

    /// Total resources used across stages.
    pub fn total_used(&self) -> ResourceVector {
        self.stages
            .iter()
            .fold(ResourceVector::ZERO, |acc, s| acc + s.used)
    }
}

/// Allocates programs onto pipelets of a given profile.
#[derive(Debug, Clone)]
pub struct StageAllocator {
    profile: TofinoProfile,
    model: DemandModel,
    lint_config: LintConfig,
}

impl StageAllocator {
    /// Allocator for a switch profile with the default demand model.
    pub fn new(profile: TofinoProfile) -> Self {
        StageAllocator {
            profile,
            model: DemandModel::default(),
            lint_config: LintConfig::new(),
        }
    }

    /// The demand model in use.
    pub fn model(&self) -> &DemandModel {
        &self.model
    }

    /// Replaces the verifier configuration programs are vetted under before
    /// allocation (severity overrides, allows, installed-entry sets for the
    /// `DJV203` feasibility check). The framework layers (dejavu-core) use
    /// this to encode their documented invariants (e.g. the consume-once
    /// flag tables).
    pub fn with_lint_config(mut self, config: LintConfig) -> Self {
        self.lint_config = config;
        self
    }

    /// The lint configuration in use.
    pub fn lint_config(&self) -> &LintConfig {
        &self.lint_config
    }

    /// Compiles a program onto one pipelet (fresh stages).
    pub fn compile(&self, program: &Program) -> Result<Allocation, CompileError> {
        let stages =
            vec![StageResources::new(self.profile.stage_capacity); self.profile.stages_per_pipelet];
        self.compile_onto(program, stages)
    }

    /// Compiles a program onto a pipelet that already has `stages` usage
    /// (for co-residency checks: can NF B share the pipelet NF A occupies?).
    pub fn compile_onto(
        &self,
        program: &Program,
        mut stages: Vec<StageResources>,
    ) -> Result<Allocation, CompileError> {
        program
            .validate()
            .map_err(|e| CompileError::InvalidProgram(e.to_string()))?;
        // The static-verifier gate: error-level findings of the structural
        // pass (invalid header accesses, read-before-write metadata,
        // dependency cycles, ...) and of the value pass (unmatchable
        // installed entries, ...) never reach stage allocation — they would
        // compile onto the ASIC and misbehave silently at line rate.
        let mut report = lint::check_with_config(program, &self.lint_config);
        report.merge(analyze::check_with_config(program, &self.lint_config));
        if report.has_errors() {
            return Err(CompileError::LintRejected {
                diagnostics: report.error_summaries(),
            });
        }
        let graph = DependencyGraph::build(program);
        let scopes = gateway_scopes(program);
        // The graph's edges by position in its apply order, with the stage
        // gap each forces. Every edge runs forward in that order, so one
        // pass over them yields the ASAP levels.
        let at = |name: &str| graph.order.iter().position(|t| t == name);
        let edges: Vec<(usize, usize, usize)> = graph
            .edges
            .iter()
            .filter_map(|e| Some((at(&e.from)?, at(&e.to)?, e.kind.min_stage_gap() as usize)))
            .collect();
        let mut level = vec![0; graph.order.len()];
        for &(from, to, gap) in &edges {
            level[to] = level[to].max(level[from] + gap);
        }

        // Place tables in apply order; each table goes to the earliest stage
        // that satisfies (a) its dependency floor relative to already-placed
        // predecessors and (b) resource fit.
        let mut stage_of: BTreeMap<String, usize> = BTreeMap::new();
        let mut last_stage_of: BTreeMap<String, usize> = BTreeMap::new();
        let mut demand_of: BTreeMap<String, ResourceVector> = BTreeMap::new();
        // Tables sorted by dependency level then apply order keeps the ASAP
        // schedule feasible.
        let mut order: Vec<usize> = (0..graph.order.len()).collect();
        order.sort_by_key(|&t| (level[t], t));

        let mut last_stage: Vec<Option<usize>> = vec![None; graph.order.len()];
        for t in order {
            let table_name = &graph.order[t];
            let table = program.tables.get(table_name).ok_or_else(|| {
                CompileError::InvalidProgram(format!("unknown table {table_name}"))
            })?;
            let scope = scopes.get(table_name.as_str()).copied().unwrap_or(0);
            let demand = self.model.table_demand(program, table, scope);

            // Large tables split across stages by depth, the way production
            // compilers spread match memory: chunk the declared capacity
            // until one chunk's demand fits a fresh stage.
            let chunks = self.split_into_chunks(program, table, scope, &demand)?;

            // Dependency floor: one past the *last* chunk stage of every
            // match/action predecessor; at least the stage of every
            // successor predecessor.
            let floor = edges
                .iter()
                .filter(|&&(_, to, _)| to == t)
                .filter_map(|&(from, _, gap)| Some(last_stage[from]? + gap))
                .max()
                .unwrap_or(0);

            let mut first_stage = None;
            let mut cursor = floor;
            let mut total = ResourceVector::ZERO;
            for chunk in &chunks {
                let mut placed = None;
                for (i, stage) in stages.iter_mut().enumerate().skip(cursor) {
                    if stage.fits(chunk) {
                        stage.charge(chunk);
                        placed = Some(i);
                        break;
                    }
                }
                let Some(stage_idx) = placed else {
                    return Err(CompileError::OutOfStages {
                        table: table_name.clone(),
                        stages: stages.len(),
                    });
                };
                first_stage.get_or_insert(stage_idx);
                cursor = stage_idx; // later chunks share or follow this stage
                total += *chunk;
            }
            let (first, last) = (first_stage.expect("at least one chunk"), cursor);
            last_stage[t] = Some(last);
            stage_of.insert(table_name.clone(), first);
            last_stage_of.insert(table_name.clone(), last);
            demand_of.insert(table_name.clone(), total);
        }
        Ok(Allocation {
            stage_of,
            last_stage_of,
            stages,
            demand_of,
        })
    }

    /// Splits a table's demand into per-stage chunks. A table whose full
    /// demand fits one fresh stage yields a single chunk; otherwise the
    /// declared capacity is halved until a chunk fits, and enough chunks are
    /// emitted to cover the full capacity. A table that cannot fit even at
    /// one entry is truly too large.
    fn split_into_chunks(
        &self,
        program: &Program,
        table: &dejavu_p4ir::TableDef,
        scope: u32,
        full_demand: &ResourceVector,
    ) -> Result<Vec<ResourceVector>, CompileError> {
        if full_demand.within(&self.profile.stage_capacity) {
            return Ok(vec![*full_demand]);
        }
        let mut chunk_size = table.size;
        loop {
            chunk_size /= 2;
            if chunk_size == 0 {
                return Err(CompileError::TableTooLarge {
                    table: table.name.clone(),
                    demand: Box::new(*full_demand),
                });
            }
            let mut chunk_table = table.clone();
            chunk_table.size = chunk_size;
            let chunk = self.model.table_demand(program, &chunk_table, scope);
            if chunk.within(&self.profile.stage_capacity) {
                let n = table.size.div_ceil(chunk_size) as usize;
                if n > self.profile.stages_per_pipelet {
                    // More chunks than stages can never fit.
                    return Err(CompileError::OutOfStages {
                        table: table.name.clone(),
                        stages: self.profile.stages_per_pipelet,
                    });
                }
                return Ok(vec![chunk; n]);
            }
        }
    }

    /// Convenience: does the program fit one pipelet at all?
    pub fn fits(&self, program: &Program) -> bool {
        self.compile(program).is_ok()
    }

    /// Convenience: can `second` be co-located on the pipelet already
    /// hosting `first` (parallel composition feasibility, §3.2)?
    pub fn fits_together(&self, first: &Program, second: &Program) -> bool {
        match self.compile(first) {
            Ok(alloc) => self.compile_onto(second, alloc.stages).is_ok(),
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::well_known;
    use dejavu_p4ir::{fref, Expr, FieldRef};

    /// Chain of `n` tables where table i+1 matches on the field written by
    /// table i — forcing n distinct stages.
    fn chained_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new("chain")
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
            .action(ActionBuilder::new("nop").build());
        let mut control = ControlBuilder::new("ingress");
        for i in 0..n {
            b = b
                .meta_field(format!("f{i}"), 16)
                .action(
                    ActionBuilder::new(format!("w{i}"))
                        .set(FieldRef::meta(format!("f{i}")), Expr::val(1, 16))
                        .build(),
                )
                .table(
                    TableBuilder::new(format!("t{i}"))
                        .key_exact(if i == 0 {
                            fref("ipv4", "dst_addr")
                        } else {
                            FieldRef::meta(format!("f{}", i - 1))
                        })
                        .action(format!("w{i}"))
                        .default_action(format!("w{i}"))
                        .size(64)
                        .build(),
                );
            control = control.apply(&format!("t{i}"));
        }
        b.control(control.build()).entry("ingress").build().unwrap()
    }

    /// `n` fully independent small tables.
    fn independent_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new("indep")
            .header(well_known::ethernet())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .accept("eth")
                    .start("eth"),
            );
        let mut control = ControlBuilder::new("ingress");
        for i in 0..n {
            b = b
                .meta_field(format!("f{i}"), 8)
                .action(
                    ActionBuilder::new(format!("w{i}"))
                        .set(FieldRef::meta(format!("f{i}")), Expr::val(1, 8))
                        .build(),
                )
                .table(
                    TableBuilder::new(format!("t{i}"))
                        .key_exact(fref("ethernet", "ether_type"))
                        .action(format!("w{i}"))
                        .default_action(format!("w{i}"))
                        .size(64)
                        .build(),
                );
            control = control.apply(&format!("t{i}"));
        }
        b.control(control.build()).entry("ingress").build().unwrap()
    }

    /// A program whose table matches on a header the parser never extracts
    /// — structurally valid, semantically broken (DJV001).
    fn unparsed_header_program() -> Program {
        ProgramBuilder::new("broken")
            .header(well_known::ethernet())
            .header(well_known::ipv4())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .accept("eth")
                    .start("eth"),
            )
            .action(ActionBuilder::new("nop").build())
            .table(
                TableBuilder::new("routes")
                    .key_exact(fref("ipv4", "dst_addr"))
                    .action("nop")
                    .default_action("nop")
                    .build(),
            )
            .control(ControlBuilder::new("ingress").apply("routes").build())
            .entry("ingress")
            .build()
            .unwrap()
    }

    #[test]
    fn lint_errors_block_allocation() {
        let program = unparsed_header_program();
        assert!(
            program.validate().is_ok(),
            "fixture must pass structural validation"
        );
        let err = StageAllocator::new(TofinoProfile::wedge_100b_32x())
            .compile(&program)
            .unwrap_err();
        match err {
            CompileError::LintRejected { diagnostics } => {
                assert!(
                    diagnostics.iter().any(|d| d.contains("DJV001")),
                    "expected a DJV001 summary, got {diagnostics:?}"
                );
            }
            other => panic!("expected LintRejected, got {other:?}"),
        }
    }

    #[test]
    fn lint_config_can_waive_a_finding() {
        let program = unparsed_header_program();
        let cfg = LintConfig::new().set_severity(
            dejavu_p4ir::LintCode::InvalidHeaderAccess,
            dejavu_p4ir::Severity::Allow,
        );
        StageAllocator::new(TofinoProfile::wedge_100b_32x())
            .with_lint_config(cfg)
            .compile(&program)
            .expect("waived finding must not block allocation");
    }

    /// A clean program whose installed entries (supplied via the lint
    /// config) can never match: ingress guards the table behind
    /// `ether_type == 0x800`, yet the entry matches 0x86DD (DJV203).
    fn guarded_routes_program() -> Program {
        ProgramBuilder::new("guarded")
            .header(well_known::ethernet())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .accept("eth")
                    .start("eth"),
            )
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
                    .stmt(dejavu_p4ir::Stmt::If {
                        cond: dejavu_p4ir::BoolExpr::Cmp(
                            dejavu_p4ir::Expr::field("ethernet", "ether_type"),
                            dejavu_p4ir::CmpOp::Eq,
                            dejavu_p4ir::Expr::val(0x800, 16),
                        ),
                        then_branch: vec![dejavu_p4ir::Stmt::Apply("routes".into())],
                        else_branch: vec![],
                    })
                    .build(),
            )
            .entry("ingress")
            .build()
            .unwrap()
    }

    #[test]
    fn analysis_errors_block_allocation() {
        use dejavu_p4ir::table::KeyMatch;
        let program = guarded_routes_program();
        let cfg = LintConfig::new().with_entries(
            "routes",
            vec![vec![KeyMatch::Exact(dejavu_p4ir::Value::new(0x86DD, 16))]],
        );
        let err = StageAllocator::new(TofinoProfile::wedge_100b_32x())
            .with_lint_config(cfg)
            .compile(&program)
            .unwrap_err();
        match err {
            CompileError::LintRejected { diagnostics } => {
                assert!(
                    diagnostics.iter().any(|d| d.contains("DJV203")),
                    "expected a DJV203 summary, got {diagnostics:?}"
                );
            }
            other => panic!("expected LintRejected, got {other:?}"),
        }
    }

    #[test]
    fn analysis_config_can_waive_a_finding() {
        use dejavu_p4ir::table::KeyMatch;
        use dejavu_p4ir::{LintCode, Severity};
        // One program carrying a defect of each pass: the unmatchable entry
        // (DJV203, value pass) and a table keyed on a header the parser
        // never extracts (DJV001, structural pass).
        let mut program = guarded_routes_program();
        program
            .header_types
            .insert("ipv4".into(), well_known::ipv4());
        program.tables.insert(
            "l3".into(),
            TableBuilder::new("l3")
                .key_exact(fref("ipv4", "dst_addr"))
                .action("nop")
                .default_action("nop")
                .build(),
        );
        let ingress = program.controls.get_mut("ingress").unwrap();
        ingress.body.push(dejavu_p4ir::Stmt::Apply("l3".into()));

        let waive_entry = LintConfig::new()
            .with_entries(
                "routes",
                vec![vec![KeyMatch::Exact(dejavu_p4ir::Value::new(0x86DD, 16))]],
            )
            .set_severity(LintCode::UnmatchableEntry, Severity::Allow);
        let allocator = StageAllocator::new(TofinoProfile::wedge_100b_32x());
        match allocator
            .clone()
            .with_lint_config(waive_entry.clone())
            .compile(&program)
        {
            Err(CompileError::LintRejected { diagnostics }) => {
                assert_eq!(diagnostics.len(), 1, "{diagnostics:?}");
                assert!(diagnostics[0].contains("DJV001"), "{diagnostics:?}");
            }
            other => panic!("expected LintRejected for the unwaived DJV001, got {other:?}"),
        }
        // The same config carries the structural allow beside the waiver.
        allocator
            .with_lint_config(waive_entry.allow(LintCode::InvalidHeaderAccess, "l3"))
            .compile(&program)
            .expect("waived findings must not block allocation");
    }

    #[test]
    fn chained_tables_occupy_distinct_stages() {
        let alloc = StageAllocator::new(TofinoProfile::wedge_100b_32x())
            .compile(&chained_program(5))
            .unwrap();
        assert_eq!(alloc.stage_span(), 5);
        for i in 0..5 {
            assert_eq!(alloc.stage_of[&format!("t{i}")], i);
        }
    }

    #[test]
    fn independent_tables_share_stages() {
        let alloc = StageAllocator::new(TofinoProfile::wedge_100b_32x())
            .compile(&independent_program(8))
            .unwrap();
        // All eight fit in stage 0 (16 table IDs per stage).
        assert_eq!(alloc.stage_span(), 1);
        assert_eq!(alloc.stages_used(), 1);
    }

    #[test]
    fn out_of_stages_detected() {
        let profile = TofinoProfile::tiny(); // 4 stages
        let err = StageAllocator::new(profile)
            .compile(&chained_program(5))
            .unwrap_err();
        assert!(matches!(err, CompileError::OutOfStages { .. }));
    }

    #[test]
    fn too_many_independent_tables_spill_to_next_stage() {
        // tiny profile has 4 table IDs per stage; 6 independent tables must
        // spill into stage 1.
        let alloc = StageAllocator::new(TofinoProfile::tiny())
            .compile(&independent_program(6))
            .unwrap();
        assert_eq!(alloc.stage_span(), 2);
    }

    #[test]
    fn giant_table_rejected() {
        // 100M entries split into more chunks than the pipelet has stages.
        let mut p = independent_program(1);
        p.tables.get_mut("t0").unwrap().size = 100_000_000;
        let err = StageAllocator::new(TofinoProfile::wedge_100b_32x())
            .compile(&p)
            .unwrap_err();
        assert!(
            matches!(err, CompileError::OutOfStages { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn large_table_splits_across_stages() {
        // An LPM table too deep for one stage's TCAM splits by depth: it
        // compiles, spans several stages, and dependents land after its
        // last chunk.
        let mut p = independent_program(1);
        {
            let t = p.tables.get_mut("t0").unwrap();
            t.keys[0].kind = dejavu_p4ir::MatchKind::Lpm;
            t.size = 512 * 30; // 30 depth blocks > 24 per stage
        }
        let alloc = StageAllocator::new(TofinoProfile::wedge_100b_32x())
            .compile(&p)
            .unwrap();
        let first = alloc.stage_of["t0"];
        let last = alloc.last_stage_of["t0"];
        assert!(last >= first, "chunks go forward");
        assert!(alloc.total_used().tcam_blocks >= 30);
        // The whole thing still fits the pipelet.
        assert!(alloc.stage_span() <= 12);
    }

    #[test]
    fn fits_together_respects_shared_capacity() {
        let alloc = StageAllocator::new(TofinoProfile::tiny());
        let a = independent_program(2);
        let b = independent_program(2);
        assert!(alloc.fits_together(&a, &b));
        // Ten + ten tables cannot share a 4-stage × 4-id pipelet.
        let big_a = independent_program(10);
        let big_b = independent_program(10);
        assert!(!alloc.fits_together(&big_a, &big_b));
    }

    #[test]
    fn total_used_matches_demands() {
        let p = independent_program(3);
        let alloc = StageAllocator::new(TofinoProfile::wedge_100b_32x())
            .compile(&p)
            .unwrap();
        let sum = alloc
            .demand_of
            .values()
            .fold(dejavu_asic::ResourceVector::ZERO, |acc, d| acc + *d);
        assert_eq!(alloc.total_used(), sum);
    }
}
