//! `dejavu-lint`: the diagnostics framework and its structural pass.
//!
//! [`Program::validate`](crate::Program::validate) catches *malformed* IR
//! (dangling names, width overflows). The static verifier catches
//! *well-formed but wrong* programs — the defect classes that surface only
//! after NFs are merged and composed onto a pipelet (paper §3), when no
//! human reads the generated program anymore.
//!
//! This module owns everything the verifier's passes share: the one
//! registry ([`LintCode`], `DJV001`–`DJV303`), the one finding type
//! ([`Diagnostic`]), the one configuration ([`LintConfig`]: severity
//! overrides, per-entity allows, installed-entry patterns) and the one
//! report ([`LintReport`]), whose [`LintReport::emit`] is the only place a
//! configuration is applied to a finding. A *pass* is a function from a
//! program (or several) and a `&LintConfig` to a `LintReport`; reports
//! [`merge`](LintReport::merge). The passes:
//!
//! * the structural dataflow pass below ([`check`] / [`check_with_config`],
//!   `DJV001`–`DJV008`),
//! * the abstract-interpretation pass in [`crate::analyze`] (`DJV201`–`DJV204`),
//! * `dejavu-core`'s chain-aware passes (`DJV101`–`DJV103`, `DJV301`–`DJV303`).
//!
//! `dejavu-compiler`'s `StageAllocator` runs the two per-program passes
//! under one `LintConfig` and refuses to allocate a program whose merged
//! report carries an error-level diagnostic.
//!
//! What the structural pass checks:
//!
//! * **Header-validity analysis** (`DJV001`/`DJV002`): from the parser DAG
//!   we compute, per control-flow point, the lattice of *guaranteed-parsed*
//!   and *maybe-parsed* header sets (guaranteed ⊆ maybe). A table key or
//!   action operand reading a header that is in neither set — no parser
//!   path extracts it and no action adds it — reads garbage on every packet
//!   (`DJV001`, error). Reading a header that is valid on only *some*
//!   reaching paths is ordinary in a generic parser that accepts both raw
//!   and SFC-encapsulated packets, so it is an `Allow`-level advisory
//!   (`DJV002`). Writes to never-valid headers are silent no-ops in the
//!   interpreter (and on the ASIC) and also report as `DJV002` — the
//!   firewall's `sfc.drop_flag` write on an un-encapsulated packet is the
//!   canonical intentional case.
//! * **Metadata def-use analysis** (`DJV003`): user metadata read (table
//!   key, action operand, or `if` condition) with **no** potential write on
//!   any reaching path. Standard platform metadata is hardware-initialized
//!   and exempt.
//!
//!   Both are a domain of the walk the value pass runs too (the
//!   crate-private `walk` module); this one prunes nothing.
//! * **Structural checks**: mutual table dependencies that no stage order
//!   can satisfy (`DJV004`), tables never applied from the entry control
//!   (`DJV005`), controls unreachable from the entry (`DJV006`), ambiguous
//!   or redundant parser select cases (`DJV007`), and duplicate match keys
//!   (`DJV008`).

use crate::action::{ActionDef, PrimitiveOp};
use crate::control::{BoolExpr, Stmt};
use crate::deps::{Part, TableFlow};
use crate::header::FieldView;
use crate::parser::{ParseNode, Transition};
use crate::program::{Program, STANDARD_METADATA};
use crate::table::{KeyMatch, TableDef};
use crate::walk::{walk, Domain, Trail};
use std::collections::BTreeMap;
use std::fmt;

/// How seriously a finding is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Recorded for visibility; never blocks anything.
    Allow,
    /// Suspicious; reported but does not block allocation.
    Warning,
    /// Definite defect; `StageAllocator` refuses the program.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The diagnostic registry: every class of finding any pass can emit, with a
/// stable `DJVxxx` code. The hundreds digit names the band: `0xx` structural,
/// `1xx` chain framework, `2xx` value analysis, `3xx` stateful safety.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// `DJV001` — read/match of a header valid on **no** parser path.
    InvalidHeaderAccess,
    /// `DJV002` — access to a header valid on only some reaching paths, or
    /// a silent no-op write to a never-valid header.
    MaybeInvalidHeaderAccess,
    /// `DJV003` — user metadata read with no potential prior write.
    ReadBeforeWrite,
    /// `DJV004` — two tables each consuming the other's output: no stage
    /// order satisfies both data dependencies.
    DependencyCycle,
    /// `DJV005` — table defined but never applied from the entry control.
    UnreachableTable,
    /// `DJV006` — control block unreachable from the entry control.
    UnreachableControl,
    /// `DJV007` — duplicate case value in a parser select transition.
    AmbiguousSelect,
    /// `DJV008` — the same field appears twice in a table's match key.
    DuplicateMatchKey,
    /// `DJV101` — composed pipelet program violates an SFC framework
    /// invariant (emitted by `dejavu-core`).
    SfcInvariant,
    /// `DJV102` — weighted recirculation demand exceeds the loopback
    /// budget of the switch profile (emitted by `dejavu-core`).
    RecircBudget,
    /// `DJV103` — the routing entries installed on a switch walk a chain
    /// differently from the traversal model (emitted by `dejavu-core`).
    RoutingWalk,
    /// `DJV201` — assignment or register access that may truncate a value
    /// into a narrower destination.
    ValueTruncation,
    /// `DJV202` — select case, branch arm, or `ApplySelect` arm that can
    /// never execute.
    InfeasiblePath,
    /// `DJV203` — installed-entry pattern no feasible key value matches.
    UnmatchableEntry,
    /// `DJV204` — resubmit/recirculate flag set with no guard, or a guard
    /// no action ever changes: a provably unbounded loop.
    UnboundedRecirc,
    /// `DJV301` — the same register accessed from two or more merged
    /// pipelets with at least one writer (emitted by `dejavu-core`).
    RegisterHazard,
    /// `DJV302` — digest payload layout disagrees with the registered
    /// learn policy's key/action mapping (emitted by `dejavu-core`).
    LearnPolicyMismatch,
    /// `DJV303` — a learn policy installs into a table without
    /// idle-timeout aging: table exhaustion under churn (emitted by
    /// `dejavu-core`).
    LearnWithoutAging,
}

impl LintCode {
    /// Every registered lint, in code order.
    pub const ALL: [LintCode; 18] = [
        LintCode::InvalidHeaderAccess,
        LintCode::MaybeInvalidHeaderAccess,
        LintCode::ReadBeforeWrite,
        LintCode::DependencyCycle,
        LintCode::UnreachableTable,
        LintCode::UnreachableControl,
        LintCode::AmbiguousSelect,
        LintCode::DuplicateMatchKey,
        LintCode::SfcInvariant,
        LintCode::RecircBudget,
        LintCode::RoutingWalk,
        LintCode::ValueTruncation,
        LintCode::InfeasiblePath,
        LintCode::UnmatchableEntry,
        LintCode::UnboundedRecirc,
        LintCode::RegisterHazard,
        LintCode::LearnPolicyMismatch,
        LintCode::LearnWithoutAging,
    ];

    /// The stable diagnostic code.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::InvalidHeaderAccess => "DJV001",
            LintCode::MaybeInvalidHeaderAccess => "DJV002",
            LintCode::ReadBeforeWrite => "DJV003",
            LintCode::DependencyCycle => "DJV004",
            LintCode::UnreachableTable => "DJV005",
            LintCode::UnreachableControl => "DJV006",
            LintCode::AmbiguousSelect => "DJV007",
            LintCode::DuplicateMatchKey => "DJV008",
            LintCode::SfcInvariant => "DJV101",
            LintCode::RecircBudget => "DJV102",
            LintCode::RoutingWalk => "DJV103",
            LintCode::ValueTruncation => "DJV201",
            LintCode::InfeasiblePath => "DJV202",
            LintCode::UnmatchableEntry => "DJV203",
            LintCode::UnboundedRecirc => "DJV204",
            LintCode::RegisterHazard => "DJV301",
            LintCode::LearnPolicyMismatch => "DJV302",
            LintCode::LearnWithoutAging => "DJV303",
        }
    }

    /// Severity when no [`LintConfig`] override applies.
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::MaybeInvalidHeaderAccess => Severity::Allow,
            LintCode::UnreachableTable
            | LintCode::UnreachableControl
            | LintCode::ValueTruncation
            | LintCode::InfeasiblePath
            | LintCode::UnboundedRecirc
            | LintCode::LearnWithoutAging => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line description for the registry table.
    pub fn summary(self) -> &'static str {
        match self {
            LintCode::InvalidHeaderAccess => "access to a header no parser path makes valid",
            LintCode::MaybeInvalidHeaderAccess => {
                "access to a header valid on only some parser paths"
            }
            LintCode::ReadBeforeWrite => "metadata read before any potential write",
            LintCode::DependencyCycle => "mutual data dependency between two tables",
            LintCode::UnreachableTable => "table never applied from the entry control",
            LintCode::UnreachableControl => "control unreachable from the entry control",
            LintCode::AmbiguousSelect => "duplicate case value in a parser select",
            LintCode::DuplicateMatchKey => "field repeated in a table match key",
            LintCode::SfcInvariant => "composed program violates an SFC framework invariant",
            LintCode::RecircBudget => "recirculation demand exceeds the loopback budget",
            LintCode::RoutingWalk => "installed routing walks a chain off the model's path",
            LintCode::ValueTruncation => "value may truncate into a narrower destination",
            LintCode::InfeasiblePath => "select case or branch arm that can never execute",
            LintCode::UnmatchableEntry => "installed entry no feasible key value matches",
            LintCode::UnboundedRecirc => "resubmit/recirculate loop with no changing guard",
            LintCode::RegisterHazard => "register shared across pipelets with a writer",
            LintCode::LearnPolicyMismatch => "digest layout disagrees with learn policy",
            LintCode::LearnWithoutAging => "learn target table has no idle-timeout aging",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Effective severity (after configuration).
    pub severity: Severity,
    /// The entity it anchors to: a table, action, control, parser vertex
    /// (`header@offset`), register, learn policy (`<nf>/<stream>`), or
    /// chain name.
    pub entity: String,
    /// Human-readable description of the defect.
    pub message: String,
    /// Secondary context lines.
    pub notes: Vec<String>,
    /// The control/parser path steps that lead to the flagged point.
    pub witness: Vec<String>,
}

impl Diagnostic {
    /// Creates a diagnostic at the lint's default severity.
    pub fn new(code: LintCode, entity: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            entity: entity.into(),
            message: message.into(),
            notes: Vec::new(),
            witness: Vec::new(),
        }
    }

    /// Adds a context note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Attaches the path witness.
    pub fn with_witness(mut self, witness: Vec<String>) -> Self {
        self.witness = witness;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.entity, self.message
        )
    }
}

/// Verifier configuration, shared by every pass: severity overrides,
/// per-entity allows, and the installed-entry patterns `DJV203` checks.
///
/// Allows are `(code, entity pattern)` pairs; a pattern is either an exact
/// entity name or a prefix ending in `*`. A matching finding is demoted to
/// [`Severity::Allow`] — it stays visible in the report but blocks nothing.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    severities: BTreeMap<LintCode, Severity>,
    allows: Vec<(LintCode, String)>,
    /// Per-table installed-entry patterns (one `Vec<KeyMatch>` per entry,
    /// aligned with the table's key list).
    pub(crate) entries: BTreeMap<String, Vec<Vec<KeyMatch>>>,
}

impl LintConfig {
    /// Creates the default configuration (registry defaults, no allows, no
    /// installed entries).
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Overrides the severity of a lint code.
    pub fn set_severity(mut self, code: LintCode, severity: Severity) -> Self {
        self.severities.insert(code, severity);
        self
    }

    /// Allows a lint for entities matching `pattern` (exact name, or a
    /// prefix ending in `*`).
    pub fn allow(mut self, code: LintCode, pattern: impl Into<String>) -> Self {
        self.allows.push((code, pattern.into()));
        self
    }

    /// Declares the entry patterns installed into `table`, enabling the
    /// `DJV203` unmatchable-entry check for it.
    pub fn with_entries(mut self, table: impl Into<String>, patterns: Vec<Vec<KeyMatch>>) -> Self {
        self.entries.insert(table.into(), patterns);
        self
    }

    /// Effective severity of `code` at `entity`.
    pub fn severity_for(&self, code: LintCode, entity: &str) -> Severity {
        for (c, pat) in &self.allows {
            if *c == code && pattern_matches(pat, entity) {
                return Severity::Allow;
            }
        }
        self.severities
            .get(&code)
            .copied()
            .unwrap_or_else(|| code.default_severity())
    }
}

fn pattern_matches(pattern: &str, entity: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => entity.starts_with(prefix),
        None => pattern == entity,
    }
}

/// The findings of one pass, or of several merged.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, including `Allow`-level advisories.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Records a finding at the severity `config` assigns it — the one place
    /// overrides and allows are applied. An exact repeat (same code, entity
    /// and message, e.g. one defect reached along two control paths) is
    /// dropped; the first occurrence keeps its notes and witness.
    pub fn emit(&mut self, config: &LintConfig, mut diag: Diagnostic) {
        let repeat = |d: &Diagnostic| {
            d.code == diag.code && d.entity == diag.entity && d.message == diag.message
        };
        if self.diagnostics.iter().any(repeat) {
            return;
        }
        diag.severity = config.severity_for(diag.code, &diag.entity);
        self.diagnostics.push(diag);
    }

    /// Error-level findings.
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    /// Warning-level findings.
    pub fn warnings(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .collect()
    }

    /// True when any error-level finding exists.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// True when nothing at warning level or above fired. `Allow`-level
    /// advisories do not spoil cleanliness.
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity == Severity::Allow)
    }

    /// Absorbs another report's findings and restores deterministic order.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
        self.sort();
    }

    /// Sorts diagnostics by (code, entity, message) — the canonical order,
    /// so CI output diffs reproducibly across runs and platforms.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (a.code, &a.entity, &a.message).cmp(&(b.code, &b.entity, &b.message)));
    }

    /// One formatted line per error (used in refusal messages).
    pub fn error_summaries(&self) -> Vec<String> {
        self.errors().iter().map(|d| d.to_string()).collect()
    }

    /// Renders a `rustc`-style plain-text report.
    pub fn render_pretty(&self) -> String {
        if self.diagnostics.is_empty() {
            return "clean: no findings\n".to_string();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
            for (label, lines) in [("note", &d.notes), ("via", &d.witness)] {
                for line in lines {
                    out.push_str(&format!("  {label}: {line}\n"));
                }
            }
        }
        let (e, w, a) = self
            .diagnostics
            .iter()
            .fold((0, 0, 0), |(e, w, a), d| match d.severity {
                Severity::Error => (e + 1, w, a),
                Severity::Warning => (e, w + 1, a),
                Severity::Allow => (e, w, a + 1),
            });
        out.push_str(&format!("{e} error(s), {w} warning(s), {a} allowed\n"));
        out
    }

    /// Renders the findings as a stable JSON array: one object per finding
    /// with `code`, `severity`, `entity`, `message`, `notes` and `witness`.
    pub fn render_json(&self) -> String {
        let array = |lines: &[String]| {
            let items: Vec<String> = lines.iter().map(|l| json_str(l)).collect();
            items.join(",")
        };
        let objects: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "{{\"code\":{},\"severity\":{},\"entity\":{},\"message\":{},\
                     \"notes\":[{}],\"witness\":[{}]}}",
                    json_str(d.code.code()),
                    json_str(&d.severity.to_string()),
                    json_str(&d.entity),
                    json_str(&d.message),
                    array(&d.notes),
                    array(&d.witness)
                )
            })
            .collect();
        format!("[{}]", objects.join(","))
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lints a program with default severities.
pub fn check(program: &Program) -> LintReport {
    check_with_config(program, &LintConfig::default())
}

/// Lints a program under an explicit configuration.
pub fn check_with_config(program: &Program, config: &LintConfig) -> LintReport {
    let mut checker = Checker::new(program, config);
    checker.check_duplicate_match_keys();
    checker.check_ambiguous_selects();
    let flow = TableFlow::new(program);
    checker.check_reachability(&flow);
    checker.check_dependency_cycles(&flow);
    walk(program, &mut checker);
    checker.report.sort();
    checker.report
}

/// The three sets of a [`FlowState`].
const GUARANTEED: usize = 0;
const MAYBE: usize = 1;
const WRITTEN: usize = 2;

/// Per-path dataflow facts at one control-flow point: three bitsets of
/// `width` words each. Headers are numbered by their position in the
/// program's catalog, user metadata by its position among the declared
/// names ([`Checker`]); a name outside both is never asked about.
#[derive(Debug, Clone, Default)]
struct FlowState {
    /// [`GUARANTEED`]: headers valid on **every** path reaching this
    /// point. [`MAYBE`]: headers valid on **some** path reaching it.
    /// [`WRITTEN`]: user metadata potentially written on some reaching
    /// path.
    words: Vec<u64>,
    width: usize,
}

impl FlowState {
    fn new(width: usize) -> Self {
        FlowState {
            words: vec![0; 3 * width],
            width,
        }
    }

    fn has(&self, set: usize, bit: usize) -> bool {
        self.words[set * self.width + bit / 64] & (1 << (bit % 64)) != 0
    }

    fn put(&mut self, set: usize, bit: usize, on: bool) {
        let word = &mut self.words[set * self.width + bit / 64];
        if on {
            *word |= 1 << (bit % 64);
        } else {
            *word &= !(1 << (bit % 64));
        }
    }
}

struct Checker<'a> {
    program: &'a Program,
    config: &'a LintConfig,
    report: LintReport,
    /// Header type names in catalog order: a header's bit is its position.
    headers: Vec<&'a str>,
    /// Declared user metadata names, sorted and deduplicated: a field's
    /// bit is its position.
    meta: Vec<&'a str>,
    /// The parser's sets so far: `maybe` every vertex the walk entered,
    /// `guaranteed` the meet over the accept paths it finished.
    parsed: FlowState,
    /// True once a parser path reached accept.
    accepted: bool,
    /// Scratch for [`Domain::accept`]: the headers on one accept path.
    on_path: Vec<u64>,
}

impl<'a> Checker<'a> {
    fn new(program: &'a Program, config: &'a LintConfig) -> Self {
        let headers: Vec<&str> = program.header_types.keys().map(String::as_str).collect();
        let mut meta: Vec<&str> = program
            .meta_fields
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        meta.sort_unstable();
        meta.dedup();
        let width = headers.len().max(meta.len()).div_ceil(64).max(1);
        Checker {
            program,
            config,
            report: LintReport::default(),
            headers,
            meta,
            parsed: FlowState::new(width),
            accepted: false,
            on_path: vec![0; width],
        }
    }

    fn emit(&mut self, diag: Diagnostic) {
        self.report.emit(self.config, diag);
    }

    fn header_bit(&self, name: &str) -> Option<usize> {
        self.headers.binary_search(&name).ok()
    }

    fn meta_bit(&self, name: &str) -> Option<usize> {
        self.meta.binary_search(&name).ok()
    }

    // ------------------------------------------------------------------
    // Structural checks
    // ------------------------------------------------------------------

    fn check_duplicate_match_keys(&mut self) {
        for table in self.program.tables.values() {
            for (i, key) in table.keys.iter().enumerate() {
                if table.keys[..i].iter().any(|k| k.field == key.field) {
                    self.emit(Diagnostic::new(
                        LintCode::DuplicateMatchKey,
                        &table.name,
                        format!(
                            "match key `{}.{}` appears more than once",
                            key.field.header, key.field.field
                        ),
                    ));
                }
            }
        }
    }

    fn check_ambiguous_selects(&mut self) {
        for node in &self.program.parser.nodes {
            let Transition::Select { field, cases, .. } = &node.transition else {
                continue;
            };
            for (i, (value, target)) in cases.iter().enumerate() {
                let first = cases[..i].iter().find(|(v, _)| v.raw() == value.raw());
                let Some((_, existing)) = first else {
                    continue;
                };
                let detail = if existing == target {
                    "redundant duplicate"
                } else {
                    "ambiguous: the first case wins, the second is dead"
                };
                self.emit(Diagnostic::new(
                    LintCode::AmbiguousSelect,
                    format!("{}@{}", node.header_type, node.offset),
                    format!(
                        "select on `{}` lists case {:#x} twice ({})",
                        field,
                        value.raw(),
                        detail
                    ),
                ));
            }
        }
    }

    fn check_reachability(&mut self, flow: &TableFlow<'_>) {
        // Controls reachable from the entry via Call.
        let program = self.program;
        let names: Vec<&str> = program.controls.keys().map(String::as_str).collect();
        let mut reachable = vec![false; names.len()];
        let mut stack = vec![program.entry.as_str()];
        while let Some(name) = stack.pop() {
            let Ok(i) = names.binary_search(&name) else {
                continue;
            };
            if std::mem::replace(&mut reachable[i], true) {
                continue;
            }
            program.controls[name].visit(&mut |s| {
                if let Stmt::Call(c) = s {
                    stack.push(c);
                }
            });
        }
        for (name, _) in names.iter().zip(&reachable).filter(|(_, r)| !**r) {
            self.emit(Diagnostic::new(
                LintCode::UnreachableControl,
                *name,
                format!(
                    "control `{name}` is never called from entry `{}`",
                    program.entry
                ),
            ));
        }

        // Tables applied somewhere under the entry.
        for name in program.tables.keys() {
            if flow.position(name).is_none() {
                self.emit(Diagnostic::new(
                    LintCode::UnreachableTable,
                    name,
                    format!("table `{name}` is defined but never applied"),
                ));
            }
        }
    }

    fn check_dependency_cycles(&mut self, flow: &TableFlow<'_>) {
        // Everything a table's keys and actions read (its miss action's
        // too), and everything its actions may write.
        let reads = |t| {
            let parts = [Part::Keys, Part::Reads, Part::MissReads];
            parts.into_iter().flat_map(move |p| flow.part(t, p))
        };
        let writes = |t| {
            let parts = [Part::Writes, Part::MissWrites];
            parts.into_iter().flat_map(move |p| flow.part(t, p))
        };
        let n = flow.order.len();
        for i in 0..n {
            for j in (i + 1)..n {
                if flow.exclusive(i, j) || !flow.is_defined(i) || !flow.is_defined(j) {
                    continue;
                }
                // Fields A produces that B consumes, and vice versa. A
                // mutual dependency through the *same* field (e.g. two
                // tables incrementing one counter) is order-sensitive but
                // satisfiable; a cycle through distinct fields is not.
                let mut fwd = writes(i).filter(|w| reads(j).any(|r| w.overlaps(*r)));
                let witness = fwd.find_map(|fa| {
                    let mut back = writes(j).filter(|w| reads(i).any(|r| w.overlaps(*r)));
                    back.find(|fb| !fa.overlaps(**fb)).map(|fb| (fa, fb))
                });
                if let Some((fa, fb)) = witness {
                    let (a, b) = (flow.order[i], flow.order[j]);
                    self.emit(
                        Diagnostic::new(
                            LintCode::DependencyCycle,
                            b,
                            format!(
                                "tables `{a}` and `{b}` depend on each other's output: \
                                 `{a}` writes `{fa}` which `{b}` reads, and `{b}` writes \
                                 `{fb}` which `{a}` reads"
                            ),
                        )
                        .with_note(
                            "no single-pass stage order satisfies both dependencies; \
                             one table always sees the previous pass's value"
                                .to_string(),
                        ),
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Dataflow: header validity + metadata def-use
    // ------------------------------------------------------------------

    fn check_read(&mut self, state: &FlowState, fr: FieldView<'_>, entity: &str, context: &str) {
        if fr.register {
            return;
        }
        let field = fr.field;
        let diag = if fr.is_meta() {
            let standard = STANDARD_METADATA.iter().any(|(n, _)| *n == field);
            let Some(bit) = self.meta_bit(field).filter(|_| field != "*" && !standard) else {
                return; // platform-initialized or undeclared (validate's job)
            };
            if state.has(WRITTEN, bit) {
                return;
            }
            let message =
                format!("{context} reads metadata `{field}` but no reaching path ever writes it");
            Diagnostic::new(LintCode::ReadBeforeWrite, entity, message)
        } else {
            let header = fr.header;
            let Some(bit) = self.header_bit(header) else {
                return; // undefined header type: validate's job
            };
            if !state.has(MAYBE, bit) {
                let message = format!(
                    "{context} reads `{header}.{field}` but header `{header}` is never valid here"
                );
                Diagnostic::new(LintCode::InvalidHeaderAccess, entity, message)
                    .with_note("no parser path extracts this header and no earlier action adds it")
            } else if !state.has(GUARANTEED, bit) {
                let message = format!(
                    "{context} reads `{header}.{field}` but header `{header}` is valid on only \
                     some parser paths"
                );
                Diagnostic::new(LintCode::MaybeInvalidHeaderAccess, entity, message)
            } else {
                return;
            }
        };
        self.emit(diag);
    }

    fn write_field(&mut self, state: &mut FlowState, fr: FieldView<'_>, entity: &str) {
        if fr.is_meta() {
            if let Some(bit) = self.meta_bit(fr.field).filter(|_| fr.field != "*") {
                state.put(WRITTEN, bit, true);
            }
            return;
        }
        if fr.register {
            return;
        }
        let never_valid = self
            .header_bit(fr.header)
            .is_some_and(|b| !state.has(MAYBE, b));
        if never_valid {
            // Writes to invalid headers are silent no-ops — sometimes
            // deliberate (the firewall sets `sfc.drop_flag` even on raw
            // packets), so this is an advisory, not an error.
            self.emit(Diagnostic::new(
                LintCode::MaybeInvalidHeaderAccess,
                entity,
                format!(
                    "write to `{}.{}` is a silent no-op: header `{}` is never valid here",
                    fr.header, fr.field, fr.header
                ),
            ));
        }
    }
}

/// The structural pass as a domain of the verifier's walk: it prunes
/// nothing (every select case, branch and arm is walked, each arm from the
/// state after the table, and a table also runs a miss action it does not
/// list), a join meets `guaranteed` and joins `maybe` and `written`, and
/// `isValid` guards refine validity.
impl<'a> Domain<'a> for Checker<'a> {
    type Path = ();
    type State = FlowState;
    const UNLISTED_MISS: bool = true;

    /// `maybe` covers every vertex the walk reaches, reject-only paths
    /// included.
    fn vertex(&mut self, node: &'a ParseNode, _: &mut (), _: &Trail<'a>) {
        if let Some(bit) = self.header_bit(&node.header_type) {
            self.parsed.put(MAYBE, bit, true);
        }
    }

    /// `guaranteed` meets the headers of each accept path.
    fn accept(&mut self, _: (), trail: &Trail<'a>) {
        let mut on_path = std::mem::take(&mut self.on_path);
        on_path.fill(0);
        for bit in trail
            .vertices()
            .filter_map(|n| self.header_bit(&n.header_type))
        {
            on_path[bit / 64] |= 1 << (bit % 64);
        }
        let first = !std::mem::replace(&mut self.accepted, true);
        let width = self.parsed.width;
        let guaranteed = &mut self.parsed.words[GUARANTEED * width..][..width];
        for (g, p) in guaranteed.iter_mut().zip(&on_path) {
            *g = if first { *p } else { *g & p };
        }
        self.on_path = on_path;
    }

    fn entry(&mut self) -> FlowState {
        std::mem::take(&mut self.parsed)
    }

    /// `guaranteed` meets, `maybe` and `written` join.
    fn join(&self, acc: &mut FlowState, other: FlowState) {
        let (meet, join) = acc.words.split_at_mut(acc.width);
        meet.iter_mut().zip(&other.words).for_each(|(w, o)| *w &= o);
        let other = &other.words[acc.width..];
        join.iter_mut().zip(other).for_each(|(w, o)| *w |= o);
    }

    /// Checks the condition's field reads (an `isValid` probe is how a
    /// program guards a maybe-valid header, not a read of it) and prunes
    /// neither branch. Inside `isValid(h)` (or the else of `!isValid(h)`)
    /// `h` is guaranteed; on the other side it is definitely absent.
    fn gateway(
        &mut self,
        cond: &'a BoolExpr,
        _: [&'a [Stmt]; 2],
        state: &FlowState,
        _: &Trail<'a>,
    ) -> [Option<FlowState>; 2] {
        cond.for_each_read(&mut |read| {
            if read.field != "*" {
                self.check_read(state, read, "if condition", "condition");
            }
        });
        let mut branches = [state.clone(), state.clone()];
        // Which branch (0: then, 1: else) sees the probed header valid.
        let (header, side) = match cond {
            BoolExpr::Valid(h) => (h, 0),
            BoolExpr::Not(inner) => match inner.as_ref() {
                BoolExpr::Valid(h) => (h, 1),
                _ => return branches.map(Some),
            },
            _ => return branches.map(Some),
        };
        if let Some(bit) = self.header_bit(header) {
            for set in [GUARANTEED, MAYBE] {
                branches[side].put(set, bit, true);
                branches[1 - side].put(set, bit, false);
            }
        }
        branches.map(Some)
    }

    fn table(&mut self, table: &'a TableDef, state: &FlowState, _: &Trail<'a>) {
        for key in &table.keys {
            self.check_read(state, FieldView::of(&key.field), &table.name, "match key");
        }
    }

    /// Checks each op's reads against the state as of that op and applies
    /// its writes.
    fn action(&mut self, def: &'a ActionDef, state: &mut FlowState, _: &Trail<'a>) {
        for op in &def.ops {
            op.for_each_read(|read| self.check_read(state, read, &def.name, "operand"));
            match op {
                PrimitiveOp::Set { dst, .. }
                | PrimitiveOp::Hash { dst, .. }
                | PrimitiveOp::RegisterRead { dst, .. } => {
                    self.write_field(state, FieldView::of(dst), &def.name);
                }
                PrimitiveOp::AddHeader { header, .. } => {
                    if let Some(bit) = self.header_bit(header) {
                        state.put(GUARANTEED, bit, true);
                        state.put(MAYBE, bit, true);
                    }
                }
                PrimitiveOp::RemoveHeader { header }
                | PrimitiveOp::RemoveHeaderNth { header, .. } => {
                    if let Some(bit) = self.header_bit(header) {
                        state.put(GUARANTEED, bit, false);
                    }
                }
                PrimitiveOp::Ipv4ChecksumUpdate { header } => {
                    let dst = FieldView::new(header, "hdr_checksum");
                    self.write_field(state, dst, &def.name);
                }
                // Digest reads were checked above; it writes no packet state.
                PrimitiveOp::RegisterWrite { .. }
                | PrimitiveOp::Digest { .. }
                | PrimitiveOp::Drop
                | PrimitiveOp::NoOp => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::table::{TableDef, TableKey};
    use crate::well_known;
    use crate::{fref, Expr, FieldRef, MatchKind};

    /// eth → ipv4 program with one table keyed on a guaranteed header.
    fn base_builder(name: &str) -> ProgramBuilder {
        ProgramBuilder::new(name)
            .header(well_known::ethernet())
            .header(well_known::ipv4())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .node("ip", "ipv4", 14)
                    .select_or_reject("eth", "ether_type", 16, vec![(0x0800, "ip")])
                    .accept("ip")
                    .start("eth"),
            )
    }

    fn clean_program() -> Program {
        base_builder("clean")
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
            .unwrap()
    }

    #[test]
    fn registry_codes_are_unique_and_stable() {
        let codes: Vec<&str> = LintCode::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes.len(), 18);
        assert!(
            codes.windows(2).all(|w| w[0] < w[1]),
            "codes must be unique and in code order: {codes:?}"
        );
        assert!(LintCode::ALL.windows(2).all(|w| w[0] < w[1]));
        for code in LintCode::ALL {
            // Display round-trips: the printed code names exactly this entry.
            let printed = code.to_string();
            let back = LintCode::ALL.iter().find(|c| c.code() == printed);
            assert_eq!(back, Some(&code));
            assert!(!code.summary().is_empty());
        }
        assert_eq!(LintCode::InvalidHeaderAccess.code(), "DJV001");
        assert_eq!(LintCode::RecircBudget.code(), "DJV102");
        assert_eq!(LintCode::LearnWithoutAging.code(), "DJV303");
    }

    /// The README prints the registry; its rows are generated from this
    /// enum, so a new code or a reclassified default must update both.
    #[test]
    fn readme_table_matches_the_registry() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<&str> = readme
            .lines()
            .filter(|line| line.starts_with("| DJV"))
            .collect();
        let expected: Vec<String> = LintCode::ALL
            .iter()
            .map(|c| format!("| {c} | {} | {} |", c.default_severity(), c.summary()))
            .collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn clean_program_is_clean() {
        let report = check(&clean_program());
        assert!(
            report.is_clean(),
            "unexpected findings:\n{}",
            report.render_pretty()
        );
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn invalid_header_access_detected() {
        // Parser never reaches tcp, yet a table matches on it.
        let p = base_builder("bad")
            .header(well_known::tcp())
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("l4_acl")
                    .key_exact(fref("tcp", "dst_port"))
                    .action("pass")
                    .default_action("pass")
                    .build(),
            )
            .control(ControlBuilder::new("ctrl").apply("l4_acl").build())
            .entry("ctrl")
            .build()
            .unwrap();
        let report = check(&p);
        let errors = report.errors();
        assert_eq!(errors.len(), 1, "{}", report.render_pretty());
        assert_eq!(errors[0].code, LintCode::InvalidHeaderAccess);
        assert_eq!(errors[0].entity, "l4_acl");
    }

    #[test]
    fn maybe_invalid_access_is_allow_advisory() {
        // Default-accept select: ipv4 is valid on only the 0x0800 path.
        let p = ProgramBuilder::new("maybe")
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
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("routes")
                    .key_exact(fref("ipv4", "dst_addr"))
                    .action("pass")
                    .default_action("pass")
                    .build(),
            )
            .control(ControlBuilder::new("ctrl").apply("routes").build())
            .entry("ctrl")
            .build()
            .unwrap();
        let report = check(&p);
        assert!(report.is_clean(), "{}", report.render_pretty());
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == LintCode::MaybeInvalidHeaderAccess
                    && d.severity == Severity::Allow)
        );
    }

    #[test]
    fn valid_guard_suppresses_maybe_invalid_advisory() {
        let p = ProgramBuilder::new("guarded")
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
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("routes")
                    .key_exact(fref("ipv4", "dst_addr"))
                    .action("pass")
                    .default_action("pass")
                    .build(),
            )
            .control(
                ControlBuilder::new("ctrl")
                    .stmt(Stmt::If {
                        cond: BoolExpr::Valid("ipv4".into()),
                        then_branch: vec![Stmt::Apply("routes".into())],
                        else_branch: vec![],
                    })
                    .build(),
            )
            .entry("ctrl")
            .build()
            .unwrap();
        let report = check(&p);
        assert!(report.diagnostics.is_empty(), "{}", report.render_pretty());
    }

    #[test]
    fn read_before_write_detected_and_write_first_is_clean() {
        // `probe` reads meta.verdict which nothing writes.
        let bad = base_builder("rbw")
            .meta_field("verdict", 8)
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("probe")
                    .key_exact(FieldRef::meta("verdict"))
                    .action("pass")
                    .default_action("pass")
                    .build(),
            )
            .control(ControlBuilder::new("ctrl").apply("probe").build())
            .entry("ctrl")
            .build()
            .unwrap();
        let report = check(&bad);
        assert_eq!(report.errors().len(), 1, "{}", report.render_pretty());
        assert_eq!(report.errors()[0].code, LintCode::ReadBeforeWrite);

        // Same read preceded by a conditional write: clean (the write is a
        // *potential* def, which is all the lint demands).
        let good = base_builder("rbw_ok")
            .meta_field("verdict", 8)
            .action(
                ActionBuilder::new("decide")
                    .set(FieldRef::meta("verdict"), Expr::val(1, 8))
                    .build(),
            )
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("classify")
                    .key_exact(fref("ipv4", "src_addr"))
                    .action("decide")
                    .default_action("pass")
                    .build(),
            )
            .table(
                TableBuilder::new("probe")
                    .key_exact(FieldRef::meta("verdict"))
                    .action("pass")
                    .default_action("pass")
                    .build(),
            )
            .control(
                ControlBuilder::new("ctrl")
                    .apply("classify")
                    .apply("probe")
                    .build(),
            )
            .entry("ctrl")
            .build()
            .unwrap();
        assert!(check(&good).is_clean(), "{}", check(&good).render_pretty());
    }

    /// The structural pass walks what the value pass prunes: a branch the
    /// value pass proves dead (`DJV202`) still has its reads checked.
    #[test]
    fn a_read_under_a_branch_proven_dead_is_still_checked() {
        let p = base_builder("dead_branch")
            .meta_field("verdict", 8)
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("probe")
                    .key_exact(FieldRef::meta("verdict"))
                    .action("pass")
                    .default_action("pass")
                    .build(),
            )
            .control(
                ControlBuilder::new("ctrl")
                    .stmt(Stmt::If {
                        // Every accepted packet carries 0x0800 here.
                        cond: BoolExpr::field_eq("ethernet", "ether_type", 0x86dd, 16),
                        then_branch: vec![Stmt::Apply("probe".into())],
                        else_branch: vec![],
                    })
                    .build(),
            )
            .entry("ctrl")
            .build()
            .unwrap();
        let values = crate::analyze::check(&p);
        assert!(
            values
                .diagnostics
                .iter()
                .any(|d| d.code == LintCode::InfeasiblePath),
            "{}",
            values.render_pretty()
        );
        let report = check(&p);
        let errors = report.errors();
        assert_eq!(errors.len(), 1, "{}", report.render_pretty());
        assert_eq!(errors[0].code, LintCode::ReadBeforeWrite);
        assert_eq!(errors[0].entity, "probe");
    }

    /// A header extracted only under a select case the value pass proves
    /// infeasible is still reachable to the structural pass: maybe valid
    /// (`DJV002`), not never valid (`DJV001`).
    #[test]
    fn a_header_under_an_infeasible_case_is_still_maybe_valid() {
        let mut p = base_builder("infeasible_case")
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("routes")
                    .key_exact(fref("ipv4", "dst_addr"))
                    .action("pass")
                    .default_action("pass")
                    .build(),
            )
            .control(ControlBuilder::new("ctrl").apply("routes").build())
            .entry("ctrl")
            .build()
            .unwrap();
        // A 17-bit case on the 16-bit `ether_type`, and a default that
        // accepts without ipv4.
        let Transition::Select { cases, default, .. } = &mut p.parser.nodes[0].transition else {
            panic!("eth selects on ether_type");
        };
        cases[0].0 = crate::Value::new(0x1_0800, 17);
        *default = crate::Target::Accept;
        let values = crate::analyze::check(&p);
        assert!(
            values
                .diagnostics
                .iter()
                .any(|d| d.code == LintCode::InfeasiblePath),
            "{}",
            values.render_pretty()
        );
        let report = check(&p);
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            [LintCode::MaybeInvalidHeaderAccess],
            "{}",
            report.render_pretty()
        );
    }

    #[test]
    fn a_header_every_arm_adds_is_guaranteed_after_the_select() {
        // The arms and the default are the only exits of an ApplySelect:
        // when each adds `tcp`, a later read of it is on every path.
        let add_tcp = || vec![Stmt::Do("add_tcp".into())];
        let p = base_builder("arms")
            .header(well_known::tcp())
            .action(ActionBuilder::new("pass").build())
            .action(
                ActionBuilder::new("add_tcp")
                    .add_header("tcp", None)
                    .build(),
            )
            .table(
                TableBuilder::new("classify")
                    .key_exact(fref("ipv4", "dst_addr"))
                    .action("pass")
                    .default_action("pass")
                    .build(),
            )
            .table(
                TableBuilder::new("l4")
                    .key_exact(fref("tcp", "dst_port"))
                    .action("pass")
                    .default_action("pass")
                    .build(),
            )
            .control(
                ControlBuilder::new("ctrl")
                    .stmt(Stmt::ApplySelect {
                        table: "classify".into(),
                        arms: vec![("pass".into(), add_tcp())],
                        default: add_tcp(),
                    })
                    .apply("l4")
                    .build(),
            )
            .entry("ctrl")
            .build()
            .unwrap();
        let report = check(&p);
        assert!(report.diagnostics.is_empty(), "{}", report.render_pretty());
    }

    #[test]
    fn dependency_cycle_detected() {
        // swap_a writes dst_addr and reads src_addr; swap_b the reverse.
        let p = base_builder("cycle")
            .action(
                ActionBuilder::new("wa")
                    .set(fref("ipv4", "dst_addr"), Expr::val(1, 32))
                    .build(),
            )
            .action(
                ActionBuilder::new("wb")
                    .set(fref("ipv4", "src_addr"), Expr::val(2, 32))
                    .build(),
            )
            .table(
                TableBuilder::new("swap_a")
                    .key_exact(fref("ipv4", "src_addr"))
                    .action("wa")
                    .default_action("wa")
                    .build(),
            )
            .table(
                TableBuilder::new("swap_b")
                    .key_exact(fref("ipv4", "dst_addr"))
                    .action("wb")
                    .default_action("wb")
                    .build(),
            )
            .control(
                ControlBuilder::new("ctrl")
                    .apply("swap_a")
                    .apply("swap_b")
                    .build(),
            )
            .entry("ctrl")
            .build()
            .unwrap();
        let report = check(&p);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == LintCode::DependencyCycle),
            "{}",
            report.render_pretty()
        );
    }

    #[test]
    fn same_field_mutual_use_is_not_a_cycle() {
        // Two tables both incrementing ipv4.ttl: order-sensitive but
        // satisfiable — must not fire DJV004.
        let p = base_builder("ttl")
            .action(
                ActionBuilder::new("dec1")
                    .set(
                        fref("ipv4", "ttl"),
                        Expr::Sub(
                            Box::new(Expr::field("ipv4", "ttl")),
                            Box::new(Expr::val(1, 8)),
                        ),
                    )
                    .build(),
            )
            .action(
                ActionBuilder::new("dec2")
                    .set(
                        fref("ipv4", "ttl"),
                        Expr::Sub(
                            Box::new(Expr::field("ipv4", "ttl")),
                            Box::new(Expr::val(1, 8)),
                        ),
                    )
                    .build(),
            )
            .table(
                TableBuilder::new("hop_a")
                    .key_exact(fref("ipv4", "ttl"))
                    .action("dec1")
                    .default_action("dec1")
                    .build(),
            )
            .table(
                TableBuilder::new("hop_b")
                    .key_exact(fref("ipv4", "ttl"))
                    .action("dec2")
                    .default_action("dec2")
                    .build(),
            )
            .control(
                ControlBuilder::new("ctrl")
                    .apply("hop_a")
                    .apply("hop_b")
                    .build(),
            )
            .entry("ctrl")
            .build()
            .unwrap();
        let report = check(&p);
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.code == LintCode::DependencyCycle),
            "{}",
            report.render_pretty()
        );
    }

    #[test]
    fn unreachable_table_and_control_detected() {
        let p = base_builder("orphan")
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("used")
                    .key_exact(fref("ipv4", "dst_addr"))
                    .action("pass")
                    .default_action("pass")
                    .build(),
            )
            .table(
                TableBuilder::new("orphan_table")
                    .key_exact(fref("ipv4", "src_addr"))
                    .action("pass")
                    .default_action("pass")
                    .build(),
            )
            .control(ControlBuilder::new("ctrl").apply("used").build())
            .control(ControlBuilder::new("orphan_ctrl").build())
            .entry("ctrl")
            .build()
            .unwrap();
        let report = check(&p);
        let codes: Vec<LintCode> = report.warnings().iter().map(|d| d.code).collect();
        assert!(
            codes.contains(&LintCode::UnreachableTable),
            "{}",
            report.render_pretty()
        );
        assert!(
            codes.contains(&LintCode::UnreachableControl),
            "{}",
            report.render_pretty()
        );
        assert!(!report.has_errors());
    }

    #[test]
    fn ambiguous_select_detected() {
        let p = ProgramBuilder::new("amb")
            .header(well_known::ethernet())
            .header(well_known::ipv4())
            .header(well_known::tcp())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .node("ip", "ipv4", 14)
                    .node("tcp", "tcp", 14)
                    .select(
                        "eth",
                        "ether_type",
                        16,
                        vec![(0x0800, "ip"), (0x0800, "tcp")],
                    )
                    .accept("ip")
                    .accept("tcp")
                    .start("eth"),
            )
            .control(ControlBuilder::new("ctrl").build())
            .entry("ctrl")
            .build()
            .unwrap();
        let report = check(&p);
        let errors = report.errors();
        assert_eq!(errors.len(), 1, "{}", report.render_pretty());
        assert_eq!(errors[0].code, LintCode::AmbiguousSelect);
        assert_eq!(errors[0].entity, "ethernet@0");
    }

    #[test]
    fn duplicate_match_key_detected() {
        let mut p = clean_program();
        p.tables.insert(
            "dup".into(),
            TableDef {
                name: "dup".into(),
                keys: vec![
                    TableKey {
                        field: fref("ipv4", "dst_addr"),
                        kind: MatchKind::Exact,
                    },
                    TableKey {
                        field: fref("ipv4", "dst_addr"),
                        kind: MatchKind::Ternary,
                    },
                ],
                actions: vec!["pass".into()],
                default_action: "pass".into(),
                default_action_args: vec![],
                size: 16,
            },
        );
        if let Some(ctrl) = p.controls.get_mut("ctrl") {
            ctrl.body.push(Stmt::Apply("dup".into()));
        }
        let report = check(&p);
        assert!(
            report
                .errors()
                .iter()
                .any(|d| d.code == LintCode::DuplicateMatchKey),
            "{}",
            report.render_pretty()
        );
    }

    #[test]
    fn never_valid_write_is_allow_advisory() {
        // The firewall pattern: sets a field of a header its parser never
        // extracts. Legal (silent no-op) — advisory only.
        let p = base_builder("fw")
            .header(crate::HeaderType::new("shim", vec![("flag", 8u16)]).unwrap())
            .action(
                ActionBuilder::new("deny")
                    .set(fref("shim", "flag"), Expr::val(1, 8))
                    .build(),
            )
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("acl")
                    .key_exact(fref("ipv4", "src_addr"))
                    .action("deny")
                    .default_action("pass")
                    .build(),
            )
            .control(ControlBuilder::new("ctrl").apply("acl").build())
            .entry("ctrl")
            .build()
            .unwrap();
        let report = check(&p);
        assert!(report.is_clean(), "{}", report.render_pretty());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::MaybeInvalidHeaderAccess));
    }

    #[test]
    fn config_overrides_and_allows() {
        let bad = base_builder("cfg")
            .meta_field("verdict", 8)
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("probe")
                    .key_exact(FieldRef::meta("verdict"))
                    .action("pass")
                    .default_action("pass")
                    .build(),
            )
            .control(ControlBuilder::new("ctrl").apply("probe").build())
            .entry("ctrl")
            .build()
            .unwrap();
        // Demote to warning globally.
        let cfg = LintConfig::new().set_severity(LintCode::ReadBeforeWrite, Severity::Warning);
        let report = check_with_config(&bad, &cfg);
        assert!(!report.has_errors());
        assert_eq!(report.warnings().len(), 1);
        // Allow for this entity (prefix pattern).
        let cfg = LintConfig::new().allow(LintCode::ReadBeforeWrite, "pro*");
        let report = check_with_config(&bad, &cfg);
        assert!(report.is_clean());
        assert_eq!(report.diagnostics[0].severity, Severity::Allow);
    }

    #[test]
    fn renderers_produce_output() {
        let bad = base_builder("render")
            .header(well_known::tcp())
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("l4")
                    .key_exact(fref("tcp", "dst_port"))
                    .action("pass")
                    .default_action("pass")
                    .build(),
            )
            .control(ControlBuilder::new("ctrl").apply("l4").build())
            .entry("ctrl")
            .build()
            .unwrap();
        let report = check(&bad);
        let pretty = report.render_pretty();
        assert!(pretty.contains("error[DJV001]"), "{pretty}");
        assert!(pretty.contains("1 error(s)"), "{pretty}");
        let json = report.render_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"code\":\"DJV001\""), "{json}");
    }
}
