//! Table dependency analysis.
//!
//! The Dejavu paper (footnote 2, citing Jose et al., NSDI'15 *Compiling
//! Packet Programs to Reconfigurable Switches*) notes that NFs sharing data
//! fields incur *match*, *action*, or *successor* dependencies, which force
//! the compiler to place tables in separate MAU stages. This module builds
//! that dependency graph for a [`Program`]:
//!
//! * **Match dependency** — a later table's match key reads a field written
//!   by an earlier table's actions. The later table cannot start matching
//!   until the earlier action completes: strictly later stage.
//! * **Action dependency** — a later table's actions read or re-write a field
//!   written by an earlier table's actions: strictly later stage (action
//!   units within one stage execute concurrently).
//! * **Successor dependency** — a later table executes under a control-flow
//!   branch decided by an earlier table or gateway. Order must be preserved
//!   but both can share a stage via predication.
//! * **None** — independent tables, freely placed (this is what lets NF
//!   tables "comfortably share the same stages with Dejavu" in §5).
//!
//! The longest chain of match/action edges gives the minimum number of MAU
//! stages a program needs — the quantity `dejavu-compiler` allocates against
//! and Table 1 of the paper reports.

use crate::action::ActionDef;
use crate::control::Stmt;
use crate::header::FieldView;
use crate::program::Program;
use std::collections::BTreeMap;

/// The kind of dependency from an earlier table to a later one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DependencyKind {
    /// Later table matches on a field the earlier table writes.
    Match,
    /// Later table's actions touch a field the earlier table writes.
    Action,
    /// Later table is control-flow dependent on the earlier table.
    Successor,
}

impl DependencyKind {
    /// Minimum stage gap this dependency forces between the two tables
    /// (1 = strictly later stage, 0 = may share a stage with predication).
    pub fn min_stage_gap(self) -> u32 {
        match self {
            DependencyKind::Match | DependencyKind::Action => 1,
            DependencyKind::Successor => 0,
        }
    }
}

/// One edge of the dependency graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyEdge {
    /// Earlier table (apply order).
    pub from: String,
    /// Later table.
    pub to: String,
    /// Dependency kind.
    pub kind: DependencyKind,
}

/// Dependency graph over the tables of one program, in apply order.
#[derive(Debug, Clone, Default)]
pub struct DependencyGraph {
    /// Tables in program apply order (deduplicated, first occurrence).
    pub order: Vec<String>,
    /// Dependency edges (only between distinct tables, from earlier to
    /// later).
    pub edges: Vec<DependencyEdge>,
}

fn any_overlap(xs: &[FieldView<'_>], ys: &[FieldView<'_>]) -> bool {
    xs.iter().any(|x| ys.iter().any(|y| x.overlaps(*y)))
}

/// A part of a table's footprint (see [`TableFlow::part`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Part {
    /// What the match keys read.
    Keys,
    /// What the listed actions read.
    Reads,
    /// What the listed actions write.
    Writes,
    /// What the miss action reads, when the table does not list it (a
    /// malformed table; otherwise empty).
    MissReads,
    /// What that unlisted miss action writes.
    MissWrites,
}

/// The tables a program's entry control applies, read the way the
/// dependency graph and the verifier's cycle check (`DJV004`) both read
/// them: in apply order, each with one footprint borrowed from the program,
/// which pairs sit in sibling branches and which sit under another's
/// `ApplySelect`. Tables are numbered by their position in
/// [`TableFlow::order`].
pub(crate) struct TableFlow<'a> {
    /// Tables in apply order, first application only (an undefined name
    /// included).
    pub order: Vec<&'a str>,
    /// Every footprint's fields, one table after another.
    fields: Vec<FieldView<'a>>,
    /// Per table: where each [`Part`] starts in `fields`, then where the
    /// last ends; `None` for an undefined table.
    parts: Vec<Option<[usize; 6]>>,
    /// `exclusive[a * n + b]`: tables `a` and `b` are applied in sibling
    /// branches of one `ApplySelect` or `If`, so at most one runs per packet.
    exclusive: Vec<bool>,
    /// `under[a * n + b]`: table `b` is applied inside an arm (or the
    /// default) of table `a`'s `ApplySelect`.
    under: Vec<bool>,
}

impl<'a> TableFlow<'a> {
    pub fn new(program: &'a Program) -> Self {
        let mut order = Vec::new();
        program.for_each_applied(&mut |t| {
            if !order.contains(&t) {
                order.push(t);
            }
        });
        let mut fields = Vec::new();
        let mut parts = Vec::with_capacity(order.len());
        for name in &order {
            let Some(t) = program.tables.get(*name) else {
                parts.push(None);
                continue;
            };
            let listed = || t.actions.iter().filter_map(|a| program.actions.get(a));
            let miss = match t.actions.contains(&t.default_action) {
                true => None,
                false => program.actions.get(&t.default_action),
            };
            let mut ends = [fields.len(); 6];
            fields.extend(t.keys.iter().map(|k| FieldView::of(&k.field)));
            ends[1] = fields.len();
            footprint(&mut fields, listed(), false);
            ends[2] = fields.len();
            footprint(&mut fields, listed(), true);
            ends[3] = fields.len();
            footprint(&mut fields, miss.into_iter(), false);
            ends[4] = fields.len();
            footprint(&mut fields, miss.into_iter(), true);
            ends[5] = fields.len();
            parts.push(Some(ends));
        }
        let n = order.len();
        let mut flow = TableFlow {
            order,
            fields,
            parts,
            exclusive: vec![false; n * n],
            under: vec![false; n * n],
        };
        if let Some(entry) = program.entry_control() {
            let mut scratch = (Vec::new(), Vec::new());
            let calls = &mut vec![entry.name.as_str()];
            flow.mark_branches(program, &entry.body, calls, &mut scratch);
        }
        flow
    }

    /// Position of `table` in [`TableFlow::order`].
    pub fn position(&self, table: &str) -> Option<usize> {
        self.order.iter().position(|t| *t == table)
    }

    /// True when table `i` is defined.
    pub fn is_defined(&self, i: usize) -> bool {
        self.parts[i].is_some()
    }

    /// One part of table `i`'s footprint (empty for an undefined table).
    pub fn part(&self, i: usize, part: Part) -> &[FieldView<'a>] {
        match self.parts[i] {
            Some(ends) => &self.fields[ends[part as usize]..ends[part as usize + 1]],
            None => &[],
        }
    }

    /// True when tables `a` and `b` never both run on one packet.
    pub fn exclusive(&self, a: usize, b: usize) -> bool {
        self.exclusive[a * self.order.len() + b]
    }

    /// True when table `b` runs only after table `a`'s `ApplySelect` chose
    /// the arm it is in.
    pub fn under(&self, a: usize, b: usize) -> bool {
        self.under[a * self.order.len() + b]
    }

    /// Marks the tables under different branches of every `ApplySelect`
    /// and `If` reachable from `stmts` as exclusive, and every table under
    /// an `ApplySelect`'s branches as under its table. Sibling branches
    /// never both execute, so they carry no data dependency and may share
    /// stages — the stage-sharing behind the paper's parallel composition
    /// ("Parallel composition allows multiple NFs to share the same
    /// MAUs"). `calls` is the call stack ([`Program::callee`]); `scratch`
    /// holds the branches' tables and where each branch ends in them.
    fn mark_branches(
        &mut self,
        program: &'a Program,
        stmts: &'a [Stmt],
        calls: &mut Vec<&'a str>,
        scratch: &mut (Vec<usize>, Vec<usize>),
    ) {
        for stmt in stmts {
            match stmt {
                Stmt::Call(c) => {
                    if let Some(cb) = program.callee(c, calls) {
                        calls.push(&cb.name);
                        self.mark_branches(program, &cb.body, calls, scratch);
                        calls.pop();
                    }
                    continue;
                }
                Stmt::ApplySelect { .. } | Stmt::If { .. } => {}
                _ => continue,
            }
            let (tables, ends) = scratch;
            tables.clear();
            ends.clear();
            for branch in stmt.branches() {
                program.flatten(branch, calls, &mut |t| {
                    tables.extend(self.order.iter().position(|o| *o == t));
                });
                ends.push(tables.len());
            }
            let n = self.order.len();
            if let Some(a) = stmt.applied_table().and_then(|t| self.position(t)) {
                for &b in tables.iter() {
                    self.under[a * n + b] = true;
                }
            }
            let mut start = 0;
            for &end in ends.iter() {
                // This branch's tables against every later branch's.
                for &a in &tables[start..end] {
                    for &b in &tables[end..] {
                        self.exclusive[a * n + b] = true;
                        self.exclusive[b * n + a] = true;
                    }
                }
                start = end;
            }
            // Nested branches are exclusive among themselves too.
            for branch in stmt.branches() {
                self.mark_branches(program, branch, calls, scratch);
            }
        }
    }
}

/// Appends what `actions` read (or, with `write`, write) to `fields`.
fn footprint<'a>(
    fields: &mut Vec<FieldView<'a>>,
    actions: impl Iterator<Item = &'a ActionDef>,
    write: bool,
) {
    for op in actions.flat_map(|a| &a.ops) {
        match write {
            false => op.for_each_read(|v| fields.push(v)),
            true => op.for_each_write(|v| fields.push(v)),
        }
    }
}

impl DependencyGraph {
    /// Builds the graph for a program's entry control.
    pub fn build(program: &Program) -> DependencyGraph {
        let flow = TableFlow::new(program);
        let n = flow.order.len();
        let mut edges = Vec::new();
        for a in 0..n {
            let writes = flow.part(a, Part::Writes);
            for b in a + 1..n {
                if flow.exclusive(a, b) {
                    continue;
                }
                let feeds = |part| any_overlap(writes, flow.part(b, part));
                let kind = if feeds(Part::Keys) {
                    DependencyKind::Match
                } else if feeds(Part::Reads) || feeds(Part::Writes) {
                    DependencyKind::Action
                } else if flow.under(a, b) {
                    DependencyKind::Successor
                } else {
                    continue;
                };
                edges.push(DependencyEdge {
                    from: flow.order[a].to_string(),
                    to: flow.order[b].to_string(),
                    kind,
                });
            }
        }
        let order = flow.order.iter().map(|t| t.to_string()).collect();
        DependencyGraph { order, edges }
    }

    /// Minimum number of MAU stages needed: 1 + the longest path measured in
    /// stage gaps over the dependency DAG. Independent tables need 1 stage.
    pub fn min_stages(&self) -> u32 {
        if self.order.is_empty() {
            return 0;
        }
        // Longest-path DP over tables in apply order (edges always go
        // forward in that order, so a single pass suffices).
        let mut level: BTreeMap<&str, u32> = self.order.iter().map(|t| (t.as_str(), 0)).collect();
        for e in &self.edges {
            let from_level = *level.get(e.from.as_str()).unwrap_or(&0);
            let need = from_level + e.kind.min_stage_gap();
            let entry = level.entry(e.to.as_str()).or_insert(0);
            if *entry < need {
                *entry = need;
            }
        }
        level.values().copied().max().unwrap_or(0) + 1
    }

    /// Edge lookup.
    pub fn edge(&self, from: &str, to: &str) -> Option<DependencyKind> {
        self.edges
            .iter()
            .find(|e| e.from == from && e.to == to)
            .map(|e| e.kind)
    }
}

/// How a program touches one register array (via the `reg::<name>` pseudo-
/// header namespace actions use for stateful access).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegisterAccess {
    /// Some action reads the array.
    pub reads: bool,
    /// Some action writes the array.
    pub writes: bool,
}

/// Summarizes every register access in a program's action catalog, keyed by
/// register name. The chain-level hazard analysis (`DJV301`) compares these
/// summaries across merged pipelet programs.
pub fn register_accesses(program: &Program) -> BTreeMap<String, RegisterAccess> {
    use crate::action::PrimitiveOp;
    let mut out: BTreeMap<String, RegisterAccess> = BTreeMap::new();
    for action in program.actions.values() {
        for op in &action.ops {
            match op {
                PrimitiveOp::RegisterRead { register, .. } => {
                    out.entry(register.clone()).or_default().reads = true;
                }
                PrimitiveOp::RegisterWrite { register, .. } => {
                    out.entry(register.clone()).or_default().writes = true;
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionDef, Expr, PrimitiveOp};
    use crate::control::{ControlBlock, Stmt};
    use crate::header::{fref, FieldRef, HeaderType};
    use crate::parser::{ParseNode, Target, Transition};
    use crate::table::{MatchKind, TableDef, TableKey};

    /// Program with three tables:
    ///   t1 writes ipv4.dst_addr
    ///   t2 matches on ipv4.dst_addr          (match dep on t1)
    ///   t3 writes meta.egress_spec, reads nothing of t1/t2
    fn program() -> Program {
        let mut p = Program::new("deps");
        p.header_types.insert(
            "ipv4".into(),
            HeaderType::new(
                "ipv4",
                vec![
                    ("src_addr", 32u16),
                    ("dst_addr", 32),
                    ("ttl", 8),
                    ("pad", 24),
                ],
            )
            .unwrap(),
        );
        let n = p.parser.add_node(ParseNode {
            header_type: "ipv4".into(),
            offset: 0,
            transition: Transition::Unconditional(Target::Accept),
        });
        p.parser.start = Some(Target::Node(n));

        p.actions.insert(
            "set_dst".into(),
            ActionDef {
                name: "set_dst".into(),
                params: vec![("d".into(), 32)],
                ops: vec![PrimitiveOp::Set {
                    dst: fref("ipv4", "dst_addr"),
                    value: Expr::Param("d".into()),
                }],
            },
        );
        p.actions.insert(
            "set_port".into(),
            ActionDef {
                name: "set_port".into(),
                params: vec![("pt".into(), 16)],
                ops: vec![PrimitiveOp::Set {
                    dst: FieldRef::meta("egress_spec"),
                    value: Expr::Param("pt".into()),
                }],
            },
        );
        p.actions.insert(
            "nop".into(),
            ActionDef::simple("nop", vec![PrimitiveOp::NoOp]),
        );

        let mk = |name: &str, key: FieldRef, actions: Vec<&str>| TableDef {
            name: name.into(),
            keys: vec![TableKey {
                field: key,
                kind: MatchKind::Exact,
            }],
            actions: actions.iter().map(|s| s.to_string()).collect(),
            default_action: "nop".into(),
            default_action_args: vec![],
            size: 16,
        };
        p.tables.insert(
            "t1".into(),
            mk("t1", fref("ipv4", "src_addr"), vec!["set_dst", "nop"]),
        );
        p.tables.insert(
            "t2".into(),
            mk("t2", fref("ipv4", "dst_addr"), vec!["set_port", "nop"]),
        );
        p.tables.insert(
            "t3".into(),
            mk("t3", fref("ipv4", "ttl"), vec!["set_port", "nop"]),
        );
        p.controls.insert(
            "ingress".into(),
            ControlBlock::new(
                "ingress",
                vec![
                    Stmt::Apply("t1".into()),
                    Stmt::Apply("t2".into()),
                    Stmt::Apply("t3".into()),
                ],
            ),
        );
        p.entry = "ingress".into();
        p
    }

    #[test]
    fn match_dependency_detected() {
        let g = DependencyGraph::build(&program());
        assert_eq!(g.edge("t1", "t2"), Some(DependencyKind::Match));
    }

    #[test]
    fn action_dependency_detected() {
        // t2 and t3 both write meta.egress_spec → action dependency.
        let g = DependencyGraph::build(&program());
        assert_eq!(g.edge("t2", "t3"), Some(DependencyKind::Action));
    }

    #[test]
    fn independent_tables_have_no_edge() {
        let g = DependencyGraph::build(&program());
        assert_eq!(g.edge("t1", "t3"), None);
    }

    #[test]
    fn min_stages_follows_critical_path() {
        // t1 -(match,+1)-> t2 -(action,+1)-> t3  ⇒ 3 stages.
        let g = DependencyGraph::build(&program());
        assert_eq!(g.min_stages(), 3);
    }

    #[test]
    fn successor_dependency_from_apply_select() {
        let mut p = program();
        // Make t3 independent of t2 (different action) but nested under t1's arm.
        p.tables.get_mut("t3").unwrap().actions = vec!["nop".into()];
        p.controls.insert(
            "ingress".into(),
            ControlBlock::new(
                "ingress",
                vec![Stmt::ApplySelect {
                    table: "t1".into(),
                    arms: vec![("set_dst".into(), vec![Stmt::Apply("t3".into())])],
                    default: vec![],
                }],
            ),
        );
        let g = DependencyGraph::build(&p);
        assert_eq!(g.edge("t1", "t3"), Some(DependencyKind::Successor));
        // Successor allows sharing a stage: both at level 0 → 1 stage.
        assert_eq!(g.min_stages(), 1);
    }

    #[test]
    fn sibling_branches_are_mutually_exclusive() {
        // t2 and t3 both write meta.egress_spec (action dependency when
        // sequential), but placed in sibling arms of t1's ApplySelect they
        // are mutually exclusive → no edge, shared stage allowed.
        let mut p = program();
        p.controls.insert(
            "ingress".into(),
            ControlBlock::new(
                "ingress",
                vec![Stmt::ApplySelect {
                    table: "t1".into(),
                    arms: vec![("set_dst".into(), vec![Stmt::Apply("t2".into())])],
                    default: vec![Stmt::Apply("t3".into())],
                }],
            ),
        );
        let g = DependencyGraph::build(&p);
        assert_eq!(
            g.edge("t2", "t3"),
            None,
            "exclusive siblings must not depend"
        );
        // t1 → t2 is still a match dependency (t1 writes what t2 matches).
        assert_eq!(g.edge("t1", "t2"), Some(DependencyKind::Match));
    }

    #[test]
    fn empty_program_zero_stages() {
        let p = Program::new("empty");
        let g = DependencyGraph::build(&p);
        assert_eq!(g.min_stages(), 0);
    }

    #[test]
    fn wildcard_overlap() {
        let overlaps = |a: &FieldRef, b: &FieldRef| FieldView::of(a).overlaps(FieldView::of(b));
        assert!(overlaps(&fref("sfc", "*"), &fref("sfc", "path_id")));
        assert!(overlaps(&fref("sfc", "path_id"), &fref("sfc", "*")));
        assert!(!overlaps(&fref("sfc", "*"), &fref("ipv4", "ttl")));
        // A register's pseudo-field overlaps only its own register.
        let (r, s) = (
            crate::action::register_field("r"),
            crate::action::register_field("s"),
        );
        assert!(overlaps(&r, &r) && !overlaps(&r, &s));
        assert!(!overlaps(&r, &fref("r", "*")));
    }
}
