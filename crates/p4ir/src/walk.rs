//! The one walk of the verifier's dataflow passes. The structural pass
//! (`lint`: header validity, read before write) and the value pass
//! (`analyze`: intervals and known bits) are two [`Domain`]s of [`walk`],
//! which owns the traversal — every parser path, then the entry control in
//! program order, joining the exits of alternatives — its bounds
//! ([`MAX_DEPTH`], no re-entry of a parser vertex on the path or of a
//! control on the call stack: the loops `validate` rejects) and the witness
//! [`Trail`]. A domain says what each step means and whether a case,
//! branch or arm can run at all (`None` prunes it).

use crate::action::ActionDef;
use crate::analyze::ShowBool;
use crate::control::{BoolExpr, Stmt};
use crate::parser::{ParseNode, Target, Transition};
use crate::program::Program;
use crate::table::TableDef;
use crate::value::Value;
use std::fmt;

/// Longest parser path and deepest branch and call nesting the walk
/// follows.
const MAX_DEPTH: usize = 64;

/// One step of the path that led the walk to a point: borrowed from the
/// program while walking, rendered only into a diagnostic's witness.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step<'a> {
    /// A parser vertex, rendered `header@offset`.
    Vertex(&'a ParseNode),
    /// A select case taken.
    Case(Value),
    /// A select's default taken.
    Default,
    /// The control the walk starts in.
    Control(&'a str),
    /// A table applied.
    Apply(&'a str),
    /// An `ApplySelect` arm taken.
    Arm(&'a str),
    /// An `ApplySelect`'s default taken.
    ArmDefault,
    /// A gateway's then-branch taken.
    Then(&'a BoolExpr),
    /// A gateway's else-branch taken.
    Else(&'a BoolExpr),
    /// An action invoked directly.
    Do(&'a str),
    /// A control called.
    Call(&'a str),
    /// An action evaluated on its own (the value pass's `DJV201`).
    Action(&'a str),
}

impl fmt::Display for Step<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Vertex(node) => write!(f, "{}@{}", node.header_type, node.offset),
            Step::Case(v) => write!(f, "case {v}"),
            Step::Default => f.write_str("default"),
            Step::Control(name) => write!(f, "control {name}"),
            Step::Apply(table) => write!(f, "apply {table}"),
            Step::Arm(action) => write!(f, "arm {action}"),
            Step::ArmDefault => f.write_str("arm default"),
            Step::Then(cond) => write!(f, "if {} [then]", ShowBool(cond)),
            Step::Else(cond) => write!(f, "if {} [else]", ShowBool(cond)),
            Step::Do(action) => write!(f, "do {action}"),
            Step::Call(control) => write!(f, "call {control}"),
            Step::Action(action) => write!(f, "action {action}"),
        }
    }
}

/// Where the walk is, outermost first.
#[derive(Default)]
pub(crate) struct Trail<'a> {
    /// The steps that led here: a finding's witness.
    pub steps: Vec<Step<'a>>,
    /// The controls being executed.
    calls: Vec<&'a str>,
}

impl<'a> Trail<'a> {
    /// The control the current statement belongs to.
    pub fn control(&self) -> &'a str {
        self.calls.last().copied().unwrap_or_default()
    }

    /// The parser vertices on the current path, first to last.
    pub fn vertices(&self) -> impl Iterator<Item = &'a ParseNode> + '_ {
        self.steps.iter().filter_map(|s| match s {
            Step::Vertex(node) => Some(*node),
            _ => None,
        })
    }
}

/// What one dataflow pass computes: its facts and the hooks the walk calls
/// at each step.
pub(crate) trait Domain<'a> {
    /// Facts along one parser path.
    type Path: Clone + Default;
    /// Facts at one point of the control flow.
    type State: Clone;
    /// Whether a table may run a miss action it does not list.
    const UNLISTED_MISS: bool;

    /// Entering parser vertex `node`, before its step is on the trail.
    fn vertex(&mut self, node: &'a ParseNode, path: &mut Self::Path, trail: &Trail<'a>);

    /// The facts under select case `value` of `node` on `field`, from the
    /// facts `pre` before the select; a case may also narrow or prune
    /// `rest`, the default's. By default every case runs from `pre`.
    fn case(
        &mut self,
        _node: &'a ParseNode,
        _field: &'a str,
        _value: Value,
        pre: &Self::Path,
        _rest: &mut Option<Self::Path>,
        _trail: &Trail<'a>,
    ) -> Option<Self::Path> {
        Some(pre.clone())
    }

    /// A parser path reaches accept.
    fn accept(&mut self, path: Self::Path, trail: &Trail<'a>);

    /// The state the entry control starts in, after the parser walk.
    fn entry(&mut self) -> Self::State;

    /// Folds `other`, the exit of an alternative, into `acc`.
    fn join(&self, acc: &mut Self::State, other: Self::State);

    /// The states the then and else `branches` of an `If` on `cond` start
    /// in, from `state`. With both pruned, `state` flows on.
    fn gateway(
        &mut self,
        cond: &'a BoolExpr,
        branches: [&'a [Stmt]; 2],
        state: &Self::State,
        trail: &Trail<'a>,
    ) -> [Option<Self::State>; 2];

    /// `table` is applied in `state`, before its actions run.
    fn table(&mut self, table: &'a TableDef, state: &Self::State, trail: &Trail<'a>);

    /// `action` runs in `state`, from a table or a `Do`.
    fn action(&mut self, action: &'a ActionDef, state: &mut Self::State, trail: &Trail<'a>);

    /// The state an `ApplySelect` arm for `action` (the default: `None`)
    /// starts in, from the states before (`pre`) and after (`post`) the
    /// table (`None` if undefined). By default every arm starts from `post`.
    fn arm(
        &mut self,
        _table: Option<&'a TableDef>,
        _action: Option<&'a str>,
        _pre: &Self::State,
        post: &Self::State,
        _trail: &Trail<'a>,
    ) -> Option<Self::State> {
        Some(post.clone())
    }
}

/// Runs `domain` over `program`'s parser, then its entry control.
pub(crate) fn walk<'a, D: Domain<'a>>(program: &'a Program, domain: &mut D) {
    let mut walker = Walker {
        program,
        domain,
        trail: Trail::default(),
    };
    if let Some(start) = program.parser.start {
        walker.parse(start, D::Path::default(), 0);
    }
    let state = walker.domain.entry();
    let Some(entry) = program.entry_control() else {
        return;
    };
    walker.trail.calls.push(&entry.name);
    walker.trail.steps.push(Step::Control(&entry.name));
    walker.walk_stmts(&entry.body, state, 0);
}

struct Walker<'a, 'd, D> {
    program: &'a Program,
    domain: &'d mut D,
    trail: Trail<'a>,
}

impl<'a, D: Domain<'a>> Walker<'a, '_, D> {
    /// Runs `f` with `step` on the trail.
    fn under<R>(&mut self, step: Step<'a>, f: impl FnOnce(&mut Self) -> R) -> R {
        self.trail.steps.push(step);
        let out = f(self);
        self.trail.steps.pop();
        out
    }

    fn join_into(&self, exits: &mut Option<D::State>, exit: D::State) {
        match exits {
            Some(acc) => self.domain.join(acc, exit),
            None => *exits = Some(exit),
        }
    }

    fn parse(&mut self, target: Target, mut path: D::Path, depth: usize) {
        let node = match target {
            _ if depth > MAX_DEPTH => return,
            Target::Accept => return self.domain.accept(path, &self.trail),
            Target::Reject => return,
            Target::Node(i) => match self.program.parser.nodes.get(i) {
                Some(node) => node,
                None => return,
            },
        };
        if self.trail.vertices().any(|v| std::ptr::eq(v, node)) {
            return; // a parser loop: `validate` rejects it
        }
        self.domain.vertex(node, &mut path, &self.trail);
        self.under(Step::Vertex(node), |w| match &node.transition {
            Transition::Unconditional(t) => w.parse(*t, path, depth + 1),
            Transition::Select {
                field,
                cases,
                default,
            } => {
                let mut rest = Some(path.clone());
                for (value, t) in cases {
                    let case = w
                        .domain
                        .case(node, field, *value, &path, &mut rest, &w.trail);
                    if let Some(case) = case {
                        w.under(Step::Case(*value), |w| w.parse(*t, case, depth + 1));
                    }
                }
                if let Some(rest) = rest {
                    w.under(Step::Default, |w| w.parse(*default, rest, depth + 1));
                }
            }
        });
    }

    fn walk_stmts(&mut self, stmts: &'a [Stmt], mut state: D::State, depth: usize) -> D::State {
        if depth > MAX_DEPTH {
            return state;
        }
        for stmt in stmts {
            state = self.walk_stmt(stmt, state, depth);
        }
        state
    }

    fn walk_stmt(&mut self, stmt: &'a Stmt, mut state: D::State, depth: usize) -> D::State {
        match stmt {
            Stmt::Apply(table) => self.under(Step::Apply(table), |w| w.apply(table, state)),
            Stmt::ApplySelect {
                table,
                arms,
                default,
            } => self.under(Step::Apply(table), |w| {
                let post = w.apply(table, state.clone());
                let def = w.program.tables.get(table);
                let arms = arms.iter().map(|(a, body)| (Some(a.as_str()), body));
                let mut exits = None;
                for (action, body) in arms.chain([(None, default)]) {
                    if let Some(arm) = w.domain.arm(def, action, &state, &post, &w.trail) {
                        let step = action.map_or(Step::ArmDefault, Step::Arm);
                        let exit = w.under(step, |w| w.walk_stmts(body, arm, depth + 1));
                        w.join_into(&mut exits, exit);
                    }
                }
                exits.unwrap_or(post)
            }),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let branches = [&then_branch[..], &else_branch[..]];
                let [then_state, else_state] =
                    self.domain.gateway(cond, branches, &state, &self.trail);
                let mut exits = None;
                for (start, branch, step) in [
                    (then_state, then_branch, Step::Then(cond)),
                    (else_state, else_branch, Step::Else(cond)),
                ] {
                    if let Some(start) = start {
                        let exit = self.under(step, |w| w.walk_stmts(branch, start, depth + 1));
                        self.join_into(&mut exits, exit);
                    }
                }
                exits.unwrap_or(state)
            }
            Stmt::Do(action) => self.under(Step::Do(action), |w| {
                if let Some(def) = w.program.actions.get(action) {
                    w.domain.action(def, &mut state, &w.trail);
                }
                state
            }),
            Stmt::Call(control) => match self.program.callee(control, &self.trail.calls) {
                Some(callee) => self.under(Step::Call(control), |w| {
                    w.trail.calls.push(&callee.name);
                    let out = w.walk_stmts(&callee.body, state, depth + 1);
                    w.trail.calls.pop();
                    out
                }),
                None => state,
            },
        }
    }

    /// Applies table `name`: the table hook, then each action it may run
    /// from `state`, exits joined.
    fn apply(&mut self, name: &str, state: D::State) -> D::State {
        let program = self.program;
        let Some(table) = program.tables.get(name) else {
            return state;
        };
        self.domain.table(table, &state, &self.trail);
        let unlisted = D::UNLISTED_MISS && !table.actions.contains(&table.default_action);
        let miss = unlisted.then_some(&table.default_action);
        let mut exits = None;
        for def in table.actions.iter().chain(miss) {
            if let Some(def) = program.actions.get(def) {
                let mut exit = state.clone();
                self.domain.action(def, &mut exit, &self.trail);
                self.join_into(&mut exits, exit);
            }
        }
        exits.unwrap_or(state)
    }
}

#[cfg(test)]
mod tests {
    use crate::control::{ControlBlock, Stmt};
    use crate::header::HeaderType;
    use crate::parser::{ParseNode, Target, Transition};
    use crate::program::Program;
    use crate::value::Value;
    use crate::{analyze, lint, DependencyGraph};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::{Duration, Instant};

    /// A program whose controls call the named controls, entry `ingress`.
    fn calling(controls: &[(&str, &[&str])]) -> Program {
        let mut p = Program::new("recursive");
        for (name, callees) in controls {
            let body = callees.iter().map(|c| Stmt::Call(c.to_string())).collect();
            p.controls
                .insert(name.to_string(), ControlBlock::new(*name, body));
        }
        p.entry = "ingress".into();
        p
    }

    /// A program whose one parser vertex loops back to itself on a select
    /// case and on the default.
    fn parser_loop() -> Program {
        let mut p = calling(&[("ingress", &[])]);
        let h = HeaderType::new("h", vec![("f", 8u16)]).unwrap();
        p.header_types.insert("h".into(), h);
        let looped = Target::Node(0);
        let n = p.parser.add_node(ParseNode {
            header_type: "h".into(),
            offset: 0,
            transition: Transition::Select {
                field: "f".into(),
                cases: vec![(Value::new(1, 8), looped)],
                default: looped,
            },
        });
        p.parser.start = Some(Target::Node(n));
        p
    }

    /// `validate` refuses a recursive control or parser loop at once; the
    /// checks that walk calls and parser paths must return at once too,
    /// not follow each call site or select target down to a depth bound
    /// (2^64 visits for two of them).
    #[test]
    fn every_walk_returns_on_a_recursive_control() {
        let programs = [
            calling(&[("ingress", &["ingress", "ingress"])]),
            calling(&[("ingress", &["a"]), ("a", &["a", "a"])]),
            parser_loop(),
        ];
        type Check = (&'static str, fn(&Program));
        let checks: [Check; 3] = [
            ("lint::check", |p| drop(lint::check(p))),
            ("analyze::check", |p| drop(analyze::check(p))),
            ("DependencyGraph::build", |p| {
                drop(DependencyGraph::build(p))
            }),
        ];
        let (done, finished) = mpsc::channel();
        let (mut pending, mut threads) = (Vec::new(), Vec::new());
        for (i, program) in programs.iter().enumerate() {
            assert!(program.validate().is_err(), "program {i} loops");
            for (name, check) in checks {
                let (done, program) = (done.clone(), program.clone());
                threads.push(std::thread::spawn(move || {
                    check(&program);
                    let _ = done.send((i, name));
                }));
                pending.push((i, name));
            }
        }
        // A hung check cannot be joined: wait for the others with a bound.
        drop(done);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pending.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            match finished.recv_timeout(left) {
                Ok(check) => pending.retain(|p| *p != check),
                Err(RecvTimeoutError::Disconnected) => break, // a check panicked
                Err(RecvTimeoutError::Timeout) => {
                    panic!("still walking after 5 s (program, check): {pending:?}")
                }
            }
        }
        for thread in threads {
            thread
                .join()
                .expect("a check panicked on a recursive control");
        }
    }
}
