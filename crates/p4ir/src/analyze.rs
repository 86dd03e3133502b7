//! The abstract-interpretation pass of `dejavu-lint` (`DJV201`–`DJV204`).
//!
//! The structural pass ([`crate::lint::check`]) reasons about *which* headers
//! and metadata a program touches; this pass reasons about *what values* flow
//! through them. A per-field abstract domain — an interval `[lo, hi]` paired
//! with a known-bits mask — is propagated through the parser DAG, the control
//! flow, and action op arrays, mirroring the interpreter's semantics exactly
//! (binary ops wrap at the left operand's width, field writes truncate to the
//! destination width, comparisons are width-agnostic on raw values).
//!
//! It emits into the shared framework of [`crate::lint`] — same registry,
//! same [`LintConfig`], same [`LintReport`] — and owns only the domain
//! ([`AbstractValue`], [`Tri`]) and the walk:
//!
//! * **`DJV201` value truncation** — an assignment (or register access)
//!   whose value may exceed the destination's width. Intentional narrowing
//!   is expressed with an explicit `And` mask, which the known-bits domain
//!   recognizes and does not flag.
//! * **`DJV202` infeasible path** — a parser select case, `if` branch, or
//!   `ApplySelect` arm that can never execute given the value refinements
//!   along every path reaching it.
//! * **`DJV203` unmatchable entry** — an installed-entry pattern (supplied
//!   via [`LintConfig::with_entries`]) that no feasible key value can
//!   ever match.
//! * **`DJV204` unbounded recirculation** — a resubmit/recirculate flag set
//!   with no guard at all, or with a guard no action in the program ever
//!   writes, so the packet loops forever.
//!
//! Every finding carries a path witness (`via:` lines) explaining how the
//! walk reached the flagged point. Entry points: [`check`] with defaults,
//! [`check_with_config`] under an explicit configuration.

use crate::action::{ActionDef, Expr, PrimitiveOp};
use crate::control::{BoolExpr, CmpOp, Stmt};
use crate::header::FieldRef;
use crate::lint::{Diagnostic, LintCode, LintConfig, LintReport};
use crate::parser::{Target, Transition};
use crate::program::Program;
use crate::table::{KeyMatch, TableDef};
use crate::value::mask_for;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// The abstract domain
// ---------------------------------------------------------------------------

/// Abstract value of one field: an interval `[lo, hi]` joined with a
/// known-bits mask, at a declared width.
///
/// Invariants: `lo <= hi <= mask_for(bits)`, `known_bits` is a subset of
/// `known_mask`. Every transfer function mirrors the interpreter: binary
/// operations take their width from the **left** operand, and
/// [`AbstractValue::resize`] models the truncating field write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbstractValue {
    /// Width in bits.
    pub bits: u16,
    /// Inclusive lower bound.
    pub lo: u128,
    /// Inclusive upper bound.
    pub hi: u128,
    /// Mask of bits whose value is known.
    pub known_mask: u128,
    /// Values of the known bits (subset of `known_mask`).
    pub known_bits: u128,
}

impl AbstractValue {
    /// The single concrete value `raw` (truncated to `bits`).
    pub fn exact(raw: u128, bits: u16) -> Self {
        let m = mask_for(bits);
        let raw = raw & m;
        AbstractValue {
            bits,
            lo: raw,
            hi: raw,
            known_mask: m,
            known_bits: raw,
        }
    }

    /// The full value set at the given width (no information).
    pub fn top(bits: u16) -> Self {
        AbstractValue {
            bits,
            lo: 0,
            hi: mask_for(bits),
            known_mask: 0,
            known_bits: 0,
        }
    }

    /// The concrete value, if this abstraction pins exactly one.
    pub fn as_exact(&self) -> Option<u128> {
        if self.lo == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// True if `raw` is in the abstraction's value set.
    pub fn contains(&self, raw: u128) -> bool {
        raw >= self.lo && raw <= self.hi && (raw & self.known_mask) == self.known_bits
    }

    /// True if the value set contains anything other than zero.
    pub fn may_be_nonzero(&self) -> bool {
        self.hi != 0
    }

    /// Least upper bound of two abstractions at `self`'s width.
    pub fn join(&self, other: &AbstractValue) -> AbstractValue {
        let other = other.resize(self.bits);
        let known_mask = self.known_mask & other.known_mask & !(self.known_bits ^ other.known_bits);
        AbstractValue {
            bits: self.bits,
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            known_mask,
            known_bits: self.known_bits & known_mask,
        }
    }

    /// Reinterprets at a new width — the abstract counterpart of the
    /// interpreter's truncating field write / widening field read.
    pub fn resize(&self, bits: u16) -> AbstractValue {
        if bits == self.bits {
            return *self;
        }
        let m = mask_for(bits);
        if bits > self.bits {
            // Widening: high bits are known zero.
            return AbstractValue {
                bits,
                lo: self.lo,
                hi: self.hi,
                known_mask: self.known_mask | (m & !mask_for(self.bits)),
                known_bits: self.known_bits,
            };
        }
        // Narrowing.
        let known_mask = self.known_mask & m;
        let known_bits = self.known_bits & m;
        let kb_lo = known_bits;
        let kb_hi = known_bits | (m & !known_mask);
        if self.hi <= m {
            // All values already fit: the interval survives, tightened by
            // the known-bit bounds.
            AbstractValue {
                bits,
                lo: self.lo.max(kb_lo),
                hi: self.hi.min(kb_hi),
                known_mask,
                known_bits,
            }
        } else {
            // Truncation wraps: interval information is lost; only the
            // surviving known bits bound the result.
            AbstractValue {
                bits,
                lo: kb_lo,
                hi: kb_hi,
                known_mask,
                known_bits,
            }
        }
    }

    /// Rebuilds the interval purely from the known bits (used after bitwise
    /// transfer functions).
    fn from_known(bits: u16, known_mask: u128, known_bits: u128) -> AbstractValue {
        let m = mask_for(bits);
        let known_mask = known_mask & m;
        let known_bits = known_bits & known_mask;
        AbstractValue {
            bits,
            lo: known_bits,
            hi: known_bits | (m & !known_mask),
            known_mask,
            known_bits,
        }
    }

    /// Wrapping addition at `self`'s width.
    pub fn add(&self, rhs: &AbstractValue) -> AbstractValue {
        let m = mask_for(self.bits);
        if let (Some(a), Some(b)) = (self.as_exact(), rhs.as_exact()) {
            return AbstractValue::exact(a.wrapping_add(b) & m, self.bits);
        }
        match (self.hi.checked_add(rhs.hi), self.lo.checked_add(rhs.lo)) {
            (Some(hi), Some(lo)) if hi <= m => AbstractValue {
                bits: self.bits,
                lo,
                hi,
                known_mask: 0,
                known_bits: 0,
            },
            _ => AbstractValue::top(self.bits),
        }
    }

    /// Wrapping subtraction at `self`'s width.
    pub fn sub(&self, rhs: &AbstractValue) -> AbstractValue {
        let m = mask_for(self.bits);
        if let (Some(a), Some(b)) = (self.as_exact(), rhs.as_exact()) {
            return AbstractValue::exact(a.wrapping_sub(b) & m, self.bits);
        }
        if self.lo >= rhs.hi && rhs.hi <= m {
            AbstractValue {
                bits: self.bits,
                lo: self.lo - rhs.hi,
                hi: self.hi - rhs.lo,
                known_mask: 0,
                known_bits: 0,
            }
        } else {
            AbstractValue::top(self.bits)
        }
    }

    /// Bitwise AND at `self`'s width.
    pub fn and(&self, rhs: &AbstractValue) -> AbstractValue {
        let rhs = rhs.resize(self.bits);
        let a1 = self.known_mask & self.known_bits;
        let a0 = self.known_mask & !self.known_bits;
        let b1 = rhs.known_mask & rhs.known_bits;
        let b0 = rhs.known_mask & !rhs.known_bits;
        let k1 = a1 & b1;
        let k0 = a0 | b0;
        AbstractValue::from_known(self.bits, k1 | k0, k1)
    }

    /// Bitwise OR at `self`'s width.
    pub fn or(&self, rhs: &AbstractValue) -> AbstractValue {
        let rhs = rhs.resize(self.bits);
        let a1 = self.known_mask & self.known_bits;
        let a0 = self.known_mask & !self.known_bits;
        let b1 = rhs.known_mask & rhs.known_bits;
        let b0 = rhs.known_mask & !rhs.known_bits;
        let k1 = a1 | b1;
        let k0 = a0 & b0;
        AbstractValue::from_known(self.bits, k1 | k0, k1)
    }

    /// Bitwise XOR at `self`'s width.
    pub fn xor(&self, rhs: &AbstractValue) -> AbstractValue {
        let rhs = rhs.resize(self.bits);
        let km = self.known_mask & rhs.known_mask;
        AbstractValue::from_known(self.bits, km, (self.known_bits ^ rhs.known_bits) & km)
    }

    /// Logical shift left by a constant, at `self`'s width.
    pub fn shl(&self, amount: u32) -> AbstractValue {
        if amount >= 128 {
            return AbstractValue::exact(0, self.bits);
        }
        let m = mask_for(self.bits);
        if let Some(x) = self.as_exact() {
            return AbstractValue::exact((x << amount) & m, self.bits);
        }
        let low_known_zero = if amount == 0 {
            0
        } else {
            mask_for(amount.min(128) as u16)
        };
        let km = ((self.known_mask << amount) | low_known_zero) & m;
        // Bits shifted in past the width are lost; bits whose source lay
        // beyond the width were zero anyway.
        let hi_src_known = self.known_mask | !mask_for(self.bits);
        let km = km & ((hi_src_known << amount) | low_known_zero);
        AbstractValue::from_known(self.bits, km, (self.known_bits << amount) & km)
    }

    /// Logical shift right by a constant, at `self`'s width.
    pub fn shr(&self, amount: u32) -> AbstractValue {
        if amount >= 128 {
            return AbstractValue::exact(0, self.bits);
        }
        let m = mask_for(self.bits);
        if let Some(x) = self.as_exact() {
            return AbstractValue::exact((x >> amount) & m, self.bits);
        }
        let high_known_zero = m & !(m >> amount);
        let km = ((self.known_mask >> amount) | high_known_zero) & m;
        let mut out = AbstractValue::from_known(self.bits, km, (self.known_bits >> amount) & km);
        // shr is monotonic, so the interval survives it.
        out.lo = out.lo.max(self.lo >> amount);
        out.hi = out.hi.min(self.hi >> amount);
        out
    }
}

/// Three-valued truth of an abstract condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// Provably true on every concrete value in the abstraction.
    True,
    /// Provably false on every concrete value in the abstraction.
    False,
    /// Cannot be decided abstractly.
    Maybe,
}

impl Tri {
    fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Maybe => Tri::Maybe,
        }
    }
}

type Env = BTreeMap<FieldRef, AbstractValue>;

/// Joins two per-path environments: only facts established on both paths
/// survive (an absent binding means "any value").
fn join_envs(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    for (k, va) in a {
        if let Some(vb) = b.get(k) {
            out.insert(k.clone(), va.join(vb));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Expression / condition evaluation and refinement
// ---------------------------------------------------------------------------

/// Compact source-like rendering of an expression for messages.
fn fmt_expr(e: &Expr) -> String {
    match e {
        Expr::Const(v) => v.to_string(),
        Expr::Field(fr) => fr.to_string(),
        Expr::Param(p) => format!("${p}"),
        Expr::Add(a, b) => format!("({} + {})", fmt_expr(a), fmt_expr(b)),
        Expr::Sub(a, b) => format!("({} - {})", fmt_expr(a), fmt_expr(b)),
        Expr::And(a, b) => format!("({} & {})", fmt_expr(a), fmt_expr(b)),
        Expr::Or(a, b) => format!("({} | {})", fmt_expr(a), fmt_expr(b)),
        Expr::Xor(a, b) => format!("({} ^ {})", fmt_expr(a), fmt_expr(b)),
        Expr::Shl(a, n) => format!("({} << {n})", fmt_expr(a)),
        Expr::Shr(a, n) => format!("({} >> {n})", fmt_expr(a)),
    }
}

/// Compact source-like rendering of a condition for messages.
fn fmt_bool(b: &BoolExpr) -> String {
    match b {
        BoolExpr::Cmp(a, op, c) => {
            let sym = match op {
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!("{} {sym} {}", fmt_expr(a), fmt_expr(c))
        }
        BoolExpr::And(a, c) => format!("({} && {})", fmt_bool(a), fmt_bool(c)),
        BoolExpr::Or(a, c) => format!("({} || {})", fmt_bool(a), fmt_bool(c)),
        BoolExpr::Not(a) => format!("!({})", fmt_bool(a)),
        BoolExpr::Valid(h) => format!("isValid({h})"),
    }
}

const MAX_DEPTH: usize = 64;

struct Analyzer<'a> {
    program: &'a Program,
    config: &'a LintConfig,
    report: LintReport,
    /// Every field any action in the program writes (for DJV204 guard
    /// mutability).
    writers: Vec<FieldRef>,
}

impl<'a> Analyzer<'a> {
    fn new(program: &'a Program, config: &'a LintConfig) -> Self {
        let writers = program
            .actions
            .values()
            .flat_map(|a| a.writes())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        Analyzer {
            program,
            config,
            report: LintReport::default(),
            writers,
        }
    }

    fn emit(&mut self, code: LintCode, entity: &str, message: String, witness: Vec<String>) {
        let diag = Diagnostic::new(code, entity, message).with_witness(witness);
        self.report.emit(self.config, diag);
    }

    /// Natural-width abstract evaluation, mirroring the interpreter: the
    /// width of a binary operation is the width of its left operand.
    fn eval(&self, e: &Expr, env: &Env, action: Option<&ActionDef>) -> AbstractValue {
        match e {
            Expr::Const(v) => AbstractValue::exact(v.raw(), v.bits()),
            Expr::Field(fr) => {
                let bits = self.program.field_width(fr).unwrap_or(128);
                env.get(fr)
                    .map(|v| v.resize(bits))
                    .unwrap_or_else(|| AbstractValue::top(bits))
            }
            Expr::Param(p) => {
                let bits = action
                    .and_then(|a| a.params.iter().find(|(n, _)| n == p))
                    .map(|(_, w)| *w)
                    .unwrap_or(128);
                AbstractValue::top(bits)
            }
            Expr::Add(a, b) => self.eval(a, env, action).add(&self.eval(b, env, action)),
            Expr::Sub(a, b) => self.eval(a, env, action).sub(&self.eval(b, env, action)),
            Expr::And(a, b) => self.eval(a, env, action).and(&self.eval(b, env, action)),
            Expr::Or(a, b) => self.eval(a, env, action).or(&self.eval(b, env, action)),
            Expr::Xor(a, b) => self.eval(a, env, action).xor(&self.eval(b, env, action)),
            Expr::Shl(a, n) => self.eval(a, env, action).shl(*n),
            Expr::Shr(a, n) => self.eval(a, env, action).shr(*n),
        }
    }

    /// Three-valued truth of a condition under an environment. The
    /// comparison is width-agnostic on raw values, as in the interpreter.
    fn eval_bool(&self, b: &BoolExpr, env: &Env) -> Tri {
        match b {
            BoolExpr::Cmp(a, op, c) => {
                let ea = self.eval(a, env, None);
                let ec = self.eval(c, env, None);
                cmp_tri(&ea, *op, &ec)
            }
            BoolExpr::And(a, c) => match (self.eval_bool(a, env), self.eval_bool(c, env)) {
                (Tri::True, Tri::True) => Tri::True,
                (Tri::False, _) | (_, Tri::False) => Tri::False,
                _ => Tri::Maybe,
            },
            BoolExpr::Or(a, c) => match (self.eval_bool(a, env), self.eval_bool(c, env)) {
                (Tri::False, Tri::False) => Tri::False,
                (Tri::True, _) | (_, Tri::True) => Tri::True,
                _ => Tri::Maybe,
            },
            BoolExpr::Not(a) => self.eval_bool(a, env).not(),
            BoolExpr::Valid(_) => Tri::Maybe,
        }
    }

    /// Refines `env` under the assumption that `cond` evaluates to `truth`.
    /// `None` means the assumption contradicts the environment.
    fn assume(&self, cond: &BoolExpr, truth: bool, env: &Env) -> Option<Env> {
        match cond {
            BoolExpr::Not(a) => self.assume(a, !truth, env),
            BoolExpr::And(a, b) if truth => {
                let e = self.assume(a, true, env)?;
                self.assume(b, true, &e)
            }
            BoolExpr::Or(a, b) if !truth => {
                let e = self.assume(a, false, env)?;
                self.assume(b, false, &e)
            }
            BoolExpr::Cmp(a, op, b) => {
                let eff = if truth { *op } else { negate_op(*op) };
                if let (Expr::Field(fr), Expr::Const(v)) = (a, b) {
                    return self.refine_field(env, fr, eff, v.raw());
                }
                if let (Expr::Const(v), Expr::Field(fr)) = (a, b) {
                    return self.refine_field(env, fr, mirror_op(eff), v.raw());
                }
                Some(env.clone())
            }
            _ => Some(env.clone()),
        }
    }

    /// Clamps the abstraction of `fr` by `fr <op> raw`. `None` on
    /// contradiction.
    fn refine_field(&self, env: &Env, fr: &FieldRef, op: CmpOp, raw: u128) -> Option<Env> {
        let Some(bits) = self.program.field_width(fr) else {
            return Some(env.clone());
        };
        let cur = env
            .get(fr)
            .copied()
            .unwrap_or_else(|| AbstractValue::top(bits));
        let m = mask_for(cur.bits);
        let refined = match op {
            CmpOp::Eq => {
                if raw > m || !cur.contains(raw) {
                    return None;
                }
                AbstractValue::exact(raw, cur.bits)
            }
            CmpOp::Ne => {
                let mut v = cur;
                if v.as_exact() == Some(raw) {
                    return None;
                }
                if v.lo == raw {
                    v.lo += 1;
                }
                if v.hi == raw && v.hi > 0 {
                    v.hi -= 1;
                }
                if v.lo > v.hi {
                    return None;
                }
                v
            }
            CmpOp::Lt => {
                if raw == 0 {
                    return None;
                }
                let mut v = cur;
                v.hi = v.hi.min(raw - 1);
                if v.lo > v.hi {
                    return None;
                }
                v
            }
            CmpOp::Le => {
                let mut v = cur;
                v.hi = v.hi.min(raw);
                if v.lo > v.hi {
                    return None;
                }
                v
            }
            CmpOp::Gt => {
                let mut v = cur;
                v.lo = v.lo.max(raw.checked_add(1)?);
                if v.lo > v.hi {
                    return None;
                }
                v
            }
            CmpOp::Ge => {
                let mut v = cur;
                v.lo = v.lo.max(raw);
                if v.lo > v.hi {
                    return None;
                }
                v
            }
        };
        let mut out = env.clone();
        out.insert(fr.clone(), refined);
        Some(out)
    }
}

fn cmp_tri(a: &AbstractValue, op: CmpOp, b: &AbstractValue) -> Tri {
    let eq = {
        let disjoint = a.hi < b.lo || b.hi < a.lo;
        let cm = a.known_mask & b.known_mask;
        let bit_conflict = (a.known_bits ^ b.known_bits) & cm != 0;
        if disjoint || bit_conflict {
            Tri::False
        } else if a.as_exact().is_some() && a.as_exact() == b.as_exact() {
            Tri::True
        } else {
            Tri::Maybe
        }
    };
    match op {
        CmpOp::Eq => eq,
        CmpOp::Ne => eq.not(),
        CmpOp::Lt => {
            if a.hi < b.lo {
                Tri::True
            } else if a.lo >= b.hi {
                Tri::False
            } else {
                Tri::Maybe
            }
        }
        CmpOp::Le => {
            if a.hi <= b.lo {
                Tri::True
            } else if a.lo > b.hi {
                Tri::False
            } else {
                Tri::Maybe
            }
        }
        CmpOp::Gt => {
            if a.lo > b.hi {
                Tri::True
            } else if a.hi <= b.lo {
                Tri::False
            } else {
                Tri::Maybe
            }
        }
        CmpOp::Ge => {
            if a.lo >= b.hi {
                Tri::True
            } else if a.hi < b.lo {
                Tri::False
            } else {
                Tri::Maybe
            }
        }
    }
}

fn negate_op(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Ge => CmpOp::Lt,
    }
}

/// `a <op> b` rewritten as `b <op'> a`.
fn mirror_op(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

// ---------------------------------------------------------------------------
// Parser pass (DJV202 on select cases, entry-environment construction)
// ---------------------------------------------------------------------------

/// Per-run parser walk state.
struct ParserState {
    /// Environment at each Accept, joined into the entry environment.
    accepts: Vec<Env>,
    /// Header types parsed more than once on some path — their refinements
    /// are ambiguous between instances, so they are dropped from the entry
    /// environment.
    poisoned: BTreeSet<String>,
}

impl<'a> Analyzer<'a> {
    /// Walks every parser path: flags never-matching select cases
    /// (`DJV202`) and returns the join of all accept-path environments — the
    /// value facts that hold for every packet entering the control flow.
    fn parser_pass(&mut self) -> Env {
        let mut st = ParserState {
            accepts: Vec::new(),
            poisoned: BTreeSet::new(),
        };
        if let Some(start) = self.program.parser.start {
            self.visit_parser(start, Env::new(), BTreeSet::new(), Vec::new(), &mut st, 0);
        }
        let mut iter = st.accepts.into_iter();
        let mut entry = iter.next().unwrap_or_default();
        for e in iter {
            entry = join_envs(&entry, &e);
        }
        entry.retain(|k, _| !st.poisoned.contains(&k.header));
        entry
    }

    fn visit_parser(
        &mut self,
        target: Target,
        mut env: Env,
        mut parsed: BTreeSet<String>,
        mut path: Vec<String>,
        st: &mut ParserState,
        depth: usize,
    ) {
        if depth > MAX_DEPTH {
            return;
        }
        let node_idx = match target {
            Target::Accept => {
                st.accepts.push(env);
                return;
            }
            Target::Reject => return,
            Target::Node(i) => i,
        };
        let Some(node) = self.program.parser.nodes.get(node_idx) else {
            return;
        };
        let ht_name = node.header_type.clone();
        if !parsed.insert(ht_name.clone()) {
            st.poisoned.insert(ht_name.clone());
        }
        // Extracting a fresh instance invalidates prior refinements of this
        // header type.
        env.retain(|k, _| k.header != ht_name);
        path.push(format!("{ht_name}@{}", node.offset));
        let entity = format!("{ht_name}@{}", node.offset);
        match node.transition.clone() {
            Transition::Unconditional(t) => {
                self.visit_parser(t, env, parsed, path, st, depth + 1);
            }
            Transition::Select {
                field,
                cases,
                default,
            } => {
                let bits = self
                    .program
                    .header_types
                    .get(&ht_name)
                    .and_then(|ht| ht.field(&field))
                    .map(|f| f.bits)
                    .unwrap_or(128);
                let fr = FieldRef::new(ht_name.clone(), field.clone());
                let av = env
                    .get(&fr)
                    .copied()
                    .unwrap_or_else(|| AbstractValue::top(bits));
                let mut default_av = Some(av);
                for (v, t) in &cases {
                    if !av.contains(v.raw()) {
                        self.emit(
                            LintCode::InfeasiblePath,
                            &entity,
                            format!(
                                "select case {v} on {ht_name}.{field} can never match \
                                 (feasible range [{:#x}, {:#x}])",
                                av.lo, av.hi
                            ),
                            path.clone(),
                        );
                        continue;
                    }
                    let mut env2 = env.clone();
                    env2.insert(fr.clone(), AbstractValue::exact(v.raw(), bits));
                    let mut p2 = path.clone();
                    p2.push(format!("case {v}"));
                    self.visit_parser(*t, env2, parsed.clone(), p2, st, depth + 1);
                    // The default (and later cases, conservatively kept at
                    // the un-refined value) excludes this case's value.
                    default_av = default_av.and_then(|d| refine_ne(d, v.raw()));
                }
                if let Some(d) = default_av {
                    let mut env2 = env;
                    env2.insert(fr, d);
                    let mut p2 = path;
                    p2.push("default".into());
                    self.visit_parser(default, env2, parsed, p2, st, depth + 1);
                }
            }
        }
    }
}

/// `av` with the single value `raw` excluded; `None` if that empties it.
fn refine_ne(mut av: AbstractValue, raw: u128) -> Option<AbstractValue> {
    if av.as_exact() == Some(raw) {
        return None;
    }
    if av.lo == raw {
        av.lo += 1;
    }
    if av.hi == raw && av.hi > 0 {
        av.hi -= 1;
    }
    if av.lo > av.hi {
        return None;
    }
    Some(av)
}

// ---------------------------------------------------------------------------
// Control pass (DJV202 branches, DJV203 entries, DJV204 recirculation)
// ---------------------------------------------------------------------------

impl<'a> Analyzer<'a> {
    fn control_pass(&mut self, entry_env: Env) {
        let Some(entry) = self.program.entry_control() else {
            return;
        };
        let body = entry.body.clone();
        let name = entry.name.clone();
        let mut guards: Vec<FieldRef> = Vec::new();
        let mut path = vec![format!("control {name}")];
        self.walk_stmts(&body, entry_env, &name, &mut guards, &mut path, 0);
    }

    fn walk_stmts(
        &mut self,
        stmts: &[Stmt],
        mut env: Env,
        control: &str,
        guards: &mut Vec<FieldRef>,
        path: &mut Vec<String>,
        depth: usize,
    ) -> Env {
        if depth > MAX_DEPTH {
            return env;
        }
        for stmt in stmts {
            env = self.walk_stmt(stmt, env, control, guards, path, depth);
        }
        env
    }

    fn walk_stmt(
        &mut self,
        stmt: &Stmt,
        env: Env,
        control: &str,
        guards: &mut Vec<FieldRef>,
        path: &mut Vec<String>,
        depth: usize,
    ) -> Env {
        match stmt {
            Stmt::Apply(t) => {
                path.push(format!("apply {t}"));
                let out = self.apply_table(t, env, guards, path);
                path.pop();
                out
            }
            Stmt::ApplySelect {
                table,
                arms,
                default,
            } => {
                path.push(format!("apply {table}"));
                let joined = self.apply_table(table, env.clone(), guards, path);
                let Some(tdef) = self.program.tables.get(table).cloned() else {
                    path.pop();
                    return joined;
                };
                // Arm bodies are control-dependent on the table outcome:
                // its match keys guard them.
                let keys = tdef.match_reads();
                guards.extend(keys.iter().cloned());
                let mut exits: Vec<Env> = Vec::new();
                for (action, body) in arms {
                    if !tdef.actions.contains(action) {
                        self.emit(
                            LintCode::InfeasiblePath,
                            control,
                            format!(
                                "ApplySelect arm `{action}` on table {table} names an \
                                 action the table can never run"
                            ),
                            path.clone(),
                        );
                        continue;
                    }
                    // In this arm, exactly `action` ran.
                    let arm_env = self.apply_action(env.clone(), action);
                    path.push(format!("arm {action}"));
                    exits.push(self.walk_stmts(body, arm_env, control, guards, path, depth + 1));
                    path.pop();
                }
                path.push("arm default".into());
                exits.push(self.walk_stmts(default, joined, control, guards, path, depth + 1));
                path.pop();
                guards.truncate(guards.len() - keys.len());
                path.pop();
                let mut iter = exits.into_iter();
                let first = iter.next().unwrap_or_default();
                iter.fold(first, |acc, e| join_envs(&acc, &e))
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let tri = self.eval_bool(cond, &env);
                let desc = fmt_bool(cond);
                if tri == Tri::False && !then_branch.is_empty() {
                    self.emit(
                        LintCode::InfeasiblePath,
                        control,
                        format!("branch condition `{desc}` is always false"),
                        path.clone(),
                    );
                }
                if tri == Tri::True && !else_branch.is_empty() {
                    self.emit(
                        LintCode::InfeasiblePath,
                        control,
                        format!("else-branch of always-true condition `{desc}` never runs"),
                        path.clone(),
                    );
                }
                let n = cond.reads().len();
                guards.extend(cond.reads());
                let mut exits: Vec<Env> = Vec::new();
                if tri != Tri::False {
                    if let Some(e) = self.assume(cond, true, &env) {
                        path.push(format!("if {desc} [then]"));
                        exits.push(self.walk_stmts(
                            then_branch,
                            e,
                            control,
                            guards,
                            path,
                            depth + 1,
                        ));
                        path.pop();
                    }
                }
                if tri != Tri::True {
                    if let Some(e) = self.assume(cond, false, &env) {
                        path.push(format!("if {desc} [else]"));
                        exits.push(self.walk_stmts(
                            else_branch,
                            e,
                            control,
                            guards,
                            path,
                            depth + 1,
                        ));
                        path.pop();
                    }
                }
                guards.truncate(guards.len() - n);
                let mut iter = exits.into_iter();
                let first = iter.next().unwrap_or(env);
                iter.fold(first, |acc, e| join_envs(&acc, &e))
            }
            Stmt::Do(a) => {
                path.push(format!("do {a}"));
                self.check_recirc_site(a, &[], &env, guards, path);
                let out = self.apply_action(env, a);
                path.pop();
                out
            }
            Stmt::Call(c) => {
                if let Some(cb) = self.program.controls.get(c).cloned() {
                    path.push(format!("call {c}"));
                    let out = self.walk_stmts(&cb.body, env, &cb.name, guards, path, depth + 1);
                    path.pop();
                    out
                } else {
                    env
                }
            }
        }
    }

    /// Applies a table: DJV203 entry satisfiability against the feasible key
    /// values, DJV204 recirculation checks on every action the table may
    /// run, then havocs the environment with the join of all actions.
    fn apply_table(&mut self, table: &str, env: Env, guards: &[FieldRef], path: &[String]) -> Env {
        let Some(tdef) = self.program.tables.get(table).cloned() else {
            return env;
        };
        self.check_entries(&tdef, &env, path);
        let keys = tdef.match_reads();
        let mut exits: Vec<Env> = Vec::new();
        for action in &tdef.actions {
            self.check_recirc_site(action, &keys, &env, guards, path);
            exits.push(self.apply_action(env.clone(), action));
        }
        let mut iter = exits.into_iter();
        let first = iter.next().unwrap_or(env);
        iter.fold(first, |acc, e| join_envs(&acc, &e))
    }

    /// DJV203: every configured entry pattern must be matchable by some
    /// feasible key value.
    fn check_entries(&mut self, tdef: &TableDef, env: &Env, path: &[String]) {
        let Some(patterns) = self.config.entries.get(&tdef.name).cloned() else {
            return;
        };
        for (i, pattern) in patterns.iter().enumerate() {
            if pattern.len() != tdef.keys.len() {
                self.emit(
                    LintCode::UnmatchableEntry,
                    &tdef.name,
                    format!(
                        "installed entry {i} has {} key match(es), table has {} key(s)",
                        pattern.len(),
                        tdef.keys.len()
                    ),
                    path.to_vec(),
                );
                continue;
            }
            for (km, key) in pattern.iter().zip(&tdef.keys) {
                let bits = self.program.field_width(&key.field).unwrap_or(128);
                let av = env
                    .get(&key.field)
                    .copied()
                    .unwrap_or_else(|| AbstractValue::top(bits));
                if !may_match(&av, km, bits) {
                    self.emit(
                        LintCode::UnmatchableEntry,
                        &tdef.name,
                        format!(
                            "installed entry {i} can never match: key {} is confined to \
                             [{:#x}, {:#x}], outside the entry's match set",
                            key.field, av.lo, av.hi
                        ),
                        path.to_vec(),
                    );
                    break;
                }
            }
        }
    }

    /// DJV204: a `Set` of the resubmit/recirculate flag must sit behind a
    /// guard — the owning table's keys or an enclosing `if` — and some
    /// action in the program must be able to change that guard, or the
    /// packet loops forever.
    fn check_recirc_site(
        &mut self,
        action: &str,
        table_keys: &[FieldRef],
        env: &Env,
        guards: &[FieldRef],
        path: &[String],
    ) {
        let Some(adef) = self.program.actions.get(action) else {
            return;
        };
        for op in &adef.ops {
            let PrimitiveOp::Set { dst, value } = op else {
                continue;
            };
            if !dst.is_meta() || (dst.field != "resubmit_flag" && dst.field != "recirc_flag") {
                continue;
            }
            if !self.eval(value, env, Some(adef)).may_be_nonzero() {
                continue; // provably clears the flag
            }
            let all_guards: Vec<&FieldRef> = guards.iter().chain(table_keys.iter()).collect();
            if all_guards.is_empty() {
                self.emit(
                    LintCode::UnboundedRecirc,
                    action,
                    format!(
                        "action {action} sets {dst} with no guarding condition or \
                         table key: every pass resubmits again, unboundedly"
                    ),
                    path.to_vec(),
                );
                continue;
            }
            let mutable = all_guards
                .iter()
                .any(|g| self.writers.iter().any(|w| field_overlaps(g, w)));
            if !mutable {
                let names: Vec<String> = all_guards.iter().map(|g| g.to_string()).collect();
                self.emit(
                    LintCode::UnboundedRecirc,
                    action,
                    format!(
                        "action {action} sets {dst} but no action in the program writes \
                         any guard field ({}): the resubmit condition can never change",
                        names.join(", ")
                    ),
                    path.to_vec(),
                );
            }
        }
    }

    /// Abstract effect of running `action` with unknown (top) parameters.
    fn apply_action(&self, mut env: Env, action: &str) -> Env {
        let Some(adef) = self.program.actions.get(action) else {
            return env;
        };
        for op in &adef.ops {
            match op {
                PrimitiveOp::Set { dst, value } => {
                    if let Some(w) = self.program.field_width(dst) {
                        let av = self.eval(value, &env, Some(adef)).resize(w);
                        env.insert(dst.clone(), av);
                    }
                }
                PrimitiveOp::Hash { dst, .. } | PrimitiveOp::RegisterRead { dst, .. } => {
                    if let Some(w) = self.program.field_width(dst) {
                        env.insert(dst.clone(), AbstractValue::top(w));
                    }
                }
                PrimitiveOp::AddHeader { header, .. }
                | PrimitiveOp::RemoveHeader { header }
                | PrimitiveOp::RemoveHeaderNth { header, .. } => {
                    env.retain(|k, _| &k.header != header);
                }
                PrimitiveOp::Ipv4ChecksumUpdate { header } => {
                    let fr = FieldRef::new(header.clone(), "hdr_checksum");
                    if let Some(w) = self.program.field_width(&fr) {
                        env.insert(fr, AbstractValue::top(w));
                    }
                }
                PrimitiveOp::Drop => {
                    env.insert(FieldRef::meta("drop_flag"), AbstractValue::exact(1, 1));
                }
                PrimitiveOp::RegisterWrite { .. }
                | PrimitiveOp::Digest { .. }
                | PrimitiveOp::NoOp => {}
            }
        }
        env
    }

    /// DJV201: every action, evaluated with unconstrained inputs — an
    /// assignment or register access whose value may exceed the
    /// destination's width truncates silently.
    fn value_pass(&mut self) {
        let env = Env::new();
        for adef in self.program.actions.values().cloned() {
            for op in &adef.ops {
                match op {
                    PrimitiveOp::Set { dst, value } => {
                        if dst.field == "*" {
                            continue;
                        }
                        let Some(dw) = self.program.field_width(dst) else {
                            continue;
                        };
                        let av = self.eval(value, &env, Some(&adef));
                        if av.bits > dw && av.hi > mask_for(dw) {
                            self.emit(
                                LintCode::ValueTruncation,
                                &adef.name,
                                format!(
                                    "assignment `{dst} = {}` truncates a {}-bit value \
                                     into {dw} bits (mask explicitly to silence)",
                                    fmt_expr(value),
                                    av.bits
                                ),
                                vec![format!("action {}", adef.name)],
                            );
                        }
                    }
                    PrimitiveOp::RegisterWrite {
                        register, value, ..
                    } => {
                        let Some(rdef) = self.program.registers.get(register) else {
                            continue;
                        };
                        let cw = rdef.width_bits;
                        let av = self.eval(value, &env, Some(&adef));
                        if av.bits > cw && av.hi > mask_for(cw) {
                            self.emit(
                                LintCode::ValueTruncation,
                                &adef.name,
                                format!(
                                    "register write `{register}[..] = {}` truncates a \
                                     {}-bit value into {cw}-bit cells",
                                    fmt_expr(value),
                                    av.bits
                                ),
                                vec![format!("action {}", adef.name)],
                            );
                        }
                    }
                    PrimitiveOp::RegisterRead { dst, register, .. } => {
                        let Some(rdef) = self.program.registers.get(register) else {
                            continue;
                        };
                        let Some(dw) = self.program.field_width(dst) else {
                            continue;
                        };
                        if rdef.width_bits > dw {
                            self.emit(
                                LintCode::ValueTruncation,
                                &adef.name,
                                format!(
                                    "register read `{dst} = {register}[..]` truncates \
                                     {}-bit cells into a {dw}-bit destination",
                                    rdef.width_bits
                                ),
                                vec![format!("action {}", adef.name)],
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Can any value in `av` satisfy the entry's match specification?
/// Conservative toward "yes".
fn may_match(av: &AbstractValue, km: &KeyMatch, bits: u16) -> bool {
    if let Some(x) = av.as_exact() {
        return km.matches(crate::value::Value::new(x, bits));
    }
    match km {
        KeyMatch::Any => true,
        KeyMatch::Exact(v) => av.contains(v.raw()),
        KeyMatch::Ternary(v, m) => {
            let relevant = m.raw() & av.known_mask;
            (av.known_bits ^ v.raw()) & relevant == 0
        }
        KeyMatch::Lpm(prefix, len) => {
            if *len == 0 {
                return true;
            }
            let shift = u32::from(bits.saturating_sub(*len));
            let low = if shift == 0 {
                0
            } else {
                mask_for(shift.min(128) as u16)
            };
            let range_lo = (prefix.raw() >> shift) << shift;
            let range_hi = range_lo | low;
            if av.hi < range_lo || av.lo > range_hi {
                return false;
            }
            let high_mask = mask_for(bits) & !low;
            (av.known_bits ^ range_lo) & high_mask & av.known_mask == 0
        }
        KeyMatch::Range(lo, hi) => !(av.hi < lo.raw() || av.lo > hi.raw()),
    }
}

/// Field-reference overlap, matching the dependency analysis: same header
/// namespace, and the fields are equal or either side is the `*` wildcard.
fn field_overlaps(a: &FieldRef, b: &FieldRef) -> bool {
    a.header == b.header && (a.field == b.field || a.field == "*" || b.field == "*")
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Analyzes a program with default severities and no installed entries.
pub fn check(program: &Program) -> LintReport {
    check_with_config(program, &LintConfig::default())
}

/// Analyzes a program under an explicit configuration.
pub fn check_with_config(program: &Program, config: &LintConfig) -> LintReport {
    let mut analyzer = Analyzer::new(program, config);
    let entry_env = analyzer.parser_pass();
    analyzer.value_pass();
    analyzer.control_pass(entry_env);
    let mut report = analyzer.report;
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlBlock;
    use crate::header::{fref, HeaderType};
    use crate::lint::Severity;
    use crate::parser::ParseNode;
    use crate::table::{MatchKind, RegisterDef, TableKey};
    use crate::value::Value;

    /// One header `h { wide:32, f:8 }`, meta `m:8`, single-node parser.
    fn base_program() -> Program {
        let mut p = Program::new("t");
        p.header_types.insert(
            "h".into(),
            HeaderType::new("h", vec![("wide", 32u16), ("f", 8), ("pad", 8)]).unwrap(),
        );
        p.meta_fields.push(crate::header::FieldDef {
            name: "m".into(),
            bits: 8,
        });
        let n = p.parser.add_node(ParseNode {
            header_type: "h".into(),
            offset: 0,
            transition: Transition::Unconditional(Target::Accept),
        });
        p.parser.start = Some(Target::Node(n));
        p.controls
            .insert("ingress".into(), ControlBlock::new("ingress", vec![]));
        p.entry = "ingress".into();
        p
    }

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|f| f.code.code()).collect()
    }

    #[test]
    fn abstract_value_algebra() {
        let a = AbstractValue::exact(0xff, 8);
        let b = AbstractValue::exact(2, 8);
        assert_eq!(a.add(&b).as_exact(), Some(1)); // wraps at 8 bits
        let t32 = AbstractValue::top(32);
        let masked = t32.and(&AbstractValue::exact(0xff, 32));
        assert_eq!(masked.hi, 0xff); // known-zero high bits bound the interval
        let j = AbstractValue::exact(3, 8).join(&AbstractValue::exact(7, 8));
        assert!(j.contains(3) && j.contains(7) && !j.contains(8));
        assert_eq!(j.known_mask & 0b100, 0); // differing bit unknown
        let narrowed = AbstractValue::exact(0x1234, 16).resize(8);
        assert_eq!(narrowed.as_exact(), Some(0x34));
        let widened = AbstractValue::top(8).resize(16);
        assert_eq!(widened.hi, 0xff); // high byte known zero
        let shifted = AbstractValue {
            bits: 16,
            lo: 0x100,
            hi: 0x1ff,
            known_mask: 0,
            known_bits: 0,
        }
        .shr(8);
        assert_eq!(shifted.as_exact(), Some(1));
    }

    #[test]
    fn truncation_flagged_and_mask_silences() {
        let mut p = base_program();
        p.actions.insert(
            "narrow".into(),
            ActionDef::simple(
                "narrow",
                vec![PrimitiveOp::Set {
                    dst: FieldRef::meta("m"),
                    value: Expr::field("h", "wide"),
                }],
            ),
        );
        p.actions.insert(
            "masked".into(),
            ActionDef::simple(
                "masked",
                vec![PrimitiveOp::Set {
                    dst: FieldRef::meta("m"),
                    value: Expr::And(
                        Box::new(Expr::field("h", "wide")),
                        Box::new(Expr::val(0xff, 32)),
                    ),
                }],
            ),
        );
        let report = check(&p);
        assert_eq!(codes(&report), vec!["DJV201"]);
        assert_eq!(report.diagnostics[0].entity, "narrow");
    }

    #[test]
    fn register_width_mismatches_flagged() {
        let mut p = base_program();
        p.registers.insert(
            "r16".into(),
            RegisterDef {
                name: "r16".into(),
                width_bits: 16,
                size: 64,
            },
        );
        p.actions.insert(
            "wr".into(),
            ActionDef::simple(
                "wr",
                vec![PrimitiveOp::RegisterWrite {
                    register: "r16".into(),
                    index: Expr::val(0, 8),
                    value: Expr::field("h", "wide"),
                }],
            ),
        );
        p.actions.insert(
            "rd".into(),
            ActionDef::simple(
                "rd",
                vec![PrimitiveOp::RegisterRead {
                    dst: FieldRef::meta("m"),
                    register: "r16".into(),
                    index: Expr::val(0, 8),
                }],
            ),
        );
        let report = check(&p);
        assert_eq!(codes(&report), vec!["DJV201", "DJV201"]);
    }

    #[test]
    fn oversized_select_case_is_infeasible() {
        let mut p = base_program();
        p.parser.nodes[0].transition = Transition::Select {
            field: "f".into(),
            cases: vec![(Value::new(300, 16), Target::Accept)],
            default: Target::Accept,
        };
        let report = check(&p);
        assert_eq!(codes(&report), vec!["DJV202"]);
        assert_eq!(report.diagnostics[0].entity, "h@0");
        assert!(!report.diagnostics[0].witness.is_empty());
    }

    #[test]
    fn contradictory_nested_if_flagged() {
        let mut p = base_program();
        p.controls.insert(
            "ingress".into(),
            ControlBlock::new(
                "ingress",
                vec![Stmt::If {
                    cond: BoolExpr::field_eq("h", "f", 5, 8),
                    then_branch: vec![Stmt::If {
                        cond: BoolExpr::field_eq("h", "f", 6, 8),
                        then_branch: vec![Stmt::Do("nop".into())],
                        else_branch: vec![],
                    }],
                    else_branch: vec![],
                }],
            ),
        );
        p.actions.insert(
            "nop".into(),
            ActionDef::simple("nop", vec![PrimitiveOp::NoOp]),
        );
        let report = check(&p);
        assert_eq!(codes(&report), vec!["DJV202"]);
        assert!(report.diagnostics[0].message.contains("always false"));
    }

    #[test]
    fn exact_write_makes_else_dead() {
        let mut p = base_program();
        p.actions.insert(
            "setm".into(),
            ActionDef::simple(
                "setm",
                vec![PrimitiveOp::Set {
                    dst: FieldRef::meta("m"),
                    value: Expr::val(3, 8),
                }],
            ),
        );
        p.actions.insert(
            "nop".into(),
            ActionDef::simple("nop", vec![PrimitiveOp::NoOp]),
        );
        p.controls.insert(
            "ingress".into(),
            ControlBlock::new(
                "ingress",
                vec![
                    Stmt::Do("setm".into()),
                    Stmt::If {
                        cond: BoolExpr::meta_eq("m", 3, 8),
                        then_branch: vec![Stmt::Do("nop".into())],
                        else_branch: vec![Stmt::Do("nop".into())],
                    },
                ],
            ),
        );
        let report = check(&p);
        assert_eq!(codes(&report), vec!["DJV202"]);
        assert!(report.diagnostics[0].message.contains("always-true"));
    }

    fn keyed_table_program() -> Program {
        let mut p = base_program();
        p.actions.insert(
            "nop".into(),
            ActionDef::simple("nop", vec![PrimitiveOp::NoOp]),
        );
        p.tables.insert(
            "t".into(),
            TableDef {
                name: "t".into(),
                keys: vec![TableKey {
                    field: fref("h", "f"),
                    kind: MatchKind::Exact,
                }],
                actions: vec!["nop".into()],
                default_action: "nop".into(),
                default_action_args: vec![],
                size: 16,
            },
        );
        p.controls.insert(
            "ingress".into(),
            ControlBlock::new(
                "ingress",
                vec![Stmt::If {
                    cond: BoolExpr::Cmp(Expr::field("h", "f"), CmpOp::Lt, Expr::val(10, 8)),
                    then_branch: vec![Stmt::Apply("t".into())],
                    else_branch: vec![],
                }],
            ),
        );
        p
    }

    #[test]
    fn unmatchable_entry_flagged() {
        let p = keyed_table_program();
        let config = LintConfig::new().with_entries(
            "t",
            vec![
                vec![KeyMatch::Exact(Value::new(200, 8))],
                vec![KeyMatch::Exact(Value::new(5, 8))],
            ],
        );
        let report = check_with_config(&p, &config);
        assert_eq!(codes(&report), vec!["DJV203"]);
        assert!(report.diagnostics[0].message.contains("entry 0"));
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
    }

    #[test]
    fn range_and_lpm_entry_feasibility() {
        let p = keyed_table_program();
        let config = LintConfig::new().with_entries(
            "t",
            vec![
                vec![KeyMatch::Range(Value::new(100, 8), Value::new(200, 8))],
                vec![KeyMatch::Range(Value::new(0, 8), Value::new(9, 8))],
                vec![KeyMatch::Any],
            ],
        );
        let report = check_with_config(&p, &config);
        assert_eq!(codes(&report), vec!["DJV203"]);
    }

    #[test]
    fn unguarded_resubmit_flagged() {
        let mut p = base_program();
        p.actions.insert(
            "resub".into(),
            ActionDef::simple(
                "resub",
                vec![PrimitiveOp::Set {
                    dst: FieldRef::meta("resubmit_flag"),
                    value: Expr::val(1, 1),
                }],
            ),
        );
        p.controls.insert(
            "ingress".into(),
            ControlBlock::new("ingress", vec![Stmt::Do("resub".into())]),
        );
        let report = check(&p);
        assert_eq!(codes(&report), vec!["DJV204"]);
        assert!(report.diagnostics[0].message.contains("no guarding"));
    }

    #[test]
    fn immutable_guard_flagged_mutable_guard_clean() {
        let mut p = base_program();
        p.actions.insert(
            "resub".into(),
            ActionDef::simple(
                "resub",
                vec![PrimitiveOp::Set {
                    dst: FieldRef::meta("resubmit_flag"),
                    value: Expr::val(1, 1),
                }],
            ),
        );
        p.controls.insert(
            "ingress".into(),
            ControlBlock::new(
                "ingress",
                vec![Stmt::If {
                    cond: BoolExpr::meta_eq("m", 0, 8),
                    then_branch: vec![Stmt::Do("resub".into())],
                    else_branch: vec![],
                }],
            ),
        );
        let report = check(&p);
        assert_eq!(codes(&report), vec!["DJV204"]);
        assert!(report.diagnostics[0].message.contains("never change"));

        // Consuming the guard (the compose framework's pattern) clears it.
        p.actions
            .get_mut("resub")
            .unwrap()
            .ops
            .push(PrimitiveOp::Set {
                dst: FieldRef::meta("m"),
                value: Expr::val(1, 8),
            });
        assert!(check(&p).diagnostics.is_empty());
    }

    #[test]
    fn applyselect_arm_for_foreign_action() {
        let mut p = keyed_table_program();
        p.actions.insert(
            "other".into(),
            ActionDef::simple("other", vec![PrimitiveOp::NoOp]),
        );
        p.controls.insert(
            "ingress".into(),
            ControlBlock::new(
                "ingress",
                vec![Stmt::ApplySelect {
                    table: "t".into(),
                    arms: vec![("other".into(), vec![])],
                    default: vec![],
                }],
            ),
        );
        let report = check(&p);
        assert_eq!(codes(&report), vec!["DJV202"]);
        assert!(report.diagnostics[0].message.contains("ApplySelect"));
    }

    #[test]
    fn allows_and_severity_overrides() {
        let mut p = base_program();
        p.actions.insert(
            "narrow".into(),
            ActionDef::simple(
                "narrow",
                vec![PrimitiveOp::Set {
                    dst: FieldRef::meta("m"),
                    value: Expr::field("h", "wide"),
                }],
            ),
        );
        let allowed = LintConfig::new().allow(LintCode::ValueTruncation, "narr*");
        let report = check_with_config(&p, &allowed);
        assert!(report.is_clean());
        let raised = LintConfig::new().set_severity(LintCode::ValueTruncation, Severity::Error);
        assert!(check_with_config(&p, &raised).has_errors());
    }

    #[test]
    fn report_order_and_json_are_stable() {
        let mut r = LintReport::default();
        r.diagnostics
            .push(Diagnostic::new(LintCode::UnboundedRecirc, "z", "m1"));
        r.diagnostics.push(
            Diagnostic::new(LintCode::ValueTruncation, "a", "m2")
                .with_witness(vec!["step \"one\"".into()]),
        );
        r.sort();
        assert_eq!(codes(&r), vec!["DJV201", "DJV204"]);
        let json = r.render_json();
        assert!(json.starts_with("[{\"code\":\"DJV201\""));
        assert!(json.contains("\"witness\":[\"step \\\"one\\\"\"]"));
    }

    #[test]
    fn registry_is_consistent() {
        // The value (2xx) and stateful (3xx) bands this pass and
        // `dejavu-core`'s chain-aware passes emit.
        let mut seen = BTreeSet::new();
        for c in LintCode::ALL {
            if c >= LintCode::ValueTruncation {
                assert!(seen.insert(c.code()));
                assert!(!c.summary().is_empty());
            }
        }
        assert_eq!(seen.len(), 7);
    }
}
