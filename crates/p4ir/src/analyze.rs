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
//! ([`AbstractValue`], [`Tri`]) and its hooks; the walk over the parser
//! and the control flow is the one the structural pass runs too (the
//! crate-private `walk` module):
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
use crate::header::{FieldRef, FieldView, HeaderType};
use crate::lint::{Diagnostic, LintCode, LintConfig, LintReport};
use crate::parser::{ParseNode, Transition};
use crate::program::{Program, STANDARD_METADATA};
use crate::table::{KeyMatch, TableDef};
use crate::value::{mask_for, Value};
use crate::walk::{walk, Domain, Step, Trail};
use std::fmt;

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

/// A field's number within one analysis (see [`Fields`]).
type FieldId = u32;

/// The program's fields, numbered once per analysis: every header type's
/// fields in catalog order, then metadata (declared or standard) by name,
/// then any select field a malformed parser names that the catalog lacks,
/// so a value the parser pins on it is found again.
struct Fields<'a> {
    /// Header type names in catalog order, each with its type and the
    /// number of its first field.
    headers: Vec<(&'a str, &'a HeaderType, FieldId)>,
    /// Metadata names, sorted, with their numbers: the first declaration
    /// of a name, else the standard field, as [`Program::field_width`]
    /// resolves it.
    meta: Vec<(&'a str, FieldId)>,
    /// Select fields the catalog lacks: header, field and number.
    extra: Vec<(&'a str, &'a str, FieldId)>,
    /// Per number: the header ([`FieldRef::META`] for metadata) and the
    /// width, `None` for a field the catalog lacks.
    info: Vec<(&'a str, Option<u16>)>,
}

impl<'a> Fields<'a> {
    fn new(program: &'a Program) -> Self {
        let mut info = Vec::new();
        let headers = program
            .header_types
            .iter()
            .map(|(name, ht)| {
                let first = info.len() as FieldId;
                info.extend(ht.fields.iter().map(|f| (name.as_str(), Some(f.bits))));
                (name.as_str(), ht, first)
            })
            .collect();
        let declared = program
            .meta_fields
            .iter()
            .map(|f| (f.name.as_str(), f.bits));
        let mut meta: Vec<(&str, u16)> =
            declared.chain(STANDARD_METADATA.iter().copied()).collect();
        // Stable: of the entries for one name, the first one stays.
        meta.sort_by_key(|(name, _)| *name);
        meta.dedup_by_key(|(name, _)| *name);
        let meta = meta
            .into_iter()
            .map(|(name, bits)| {
                info.push((FieldRef::META, Some(bits)));
                (name, info.len() as FieldId - 1)
            })
            .collect();
        let mut fields = Fields {
            headers,
            meta,
            extra: Vec::new(),
            info,
        };
        for node in &program.parser.nodes {
            if let Transition::Select { field, .. } = &node.transition {
                let header = node.header_type.as_str();
                if fields.resolve(FieldView::new(header, field)).is_none() {
                    let id = fields.info.len() as FieldId;
                    fields.info.push((header, None));
                    fields.extra.push((header, field, id));
                }
            }
        }
        fields
    }

    /// The number of `fr`, if it has one.
    fn resolve(&self, fr: FieldView<'_>) -> Option<FieldId> {
        if fr.register {
            return None;
        }
        let found = if fr.is_meta() {
            let i = self.meta.binary_search_by(|(n, _)| n.cmp(&fr.field)).ok();
            i.map(|i| self.meta[i].1)
        } else {
            let i = self
                .headers
                .binary_search_by(|(n, ..)| n.cmp(&fr.header))
                .ok();
            i.and_then(|i| {
                let (_, ht, first) = self.headers[i];
                let at = ht.fields.iter().position(|f| f.name == fr.field)?;
                Some(first + at as FieldId)
            })
        };
        found.or_else(|| {
            let mut extra = self.extra.iter();
            extra
                .find(|(h, f, _)| *h == fr.header && *f == fr.field)
                .map(|e| e.2)
        })
    }

    /// The number of `fr` and its width, as [`Program::field_width`]
    /// gives it.
    fn lookup(&self, fr: FieldView<'_>) -> (Option<FieldId>, Option<u16>) {
        let id = self.resolve(fr);
        (id, id.and_then(|id| self.info[id as usize].1))
    }

    fn header(&self, id: FieldId) -> &'a str {
        self.info[id as usize].0
    }
}

/// The value facts on one path: an abstraction per constrained field,
/// sorted by field number (an absent field may hold any value). Copying
/// one at a branch copies one short vector.
#[derive(Debug, Clone, Default)]
struct Env(Vec<(FieldId, AbstractValue)>);

impl Env {
    fn get(&self, id: FieldId) -> Option<&AbstractValue> {
        let at = self.0.binary_search_by_key(&id, |(k, _)| *k).ok()?;
        Some(&self.0[at].1)
    }

    fn insert(&mut self, id: FieldId, value: AbstractValue) {
        match self.0.binary_search_by_key(&id, |(k, _)| *k) {
            Ok(at) => self.0[at].1 = value,
            Err(at) => self.0.insert(at, (id, value)),
        }
    }

    /// Drops every fact about a field of `header`.
    fn forget_header(&mut self, fields: &Fields<'_>, header: &str) {
        self.0.retain(|(id, _)| fields.header(*id) != header);
    }
}

/// Joins two per-path environments: only facts established on both paths
/// survive (an absent binding means "any value").
fn join_envs(a: &Env, b: &Env) -> Env {
    let mut out = Vec::with_capacity(a.0.len().min(b.0.len()));
    let mut rest = b.0.iter().peekable();
    for (k, va) in &a.0 {
        while rest.next_if(|(kb, _)| kb < k).is_some() {}
        if let Some((_, vb)) = rest.next_if(|(kb, _)| kb == k) {
            out.push((*k, va.join(vb)));
        }
    }
    Env(out)
}

// ---------------------------------------------------------------------------
// Expression / condition evaluation and refinement
// ---------------------------------------------------------------------------

/// Compact source-like rendering of an expression for messages.
struct ShowExpr<'a>(&'a Expr);

impl fmt::Display for ShowExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bin = |f: &mut fmt::Formatter<'_>, a: &Expr, op: &str, b: &Expr| {
            write!(f, "({} {op} {})", ShowExpr(a), ShowExpr(b))
        };
        match self.0 {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Field(fr) => write!(f, "{fr}"),
            Expr::Param(p) => write!(f, "${p}"),
            Expr::Add(a, b) => bin(f, a, "+", b),
            Expr::Sub(a, b) => bin(f, a, "-", b),
            Expr::And(a, b) => bin(f, a, "&", b),
            Expr::Or(a, b) => bin(f, a, "|", b),
            Expr::Xor(a, b) => bin(f, a, "^", b),
            Expr::Shl(a, n) => write!(f, "({} << {n})", ShowExpr(a)),
            Expr::Shr(a, n) => write!(f, "({} >> {n})", ShowExpr(a)),
        }
    }
}

/// Compact source-like rendering of a condition for messages.
pub(crate) struct ShowBool<'a>(pub &'a BoolExpr);

impl fmt::Display for ShowBool<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            BoolExpr::Cmp(a, op, c) => {
                let sym = match op {
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                write!(f, "{} {sym} {}", ShowExpr(a), ShowExpr(c))
            }
            BoolExpr::And(a, c) => write!(f, "({} && {})", ShowBool(a), ShowBool(c)),
            BoolExpr::Or(a, c) => write!(f, "({} || {})", ShowBool(a), ShowBool(c)),
            BoolExpr::Not(a) => write!(f, "!({})", ShowBool(a)),
            BoolExpr::Valid(h) => write!(f, "isValid({h})"),
        }
    }
}

struct Analyzer<'a> {
    program: &'a Program,
    config: &'a LintConfig,
    report: LintReport,
    fields: Fields<'a>,
    /// Every field any action in the program writes (for DJV204 guard
    /// mutability).
    writers: Vec<FieldView<'a>>,
    /// The join of the environments at every accept reached so far: the
    /// entry environment once the parser walk is done.
    accepted: Option<Env>,
    /// Header types parsed more than once on some path — their refinements
    /// are ambiguous between instances, so they are dropped from the entry
    /// environment.
    poisoned: Vec<&'a str>,
}

impl<'a> Analyzer<'a> {
    fn new(program: &'a Program, config: &'a LintConfig) -> Self {
        let mut writers = Vec::new();
        for op in program.actions.values().flat_map(|a| &a.ops) {
            op.for_each_write(|w| writers.push(w));
        }
        Analyzer {
            program,
            config,
            report: LintReport::default(),
            fields: Fields::new(program),
            writers,
            accepted: None,
            poisoned: Vec::new(),
        }
    }

    fn emit(&mut self, code: LintCode, entity: &str, message: String, path: &[Step<'_>]) {
        let witness = path.iter().map(Step::to_string).collect();
        let diag = Diagnostic::new(code, entity, message).with_witness(witness);
        self.report.emit(self.config, diag);
    }

    /// The abstraction of `fr` under `env` at its own width (`top` when
    /// nothing is known, 128 bits for a field the catalog lacks).
    fn value_of(&self, fr: FieldView<'_>, env: &Env) -> AbstractValue {
        let (id, width) = self.fields.lookup(fr);
        let bits = width.unwrap_or(128);
        id.and_then(|id| env.get(id))
            .map(|v| v.resize(bits))
            .unwrap_or_else(|| AbstractValue::top(bits))
    }

    /// Natural-width abstract evaluation, mirroring the interpreter: the
    /// width of a binary operation is the width of its left operand.
    fn eval(&self, e: &Expr, env: &Env, action: Option<&ActionDef>) -> AbstractValue {
        match e {
            Expr::Const(v) => AbstractValue::exact(v.raw(), v.bits()),
            Expr::Field(fr) => self.value_of(FieldView::of(fr), env),
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

    /// Refines `env` in place under the assumption that `cond` evaluates
    /// to `truth`. `false` means the assumption contradicts the
    /// environment (which is then left half-refined, for the caller to
    /// drop).
    fn refine(&self, cond: &BoolExpr, truth: bool, env: &mut Env) -> bool {
        match cond {
            BoolExpr::Not(a) => self.refine(a, !truth, env),
            BoolExpr::And(a, b) if truth => self.refine(a, true, env) && self.refine(b, true, env),
            BoolExpr::Or(a, b) if !truth => {
                self.refine(a, false, env) && self.refine(b, false, env)
            }
            BoolExpr::Cmp(a, op, b) => {
                let eff = if truth { *op } else { negate_op(*op) };
                match (a, b) {
                    (Expr::Field(fr), Expr::Const(v)) => self.refine_field(env, fr, eff, v.raw()),
                    (Expr::Const(v), Expr::Field(fr)) => {
                        self.refine_field(env, fr, mirror_op(eff), v.raw())
                    }
                    _ => true,
                }
            }
            _ => true,
        }
    }

    /// Clamps the abstraction of `fr` by `fr <op> raw`. `false` on
    /// contradiction.
    fn refine_field(&self, env: &mut Env, fr: &FieldRef, op: CmpOp, raw: u128) -> bool {
        let (Some(id), Some(bits)) = self.fields.lookup(FieldView::of(fr)) else {
            return true;
        };
        let cur = env
            .get(id)
            .copied()
            .unwrap_or_else(|| AbstractValue::top(bits));
        let m = mask_for(cur.bits);
        let mut v = cur;
        match op {
            CmpOp::Eq => {
                if raw > m || !cur.contains(raw) {
                    return false;
                }
                v = AbstractValue::exact(raw, cur.bits);
            }
            CmpOp::Ne => match refine_ne(v, raw) {
                Some(ne) => v = ne,
                None => return false,
            },
            CmpOp::Lt => {
                if raw == 0 {
                    return false;
                }
                v.hi = v.hi.min(raw - 1);
            }
            CmpOp::Le => v.hi = v.hi.min(raw),
            CmpOp::Gt => {
                let Some(above) = raw.checked_add(1) else {
                    return false;
                };
                v.lo = v.lo.max(above);
            }
            CmpOp::Ge => v.lo = v.lo.max(raw),
        }
        if v.lo > v.hi {
            return false;
        }
        env.insert(id, v);
        true
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
    /// The fields guarding the point `steps` lead to, outermost first:
    /// what each enclosing gateway reads and the keys of each table
    /// applied on the way (an `ApplySelect`'s keys guard its arms, and the
    /// table being applied is the last step).
    fn guards(&self, steps: &[Step<'a>]) -> Vec<FieldView<'a>> {
        let mut guards = Vec::new();
        for step in steps {
            match step {
                Step::Then(cond) | Step::Else(cond) => cond.for_each_read(&mut |g| guards.push(g)),
                Step::Apply(table) => {
                    let keys = self.program.tables.get(*table).map(|t| &t.keys[..]);
                    let keys = keys.unwrap_or_default().iter();
                    guards.extend(keys.map(|k| FieldView::of(&k.field)));
                }
                _ => {}
            }
        }
        guards
    }

    /// Abstract effect of running `adef` with unknown (top) parameters.
    fn apply_action(&self, env: &mut Env, adef: &ActionDef) {
        let fields = &self.fields;
        for op in &adef.ops {
            match op {
                PrimitiveOp::Set { dst, value } => {
                    if let (Some(id), Some(w)) = fields.lookup(FieldView::of(dst)) {
                        let av = self.eval(value, env, Some(adef)).resize(w);
                        env.insert(id, av);
                    }
                }
                PrimitiveOp::Hash { dst, .. } | PrimitiveOp::RegisterRead { dst, .. } => {
                    if let (Some(id), Some(w)) = fields.lookup(FieldView::of(dst)) {
                        env.insert(id, AbstractValue::top(w));
                    }
                }
                PrimitiveOp::AddHeader { header, .. }
                | PrimitiveOp::RemoveHeader { header }
                | PrimitiveOp::RemoveHeaderNth { header, .. } => {
                    env.forget_header(fields, header);
                }
                PrimitiveOp::Ipv4ChecksumUpdate { header } => {
                    let fr = FieldView::new(header, "hdr_checksum");
                    if let (Some(id), Some(w)) = fields.lookup(fr) {
                        env.insert(id, AbstractValue::top(w));
                    }
                }
                PrimitiveOp::Drop => {
                    let drop_flag = FieldView::new(FieldRef::META, "drop_flag");
                    let id = fields.resolve(drop_flag).expect("a standard field");
                    env.insert(id, AbstractValue::exact(1, 1));
                }
                PrimitiveOp::RegisterWrite { .. }
                | PrimitiveOp::Digest { .. }
                | PrimitiveOp::NoOp => {}
            }
        }
    }

    /// DJV201: every action, evaluated with unconstrained inputs — an
    /// assignment or register access whose value may exceed the
    /// destination's width truncates silently.
    fn value_pass(&mut self) {
        let env = Env::default();
        let program = self.program;
        for adef in program.actions.values() {
            let path = [Step::Action(&adef.name)];
            for op in &adef.ops {
                match op {
                    PrimitiveOp::Set { dst, value } => {
                        if dst.field == "*" {
                            continue;
                        }
                        let Some(dw) = self.fields.lookup(FieldView::of(dst)).1 else {
                            continue;
                        };
                        let av = self.eval(value, &env, Some(adef));
                        if av.bits > dw && av.hi > mask_for(dw) {
                            self.emit(
                                LintCode::ValueTruncation,
                                &adef.name,
                                format!(
                                    "assignment `{dst} = {}` truncates a {}-bit value \
                                     into {dw} bits (mask explicitly to silence)",
                                    ShowExpr(value),
                                    av.bits
                                ),
                                &path,
                            );
                        }
                    }
                    PrimitiveOp::RegisterWrite {
                        register, value, ..
                    } => {
                        let Some(rdef) = program.registers.get(register) else {
                            continue;
                        };
                        let cw = rdef.width_bits;
                        let av = self.eval(value, &env, Some(adef));
                        if av.bits > cw && av.hi > mask_for(cw) {
                            self.emit(
                                LintCode::ValueTruncation,
                                &adef.name,
                                format!(
                                    "register write `{register}[..] = {}` truncates a \
                                     {}-bit value into {cw}-bit cells",
                                    ShowExpr(value),
                                    av.bits
                                ),
                                &path,
                            );
                        }
                    }
                    PrimitiveOp::RegisterRead { dst, register, .. } => {
                        let Some(rdef) = program.registers.get(register) else {
                            continue;
                        };
                        let Some(dw) = self.fields.lookup(FieldView::of(dst)).1 else {
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
                                &path,
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// The value pass as a domain of the verifier's walk. It prunes what it
/// proves cannot run: a select case outside the field's feasible values,
/// an `if` branch against a definite truth or contradicting the path's
/// refinements (both pruned: the state before the `if` flows on), and an
/// `ApplySelect` arm for an action the table does not list (`DJV202`). An
/// arm starts from the state before the table with its action applied,
/// the default from the table's joined exit, and a table runs only the
/// actions it lists.
impl<'a> Domain<'a> for Analyzer<'a> {
    type Path = Env;
    type State = Env;
    const UNLISTED_MISS: bool = false;

    /// Extracting a fresh instance invalidates prior refinements of this
    /// header type; a second one on the path poisons it.
    fn vertex(&mut self, node: &'a ParseNode, env: &mut Env, trail: &Trail<'a>) {
        let header = node.header_type.as_str();
        let again = trail.vertices().any(|n| n.header_type == header);
        if again && !self.poisoned.contains(&header) {
            self.poisoned.push(header);
        }
        env.forget_header(&self.fields, header);
    }

    /// A case pins the field to its value; the default (and, conservatively
    /// kept at the un-refined value, every later case) excludes it.
    fn case(
        &mut self,
        node: &'a ParseNode,
        field: &'a str,
        value: Value,
        pre: &Env,
        rest: &mut Option<Env>,
        trail: &Trail<'a>,
    ) -> Option<Env> {
        let header = node.header_type.as_str();
        let (id, bits) = self.fields.lookup(FieldView::new(header, field));
        let (id, bits) = (id.expect("select fields are numbered"), bits.unwrap_or(128));
        let value_in = |env: &Env| env.get(id).copied().unwrap_or(AbstractValue::top(bits));
        let av = value_in(pre);
        if !av.contains(value.raw()) {
            self.emit(
                LintCode::InfeasiblePath,
                &format!("{header}@{}", node.offset),
                format!(
                    "select case {value} on {header}.{field} can never match \
                     (feasible range [{:#x}, {:#x}])",
                    av.lo, av.hi
                ),
                &trail.steps,
            );
            return None;
        }
        if let Some(env) = rest {
            match refine_ne(value_in(env), value.raw()) {
                Some(d) => env.insert(id, d),
                None => *rest = None,
            }
        }
        let mut env = pre.clone();
        env.insert(id, AbstractValue::exact(value.raw(), bits));
        Some(env)
    }

    fn accept(&mut self, env: Env, _: &Trail<'a>) {
        self.accepted = Some(match self.accepted.take() {
            Some(acc) => join_envs(&acc, &env),
            None => env,
        });
    }

    /// The value facts that hold for every packet entering the control
    /// flow: the join over the accept paths, poisoned headers forgotten.
    fn entry(&mut self) -> Env {
        let mut entry = self.accepted.take().unwrap_or_default();
        entry
            .0
            .retain(|(id, _)| !self.poisoned.contains(&self.fields.header(*id)));
        entry
    }

    fn join(&self, acc: &mut Env, other: Env) {
        *acc = join_envs(acc, &other);
    }

    /// Flags a branch a definite truth makes dead (`DJV202`), and prunes
    /// it and a branch whose condition contradicts the environment.
    fn gateway(
        &mut self,
        cond: &'a BoolExpr,
        [then_branch, else_branch]: [&'a [Stmt]; 2],
        env: &Env,
        trail: &Trail<'a>,
    ) -> [Option<Env>; 2] {
        let tri = self.eval_bool(cond, env);
        let cond_text = ShowBool(cond);
        let dead = match tri {
            Tri::False if !then_branch.is_empty() => {
                Some(format!("branch condition `{cond_text}` is always false"))
            }
            Tri::True if !else_branch.is_empty() => Some(format!(
                "else-branch of always-true condition `{cond_text}` never runs"
            )),
            _ => None,
        };
        if let Some(message) = dead {
            let control = trail.control();
            self.emit(LintCode::InfeasiblePath, control, message, &trail.steps);
        }
        [(true, Tri::False), (false, Tri::True)].map(|(truth, against)| {
            let mut env = env.clone();
            (tri != against && self.refine(cond, truth, &mut env)).then_some(env)
        })
    }

    /// DJV203: every configured entry pattern must be matchable by some
    /// feasible key value.
    fn table(&mut self, tdef: &'a TableDef, env: &Env, trail: &Trail<'a>) {
        let path = &trail.steps;
        let config = self.config;
        let Some(patterns) = config.entries.get(&tdef.name) else {
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
                    path,
                );
                continue;
            }
            for (km, key) in pattern.iter().zip(&tdef.keys) {
                let (id, width) = self.fields.lookup(FieldView::of(&key.field));
                let bits = width.unwrap_or(128);
                let av = id
                    .and_then(|id| env.get(id))
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
                        path,
                    );
                    break;
                }
            }
        }
    }

    /// DJV204, then the action's effect: a `Set` of the resubmit/recirculate
    /// flag must sit behind a guard — an enclosing `if`, or the keys of a
    /// table applying the action or enclosing it by an `ApplySelect` arm —
    /// and some action in the program must be able to change that guard,
    /// or the packet loops forever.
    fn action(&mut self, adef: &'a ActionDef, env: &mut Env, trail: &Trail<'a>) {
        let action = adef.name.as_str();
        let mut guards = None;
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
            let guards = guards.get_or_insert_with(|| self.guards(&trail.steps));
            let message = if guards.is_empty() {
                format!(
                    "action {action} sets {dst} with no guarding condition or table key: \
                     every pass resubmits again, unboundedly"
                )
            } else if !guards
                .iter()
                .any(|g| self.writers.iter().any(|w| g.overlaps(*w)))
            {
                let names: Vec<String> = guards.iter().map(|g| g.to_string()).collect();
                format!(
                    "action {action} sets {dst} but no action in the program writes any \
                     guard field ({}): the resubmit condition can never change",
                    names.join(", ")
                )
            } else {
                continue;
            };
            self.emit(LintCode::UnboundedRecirc, action, message, &trail.steps);
        }
        self.apply_action(env, adef);
    }

    fn arm(
        &mut self,
        table: Option<&'a TableDef>,
        action: Option<&'a str>,
        pre: &Env,
        post: &Env,
        trail: &Trail<'a>,
    ) -> Option<Env> {
        let table = table?;
        let Some(action) = action else {
            return Some(post.clone());
        };
        if !table.actions.iter().any(|a| a == action) {
            self.emit(
                LintCode::InfeasiblePath,
                trail.control(),
                format!(
                    "ApplySelect arm `{action}` on table {} names an action the \
                     table can never run",
                    table.name
                ),
                &trail.steps,
            );
            return None;
        }
        // In this arm, exactly `action` ran.
        let mut env = pre.clone();
        if let Some(def) = self.program.actions.get(action) {
            self.apply_action(&mut env, def);
        }
        Some(env)
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
    walk(program, &mut analyzer);
    analyzer.value_pass();
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
    use crate::parser::{ParseNode, Target};
    use crate::table::{MatchKind, RegisterDef, TableKey};
    use std::collections::BTreeSet;

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
