//! Control blocks: the imperative skeleton applying tables and actions.
//!
//! This mirrors the P4-16 `control` construct the paper builds its
//! programming interface on (§3.1): an NF is a control block with the single
//! signature `control XX_control(inout all_headers_t hdr)`. Statements apply
//! tables, branch on which action a table ran (the paper's
//! `if (check_nextNF.apply().LB)` idiom), branch on field predicates
//! (gateways), invoke named actions directly, or call other control blocks
//! (the modularity hook used by Dejavu's sequential/parallel composition).

use crate::action::Expr;
use crate::error::{IrError, Result};
use crate::header::{FieldRef, FieldView};

/// Comparison operators for gateway conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than (unsigned).
    Lt,
    /// Less than or equal (unsigned).
    Le,
    /// Greater than (unsigned).
    Gt,
    /// Greater than or equal (unsigned).
    Ge,
}

/// A boolean predicate evaluated by a gateway.
#[derive(Debug, Clone, PartialEq)]
pub enum BoolExpr {
    /// Comparison of two expressions.
    Cmp(Expr, CmpOp, Expr),
    /// Logical AND.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Logical OR.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Logical negation.
    Not(Box<BoolExpr>),
    /// True when the named header was parsed (or added) and not removed —
    /// P4's `hdr.x.isValid()`.
    Valid(String),
}

impl BoolExpr {
    /// Convenience: `field == const`.
    pub fn field_eq(header: &str, field: &str, raw: u128, bits: u16) -> BoolExpr {
        BoolExpr::Cmp(Expr::field(header, field), CmpOp::Eq, Expr::val(raw, bits))
    }

    /// Convenience: `meta.field == const`.
    pub fn meta_eq(field: &str, raw: u128, bits: u16) -> BoolExpr {
        BoolExpr::Cmp(Expr::meta(field), CmpOp::Eq, Expr::val(raw, bits))
    }

    /// All field references read by the predicate.
    pub fn reads(&self) -> Vec<FieldRef> {
        let mut out = Vec::new();
        self.for_each_read(&mut |v| out.push(v.to_field_ref()));
        out
    }

    /// Visits what [`BoolExpr::reads`] lists, in its order, borrowed.
    pub(crate) fn for_each_read<'a>(&'a self, f: &mut impl FnMut(FieldView<'a>)) {
        match self {
            BoolExpr::Cmp(a, _, b) => {
                a.for_each_read(&mut |fr| f(FieldView::of(fr)));
                b.for_each_read(&mut |fr| f(FieldView::of(fr)));
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.for_each_read(f);
                b.for_each_read(f);
            }
            BoolExpr::Not(a) => a.for_each_read(f),
            BoolExpr::Valid(h) => f(FieldView::new(h, "*")),
        }
    }
}

/// One statement of a control block body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Apply a table; run whichever action its entry (or default) selects.
    Apply(String),
    /// Apply a table, then branch on *which action ran* — the P4
    /// `switch (t.apply().action_run)` construct.
    ApplySelect {
        /// Table to apply.
        table: String,
        /// `(action name, branch)` arms.
        arms: Vec<(String, Vec<Stmt>)>,
        /// Branch when the action run has no arm.
        default: Vec<Stmt>,
    },
    /// Gateway branch.
    If {
        /// Predicate.
        cond: BoolExpr,
        /// Taken when true.
        then_branch: Vec<Stmt>,
        /// Taken when false.
        else_branch: Vec<Stmt>,
    },
    /// Invoke a named action directly (no table lookup), with constant args.
    Do(String),
    /// Invoke another control block (composition / modularity).
    Call(String),
}

impl Stmt {
    /// The table this statement itself applies, if any.
    pub(crate) fn applied_table(&self) -> Option<&str> {
        match self {
            Stmt::Apply(t) | Stmt::ApplySelect { table: t, .. } => Some(t),
            _ => None,
        }
    }

    /// Visits this statement, then every statement nested under it, in
    /// program order (depth-first; arms before the default, then before
    /// else). Calls are not followed.
    pub(crate) fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        // The fallible walk with an error type that cannot occur.
        let _ = self.try_visit(&mut |s| {
            f(s);
            Ok::<(), std::convert::Infallible>(())
        });
    }

    /// [`Stmt::visit`] that stops at the first error `f` returns.
    pub(crate) fn try_visit<'a, E, F>(&'a self, f: &mut F) -> std::result::Result<(), E>
    where
        F: FnMut(&'a Stmt) -> std::result::Result<(), E> + ?Sized,
    {
        f(self)?;
        for s in self.branches().flatten() {
            s.try_visit(f)?;
        }
        Ok(())
    }

    /// The statement lists nested directly under this one: an
    /// `ApplySelect`'s arms then its default, an `If`'s then then its else.
    pub(crate) fn branches(&self) -> impl Iterator<Item = &[Stmt]> {
        let (arms, rest) = match self {
            Stmt::ApplySelect { arms, default, .. } => (&arms[..], [Some(default), None]),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => (&[][..], [Some(then_branch), Some(else_branch)]),
            _ => (&[][..], [None, None]),
        };
        let arms = arms.iter().map(|(_, body)| body.as_slice());
        arms.chain(rest.into_iter().flatten().map(Vec::as_slice))
    }
}

/// A named control block.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlBlock {
    /// Control name (the `XX_control` of the paper's API).
    pub name: String,
    /// Body statements, executed in order.
    pub body: Vec<Stmt>,
}

impl ControlBlock {
    /// Creates a control block.
    pub fn new(name: impl Into<String>, body: Vec<Stmt>) -> Self {
        ControlBlock {
            name: name.into(),
            body,
        }
    }

    /// Visits every statement of the body ([`Stmt::visit`] on each).
    pub(crate) fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        self.body.iter().for_each(|s| s.visit(f));
    }

    /// Validates that callees exist and there is no recursive call chain.
    /// `lookup` resolves a control name, borrowing the block.
    pub fn validate_calls<'p>(
        &self,
        lookup: &dyn Fn(&str) -> Option<&'p ControlBlock>,
        depth: usize,
    ) -> Result<()> {
        if depth > 64 {
            return Err(IrError::Invalid(format!(
                "control call chain too deep (cycle?) at {}",
                self.name
            )));
        }
        self.body.iter().try_for_each(|stmt| {
            stmt.try_visit(&mut |s| match s {
                Stmt::Call(callee) => lookup(callee)
                    .ok_or_else(|| IrError::Undefined {
                        kind: "control block",
                        name: callee.clone(),
                    })?
                    .validate_calls(lookup, depth + 1),
                _ => Ok(()),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested() -> ControlBlock {
        ControlBlock::new(
            "ingress",
            vec![
                Stmt::Apply("classify".into()),
                Stmt::If {
                    cond: BoolExpr::meta_eq("next_nf", 2, 8),
                    then_branch: vec![
                        Stmt::ApplySelect {
                            table: "lb_session".into(),
                            arms: vec![("to_cpu".into(), vec![Stmt::Apply("punt".into())])],
                            default: vec![],
                        },
                        Stmt::Call("FW_control".into()),
                    ],
                    else_branch: vec![Stmt::Apply("route".into())],
                },
                Stmt::Do("decrement_ttl".into()),
            ],
        )
    }

    #[test]
    fn tables_in_program_order() {
        let (cb, mut tables) = (nested(), Vec::new());
        cb.visit(&mut |s| tables.extend(s.applied_table()));
        assert_eq!(tables, ["classify", "lb_session", "punt", "route"]);
    }

    #[test]
    fn controls_called() {
        let (cb, mut calls) = (nested(), Vec::new());
        cb.visit(&mut |s| {
            if let Stmt::Call(c) = s {
                calls.push(c.as_str());
            }
        });
        assert_eq!(calls, ["FW_control"]);
    }

    #[test]
    fn call_validation_detects_missing() {
        let cb = nested();
        let err = cb.validate_calls(&|_| None, 0).unwrap_err();
        assert!(matches!(err, IrError::Undefined { .. }));
    }

    #[test]
    fn call_validation_detects_cycle() {
        let a = ControlBlock::new("a", vec![Stmt::Call("b".into())]);
        let b = ControlBlock::new("b", vec![Stmt::Call("a".into())]);
        let lookup = |name: &str| match name {
            "a" => Some(&a),
            "b" => Some(&b),
            _ => None,
        };
        assert!(a.validate_calls(&lookup, 0).is_err());
    }

    #[test]
    fn bool_expr_reads() {
        let e = BoolExpr::And(
            Box::new(BoolExpr::field_eq("ipv4", "protocol", 6, 8)),
            Box::new(BoolExpr::Valid("sfc".into())),
        );
        let reads = e.reads();
        assert_eq!(reads.len(), 2);
    }
}
