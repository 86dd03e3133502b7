//! Programs: the unit Dejavu composes.
//!
//! One network function is one [`Program`]: a parser DAG, a catalog of header
//! types, user metadata declarations, actions, tables, and control blocks
//! with a designated entry control. `dejavu-core` merges several programs
//! into a single multi-pipelet program; `dejavu-compiler` allocates a program
//! onto pipelet stages; `dejavu-asic` interprets it over packets.
//!
//! All collections are `BTreeMap`s so iteration order — and therefore
//! compilation, placement, and simulation — is deterministic.

use crate::action::ActionDef;
use crate::control::{ControlBlock, Stmt};
use crate::error::{IrError, Result};
use crate::header::{FieldDef, FieldRef, FieldView, HeaderType};
use crate::parser::ParserDag;
use crate::table::RegisterDef;
use crate::table::TableDef;
use std::collections::BTreeMap;

/// Standard (platform) metadata fields available to every program without
/// declaration: physical ports, drop/resubmit/recirculate/mirror/to-CPU
/// flags. These are the fields Dejavu's SFC header mirrors in its
/// platform-metadata bytes (paper Fig. 3).
pub const STANDARD_METADATA: &[(&str, u16)] = &[
    ("ingress_port", 16),
    ("egress_spec", 16),
    ("drop_flag", 1),
    ("resubmit_flag", 1),
    ("recirc_flag", 1),
    ("mirror_flag", 1),
    ("to_cpu_flag", 1),
];

/// A complete data-plane program (one NF, or a merged SFC program).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// Header type catalog.
    pub header_types: BTreeMap<String, HeaderType>,
    /// User metadata fields (beyond [`STANDARD_METADATA`]).
    pub meta_fields: Vec<FieldDef>,
    /// Parser DAG.
    pub parser: ParserDag,
    /// Action catalog.
    pub actions: BTreeMap<String, ActionDef>,
    /// Table catalog.
    pub tables: BTreeMap<String, TableDef>,
    /// Stateful register arrays.
    pub registers: BTreeMap<String, RegisterDef>,
    /// Control blocks.
    pub controls: BTreeMap<String, ControlBlock>,
    /// Name of the entry control block.
    pub entry: String,
}

impl Program {
    /// Creates an empty program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Width of a field reference, searching header types then user metadata
    /// then standard metadata. `None` if unknown.
    pub fn field_width(&self, fr: &FieldRef) -> Option<u16> {
        self.view_width(FieldView::of(fr))
    }

    /// [`Program::field_width`] of a borrowed reference.
    pub(crate) fn view_width(&self, fr: FieldView<'_>) -> Option<u16> {
        if fr.register {
            return None;
        }
        if fr.is_meta() {
            if let Some(fd) = self.meta_fields.iter().find(|f| f.name == fr.field) {
                return Some(fd.bits);
            }
            return STANDARD_METADATA
                .iter()
                .find(|(n, _)| *n == fr.field)
                .map(|(_, w)| *w);
        }
        self.header_types
            .get(fr.header)?
            .field(fr.field)
            .map(|f| f.bits)
    }

    /// True if the field reference resolves (header add/remove writes use a
    /// `"*"` wildcard field, which resolves if the header type exists;
    /// `reg::<name>` pseudo-references resolve against the register
    /// catalog).
    pub fn field_exists(&self, fr: &FieldRef) -> bool {
        self.view_exists(FieldView::of(fr))
    }

    /// [`Program::field_exists`] of a borrowed reference.
    pub(crate) fn view_exists(&self, fr: FieldView<'_>) -> bool {
        if fr.register {
            return self.registers.contains_key(fr.header);
        }
        if fr.field == "*" {
            return fr.is_meta() || self.header_types.contains_key(fr.header);
        }
        self.view_width(fr).is_some()
    }

    /// The entry control block, if present.
    pub fn entry_control(&self) -> Option<&ControlBlock> {
        self.controls.get(&self.entry)
    }

    /// Tables applied by the entry control, transitively flattening `Call`s,
    /// in program order. Duplicate applications are kept (they matter for
    /// dependency analysis).
    pub fn tables_in_order(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_applied(&mut |t| out.push(t.to_string()));
        out
    }

    /// Visits what [`Program::tables_in_order`] lists, in its order,
    /// borrowed.
    pub(crate) fn for_each_applied<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        if let Some(entry) = self.entry_control() {
            self.flatten(&entry.body, &mut vec![entry.name.as_str()], f);
        }
    }

    /// Visits the tables `stmts` apply, in program order, following
    /// `Call`s the way [`Program::callee`] allows from inside the controls
    /// on `calls`.
    pub(crate) fn flatten<'a>(
        &'a self,
        stmts: &'a [Stmt],
        calls: &mut Vec<&'a str>,
        f: &mut impl FnMut(&'a str),
    ) {
        for stmt in stmts {
            if let Some(t) = stmt.applied_table() {
                f(t);
            }
            if let Stmt::Call(c) = stmt {
                if let Some(cb) = self.callee(c, calls) {
                    calls.push(&cb.name);
                    self.flatten(&cb.body, calls, f);
                    calls.pop();
                }
            }
            for branch in stmt.branches() {
                self.flatten(branch, calls, f);
            }
        }
    }

    /// The control a `Call(name)` enters from inside the controls on
    /// `calls` (outermost first): `None` when `name` is undefined or is
    /// already on the stack. Every walk that follows calls asks here, so
    /// none follows a recursive call (`validate` rejects them): a depth
    /// bound alone would let `a { call a; call a }` cost 2^depth visits.
    pub(crate) fn callee(&self, name: &str, calls: &[&str]) -> Option<&ControlBlock> {
        let cb = self.controls.get(name)?;
        (!calls.contains(&cb.name.as_str())).then_some(cb)
    }

    /// Full structural validation:
    /// * every header type, parser vertex, table, and action is well-formed,
    /// * tables reference existing actions and key fields,
    /// * actions read/write existing fields,
    /// * every control calls existing controls acyclically and applies
    ///   existing tables — dormant controls too, since a composed pipelet
    ///   carries every merged NF's controls,
    /// * the entry control exists.
    ///
    /// Reads the program in place: a valid program is validated without a
    /// heap allocation.
    pub fn validate(&self) -> Result<()> {
        for ht in self.header_types.values() {
            ht.validate()?;
        }
        self.parser.validate(&self.header_types)?;
        for t in self.tables.values() {
            t.validate()?;
            for a in &t.actions {
                if !self.actions.contains_key(a) {
                    return Err(IrError::Undefined {
                        kind: "action",
                        name: format!("{a} (table {})", t.name),
                    });
                }
            }
            for k in &t.keys {
                if !self.field_exists(&k.field) {
                    return Err(IrError::Undefined {
                        kind: "table key field",
                        name: format!("{} (table {})", k.field, t.name),
                    });
                }
            }
        }
        for a in self.actions.values() {
            let mut missing = None;
            let mut check = |fr: FieldView<'_>| {
                if missing.is_none() && !self.view_exists(fr) {
                    missing = Some(fr.to_string());
                }
            };
            a.ops.iter().for_each(|op| op.for_each_read(&mut check));
            a.ops.iter().for_each(|op| op.for_each_write(&mut check));
            if let Some(fr) = missing {
                return Err(IrError::Undefined {
                    kind: "action field",
                    name: format!("{fr} (action {})", a.name),
                });
            }
        }
        for r in self.registers.values() {
            r.validate()?;
        }
        let entry = self.entry_control().ok_or_else(|| IrError::Undefined {
            kind: "entry control",
            name: self.entry.clone(),
        })?;
        let lookup = |name: &str| self.controls.get(name);
        entry.validate_calls(&lookup, 0)?;
        for cb in self.controls.values() {
            let visit = |f: &mut dyn FnMut(&Stmt) -> Result<()>| {
                cb.body.iter().try_for_each(|stmt| stmt.try_visit(f))
            };
            visit(&mut |s| match s.applied_table() {
                Some(t) if !self.tables.contains_key(t) => Err(IrError::Undefined {
                    kind: "table",
                    name: format!("{t} (control {})", cb.name),
                }),
                _ => Ok(()),
            })?;
            visit(&mut |s| {
                let Stmt::If { cond, .. } = s else {
                    return Ok(());
                };
                let mut missing = None;
                cond.for_each_read(&mut |fr| {
                    if missing.is_none() && !self.view_exists(fr) {
                        missing = Some(fr.to_string());
                    }
                });
                match missing {
                    Some(fr) => Err(IrError::Undefined {
                        kind: "condition field",
                        name: format!("{fr} (control {})", cb.name),
                    }),
                    None => Ok(()),
                }
            })?;
        }
        // Last, so a program the entry's checks refuse is refused for the
        // same reason whatever its dormant controls hold.
        for cb in self.controls.values() {
            cb.validate_calls(&lookup, 0)?;
        }
        Ok(())
    }

    /// Header catalog as a `HashMap` (the form the reference interpreter
    /// keeps).
    pub fn header_map(&self) -> std::collections::HashMap<String, HeaderType> {
        self.header_types
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionDef, Expr, PrimitiveOp};
    use crate::control::{ControlBlock, Stmt};
    use crate::header::fref;
    use crate::parser::{ParseNode, Target, Transition};
    use crate::table::{MatchKind, TableDef, TableKey};

    fn tiny_program() -> Program {
        let mut p = Program::new("tiny");
        p.header_types.insert(
            "ethernet".into(),
            HeaderType::new(
                "ethernet",
                vec![("dst", 48u16), ("src", 48), ("ether_type", 16)],
            )
            .unwrap(),
        );
        let n = p.parser.add_node(ParseNode {
            header_type: "ethernet".into(),
            offset: 0,
            transition: Transition::Unconditional(Target::Accept),
        });
        p.parser.start = Some(Target::Node(n));
        p.actions.insert(
            "fwd".into(),
            ActionDef {
                name: "fwd".into(),
                params: vec![("port".into(), 16)],
                ops: vec![PrimitiveOp::Set {
                    dst: FieldRef::meta("egress_spec"),
                    value: Expr::Param("port".into()),
                }],
            },
        );
        p.actions.insert(
            "nop".into(),
            ActionDef::simple("nop", vec![PrimitiveOp::NoOp]),
        );
        p.tables.insert(
            "l2".into(),
            TableDef {
                name: "l2".into(),
                keys: vec![TableKey {
                    field: fref("ethernet", "dst"),
                    kind: MatchKind::Exact,
                }],
                actions: vec!["fwd".into(), "nop".into()],
                default_action: "nop".into(),
                default_action_args: vec![],
                size: 4096,
            },
        );
        p.controls.insert(
            "ingress".into(),
            ControlBlock::new("ingress", vec![Stmt::Apply("l2".into())]),
        );
        p.entry = "ingress".into();
        p
    }

    #[test]
    fn valid_program_passes() {
        tiny_program().validate().unwrap();
    }

    #[test]
    fn field_width_resolution() {
        let p = tiny_program();
        assert_eq!(p.field_width(&fref("ethernet", "dst")), Some(48));
        assert_eq!(p.field_width(&FieldRef::meta("egress_spec")), Some(16));
        assert_eq!(p.field_width(&fref("ipv4", "ttl")), None);
    }

    #[test]
    fn missing_action_caught() {
        let mut p = tiny_program();
        p.tables.get_mut("l2").unwrap().actions.push("ghost".into());
        assert!(p.validate().is_err());
    }

    #[test]
    fn missing_table_caught() {
        let mut p = tiny_program();
        p.controls.insert(
            "ingress".into(),
            ControlBlock::new("ingress", vec![Stmt::Apply("ghost".into())]),
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn missing_entry_caught() {
        let mut p = tiny_program();
        p.entry = "nope".into();
        assert!(p.validate().is_err());
    }

    #[test]
    fn bad_key_field_caught() {
        let mut p = tiny_program();
        p.tables.get_mut("l2").unwrap().keys[0].field = fref("ipv4", "dst_addr");
        assert!(p.validate().is_err());
    }

    #[test]
    fn dormant_controls_calls_are_validated() {
        // A composed pipelet carries every merged NF's controls, most of
        // them dormant; a bad call in one is refused with the error it would
        // get as the entry.
        let as_entry = |p: &Program, entry: &str| {
            let mut q = p.clone();
            q.entry = entry.into();
            q.validate().unwrap_err()
        };
        let mut p = tiny_program();
        p.controls.insert(
            "dormant".into(),
            ControlBlock::new("dormant", vec![Stmt::Call("ghost".into())]),
        );
        let err = p.validate().unwrap_err();
        assert_eq!(
            err,
            IrError::Undefined {
                kind: "control block",
                name: "ghost".into(),
            }
        );
        assert_eq!(err, as_entry(&p, "dormant"));

        // A call cycle among controls the entry never reaches.
        let mut p = tiny_program();
        for (name, callee) in [("a", "b"), ("b", "a")] {
            let body = vec![Stmt::Call(callee.into())];
            p.controls
                .insert(name.into(), ControlBlock::new(name, body));
        }
        let err = p.validate().unwrap_err();
        assert!(matches!(err, IrError::Invalid(_)), "{err:?}");
        assert_eq!(err, as_entry(&p, "a"));
    }

    #[test]
    fn tables_in_order_flattens_calls() {
        let mut p = tiny_program();
        p.controls.insert(
            "sub".into(),
            ControlBlock::new("sub", vec![Stmt::Apply("l2".into())]),
        );
        p.controls.insert(
            "ingress".into(),
            ControlBlock::new(
                "ingress",
                vec![Stmt::Call("sub".into()), Stmt::Apply("l2".into())],
            ),
        );
        assert_eq!(p.tables_in_order(), vec!["l2", "l2"]);
    }
}
