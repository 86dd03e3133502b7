//! Typed builders — the frontend that replaces P4 source text.
//!
//! A Dejavu NF author writes, in the paper, a P4-16 control block against the
//! one-argument API. In this reproduction the same author writes Rust against
//! these builders. The shapes map one-to-one: `HeaderTypeBuilder` ↔ `header`,
//! `ParserBuilder` ↔ `parser`, `ActionBuilder` ↔ `action`, `TableBuilder` ↔
//! `table`, `ControlBuilder` ↔ `control`, and `ProgramBuilder` packages them
//! into a validated [`Program`].
//!
//! Builders are infallible until [`ProgramBuilder::build`], which runs full
//! validation and reports the first inconsistency.

use crate::action::{ActionDef, Expr, HashAlgorithm, PrimitiveOp};
use crate::control::{ControlBlock, Stmt};
use crate::error::{IrError, Result};
use crate::header::{FieldDef, FieldRef, HeaderType};
use crate::parser::{ParseNode, ParserDag, Target, Transition};
use crate::program::Program;
use crate::table::{MatchKind, RegisterDef, TableDef, TableKey};
use crate::value::Value;
use std::collections::BTreeMap;

/// Builds a [`HeaderType`].
#[derive(Debug, Clone)]
pub struct HeaderTypeBuilder {
    name: String,
    fields: Vec<(String, u16)>,
}

impl HeaderTypeBuilder {
    /// Starts a header type.
    pub fn new(name: impl Into<String>) -> Self {
        HeaderTypeBuilder {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Appends a field.
    pub fn field(mut self, name: impl Into<String>, bits: u16) -> Self {
        self.fields.push((name.into(), bits));
        self
    }

    /// Finishes, validating widths and alignment.
    pub fn build(self) -> Result<HeaderType> {
        HeaderType::new(self.name, self.fields)
    }
}

/// Named-target transition spec used while building a parser.
#[derive(Debug, Clone)]
enum PendingTransition {
    Unconditional(PendingTarget),
    Select {
        field: String,
        cases: Vec<(Value, PendingTarget)>,
        default: PendingTarget,
    },
}

/// Target referenced by node name before resolution.
#[derive(Debug, Clone)]
enum PendingTarget {
    Node(String),
    Accept,
    Reject,
}

/// Builds a [`ParserDag`] with human-readable node names resolved at build
/// time.
#[derive(Debug, Clone, Default)]
pub struct ParserBuilder {
    nodes: Vec<(String, String, u32, Option<PendingTransition>)>,
    start: Option<PendingTarget>,
    /// Errors deferred until [`build`](Self::build) so the fluent chain
    /// stays ergonomic (e.g. a transition set on an undeclared node).
    errors: Vec<IrError>,
}

impl ParserBuilder {
    /// Starts an empty parser.
    pub fn new() -> Self {
        ParserBuilder::default()
    }

    /// Declares a parse node `name` extracting `header_type` at byte
    /// `offset`. Its transition defaults to Accept until one of the
    /// transition methods is called.
    pub fn node(
        mut self,
        name: impl Into<String>,
        header_type: impl Into<String>,
        offset: u32,
    ) -> Self {
        self.nodes
            .push((name.into(), header_type.into(), offset, None));
        self
    }

    /// Sets node `name`'s transition to unconditionally continue at node
    /// `target`.
    pub fn goto(mut self, name: &str, target: &str) -> Self {
        self.set_transition(
            name,
            PendingTransition::Unconditional(PendingTarget::Node(target.into())),
        );
        self
    }

    /// Sets node `name`'s transition to accept.
    pub fn accept(mut self, name: &str) -> Self {
        self.set_transition(
            name,
            PendingTransition::Unconditional(PendingTarget::Accept),
        );
        self
    }

    /// Sets node `name`'s transition to select on `field` with the given
    /// `(value, target-node)` cases, defaulting to accept.
    pub fn select(
        mut self,
        name: &str,
        field: impl Into<String>,
        bits: u16,
        cases: Vec<(u128, &str)>,
    ) -> Self {
        self.set_transition(
            name,
            PendingTransition::Select {
                field: field.into(),
                cases: cases
                    .into_iter()
                    .map(|(v, t)| (Value::new(v, bits), PendingTarget::Node(t.into())))
                    .collect(),
                default: PendingTarget::Accept,
            },
        );
        self
    }

    /// Like [`select`](Self::select) but rejecting packets that match no
    /// case.
    pub fn select_or_reject(
        mut self,
        name: &str,
        field: impl Into<String>,
        bits: u16,
        cases: Vec<(u128, &str)>,
    ) -> Self {
        self.set_transition(
            name,
            PendingTransition::Select {
                field: field.into(),
                cases: cases
                    .into_iter()
                    .map(|(v, t)| (Value::new(v, bits), PendingTarget::Node(t.into())))
                    .collect(),
                default: PendingTarget::Reject,
            },
        );
        self
    }

    /// Marks the start node.
    pub fn start(mut self, name: &str) -> Self {
        self.start = Some(PendingTarget::Node(name.into()));
        self
    }

    fn set_transition(&mut self, name: &str, t: PendingTransition) {
        if let Some(entry) = self.nodes.iter_mut().find(|(n, ..)| n == name) {
            entry.3 = Some(t);
        } else {
            self.errors.push(IrError::Undefined {
                kind: "parser node",
                name: name.to_string(),
            });
        }
    }

    /// Resolves names and produces the DAG. A transition set on an
    /// undeclared node or a target name that resolves to no node is an
    /// [`IrError::Undefined`] — surfaced here rather than panicking, so a
    /// typo in a generated parser is a recoverable diagnostic.
    pub fn build(self) -> Result<ParserDag> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let index: BTreeMap<String, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, (n, ..))| (n.clone(), i))
            .collect();
        let resolve = |t: &PendingTarget| -> Result<Target> {
            match t {
                PendingTarget::Accept => Ok(Target::Accept),
                PendingTarget::Reject => Ok(Target::Reject),
                PendingTarget::Node(n) => {
                    index
                        .get(n)
                        .map(|i| Target::Node(*i))
                        .ok_or_else(|| IrError::Undefined {
                            kind: "parser node",
                            name: n.clone(),
                        })
                }
            }
        };
        let mut dag = ParserDag::new();
        for (_, header_type, offset, transition) in &self.nodes {
            let transition = match transition {
                None => Transition::Unconditional(Target::Accept),
                Some(PendingTransition::Unconditional(t)) => Transition::Unconditional(resolve(t)?),
                Some(PendingTransition::Select {
                    field,
                    cases,
                    default,
                }) => Transition::Select {
                    field: field.clone(),
                    cases: cases
                        .iter()
                        .map(|(v, t)| Ok((*v, resolve(t)?)))
                        .collect::<Result<Vec<_>>>()?,
                    default: resolve(default)?,
                },
            };
            dag.add_node(ParseNode {
                header_type: header_type.clone(),
                offset: *offset,
                transition,
            });
        }
        dag.start = self.start.as_ref().map(&resolve).transpose()?;
        Ok(dag)
    }
}

/// Parser input accepted by [`ProgramBuilder::parser`]: a finished DAG, a
/// [`ParserBuilder`] (resolved on the spot), or an explicit result. A
/// resolution failure is carried into the program builder and reported by
/// [`ProgramBuilder::build`] instead of panicking mid-chain.
#[derive(Debug, Clone)]
pub struct ParserResult(Result<ParserDag>);

impl From<ParserDag> for ParserResult {
    fn from(dag: ParserDag) -> ParserResult {
        ParserResult(Ok(dag))
    }
}

impl From<ParserBuilder> for ParserResult {
    fn from(b: ParserBuilder) -> ParserResult {
        ParserResult(b.build())
    }
}

impl From<Result<ParserDag>> for ParserResult {
    fn from(r: Result<ParserDag>) -> ParserResult {
        ParserResult(r)
    }
}

/// Builds an [`ActionDef`].
#[derive(Debug, Clone)]
pub struct ActionBuilder {
    def: ActionDef,
}

impl ActionBuilder {
    /// Starts an action.
    pub fn new(name: impl Into<String>) -> Self {
        ActionBuilder {
            def: ActionDef {
                name: name.into(),
                params: Vec::new(),
                ops: Vec::new(),
            },
        }
    }

    /// Declares a runtime parameter.
    pub fn param(mut self, name: impl Into<String>, bits: u16) -> Self {
        self.def.params.push((name.into(), bits));
        self
    }

    /// Appends `dst = expr`.
    pub fn set(mut self, dst: FieldRef, value: Expr) -> Self {
        self.def.ops.push(PrimitiveOp::Set { dst, value });
        self
    }

    /// Appends a hash computation.
    pub fn hash(mut self, dst: FieldRef, algo: HashAlgorithm, inputs: Vec<Expr>) -> Self {
        self.def.ops.push(PrimitiveOp::Hash { dst, algo, inputs });
        self
    }

    /// Appends a header insertion.
    pub fn add_header(mut self, header: impl Into<String>, before: Option<&str>) -> Self {
        self.def.ops.push(PrimitiveOp::AddHeader {
            header: header.into(),
            before: before.map(str::to_string),
        });
        self
    }

    /// Appends a header removal.
    pub fn remove_header(mut self, header: impl Into<String>) -> Self {
        self.def.ops.push(PrimitiveOp::RemoveHeader {
            header: header.into(),
        });
        self
    }

    /// Appends removal of the `occurrence`-th instance of `header`.
    pub fn remove_header_nth(mut self, header: impl Into<String>, occurrence: usize) -> Self {
        self.def.ops.push(PrimitiveOp::RemoveHeaderNth {
            header: header.into(),
            occurrence,
        });
        self
    }

    /// Appends `dst = register[index]`.
    pub fn reg_read(mut self, dst: FieldRef, register: impl Into<String>, index: Expr) -> Self {
        self.def.ops.push(PrimitiveOp::RegisterRead {
            dst,
            register: register.into(),
            index,
        });
        self
    }

    /// Appends `register[index] = value`.
    pub fn reg_write(mut self, register: impl Into<String>, index: Expr, value: Expr) -> Self {
        self.def.ops.push(PrimitiveOp::RegisterWrite {
            register: register.into(),
            index,
            value,
        });
        self
    }

    /// Appends an IPv4 checksum recomputation over `header`.
    pub fn update_checksum(mut self, header: impl Into<String>) -> Self {
        self.def.ops.push(PrimitiveOp::Ipv4ChecksumUpdate {
            header: header.into(),
        });
        self
    }

    /// Appends a digest emission to stream `name` carrying `fields`.
    pub fn digest(mut self, name: impl Into<String>, fields: Vec<Expr>) -> Self {
        self.def.ops.push(PrimitiveOp::Digest {
            name: name.into(),
            fields,
        });
        self
    }

    /// Appends a drop mark.
    pub fn drop_packet(mut self) -> Self {
        self.def.ops.push(PrimitiveOp::Drop);
        self
    }

    /// Finishes the action.
    pub fn build(self) -> ActionDef {
        self.def
    }
}

/// Builds a [`TableDef`].
#[derive(Debug, Clone)]
pub struct TableBuilder {
    def: TableDef,
}

impl TableBuilder {
    /// Starts a table with a default size of 1024 entries.
    pub fn new(name: impl Into<String>) -> Self {
        TableBuilder {
            def: TableDef {
                name: name.into(),
                keys: Vec::new(),
                actions: Vec::new(),
                default_action: String::new(),
                default_action_args: Vec::new(),
                size: 1024,
            },
        }
    }

    /// Adds an exact-match key.
    pub fn key_exact(mut self, field: FieldRef) -> Self {
        self.def.keys.push(TableKey {
            field,
            kind: MatchKind::Exact,
        });
        self
    }

    /// Adds a ternary key.
    pub fn key_ternary(mut self, field: FieldRef) -> Self {
        self.def.keys.push(TableKey {
            field,
            kind: MatchKind::Ternary,
        });
        self
    }

    /// Adds an LPM key.
    pub fn key_lpm(mut self, field: FieldRef) -> Self {
        self.def.keys.push(TableKey {
            field,
            kind: MatchKind::Lpm,
        });
        self
    }

    /// Adds a range key.
    pub fn key_range(mut self, field: FieldRef) -> Self {
        self.def.keys.push(TableKey {
            field,
            kind: MatchKind::Range,
        });
        self
    }

    /// Registers an invocable action.
    pub fn action(mut self, name: impl Into<String>) -> Self {
        self.def.actions.push(name.into());
        self
    }

    /// Sets the miss action (also registered if not yet listed).
    pub fn default_action(mut self, name: impl Into<String>) -> Self {
        let name = name.into();
        if !self.def.actions.contains(&name) {
            self.def.actions.push(name.clone());
        }
        self.def.default_action = name;
        self
    }

    /// Sets constant arguments for the miss action.
    pub fn default_args(mut self, args: Vec<Value>) -> Self {
        self.def.default_action_args = args;
        self
    }

    /// Sets the declared capacity.
    pub fn size(mut self, entries: u32) -> Self {
        self.def.size = entries;
        self
    }

    /// Finishes the table.
    pub fn build(self) -> TableDef {
        self.def
    }
}

/// Builds a [`ControlBlock`].
#[derive(Debug, Clone)]
pub struct ControlBuilder {
    name: String,
    body: Vec<Stmt>,
}

impl ControlBuilder {
    /// Starts a control block.
    pub fn new(name: impl Into<String>) -> Self {
        ControlBuilder {
            name: name.into(),
            body: Vec::new(),
        }
    }

    /// Appends a statement.
    pub fn stmt(mut self, s: Stmt) -> Self {
        self.body.push(s);
        self
    }

    /// Appends `table.apply()`.
    pub fn apply(mut self, table: &str) -> Self {
        self.body.push(Stmt::Apply(table.into()));
        self
    }

    /// Appends a direct action invocation.
    pub fn invoke(mut self, action: &str) -> Self {
        self.body.push(Stmt::Do(action.into()));
        self
    }

    /// Appends a call to another control.
    pub fn call(mut self, control: &str) -> Self {
        self.body.push(Stmt::Call(control.into()));
        self
    }

    /// Finishes the control block.
    pub fn build(self) -> ControlBlock {
        ControlBlock::new(self.name, self.body)
    }
}

/// Builds a validated [`Program`].
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    program: Program,
    parser_error: Option<IrError>,
}

impl ProgramBuilder {
    /// Starts a program.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            program: Program::new(name),
            parser_error: None,
        }
    }

    /// Registers a header type.
    pub fn header(mut self, ht: HeaderType) -> Self {
        self.program.header_types.insert(ht.name.clone(), ht);
        self
    }

    /// Declares a user metadata field.
    pub fn meta_field(mut self, name: impl Into<String>, bits: u16) -> Self {
        self.program.meta_fields.push(FieldDef {
            name: name.into(),
            bits,
        });
        self
    }

    /// Installs the parser (accepts a finished DAG, a [`ParserBuilder`], or
    /// a `Result<ParserDag, IrError>`). A failed parser build is stashed and
    /// reported by [`build`](Self::build).
    pub fn parser(mut self, dag: impl Into<ParserResult>) -> Self {
        match dag.into().0 {
            Ok(dag) => self.program.parser = dag,
            Err(e) => self.parser_error = Some(e),
        }
        self
    }

    /// Registers an action.
    pub fn action(mut self, a: ActionDef) -> Self {
        self.program.actions.insert(a.name.clone(), a);
        self
    }

    /// Registers a table.
    pub fn table(mut self, t: TableDef) -> Self {
        self.program.tables.insert(t.name.clone(), t);
        self
    }

    /// Declares a stateful register array.
    pub fn register(mut self, name: impl Into<String>, width_bits: u16, size: u32) -> Self {
        let name = name.into();
        self.program.registers.insert(
            name.clone(),
            RegisterDef {
                name,
                width_bits,
                size,
            },
        );
        self
    }

    /// Registers a control block.
    pub fn control(mut self, c: ControlBlock) -> Self {
        self.program.controls.insert(c.name.clone(), c);
        self
    }

    /// Sets the entry control.
    pub fn entry(mut self, name: impl Into<String>) -> Self {
        self.program.entry = name.into();
        self
    }

    /// Validates and returns the program. A parser that failed to resolve
    /// is reported first.
    pub fn build(self) -> Result<Program> {
        if let Some(e) = self.parser_error {
            return Err(e);
        }
        self.program.validate()?;
        Ok(self.program)
    }

    /// Returns the program without validation (for tests constructing
    /// deliberately broken programs).
    pub fn build_unchecked(self) -> Program {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::fref;
    use crate::well_known;

    #[test]
    fn full_builder_roundtrip() {
        let program = ProgramBuilder::new("demo")
            .header(well_known::ethernet())
            .header(well_known::ipv4())
            .meta_field("class", 8)
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .node("ip", "ipv4", 14)
                    .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                    .accept("ip")
                    .start("eth"),
            )
            .action(
                ActionBuilder::new("set_class")
                    .param("c", 8)
                    .set(FieldRef::meta("class"), Expr::Param("c".into()))
                    .build(),
            )
            .action(ActionBuilder::new("nop").build())
            .table(
                TableBuilder::new("classify")
                    .key_lpm(fref("ipv4", "src_addr"))
                    .action("set_class")
                    .default_action("nop")
                    .size(256)
                    .build(),
            )
            .control(ControlBuilder::new("ingress").apply("classify").build())
            .entry("ingress")
            .build()
            .unwrap();
        assert_eq!(program.tables_in_order(), vec!["classify"]);
        assert_eq!(program.field_width(&FieldRef::meta("class")), Some(8));
    }

    #[test]
    fn parser_builder_select_or_reject() {
        let dag = ParserBuilder::new()
            .node("eth", "ethernet", 0)
            .node("ip", "ipv4", 14)
            .select_or_reject("eth", "ether_type", 16, vec![(0x0800, "ip")])
            .accept("ip")
            .start("eth")
            .build()
            .unwrap();
        let headers: std::collections::BTreeMap<_, _> =
            [well_known::ethernet(), well_known::ipv4()]
                .into_iter()
                .map(|h| (h.name.clone(), h))
                .collect();
        let mut pkt = vec![0u8; 34];
        pkt[12] = 0x08;
        assert!(dag.parse(&headers, &pkt).is_ok());
        pkt[12] = 0x86;
        assert!(dag.parse(&headers, &pkt).is_err());
    }

    #[test]
    fn unknown_target_is_an_error() {
        let err = ParserBuilder::new()
            .node("eth", "ethernet", 0)
            .goto("eth", "ghost")
            .start("eth")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            IrError::Undefined {
                kind: "parser node",
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn transition_on_undeclared_node_is_an_error() {
        let err = ParserBuilder::new()
            .node("eth", "ethernet", 0)
            .accept("ghost")
            .start("eth")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            IrError::Undefined {
                kind: "parser node",
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn parser_error_surfaces_from_program_build() {
        let err = ProgramBuilder::new("broken")
            .header(well_known::ethernet())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .goto("eth", "ghost")
                    .start("eth"),
            )
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            IrError::Undefined {
                kind: "parser node",
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn default_action_auto_registered() {
        let t = TableBuilder::new("t").default_action("nop").build();
        assert_eq!(t.actions, vec!["nop"]);
        assert_eq!(t.default_action, "nop");
    }
}
