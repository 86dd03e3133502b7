//! # dejavu-p4ir — a P4-like intermediate representation
//!
//! This crate is the substrate that stands in for the P4-16 language frontend
//! used by the Dejavu paper (*Accelerated Service Chaining on a Single Switch
//! ASIC*, HotNets 2019). There is no P4 parser ecosystem in Rust and the
//! paper's algorithms never look at surface syntax anyway — they operate on
//! the program's intermediate representation:
//!
//! * **header types** with fixed-width bit fields,
//! * a **parser DAG** whose vertices are `(header_type, offset)` tuples (the
//!   exact vertex identity §3 of the paper uses for parser merging),
//! * **match-action tables** with exact/ternary/LPM/range keys,
//! * **actions** built from primitive operations over header and metadata
//!   fields,
//! * **control blocks** that apply tables and branch on their outcomes, and
//! * **programs** packaging one parser plus control logic — one network
//!   function (NF) is one program.
//!
//! Programs are constructed through [`builder`] (a typed builder DSL replacing
//! P4 source text) and consumed by the `dejavu-compiler` stage allocator, the
//! `dejavu-asic` interpreter, and the composition/merging machinery in
//! `dejavu-core`.
//!
//! The crate is deliberately plain: string-named entities resolved at
//! compile/execute time, no type-level tricks, no unsafe code — the same
//! design stance as smoltcp ("simplicity and robustness", even at some
//! performance cost).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod analyze;
pub mod builder;
pub mod control;
pub mod deps;
pub mod error;
pub mod header;
pub mod lint;
pub mod parser;
pub mod printer;
pub mod program;
pub mod table;
pub mod value;
mod walk;
pub mod well_known;

pub use action::{ActionDef, Expr, PrimitiveOp};
pub use analyze::AbstractValue;
pub use builder::{
    ActionBuilder, ControlBuilder, HeaderTypeBuilder, ParserBuilder, ProgramBuilder, TableBuilder,
};
pub use control::{BoolExpr, CmpOp, ControlBlock, Stmt};
pub use deps::{register_accesses, DependencyGraph, DependencyKind, RegisterAccess};
pub use error::{IrError, Result};
pub use header::{fref, FieldDef, FieldRef, HeaderType};
pub use lint::{Diagnostic, LintCode, LintConfig, LintReport, Severity};
pub use parser::{
    deposit_bits, extract_bits, extract_field, HeaderCatalog, ParseNode, ParserDag, Target,
    Transition,
};
pub use printer::print_program;
pub use program::Program;
pub use table::{MatchKind, TableDef};
pub use value::{mask_for, Value};
