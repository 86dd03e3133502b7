//! The compiled fast path: pre-lowered programs executed over dense state.
//!
//! The reference [`crate::interp::Interpreter`] resolves header, field,
//! action, table, and register *names* through string-keyed maps on every
//! packet. That is the right shape for an oracle, and exactly the wrong
//! shape for a hot loop. [`CompiledProgram::compile`] lowers a validated
//! [`Program`] once, at load time:
//!
//! * header types, actions, tables, and registers are interned to dense
//!   indices; field references become `(header id, width, bit offset)` or
//!   `(metadata slot, width)` tuples,
//! * the parser DAG is pre-resolved so the walk does no catalog lookups.
//!   It lays the located headers out back to back, then the payload, in the
//!   scratch's packet buffer — exactly what deparsing the unedited packet
//!   yields — and the pass edits that buffer in place: a read decodes a
//!   field from it, a write deposits into it, adding or removing a header
//!   opens or closes a gap. The bytes a pass ends with *are* its output,
//! * control-block statements (including `Call`s, inlined) are flattened
//!   into a branch-resolved op array executed with a program counter —
//!   all jumps are forward, so execution always terminates,
//! * table applies address [`TableState`] slots by dense id and hit the
//!   per-table indexes built at install time.
//!
//! Semantics are bit-for-bit those of the reference interpreter, including
//! its *lazy* error behavior. Reading an expression has no side effects, so
//! every fault the interpreter raises at run time — a dangling table,
//! action, register, field or parameter name, a table key that does not
//! resolve, a mis-invoked action — is settled at compile time: the op that
//! would fault lowers to a `Fail` op carrying the first error in the
//! interpreter's evaluation order, raised only if control flow actually
//! reaches it, after every effect of the ops before it. Expressions cannot
//! fail, so evaluating one yields a plain [`Value`]. The property suite in
//! `tests/` runs both engines on arbitrary programs × packets and requires
//! identical packets, verdicts, counters, and register state.
//!
//! Call inlining note: acyclic control-call DAGs can in principle expand
//! exponentially (A calls B twice, B calls C twice, …). The interpreter's
//! own call-depth ceiling of 64 bounds the expansion; real programs in this
//! workspace are nowhere near it.

use crate::interp::{ones_complement_checksum, TableEvent, TraceNames};
use crate::tables::TableState;
use dejavu_p4ir::action::{run_hash, ActionDef, Expr, HashAlgorithm, PrimitiveOp};
use dejavu_p4ir::control::{BoolExpr, CmpOp, Stmt};
use dejavu_p4ir::parser::{Target, Transition};
use dejavu_p4ir::program::STANDARD_METADATA;
use dejavu_p4ir::table::RegisterDef;
use dejavu_p4ir::{deposit_bits, extract_bits, FieldRef, IrError, Program, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Standard-metadata slots. The compiler lays out the seven platform fields
/// first, in [`STANDARD_METADATA`] order, so the switch can read them by
/// constant index. User metadata follows (a user field redeclaring a
/// standard name takes over the slot's width, mirroring
/// `Program::field_width`'s user-first resolution).
pub(crate) const M_INGRESS_PORT: usize = 0;
pub(crate) const M_EGRESS_SPEC: usize = 1;
pub(crate) const M_DROP: usize = 2;
pub(crate) const M_RESUBMIT: usize = 3;
#[allow(dead_code)] // reserved platform slot, unread by the switch model
pub(crate) const M_RECIRC: usize = 4;
pub(crate) const M_MIRROR: usize = 5;
pub(crate) const M_TO_CPU: usize = 6;

/// A resolved field location: a metadata slot or a header field, with the
/// declared width baked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CSlot {
    Meta {
        slot: u16,
        bits: u16,
    },
    Hdr {
        hid: u16,
        bits: u16,
        /// Bit offset of the field from the start of its header.
        off: u32,
    },
}

impl CSlot {
    fn bits(&self) -> u16 {
        match self {
            CSlot::Meta { bits, .. } | CSlot::Hdr { bits, .. } => *bits,
        }
    }
}

/// Lowered expression. `Param` is an index into the running action's
/// argument bindings. Every reference in it resolved at compile time.
#[derive(Debug, Clone)]
enum CExpr {
    Const(Value),
    Read(CSlot),
    Param(usize),
    Add(Box<CExpr>, Box<CExpr>),
    Sub(Box<CExpr>, Box<CExpr>),
    And(Box<CExpr>, Box<CExpr>),
    Or(Box<CExpr>, Box<CExpr>),
    Xor(Box<CExpr>, Box<CExpr>),
    Shl(Box<CExpr>, u32),
    Shr(Box<CExpr>, u32),
}

/// Lowered boolean expression.
#[derive(Debug, Clone)]
enum CBool {
    Cmp(CExpr, CmpOp, CExpr),
    And(Box<CBool>, Box<CBool>),
    Or(Box<CBool>, Box<CBool>),
    Not(Box<CBool>),
    /// `isValid(header)`; `None` means the type name is unknown, which the
    /// interpreter treats as never-valid.
    Valid(Option<u16>),
    /// A comparison with an operand the interpreter would fault on. `&&`
    /// and `||` still short-circuit around it.
    Fail(IrError),
}

/// Lowered primitive op.
#[derive(Debug, Clone)]
enum CPrim {
    Set {
        dst: CSlot,
        value: CExpr,
    },
    Hash {
        dst: CSlot,
        algo: HashAlgorithm,
        inputs: Vec<CExpr>,
    },
    AddHeader {
        hid: u16,
        /// Insert before the first instance of this header id (append when
        /// `None` or when no instance is present).
        before: Option<u16>,
    },
    RemoveHeaderNth {
        /// `None` when the type name is unknown — a guaranteed no-op.
        hid: Option<u16>,
        occurrence: usize,
    },
    RegisterRead {
        dst: CSlot,
        reg: usize,
        index: CExpr,
    },
    RegisterWrite {
        reg: usize,
        index: CExpr,
        value: CExpr,
    },
    ChecksumUpdate {
        hid: u16,
        /// Bit offset of the 16-bit `hdr_checksum` field in the header.
        ck_off: u32,
    },
    Digest {
        /// Digest stream name: every record shares it.
        name: Arc<str>,
        inputs: Vec<CExpr>,
    },
    Drop,
    NoOp,
    /// A register read whose destination dangles: the interpreter reads the
    /// cell (creating the register's array) before it resolves the
    /// destination, so this reads, then raises `err`.
    RegisterReadFail {
        reg: usize,
        err: IrError,
    },
    /// Raises the interpreter's lazy error for this op.
    Fail(IrError),
}

/// A lowered action.
#[derive(Debug, Clone)]
struct CAction {
    /// Declared parameter widths (arguments are resized to these).
    params: Vec<u16>,
    ops: Vec<CPrim>,
}

/// A lowered table reference, for a table whose keys all resolve (the
/// applies of any other table lower to `COp::Fail`).
#[derive(Debug, Clone)]
struct CTable {
    /// Dense [`TableState`] slot id. Valid only against a state whose
    /// tables were preregistered from the same program in
    /// `Program::tables` iteration order (the switch does this at load).
    sid: usize,
    keys: Vec<CSlot>,
    /// Per-definition-action global action id, indexed by the action's
    /// ordinal in the table definition's action list — the table the hot
    /// loop maps [`TableState::lookup_id_ord`] hits through without hashing
    /// the action name. Dangling names stay lazy errors, raised only when
    /// an installed entry actually selects them (interpreter semantics).
    entry_aids: Vec<Result<usize, IrError>>,
    default_aid: Result<usize, IrError>,
    default_args: Vec<Value>,
}

/// One op of the flattened entry control. All jump targets are forward.
#[derive(Debug, Clone)]
enum COp {
    Apply {
        tid: usize,
    },
    ApplySelect {
        tid: usize,
        /// `(action id, branch pc)` arms checked in order.
        arms: Vec<(usize, usize)>,
        default_pc: usize,
    },
    /// Falls through on true, jumps to `else_pc` on false.
    Branch {
        cond: CBool,
        else_pc: usize,
    },
    Jump {
        pc: usize,
    },
    /// A `Do` of a parameterless action.
    RunAction {
        aid: usize,
    },
    /// Raises a lazy interpreter error when reached.
    Fail(IrError),
}

/// A pre-resolved parse target.
#[derive(Debug, Clone, Copy)]
enum CTarget {
    Node(usize),
    Accept,
    Reject,
}

/// A pre-resolved parse transition.
#[derive(Debug, Clone)]
enum CTransition {
    Go(CTarget),
    Select {
        /// Absolute bit offset of the select field in the packet.
        bit_off: u64,
        bits: u16,
        cases: Vec<(Value, CTarget)>,
        default: CTarget,
    },
    /// The interpreter would fault resolving this node's select field.
    Bad,
}

/// A pre-resolved parse node.
#[derive(Debug, Clone)]
struct CNode {
    hid: u16,
    /// Absolute byte offset of the header in the packet.
    offset: usize,
    /// `offset + total_bytes` — the truncation bound.
    end: usize,
    transition: CTransition,
}

/// The pre-resolved parser: nodes whose header type is unknown (an
/// interpreter parse error) are `None`.
#[derive(Debug, Clone)]
struct CParser {
    start: Option<CTarget>,
    nodes: Vec<Option<CNode>>,
}

/// An interned header type: per-field widths and bit offsets from the
/// start of the header, in declaration order. Headers are validated
/// byte-aligned and their fields cover every bit of `total_bytes`.
#[derive(Debug, Clone)]
struct CHeader {
    bits: Vec<u16>,
    offs: Vec<u32>,
    total_bytes: usize,
}

/// The packet a pass edits: every header instance's bytes back to back in
/// wire order, then the payload. A field is decoded from these bytes when
/// an op reads it and deposited into them when an op writes it, so the
/// buffer is the deparsed packet at every step of the pass.
/// [`FastPacket::clear`] resets it while keeping every allocation, so a
/// warmed-up packet pass performs zero heap allocations.
#[derive(Debug, Clone, Default)]
struct FastPacket {
    /// The packet's bytes; [`ExecScratch::out`] after the pass.
    bytes: Vec<u8>,
    /// Header instances in wire order.
    insts: Vec<Inst>,
}

/// One header instance: its type and the byte offset of its first byte in
/// [`FastPacket::bytes`].
#[derive(Debug, Clone, Copy)]
struct Inst {
    hid: u16,
    at: u32,
}

impl FastPacket {
    /// Resets the packet for a new pass, retaining capacity.
    fn clear(&mut self) {
        self.bytes.clear();
        self.insts.clear();
    }

    fn find(&self, hid: u16) -> Option<usize> {
        self.insts.iter().position(|i| i.hid == hid)
    }

    /// Bit offset of the first instance of `hid`, if one is present — the
    /// instance every read and write of the type resolves to.
    fn bit_of(&self, hid: u16) -> Option<u64> {
        self.find(hid).map(|i| u64::from(self.insts[i].at) * 8)
    }

    /// Inserts a zeroed `len`-byte instance of `hid` as instance `pos`,
    /// at byte `at`: opens a gap there and shifts every later instance.
    /// Reuses the buffer's capacity once it has grown to size.
    fn open(&mut self, pos: usize, hid: u16, at: usize, len: usize) {
        let tail = self.bytes.len();
        self.bytes.resize(tail + len, 0);
        self.bytes.copy_within(at..tail, at + len);
        self.bytes[at..at + len].fill(0);
        for inst in &mut self.insts[pos..] {
            inst.at += len as u32;
        }
        self.insts.insert(pos, Inst { hid, at: at as u32 });
    }

    /// Removes instance `idx`, `len` bytes long: closes its gap and shifts
    /// every later instance back.
    fn close(&mut self, idx: usize, len: usize) {
        let at = self.insts.remove(idx).at as usize;
        self.bytes.drain(at..at + len);
        for inst in &mut self.insts[idx..] {
            inst.at -= len as u32;
        }
    }
}

/// The signals of one zero-copy pipelet pass. The edited bytes are left in
/// the caller's scratch ([`ExecScratch::out`]); `parsed == false` means the
/// parser rejected the packet (record a parse error and drop).
#[derive(Debug, Clone, Copy)]
pub struct BufPass {
    /// False when the parser rejected the packet (the scratch's packet
    /// buffer is left empty).
    pub parsed: bool,
    /// `drop_flag` as a boolean.
    pub drop: bool,
    /// `to_cpu_flag` as a boolean.
    pub to_cpu: bool,
    /// `resubmit_flag` as a boolean.
    pub resubmit: bool,
    /// `mirror_flag` as a boolean.
    pub mirror: bool,
    /// Raw `egress_spec` metadata value after the pass.
    pub egress_spec: u128,
    /// Number of tables applied.
    pub tables_applied: u32,
}

impl BufPass {
    /// A pass that ran nothing: no flag set, no table applied, `egress_spec`
    /// as seeded. `parsed == true` is a pipelet with no program (bytes pass
    /// through), `false` a parser reject.
    pub(crate) fn idle(parsed: bool, egress_spec: u16) -> Self {
        BufPass {
            parsed,
            drop: false,
            to_cpu: false,
            resubmit: false,
            mirror: false,
            egress_spec: u128::from(egress_spec),
            tables_applied: 0,
        }
    }
}

/// Reusable per-pass execution state: the packet buffer a pass edits (with
/// its header instances), the metadata vector, and every key/argument/value
/// staging buffer the hot loop needs. One `ExecScratch` is owned per
/// execution context (switch, RTC worker) and recycled across packets —
/// after warmup no pass allocates.
#[derive(Debug, Clone, Default)]
pub struct ExecScratch {
    pkt: FastPacket,
    meta: Vec<Value>,
    keys: Vec<Value>,
    args: Vec<Value>,
    vals: Vec<Value>,
    /// The table events of the last traced pass, read in place by the
    /// switch, and the names of the program that ran it.
    pub(crate) events: Vec<TableEvent>,
    names: Option<Arc<TraceNames>>,
}

/// A [`TableEvent`] with its names spelled out, as
/// [`ExecScratch::events`] renders it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedTableEvent {
    /// Table name.
    pub table: String,
    /// Whether an installed entry matched (false = default action ran).
    pub hit: bool,
    /// The action that ran.
    pub action: String,
}

impl ExecScratch {
    /// Fresh scratch (all buffers empty; they grow to steady-state capacity
    /// over the first few packets).
    pub fn new() -> Self {
        ExecScratch::default()
    }

    /// The packet bytes the last [`CompiledProgram::run_pass_scratch`] left.
    pub fn out(&self) -> &[u8] {
        &self.pkt.bytes
    }

    /// Mutable access to the packet buffer (the switch ping-pongs it with
    /// the caller's packet buffer between recirculation passes).
    pub fn out_mut(&mut self) -> &mut Vec<u8> {
        &mut self.pkt.bytes
    }

    /// The table events of the last traced pass, rendered by name: the
    /// pass records ids, and the names are looked up here.
    pub fn events(&self) -> Vec<NamedTableEvent> {
        let Some(names) = &self.names else {
            return Vec::new();
        };
        self.events
            .iter()
            .map(|&e| NamedTableEvent {
                table: names.tables[e.table as usize].clone(),
                hit: e.hit,
                action: names.actions[e.action as usize].clone(),
            })
            .collect()
    }
}

/// A program lowered for the fast path. Built once per pipelet at
/// `Switch::load_program` time; executed per packet with no name lookups.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Zeroed metadata vector at the declared widths, memcpy'd into the
    /// scratch at the top of every pass instead of rebuilt value by value.
    meta_zero: Vec<Value>,
    /// Byte length of each interned header type.
    header_bytes: Vec<usize>,
    /// Table and action names by trace id, shared with every trace that
    /// renders them.
    pub(crate) names: Arc<TraceNames>,
    actions: Vec<CAction>,
    tables: Vec<CTable>,
    registers: Vec<RegisterDef>,
    parser: CParser,
    ops: Vec<COp>,
}

impl CompiledProgram {
    /// Lowers a program. Structural faults the reference interpreter only
    /// raises at run time (dangling names, mis-invoked actions, call-depth
    /// overflow) are preserved as lazily-failing ops, so compilation itself
    /// succeeds for anything the interpreter can attempt to execute.
    pub fn compile(program: &Program) -> Result<Self, IrError> {
        Compiler::new(program).lower()
    }

    /// Runs one pipelet pass over `input` using caller-owned scratch state.
    /// Metadata is seeded with `ingress_port` and `egress_spec` exactly as
    /// the switch seeds the reference interpreter's metadata map; table
    /// applies count hits and misses in `tables`. The edited packet is left
    /// in [`ExecScratch::out`], table events (only with `collect_events`) in
    /// [`ExecScratch::events`]. After the scratch buffers have grown to the
    /// program's steady-state sizes, a pass performs no heap allocation
    /// (digest emission, a learn-path event, is the one exception).
    pub fn run_pass_scratch(
        &self,
        input: &[u8],
        ingress_port: u16,
        egress_spec: u16,
        tables: &mut TableState,
        collect_events: bool,
        scratch: &mut ExecScratch,
    ) -> Result<BufPass, IrError> {
        scratch.events.clear();
        if collect_events {
            scratch.names = Some(Arc::clone(&self.names));
        }
        if !self.parse_into(input, &mut scratch.pkt) {
            return Ok(BufPass::idle(false, egress_spec));
        }
        scratch.meta.clear();
        scratch.meta.extend_from_slice(&self.meta_zero);
        scratch.meta[M_INGRESS_PORT] = Value::new(u128::from(ingress_port), 16);
        scratch.meta[M_EGRESS_SPEC] = Value::new(u128::from(egress_spec), 16);
        let mut tables_applied = 0u32;

        let mut pc = 0usize;
        while pc < self.ops.len() {
            match &self.ops[pc] {
                COp::Apply { tid } => {
                    self.apply(*tid, scratch, tables, collect_events)?;
                    tables_applied += 1;
                    pc += 1;
                }
                COp::ApplySelect {
                    tid,
                    arms,
                    default_pc,
                } => {
                    let ran = self.apply(*tid, scratch, tables, collect_events)?;
                    tables_applied += 1;
                    pc = arms
                        .iter()
                        .find(|(aid, _)| *aid == ran)
                        .map(|(_, p)| *p)
                        .unwrap_or(*default_pc);
                }
                COp::Branch { cond, else_pc } => {
                    pc = if self.eval_bool(cond, &scratch.pkt, &scratch.meta)? {
                        pc + 1
                    } else {
                        *else_pc
                    };
                }
                COp::Jump { pc: target } => pc = *target,
                COp::RunAction { aid } => {
                    let mut args = std::mem::take(&mut scratch.args);
                    args.clear();
                    let r = self.run_action(*aid, &mut args, scratch, tables);
                    scratch.args = args;
                    r?;
                    pc += 1;
                }
                COp::Fail(e) => return Err(e.clone()),
            }
        }

        Ok(BufPass {
            parsed: true,
            drop: scratch.meta[M_DROP].as_bool(),
            to_cpu: scratch.meta[M_TO_CPU].as_bool(),
            resubmit: scratch.meta[M_RESUBMIT].as_bool(),
            mirror: scratch.meta[M_MIRROR].as_bool(),
            egress_spec: scratch.meta[M_EGRESS_SPEC].raw(),
            tables_applied,
        })
    }

    /// Walks the pre-resolved parser over `input` — only select fields are
    /// decoded — then lays the accepted headers out back to back, followed
    /// by the payload, in `pkt`'s buffer. That is what deparsing the
    /// unedited packet yields: the fields of a header tile its bytes, so
    /// re-serialising them rewrites the bytes they were read from. `false`
    /// (and an empty buffer) on any parse error (reject, truncation,
    /// dangling node — all drop the packet).
    fn parse_into(&self, input: &[u8], pkt: &mut FastPacket) -> bool {
        pkt.clear();
        let Some(mut cur) = self.parser.start else {
            return false;
        };
        let mut consumed = 0usize;
        loop {
            match cur {
                CTarget::Accept => break,
                CTarget::Reject => return false,
                CTarget::Node(id) => {
                    let Some(node) = self.parser.nodes[id].as_ref() else {
                        return false;
                    };
                    if input.len() < node.end {
                        return false;
                    }
                    // `at` is the input offset until the walk accepts.
                    pkt.insts.push(Inst {
                        hid: node.hid,
                        at: node.offset as u32,
                    });
                    consumed = node.end;
                    cur = match &node.transition {
                        CTransition::Go(t) => *t,
                        CTransition::Select {
                            bit_off,
                            bits,
                            cases,
                            default,
                        } => {
                            let v = extract_bits(input, *bit_off, *bits);
                            cases
                                .iter()
                                .find(|(case, _)| *case == v)
                                .map(|(_, t)| *t)
                                .unwrap_or(*default)
                        }
                        CTransition::Bad => return false,
                    };
                }
            }
        }
        for inst in &mut pkt.insts {
            let src = inst.at as usize;
            inst.at = pkt.bytes.len() as u32;
            let len = self.header_bytes[inst.hid as usize];
            pkt.bytes.extend_from_slice(&input[src..src + len]);
        }
        pkt.bytes.extend_from_slice(&input[consumed..]);
        true
    }

    /// Applies a table, returning the id of the action that ran. The key
    /// tuple and argument bindings are staged in the scratch buffers; the
    /// hit path maps the entry's install-time action ordinal through the
    /// prelowered per-table action-id table — no clones, no name hashing.
    fn apply(
        &self,
        tid: usize,
        scratch: &mut ExecScratch,
        tables: &mut TableState,
        collect: bool,
    ) -> Result<usize, IrError> {
        let t = &self.tables[tid];
        let mut keys = std::mem::take(&mut scratch.keys);
        let mut args = std::mem::take(&mut scratch.args);
        let res = self.apply_inner(t, &mut keys, &mut args, scratch, tables);
        scratch.keys = keys;
        scratch.args = args;
        let (aid, hit) = res?;
        if collect {
            scratch.events.push(TableEvent {
                table: t.sid as u32,
                action: aid as u32,
                hit,
            });
        }
        Ok(aid)
    }

    /// Looks up and runs; `(action id, hit)`.
    fn apply_inner(
        &self,
        t: &CTable,
        keys: &mut Vec<Value>,
        args: &mut Vec<Value>,
        scratch: &mut ExecScratch,
        tables: &mut TableState,
    ) -> Result<(usize, bool), IrError> {
        keys.clear();
        keys.extend(
            t.keys
                .iter()
                .map(|&slot| self.read(slot, &scratch.pkt, &scratch.meta)),
        );
        args.clear();
        let (aid, hit) = match tables.lookup_id_ord(t.sid, keys) {
            Some((ord, entry)) => {
                let aid = *t.entry_aids[ord].as_ref().map_err(Clone::clone)?;
                args.extend_from_slice(&entry.action_args);
                (aid, true)
            }
            None => {
                let aid = *t.default_aid.as_ref().map_err(Clone::clone)?;
                args.extend_from_slice(&t.default_args);
                (aid, false)
            }
        };
        self.run_action(aid, args, scratch, tables)?;
        Ok((aid, hit))
    }

    /// Runs an action with `args` already staged in a caller-owned buffer
    /// (bound in place to the declared parameter widths — `Value` is
    /// `Copy`, so binding is just an in-place resize).
    fn run_action(
        &self,
        aid: usize,
        args: &mut [Value],
        scratch: &mut ExecScratch,
        tables: &mut TableState,
    ) -> Result<(), IrError> {
        let act = &self.actions[aid];
        if args.len() != act.params.len() {
            return Err(IrError::Invalid(format!(
                "action {}: expected {} args, got {}",
                self.names.actions[aid],
                act.params.len(),
                args.len()
            )));
        }
        for (v, &bits) in args.iter_mut().zip(&act.params) {
            *v = v.resize(bits);
        }
        let ExecScratch {
            pkt, meta, vals, ..
        } = scratch;
        for op in &act.ops {
            match op {
                CPrim::Set { dst, value } => {
                    let v = self.eval(value, pkt, meta, args);
                    self.write(*dst, v, pkt, meta);
                }
                CPrim::Hash { dst, algo, inputs } => {
                    vals.clear();
                    vals.extend(inputs.iter().map(|e| self.eval(e, pkt, meta, args)));
                    let raw = run_hash(*algo, vals);
                    self.write(*dst, Value::new(raw, dst.bits()), pkt, meta);
                }
                CPrim::AddHeader { hid, before } => {
                    let pos = before.and_then(|b| pkt.find(b)).unwrap_or(pkt.insts.len());
                    let at = match pkt.insts.get(pos) {
                        Some(next) => next.at as usize,
                        None => pkt.insts.last().map_or(0, |last| {
                            last.at as usize + self.header_bytes[last.hid as usize]
                        }),
                    };
                    pkt.open(pos, *hid, at, self.header_bytes[*hid as usize]);
                }
                CPrim::RemoveHeaderNth { hid, occurrence } => {
                    if let Some(hid) = hid {
                        let idx = pkt
                            .insts
                            .iter()
                            .enumerate()
                            .filter(|(_, inst)| inst.hid == *hid)
                            .map(|(i, _)| i)
                            .nth(*occurrence);
                        if let Some(idx) = idx {
                            pkt.close(idx, self.header_bytes[*hid as usize]);
                        }
                    }
                }
                CPrim::RegisterRead { dst, reg, index } => {
                    let def = &self.registers[*reg];
                    let idx = self.eval(index, pkt, meta, args).raw() as u32;
                    let val = tables.register_read(def, idx);
                    self.write(*dst, Value::new(val, def.width_bits), pkt, meta);
                }
                CPrim::RegisterWrite { reg, index, value } => {
                    let def = &self.registers[*reg];
                    let idx = self.eval(index, pkt, meta, args).raw() as u32;
                    let val = self.eval(value, pkt, meta, args).raw();
                    tables.register_write(def, idx, val);
                }
                CPrim::ChecksumUpdate { hid, ck_off } => {
                    if let Some(i) = pkt.find(*hid) {
                        let at = pkt.insts[i].at as usize;
                        let hdr = &mut pkt.bytes[at..at + self.header_bytes[*hid as usize]];
                        let ck_off = u64::from(*ck_off);
                        deposit_bits(hdr, ck_off, Value::new(0, 16));
                        let sum = ones_complement_checksum(hdr);
                        deposit_bits(hdr, ck_off, Value::new(u128::from(sum), 16));
                    }
                }
                CPrim::Digest { name, inputs } => {
                    vals.clear();
                    vals.extend(inputs.iter().map(|e| self.eval(e, pkt, meta, args)));
                    // The one allocating op on the hot loop (the record's
                    // values) — digests are learn-path events, not
                    // steady-state packet work.
                    tables.emit_digest(Arc::clone(name), vals.clone());
                }
                CPrim::Drop => {
                    meta[M_DROP] = Value::new(1, 1);
                }
                CPrim::NoOp => {}
                CPrim::RegisterReadFail { reg, err } => {
                    tables.register_read(&self.registers[*reg], 0);
                    return Err(err.clone());
                }
                CPrim::Fail(e) => return Err(e.clone()),
            }
        }
        Ok(())
    }

    /// Reads a slot: metadata resized to the declared width; a header field
    /// decoded from the packet's bytes at the declared width (zero when the
    /// header is absent) — the interpreter's exact read semantics, since
    /// every write lands in those bytes.
    fn read(&self, s: CSlot, pkt: &FastPacket, meta: &[Value]) -> Value {
        match s {
            CSlot::Meta { slot, bits } => meta[slot as usize].resize(bits),
            CSlot::Hdr { hid, bits, off } => match pkt.bit_of(hid) {
                Some(base) => extract_bits(&pkt.bytes, base + u64::from(off), bits),
                None => Value::new(0, bits),
            },
        }
    }

    /// Writes a slot after resizing to the declared width; a write to an
    /// absent header is dropped, as in `ParsedPacket::set`.
    fn write(&self, s: CSlot, v: Value, pkt: &mut FastPacket, meta: &mut [Value]) {
        match s {
            CSlot::Meta { slot, bits } => meta[slot as usize] = v.resize(bits),
            CSlot::Hdr { hid, bits, off } => {
                if let Some(base) = pkt.bit_of(hid) {
                    deposit_bits(&mut pkt.bytes, base + u64::from(off), v.resize(bits));
                }
            }
        }
    }

    fn eval(&self, e: &CExpr, pkt: &FastPacket, meta: &[Value], bound: &[Value]) -> Value {
        let eval = |e: &CExpr| self.eval(e, pkt, meta, bound);
        match e {
            CExpr::Const(v) => *v,
            CExpr::Read(s) => self.read(*s, pkt, meta),
            CExpr::Param(i) => bound[*i],
            CExpr::Add(a, b) => eval(a).wrapping_add(eval(b)),
            CExpr::Sub(a, b) => eval(a).wrapping_sub(eval(b)),
            CExpr::And(a, b) => eval(a).and(eval(b)),
            CExpr::Or(a, b) => eval(a).or(eval(b)),
            CExpr::Xor(a, b) => eval(a).xor(eval(b)),
            CExpr::Shl(a, amount) => eval(a).shl(*amount),
            CExpr::Shr(a, amount) => eval(a).shr(*amount),
        }
    }

    fn eval_bool(&self, c: &CBool, pkt: &FastPacket, meta: &[Value]) -> Result<bool, IrError> {
        Ok(match c {
            CBool::Cmp(a, op, b) => {
                let (a, b) = (
                    self.eval(a, pkt, meta, &[]).raw(),
                    self.eval(b, pkt, meta, &[]).raw(),
                );
                match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                }
            }
            CBool::And(a, b) => self.eval_bool(a, pkt, meta)? && self.eval_bool(b, pkt, meta)?,
            CBool::Or(a, b) => self.eval_bool(a, pkt, meta)? || self.eval_bool(b, pkt, meta)?,
            CBool::Not(a) => !self.eval_bool(a, pkt, meta)?,
            CBool::Valid(hid) => hid.is_some_and(|h| pkt.find(h).is_some()),
            CBool::Fail(e) => return Err(e.clone()),
        })
    }
}

/// Compile-time lowering context.
struct Compiler<'p> {
    prog: &'p Program,
    meta_ids: HashMap<String, u16>,
    meta_widths: Vec<u16>,
    headers: Vec<CHeader>,
    header_ids: HashMap<String, u16>,
    /// Per-header field name → id.
    field_ids: Vec<HashMap<String, u16>>,
    actions: Vec<CAction>,
    action_ids: HashMap<String, usize>,
    tables: Vec<CTable>,
    /// Table name → lowered table id, or the first key that does not
    /// resolve (filled by `lower`, before the control is flattened).
    table_ids: HashMap<String, Result<usize, IrError>>,
    registers: Vec<RegisterDef>,
    register_ids: HashMap<String, usize>,
    ops: Vec<COp>,
}

impl<'p> Compiler<'p> {
    fn new(prog: &'p Program) -> Self {
        // Metadata layout: standard fields first, then user fields. A user
        // field shadowing a standard name takes over the slot width; only
        // the first user declaration of a name counts (Program::field_width
        // resolves to the first match).
        let mut meta_ids = HashMap::new();
        let mut meta_widths = Vec::new();
        for (name, bits) in STANDARD_METADATA {
            meta_ids.insert((*name).to_string(), meta_widths.len() as u16);
            meta_widths.push(*bits);
        }
        let mut seen_user = HashSet::new();
        for fd in &prog.meta_fields {
            if !seen_user.insert(fd.name.as_str()) {
                continue;
            }
            if let Some(&slot) = meta_ids.get(&fd.name) {
                meta_widths[slot as usize] = fd.bits;
            } else {
                meta_ids.insert(fd.name.clone(), meta_widths.len() as u16);
                meta_widths.push(fd.bits);
            }
        }

        // Header types interned in BTreeMap (name) order.
        let mut headers = Vec::new();
        let mut header_ids = HashMap::new();
        let mut field_ids = Vec::new();
        for (name, ht) in &prog.header_types {
            header_ids.insert(name.clone(), headers.len() as u16);
            field_ids.push(
                ht.fields
                    .iter()
                    .enumerate()
                    .map(|(i, f)| (f.name.clone(), i as u16))
                    .collect(),
            );
            let bits: Vec<u16> = ht.fields.iter().map(|f| f.bits).collect();
            let mut end = 0u32;
            let offs = bits
                .iter()
                .map(|&b| {
                    let off = end;
                    end += u32::from(b);
                    off
                })
                .collect();
            headers.push(CHeader {
                bits,
                offs,
                total_bytes: ht.total_bytes() as usize,
            });
        }

        let action_ids: HashMap<String, usize> = prog
            .actions
            .keys()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let mut registers = Vec::new();
        let mut register_ids = HashMap::new();
        for (name, def) in &prog.registers {
            register_ids.insert(name.clone(), registers.len());
            registers.push(def.clone());
        }

        Compiler {
            prog,
            meta_ids,
            meta_widths,
            headers,
            header_ids,
            field_ids,
            actions: Vec::new(),
            action_ids,
            tables: Vec::new(),
            table_ids: HashMap::new(),
            registers,
            register_ids,
            ops: Vec::new(),
        }
    }

    fn lower(mut self) -> Result<CompiledProgram, IrError> {
        // Actions, in the same BTreeMap order as `action_ids`.
        for act in self.prog.actions.values() {
            let lowered = self.lower_action(act);
            self.actions.push(lowered);
        }
        // Tables, in BTreeMap order — `sid` must line up with the switch's
        // preregistration order. The interpreter reads every key before the
        // lookup touches a counter, so a table with a dangling key is only
        // ever a fault at its applies.
        let prog = self.prog;
        for (sid, (name, def)) in prog.tables.iter().enumerate() {
            let keys: Result<Vec<CSlot>, IrError> =
                def.keys.iter().map(|k| self.slot_of(&k.field)).collect();
            let tid = keys.map(|keys| {
                let default_aid = self.action_id(&def.default_action);
                let entry_aids = def.actions.iter().map(|a| self.action_id(a)).collect();
                self.tables.push(CTable {
                    sid,
                    keys,
                    entry_aids,
                    default_aid,
                    default_args: def.default_action_args.clone(),
                });
                self.tables.len() - 1
            });
            self.table_ids.insert(name.clone(), tid);
        }

        // Flatten the entry control (Calls inlined).
        let prog = self.prog;
        match prog.entry_control() {
            Some(entry) => self.flatten(&entry.body, 0),
            None => self.ops.push(COp::Fail(IrError::Undefined {
                kind: "entry control",
                name: self.prog.entry.clone(),
            })),
        }

        let parser = self.lower_parser();
        Ok(CompiledProgram {
            meta_zero: self.meta_widths.iter().map(|&b| Value::new(0, b)).collect(),
            header_bytes: self.headers.iter().map(|h| h.total_bytes).collect(),
            names: Arc::new(TraceNames::of(self.prog)),
            actions: self.actions,
            tables: self.tables,
            registers: self.registers,
            parser,
            ops: self.ops,
        })
    }

    fn action_id(&self, name: &str) -> Result<usize, IrError> {
        self.action_ids
            .get(name)
            .copied()
            .ok_or_else(|| IrError::Undefined {
                kind: "action",
                name: name.to_string(),
            })
    }

    /// The lowered table `name` applies, or the fault applying it raises.
    fn table_id(&self, name: &str) -> Result<usize, IrError> {
        match self.table_ids.get(name) {
            Some(tid) => tid.clone(),
            None => Err(IrError::Undefined {
                kind: "table",
                name: name.to_string(),
            }),
        }
    }

    fn register_id(&self, name: &str) -> Result<usize, IrError> {
        self.register_ids
            .get(name)
            .copied()
            .ok_or_else(|| IrError::Undefined {
                kind: "register",
                name: name.to_string(),
            })
    }

    fn lower_parser(&self) -> CParser {
        let lower_target = |t: Target| match t {
            Target::Node(i) => CTarget::Node(i),
            Target::Accept => CTarget::Accept,
            Target::Reject => CTarget::Reject,
        };
        let nodes = self
            .prog
            .parser
            .nodes
            .iter()
            .map(|node| {
                let hid = *self.header_ids.get(&node.header_type)?;
                let ht = &self.prog.header_types[&node.header_type];
                let transition = match &node.transition {
                    Transition::Unconditional(t) => CTransition::Go(lower_target(*t)),
                    Transition::Select {
                        field,
                        cases,
                        default,
                    } => match (ht.field_bit_offset(field), ht.field(field)) {
                        (Some(bit_off), Some(fd)) => CTransition::Select {
                            bit_off: u64::from(node.offset) * 8 + u64::from(bit_off),
                            bits: fd.bits,
                            cases: cases.iter().map(|(v, t)| (*v, lower_target(*t))).collect(),
                            default: lower_target(*default),
                        },
                        _ => CTransition::Bad,
                    },
                };
                Some(CNode {
                    hid,
                    offset: node.offset as usize,
                    end: node.offset as usize + ht.total_bytes() as usize,
                    transition,
                })
            })
            .collect();
        CParser {
            start: self.prog.parser.start.map(lower_target),
            nodes,
        }
    }

    /// Resolves a field reference, or the `Undefined` error the interpreter
    /// raises when it is dangling.
    fn slot_of(&self, fr: &FieldRef) -> Result<CSlot, IrError> {
        let undefined = || IrError::Undefined {
            kind: "field",
            name: fr.to_string(),
        };
        if fr.is_meta() {
            let &slot = self.meta_ids.get(&fr.field).ok_or_else(undefined)?;
            return Ok(CSlot::Meta {
                slot,
                bits: self.meta_widths[slot as usize],
            });
        }
        let &hid = self.header_ids.get(&fr.header).ok_or_else(undefined)?;
        let &fid = self.field_ids[hid as usize]
            .get(&fr.field)
            .ok_or_else(undefined)?;
        let ch = &self.headers[hid as usize];
        Ok(CSlot::Hdr {
            hid,
            bits: ch.bits[fid as usize],
            off: ch.offs[fid as usize],
        })
    }

    /// Lowers an expression, or returns the first fault the interpreter
    /// meets evaluating it (operands left to right).
    fn lower_expr(&self, e: &Expr, act: Option<&ActionDef>) -> Result<CExpr, IrError> {
        let bin = |a: &Expr, b: &Expr| -> Result<_, IrError> {
            Ok((
                Box::new(self.lower_expr(a, act)?),
                Box::new(self.lower_expr(b, act)?),
            ))
        };
        Ok(match e {
            Expr::Const(v) => CExpr::Const(*v),
            Expr::Field(fr) => CExpr::Read(self.slot_of(fr)?),
            Expr::Param(p) => match act.and_then(|a| a.params.iter().position(|(n, _)| n == p)) {
                Some(i) => CExpr::Param(i),
                None => {
                    return Err(IrError::Undefined {
                        kind: "action parameter",
                        name: p.clone(),
                    })
                }
            },
            Expr::Add(a, b) => {
                let (a, b) = bin(a, b)?;
                CExpr::Add(a, b)
            }
            Expr::Sub(a, b) => {
                let (a, b) = bin(a, b)?;
                CExpr::Sub(a, b)
            }
            Expr::And(a, b) => {
                let (a, b) = bin(a, b)?;
                CExpr::And(a, b)
            }
            Expr::Or(a, b) => {
                let (a, b) = bin(a, b)?;
                CExpr::Or(a, b)
            }
            Expr::Xor(a, b) => {
                let (a, b) = bin(a, b)?;
                CExpr::Xor(a, b)
            }
            Expr::Shl(a, n) => CExpr::Shl(Box::new(self.lower_expr(a, act)?), *n),
            Expr::Shr(a, n) => CExpr::Shr(Box::new(self.lower_expr(a, act)?), *n),
        })
    }

    /// Lowers a list of expressions evaluated in order.
    fn lower_exprs(&self, es: &[Expr], act: &ActionDef) -> Result<Vec<CExpr>, IrError> {
        es.iter().map(|e| self.lower_expr(e, Some(act))).collect()
    }

    fn lower_bool(&self, c: &BoolExpr) -> CBool {
        match c {
            BoolExpr::Cmp(a, op, b) => self
                .lower_expr(a, None)
                .and_then(|a| Ok(CBool::Cmp(a, *op, self.lower_expr(b, None)?)))
                .unwrap_or_else(CBool::Fail),
            BoolExpr::And(a, b) => {
                CBool::And(Box::new(self.lower_bool(a)), Box::new(self.lower_bool(b)))
            }
            BoolExpr::Or(a, b) => {
                CBool::Or(Box::new(self.lower_bool(a)), Box::new(self.lower_bool(b)))
            }
            BoolExpr::Not(a) => CBool::Not(Box::new(self.lower_bool(a))),
            BoolExpr::Valid(h) => CBool::Valid(self.header_ids.get(h).copied()),
        }
    }

    fn lower_action(&self, act: &ActionDef) -> CAction {
        let ops = act
            .ops
            .iter()
            .map(|op| self.lower_prim(op, act).unwrap_or_else(CPrim::Fail))
            .collect();
        CAction {
            params: act.params.iter().map(|(_, bits)| *bits).collect(),
            ops,
        }
    }

    /// Lowers one op, or returns the first fault the interpreter raises
    /// running it — operands in its evaluation order, then the
    /// destination. Every operand read is side-effect free, so the op
    /// faults before it has done anything.
    fn lower_prim(&self, op: &PrimitiveOp, act: &ActionDef) -> Result<CPrim, IrError> {
        let a = Some(act);
        let header_id = |name: &String| {
            self.header_ids
                .get(name)
                .copied()
                .ok_or_else(|| IrError::Undefined {
                    kind: "header type",
                    name: name.clone(),
                })
        };
        Ok(match op {
            PrimitiveOp::Set { dst, value } => {
                let value = self.lower_expr(value, a)?;
                CPrim::Set {
                    dst: self.slot_of(dst)?,
                    value,
                }
            }
            PrimitiveOp::Hash { dst, algo, inputs } => {
                let inputs = self.lower_exprs(inputs, act)?;
                CPrim::Hash {
                    dst: self.slot_of(dst)?,
                    algo: *algo,
                    inputs,
                }
            }
            PrimitiveOp::AddHeader { header, before } => CPrim::AddHeader {
                hid: header_id(header)?,
                before: before
                    .as_ref()
                    .and_then(|b| self.header_ids.get(b))
                    .copied(),
            },
            PrimitiveOp::RemoveHeader { header } => CPrim::RemoveHeaderNth {
                hid: self.header_ids.get(header).copied(),
                occurrence: 0,
            },
            PrimitiveOp::RemoveHeaderNth { header, occurrence } => CPrim::RemoveHeaderNth {
                hid: self.header_ids.get(header).copied(),
                occurrence: *occurrence,
            },
            PrimitiveOp::RegisterRead {
                dst,
                register,
                index,
            } => {
                let reg = self.register_id(register)?;
                let index = self.lower_expr(index, a)?;
                match self.slot_of(dst) {
                    Ok(dst) => CPrim::RegisterRead { dst, reg, index },
                    Err(err) => CPrim::RegisterReadFail { reg, err },
                }
            }
            PrimitiveOp::RegisterWrite {
                register,
                index,
                value,
            } => CPrim::RegisterWrite {
                reg: self.register_id(register)?,
                index: self.lower_expr(index, a)?,
                value: self.lower_expr(value, a)?,
            },
            PrimitiveOp::Ipv4ChecksumUpdate { header } => {
                // The interpreter raises these before even checking whether
                // the instance is present, so they are lazy *op* errors,
                // not conditional on packet contents.
                let hid = header_id(header)?;
                let Some(&fid) = self.field_ids[hid as usize].get("hdr_checksum") else {
                    return Err(IrError::Invalid(format!(
                        "header {header} has no hdr_checksum field"
                    )));
                };
                let ch = &self.headers[hid as usize];
                let bits = ch.bits[fid as usize];
                if bits != 16 {
                    return Err(IrError::Invalid(format!(
                        "header {header}: hdr_checksum is {bits} bits, not 16"
                    )));
                }
                CPrim::ChecksumUpdate {
                    hid,
                    ck_off: ch.offs[fid as usize],
                }
            }
            PrimitiveOp::Digest { name, fields } => CPrim::Digest {
                name: name.as_str().into(),
                inputs: self.lower_exprs(fields, act)?,
            },
            PrimitiveOp::Drop => CPrim::Drop,
            PrimitiveOp::NoOp => CPrim::NoOp,
        })
    }

    /// Flattens statements into `self.ops`. `depth` counts inlined `Call`
    /// nesting exactly as the interpreter's `exec_stmts` recursion depth.
    fn flatten(&mut self, stmts: &'p [Stmt], depth: usize) {
        let prog = self.prog;
        for stmt in stmts {
            match stmt {
                Stmt::Apply(t) => self.ops.push(match self.table_id(t) {
                    Ok(tid) => COp::Apply { tid },
                    Err(e) => COp::Fail(e),
                }),
                Stmt::ApplySelect {
                    table,
                    arms,
                    default,
                } => {
                    let tid = match self.table_id(table) {
                        Ok(tid) => tid,
                        Err(e) => {
                            self.ops.push(COp::Fail(e));
                            continue;
                        }
                    };
                    let sel_pc = self.ops.len();
                    self.ops.push(COp::ApplySelect {
                        tid,
                        arms: Vec::new(),
                        default_pc: 0,
                    });
                    let mut lowered_arms = Vec::new();
                    let mut exit_jumps = Vec::new();
                    for (name, body) in arms {
                        // An arm naming an unknown action can never match
                        // the action that ran; its body is dead code.
                        let Some(&aid) = self.action_ids.get(name) else {
                            continue;
                        };
                        lowered_arms.push((aid, self.ops.len()));
                        self.flatten(body, depth);
                        exit_jumps.push(self.ops.len());
                        self.ops.push(COp::Jump { pc: 0 });
                    }
                    let default_pc = self.ops.len();
                    self.flatten(default, depth);
                    let join = self.ops.len();
                    for j in exit_jumps {
                        self.ops[j] = COp::Jump { pc: join };
                    }
                    self.ops[sel_pc] = COp::ApplySelect {
                        tid,
                        arms: lowered_arms,
                        default_pc,
                    };
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let cond = self.lower_bool(cond);
                    let branch_pc = self.ops.len();
                    self.ops.push(COp::Branch { cond, else_pc: 0 });
                    self.flatten(then_branch, depth);
                    let then_exit = self.ops.len();
                    self.ops.push(COp::Jump { pc: 0 });
                    let else_pc = self.ops.len();
                    self.flatten(else_branch, depth);
                    let join = self.ops.len();
                    if let COp::Branch { else_pc: slot, .. } = &mut self.ops[branch_pc] {
                        *slot = else_pc;
                    }
                    self.ops[then_exit] = COp::Jump { pc: join };
                }
                Stmt::Do(action) => match prog.actions.get(action) {
                    None => self.ops.push(COp::Fail(IrError::Undefined {
                        kind: "action",
                        name: action.clone(),
                    })),
                    Some(act) if !act.params.is_empty() => {
                        self.ops.push(COp::Fail(IrError::Invalid(format!(
                            "direct invocation of action {action} requires arguments"
                        ))));
                    }
                    Some(_) => self.ops.push(COp::RunAction {
                        aid: self.action_ids[action],
                    }),
                },
                Stmt::Call(c) => match prog.controls.get(c) {
                    None => self.ops.push(COp::Fail(IrError::Undefined {
                        kind: "control block",
                        name: c.clone(),
                    })),
                    Some(_) if depth + 1 > 64 => {
                        self.ops.push(COp::Fail(IrError::Invalid(
                            "control call depth exceeded".into(),
                        )));
                    }
                    Some(cb) => self.flatten(&cb.body, depth + 1),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::packet::ParsedPacket;
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::fref;
    use dejavu_p4ir::table::{KeyMatch, TableEntry};
    use dejavu_p4ir::{well_known, HeaderType};
    use std::collections::BTreeMap;

    fn l2_program() -> Program {
        ProgramBuilder::new("l2")
            .header(well_known::ethernet())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .accept("eth")
                    .start("eth"),
            )
            .action(
                ActionBuilder::new("fwd")
                    .param("port", 16)
                    .set(FieldRef::meta("egress_spec"), Expr::Param("port".into()))
                    .build(),
            )
            .action(ActionBuilder::new("flood").drop_packet().build())
            .table(
                TableBuilder::new("dmac")
                    .key_exact(fref("ethernet", "dst_mac"))
                    .action("fwd")
                    .default_action("flood")
                    .size(16)
                    .build(),
            )
            .control(ControlBuilder::new("ingress").apply("dmac").build())
            .entry("ingress")
            .build()
            .unwrap()
    }

    fn state_for(p: &Program) -> TableState {
        let mut st = TableState::new();
        for def in p.tables.values() {
            st.preregister(def);
        }
        st
    }

    #[test]
    fn compiled_pass_matches_table_semantics() {
        let p = l2_program();
        let cp = CompiledProgram::compile(&p).unwrap();
        let mut st = state_for(&p);
        let mut scratch = ExecScratch::new();
        let mut pkt = vec![0u8; 20];
        pkt[0..6].copy_from_slice(&[0, 0, 0, 0, 0, 0x2a]);

        // Miss → flood (drop).
        let pass = cp
            .run_pass_scratch(&pkt, 3, 0xffff, &mut st, true, &mut scratch)
            .unwrap();
        assert!(pass.drop);
        let events = scratch.events();
        assert_eq!(events.len(), 1);
        assert!(!events[0].hit);
        assert_eq!(
            (events[0].table.as_str(), events[0].action.as_str()),
            ("dmac", "flood")
        );

        // Install and hit.
        let def = p.tables.get("dmac").unwrap();
        st.install(
            def,
            TableEntry {
                matches: vec![KeyMatch::Exact(Value::new(0x2a, 48))],
                action: "fwd".into(),
                action_args: vec![Value::new(7, 16)],
                priority: 0,
            },
        )
        .unwrap();
        let pass = cp
            .run_pass_scratch(&pkt, 3, 0xffff, &mut st, true, &mut scratch)
            .unwrap();
        assert!(pass.parsed && !pass.drop);
        assert_eq!(pass.egress_spec, 7);
        assert!(scratch.events()[0].hit);
        assert_eq!(scratch.out(), pkt);
    }

    #[test]
    fn parse_error_leaves_output_empty() {
        let p = l2_program();
        let cp = CompiledProgram::compile(&p).unwrap();
        let mut st = state_for(&p);
        let mut scratch = ExecScratch::new();
        let pass = cp
            .run_pass_scratch(&[0u8; 5], 0, 0xffff, &mut st, true, &mut scratch)
            .unwrap();
        assert!(!pass.parsed);
        assert!(scratch.out().is_empty());
        assert!(scratch.events().is_empty());
    }

    #[test]
    fn trace_off_allocates_no_events() {
        let p = l2_program();
        let cp = CompiledProgram::compile(&p).unwrap();
        let mut st = state_for(&p);
        let mut scratch = ExecScratch::new();
        cp.run_pass_scratch(&[0u8; 14], 0, 0xffff, &mut st, false, &mut scratch)
            .unwrap();
        assert!(scratch.events().is_empty());
        // Counters still advance.
        assert_eq!(st.counters("dmac").misses, 1);
    }

    /// A two-byte header `h` (`live`, `x`) parsed at offset 0, a one-cell
    /// register `r`, the action `act` and the entry control `ingress` —
    /// *not* validated, so dangling references reach both engines.
    fn fault_program(act: ActionBuilder, ingress: ControlBuilder) -> Program {
        ProgramBuilder::new("faults")
            .header(HeaderType::new("h", vec![("live", 8u16), ("x", 8)]).unwrap())
            .register("r", 32, 1)
            .parser(
                ParserBuilder::new()
                    .node("n", "h", 0)
                    .accept("n")
                    .start("n"),
            )
            .action(act.build())
            .control(ingress.build())
            .entry("ingress")
            .build_unchecked()
    }

    /// Runs one pass of `bytes` on each engine from fresh table state and
    /// requires the same outcome; returns it with the compiled engine's
    /// state (equal to the interpreter's in every register and counter the
    /// callers check).
    fn same_on_both(p: &Program, bytes: &[u8]) -> (Result<(), IrError>, TableState) {
        let interp = Interpreter::new(p);
        let mut pp = ParsedPacket::parse(bytes, &p.parser, interp.headers()).unwrap();
        let mut ref_st = state_for(p);
        let want = interp
            .execute(&mut pp, &mut BTreeMap::new(), &mut ref_st)
            .map(drop);
        let cp = CompiledProgram::compile(p).unwrap();
        let mut st = state_for(p);
        let got = cp
            .run_pass_scratch(bytes, 0, 0, &mut st, false, &mut ExecScratch::new())
            .map(drop);
        assert_eq!(got, want, "compiled outcome");
        assert_eq!(st.register_peek("r", 0), ref_st.register_peek("r", 0));
        for t in p.tables.keys() {
            assert_eq!(st.counters(t), ref_st.counters(t), "{t} counters");
        }
        (got, st)
    }

    fn undefined_field(name: &str) -> IrError {
        IrError::Undefined {
            kind: "field",
            name: name.into(),
        }
    }

    #[test]
    fn a_faulting_comparison_is_reached_only_past_its_short_circuit() {
        let cond = BoolExpr::And(
            Box::new(BoolExpr::Cmp(
                Expr::field("h", "live"),
                CmpOp::Eq,
                Expr::val(1, 8),
            )),
            Box::new(BoolExpr::Cmp(
                Expr::field("h", "dangling"),
                CmpOp::Eq,
                Expr::val(0, 8),
            )),
        );
        let act = ActionBuilder::new("bump").reg_write("r", Expr::val(0, 1), Expr::val(9, 32));
        let p = fault_program(
            act,
            ControlBuilder::new("ingress")
                .invoke("bump")
                .stmt(Stmt::If {
                    cond,
                    then_branch: vec![Stmt::Do("bump".into())],
                    else_branch: vec![],
                }),
        );
        // `live == 1` is false: `&&` never reads the dangling field.
        let (r, st) = same_on_both(&p, &[0, 0]);
        assert_eq!(r, Ok(()));
        assert_eq!(st.register_peek("r", 0), Some(9));
        // True: the right side faults, after the op before the branch ran.
        let (r, st) = same_on_both(&p, &[1, 0]);
        assert_eq!(r, Err(undefined_field("h.dangling")));
        assert_eq!(st.register_peek("r", 0), Some(9));
    }

    #[test]
    fn an_op_faults_after_the_ops_before_it_took_effect() {
        let act = ActionBuilder::new("act")
            .reg_write("r", Expr::val(0, 1), Expr::val(7, 32))
            .set(fref("h", "x"), Expr::field("h", "nope"));
        let p = fault_program(act, ControlBuilder::new("ingress").invoke("act"));
        let (r, st) = same_on_both(&p, &[0, 0]);
        assert_eq!(r, Err(undefined_field("h.nope")));
        assert_eq!(
            st.register_peek("r", 0),
            Some(7),
            "the cell keeps its write"
        );
    }

    #[test]
    fn a_set_reports_its_value_before_its_destination() {
        let act = ActionBuilder::new("act").set(fref("h", "bad_dst"), Expr::field("h", "bad_src"));
        let p = fault_program(act, ControlBuilder::new("ingress").invoke("act"));
        assert_eq!(
            same_on_both(&p, &[0, 0]).0,
            Err(undefined_field("h.bad_src"))
        );
    }

    #[test]
    fn a_dangling_key_faults_before_the_lookup_counts() {
        let mut p = fault_program(
            ActionBuilder::new("act"),
            ControlBuilder::new("ingress").apply("t"),
        );
        let t = TableBuilder::new("t")
            .key_exact(fref("h", "x"))
            .key_exact(fref("h", "nope"))
            .action("act")
            .default_action("act")
            .build();
        p.tables.insert("t".into(), t);
        let (r, st) = same_on_both(&p, &[0, 0]);
        assert_eq!(r, Err(undefined_field("h.nope")));
        assert_eq!(st.counters("t").misses, 0, "no lookup ran");
    }

    #[test]
    fn a_register_read_into_a_dangling_field_still_reads() {
        // The interpreter reads the cell (creating the array) before it
        // resolves the destination.
        let act = ActionBuilder::new("act").reg_read(fref("h", "nope"), "r", Expr::val(0, 1));
        let p = fault_program(act, ControlBuilder::new("ingress").invoke("act"));
        let (r, st) = same_on_both(&p, &[0, 0]);
        assert_eq!(r, Err(undefined_field("h.nope")));
        assert_eq!(st.register_peek("r", 0), Some(0));
    }

    #[test]
    fn a_checksum_field_that_is_not_16_bits_faults_on_both_engines() {
        let act = ActionBuilder::new("act").update_checksum("ck");
        let mut p = fault_program(act, ControlBuilder::new("ingress").invoke("act"));
        let ck = HeaderType::new("ck", vec![("a", 8u16), ("hdr_checksum", 8)]).unwrap();
        p.header_types.insert("ck".into(), ck);
        // The header is absent: the width is an op fault, not a packet one.
        let (r, _) = same_on_both(&p, &[0, 0]);
        assert_eq!(
            r,
            Err(IrError::Invalid(
                "header ck: hdr_checksum is 8 bits, not 16".into()
            ))
        );
    }
}
