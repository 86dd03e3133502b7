//! The compiled fast path: pre-lowered programs executed over dense state.
//!
//! The reference [`crate::interp::Interpreter`] resolves header, field,
//! action, table, and register *names* through string-keyed maps on every
//! packet. That is the right shape for an oracle, and exactly the wrong
//! shape for a hot loop. [`CompiledProgram::compile`] lowers a validated
//! [`Program`] once, at load time:
//!
//! * header types, actions, tables, and registers are interned to dense
//!   indices; field references become `(header id, field id, width, bit
//!   offset)` or `(metadata slot, width)` tuples,
//! * the parser DAG is pre-resolved so the walk does no catalog lookups,
//!   and it only *locates* headers: a pass runs over the wire bytes — a
//!   field is decoded from the input buffer when an op reads it, a write
//!   goes to a per-instance overlay, and deparse copies each header's
//!   bytes and patches only the written fields over them,
//! * control-block statements (including `Call`s, inlined) are flattened
//!   into a branch-resolved op array executed with a program counter —
//!   all jumps are forward, so execution always terminates,
//! * table applies address [`TableState`] slots by dense id and hit the
//!   per-table indexes built at install time.
//!
//! Semantics are bit-for-bit those of the reference interpreter, including
//! its *lazy* error behavior: a dangling table/action/register name or a
//! mis-invoked action compiles to a `CPrim::Fail`-style op that raises the
//! same `IrError` only if control flow actually reaches it. The property
//! suite in `tests/` runs both engines on arbitrary programs × packets and
//! requires identical packets, verdicts, counters, and register state.
//!
//! Call inlining note: acyclic control-call DAGs can in principle expand
//! exponentially (A calls B twice, B calls C twice, …). The interpreter's
//! own call-depth ceiling of 64 bounds the expansion; real programs in this
//! workspace are nowhere near it.

use crate::interp::{ones_complement_checksum, TableEvent};
use crate::tables::TableState;
use dejavu_p4ir::action::{run_hash, ActionDef, Expr, HashAlgorithm, PrimitiveOp};
use dejavu_p4ir::control::{BoolExpr, CmpOp, Stmt};
use dejavu_p4ir::parser::{Target, Transition};
use dejavu_p4ir::program::STANDARD_METADATA;
use dejavu_p4ir::table::RegisterDef;
use dejavu_p4ir::{deposit_bits, extract_bits, FieldRef, IrError, Program, Value};
use std::collections::{HashMap, HashSet};

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
        fid: u16,
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

/// A write destination that may be statically known to be dangling — the
/// error is raised only when the op executes (lazy, like the interpreter).
type CDst = Result<CSlot, IrError>;

/// Lowered expression. `Param` is an index into the running action's
/// argument bindings.
#[derive(Debug, Clone)]
enum CExpr {
    Const(Value),
    Read(CSlot),
    Param(usize),
    /// A reference the interpreter would fault on at evaluation time.
    Fail(IrError),
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
}

/// Lowered primitive op.
#[derive(Debug, Clone)]
enum CPrim {
    Set {
        dst: CDst,
        value: CExpr,
    },
    Hash {
        dst: CDst,
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
        dst: CDst,
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
        ck_fid: u16,
    },
    Digest {
        /// Digest stream name (not interned: emission rate is learn-path,
        /// not packet-path, and the record carries the name anyway).
        name: String,
        inputs: Vec<CExpr>,
    },
    Drop,
    NoOp,
    /// Raises the interpreter's lazy error for this op.
    Fail(IrError),
}

/// A lowered action.
#[derive(Debug, Clone)]
struct CAction {
    name: String,
    /// Declared parameter widths (arguments are resized to these).
    params: Vec<u16>,
    ops: Vec<CPrim>,
}

/// A lowered table reference.
#[derive(Debug, Clone)]
struct CTable {
    name: String,
    /// Dense [`TableState`] slot id. Valid only against a state whose
    /// tables were preregistered from the same program in
    /// `Program::tables` iteration order (the switch does this at load).
    sid: usize,
    keys: Vec<CDst>,
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

/// The parsed view of a packet on the fast path: a byte-backed view over
/// the pass's input buffer. Parsing records *where* each header instance
/// sits; a field is decoded from those bytes only when an op reads it, and
/// a write lands in a per-instance overlay that shadows the wire value for
/// the rest of the pass. The payload is a *range* into the input buffer.
/// [`FastPacket::clear`] resets the view while keeping every allocation, so
/// a warmed-up packet pass performs zero heap allocations.
#[derive(Debug, Clone, Default)]
struct FastPacket {
    /// Header instances in wire order.
    insts: Vec<Inst>,
    /// Written-field overlay: one slot per field of every instance written
    /// this pass, contiguous from the instance's `overlay` base; `Some` is
    /// the written flag. Removing an instance leaves a hole until the next
    /// `clear` — instances are few and passes are short.
    written: Vec<Option<Value>>,
    /// Payload byte range within the input buffer of the current pass.
    payload: std::ops::Range<usize>,
}

/// One header instance in the view: where its bytes sit in the pass's
/// input buffer (`None` for a header added this pass — it has no source
/// bytes and reads as zero) and where its written fields live in the
/// overlay (`None` until the first write: the instance is clean and
/// deparses as a verbatim byte copy).
#[derive(Debug, Clone, Copy)]
struct Inst {
    hid: u16,
    src_off: Option<u32>,
    overlay: Option<u32>,
}

impl FastPacket {
    /// Resets the view for a new pass, retaining capacity.
    fn clear(&mut self) {
        self.insts.clear();
        self.written.clear();
        self.payload = 0..0;
    }

    fn find(&self, hid: u16) -> Option<usize> {
        self.insts.iter().position(|i| i.hid == hid)
    }

    /// Overlay base of instance `i`, allocating its `nfields` unwritten
    /// slots on first use.
    fn overlay_of(&mut self, i: usize, nfields: usize) -> usize {
        match self.insts[i].overlay {
            Some(base) => base as usize,
            None => {
                let base = self.written.len();
                self.written.resize(base + nfields, None);
                self.insts[i].overlay = Some(base as u32);
                base
            }
        }
    }

    /// Mirrors `ParsedPacket::set`: `v` arrives at the declared width, a
    /// rewrite resizes to the *stored* value's width, and writes to absent
    /// headers are silently dropped.
    fn set(&mut self, hid: u16, fid: u16, v: Value, nfields: usize) {
        if let Some(i) = self.find(hid) {
            let base = self.overlay_of(i, nfields);
            let slot = &mut self.written[base + fid as usize];
            *slot = Some(v.resize(slot.map_or(v.bits(), Value::bits)));
        }
    }
}

/// The signals of one zero-copy pipelet pass. Deparsed bytes land in the
/// caller's scratch output buffer ([`ExecScratch::out`]); `parsed == false` means
/// the parser rejected the packet (record a parse error and drop).
#[derive(Debug, Clone, Copy)]
pub struct BufPass {
    /// False when the parser rejected the packet (the scratch output buffer
    /// is left empty).
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

/// Reusable per-pass execution state: the flat packet view, the metadata
/// vector, every key/argument/value staging buffer the hot loop needs, and
/// the deparse output buffer. One `ExecScratch` is owned per execution
/// context (switch, RTC worker) and recycled across packets — after warmup
/// no pass allocates.
#[derive(Debug, Clone, Default)]
pub struct ExecScratch {
    pkt: FastPacket,
    meta: Vec<Value>,
    keys: Vec<Value>,
    args: Vec<Value>,
    vals: Vec<Value>,
    events: Vec<TableEvent>,
    out: Vec<u8>,
    hdr_bytes: Vec<u8>,
}

impl ExecScratch {
    /// Fresh scratch (all buffers empty; they grow to steady-state capacity
    /// over the first few packets).
    pub fn new() -> Self {
        ExecScratch::default()
    }

    /// The deparsed bytes of the last [`CompiledProgram::run_pass_scratch`].
    pub fn out(&self) -> &[u8] {
        &self.out
    }

    /// Mutable access to the deparse output buffer (the switch ping-pongs
    /// it with the packet buffer between recirculation passes).
    pub fn out_mut(&mut self) -> &mut Vec<u8> {
        &mut self.out
    }

    /// The table events of the last traced pass.
    pub fn events(&self) -> &[TableEvent] {
        &self.events
    }

    /// Drains the table events of the last traced pass, keeping the
    /// buffer's capacity for the next one.
    pub fn drain_events(&mut self) -> impl Iterator<Item = TableEvent> + '_ {
        self.events.drain(..)
    }
}

/// A program lowered for the fast path. Built once per pipelet at
/// `Switch::load_program` time; executed per packet with no name lookups.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Zeroed metadata vector at the declared widths, memcpy'd into the
    /// scratch at the top of every pass instead of rebuilt value by value.
    meta_zero: Vec<Value>,
    headers: Vec<CHeader>,
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
    /// applies count hits and misses in `tables`. The deparsed bytes land in
    /// [`ExecScratch::out`], table events (only with `collect_events`) in
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
        scratch.out.clear();
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
                    self.apply(*tid, input, scratch, tables, collect_events)?;
                    tables_applied += 1;
                    pc += 1;
                }
                COp::ApplySelect {
                    tid,
                    arms,
                    default_pc,
                } => {
                    let ran = self.apply(*tid, input, scratch, tables, collect_events)?;
                    tables_applied += 1;
                    pc = arms
                        .iter()
                        .find(|(aid, _)| *aid == ran)
                        .map(|(_, p)| *p)
                        .unwrap_or(*default_pc);
                }
                COp::Branch { cond, else_pc } => {
                    pc = if self.eval_bool(cond, &scratch.pkt, input, &scratch.meta)? {
                        pc + 1
                    } else {
                        *else_pc
                    };
                }
                COp::Jump { pc: target } => pc = *target,
                COp::RunAction { aid } => {
                    let mut args = std::mem::take(&mut scratch.args);
                    args.clear();
                    let r = self.run_action(*aid, &mut args, input, scratch, tables);
                    scratch.args = args;
                    r?;
                    pc += 1;
                }
                COp::Fail(e) => return Err(e.clone()),
            }
        }

        self.deparse_into(&scratch.pkt, input, &mut scratch.out);
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

    /// Walks the pre-resolved parser over `bytes`, recording where each
    /// accepted header sits — only select fields are decoded. `false` on
    /// any parse error (reject, truncation, dangling node — all drop the
    /// packet).
    fn parse_into(&self, bytes: &[u8], pkt: &mut FastPacket) -> bool {
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
                    if bytes.len() < node.end {
                        return false;
                    }
                    pkt.insts.push(Inst {
                        hid: node.hid,
                        src_off: Some(node.offset as u32),
                        overlay: None,
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
                            let v = extract_bits(bytes, *bit_off, *bits);
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
        pkt.payload = consumed..bytes.len();
        true
    }

    /// Appends one header instance's serialization to `out`: its wire bytes
    /// verbatim (zeros for an added header), then the written fields
    /// deposited over them. The fields tile the header's bytes and an
    /// unwritten field's value *is* its wire bits, so this equals
    /// re-serializing every field.
    fn serialize_inst(&self, inst: &Inst, pkt: &FastPacket, input: &[u8], out: &mut Vec<u8>) {
        let ch = &self.headers[inst.hid as usize];
        let start = out.len();
        match inst.src_off {
            Some(src) => out.extend_from_slice(&input[src as usize..src as usize + ch.total_bytes]),
            None => out.resize(start + ch.total_bytes, 0),
        }
        let Some(base) = inst.overlay else {
            return;
        };
        let written = &pkt.written[base as usize..base as usize + ch.bits.len()];
        for (fid, v) in written.iter().enumerate() {
            if let Some(v) = v {
                deposit_bits(
                    &mut out[start..],
                    u64::from(ch.offs[fid]),
                    v.resize(ch.bits[fid]),
                );
            }
        }
    }

    /// Deparses the view into `out`: every instance in wire order, then the
    /// payload straight from the input buffer's range.
    fn deparse_into(&self, pkt: &FastPacket, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        for inst in &pkt.insts {
            self.serialize_inst(inst, pkt, input, out);
        }
        out.extend_from_slice(&input[pkt.payload.clone()]);
    }

    /// Applies a table, returning the id of the action that ran. The key
    /// tuple and argument bindings are staged in the scratch buffers; the
    /// hit path maps the entry's install-time action ordinal through the
    /// prelowered per-table action-id table — no clones, no name hashing.
    fn apply(
        &self,
        tid: usize,
        input: &[u8],
        scratch: &mut ExecScratch,
        tables: &mut TableState,
        collect: bool,
    ) -> Result<usize, IrError> {
        let t = &self.tables[tid];
        let mut keys = std::mem::take(&mut scratch.keys);
        let mut args = std::mem::take(&mut scratch.args);
        let res = self.apply_inner(t, &mut keys, &mut args, input, scratch, tables);
        scratch.keys = keys;
        scratch.args = args;
        let (aid, hit) = res?;
        if collect {
            scratch.events.push(TableEvent {
                table: t.name.clone(),
                hit,
                action: self.actions[aid].name.clone(),
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
        input: &[u8],
        scratch: &mut ExecScratch,
        tables: &mut TableState,
    ) -> Result<(usize, bool), IrError> {
        keys.clear();
        for k in &t.keys {
            let slot = k.as_ref().map_err(Clone::clone)?;
            keys.push(self.read(*slot, &scratch.pkt, input, &scratch.meta));
        }
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
        self.run_action(aid, args, input, scratch, tables)?;
        Ok((aid, hit))
    }

    /// Runs an action with `args` already staged in a caller-owned buffer
    /// (bound in place to the declared parameter widths — `Value` is
    /// `Copy`, so binding is just an in-place resize).
    fn run_action(
        &self,
        aid: usize,
        args: &mut [Value],
        input: &[u8],
        scratch: &mut ExecScratch,
        tables: &mut TableState,
    ) -> Result<(), IrError> {
        let act = &self.actions[aid];
        if args.len() != act.params.len() {
            return Err(IrError::Invalid(format!(
                "action {}: expected {} args, got {}",
                act.name,
                act.params.len(),
                args.len()
            )));
        }
        for (v, &bits) in args.iter_mut().zip(&act.params) {
            *v = v.resize(bits);
        }
        let ExecScratch {
            pkt,
            meta,
            vals,
            hdr_bytes,
            ..
        } = scratch;
        for op in &act.ops {
            match op {
                CPrim::Set { dst, value } => {
                    let v = self.eval(value, pkt, input, meta, args)?;
                    let slot = dst.as_ref().map_err(Clone::clone)?;
                    self.write(*slot, v, pkt, meta);
                }
                CPrim::Hash { dst, algo, inputs } => {
                    vals.clear();
                    for e in inputs {
                        let v = self.eval(e, pkt, input, meta, args)?;
                        vals.push(v);
                    }
                    let raw = run_hash(*algo, vals);
                    let slot = dst.as_ref().map_err(Clone::clone)?;
                    self.write(*slot, Value::new(raw, slot.bits()), pkt, meta);
                }
                CPrim::AddHeader { hid, before } => {
                    let pos = before.and_then(|b| pkt.find(b)).unwrap_or(pkt.insts.len());
                    pkt.insts.insert(
                        pos,
                        Inst {
                            hid: *hid,
                            src_off: None,
                            overlay: None,
                        },
                    );
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
                            // The overlay hole is reclaimed by the next
                            // `clear`; only the instance entry goes.
                            pkt.insts.remove(idx);
                        }
                    }
                }
                CPrim::RegisterRead { dst, reg, index } => {
                    let def = &self.registers[*reg];
                    let idx = self.eval(index, pkt, input, meta, args)?.raw() as u32;
                    let val = tables.register_read(def, idx);
                    let slot = dst.as_ref().map_err(Clone::clone)?;
                    self.write(*slot, Value::new(val, def.width_bits), pkt, meta);
                }
                CPrim::RegisterWrite { reg, index, value } => {
                    let def = &self.registers[*reg];
                    let idx = self.eval(index, pkt, input, meta, args)?.raw() as u32;
                    let val = self.eval(value, pkt, input, meta, args)?.raw();
                    tables.register_write(def, idx, val);
                }
                CPrim::ChecksumUpdate { hid, ck_fid } => {
                    if let Some(i) = pkt.find(*hid) {
                        let n = self.headers[*hid as usize].bits.len();
                        let ck = pkt.overlay_of(i, n) + *ck_fid as usize;
                        pkt.written[ck] = Some(Value::new(0, 16));
                        hdr_bytes.clear();
                        self.serialize_inst(&pkt.insts[i], pkt, input, hdr_bytes);
                        let sum = ones_complement_checksum(hdr_bytes);
                        pkt.written[ck] = Some(Value::new(u128::from(sum), 16));
                    }
                }
                CPrim::Digest { name, inputs } => {
                    vals.clear();
                    for e in inputs {
                        let v = self.eval(e, pkt, input, meta, args)?;
                        vals.push(v);
                    }
                    // The one allocating op on the hot loop — digests are
                    // learn-path events, not steady-state packet work.
                    tables.emit_digest(name, vals.clone());
                }
                CPrim::Drop => {
                    meta[M_DROP] = Value::new(1, 1);
                }
                CPrim::NoOp => {}
                CPrim::Fail(e) => return Err(e.clone()),
            }
        }
        Ok(())
    }

    /// Reads a slot: metadata resized to the declared width; a header field
    /// as written this pass, else decoded from the instance's wire bytes at
    /// the declared width (zero when the header is absent or was added this
    /// pass) — the interpreter's exact read semantics.
    fn read(&self, s: CSlot, pkt: &FastPacket, input: &[u8], meta: &[Value]) -> Value {
        match s {
            CSlot::Meta { slot, bits } => meta[slot as usize].resize(bits),
            CSlot::Hdr {
                hid,
                fid,
                bits,
                off,
            } => {
                let Some(inst) = pkt.insts.iter().find(|i| i.hid == hid) else {
                    return Value::new(0, bits);
                };
                let written = inst
                    .overlay
                    .and_then(|base| pkt.written[base as usize + fid as usize]);
                match (written, inst.src_off) {
                    (Some(v), _) => v,
                    (None, Some(src)) => {
                        extract_bits(input, u64::from(src) * 8 + u64::from(off), bits)
                    }
                    (None, None) => Value::new(0, bits),
                }
            }
        }
    }

    /// Writes a slot after resizing to the declared width (header stores
    /// then resize to the stored width, mirroring `ParsedPacket::set`).
    fn write(&self, s: CSlot, v: Value, pkt: &mut FastPacket, meta: &mut [Value]) {
        match s {
            CSlot::Meta { slot, bits } => meta[slot as usize] = v.resize(bits),
            CSlot::Hdr { hid, fid, bits, .. } => {
                let nfields = self.headers[hid as usize].bits.len();
                pkt.set(hid, fid, v.resize(bits), nfields);
            }
        }
    }

    fn eval(
        &self,
        e: &CExpr,
        pkt: &FastPacket,
        input: &[u8],
        meta: &[Value],
        bound: &[Value],
    ) -> Result<Value, IrError> {
        Ok(match e {
            CExpr::Const(v) => *v,
            CExpr::Read(s) => self.read(*s, pkt, input, meta),
            CExpr::Param(i) => bound[*i],
            CExpr::Fail(err) => return Err(err.clone()),
            CExpr::Add(a, b) => {
                let (a, b) = (
                    self.eval(a, pkt, input, meta, bound)?,
                    self.eval(b, pkt, input, meta, bound)?,
                );
                a.wrapping_add(b)
            }
            CExpr::Sub(a, b) => {
                let (a, b) = (
                    self.eval(a, pkt, input, meta, bound)?,
                    self.eval(b, pkt, input, meta, bound)?,
                );
                a.wrapping_sub(b)
            }
            CExpr::And(a, b) => {
                let (a, b) = (
                    self.eval(a, pkt, input, meta, bound)?,
                    self.eval(b, pkt, input, meta, bound)?,
                );
                a.and(b)
            }
            CExpr::Or(a, b) => {
                let (a, b) = (
                    self.eval(a, pkt, input, meta, bound)?,
                    self.eval(b, pkt, input, meta, bound)?,
                );
                a.or(b)
            }
            CExpr::Xor(a, b) => {
                let (a, b) = (
                    self.eval(a, pkt, input, meta, bound)?,
                    self.eval(b, pkt, input, meta, bound)?,
                );
                a.xor(b)
            }
            CExpr::Shl(a, amount) => self.eval(a, pkt, input, meta, bound)?.shl(*amount),
            CExpr::Shr(a, amount) => self.eval(a, pkt, input, meta, bound)?.shr(*amount),
        })
    }

    fn eval_bool(
        &self,
        c: &CBool,
        pkt: &FastPacket,
        input: &[u8],
        meta: &[Value],
    ) -> Result<bool, IrError> {
        Ok(match c {
            CBool::Cmp(a, op, b) => {
                let (a, b) = (
                    self.eval(a, pkt, input, meta, &[])?,
                    self.eval(b, pkt, input, meta, &[])?,
                );
                match op {
                    CmpOp::Eq => a.raw() == b.raw(),
                    CmpOp::Ne => a.raw() != b.raw(),
                    CmpOp::Lt => a.raw() < b.raw(),
                    CmpOp::Le => a.raw() <= b.raw(),
                    CmpOp::Gt => a.raw() > b.raw(),
                    CmpOp::Ge => a.raw() >= b.raw(),
                }
            }
            CBool::And(a, b) => {
                self.eval_bool(a, pkt, input, meta)? && self.eval_bool(b, pkt, input, meta)?
            }
            CBool::Or(a, b) => {
                self.eval_bool(a, pkt, input, meta)? || self.eval_bool(b, pkt, input, meta)?
            }
            CBool::Not(a) => !self.eval_bool(a, pkt, input, meta)?,
            CBool::Valid(hid) => hid.is_some_and(|h| pkt.find(h).is_some()),
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
    table_ids: HashMap<String, usize>,
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
        let table_ids: HashMap<String, usize> = prog
            .tables
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
            table_ids,
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
        // preregistration order.
        for (i, def) in self.prog.tables.values().enumerate() {
            let default_aid = self
                .action_ids
                .get(&def.default_action)
                .copied()
                .ok_or_else(|| IrError::Undefined {
                    kind: "action",
                    name: def.default_action.clone(),
                });
            let entry_aids = def
                .actions
                .iter()
                .map(|name| {
                    self.action_ids
                        .get(name)
                        .copied()
                        .ok_or_else(|| IrError::Undefined {
                            kind: "action",
                            name: name.clone(),
                        })
                })
                .collect();
            let table = CTable {
                name: def.name.clone(),
                sid: i,
                keys: def.keys.iter().map(|k| self.slot_of(&k.field)).collect(),
                entry_aids,
                default_aid,
                default_args: def.default_action_args.clone(),
            };
            self.tables.push(table);
        }

        // Flatten the entry control (Calls inlined).
        match self.prog.entry_control() {
            Some(entry) => {
                let body = entry.body.clone();
                self.flatten(&body, 0);
            }
            None => self.ops.push(COp::Fail(IrError::Undefined {
                kind: "entry control",
                name: self.prog.entry.clone(),
            })),
        }

        let parser = self.lower_parser();
        Ok(CompiledProgram {
            meta_zero: self.meta_widths.iter().map(|&b| Value::new(0, b)).collect(),
            headers: self.headers,
            actions: self.actions,
            tables: self.tables,
            registers: self.registers,
            parser,
            ops: self.ops,
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
    fn slot_of(&self, fr: &FieldRef) -> CDst {
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
            fid,
            bits: ch.bits[fid as usize],
            off: ch.offs[fid as usize],
        })
    }

    fn lower_expr(&self, e: &Expr, act: Option<&ActionDef>) -> CExpr {
        let bin = |a: &Expr, b: &Expr| {
            (
                Box::new(self.lower_expr(a, act)),
                Box::new(self.lower_expr(b, act)),
            )
        };
        match e {
            Expr::Const(v) => CExpr::Const(*v),
            Expr::Field(fr) => match self.slot_of(fr) {
                Ok(s) => CExpr::Read(s),
                Err(e) => CExpr::Fail(e),
            },
            Expr::Param(p) => match act.and_then(|a| a.params.iter().position(|(n, _)| n == p)) {
                Some(i) => CExpr::Param(i),
                None => CExpr::Fail(IrError::Undefined {
                    kind: "action parameter",
                    name: p.clone(),
                }),
            },
            Expr::Add(a, b) => {
                let (a, b) = bin(a, b);
                CExpr::Add(a, b)
            }
            Expr::Sub(a, b) => {
                let (a, b) = bin(a, b);
                CExpr::Sub(a, b)
            }
            Expr::And(a, b) => {
                let (a, b) = bin(a, b);
                CExpr::And(a, b)
            }
            Expr::Or(a, b) => {
                let (a, b) = bin(a, b);
                CExpr::Or(a, b)
            }
            Expr::Xor(a, b) => {
                let (a, b) = bin(a, b);
                CExpr::Xor(a, b)
            }
            Expr::Shl(a, n) => CExpr::Shl(Box::new(self.lower_expr(a, act)), *n),
            Expr::Shr(a, n) => CExpr::Shr(Box::new(self.lower_expr(a, act)), *n),
        }
    }

    fn lower_bool(&self, c: &BoolExpr) -> CBool {
        match c {
            BoolExpr::Cmp(a, op, b) => {
                CBool::Cmp(self.lower_expr(a, None), *op, self.lower_expr(b, None))
            }
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
        let ops = act.ops.iter().map(|op| self.lower_prim(op, act)).collect();
        CAction {
            name: act.name.clone(),
            params: act.params.iter().map(|(_, bits)| *bits).collect(),
            ops,
        }
    }

    fn lower_prim(&self, op: &PrimitiveOp, act: &ActionDef) -> CPrim {
        let a = Some(act);
        match op {
            PrimitiveOp::Set { dst, value } => CPrim::Set {
                dst: self.slot_of(dst),
                value: self.lower_expr(value, a),
            },
            PrimitiveOp::Hash { dst, algo, inputs } => CPrim::Hash {
                dst: self.slot_of(dst),
                algo: *algo,
                inputs: inputs.iter().map(|e| self.lower_expr(e, a)).collect(),
            },
            PrimitiveOp::AddHeader { header, before } => match self.header_ids.get(header) {
                Some(&hid) => CPrim::AddHeader {
                    hid,
                    before: before
                        .as_ref()
                        .and_then(|b| self.header_ids.get(b))
                        .copied(),
                },
                None => CPrim::Fail(IrError::Undefined {
                    kind: "header type",
                    name: header.clone(),
                }),
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
            } => match self.register_ids.get(register) {
                Some(&reg) => CPrim::RegisterRead {
                    dst: self.slot_of(dst),
                    reg,
                    index: self.lower_expr(index, a),
                },
                None => CPrim::Fail(IrError::Undefined {
                    kind: "register",
                    name: register.clone(),
                }),
            },
            PrimitiveOp::RegisterWrite {
                register,
                index,
                value,
            } => match self.register_ids.get(register) {
                Some(&reg) => CPrim::RegisterWrite {
                    reg,
                    index: self.lower_expr(index, a),
                    value: self.lower_expr(value, a),
                },
                None => CPrim::Fail(IrError::Undefined {
                    kind: "register",
                    name: register.clone(),
                }),
            },
            PrimitiveOp::Ipv4ChecksumUpdate { header } => {
                let Some(&hid) = self.header_ids.get(header) else {
                    return CPrim::Fail(IrError::Undefined {
                        kind: "header type",
                        name: header.clone(),
                    });
                };
                // The interpreter raises this before even checking whether
                // the instance is present, so it is a lazy *op* error, not
                // conditional on packet contents.
                match self.field_ids[hid as usize].get("hdr_checksum") {
                    Some(&ck_fid) => CPrim::ChecksumUpdate { hid, ck_fid },
                    None => CPrim::Fail(IrError::Invalid(format!(
                        "header {header} has no hdr_checksum field"
                    ))),
                }
            }
            PrimitiveOp::Digest { name, fields } => CPrim::Digest {
                name: name.clone(),
                inputs: fields.iter().map(|e| self.lower_expr(e, a)).collect(),
            },
            PrimitiveOp::Drop => CPrim::Drop,
            PrimitiveOp::NoOp => CPrim::NoOp,
        }
    }

    /// Flattens statements into `self.ops`. `depth` counts inlined `Call`
    /// nesting exactly as the interpreter's `exec_stmts` recursion depth.
    fn flatten(&mut self, stmts: &[Stmt], depth: usize) {
        for stmt in stmts {
            match stmt {
                Stmt::Apply(t) => match self.table_ids.get(t) {
                    Some(&tid) => self.ops.push(COp::Apply { tid }),
                    None => self.ops.push(COp::Fail(IrError::Undefined {
                        kind: "table",
                        name: t.clone(),
                    })),
                },
                Stmt::ApplySelect {
                    table,
                    arms,
                    default,
                } => {
                    let Some(&tid) = self.table_ids.get(table) else {
                        self.ops.push(COp::Fail(IrError::Undefined {
                            kind: "table",
                            name: table.clone(),
                        }));
                        continue;
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
                Stmt::Do(action) => match self.prog.actions.get(action) {
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
                Stmt::Call(c) => match self.prog.controls.get(c) {
                    None => self.ops.push(COp::Fail(IrError::Undefined {
                        kind: "control block",
                        name: c.clone(),
                    })),
                    Some(_) if depth + 1 > 64 => {
                        self.ops.push(COp::Fail(IrError::Invalid(
                            "control call depth exceeded".into(),
                        )));
                    }
                    Some(cb) => {
                        let body = cb.body.clone();
                        self.flatten(&body, depth + 1);
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::fref;
    use dejavu_p4ir::table::{KeyMatch, TableEntry};
    use dejavu_p4ir::well_known;

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
        assert_eq!(scratch.events().len(), 1);
        assert!(!scratch.events()[0].hit);
        assert_eq!(scratch.events()[0].action, "flood");

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
}
