//! The match-action interpreter.
//!
//! Executes one pipelet's control logic — a `dejavu_p4ir::Program` entry
//! control — over a parsed packet and its metadata, against runtime table
//! state. This is the simulator's equivalent of the MAU array in Fig. 1 of
//! the paper: the parser has already produced the header view, the control
//! applies tables and actions, the deparser (in [`crate::packet`]) later
//! reserializes the result.
//!
//! The interpreter is deliberately faithful to hardware semantics where they
//! matter to Dejavu:
//!
//! * reads of invalid (absent) headers return zero,
//! * writes to invalid headers are dropped,
//! * table misses run the default action with its constant arguments,
//! * `switch (t.apply().action_run)` dispatches on the action that ran.

use crate::packet::ParsedPacket;
use crate::tables::TableState;
use dejavu_p4ir::action::{run_hash, ActionDef, Expr, PrimitiveOp};
use dejavu_p4ir::control::{BoolExpr, CmpOp, Stmt};
use dejavu_p4ir::{FieldRef, HeaderType, IrError, Program, Value};
use std::collections::{BTreeMap, HashMap};

/// One table application, as ids: both engines record it, and
/// [`Traversal::render`](crate::Traversal::render) spells it out by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableEvent {
    /// The table's ordinal in `Program::tables`: its [`TableState`] slot.
    pub table: u32,
    /// The ordinal in `Program::actions` of the action that ran.
    pub action: u32,
    /// Whether an installed entry matched (false = default action ran).
    pub hit: bool,
}

/// A program's table and action names, indexed by [`TableEvent`] ids.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct TraceNames {
    pub(crate) tables: Vec<String>,
    pub(crate) actions: Vec<String>,
}

impl TraceNames {
    pub(crate) fn of(program: &Program) -> Self {
        TraceNames {
            tables: program.tables.values().map(|t| t.name.clone()).collect(),
            actions: program.actions.values().map(|a| a.name.clone()).collect(),
        }
    }

    /// The table and action names of `event`.
    pub(crate) fn of_event(&self, e: TableEvent) -> (&str, &str) {
        (
            &self.tables[e.table as usize],
            &self.actions[e.action as usize],
        )
    }
}

/// `name`'s ordinal in a name-keyed catalog: the id the compiled engine
/// interns it to.
fn ordinal<V>(catalog: &BTreeMap<String, V>, name: &str) -> u32 {
    catalog.keys().take_while(|k| k.as_str() < name).count() as u32
}

/// Executes a program's entry control over parsed packets.
pub struct Interpreter<'a> {
    program: &'a Program,
    headers: HashMap<String, HeaderType>,
}

/// Runtime argument bindings of the currently executing action.
type Bindings = BTreeMap<String, Value>;

impl<'a> Interpreter<'a> {
    /// Creates an interpreter for a program. The program should already be
    /// validated; execution errors on dangling references regardless.
    pub fn new(program: &'a Program) -> Self {
        Interpreter {
            program,
            headers: program.header_map(),
        }
    }

    /// The header catalog in `HashMap` form (shared with parse/deparse).
    pub fn headers(&self) -> &HashMap<String, HeaderType> {
        &self.headers
    }

    /// Runs the entry control over `pp`/`meta` against `tables`, returning
    /// the tables it applied, in order.
    pub fn execute(
        &self,
        pp: &mut ParsedPacket,
        meta: &mut BTreeMap<String, Value>,
        tables: &mut TableState,
    ) -> Result<Vec<TableEvent>, IrError> {
        let entry = self
            .program
            .entry_control()
            .ok_or_else(|| IrError::Undefined {
                kind: "entry control",
                name: self.program.entry.clone(),
            })?;
        let mut events = Vec::new();
        self.exec_stmts(&entry.body, pp, meta, tables, &mut events, 0)?;
        Ok(events)
    }

    fn exec_stmts(
        &self,
        stmts: &[Stmt],
        pp: &mut ParsedPacket,
        meta: &mut BTreeMap<String, Value>,
        tables: &mut TableState,
        events: &mut Vec<TableEvent>,
        depth: usize,
    ) -> Result<(), IrError> {
        if depth > 64 {
            return Err(IrError::Invalid("control call depth exceeded".into()));
        }
        for stmt in stmts {
            match stmt {
                Stmt::Apply(t) => {
                    self.apply_table(t, pp, meta, tables, events)?;
                }
                Stmt::ApplySelect {
                    table,
                    arms,
                    default,
                } => {
                    let ran = self.apply_table(table, pp, meta, tables, events)?;
                    let branch = arms
                        .iter()
                        .find(|(a, _)| *a == ran)
                        .map(|(_, b)| b.as_slice())
                        .unwrap_or(default.as_slice());
                    self.exec_stmts(branch, pp, meta, tables, events, depth)?;
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let taken = if self.eval_bool(cond, pp, meta, &Bindings::new())? {
                        then_branch
                    } else {
                        else_branch
                    };
                    self.exec_stmts(taken, pp, meta, tables, events, depth)?;
                }
                Stmt::Do(action) => {
                    let act = self.action(action)?;
                    if !act.params.is_empty() {
                        return Err(IrError::Invalid(format!(
                            "direct invocation of action {action} requires arguments"
                        )));
                    }
                    self.run_action(act, &[], pp, meta, tables)?;
                }
                Stmt::Call(c) => {
                    let cb = self.program.controls.get(c).ok_or(IrError::Undefined {
                        kind: "control block",
                        name: c.clone(),
                    })?;
                    self.exec_stmts(&cb.body, pp, meta, tables, events, depth + 1)?;
                }
            }
        }
        Ok(())
    }

    /// Applies a table; returns the name of the action that ran.
    fn apply_table(
        &self,
        name: &str,
        pp: &mut ParsedPacket,
        meta: &mut BTreeMap<String, Value>,
        tables: &mut TableState,
        events: &mut Vec<TableEvent>,
    ) -> Result<&'a str, IrError> {
        let program = self.program;
        let def = program.tables.get(name).ok_or(IrError::Undefined {
            kind: "table",
            name: name.to_string(),
        })?;
        let keys: Vec<Value> = def
            .keys
            .iter()
            .map(|k| self.read_field(&k.field, pp, meta))
            .collect::<Result<_, _>>()?;
        // The ordinal-returning lookup avoids cloning the whole entry per
        // hit: the action name is borrowed from the definition's action
        // list, and only the (small) argument vector is copied out so the
        // table borrow can be released before the action runs.
        let (action_name, args, hit) = match tables.lookup_ref_ord(def, &keys) {
            Some((ord, entry)) => (def.actions[ord].as_str(), entry.action_args.clone(), true),
            None => (
                def.default_action.as_str(),
                def.default_action_args.clone(),
                false,
            ),
        };
        let act = self.action(action_name)?;
        self.run_action(act, &args, pp, meta, tables)?;
        events.push(TableEvent {
            table: ordinal(&program.tables, name),
            action: ordinal(&program.actions, action_name),
            hit,
        });
        Ok(action_name)
    }

    fn action(&self, name: &str) -> Result<&ActionDef, IrError> {
        self.program.actions.get(name).ok_or(IrError::Undefined {
            kind: "action",
            name: name.to_string(),
        })
    }

    fn run_action(
        &self,
        act: &ActionDef,
        args: &[Value],
        pp: &mut ParsedPacket,
        meta: &mut BTreeMap<String, Value>,
        tables: &mut TableState,
    ) -> Result<(), IrError> {
        if args.len() != act.params.len() {
            return Err(IrError::Invalid(format!(
                "action {}: expected {} args, got {}",
                act.name,
                act.params.len(),
                args.len()
            )));
        }
        let bindings: Bindings = act
            .params
            .iter()
            .zip(args)
            .map(|((n, bits), v)| (n.clone(), v.resize(*bits)))
            .collect();
        for op in &act.ops {
            match op {
                PrimitiveOp::Set { dst, value } => {
                    let v = self.eval(value, pp, meta, &bindings)?;
                    self.write_field(dst, v, pp, meta)?;
                }
                PrimitiveOp::Hash { dst, algo, inputs } => {
                    let vals: Vec<Value> = inputs
                        .iter()
                        .map(|e| self.eval(e, pp, meta, &bindings))
                        .collect::<Result<_, _>>()?;
                    let raw = run_hash(*algo, &vals);
                    let width = self.field_width(dst)?;
                    self.write_field(dst, Value::new(raw, width), pp, meta)?;
                }
                PrimitiveOp::AddHeader { header, before } => {
                    let ht = self.headers.get(header).ok_or(IrError::Undefined {
                        kind: "header type",
                        name: header.clone(),
                    })?;
                    pp.add_header(ht, before.as_deref());
                }
                PrimitiveOp::RemoveHeader { header } => {
                    pp.remove_header(header);
                }
                PrimitiveOp::RemoveHeaderNth { header, occurrence } => {
                    pp.remove_header_nth(header, *occurrence);
                }
                PrimitiveOp::RegisterRead {
                    dst,
                    register,
                    index,
                } => {
                    let def = self.register_def(register)?;
                    let idx = self.eval(index, pp, meta, &bindings)?.raw() as u32;
                    let val = tables.register_read(def, idx);
                    self.write_field(dst, Value::new(val, def.width_bits), pp, meta)?;
                }
                PrimitiveOp::RegisterWrite {
                    register,
                    index,
                    value,
                } => {
                    let def = self.register_def(register)?;
                    let idx = self.eval(index, pp, meta, &bindings)?.raw() as u32;
                    let val = self.eval(value, pp, meta, &bindings)?.raw();
                    tables.register_write(def, idx, val);
                }
                PrimitiveOp::Ipv4ChecksumUpdate { header } => {
                    self.update_checksum(header, pp)?;
                }
                PrimitiveOp::Digest { name, fields } => {
                    let vals: Vec<Value> = fields
                        .iter()
                        .map(|e| self.eval(e, pp, meta, &bindings))
                        .collect::<Result<_, _>>()?;
                    tables.emit_digest(name.as_str().into(), vals);
                }
                PrimitiveOp::Drop => {
                    meta.insert("drop_flag".into(), Value::new(1, 1));
                }
                PrimitiveOp::NoOp => {}
            }
        }
        Ok(())
    }

    fn register_def(&self, name: &str) -> Result<&dejavu_p4ir::table::RegisterDef, IrError> {
        self.program.registers.get(name).ok_or(IrError::Undefined {
            kind: "register",
            name: name.to_string(),
        })
    }

    /// Recomputes the ones-complement checksum of a header instance,
    /// storing it in its `hdr_checksum` field, which must be 16 bits. No-op
    /// when the header is absent (hardware semantics).
    fn update_checksum(&self, header: &str, pp: &mut ParsedPacket) -> Result<(), IrError> {
        let ht = self.headers.get(header).ok_or(IrError::Undefined {
            kind: "header type",
            name: header.to_string(),
        })?;
        let Some(ck) = ht.field("hdr_checksum") else {
            return Err(IrError::Invalid(format!(
                "header {header} has no hdr_checksum field"
            )));
        };
        // The RFC 1071 sum is 16 bits; any other width could not hold it.
        if ck.bits != 16 {
            return Err(IrError::Invalid(format!(
                "header {header}: hdr_checksum is {} bits, not 16",
                ck.bits
            )));
        }
        let Some(idx) = pp.find(header) else {
            return Ok(());
        };
        pp.headers[idx]
            .fields
            .insert("hdr_checksum".into(), Value::new(0, 16));
        let bytes = pp.headers[idx].serialize(ht);
        let sum = ones_complement_checksum(&bytes);
        pp.headers[idx]
            .fields
            .insert("hdr_checksum".into(), Value::new(u128::from(sum), 16));
        Ok(())
    }

    /// Declared width of a field reference (for hash destinations and
    /// zero-fills).
    fn field_width(&self, fr: &FieldRef) -> Result<u16, IrError> {
        self.program.field_width(fr).ok_or(IrError::Undefined {
            kind: "field",
            name: fr.to_string(),
        })
    }

    /// Reads a field: metadata from the map (zero-filled at declared width
    /// when unset), header fields from the parsed view (zero when the header
    /// is invalid — hardware semantics).
    fn read_field(
        &self,
        fr: &FieldRef,
        pp: &ParsedPacket,
        meta: &BTreeMap<String, Value>,
    ) -> Result<Value, IrError> {
        let width = self.field_width(fr)?;
        if fr.is_meta() {
            return Ok(meta
                .get(&fr.field)
                .map(|v| v.resize(width))
                .unwrap_or(Value::new(0, width)));
        }
        Ok(pp.get(fr).unwrap_or(Value::new(0, width)))
    }

    fn write_field(
        &self,
        fr: &FieldRef,
        v: Value,
        pp: &mut ParsedPacket,
        meta: &mut BTreeMap<String, Value>,
    ) -> Result<(), IrError> {
        let width = self.field_width(fr)?;
        if fr.is_meta() {
            meta.insert(fr.field.clone(), v.resize(width));
        } else {
            // Writes to invalid headers are silently dropped, as on hardware.
            let _ = pp.set(fr, v.resize(width));
        }
        Ok(())
    }

    fn eval(
        &self,
        expr: &Expr,
        pp: &ParsedPacket,
        meta: &BTreeMap<String, Value>,
        bindings: &Bindings,
    ) -> Result<Value, IrError> {
        Ok(match expr {
            Expr::Const(v) => *v,
            Expr::Field(fr) => self.read_field(fr, pp, meta)?,
            Expr::Param(p) => *bindings.get(p).ok_or_else(|| IrError::Undefined {
                kind: "action parameter",
                name: p.clone(),
            })?,
            Expr::Add(a, b) => {
                let (a, b) = (
                    self.eval(a, pp, meta, bindings)?,
                    self.eval(b, pp, meta, bindings)?,
                );
                a.wrapping_add(b)
            }
            Expr::Sub(a, b) => {
                let (a, b) = (
                    self.eval(a, pp, meta, bindings)?,
                    self.eval(b, pp, meta, bindings)?,
                );
                a.wrapping_sub(b)
            }
            Expr::And(a, b) => {
                let (a, b) = (
                    self.eval(a, pp, meta, bindings)?,
                    self.eval(b, pp, meta, bindings)?,
                );
                a.and(b)
            }
            Expr::Or(a, b) => {
                let (a, b) = (
                    self.eval(a, pp, meta, bindings)?,
                    self.eval(b, pp, meta, bindings)?,
                );
                a.or(b)
            }
            Expr::Xor(a, b) => {
                let (a, b) = (
                    self.eval(a, pp, meta, bindings)?,
                    self.eval(b, pp, meta, bindings)?,
                );
                a.xor(b)
            }
            Expr::Shl(a, amount) => self.eval(a, pp, meta, bindings)?.shl(*amount),
            Expr::Shr(a, amount) => self.eval(a, pp, meta, bindings)?.shr(*amount),
        })
    }

    fn eval_bool(
        &self,
        cond: &BoolExpr,
        pp: &ParsedPacket,
        meta: &BTreeMap<String, Value>,
        bindings: &Bindings,
    ) -> Result<bool, IrError> {
        Ok(match cond {
            BoolExpr::Cmp(a, op, b) => {
                let (a, b) = (
                    self.eval(a, pp, meta, bindings)?,
                    self.eval(b, pp, meta, bindings)?,
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
            BoolExpr::And(a, b) => {
                self.eval_bool(a, pp, meta, bindings)? && self.eval_bool(b, pp, meta, bindings)?
            }
            BoolExpr::Or(a, b) => {
                self.eval_bool(a, pp, meta, bindings)? || self.eval_bool(b, pp, meta, bindings)?
            }
            BoolExpr::Not(a) => !self.eval_bool(a, pp, meta, bindings)?,
            BoolExpr::Valid(h) => pp.is_valid(h),
        })
    }
}

/// RFC 1071 ones-complement checksum over big-endian 16-bit words (odd
/// trailing byte padded with zero).
pub fn ones_complement_checksum(bytes: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = bytes.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_p4ir::action::HashAlgorithm;
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::fref;
    use dejavu_p4ir::table::{KeyMatch, TableEntry};
    use dejavu_p4ir::well_known;

    /// A miniature L4 load balancer modelled on the paper's Fig. 4:
    /// hash the 5-tuple, look it up in `lb_session`, rewrite dst IP on hit,
    /// set `to_cpu_flag` on miss.
    fn lb_program() -> Program {
        ProgramBuilder::new("lb")
            .header(well_known::ethernet())
            .header(well_known::ipv4())
            .header(well_known::tcp())
            .header(well_known::udp())
            .meta_field("session_hash", 32)
            .parser(well_known::eth_ip_l4_parser())
            .action(
                ActionBuilder::new("compute_hash")
                    .hash(
                        FieldRef::meta("session_hash"),
                        HashAlgorithm::Crc32,
                        vec![
                            Expr::field("ipv4", "src_addr"),
                            Expr::field("ipv4", "dst_addr"),
                            Expr::field("ipv4", "protocol"),
                            Expr::field("tcp", "src_port"),
                            Expr::field("tcp", "dst_port"),
                        ],
                    )
                    .build(),
            )
            .action(
                ActionBuilder::new("modify_dst_ip")
                    .param("dip", 32)
                    .set(fref("ipv4", "dst_addr"), Expr::Param("dip".into()))
                    .build(),
            )
            .action(
                ActionBuilder::new("to_cpu")
                    .set(FieldRef::meta("to_cpu_flag"), Expr::val(1, 1))
                    .build(),
            )
            .table(
                TableBuilder::new("lb_session")
                    .key_exact(FieldRef::meta("session_hash"))
                    .action("modify_dst_ip")
                    .default_action("to_cpu")
                    .size(1024)
                    .build(),
            )
            .control(
                ControlBuilder::new("ingress")
                    .invoke("compute_hash")
                    .apply("lb_session")
                    .build(),
            )
            .entry("ingress")
            .build()
            .unwrap()
    }

    fn tcp_packet() -> Vec<u8> {
        let mut p = vec![0u8; 54];
        p[12] = 0x08;
        p[14] = 0x45;
        p[22] = 64;
        p[23] = 6;
        p[26..30].copy_from_slice(&[10, 0, 0, 1]);
        p[30..34].copy_from_slice(&[203, 0, 113, 80]); // VIP
        p[34..36].copy_from_slice(&0x3039u16.to_be_bytes());
        p[36..38].copy_from_slice(&80u16.to_be_bytes());
        p
    }

    fn run(
        program: &Program,
        tables: &mut TableState,
        bytes: &[u8],
    ) -> (ParsedPacket, BTreeMap<String, Value>, Vec<TableEvent>) {
        let interp = Interpreter::new(program);
        let mut pp = ParsedPacket::parse(bytes, &program.parser, interp.headers()).unwrap();
        let mut meta = BTreeMap::new();
        let events = interp.execute(&mut pp, &mut meta, tables).unwrap();
        (pp, meta, events)
    }

    #[test]
    fn lb_miss_goes_to_cpu() {
        let program = lb_program();
        let mut tables = TableState::new();
        let (pp, meta, events) = run(&program, &mut tables, &tcp_packet());
        assert_eq!(meta["to_cpu_flag"].raw(), 1);
        // dst IP unchanged
        assert_eq!(pp.get(&fref("ipv4", "dst_addr")).unwrap().raw(), 0xcb007150);
        assert_eq!(events.len(), 1);
        assert!(!events[0].hit);
        let names = TraceNames::of(&program);
        assert_eq!(names.of_event(events[0]), ("lb_session", "to_cpu"));
    }

    #[test]
    fn lb_hit_rewrites_dst_ip() {
        let program = lb_program();
        let mut tables = TableState::new();
        // First run to learn the session hash (as the control plane would).
        let (_, meta, _) = run(&program, &mut tables, &tcp_packet());
        let hash = meta["session_hash"];
        let def = program.tables.get("lb_session").unwrap();
        tables
            .install(
                def,
                TableEntry {
                    matches: vec![KeyMatch::Exact(hash)],
                    action: "modify_dst_ip".into(),
                    action_args: vec![Value::new(0x0a000063, 32)], // 10.0.0.99
                    priority: 0,
                },
            )
            .unwrap();
        let (pp, meta, events) = run(&program, &mut tables, &tcp_packet());
        assert_eq!(pp.get(&fref("ipv4", "dst_addr")).unwrap().raw(), 0x0a000063);
        assert_eq!(meta.get("to_cpu_flag").map(|v| v.raw()), None);
        assert!(events[0].hit);
    }

    #[test]
    fn apply_select_dispatches_on_action_run() {
        // Build a program where a table's action_run selects a branch.
        let program = ProgramBuilder::new("sel")
            .header(well_known::ethernet())
            .meta_field("mark", 8)
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .accept("eth")
                    .start("eth"),
            )
            .action(ActionBuilder::new("a1").build())
            .action(ActionBuilder::new("a2").build())
            .action(
                ActionBuilder::new("set_mark")
                    .set(FieldRef::meta("mark"), Expr::val(7, 8))
                    .build(),
            )
            .action(
                ActionBuilder::new("set_mark2")
                    .set(FieldRef::meta("mark"), Expr::val(9, 8))
                    .build(),
            )
            .table(
                TableBuilder::new("chooser")
                    .key_exact(fref("ethernet", "ether_type"))
                    .action("a1")
                    .default_action("a2")
                    .build(),
            )
            .table(
                TableBuilder::new("m1")
                    .key_exact(fref("ethernet", "dst_mac"))
                    .default_action("set_mark")
                    .build(),
            )
            .table(
                TableBuilder::new("m2")
                    .key_exact(fref("ethernet", "dst_mac"))
                    .default_action("set_mark2")
                    .build(),
            )
            .control(
                ControlBuilder::new("ingress")
                    .stmt(Stmt::ApplySelect {
                        table: "chooser".into(),
                        arms: vec![("a1".into(), vec![Stmt::Apply("m1".into())])],
                        default: vec![Stmt::Apply("m2".into())],
                    })
                    .build(),
            )
            .entry("ingress")
            .build()
            .unwrap();

        let mut tables = TableState::new();
        // miss → a2 → default branch → m2 → mark = 9
        let (_, meta, _) = run(&program, &mut tables, &[0u8; 14]);
        assert_eq!(meta["mark"].raw(), 9);
        // install an entry so ether_type 0 hits a1 → m1 → mark = 7
        let def = program.tables.get("chooser").unwrap();
        tables
            .install(
                def,
                TableEntry {
                    matches: vec![KeyMatch::Exact(Value::new(0, 16))],
                    action: "a1".into(),
                    action_args: vec![],
                    priority: 0,
                },
            )
            .unwrap();
        let (_, meta, _) = run(&program, &mut tables, &[0u8; 14]);
        assert_eq!(meta["mark"].raw(), 7);
    }

    #[test]
    fn if_branches_on_metadata_and_validity() {
        let program = ProgramBuilder::new("iff")
            .header(well_known::ethernet())
            .header(well_known::ipv4())
            .meta_field("seen_ip", 8)
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .node("ip", "ipv4", 14)
                    .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                    .accept("ip")
                    .start("eth"),
            )
            .action(
                ActionBuilder::new("mark_ip")
                    .set(FieldRef::meta("seen_ip"), Expr::val(1, 8))
                    .build(),
            )
            .control(
                ControlBuilder::new("ingress")
                    .stmt(Stmt::If {
                        cond: BoolExpr::Valid("ipv4".into()),
                        then_branch: vec![Stmt::Do("mark_ip".into())],
                        else_branch: vec![],
                    })
                    .build(),
            )
            .entry("ingress")
            .build()
            .unwrap();

        let mut tables = TableState::new();
        let mut ip_pkt = vec![0u8; 34];
        ip_pkt[12] = 0x08;
        let (_, meta, _) = run(&program, &mut tables, &ip_pkt);
        assert_eq!(meta["seen_ip"].raw(), 1);
        let (_, meta, _) = run(&program, &mut tables, &[0u8; 14]);
        assert!(!meta.contains_key("seen_ip"));
    }

    #[test]
    fn drop_primitive_sets_flag() {
        let program = ProgramBuilder::new("dropper")
            .header(well_known::ethernet())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .accept("eth")
                    .start("eth"),
            )
            .action(ActionBuilder::new("deny").drop_packet().build())
            .table(
                TableBuilder::new("acl")
                    .key_exact(fref("ethernet", "src_mac"))
                    .default_action("deny")
                    .build(),
            )
            .control(ControlBuilder::new("ingress").apply("acl").build())
            .entry("ingress")
            .build()
            .unwrap();
        let mut tables = TableState::new();
        let (_, meta, _) = run(&program, &mut tables, &[0u8; 14]);
        assert_eq!(meta["drop_flag"].raw(), 1);
    }

    #[test]
    fn wrong_arity_direct_invoke_errors() {
        let program = lb_program();
        let interp = Interpreter::new(&program);
        // "modify_dst_ip" has a parameter; invoking it directly must fail.
        let mut pp = ParsedPacket::parse(&tcp_packet(), &program.parser, interp.headers()).unwrap();
        let mut meta = BTreeMap::new();
        let bad = dejavu_p4ir::ControlBlock::new("x", vec![Stmt::Do("modify_dst_ip".into())]);
        let mut program2 = program.clone();
        program2.controls.insert("x".into(), bad);
        program2.entry = "x".into();
        let interp2 = Interpreter::new(&program2);
        let mut tables = TableState::new();
        assert!(interp2.execute(&mut pp, &mut meta, &mut tables).is_err());
    }

    #[test]
    fn registers_count_across_packets() {
        // A per-protocol packet counter: counter[proto & 0xf] += 1.
        let program = ProgramBuilder::new("counter")
            .header(well_known::ethernet())
            .header(well_known::ipv4())
            .meta_field("cnt", 32)
            .register("pkt_count", 32, 16)
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .node("ip", "ipv4", 14)
                    .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                    .accept("ip")
                    .start("eth"),
            )
            .action(
                ActionBuilder::new("count")
                    .reg_read(
                        FieldRef::meta("cnt"),
                        "pkt_count",
                        Expr::field("ipv4", "protocol"),
                    )
                    .reg_write(
                        "pkt_count",
                        Expr::field("ipv4", "protocol"),
                        Expr::Add(Box::new(Expr::meta("cnt")), Box::new(Expr::val(1, 32))),
                    )
                    .build(),
            )
            .control(ControlBuilder::new("ingress").invoke("count").build())
            .entry("ingress")
            .build()
            .unwrap();
        let mut tables = TableState::new();
        let mut pkt = vec![0u8; 34];
        pkt[12] = 0x08;
        pkt[23] = 6;
        for expect in 0..3u128 {
            let (_, meta, _) = run(&program, &mut tables, &pkt);
            // The read sees the value *before* this packet's increment.
            assert_eq!(meta["cnt"].raw(), expect);
        }
        // Index wraps modulo the array size (16): proto 6 and 22 share.
        let def = program.registers.get("pkt_count").unwrap();
        assert_eq!(tables.register_read(def, 6), 3);
        assert_eq!(tables.register_read(def, 22), 3);
        assert_eq!(tables.register_peek("pkt_count", 7), Some(0));
    }

    #[test]
    fn checksum_extern_computes_rfc1071() {
        let program = ProgramBuilder::new("ck")
            .header(well_known::ethernet())
            .header(well_known::ipv4())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .node("ip", "ipv4", 14)
                    .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                    .accept("ip")
                    .start("eth"),
            )
            .action(ActionBuilder::new("fix").update_checksum("ipv4").build())
            .control(ControlBuilder::new("ingress").invoke("fix").build())
            .entry("ingress")
            .build()
            .unwrap();
        let mut tables = TableState::new();
        // A real IPv4 header (from RFC 1071 examples territory): verify the
        // recomputed checksum makes the ones-complement sum 0xffff.
        let mut pkt = vec![0u8; 34];
        pkt[12] = 0x08;
        pkt[14] = 0x45;
        pkt[22] = 64;
        pkt[23] = 6;
        pkt[26..30].copy_from_slice(&[10, 0, 0, 1]);
        pkt[30..34].copy_from_slice(&[10, 0, 0, 2]);
        let (pp, _, _) = run(&program, &mut tables, &pkt);
        let bytes = pp.deparse(Interpreter::new(&program).headers()).unwrap();
        let ip = &bytes[14..34];
        // Validity check: checksum over the full header must be zero.
        assert_eq!(ones_complement_checksum(ip), 0, "header checksums to zero");
        // And it is non-trivial.
        assert_ne!(u16::from_be_bytes([ip[10], ip[11]]), 0);
    }

    #[test]
    fn checksum_update_needs_a_16_bit_checksum_field() {
        // An 8-bit `hdr_checksum` cannot hold the 16-bit sum: the update is
        // an op error, not a store that leaves the field wider than declared.
        let ck8 = HeaderType::new("ck8", vec![("a", 8u16), ("hdr_checksum", 8)]).unwrap();
        let program = ProgramBuilder::new("ck8")
            .header(ck8)
            .meta_field("m", 16)
            .parser(
                ParserBuilder::new()
                    .node("n", "ck8", 0)
                    .accept("n")
                    .start("n"),
            )
            .action(
                ActionBuilder::new("fix")
                    .update_checksum("ck8")
                    .set(FieldRef::meta("m"), Expr::field("ck8", "hdr_checksum"))
                    .build(),
            )
            .control(ControlBuilder::new("ingress").invoke("fix").build())
            .entry("ingress")
            .build()
            .unwrap();
        let interp = Interpreter::new(&program);
        let mut pp = ParsedPacket::parse(&[0x00, 0x00], &program.parser, interp.headers()).unwrap();
        let err = interp
            .execute(&mut pp, &mut BTreeMap::new(), &mut TableState::new())
            .unwrap_err();
        assert_eq!(
            err,
            IrError::Invalid("header ck8: hdr_checksum is 8 bits, not 16".into())
        );
    }

    #[test]
    fn checksum_known_vector() {
        // Wikipedia's canonical IPv4 header example: checksum 0xB861.
        let hdr: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(ones_complement_checksum(&hdr), 0xb861);
    }

    #[test]
    fn header_add_remove_via_action() {
        let sfc =
            HeaderType::new("sfc", vec![("path_id", 16u16), ("index", 8), ("pad", 8)]).unwrap();
        let program = ProgramBuilder::new("encap")
            .header(well_known::ethernet())
            .header(well_known::ipv4())
            .header(sfc)
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .node("ip", "ipv4", 14)
                    .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                    .accept("ip")
                    .start("eth"),
            )
            .action(
                ActionBuilder::new("push_sfc")
                    .add_header("sfc", Some("ipv4"))
                    .set(fref("sfc", "path_id"), Expr::val(3, 16))
                    .set(fref("ethernet", "ether_type"), Expr::val(0x88B5, 16))
                    .build(),
            )
            .control(ControlBuilder::new("ingress").invoke("push_sfc").build())
            .entry("ingress")
            .build()
            .unwrap();
        let mut tables = TableState::new();
        let mut pkt = vec![0u8; 34];
        pkt[12] = 0x08;
        let (pp, _, _) = run(&program, &mut tables, &pkt);
        assert!(pp.is_valid("sfc"));
        assert_eq!(pp.find("sfc"), Some(1));
        assert_eq!(pp.get(&fref("sfc", "path_id")).unwrap().raw(), 3);
        let bytes = pp.deparse(Interpreter::new(&program).headers()).unwrap();
        assert_eq!(bytes.len(), 38);
        assert_eq!(&bytes[12..14], &[0x88, 0xb5]);
    }
}
