//! Per-table resource demand model.
//!
//! Converts a table's static shape into a [`ResourceVector`], using block
//! geometries modelled on public Tofino documentation:
//!
//! * SRAM block = 1024 entries × 128 bits,
//! * TCAM block = 512 entries × 44 bits,
//! * crossbar bytes = bytes of match key,
//! * VLIW slots = sum of the table's actions' instruction counts,
//! * hash bits: exact-match tables consume hash-distribution bits for their
//!   SRAM way selection; `Hash` externs consume additional bits,
//! * gateways are charged per enclosing conditional scope (each `If` /
//!   `ApplySelect` dispatch becomes one gateway co-located with the guarded
//!   table).
//!
//! The absolute numbers are a model, not silicon truth — what matters for
//! reproducing the paper is that (a) relative comparisons between programs
//! are meaningful, and (b) the Dejavu framework tables come out "bare
//! minimum" as §5 reports.

use dejavu_asic::ResourceVector;
use dejavu_p4ir::control::Stmt;
use dejavu_p4ir::{PrimitiveOp, Program, TableDef};
use std::collections::BTreeMap;

/// Geometry constants of the demand model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandModel {
    /// Entries per SRAM block row set.
    pub sram_entries_per_block: u32,
    /// Bits per SRAM block entry row.
    pub sram_bits_per_entry: u32,
    /// Entries per TCAM block.
    pub tcam_entries_per_block: u32,
    /// Key bits per TCAM block.
    pub tcam_bits_per_block: u32,
    /// Action-data overhead bits stored in SRAM per entry.
    pub action_data_bits: u32,
    /// Hash bits consumed by one exact-match way selection.
    pub hash_bits_exact: u32,
    /// Hash bits consumed by one `Hash` extern.
    pub hash_bits_extern: u32,
}

impl Default for DemandModel {
    fn default() -> Self {
        DemandModel {
            sram_entries_per_block: 1024,
            sram_bits_per_entry: 128,
            tcam_entries_per_block: 512,
            tcam_bits_per_block: 44,
            action_data_bits: 64,
            hash_bits_exact: 10,
            hash_bits_extern: 32,
        }
    }
}

impl DemandModel {
    /// Demand of one table within its program (the program supplies field
    /// widths and action bodies). `gateway_scopes` is the number of
    /// conditional scopes enclosing this table's application (0 when applied
    /// unconditionally).
    pub fn table_demand(
        &self,
        program: &Program,
        table: &TableDef,
        gateway_scopes: u32,
    ) -> ResourceVector {
        let key_bits = table.key_bits(&|fr| program.field_width(fr)).unwrap_or(0);
        let key_bytes = key_bits.div_ceil(8);

        // 64-bit arithmetic: declared sizes can be large enough to overflow
        // u32 when multiplied by entry widths.
        let sram_block_bits =
            u64::from(self.sram_entries_per_block) * u64::from(self.sram_bits_per_entry);
        let (sram, tcam) = if table.needs_tcam() {
            // Match storage in TCAM; action data still lives in SRAM.
            let width_blocks = u64::from(key_bits.div_ceil(self.tcam_bits_per_block).max(1));
            let depth_blocks = u64::from(table.size.div_ceil(self.tcam_entries_per_block).max(1));
            let sram = (u64::from(table.size) * u64::from(self.action_data_bits))
                .div_ceil(sram_block_bits)
                .max(1);
            (sram, width_blocks * depth_blocks)
        } else {
            let entry_bits = u64::from(key_bits + self.action_data_bits);
            let sram = (u64::from(table.size) * entry_bits)
                .div_ceil(sram_block_bits)
                .max(1);
            (sram, 0)
        };
        let clamp = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
        let (sram, tcam) = (clamp(sram), clamp(tcam));

        let mut vliw = 0u32;
        let mut hash_bits = 0u32;
        let mut register_sram = 0u64;
        let mut charged_regs = std::collections::BTreeSet::new();
        for a in &table.actions {
            if let Some(act) = program.actions.get(a) {
                vliw += act.vliw_slots();
                if act
                    .ops
                    .iter()
                    .any(|op| matches!(op, PrimitiveOp::Hash { .. }))
                {
                    hash_bits += self.hash_bits_extern;
                }
                // Register arrays live in SRAM next to the stage that
                // accesses them; charge each array once per table.
                for op in &act.ops {
                    let reg = match op {
                        PrimitiveOp::RegisterRead { register, .. }
                        | PrimitiveOp::RegisterWrite { register, .. } => Some(register),
                        _ => None,
                    };
                    if let Some(reg) = reg {
                        if charged_regs.insert(reg.clone()) {
                            if let Some(def) = program.registers.get(reg) {
                                register_sram += def.total_bits();
                            }
                        }
                    }
                }
            }
        }
        let sram =
            sram + u32::try_from(register_sram.div_ceil(sram_block_bits)).unwrap_or(u32::MAX);
        if !table.needs_tcam() {
            hash_bits += self.hash_bits_exact;
        }

        ResourceVector {
            table_ids: 1,
            sram_blocks: sram,
            tcam_blocks: tcam,
            crossbar_bytes: key_bytes,
            gateways: gateway_scopes,
            vliw_slots: vliw,
            hash_bits,
        }
    }
}

/// Number of conditional scopes enclosing each table application in the
/// program's entry control (used to charge gateways).
pub fn gateway_scopes(program: &Program) -> BTreeMap<&str, u32> {
    fn walk<'a>(
        program: &'a Program,
        stmts: &'a [Stmt],
        depth_cond: u32,
        out: &mut BTreeMap<&'a str, u32>,
        depth: usize,
    ) {
        if depth > 64 {
            return;
        }
        for stmt in stmts {
            match stmt {
                Stmt::Apply(t) | Stmt::ApplySelect { table: t, .. } => {
                    let e = out.entry(t.as_str()).or_insert(depth_cond);
                    *e = (*e).max(depth_cond);
                    if let Stmt::ApplySelect { arms, default, .. } = stmt {
                        for (_, b) in arms {
                            walk(program, b, depth_cond + 1, out, depth);
                        }
                        walk(program, default, depth_cond + 1, out, depth);
                    }
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(program, then_branch, depth_cond + 1, out, depth);
                    walk(program, else_branch, depth_cond + 1, out, depth);
                }
                Stmt::Do(_) => {}
                Stmt::Call(c) => {
                    if let Some(cb) = program.controls.get(c) {
                        walk(program, &cb.body, depth_cond, out, depth + 1);
                    }
                }
            }
        }
    }
    let mut scopes = BTreeMap::new();
    if let Some(entry) = program.entry_control() {
        walk(program, &entry.body, 0, &mut scopes, 0);
    }
    scopes
}

/// Demand of one table using the default model.
pub fn table_demand(program: &Program, table: &TableDef) -> ResourceVector {
    let scopes = gateway_scopes(program);
    DemandModel::default().table_demand(
        program,
        table,
        scopes.get(table.name.as_str()).copied().unwrap_or(0),
    )
}

/// Total demand of a program: sum over the tables its entry control applies.
pub fn program_demand(program: &Program) -> ResourceVector {
    let scopes = gateway_scopes(program);
    let model = DemandModel::default();
    let mut total = ResourceVector::ZERO;
    let mut seen = std::collections::BTreeSet::new();
    for name in program.tables_in_order() {
        if !seen.insert(name.clone()) {
            continue;
        }
        if let Some(t) = program.tables.get(&name) {
            let scope = scopes.get(name.as_str()).copied().unwrap_or(0);
            total += model.table_demand(program, t, scope);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::control::BoolExpr;
    use dejavu_p4ir::well_known;
    use dejavu_p4ir::{fref, Expr, FieldRef};

    fn program_with(table: TableDef) -> Program {
        ProgramBuilder::new("p")
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
            .action(
                ActionBuilder::new("fwd")
                    .param("port", 16)
                    .set(FieldRef::meta("egress_spec"), Expr::Param("port".into()))
                    .build(),
            )
            .action(ActionBuilder::new("nop").build())
            .table(table)
            .control(ControlBuilder::new("ingress").apply("t").build())
            .entry("ingress")
            .build()
            .unwrap()
    }

    #[test]
    fn exact_table_uses_sram_not_tcam() {
        let t = TableBuilder::new("t")
            .key_exact(fref("ipv4", "dst_addr"))
            .action("fwd")
            .default_action("nop")
            .size(4096)
            .build();
        let p = program_with(t.clone());
        let d = table_demand(&p, p.tables.get("t").unwrap());
        assert_eq!(d.tcam_blocks, 0);
        assert!(d.sram_blocks >= 3); // 4096 × (32+64) bits ≥ 3 blocks
        assert_eq!(d.crossbar_bytes, 4);
        assert_eq!(d.table_ids, 1);
        assert!(d.hash_bits > 0);
    }

    #[test]
    fn lpm_table_uses_tcam() {
        let t = TableBuilder::new("t")
            .key_lpm(fref("ipv4", "dst_addr"))
            .action("fwd")
            .default_action("nop")
            .size(1024)
            .build();
        let p = program_with(t.clone());
        let d = table_demand(&p, p.tables.get("t").unwrap());
        assert!(d.tcam_blocks >= 2); // 1024/512 = 2 depth blocks × 1 width
        assert!(d.sram_blocks >= 1); // action data
    }

    #[test]
    fn bigger_tables_cost_more() {
        let small = TableBuilder::new("t")
            .key_exact(fref("ipv4", "dst_addr"))
            .action("fwd")
            .default_action("nop")
            .size(128)
            .build();
        let big = TableBuilder::new("t")
            .key_exact(fref("ipv4", "dst_addr"))
            .action("fwd")
            .default_action("nop")
            .size(65536)
            .build();
        let ps = program_with(small);
        let pb = program_with(big);
        let ds = table_demand(&ps, ps.tables.get("t").unwrap());
        let db = table_demand(&pb, pb.tables.get("t").unwrap());
        assert!(db.sram_blocks > ds.sram_blocks);
    }

    #[test]
    fn gateway_scopes_counted() {
        let t = TableBuilder::new("t")
            .key_exact(fref("ipv4", "dst_addr"))
            .action("fwd")
            .default_action("nop")
            .build();
        let mut p = program_with(t);
        // Wrap the apply in an If.
        p.controls.insert(
            "ingress".into(),
            dejavu_p4ir::ControlBlock::new(
                "ingress",
                vec![Stmt::If {
                    cond: BoolExpr::Valid("ipv4".into()),
                    then_branch: vec![Stmt::Apply("t".into())],
                    else_branch: vec![],
                }],
            ),
        );
        let scopes = gateway_scopes(&p);
        assert_eq!(scopes["t"], 1);
        let d = table_demand(&p, p.tables.get("t").unwrap());
        assert_eq!(d.gateways, 1);
    }

    #[test]
    fn program_demand_sums_unique_tables() {
        let t = TableBuilder::new("t")
            .key_exact(fref("ipv4", "dst_addr"))
            .action("fwd")
            .default_action("nop")
            .build();
        let p = program_with(t);
        let total = program_demand(&p);
        let single = table_demand(&p, p.tables.get("t").unwrap());
        assert_eq!(total, single);
    }
}
