//! Program generators shared by the property suite and the verifier pins.
//!
//! Each is a proptest strategy: `properties.rs` draws them per case, and
//! `verifier_pinned.rs` draws a fixed number of them from fixed seeds.

use proptest::prelude::*;

use dejavu_p4ir::builder::ParserBuilder;
use dejavu_p4ir::well_known;

/// Builds a random sub-parser of the eth→ipv4→{tcp,udp} universe: each
/// parser includes ethernet, may include ipv4, and may include tcp and/or
/// udp below it.
pub fn arb_subparser() -> impl Strategy<Value = dejavu_p4ir::ParserDag> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(with_ip, with_tcp, with_udp)| {
        let mut b = ParserBuilder::new().node("eth", "ethernet", 0);
        if with_ip {
            b = b.node("ip", "ipv4", 14);
            let mut cases = Vec::new();
            if with_tcp {
                b = b.node("tcp", "tcp", 34).accept("tcp");
                cases.push((6u128, "tcp"));
            }
            if with_udp {
                b = b.node("udp", "udp", 34).accept("udp");
                cases.push((17u128, "udp"));
            }
            b = b.select("eth", "ether_type", 16, vec![(0x0800, "ip")]);
            b = if cases.is_empty() {
                b.accept("ip")
            } else {
                b.select("ip", "protocol", 8, cases)
            };
        }
        b.start("eth").build().expect("sub-parser resolves")
    })
}

/// Builds an arbitrary (frequently broken) program: a random parser depth,
/// random table keys that may hit unparsed headers or unwritten metadata,
/// random control shapes (validity guards, repeated applies, dead tables,
/// dangling entry). These are exactly the defect classes the linter hunts;
/// the property is that it *diagnoses* instead of panicking.
pub fn arb_messy_program() -> impl Strategy<Value = dejavu_p4ir::Program> {
    let key_pool = prop_oneof![
        Just(dejavu_p4ir::fref("ethernet", "ether_type")),
        Just(dejavu_p4ir::fref("ipv4", "dst_addr")),
        Just(dejavu_p4ir::fref("tcp", "dst_port")),
        Just(dejavu_p4ir::FieldRef::meta("m0")),
        Just(dejavu_p4ir::FieldRef::meta("m1")),
    ];
    (
        0usize..3,                                                // parser depth: eth / +ip / +tcp
        proptest::collection::vec((key_pool, any::<u8>()), 1..6), // tables: (key, shape bits)
        any::<bool>(),                                            // guard some applies with isValid
        any::<bool>(),                                            // leave the last table unapplied
    )
        .prop_map(|(depth, tables, guard, drop_last)| {
            use dejavu_p4ir::builder::*;
            use dejavu_p4ir::{BoolExpr, Stmt};

            let mut parser = ParserBuilder::new().node("eth", "ethernet", 0);
            parser = match depth {
                0 => parser.accept("eth"),
                1 => parser
                    .node("ip", "ipv4", 14)
                    .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                    .accept("ip"),
                _ => parser
                    .node("ip", "ipv4", 14)
                    .node("tcp", "tcp", 34)
                    .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                    .select("ip", "protocol", 8, vec![(6, "tcp")])
                    .accept("tcp"),
            };
            let mut b = ProgramBuilder::new("messy")
                .header(well_known::ethernet())
                .header(well_known::ipv4())
                .header(well_known::tcp())
                .meta_field("m0", 16)
                .meta_field("m1", 16)
                .parser(parser.start("eth"))
                .action(ActionBuilder::new("nop").build());
            let mut control = ControlBuilder::new("ingress");
            let n = tables.len();
            for (i, (key, shape)) in tables.into_iter().enumerate() {
                let writes_meta = shape & 1 == 0;
                let act = ActionBuilder::new(format!("w{i}"));
                let act = if writes_meta {
                    act.set(
                        dejavu_p4ir::FieldRef::meta(if shape & 2 == 0 { "m0" } else { "m1" }),
                        dejavu_p4ir::Expr::val(1, 16),
                    )
                } else {
                    act.set(
                        dejavu_p4ir::fref("ipv4", "ttl"),
                        dejavu_p4ir::Expr::val(1, 8),
                    )
                };
                b = b.action(act.build()).table(
                    TableBuilder::new(format!("t{i}"))
                        .key_exact(key)
                        .action(format!("w{i}"))
                        .default_action(if shape & 4 == 0 {
                            "nop".into()
                        } else {
                            format!("w{i}")
                        })
                        .build(),
                );
                if drop_last && i == n - 1 {
                    continue; // dead table: DJV005 bait
                }
                if guard && i % 2 == 1 {
                    control = control.stmt(Stmt::If {
                        cond: BoolExpr::Valid("ipv4".into()),
                        then_branch: vec![Stmt::Apply(format!("t{i}"))],
                        else_branch: vec![],
                    });
                } else {
                    control = control.apply(&format!("t{i}"));
                }
            }
            b.control(control.build())
                .entry("ingress")
                .build_unchecked()
        })
}

/// A lint-clean NF: one table keyed on `ipv4.dst_addr` whose action marks
/// `ipv4.dscp`, `ipv4.ttl` or an SFC context byte.
pub fn arb_clean_nf(name: &'static str) -> impl Strategy<Value = dejavu_core::NfModule> {
    (0u8..3, any::<bool>()).prop_map(move |(field, with_default)| {
        use dejavu_p4ir::builder::*;
        let dst = match field {
            0 => dejavu_p4ir::fref("ipv4", "dscp"),
            1 => dejavu_p4ir::fref("ipv4", "ttl"),
            _ => dejavu_p4ir::fref("sfc", "ctx_key0"),
        };
        let bits = match field {
            0 => 6,
            1 => 8,
            _ => 8,
        };
        let program = ProgramBuilder::new(name)
            .header(well_known::ethernet())
            .header(well_known::ipv4())
            .header(dejavu_core::sfc::sfc_header_type())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .node("ip", "ipv4", 14)
                    .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                    .accept("ip")
                    .start("eth"),
            )
            .action(
                ActionBuilder::new("mark")
                    .set(dst, dejavu_p4ir::Expr::val(1, bits))
                    .build(),
            )
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("work")
                    .key_exact(dejavu_p4ir::fref("ipv4", "dst_addr"))
                    .action("mark")
                    .default_action(if with_default { "mark" } else { "pass" })
                    .build(),
            )
            .control(ControlBuilder::new("ctrl").apply("work").build())
            .entry("ctrl")
            .build()
            .expect("clean NF builds");
        dejavu_core::NfModule::new(program).expect("clean NF is API-compliant")
    })
}
