//! Source NAT (extension NF) — dynamic flow learning with a static fallback.
//!
//! The primary mode is **dynamic NAT** ([`dynamic_nat`]): the first outbound
//! packet of a flow hits `nat_out`, which emits a [`NAT_FLOW_STREAM`] digest
//! carrying the flow identity *before* rewriting the source address. The
//! control-plane learning loop ([`nat_learn_policy`]) turns each digest into
//! a `nat_in` entry, so return traffic is translated back to the private
//! address entirely in the data plane — no punt, no reinjection. Pair the
//! learned tables with an idle timeout (`Deployment::set_idle_timeout`) to
//! expire quiet flows.
//!
//! The original **static mode** ([`nat`]) remains as a fallback: stateless
//! 1:1 source translation via LPM entries in the `snat` table, with no
//! learned state. It is still what the ablation benches use to grow chains
//! beyond the paper's five NFs.

use dejavu_core::control_plane::LearnPolicy;
use dejavu_core::sfc::sfc_header_type;
use dejavu_core::NfModule;
use dejavu_p4ir::builder::*;
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::well_known;
use dejavu_p4ir::{fref, Expr, Value};

/// The static-mode NAT table name.
pub const NAT_TABLE: &str = "snat";
/// Dynamic mode: the outbound (learn + rewrite) table name.
pub const NAT_OUT_TABLE: &str = "nat_out";
/// Dynamic mode: the learned return-path table name.
pub const NAT_IN_TABLE: &str = "nat_in";
/// Dynamic mode: the digest stream carrying newly seen outbound flows.
pub const NAT_FLOW_STREAM: &str = "nat_flow";

/// Builds the static (fallback) source-NAT NF: LPM on the source prefix,
/// stateless rewrite, nothing learned.
pub fn nat() -> NfModule {
    let program = ProgramBuilder::new("nat")
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .header(well_known::tcp())
        .header(well_known::udp())
        .header(sfc_header_type())
        .parser(well_known::eth_ip_l4_parser())
        .action(
            ActionBuilder::new("rewrite_src")
                .param("public_ip", 32)
                .set(fref("ipv4", "src_addr"), Expr::Param("public_ip".into()))
                .build(),
        )
        .action(
            ActionBuilder::new("rewrite_src_and_port")
                .param("public_ip", 32)
                .param("public_port", 16)
                .set(fref("ipv4", "src_addr"), Expr::Param("public_ip".into()))
                .set(fref("tcp", "src_port"), Expr::Param("public_port".into()))
                .build(),
        )
        .action(ActionBuilder::new("pass").build())
        .table(
            TableBuilder::new(NAT_TABLE)
                .key_lpm(fref("ipv4", "src_addr"))
                .action("rewrite_src")
                .action("rewrite_src_and_port")
                .default_action("pass")
                .size(8192)
                .build(),
        )
        .control(ControlBuilder::new("nat_ctrl").apply(NAT_TABLE).build())
        .entry("nat_ctrl")
        .build()
        .expect("nat program is well-formed");
    NfModule::new(program).expect("nat conforms to the NF API")
}

/// Builds the dynamic source-NAT NF.
///
/// * `nat_out` (LPM on `ipv4.src_addr`): internal prefixes map to
///   `learn_and_rewrite(public_ip)`, which digests
///   `(orig_src, tcp.src_port, public_ip)` to [`NAT_FLOW_STREAM`] and then
///   rewrites the source to the public address.
/// * `nat_in` (exact on `ipv4.dst_addr` + `tcp.dst_port`): learned return
///   mappings restore the private destination via `restore_dst(private_ip)`.
///
/// `nat_in` is applied before `nat_out` so the outbound rewrite can never
/// shadow a return-path lookup. The digest fires on *every* outbound packet
/// of a matching prefix; the learning loop deduplicates installs, so steady
/// state costs one queue slot per packet and zero table churn.
pub fn dynamic_nat() -> NfModule {
    let program = ProgramBuilder::new("nat")
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .header(well_known::tcp())
        .header(well_known::udp())
        .header(sfc_header_type())
        .parser(well_known::eth_ip_l4_parser())
        .action(
            ActionBuilder::new("learn_and_rewrite")
                .param("public_ip", 32)
                .digest(
                    NAT_FLOW_STREAM,
                    vec![
                        Expr::field("ipv4", "src_addr"),
                        Expr::field("tcp", "src_port"),
                        Expr::Param("public_ip".into()),
                    ],
                )
                .set(fref("ipv4", "src_addr"), Expr::Param("public_ip".into()))
                .build(),
        )
        .action(
            ActionBuilder::new("restore_dst")
                .param("private_ip", 32)
                .set(fref("ipv4", "dst_addr"), Expr::Param("private_ip".into()))
                .build(),
        )
        .action(ActionBuilder::new("pass").build())
        .table(
            TableBuilder::new(NAT_IN_TABLE)
                .key_exact(fref("ipv4", "dst_addr"))
                .key_exact(fref("tcp", "dst_port"))
                .action("restore_dst")
                .default_action("pass")
                .size(65536)
                .build(),
        )
        .table(
            TableBuilder::new(NAT_OUT_TABLE)
                .key_lpm(fref("ipv4", "src_addr"))
                .action("learn_and_rewrite")
                .default_action("pass")
                .size(8192)
                .build(),
        )
        .control(
            ControlBuilder::new("nat_ctrl")
                .apply(NAT_IN_TABLE)
                .apply(NAT_OUT_TABLE)
                .build(),
        )
        .entry("nat_ctrl")
        .build()
        .expect("dynamic nat program is well-formed");
    NfModule::new(program).expect("dynamic nat conforms to the NF API")
}

/// Static mode: sources under `src_prefix` are rewritten to `public_ip`.
pub fn snat_entry(src_prefix: (u32, u16), public_ip: u32) -> TableEntry {
    TableEntry {
        matches: vec![KeyMatch::Lpm(
            Value::new(u128::from(src_prefix.0), 32),
            src_prefix.1,
        )],
        action: "rewrite_src".into(),
        action_args: vec![Value::new(u128::from(public_ip), 32)],
        priority: 0,
    }
}

/// Dynamic mode: sources under `src_prefix` are learned and rewritten to
/// `public_ip` (goes in [`NAT_OUT_TABLE`]).
pub fn nat_out_entry(src_prefix: (u32, u16), public_ip: u32) -> TableEntry {
    TableEntry {
        matches: vec![KeyMatch::Lpm(
            Value::new(u128::from(src_prefix.0), 32),
            src_prefix.1,
        )],
        action: "learn_and_rewrite".into(),
        action_args: vec![Value::new(u128::from(public_ip), 32)],
        priority: 0,
    }
}

/// Dynamic mode: the learned return-path entry — traffic to
/// `(public_ip, port)` gets its destination restored to `private_ip` (goes
/// in [`NAT_IN_TABLE`]).
pub fn nat_return_entry(public_ip: u32, port: u16, private_ip: u32) -> TableEntry {
    TableEntry {
        matches: vec![
            KeyMatch::Exact(Value::new(u128::from(public_ip), 32)),
            KeyMatch::Exact(Value::new(u128::from(port), 16)),
        ],
        action: "restore_dst".into(),
        action_args: vec![Value::new(u128::from(private_ip), 32)],
        priority: 0,
    }
}

/// The learning policy for [`NAT_FLOW_STREAM`]: each digest
/// `(orig_src, src_port, public_ip)` becomes the [`NAT_IN_TABLE`] entry
/// [`nat_return_entry`]`(public_ip, src_port, orig_src)`. Register it with
/// `ControlPlane::register_learn_policy("nat", NAT_FLOW_STREAM, ...)`;
/// `dejavu_core::analyze::check_learn_policy` checks it against
/// [`dynamic_nat`].
pub fn nat_learn_policy() -> LearnPolicy {
    LearnPolicy {
        table: NAT_IN_TABLE.into(),
        action: "restore_dst".into(),
        key_map: vec![2, 1],
        arg_map: vec![0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_asic::{Interpreter, ParsedPacket, TableState};
    use std::collections::BTreeMap;

    #[test]
    fn source_rewritten() {
        let nf = nat();
        let program = nf.program();
        let interp = Interpreter::new(program);
        let mut tables = TableState::new();
        tables
            .install(
                program.tables.get(NAT_TABLE).unwrap(),
                snat_entry((0x0a000000, 8), 0xc0a80001),
            )
            .unwrap();
        let mut pkt = vec![0u8; 54];
        pkt[12] = 0x08;
        pkt[23] = 6;
        pkt[26..30].copy_from_slice(&[10, 9, 9, 9]);
        let mut pp = ParsedPacket::parse(&pkt, &program.parser, interp.headers()).unwrap();
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        assert_eq!(pp.get(&fref("ipv4", "src_addr")).unwrap().raw(), 0xc0a80001);
    }

    #[test]
    fn non_matching_source_passes() {
        let nf = nat();
        let program = nf.program();
        let interp = Interpreter::new(program);
        let mut tables = TableState::new();
        tables
            .install(
                program.tables.get(NAT_TABLE).unwrap(),
                snat_entry((0x0a000000, 8), 0xc0a80001),
            )
            .unwrap();
        let mut pkt = vec![0u8; 54];
        pkt[12] = 0x08;
        pkt[23] = 6;
        pkt[26..30].copy_from_slice(&[172, 16, 0, 1]);
        let mut pp = ParsedPacket::parse(&pkt, &program.parser, interp.headers()).unwrap();
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        assert_eq!(pp.get(&fref("ipv4", "src_addr")).unwrap().raw(), 0xac100001);
    }

    fn tcp_packet(src: u32, dst: u32, sport: u16, dport: u16) -> Vec<u8> {
        let mut p = vec![0u8; 54];
        p[12] = 0x08;
        p[14] = 0x45;
        p[23] = 6;
        p[26..30].copy_from_slice(&src.to_be_bytes());
        p[30..34].copy_from_slice(&dst.to_be_bytes());
        p[34..36].copy_from_slice(&sport.to_be_bytes());
        p[36..38].copy_from_slice(&dport.to_be_bytes());
        p
    }

    #[test]
    fn outbound_digests_then_rewrites() {
        let nf = dynamic_nat();
        let program = nf.program();
        let interp = Interpreter::new(program);
        let mut tables = TableState::new();
        tables
            .install(
                program.tables.get(NAT_OUT_TABLE).unwrap(),
                nat_out_entry((0x0a000000, 8), 0xc0a80001),
            )
            .unwrap();
        let pkt = tcp_packet(0x0a000005, 0x08080808, 40000, 443);
        let mut pp = ParsedPacket::parse(&pkt, &program.parser, interp.headers()).unwrap();
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        // Source rewritten to the public address.
        assert_eq!(pp.get(&fref("ipv4", "src_addr")).unwrap().raw(), 0xc0a80001);
        // Digest carries the *original* source, the port, and the public IP.
        let digests = tables.take_digests();
        assert_eq!(digests.len(), 1);
        assert_eq!(&*digests[0].name, NAT_FLOW_STREAM);
        let vals: Vec<u128> = digests[0].values.iter().map(|v| v.raw()).collect();
        assert_eq!(vals, vec![0x0a000005, 40000, 0xc0a80001]);
    }

    #[test]
    fn learned_return_path_translates_back() {
        let nf = dynamic_nat();
        let program = nf.program();
        let interp = Interpreter::new(program);
        let mut tables = TableState::new();
        tables
            .install(
                program.tables.get(NAT_IN_TABLE).unwrap(),
                nat_return_entry(0xc0a80001, 40000, 0x0a000005),
            )
            .unwrap();
        // Return traffic: server → (public_ip, orig src_port).
        let pkt = tcp_packet(0x08080808, 0xc0a80001, 443, 40000);
        let mut pp = ParsedPacket::parse(&pkt, &program.parser, interp.headers()).unwrap();
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        assert_eq!(pp.get(&fref("ipv4", "dst_addr")).unwrap().raw(), 0x0a000005);
        // No digest on the return path (nat_out missed).
        assert!(tables.take_digests().is_empty());
    }

    #[test]
    fn learn_policy_builds_return_entry() {
        // The digest the compiled engine emits for an outbound packet.
        let entry = crate::tests::learned_entry(
            &dynamic_nat(),
            &nat_learn_policy(),
            |sw, pipelet| {
                sw.install_entry(
                    pipelet,
                    NAT_OUT_TABLE,
                    nat_out_entry((0x0a000000, 8), 0xc0a80001),
                )
                .unwrap();
            },
            tcp_packet(0x0a000005, 0x08080808, 40000, 443),
        );
        assert_eq!(entry, nat_return_entry(0xc0a80001, 40000, 0x0a000005));
        // Malformed digests install nothing.
        assert_eq!(nat_learn_policy().entry(&[]), None);
    }
}
