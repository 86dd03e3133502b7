//! The packet-filtering firewall.
//!
//! Two modes:
//!
//! * [`firewall`] — a stateless 5-tuple ACL. Entries match (source prefix,
//!   destination prefix, protocol, destination port range); the verdict is
//!   `permit` (continue along the chain) or `deny` — which, per the Dejavu
//!   API, requests the drop through `sfc.drop_flag` rather than touching
//!   platform metadata. The framework's `check_sfcFlags` stage translates
//!   the flag after the NF returns.
//! * [`conntrack_firewall`] — a connection-tracking mode: outbound traffic
//!   from trusted prefixes is permitted and digests its connection identity
//!   to [`FW_CONN_STREAM`]; the learning loop ([`conntrack_learn_policy`])
//!   installs the reverse pair into the `fw_conn` table, so only return
//!   traffic of established connections gets in — everything else is
//!   default-denied. Pair with an idle timeout to expire quiet connections.

use dejavu_core::control_plane::LearnPolicy;
use dejavu_core::sfc::{sfc_field, sfc_header_type};
use dejavu_core::NfModule;
use dejavu_p4ir::builder::*;
use dejavu_p4ir::control::{BoolExpr, Stmt};
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::well_known;
use dejavu_p4ir::{fref, Expr, Value};

/// The firewall's ACL table name.
pub const ACL_TABLE: &str = "acl";
/// Conntrack mode: the outbound (trusted-prefix) table name.
pub const FW_OUT_TABLE: &str = "fw_out";
/// Conntrack mode: the learned established-connections table name.
pub const FW_CONN_TABLE: &str = "fw_conn";
/// Conntrack mode: the digest stream carrying new outbound connections.
pub const FW_CONN_STREAM: &str = "conn";
/// Conntrack mode: NF-local direction flag (1 = outbound from trusted).
pub const FW_DIR_META: &str = "fw_dir";

/// Builds the firewall NF.
pub fn firewall() -> NfModule {
    let program = ProgramBuilder::new("firewall")
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .header(well_known::tcp())
        .header(well_known::udp())
        .header(sfc_header_type())
        .parser(well_known::eth_ip_l4_parser())
        .action(ActionBuilder::new("permit").build())
        .action(
            ActionBuilder::new("deny")
                .set(sfc_field("drop_flag"), Expr::val(1, 1))
                .build(),
        )
        .table(
            TableBuilder::new(ACL_TABLE)
                .key_lpm(fref("ipv4", "src_addr"))
                .key_lpm(fref("ipv4", "dst_addr"))
                .key_ternary(fref("ipv4", "protocol"))
                .key_range(fref("tcp", "dst_port"))
                .action("deny")
                .default_action("permit")
                .size(8192)
                .build(),
        )
        .control(ControlBuilder::new("fw_ctrl").apply(ACL_TABLE).build())
        .entry("fw_ctrl")
        .build()
        .expect("firewall program is well-formed");
    NfModule::new(program).expect("firewall conforms to the NF API")
}

/// Builds the connection-tracking firewall NF.
///
/// * `fw_out` (LPM on `ipv4.src_addr`): trusted inside prefixes map to
///   `allow_out`, which marks the packet outbound ([`FW_DIR_META`] = 1) and
///   digests `(remote, inside)` — the *reversed* address pair — to
///   [`FW_CONN_STREAM`]. Default leaves the mark at 0.
/// * `fw_conn` (exact on `ipv4.src_addr` + `ipv4.dst_addr`): applied only
///   when the packet is not outbound. Learned entries `permit`; the default
///   `deny` sets `sfc.drop_flag` — a default-deny inbound posture.
pub fn conntrack_firewall() -> NfModule {
    let program = ProgramBuilder::new("firewall")
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .header(well_known::tcp())
        .header(well_known::udp())
        .header(sfc_header_type())
        .meta_field(FW_DIR_META, 8)
        .parser(well_known::eth_ip_l4_parser())
        .action(
            ActionBuilder::new("allow_out")
                .set(dejavu_p4ir::FieldRef::meta(FW_DIR_META), Expr::val(1, 8))
                .digest(
                    FW_CONN_STREAM,
                    vec![
                        Expr::field("ipv4", "dst_addr"),
                        Expr::field("ipv4", "src_addr"),
                    ],
                )
                .build(),
        )
        .action(ActionBuilder::new("stay_inbound").build())
        .action(ActionBuilder::new("permit").build())
        .action(
            ActionBuilder::new("deny")
                .set(sfc_field("drop_flag"), Expr::val(1, 1))
                .build(),
        )
        .table(
            TableBuilder::new(FW_OUT_TABLE)
                .key_lpm(fref("ipv4", "src_addr"))
                .action("allow_out")
                .default_action("stay_inbound")
                .size(1024)
                .build(),
        )
        .table(
            TableBuilder::new(FW_CONN_TABLE)
                .key_exact(fref("ipv4", "src_addr"))
                .key_exact(fref("ipv4", "dst_addr"))
                .action("permit")
                .default_action("deny")
                .size(65536)
                .build(),
        )
        .control(
            ControlBuilder::new("fw_ctrl")
                .apply(FW_OUT_TABLE)
                .stmt(Stmt::If {
                    cond: BoolExpr::meta_eq(FW_DIR_META, 0, 8),
                    then_branch: vec![Stmt::Apply(FW_CONN_TABLE.into())],
                    else_branch: vec![],
                })
                .build(),
        )
        .entry("fw_ctrl")
        .build()
        .expect("conntrack firewall program is well-formed");
    NfModule::new(program).expect("conntrack firewall conforms to the NF API")
}

/// Conntrack mode: traffic sourced under `inside_prefix` is trusted
/// outbound (goes in [`FW_OUT_TABLE`]).
pub fn outbound_entry(inside_prefix: (u32, u16)) -> TableEntry {
    TableEntry {
        matches: vec![KeyMatch::Lpm(
            Value::new(u128::from(inside_prefix.0), 32),
            inside_prefix.1,
        )],
        action: "allow_out".into(),
        action_args: vec![],
        priority: 0,
    }
}

/// Conntrack mode: the learned established-connection entry — return
/// traffic from `remote` to `inside` is permitted (goes in
/// [`FW_CONN_TABLE`]).
pub fn conn_entry(remote: u32, inside: u32) -> TableEntry {
    TableEntry {
        matches: vec![
            KeyMatch::Exact(Value::new(u128::from(remote), 32)),
            KeyMatch::Exact(Value::new(u128::from(inside), 32)),
        ],
        action: "permit".into(),
        action_args: vec![],
        priority: 0,
    }
}

/// The learning policy for [`FW_CONN_STREAM`]: each digest
/// `(remote, inside)` becomes the [`FW_CONN_TABLE`] entry
/// [`conn_entry`]`(remote, inside)` permitting the return direction — the
/// digest is the key verbatim, since the table's key order is `(src, dst)`
/// of the *return* direction. Register it with
/// `ControlPlane::register_learn_policy("firewall", FW_CONN_STREAM, ...)`;
/// `dejavu_core::analyze::check_learn_policy` checks it against
/// [`conntrack_firewall`].
pub fn conntrack_learn_policy() -> LearnPolicy {
    LearnPolicy {
        table: FW_CONN_TABLE.into(),
        action: "permit".into(),
        key_map: vec![0, 1],
        arg_map: vec![],
    }
}

/// A deny rule: drop traffic from `src_prefix` to `dst_prefix` with the
/// given protocol (`None` = any) and destination-port range.
pub fn deny_entry(
    src_prefix: (u32, u16),
    dst_prefix: (u32, u16),
    protocol: Option<u8>,
    port_range: (u16, u16),
    priority: i32,
) -> TableEntry {
    TableEntry {
        matches: vec![
            KeyMatch::Lpm(Value::new(u128::from(src_prefix.0), 32), src_prefix.1),
            KeyMatch::Lpm(Value::new(u128::from(dst_prefix.0), 32), dst_prefix.1),
            match protocol {
                Some(p) => KeyMatch::Ternary(Value::new(u128::from(p), 8), Value::new(0xff, 8)),
                None => KeyMatch::Any,
            },
            KeyMatch::Range(
                Value::new(u128::from(port_range.0), 16),
                Value::new(u128::from(port_range.1), 16),
            ),
        ],
        action: "deny".into(),
        action_args: vec![],
        priority,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_asic::{Interpreter, ParsedPacket, TableState};
    use std::collections::BTreeMap;

    fn tcp_packet(dst_port: u16) -> Vec<u8> {
        let mut p = vec![0u8; 54];
        p[12] = 0x08;
        p[14] = 0x45;
        p[22] = 64;
        p[23] = 6;
        p[26..30].copy_from_slice(&[10, 0, 0, 1]);
        p[30..34].copy_from_slice(&[192, 168, 1, 1]);
        p[36..38].copy_from_slice(&dst_port.to_be_bytes());
        p
    }

    fn run(entry: Option<TableEntry>, pkt: &[u8]) -> ParsedPacket {
        let nf = firewall();
        let program = nf.program();
        let interp = Interpreter::new(program);
        let mut tables = TableState::new();
        if let Some(e) = entry {
            tables
                .install(program.tables.get(ACL_TABLE).unwrap(), e)
                .unwrap();
        }
        let mut pp = ParsedPacket::parse(pkt, &program.parser, interp.headers()).unwrap();
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        pp
    }

    #[test]
    fn default_permits() {
        let pp = run(None, &tcp_packet(80));
        // No SFC header on the raw packet → flag write is a no-op; the
        // important part is that nothing marked it for drop.
        assert!(!pp.is_valid("sfc"));
    }

    #[test]
    fn deny_rule_sets_sfc_drop_flag() {
        // Build an SFC-encapsulated packet so the flag has somewhere to go.
        let nf = firewall();
        let program = nf.program();
        let interp = Interpreter::new(program);
        let mut tables = TableState::new();
        tables
            .install(
                program.tables.get(ACL_TABLE).unwrap(),
                deny_entry((0x0a000000, 8), (0, 0), Some(6), (0, 1023), 10),
            )
            .unwrap();
        let mut pp =
            ParsedPacket::parse(&tcp_packet(80), &program.parser, interp.headers()).unwrap();
        pp.add_header(&sfc_header_type(), Some("ipv4"));
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        assert_eq!(pp.get(&sfc_field("drop_flag")).unwrap().raw(), 1);
        // Platform metadata untouched by the NF itself.
        assert!(!meta.contains_key("drop_flag"));
    }

    fn conn_packet(src: u32, dst: u32) -> Vec<u8> {
        let mut p = vec![0u8; 54];
        p[12] = 0x08;
        p[14] = 0x45;
        p[23] = 6;
        p[26..30].copy_from_slice(&src.to_be_bytes());
        p[30..34].copy_from_slice(&dst.to_be_bytes());
        p
    }

    #[test]
    fn conntrack_outbound_digests_and_skips_conn_table() {
        let nf = conntrack_firewall();
        let program = nf.program();
        let interp = Interpreter::new(program);
        let mut tables = TableState::new();
        tables
            .install(
                program.tables.get(FW_OUT_TABLE).unwrap(),
                outbound_entry((0x0a000000, 8)),
            )
            .unwrap();
        let mut pp = ParsedPacket::parse(
            &conn_packet(0x0a000001, 0x08080808),
            &program.parser,
            interp.headers(),
        )
        .unwrap();
        pp.add_header(&sfc_header_type(), Some("ipv4"));
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        // Outbound: not dropped, digest carries (remote, inside).
        assert_eq!(pp.get(&sfc_field("drop_flag")).unwrap().raw(), 0);
        let digests = tables.take_digests();
        assert_eq!(digests.len(), 1);
        assert_eq!(&*digests[0].name, FW_CONN_STREAM);
        let vals: Vec<u128> = digests[0].values.iter().map(|v| v.raw()).collect();
        assert_eq!(vals, vec![0x08080808, 0x0a000001]);
    }

    #[test]
    fn conntrack_inbound_default_deny_until_learned() {
        let nf = conntrack_firewall();
        let program = nf.program();
        let interp = Interpreter::new(program);
        let mut tables = TableState::new();
        tables
            .install(
                program.tables.get(FW_OUT_TABLE).unwrap(),
                outbound_entry((0x0a000000, 8)),
            )
            .unwrap();
        // Unsolicited inbound: denied.
        let mut pp = ParsedPacket::parse(
            &conn_packet(0x08080808, 0x0a000001),
            &program.parser,
            interp.headers(),
        )
        .unwrap();
        pp.add_header(&sfc_header_type(), Some("ipv4"));
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        assert_eq!(pp.get(&sfc_field("drop_flag")).unwrap().raw(), 1);
        // Learn the connection (as the control plane would from the digest).
        tables
            .install(
                program.tables.get(FW_CONN_TABLE).unwrap(),
                conn_entry(0x08080808, 0x0a000001),
            )
            .unwrap();
        let mut pp = ParsedPacket::parse(
            &conn_packet(0x08080808, 0x0a000001),
            &program.parser,
            interp.headers(),
        )
        .unwrap();
        pp.add_header(&sfc_header_type(), Some("ipv4"));
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        assert_eq!(pp.get(&sfc_field("drop_flag")).unwrap().raw(), 0);
    }

    #[test]
    fn conntrack_learn_policy_builds_conn_entry() {
        // The digest the compiled engine emits for an outbound packet.
        let entry = crate::tests::learned_entry(
            &conntrack_firewall(),
            &conntrack_learn_policy(),
            |sw, pipelet| {
                sw.install_entry(pipelet, FW_OUT_TABLE, outbound_entry((0x0a000000, 8)))
                    .unwrap();
            },
            conn_packet(0x0a000001, 0x08080808),
        );
        assert_eq!(entry, conn_entry(0x08080808, 0x0a000001));
        assert_eq!(conntrack_learn_policy().entry(&[Value::new(1, 32)]), None);
    }

    #[test]
    fn port_range_respected() {
        let nf = firewall();
        let program = nf.program();
        let interp = Interpreter::new(program);
        let mut tables = TableState::new();
        tables
            .install(
                program.tables.get(ACL_TABLE).unwrap(),
                deny_entry((0, 0), (0, 0), None, (1000, 2000), 1),
            )
            .unwrap();
        for (port, denied) in [(999u16, false), (1000, true), (2000, true), (2001, false)] {
            let mut pp =
                ParsedPacket::parse(&tcp_packet(port), &program.parser, interp.headers()).unwrap();
            pp.add_header(&sfc_header_type(), Some("ipv4"));
            let mut meta = BTreeMap::new();
            interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
            assert_eq!(
                pp.get(&sfc_field("drop_flag")).unwrap().raw() == 1,
                denied,
                "port {port}"
            );
        }
    }
}
