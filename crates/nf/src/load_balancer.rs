//! The L4 load balancer — the paper's Fig. 4, line for line.
//!
//! ```text
//! control LB_control(inout all_header_t hdr){
//!   bit<32> sessionHash;
//!   Hash<bit<32>>(HashAlgorithm_t.CRC32) hasher;
//!   action computeFiveTupleHash(){ sessionHash = hasher.get({...5-tuple...}); }
//!   action modify_dstIp(bit<32> dip){ hdr.ipv4.dst_addr = dip; }
//!   action toCpu(){ hdr.sfc.toCpuFlag = true; }
//!   table lb_session{ key = {sessionHash:exact;}
//!                     actions = {modify_dstIp; toCpu;}
//!                     const default_action = toCpu(); }
//!   apply{ computeFiveTupleHash(); lb_session.apply(); }
//! }
//! ```
//!
//! On a session-table hit the destination VIP is rewritten to the selected
//! backend; on a miss the packet goes to the control plane, which installs
//! the session and reinjects (§3.1). [`session_entry_for`] computes the
//! same CRC32 the data plane computes, so the control plane can install
//! entries from punted packets.

use dejavu_core::control_plane::LearnPolicy;
use dejavu_core::sfc::{sfc_field, sfc_header_type};
use dejavu_core::NfModule;
use dejavu_p4ir::action::{run_hash, HashAlgorithm};
use dejavu_p4ir::builder::*;
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::well_known;
use dejavu_p4ir::{fref, Expr, FieldRef, Value};

/// The session table name.
pub const SESSION_TABLE: &str = "lb_session";
/// Name of the NF-local hash metadata field.
pub const SESSION_HASH_META: &str = "session_hash";
/// Affinity mode: the pinned-sessions table name.
pub const AFFINITY_TABLE: &str = "lb_affinity";
/// Affinity mode: NF-local scratch field holding the picked backend.
pub const AFFINITY_BACKEND_META: &str = "affinity_backend";
/// Affinity mode: the digest stream pinning new sessions.
pub const AFFINITY_STREAM: &str = "affinity";
/// Affinity mode: the backend-pool register array name.
pub const BACKEND_POOL_REGISTER: &str = "backends";
/// Affinity mode: number of cells in the backend pool (power of two — the
/// session hash is masked to index it).
pub const BACKEND_POOL_SIZE: u32 = 16;

/// The 5-tuple hashed by the load balancer, in hash input order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiveTuple {
    /// IPv4 source.
    pub src_addr: u32,
    /// IPv4 destination (the VIP on first sight).
    pub dst_addr: u32,
    /// IP protocol.
    pub protocol: u8,
    /// L4 source port.
    pub src_port: u16,
    /// L4 destination port.
    pub dst_port: u16,
}

impl FiveTuple {
    /// The CRC32 session hash — bit-identical to the data plane's
    /// `computeFiveTupleHash`.
    pub fn session_hash(&self) -> u32 {
        run_hash(
            HashAlgorithm::Crc32,
            &[
                Value::new(u128::from(self.src_addr), 32),
                Value::new(u128::from(self.dst_addr), 32),
                Value::new(u128::from(self.protocol), 8),
                Value::new(u128::from(self.src_port), 16),
                Value::new(u128::from(self.dst_port), 16),
            ],
        ) as u32
    }
}

/// Builds the load balancer NF.
pub fn load_balancer() -> NfModule {
    let program = ProgramBuilder::new("lb")
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .header(well_known::tcp())
        .header(well_known::udp())
        .header(sfc_header_type())
        .meta_field(SESSION_HASH_META, 32)
        .parser(well_known::eth_ip_l4_parser())
        .action(
            ActionBuilder::new("compute_five_tuple_hash")
                .hash(
                    FieldRef::meta(SESSION_HASH_META),
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
                .set(sfc_field("to_cpu_flag"), Expr::val(1, 1))
                .build(),
        )
        .table(
            TableBuilder::new(SESSION_TABLE)
                .key_exact(FieldRef::meta(SESSION_HASH_META))
                .action("modify_dst_ip")
                .default_action("to_cpu")
                .size(65536)
                .build(),
        )
        .control(
            ControlBuilder::new("lb_ctrl")
                .invoke("compute_five_tuple_hash")
                .apply(SESSION_TABLE)
                .build(),
        )
        .entry("lb_ctrl")
        .build()
        .expect("lb program is well-formed");
    NfModule::new(program).expect("lb conforms to the NF API")
}

/// Builds the connection-affinity load balancer NF.
///
/// Where [`load_balancer`] punts every unknown session to the CPU, this
/// variant keeps forwarding in the data plane: on an `lb_affinity` miss the
/// default `pick_backend` action reads a backend from the
/// [`BACKEND_POOL_REGISTER`] array (indexed by the low bits of the session
/// hash), rewrites the destination, and digests `(hash, backend)` to
/// [`AFFINITY_STREAM`]. The learning loop ([`affinity_learn_policy`]) pins
/// the pair into `lb_affinity`, so the connection stays on its first-picked
/// backend even if the pool is later re-weighted — connection affinity
/// without a punt. Pair with an idle timeout to unpin idle sessions.
pub fn affinity_lb() -> NfModule {
    let program = ProgramBuilder::new("lb")
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .header(well_known::tcp())
        .header(well_known::udp())
        .header(sfc_header_type())
        .meta_field(SESSION_HASH_META, 32)
        .meta_field(AFFINITY_BACKEND_META, 32)
        .register(BACKEND_POOL_REGISTER, 32, BACKEND_POOL_SIZE)
        .parser(well_known::eth_ip_l4_parser())
        .action(
            ActionBuilder::new("compute_five_tuple_hash")
                .hash(
                    FieldRef::meta(SESSION_HASH_META),
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
            ActionBuilder::new("pick_backend")
                .reg_read(
                    FieldRef::meta(AFFINITY_BACKEND_META),
                    BACKEND_POOL_REGISTER,
                    Expr::And(
                        Box::new(Expr::meta(SESSION_HASH_META)),
                        Box::new(Expr::val(u128::from(BACKEND_POOL_SIZE - 1), 32)),
                    ),
                )
                .set(fref("ipv4", "dst_addr"), Expr::meta(AFFINITY_BACKEND_META))
                .digest(
                    AFFINITY_STREAM,
                    vec![
                        Expr::meta(SESSION_HASH_META),
                        Expr::meta(AFFINITY_BACKEND_META),
                    ],
                )
                .build(),
        )
        .table(
            TableBuilder::new(AFFINITY_TABLE)
                .key_exact(FieldRef::meta(SESSION_HASH_META))
                .action("modify_dst_ip")
                .default_action("pick_backend")
                .size(65536)
                .build(),
        )
        .control(
            ControlBuilder::new("lb_ctrl")
                .invoke("compute_five_tuple_hash")
                .apply(AFFINITY_TABLE)
                .build(),
        )
        .entry("lb_ctrl")
        .build()
        .expect("affinity lb program is well-formed");
    NfModule::new(program).expect("affinity lb conforms to the NF API")
}

/// Pins a session hash to a backend (goes in [`AFFINITY_TABLE`]).
pub fn affinity_entry(session_hash: u32, backend_ip: u32) -> TableEntry {
    TableEntry {
        matches: vec![KeyMatch::Exact(Value::new(u128::from(session_hash), 32))],
        action: "modify_dst_ip".into(),
        action_args: vec![Value::new(u128::from(backend_ip), 32)],
        priority: 0,
    }
}

/// The learning policy for [`AFFINITY_STREAM`]: each digest
/// `(hash, backend)` pins the session onto the backend the data plane
/// picked, as the [`AFFINITY_TABLE`] entry [`affinity_entry`]`(hash,
/// backend)`. Register it with
/// `ControlPlane::register_learn_policy("lb", AFFINITY_STREAM, ...)`;
/// `dejavu_core::analyze::check_learn_policy` checks it against
/// [`affinity_lb`].
pub fn affinity_learn_policy() -> LearnPolicy {
    LearnPolicy {
        table: AFFINITY_TABLE.into(),
        action: "modify_dst_ip".into(),
        key_map: vec![0],
        arg_map: vec![1],
    }
}

/// Builds a session entry mapping a 5-tuple's hash to a backend IP.
pub fn session_entry_for(tuple: &FiveTuple, backend_ip: u32) -> TableEntry {
    TableEntry {
        matches: vec![KeyMatch::Exact(Value::new(
            u128::from(tuple.session_hash()),
            32,
        ))],
        action: "modify_dst_ip".into(),
        action_args: vec![Value::new(u128::from(backend_ip), 32)],
        priority: 0,
    }
}

/// Extracts the 5-tuple from raw wire bytes (raw or SFC-encapsulated
/// eth/ipv4/tcp framing) — the parsing step the control plane performs on a
/// punted packet before installing a session.
pub fn five_tuple_of(bytes: &[u8]) -> Option<FiveTuple> {
    if bytes.len() < 14 {
        return None;
    }
    let ether_type = u16::from_be_bytes([bytes[12], bytes[13]]);
    let ip_off = match ether_type {
        0x0800 => 14,
        t if t == dejavu_core::sfc::SFC_ETHERTYPE => 34,
        _ => return None,
    };
    if bytes.len() < ip_off + 24 {
        return None;
    }
    let b = &bytes[ip_off..];
    Some(FiveTuple {
        src_addr: u32::from_be_bytes([b[12], b[13], b[14], b[15]]),
        dst_addr: u32::from_be_bytes([b[16], b[17], b[18], b[19]]),
        protocol: b[9],
        src_port: u16::from_be_bytes([b[20], b[21]]),
        dst_port: u16::from_be_bytes([b[22], b[23]]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_asic::{Interpreter, ParsedPacket, TableState};
    use std::collections::BTreeMap;

    fn tuple() -> FiveTuple {
        FiveTuple {
            src_addr: 0x0a000001,
            dst_addr: 0xcb007150, // 203.0.113.80 (VIP)
            protocol: 6,
            src_port: 12345,
            dst_port: 80,
        }
    }

    fn tcp_packet(t: &FiveTuple) -> Vec<u8> {
        let mut p = vec![0u8; 54];
        p[12] = 0x08;
        p[14] = 0x45;
        p[22] = 64;
        p[23] = t.protocol;
        p[26..30].copy_from_slice(&t.src_addr.to_be_bytes());
        p[30..34].copy_from_slice(&t.dst_addr.to_be_bytes());
        p[34..36].copy_from_slice(&t.src_port.to_be_bytes());
        p[36..38].copy_from_slice(&t.dst_port.to_be_bytes());
        p
    }

    #[test]
    fn control_plane_hash_matches_data_plane() {
        let nf = load_balancer();
        let program = nf.program();
        let interp = Interpreter::new(program);
        let mut tables = TableState::new();
        let mut pp =
            ParsedPacket::parse(&tcp_packet(&tuple()), &program.parser, interp.headers()).unwrap();
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        assert_eq!(meta[SESSION_HASH_META].raw() as u32, tuple().session_hash());
    }

    #[test]
    fn hit_rewrites_miss_punts() {
        let nf = load_balancer();
        let program = nf.program();
        let interp = Interpreter::new(program);
        let mut tables = TableState::new();
        // Miss: sfc.to_cpu_flag requested (via header when present).
        let mut pp =
            ParsedPacket::parse(&tcp_packet(&tuple()), &program.parser, interp.headers()).unwrap();
        pp.add_header(&sfc_header_type(), Some("ipv4"));
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        assert_eq!(pp.get(&sfc_field("to_cpu_flag")).unwrap().raw(), 1);
        // Install the session; the same flow now hits and rewrites.
        tables
            .install(
                program.tables.get(SESSION_TABLE).unwrap(),
                session_entry_for(&tuple(), 0x0a000063),
            )
            .unwrap();
        let mut pp =
            ParsedPacket::parse(&tcp_packet(&tuple()), &program.parser, interp.headers()).unwrap();
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        assert_eq!(pp.get(&fref("ipv4", "dst_addr")).unwrap().raw(), 0x0a000063);
    }

    #[test]
    fn affinity_miss_picks_from_pool_and_digests() {
        let nf = affinity_lb();
        let program = nf.program();
        let interp = Interpreter::new(program);
        let mut tables = TableState::new();
        let pool = program.registers.get(BACKEND_POOL_REGISTER).unwrap();
        for i in 0..BACKEND_POOL_SIZE {
            tables.register_write(pool, i, u128::from(0x0a00_0060 + i));
        }
        let t = tuple();
        let slot = t.session_hash() & (BACKEND_POOL_SIZE - 1);
        let expected = u128::from(0x0a00_0060 + slot);
        let mut pp =
            ParsedPacket::parse(&tcp_packet(&t), &program.parser, interp.headers()).unwrap();
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        // Destination rewritten to the pool pick — no punt.
        assert_eq!(pp.get(&fref("ipv4", "dst_addr")).unwrap().raw(), expected);
        // Digest pins (hash, backend).
        let digests = tables.take_digests();
        assert_eq!(digests.len(), 1);
        assert_eq!(&*digests[0].name, AFFINITY_STREAM);
        let vals: Vec<u128> = digests[0].values.iter().map(|v| v.raw()).collect();
        assert_eq!(vals, vec![u128::from(t.session_hash()), expected]);
    }

    #[test]
    fn pinned_session_survives_pool_rewrite() {
        let nf = affinity_lb();
        let program = nf.program();
        let interp = Interpreter::new(program);
        let mut tables = TableState::new();
        let t = tuple();
        tables
            .install(
                program.tables.get(AFFINITY_TABLE).unwrap(),
                affinity_entry(t.session_hash(), 0x0a000063),
            )
            .unwrap();
        // Re-point the whole pool elsewhere; the pinned session must not move.
        let pool = program.registers.get(BACKEND_POOL_REGISTER).unwrap();
        for i in 0..BACKEND_POOL_SIZE {
            tables.register_write(pool, i, 0x0a00_00ff);
        }
        let mut pp =
            ParsedPacket::parse(&tcp_packet(&t), &program.parser, interp.headers()).unwrap();
        let mut meta = BTreeMap::new();
        interp.execute(&mut pp, &mut meta, &mut tables).unwrap();
        assert_eq!(pp.get(&fref("ipv4", "dst_addr")).unwrap().raw(), 0x0a000063);
        // Hit path digests nothing.
        assert!(tables.take_digests().is_empty());
    }

    #[test]
    fn affinity_learn_policy_pins_pair() {
        // The digest the compiled engine emits when a new session misses.
        let t = tuple();
        let pool = |slot: u32| 0x0a00_0060 + slot;
        let entry = crate::tests::learned_entry(
            &affinity_lb(),
            &affinity_learn_policy(),
            |sw, pipelet| {
                for i in 0..BACKEND_POOL_SIZE {
                    sw.register_store(pipelet, BACKEND_POOL_REGISTER, i, u128::from(pool(i)))
                        .unwrap();
                }
            },
            tcp_packet(&t),
        );
        let slot = t.session_hash() & (BACKEND_POOL_SIZE - 1);
        assert_eq!(entry, affinity_entry(t.session_hash(), pool(slot)));
        assert_eq!(affinity_learn_policy().entry(&[]), None);
    }

    #[test]
    fn five_tuple_extraction_raw_and_encapsulated() {
        let t = tuple();
        let raw = tcp_packet(&t);
        assert_eq!(five_tuple_of(&raw), Some(t));
        // Encapsulated: splice a 20-byte SFC header after ethernet.
        let mut enc = Vec::new();
        enc.extend_from_slice(&raw[..12]);
        enc.extend_from_slice(&dejavu_core::sfc::SFC_ETHERTYPE.to_be_bytes());
        enc.extend_from_slice(&dejavu_core::SfcHeader::for_path(1).to_bytes());
        enc.extend_from_slice(&raw[14..]);
        assert_eq!(five_tuple_of(&enc), Some(t));
        // Garbage.
        assert_eq!(five_tuple_of(&[0u8; 10]), None);
    }

    #[test]
    fn distinct_tuples_distinct_hashes() {
        let a = tuple();
        let mut b = tuple();
        b.src_port = 12346;
        assert_ne!(a.session_hash(), b.session_hash());
    }
}
