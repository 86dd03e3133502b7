//! Differential property test: the compiled fast path and the reference
//! interpreter are observationally identical.
//!
//! For arbitrary generated programs (random table key kinds, action
//! bodies with arithmetic / hashing / register access / drops, guarded
//! control flow), arbitrary table entries, and arbitrary packet
//! sequences, three switches loaded with the same program — one in
//! [`ExecMode::Reference`], one in [`ExecMode::Compiled`], and one driven
//! through the pooled zero-allocation path ([`Switch::inject_buf`]) — must
//! agree on *everything* observable: traversals (events, dispositions,
//! final bytes, latency, recirculation/resubmission counts, mirror
//! copies), table hit/miss counters, and register state. The pooled
//! engine produces no event trace, so its column is compared on the
//! trace-free surface (disposition, bytes, latency, counts, mirrors,
//! state, telemetry).

use proptest::prelude::*;

use dejavu_asic::{ExecMode, InjectedPacket, PipeletId, Switch, TofinoProfile};
use dejavu_p4ir::action::HashAlgorithm;
use dejavu_p4ir::builder::*;
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::{fref, well_known, Expr, FieldRef, Program, Value};

/// Key kinds a generated table may use, with the field each applies to.
#[derive(Debug, Clone, Copy)]
enum KeyKind {
    ExactMac,
    LpmDst,
    TernaryTtl,
    ExactMeta,
}

/// One generated table: a key kind plus entries described as small
/// integers that the builder maps into the matching `KeyMatch` shape.
#[derive(Debug, Clone)]
struct GenTable {
    kind: KeyKind,
    /// `(key_seed, action_idx, priority + 4)` per entry — the priority is
    /// stored biased by +4 so the generator only deals in unsigned ranges.
    entries: Vec<(u8, u8, u8)>,
    default_action: u8,
    guarded: bool,
}

const ACTION_NAMES: [&str; 6] = ["fwd", "ttl_bump", "mix", "count", "deny", "pass"];

fn action_name(idx: u8) -> &'static str {
    ACTION_NAMES[usize::from(idx) % ACTION_NAMES.len()]
}

/// Arguments each action expects (only `fwd` takes one: the port).
fn action_args(idx: u8, key_seed: u8) -> Vec<Value> {
    if action_name(idx) == "fwd" {
        // Ports 0..8 are valid Ethernet ports on the wedge profile; 9 maps
        // to a real port too. Keep them small so packets actually emit.
        vec![Value::new(u128::from(key_seed % 8), 16)]
    } else {
        Vec::new()
    }
}

fn key_match(kind: KeyKind, seed: u8) -> KeyMatch {
    match kind {
        KeyKind::ExactMac => KeyMatch::Exact(Value::new(u128::from(seed % 16), 48)),
        KeyKind::LpmDst => KeyMatch::Lpm(
            Value::new(0x0a00_0000 | (u128::from(seed % 4) << 16), 32),
            8 + u16::from(seed % 3) * 8,
        ),
        KeyKind::TernaryTtl => KeyMatch::Ternary(
            Value::new(u128::from(seed % 4), 8),
            Value::new(if seed.is_multiple_of(5) { 0 } else { 0x0f }, 8),
        ),
        KeyKind::ExactMeta => KeyMatch::Exact(Value::new(u128::from(seed % 4), 16)),
    }
}

fn build_program(tables: &[GenTable]) -> Program {
    let mut b = ProgramBuilder::new("diff")
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .meta_field("m0", 16)
        .meta_field("m1", 16)
        .register("r0", 32, 8)
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
        .action(
            ActionBuilder::new("ttl_bump")
                .set(
                    fref("ipv4", "ttl"),
                    Expr::Sub(
                        Box::new(Expr::field("ipv4", "ttl")),
                        Box::new(Expr::val(1, 8)),
                    ),
                )
                .set(FieldRef::meta("egress_spec"), Expr::val(2, 16))
                .build(),
        )
        .action(
            ActionBuilder::new("mix")
                .hash(
                    FieldRef::meta("m1"),
                    HashAlgorithm::Crc16,
                    vec![
                        Expr::field("ipv4", "src_addr"),
                        Expr::field("ipv4", "dst_addr"),
                    ],
                )
                .set(
                    FieldRef::meta("m0"),
                    Expr::Add(
                        Box::new(Expr::meta("m0")),
                        Box::new(Expr::And(
                            Box::new(Expr::meta("m1")),
                            Box::new(Expr::val(0x3, 16)),
                        )),
                    ),
                )
                .set(FieldRef::meta("egress_spec"), Expr::val(3, 16))
                .build(),
        )
        .action(
            ActionBuilder::new("count")
                .reg_read(
                    FieldRef::meta("m0"),
                    "r0",
                    Expr::And(
                        Box::new(Expr::field("ipv4", "dst_addr")),
                        Box::new(Expr::val(0x7, 32)),
                    ),
                )
                .reg_write(
                    "r0",
                    Expr::And(
                        Box::new(Expr::field("ipv4", "dst_addr")),
                        Box::new(Expr::val(0x7, 32)),
                    ),
                    Expr::Add(Box::new(Expr::meta("m0")), Box::new(Expr::val(1, 32))),
                )
                .set(FieldRef::meta("egress_spec"), Expr::val(4, 16))
                .build(),
        )
        .action(ActionBuilder::new("deny").drop_packet().build())
        .action(ActionBuilder::new("pass").build());

    let mut control = ControlBuilder::new("ingress");
    for (i, t) in tables.iter().enumerate() {
        let mut tb = TableBuilder::new(format!("t{i}"));
        tb = match t.kind {
            KeyKind::ExactMac => tb.key_exact(fref("ethernet", "dst_mac")),
            KeyKind::LpmDst => tb.key_lpm(fref("ipv4", "dst_addr")),
            KeyKind::TernaryTtl => tb.key_ternary(fref("ipv4", "ttl")),
            KeyKind::ExactMeta => tb.key_exact(FieldRef::meta("m0")),
        };
        for name in ACTION_NAMES {
            tb = tb.action(name);
        }
        tb = tb.default_action(action_name(t.default_action));
        if action_name(t.default_action) == "fwd" {
            tb = tb.default_args(vec![Value::new(1, 16)]);
        }
        b = b.table(tb.build());
        if t.guarded {
            control = control.stmt(dejavu_p4ir::Stmt::If {
                cond: dejavu_p4ir::BoolExpr::Valid("ipv4".into()),
                then_branch: vec![dejavu_p4ir::Stmt::Apply(format!("t{i}"))],
                else_branch: vec![dejavu_p4ir::Stmt::Do("deny".into())],
            });
        } else {
            control = control.apply(&format!("t{i}"));
        }
    }
    b.control(control.build())
        .entry("ingress")
        .build()
        .expect("generated program validates")
}

fn arb_table() -> impl Strategy<Value = GenTable> {
    (
        prop_oneof![
            Just(KeyKind::ExactMac),
            Just(KeyKind::LpmDst),
            Just(KeyKind::TernaryTtl),
            Just(KeyKind::ExactMeta),
        ],
        proptest::collection::vec((any::<u8>(), any::<u8>(), 0u8..8), 0..8),
        any::<u8>(),
        any::<bool>(),
    )
        .prop_map(|(kind, entries, default_action, guarded)| GenTable {
            kind,
            entries,
            default_action,
            guarded,
        })
}

/// An eth+ipv4 packet with small-domain fields so table entries hit often.
fn gen_packet(mac: u8, dst: u8, ttl: u8, ipv4: bool, payload: u8) -> Vec<u8> {
    if ipv4 {
        let mut p = dejavu_traffic::PacketBuilder::udp()
            .src_ip(0x0a00_0001)
            .dst_ip(0x0a00_0000 | (u32::from(dst % 4) << 16) | u32::from(dst))
            .src_port(1000)
            .dst_port(53)
            .ttl(ttl % 4)
            .payload(&vec![0xab; usize::from(payload % 32)])
            .build();
        p[..6].copy_from_slice(&u64::from(mac % 16).to_be_bytes()[2..]);
        p
    } else {
        let mut p = vec![0u8; 14 + usize::from(payload % 32)];
        p[..6].copy_from_slice(&u64::from(mac % 16).to_be_bytes()[2..]);
        p[12] = 0x86;
        p[13] = 0xdd;
        p
    }
}

fn testbed(program: &Program, tables: &[GenTable], mode: ExecMode) -> Switch {
    let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
    sw.set_exec_mode(mode);
    sw.set_mirror_port(Some(30));
    sw.set_telemetry(true);
    sw.load_program(PipeletId::ingress(0), program.clone())
        .unwrap();
    for (i, t) in tables.iter().enumerate() {
        for &(key_seed, action_idx, priority) in &t.entries {
            // Installs may legitimately fail (table full); both switches
            // must agree, so ignore the result — it is deterministic.
            let _ = sw.install_entry(
                PipeletId::ingress(0),
                &format!("t{i}"),
                TableEntry {
                    matches: vec![key_match(t.kind, key_seed)],
                    action: action_name(action_idx).to_string(),
                    action_args: action_args(action_idx, key_seed),
                    priority: i32::from(priority) - 4,
                },
            );
        }
    }
    sw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn compiled_engine_matches_reference(
        tables in proptest::collection::vec(arb_table(), 1..4),
        packets in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), 0u8..5, any::<u8>()),
            1..12,
        ),
    ) {
        let program = build_program(&tables);
        let mut reference = testbed(&program, &tables, ExecMode::Reference);
        let mut compiled = testbed(&program, &tables, ExecMode::Compiled);
        let mut pooled = testbed(&program, &tables, ExecMode::Compiled);

        for (k, &(mac, dst, ttl, ip_sel, payload)) in packets.iter().enumerate() {
            // ~80% of packets are IPv4, the rest bare Ethernet.
            let pkt = gen_packet(mac, dst, ttl, ip_sel > 0, payload);
            let r = reference.inject(InjectedPacket::new(pkt.clone(), 0));
            let c = compiled.inject(InjectedPacket::new(pkt.clone(), 0));
            let mut buf = pkt;
            let p = pooled.inject_buf(&mut buf, 0);
            match (r, c) {
                (Ok(rt), Ok(ct)) => {
                    prop_assert_eq!(&rt, &ct, "packet {} diverged", k);
                    let pb = p.expect("pooled path accepted what the trace paths accepted");
                    prop_assert_eq!(ct.disposition, pb.disposition, "packet {} disposition", k);
                    prop_assert_eq!(ct.recirculations, pb.recirculations, "packet {} recircs", k);
                    prop_assert_eq!(ct.resubmissions, pb.resubmissions, "packet {} resubs", k);
                    prop_assert!((ct.latency_ns - pb.latency_ns).abs() < 1e-9,
                        "packet {} latency: {} vs {}", k, ct.latency_ns, pb.latency_ns);
                    prop_assert_eq!(&ct.final_bytes, &buf, "packet {} final bytes", k);
                    prop_assert_eq!(&ct.mirrored, &pooled.drain_mirrored(),
                        "packet {} mirror copies", k);
                }
                (Err(_), Err(_)) => prop_assert!(p.is_err(), "pooled path accepted a reject"),
                (r, c) => prop_assert!(false, "packet {}: reference {:?} vs compiled {:?}", k, r, c),
            }
        }

        // Register state must agree cell-for-cell.
        for idx in 0..8u32 {
            let rr = reference.register_peek(PipeletId::ingress(0), "r0", idx);
            prop_assert_eq!(
                rr,
                compiled.register_peek(PipeletId::ingress(0), "r0", idx),
                "register r0[{}] diverged", idx
            );
            prop_assert_eq!(
                rr,
                pooled.register_peek(PipeletId::ingress(0), "r0", idx),
                "pooled register r0[{}] diverged", idx
            );
        }

        // Hit/miss counters must agree table-for-table.
        for i in 0..tables.len() {
            let name = format!("t{i}");
            let rc = reference.tables(PipeletId::ingress(0)).unwrap().counters(&name);
            prop_assert_eq!(
                rc,
                compiled.tables(PipeletId::ingress(0)).unwrap().counters(&name),
                "counters for {} diverged", &name
            );
            prop_assert_eq!(
                rc,
                pooled.tables(PipeletId::ingress(0)).unwrap().counters(&name),
                "pooled counters for {} diverged", &name
            );
        }

        // Telemetry must agree series-for-series: per-pipelet packets and
        // table applies, port tx/rx, dispositions, recirc-depth buckets,
        // latency histograms, and the folded table hit/miss counters.
        let rsnap = reference.metrics_snapshot();
        prop_assert_eq!(
            &rsnap,
            &compiled.metrics_snapshot(),
            "metrics snapshots diverged"
        );
        prop_assert_eq!(
            &rsnap,
            &pooled.metrics_snapshot(),
            "pooled metrics snapshot diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Flow-state differential: digest emission and entry aging.
// ---------------------------------------------------------------------------

/// A minimal learning program: misses in the `flows` table digest the flow
/// identity; hits stay silent. Entries age under an idle timeout.
fn flow_program() -> Program {
    ProgramBuilder::new("flow")
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
            ActionBuilder::new("learn")
                .digest(
                    "d0",
                    vec![
                        Expr::field("ipv4", "src_addr"),
                        Expr::field("ipv4", "dst_addr"),
                    ],
                )
                .set(FieldRef::meta("egress_spec"), Expr::val(1, 16))
                .build(),
        )
        .action(
            ActionBuilder::new("keep")
                .set(FieldRef::meta("egress_spec"), Expr::val(2, 16))
                .build(),
        )
        .table(
            TableBuilder::new("flows")
                .key_exact(fref("ipv4", "dst_addr"))
                .action("keep")
                .default_action("learn")
                .size(64)
                .build(),
        )
        .control(ControlBuilder::new("ingress").apply("flows").build())
        .entry("ingress")
        .build()
        .expect("flow program validates")
}

fn flow_dst(seed: u8) -> u32 {
    0x0a00_0000 | (u32::from(seed % 8) << 8) | u32::from(seed % 8)
}

fn flow_packet(src: u8, dst: u8) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::udp()
        .src_ip(0x0a00_0100 | u32::from(src))
        .dst_ip(flow_dst(dst))
        .src_port(1000)
        .dst_port(53)
        .build()
}

fn flow_testbed(program: &Program, seeds: &[u8], timeout: u64, mode: ExecMode) -> Switch {
    let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
    sw.set_exec_mode(mode);
    sw.set_telemetry(true);
    sw.load_program(PipeletId::ingress(0), program.clone())
        .unwrap();
    sw.set_idle_timeout(PipeletId::ingress(0), "flows", Some(timeout))
        .unwrap();
    for &s in seeds {
        let _ = sw.install_entry(
            PipeletId::ingress(0),
            "flows",
            TableEntry {
                matches: vec![KeyMatch::Exact(Value::new(u128::from(flow_dst(s)), 32))],
                action: "keep".to_string(),
                action_args: vec![],
                priority: 0,
            },
        );
    }
    sw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Both engines must agree on the full flow-state surface: digest
    /// stream order and content, eviction sweeps, post-aging table
    /// entries, counters, and telemetry.
    #[test]
    fn digest_and_aging_match_reference(
        seeds in proptest::collection::vec(any::<u8>(), 0..6),
        // (op selector, argument): op % 4 == 0 advances time, else injects.
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..24),
        timeout in 1u64..4,
    ) {
        let program = flow_program();
        let pid = PipeletId::ingress(0);
        let mut reference = flow_testbed(&program, &seeds, timeout, ExecMode::Reference);
        let mut compiled = flow_testbed(&program, &seeds, timeout, ExecMode::Compiled);
        let mut pooled = flow_testbed(&program, &seeds, timeout, ExecMode::Compiled);

        for (k, &(op, a)) in ops.iter().enumerate() {
            if op % 4 == 0 {
                let ticks = u64::from(a % 3) + 1;
                let re = reference.advance_time(ticks);
                let ce = compiled.advance_time(ticks);
                let pe = pooled.advance_time(ticks);
                prop_assert_eq!(&re, &ce, "step {}: eviction sweeps diverged", k);
                prop_assert_eq!(&re, &pe, "step {}: pooled eviction sweeps diverged", k);
            } else {
                let pkt = flow_packet(op, a);
                let r = reference.inject(InjectedPacket::new(pkt.clone(), 0));
                let c = compiled.inject(InjectedPacket::new(pkt.clone(), 0));
                let mut buf = pkt;
                let p = pooled.inject_buf(&mut buf, 0);
                match (r, c) {
                    (Ok(rt), Ok(ct)) => {
                        prop_assert_eq!(&rt, &ct, "step {} diverged", k);
                        let pb = p.expect("pooled path accepted what the trace paths accepted");
                        prop_assert_eq!(ct.disposition, pb.disposition, "step {} disposition", k);
                        prop_assert_eq!(&ct.final_bytes, &buf, "step {} final bytes", k);
                    }
                    (Err(_), Err(_)) => prop_assert!(p.is_err(), "pooled path accepted a reject"),
                    (r, c) => prop_assert!(
                        false, "step {}: reference {:?} vs compiled {:?}", k, r, c
                    ),
                }
            }
        }

        // Digest queues must agree record-for-record, in order — across the
        // interpreter, the compiled engine, and the pooled zero-alloc path
        // (digest emission is the learn path and must survive pooling).
        let rd = reference.drain_digests();
        prop_assert_eq!(
            &rd,
            &compiled.drain_digests(),
            "digest streams diverged"
        );
        prop_assert_eq!(
            &rd,
            &pooled.drain_digests(),
            "pooled digest stream diverged"
        );
        // Post-aging table state must agree entry-for-entry.
        let re = reference.tables(pid).unwrap().entries("flows");
        prop_assert_eq!(
            &re,
            &compiled.tables(pid).unwrap().entries("flows"),
            "surviving entries diverged"
        );
        prop_assert_eq!(
            &re,
            &pooled.tables(pid).unwrap().entries("flows"),
            "pooled surviving entries diverged"
        );
        let rc = reference.tables(pid).unwrap().counters("flows");
        prop_assert_eq!(
            rc,
            compiled.tables(pid).unwrap().counters("flows"),
            "counters diverged"
        );
        prop_assert_eq!(
            rc,
            pooled.tables(pid).unwrap().counters("flows"),
            "pooled counters diverged"
        );
        let rev = reference.tables(pid).unwrap().evictions("flows");
        prop_assert_eq!(
            rev,
            compiled.tables(pid).unwrap().evictions("flows"),
            "eviction counts diverged"
        );
        prop_assert_eq!(
            rev,
            pooled.tables(pid).unwrap().evictions("flows"),
            "pooled eviction counts diverged"
        );
        let rsnap = reference.metrics_snapshot();
        prop_assert_eq!(
            &rsnap,
            &compiled.metrics_snapshot(),
            "metrics snapshots diverged"
        );
        prop_assert_eq!(
            &rsnap,
            &pooled.metrics_snapshot(),
            "pooled metrics snapshot diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Pool exhaustion: a starved run-to-completion executor must degrade
// gracefully — backpressure stalls without loss, drop counts every loss,
// and neither path panics or falls back to allocation.
// ---------------------------------------------------------------------------

#[test]
fn pool_exhaustion_backpressures_or_drops_never_panics() {
    use dejavu_asic::{ExhaustionPolicy, InjectedPacket, RtcConfig, RtcSession};

    let program = flow_program();
    let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
    sw.set_telemetry(true);
    sw.load_program(PipeletId::ingress(0), program).unwrap();
    let packets: Vec<InjectedPacket> = (0..96)
        .map(|i| InjectedPacket::new(flow_packet(i as u8, (i % 7) as u8), 0))
        .collect();

    // Starved pool + backpressure: every packet still gets through.
    let bp = RtcSession::new(
        &sw,
        RtcConfig {
            workers: 2,
            ring_depth: 2,
            pool_packets: 1,
            exhaustion: ExhaustionPolicy::Backpressure,
            ..RtcConfig::default()
        },
    )
    .run(&packets);
    assert_eq!(bp.injected, 96);
    assert_eq!(bp.pool_dropped, 0);
    assert_eq!(bp.emitted + bp.dropped + bp.to_cpu, 96);

    // Starved pool + drop policy on a single hot shard: losses are counted
    // in the report and surfaced as the pool_exhausted telemetry series.
    let one_flow: Vec<InjectedPacket> = vec![InjectedPacket::new(flow_packet(1, 1), 0); 64];
    let dr = RtcSession::new(
        &sw,
        RtcConfig {
            workers: 1,
            ring_depth: 64,
            pool_packets: 1,
            exhaustion: ExhaustionPolicy::Drop,
            ..RtcConfig::default()
        },
    )
    .run(&one_flow);
    assert_eq!(dr.injected + dr.pool_dropped, 64);
    assert_eq!(dr.pool_exhausted, dr.pool_dropped);
    assert_eq!(dr.metrics.counter("pool_exhausted"), dr.pool_dropped);
}

// ---------------------------------------------------------------------------
// View semantics: the compiled engine reads fields from the wire on demand
// and patches only written fields over the wire bytes at deparse. Each case
// pins one corner of that view against the interpreter's materialise-all
// model, on seeded packets, byte for byte across all three engines.
// ---------------------------------------------------------------------------

/// A 4-byte tag with sub-byte fields; stackable (`next == 0x8100` chains a
/// second instance) so one packet can carry two instances of the type.
fn tag_header() -> dejavu_p4ir::HeaderType {
    dejavu_p4ir::HeaderType::new("tag", vec![("kind", 4u16), ("id", 12), ("next", 16)]).unwrap()
}

/// eth → (0x8100: tag → (0x8100: tag)) | (0x0800: ipv4); every action runs
/// from the control directly and forwards to port 1.
fn view_program(action: ActionBuilder, control: ControlBuilder) -> Program {
    ProgramBuilder::new("view")
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .header(tag_header())
        .meta_field("m0", 16)
        .parser(
            ParserBuilder::new()
                .node("eth", "ethernet", 0)
                .node("ip", "ipv4", 14)
                .node("tag0", "tag", 14)
                .node("tag1", "tag", 18)
                .select(
                    "eth",
                    "ether_type",
                    16,
                    vec![(0x0800, "ip"), (0x8100, "tag0")],
                )
                .select("tag0", "next", 16, vec![(0x8100, "tag1")])
                .accept("tag1")
                .accept("ip")
                .start("eth"),
        )
        .action(
            action
                .set(FieldRef::meta("egress_spec"), Expr::val(1, 16))
                .build(),
        )
        .action(ActionBuilder::new("nop").build())
        .table(
            // Keyed on fields the cases write: the key read goes through
            // the same view as expression reads.
            TableBuilder::new("probe")
                .key_exact(fref("ipv4", "ttl"))
                .key_exact(fref("tag", "id"))
                .action("nop")
                .default_action("nop")
                .build(),
        )
        .control(control.apply("probe").build())
        .entry("ingress")
        .build()
        .expect("view program validates")
}

/// Seeded random bytes with the ether-type (and tag chain) forced so the
/// parser takes the wanted path: `tags` stacked tag headers, else IPv4 when
/// `ipv4`, else bare Ethernet.
fn view_packet(rng: &mut rand::rngs::StdRng, tags: usize, ipv4: bool) -> Vec<u8> {
    use rand::Rng;
    let len = 54 + rng.gen_range(0usize..40);
    let mut p: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
    let ether_type: u16 = match (tags, ipv4) {
        (0, true) => 0x0800,
        (0, false) => 0x88b5,
        _ => 0x8100,
    };
    p[12..14].copy_from_slice(&ether_type.to_be_bytes());
    for t in 0..tags {
        let next: u16 = if t + 1 < tags { 0x8100 } else { 0x9999 };
        p[16 + 4 * t..18 + 4 * t].copy_from_slice(&next.to_be_bytes());
    }
    p
}

/// Runs `packets` through a reference, a compiled and a pooled switch loaded
/// with `programs`, requires agreement on everything observable, and
/// returns each packet's final bytes.
fn view_engines_agree(programs: &[(PipeletId, Program)], packets: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let testbed = |mode| {
        let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
        sw.set_exec_mode(mode);
        sw.set_telemetry(true);
        for (pipelet, program) in programs {
            sw.load_program(*pipelet, program.clone()).unwrap();
        }
        sw
    };
    let mut reference = testbed(ExecMode::Reference);
    let mut compiled = testbed(ExecMode::Compiled);
    let mut pooled = testbed(ExecMode::Compiled);
    let mut out = Vec::new();
    for (k, pkt) in packets.iter().enumerate() {
        let rt = reference
            .inject(InjectedPacket::new(pkt.clone(), 0))
            .unwrap();
        let ct = compiled
            .inject(InjectedPacket::new(pkt.clone(), 0))
            .unwrap();
        let mut buf = pkt.clone();
        let pb = pooled.inject_buf(&mut buf, 0).unwrap();
        assert_eq!(rt, ct, "packet {k}: compiled diverged from reference");
        assert_eq!(ct.disposition, pb.disposition, "packet {k} disposition");
        assert_eq!(ct.recirculations, pb.recirculations, "packet {k} recircs");
        assert_eq!(ct.final_bytes, buf, "packet {k}: pooled final bytes");
        out.push(rt.final_bytes);
    }
    let snap = reference.metrics_snapshot();
    assert_eq!(snap, compiled.metrics_snapshot(), "compiled metrics");
    assert_eq!(snap, pooled.metrics_snapshot(), "pooled metrics");
    out
}

fn view_run(program: Program, packets: &[Vec<u8>]) -> Vec<Vec<u8>> {
    view_engines_agree(&[(PipeletId::ingress(0), program)], packets)
}

fn seeded(seed: u64) -> rand::rngs::StdRng {
    <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed)
}

fn sub(a: Expr, b: Expr) -> Expr {
    Expr::Sub(Box::new(a), Box::new(b))
}

fn add(a: Expr, b: Expr) -> Expr {
    Expr::Add(Box::new(a), Box::new(b))
}

#[test]
fn view_write_then_read_in_one_action() {
    let action = ActionBuilder::new("act")
        .set(
            fref("ipv4", "ttl"),
            sub(Expr::field("ipv4", "ttl"), Expr::val(1, 8)),
        )
        // Reads the value written one op earlier, not the wire's.
        .set(fref("ipv4", "identification"), Expr::field("ipv4", "ttl"))
        // Sub-byte neighbours: a 3-bit write feeding a 13-bit rewrite.
        .set(fref("ipv4", "flags"), Expr::val(5, 3))
        .set(
            fref("ipv4", "frag_offset"),
            add(
                Expr::field("ipv4", "frag_offset"),
                Expr::field("ipv4", "flags"),
            ),
        );
    let program = view_program(action, ControlBuilder::new("ingress").invoke("act"));
    let mut rng = seeded(0xd1ff_0001);
    let packets: Vec<_> = (0..32).map(|_| view_packet(&mut rng, 0, true)).collect();
    for (inp, out) in packets.iter().zip(view_run(program, &packets)) {
        let ttl = inp[22].wrapping_sub(1);
        assert_eq!(out[22], ttl);
        assert_eq!(out[18..20], [0, ttl], "identification = written ttl");
        let frag = (u16::from_be_bytes([inp[20], inp[21]]) & 0x1fff).wrapping_add(5) & 0x1fff;
        assert_eq!(u16::from_be_bytes([out[20], out[21]]), 5 << 13 | frag);
    }
}

#[test]
fn view_written_field_never_read() {
    // `dscp` is written and nothing — no op, key or branch — reads the
    // header it sits in: only its six bits may change.
    let action = ActionBuilder::new("act").set(fref("ipv4", "dscp"), Expr::val(0x2a, 6));
    let program = ProgramBuilder::new("blind")
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
            action
                .set(FieldRef::meta("egress_spec"), Expr::val(1, 16))
                .build(),
        )
        .control(ControlBuilder::new("ingress").invoke("act").build())
        .entry("ingress")
        .build()
        .unwrap();
    let mut rng = seeded(0xd1ff_0002);
    let packets: Vec<_> = (0..32).map(|_| view_packet(&mut rng, 0, true)).collect();
    for (inp, out) in packets.iter().zip(view_run(program, &packets)) {
        let mut want = inp.clone();
        want[15] = 0x2a << 2 | (inp[15] & 0x3);
        assert_eq!(out, want);
    }
}

#[test]
fn view_added_header_deparses_unwritten_fields_as_zero() {
    let action = ActionBuilder::new("act")
        .add_header("tag", Some("ipv4"))
        .set(fref("tag", "id"), Expr::val(0xabc, 12))
        // An added header has no wire bytes: its unwritten fields read 0.
        .set(
            fref("ethernet", "src_mac"),
            add(Expr::field("tag", "next"), Expr::val(7, 48)),
        )
        .set(fref("ethernet", "ether_type"), Expr::val(0x8100, 16));
    let program = view_program(action, ControlBuilder::new("ingress").invoke("act"));
    let mut rng = seeded(0xd1ff_0003);
    let packets: Vec<_> = (0..32).map(|_| view_packet(&mut rng, 0, true)).collect();
    for (inp, out) in packets.iter().zip(view_run(program, &packets)) {
        assert_eq!(out.len(), inp.len() + 4);
        assert_eq!(out[6..12], [0, 0, 0, 0, 0, 7]);
        assert_eq!(out[14..18], [0x0a, 0xbc, 0, 0], "kind and next stay zero");
        assert_eq!(out[18..], inp[14..], "ipv4 and payload follow verbatim");
    }
}

#[test]
fn view_checksum_update_after_one_dirty_field_and_after_none() {
    // Dirty: the checksum runs over wire bytes plus one overlay field.
    // Clean: it is the first thing to touch the header.
    for dirty in [true, false] {
        let mut action = ActionBuilder::new("act");
        if dirty {
            action = action.set(
                fref("ipv4", "ttl"),
                sub(Expr::field("ipv4", "ttl"), Expr::val(1, 8)),
            );
        }
        let action = action
            .update_checksum("ipv4")
            .set(FieldRef::meta("m0"), Expr::field("ipv4", "hdr_checksum"));
        let program = view_program(action, ControlBuilder::new("ingress").invoke("act"));
        let mut rng = seeded(0xd1ff_0004);
        let packets: Vec<_> = (0..32).map(|_| view_packet(&mut rng, 0, true)).collect();
        for (inp, out) in packets.iter().zip(view_run(program, &packets)) {
            assert_eq!(out[22], inp[22].wrapping_sub(u8::from(dirty)));
            assert_eq!(
                dejavu_asic::interp::ones_complement_checksum(&out[14..34]),
                0,
                "a valid header checksums to zero"
            );
            // Everything but ttl and checksum is untouched.
            assert_eq!(out[14..22], inp[14..22]);
            assert_eq!(out[26..], inp[26..]);
        }
    }
}

#[test]
fn view_remove_nth_retargets_reads_and_writes_to_first_remaining_instance() {
    for occurrence in [0usize, 1] {
        let action = ActionBuilder::new("act")
            .remove_header_nth("tag", occurrence)
            .set(fref("ethernet", "src_mac"), Expr::field("tag", "kind"))
            .set(
                fref("tag", "id"),
                add(Expr::field("tag", "id"), Expr::val(1, 12)),
            );
        let program = view_program(action, ControlBuilder::new("ingress").invoke("act"));
        let mut rng = seeded(0xd1ff_0005);
        let packets: Vec<_> = (0..32).map(|_| view_packet(&mut rng, 2, false)).collect();
        for (inp, out) in packets.iter().zip(view_run(program, &packets)) {
            // The survivor is the other instance, at its original bytes.
            let kept = &inp[14 + 4 * (1 - occurrence)..][..4];
            assert_eq!(out.len(), inp.len() - 4);
            assert_eq!(out[6..12], [0, 0, 0, 0, 0, kept[0] >> 4]);
            let id = (u16::from_be_bytes([kept[0], kept[1]]) & 0xfff).wrapping_add(1) & 0xfff;
            let kind_id = u16::from(kept[0] >> 4) << 12 | id;
            assert_eq!(out[14..16], kind_id.to_be_bytes());
            assert_eq!(out[16..18], kept[2..4]);
            assert_eq!(out[18..], inp[22..]);
        }
    }
}

#[test]
fn view_write_to_absent_header_is_dropped() {
    let action = ActionBuilder::new("act")
        .set(fref("ipv4", "ttl"), Expr::val(9, 8))
        .update_checksum("ipv4")
        // Reads back zero: the write above never landed anywhere.
        .set(fref("ethernet", "src_mac"), Expr::field("ipv4", "ttl"));
    let program = view_program(action, ControlBuilder::new("ingress").invoke("act"));
    let mut rng = seeded(0xd1ff_0006);
    let packets: Vec<_> = (0..32).map(|_| view_packet(&mut rng, 0, false)).collect();
    for (inp, out) in packets.iter().zip(view_run(program, &packets)) {
        let mut want = inp.clone();
        want[6..12].fill(0);
        assert_eq!(out, want);
    }
}

#[test]
fn view_ingress_write_is_wire_data_for_egress() {
    // The ingress deparse lands in the scratch buffer, which the pooled
    // path swaps with the packet buffer before egress parses it: egress
    // must read ingress's written value from its own input bytes.
    let ingress = view_program(
        ActionBuilder::new("act").set(fref("ipv4", "identification"), Expr::val(0xbeef, 16)),
        ControlBuilder::new("ingress").invoke("act"),
    );
    let egress = view_program(
        ActionBuilder::new("act")
            .set(
                fref("ipv4", "total_len"),
                add(Expr::field("ipv4", "identification"), Expr::val(1, 16)),
            )
            .set(
                fref("ethernet", "src_mac"),
                Expr::field("ipv4", "identification"),
            ),
        ControlBuilder::new("ingress").invoke("act"),
    );
    let mut rng = seeded(0xd1ff_0007);
    let packets: Vec<_> = (0..32).map(|_| view_packet(&mut rng, 0, true)).collect();
    let outs = view_engines_agree(
        &[
            (PipeletId::ingress(0), ingress),
            (PipeletId::egress(0), egress),
        ],
        &packets,
    );
    for (inp, out) in packets.iter().zip(outs) {
        let mut want = inp.clone();
        want[6..12].copy_from_slice(&[0, 0, 0, 0, 0xbe, 0xef]);
        want[16..18].copy_from_slice(&0xbef0u16.to_be_bytes());
        want[18..20].copy_from_slice(&0xbeefu16.to_be_bytes());
        assert_eq!(out, want);
    }
}
