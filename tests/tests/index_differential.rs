//! Differential property test for the classification-index subsystem.
//!
//! The pluggable table indexes (`Scan`, `TupleSpace`, `DecisionTree`) are
//! pure lookup accelerators: forcing any of them on the same table must be
//! observationally invisible. For random mixed rulesets — ternary masks
//! (prefix and scattered), LPM prefixes, ranges (including degenerate
//! point ranges), overlapping priorities with deliberate duplicate-rank
//! ties — driven through a random interleaving of installs, deletes,
//! idle-timeout aging sweeps, and packet injections, six switches must
//! agree on everything: three forced index policies × both execution
//! engines (reference interpreter and compiled fast path).
//!
//! Checked surface: every traversal (events, disposition, bytes), the
//! surviving entry list after churn, hit/miss counters, eviction counts,
//! and — within each same-policy engine pair — the full metrics snapshot
//! including the `table_index_*` telemetry series.
//!
//! A second property churns an **all-exact** table the same way, automatic
//! selection (the hash index, whose removals and idempotence probe are
//! incremental) against the forced scan, over a key space small enough
//! that duplicate key tuples — the case the incremental paths must hand
//! back to the rebuild — are common.

use proptest::prelude::*;

use dejavu_asic::{
    ExecMode, IndexKind, IndexPolicy, InjectedPacket, PipeletId, Switch, TofinoProfile,
};
use dejavu_p4ir::builder::*;
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::{fref, well_known, Expr, FieldRef, Program, Value};

/// Ternary masks a generated rule may use on the source address: wildcard,
/// prefixes (tuple-friendly), and scattered bit patterns (tuple-hostile —
/// the regime that pushes the auto heuristic toward the decision tree).
const SRC_MASKS: [u32; 6] = [
    0x0000_0000,
    0xff00_0000,
    0xffff_0000,
    0xffff_ff00,
    0x0000_00ff,
    0x00ff_00f0,
];

/// LPM prefix lengths for the destination key (0 = wildcard).
const DST_LENS: [u16; 5] = [0, 8, 16, 24, 32];

/// One generated rule, described by small seeds the builder expands into
/// `KeyMatch`es. Values are drawn from tiny domains so rules overlap and
/// packets hit; priorities from `0..3` so duplicate ranks are common and
/// install-order tie-breaking is exercised.
#[derive(Debug, Clone, Copy)]
struct GenRule {
    src_seed: u8,
    src_mask: u8,
    dst_seed: u8,
    dst_len: u8,
    ttl_lo: u8,
    ttl_span: u8,
    action: u8,
    priority: u8,
}

fn rule_entry(r: GenRule) -> TableEntry {
    let src_mask = SRC_MASKS[usize::from(r.src_mask) % SRC_MASKS.len()];
    let src_val = (0x0a00_0000 | u32::from(r.src_seed % 16)) & src_mask;
    let dst_len = DST_LENS[usize::from(r.dst_len) % DST_LENS.len()];
    let dst_val = 0x0a00_0100 | (u32::from(r.dst_seed % 4) << 16) | u32::from(r.dst_seed % 8);
    let dst_masked = if dst_len == 0 {
        0
    } else {
        dst_val & (u32::MAX << (32 - dst_len))
    };
    let lo = r.ttl_lo % 6;
    // span % 3 == 0 gives a degenerate point range (lo == hi), the shape
    // the tuple-space index can hash; wider spans always spill.
    let hi = lo + r.ttl_span % 3;
    let (action, args) = match r.action % 3 {
        0 => ("fwd", vec![Value::new(u128::from(r.action % 8), 16)]),
        1 => ("deny", vec![]),
        _ => ("pass", vec![]),
    };
    TableEntry {
        matches: vec![
            KeyMatch::Ternary(
                Value::new(u128::from(src_val), 32),
                Value::new(u128::from(src_mask), 32),
            ),
            KeyMatch::Lpm(Value::new(u128::from(dst_masked), 32), dst_len),
            KeyMatch::Range(Value::new(u128::from(lo), 8), Value::new(u128::from(hi), 8)),
        ],
        action: action.to_string(),
        action_args: args,
        priority: i32::from(r.priority % 3) - 1,
    }
}

fn arb_rule() -> impl Strategy<Value = GenRule> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(
            |(src_seed, src_mask, dst_seed, dst_len, ttl_lo, ttl_span, action, priority)| GenRule {
                src_seed,
                src_mask,
                dst_seed,
                dst_len,
                ttl_lo,
                ttl_span,
                action,
                priority,
            },
        )
}

/// One ingress pipelet with a single mixed-key classifier table:
/// ternary source × LPM destination × TTL range.
fn cls_program() -> Program {
    ProgramBuilder::new("clsdiff")
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
        .action(ActionBuilder::new("deny").drop_packet().build())
        .action(
            ActionBuilder::new("pass")
                .set(FieldRef::meta("egress_spec"), Expr::val(1, 16))
                .build(),
        )
        .table(
            TableBuilder::new("cls")
                .key_ternary(fref("ipv4", "src_addr"))
                .key_lpm(fref("ipv4", "dst_addr"))
                .key_range(fref("ipv4", "ttl"))
                .action("fwd")
                .action("deny")
                .action("pass")
                .default_action("pass")
                .size(1024)
                .build(),
        )
        .control(ControlBuilder::new("ingress").apply("cls").build())
        .entry("ingress")
        .build()
        .expect("classifier program validates")
}

fn cls_packet(src: u8, dst: u8, ttl: u8) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::udp()
        .src_ip(0x0a00_0000 | u32::from(src % 16))
        .dst_ip(0x0a00_0100 | (u32::from(dst % 4) << 16) | u32::from(dst % 8))
        .src_port(1000)
        .dst_port(53)
        .ttl(ttl % 8)
        .build()
}

/// The six switches under test: every forced index policy on both engines.
const POLICIES: [IndexKind; 3] = [
    IndexKind::Scan,
    IndexKind::TupleSpace,
    IndexKind::DecisionTree,
];

fn cls_testbed(program: &Program, kind: IndexKind, mode: ExecMode) -> Switch {
    let pid = PipeletId::ingress(0);
    let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
    sw.set_exec_mode(mode);
    sw.set_telemetry(true);
    sw.load_program(pid, program.clone()).unwrap();
    sw.set_idle_timeout(pid, "cls", Some(2)).unwrap();
    sw.set_table_index(pid, "cls", IndexPolicy::Force(kind))
        .unwrap();
    sw
}

/// One step of the interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    Install(GenRule),
    /// Remove the n-th previously installed rule (mod live count).
    Remove(u8),
    /// Advance the aging clock by 1–3 ticks.
    Age(u8),
    /// Inject a packet described by (src, dst, ttl) seeds.
    Inject(u8, u8, u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Weighted mix via a selector: mostly injects and installs, with
    // enough deletes and aging sweeps to churn every index shape.
    (0u8..9, arb_rule(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(sel, rule, a, b, c)| {
        match sel {
            0..=2 => Op::Install(rule),
            3 => Op::Remove(a),
            4 => Op::Age(a),
            _ => Op::Inject(a, b, c),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// `lookup_scan`, tuple-space, and decision-tree must be
    /// observationally identical on both engines under churn.
    #[test]
    fn forced_indexes_agree_under_churn(
        initial in proptest::collection::vec(arb_rule(), 0..24),
        ops in proptest::collection::vec(arb_op(), 1..32),
    ) {
        let program = cls_program();
        let pid = PipeletId::ingress(0);
        let mut switches: Vec<(IndexKind, ExecMode, Switch)> = Vec::new();
        for kind in POLICIES {
            for mode in [ExecMode::Reference, ExecMode::Compiled] {
                switches.push((kind, mode, cls_testbed(&program, kind, mode)));
            }
        }

        // Deterministic target list for deletes: entries in install order.
        // Aged-out or already-removed targets are fine — `remove_entry`
        // then returns Ok(false) identically everywhere.
        let mut installed: Vec<TableEntry> = Vec::new();
        for &r in &initial {
            let e = rule_entry(r);
            for (_, _, sw) in &mut switches {
                sw.install_entry(pid, "cls", e.clone()).unwrap();
            }
            installed.push(e);
        }

        for (k, op) in ops.iter().enumerate() {
            match op {
                Op::Install(r) => {
                    let e = rule_entry(*r);
                    for (_, _, sw) in &mut switches {
                        sw.install_entry(pid, "cls", e.clone()).unwrap();
                    }
                    installed.push(e);
                }
                Op::Remove(sel) => {
                    if installed.is_empty() {
                        continue;
                    }
                    let victim = installed.remove(usize::from(*sel) % installed.len());
                    let removed: Vec<bool> = switches
                        .iter_mut()
                        .map(|(_, _, sw)| sw.remove_entry(pid, "cls", &victim).unwrap())
                        .collect();
                    prop_assert!(
                        removed.iter().all(|&b| b == removed[0]),
                        "step {}: remove_entry outcomes diverged: {:?}", k, removed
                    );
                }
                Op::Age(t) => {
                    let ticks = u64::from(t % 3) + 1;
                    let sweeps: Vec<_> = switches
                        .iter_mut()
                        .map(|(_, _, sw)| sw.advance_time(ticks))
                        .collect();
                    for (i, s) in sweeps.iter().enumerate().skip(1) {
                        prop_assert_eq!(
                            &sweeps[0], s,
                            "step {}: eviction sweep diverged on {:?}/{:?}",
                            k, switches[i].0, switches[i].1
                        );
                    }
                }
                Op::Inject(s, d, t) => {
                    let pkt = cls_packet(*s, *d, *t);
                    let outs: Vec<_> = switches
                        .iter_mut()
                        .map(|(_, _, sw)| sw.inject(InjectedPacket::new(pkt.clone(), 0)))
                        .collect();
                    for (i, o) in outs.iter().enumerate().skip(1) {
                        match (&outs[0], o) {
                            (Ok(a), Ok(b)) => prop_assert_eq!(
                                a, b,
                                "step {}: traversal diverged on {:?}/{:?}",
                                k, switches[i].0, switches[i].1
                            ),
                            (Err(_), Err(_)) => {}
                            (a, b) => prop_assert!(
                                false,
                                "step {}: {:?}/{:?} returned {:?} vs baseline {:?}",
                                k, switches[i].0, switches[i].1, b, a
                            ),
                        }
                    }
                }
            }
        }

        // Forced policies must have stuck — a migration behind the user's
        // back would make the comparison vacuous.
        for (kind, mode, sw) in &switches {
            prop_assert_eq!(
                sw.table_index_kind(pid, "cls"), Some(*kind),
                "forced {:?} policy drifted on {:?}", kind, mode
            );
        }

        // Post-churn table state must agree across all six switches.
        let baseline = &switches[0].2;
        let entries0 = baseline.tables(pid).unwrap().entries("cls");
        let counters0 = baseline.tables(pid).unwrap().counters("cls");
        let evictions0 = baseline.tables(pid).unwrap().evictions("cls");
        for (kind, mode, sw) in switches.iter().skip(1) {
            let ts = sw.tables(pid).unwrap();
            prop_assert_eq!(
                &entries0, &ts.entries("cls"),
                "surviving entries diverged on {:?}/{:?}", kind, mode
            );
            prop_assert_eq!(
                counters0, ts.counters("cls"),
                "hit/miss counters diverged on {:?}/{:?}", kind, mode
            );
            prop_assert_eq!(
                evictions0, ts.evictions("cls"),
                "eviction counts diverged on {:?}/{:?}", kind, mode
            );
        }

        // Within each forced policy, both engines must expose identical
        // telemetry — including the table_index_kind / table_index_probes
        // / table_index_rebuilds / probe- and tree-depth series, because
        // the reference interpreter routes lookups through the very same
        // index as the compiled fast path.
        for pair in switches.chunks(2) {
            prop_assert_eq!(
                pair[0].2.metrics_snapshot(),
                pair[1].2.metrics_snapshot(),
                "metrics snapshots diverged between engines under {:?}", pair[0].0
            );
        }
    }
}

/// One generated entry of the all-exact table: eight source addresses ×
/// three TTLs, so key tuples repeat with different priorities and actions
/// (and sometimes repeat exactly); one key in eight is the `Any` wildcard.
fn exact_rule_entry(r: GenRule) -> TableEntry {
    let src = Value::new(u128::from(0x0a00_0000 | u32::from(r.src_seed % 8)), 32);
    let ttl = Value::new(u128::from(r.ttl_lo % 3), 8);
    let wild = |seed: u8, v: Value| {
        if seed.is_multiple_of(8) {
            KeyMatch::Any
        } else {
            KeyMatch::Exact(v)
        }
    };
    let (action, args) = match r.action % 3 {
        0 => ("fwd", vec![Value::new(u128::from(r.action % 4), 16)]),
        1 => ("deny", vec![]),
        _ => ("pass", vec![]),
    };
    TableEntry {
        matches: vec![wild(r.src_mask, src), wild(r.dst_len, ttl)],
        action: action.to_string(),
        action_args: args,
        priority: i32::from(r.priority % 3) - 1,
    }
}

/// The classifier pipelet with an all-exact `cls`: source address × TTL.
/// Twenty entries fill it, so on top of the aging sweeps a long run also
/// evicts least-recently-hit entries from the interior.
fn exact_cls_program() -> Program {
    let mut program = cls_program();
    let cls = program.tables.get_mut("cls").expect("cls is defined");
    for (key, field) in cls.keys.iter_mut().zip(["src_addr", "ttl"]) {
        key.field = fref("ipv4", field);
        key.kind = dejavu_p4ir::MatchKind::Exact;
    }
    cls.keys.truncate(2);
    cls.size = 20;
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// The hash index's incremental `position` / `remove` / `remove_many`
    /// are invisible: install, `remove_entry`, aging and LRU eviction on an
    /// all-exact table leave the same entries, evictions and lookups as
    /// the scan, duplicates or not, on both engines.
    #[test]
    fn exact_index_agrees_with_scan_under_churn(
        initial in proptest::collection::vec(arb_rule(), 0..16),
        ops in proptest::collection::vec(arb_op(), 1..48),
    ) {
        let program = exact_cls_program();
        let pid = PipeletId::ingress(0);
        let mut switches: Vec<(IndexPolicy, ExecMode, Switch)> = Vec::new();
        for policy in [IndexPolicy::Force(IndexKind::Scan), IndexPolicy::Auto] {
            for mode in [ExecMode::Reference, ExecMode::Compiled] {
                let mut sw = cls_testbed(&program, IndexKind::Scan, mode);
                sw.set_table_index(pid, "cls", policy).unwrap();
                switches.push((policy, mode, sw));
            }
        }

        let mut installed: Vec<TableEntry> = Vec::new();
        let installs = initial.iter().map(|&r| Op::Install(r));
        for (k, op) in installs.chain(ops.iter().cloned()).enumerate() {
            match op {
                Op::Install(r) => {
                    let e = exact_rule_entry(r);
                    for (_, _, sw) in &mut switches {
                        sw.install_entry(pid, "cls", e.clone()).unwrap();
                    }
                    installed.push(e);
                }
                Op::Remove(sel) => {
                    if installed.is_empty() {
                        continue;
                    }
                    // Odd selectors take the newest install: the tail, which
                    // the index forgets one at a time instead of in bulk.
                    let at = if sel % 2 == 1 { installed.len() - 1 } else { usize::from(sel) };
                    let victim = installed.remove(at % installed.len());
                    let removed: Vec<bool> = switches
                        .iter_mut()
                        .map(|(_, _, sw)| sw.remove_entry(pid, "cls", &victim).unwrap())
                        .collect();
                    prop_assert!(
                        removed.iter().all(|&b| b == removed[0]),
                        "step {}: remove_entry outcomes diverged: {:?}", k, removed
                    );
                }
                Op::Age(t) => {
                    let sweeps: Vec<_> = switches
                        .iter_mut()
                        .map(|(_, _, sw)| sw.advance_time(u64::from(t % 3) + 1))
                        .collect();
                    for s in &sweeps[1..] {
                        prop_assert_eq!(&sweeps[0], s, "step {}: eviction lists diverged", k);
                    }
                }
                Op::Inject(s, _, t) => {
                    let pkt = dejavu_traffic::PacketBuilder::udp()
                        .src_ip(0x0a00_0000 | u32::from(s % 8))
                        .dst_ip(0x0a00_0101)
                        .ttl(t % 3)
                        .build();
                    let outs: Vec<_> = switches
                        .iter_mut()
                        .map(|(_, _, sw)| sw.inject(InjectedPacket::new(pkt.clone(), 0)).unwrap())
                        .collect();
                    for o in &outs[1..] {
                        prop_assert_eq!(&outs[0], o, "step {}: traversal diverged", k);
                    }
                }
            }
            // The whole table after every step: a wrong renumbering shows
            // where it happens, not where a packet next trips over it.
            let entries0 = switches[0].2.tables(pid).unwrap().entries("cls");
            for (policy, mode, sw) in &switches[1..] {
                prop_assert_eq!(
                    entries0, sw.tables(pid).unwrap().entries("cls"),
                    "step {}: entries diverged on {:?}/{:?}", k, policy, mode
                );
            }
        }

        prop_assert_eq!(switches[0].2.table_index_kind(pid, "cls"), Some(IndexKind::Scan));
        prop_assert_eq!(switches[2].2.table_index_kind(pid, "cls"), Some(IndexKind::Exact));
        let scan = switches[0].2.tables(pid).unwrap();
        for (policy, mode, sw) in &switches[1..] {
            let ts = sw.tables(pid).unwrap();
            prop_assert_eq!(
                (scan.counters("cls"), scan.evictions("cls")),
                (ts.counters("cls"), ts.evictions("cls")),
                "counters diverged on {:?}/{:?}", policy, mode
            );
        }
        for pair in switches.chunks(2) {
            prop_assert_eq!(
                pair[0].2.metrics_snapshot(),
                pair[1].2.metrics_snapshot(),
                "metrics snapshots diverged between engines under {:?}", pair[0].0
            );
        }
    }
}

/// The classifier pipelet with `cls` keyed the way `acl_4k` keys its table:
/// source × destination address, both ternary. 512 entries fill it, so
/// the longer runs also evict least-recently-hit entries from the interior.
fn acl_cls_program() -> Program {
    let mut program = cls_program();
    let cls = program.tables.get_mut("cls").expect("cls is defined");
    cls.keys.truncate(2);
    cls.keys[1].kind = dejavu_p4ir::MatchKind::Ternary;
    cls.size = 512;
    program
}

/// `rule` as an entry of that table; the action varies with `i`, so a wrong
/// winner is a wrong disposition.
fn acl_entry(rule: &dejavu_traffic::AclRule, i: usize) -> TableEntry {
    if i.is_multiple_of(5) {
        dejavu_integration::acl_entry(rule, "deny", vec![])
    } else {
        dejavu_integration::acl_entry(rule, "fwd", vec![Value::new(i as u128 % 7, 16)])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// The decision tree's incremental paths — leaves cut where they stand,
    /// deletes absorbed and renumbered across nodes appended since the last
    /// build, `position` by descent — are invisible at the scale where they
    /// run: an `acl_ruleset` installed one rule at a time with interior and
    /// tail deletes, repeats of installed rules, an aging sweep and LRU
    /// evictions in between, forced tree and automatic selection against
    /// the forced scan.
    #[test]
    fn tree_agrees_with_scan_under_acl_scale_churn(
        n in 300usize..=1500,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let program = acl_cls_program();
        let pid = PipeletId::ingress(0);
        let policies = [
            IndexPolicy::Force(IndexKind::Scan),
            IndexPolicy::Force(IndexKind::DecisionTree),
            IndexPolicy::Auto,
        ];
        let mut switches: Vec<Switch> = policies
            .iter()
            .map(|&policy| {
                let mut sw = cls_testbed(&program, IndexKind::Scan, ExecMode::Compiled);
                sw.set_table_index(pid, "cls", policy).unwrap();
                sw
            })
            .collect();
        let rules = dejavu_traffic::acl_ruleset(n, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xd1ff);
        // Every rule ever installed and not deleted by us (aged-out and
        // evicted ones stay listed: removing those must answer `false`
        // everywhere).
        let mut installed: Vec<(usize, TableEntry)> = Vec::new();

        for (i, rule) in rules.iter().enumerate() {
            let mut fresh = vec![acl_entry(rule, i)];
            if rng.gen_range(0..8) == 0 && !installed.is_empty() {
                fresh.push(installed[rng.gen_range(0..installed.len())].1.clone());
            }
            for e in fresh {
                for sw in &mut switches {
                    sw.install_entry(pid, "cls", e.clone()).unwrap();
                }
                installed.push((i, e));
            }
            // Deletes: one in six from the interior, one in ten the newest.
            let victim = match rng.gen_range(0..30) {
                0..=4 => Some(rng.gen_range(0..installed.len())),
                5..=7 => Some(installed.len() - 1),
                _ => None,
            };
            if let Some(at) = victim {
                let (_, gone) = installed.remove(at);
                let removed: Vec<bool> = switches
                    .iter_mut()
                    .map(|sw| sw.remove_entry(pid, "cls", &gone).unwrap())
                    .collect();
                prop_assert!(
                    removed.iter().all(|&b| b == removed[0]),
                    "rule {}: remove_entry outcomes diverged: {:?}", i, removed
                );
            }
            if i == n / 2 {
                // The aging sweep: one tick, traffic on a third of the rules,
                // a second tick — whatever was not hit in between is two
                // ticks idle and expires.
                let mut sweeps = Vec::new();
                for sw in &mut switches {
                    let mut evicted = sw.advance_time(1);
                    for (k, (r, _)) in installed.iter().enumerate().step_by(3) {
                        let (src, dst) = dejavu_traffic::matching_flow(&rules[*r], k as u64);
                        let pkt = dejavu_traffic::PacketBuilder::udp().src_ip(src).dst_ip(dst).build();
                        sw.inject(InjectedPacket::new(pkt, 0)).unwrap();
                    }
                    evicted.extend(sw.advance_time(1));
                    sweeps.push(evicted);
                }
                prop_assert!(!sweeps[0].is_empty(), "the sweep evicts");
                for s in &sweeps[1..] {
                    prop_assert_eq!(&sweeps[0], s, "rule {}: eviction lists diverged", i);
                }
            }
            if i % 16 != 0 && victim.is_none() {
                continue;
            }
            // Traffic: flows built to match installed rules, and background.
            for k in 0..4u64 {
                let (src, dst) = if k == 3 {
                    (rng.gen(), rng.gen())
                } else {
                    let (r, _) = installed[rng.gen_range(0..installed.len())];
                    dejavu_traffic::matching_flow(&rules[r], seed.wrapping_add(k))
                };
                let pkt = dejavu_traffic::PacketBuilder::udp().src_ip(src).dst_ip(dst).build();
                let outs: Vec<_> = switches
                    .iter_mut()
                    .map(|sw| sw.inject(InjectedPacket::new(pkt.clone(), 0)).unwrap())
                    .collect();
                for (o, policy) in outs.iter().zip(&policies).skip(1) {
                    prop_assert_eq!(&outs[0], o, "rule {}: traversal diverged on {:?}", i, policy);
                }
            }
            // The whole table, so a wrong renumbering or a wrong duplicate
            // taken shows at the step that made it.
            let scan = switches[0].tables(pid).unwrap();
            for (sw, policy) in switches.iter().zip(&policies).skip(1) {
                let ts = sw.tables(pid).unwrap();
                prop_assert_eq!(
                    scan.entries("cls"), ts.entries("cls"),
                    "rule {}: entries diverged on {:?}", i, policy
                );
            }
        }

        prop_assert_eq!(switches[1].table_index_kind(pid, "cls"), Some(IndexKind::DecisionTree));
        let scan = switches[0].tables(pid).unwrap();
        prop_assert!(scan.evictions("cls") > 0);
        for (sw, policy) in switches.iter().zip(&policies).skip(1) {
            let ts = sw.tables(pid).unwrap();
            prop_assert_eq!(
                (scan.counters("cls"), scan.evictions("cls")),
                (ts.counters("cls"), ts.evictions("cls")),
                "counters diverged on {:?}", policy
            );
            for (i, rule) in rules.iter().enumerate() {
                let e = acl_entry(rule, i);
                prop_assert_eq!(
                    scan.contains_entry("cls", &e), ts.contains_entry("cls", &e),
                    "contains_entry diverged on {:?} for rule {}", policy, i
                );
            }
        }
    }
}

/// The classifier pipelet with `cls` keyed the way the router's `routes`,
/// the VGW's VNI table and the NAT's `nat_out` are: one LPM key, the
/// destination address. 96 entries fill it, so longer runs also evict
/// least-recently-hit routes from the interior.
fn lpm_cls_program() -> Program {
    let mut program = cls_program();
    let cls = program.tables.get_mut("cls").expect("cls is defined");
    cls.keys.remove(0);
    cls.keys.truncate(1);
    cls.size = 96;
    program
}

/// An address in 10.{0–3}.{0–3}.{0–7}: prefixes of it nest, and the same
/// prefix recurs under another action or priority.
fn lpm_addr(rng: &mut rand::rngs::StdRng) -> u32 {
    use rand::Rng;
    u32::from_be_bytes([
        10,
        rng.gen_range(0..4),
        rng.gen_range(0..4),
        rng.gen_range(0..8),
    ])
}

/// Route `i`: a /0–/32 prefix of [`lpm_addr`], one in sixteen `Any`, at
/// priority −1..1; the action varies with `i`, so a wrong winner is a
/// wrong disposition.
fn lpm_route(rng: &mut rand::rngs::StdRng, i: usize) -> TableEntry {
    use rand::Rng;
    let len: u16 = rng.gen_range(0..=32);
    let mask = u32::MAX.checked_shl(32 - u32::from(len)).unwrap_or(0);
    let prefix = lpm_addr(rng) & mask;
    let matched = if rng.gen_range(0..16) == 0 {
        KeyMatch::Any
    } else {
        KeyMatch::Lpm(Value::new(u128::from(prefix), 32), len)
    };
    let (action, args) = if i.is_multiple_of(5) {
        ("deny", vec![])
    } else {
        ("fwd", vec![Value::new(i as u128 % 7, 16)])
    };
    TableEntry {
        matches: vec![matched],
        action: action.to_string(),
        action_args: args,
        priority: rng.gen_range(0..3) - 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// A single-LPM table is one more tuple-space (or, past 64 routes over
    /// enough prefix lengths, decision-tree) table: up to 200 routes over
    /// every length, `Any` and `/0`, mixed priorities and repeated
    /// prefixes, installed one at a time with interior and tail
    /// `remove_entry`, one aging sweep and LRU evictions at capacity —
    /// automatic selection and the forced tuple space and tree against the
    /// forced scan, on both engines.
    #[test]
    fn lpm_table_agrees_with_scan_under_churn(
        n in 0usize..=200,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let program = lpm_cls_program();
        let pid = PipeletId::ingress(0);
        let policies = [
            IndexPolicy::Force(IndexKind::Scan),
            IndexPolicy::Auto,
            IndexPolicy::Force(IndexKind::TupleSpace),
            IndexPolicy::Force(IndexKind::DecisionTree),
        ];
        let mut switches: Vec<(IndexPolicy, ExecMode, Switch)> = Vec::new();
        for policy in policies {
            for mode in [ExecMode::Reference, ExecMode::Compiled] {
                let mut sw = cls_testbed(&program, IndexKind::Scan, mode);
                sw.set_table_index(pid, "cls", policy).unwrap();
                switches.push((policy, mode, sw));
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Every route ever installed, and those not deleted by us (aged-out
        // and evicted ones stay listed: removing those must answer `false`
        // everywhere).
        let mut routes: Vec<TableEntry> = Vec::new();
        let mut installed: Vec<TableEntry> = Vec::new();

        for i in 0..n {
            let mut fresh = vec![lpm_route(&mut rng, i)];
            if rng.gen_range(0..8) == 0 && !installed.is_empty() {
                fresh.push(installed[rng.gen_range(0..installed.len())].clone());
            }
            for e in fresh {
                for (_, _, sw) in &mut switches {
                    sw.install_entry(pid, "cls", e.clone()).unwrap();
                }
                routes.push(e.clone());
                installed.push(e);
            }
            // Deletes: one in six from the interior, one in ten the newest.
            let victim = match rng.gen_range(0..30) {
                0..=4 => Some(rng.gen_range(0..installed.len())),
                5..=7 => Some(installed.len() - 1),
                _ => None,
            };
            if let Some(at) = victim {
                let gone = installed.remove(at);
                let removed: Vec<bool> = switches
                    .iter_mut()
                    .map(|(_, _, sw)| sw.remove_entry(pid, "cls", &gone).unwrap())
                    .collect();
                prop_assert!(
                    removed.iter().all(|&b| b == removed[0]),
                    "route {}: remove_entry outcomes diverged: {:?}", i, removed
                );
            }
            if i == n / 3 {
                // The aging sweep: whatever the traffic in between did not
                // hit is two ticks idle and expires.
                let mut sweeps = Vec::new();
                for (_, _, sw) in &mut switches {
                    let mut evicted = sw.advance_time(1);
                    for k in 0..16u64 {
                        let dst = 0x0a00_0000 | (seed.wrapping_add(k) as u32 & 0x0003_0307);
                        let pkt = dejavu_traffic::PacketBuilder::udp().dst_ip(dst).build();
                        sw.inject(InjectedPacket::new(pkt, 0)).unwrap();
                    }
                    evicted.extend(sw.advance_time(1));
                    sweeps.push(evicted);
                }
                for s in &sweeps[1..] {
                    prop_assert_eq!(&sweeps[0], s, "route {}: eviction lists diverged", i);
                }
            }
            // Traffic: two addresses the routes cover, one anywhere.
            for k in 0..3 {
                let dst = if k == 2 { rng.gen() } else { lpm_addr(&mut rng) };
                let pkt = dejavu_traffic::PacketBuilder::udp().dst_ip(dst).build();
                let outs: Vec<_> = switches
                    .iter_mut()
                    .map(|(_, _, sw)| sw.inject(InjectedPacket::new(pkt.clone(), 0)).unwrap())
                    .collect();
                for (o, (policy, mode, _)) in outs.iter().zip(&switches).skip(1) {
                    prop_assert_eq!(
                        &outs[0], o,
                        "route {}: traversal diverged on {:?}/{:?}", i, policy, mode
                    );
                }
            }
            // The whole table, so a wrong renumbering or a wrong duplicate
            // taken shows at the step that made it.
            let scan = switches[0].2.tables(pid).unwrap();
            for (policy, mode, sw) in &switches[1..] {
                prop_assert_eq!(
                    scan.entries("cls"), sw.tables(pid).unwrap().entries("cls"),
                    "route {}: entries diverged on {:?}/{:?}", i, policy, mode
                );
            }
        }

        let scan = switches[0].2.tables(pid).unwrap();
        for (policy, mode, sw) in &switches[1..] {
            let ts = sw.tables(pid).unwrap();
            prop_assert_eq!(
                (scan.counters("cls"), scan.evictions("cls")),
                (ts.counters("cls"), ts.evictions("cls")),
                "counters diverged on {:?}/{:?}", policy, mode
            );
            for (i, e) in routes.iter().enumerate() {
                prop_assert_eq!(
                    scan.contains_entry("cls", e), ts.contains_entry("cls", e),
                    "contains_entry diverged on {:?}/{:?} for route {}", policy, mode, i
                );
            }
        }
    }
}
