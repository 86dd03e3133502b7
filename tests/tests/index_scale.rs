//! What a ternary table's write path costs, in counts — no wall clock.
//!
//! A decision-tree install lands in one leaf, cuts that leaf where it
//! stands when it overflows, and asks for a whole-tree rebuild only at the
//! geometric refresh; deletes are absorbed the same way. So the number of
//! index rebuilds over a table's life grows with the logarithm of its size,
//! not with the number of installs, and the tree that incremental installs
//! leave behind probes no more than the one a fresh build would. A lookup
//! stops at its first match in arbitration order, so it probes as much at
//! 16 000 rules as at 1 000. These tests pin that on `acl_4k`'s own
//! ruleset at 1 000, 4 000 and 16 000 rules, through `restore_state`, and
//! through `remove_entry`.
//!
//! The hashed shapes are pinned the same way: an exact, LPM or ternary
//! table of one prefix length classifies in one probe at any size.

use dejavu_asic::switch::Disposition;
use dejavu_asic::{IndexKind, IndexPolicy, PipeletId, Switch, TofinoProfile};
use dejavu_integration::{
    acl_entry, sweep_program, sweep_testbed, SweepKey, ACL_SEED, EXIT_PORT, IN_PORT,
    SWEEP_TABLE as TABLE,
};
use dejavu_p4ir::table::TableEntry;
use dejavu_p4ir::{Program, Value};
use dejavu_traffic::{acl_ruleset, matching_flow, AclRule};

fn pid() -> PipeletId {
    PipeletId::ingress(0)
}

fn entry(rule: &AclRule) -> TableEntry {
    acl_entry(rule, "fwd", vec![Value::new(2, 16)])
}

fn empty_switch(program: &Program) -> Switch {
    let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
    sw.load_program(pid(), program.clone())
        .expect("program loads");
    sw
}

/// A switch with `rules` installed one at a time under `Auto`.
fn installed(program: &Program, rules: &[AclRule]) -> Switch {
    let mut sw = empty_switch(program);
    for r in rules {
        sw.install_entry(pid(), TABLE, entry(r))
            .expect("rule installs");
    }
    sw
}

/// `(kind, rebuilds, probes)` of the table's index so far.
fn telemetry(sw: &Switch) -> (IndexKind, u64, u64) {
    let all = sw.tables(pid()).expect("pipelet loaded").index_telemetry();
    let (_, t) = all
        .iter()
        .find(|(name, _)| name == TABLE)
        .expect("table registered");
    (t.kind, t.rebuilds, t.probes)
}

/// The key tuple of rule `i`'s `matching_flow`.
fn flow_keys(rule: &AclRule, i: usize) -> [Value; 2] {
    let (src, dst) = matching_flow(rule, i as u64);
    [
        Value::new(u128::from(src), 32),
        Value::new(u128::from(dst), 32),
    ]
}

/// Mean probes per lookup over one `matching_flow` per rule.
fn mean_probes(sw: &Switch, program: &Program, rules: &[AclRule]) -> f64 {
    let def = &program.tables[TABLE];
    let tables = sw.tables(pid()).expect("pipelet loaded");
    let (_, _, before) = telemetry(sw);
    for (i, r) in rules.iter().enumerate() {
        let keys = flow_keys(r, i);
        assert!(
            tables.lookup_readonly(def, &keys).is_some(),
            "rule {i} matches"
        );
    }
    let (_, _, after) = telemetry(sw);
    (after - before) as f64 / rules.len() as f64
}

#[test]
fn install_rebuilds_grow_with_the_logarithm_of_the_table() {
    // A lookup stops at its first match, so a tree probes about 11.7 per
    // lookup at every size however it was built: 11.72 / 11.73 / 11.72
    // after one-at-a-time installs of 1 000 / 4 000 / 16 000 rules, 12.60 /
    // 11.73 / 11.71 on a fresh build (at exactly 1 000 rules the fresh
    // build flips its root dimension; the tree last built at 855 keeps it).
    for (n, max_rebuilds) in [(1_000, 24), (4_000, 24), (16_000, 32)] {
        let program = sweep_program(SweepKey::Acl, 2 * n as u32);
        let rules = acl_ruleset(n, ACL_SEED);
        let mut sw = installed(&program, &rules);
        let (kind, rebuilds, _) = telemetry(&sw);
        assert_eq!(kind, IndexKind::DecisionTree, "{n} rules");
        assert!(
            rebuilds <= max_rebuilds,
            "{n} rules: {rebuilds} rebuilds > {max_rebuilds}"
        );

        // The cheaper install did not buy a worse tree: the same rules
        // built in one go probe about as much.
        let incremental = mean_probes(&sw, &program, &rules);
        sw.set_table_index(pid(), TABLE, IndexPolicy::Force(IndexKind::DecisionTree))
            .expect("tree is admissible");
        let fresh = mean_probes(&sw, &program, &rules);
        assert!(
            incremental <= 1.05 * fresh,
            "{n} rules: {incremental:.2} probes per lookup after one-at-a-time installs, \
             {fresh:.2} on a fresh build"
        );
    }
}

#[test]
fn a_tree_lookup_does_not_grow_with_the_table() {
    // A TCAM answers with its first matching row in priority order, and so
    // does the tree: it walks rules in arbitration order and stops once
    // nothing left can beat its hit. The catch-all rules near the root then
    // end a lookup instead of lengthening it, and the probes stay flat.
    for n in [1_000, 4_000, 16_000] {
        let program = sweep_program(SweepKey::Acl, 2 * n as u32);
        let rules = acl_ruleset(n, ACL_SEED);
        let sw = installed(&program, &rules);
        // 11.7 at every size; 19.2 / 58.0 / 214.8 while it scanned past
        // its first match.
        let probes = mean_probes(&sw, &program, &rules);
        assert!(probes <= 16.0, "{n} rules: {probes:.2} probes per lookup");

        // The early stops change no answer: 1 000 flows per size against
        // the scan oracle (every rule's at 1 000; the oracle is quadratic).
        let def = &program.tables[TABLE];
        let tables = sw.tables(pid()).expect("pipelet loaded");
        for (i, r) in rules.iter().enumerate().step_by(n / 1_000) {
            let keys = flow_keys(r, i);
            assert_eq!(
                tables.lookup_readonly(def, &keys),
                tables.lookup_scan(def, &keys),
                "{n} rules: flow of rule {i}"
            );
        }
    }
}

#[test]
fn restore_state_installs_at_the_same_cost() {
    let program = sweep_program(SweepKey::Acl, 8_000);
    let rules = acl_ruleset(4_000, ACL_SEED);
    let source = installed(&program, &rules);
    let snap = source.snapshot_state(pid()).expect("pipelet loaded");

    let mut target = empty_switch(&program);
    let report = target.restore_state(pid(), &snap).expect("restores");
    assert_eq!(report.restored_entries, 4_000);
    // A rule the ruleset draws twice is restored once (`restore_state` is
    // idempotent per entry), so compare against the de-duplicated list.
    let mut expect: Vec<TableEntry> = Vec::new();
    for e in source.tables(pid()).unwrap().entries(TABLE) {
        if !expect.contains(e) {
            expect.push(e.clone());
        }
    }
    assert_eq!(target.tables(pid()).unwrap().entries(TABLE), expect);
    let (kind, rebuilds, _) = telemetry(&target);
    assert_eq!(kind, IndexKind::DecisionTree);
    assert!(rebuilds <= 24, "{rebuilds} rebuilds while restoring");
}

#[test]
fn remove_entry_is_absorbed() {
    let program = sweep_program(SweepKey::Acl, 8_000);
    let rules = acl_ruleset(4_000, ACL_SEED);
    let mut sw = installed(&program, &rules);
    let (_, built, _) = telemetry(&sw);

    // Every fourth rule from the interior, newest first in between; the
    // model removes the first equal entry, as `remove_entry` must.
    let mut model: Vec<TableEntry> = rules.iter().map(entry).collect();
    for k in 0..1_000 {
        let victim = if k % 2 == 0 {
            model[(k * 7) % model.len()].clone()
        } else {
            model.last().expect("table is not empty").clone()
        };
        let first = model.iter().position(|e| *e == victim).unwrap();
        model.remove(first);
        assert!(
            sw.remove_entry(pid(), TABLE, &victim).unwrap(),
            "delete {k}"
        );
    }
    assert_eq!(sw.tables(pid()).unwrap().entries(TABLE), model);
    let (kind, rebuilds, _) = telemetry(&sw);
    assert_eq!(kind, IndexKind::DecisionTree);
    assert!(
        rebuilds - built <= 8,
        "{} rebuilds over 1000 deletes",
        rebuilds - built
    );

    // The survivors still classify as a scan of them would.
    let def = &program.tables[TABLE];
    let tables = sw.tables(pid()).unwrap();
    for (i, r) in rules.iter().enumerate().step_by(5) {
        let keys = flow_keys(r, i);
        assert_eq!(
            tables.lookup_readonly(def, &keys),
            tables.lookup_scan(def, &keys),
            "flow of rule {i}"
        );
    }
}

/// Mean probes per lookup over one walk of each packet through `sw`'s one
/// table; every packet must hit.
fn probes_per_packet(sw: &mut Switch, packets: &[Vec<u8>]) -> f64 {
    let (_, _, before) = telemetry(sw);
    for p in packets {
        let out = sw
            .inject_buf(&mut p.clone(), IN_PORT)
            .expect("sweep packet walks");
        assert_eq!(out.disposition, Disposition::Emitted { port: EXIT_PORT });
    }
    let (_, _, after) = telemetry(sw);
    (after - before) as f64 / packets.len() as f64
}

#[test]
fn hashed_shapes_probe_once_per_lookup_at_any_size() {
    // What the retired dataplane sweep's "10× at 10 k" flags stood for, in
    // probes rather than pps: the index serving a table of one key tuple
    // answers in one probe from 1 to 100 000 entries, where a scan of the
    // same 10 000 walks thousands.
    for (key, want, sizes) in [
        (SweepKey::Exact, IndexKind::Exact, &[1, 100, 10_000][..]),
        (SweepKey::Lpm, IndexKind::TupleSpace, &[1, 100, 10_000]),
        (
            SweepKey::Ternary,
            IndexKind::TupleSpace,
            &[1, 100, 10_000, 100_000],
        ),
    ] {
        for &n in sizes {
            let (mut sw, packets) = sweep_testbed(key, n);
            let (kind, _, _) = telemetry(&sw);
            assert_eq!(kind, want, "{key:?}, {n} entries");
            let probes = probes_per_packet(&mut sw, &packets);
            assert_eq!(probes, 1.0, "{key:?}, {n} entries: probes per lookup");
            if n == 10_000 {
                sw.set_table_index(pid(), TABLE, IndexPolicy::Force(IndexKind::Scan))
                    .expect("scan is admissible");
                let scan = probes_per_packet(&mut sw, &packets);
                assert!(
                    scan >= 10.0 * probes,
                    "{key:?}, {n} entries: a scan probes {scan:.1} per lookup, the index {probes}"
                );
            }
        }
    }
}
