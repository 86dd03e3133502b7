//! What a ternary table's write path costs, in counts — no wall clock.
//!
//! A decision-tree install lands in one leaf, cuts that leaf where it
//! stands when it overflows, and asks for a whole-tree rebuild only at the
//! geometric refresh; deletes are absorbed the same way. So the number of
//! index rebuilds over a table's life grows with the logarithm of its size,
//! not with the number of installs, and the tree that incremental installs
//! leave behind probes no more than the one a fresh build would. These
//! tests pin that on `acl_4k`'s own ruleset at 1 000, 4 000 and 16 000
//! rules, through `restore_state`, and through `remove_entry`.

use dejavu_asic::{IndexKind, IndexPolicy, PipeletId, Switch, TofinoProfile};
use dejavu_p4ir::builder::*;
use dejavu_p4ir::table::TableEntry;
use dejavu_p4ir::{fref, well_known, Expr, FieldRef, Program, Value};
use dejavu_traffic::{acl_ruleset, matching_flow, AclRule};

const TABLE: &str = "acl";
/// `acl_4k`'s ruleset seed.
const RULESET_SEED: u64 = 0xac1;

fn pid() -> PipeletId {
    PipeletId::ingress(0)
}

/// One ingress pipelet, one table on source × destination address, both
/// ternary — the shape of `acl_4k`'s.
fn acl_program(capacity: u32) -> Program {
    ProgramBuilder::new("acl")
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
        .table(
            TableBuilder::new(TABLE)
                .key_ternary(fref("ipv4", "src_addr"))
                .key_ternary(fref("ipv4", "dst_addr"))
                .action("fwd")
                .default_action("deny")
                .size(capacity)
                .build(),
        )
        .control(ControlBuilder::new("ingress").apply(TABLE).build())
        .entry("ingress")
        .build()
        .expect("acl program validates")
}

fn entry(rule: &AclRule) -> TableEntry {
    dejavu_integration::acl_entry(rule, "fwd", vec![Value::new(2, 16)])
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

/// Mean probes per lookup over one `matching_flow` per rule.
fn mean_probes(sw: &Switch, program: &Program, rules: &[AclRule]) -> f64 {
    let def = &program.tables[TABLE];
    let tables = sw.tables(pid()).expect("pipelet loaded");
    let (_, _, before) = telemetry(sw);
    for (i, r) in rules.iter().enumerate() {
        let (src, dst) = matching_flow(r, i as u64);
        let keys = [
            Value::new(u128::from(src), 32),
            Value::new(u128::from(dst), 32),
        ];
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
    // At 1 000 rules one root cut decides a quarter of the probes, and the
    // fresh build at exactly that size happens to flip its dimension (15.6
    // probes, fewer than the 16.1 of 750 rules) where the tree last built
    // at 855 keeps it (19.2, on the 16.1 → 23.4 trend of 750 → 1 250): the
    // ratio there is the luck of one draw, so it gets a looser bound. From
    // 1 250 rules up every size measured sits within 1.001.
    for (n, max_rebuilds, max_ratio) in [(1_000, 24, 1.3), (4_000, 24, 1.15), (16_000, 32, 1.15)] {
        let program = acl_program(2 * n as u32);
        let rules = acl_ruleset(n, RULESET_SEED);
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
            incremental <= max_ratio * fresh,
            "{n} rules: {incremental:.2} probes per lookup after one-at-a-time installs, \
             {fresh:.2} on a fresh build"
        );
    }
}

#[test]
fn restore_state_installs_at_the_same_cost() {
    let program = acl_program(8_000);
    let rules = acl_ruleset(4_000, RULESET_SEED);
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
    let program = acl_program(8_000);
    let rules = acl_ruleset(4_000, RULESET_SEED);
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
        let (src, dst) = matching_flow(r, i as u64);
        let keys = [
            Value::new(u128::from(src), 32),
            Value::new(u128::from(dst), 32),
        ];
        assert_eq!(
            tables.lookup_readonly(def, &keys),
            tables.lookup_scan(def, &keys),
            "flow of rule {i}"
        );
    }
}
