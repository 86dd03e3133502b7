//! # dejavu-ptf — a Packet Test Framework analogue
//!
//! The paper validates its prototype with the P4 community's Packet Test
//! Framework: *"We test the input and output packets of multiple SFC paths
//! using the Packet Test Framework and have verified that the placement and
//! routing logic in our example successfully achieve the original
//! functionalities"* (§5).
//!
//! This crate provides the same workflow over the simulated switch:
//! declare test cases (inject a packet on a port, expect it on a port /
//! dropped / punted, optionally verify the bytes and the traversal), run
//! the suite, and collect a pass/fail report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dejavu_asic::switch::Disposition;
use dejavu_asic::{IndexKind, InjectedPacket, MetricsSnapshot, PortId, Switch, Traversal};
use std::fmt;

/// Byte-level check applied to the emitted/punted packet.
pub type PacketCheck = Box<dyn Fn(&[u8]) -> Result<(), String>>;
/// Trace-level check applied to the whole traversal.
pub type TraversalCheck = Box<dyn Fn(&Traversal) -> Result<(), String>>;

/// What a test case expects to happen.
pub enum Expect {
    /// Emitted on the given port.
    Emitted {
        /// Expected output port.
        port: PortId,
    },
    /// Dropped inside the switch.
    Dropped,
    /// Punted to the control plane.
    ToCpu,
}

/// One PTF test case.
pub struct TestCase {
    /// Human-readable name.
    pub name: String,
    /// Ingress port for injection.
    pub in_port: PortId,
    /// The packet to inject.
    pub packet: Vec<u8>,
    /// Expected disposition.
    pub expect: Expect,
    /// Optional byte checks on the final packet.
    pub packet_checks: Vec<PacketCheck>,
    /// Optional checks on the traversal (recirculation counts, tables hit…).
    pub traversal_checks: Vec<TraversalCheck>,
}

impl TestCase {
    fn new(name: &str, in_port: PortId, packet: Vec<u8>, expect: Expect) -> Self {
        TestCase {
            name: name.to_string(),
            in_port,
            packet,
            expect,
            packet_checks: Vec::new(),
            traversal_checks: Vec::new(),
        }
    }

    /// A case expecting emission on `port`.
    pub fn expect_port(name: &str, in_port: PortId, packet: Vec<u8>, port: PortId) -> Self {
        TestCase::new(name, in_port, packet, Expect::Emitted { port })
    }

    /// A case expecting a drop.
    pub fn expect_drop(name: &str, in_port: PortId, packet: Vec<u8>) -> Self {
        TestCase::new(name, in_port, packet, Expect::Dropped)
    }

    /// A case expecting a CPU punt.
    pub fn expect_cpu(name: &str, in_port: PortId, packet: Vec<u8>) -> Self {
        TestCase::new(name, in_port, packet, Expect::ToCpu)
    }

    /// Adds a byte-level check.
    pub fn check_packet(mut self, check: impl Fn(&[u8]) -> Result<(), String> + 'static) -> Self {
        self.packet_checks.push(Box::new(check));
        self
    }

    /// Adds a traversal check.
    pub fn check_traversal(
        mut self,
        check: impl Fn(&Traversal) -> Result<(), String> + 'static,
    ) -> Self {
        self.traversal_checks.push(Box::new(check));
        self
    }

    /// Shortcut: assert an exact recirculation count.
    pub fn expect_recirculations(self, n: usize) -> Self {
        self.check_traversal(move |t| {
            if t.recirculations == n {
                Ok(())
            } else {
                Err(format!(
                    "expected {n} recirculations, took {}",
                    t.recirculations
                ))
            }
        })
    }

    /// Shortcut: assert that a table was applied (hit or miss) somewhere
    /// along the way.
    pub fn expect_table_applied(self, table: &str) -> Self {
        let table = table.to_string();
        self.check_traversal(move |t| {
            if t.tables_applied().contains(&table.as_str()) {
                Ok(())
            } else {
                Err(format!(
                    "table {table} was not applied (applied: {:?})",
                    t.tables_applied()
                ))
            }
        })
    }

    /// Shortcut: assert that a table was hit somewhere along the way.
    pub fn expect_table_hit(self, table: &str) -> Self {
        let table = table.to_string();
        self.check_traversal(move |t| {
            if t.tables_hit().contains(&table.as_str()) {
                Ok(())
            } else {
                Err(format!(
                    "table {table} was not hit (hits: {:?})",
                    t.tables_hit()
                ))
            }
        })
    }
}

/// Result of one case.
#[derive(Debug)]
pub struct CaseResult {
    /// Case name.
    pub name: String,
    /// Failure reason, `None` on pass.
    pub failure: Option<String>,
    /// The traversal (for diagnostics), if injection succeeded.
    pub traversal: Option<Traversal>,
}

/// Suite-level report.
#[derive(Debug, Default)]
pub struct PtfReport {
    /// Per-case results.
    pub results: Vec<CaseResult>,
}

impl PtfReport {
    /// Number of passing cases.
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|r| r.failure.is_none()).count()
    }

    /// Number of failing cases.
    pub fn failed(&self) -> usize {
        self.results.len() - self.passed()
    }

    /// True when all cases passed.
    pub fn all_passed(&self) -> bool {
        self.failed() == 0
    }

    /// Panics with a readable summary if any case failed (test helper).
    pub fn assert_all_passed(&self) {
        if !self.all_passed() {
            panic!("{self}");
        }
    }
}

impl fmt::Display for PtfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PTF: {} passed, {} failed", self.passed(), self.failed())?;
        for r in &self.results {
            match &r.failure {
                None => writeln!(f, "  PASS {}", r.name)?,
                Some(reason) => writeln!(f, "  FAIL {}: {}", r.name, reason)?,
            }
        }
        Ok(())
    }
}

/// Check applied to the telemetry delta a suite produced.
pub type MetricsCheck = Box<dyn Fn(&MetricsSnapshot) -> Result<(), String>>;

/// Assertions on the [`MetricsSnapshot`] delta produced by running a suite
/// (see [`run_suite_with_metrics`]). Each expectation becomes one extra
/// `metrics: <label>` row in the [`PtfReport`], so metric regressions read
/// like failing test cases.
#[derive(Default)]
pub struct MetricsExpectations {
    checks: Vec<(String, MetricsCheck)>,
}

impl MetricsExpectations {
    /// No expectations yet.
    pub fn new() -> Self {
        MetricsExpectations::default()
    }

    /// Expects a counter's delta to be exactly `expected`.
    pub fn counter(self, name: &str, expected: u64) -> Self {
        let name = name.to_string();
        let label = format!("{name} == {expected}");
        self.check(&label, move |s| {
            let got = s.counter(&name);
            if got == expected {
                Ok(())
            } else {
                Err(format!("counter {name}: expected {expected}, got {got}"))
            }
        })
    }

    /// Expects a counter's delta to be at least `min`.
    pub fn counter_at_least(self, name: &str, min: u64) -> Self {
        let name = name.to_string();
        let label = format!("{name} >= {min}");
        self.check(&label, move |s| {
            let got = s.counter(&name);
            if got >= min {
                Ok(())
            } else {
                Err(format!(
                    "counter {name}: expected at least {min}, got {got}"
                ))
            }
        })
    }

    /// Expects exactly `expected` digests to have been emitted by
    /// `pipeline` over the suite — the flow-state analogue of checking
    /// punt counters: a learning NF should digest once per new flow and
    /// stay silent on established traffic.
    pub fn digests_emitted(self, pipeline: usize, expected: u64) -> Self {
        self.counter(
            &format!("digests_emitted{{pipeline=\"{pipeline}\"}}"),
            expected,
        )
    }

    /// Expects exactly `expected` entries to have aged out of `table` on
    /// `pipelet` over the suite (merged table name, e.g. `nat__nat_in`).
    pub fn evictions(self, pipelet: &str, table: &str, expected: u64) -> Self {
        self.counter(
            &format!("table_evictions{{pipelet=\"{pipelet}\",table=\"{table}\"}}"),
            expected,
        )
    }

    /// Expects the classification index serving `table` on `pipelet` to be
    /// `kind` at the end of the suite (the `table_index_kind` gauge carries
    /// the kind's ordinal; gauges keep their instantaneous value through
    /// the delta).
    pub fn index_kind(self, pipelet: &str, table: &str, kind: IndexKind) -> Self {
        let name = format!("table_index_kind{{pipelet=\"{pipelet}\",table=\"{table}\"}}");
        let label = format!("{name} == {}", kind.name());
        self.check(&label, move |s| {
            let got = s.gauge(&name);
            if got == kind.ordinal() {
                Ok(())
            } else {
                Err(format!(
                    "gauge {name}: expected {} ({}), got ordinal {got}",
                    kind.ordinal(),
                    kind.name()
                ))
            }
        })
    }

    /// Expects at least `min` index probes against `table` on `pipelet`
    /// over the suite — every lookup routed through the classification
    /// index records its probe count, so a suite that exercises the table
    /// must move this counter.
    pub fn index_probes_at_least(self, pipelet: &str, table: &str, min: u64) -> Self {
        self.counter_at_least(
            &format!("table_index_probes{{pipelet=\"{pipelet}\",table=\"{table}\"}}"),
            min,
        )
    }

    /// Expects exactly `expected` index rebuilds on `table` at `pipelet`
    /// over the suite (bulk reindexes from migrations, deletes, or
    /// incremental-insert bailouts).
    pub fn index_rebuilds(self, pipelet: &str, table: &str, expected: u64) -> Self {
        self.counter(
            &format!("table_index_rebuilds{{pipelet=\"{pipelet}\",table=\"{table}\"}}"),
            expected,
        )
    }

    /// Expects the run-to-completion workers to have processed exactly
    /// `expected` packets in total (sum of the `rtc_worker_packets{core}`
    /// family an [`RtcReport`] snapshot carries).
    ///
    /// [`RtcReport`]: dejavu_asic::RtcReport
    pub fn rtc_packets(self, expected: u64) -> Self {
        self.family_total("rtc_worker_packets", expected)
    }

    /// Expects run-to-completion worker `core` to have processed at least
    /// `min` packets — flow steering must actually spread the workload.
    pub fn rtc_worker_at_least(self, core: usize, min: u64) -> Self {
        self.counter_at_least(&format!("rtc_worker_packets{{core=\"{core}\"}}"), min)
    }

    /// Expects exactly `expected` pool-exhaustion events (failed buffer
    /// acquisitions) over the run.
    pub fn pool_exhausted(self, expected: u64) -> Self {
        self.counter("pool_exhausted", expected)
    }

    /// Expects the `pool_in_use` peak gauge to be at least `min` — a run
    /// that moved packets must have had buffers in flight.
    pub fn pool_in_use_at_least(self, min: i64) -> Self {
        let label = format!("pool_in_use >= {min}");
        self.check(&label, move |s| {
            let got = s.gauge("pool_in_use");
            if got >= min {
                Ok(())
            } else {
                Err(format!(
                    "gauge pool_in_use: expected at least {min}, got {got}"
                ))
            }
        })
    }

    /// Expects the ring-depth histogram (`rtc_ring_depth{core,bucket}`) to
    /// hold exactly `expected` samples — the executor samples occupancy
    /// once per ring pop, so this equals the packets the rings carried.
    pub fn rtc_ring_samples(self, expected: u64) -> Self {
        self.family_total("rtc_ring_depth", expected)
    }

    /// Expects the orchestrator to have executed exactly `expected` live
    /// migrations over the suite (`orchestrator_replans_triggered`).
    pub fn replans_triggered(self, expected: u64) -> Self {
        self.counter("orchestrator_replans_triggered", expected)
    }

    /// Expects exactly `expected` drifted telemetry windows to have been
    /// suppressed by hysteresis/cooldown instead of triggering a replan
    /// (`orchestrator_replans_skipped_hysteresis`).
    pub fn replans_skipped_hysteresis(self, expected: u64) -> Self {
        self.counter("orchestrator_replans_skipped_hysteresis", expected)
    }

    /// Expects exactly `expected` dynamic entries to have crossed switches
    /// alive during orchestrated migrations (`orchestrator_flows_migrated`).
    pub fn flows_migrated(self, expected: u64) -> Self {
        self.counter("orchestrator_flows_migrated", expected)
    }

    /// Expects the `orchestrator_migration_duration_ns` histogram to hold
    /// exactly `expected` samples — one per migration the orchestrator
    /// drove — each with a nonzero downtime window.
    pub fn migrations_timed(self, expected: u64) -> Self {
        let label = format!("orchestrator_migration_duration_ns samples == {expected}");
        self.check(&label, move |s| {
            match s.histogram("orchestrator_migration_duration_ns") {
                Some(h) if h.count == expected => Ok(()),
                Some(h) => Err(format!(
                    "orchestrator_migration_duration_ns: expected {expected} samples, got {}",
                    h.count
                )),
                None if expected == 0 => Ok(()),
                None => Err("orchestrator_migration_duration_ns: histogram missing".to_string()),
            }
        })
    }

    /// Expects the summed delta of every counter starting with `prefix`
    /// (e.g. a labelled family like `packet_recirc_depth`) to equal
    /// `expected`.
    pub fn family_total(self, prefix: &str, expected: u64) -> Self {
        let prefix = prefix.to_string();
        let label = format!("sum({prefix}*) == {expected}");
        self.check(&label, move |s| {
            let got = s.counter_family_total(&prefix);
            if got == expected {
                Ok(())
            } else {
                Err(format!(
                    "family {prefix}: expected total {expected}, got {got}"
                ))
            }
        })
    }

    /// Adds an arbitrary check on the delta snapshot.
    pub fn check(
        mut self,
        label: &str,
        check: impl Fn(&MetricsSnapshot) -> Result<(), String> + 'static,
    ) -> Self {
        self.checks.push((label.to_string(), Box::new(check)));
        self
    }

    /// Evaluates every expectation against `delta`, returning one
    /// [`CaseResult`] per expectation.
    pub fn evaluate(&self, delta: &MetricsSnapshot) -> Vec<CaseResult> {
        self.checks
            .iter()
            .map(|(label, check)| CaseResult {
                name: format!("metrics: {label}"),
                failure: check(delta).err(),
                traversal: None,
            })
            .collect()
    }
}

/// Runs a suite with telemetry forced on, then asserts `expect` against the
/// metrics delta the suite produced. The switch's previous telemetry
/// setting is restored afterwards; metric failures appear in the report as
/// `metrics: …` rows.
pub fn run_suite_with_metrics(
    switch: &mut Switch,
    cases: Vec<TestCase>,
    expect: MetricsExpectations,
) -> PtfReport {
    let was_enabled = switch.telemetry_enabled();
    switch.set_telemetry(true);
    let before = switch.metrics_snapshot();
    let mut report = run_suite(switch, cases);
    let delta = switch.metrics_snapshot().diff(&before);
    switch.set_telemetry(was_enabled);
    report.results.extend(expect.evaluate(&delta));
    report
}

/// Runs a suite of cases against a switch.
pub fn run_suite(switch: &mut Switch, cases: Vec<TestCase>) -> PtfReport {
    let mut report = PtfReport::default();
    for case in cases {
        let result = run_case(switch, &case);
        report.results.push(result);
    }
    report
}

fn run_case(switch: &mut Switch, case: &TestCase) -> CaseResult {
    let traversal = match switch.inject(InjectedPacket::new(case.packet.clone(), case.in_port)) {
        Ok(t) => t,
        Err(e) => {
            return CaseResult {
                name: case.name.clone(),
                failure: Some(format!("injection failed: {e}")),
                traversal: None,
            }
        }
    };
    let mut failure = None;
    let disposition_ok = match (&case.expect, &traversal.disposition) {
        (Expect::Emitted { port }, Disposition::Emitted { port: got }) => {
            if port == got {
                true
            } else {
                failure = Some(format!("expected port {port}, emitted on {got}"));
                false
            }
        }
        (Expect::Dropped, Disposition::Dropped) => true,
        (Expect::ToCpu, Disposition::ToCpu) => true,
        (expect, got) => {
            let want = match expect {
                Expect::Emitted { port } => format!("emitted on {port}"),
                Expect::Dropped => "dropped".into(),
                Expect::ToCpu => "punted to CPU".into(),
            };
            failure = Some(format!("expected {want}, got {got:?}"));
            false
        }
    };
    if disposition_ok {
        for check in &case.packet_checks {
            if let Err(e) = check(&traversal.final_bytes) {
                failure = Some(format!("packet check: {e}"));
                break;
            }
        }
    }
    if failure.is_none() {
        for check in &case.traversal_checks {
            if let Err(e) = check(&traversal) {
                failure = Some(format!("traversal check: {e}"));
                break;
            }
        }
    }
    CaseResult {
        name: case.name.clone(),
        failure,
        traversal: Some(traversal),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_asic::{PipeletId, TofinoProfile};
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::table::{KeyMatch, TableEntry};
    use dejavu_p4ir::well_known;
    use dejavu_p4ir::{fref, Expr, FieldRef, Value};

    fn l2_switch() -> Switch {
        let program = ProgramBuilder::new("l2")
            .header(well_known::ethernet())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .accept("eth")
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
                TableBuilder::new("l2")
                    .key_exact(fref("ethernet", "dst_mac"))
                    .action("fwd")
                    .default_action("deny")
                    .build(),
            )
            .control(ControlBuilder::new("ingress").apply("l2").build())
            .entry("ingress")
            .build()
            .unwrap();
        let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
        sw.load_program(PipeletId::ingress(0), program).unwrap();
        sw.install_entry(
            PipeletId::ingress(0),
            "l2",
            TableEntry {
                matches: vec![KeyMatch::Exact(Value::new(0xaabb, 48))],
                action: "fwd".into(),
                action_args: vec![Value::new(9, 16)],
                priority: 0,
            },
        )
        .unwrap();
        sw
    }

    fn eth_packet(dst: u64) -> Vec<u8> {
        let mut p = vec![0u8; 14];
        p[..6].copy_from_slice(&dst.to_be_bytes()[2..]);
        p
    }

    #[test]
    fn suite_passes_and_fails_correctly() {
        let mut sw = l2_switch();
        let report = run_suite(
            &mut sw,
            vec![
                TestCase::expect_port("known dst", 0, eth_packet(0xaabb), 9)
                    .expect_table_hit("l2")
                    .expect_recirculations(0),
                TestCase::expect_drop("unknown dst", 0, eth_packet(0xdead)),
                // Deliberate failure: wrong port.
                TestCase::expect_port("wrong port", 0, eth_packet(0xaabb), 7),
            ],
        );
        assert_eq!(report.passed(), 2);
        assert_eq!(report.failed(), 1);
        assert!(!report.all_passed());
        assert!(report.to_string().contains("FAIL wrong port"));
    }

    #[test]
    fn packet_check_runs_on_final_bytes() {
        let mut sw = l2_switch();
        let report = run_suite(
            &mut sw,
            vec![
                TestCase::expect_port("bytes preserved", 0, eth_packet(0xaabb), 9).check_packet(
                    |b| {
                        if b.len() == 14 {
                            Ok(())
                        } else {
                            Err(format!("len {}", b.len()))
                        }
                    },
                ),
            ],
        );
        report.assert_all_passed();
    }

    #[test]
    fn metrics_expectations_ride_along_with_the_suite() {
        let mut sw = l2_switch();
        let report = run_suite_with_metrics(
            &mut sw,
            vec![
                TestCase::expect_port("known dst", 0, eth_packet(0xaabb), 9),
                TestCase::expect_drop("unknown dst", 0, eth_packet(0xdead)),
            ],
            MetricsExpectations::new()
                .counter("packets_injected", 2)
                .counter("packets_emitted", 1)
                .counter("packets_dropped", 1)
                .counter_at_least("port_rx_packets{port=\"0\"}", 2)
                .family_total("packet_recirc_depth", 2)
                .check("no punts", |s| {
                    if s.counter("packets_to_cpu") == 0 {
                        Ok(())
                    } else {
                        Err("unexpected CPU punt".into())
                    }
                }),
        );
        report.assert_all_passed();
        // Telemetry was forced on only for the suite.
        assert!(!sw.telemetry_enabled());

        // A wrong expectation shows up as a failing metrics row.
        let report = run_suite_with_metrics(
            &mut sw,
            vec![TestCase::expect_port("known dst", 0, eth_packet(0xaabb), 9)],
            MetricsExpectations::new().counter("packets_dropped", 5),
        );
        assert_eq!(report.failed(), 1);
        assert!(report.to_string().contains("metrics: packets_dropped == 5"));
    }

    /// A learning L2 switch: misses digest the unknown MAC and flood out
    /// port 9; hits forward silently. `flows` ages under a 2-tick timeout.
    fn learning_switch() -> Switch {
        let program = ProgramBuilder::new("learner")
            .header(well_known::ethernet())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .accept("eth")
                    .start("eth"),
            )
            .action(
                ActionBuilder::new("learn")
                    .digest("d0", vec![Expr::field("ethernet", "dst_mac")])
                    .set(FieldRef::meta("egress_spec"), Expr::val(9, 16))
                    .build(),
            )
            .action(
                ActionBuilder::new("fwd")
                    .param("port", 16)
                    .set(FieldRef::meta("egress_spec"), Expr::Param("port".into()))
                    .build(),
            )
            .table(
                TableBuilder::new("flows")
                    .key_exact(fref("ethernet", "dst_mac"))
                    .action("fwd")
                    .default_action("learn")
                    .build(),
            )
            .control(ControlBuilder::new("ingress").apply("flows").build())
            .entry("ingress")
            .build()
            .unwrap();
        let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
        sw.load_program(PipeletId::ingress(0), program).unwrap();
        sw.set_idle_timeout(PipeletId::ingress(0), "flows", Some(2))
            .unwrap();
        sw.install_entry(
            PipeletId::ingress(0),
            "flows",
            TableEntry {
                matches: vec![KeyMatch::Exact(Value::new(0xaabb, 48))],
                action: "fwd".into(),
                action_args: vec![Value::new(9, 16)],
                priority: 0,
            },
        )
        .unwrap();
        sw
    }

    #[test]
    fn flow_state_expectations_observe_learning_and_aging() {
        let mut sw = learning_switch();
        let report = run_suite_with_metrics(
            &mut sw,
            vec![
                TestCase::expect_port("known flow stays silent", 0, eth_packet(0xaabb), 9)
                    .expect_table_hit("flows"),
                TestCase::expect_port("new flow digests", 0, eth_packet(0xbeef), 9),
            ],
            MetricsExpectations::new()
                .digests_emitted(0, 1)
                .evictions("ingress0", "flows", 0),
        );
        report.assert_all_passed();
        assert_eq!(sw.digest_backlog(0), 1);

        // Aging the entry out shows up in the eviction series, and the
        // expectation helper keys the exact same label.
        sw.set_telemetry(true);
        let before = sw.metrics_snapshot();
        let evicted = sw.advance_time(5);
        assert_eq!(evicted.len(), 1);
        let delta = sw.metrics_snapshot().diff(&before);
        let rows = MetricsExpectations::new()
            .evictions("ingress0", "flows", 1)
            .evaluate(&delta);
        assert!(rows.iter().all(|r| r.failure.is_none()), "{rows:?}");
        // The aged-out destination now misses — and digests again.
        let report = run_suite_with_metrics(
            &mut sw,
            vec![TestCase::expect_port(
                "aged flow misses",
                0,
                eth_packet(0xaabb),
                9,
            )],
            MetricsExpectations::new().digests_emitted(0, 1),
        );
        report.assert_all_passed();
    }

    #[test]
    #[should_panic(expected = "PTF")]
    fn assert_all_passed_panics_with_summary() {
        let mut sw = l2_switch();
        let report = run_suite(
            &mut sw,
            vec![TestCase::expect_drop("will fail", 0, eth_packet(0xaabb))],
        );
        report.assert_all_passed();
    }
}
