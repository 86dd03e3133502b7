//! The switch executor: pipelines, traffic manager, packet paths.
//!
//! [`Switch`] wires the pieces together into the architecture of the paper's
//! Fig. 1. A packet injected on an Ethernet port traverses:
//!
//! ```text
//! MAC → ingress pipelet ─┬→ (resubmit) → same ingress pipelet
//!                        └→ traffic manager → egress pipelet ─┬→ MAC → out
//!                                     (loopback/recirc port) ─┴→ ingress pipelet
//! ```
//!
//! Tofino's recirculation constraints (§3.3 a–d) are enforced structurally:
//!
//! * (a) resubmission happens only after the ingress pipe completes;
//!   recirculation only after the egress pipe completes;
//! * (b) the recirculation decision is made in ingress, by setting the
//!   packet's egress port to a port in loopback mode;
//! * (c) recirculation bandwidth is per-port — a loopback port accepts no
//!   external traffic, and neither does a dedicated recirculation port;
//! * (d) a recirculated packet re-enters the ingress pipe *of the pipeline
//!   owning the loopback port* — never another pipeline directly.
//!
//! That walk is written once (the private `Switch::walk`) and runs in place on
//! the caller's buffer over the switch's warm scratch state. The three public
//! ways in are adapters over it, and all share one admission check:
//!
//! * [`Switch::inject`] returns a [`Traversal`]: the full event trace
//!   (pipelets entered, tables hit, resubmissions, recirculations) when
//!   [`TraceLevel::Full`], the final bytes, the accumulated latency from the
//!   calibrated [`TimingModel`], and the packet's disposition. The packet
//!   test framework and Dejavu's placement validator are built on these
//!   traces.
//! * [`Switch::inject_buf`] is the same walk with no trace: the caller's
//!   buffer in, the final bytes out, a [`BufOutcome`] back — the
//!   zero-allocation entry point [`crate::rtc`] is built on.
//! * [`Switch::inject_batch`] loops `inject_buf` over a slice and returns
//!   tallies.
//!
//! Either engine ([`ExecMode`]) serves any of them; tracing changes no
//! forwarding result, metric or byte.

use crate::compiled::{BufPass, CompiledProgram, ExecScratch};
use crate::index::{IndexKind, IndexPolicy};
use crate::interp::{Interpreter, TableEvent};
use crate::metrics::SwitchMetrics;
use crate::packet::ParsedPacket;
use crate::tables::{DigestRecord, Eviction, TableState};
use crate::timing::TimingModel;
use crate::tofino::TofinoProfile;
use dejavu_p4ir::table::TableEntry;
use dejavu_p4ir::{IrError, Program, Value};
use dejavu_state::{MigrationReport, RegisterSnapshot, StateSnapshot, TableSnapshot};
use dejavu_telemetry::MetricsSnapshot;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::ControlFlow;
use std::sync::Arc;

/// A physical port number.
pub type PortId = u16;

/// Sentinel for an unset egress port (paper Fig. 3 outPort before routing).
pub const PORT_UNSET: PortId = 0xffff;
/// Base id of the per-pipeline dedicated recirculation ports.
pub const RECIRC_PORT_BASE: PortId = 0x0f00;
/// The CPU (punt) port.
pub const CPU_PORT: PortId = 0x0fff;

/// Default bound of each pipeline's learn (digest) queue. Real learn
/// filters are small on-chip FIFOs; a full queue drops new digests and
/// counts them (`digests_dropped{pipeline=…}`).
pub const DEFAULT_DIGEST_CAPACITY: usize = 4096;

/// Ingress or egress half of a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Gress {
    /// Ingress pipelet.
    Ingress,
    /// Egress pipelet.
    Egress,
}

/// Identifies one pipelet: a pipeline index plus ingress/egress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PipeletId {
    /// Pipeline index (0-based).
    pub pipeline: usize,
    /// Which half.
    pub gress: Gress,
}

impl PipeletId {
    /// Ingress pipelet of pipeline `p`.
    pub fn ingress(p: usize) -> Self {
        PipeletId {
            pipeline: p,
            gress: Gress::Ingress,
        }
    }

    /// Egress pipelet of pipeline `p`.
    pub fn egress(p: usize) -> Self {
        PipeletId {
            pipeline: p,
            gress: Gress::Egress,
        }
    }

    /// Dense index in `(pipeline, gress)` order — the order `Ord` gives.
    fn slot(self) -> usize {
        self.pipeline * 2 + usize::from(self.gress == Gress::Egress)
    }

    fn from_slot(slot: usize) -> Self {
        PipeletId {
            pipeline: slot / 2,
            gress: if slot.is_multiple_of(2) {
                Gress::Ingress
            } else {
                Gress::Egress
            },
        }
    }
}

impl std::fmt::Display for PipeletId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.gress {
            Gress::Ingress => write!(f, "ingress{}", self.pipeline),
            Gress::Egress => write!(f, "egress{}", self.pipeline),
        }
    }
}

/// One observable event during a traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Packet entered a pipelet's parser.
    EnterPipelet(PipeletId),
    /// A table was applied.
    Table {
        /// Pipelet where it ran.
        pipelet: PipeletId,
        /// Table name.
        table: String,
        /// Whether an installed entry matched.
        hit: bool,
        /// Action that ran.
        action: String,
    },
    /// Packet was resubmitted to the same ingress pipelet.
    Resubmit {
        /// Pipeline whose ingress re-runs.
        pipeline: usize,
    },
    /// Packet crossed the traffic manager.
    TmTransit {
        /// Source pipeline.
        from: usize,
        /// Destination pipeline.
        to: usize,
    },
    /// Packet was recirculated through a loopback/recirculation port.
    Recirculate {
        /// The port it looped through.
        port: PortId,
    },
    /// Packet left the switch on a port.
    Emit {
        /// Output port.
        port: PortId,
    },
    /// Packet was dropped.
    Drop {
        /// Pipelet responsible.
        pipelet: PipeletId,
    },
    /// Packet was punted to the CPU.
    ToCpu {
        /// Pipelet responsible.
        pipelet: PipeletId,
    },
    /// The parser rejected the packet (or it was truncated).
    ParseError {
        /// Pipelet whose parser rejected it.
        pipelet: PipeletId,
    },
    /// A copy of the packet was mirrored to the mirror port.
    Mirror {
        /// The mirror destination port.
        port: PortId,
    },
    /// The packet was forwarded to a port whose link is down.
    LinkDown {
        /// The down port.
        port: PortId,
    },
}

/// Final fate of an injected packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Emitted on an Ethernet port.
    Emitted {
        /// Output port.
        port: PortId,
    },
    /// Dropped inside the chip.
    Dropped,
    /// Punted to the control plane.
    ToCpu,
}

/// Result of driving one packet to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct Traversal {
    /// Ordered event trace.
    pub events: Vec<TraceEvent>,
    /// Final fate.
    pub disposition: Disposition,
    /// Wire bytes at the end (as emitted / punted / at drop point).
    pub final_bytes: Vec<u8>,
    /// Accumulated latency in nanoseconds.
    pub latency_ns: f64,
    /// Number of recirculations taken.
    pub recirculations: usize,
    /// Number of resubmissions taken.
    pub resubmissions: usize,
    /// Mirrored copies emitted along the way: `(mirror port, bytes)`.
    pub mirrored: Vec<(PortId, Vec<u8>)>,
}

impl Traversal {
    /// Pipelets entered, in order.
    pub fn pipelets_visited(&self) -> Vec<PipeletId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::EnterPipelet(p) => Some(*p),
                _ => None,
            })
            .collect()
    }

    /// Tables hit (entry matched), in order.
    pub fn tables_hit(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Table {
                    table, hit: true, ..
                } => Some(table.as_str()),
                _ => None,
            })
            .collect()
    }

    /// All tables applied, in order.
    pub fn tables_applied(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Table { table, .. } => Some(table.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Renders the traversal as a human-readable hop-by-hop trace — the
    /// troubleshooting view §7 calls for ("troubleshooting … can have
    /// significant impacts on the wider adoption of programmable network
    /// devices").
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for e in &self.events {
            let line = match e {
                TraceEvent::EnterPipelet(p) => format!("-> {p}"),
                TraceEvent::Table {
                    table, hit, action, ..
                } => format!(
                    "     {table}: {} -> {action}",
                    if *hit { "hit " } else { "miss" }
                ),
                TraceEvent::Resubmit { pipeline } => {
                    format!("<< resubmit (ingress {pipeline})")
                }
                TraceEvent::TmTransit { from, to } => {
                    format!("=> traffic manager: pipeline {from} -> {to}")
                }
                TraceEvent::Recirculate { port } => format!("<< recirculate via port {port}"),
                TraceEvent::Emit { port } => format!("== emitted on port {port}"),
                TraceEvent::Drop { pipelet } => format!("xx dropped in {pipelet}"),
                TraceEvent::ToCpu { pipelet } => format!("^^ punted to CPU from {pipelet}"),
                TraceEvent::ParseError { pipelet } => {
                    format!("xx parser rejected in {pipelet}")
                }
                TraceEvent::Mirror { port } => format!("++ mirrored to port {port}"),
                TraceEvent::LinkDown { port } => format!("xx link down on port {port}"),
            };
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "{} recirculations, {} resubmissions, {:.0} ns",
            self.recirculations, self.resubmissions, self.latency_ns
        );
        out
    }
}

/// Static switch configuration: which program runs on which pipelet, and
/// which ports are in loopback mode.
#[derive(Debug, Clone, Default)]
pub struct SwitchConfig {
    /// Programs per pipelet.
    pub programs: BTreeMap<PipeletId, Program>,
    /// Ethernet ports in loopback mode.
    pub loopback_ports: BTreeSet<PortId>,
}

/// Which execution engine drives pipelet passes.
///
/// Both engines implement identical packet semantics (enforced by the
/// differential property suite); they differ only in cost. See
/// [`crate::compiled`] for the lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Tree-walking reference interpreter with string-keyed lookups and
    /// linear table scans. The semantic oracle.
    Reference,
    /// Pre-lowered op-array engine with dense indices and indexed table
    /// lookup. The default.
    #[default]
    Compiled,
}

/// How much per-packet trace state a traversal records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// No [`TraceEvent`]s are recorded (table hit/miss counters still
    /// advance). The hot-path setting: no per-table `String` allocation.
    Off,
    /// Full event traces, as the packet test framework expects. The default.
    #[default]
    Full,
}

/// A packet to inject: wire bytes plus the arrival port. The single
/// injection type shared by [`Switch::inject`], [`Switch::inject_batch`],
/// [`crate::rtc::RtcSession::run`] and the traffic replay driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedPacket {
    /// Wire bytes.
    pub bytes: Vec<u8>,
    /// Arrival port.
    pub port: PortId,
}

impl InjectedPacket {
    /// Bytes arriving on a port.
    pub fn new(bytes: Vec<u8>, port: PortId) -> Self {
        InjectedPacket { bytes, port }
    }
}

/// Construction-time switch configuration, collected from what used to be
/// scattered post-construction setters. Build one with the fluent methods
/// and pass it to [`Switch::with_options`]; the individual setters remain
/// for reconfiguration after construction.
///
/// ```
/// use dejavu_asic::{ExecMode, Switch, SwitchOptions, TofinoProfile, TraceLevel};
///
/// let sw = Switch::with_options(
///     TofinoProfile::wedge_100b_32x(),
///     SwitchOptions::new()
///         .exec_mode(ExecMode::Compiled)
///         .trace_level(TraceLevel::Off)
///         .telemetry(true),
/// );
/// assert!(sw.telemetry_enabled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SwitchOptions {
    exec_mode: ExecMode,
    trace_level: TraceLevel,
    timing: Option<TimingModel>,
    mirror_port: Option<PortId>,
    telemetry: bool,
    digest_capacity: Option<usize>,
}

impl SwitchOptions {
    /// Defaults: compiled engine, full tracing, calibrated Tofino timing,
    /// no mirror session, telemetry off.
    pub fn new() -> Self {
        SwitchOptions::default()
    }

    /// Selects the execution engine.
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Selects how much trace state traversals record.
    pub fn trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Replaces the calibrated timing model.
    pub fn timing(mut self, timing: TimingModel) -> Self {
        self.timing = Some(timing);
        self
    }

    /// Configures the mirror destination port.
    pub fn mirror_port(mut self, port: PortId) -> Self {
        self.mirror_port = Some(port);
        self
    }

    /// Turns metric collection on from the start.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Bounds each pipeline's learn (digest) queue.
    pub fn digest_capacity(mut self, capacity: usize) -> Self {
        self.digest_capacity = Some(capacity);
        self
    }
}

/// Aggregate outcome of a [`Switch::inject_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchStats {
    /// Packets handed to the switch.
    pub injected: usize,
    /// Packets emitted on an Ethernet port.
    pub emitted: usize,
    /// Packets dropped inside the chip.
    pub dropped: usize,
    /// Packets punted to the CPU port.
    pub to_cpu: usize,
    /// Packets rejected with an error (bad port, forwarding loop, ...).
    pub errors: usize,
    /// Total recirculations across the batch.
    pub recirculations: usize,
    /// Total resubmissions across the batch.
    pub resubmissions: usize,
    /// Summed model latency over all non-error packets, in nanoseconds.
    pub latency_ns_total: f64,
}

/// What one traversal accumulates on its way round `Switch::walk`: the
/// running totals every exit reports, and the trace when one is wanted.
struct Walk<'a> {
    latency_ns: f64,
    recirculations: usize,
    resubmissions: usize,
    /// `None` for an untraced traversal.
    events: Option<&'a mut Vec<TraceEvent>>,
}

impl Walk<'_> {
    #[inline]
    fn note(&mut self, event: TraceEvent) {
        if let Some(events) = &mut self.events {
            events.push(event);
        }
    }

    /// Logs the table applications of one pass at `pipelet`.
    fn note_tables(&mut self, pipelet: PipeletId, applied: impl Iterator<Item = TableEvent>) {
        if let Some(events) = &mut self.events {
            events.extend(applied.map(|ev| TraceEvent::Table {
                pipelet,
                table: ev.table,
                hit: ev.hit,
                action: ev.action,
            }));
        }
    }
}

/// Everything `load_program` puts on one pipelet.
#[derive(Debug, Clone)]
struct Loaded {
    program: Program,
    compiled: Arc<CompiledProgram>,
    tables: TableState,
}

/// The simulated switch.
#[derive(Debug, Clone)]
pub struct Switch {
    profile: TofinoProfile,
    timing: TimingModel,
    /// What is loaded on each pipelet, dense by [`PipeletId::slot`] — one
    /// indexed load per pass resolves program, compiled form and state.
    slots: Vec<Option<Loaded>>,
    loopback_ports: BTreeSet<PortId>,
    down_ports: BTreeSet<PortId>,
    mirror_port: Option<PortId>,
    max_loops: usize,
    exec_mode: ExecMode,
    trace_level: TraceLevel,
    metrics: SwitchMetrics,
    /// Logical time in ticks; advanced only by [`Switch::advance_time`].
    now: u64,
    /// Bound of each pipeline's learn queue.
    digest_capacity: usize,
    /// Per-pipeline learn queues, fed by the pipelets' `digest(...)`
    /// primitives and drained by the control plane.
    digest_queues: BTreeMap<usize, VecDeque<DigestRecord>>,
    /// Digests lost to a full queue, per pipeline.
    digest_drops: BTreeMap<usize, u64>,
    /// Reusable per-pass execution state: warm after the first few packets,
    /// so a traversal allocates nothing for it.
    scratch: ExecScratch,
    /// Mirror copies produced by traversals. [`Switch::inject`] hands back
    /// the ones its packet made; [`Switch::inject_buf`] leaves them here for
    /// [`Switch::drain_mirrored`].
    mirror_out: Vec<(PortId, Vec<u8>)>,
}

/// Outcome of one walk through the chip: the disposition plus the loop and
/// timing counters. [`Switch::inject_buf`] returns it as is (the final bytes
/// are in the caller's buffer, mirror copies in [`Switch::drain_mirrored`]);
/// [`Switch::inject`] packs it into a [`Traversal`] with the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufOutcome {
    /// Final fate of the packet.
    pub disposition: Disposition,
    /// Number of recirculations taken.
    pub recirculations: usize,
    /// Number of resubmissions taken.
    pub resubmissions: usize,
    /// Accumulated latency in nanoseconds.
    pub latency_ns: f64,
}

impl Switch {
    /// Creates an empty switch with the given profile and default timing.
    /// Telemetry starts disabled (see [`Switch::set_telemetry`]).
    pub fn new(profile: TofinoProfile) -> Self {
        let metrics = SwitchMetrics::new(&profile);
        Switch {
            slots: vec![None; profile.pipelines * 2],
            profile,
            timing: TimingModel::tofino(),
            loopback_ports: BTreeSet::new(),
            down_ports: BTreeSet::new(),
            mirror_port: None,
            max_loops: 128,
            exec_mode: ExecMode::default(),
            trace_level: TraceLevel::default(),
            metrics,
            now: 0,
            digest_capacity: DEFAULT_DIGEST_CAPACITY,
            digest_queues: BTreeMap::new(),
            digest_drops: BTreeMap::new(),
            scratch: ExecScratch::new(),
            mirror_out: Vec::new(),
        }
    }

    /// Creates a switch configured by a [`SwitchOptions`] builder.
    pub fn with_options(profile: TofinoProfile, opts: SwitchOptions) -> Self {
        let mut sw = Switch::new(profile);
        sw.exec_mode = opts.exec_mode;
        sw.trace_level = opts.trace_level;
        if let Some(timing) = opts.timing {
            sw.timing = timing;
        }
        sw.mirror_port = opts.mirror_port;
        sw.metrics.set_enabled(opts.telemetry);
        if let Some(cap) = opts.digest_capacity {
            sw.digest_capacity = cap;
        }
        sw
    }

    /// Turns metric collection on or off. Accumulated values are kept; when
    /// off, every hook short-circuits on one `bool` load.
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.metrics.set_enabled(enabled);
    }

    /// Whether metric collection is on.
    pub fn telemetry_enabled(&self) -> bool {
        self.metrics.is_enabled()
    }

    /// The switch's metric handles and backing registry.
    pub fn metrics(&self) -> &SwitchMetrics {
        &self.metrics
    }

    /// Captures a full metrics snapshot: every registry series plus the
    /// per-table hit/miss counters folded in from [`TableState`] (as
    /// `table_hits{pipelet="…",table="…"}` / `table_misses{…}`), so one
    /// export carries the whole observable state of the switch.
    ///
    /// The table-counter fold only happens while telemetry is enabled:
    /// [`TableState`] counters accumulate regardless of the flag, and
    /// surfacing them through a disabled registry would make an "empty"
    /// snapshot non-zero.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        if !self.metrics.is_enabled() {
            return MetricsSnapshot::capture(self.metrics.registry());
        }
        self.metrics.set_table_entries(
            self.loaded_all()
                .map(|(_, l)| l.tables.total_entries())
                .sum(),
        );
        let mut snap = MetricsSnapshot::capture(self.metrics.registry());
        for (pipelet, loaded) in self.loaded_all() {
            let state = &loaded.tables;
            for (table, c) in state.all_counters() {
                snap.set_counter(
                    format!("table_hits{{pipelet=\"{pipelet}\",table=\"{table}\"}}"),
                    c.hits,
                );
                snap.set_counter(
                    format!("table_misses{{pipelet=\"{pipelet}\",table=\"{table}\"}}"),
                    c.misses,
                );
                let evictions = state.evictions(&table);
                if evictions > 0 {
                    snap.set_counter(
                        format!("table_evictions{{pipelet=\"{pipelet}\",table=\"{table}\"}}"),
                        evictions,
                    );
                }
            }
            for (table, it) in state.index_telemetry() {
                snap.set_gauge(
                    format!("table_index_kind{{pipelet=\"{pipelet}\",table=\"{table}\"}}"),
                    it.kind.ordinal(),
                );
                snap.set_counter(
                    format!("table_index_probes{{pipelet=\"{pipelet}\",table=\"{table}\"}}"),
                    it.probes,
                );
                if it.rebuilds > 0 {
                    snap.set_counter(
                        format!("table_index_rebuilds{{pipelet=\"{pipelet}\",table=\"{table}\"}}"),
                        it.rebuilds,
                    );
                }
                for (b, &v) in it.probe_hist.iter().enumerate() {
                    if v > 0 {
                        snap.set_counter(
                            format!(
                                "table_index_probe_depth{{pipelet=\"{pipelet}\",table=\"{table}\",bucket=\"{b}\"}}"
                            ),
                            v,
                        );
                    }
                }
                for (b, &v) in it.depth_hist.iter().enumerate() {
                    if v > 0 {
                        snap.set_counter(
                            format!(
                                "table_index_tree_depth{{pipelet=\"{pipelet}\",table=\"{table}\",bucket=\"{b}\"}}"
                            ),
                            v,
                        );
                    }
                }
            }
        }
        snap
    }

    /// Selects the execution engine for subsequent traversals.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The execution engine currently in use.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Selects how much trace state subsequent traversals record.
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.trace_level = level;
    }

    /// The current trace level.
    pub fn trace_level(&self) -> TraceLevel {
        self.trace_level
    }

    /// Marks a port's link down or up. Packets forwarded to a down port are
    /// dropped (with a `LinkDown` trace event), and injecting external
    /// traffic on it fails — the failure model behind §7's "failure
    /// handling" discussion.
    pub fn set_port_down(&mut self, port: PortId, down: bool) {
        if down {
            self.down_ports.insert(port);
        } else {
            self.down_ports.remove(&port);
        }
    }

    /// True when the port's link is down.
    pub fn is_port_down(&self, port: PortId) -> bool {
        self.down_ports.contains(&port)
    }

    /// Clears all entries of a table on a pipelet (used when routing is
    /// re-synthesized after a failure or re-placement).
    pub fn clear_table(&mut self, pipelet: PipeletId, table: &str) {
        if let Some(loaded) = self.loaded_mut(pipelet) {
            loaded.tables.clear(table);
        }
    }

    /// Configures the mirror destination port. Packets whose pipelet
    /// processing sets `mirror_flag` have a copy emitted there (the
    /// simulator's single mirror session).
    pub fn set_mirror_port(&mut self, port: Option<PortId>) {
        self.mirror_port = port;
    }

    /// The switch profile.
    pub fn profile(&self) -> &TofinoProfile {
        &self.profile
    }

    /// The timing model in use.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Replaces the timing model.
    pub fn set_timing(&mut self, timing: TimingModel) {
        self.timing = timing;
    }

    /// Loads a program onto a pipelet, resetting that pipelet's table state.
    /// The program is validated and its parser depth checked against the
    /// profile's parser window.
    pub fn load_program(&mut self, pipelet: PipeletId, program: Program) -> Result<(), IrError> {
        if pipelet.pipeline >= self.profile.pipelines {
            return Err(IrError::Invalid(format!(
                "pipeline {} out of range (switch has {})",
                pipelet.pipeline, self.profile.pipelines
            )));
        }
        program.validate()?;
        let depth = program.parser.max_depth_bytes(&program.header_map());
        if depth > self.profile.parser_window_bytes {
            return Err(IrError::Invalid(format!(
                "parser needs {depth} bytes, window is {}",
                self.profile.parser_window_bytes
            )));
        }
        let compiled = CompiledProgram::compile(&program)?;
        // Pre-register every table in `program.tables` (BTreeMap) order so
        // the dense slot ids baked into the compiled program line up with
        // the state's slots.
        let mut state = TableState::new();
        for def in program.tables.values() {
            state.preregister(def);
        }
        // A freshly loaded program joins the switch's logical timeline, so
        // aging continues seamlessly across upgrades once state is migrated.
        state.set_clock(self.now);
        self.slots[pipelet.slot()] = Some(Loaded {
            program,
            compiled: Arc::new(compiled),
            tables: state,
        });
        Ok(())
    }

    /// Applies a whole configuration (programs + loopback set).
    pub fn apply_config(&mut self, config: SwitchConfig) -> Result<(), IrError> {
        for (pipelet, program) in config.programs {
            self.load_program(pipelet, program)?;
        }
        for port in config.loopback_ports {
            self.set_loopback(port, true)?;
        }
        Ok(())
    }

    /// Puts an Ethernet port in or out of loopback mode.
    pub fn set_loopback(&mut self, port: PortId, enabled: bool) -> Result<(), IrError> {
        if self.profile.pipeline_of_port(usize::from(port)).is_none() {
            return Err(IrError::Invalid(format!("port {port} out of range")));
        }
        if enabled {
            self.loopback_ports.insert(port);
        } else {
            self.loopback_ports.remove(&port);
        }
        Ok(())
    }

    /// True if the port is in loopback mode.
    pub fn is_loopback(&self, port: PortId) -> bool {
        self.loopback_ports.contains(&port)
    }

    /// The dedicated recirculation port of a pipeline.
    pub fn recirc_port(&self, pipeline: usize) -> PortId {
        RECIRC_PORT_BASE + pipeline as PortId
    }

    /// Installs a table entry into a pipelet's table.
    pub fn install_entry(
        &mut self,
        pipelet: PipeletId,
        table: &str,
        entry: TableEntry,
    ) -> Result<(), IrError> {
        let Loaded {
            program, tables, ..
        } = self.loaded_or_err(pipelet)?;
        let def = program.tables.get(table).ok_or(IrError::Undefined {
            kind: "table",
            name: table.to_string(),
        })?;
        tables.install(def, entry)
    }

    /// Removes a previously installed entry from a pipelet's table.
    /// Returns `Ok(true)` when an identical entry existed and was removed.
    pub fn remove_entry(
        &mut self,
        pipelet: PipeletId,
        table: &str,
        entry: &TableEntry,
    ) -> Result<bool, IrError> {
        self.loaded_or_err(pipelet)?
            .tables
            .remove_entry(table, entry)
    }

    /// Sets the classification-index policy of a pipelet's table (pin a
    /// kind with [`IndexPolicy::Force`], or return to automatic selection).
    pub fn set_table_index(
        &mut self,
        pipelet: PipeletId,
        table: &str,
        policy: IndexPolicy,
    ) -> Result<(), IrError> {
        self.loaded_or_err(pipelet)?
            .tables
            .set_index_policy(table, policy)
    }

    /// The index kind currently serving a pipelet's table.
    pub fn table_index_kind(&self, pipelet: PipeletId, table: &str) -> Option<IndexKind> {
        self.tables(pipelet)?.index_kind(table)
    }

    fn loaded(&self, pipelet: PipeletId) -> Option<&Loaded> {
        self.slots.get(pipelet.slot())?.as_ref()
    }

    fn loaded_mut(&mut self, pipelet: PipeletId) -> Option<&mut Loaded> {
        self.slots.get_mut(pipelet.slot())?.as_mut()
    }

    fn loaded_or_err(&mut self, pipelet: PipeletId) -> Result<&mut Loaded, IrError> {
        self.loaded_mut(pipelet)
            .ok_or_else(|| IrError::Invalid(format!("no program loaded on {pipelet}")))
    }

    /// Loaded pipelets in `PipeletId` order.
    fn loaded_all(&self) -> impl Iterator<Item = (PipeletId, &Loaded)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, l)| Some((PipeletId::from_slot(slot), l.as_ref()?)))
    }

    /// Read access to a pipelet's table state (counters, entry counts).
    pub fn tables(&self, pipelet: PipeletId) -> Option<&TableState> {
        self.loaded(pipelet).map(|l| &l.tables)
    }

    /// Control-plane read of a register cell on a pipelet (`None` when the
    /// register was never touched or does not exist).
    pub fn register_peek(&self, pipelet: PipeletId, register: &str, index: u32) -> Option<u128> {
        self.tables(pipelet)?.register_peek(register, index)
    }

    /// Control-plane write of a register cell (used e.g. to reset token
    /// buckets each epoch). Errors when no program is loaded or the
    /// register is unknown.
    pub fn register_store(
        &mut self,
        pipelet: PipeletId,
        register: &str,
        index: u32,
        value: u128,
    ) -> Result<(), IrError> {
        let undefined = || IrError::Undefined {
            kind: "register",
            name: register.to_string(),
        };
        let Loaded {
            program, tables, ..
        } = self.loaded_mut(pipelet).ok_or_else(undefined)?;
        let def = program.registers.get(register).ok_or_else(undefined)?;
        tables.register_write(def, index, value);
        Ok(())
    }

    /// Program loaded on a pipelet.
    pub fn program(&self, pipelet: PipeletId) -> Option<&Program> {
        self.loaded(pipelet).map(|l| &l.program)
    }

    /// Pipelets with a program loaded, in deterministic order.
    pub fn loaded_pipelets(&self) -> Vec<PipeletId> {
        self.loaded_all().map(|(pipelet, _)| pipelet).collect()
    }

    // ------------------------------------------------- flow-state runtime

    /// Current logical time in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances logical time by `ticks` and sweeps every pipelet's tables
    /// for entries idle past their table's timeout. Returns the evicted
    /// entries, attributed to their pipelet, in registration order — the
    /// control plane's view of flow expiry.
    pub fn advance_time(&mut self, ticks: u64) -> Vec<(PipeletId, Eviction)> {
        self.now = self.now.saturating_add(ticks);
        let mut evicted = Vec::new();
        for (slot, loaded) in self.slots.iter_mut().enumerate() {
            let Some(loaded) = loaded else { continue };
            for ev in loaded.tables.advance_clock(ticks) {
                evicted.push((PipeletId::from_slot(slot), ev));
            }
        }
        evicted
    }

    /// Configures (or clears) the idle timeout of a table on a pipelet.
    /// Entries not hit for `timeout` ticks are evicted by the next
    /// [`Switch::advance_time`]; a full aging-enabled table evicts its
    /// least-recently-hit entry to admit a new one.
    pub fn set_idle_timeout(
        &mut self,
        pipelet: PipeletId,
        table: &str,
        timeout: Option<u64>,
    ) -> Result<(), IrError> {
        self.loaded_or_err(pipelet)?
            .tables
            .set_idle_timeout(table, timeout)
    }

    /// Moves digests emitted during packet processing from the pipelet's
    /// table state into the owning pipeline's bounded learn queue. Called
    /// after every pipelet pass.
    fn collect_digests(&mut self, pipelet: PipeletId) {
        let Some(loaded) = self.loaded_mut(pipelet) else {
            return;
        };
        let records = loaded.tables.take_digests();
        if records.is_empty() {
            return;
        }
        let queue = self.digest_queues.entry(pipelet.pipeline).or_default();
        for record in records {
            if queue.len() >= self.digest_capacity {
                *self.digest_drops.entry(pipelet.pipeline).or_default() += 1;
                self.metrics.on_digest_dropped(pipelet.pipeline);
            } else {
                queue.push_back(record);
                self.metrics.on_digest(pipelet.pipeline);
            }
        }
    }

    /// Drains every pipeline's learn queue, oldest first within each
    /// pipeline, attributed to the emitting pipeline. The control plane's
    /// learning loop calls this.
    pub fn drain_digests(&mut self) -> Vec<(usize, DigestRecord)> {
        let mut out = Vec::new();
        for (pipeline, queue) in &mut self.digest_queues {
            out.extend(queue.drain(..).map(|r| (*pipeline, r)));
        }
        out
    }

    /// Digests currently queued on a pipeline.
    pub fn digest_backlog(&self, pipeline: usize) -> usize {
        self.digest_queues.get(&pipeline).map_or(0, VecDeque::len)
    }

    /// Digests lost to a full learn queue on a pipeline.
    pub fn digests_dropped(&self, pipeline: usize) -> u64 {
        self.digest_drops.get(&pipeline).copied().unwrap_or(0)
    }

    /// Captures a versioned snapshot of a pipelet's mutable state: every
    /// installed table entry, each table's aging configuration, all
    /// register cells, and the logical clock. `None` when no program is
    /// loaded there.
    pub fn snapshot_state(&self, pipelet: PipeletId) -> Option<StateSnapshot> {
        let Loaded {
            program,
            tables: state,
            ..
        } = self.loaded(pipelet)?;
        let mut snap = StateSnapshot::empty(&program.name);
        snap.clock = state.now();
        for name in state.table_names() {
            snap.tables.push(TableSnapshot {
                idle_timeout: state.idle_timeout(&name),
                entries: state.entries(&name).to_vec(),
                name,
            });
        }
        for (name, cells) in state.register_arrays() {
            snap.registers.push(RegisterSnapshot {
                name: name.clone(),
                cells: cells.clone(),
            });
        }
        Some(snap)
    }

    /// Remaps a [`StateSnapshot`] onto the program currently loaded on
    /// `pipelet`, keyed by merged table/register name. Entries whose table
    /// vanished, whose action is no longer defined, or whose key shape
    /// changed are reported as dropped rather than silently lost; restored
    /// entries get a fresh idle stamp so a migration never triggers a mass
    /// eviction. Register cells are masked to the new declared widths.
    pub fn restore_state(
        &mut self,
        pipelet: PipeletId,
        snap: &StateSnapshot,
    ) -> Result<MigrationReport, IrError> {
        let Loaded {
            program,
            tables: state,
            ..
        } = self.loaded_or_err(pipelet)?;
        let mut report = MigrationReport::default();
        for t in &snap.tables {
            let Some(def) = program.tables.get(&t.name) else {
                for e in &t.entries {
                    report.drop_entry(&t.name, e.clone(), "table not in new program");
                }
                continue;
            };
            report.remapped_tables += 1;
            state
                .set_idle_timeout(&t.name, t.idle_timeout)
                .expect("table definition was just found");
            for e in &t.entries {
                if !def.actions.contains(&e.action) {
                    report.drop_entry(&t.name, e.clone(), "action no longer defined");
                    continue;
                }
                if e.matches.len() != def.keys.len() {
                    report.drop_entry(&t.name, e.clone(), "key shape changed");
                    continue;
                }
                if state.contains_entry(&t.name, e) {
                    report.restored_entries += 1;
                    continue;
                }
                match state.install(def, e.clone()) {
                    Ok(()) => report.restored_entries += 1,
                    Err(err) => report.drop_entry(&t.name, e.clone(), err.to_string()),
                }
            }
        }
        for r in &snap.registers {
            match program.registers.get(&r.name) {
                Some(def) => {
                    state.restore_register(def, &r.cells);
                    report.restored_registers += 1;
                }
                None => report.dropped_registers.push(r.name.clone()),
            }
        }
        self.metrics.on_migration(report.restored_entries);
        Ok(report)
    }

    /// True for the dedicated recirculation port of one of this switch's
    /// pipelines.
    fn is_recirc_port(&self, port: PortId) -> bool {
        (RECIRC_PORT_BASE..RECIRC_PORT_BASE + self.profile.pipelines as PortId).contains(&port)
    }

    /// Which pipeline owns `port` (Ethernet or dedicated recirculation port).
    fn pipeline_of(&self, port: PortId) -> Option<usize> {
        if self.is_recirc_port(port) {
            return Some(usize::from(port - RECIRC_PORT_BASE));
        }
        self.profile.pipeline_of_port(usize::from(port))
    }

    /// Admission of external traffic, shared by every entry point: the
    /// pipeline that owns Ethernet port `port`. Loopback-mode ports and the
    /// dedicated recirculation ports take no external traffic (§4,
    /// constraint c), and neither does a port whose link is down.
    fn admit(&self, port: PortId) -> Result<usize, IrError> {
        if self.is_loopback(port) {
            return Err(IrError::Invalid(format!(
                "port {port} is in loopback mode and takes no external traffic"
            )));
        }
        if self.is_recirc_port(port) {
            return Err(IrError::Invalid(format!(
                "port {port} is a recirculation port and takes no external traffic"
            )));
        }
        if self.is_port_down(port) {
            return Err(IrError::Invalid(format!("port {port} link is down")));
        }
        self.profile
            .pipeline_of_port(usize::from(port))
            .ok_or_else(|| IrError::Invalid(format!("port {port} out of range")))
    }

    /// Injects a packet on an external Ethernet port and drives it to
    /// completion, returning the full per-packet story. With
    /// [`TraceLevel::Off`] the [`Traversal`] carries no events; everything
    /// else (disposition, final bytes, latency, mirror copies, metrics) is
    /// the same at either level. Takes an [`InjectedPacket`] (see
    /// `dejavu_core::ingress` for how the entry points relate).
    pub fn inject(&mut self, packet: impl Into<InjectedPacket>) -> Result<Traversal, IrError> {
        let InjectedPacket {
            bytes: mut buf,
            port,
        } = packet.into();
        let mut events = Vec::new();
        let log = (self.trace_level == TraceLevel::Full).then_some(&mut events);
        let mark = self.mirror_out.len();
        let result = self.run(&mut buf, port, log);
        let mirrored = self.mirror_out.split_off(mark);
        let out = result?;
        Ok(Traversal {
            events,
            disposition: out.disposition,
            final_bytes: buf,
            latency_ns: out.latency_ns,
            recirculations: out.recirculations,
            resubmissions: out.resubmissions,
            mirrored,
        })
    }

    /// Injects a batch of packets and returns aggregate statistics only:
    /// no traces, mirror copies counted (`packets_mirrored`) and discarded,
    /// per-packet errors (bad port, forwarding loop) tallied in
    /// [`BatchStats::errors`] instead of aborting the batch.
    pub fn inject_batch(&mut self, packets: &[InjectedPacket]) -> BatchStats {
        let mut stats = BatchStats::default();
        let mut buf = Vec::new();
        let mark = self.mirror_out.len();
        for pkt in packets {
            stats.injected += 1;
            buf.clear();
            buf.extend_from_slice(&pkt.bytes);
            let Ok(out) = self.inject_buf(&mut buf, pkt.port) else {
                stats.errors += 1;
                continue;
            };
            match out.disposition {
                Disposition::Emitted { .. } => stats.emitted += 1,
                Disposition::Dropped => stats.dropped += 1,
                Disposition::ToCpu => stats.to_cpu += 1,
            }
            stats.recirculations += out.recirculations;
            stats.resubmissions += out.resubmissions;
            stats.latency_ns_total += out.latency_ns;
        }
        self.mirror_out.truncate(mark);
        stats
    }

    /// Injects a packet **in place** and drives it to completion with no
    /// trace — the zero-allocation entry point.
    ///
    /// The caller's buffer carries the wire bytes in and the final bytes
    /// out (at emit/punt/drop, exactly the bytes `inject` would report as
    /// `final_bytes`); recirculation and resubmission re-enter the pipeline
    /// with the same buffer. Mirror copies (semantics, not trace) are queued
    /// for [`Switch::drain_mirrored`]. On the compiled engine, once the
    /// switch's scratch buffers have warmed up, a traversal performs zero
    /// heap allocations (digest emission and mirroring — both learn/tap
    /// events, not steady-state forwarding — are the exceptions).
    pub fn inject_buf(&mut self, buf: &mut Vec<u8>, port: PortId) -> Result<BufOutcome, IrError> {
        self.run(buf, port, None)
    }

    /// Drains the mirror copies produced by [`Switch::inject_buf`]
    /// traversals since the last drain: `(mirror port, bytes)` in
    /// production order.
    pub fn drain_mirrored(&mut self) -> Vec<(PortId, Vec<u8>)> {
        std::mem::take(&mut self.mirror_out)
    }

    /// What every entry point does: admit the packet, walk it through the
    /// chip, and report — the terminal metric hooks and a [`BufOutcome`] for
    /// a packet that met its fate, a counted reject for one that was refused
    /// or never left.
    fn run(
        &mut self,
        buf: &mut Vec<u8>,
        port: PortId,
        events: Option<&mut Vec<TraceEvent>>,
    ) -> Result<BufOutcome, IrError> {
        let mut w = Walk {
            latency_ns: self.timing.mac_rx_ns,
            recirculations: 0,
            resubmissions: 0,
            events,
        };
        let fate = match self.admit(port) {
            Ok(pipeline) => self.walk(&mut w, buf, port, pipeline),
            Err(e) => Err(e),
        };
        let disposition = fate.inspect_err(|_| self.metrics.on_reject())?;
        match disposition {
            Disposition::Emitted { port } => self.metrics.on_emit(port),
            Disposition::Dropped => self.metrics.on_dropped(),
            Disposition::ToCpu => self.metrics.on_to_cpu(),
        }
        self.metrics.on_complete(w.latency_ns, w.recirculations);
        Ok(BufOutcome {
            disposition,
            recirculations: w.recirculations,
            resubmissions: w.resubmissions,
            latency_ns: w.latency_ns,
        })
    }

    /// The one packet walk of Fig. 1: ingress pipelet → traffic manager →
    /// egress pipelet → out a port, or back in through a loopback or
    /// recirculation port — on the caller's buffer, until the packet meets
    /// its fate or `max_loops` is exhausted.
    fn walk(
        &mut self,
        w: &mut Walk<'_>,
        buf: &mut Vec<u8>,
        mut ingress_port: PortId,
        mut pipeline: usize,
    ) -> Result<Disposition, IrError> {
        self.metrics.on_rx(ingress_port);
        for _ in 0..self.max_loops {
            // ---- ingress pipelet ----
            let ing = PipeletId::ingress(pipeline);
            let sig = match self.visit(w, ing, buf, ingress_port, PORT_UNSET)? {
                ControlFlow::Continue(sig) => sig,
                ControlFlow::Break(fate) => return Ok(fate),
            };
            // Constraint (a): resubmission only after the ingress pipe
            // completes — same pipeline, same ingress port.
            if sig.resubmit {
                w.note(TraceEvent::Resubmit { pipeline });
                self.metrics.on_resubmit(pipeline);
                w.latency_ns += self.timing.resubmit_ns;
                w.resubmissions += 1;
                continue;
            }

            // Constraint (b): the port decision is made in ingress.
            let egress_spec = sig.egress_spec as PortId;
            if egress_spec == CPU_PORT {
                w.note(TraceEvent::ToCpu { pipelet: ing });
                return Ok(Disposition::ToCpu);
            }
            if egress_spec == PORT_UNSET {
                // No forwarding decision was made: hardware drops.
                return Ok(self.drop_at(w, ing));
            }
            let Some(dest_pipeline) = self.pipeline_of(egress_spec) else {
                return Ok(self.drop_at(w, ing));
            };
            if self.is_port_down(egress_spec) {
                w.note(TraceEvent::LinkDown { port: egress_spec });
                return Ok(self.drop_at(w, ing));
            }

            // ---- traffic manager ----
            w.note(TraceEvent::TmTransit {
                from: pipeline,
                to: dest_pipeline,
            });
            w.latency_ns += self.timing.tm_ns;

            // ---- egress pipelet ----
            // The egress pipelet's own writes to `egress_spec` are ignored.
            let eg = PipeletId::egress(dest_pipeline);
            if let ControlFlow::Break(fate) = self.visit(w, eg, buf, ingress_port, egress_spec)? {
                return Ok(fate);
            }

            // ---- port: out, or loop back ----
            if self.is_loopback(egress_spec) || self.is_recirc_port(egress_spec) {
                w.note(TraceEvent::Recirculate { port: egress_spec });
                self.metrics.on_recirculate(dest_pipeline);
                w.latency_ns += self.timing.recirc_on_chip_ns;
                w.recirculations += 1;
                // Constraint (d): re-enter the ingress pipe of the pipeline
                // that owns the loopback port — with the same buffer.
                pipeline = dest_pipeline;
                ingress_port = egress_spec;
                continue;
            }

            w.note(TraceEvent::Emit { port: egress_spec });
            w.latency_ns += self.timing.mac_tx_ns;
            return Ok(Disposition::Emitted { port: egress_spec });
        }
        Err(IrError::Invalid(format!(
            "packet did not leave the switch after {} pipeline loops (forwarding loop?)",
            self.max_loops
        )))
    }

    /// One pipelet visit, ingress or egress: run the pass, then do what both
    /// halves do with its signals — collect digests, count the pass, drop on
    /// a parser reject, tap a mirror copy, honour `drop_flag` and
    /// `to_cpu_flag`. `Break` carries the fate of a packet that ended here;
    /// `Continue` hands the signals on to the caller.
    // Inlined at its two call sites, and `pass` into it: out of line the pass
    // signals cross two call boundaries through memory and the `fwd_min`
    // workload loses a fifth of its packet rate.
    #[inline(always)]
    fn visit(
        &mut self,
        w: &mut Walk<'_>,
        pipelet: PipeletId,
        buf: &mut Vec<u8>,
        ingress_port: PortId,
        egress_seed: PortId,
    ) -> Result<ControlFlow<Disposition, BufPass>, IrError> {
        w.note(TraceEvent::EnterPipelet(pipelet));
        w.latency_ns += self.timing.pipelet_ns(self.profile.stages_per_pipelet);
        let sig = self.pass(w, pipelet, buf, ingress_port, egress_seed)?;
        self.collect_digests(pipelet);
        self.metrics.on_pass(pipelet, sig.tables_applied);
        if !sig.parsed {
            w.note(TraceEvent::ParseError { pipelet });
            self.metrics.on_parse_error(pipelet);
            return Ok(ControlFlow::Break(Disposition::Dropped));
        }
        if let (true, Some(port)) = (sig.mirror, self.mirror_port) {
            // Mirroring is semantics, not trace: the copy (the one
            // allocation on this path) is made whether or not anyone logs.
            w.note(TraceEvent::Mirror { port });
            self.metrics.on_mirror();
            self.mirror_out.push((port, buf.clone()));
        }
        if sig.drop {
            return Ok(ControlFlow::Break(self.drop_at(w, pipelet)));
        }
        if sig.to_cpu {
            w.note(TraceEvent::ToCpu { pipelet });
            return Ok(ControlFlow::Break(Disposition::ToCpu));
        }
        Ok(ControlFlow::Continue(sig))
    }

    /// One pipelet pass (parser + control + deparser) over the caller's
    /// buffer on whichever engine [`ExecMode`] selects, table events logged
    /// when `w` records. Both engines deparse into the scratch output
    /// buffer, which is swapped with `buf` on a successful parse; a parser
    /// reject leaves `buf` as it arrived, and a pipelet with no program
    /// passes it through untouched.
    #[inline(always)] // see `visit`
    fn pass(
        &mut self,
        w: &mut Walk<'_>,
        pipelet: PipeletId,
        buf: &mut Vec<u8>,
        ingress_port: PortId,
        egress_seed: PortId,
    ) -> Result<BufPass, IrError> {
        let Some(Some(Loaded {
            program,
            compiled,
            tables,
        })) = self.slots.get_mut(pipelet.slot())
        else {
            return Ok(BufPass::idle(true, egress_seed));
        };
        let pass = match self.exec_mode {
            ExecMode::Compiled => {
                let trace = w.events.is_some();
                let scratch = &mut self.scratch;
                let pass = compiled.run_pass_scratch(
                    buf,
                    ingress_port,
                    egress_seed,
                    tables,
                    trace,
                    scratch,
                )?;
                // Untraced there is nothing to drain, and not building the
                // `Drain` is worth 4% of `fwd_min`'s packet rate.
                if trace {
                    w.note_tables(pipelet, scratch.drain_events());
                }
                pass
            }
            ExecMode::Reference => {
                let interp = Interpreter::new(program);
                let Ok(mut pp) = ParsedPacket::parse(buf, &program.parser, interp.headers()) else {
                    return Ok(BufPass::idle(false, egress_seed));
                };
                let seed =
                    |name: &str, port: PortId| (name.to_string(), Value::new(u128::from(port), 16));
                let mut meta = BTreeMap::from([
                    seed("ingress_port", ingress_port),
                    seed("egress_spec", egress_seed),
                ]);
                let outcome = interp.execute(&mut pp, &mut meta, tables)?;
                *self.scratch.out_mut() = pp.deparse(interp.headers())?;
                w.note_tables(pipelet, outcome.events.into_iter());
                let flag = |name: &str| meta.get(name).is_some_and(|v| v.as_bool());
                BufPass {
                    parsed: true,
                    drop: flag("drop_flag"),
                    to_cpu: flag("to_cpu_flag"),
                    resubmit: flag("resubmit_flag"),
                    mirror: flag("mirror_flag"),
                    egress_spec: meta
                        .get("egress_spec")
                        .map_or(PORT_UNSET.into(), |v| v.raw()),
                    tables_applied: outcome.tables_applied,
                }
            }
        };
        if pass.parsed {
            std::mem::swap(buf, self.scratch.out_mut());
        }
        Ok(pass)
    }

    /// An explicit drop decided at `pipelet`.
    fn drop_at(&self, w: &mut Walk<'_>, pipelet: PipeletId) -> Disposition {
        w.note(TraceEvent::Drop { pipelet });
        self.metrics.on_drop(pipelet);
        Disposition::Dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::table::{KeyMatch, TableEntry};
    use dejavu_p4ir::well_known;
    use dejavu_p4ir::{fref, Expr, FieldRef};

    /// Ingress program: L2 forward by dst MAC (exact), default drop.
    fn l2_program() -> Program {
        ProgramBuilder::new("l2")
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
            .unwrap()
    }

    fn eth_packet(dst: u64) -> Vec<u8> {
        let mut p = vec![0u8; 14];
        p[..6].copy_from_slice(&dst.to_be_bytes()[2..]);
        p
    }

    fn fwd_entry(dst: u64, port: PortId) -> TableEntry {
        TableEntry {
            matches: vec![KeyMatch::Exact(Value::new(u128::from(dst), 48))],
            action: "fwd".into(),
            action_args: vec![Value::new(u128::from(port), 16)],
            priority: 0,
        }
    }

    fn basic_switch() -> Switch {
        let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
        sw.load_program(PipeletId::ingress(0), l2_program())
            .unwrap();
        sw.load_program(PipeletId::ingress(1), l2_program())
            .unwrap();
        sw
    }

    #[test]
    fn forward_across_traffic_manager() {
        let mut sw = basic_switch();
        sw.install_entry(PipeletId::ingress(0), "l2", fwd_entry(0xaabb, 20))
            .unwrap();
        let t = sw
            .inject(InjectedPacket::new(eth_packet(0xaabb), 0))
            .unwrap();
        assert_eq!(t.disposition, Disposition::Emitted { port: 20 });
        // ingress pipeline 0 → TM → egress pipeline 1 (port 20)
        assert_eq!(
            t.pipelets_visited(),
            vec![PipeletId::ingress(0), PipeletId::egress(1)]
        );
        assert_eq!(t.recirculations, 0);
        // Latency matches the calibrated port-to-port figure.
        assert!((t.latency_ns - 650.0).abs() < 1e-9);
    }

    #[test]
    fn default_drop() {
        let mut sw = basic_switch();
        let t = sw
            .inject(InjectedPacket::new(eth_packet(0xdead), 0))
            .unwrap();
        assert_eq!(t.disposition, Disposition::Dropped);
        assert!(t
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Drop { .. })));
    }

    #[test]
    fn loopback_port_recirculates_into_owning_pipeline() {
        let mut sw = basic_switch();
        // Send to port 16 (pipeline 1) which is in loopback; pipeline 1's
        // ingress then forwards to port 1 (pipeline 0).
        sw.set_loopback(16, true).unwrap();
        sw.install_entry(PipeletId::ingress(0), "l2", fwd_entry(0xaabb, 16))
            .unwrap();
        sw.install_entry(PipeletId::ingress(1), "l2", fwd_entry(0xaabb, 1))
            .unwrap();
        let t = sw
            .inject(InjectedPacket::new(eth_packet(0xaabb), 0))
            .unwrap();
        assert_eq!(t.disposition, Disposition::Emitted { port: 1 });
        assert_eq!(t.recirculations, 1);
        assert_eq!(
            t.pipelets_visited(),
            vec![
                PipeletId::ingress(0),
                PipeletId::egress(1),  // to loopback port 16
                PipeletId::ingress(1), // constraint (d): re-enters pipeline 1
                PipeletId::egress(0),  // out port 1
            ]
        );
        // One recirculation adds recirc_on_chip + ingress+TM+egress again.
        let tm = TimingModel::tofino();
        assert!((t.latency_ns - tm.path_with_recircs_ns(12, 1)).abs() < 1e-9);
    }

    #[test]
    fn injecting_on_loopback_port_is_rejected() {
        let mut sw = basic_switch();
        sw.set_loopback(3, true).unwrap();
        assert!(sw.inject(InjectedPacket::new(eth_packet(1), 3)).is_err());
        assert!(sw.is_loopback(3));
        sw.set_loopback(3, false).unwrap();
        assert!(sw.inject(InjectedPacket::new(eth_packet(1), 3)).is_ok());

        // Dedicated recirculation ports take no external traffic either, on
        // any entry point, and the refusal is counted like any other.
        sw.set_telemetry(true);
        let rp = sw.recirc_port(0);
        let pkt = InjectedPacket::new(eth_packet(1), rp);
        let err = sw.inject(pkt.clone()).unwrap_err();
        assert!(matches!(&err, IrError::Invalid(m) if m.contains("recirculation port")));
        assert!(sw.inject_buf(&mut eth_packet(1), rp).is_err());
        assert_eq!(sw.inject_batch(&[pkt]).errors, 1);
        let snap = sw.metrics_snapshot();
        assert_eq!(snap.counter("packets_rejected"), 3);
        assert_eq!(snap.counter("packets_injected"), 0);
    }

    #[test]
    fn unset_egress_spec_drops() {
        // Program with a pass action that never sets egress_spec.
        let program = ProgramBuilder::new("noop")
            .header(well_known::ethernet())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .accept("eth")
                    .start("eth"),
            )
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("t")
                    .key_exact(fref("ethernet", "dst_mac"))
                    .default_action("pass")
                    .build(),
            )
            .control(ControlBuilder::new("ingress").apply("t").build())
            .entry("ingress")
            .build()
            .unwrap();
        let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
        sw.load_program(PipeletId::ingress(0), program).unwrap();
        let t = sw.inject(InjectedPacket::new(eth_packet(1), 0)).unwrap();
        assert_eq!(t.disposition, Disposition::Dropped);
    }

    #[test]
    fn cpu_punt_via_flag() {
        let program = ProgramBuilder::new("punt")
            .header(well_known::ethernet())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .accept("eth")
                    .start("eth"),
            )
            .action(
                ActionBuilder::new("to_cpu")
                    .set(FieldRef::meta("to_cpu_flag"), Expr::val(1, 1))
                    .build(),
            )
            .table(
                TableBuilder::new("t")
                    .key_exact(fref("ethernet", "dst_mac"))
                    .default_action("to_cpu")
                    .build(),
            )
            .control(ControlBuilder::new("ingress").apply("t").build())
            .entry("ingress")
            .build()
            .unwrap();
        let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
        sw.load_program(PipeletId::ingress(0), program).unwrap();
        let t = sw.inject(InjectedPacket::new(eth_packet(1), 0)).unwrap();
        assert_eq!(t.disposition, Disposition::ToCpu);
    }

    #[test]
    fn resubmission_reruns_same_ingress() {
        // Resubmit once: first pass sets resubmit_flag if ether_type == 0,
        // and rewrites ether_type so the second pass forwards.
        let program = ProgramBuilder::new("resub")
            .header(well_known::ethernet())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .accept("eth")
                    .start("eth"),
            )
            .action(
                ActionBuilder::new("resubmit")
                    .set(FieldRef::meta("resubmit_flag"), Expr::val(1, 1))
                    .set(fref("ethernet", "ether_type"), Expr::val(1, 16))
                    .build(),
            )
            .action(
                ActionBuilder::new("out")
                    .set(FieldRef::meta("egress_spec"), Expr::val(5, 16))
                    .build(),
            )
            .table(
                TableBuilder::new("decide")
                    .key_exact(fref("ethernet", "ether_type"))
                    .action("resubmit")
                    .default_action("out")
                    .build(),
            )
            .control(ControlBuilder::new("ingress").apply("decide").build())
            .entry("ingress")
            .build()
            .unwrap();
        let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
        sw.load_program(PipeletId::ingress(0), program.clone())
            .unwrap();
        let def = program.tables.get("decide").unwrap().clone();
        sw.loaded_mut(PipeletId::ingress(0))
            .unwrap()
            .tables
            .install(
                &def,
                TableEntry {
                    matches: vec![KeyMatch::Exact(Value::new(0, 16))],
                    action: "resubmit".into(),
                    action_args: vec![],
                    priority: 0,
                },
            )
            .unwrap();
        let t = sw.inject(InjectedPacket::new(eth_packet(9), 0)).unwrap();
        assert_eq!(t.disposition, Disposition::Emitted { port: 5 });
        assert_eq!(t.resubmissions, 1);
        assert_eq!(
            t.pipelets_visited(),
            vec![
                PipeletId::ingress(0),
                PipeletId::ingress(0),
                PipeletId::egress(0)
            ]
        );
    }

    #[test]
    fn load_program_validates_pipeline_range() {
        let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
        assert!(sw
            .load_program(PipeletId::ingress(5), l2_program())
            .is_err());
    }

    #[test]
    fn table_counters_accumulate() {
        let mut sw = basic_switch();
        sw.install_entry(PipeletId::ingress(0), "l2", fwd_entry(0xaabb, 2))
            .unwrap();
        sw.inject(InjectedPacket::new(eth_packet(0xaabb), 0))
            .unwrap();
        sw.inject(InjectedPacket::new(eth_packet(0xffff), 0))
            .unwrap();
        let c = sw.tables(PipeletId::ingress(0)).unwrap().counters("l2");
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn reference_and_compiled_modes_agree() {
        let run = |mode: ExecMode| {
            let mut sw = basic_switch();
            sw.set_exec_mode(mode);
            sw.install_entry(PipeletId::ingress(0), "l2", fwd_entry(0xaabb, 20))
                .unwrap();
            let hit = sw
                .inject(InjectedPacket::new(eth_packet(0xaabb), 0))
                .unwrap();
            let miss = sw.inject(InjectedPacket::new(eth_packet(0x1), 0)).unwrap();
            (hit, miss)
        };
        let (hit_c, miss_c) = run(ExecMode::Compiled);
        let (hit_r, miss_r) = run(ExecMode::Reference);
        assert_eq!(hit_c, hit_r);
        assert_eq!(miss_c, miss_r);
    }

    #[test]
    fn trace_off_records_no_events_but_same_outcome() {
        let mut sw = basic_switch();
        sw.install_entry(PipeletId::ingress(0), "l2", fwd_entry(0xaabb, 20))
            .unwrap();
        sw.set_trace_level(TraceLevel::Off);
        let t = sw
            .inject(InjectedPacket::new(eth_packet(0xaabb), 0))
            .unwrap();
        assert_eq!(t.disposition, Disposition::Emitted { port: 20 });
        assert!(t.events.is_empty());
        assert!((t.latency_ns - 650.0).abs() < 1e-9);
        // Counters still advance with tracing off.
        let c = sw.tables(PipeletId::ingress(0)).unwrap().counters("l2");
        assert_eq!(c.hits, 1);
    }

    #[test]
    fn inject_batch_tallies_dispositions() {
        let mut sw = basic_switch();
        sw.install_entry(PipeletId::ingress(0), "l2", fwd_entry(0xaabb, 20))
            .unwrap();
        sw.set_loopback(5, true).unwrap();
        let batch = vec![
            InjectedPacket::new(eth_packet(0xaabb), 0), // emitted on 20
            InjectedPacket::new(eth_packet(0x7), 0),    // default deny → dropped
            InjectedPacket::new(eth_packet(0xaabb), 5), // loopback: no traffic → error
        ];
        let stats = sw.inject_batch(&batch);
        assert_eq!(stats.injected, 3);
        assert_eq!(stats.emitted, 1);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.to_cpu, 0);
        assert!(stats.latency_ns_total > 0.0);

        // Mirror copies are counted, not kept: a batch returns tallies only.
        let mut sw = exits_switch();
        let tapped = InjectedPacket::new(eth_packet(0x0c), 0);
        assert_eq!(sw.inject_batch(&[tapped.clone(), tapped]).emitted, 2);
        assert_eq!(sw.metrics_snapshot().counter("packets_mirrored"), 2);
        assert!(sw.drain_mirrored().is_empty());
    }

    /// L2 learner: unknown destinations digest the MAC and flood out 9.
    fn learn_program() -> Program {
        ProgramBuilder::new("learner")
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
            .action(
                ActionBuilder::new("learn")
                    .digest("d0", vec![Expr::field("ethernet", "dst_mac")])
                    .set(FieldRef::meta("egress_spec"), Expr::val(9, 16))
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
            .unwrap()
    }

    #[test]
    fn digest_queue_is_bounded_and_counts_drops() {
        let mut sw = Switch::with_options(
            TofinoProfile::wedge_100b_32x(),
            SwitchOptions::new().digest_capacity(2),
        );
        sw.load_program(PipeletId::ingress(0), learn_program())
            .unwrap();
        for i in 0..4u64 {
            sw.inject(InjectedPacket::new(eth_packet(0x100 + i), 0))
                .unwrap();
        }
        // The queue holds the first two records; the overflow is counted.
        assert_eq!(sw.digest_backlog(0), 2);
        assert_eq!(sw.digests_dropped(0), 2);
        let drained = sw.drain_digests();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, 0);
        assert_eq!(drained[0].1.name, "d0");
        assert_eq!(drained[0].1.values[0].raw(), 0x100);
        assert_eq!(drained[1].1.values[0].raw(), 0x101);
        assert_eq!(sw.digest_backlog(0), 0);
        // Draining frees capacity again.
        sw.inject(InjectedPacket::new(eth_packet(0x200), 0))
            .unwrap();
        assert_eq!(sw.digest_backlog(0), 1);
        assert_eq!(sw.digests_dropped(0), 2);
    }

    #[test]
    fn state_snapshot_round_trips_through_reload_and_json() {
        let mut sw = basic_switch();
        let pid = PipeletId::ingress(0);
        sw.install_entry(pid, "l2", fwd_entry(0xaabb, 20)).unwrap();
        sw.set_idle_timeout(pid, "l2", Some(7)).unwrap();
        let snap = sw.snapshot_state(pid).unwrap();
        assert_eq!(snap.total_entries(), 1);

        // JSON export/import is lossless.
        let back = crate::state::StateSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);

        // Reloading the program wipes the dynamic state...
        sw.load_program(pid, l2_program()).unwrap();
        assert!(sw.tables(pid).unwrap().entries("l2").is_empty());
        assert_eq!(sw.tables(pid).unwrap().idle_timeout("l2"), None);
        // ...and restoring brings back entries and aging config.
        let report = sw.restore_state(pid, &snap).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.restored_entries, 1);
        assert_eq!(sw.tables(pid).unwrap().idle_timeout("l2"), Some(7));
        let t = sw
            .inject(InjectedPacket::new(eth_packet(0xaabb), 0))
            .unwrap();
        assert_eq!(t.disposition, Disposition::Emitted { port: 20 });
    }

    #[test]
    fn restore_state_installs_a_twice_listed_entry_once() {
        let mut sw = basic_switch();
        let pid = PipeletId::ingress(0);
        sw.install_entry(pid, "l2", fwd_entry(0xaabb, 20)).unwrap();
        let mut snap = sw.snapshot_state(pid).unwrap();
        let twin = snap.tables[0].entries[0].clone();
        snap.tables[0].entries.push(twin);
        sw.load_program(pid, l2_program()).unwrap();
        let report = sw.restore_state(pid, &snap).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.restored_entries, 2, "both are accounted for");
        assert_eq!(sw.tables(pid).unwrap().entries("l2").len(), 1);
    }

    #[test]
    fn restore_state_drops_a_prefix_longer_than_its_key() {
        let mut program = l2_program();
        program.tables.get_mut("l2").unwrap().keys[0].kind = dejavu_p4ir::MatchKind::Lpm;
        let pid = PipeletId::ingress(0);
        let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
        sw.load_program(pid, program).unwrap();
        let route = |len: u16| TableEntry {
            matches: vec![KeyMatch::Lpm(Value::new(0xaabb, 48), len)],
            ..fwd_entry(0, 20)
        };
        sw.install_entry(pid, "l2", route(48)).unwrap();
        let mut snap = sw.snapshot_state(pid).unwrap();
        snap.tables[0].entries.push(route(49));
        let report = sw.restore_state(pid, &snap).unwrap();
        assert_eq!(report.restored_entries, 1);
        assert_eq!(report.dropped_entries.len(), 1, "{report:?}");
        let dropped = &report.dropped_entries[0];
        assert_eq!(dropped.entry, route(49));
        assert!(dropped.reason.contains("exceeds"), "{}", dropped.reason);
        assert_eq!(sw.tables(pid).unwrap().entries("l2"), [route(48)]);
    }

    /// One program that can take every exit of the walk, chosen per packet
    /// by `dst_mac`; the parser goes on to ipv4 when `ether_type` says so.
    fn exits_program() -> Program {
        let flag = |name: &str, meta: &str| {
            ActionBuilder::new(name)
                .set(FieldRef::meta(meta), Expr::val(1, 1))
                .build()
        };
        let port = |name: &str| {
            ActionBuilder::new(name)
                .param("port", 16)
                .set(FieldRef::meta("egress_spec"), Expr::Param("port".into()))
        };
        ProgramBuilder::new("exits")
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
            .action(port("fwd").build())
            .action(
                port("tap")
                    .set(FieldRef::meta("mirror_flag"), Expr::val(1, 1))
                    .build(),
            )
            .action(
                port("to_ip")
                    .set(fref("ethernet", "ether_type"), Expr::val(0x0800, 16))
                    .build(),
            )
            .action(
                ActionBuilder::new("resub")
                    .set(FieldRef::meta("resubmit_flag"), Expr::val(1, 1))
                    .set(fref("ethernet", "dst_mac"), Expr::val(0x01, 48))
                    .build(),
            )
            .action(flag("deny", "drop_flag"))
            .action(flag("punt", "to_cpu_flag"))
            .action(ActionBuilder::new("pass").build())
            .table(
                TableBuilder::new("t")
                    .key_exact(fref("ethernet", "dst_mac"))
                    .action("fwd")
                    .action("tap")
                    .action("to_ip")
                    .action("resub")
                    .action("deny")
                    .action("punt")
                    .default_action("pass")
                    .build(),
            )
            .control(ControlBuilder::new("c").apply("t").build())
            .entry("c")
            .build()
            .unwrap()
    }

    /// The exits program on ingress 0, ingress 1 and egress 0; port 16 in
    /// loopback, port 21 down, mirror session on port 30, telemetry on.
    fn exits_switch() -> Switch {
        let (ing0, ing1, eg0) = (
            PipeletId::ingress(0),
            PipeletId::ingress(1),
            PipeletId::egress(0),
        );
        let mut sw = Switch::with_options(
            TofinoProfile::wedge_100b_32x(),
            SwitchOptions::new().mirror_port(30).telemetry(true),
        );
        for pipelet in [ing0, ing1, eg0] {
            sw.load_program(pipelet, exits_program()).unwrap();
        }
        sw.set_loopback(16, true).unwrap();
        sw.set_port_down(21, true);
        let (rp0, rp1) = (sw.recirc_port(0), sw.recirc_port(1));
        let rules = [
            (ing0, 0x01, "fwd", Some(20)),
            (ing0, 0x02, "deny", None),
            (ing0, 0x03, "punt", None),
            (ing0, 0x04, "fwd", Some(CPU_PORT)),
            (ing0, 0x06, "fwd", Some(999)),
            (ing0, 0x07, "fwd", Some(21)),
            (ing0, 0x08, "resub", None),
            (ing0, 0x09, "fwd", Some(16)),
            (ing1, 0x09, "fwd", Some(1)),
            (ing0, 0x0a, "fwd", Some(rp1)),
            (ing1, 0x0a, "fwd", Some(1)),
            (ing0, 0x0b, "fwd", Some(rp0)),
            (ing0, 0x0c, "tap", Some(20)),
            (ing0, 0x0d, "to_ip", Some(2)),
            (ing0, 0x0e, "fwd", Some(2)),
            (eg0, 0x0e, "deny", None),
            (ing0, 0x0f, "fwd", Some(2)),
            (eg0, 0x0f, "punt", None),
        ];
        for (pipelet, dst, action, arg) in rules {
            let entry = TableEntry {
                matches: vec![KeyMatch::Exact(Value::new(dst, 48))],
                action: action.into(),
                action_args: arg
                    .map(|p| Value::new(u128::from(p), 16))
                    .into_iter()
                    .collect(),
                priority: 0,
            };
            sw.install_entry(pipelet, "t", entry).unwrap();
        }
        sw
    }

    /// Everything one traversal leaves behind, however it was injected.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// `None` when the entry point returned an error.
        outcome: Option<BufOutcome>,
        final_bytes: Vec<u8>,
        mirrored: Vec<(PortId, Vec<u8>)>,
        events: Vec<TraceEvent>,
        metrics: MetricsSnapshot,
    }

    fn observe(
        base: &Switch,
        bytes: &[u8],
        mode: ExecMode,
        level: TraceLevel,
        via_buf: bool,
    ) -> Observed {
        let mut sw = base.clone();
        sw.set_exec_mode(mode);
        sw.set_trace_level(level);
        let mut seen = Observed {
            outcome: None,
            final_bytes: Vec::new(),
            mirrored: Vec::new(),
            events: Vec::new(),
            metrics: MetricsSnapshot::default(),
        };
        if via_buf {
            let mut buf = bytes.to_vec();
            if let Ok(out) = sw.inject_buf(&mut buf, 0) {
                seen.outcome = Some(out);
                seen.final_bytes = buf;
                seen.mirrored = sw.drain_mirrored();
            }
        } else if let Ok(t) = sw.inject(InjectedPacket::new(bytes.to_vec(), 0)) {
            seen.outcome = Some(BufOutcome {
                disposition: t.disposition,
                recirculations: t.recirculations,
                resubmissions: t.resubmissions,
                latency_ns: t.latency_ns,
            });
            seen.final_bytes = t.final_bytes;
            seen.mirrored = t.mirrored;
            seen.events = t.events;
            assert!(sw.drain_mirrored().is_empty(), "inject queues no copies");
        }
        seen.metrics = sw.metrics_snapshot();
        seen
    }

    /// Every exit of the walk, reached through every way in: `inject` with
    /// and without a trace, `inject_buf`, and all of them again on the
    /// reference engine, must leave the same packet, counts and metrics.
    #[test]
    fn every_exit_agrees_across_entry_points_and_engines() {
        use Disposition::{Dropped, Emitted, ToCpu};
        use TraceEvent as Ev;
        let base = exits_switch();
        let (ing0, eg0) = (PipeletId::ingress(0), PipeletId::egress(0));
        let (mac, runt, rp1) = (eth_packet, vec![0u8; 5], base.recirc_port(1));
        let (lost, cpu, out) = (Some(Dropped), Some(ToCpu), |port| Some(Emitted { port }));
        let rejected = |pipelet| Ev::ParseError { pipelet };
        let dropped = |pipelet| Ev::Drop { pipelet };
        let punted = |pipelet| Ev::ToCpu { pipelet };
        let recirc = |port| Ev::Recirculate { port };
        let tapped = |port| Ev::Mirror { port };
        // (exit, packet, final fate, the event that marks the exit)
        let cases = [
            ("ingress parse error", runt, lost, rejected(ing0)),
            ("egress parse error", mac(0x0d), lost, rejected(eg0)),
            ("ingress drop_flag", mac(0x02), lost, dropped(ing0)),
            ("egress drop_flag", mac(0x0e), lost, dropped(eg0)),
            ("ingress to_cpu_flag", mac(0x03), cpu, punted(ing0)),
            ("egress to_cpu_flag", mac(0x0f), cpu, punted(eg0)),
            ("egress_spec == CPU_PORT", mac(0x04), cpu, punted(ing0)),
            ("PORT_UNSET", mac(0x05), lost, dropped(ing0)),
            ("port out of range", mac(0x06), lost, dropped(ing0)),
            ("link down", mac(0x07), lost, Ev::LinkDown { port: 21 }),
            ("resubmit", mac(0x08), out(20), Ev::Resubmit { pipeline: 0 }),
            ("loopback recirculation", mac(0x09), out(1), recirc(16)),
            ("dedicated recirculation", mac(0x0a), out(1), recirc(rp1)),
            ("mirror, then emit", mac(0x0c), out(20), tapped(30)),
            // Ends in an error, so no trace comes back; the marker is unused.
            ("max_loops exceeded", mac(0x0b), None, tapped(0)),
        ];
        for (exit, bytes, want, marker) in cases {
            let full = observe(&base, &bytes, ExecMode::Compiled, TraceLevel::Full, false);
            assert_eq!(full.outcome.map(|o| o.disposition), want, "{exit}");
            let count = |kind: fn(&Ev) -> bool| full.events.iter().filter(|e| kind(e)).count();
            if let Some(out) = full.outcome {
                assert!(full.events.contains(&marker), "{exit}: {:?}", full.events);
                assert_eq!(
                    out.recirculations,
                    count(|e| matches!(e, Ev::Recirculate { .. }))
                );
                assert_eq!(
                    out.resubmissions,
                    count(|e| matches!(e, Ev::Resubmit { .. }))
                );
                assert_eq!(
                    full.mirrored.len(),
                    count(|e| matches!(e, Ev::Mirror { .. }))
                );
                assert!(out.latency_ns > 0.0, "{exit}");
            } else {
                assert_eq!(full.metrics.counter("packets_rejected"), 1, "{exit}");
            }

            // The reference engine tells the same story, event for event.
            let reference = observe(&base, &bytes, ExecMode::Reference, TraceLevel::Full, false);
            assert_eq!(reference, full, "{exit}: reference engine");
            // Tracing changes nothing but the trace; nor does the entry point.
            let untraced = Observed {
                events: Vec::new(),
                ..full
            };
            for mode in [ExecMode::Compiled, ExecMode::Reference] {
                let off = observe(&base, &bytes, mode, TraceLevel::Off, false);
                assert_eq!(off, untraced, "{exit}: inject, trace off, {mode:?}");
                let buf = observe(&base, &bytes, mode, TraceLevel::Full, true);
                assert_eq!(buf, untraced, "{exit}: inject_buf, {mode:?}");
            }
        }
    }

    #[test]
    fn inject_buf_reuses_buffer_across_packets() {
        let mut sw = basic_switch();
        sw.install_entry(PipeletId::ingress(0), "l2", fwd_entry(0xaabb, 20))
            .unwrap();
        let mut buf = Vec::with_capacity(256);
        for _ in 0..3 {
            buf.clear();
            buf.extend_from_slice(&eth_packet(0xaabb));
            let out = sw.inject_buf(&mut buf, 0).unwrap();
            assert_eq!(out.disposition, Disposition::Emitted { port: 20 });
            assert_eq!(buf.len(), 14);
        }
    }

    #[test]
    fn inject_buf_collects_mirrors_via_drain() {
        let mut sw = basic_switch();
        sw.install_entry(PipeletId::ingress(0), "l2", fwd_entry(0xaabb, 20))
            .unwrap();
        sw.set_mirror_port(Some(30));
        // The l2 program never mirrors, so the queue stays empty…
        let mut buf = eth_packet(0xaabb);
        sw.inject_buf(&mut buf, 0).unwrap();
        assert!(sw.drain_mirrored().is_empty());
    }
}
