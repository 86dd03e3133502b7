//! Machinery shared by the single-switch workloads (`fwd_min`, `acl_4k`,
//! `sfc_edge`): a seeded packet schedule, the closed-loop timed window
//! over [`Switch::inject_buf`], the reference-interpreter oracle, and the
//! traced pass that drives the same packets through the inner layers.

use crate::alloc;
use crate::harness::{self, Meter, Outcome};
use crate::stats::{self, Kind, LogHist, Series};
use crate::trace::{Tracer, ROOT};
use dejavu_asic::switch::{Disposition, CPU_PORT, PORT_UNSET, RECIRC_PORT_BASE};
use dejavu_asic::{
    CompiledProgram, ExecMode, ExecScratch, InjectedPacket, ParsedPacket, PipeletId, PortId,
    Switch, TableState, TraceLevel,
};
use dejavu_p4ir::{HeaderType, Program, Value};
use serde::json::Value as Json;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Packets per clock read inside a timed window: one latency sample is
/// the mean over this many back-to-back packets.
pub const BATCH: usize = 32;

/// A seeded closed-loop schedule: distinct packets, what must happen to
/// each, and the order they are sent in.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The distinct packets.
    pub packets: Vec<InjectedPacket>,
    /// The disposition each distinct packet must end in.
    pub expect: Vec<Disposition>,
    /// Indices into `packets`, in send order.
    pub order: Vec<u32>,
}

impl Schedule {
    /// Every byte the library will see, in send order — what the
    /// determinism test compares across seeds.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for &i in &self.order {
            let p = &self.packets[i as usize];
            out.extend_from_slice(&p.port.to_be_bytes());
            out.extend_from_slice(&p.bytes);
        }
        out
    }
}

/// What one timed window saw.
#[derive(Debug, Default)]
pub struct Window {
    /// Packets driven to their final disposition.
    pub ops: u64,
    /// Wall time of the window.
    pub elapsed_s: f64,
    /// Packets that erred or ended in an unexpected disposition.
    pub failed: u64,
}

/// Drives the schedule through `inject_buf`, one packet in flight, for
/// about `seconds` of work, resuming at `cursor`. Every packet's
/// disposition is checked against the schedule; per-batch mean latencies
/// (µs per packet) are appended to `lat_us`. Every [`harness::TICK_S`] of
/// work `tick` runs (the calibration sample) and reports how long it
/// took; that time is not part of the window.
pub fn window(
    sw: &mut Switch,
    sched: &Schedule,
    cursor: &mut usize,
    seconds: f64,
    buf: &mut Vec<u8>,
    lat_us: &mut Vec<f64>,
    mut tick: impl FnMut() -> f64,
) -> Window {
    let mut w = Window::default();
    let n = sched.order.len();
    let start = Instant::now();
    let mut last = start;
    let mut paused = 0.0;
    let mut next_tick = harness::TICK_S;
    loop {
        for _ in 0..BATCH {
            let idx = sched.order[*cursor] as usize;
            *cursor += 1;
            if *cursor == n {
                *cursor = 0;
            }
            let pkt = &sched.packets[idx];
            buf.clear();
            buf.extend_from_slice(&pkt.bytes);
            let ok = sw
                .inject_buf(buf, pkt.port)
                .is_ok_and(|o| o.disposition == sched.expect[idx]);
            w.failed += u64::from(!ok);
        }
        w.ops += BATCH as u64;
        let now = Instant::now();
        lat_us.push(now.duration_since(last).as_secs_f64() * 1e6 / BATCH as f64);
        last = now;
        w.elapsed_s = now.duration_since(start).as_secs_f64() - paused;
        if w.elapsed_s >= seconds {
            return w;
        }
        if w.elapsed_s >= next_tick {
            next_tick += harness::TICK_S;
            paused += tick();
            last = Instant::now();
        }
    }
}

/// A `tick` for windows outside any repetition.
pub fn no_tick() -> f64 {
    0.0
}

/// The exact, schedule-weighted simulated figures the oracle derives.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimFacts {
    /// Recirculations per emitted packet.
    pub recirc_per_pkt: f64,
    /// Mean timing-model latency per emitted packet, simulated ns.
    pub sim_latency_ns: f64,
}

/// Output oracle: every distinct packet through `inject_buf` on the
/// compiled engine and through the reference interpreter with full
/// traces; disposition, final bytes, loop counts and simulated latency
/// must agree, and the disposition must be the one the schedule expects.
/// Untimed. Returns the schedule-weighted simulated figures.
pub fn oracle(sw: &Switch, sched: &Schedule, out: &mut Outcome) -> SimFacts {
    let mut reference = sw.clone();
    reference.set_exec_mode(ExecMode::Reference);
    reference.set_trace_level(TraceLevel::Full);
    let mut compiled = sw.clone();
    let mut buf = Vec::with_capacity(2048);
    let mut per_packet = Vec::with_capacity(sched.packets.len());
    let mut bad = 0u64;
    for (pkt, expect) in sched.packets.iter().zip(&sched.expect) {
        buf.clear();
        buf.extend_from_slice(&pkt.bytes);
        let fast = compiled.inject_buf(&mut buf, pkt.port);
        let slow = reference.inject(pkt.clone());
        let agree = match (&fast, &slow) {
            (Ok(f), Ok(s)) => {
                f.disposition == *expect
                    && f.disposition == s.disposition
                    && buf == s.final_bytes
                    && f.recirculations == s.recirculations
                    && f.resubmissions == s.resubmissions
                    && f.latency_ns == s.latency_ns
            }
            _ => false,
        };
        bad += u64::from(!agree);
        per_packet.push(fast.ok());
    }
    out.count(sched.packets.len() as u64, bad);
    out.note("oracle_packets", Json::UInt(sched.packets.len() as u64));
    out.note("oracle_mismatches", Json::UInt(bad));

    let (mut emitted, mut recirc, mut sim) = (0u64, 0u64, 0.0f64);
    for &i in &sched.order {
        if let Some(o) = per_packet[i as usize] {
            if matches!(o.disposition, Disposition::Emitted { .. }) {
                emitted += 1;
                recirc += o.recirculations as u64;
                sim += o.latency_ns;
            }
        }
    }
    let per_emitted = |x: f64| {
        if emitted == 0 {
            0.0
        } else {
            x / emitted as f64
        }
    };
    SimFacts {
        recirc_per_pkt: per_emitted(recirc as f64),
        sim_latency_ns: per_emitted(sim),
    }
}

/// The untraced measurement: `reps` windows of `rep_s`, each bracketed by
/// the calibration kernel; records `pps` and `latency_p50_us`.
pub fn measure(meter: &mut Meter<'_>, sw: &mut Switch, sched: &Schedule, reps: usize) {
    let mut buf = Vec::with_capacity(2048);
    let mut cursor = 0usize;
    // Room for a repetition's latency samples, touched up front (4 M
    // packets/s would fill it), so peak memory does not depend on how
    // fast this run happens to go.
    let samples_per_rep = (4e6 * meter.cfg.rep_s) as usize / BATCH;
    let mut lat_rep = vec![0.0; samples_per_rep];
    let mut lat_all = LogHist::default();
    // Warm-up: every distinct packet once grows every scratch buffer.
    for pkt in &sched.packets {
        buf.clear();
        buf.extend_from_slice(&pkt.bytes);
        let _ = sw.inject_buf(&mut buf, pkt.port);
    }
    let (mut pps, mut lat) = (Series::default(), Series::default());
    meter.reopen();
    for _ in 0..reps {
        lat_rep.clear();
        let rep_s = meter.cfg.rep_s;
        let w = window(
            sw,
            sched,
            &mut cursor,
            rep_s,
            &mut buf,
            &mut lat_rep,
            || meter.tick(),
        );
        let slowness = meter.close_rep();
        meter.out.count(w.ops, w.failed);
        pps.push(Kind::Rate, w.ops as f64 / w.elapsed_s, slowness.mean);
        lat.push(
            Kind::Duration,
            stats::median_in_place(&mut lat_rep),
            slowness.median,
        );
        lat_all.extend(&lat_rep);
    }
    meter.out.e2e("pps", pps.figure("1/s"));
    meter.out.e2e("latency_p50_us", lat.figure("us"));
    harness::record_tail(&mut meter.out, &lat_all);
}

// ---------------------------------------------------------------------
// Layer replay: the passes a packet makes, from outside the switch
// ---------------------------------------------------------------------

/// One loaded pipelet as the harness re-creates it from the switch's
/// public accessors: the program, a fresh compile of it, and a clone of
/// its table state.
pub struct PipeletRt {
    /// Which pipelet.
    pub id: PipeletId,
    /// Its program.
    pub program: Program,
    /// `CompiledProgram::compile` of that program.
    pub compiled: CompiledProgram,
    /// Clone of the pipelet's tables.
    pub tables: TableState,
    headers: HashMap<String, HeaderType>,
}

/// One pipelet pass of one packet: what enters it, and the lookups it
/// makes whose keys can be read off the entering packet.
pub struct PassPlan {
    /// Index into [`Layers::rts`].
    pub rt: usize,
    /// Wire bytes as they enter the pass.
    pub input: Vec<u8>,
    /// `ingress_port` metadata seed.
    pub ingress_port: PortId,
    /// `egress_spec` metadata seed.
    pub egress_seed: PortId,
    /// `(table, key values)` of every table the pass applies whose keys
    /// are all header fields present in `input`.
    pub lookups: Vec<(String, Vec<Value>)>,
}

/// Every loaded pipelet of a switch, compiled and cloned for replay.
pub struct Layers {
    /// The pipelets.
    pub rts: Vec<PipeletRt>,
    /// Summed wall time of `CompiledProgram::compile`, milliseconds.
    pub compile_ms: f64,
}

impl Layers {
    /// Rebuilds the execution layers of `sw` from its public accessors.
    pub fn of(sw: &Switch) -> Self {
        let mut rts = Vec::new();
        let mut compile_ms = 0.0;
        for id in sw.loaded_pipelets() {
            let program = sw
                .program(id)
                .expect("loaded pipelet has a program")
                .clone();
            let t = Instant::now();
            let compiled = CompiledProgram::compile(&program).expect("program compiled at load");
            compile_ms += t.elapsed().as_secs_f64() * 1e3;
            let headers = program
                .header_types
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            rts.push(PipeletRt {
                id,
                tables: sw.tables(id).expect("loaded pipelet has tables").clone(),
                program,
                compiled,
                headers,
            });
        }
        Layers { rts, compile_ms }
    }

    fn rt_of(&self, id: PipeletId) -> Option<usize> {
        self.rts.iter().position(|r| r.id == id)
    }

    /// Runs one pass for planning: returns the signals, and records the
    /// pass (with its header-keyed lookups) into `plans`. A pipelet with
    /// no program passes bytes through, exactly as the switch does.
    fn plan_pass(
        &mut self,
        id: PipeletId,
        buf: &mut Vec<u8>,
        ingress_port: PortId,
        egress_seed: PortId,
        scratch: &mut ExecScratch,
        plans: &mut Vec<PassPlan>,
    ) -> Option<dejavu_asic::BufPass> {
        let Some(i) = self.rt_of(id) else {
            return Some(dejavu_asic::BufPass {
                parsed: true,
                drop: false,
                to_cpu: false,
                resubmit: false,
                mirror: false,
                egress_spec: u128::from(egress_seed),
                tables_applied: 0,
            });
        };
        let rt = &mut self.rts[i];
        let pass = rt
            .compiled
            .run_pass_scratch(
                buf,
                ingress_port,
                egress_seed,
                &mut rt.tables,
                true,
                scratch,
            )
            .ok()?;
        rt.tables.take_digests();
        let parsed = ParsedPacket::parse(buf, &rt.program.parser, &rt.headers).ok();
        let mut lookups = Vec::new();
        for ev in scratch.events() {
            let Some(def) = rt.program.tables.get(&ev.table) else {
                continue;
            };
            let keys: Option<Vec<Value>> = def
                .keys
                .iter()
                .map(|k| {
                    if k.field.is_meta() {
                        None
                    } else {
                        parsed.as_ref()?.get(&k.field)
                    }
                })
                .collect();
            if let Some(keys) = keys {
                lookups.push((ev.table.clone(), keys));
            }
        }
        plans.push(PassPlan {
            rt: i,
            input: buf.clone(),
            ingress_port,
            egress_seed,
            lookups,
        });
        if pass.parsed {
            std::mem::swap(buf, scratch.out_mut());
        }
        Some(pass)
    }

    /// Follows one packet through the pipelets the way the switch's
    /// traffic-manager loop does, using only public state, and returns
    /// the passes it makes with the disposition and final bytes they lead
    /// to (`None` when a pass errs or the packet never leaves).
    pub fn plan(
        &mut self,
        sw: &Switch,
        pkt: &InjectedPacket,
    ) -> Option<(Vec<PassPlan>, Disposition, Vec<u8>)> {
        let profile = sw.profile().clone();
        let recirc_ports = RECIRC_PORT_BASE..RECIRC_PORT_BASE + profile.pipelines as PortId;
        let pipeline_of = |port: PortId| -> Option<usize> {
            if recirc_ports.contains(&port) {
                Some(usize::from(port - RECIRC_PORT_BASE))
            } else {
                profile.pipeline_of_port(usize::from(port))
            }
        };
        let mut scratch = ExecScratch::new();
        let mut plans = Vec::new();
        let mut buf = pkt.bytes.clone();
        let mut ingress_port = pkt.port;
        let mut pipeline = pipeline_of(pkt.port)?;
        for _ in 0..64 {
            let ing = PipeletId::ingress(pipeline);
            let sig = self.plan_pass(
                ing,
                &mut buf,
                ingress_port,
                PORT_UNSET,
                &mut scratch,
                &mut plans,
            )?;
            if !sig.parsed || sig.drop {
                return Some((plans, Disposition::Dropped, buf));
            }
            if sig.to_cpu {
                return Some((plans, Disposition::ToCpu, buf));
            }
            if sig.resubmit {
                continue;
            }
            let egress_spec = sig.egress_spec as PortId;
            if egress_spec == CPU_PORT {
                return Some((plans, Disposition::ToCpu, buf));
            }
            let Some(dest) = pipeline_of(egress_spec).filter(|_| egress_spec != PORT_UNSET) else {
                return Some((plans, Disposition::Dropped, buf));
            };
            let eg = PipeletId::egress(dest);
            let esig = self.plan_pass(
                eg,
                &mut buf,
                ingress_port,
                egress_spec,
                &mut scratch,
                &mut plans,
            )?;
            if !esig.parsed || esig.drop {
                return Some((plans, Disposition::Dropped, buf));
            }
            if esig.to_cpu {
                return Some((plans, Disposition::ToCpu, buf));
            }
            if sw.is_loopback(egress_spec) || recirc_ports.contains(&egress_spec) {
                pipeline = dest;
                ingress_port = egress_spec;
                continue;
            }
            return Some((plans, Disposition::Emitted { port: egress_spec }, buf));
        }
        None
    }
}

/// The traced pass over a stateless single-switch workload, plus the
/// layer probes that ride with it. Fills `out.per_layer`.
///
/// Three loops over the same `n` scheduled packets: the root operation
/// (`Switch::inject_buf`), then each packet's pipelet passes through
/// [`CompiledProgram::run_pass_scratch`] on a fresh compile of
/// `Switch::program` with a clone of `Switch::tables`, then each pass's
/// header-keyed lookups through [`TableState::lookup_ref`]. Spans nest by
/// parent pointer: `switch.inject_buf ⊃ compiled.run_pass ⊃ tables.lookup`.
pub fn traced(meter: &mut Meter<'_>, sw: &mut Switch, sched: &Schedule) {
    let mut buf = Vec::with_capacity(2048);
    let mut cursor = 0usize;

    // Untraced reference rate for the overhead figure and the tail.
    let mut lat_us = Vec::new();
    let reference = window(
        sw,
        sched,
        &mut cursor,
        (meter.cfg.trace_s * 0.15).max(0.02),
        &mut buf,
        &mut lat_us,
        no_tick,
    );
    meter.out.count(reference.ops, reference.failed);
    let untraced_pps = reference.ops as f64 / reference.elapsed_s;
    if !meter.out.per_layer.contains_key("driver.latency_p99_us") {
        let mut tail = LogHist::default();
        tail.extend(&lat_us);
        harness::record_tail(&mut meter.out, &tail);
    }

    // Plan every distinct packet's passes; the replay must land where the
    // switch does, or the layer figures describe some other path.
    let mut layers = Layers::of(sw);
    let mut plans: Vec<Vec<PassPlan>> = Vec::with_capacity(sched.packets.len());
    let mut check = sw.clone();
    let mut bad = 0u64;
    for pkt in &sched.packets {
        buf.clear();
        buf.extend_from_slice(&pkt.bytes);
        let real = check.inject_buf(&mut buf, pkt.port).ok();
        match layers.plan(sw, pkt) {
            Some((p, disposition, bytes))
                if real.is_some_and(|r| r.disposition == disposition) && bytes == buf =>
            {
                plans.push(p)
            }
            _ => {
                bad += 1;
                plans.push(Vec::new());
            }
        }
    }
    meter.out.count(sched.packets.len() as u64, bad);
    meter.out.note("replay_mismatches", Json::UInt(bad));

    let n =
        ((untraced_pps * meter.cfg.trace_s * 0.2) as usize).clamp(256, meter.cfg.trace_ops_cap());
    let mut tracer = Tracer::new();
    let l_root = tracer.layer("asic.switch.inject_buf");
    let l_pass = tracer.layer("asic.compiled.run_pass");
    let l_lookup = tracer.layer("asic.tables.lookup");
    let spans_per_op = plans
        .iter()
        .map(|p| 1 + p.len() + p.iter().map(|x| x.lookups.len()).sum::<usize>())
        .max()
        .unwrap_or(1);
    tracer.reserve(n * spans_per_op);

    // The three layers take turns over blocks of operations, so that a
    // host that speeds up or slows down mid-pass does so for all of them.
    const BLOCK: usize = 2048;
    let order: Vec<usize> = (0..n)
        .map(|i| sched.order[i % sched.order.len()] as usize)
        .collect();
    let probes = |layers: &Layers| -> u64 {
        layers
            .rts
            .iter()
            .flat_map(|rt| rt.tables.index_telemetry())
            .map(|(_, t)| t.probes)
            .sum()
    };
    let probes_before = probes(&layers);
    let mut scratch = ExecScratch::new();
    let mut hot_keys: Vec<Value> = Vec::with_capacity(8);
    let mut roots: Vec<u32> = Vec::with_capacity(BLOCK);
    let mut pass_ids: Vec<u32> = Vec::with_capacity(BLOCK * 4);
    let (mut failed, mut resub, mut lookups) = (0u64, 0u64, 0u64);
    let mut root_loop_s = 0.0;
    for (block, ops) in order.chunks(BLOCK).enumerate() {
        let first_op = block * BLOCK;

        // The root operation.
        roots.clear();
        let t = Instant::now();
        for (i, &idx) in ops.iter().enumerate() {
            let pkt = &sched.packets[idx];
            buf.clear();
            buf.extend_from_slice(&pkt.bytes);
            let (id, r) = tracer.span(l_root, ROOT, (first_op + i) as u32, || {
                sw.inject_buf(&mut buf, pkt.port)
            });
            match r {
                Ok(o) => {
                    failed += u64::from(o.disposition != sched.expect[idx]);
                    resub += o.resubmissions as u64;
                }
                Err(_) => failed += 1,
            }
            roots.push(id);
        }
        root_loop_s += t.elapsed().as_secs_f64();

        // Each packet's pipelet passes.
        pass_ids.clear();
        for (i, &idx) in ops.iter().enumerate() {
            for p in &plans[idx] {
                let rt = &mut layers.rts[p.rt];
                // As for the root: the harness's copy of the bytes into a
                // warm buffer stays outside the span.
                buf.clear();
                buf.extend_from_slice(&p.input);
                let (id, r) = tracer.span(l_pass, roots[i], (first_op + i) as u32, || {
                    rt.compiled.run_pass_scratch(
                        &buf,
                        p.ingress_port,
                        p.egress_seed,
                        &mut rt.tables,
                        false,
                        &mut scratch,
                    )
                });
                black_box(r.is_ok());
                rt.tables.take_digests();
                pass_ids.push(id);
            }
        }

        // Each pass's lookups.
        let mut next_pass = 0usize;
        for (i, &idx) in ops.iter().enumerate() {
            for p in &plans[idx] {
                let parent = pass_ids[next_pass];
                next_pass += 1;
                let rt = &layers.rts[p.rt];
                for (table, keys) in &p.lookups {
                    let def = &rt.program.tables[table];
                    hot_keys.clear();
                    hot_keys.extend_from_slice(keys);
                    let (_, hit) = tracer.span(l_lookup, parent, (first_op + i) as u32, || {
                        rt.tables.lookup_ref(def, &hot_keys).is_some()
                    });
                    black_box(hit);
                    lookups += 1;
                }
            }
        }
    }
    let traced_pps = n as f64 / root_loop_s;
    meter.out.count(n as u64, failed);
    // Probes counted on the cloned tables: the pass replays and the lookup
    // replays each look every key up once.
    let probes_after = probes(&layers);

    // Derive the layer figures.
    let lt = tracer.layers();
    let root = lt["asic.switch.inject_buf"];
    let pass = lt
        .get("asic.compiled.run_pass")
        .copied()
        .unwrap_or_default();
    let look = lt.get("asic.tables.lookup").copied().unwrap_or_default();
    let per_pkt = |ns: f64| ns / n as f64;
    let out = &mut meter.out;
    out.layer("asic.switch.inject_buf_ns", root.mean_ns());
    out.layer("asic.switch.self_ns", per_pkt(root.self_ns).max(0.0));
    out.layer("asic.switch.passes_per_pkt", pass.count as f64 / n as f64);
    out.layer("asic.switch.resub_per_pkt", resub as f64 / n as f64);
    out.layer("asic.compiled.run_pass_ns", pass.mean_ns());
    out.layer("asic.compiled.self_ns", per_pkt(pass.self_ns).max(0.0));
    out.layer("asic.compiled.compile_ms", layers.compile_ms);
    out.layer("asic.tables.lookup_ns", look.mean_ns());
    if lookups > 0 {
        out.layer(
            "asic.index.probes_per_lookup",
            (probes_after - probes_before) as f64 / (2 * lookups) as f64,
        );
    }
    let shares = [
        ("share_switch_self_pct", root.self_ns),
        ("share_compiled_self_pct", pass.self_ns),
        ("share_tables_lookup_pct", look.self_ns),
    ];
    let mut covered = 0.0;
    for (key, ns) in shares {
        let pct = 100.0 * ns.max(0.0) / root.total_ns;
        covered += pct;
        out.note(key, Json::Float(pct));
    }
    out.note("self_time_coverage_pct", Json::Float(covered));
    out.note("lookups_per_pkt", Json::Float(lookups as f64 / n as f64));
    out.note("traced_ops", Json::UInt(n as u64));
    out.note("timer_overhead_ns", Json::Float(tracer.overhead_ns()));
    out.layer(
        "driver.trace_overhead_pct",
        100.0 * (1.0 - traced_pps / untraced_pps),
    );
    meter.out.tracer = Some(tracer);

    probes_outside_trace(meter, sw, sched);
}

/// The layer probes that need no spans: allocator counts, telemetry cost,
/// generator share, index kind and rebuilds.
fn probes_outside_trace(meter: &mut Meter<'_>, sw: &mut Switch, sched: &Schedule) {
    let mut buf = Vec::with_capacity(2048);
    let mut cursor = 0usize;
    let pass_s = |pps: f64| (sched.order.len() as f64 / pps).max(0.01);

    // Steady-state allocations: the schedule once more, counted (the
    // latency samples get their room first, so the count is the library's).
    let mut lat = Vec::with_capacity(1 << 20);
    let warm = window(sw, sched, &mut cursor, 0.01, &mut buf, &mut lat, no_tick);
    let pps = warm.ops as f64 / warm.elapsed_s;
    let before = alloc::snapshot();
    let w = window(
        sw,
        sched,
        &mut cursor,
        pass_s(pps),
        &mut buf,
        &mut lat,
        no_tick,
    );
    let after = alloc::snapshot();
    meter.out.layer(
        "asic.allocs_per_pkt",
        (after.0 - before.0) as f64 / w.ops as f64,
    );
    meter.out.layer(
        "asic.alloc_bytes_per_pkt",
        (after.1 - before.1) as f64 / w.ops as f64,
    );

    // Generator share: the harness's own copy of the packet into the
    // buffer, as a share of the per-packet time.
    let copies = sched.order.len() * 8;
    let t = Instant::now();
    for i in 0..copies {
        let pkt = &sched.packets[sched.order[i % sched.order.len()] as usize];
        buf.clear();
        buf.extend_from_slice(&pkt.bytes);
        black_box(&mut buf);
    }
    let copy_s = t.elapsed().as_secs_f64() / copies as f64;
    meter
        .out
        .layer("driver.generator_share", 100.0 * copy_s * pps);

    // Telemetry: the same schedule with the registry on, interleaved with
    // it off so drift hits both sides.
    let mut on = sw.clone();
    on.set_telemetry(true);
    let (mut off_rate, mut on_rate) = (Vec::new(), Vec::new());
    let slice = (meter.cfg.trace_s * 0.04).max(0.01);
    let (mut c_on, mut c_off) = (0usize, 0usize);
    for _ in 0..4 {
        let w = window(sw, sched, &mut c_off, slice, &mut buf, &mut lat, no_tick);
        off_rate.push(w.ops as f64 / w.elapsed_s);
        let w = window(
            &mut on, sched, &mut c_on, slice, &mut buf, &mut lat, no_tick,
        );
        on_rate.push(w.ops as f64 / w.elapsed_s);
    }
    meter.out.layer(
        "telemetry.on_cost_pct",
        100.0 * (1.0 - stats::median(&on_rate) / stats::median(&off_rate)),
    );
    let t = Instant::now();
    for _ in 0..16 {
        black_box(on.metrics_snapshot());
    }
    meter.out.layer(
        "telemetry.snapshot_us",
        t.elapsed().as_secs_f64() * 1e6 / 16.0,
    );

    // The index serving the largest table.
    let largest = sw
        .loaded_pipelets()
        .into_iter()
        .filter_map(|pid| sw.tables(pid).map(|t| (pid, t)))
        .flat_map(|(pid, t)| {
            t.index_telemetry()
                .into_iter()
                .map(move |(name, it)| (t.len(&name), pid, name, it))
        })
        .max_by_key(|(len, ..)| *len);
    if let Some((len, pid, name, it)) = largest {
        meter.out.layer("asic.index.kind", it.kind.ordinal() as f64);
        meter.out.layer("asic.index.rebuilds", it.rebuilds as f64);
        meter
            .out
            .note("index_kind", Json::Str(it.kind.name().to_string()));
        meter.out.note(
            "index_table",
            Json::Str(format!("{pid}/{name} ({len} entries)")),
        );
    }
}

/// Per-entry install timing collected while a system is built.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstallLog {
    /// Entries installed.
    pub entries: u64,
    /// Summed wall time of the install calls, seconds.
    pub seconds: f64,
}

impl InstallLog {
    /// Times one install call.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.seconds += t.elapsed().as_secs_f64();
        self.entries += 1;
        r
    }

    /// Mean microseconds per installed entry.
    pub fn mean_us(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.seconds * 1e6 / self.entries as f64
        }
    }
}
