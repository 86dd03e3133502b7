//! Run-to-completion execution: per-core workers over pooled buffers.
//!
//! The third layer of the zero-allocation engine (pool → scratch → cores).
//! An [`RtcSession`] drives a workload the way a DPDK-style run-to-completion
//! dataplane does:
//!
//! * **one worker per core**, each owning a full [`Switch`] clone (programs,
//!   table state, telemetry shard) and processing packets start-to-finish on
//!   its own thread — no cross-core handoff mid-packet;
//! * **SPSC ingress rings** (bounded channels) feed the workers; the
//!   dispatcher steers each packet by [`flow_hash`] so every packet of a
//!   flow lands on the same core and per-flow order is preserved — the
//!   shard-steering invariant;
//! * **core-aware scheduling**: when the configuration asks for more
//!   workers than the host has cores, thread handoff would degrade into
//!   context-switch churn (every ring hop is a forced switch on a shared
//!   core), so the session runs the *same* shards — per-worker switch
//!   clone, pool, bounded ring, steering function — cooperatively on the
//!   dispatching core instead. Shard assignment, per-flow order, packet
//!   counts, dispositions, and telemetry are identical in both modes;
//!   only the interleaving across shards differs (as it would between any
//!   two multicore schedules);
//! * **pooled buffers**: each worker has a private [`PacketPool`]; wire
//!   bytes are copied into a [`PacketHandle`] exactly once at dispatch and
//!   the same buffer carries the packet through parse, rewrite, deparse,
//!   recirculation and emit via [`Switch::inject_buf`]. Pool exhaustion is a
//!   policy decision ([`ExhaustionPolicy`]) — backpressure or a counted
//!   drop, never a panic and never a fallback allocation.
//!
//! Cloning a [`Switch`] deep-copies its metrics registry, so each worker
//! accumulates into a private shard; at every collect a worker ships only
//! the diff between its snapshots before and after the run, and the session
//! merges the deltas — lossless even when the input switch already carries
//! non-zero counters. The session then injects its own series: `rtc_worker_packets{core}`, `pool_in_use` (peak),
//! `pool_exhausted`, and `rtc_ring_depth{core,bucket}` (log2 occupancy
//! histogram sampled at each ring pop).

use crate::packet::flow_hash;
use crate::pool::{PacketHandle, PacketPool};
use crate::switch::{Disposition, InjectedPacket, PortId, Switch};
use crate::telemetry::MetricsSnapshot;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

/// Number of log2 buckets in the ring-depth histogram (depth 0, 1, 2–3,
/// 4–7, … — depths ≥ 2^14 saturate into the last bucket).
const DEPTH_BUCKETS: usize = 16;

/// What the dispatcher does when a worker's packet pool has no free buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustionPolicy {
    /// Spin (yielding) until a buffer is returned — no packet loss, the
    /// ingress stalls like a NIC asserting flow control.
    Backpressure,
    /// Drop the packet at ingress and move on; every drop is counted in
    /// [`RtcReport::pool_dropped`] (and `pool_exhausted` telemetry).
    Drop,
}

/// Configuration of an [`RtcSession`].
#[derive(Debug, Clone)]
pub struct RtcConfig {
    /// Worker threads (cores). Clamped to at least 1.
    pub workers: usize,
    /// Capacity of each worker's ingress ring.
    pub ring_depth: usize,
    /// Buffers in each worker's private packet pool.
    pub pool_packets: usize,
    /// Byte capacity each pooled buffer is pre-allocated to.
    pub buf_capacity: usize,
    /// Policy when a pool has no free buffer at dispatch time.
    pub exhaustion: ExhaustionPolicy,
}

impl Default for RtcConfig {
    fn default() -> Self {
        RtcConfig {
            workers: 4,
            ring_depth: 256,
            pool_packets: 512,
            buf_capacity: 2048,
            exhaustion: ExhaustionPolicy::Backpressure,
        }
    }
}

/// Result of a run-to-completion execution.
#[derive(Debug, Clone)]
pub struct RtcReport {
    /// Worker threads used.
    pub workers: usize,
    /// Packets handed to workers (excludes pool-policy drops at dispatch).
    pub injected: u64,
    /// Packets emitted on an egress port.
    pub emitted: u64,
    /// Packets dropped inside the pipeline.
    pub dropped: u64,
    /// Packets punted to the CPU port.
    pub to_cpu: u64,
    /// Traversals that returned an error (bad port, forwarding loop, …).
    pub errors: u64,
    /// Packets dropped at dispatch under [`ExhaustionPolicy::Drop`].
    pub pool_dropped: u64,
    /// Failed pool acquisitions across all workers (every backpressure spin
    /// retry after the first failure also counts one).
    pub pool_exhausted: u64,
    /// Peak buffers simultaneously in flight across all pools.
    pub pool_in_use_peak: usize,
    /// Packets processed per worker, indexed by core.
    pub worker_packets: Vec<u64>,
    /// Merged telemetry delta (empty when the switch's telemetry is off),
    /// including the session's own `rtc_*` / `pool_*` series.
    pub metrics: MetricsSnapshot,
    /// Wall-clock time for the whole run, in seconds.
    pub elapsed_s: f64,
    /// Injected packets divided by wall-clock time.
    pub packets_per_sec: f64,
}

/// What one worker sends back when its ring closes.
struct WorkerResult {
    core: usize,
    packets: u64,
    emitted: u64,
    dropped: u64,
    to_cpu: u64,
    errors: u64,
    depth_hist: [u64; DEPTH_BUCKETS],
    metrics: MetricsSnapshot,
}

impl WorkerResult {
    fn new(core: usize) -> Self {
        WorkerResult {
            core,
            packets: 0,
            emitted: 0,
            dropped: 0,
            to_cpu: 0,
            errors: 0,
            depth_hist: [0; DEPTH_BUCKETS],
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Runs one packet to completion on `sw` and folds the outcome in.
    /// Mirror copies are discarded — a resident worker has nowhere to send
    /// them and must not hoard them; `packets_mirrored` has counted each.
    fn run_one(&mut self, sw: &mut Switch, handle: &mut PacketHandle, port: PortId) {
        self.packets += 1;
        let outcome = sw.inject_buf(handle, port);
        sw.drain_mirrored();
        match outcome {
            Ok(out) => match out.disposition {
                Disposition::Emitted { .. } => self.emitted += 1,
                Disposition::Dropped => self.dropped += 1,
                Disposition::ToCpu => self.to_cpu += 1,
            },
            Err(_) => self.errors += 1,
        }
    }
}

fn depth_bucket(depth: usize) -> usize {
    if depth == 0 {
        0
    } else {
        (usize::BITS - depth.leading_zeros()) as usize
    }
    .min(DEPTH_BUCKETS - 1)
}

/// What the dispatcher sends a resident worker thread.
enum Cmd {
    /// One packet: a filled pool buffer and its ingress port.
    Pkt(PacketHandle, PortId),
    /// Report the delta since the last collect (a barrier: the ring is
    /// FIFO, so every packet sent before this has been processed).
    Collect,
}

/// A resident worker's loop: process packets until the ring closes,
/// shipping a stats-and-telemetry delta back at every collect point.
/// Dropping a handle at the end of its iteration returns the buffer to
/// the pool the dispatcher acquires from.
fn session_worker(
    core: usize,
    mut sw: Switch,
    rx: mpsc::Receiver<Cmd>,
    depth: Arc<AtomicUsize>,
    out: mpsc::Sender<WorkerResult>,
) {
    let mut before = sw.metrics_snapshot();
    let mut r = WorkerResult::new(core);
    for cmd in rx {
        match cmd {
            Cmd::Pkt(mut handle, port) => {
                let d = depth.fetch_sub(1, Ordering::Relaxed);
                r.depth_hist[depth_bucket(d.saturating_sub(1))] += 1;
                r.run_one(&mut sw, &mut handle, port);
            }
            Cmd::Collect => {
                let snap = sw.metrics_snapshot();
                r.metrics = snap.diff(&before);
                before = snap;
                if out
                    .send(std::mem::replace(&mut r, WorkerResult::new(core)))
                    .is_err()
                {
                    return;
                }
            }
        }
    }
}

/// One worker's state in the cooperative (inline) schedule: the same
/// switch clone + pool + bounded ring a threaded worker owns, driven on
/// the dispatcher's core.
struct Shard {
    sw: Switch,
    pool: PacketPool,
    ring: std::collections::VecDeque<(PacketHandle, PortId)>,
    res: WorkerResult,
    before: MetricsSnapshot,
    /// Pool-exhaustion count already reported by earlier collects.
    exh_base: u64,
}

impl Shard {
    /// Pops and runs the oldest queued packet, sampling ring depth exactly
    /// like the threaded worker does at each ring pop. Returns whether a
    /// packet was processed (the dispatcher tracks live buffers with it).
    fn process_one(&mut self) -> bool {
        if let Some((mut handle, port)) = self.ring.pop_front() {
            self.res.depth_hist[depth_bucket(self.ring.len())] += 1;
            self.res.run_one(&mut self.sw, &mut handle, port);
            true
        } else {
            false
        }
    }

    /// Takes the stats-and-telemetry delta since the previous collect —
    /// the inline analogue of [`Cmd::Collect`].
    fn collect(&mut self) -> WorkerResult {
        let core = self.res.core;
        let snap = self.sw.metrics_snapshot();
        let mut r = std::mem::replace(&mut self.res, WorkerResult::new(core));
        r.metrics = snap.diff(&self.before);
        self.before = snap;
        r
    }
}

/// How a session schedules its shards.
enum Mode {
    /// Cooperative: shards driven on the dispatching core (the host has
    /// fewer cores than requested workers — thread handoff would be
    /// context-switch churn, not parallelism).
    Inline(Vec<Shard>),
    /// One resident OS thread per shard, SPSC rings between.
    Threaded {
        links: Vec<Link>,
        joins: Vec<thread::JoinHandle<()>>,
    },
}

/// The dispatcher's handle on one resident worker thread.
struct Link {
    tx: mpsc::SyncSender<Cmd>,
    depth: Arc<AtomicUsize>,
    pool: PacketPool,
    res_rx: mpsc::Receiver<WorkerResult>,
    /// Pool-exhaustion count already reported by earlier collects.
    exh_base: u64,
}

/// A resident run-to-completion engine: per-core workers are booted once
/// from a switch — each with its own [`Switch`] clone, [`PacketPool`], and
/// ingress ring — and stay warm across [`RtcSession::run`] calls, the way
/// a real dataplane boots at startup and processes packets forever.
///
/// Each `run` dispatches one workload, barriers on completion, and returns
/// the [`RtcReport`] delta for exactly that workload (stats, telemetry,
/// pool exhaustion are all per-run deltas). Switch state — table counters,
/// flow entries, registers, aging clocks — carries across runs within each
/// shard, exactly as it would on hardware that keeps running. The switch
/// the session was booted from is never mutated. Mirror copies are counted
/// (`packets_mirrored`) and discarded after each packet, so a session on a
/// switch with a mirror port does not grow.
///
/// The scheduling mode is chosen at boot: one OS thread per worker when
/// the host has the cores for it, otherwise the same shards are driven
/// cooperatively on the dispatching core (see the module docs). Shard
/// assignment, per-flow order, dispositions, and telemetry are identical
/// in both modes.
pub struct RtcSession {
    cfg: RtcConfig,
    workers: usize,
    telemetry: bool,
    mode: Mode,
}

impl RtcSession {
    /// Boots a session: `workers` switch clones with private pools and
    /// rings, resident until the session is dropped.
    pub fn new(switch: &Switch, cfg: RtcConfig) -> Self {
        let workers = cfg.workers.max(1);
        let ring_depth = cfg.ring_depth.max(1);
        let pool_packets = cfg.pool_packets.max(1);
        let telemetry = switch.telemetry_enabled();
        let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mode = if workers > cores {
            Mode::Inline(
                (0..workers)
                    .map(|core| {
                        let sw = switch.clone();
                        let before = sw.metrics_snapshot();
                        Shard {
                            sw,
                            pool: PacketPool::new(pool_packets, cfg.buf_capacity),
                            ring: std::collections::VecDeque::with_capacity(ring_depth),
                            res: WorkerResult::new(core),
                            before,
                            exh_base: 0,
                        }
                    })
                    .collect(),
            )
        } else {
            let mut links = Vec::with_capacity(workers);
            let mut joins = Vec::with_capacity(workers);
            for core in 0..workers {
                let (tx, rx) = mpsc::sync_channel::<Cmd>(ring_depth);
                let (res_tx, res_rx) = mpsc::channel();
                let depth = Arc::new(AtomicUsize::new(0));
                let sw = switch.clone();
                let d = Arc::clone(&depth);
                joins.push(thread::spawn(move || {
                    session_worker(core, sw, rx, d, res_tx)
                }));
                links.push(Link {
                    tx,
                    depth,
                    pool: PacketPool::new(pool_packets, cfg.buf_capacity),
                    res_rx,
                    exh_base: 0,
                });
            }
            Mode::Threaded { links, joins }
        };
        RtcSession {
            cfg,
            workers,
            telemetry,
            mode,
        }
    }

    /// Worker count the session was booted with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Dispatches one workload through the resident workers and returns
    /// the report for exactly this workload.
    pub fn run(&mut self, packets: &[InjectedPacket]) -> RtcReport {
        let start = Instant::now();
        let workers = self.workers;
        let exhaustion = self.cfg.exhaustion;
        let mut injected = 0u64;
        let mut pool_dropped = 0u64;
        let mut pool_in_use_peak = 0usize;

        let (results, pool_exhausted) = match &mut self.mode {
            Mode::Inline(shards) => {
                // Live pooled buffers across all shards, maintained inline
                // instead of summing the pools' atomics per packet — every
                // acquire and every pop happens on this thread.
                let mut live = 0usize;
                for pkt in packets {
                    let core = (flow_hash(&pkt.bytes) % workers as u64) as usize;
                    let shard = &mut shards[core];
                    let handle = match exhaustion {
                        ExhaustionPolicy::Drop => shard.pool.acquire_copy(&pkt.bytes),
                        ExhaustionPolicy::Backpressure => loop {
                            match shard.pool.acquire_copy(&pkt.bytes) {
                                Some(h) => break Some(h),
                                // Backpressure on a shared core means
                                // letting the worker run: drain its ring
                                // until a buffer frees.
                                None if !shard.ring.is_empty() => {
                                    live -= usize::from(shard.process_one());
                                }
                                // Ring empty AND pool empty: the pool
                                // cannot hold even one in-flight packet;
                                // drop rather than spin forever.
                                None => break None,
                            }
                        },
                    };
                    let Some(handle) = handle else {
                        pool_dropped += 1;
                        continue;
                    };
                    live += 1;
                    pool_in_use_peak = pool_in_use_peak.max(live);
                    shard.ring.push_back((handle, pkt.port));
                    injected += 1;
                    // Work-conserving: one pop per push keeps the worker
                    // exactly in step with ingress, the single-core
                    // analogue of a worker thread draining as fast as the
                    // dispatcher fills.
                    live -= usize::from(shard.process_one());
                }
                for shard in shards.iter_mut() {
                    while !shard.ring.is_empty() {
                        shard.process_one();
                    }
                }
                let mut exhausted = 0u64;
                let mut results = Vec::with_capacity(shards.len());
                for s in shards.iter_mut() {
                    let total = s.pool.exhausted();
                    exhausted += total - s.exh_base;
                    s.exh_base = total;
                    results.push(s.collect());
                }
                (results, exhausted)
            }
            Mode::Threaded { links, .. } => {
                // Dispatch: steer by flow hash, acquire from the target
                // worker's pool (policy on exhaustion), push the filled
                // handle into the ring.
                for pkt in packets {
                    let core = (flow_hash(&pkt.bytes) % workers as u64) as usize;
                    let handle = match exhaustion {
                        ExhaustionPolicy::Drop => links[core].pool.acquire_copy(&pkt.bytes),
                        ExhaustionPolicy::Backpressure => loop {
                            match links[core].pool.acquire_copy(&pkt.bytes) {
                                Some(h) => break Some(h),
                                None => thread::yield_now(),
                            }
                        },
                    };
                    let Some(handle) = handle else {
                        pool_dropped += 1;
                        continue;
                    };
                    let in_use: usize = links.iter().map(|l| l.pool.in_use()).sum();
                    pool_in_use_peak = pool_in_use_peak.max(in_use);
                    links[core].depth.fetch_add(1, Ordering::Relaxed);
                    if links[core].tx.send(Cmd::Pkt(handle, pkt.port)).is_err() {
                        // A worker died (it can't: inject_buf never panics
                        // under forbid(unsafe_code) invariants) — count the
                        // packet as lost rather than panicking here.
                        links[core].depth.fetch_sub(1, Ordering::Relaxed);
                        pool_dropped += 1;
                        continue;
                    }
                    injected += 1;
                }
                // Collect barrier: rings are FIFO, so each worker answers
                // only after finishing everything dispatched above.
                for link in links.iter() {
                    let _ = link.tx.send(Cmd::Collect);
                }
                let mut exhausted = 0u64;
                let mut results = Vec::with_capacity(links.len());
                for l in links.iter_mut() {
                    if let Ok(r) = l.res_rx.recv() {
                        results.push(r);
                    }
                    let total = l.pool.exhausted();
                    exhausted += total - l.exh_base;
                    l.exh_base = total;
                }
                results.sort_by_key(|r| r.core);
                (results, exhausted)
            }
        };

        finalize(
            self.telemetry,
            workers,
            start,
            injected,
            pool_dropped,
            pool_in_use_peak,
            pool_exhausted,
            results,
        )
    }
}

impl Drop for RtcSession {
    /// Closes the rings and joins the resident workers.
    fn drop(&mut self) {
        if let Mode::Threaded { links, joins } = &mut self.mode {
            links.clear();
            for j in joins.drain(..) {
                let _ = j.join();
            }
        }
    }
}

/// Merges per-worker results into the report and injects the session's
/// own telemetry series — identical for both scheduling modes.
#[allow(clippy::too_many_arguments)]
fn finalize(
    telemetry: bool,
    workers: usize,
    start: Instant,
    injected: u64,
    pool_dropped: u64,
    pool_in_use_peak: usize,
    pool_exhausted: u64,
    results: Vec<WorkerResult>,
) -> RtcReport {
    let mut metrics = MetricsSnapshot::default();
    let mut worker_packets = vec![0u64; workers];
    let (mut emitted, mut dropped, mut to_cpu, mut errors) = (0u64, 0u64, 0u64, 0u64);
    for r in &results {
        worker_packets[r.core] = r.packets;
        emitted += r.emitted;
        dropped += r.dropped;
        to_cpu += r.to_cpu;
        errors += r.errors;
        metrics.merge(&r.metrics);
    }

    // The session's own series, injected with the same fold idiom the
    // switch uses for table counters. Skipped when telemetry is off so
    // "telemetry disabled ⇒ empty snapshot" still holds.
    if telemetry {
        for r in &results {
            metrics.set_counter(
                format!("rtc_worker_packets{{core=\"{}\"}}", r.core),
                r.packets,
            );
            for (b, &n) in r.depth_hist.iter().enumerate() {
                if n > 0 {
                    metrics.set_counter(
                        format!("rtc_ring_depth{{core=\"{}\",bucket=\"{b}\"}}", r.core),
                        n,
                    );
                }
            }
        }
        metrics.set_counter("pool_exhausted", pool_exhausted);
        metrics.set_gauge("pool_in_use", pool_in_use_peak as i64);
    }

    let elapsed_s = start.elapsed().as_secs_f64();
    RtcReport {
        workers,
        injected,
        emitted,
        dropped,
        to_cpu,
        errors,
        pool_dropped,
        pool_exhausted,
        pool_in_use_peak,
        worker_packets,
        metrics,
        elapsed_s,
        packets_per_sec: if elapsed_s > 0.0 {
            injected as f64 / elapsed_s
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::PipeletId;
    use crate::tofino::TofinoProfile;
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::table::{KeyMatch, TableEntry};
    use dejavu_p4ir::well_known;
    use dejavu_p4ir::{fref, Expr, FieldRef, Value};

    fn l2_program() -> dejavu_p4ir::Program {
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

    fn testbed() -> Switch {
        let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
        sw.load_program(PipeletId::ingress(0), l2_program())
            .unwrap();
        sw.install_entry(
            PipeletId::ingress(0),
            "l2",
            TableEntry {
                matches: vec![KeyMatch::Exact(Value::new(0xaabb, 48))],
                action: "fwd".into(),
                action_args: vec![Value::new(2, 16)],
                priority: 0,
            },
        )
        .unwrap();
        sw
    }

    fn workload(n: usize) -> Vec<InjectedPacket> {
        (0..n)
            .map(|i| {
                // Half the flows hit the fwd entry, half take the drop default.
                let dst = if i % 2 == 0 {
                    0xaabb
                } else {
                    0x1000 + i as u64
                };
                InjectedPacket::new(eth_packet(dst), 0)
            })
            .collect()
    }

    #[test]
    fn rtc_dispositions_match_sequential_injects() {
        let sw = testbed();
        let pkts = workload(64);
        let mut seq = sw.clone();
        let (mut emitted, mut dropped) = (0u64, 0u64);
        for p in &pkts {
            match seq
                .inject(InjectedPacket::new(p.bytes.clone(), p.port))
                .unwrap()
                .disposition
            {
                Disposition::Emitted { .. } => emitted += 1,
                Disposition::Dropped => dropped += 1,
                Disposition::ToCpu => unreachable!(),
            }
        }
        let report = RtcSession::new(
            &sw,
            RtcConfig {
                workers: 4,
                ..RtcConfig::default()
            },
        )
        .run(&pkts);
        assert_eq!(report.injected, 64);
        assert_eq!(report.emitted, emitted);
        assert_eq!(report.dropped, dropped);
        assert_eq!(report.errors, 0);
        assert_eq!(report.worker_packets.iter().sum::<u64>(), 64);
        // Flow steering is deterministic: same workload, same shards.
        let again = RtcSession::new(
            &sw,
            RtcConfig {
                workers: 4,
                ..RtcConfig::default()
            },
        )
        .run(&pkts);
        assert_eq!(report.worker_packets, again.worker_packets);
    }

    #[test]
    fn tiny_pool_backpressures_without_loss() {
        let sw = testbed();
        let pkts = workload(40);
        let report = RtcSession::new(
            &sw,
            RtcConfig {
                workers: 2,
                ring_depth: 1,
                pool_packets: 1,
                exhaustion: ExhaustionPolicy::Backpressure,
                ..RtcConfig::default()
            },
        )
        .run(&pkts);
        assert_eq!(report.injected, 40);
        assert_eq!(report.pool_dropped, 0);
        assert_eq!(report.emitted + report.dropped, 40);
    }

    #[test]
    fn drop_policy_counts_exhaustion_instead_of_blocking() {
        let sw = testbed();
        // One flow → one worker; pool of 1 with a deep ring forces misses.
        let pkts = vec![InjectedPacket::new(eth_packet(0xaabb), 0); 64];
        let report = RtcSession::new(
            &sw,
            RtcConfig {
                workers: 1,
                ring_depth: 64,
                pool_packets: 1,
                exhaustion: ExhaustionPolicy::Drop,
                ..RtcConfig::default()
            },
        )
        .run(&pkts);
        assert_eq!(report.injected + report.pool_dropped, 64);
        assert_eq!(report.emitted, report.injected);
        assert_eq!(report.pool_exhausted, report.pool_dropped);
    }

    #[test]
    fn session_reports_per_run_deltas_over_warm_workers() {
        let mut sw = testbed();
        sw.set_telemetry(true);
        let pkts = workload(32);
        let mut sess = RtcSession::new(
            &sw,
            RtcConfig {
                workers: 4,
                ..RtcConfig::default()
            },
        );
        let a = sess.run(&pkts);
        let b = sess.run(&pkts);
        // Each run reports exactly its own workload, not the session total.
        assert_eq!(a.injected, 32);
        assert_eq!(b.injected, 32);
        assert_eq!(a.emitted, b.emitted);
        assert_eq!(a.worker_packets, b.worker_packets);
        assert_eq!(a.metrics.counter("packets_injected"), 32);
        assert_eq!(b.metrics.counter("packets_injected"), 32);
        assert_eq!(b.metrics.counter_family_total("rtc_worker_packets"), 32);
        // A second session booted from the same switch starts where the first did.
        let one = RtcSession::new(
            &sw,
            RtcConfig {
                workers: 4,
                ..RtcConfig::default()
            },
        )
        .run(&pkts);
        assert_eq!(one.emitted, a.emitted);
        assert_eq!(one.worker_packets, a.worker_packets);
    }

    #[test]
    fn telemetry_carries_rtc_series() {
        let mut sw = testbed();
        sw.set_telemetry(true);
        let pkts = workload(32);
        let report = RtcSession::new(
            &sw,
            RtcConfig {
                workers: 2,
                ..RtcConfig::default()
            },
        )
        .run(&pkts);
        assert_eq!(report.metrics.counter("packets_injected"), 32);
        assert_eq!(
            report.metrics.counter_family_total("rtc_worker_packets"),
            32
        );
        assert!(report.metrics.counter_family_total("rtc_ring_depth") > 0);
        assert_eq!(report.metrics.counter("pool_exhausted"), 0);
        assert!(report.metrics.gauge("pool_in_use") >= 1);
        // Telemetry off ⇒ the report's snapshot stays empty.
        let mut quiet = testbed();
        quiet.set_telemetry(false);
        let r2 = RtcSession::new(&quiet, RtcConfig::default()).run(&pkts);
        assert!(r2.metrics.is_zero());
    }

    #[test]
    fn session_counts_mirror_copies_and_keeps_none() {
        // Every packet is tapped to the mirror port and forwarded.
        let tap = ProgramBuilder::new("tap")
            .header(well_known::ethernet())
            .parser(
                ParserBuilder::new()
                    .node("eth", "ethernet", 0)
                    .accept("eth")
                    .start("eth"),
            )
            .action(
                ActionBuilder::new("tap")
                    .set(FieldRef::meta("mirror_flag"), Expr::val(1, 1))
                    .set(FieldRef::meta("egress_spec"), Expr::val(2, 16))
                    .build(),
            )
            .table(
                TableBuilder::new("t")
                    .key_exact(fref("ethernet", "dst_mac"))
                    .default_action("tap")
                    .build(),
            )
            .control(ControlBuilder::new("ingress").apply("t").build())
            .entry("ingress")
            .build()
            .unwrap();
        let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
        sw.load_program(PipeletId::ingress(0), tap).unwrap();
        sw.set_mirror_port(Some(30));
        sw.set_telemetry(true);
        // More workers than cores: the inline schedule, whose worker
        // switches this test can reach (threaded workers share `run_one`).
        let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut sess = RtcSession::new(
            &sw,
            RtcConfig {
                workers: cores + 1,
                ..RtcConfig::default()
            },
        );
        let report = sess.run(&workload(48));
        assert_eq!(report.emitted, 48);
        assert_eq!(report.metrics.counter("packets_mirrored"), 48);
        let Mode::Inline(shards) = &mut sess.mode else {
            panic!("workers > cores must schedule inline");
        };
        for shard in shards {
            assert!(shard.sw.drain_mirrored().is_empty());
        }
    }
}
