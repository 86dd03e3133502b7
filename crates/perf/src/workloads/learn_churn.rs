//! `learn_churn` — the table layers used for writes.
//!
//! classifier → `dynamic_nat` → router on one switch (the
//! `flow_state_demo` testbed) under a [`ControlPlane`] with
//! `nat_learn_policy`. Traffic comes in chunks of 1024 packets: 256 first
//! packets of never-seen flows (each digests, and the control plane
//! installs its return mapping) and 768 return packets of flows learned
//! one, four and eight chunks ago. After every chunk the control plane
//! drains the digests and the clock advances one tick; the idle timeout
//! is 8 ticks, so in steady state some 4000 flows are resident and 256
//! expire per sweep. Digest, install (incremental insert or rebuild),
//! aging sweep and eviction are the same `asic::tables`/`asic::index`
//! layers the other workloads only read: a lookup speed-up paid for at
//! insert time shows here as a loss. The learn rate is exactly a quarter
//! of `pps`.

use super::single::BATCH;
use crate::alloc;
use crate::harness::{self, Meter, Outcome, Scale};
use crate::stats::{self, Kind, LogHist, Series};
use crate::trace::{Tracer, ROOT};
use dejavu_asic::switch::Disposition;
use dejavu_asic::{ExecMode, InjectedPacket, PipeletId, Switch, TofinoProfile, TraceLevel};
use dejavu_core::control_plane::ControlPlane;
use dejavu_core::deploy::{deploy, DeployOptions, Deployment};
use dejavu_core::placement::Placement;
use dejavu_core::routing::RoutingConfig;
use dejavu_core::{ChainPolicy, ChainSet, NfModule};
use dejavu_nf::nat::{
    dynamic_nat, nat_learn_policy, nat_out_entry, nat_return_entry, NAT_FLOW_STREAM, NAT_IN_TABLE,
    NAT_OUT_TABLE,
};
use dejavu_nf::{classifier, router};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value as Json;
use std::time::Instant;

/// Port traffic enters on.
pub const IN_PORT: u16 = 0;
/// Port the chain exits on.
pub const EXIT_PORT: u16 = 2;
/// Never-seen flows per chunk.
pub const NEW_PER_CHUNK: usize = 256;
/// How many chunks ago the flows a chunk's return traffic belongs to were
/// learned: each learned flow is answered exactly three times.
pub const RETURN_AGES: [usize; 3] = [1, 2, 4];
/// Packets in a steady-state chunk.
pub const CHUNK: usize = NEW_PER_CHUNK * (1 + RETURN_AGES.len());
/// Idle timeout of the learned table, ticks (one tick per chunk).
pub const IDLE_TICKS: u64 = 4;
/// Client /24s, each translated to its own public address, so that the
/// `(public address, port)` key space holds 2^24 flows.
const PREFIXES: u32 = 256;
const SERVER: u32 = 0x0808_0808;
const CLIENT_NET: u32 = 0x0a01_0000;
const PUBLIC_NET: u32 = 0xc612_0001;

/// Chunks run untimed before any measurement: two full timeouts, so the
/// table holds its steady-state population and every sweep evicts.
pub fn warm_chunks(scale: Scale) -> usize {
    match scale {
        Scale::Full | Scale::Quick => 2 * IDLE_TICKS as usize + 8,
        Scale::Smoke => IDLE_TICKS as usize + 10,
    }
}

/// One packet of a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Flow number (flows are numbered in the order they first appear).
    pub flow: u32,
    /// True for the flow's first (outbound) packet, false for a return.
    pub outbound: bool,
}

/// The seeded traffic source: which flow each slot of a chunk carries and
/// what its packet looks like.
pub struct Traffic {
    seed: u64,
    /// Slot order inside a chunk (a seeded permutation of `0..CHUNK`).
    perm: Vec<u16>,
    out_tpl: Vec<u8>,
    ret_tpl: Vec<u8>,
}

impl Traffic {
    /// The traffic source for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1ea2);
        let mut perm: Vec<u16> = (0..CHUNK as u16).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let tcp = |src, dst, sport, dport| {
            dejavu_traffic::PacketBuilder::tcp()
                .src_ip(src)
                .dst_ip(dst)
                .src_port(sport)
                .dst_port(dport)
                .payload(&[0u8; 6])
                .build()
        };
        Traffic {
            seed,
            perm,
            out_tpl: tcp(CLIENT_NET, SERVER, 0, 80),
            ret_tpl: tcp(SERVER, PUBLIC_NET, 80, 0),
        }
    }

    /// The /24 a flow's client lives in.
    fn prefix(flow: u32) -> u32 {
        (flow >> 16) % PREFIXES
    }

    /// The client's private address.
    pub fn client_ip(&self, flow: u32) -> u32 {
        CLIENT_NET | Self::prefix(flow) << 8 | (self.seed as u32 ^ flow) & 0xff
    }

    /// The public address the flow is translated to.
    pub fn public_ip(flow: u32) -> u32 {
        PUBLIC_NET | Self::prefix(flow) << 8
    }

    /// The client's source port — with the public address, the learned key.
    pub fn port(&self, flow: u32) -> u16 {
        flow as u16 ^ (self.seed >> 8) as u16
    }

    /// The slots of chunk `c`, in send order. Early chunks are short: they
    /// have no learned flows to answer yet.
    pub fn chunk(&self, c: usize) -> Vec<Slot> {
        self.perm
            .iter()
            .filter_map(|&p| {
                let (group, i) = (p as usize / NEW_PER_CHUNK, p as usize % NEW_PER_CHUNK);
                let born = if group == 0 {
                    c
                } else {
                    c.checked_sub(RETURN_AGES[group - 1])?
                };
                Some(Slot {
                    flow: (born * NEW_PER_CHUNK + i) as u32,
                    outbound: group == 0,
                })
            })
            .collect()
    }

    /// Writes the slot's packet into `buf`.
    #[inline]
    pub fn write(&self, slot: Slot, buf: &mut Vec<u8>) {
        buf.clear();
        if slot.outbound {
            buf.extend_from_slice(&self.out_tpl);
            buf[26..30].copy_from_slice(&self.client_ip(slot.flow).to_be_bytes());
            buf[34..36].copy_from_slice(&self.port(slot.flow).to_be_bytes());
        } else {
            buf.extend_from_slice(&self.ret_tpl);
            buf[30..34].copy_from_slice(&Self::public_ip(slot.flow).to_be_bytes());
            buf[36..38].copy_from_slice(&self.port(slot.flow).to_be_bytes());
        }
    }

    /// True when `bytes` (as emitted) carry the slot's translation: the
    /// public source on the way out, the private destination on the way
    /// back.
    #[inline]
    pub fn translated(&self, slot: Slot, bytes: &[u8]) -> bool {
        let (at, want) = if slot.outbound {
            (26, Self::public_ip(slot.flow))
        } else {
            (30, self.client_ip(slot.flow))
        };
        bytes.get(at..at + 4) == Some(&want.to_be_bytes()[..])
    }

    /// Every byte of chunks `0..n`, in send order (determinism test).
    pub fn wire_bytes(&self, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for c in 0..n {
            for slot in self.chunk(c) {
                self.write(slot, &mut buf);
                out.extend_from_slice(&buf);
            }
        }
        out
    }
}

/// The system under test: switch, deployment handle and control plane.
pub struct System {
    /// The switch.
    pub sw: Switch,
    /// Its deployment (NF → pipelet translation).
    pub dep: Deployment,
    /// The control plane with the NAT learn policy.
    pub cp: ControlPlane,
}

/// Builds the NAT chain from nothing: deploy, classifier/router rules, one
/// outbound NAT rule per client /24, the idle timeout, the learn policy.
pub fn build() -> System {
    let nfs: Vec<NfModule> = vec![classifier::classifier(), dynamic_nat(), router::router()];
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let chains = ChainSet::new(vec![ChainPolicy::new(
        1,
        "nat_path",
        vec!["classifier", "nat", "router"],
        1.0,
    )])
    .expect("one valid chain");
    let placement = Placement::sequential(vec![
        (PipeletId::ingress(0), vec!["classifier", "nat"]),
        (PipeletId::egress(0), vec!["router"]),
    ]);
    let config = RoutingConfig {
        loopback_port: [(0usize, 15u16), (1usize, 16u16)].into_iter().collect(),
        exit_ports: [(1u16, EXIT_PORT)].into_iter().collect(),
        honor_out_port: false,
    };
    let options = DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    };
    let (mut sw, dep) = deploy(
        &refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        &config,
        &options,
    )
    .expect("nat chain deploys");
    let mut install = |nf: &str, table: &str, entry| {
        dep.install(&mut sw, nf, table, entry)
            .expect("baseline rule installs");
    };
    for prefix in [(CLIENT_NET, 16u16), (0x0800_0000, 8)] {
        install(
            "classifier",
            classifier::CLASSIFY_TABLE,
            classifier::classify_entry(prefix, (0, 0), 1, 100),
        );
    }
    for i in 0..PREFIXES {
        install(
            "nat",
            NAT_OUT_TABLE,
            nat_out_entry((CLIENT_NET | i << 8, 24), PUBLIC_NET | i << 8),
        );
    }
    install(
        "router",
        router::ROUTES_TABLE,
        router::route_entry((0, 0), EXIT_PORT, 0x0200_0000_0099, 0x0200_0000_0001),
    );
    dep.set_idle_timeout(&mut sw, "nat", NAT_IN_TABLE, Some(IDLE_TICKS))
        .expect("nat_in exists");
    let mut cp = ControlPlane::new();
    cp.register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy());
    System { sw, dep, cp }
}

/// What running one chunk produced.
#[derive(Debug, Default, Clone, Copy)]
struct ChunkResult {
    packets: u64,
    failed: u64,
    evicted: u64,
}

impl System {
    /// Drives one chunk: every packet through `inject_buf` (checked for
    /// disposition and translation), then the learn round, then one tick.
    /// Per-batch packet latencies (µs) go to `lat_us`.
    fn chunk(
        &mut self,
        traffic: &Traffic,
        slots: &[Slot],
        buf: &mut Vec<u8>,
        lat_us: &mut Vec<f64>,
    ) -> ChunkResult {
        let mut r = ChunkResult::default();
        for batch in slots.chunks(BATCH) {
            let t = Instant::now();
            for &slot in batch {
                traffic.write(slot, buf);
                let ok = self
                    .sw
                    .inject_buf(buf, IN_PORT)
                    .is_ok_and(|o| o.disposition == Disposition::Emitted { port: EXIT_PORT })
                    && traffic.translated(slot, buf);
                r.failed += u64::from(!ok);
            }
            lat_us.push(t.elapsed().as_secs_f64() * 1e6 / batch.len() as f64);
        }
        r.packets = slots.len() as u64;
        let new = slots.iter().filter(|s| s.outbound).count();
        match self.cp.process_digests(&mut self.sw, &self.dep) {
            Ok(learned) => r.failed += learned.abs_diff(new) as u64,
            Err(_) => r.failed += new as u64,
        }
        r.evicted = self.sw.advance_time(1).len() as u64;
        r
    }
}

/// Output oracle: the compiled engine (`inject_buf`) and the reference
/// interpreter (full traces) run the same chunks in lockstep, each with
/// its own control plane; every packet's disposition, bytes, loop counts
/// and simulated latency, and every chunk's learn and eviction counts,
/// must agree. Returns the mean simulated latency per emitted packet.
fn oracle(traffic: &Traffic, chunks: usize, out: &mut Outcome) -> f64 {
    let mut fast = build();
    let mut slow = build();
    slow.sw.set_exec_mode(ExecMode::Reference);
    slow.sw.set_trace_level(TraceLevel::Full);
    let mut buf = Vec::with_capacity(256);
    let (mut checked, mut bad, mut emitted, mut sim) = (0u64, 0u64, 0u64, 0.0);
    for c in 0..chunks {
        for slot in traffic.chunk(c) {
            traffic.write(slot, &mut buf);
            let wire = buf.clone();
            let f = fast.sw.inject_buf(&mut buf, IN_PORT);
            let s = slow.sw.inject(InjectedPacket::new(wire, IN_PORT));
            let agree = match (&f, &s) {
                (Ok(f), Ok(s)) => {
                    f.disposition == s.disposition
                        && buf == s.final_bytes
                        && f.recirculations == s.recirculations
                        && f.resubmissions == s.resubmissions
                        && f.latency_ns == s.latency_ns
                        && traffic.translated(slot, &buf)
                }
                _ => false,
            };
            if let Ok(f) = f {
                emitted += 1;
                sim += f.latency_ns;
            }
            checked += 1;
            bad += u64::from(!agree);
        }
        let lf = fast.cp.process_digests(&mut fast.sw, &fast.dep).ok();
        let ls = slow.cp.process_digests(&mut slow.sw, &slow.dep).ok();
        let ef = fast.sw.advance_time(1).len();
        let es = slow.sw.advance_time(1).len();
        checked += 1;
        bad += u64::from(lf.is_none() || lf != ls || ef != es);
    }
    out.count(checked, bad);
    out.note("oracle_packets", Json::UInt(checked));
    out.note("oracle_mismatches", Json::UInt(bad));
    sim / emitted.max(1) as f64
}

/// Runs the workload.
pub fn run(meter: &mut Meter<'_>) {
    let traffic = Traffic::new(meter.cfg.seed);
    let mut sys = meter.setup(|_| build());
    let warm = warm_chunks(meter.cfg.scale);
    let sim_ns = oracle(&traffic, warm, &mut meter.out);
    meter.out.layer("recirc_per_pkt", 0.0);
    meter.out.layer("sim_latency_ns", sim_ns);

    let mut buf = Vec::with_capacity(256);
    let mut next = 0usize;
    for _ in 0..warm {
        let r = sys.chunk(&traffic, &traffic.chunk(next), &mut buf, &mut Vec::new());
        meter.out.count(r.packets, r.failed);
        next += 1;
    }

    if meter.cfg.measure_s > 0.0 {
        let (mut pps, mut lat) = (Series::default(), Series::default());
        let mut lat_all = LogHist::default();
        meter.reopen();
        for _ in 0..meter.reps() {
            let mut lat_rep = Vec::new();
            let (mut packets, mut busy) = (0u64, 0.0f64);
            while busy < meter.cfg.rep_s {
                // The next chunk's slot list is drawn outside the timing.
                let slots = traffic.chunk(next);
                next += 1;
                let t = Instant::now();
                let r = sys.chunk(&traffic, &slots, &mut buf, &mut lat_rep);
                busy += t.elapsed().as_secs_f64();
                meter.tick();
                packets += r.packets;
                // In steady state every sweep evicts one chunk's flows.
                let bad = r.failed + r.evicted.abs_diff(NEW_PER_CHUNK as u64);
                meter.out.count(r.packets, bad);
            }
            let slowness = meter.close_rep();
            pps.push(Kind::Rate, packets as f64 / busy, slowness.mean);
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
    if meter.cfg.trace_s > 0.0 {
        traced(meter, &mut sys, &traffic, next);
    }
    let resident = sys
        .dep
        .nf_location("nat")
        .and_then(|p| sys.sw.tables(p))
        .map_or(0, |t| t.len(&format!("nat__{NAT_IN_TABLE}")));
    meter
        .out
        .note("flows_resident", Json::UInt(resident as u64));
    meter
        .out
        .note("flows_learned", Json::UInt((next * NEW_PER_CHUNK) as u64));
}

/// The traced pass. Per chunk: `learn.chunk ⊃ switch.inject_buf × 1024 +
/// control_plane.process_digests ⊃ tables.install × 256 + tables.sweep`.
/// The installs inside `process_digests` cannot be seen from outside, so
/// the same entries are installed into a clone of the switch taken just
/// before, one span each.
fn traced(meter: &mut Meter<'_>, sys: &mut System, traffic: &Traffic, mut next: usize) {
    let nat_pipelet = sys.dep.nf_location("nat").expect("nat is placed");
    let nat_in = format!("nat__{NAT_IN_TABLE}");
    let rebuilds = |sw: &Switch| -> u64 {
        sw.tables(nat_pipelet)
            .into_iter()
            .flat_map(|t| t.index_telemetry())
            .filter(|(name, _)| *name == nat_in)
            .map(|(_, t)| t.rebuilds)
            .sum()
    };
    let mut buf = Vec::with_capacity(256);
    let mut lat_us = Vec::new();

    // Untraced reference: a few chunks, timed as in the measurement.
    let (mut ref_packets, mut ref_busy) = (0u64, 0.0f64);
    let allocs_before = alloc::snapshot();
    while ref_busy < (meter.cfg.trace_s * 0.2).max(0.02) {
        let slots = traffic.chunk(next);
        next += 1;
        let t = Instant::now();
        let r = sys.chunk(traffic, &slots, &mut buf, &mut lat_us);
        ref_busy += t.elapsed().as_secs_f64();
        ref_packets += r.packets;
        meter.out.count(r.packets, r.failed);
    }
    let allocs_after = alloc::snapshot();
    if !meter.out.per_layer.contains_key("driver.latency_p99_us") {
        let mut tail = LogHist::default();
        tail.extend(&lat_us);
        harness::record_tail(&mut meter.out, &tail);
    }
    let untraced_pps = ref_packets as f64 / ref_busy;

    let mut tracer = Tracer::new();
    let l_chunk = tracer.layer("learn.chunk");
    let l_inject = tracer.layer("asic.switch.inject_buf");
    let l_digests = tracer.layer("core.control_plane.process_digests");
    let l_install = tracer.layer("asic.tables.install");
    let l_sweep = tracer.layer("asic.tables.sweep");
    let chunks_cap = (meter.cfg.trace_ops_cap() / CHUNK).max(2);
    tracer.reserve(chunks_cap * (CHUNK + NEW_PER_CHUNK + 3));

    let dropped_before = sys.sw.digests_dropped(0);
    let rebuilds_before = rebuilds(&sys.sw);
    let (mut chunks, mut packets, mut evicted, mut learned) = (0u64, 0u64, 0u64, 0u64);
    let mut busy = 0.0f64;
    let started = Instant::now();
    while chunks < chunks_cap as u64 && started.elapsed().as_secs_f64() < meter.cfg.trace_s * 0.6 {
        let slots = traffic.chunk(next);
        next += 1;
        let op = chunks as u32;
        // Table state as it is before this chunk's learn round (the
        // chunk's own packets only touch hit stamps): the replay target.
        let mut shadow = sys.sw.clone();
        let chunk_start = Instant::now();
        let mut failed = 0u64;
        // The chunk span is recorded last (it needs its end); children
        // point at the id it will get.
        let chunk_id = (tracer.len() + slots.len() + 2) as u32;
        for &slot in &slots {
            traffic.write(slot, &mut buf);
            let (_, r) = tracer.span(l_inject, chunk_id, op, || {
                sys.sw.inject_buf(&mut buf, IN_PORT)
            });
            let ok = r.is_ok_and(|o| o.disposition == Disposition::Emitted { port: EXIT_PORT })
                && traffic.translated(slot, &buf);
            failed += u64::from(!ok);
        }
        let (digests_id, r) = tracer.span(l_digests, chunk_id, op, || {
            sys.cp.process_digests(&mut sys.sw, &sys.dep)
        });
        learned += r.unwrap_or(0) as u64;
        let (_, ev) = tracer.span(l_sweep, chunk_id, op, || sys.sw.advance_time(1));
        evicted += ev.len() as u64;
        let recorded = tracer.record(l_chunk, ROOT, op, chunk_start, Instant::now());
        debug_assert_eq!(recorded, chunk_id);
        busy += chunk_start.elapsed().as_secs_f64();

        // Replay the installs on the pre-learn clone.
        for slot in slots.iter().filter(|s| s.outbound) {
            let entry = nat_return_entry(
                Traffic::public_ip(slot.flow),
                traffic.port(slot.flow),
                traffic.client_ip(slot.flow),
            );
            let (_, r) = tracer.span(l_install, digests_id, op, || {
                sys.dep.install(&mut shadow, "nat", NAT_IN_TABLE, entry)
            });
            failed += u64::from(r.is_err());
        }
        meter.out.count(slots.len() as u64, failed);
        packets += slots.len() as u64;
        chunks += 1;
    }

    let lt = tracer.layers();
    let get = |name: &str| lt.get(name).copied().unwrap_or_default();
    let out = &mut meter.out;
    out.layer(
        "asic.switch.inject_buf_ns",
        get("asic.switch.inject_buf").mean_ns(),
    );
    out.layer(
        "core.control_plane.process_digests_us",
        get("core.control_plane.process_digests").total_ns / 1e3 / learned.max(1) as f64,
    );
    out.layer(
        "asic.tables.install_us",
        get("asic.tables.install").mean_ns() / 1e3,
    );
    out.layer(
        "asic.tables.sweep_us",
        get("asic.tables.sweep").mean_ns() / 1e3,
    );
    out.layer(
        "asic.tables.evictions",
        evicted as f64 / chunks.max(1) as f64,
    );
    out.layer(
        "asic.index.rebuilds",
        (rebuilds(&sys.sw) - rebuilds_before) as f64 / chunks.max(1) as f64,
    );
    out.layer(
        "core.control_plane.digests_dropped",
        (sys.sw.digests_dropped(0) - dropped_before) as f64,
    );
    out.layer(
        "asic.allocs_per_pkt",
        (allocs_after.0 - allocs_before.0) as f64 / ref_packets as f64,
    );
    out.layer(
        "asic.alloc_bytes_per_pkt",
        (allocs_after.1 - allocs_before.1) as f64 / ref_packets as f64,
    );
    out.layer(
        "driver.trace_overhead_pct",
        100.0 * (1.0 - packets as f64 / busy / untraced_pps),
    );
    // The harness's own share: writing the packet into the buffer.
    let t = Instant::now();
    let slots = traffic.chunk(next);
    for _ in 0..16 {
        for &slot in &slots {
            traffic.write(slot, &mut buf);
            std::hint::black_box(&mut buf);
        }
    }
    let write_s = t.elapsed().as_secs_f64() / (16 * slots.len()) as f64;
    out.layer("driver.generator_share", 100.0 * write_s * untraced_pps);
    let chunk = get("learn.chunk");
    for (key, layer) in [
        ("share_inject_buf_pct", "asic.switch.inject_buf"),
        (
            "share_process_digests_pct",
            "core.control_plane.process_digests",
        ),
        ("share_sweep_pct", "asic.tables.sweep"),
    ] {
        out.note(
            key,
            Json::Float(100.0 * get(layer).total_ns / chunk.total_ns),
        );
    }
    out.note("traced_chunks", Json::UInt(chunks));
    out.note("timer_overhead_ns", Json::Float(tracer.overhead_ns()));
    meter.out.tracer = Some(tracer);
}
