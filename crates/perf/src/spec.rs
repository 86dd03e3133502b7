//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` at the repo root states the same lists for
//! the driver; a test keeps the two equal.

/// One workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line: which layer it stresses and which it bypasses.
    pub why: &'static str,
    /// True when `BENCHMARK.json` lists it: the driver runs it and holds
    /// its end-to-end metrics to their bounds. The one workload that is not
    /// (`cluster_tcp`) still runs, checked and recorded, in `run.sh`'s own
    /// full run — its timings on a shared host measure the host (README,
    /// "why `cluster_tcp` is not gated").
    pub gated: bool,
    /// How much harder than the calibration kernel a heavily contended
    /// host hits this workload: the exponent of
    /// `host::contention_factor`, fitted on forty runs per workload
    /// (README, "beyond the kernel's reach"). 0 for code that lives in L1
    /// like the kernel does.
    pub host_sensitivity: f64,
}

/// A metric's name, unit and better direction.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as printed and as keyed in every JSON record.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True when a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: 0.0,
    }
}

/// The seven workloads, in the order a full run executes them.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "fwd_min",
        why: "bare forwarding of 60-byte frames through one pipelet and a 100-entry exact table: the per-packet floor; the index idles",
        gated: true,
        host_sensitivity: 0.0,
    },
    Workload {
        name: "acl_4k",
        why: "same pipelet, 4000 two-field ternary rules on the decision tree: classification dominates; the inverse split of fwd_min",
        gated: true,
        host_sensitivity: 0.9,
    },
    Workload {
        name: "sfc_edge",
        why: "the paper's five-NF prototype, ~4 passes and one recirculation per packet over small tables: pass execution and the TM loop dominate",
        gated: true,
        host_sensitivity: 0.7,
    },
    Workload {
        name: "learn_churn",
        why: "dynamic NAT with 25% never-seen flows per chunk: the table layers used for writes (digest, install, aging sweep), not lookups",
        gated: true,
        host_sensitivity: 0.7,
    },
    Workload {
        name: "cluster_tcp",
        why: "nine NFs on three worker threads over loopback TCP: per-frame cost of wire format, sockets and controller; switch work is a small share",
        gated: false,
        host_sensitivity: 0.7,
    },
    Workload {
        name: "migrate_live",
        why: "live re-placement of a learned NAT on the channel transport: downtime and goodput of the control loop; sockets are bypassed",
        gated: true,
        host_sensitivity: 0.7,
    },
    Workload {
        name: "plan_deploy",
        why: "no packets: fleet annealing search plus solve-and-deploy of the Fig. 2 chains; bypasses the packet path entirely",
        gated: true,
        host_sensitivity: 0.35,
    },
];

/// End-to-end metrics. Every workload reports every one of them (the
/// driver requires it), so each is defined per workload — see the README's
/// table. Host time, normalised to the reference host, except
/// `peak_rss_mb`.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("pps", "1/s", false, 0.25),
    e2e("latency_p50_us", "us", true, 0.25),
    e2e("peak_rss_mb", "MiB", true, 0.15),
];

/// Per-layer metrics (no bound). A workload reports the ones on its path;
/// in the driver's `--trace 1` record the others read 0.
pub const PER_LAYER: [Metric; 63] = [
    // --- figures the issue lists end to end, kept unbounded here because
    // they exist on one or two workloads only (see README) ---
    layer("rtc_pps", "1/s", false),
    layer("migration_downtime_ms", "ms", true),
    layer("replan_ms", "ms", true),
    layer("deploy_ms", "ms", true),
    layer("fleet_objective", "cost", true),
    layer("recirc_per_pkt", "count", true),
    layer("sim_latency_ns", "sim_ns", true),
    // --- asic ---
    layer("asic.switch.inject_buf_ns", "ns", true),
    layer("asic.switch.self_ns", "ns", true),
    layer("asic.switch.passes_per_pkt", "count", true),
    layer("asic.switch.resub_per_pkt", "count", true),
    layer("asic.compiled.run_pass_ns", "ns", true),
    layer("asic.compiled.self_ns", "ns", true),
    layer("asic.compiled.compile_ms", "ms", true),
    layer("asic.tables.lookup_ns", "ns", true),
    layer("asic.index.probes_per_lookup", "count", true),
    layer("asic.index.kind", "ordinal", true),
    layer("asic.tables.install_us", "us", true),
    layer("asic.index.rebuilds", "count", true),
    layer("asic.tables.sweep_us", "us", true),
    layer("asic.tables.evictions", "count", true),
    layer("asic.pool.acquire_copy_ns", "ns", true),
    layer("asic.rtc.run_ns_per_pkt", "ns", true),
    layer("asic.rtc.self_ns", "ns", true),
    layer("asic.rtc.pool_exhausted", "count", true),
    layer("asic.allocs_per_pkt", "count", true),
    layer("asic.alloc_bytes_per_pkt", "B", true),
    // --- telemetry ---
    layer("telemetry.on_cost_pct", "%", true),
    layer("telemetry.snapshot_us", "us", true),
    // --- core: control plane and planner ---
    layer("core.control_plane.process_digests_us", "us", true),
    layer("core.control_plane.digests_dropped", "count", true),
    layer("core.merge.merge_programs_ms", "ms", true),
    layer("core.compose.compose_pipelet_ms", "ms", true),
    layer("compiler.alloc.compile_ms", "ms", true),
    layer("core.routing.synthesize_ms", "ms", true),
    layer("core.placement.exhaustive_ms", "ms", true),
    layer("core.deploy.deploy_ms", "ms", true),
    layer("core.orchestrator.search_ms", "ms", true),
    layer("core.orchestrator.search_evaluated", "count", true),
    layer("core.orchestrator.score_us", "us", true),
    // --- core: cluster runtime ---
    layer("core.wire.encode_ns", "ns", true),
    layer("core.wire.decode_ns", "ns", true),
    layer("core.wire.frame_bytes", "B", true),
    layer("core.transport.tcp.hop_us", "us", true),
    layer("core.transport.channel.hop_us", "us", true),
    layer("core.multiswitch.inject_us", "us", true),
    layer("core.cluster.runtime_us", "us", true),
    layer("core.cluster.control_rtt_us", "us", true),
    layer("core.cluster.pause_resume_ms", "ms", true),
    layer("core.cluster.snapshot_state_ms", "ms", true),
    layer("core.cluster.restore_state_ms", "ms", true),
    layer("core.orchestrator.migrate_build_ms", "ms", true),
    layer("core.orchestrator.flows_migrated", "count", false),
    layer("core.orchestrator.parked_packets", "count", true),
    layer("core.orchestrator.quiesced_packets", "count", true),
    // --- state ---
    layer("state.snapshot_ms", "ms", true),
    layer("state.restore_ms", "ms", true),
    layer("state.json_roundtrip_ms", "ms", true),
    // --- the harness itself: these qualify the other numbers ---
    layer("driver.host_slowness", "ratio", true),
    layer("driver.generator_share", "%", true),
    layer("driver.trace_overhead_pct", "%", true),
    layer("driver.latency_p99_us", "us", true),
    layer("driver.latency_tail_us", "us", true),
];

/// True when `name` obeys the driver's naming rule: starts with a letter
/// or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` obeys the driver's unit rule: 1–16 of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}
