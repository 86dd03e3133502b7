//! Switch-side telemetry: plain counter fields, named when scraped.
//!
//! [`SwitchMetrics`] is built once per [`crate::Switch`] from the profile:
//! zeroed `Cell<u64>` counters grouped by family (per pipelet, per
//! pipeline, per port) plus one latency [`Histogram`], and no names. Each
//! hook is a `bool` check plus one add on a field. Collection starts
//! *disabled* (hooks short-circuit on the `bool`), which is what keeps the
//! fast path within noise of the pre-telemetry build; `Switch::set_telemetry`
//! flips it on. [`SwitchMetrics::snapshot`] is the one place a series gets
//! its name.
//!
//! Table hit/miss counters are *not* hooked per lookup — [`crate::tables`]
//! already counts them in `Cell`s on every lookup path. The switch folds
//! those into the exported `MetricsSnapshot` at scrape time too
//! (`Switch::metrics_snapshot`), so the hot lookup loop pays nothing extra.

use crate::switch::{Gress, PipeletId, PortId};
use crate::tofino::TofinoProfile;
use dejavu_telemetry::{Histogram, MetricsSnapshot};
use std::cell::Cell;

/// Recirculation depths are tracked exactly up to this bound; deeper
/// packets land in the last bucket (`k="16+"`). Chains in the paper's
/// range (§4 evaluates k ≤ 4) are far below it.
pub const RECIRC_DEPTH_BUCKETS: usize = 16;

/// Adds `n` to a counter, wrapping as a hardware counter does.
#[inline]
fn add(counter: &Cell<u64>, n: u64) {
    counter.set(counter.get().wrapping_add(n));
}

/// Counters of one pipelet.
#[derive(Debug, Clone, Default)]
struct PipeletCounters {
    packets: Cell<u64>,
    drops: Cell<u64>,
    parse_errors: Cell<u64>,
    table_applies: Cell<u64>,
}

/// Counters of one pipeline.
#[derive(Debug, Clone, Default)]
struct PipelineCounters {
    recirculations: Cell<u64>,
    resubmissions: Cell<u64>,
    digests_emitted: Cell<u64>,
    digests_dropped: Cell<u64>,
}

/// Counters of one physical port.
#[derive(Debug, Clone, Default)]
struct PortCounters {
    rx: Cell<u64>,
    tx: Cell<u64>,
}

/// The metric counters of one switch. `Clone` copies the current values:
/// the clone is an independent shard.
#[derive(Debug, Clone)]
pub struct SwitchMetrics {
    enabled: bool,
    /// Indexed `pipeline * 2 + (gress == Egress)`.
    pipelets: Vec<PipeletCounters>,
    /// Indexed by pipeline.
    pipelines: Vec<PipelineCounters>,
    /// Indexed by physical port.
    ports: Vec<PortCounters>,
    /// Packets by final recirculation depth, clamped to the last bucket.
    recirc_depth: [Cell<u64>; RECIRC_DEPTH_BUCKETS + 1],
    injected: Cell<u64>,
    emitted: Cell<u64>,
    dropped: Cell<u64>,
    to_cpu: Cell<u64>,
    mirrored: Cell<u64>,
    rejected: Cell<u64>,
    state_migrations: Cell<u64>,
    state_entries_migrated: Cell<u64>,
    latency_ns: Histogram,
}

impl SwitchMetrics {
    /// Zeroed counters for a switch with this profile; collection starts
    /// disabled.
    pub fn new(profile: &TofinoProfile) -> Self {
        SwitchMetrics {
            enabled: false,
            pipelets: vec![PipeletCounters::default(); profile.pipelines * 2],
            pipelines: vec![PipelineCounters::default(); profile.pipelines],
            ports: vec![PortCounters::default(); profile.total_ports()],
            recirc_depth: Default::default(),
            injected: Cell::new(0),
            emitted: Cell::new(0),
            dropped: Cell::new(0),
            to_cpu: Cell::new(0),
            mirrored: Cell::new(0),
            rejected: Cell::new(0),
            state_migrations: Cell::new(0),
            state_entries_migrated: Cell::new(0),
            latency_ns: Histogram::default(),
        }
    }

    /// Whether collection is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns collection on or off (accumulated values are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn pipelet(&self, pipelet: PipeletId) -> &PipeletCounters {
        &self.pipelets[pipelet.pipeline * 2 + usize::from(pipelet.gress == Gress::Egress)]
    }

    /// A packet arrived: total + per-port rx (physical ports only).
    #[inline]
    pub fn on_rx(&self, port: PortId) {
        if !self.enabled {
            return;
        }
        add(&self.injected, 1);
        if let Some(p) = self.ports.get(usize::from(port)) {
            add(&p.rx, 1);
        }
    }

    /// An injection was rejected before entering the pipeline (bad port,
    /// loopback port, link down, forwarding loop).
    #[inline]
    pub fn on_reject(&self) {
        if self.enabled {
            add(&self.rejected, 1);
        }
    }

    /// A pipelet pass completed, applying `tables_applied` tables.
    #[inline]
    pub fn on_pass(&self, pipelet: PipeletId, tables_applied: u32) {
        if !self.enabled {
            return;
        }
        let p = self.pipelet(pipelet);
        add(&p.packets, 1);
        add(&p.table_applies, u64::from(tables_applied));
    }

    /// A pipelet's parser rejected the packet.
    #[inline]
    pub fn on_parse_error(&self, pipelet: PipeletId) {
        if self.enabled {
            add(&self.pipelet(pipelet).parse_errors, 1);
        }
    }

    /// The packet was dropped by an explicit decision of `pipelet`
    /// (attribution only; the `packets_dropped` total is booked once per
    /// traversal in [`SwitchMetrics::on_complete`]'s caller via
    /// [`SwitchMetrics::on_dropped`]).
    #[inline]
    pub fn on_drop(&self, pipelet: PipeletId) {
        if self.enabled {
            add(&self.pipelet(pipelet).drops, 1);
        }
    }

    /// The packet's final fate was a drop.
    #[inline]
    pub fn on_dropped(&self) {
        if self.enabled {
            add(&self.dropped, 1);
        }
    }

    /// The packet was punted to the CPU port.
    #[inline]
    pub fn on_to_cpu(&self) {
        if self.enabled {
            add(&self.to_cpu, 1);
        }
    }

    /// The packet was resubmitted to pipeline `pipeline`'s ingress.
    #[inline]
    pub fn on_resubmit(&self, pipeline: usize) {
        if self.enabled {
            add(&self.pipelines[pipeline].resubmissions, 1);
        }
    }

    /// The packet recirculated through a port of `pipeline`.
    #[inline]
    pub fn on_recirculate(&self, pipeline: usize) {
        if self.enabled {
            add(&self.pipelines[pipeline].recirculations, 1);
        }
    }

    /// The packet left the switch on `port`.
    #[inline]
    pub fn on_emit(&self, port: PortId) {
        if !self.enabled {
            return;
        }
        add(&self.emitted, 1);
        if let Some(p) = self.ports.get(usize::from(port)) {
            add(&p.tx, 1);
        }
    }

    /// A mirror copy was emitted.
    #[inline]
    pub fn on_mirror(&self) {
        if self.enabled {
            add(&self.mirrored, 1);
        }
    }

    /// A digest was enqueued on `pipeline`'s learn queue.
    #[inline]
    pub fn on_digest(&self, pipeline: usize) {
        if !self.enabled {
            return;
        }
        if let Some(p) = self.pipelines.get(pipeline) {
            add(&p.digests_emitted, 1);
        }
    }

    /// A digest was lost because `pipeline`'s learn queue was full.
    #[inline]
    pub fn on_digest_dropped(&self, pipeline: usize) {
        if !self.enabled {
            return;
        }
        if let Some(p) = self.pipelines.get(pipeline) {
            add(&p.digests_dropped, 1);
        }
    }

    /// A state migration (snapshot restore) completed, carrying
    /// `entries_restored` table entries onto the new program.
    #[inline]
    pub fn on_migration(&self, entries_restored: usize) {
        if !self.enabled {
            return;
        }
        add(&self.state_migrations, 1);
        add(&self.state_entries_migrated, entries_restored as u64);
    }

    /// A traversal finished: model latency and final recirculation depth.
    #[inline]
    pub fn on_complete(&self, latency_ns: f64, recirculations: usize) {
        if !self.enabled {
            return;
        }
        self.latency_ns.observe(latency_ns as u64);
        add(
            &self.recirc_depth[recirculations.min(RECIRC_DEPTH_BUCKETS)],
            1,
        );
    }

    /// Every series by name: the counters as they stand, zeros included,
    /// and the `table_entries_installed` gauge at `table_entries` (the
    /// switch passes its installed total while collection is on, 0 while
    /// off).
    pub fn snapshot(&self, table_entries: usize) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (i, p) in self.pipelets.iter().enumerate() {
            let gress = if i % 2 == 0 {
                Gress::Ingress
            } else {
                Gress::Egress
            };
            let id = PipeletId {
                pipeline: i / 2,
                gress,
            };
            for (metric, c) in [
                ("pipelet_packets", &p.packets),
                ("pipelet_drops", &p.drops),
                ("pipelet_parse_errors", &p.parse_errors),
                ("pipelet_table_applies", &p.table_applies),
            ] {
                snap.set_counter(format!("{metric}{{pipelet=\"{id}\"}}"), c.get());
            }
        }
        for (i, p) in self.pipelines.iter().enumerate() {
            for (metric, c) in [
                ("recirculations", &p.recirculations),
                ("resubmissions", &p.resubmissions),
                ("digests_emitted", &p.digests_emitted),
                ("digests_dropped", &p.digests_dropped),
            ] {
                snap.set_counter(format!("{metric}{{pipeline=\"{i}\"}}"), c.get());
            }
        }
        for (i, p) in self.ports.iter().enumerate() {
            snap.set_counter(format!("port_rx_packets{{port=\"{i}\"}}"), p.rx.get());
            snap.set_counter(format!("port_tx_packets{{port=\"{i}\"}}"), p.tx.get());
        }
        for (k, c) in self.recirc_depth.iter().enumerate() {
            let k = if k < RECIRC_DEPTH_BUCKETS {
                k.to_string()
            } else {
                format!("{RECIRC_DEPTH_BUCKETS}+")
            };
            snap.set_counter(format!("packet_recirc_depth{{k=\"{k}\"}}"), c.get());
        }
        for (name, c) in [
            ("packets_injected", &self.injected),
            ("packets_emitted", &self.emitted),
            ("packets_dropped", &self.dropped),
            ("packets_to_cpu", &self.to_cpu),
            ("packets_mirrored", &self.mirrored),
            ("packets_rejected", &self.rejected),
            ("state_migrations", &self.state_migrations),
            ("state_entries_migrated", &self.state_entries_migrated),
        ] {
            snap.set_counter(name, c.get());
        }
        snap.set_histogram("packet_latency_ns", self.latency_ns.snapshot());
        snap.set_gauge("table_entries_installed", table_entries as i64);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_record_nothing() {
        let m = SwitchMetrics::new(&TofinoProfile::wedge_100b_32x());
        m.on_rx(0);
        m.on_pass(PipeletId::ingress(0), 3);
        m.on_complete(650.0, 2);
        assert!(m.snapshot(0).is_zero());
    }

    #[test]
    fn a_scrape_names_every_series_zeros_included() {
        let s = SwitchMetrics::new(&TofinoProfile::wedge_100b_32x()).snapshot(0);
        // 4 pipelets × 4, 2 pipelines × 4, 32 ports × 2, 17 depths, 8
        // totals, the latency histogram and the entries gauge.
        assert_eq!(s.metrics.len(), 16 + 8 + 64 + 17 + 8 + 2);
    }

    #[test]
    fn enabled_hooks_land_in_the_right_series() {
        let mut m = SwitchMetrics::new(&TofinoProfile::wedge_100b_32x());
        m.set_enabled(true);
        m.on_rx(3);
        m.on_pass(PipeletId::ingress(0), 2);
        m.on_pass(PipeletId::egress(1), 1);
        m.on_recirculate(1);
        m.on_emit(17);
        m.on_complete(725.0, 1);
        let s = m.snapshot(0);
        assert_eq!(s.counter("packets_injected"), 1);
        assert_eq!(s.counter("port_rx_packets{port=\"3\"}"), 1);
        assert_eq!(s.counter("pipelet_packets{pipelet=\"ingress0\"}"), 1);
        assert_eq!(s.counter("pipelet_table_applies{pipelet=\"ingress0\"}"), 2);
        assert_eq!(s.counter("pipelet_packets{pipelet=\"egress1\"}"), 1);
        assert_eq!(s.counter("recirculations{pipeline=\"1\"}"), 1);
        assert_eq!(s.counter("port_tx_packets{port=\"17\"}"), 1);
        assert_eq!(s.counter("packet_recirc_depth{k=\"1\"}"), 1);
        assert_eq!(s.histogram("packet_latency_ns").unwrap().count, 1);
    }

    #[test]
    fn deep_recirculation_clamps_to_overflow_bucket() {
        let mut m = SwitchMetrics::new(&TofinoProfile::tiny());
        m.set_enabled(true);
        m.on_complete(1.0, 99);
        let s = m.snapshot(0);
        assert_eq!(s.counter("packet_recirc_depth{k=\"16+\"}"), 1);
    }
}
