//! The simulated switch profile.
//!
//! [`TofinoProfile`] captures the architectural parameters of the paper's
//! testbed — a Wedge-100B 32X with one Tofino chip: 32 × 100 Gbps Ethernet
//! ports, 2 physical pipelines (4 pipelets), 16 hardwired Ethernet ports per
//! pipeline, and a dedicated 100 Gbps recirculation port per pipeline (§4,
//! §5). Per-stage resource capacities follow the publicly documented Tofino
//! ballpark (12 MAU stages per pipelet; 16 logical tables, 80 SRAM blocks,
//! 24 TCAM blocks per stage, …).

use crate::resources::ResourceVector;

/// Static description of a simulated switch ASIC.
#[derive(Debug, Clone, PartialEq)]
pub struct TofinoProfile {
    /// Number of physical pipelines (each = ingress pipelet + egress
    /// pipelet).
    pub pipelines: usize,
    /// MAU stages per pipelet.
    pub stages_per_pipelet: usize,
    /// Resource capacity of one MAU stage.
    pub stage_capacity: ResourceVector,
    /// Ethernet ports hardwired to each pipeline.
    pub ports_per_pipeline: usize,
    /// Line rate of one Ethernet port, in Gbps.
    pub port_gbps: f64,
    /// Dedicated recirculation bandwidth per pipeline, in Gbps (§4: "each
    /// pipeline provides 100Gbps recirculation bandwidth for free via a
    /// dedicated recirculation port").
    pub dedicated_recirc_gbps: f64,
    /// Maximum parser window in bytes (how deep the parser can look).
    pub parser_window_bytes: u32,
}

impl TofinoProfile {
    /// The paper's testbed: Wedge-100B 32X, 2 pipelines, 32×100G.
    pub fn wedge_100b_32x() -> Self {
        TofinoProfile {
            pipelines: 2,
            stages_per_pipelet: 12,
            stage_capacity: ResourceVector {
                table_ids: 16,
                sram_blocks: 80,
                tcam_blocks: 24,
                crossbar_bytes: 128,
                gateways: 16,
                vliw_slots: 32,
                hash_bits: 416,
            },
            ports_per_pipeline: 16,
            port_gbps: 100.0,
            dedicated_recirc_gbps: 100.0,
            parser_window_bytes: 256,
        }
    }

    /// A deliberately tiny profile for unit tests (2 pipelines, 4 stages).
    pub fn tiny() -> Self {
        TofinoProfile {
            pipelines: 2,
            stages_per_pipelet: 4,
            stage_capacity: ResourceVector {
                table_ids: 4,
                sram_blocks: 8,
                tcam_blocks: 4,
                crossbar_bytes: 32,
                gateways: 4,
                vliw_slots: 8,
                hash_bits: 64,
            },
            ports_per_pipeline: 4,
            port_gbps: 100.0,
            dedicated_recirc_gbps: 100.0,
            parser_window_bytes: 128,
        }
    }

    /// Total Ethernet ports.
    pub fn total_ports(&self) -> usize {
        self.pipelines * self.ports_per_pipeline
    }

    /// Total pipelets (2 per pipeline).
    pub fn total_pipelets(&self) -> usize {
        self.pipelines * 2
    }

    /// Aggregate switching capacity in Gbps over all Ethernet ports.
    pub fn total_capacity_gbps(&self) -> f64 {
        self.total_ports() as f64 * self.port_gbps
    }

    /// Which pipeline a port is hardwired to, or `None` if out of range.
    pub fn pipeline_of_port(&self, port: usize) -> Option<usize> {
        if port < self.total_ports() {
            Some(port / self.ports_per_pipeline)
        } else {
            None
        }
    }

    /// Total per-pipelet resource capacity (stage capacity × stages).
    pub fn pipelet_capacity(&self) -> ResourceVector {
        self.stage_capacity.scaled(self.stages_per_pipelet as u32)
    }

    /// Total resource capacity of one pipeline (ingress + egress pipelet).
    pub fn pipeline_capacity(&self) -> ResourceVector {
        self.pipelet_capacity().scaled(2)
    }

    /// External capacity remaining when `loopback_ports` of the switch's
    /// Ethernet ports are placed in loopback mode (§4: "If m out of n
    /// Ethernet ports are in loopback mode, we can offer (n−m)/n of the ASIC
    /// capacity for external traffic").
    pub fn external_capacity_gbps(&self, loopback_ports: usize) -> f64 {
        let n = self.total_ports();
        assert!(loopback_ports <= n, "more loopback ports than ports");
        (n - loopback_ports) as f64 * self.port_gbps
    }

    /// Fraction of external traffic that can recirculate once given `m`
    /// loopback ports: `min(1, m/(n−m))` (§4).
    pub fn single_recirc_fraction(&self, loopback_ports: usize) -> f64 {
        let n = self.total_ports();
        assert!(loopback_ports <= n);
        if loopback_ports == n {
            return 1.0;
        }
        let m = loopback_ports as f64;
        let ext = (n - loopback_ports) as f64;
        (m / ext).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wedge_profile_shape() {
        let p = TofinoProfile::wedge_100b_32x();
        assert_eq!(p.total_ports(), 32);
        assert_eq!(p.total_pipelets(), 4);
        assert_eq!(p.total_capacity_gbps(), 3200.0);
        assert_eq!(p.pipeline_of_port(0), Some(0));
        assert_eq!(p.pipeline_of_port(15), Some(0));
        assert_eq!(p.pipeline_of_port(16), Some(1));
        assert_eq!(p.pipeline_of_port(31), Some(1));
        assert_eq!(p.pipeline_of_port(32), None);
    }

    #[test]
    fn pipelet_capacity_scales() {
        let p = TofinoProfile::wedge_100b_32x();
        assert_eq!(p.pipelet_capacity().table_ids, 16 * 12);
        assert_eq!(p.pipeline_capacity().sram_blocks, 80 * 12 * 2);
    }

    #[test]
    fn fig9_loopback_configuration() {
        // §5: 16 of 32 ports in loopback → 1.6 Tbps external capacity, and
        // all external traffic can recirculate once.
        let p = TofinoProfile::wedge_100b_32x();
        assert_eq!(p.external_capacity_gbps(16), 1600.0);
        assert_eq!(p.single_recirc_fraction(16), 1.0);
    }

    #[test]
    fn partial_loopback_fraction() {
        let p = TofinoProfile::wedge_100b_32x();
        // 8 loopback, 24 external → min(1, 8/24) = 1/3 can recirculate once.
        assert!((p.single_recirc_fraction(8) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.external_capacity_gbps(8), 2400.0);
    }

    #[test]
    fn all_loopback_edge() {
        let p = TofinoProfile::tiny();
        assert_eq!(p.external_capacity_gbps(p.total_ports()), 0.0);
        assert_eq!(p.single_recirc_fraction(p.total_ports()), 1.0);
    }
}
