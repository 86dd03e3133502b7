//! Table-1-style resource reports.
//!
//! The paper's Table 1 reports Dejavu's framework overhead as percentages of
//! the pipeline totals across seven resource classes: Stages, Table IDs,
//! Gateways, Crossbars, VLIWs, SRAM, TCAM. [`ResourceReport`] renders the
//! same row for any allocation.

use dejavu_asic::{ResourceVector, TofinoProfile};
use std::fmt;

/// Percent-of-pipeline usage across the paper's Table 1 columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceReport {
    /// Percent of MAU stages occupied (a stage counts when the allocation
    /// claims any dedicated slot in it).
    pub stages_pct: f64,
    /// Percent of logical table IDs.
    pub table_ids_pct: f64,
    /// Percent of gateways.
    pub gateways_pct: f64,
    /// Percent of crossbar bytes.
    pub crossbars_pct: f64,
    /// Percent of VLIW slots.
    pub vliws_pct: f64,
    /// Percent of SRAM blocks.
    pub sram_pct: f64,
    /// Percent of TCAM blocks.
    pub tcam_pct: f64,
}

impl ResourceReport {
    /// Builds a report from a raw stage span + usage vector.
    pub fn from_usage(stage_span: usize, used: ResourceVector, profile: &TofinoProfile) -> Self {
        let total_stages = profile.stages_per_pipelet * 2; // per pipeline
        let totals = profile.pipeline_capacity();
        let f = used.fraction_of(&totals);
        ResourceReport {
            stages_pct: 100.0 * stage_span as f64 / total_stages as f64,
            table_ids_pct: 100.0 * f.table_ids,
            gateways_pct: 100.0 * f.gateways,
            crossbars_pct: 100.0 * f.crossbar_bytes,
            vliws_pct: 100.0 * f.vliw_slots,
            sram_pct: 100.0 * f.sram_blocks,
            tcam_pct: 100.0 * f.tcam_blocks,
        }
    }

    /// Renders the paper's Table 1 header.
    pub fn header() -> &'static str {
        "Stages  TableIDs  Gateways  Crossbars  VLIWs   SRAM    TCAM"
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:5.1}%  {:7.1}%  {:7.1}%  {:8.1}%  {:5.1}%  {:5.1}%  {:5.1}%",
            self.stages_pct,
            self.table_ids_pct,
            self.gateways_pct,
            self.crossbars_pct,
            self.vliws_pct,
            self.sram_pct,
            self.tcam_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_usage_percentages() {
        let profile = TofinoProfile::wedge_100b_32x();
        // 5 of 24 stages ≈ 20.8% — the paper's headline number.
        let used = ResourceVector {
            table_ids: 16, // of 384 → 4.2%
            gateways: 8,   // of 384 → 2.08%
            ..ResourceVector::ZERO
        };
        let r = ResourceReport::from_usage(5, used, &profile);
        assert!((r.stages_pct - 20.8).abs() < 0.1, "stages {}", r.stages_pct);
        assert!(
            (r.table_ids_pct - 4.2).abs() < 0.1,
            "ids {}",
            r.table_ids_pct
        );
        assert!((r.gateways_pct - 2.1).abs() < 0.1, "gw {}", r.gateways_pct);
        assert_eq!(r.tcam_pct, 0.0);
    }

    #[test]
    fn display_formats() {
        let profile = TofinoProfile::wedge_100b_32x();
        let r = ResourceReport::from_usage(5, ResourceVector::ZERO, &profile);
        let s = r.to_string();
        assert!(s.contains('%'));
        assert!(ResourceReport::header().contains("SRAM"));
    }
}
