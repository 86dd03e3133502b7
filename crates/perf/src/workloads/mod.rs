//! The seven workloads. Each module documents what it runs and why it
//! exists; `run` dispatches by name.

pub mod acl;
pub mod cluster;
pub mod cluster_tcp;
pub mod fwd_min;
pub mod learn_churn;
pub mod migrate_live;
pub mod plan_deploy;
pub mod sfc_edge;
pub mod single;

use crate::harness::Meter;

/// Runs the named workload into `meter`; `false` for an unknown name.
pub fn run(name: &str, meter: &mut Meter<'_>) -> bool {
    match name {
        "fwd_min" => fwd_min::run(meter),
        "acl_4k" => acl::run(meter),
        "sfc_edge" => sfc_edge::run(meter),
        "learn_churn" => learn_churn::run(meter),
        "cluster_tcp" => cluster_tcp::run(meter),
        "migrate_live" => migrate_live::run(meter),
        "plan_deploy" => plan_deploy::run(meter),
        _ => return false,
    }
    true
}
