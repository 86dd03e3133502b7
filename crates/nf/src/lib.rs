//! # dejavu-nf — the network function library
//!
//! The five NFs of the paper's production edge-cloud example (Fig. 2),
//! written against Dejavu's one-argument control-block API
//! (`dejavu_core::NfModule`), plus extension NFs used by the ablation
//! studies:
//!
//! | NF | Module | Paper role |
//! |---|---|---|
//! | Traffic classifier | [`classifier`] | assigns a service path, inserts the SFC header (framework-supplied) |
//! | Packet-filtering firewall | [`firewall`] | 5-tuple ACL, drops via `sfc.drop_flag`; conntrack mode learns established connections via digests |
//! | Virtualization gateway | [`vgw`] | tenant/VNI mapping into SFC context |
//! | L4 load balancer | [`load_balancer`] | Fig. 4 verbatim: CRC32 5-tuple hash, session table, to-CPU on miss; affinity mode pins sessions via digests instead of punting |
//! | IP router | [`router`] | LPM routes, MAC rewrite, TTL, sets `sfc.out_port` |
//! | Source NAT | [`nat`] | extension: dynamic flow-learning NAT (digest → learned return path), static 1:1 fallback |
//! | Mirror tap | [`mirror_tap`] | extension: sets `sfc.mirror_flag` on matched flows |
//! | Rate limiter | [`rate_limiter`] | extension: stateful per-class packet budgets (registers) |
//! | SYN guard | [`syn_guard`] | extension: stateful SYN-flood shield (register sketch) |
//! | VXLAN gateway | [`vxlan_gateway`] | extension: real tunnel decap (two-instance parser) |
//!
//! Every constructor returns a validated [`dejavu_core::NfModule`];
//! entry-builder helpers produce the control-plane table entries each NF
//! understands.
//!
//! One deviation from the paper's prose, recorded in DESIGN.md: the paper
//! says the SFC header "is added by the Classifier module and removed by
//! the Router module". Our Router (like the real one) decides the output
//! port, but the physical removal happens in the framework's `dv_decap`
//! stage on the exit egress pipe — removal in the ingress pipe would blind
//! the branching table that still needs `sfc.path_id`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod firewall;
pub mod load_balancer;
pub mod mirror_tap;
pub mod nat;
pub mod null;
pub mod rate_limiter;
pub mod router;
pub mod syn_guard;
pub mod vgw;
pub mod vxlan_gateway;

pub use null::null_nf;

/// Builds the paper's full Fig. 2 NF suite, keyed by the chain-set names
/// used in `ChainSet::edge_cloud_example()`.
pub fn edge_cloud_suite() -> Vec<dejavu_core::NfModule> {
    vec![
        classifier::classifier(),
        firewall::firewall(),
        vgw::vgw(),
        load_balancer::load_balancer(),
        router::router(),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn suite_matches_edge_cloud_chain_names() {
        let suite = super::edge_cloud_suite();
        let names: Vec<&str> = suite.iter().map(|nf| nf.name()).collect();
        assert_eq!(names, vec!["classifier", "firewall", "vgw", "lb", "router"]);
        let chain_names = dejavu_core::ChainSet::edge_cloud_example().all_nfs();
        assert_eq!(names, chain_names);
    }

    /// Runs `nf` alone on ingress 0 of a compiled-engine switch, after `setup`
    /// installed what the packet needs, and maps the one digest `packet` makes
    /// it emit through `policy`: the learn loop without a deployment.
    pub(crate) fn learned_entry(
        nf: &dejavu_core::NfModule,
        policy: &dejavu_core::control_plane::LearnPolicy,
        setup: impl FnOnce(&mut dejavu_asic::Switch, dejavu_asic::PipeletId),
        packet: Vec<u8>,
    ) -> dejavu_p4ir::table::TableEntry {
        use dejavu_asic::{ExecMode, InjectedPacket, PipeletId, Switch, TofinoProfile};
        let pipelet = PipeletId::ingress(0);
        let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
        assert_eq!(sw.exec_mode(), ExecMode::Compiled);
        sw.load_program(pipelet, nf.program().clone()).unwrap();
        setup(&mut sw, pipelet);
        sw.inject(InjectedPacket::new(packet, 0)).unwrap();
        let digests = sw.drain_digests();
        assert_eq!(digests.len(), 1, "{digests:?}");
        policy
            .entry(&digests[0].1.values)
            .expect("digest fits the policy")
    }
}
