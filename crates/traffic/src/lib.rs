//! # dejavu-traffic — workload generation
//!
//! Packet builders and flow/workload generators driving the experiments:
//! the simulator's equivalent of the Tofino internal packet generator plus
//! the multi-tenant traffic mixes the paper's Fig. 2 scenario implies.
//!
//! Everything is deterministic given a seed — experiment outputs must be
//! regenerable bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acl;
pub mod flows;
pub mod packet;
pub mod replay;

pub use acl::{acl_ruleset, matching_flow, AclRule};
pub use flows::{FlowGen, FlowSpec, WorkloadMix};
pub use packet::PacketBuilder;
pub use replay::{replay, replay_flows};
