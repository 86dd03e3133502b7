//! §5 prototype validation: input/output packets of every SFC path are
//! verified PTF-style, as the paper does with the Packet Test Framework.
//!
//! Fig. 2's three paths over the Fig. 9-style placement (classifier +
//! firewall on ingress 0, VGW + LB on egress 1, router on ingress 1,
//! pipeline-1 loopback): every chain completes within one recirculation,
//! the SFC header is added by the classifier and stripped at the exit
//! egress, and per-NF rewrites land on the wire.

use dejavu_asic::InjectedPacket;
use dejavu_integration::*;
use dejavu_nf::load_balancer::{five_tuple_of, session_entry_for, SESSION_TABLE};
use dejavu_ptf::{run_suite, TestCase};

const VIP: u32 = 0xc633_6450; // 198.51.100.80
const BACKEND: u32 = 0x0a63_0001; // 10.99.0.1

fn check_decapped(bytes: &[u8]) -> Result<(), String> {
    let ether_type = u16::from_be_bytes([bytes[12], bytes[13]]);
    if ether_type != 0x0800 {
        return Err(format!(
            "ether_type {ether_type:#06x}, sfc header not removed"
        ));
    }
    Ok(())
}

fn check_ttl(bytes: &[u8], expect: u8) -> Result<(), String> {
    let ttl = bytes[22];
    if ttl != expect {
        return Err(format!("ttl {ttl}, expected {expect}"));
    }
    Ok(())
}

fn check_dst_ip(bytes: &[u8], expect: u32) -> Result<(), String> {
    let dst = u32::from_be_bytes([bytes[30], bytes[31], bytes[32], bytes[33]]);
    if dst != expect {
        return Err(format!("dst {dst:#010x}, expected {expect:#010x}"));
    }
    Ok(())
}

#[test]
fn path3_direct_chain() {
    // classifier → router: one recirculation (router lives on ingress 1).
    let (mut switch, _dep) = fig9_testbed();
    let report = run_suite(
        &mut switch,
        vec![
            TestCase::expect_port("path3", IN_PORT, chain_packet(3, VIP, 80), EXIT_PORT)
                .expect_recirculations(1)
                .expect_table_hit("classifier__classify")
                .expect_table_hit("router__routes")
                .check_packet(check_decapped)
                .check_packet(|b| check_ttl(b, 63))
                .check_packet(|b| check_dst_ip(b, VIP)),
        ],
    );
    report.assert_all_passed();
}

/// The full trace of one path-3 packet, written down once: the order in
/// which the walk reports pipelets, tables, the traffic manager, the
/// recirculation and the emit is part of the switch's contract. Table
/// events are compared by name, read through the traversal.
#[test]
fn path3_trace_is_pinned() {
    use dejavu_asic::{PipeletId, TraceEvent as Ev};

    /// A trace event with its table and action names spelled out.
    #[derive(Debug, PartialEq)]
    enum Named<'a> {
        Table(PipeletId, &'a str, bool, &'a str),
        Other(Ev),
    }
    let (ing0, eg1, ing1, eg0) = (
        PipeletId::ingress(0),
        PipeletId::egress(1),
        PipeletId::ingress(1),
        PipeletId::egress(0),
    );
    let (table, ev) = (Named::Table, Named::Other);
    let expected = vec![
        ev(Ev::EnterPipelet(ing0)),
        table(ing0, "classifier__classify", true, "classifier__set_path"),
        table(ing0, "dv_check_sfc_flags_0", false, "dv_flag_none"),
        table(ing0, "dv_check_next_nf_1", false, "dv_skip"),
        table(ing0, "dv_branching", true, "dv_fwd"),
        ev(Ev::TmTransit { from: 0, to: 1 }),
        ev(Ev::EnterPipelet(eg1)),
        table(eg1, "dv_check_next_nf_0", false, "dv_skip"),
        table(eg1, "dv_check_next_nf_1", false, "dv_skip"),
        table(eg1, "dv_decap", false, "dv_no_decap"),
        ev(Ev::Recirculate {
            port: LOOPBACK_PORT_P1,
        }),
        ev(Ev::EnterPipelet(ing1)),
        table(ing1, "dv_check_next_nf_0", true, "dv_proceed"),
        table(ing1, "router__routes", true, "router__route"),
        table(ing1, "dv_check_sfc_flags_0", false, "dv_flag_none"),
        table(ing1, "dv_branching", true, "dv_fwd"),
        ev(Ev::TmTransit { from: 1, to: 0 }),
        ev(Ev::EnterPipelet(eg0)),
        table(eg0, "dv_decap", true, "dv_do_decap"),
        ev(Ev::Emit { port: EXIT_PORT }),
    ];
    let (mut switch, _dep) = fig9_testbed();
    let t = switch
        .inject(InjectedPacket::new(chain_packet(3, VIP, 80), IN_PORT))
        .unwrap();
    let named: Vec<Named> = t
        .events
        .iter()
        .map(|&e| match e {
            Ev::Table { pipelet, event } => {
                let (table, action) = t.table_names(pipelet, event);
                Named::Table(pipelet, table, event.hit, action)
            }
            other => Named::Other(other),
        })
        .collect();
    assert_eq!(named, expected);
    assert_eq!(t.latency_ns, 1295.0);
}

#[test]
fn path2_vgw_chain() {
    // classifier → vgw → router: vgw on egress 1, router on ingress 1.
    let (mut switch, _dep) = fig9_testbed();
    let report = run_suite(
        &mut switch,
        vec![
            TestCase::expect_port("path2", IN_PORT, chain_packet(2, VIP, 80), EXIT_PORT)
                .expect_recirculations(1)
                .expect_table_hit("classifier__classify")
                .expect_table_hit("vgw__vni_map")
                .expect_table_hit("router__routes")
                .check_packet(check_decapped)
                .check_packet(|b| check_ttl(b, 63)),
        ],
    );
    report.assert_all_passed();
}

#[test]
fn path1_full_chain_with_lb_session() {
    // classifier → firewall → vgw → lb → router. Pre-install the LB session
    // for the flow (as the control plane would after the first punt).
    let (mut switch, dep) = fig9_testbed();
    let pkt = chain_packet(1, VIP, 80);
    let tuple = five_tuple_of(&pkt).unwrap();
    dep.install(
        &mut switch,
        "lb",
        SESSION_TABLE,
        session_entry_for(&tuple, BACKEND),
    )
    .unwrap();
    let report = run_suite(
        &mut switch,
        vec![TestCase::expect_port("path1", IN_PORT, pkt, EXIT_PORT)
            .expect_recirculations(1)
            .expect_table_hit("classifier__classify")
            .expect_table_applied("firewall__acl")
            .expect_table_hit("lb__lb_session")
            .expect_table_hit("router__routes")
            .check_packet(check_decapped)
            .check_packet(move |b| check_dst_ip(b, BACKEND))
            .check_packet(|b| check_ttl(b, 63))],
    );
    report.assert_all_passed();
}

#[test]
fn path1_lb_miss_punts_to_cpu() {
    // Without a session entry the LB's default action requests to-CPU; the
    // framework flag check translates it and the switch punts.
    let (mut switch, _dep) = fig9_testbed();
    let report = run_suite(
        &mut switch,
        vec![TestCase::expect_cpu(
            "lb miss",
            IN_PORT,
            chain_packet(1, VIP, 80),
        )],
    );
    report.assert_all_passed();
}

#[test]
fn firewall_deny_drops() {
    // Path 1 traffic to TCP/22 matches the deny rule installed by the
    // fixture: dropped in the ingress pipe via sfc.drop_flag translation.
    let (mut switch, _dep) = fig9_testbed();
    let report = run_suite(
        &mut switch,
        vec![TestCase::expect_drop(
            "fw deny",
            IN_PORT,
            chain_packet(1, VIP, 22),
        )],
    );
    report.assert_all_passed();
}

#[test]
fn unclassified_traffic_punts() {
    // Traffic outside every classifier prefix: the classifier's default
    // punts it to the control plane.
    let (mut switch, _dep) = fig9_testbed();
    let stray = dejavu_traffic::PacketBuilder::tcp()
        .src_ip(0xac10_0001) // 172.16.0.1 — no chain
        .dst_ip(VIP)
        .build();
    let report = run_suite(
        &mut switch,
        vec![TestCase::expect_cpu("unclassified", IN_PORT, stray)],
    );
    report.assert_all_passed();
}

#[test]
fn model_predicts_switch_recirculations() {
    // The placement model's traversal cost must equal the measured
    // recirculation count for every chain (LB sessions installed so path 1
    // completes).
    let (mut switch, dep) = fig9_testbed();
    let pkt1 = chain_packet(1, VIP, 80);
    let tuple = five_tuple_of(&pkt1).unwrap();
    dep.install(
        &mut switch,
        "lb",
        SESSION_TABLE,
        session_entry_for(&tuple, BACKEND),
    )
    .unwrap();
    for chain in &dep.chains.chains {
        let predicted = dejavu_core::placement::traverse(
            chain,
            &dep.placement,
            0, // entry pipeline
            0, // exit pipeline (port 2)
            false,
        )
        .unwrap();
        let pkt = chain_packet(chain.path_id, VIP, 80);
        let t = switch.inject(InjectedPacket::new(pkt, IN_PORT)).unwrap();
        assert_eq!(
            t.recirculations as u32, predicted.recirculations,
            "chain {}: model {} vs switch {}",
            chain.path_id, predicted.recirculations, t.recirculations
        );
        assert_eq!(
            t.resubmissions as u32, predicted.resubmissions,
            "chain {} resubmissions",
            chain.path_id
        );
    }
}

#[test]
fn latency_reflects_recirculation_cost() {
    // One-recirculation paths should cost port-to-port + one recirc loop.
    let (mut switch, _dep) = fig9_testbed();
    let t = switch
        .inject(InjectedPacket::new(chain_packet(3, VIP, 80), IN_PORT))
        .unwrap();
    let timing = dejavu_asic::TimingModel::tofino();
    assert_eq!(t.recirculations, 1);
    assert!((t.latency_ns - timing.path_with_recircs_ns(12, 1)).abs() < 1e-9);
}
