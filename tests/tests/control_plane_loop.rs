//! The §3.1 control-plane loop, end to end: the load balancer's first
//! packet of a flow misses `lb_session`, is punted to the CPU, the control
//! plane learns the session from the punted bytes, installs it through the
//! per-NF API translation layer, reinjects — and the packet (plus all
//! subsequent packets of the flow) completes the chain in the data plane.

use dejavu_asic::switch::Disposition;
use dejavu_core::control_plane::{ControlPlane, PuntResponse};
use dejavu_core::sfc::SFC_ETHERTYPE;
use dejavu_integration::*;
use dejavu_nf::load_balancer::{five_tuple_of, session_entry_for, SESSION_TABLE};

const VIP: u32 = 0xc633_6450;
const BACKEND: u32 = 0x0a63_0001;

#[test]
fn lb_punt_install_reinject_cycle() {
    let (mut switch, dep) = fig9_testbed();
    let mut cp = ControlPlane::new();

    // LB handler: learn the session from the punted packet (which is
    // SFC-encapsulated mid-chain), install via the NF's own table name.
    cp.register_handler(
        "lb",
        Box::new(|bytes| {
            let ether_type = u16::from_be_bytes([bytes[12], bytes[13]]);
            if ether_type != SFC_ETHERTYPE {
                return PuntResponse::default(); // not ours
            }
            let Some(tuple) = five_tuple_of(bytes) else {
                return PuntResponse::default();
            };
            // Only claim packets addressed to our VIP.
            if tuple.dst_addr != VIP {
                return PuntResponse::default();
            }
            PuntResponse {
                install: vec![(
                    "lb".into(),
                    SESSION_TABLE.into(),
                    session_entry_for(&tuple, BACKEND),
                )],
                reinject: true,
                // Rewind past the advance so the LB re-executes and the new
                // session rewrites the packet.
                reinject_bytes: dejavu_core::control_plane::rewind_and_clear(bytes),
            }
        }),
    );

    // First packet: punted at the LB.
    let pkt = chain_packet(1, VIP, 80);
    let t = cp
        .inject_tracking_punts(&mut switch, pkt.clone(), IN_PORT)
        .unwrap();
    assert_eq!(t.disposition, Disposition::ToCpu);
    assert_eq!(cp.pending_punts(), 1);

    // Control plane round: installs the session and reinjects.
    let reinjected = cp.process_punts(&mut switch, &dep).unwrap();
    assert_eq!(reinjected.len(), 1);
    assert_eq!(
        reinjected[0].disposition,
        Disposition::Emitted { port: EXIT_PORT }
    );
    assert_eq!(cp.pending_punts(), 0);
    assert_eq!(cp.stats.installs, 1);
    assert_eq!(cp.stats.reinjections, 1);

    // The reinjected packet reached the backend, decapsulated.
    let out = &reinjected[0].final_bytes;
    assert_eq!(u16::from_be_bytes([out[12], out[13]]), 0x0800);
    assert_eq!(
        u32::from_be_bytes([out[30], out[31], out[32], out[33]]),
        BACKEND
    );

    // Subsequent packets of the flow stay in the data plane.
    let t = cp.inject_tracking_punts(&mut switch, pkt, IN_PORT).unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    assert_eq!(cp.pending_punts(), 0);
}

#[test]
fn unrelated_punts_are_not_claimed() {
    let (mut switch, dep) = fig9_testbed();
    let mut cp = ControlPlane::new();
    cp.register_handler("lb", Box::new(|_| PuntResponse::default()));

    // Unclassified traffic punts at the classifier; the LB handler ignores
    // it, so nothing is installed or reinjected.
    let stray = dejavu_traffic::PacketBuilder::tcp()
        .src_ip(0xac10_0001)
        .dst_ip(VIP)
        .build();
    let t = cp
        .inject_tracking_punts(&mut switch, stray, IN_PORT)
        .unwrap();
    assert_eq!(t.disposition, Disposition::ToCpu);
    let reinjected = cp.process_punts(&mut switch, &dep).unwrap();
    assert!(reinjected.is_empty());
    assert_eq!(cp.stats.installs, 0);
}

#[test]
fn a_failed_punt_stays_queued_and_the_rest_are_served() {
    let (mut switch, dep) = fig9_testbed();
    let mut cp = ControlPlane::new();
    // Port 81's session goes into a table the LB does not have; port 80's
    // into the real one.
    cp.register_handler(
        "lb",
        Box::new(|bytes| match five_tuple_of(bytes) {
            Some(tuple) if tuple.dst_addr == VIP => {
                let table = if tuple.dst_port == 81 {
                    "no_such_table"
                } else {
                    SESSION_TABLE
                };
                PuntResponse {
                    install: vec![(
                        "lb".into(),
                        table.into(),
                        session_entry_for(&tuple, BACKEND),
                    )],
                    reinject: true,
                    reinject_bytes: dejavu_core::control_plane::rewind_and_clear(bytes),
                }
            }
            _ => PuntResponse::default(),
        }),
    );
    // The failing punt is queued first.
    for port in [81, 80] {
        let t = cp
            .inject_tracking_punts(&mut switch, chain_packet(1, VIP, port), IN_PORT)
            .unwrap();
        assert_eq!(t.disposition, Disposition::ToCpu);
    }
    assert_eq!(cp.pending_punts(), 2);

    assert!(cp.process_punts(&mut switch, &dep).is_err());
    assert_eq!(cp.stats.reinjections, 1, "the good punt was still served");
    assert_eq!(cp.pending_punts(), 1, "the failed punt is kept");
    let t = cp
        .inject_tracking_punts(&mut switch, chain_packet(1, VIP, 80), IN_PORT)
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
}
