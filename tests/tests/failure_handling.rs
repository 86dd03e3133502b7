//! §7 "failure handling": link failures on loopback and exit ports, and the
//! control plane's rerouting response.

use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, TraceEvent};
use dejavu_integration::*;
use dejavu_nf::load_balancer::{five_tuple_of, session_entry_for, SESSION_TABLE};

const VIP: u32 = 0xc633_6450;
const BACKEND: u32 = 0x0a63_0001;
const REPLACEMENT_EXIT: u16 = 3;

#[test]
fn loopback_port_failure_blackholes_until_rerouted() {
    let (mut switch, mut dep) = fig9_testbed();
    // Healthy: path 3 flows via pipeline 1's loopback port.
    let t = switch
        .inject(InjectedPacket::new(chain_packet(3, VIP, 80), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    assert!(t
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::Recirculate { port } if *port == LOOPBACK_PORT_P1)));

    // The loopback port's link fails: traffic pointed at it blackholes.
    switch.set_port_down(LOOPBACK_PORT_P1, true);
    let t = switch
        .inject(InjectedPacket::new(chain_packet(3, VIP, 80), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Dropped);
    assert!(t
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::LinkDown { .. })));

    // Control plane reroutes: recirculation falls back to the dedicated
    // recirculation port, chains flow again.
    dep.handle_port_failure(&mut switch, LOOPBACK_PORT_P1, None)
        .unwrap();
    let t = switch
        .inject(InjectedPacket::new(chain_packet(3, VIP, 80), IN_PORT))
        .unwrap();
    assert_eq!(
        t.disposition,
        Disposition::Emitted { port: EXIT_PORT },
        "{}",
        t.describe()
    );
    let recirc_port = dejavu_asic::switch::RECIRC_PORT_BASE + 1;
    assert!(t
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::Recirculate { port } if *port == recirc_port)));
}

#[test]
fn exit_port_failure_moves_chains_to_replacement() {
    let (mut switch, mut dep) = fig9_testbed();
    let pkt = chain_packet(1, VIP, 80);
    let tuple = five_tuple_of(&pkt).unwrap();
    dep.install(
        &mut switch,
        "lb",
        SESSION_TABLE,
        session_entry_for(&tuple, BACKEND),
    )
    .unwrap();

    // Exit port dies; without rerouting, completed chains blackhole.
    switch.set_port_down(EXIT_PORT, true);
    let t = switch
        .inject(InjectedPacket::new(pkt.clone(), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Dropped);

    // Reroute every chain to the replacement uplink (decap entries are
    // re-synthesized for the new port too).
    dep.handle_port_failure(&mut switch, EXIT_PORT, Some(REPLACEMENT_EXIT))
        .unwrap();
    let t = switch.inject(InjectedPacket::new(pkt, IN_PORT)).unwrap();
    assert_eq!(
        t.disposition,
        Disposition::Emitted {
            port: REPLACEMENT_EXIT
        },
        "{}",
        t.describe()
    );
    // Still decapsulated on the new exit.
    let out = &t.final_bytes;
    assert_eq!(u16::from_be_bytes([out[12], out[13]]), 0x0800);
}

#[test]
fn exit_failure_without_replacement_is_refused() {
    let (mut switch, mut dep) = fig9_testbed();
    let err = dep
        .handle_port_failure(&mut switch, EXIT_PORT, None)
        .unwrap_err();
    assert!(matches!(err, dejavu_core::deploy::DeployError::Routing(_)));
    // A refused reroute leaves the switch as it was.
    assert!(!switch.is_port_down(EXIT_PORT));
}

#[test]
fn injecting_on_a_down_port_fails() {
    let (mut switch, _dep) = fig9_testbed();
    switch.set_port_down(IN_PORT, true);
    assert!(switch
        .inject(InjectedPacket::new(chain_packet(3, VIP, 80), IN_PORT))
        .is_err());
    switch.set_port_down(IN_PORT, false);
    assert!(switch
        .inject(InjectedPacket::new(chain_packet(3, VIP, 80), IN_PORT))
        .is_ok());
}

/// A cluster member is a [`deploy`](dejavu_core::deploy::deploy) with
/// segment options; rerouting after a port failure must keep them. Chain
/// a → b → c with a, b on the first switch (b behind pipeline 1's loopback
/// port) and c on the second, reached over `LINK_PORT`.
#[test]
fn loopback_failure_on_a_cluster_segment_keeps_the_segment_routing() {
    use dejavu_asic::{PipeletId, TofinoProfile};
    use dejavu_core::deploy::{deploy, DeployOptions};
    use dejavu_core::routing::{RoutingConfig, SegmentOptions};
    use dejavu_core::{ChainPolicy, ChainSet, Placement};
    const LINK_PORT: u16 = 4;
    let chains = ChainSet::new(vec![ChainPolicy::new(1, "abc", vec!["a", "b", "c"], 1.0)]).unwrap();
    let nfs = [marker_nf("a", 0), marker_nf("b", 1), marker_nf("c", 2)];
    let nf_refs: Vec<_> = nfs.iter().collect();
    let segment = |local: Vec<(PipeletId, Vec<&str>)>, remote: &[&str], last: bool| {
        let options = DeployOptions {
            segment: Some(SegmentOptions {
                remote_ports: remote
                    .iter()
                    .map(|nf| (nf.to_string(), LINK_PORT))
                    .collect(),
                decap_on_exit: last,
            }),
            ..Default::default()
        };
        let config = RoutingConfig {
            loopback_port: [(0, LOOPBACK_PORT_P0), (1, LOOPBACK_PORT_P1)].into(),
            exit_ports: [(1, if last { EXIT_PORT } else { LINK_PORT })].into(),
            honor_out_port: false,
        };
        deploy(
            &nf_refs,
            &chains,
            &Placement::sequential(local),
            &TofinoProfile::wedge_100b_32x(),
            &config,
            &options,
        )
        .unwrap()
    };
    let (mut first, mut dep) = segment(
        vec![
            (PipeletId::ingress(0), vec!["a"]),
            (PipeletId::ingress(1), vec!["b"]),
        ],
        &["c"],
        false,
    );
    let (mut second, _) = segment(vec![(PipeletId::ingress(0), vec!["c"])], &["a", "b"], true);

    dep.handle_port_failure(&mut first, LOOPBACK_PORT_P1, None)
        .expect("re-synthesis must route for the stored segment");

    let t = first
        .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();
    assert_eq!(
        t.disposition,
        Disposition::Emitted { port: LINK_PORT },
        "{}",
        t.describe()
    );
    let recirc_port = dejavu_asic::switch::RECIRC_PORT_BASE + 1;
    assert!(t
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::Recirculate { port } if *port == recirc_port)));
    // Mid-chain: the SFC header rides the link, pointing at c.
    let wire = &t.final_bytes;
    assert_eq!(
        u16::from_be_bytes([wire[12], wire[13]]),
        dejavu_core::sfc::SFC_ETHERTYPE
    );
    let t = second
        .inject(InjectedPacket::new(wire.clone(), IN_PORT))
        .unwrap();
    assert_eq!(
        t.disposition,
        Disposition::Emitted { port: EXIT_PORT },
        "{}",
        t.describe()
    );
    assert_eq!(
        u16::from_be_bytes([t.final_bytes[12], t.final_bytes[13]]),
        0x0800
    );
}
