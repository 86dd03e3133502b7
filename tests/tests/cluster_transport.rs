//! Tentpole acceptance for the cluster runtime: a 3-switch spilled chain
//! produces identical flights and telemetry whether its machines are
//! stepped on the caller's thread ([`deploy_cluster`], the reference) or
//! run on threads over [`ChannelTransport`] or [`TcpTransport`] — and a
//! learn storm drains digests concurrently with injection without dropping
//! a single learned flow.

use std::collections::BTreeMap;
use std::time::Duration;

use dejavu_asic::switch::Disposition;
use dejavu_asic::MetricsSnapshot;
use dejavu_asic::{InjectedPacket, PipeletId, TofinoProfile};
use dejavu_core::deploy::DeployOptions;
use dejavu_core::multiswitch::{deploy_cluster, ClusterPlacement, ClusterWiring};
use dejavu_core::placement::Placement;
use dejavu_core::transport::{
    spawn_cluster, ChannelTransport, ClusterHandle, ClusterOptions, TcpTransport, Transport,
    WireTraversal,
};
use dejavu_core::{ChainPolicy, ChainSet, NfModule};
use dejavu_integration::{encapsulated_packet, marker_nf, EXIT_PORT, IN_PORT};
use dejavu_nf::nat::{dynamic_nat, nat_learn_policy, nat_out_entry, NAT_FLOW_STREAM, NAT_IN_TABLE};
use dejavu_nf::{classifier, router};

// ---------------------------------------------------------------------
// 3-switch spilled chain: one chain too large for a single ASIC, three
// NFs per member, exercised identically over every execution path.
// ---------------------------------------------------------------------

fn nine_nf_setup() -> (Vec<NfModule>, ChainSet, ClusterPlacement) {
    let names: Vec<String> = (0..9).map(|i| format!("n{i}")).collect();
    let nfs: Vec<_> = names
        .iter()
        .enumerate()
        .map(|(i, n)| marker_nf(n, i as u32))
        .collect();
    let chains = ChainSet::new(vec![ChainPolicy {
        path_id: 1,
        name: "spilled".into(),
        nfs: names,
        weight: 1.0,
    }])
    .unwrap();
    let placement = ClusterPlacement {
        switches: (0..3)
            .map(|s| {
                let base = s * 3;
                let mut p = Placement::default();
                p.pipelets.insert(
                    PipeletId::ingress(0),
                    vec![format!("n{base}"), format!("n{}", base + 1)],
                );
                p.pipelets
                    .insert(PipeletId::egress(0), vec![format!("n{}", base + 2)]);
                p
            })
            .collect(),
    };
    (nfs, chains, placement)
}

/// The packet mix every path must agree on: full-chain flights, mid-chain
/// entries that skip one or two members, and a duplicate of the first flow.
fn packet_mix() -> Vec<Vec<u8>> {
    vec![
        encapsulated_packet(1, 0),
        encapsulated_packet(1, 3),
        encapsulated_packet(1, 6),
        encapsulated_packet(1, 0),
    ]
}

fn lockstep_cluster() -> ClusterHandle {
    let (nfs, chains, placement) = nine_nf_setup();
    let refs: Vec<_> = nfs.iter().collect();
    let mut net = deploy_cluster(
        &refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        [(1u16, EXIT_PORT)].into_iter().collect(),
        &ClusterWiring::default(),
        &DeployOptions::default(),
    )
    .unwrap();
    for member in 0..net.members() {
        net.switch(member).unwrap().set_telemetry(true);
    }
    net
}

fn transport_cluster(transport: &mut dyn Transport) -> ClusterHandle {
    let (nfs, chains, placement) = nine_nf_setup();
    let refs: Vec<_> = nfs.iter().collect();
    spawn_cluster(
        &refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        [(1u16, EXIT_PORT)].into_iter().collect(),
        &ClusterWiring::default(),
        &DeployOptions::default(),
        transport,
        &ClusterOptions {
            telemetry: true,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Drives the packet mix through a freshly spawned transport cluster and
/// checks every flight and the full telemetry picture against the lockstep
/// reference.
fn assert_transport_equivalent(transport: &mut dyn Transport, expected_kind: &str) {
    let mut net = lockstep_cluster();
    let reference: Vec<WireTraversal> = packet_mix()
        .into_iter()
        .map(|p| net.inject(InjectedPacket::new(p, IN_PORT)).unwrap())
        .collect();
    // The full flight reaches all three members; mid-chain entries skip
    // ahead over the wire. Sanity-check the reference itself first.
    assert_eq!(reference[0].hops.len(), 3);
    assert_eq!(reference[0].inter_switch_hops, 2);
    assert_eq!(
        reference[0].disposition,
        Disposition::Emitted { port: EXIT_PORT }
    );

    let mut handle = transport_cluster(transport);
    assert_eq!(handle.members(), 3);
    assert_eq!(handle.transport_kind(), expected_kind);
    assert_eq!(handle.switch_of("n0"), Some(0));
    assert_eq!(handle.switch_of("n8"), Some(2));

    for (i, packet) in packet_mix().into_iter().enumerate() {
        // Whole flight records: fate, bytes, f64 latency (the worker adds
        // switch and cable latency in the same order on every driver) and
        // the hop-by-hop table story.
        let wire = handle.inject(InjectedPacket::new(packet, IN_PORT)).unwrap();
        assert_eq!(wire, reference[i], "{expected_kind} packet {i}");
    }

    // Telemetry: per-member snapshots and the merged view must be exactly
    // the lockstep picture — every counter, gauge, and histogram bucket.
    let scrape = handle.metrics_snapshot().unwrap();
    // Read straight off the reference's switches: that side never went
    // through the scrape's JSON.
    let lockstep_snaps: Vec<MetricsSnapshot> = (0..3)
        .map(|i| net.switch(i).unwrap().metrics_snapshot())
        .collect();
    assert_eq!(scrape.per_switch.len(), 3);
    for (i, (wire_snap, lock_snap)) in scrape.per_switch.iter().zip(&lockstep_snaps).enumerate() {
        assert_eq!(wire_snap, lock_snap, "switch {i} telemetry diverges");
    }
    let mut merged = MetricsSnapshot::default();
    for s in &lockstep_snaps {
        merged.merge(s);
    }
    assert_eq!(scrape.merged, merged, "merged telemetry diverges");

    handle.shutdown().unwrap();
}

#[test]
fn spilled_chain_is_equivalent_over_channel_transport() {
    let mut transport = ChannelTransport::new();
    assert_transport_equivalent(&mut transport, "channel");
}

#[test]
fn spilled_chain_is_equivalent_over_tcp_transport() {
    let mut transport = TcpTransport::new();
    assert_transport_equivalent(&mut transport, "tcp");
}

/// Regression: a sync `inject` issued while an `inject_async` flight has
/// already been delivered must stash the foreign record once and keep
/// reading the delivery channel — not cycle pop/re-push on the stash until
/// the deadline and report a spurious timeout.
fn sync_inject_interleaves(mut handle: ClusterHandle, let_the_async_flight_land: impl FnOnce()) {
    let async_trace = handle
        .inject_async(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();
    // The async delivery must be queued ahead of the sync packet's record
    // on the channel.
    let_the_async_flight_land();
    let t = handle
        .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    // The async record was stashed for its waiter, not lost.
    let d = handle
        .recv_delivered(Duration::from_secs(5))
        .unwrap()
        .expect("stashed async delivery");
    assert_eq!(d.trace, async_trace);
    assert!(d.result.is_ok());
    handle.shutdown().unwrap();
}

#[test]
fn sync_inject_interleaves_with_async_deliveries() {
    let handle = transport_cluster(&mut ChannelTransport::new());
    sync_inject_interleaves(handle, || std::thread::sleep(Duration::from_millis(200)));
}

/// The same on the reference: its order is fixed — the async flight is
/// older, so it lands first — and nothing has to be waited for.
#[test]
fn sync_inject_interleaves_with_async_deliveries_in_lockstep() {
    sync_inject_interleaves(lockstep_cluster(), || {});
}

// ---------------------------------------------------------------------
// Learn storm: digests drain concurrently with injection.
// ---------------------------------------------------------------------

const SERVER: u32 = 0x0808_0808;
const PUBLIC_IP: u32 = 0xc633_6401;
const CLIENT: u32 = 0x0a01_0101;
const FLOWS: u16 = 32;
const BASE_PORT: u16 = 40000;

fn outbound(src_port: u16) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::tcp()
        .src_ip(CLIENT)
        .dst_ip(SERVER)
        .src_port(src_port)
        .dst_port(80)
        .build()
}

fn inbound(dst_port: u16) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::tcp()
        .src_ip(SERVER)
        .dst_ip(PUBLIC_IP)
        .src_port(80)
        .dst_port(dst_port)
        .build()
}

fn ip_at(bytes: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
}

/// classifier → nat spilled onto switch 0, router on switch 1: outbound
/// traffic is learned on the first member while the flight finishes on the
/// second. A burst of distinct flows is injected without waiting; the
/// controller learns from eagerly pushed digests while packets are still
/// in flight, and the flush barrier afterwards accounts for every flow.
#[test]
fn learn_storm_drains_digests_concurrently_with_injection() {
    let nfs: Vec<NfModule> = vec![classifier::classifier(), dynamic_nat(), router::router()];
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let chains = ChainSet::new(vec![ChainPolicy::new(
        1,
        "nat_path",
        vec!["classifier", "nat", "router"],
        1.0,
    )])
    .unwrap();
    let placement = ClusterPlacement {
        switches: vec![
            Placement::sequential(vec![(PipeletId::ingress(0), vec!["classifier", "nat"])]),
            Placement::sequential(vec![(PipeletId::egress(0), vec!["router"])]),
        ],
    };
    let options = DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    };
    let mut transport = ChannelTransport::new();
    let mut handle = spawn_cluster(
        &refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        [(1u16, EXIT_PORT)].into_iter().collect(),
        &ClusterWiring::default(),
        &options,
        &mut transport,
        &ClusterOptions::default(),
    )
    .unwrap();
    assert_eq!(handle.switch_of("nat"), Some(0));
    assert_eq!(handle.switch_of("router"), Some(1));

    // The learning loop lives on the controller thread, not in a polling
    // facade: register the policy first so no digest is ever unattended.
    handle
        .register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
        .unwrap();

    // Steer both directions onto the chain, arm the NAT, route to exit.
    for prefix in [(0x0a01_0000u32, 16u16), (0x0800_0000, 8)] {
        handle
            .install(
                "classifier",
                classifier::CLASSIFY_TABLE,
                classifier::classify_entry(prefix, (0, 0), 1, 100),
            )
            .unwrap();
    }
    handle
        .install(
            "nat",
            dejavu_nf::nat::NAT_OUT_TABLE,
            nat_out_entry((0x0a01_0000, 16), PUBLIC_IP),
        )
        .unwrap();
    handle
        .install(
            "router",
            router::ROUTES_TABLE,
            router::route_entry((0, 0), EXIT_PORT, 0x0200_0000_0099, 0x0200_0000_0001),
        )
        .unwrap();

    // The storm: fire every flow without waiting for any delivery. Workers
    // push each flow's digest upstream eagerly, so the controller is
    // installing return-path entries while later packets are still flying.
    let mut traces = std::collections::BTreeSet::new();
    for f in 0..FLOWS {
        traces.insert(
            handle
                .inject_async(InjectedPacket::new(outbound(BASE_PORT + f), IN_PORT))
                .unwrap(),
        );
    }
    for _ in 0..FLOWS {
        let d = handle
            .recv_delivered(Duration::from_secs(30))
            .unwrap()
            .expect("storm delivery");
        assert!(traces.remove(&d.trace), "unknown trace {}", d.trace);
        let t = d.result.expect("storm flight");
        assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
        assert_eq!(ip_at(&t.final_bytes, 26), PUBLIC_IP, "source not rewritten");
        assert_eq!(t.hops.len(), 2, "flight spans both members");
    }
    assert!(traces.is_empty(), "undelivered flows: {traces:?}");

    // Flush barrier: the report accounts for every digest the storm
    // produced — learned concurrently, none dropped.
    let report = handle.process_digests().unwrap();
    assert_eq!(report.digests_seen, FLOWS as usize);
    assert_eq!(report.entries_installed, FLOWS as usize);
    assert_eq!(report.per_switch[0].digests, FLOWS as usize);
    assert_eq!(report.per_switch[0].installed, FLOWS as usize);
    assert_eq!(report.per_switch[1].digests, 0);

    // Every learned flow answers: return traffic for all 32 flows is
    // translated in the data plane — no flow was lost in the storm.
    for f in 0..FLOWS {
        let t = handle
            .inject(InjectedPacket::new(inbound(BASE_PORT + f), IN_PORT))
            .unwrap();
        assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
        assert_eq!(
            ip_at(&t.final_bytes, 30),
            CLIENT,
            "flow {f} lost in the storm"
        );
    }

    // A second flush sees a quiet cluster (duplicates notwithstanding:
    // return traffic emits no digests).
    let report = handle.process_digests().unwrap();
    assert_eq!(report.entries_installed, 0);

    // The learned state is real switch state: aging it out works through
    // the same handle.
    handle
        .set_idle_timeout("nat", NAT_IN_TABLE, Some(5))
        .unwrap();
    let report = handle.advance_time(10).unwrap();
    assert_eq!(report.per_switch[0].evictions, FLOWS as usize);

    handle.shutdown().unwrap();
    assert!(matches!(
        handle.inject(InjectedPacket::new(outbound(BASE_PORT), IN_PORT)),
        Err(dejavu_core::transport::ClusterError::Closed)
    ));
}

// ---------------------------------------------------------------------
// Oversized state frames: refused where they are sent, answered at once,
// and the links they would have crossed stay up.
// ---------------------------------------------------------------------

#[test]
fn oversized_state_frames_are_refused_at_the_sender() {
    use dejavu_asic::state::RegisterSnapshot;
    use dejavu_asic::StateSnapshot;
    use dejavu_core::transport::wire::MAX_PAYLOAD;
    use dejavu_core::transport::{ClusterError, TransportError, WireError};
    use dejavu_p4ir::table::RegisterDef;
    use std::time::Instant;

    // 1.2 M cells × 16 bytes is past the 16 MiB frame ceiling.
    const CELLS: u32 = 1_200_000;
    assert!(CELLS as usize * 16 > MAX_PAYLOAD);

    // Member 2's first NF declares a register that big (no action touches
    // it, so it costs the allocator nothing).
    let (mut nfs, chains, placement) = nine_nf_setup();
    let mut hoarder = nfs[6].program().clone();
    hoarder.registers.insert(
        "hoard".into(),
        RegisterDef {
            name: "hoard".into(),
            width_bits: 128,
            size: CELLS,
        },
    );
    nfs[6] = NfModule::new(hoarder).unwrap();
    let refs: Vec<_> = nfs.iter().collect();
    let mut transport = ChannelTransport::new();
    let options = ClusterOptions::default();
    let mut handle = spawn_cluster(
        &refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        [(1u16, EXIT_PORT)].into_iter().collect(),
        &ClusterWiring::default(),
        &DeployOptions::default(),
        &mut transport,
        &options,
    )
    .unwrap();
    let prompt = options.op_timeout / 4;

    // Controller → worker: the restore is refused before a byte is written.
    let mut huge = StateSnapshot::empty("pipelet");
    huge.registers.push(RegisterSnapshot {
        name: "n6__hoard".into(),
        cells: vec![u128::MAX; CELLS as usize],
    });
    let asked = Instant::now();
    let err = handle
        .restore_state(2, PipeletId::ingress(0), &huge)
        .unwrap_err();
    assert!(
        matches!(
            err,
            ClusterError::Transport(TransportError::Wire(WireError::Overlength {
                max: MAX_PAYLOAD,
                ..
            }))
        ),
        "got {err}"
    );
    assert!(asked.elapsed() < prompt, "restore waited out the timeout");

    // Worker → controller: restoring one cell materialises the whole array
    // on member 2, whose checkpoint then cannot be framed. It nacks with the
    // size, and the verb fails instead of returning the other members'
    // state as if it were everything.
    huge.registers[0].cells.truncate(1);
    handle
        .restore_state(2, PipeletId::ingress(0), &huge)
        .unwrap();
    let asked = Instant::now();
    let err = handle.snapshot_state().unwrap_err();
    assert!(
        matches!(&err, ClusterError::Remote(m) if m.contains("switch 2") && m.contains("exceeds")),
        "got {err}"
    );
    assert!(asked.elapsed() < prompt, "snapshot waited out the timeout");

    // Nothing was torn down: control round trips and packets still work.
    handle.process_digests().unwrap();
    let t = handle
        .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    handle.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Wiring validation (satellite: typed construction errors).
// ---------------------------------------------------------------------

#[test]
fn spawn_rejects_invalid_wiring_with_typed_errors() {
    use dejavu_core::multiswitch::ClusterConfigError;
    use dejavu_core::transport::ClusterError;

    let (nfs, chains, placement) = nine_nf_setup();
    let refs: Vec<_> = nfs.iter().collect();
    let mut transport = ChannelTransport::new();

    // Exit port colliding with the inter-switch link is caught before any
    // worker spawns.
    let exit_on_link: BTreeMap<u16, u16> = [(1u16, ClusterWiring::default().egress_link_port)]
        .into_iter()
        .collect();
    let err = spawn_cluster(
        &refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        exit_on_link,
        &ClusterWiring::default(),
        &DeployOptions::default(),
        &mut transport,
        &ClusterOptions::default(),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            ClusterError::Deploy(dejavu_core::deploy::DeployError::ClusterConfig(
                ClusterConfigError::ExitPortCollision { .. }
            ))
        ),
        "got {err}"
    );

    // Both link ports on the same number is rejected at wiring build time.
    assert!(matches!(
        ClusterWiring::new(14, 14, 5.0),
        Err(ClusterConfigError::LinkPortCollision { port: 14 })
    ));
    assert!(matches!(
        ClusterWiring::new(14, 13, f64::NAN),
        Err(ClusterConfigError::BadCableLatency(_))
    ));
}
