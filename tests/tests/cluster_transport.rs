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
use dejavu_core::orchestrator::{migrate, FleetSpec, MigrationError, MigrationOutcome};
use dejavu_core::placement::Placement;
use dejavu_core::transport::wire::{self, Message, TelemetryMsg};
use dejavu_core::transport::{
    spawn_cluster, ChannelTransport, ClusterError, ClusterHandle, ClusterOptions, Endpoint, Link,
    PeerAddr, TcpTransport, Transport, TransportError, WireTraversal,
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

/// The NAT fleet: its NFs, its one chain, the placement [`nat_cluster`]
/// boots (classifier → nat on switch 0, router on switch 1) and its deploy
/// options.
fn nat_fleet() -> (Vec<NfModule>, ChainSet, ClusterPlacement, DeployOptions) {
    let nfs: Vec<NfModule> = vec![classifier::classifier(), dynamic_nat(), router::router()];
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
    let deploy = DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    };
    (nfs, chains, placement, deploy)
}

/// classifier → nat spilled onto switch 0, router on switch 1, over
/// `transport`: outbound traffic is learned on the first member while the
/// flight finishes on the second. The static rules are installed; the
/// learn policy is the caller's to register.
fn nat_cluster(transport: &mut dyn Transport, options: &ClusterOptions) -> ClusterHandle {
    let handle = nat_cluster_on(&nat_fleet().2, transport, options);
    assert_eq!(handle.switch_of("nat"), Some(0));
    assert_eq!(handle.switch_of("router"), Some(1));
    handle
}

/// [`nat_fleet`]'s NFs and chain on `placement`, booted over `transport`,
/// its static rules installed.
fn nat_cluster_on(
    placement: &ClusterPlacement,
    transport: &mut dyn Transport,
    options: &ClusterOptions,
) -> ClusterHandle {
    let (nfs, chains, _, deploy) = nat_fleet();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let mut handle = spawn_cluster(
        &refs,
        &chains,
        placement,
        &TofinoProfile::wedge_100b_32x(),
        [(1u16, EXIT_PORT)].into_iter().collect(),
        &ClusterWiring::default(),
        &deploy,
        transport,
        options,
    )
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
    handle
}

/// A burst of distinct flows is injected without waiting; the member
/// hosting the NAT learns each digest while packets are still in flight,
/// and the drain afterwards accounts for every flow.
#[test]
fn learn_storm_drains_digests_concurrently_with_injection() {
    let mut handle = nat_cluster(&mut ChannelTransport::new(), &ClusterOptions::default());
    // Every member learns on its own switch: register the policy first so
    // no digest is ever unattended.
    handle
        .register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
        .unwrap();

    // The storm: fire every flow without waiting for any delivery. Member 0
    // learns each flow's digest with the packet that emitted it, installing
    // return-path entries while later packets are still flying.
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

    // The drain: the report accounts for every digest the storm
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

/// A command frame the link refuses is answered at once with the link's
/// error, not left to time out: an install whose table name alone is past
/// the frame ceiling fails as `Overlength`, and the member still takes the
/// next install.
#[test]
fn refused_install_is_answered_with_the_transport_error() {
    use dejavu_core::transport::wire::MAX_PAYLOAD;
    use dejavu_core::transport::{ClusterError, TransportError, WireError};
    use dejavu_p4ir::table::{KeyMatch, TableEntry};

    let mut net = lockstep_cluster();
    let pass = || TableEntry {
        matches: vec![KeyMatch::Exact(dejavu_p4ir::Value::new(6, 8))],
        action: "pass".into(),
        action_args: vec![],
        priority: 0,
    };
    let err = net
        .install("n0", &"t".repeat(MAX_PAYLOAD + 1), pass())
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
    net.install("n0", "work", pass()).unwrap();
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

// ---------------------------------------------------------------------
// A damaged frame: it is dropped and counted where it arrived, never read
// as a valid message (a metrics reply that did not parse used to read as
// an all-zero member).
// ---------------------------------------------------------------------

/// [`ChannelTransport`] with the inbox `label` bound here, so the `link`-th
/// link connected to it can damage the first frame `pick` selects: bit 1
/// of byte 21, inside the frame's payload — or, [`duplicating`], send it
/// twice; or, [`rewriting`], re-encode it changed, with a valid trailer;
/// or, [`every`], damage each frame it selects.
///
/// [`duplicating`]: DamagingTransport::duplicating
/// [`rewriting`]: DamagingTransport::rewriting
/// [`every`]: DamagingTransport::every
struct DamagingTransport {
    inner: ChannelTransport,
    label: &'static str,
    link: usize,
    pick: fn(&Message) -> bool,
    duplicate: bool,
    rewrite: Option<fn(&mut Message)>,
    every: bool,
    inbox: Option<std::sync::mpsc::Sender<Vec<u8>>>,
    links: usize,
}

impl DamagingTransport {
    fn new(label: &'static str, link: usize, pick: fn(&Message) -> bool) -> Self {
        DamagingTransport {
            inner: ChannelTransport::default(),
            label,
            link,
            pick,
            duplicate: false,
            rewrite: None,
            every: false,
            inbox: None,
            links: 0,
        }
    }

    /// Sends the picked frame as `rewrite` changes its message, framed
    /// afresh, instead of damaging it.
    fn rewriting(self, rewrite: fn(&mut Message)) -> Self {
        DamagingTransport {
            rewrite: Some(rewrite),
            ..self
        }
    }

    /// Sends the picked frame intact, twice, instead of damaging it.
    fn duplicating(self) -> Self {
        DamagingTransport {
            duplicate: true,
            ..self
        }
    }

    /// Damages every frame `pick` selects, not only the first.
    fn every(self) -> Self {
        DamagingTransport {
            every: true,
            ..self
        }
    }
}

struct DamagingSink {
    tx: std::sync::mpsc::Sender<Vec<u8>>,
    pick: Option<fn(&Message) -> bool>,
    duplicate: bool,
    rewrite: Option<fn(&mut Message)>,
    every: bool,
}

impl dejavu_core::transport::FrameSink for DamagingSink {
    fn send_frame(&mut self, mut frame: Vec<u8>) -> Result<(), TransportError> {
        if let Some(pick) = self.pick {
            if let Some(mut m) = wire::decode(&frame).ok().filter(pick) {
                if self.duplicate {
                    let _ = self.tx.send(frame.clone());
                } else if let Some(rewrite) = self.rewrite {
                    rewrite(&mut m);
                    frame = wire::encode(&m);
                } else {
                    frame[21] ^= 1 << 1;
                }
                if !self.every {
                    self.pick = None;
                }
            }
        }
        self.tx
            .send(frame)
            .map_err(|_| TransportError::Disconnected)
    }
}

impl Transport for DamagingTransport {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn bind(&mut self, label: &str) -> Result<Endpoint, TransportError> {
        if label != self.label {
            return self.inner.bind(label);
        }
        let (tx, rx) = std::sync::mpsc::channel();
        self.inbox = Some(tx);
        Ok(Endpoint::from_parts(PeerAddr::Channel(label.into()), rx))
    }

    /// `spawn_cluster` connects the controller to each worker in index
    /// order, then each worker upstream and to the next worker: the second
    /// link into `ctrl` is worker 1's, the second into `w1` is worker 0's.
    fn connect(&mut self, peer: &PeerAddr) -> Result<Link, TransportError> {
        match (peer, &self.inbox) {
            (PeerAddr::Channel(label), Some(tx)) if label == self.label => {
                self.links += 1;
                Ok(Link::from_sink(Box::new(DamagingSink {
                    tx: tx.clone(),
                    pick: (self.links == self.link).then_some(self.pick),
                    duplicate: self.duplicate,
                    rewrite: self.rewrite,
                    every: self.every,
                })))
            }
            _ => self.inner.connect(peer),
        }
    }
}

const DAMAGE_TIMEOUT: Duration = Duration::from_millis(500);

fn damaging_options() -> ClusterOptions {
    ClusterOptions {
        telemetry: true,
        op_timeout: DAMAGE_TIMEOUT,
    }
}

fn damaging_cluster(mut transport: DamagingTransport) -> ClusterHandle {
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
        &mut transport,
        &damaging_options(),
    )
    .unwrap()
}

#[test]
fn a_damaged_metrics_reply_fails_the_scrape_and_is_counted() {
    let mut handle = damaging_cluster(DamagingTransport::new("ctrl", 2, |m| {
        matches!(m, Message::Telemetry(TelemetryMsg::Metrics { .. }))
    }));
    handle
        .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();

    // Worker 1's reply fails its check: no member is read as idle.
    let first = handle.metrics_snapshot();
    assert!(
        matches!(first, Err(ClusterError::Timeout(_))),
        "a damaged reply must fail the scrape, got {first:?}"
    );
    // The next scrape is whole, and the dropped frame is on the books.
    let second = handle.metrics_snapshot().unwrap();
    assert_eq!(second.rejected_frames, 1);
    assert!(second.per_switch.iter().all(|s| !s.is_zero()));
    handle.shutdown().unwrap();
}

#[test]
fn a_damaged_data_frame_is_dropped_and_counted_by_its_member() {
    let mut handle = damaging_cluster(DamagingTransport::new("w1", 2, |m| {
        matches!(m, Message::Data(_))
    }));

    // The flight's frame from worker 0 to worker 1 fails its check: the
    // packet is lost, never executed as a different one.
    let lost = handle.inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT));
    assert!(
        matches!(lost, Err(ClusterError::Timeout(_))),
        "a damaged data frame must not deliver, got {lost:?}"
    );
    // Worker 1 counted it, and its count rides in its own scrape reply.
    let scrape = handle.metrics_snapshot().unwrap();
    assert_eq!(scrape.rejected_frames, 1);
    assert!(scrape.per_switch[1].is_zero() && scrape.per_switch[2].is_zero());
    handle.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Everything awaited expires at `op_timeout`: a lost frame fails what was
// waiting for it, once, and wedges nothing after it.
// ---------------------------------------------------------------------

#[test]
fn a_lost_flight_expires_and_releases_the_next_quiesce() {
    let mut handle = damaging_cluster(DamagingTransport::new("w1", 2, |m| {
        matches!(m, Message::Data(_))
    }));
    // Asynchronously, so the failed delivery can only reach
    // `recv_delivered` (a waiting `inject` may take it as its timeout).
    let lost = handle
        .inject_async(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();
    std::thread::sleep(DAMAGE_TIMEOUT);

    // The flight is failed at its deadline, so the barrier does not wait
    // for it past the verb's own timeout.
    let asked = std::time::Instant::now();
    handle.pause_ingress().unwrap();
    assert!(
        asked.elapsed() < DAMAGE_TIMEOUT,
        "quiesce waited out its timeout"
    );
    let failed = handle
        .recv_delivered(DAMAGE_TIMEOUT)
        .unwrap()
        .expect("the lost flight is answered");
    assert_eq!(failed.trace, lost);
    assert!(
        matches!(&failed.result, Err(e) if e == "timed out waiting for packet delivery"),
        "got {failed:?}"
    );

    // Ingress resumes and the cluster carries packets again.
    handle.resume_ingress().unwrap();
    let t = handle
        .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    handle.shutdown().unwrap();
}

#[test]
fn a_lost_policy_registration_fails_its_verb_and_the_next_one_learns() {
    use dejavu_core::transport::wire::ControlMsg;

    // The controller's link to worker 0 is the first connected to `w0`.
    let mut transport = DamagingTransport::new("w0", 1, |m| {
        matches!(m, Message::Control(ControlMsg::RegisterLearnPolicy { .. }))
    });
    let mut handle = nat_cluster(&mut transport, &damaging_options());

    // Worker 0 never gets the policy, so the verb fails at its timeout.
    let asked = std::time::Instant::now();
    let first = handle.register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy());
    assert!(
        matches!(first, Err(ClusterError::Timeout(_))),
        "got {first:?}"
    );
    assert!(
        asked.elapsed() < DAMAGE_TIMEOUT * 2,
        "the registration outlived its timeout"
    );

    // Registering again reaches every member, and member 0 learns the next
    // flow with the packet that taught it.
    handle
        .register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
        .unwrap();
    let t = handle
        .inject(InjectedPacket::new(outbound(BASE_PORT), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    let report = handle.process_digests().unwrap();
    assert_eq!((report.digests_seen, report.entries_installed), (1, 1));
    let back = handle
        .inject(InjectedPacket::new(inbound(BASE_PORT), IN_PORT))
        .unwrap();
    assert_eq!(
        ip_at(&back.final_bytes, 30),
        CLIENT,
        "return not translated"
    );
    handle.shutdown().unwrap();
}

#[test]
fn a_lost_reply_fails_its_verb_and_the_next_verb_succeeds() {
    use dejavu_p4ir::table::{KeyMatch, TableEntry};
    let pass = |key| TableEntry {
        matches: vec![KeyMatch::Exact(dejavu_p4ir::Value::new(key, 8))],
        action: "pass".into(),
        action_args: vec![],
        priority: 0,
    };

    // Worker 1's upstream is the second link connected to `ctrl`.
    let mut handle = damaging_cluster(DamagingTransport::new("ctrl", 2, |m| {
        matches!(m, Message::Telemetry(TelemetryMsg::Ack { .. }))
    }));
    let first = handle.install("n3", "work", pass(6));
    assert!(
        matches!(first, Err(ClusterError::Timeout(_))),
        "got {first:?}"
    );
    handle.install("n3", "work", pass(7)).unwrap();
    handle.shutdown().unwrap();
}

/// Migrates a [`nat_cluster`] live: the NAT and the router move to switch
/// 1, the classifier stays on switch 0.
fn move_the_nat(handle: &mut ClusterHandle) -> Result<MigrationOutcome, MigrationError> {
    let (nfs, chains, old, deploy) = nat_fleet();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let (profile, wiring) = (TofinoProfile::wedge_100b_32x(), ClusterWiring::default());
    let spec = FleetSpec {
        nfs: &refs,
        chains: &chains,
        profile: &profile,
        exit_ports: [(1u16, EXIT_PORT)].into_iter().collect(),
        wiring: &wiring,
        deploy: &deploy,
    };
    let new = ClusterPlacement {
        switches: vec![
            Placement::sequential(vec![(PipeletId::ingress(0), vec!["classifier"])]),
            Placement::sequential(vec![(PipeletId::ingress(0), vec!["nat", "router"])]),
        ],
    };
    migrate(handle, &spec, &old, &new)
}

/// A migration carries each newcomer's state on its swap and sends no
/// `RestoreState`: with every one bound for worker 1, the NAT's new
/// member, damaged on its way, the migration completes, and every flow
/// learned before it still translates and ages at the NAT's timeout.
#[test]
fn a_migration_sends_no_restore_command() {
    use dejavu_core::transport::wire::ControlMsg;
    const TIMEOUT: u64 = 30;

    // The controller's link to worker 1 is the first connected to `w1`.
    let transport = DamagingTransport::new("w1", 1, |m| {
        matches!(m, Message::Control(ControlMsg::RestoreState { .. }))
    });
    let mut handle = nat_cluster(&mut transport.every(), &damaging_options());
    handle
        .register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
        .unwrap();
    handle
        .set_idle_timeout("nat", NAT_IN_TABLE, Some(TIMEOUT))
        .unwrap();
    for f in 0..FLOWS {
        handle
            .inject(InjectedPacket::new(outbound(BASE_PORT + f), IN_PORT))
            .unwrap();
    }

    let outcome = move_the_nat(&mut handle).expect("the migration completes");
    assert_eq!(handle.switch_of("nat"), Some(1));
    assert_eq!(
        outcome.flows_migrated,
        u64::from(FLOWS) + 1,
        "learned flows + NAT pool"
    );
    assert_eq!(handle.metrics_snapshot().unwrap().rejected_frames, 0);
    for f in 0..FLOWS {
        let back = handle
            .inject(InjectedPacket::new(inbound(BASE_PORT + f), IN_PORT))
            .unwrap();
        assert_eq!(ip_at(&back.final_bytes, 30), CLIENT, "flow {f}");
    }
    let aged = handle.advance_time(TIMEOUT).unwrap();
    assert_eq!(
        aged.per_switch[1].evictions,
        usize::from(FLOWS),
        "aging lost"
    );
    handle.shutdown().unwrap();
}

#[test]
fn a_migration_that_fails_before_its_swap_resumes_the_old_cluster() {
    // Worker 0's upstream is the first link connected to `ctrl`.
    let mut transport = DamagingTransport::new("ctrl", 1, |m| {
        matches!(m, Message::Telemetry(TelemetryMsg::Slices { .. }))
    });
    let mut handle = nat_cluster(&mut transport, &damaging_options());
    handle
        .register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
        .unwrap();
    handle
        .inject(InjectedPacket::new(outbound(BASE_PORT), IN_PORT))
        .unwrap();
    // A packet parked before the migration begins.
    handle.pause_ingress().unwrap();
    let parked = handle
        .inject_async(InjectedPacket::new(outbound(BASE_PORT + 1), IN_PORT))
        .unwrap();

    // The NAT would move to switch 1, but worker 0's snapshot never arrives.
    let failed = move_the_nat(&mut handle);
    assert!(
        matches!(
            failed,
            Err(MigrationError::Cluster(ClusterError::Timeout(_)))
        ),
        "got {failed:?}"
    );

    // Ingress was resumed: the parked packet flies on the old placement,
    // and the flow learned before the migration still translates.
    let d = handle
        .recv_delivered(DAMAGE_TIMEOUT * 4)
        .unwrap()
        .expect("the parked packet is released");
    assert_eq!(d.trace, parked);
    let t = d.result.expect("the parked flight");
    assert_eq!(ip_at(&t.final_bytes, 26), PUBLIC_IP);
    assert_eq!(handle.switch_of("nat"), Some(0));
    let back = handle
        .inject(InjectedPacket::new(inbound(BASE_PORT), IN_PORT))
        .unwrap();
    assert_eq!(ip_at(&back.final_bytes, 30), CLIENT, "the learned flow");
    handle.shutdown().unwrap();
}

/// A member that answers SNAPSHOT one slice short — a reply re-framed
/// with a valid trailer, so nothing counts it as damaged — fails the
/// migration before FLIP, naming the member: the NAT and the router would
/// otherwise move without one of their slices. The old cluster resumes,
/// and every flow learned before still translates on the old placement.
#[test]
fn a_snapshot_reply_one_slice_short_fails_the_migration() {
    // Worker 0's upstream is the first link connected to `ctrl`.
    let transport = DamagingTransport::new("ctrl", 1, |m| {
        matches!(m, Message::Telemetry(TelemetryMsg::Slices { .. }))
    });
    let mut transport = transport.rewriting(|m| {
        if let Message::Telemetry(TelemetryMsg::Slices { slices, .. }) = m {
            slices.pop();
        }
    });
    let mut handle = nat_cluster(&mut transport, &damaging_options());
    handle
        .register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
        .unwrap();
    for f in 0..FLOWS {
        handle
            .inject(InjectedPacket::new(outbound(BASE_PORT + f), IN_PORT))
            .unwrap();
    }

    match move_the_nat(&mut handle) {
        Err(MigrationError::Cluster(ClusterError::Remote(m))) => {
            assert!(m.contains("switch 0"), "got {m}")
        }
        other => panic!("expected the migration refused, got {other:?}"),
    }
    assert_eq!(handle.switch_of("nat"), Some(0));
    assert_eq!(handle.metrics_snapshot().unwrap().rejected_frames, 0);
    for f in 0..FLOWS {
        let back = handle
            .inject(InjectedPacket::new(inbound(BASE_PORT + f), IN_PORT))
            .unwrap();
        assert_eq!(ip_at(&back.final_bytes, 30), CLIENT, "flow {f}");
    }
    handle.shutdown().unwrap();
}

/// Each member's clock, read off its pipelets' snapshots.
fn clocks(handle: &mut ClusterHandle) -> Vec<(usize, u64)> {
    let snaps = handle.snapshot_state().unwrap();
    let clocks: std::collections::BTreeSet<_> = snaps
        .into_iter()
        .map(|(switch, _, snap)| (switch, snap.clock))
        .collect();
    clocks.into_iter().collect()
}

#[test]
fn a_failed_broadcast_still_asks_every_member() {
    // Worker 1's upstream is the second link connected to `ctrl`.
    let mut handle = damaging_cluster(DamagingTransport::new("ctrl", 2, |m| {
        matches!(m, Message::Telemetry(TelemetryMsg::Evictions { .. }))
    }));
    let first = handle.advance_time(1);
    assert!(
        matches!(first, Err(ClusterError::Timeout(_))),
        "got {first:?}"
    );

    // Worker 1's lost reply expires; worker 2 is asked after it, so every
    // member's clock moved and the clocks still agree.
    std::thread::sleep(DAMAGE_TIMEOUT);
    assert_eq!(clocks(&mut handle), [(0, 1), (1, 1), (2, 1)]);
    let report = handle.advance_time(1).unwrap();
    assert_eq!(report.per_switch.len(), 3);
    assert_eq!(clocks(&mut handle), [(0, 2), (1, 2), (2, 2)]);
    handle.shutdown().unwrap();
}

#[test]
fn a_duplicated_command_is_applied_once() {
    use dejavu_core::transport::wire::ControlMsg;

    // The controller's link to worker 1 is the first connected to `w1`.
    let transport = DamagingTransport::new("w1", 1, |m| {
        matches!(m, Message::Control(ControlMsg::AdvanceTime { .. }))
    });
    let mut handle = damaging_cluster(transport.duplicating());
    handle.advance_time(1).unwrap();
    // The copy reached worker 1 before the snapshot command did: had it
    // been applied, member 1 would have aged twice.
    assert_eq!(clocks(&mut handle), [(0, 1), (1, 1), (2, 1)]);
    handle.shutdown().unwrap();
}

#[test]
fn a_duplicated_delivery_is_handed_over_once() {
    // Worker 2's upstream is the third link connected to `ctrl`; the full
    // chain's flight ends there.
    let transport = DamagingTransport::new("ctrl", 3, |m| {
        matches!(m, Message::Telemetry(TelemetryMsg::Delivered { .. }))
    });
    let mut handle = damaging_cluster(transport.duplicating());
    let t = handle
        .inject(InjectedPacket::new(encapsulated_packet(1, 0), IN_PORT))
        .unwrap();
    assert_eq!(t.hops.len(), 3);
    let again = handle.recv_delivered(Duration::from_millis(200)).unwrap();
    assert!(again.is_none(), "delivered twice: {again:?}");
    handle.shutdown().unwrap();
}

/// A flip whose frame to worker 1 is damaged on its way: worker 1 drops it
/// and counts it, and the migration fails at `op_timeout` with a timeout,
/// after worker 0 acked its own flip.
#[test]
fn a_damaged_flip_frame_is_one_counted_drop() {
    use dejavu_core::transport::wire::ControlMsg;

    // The controller's link to worker 1 is the first connected to `w1`.
    let mut transport = DamagingTransport::new("w1", 1, |m| {
        matches!(m, Message::Control(ControlMsg::Flip { .. }))
    });
    let mut handle = nat_cluster(&mut transport, &damaging_options());
    handle
        .register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
        .unwrap();
    handle
        .inject(InjectedPacket::new(outbound(BASE_PORT), IN_PORT))
        .unwrap();

    let asked = std::time::Instant::now();
    let failed = move_the_nat(&mut handle);
    assert!(
        matches!(
            failed,
            Err(MigrationError::Cluster(ClusterError::Timeout(_)))
        ),
        "got {failed:?}"
    );
    assert!(
        asked.elapsed() >= DAMAGE_TIMEOUT,
        "failed before its timeout"
    );
    assert_eq!(handle.metrics_snapshot().unwrap().rejected_frames, 1);
    assert_eq!(handle.switch_of("classifier"), Some(0));
    handle.shutdown().unwrap();
}

/// Selects every control frame while a migration runs.
static MIGRATING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// The NAT moves from member 0 to the empty member 1; member 2 hosts the
/// router and exits the chain under both placements, so the migration
/// leaves it alone. Every control frame to it during the migration is
/// damaged, and the migration completes all the same: member 2 was sent
/// none, and it still counts the traffic it carried before.
#[test]
fn an_unchanged_member_is_left_alone() {
    use std::sync::atomic::Ordering;

    let (nfs, chains, _, deploy) = nat_fleet();
    let on = |gress: PipeletId, nfs: Vec<&str>| Placement::sequential(vec![(gress, nfs)]);
    let old = ClusterPlacement {
        switches: vec![
            on(PipeletId::ingress(0), vec!["classifier", "nat"]),
            on(PipeletId::ingress(0), vec![]),
            on(PipeletId::egress(0), vec!["router"]),
        ],
    };
    let new = ClusterPlacement {
        switches: vec![
            on(PipeletId::ingress(0), vec!["classifier"]),
            on(PipeletId::ingress(0), vec!["nat"]),
            on(PipeletId::egress(0), vec!["router"]),
        ],
    };
    // The controller's link to worker 2 is the first connected to `w2`.
    let transport = DamagingTransport::new("w2", 1, |m| {
        MIGRATING.load(Ordering::SeqCst) && matches!(m, Message::Control(_))
    });
    let mut handle = nat_cluster_on(&old, &mut transport.every(), &damaging_options());
    handle
        .register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
        .unwrap();
    for f in 0..FLOWS {
        handle
            .inject(InjectedPacket::new(outbound(BASE_PORT + f), IN_PORT))
            .unwrap();
    }
    let injected = |handle: &mut ClusterHandle| {
        let scrape = handle.metrics_snapshot().unwrap();
        (
            scrape.per_switch[2].counter("packets_injected"),
            scrape.rejected_frames,
        )
    };
    assert_eq!(injected(&mut handle), (u64::from(FLOWS), 0));

    let refs: Vec<&NfModule> = nfs.iter().collect();
    let (profile, wiring) = (TofinoProfile::wedge_100b_32x(), ClusterWiring::default());
    let spec = FleetSpec {
        nfs: &refs,
        chains: &chains,
        profile: &profile,
        exit_ports: [(1u16, EXIT_PORT)].into_iter().collect(),
        wiring: &wiring,
        deploy: &deploy,
    };
    MIGRATING.store(true, Ordering::SeqCst);
    let outcome = migrate(&mut handle, &spec, &old, &new);
    MIGRATING.store(false, Ordering::SeqCst);
    let outcome = outcome.expect("the migration completes");
    assert_eq!(
        outcome.flows_migrated,
        u64::from(FLOWS) + 1,
        "learned flows + NAT pool"
    );
    assert_eq!(handle.switch_of("nat"), Some(1));
    assert_eq!(handle.switch_of("router"), Some(2));
    assert_eq!(
        injected(&mut handle),
        (u64::from(FLOWS), 0),
        "member 2 was sent a frame"
    );

    for f in 0..FLOWS {
        let back = handle
            .inject(InjectedPacket::new(inbound(BASE_PORT + f), IN_PORT))
            .unwrap();
        assert_eq!(ip_at(&back.final_bytes, 30), CLIENT, "flow {f}");
    }
    assert_eq!(injected(&mut handle), (u64::from(FLOWS) * 2, 0));
    handle.shutdown().unwrap();
}
