//! Flow-state runtime, end to end: dynamic NAT learns a flow through the
//! digest path, return traffic is translated without a punt, idle entries
//! age out (visible in telemetry), and a hot NF upgrade migrates the live
//! flow state — on both execution engines.

use dejavu_asic::switch::Disposition;
use dejavu_asic::{ExecMode, InjectedPacket, PipeletId, Switch, TofinoProfile};
use dejavu_core::control_plane::ControlPlane;
use dejavu_core::deploy::{deploy, DeployOptions, Deployment};
use dejavu_core::placement::Placement;
use dejavu_core::routing::RoutingConfig;
use dejavu_core::{ChainPolicy, ChainSet, NfModule};
use dejavu_integration::{EXIT_PORT, IN_PORT, LOOPBACK_PORT_P0, LOOPBACK_PORT_P1};
use dejavu_nf::nat::{dynamic_nat, nat_learn_policy, nat_out_entry, NAT_FLOW_STREAM, NAT_IN_TABLE};
use dejavu_nf::{classifier, router};

/// The server the internal client talks to.
const SERVER: u32 = 0x0808_0808;
/// The NAT's public address.
const PUBLIC_IP: u32 = 0xc633_6401;
/// The internal client (under 10.1.0.0/16).
const CLIENT: u32 = 0x0a01_0101;
const CLIENT_PORT: u16 = 40001;

/// classifier → nat → router, all on pipeline 0; both directions ride the
/// same path (the classifier steers the internal prefix outbound and the
/// server prefix back in).
fn nat_testbed(mode: ExecMode) -> (Switch, Deployment) {
    let nfs: Vec<NfModule> = vec![classifier::classifier(), dynamic_nat(), router::router()];
    let nf_refs: Vec<&NfModule> = nfs.iter().collect();
    let chains = ChainSet::new(vec![ChainPolicy::new(
        1,
        "nat_path",
        vec!["classifier", "nat", "router"],
        1.0,
    )])
    .unwrap();
    let placement = Placement::sequential(vec![
        (PipeletId::ingress(0), vec!["classifier", "nat"]),
        (PipeletId::egress(0), vec!["router"]),
    ]);
    let config = RoutingConfig {
        loopback_port: [(0usize, LOOPBACK_PORT_P0), (1usize, LOOPBACK_PORT_P1)]
            .into_iter()
            .collect(),
        exit_ports: [(1u16, EXIT_PORT)].into_iter().collect(),
        honor_out_port: false,
    };
    let options = DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    };
    let (mut switch, dep) = deploy(
        &nf_refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        &config,
        &options,
    )
    .expect("nat chain deploys");
    switch.set_exec_mode(mode);
    switch.set_telemetry(true);

    // Steer both directions onto path 1.
    for prefix in [(0x0a01_0000u32, 16u16), (0x0800_0000, 8)] {
        dep.install(
            &mut switch,
            "classifier",
            classifier::CLASSIFY_TABLE,
            classifier::classify_entry(prefix, (0, 0), 1, 100),
        )
        .unwrap();
    }
    // NAT: learn + rewrite the internal prefix to the public address.
    dep.install(
        &mut switch,
        "nat",
        dejavu_nf::nat::NAT_OUT_TABLE,
        nat_out_entry((0x0a01_0000, 16), PUBLIC_IP),
    )
    .unwrap();
    // Router: default route out the exit port.
    dep.install(
        &mut switch,
        "router",
        router::ROUTES_TABLE,
        router::route_entry((0, 0), EXIT_PORT, 0x0200_0000_0099, 0x0200_0000_0001),
    )
    .unwrap();
    (switch, dep)
}

fn outbound_packet() -> Vec<u8> {
    outbound_from(CLIENT_PORT)
}

fn return_packet() -> Vec<u8> {
    return_to(CLIENT_PORT)
}

/// The client's flow from source port `port`.
fn outbound_from(port: u16) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::tcp()
        .src_ip(CLIENT)
        .dst_ip(SERVER)
        .src_port(port)
        .dst_port(80)
        .build()
}

/// The server's answer to the flow from `port`.
fn return_to(port: u16) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::tcp()
        .src_ip(SERVER)
        .dst_ip(PUBLIC_IP)
        .src_port(80)
        .dst_port(port)
        .build()
}

/// Injects the server's answer to the flow from `port`; true when the NAT
/// translated it back to the client.
fn return_translates(switch: &mut Switch, port: u16) -> bool {
    let t = switch
        .inject(InjectedPacket::new(return_to(port), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    ip_at(&t.final_bytes, 30) == CLIENT
}

fn ip_at(bytes: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
}

fn dynamic_nat_learns_translates_ages_and_migrates(mode: ExecMode) {
    let (mut switch, mut dep) = nat_testbed(mode);
    let mut cp = ControlPlane::new();
    cp.register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy());

    // 1. Outbound: emitted with the source rewritten to the public IP,
    //    and a digest queued for the learning loop.
    let t = switch
        .inject(InjectedPacket::new(outbound_packet(), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    assert_eq!(ip_at(&t.final_bytes, 26), PUBLIC_IP, "source not rewritten");
    assert_eq!(switch.digest_backlog(0), 1);

    // 2. The learning loop turns the digest into a nat_in entry.
    let installed = cp.process_digests(&mut switch, &dep).unwrap();
    assert_eq!(installed, 1);
    assert_eq!(cp.stats.learns, 1);
    assert_eq!(switch.digest_backlog(0), 0);

    // 3. Return traffic is translated back in the data plane — no punt.
    let t = switch
        .inject(InjectedPacket::new(return_packet(), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    assert_eq!(ip_at(&t.final_bytes, 30), CLIENT, "return not translated");

    // 4. Re-learning the same flow is idempotent: the digest fires again
    //    on the next outbound packet, but nothing new is installed.
    let t = switch
        .inject(InjectedPacket::new(outbound_packet(), IN_PORT))
        .unwrap();
    assert_eq!(ip_at(&t.final_bytes, 26), PUBLIC_IP);
    assert_eq!(cp.process_digests(&mut switch, &dep).unwrap(), 0);

    // 5. Hot upgrade of the NAT: live flow state survives the swap and the
    //    very next return packet is still translated — zero mistranslations.
    let v2 = dynamic_nat();
    let all = [classifier::classifier(), dynamic_nat(), router::router()];
    let refs: Vec<&NfModule> = all.iter().collect();
    let outcome = dep.upgrade_nf(&mut switch, &v2, &refs).unwrap();
    assert!(outcome.affected_nfs.contains(&"nat".to_string()));
    assert!(outcome.migration.is_clean(), "{:?}", outcome.migration);
    assert!(outcome.migration.restored_entries > 0);
    let t = switch
        .inject(InjectedPacket::new(return_packet(), IN_PORT))
        .unwrap();
    assert_eq!(t.disposition, Disposition::Emitted { port: EXIT_PORT });
    assert_eq!(
        ip_at(&t.final_bytes, 30),
        CLIENT,
        "flow state lost across upgrade"
    );

    // 6. Aging: after the idle timeout passes with no traffic, the learned
    //    entry is evicted — and the eviction shows up in telemetry.
    dep.set_idle_timeout(&mut switch, "nat", NAT_IN_TABLE, Some(5))
        .unwrap();
    let evicted = switch.advance_time(10);
    assert!(
        evicted
            .iter()
            .any(|(_, e)| e.table == format!("nat__{NAT_IN_TABLE}")),
        "learned entry should age out: {evicted:?}"
    );
    let snap = switch.metrics_snapshot();
    assert!(snap.counter("digests_emitted{pipeline=\"0\"}") >= 2);
    assert_eq!(
        snap.counter(&format!(
            "table_evictions{{pipelet=\"ingress0\",table=\"nat__{NAT_IN_TABLE}\"}}"
        )),
        1
    );
    // The flow is gone: return traffic is no longer translated.
    let t = switch
        .inject(InjectedPacket::new(return_packet(), IN_PORT))
        .unwrap();
    assert_eq!(ip_at(&t.final_bytes, 30), PUBLIC_IP, "entry not evicted");
}

#[test]
fn dynamic_nat_end_to_end_reference() {
    dynamic_nat_learns_translates_ages_and_migrates(ExecMode::Reference);
}

#[test]
fn dynamic_nat_end_to_end_compiled() {
    dynamic_nat_learns_translates_ages_and_migrates(ExecMode::Compiled);
}

/// ROADMAP aim 3, "no silently lost flow": the digests are drained before
/// the first install, so an install the switch refuses must not take the
/// rest of the batch with it.
#[test]
fn failed_install_does_not_discard_the_rest_of_the_learn_batch() {
    let (mut switch, dep) = nat_testbed(ExecMode::Compiled);
    let mut cp = ControlPlane::new();
    // Digest 1 is answered with an entry naming an action the NAT does not
    // define; every later one with the real policy's entry.
    let mut real = nat_learn_policy();
    let mut seen = 0;
    cp.register_learn_policy(
        "nat",
        NAT_FLOW_STREAM,
        Box::new(move |pipeline: usize, values: &[dejavu_p4ir::Value]| {
            let mut resp = real.on_digest(pipeline, values);
            seen += 1;
            if seen == 1 {
                resp.install[0].2.action = "no_such_action".into();
            }
            resp
        }),
    );
    for port in [CLIENT_PORT, CLIENT_PORT + 1] {
        switch
            .inject(InjectedPacket::new(outbound_from(port), IN_PORT))
            .unwrap();
    }
    assert_eq!(switch.digest_backlog(0), 2);

    let err = cp.process_digests(&mut switch, &dep).unwrap_err();
    assert!(err.to_string().contains("no_such_action"), "{err}");
    assert_eq!(switch.digest_backlog(0), 0);
    assert_eq!((cp.stats.digests, cp.stats.learns), (2, 1));
    assert!(!return_translates(&mut switch, CLIENT_PORT));
    assert!(
        return_translates(&mut switch, CLIENT_PORT + 1),
        "flow 2 was drained from the switch and never learned"
    );
}

/// The learn/age loop costs what it does, not what the table holds: with a
/// long-lived flow at the head of `nat_in`, every sweep removes from the
/// interior of the entry vector, and the exact index absorbs all of it —
/// its rebuild count stays where warm-up left it.
#[test]
fn learn_age_cycles_never_rebuild_the_exact_index() {
    let (mut switch, dep) = nat_testbed(ExecMode::Compiled);
    let mut cp = ControlPlane::new();
    cp.register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy());
    dep.set_idle_timeout(&mut switch, "nat", NAT_IN_TABLE, Some(3))
        .unwrap();
    let nat_in = format!("nat__{NAT_IN_TABLE}");
    let rebuilds = |switch: &Switch| {
        let telemetry = switch
            .tables(PipeletId::ingress(0))
            .unwrap()
            .index_telemetry();
        let (_, t) = telemetry.iter().find(|(name, _)| *name == nat_in).unwrap();
        assert_eq!(t.kind, dejavu_asic::IndexKind::Exact);
        t.rebuilds
    };
    // One cycle: four new flows, the long-lived one refreshed, one tick.
    let mut cycle = |switch: &mut Switch, n: u16| -> usize {
        for port in std::iter::once(CLIENT_PORT).chain((0..4).map(|i| 50_000 + 4 * n + i)) {
            switch
                .inject(InjectedPacket::new(outbound_from(port), IN_PORT))
                .unwrap();
        }
        cp.process_digests(switch, &dep).unwrap();
        assert!(return_translates(switch, CLIENT_PORT));
        switch.advance_time(1).len()
    };
    for n in 0..3 {
        cycle(&mut switch, n);
    }
    let warm = rebuilds(&switch);
    let mut evicted = 0;
    for n in 3..15 {
        evicted += cycle(&mut switch, n);
    }
    assert_eq!(evicted, 4 * 12, "one cycle's flows age out per tick");
    assert_eq!(rebuilds(&switch), warm, "a sweep rebuilt the index");
    // The survivors are exactly the last two cycles' flows and the
    // long-lived one, still translating under their renumbered positions.
    let tables = switch.tables(PipeletId::ingress(0)).unwrap();
    assert_eq!(tables.len(&nat_in), 1 + 4 * 2);
    for port in 50_000 + 4 * 13..50_000 + 4 * 15 {
        assert!(return_translates(&mut switch, port), "flow {port} lost");
    }
    assert!(!return_translates(&mut switch, 50_000 + 4 * 12));
}
