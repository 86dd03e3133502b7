//! Layer probes shared by the two cluster workloads: the wire format, a
//! bare transport hop, and a control-plane round trip.

use crate::harness::Outcome;
use crate::trace::{Tracer, ROOT};
use dejavu_asic::InjectedPacket;
use dejavu_core::transport::{wire, ClusterHandle, DataMsg, Message, Transport, WireTraversal};
use std::hint::black_box;

/// Frames a packet sends across a 3-switch cluster: controller → switch 0
/// → 1 → 2 → controller.
pub const HOPS_PER_FLIGHT: usize = 4;

/// The [`DataMsg`] a flight looks like on its `h`-th frame: the first `h`
/// per-switch summaries are aboard, the bytes are the packet's.
pub fn frame_at(flight: &WireTraversal, packet: &InjectedPacket, h: usize) -> Message {
    let hops: Vec<_> = flight.hops.iter().take(h).cloned().collect();
    Message::Data(DataMsg {
        trace: 3,
        port: packet.port,
        latency_ns: hops.iter().map(|x| x.latency_ns).sum(),
        inter_switch_hops: h.saturating_sub(1) as u32,
        bytes: if h == 0 {
            packet.bytes.clone()
        } else {
            flight.final_bytes.clone()
        },
        hops,
    })
}

/// Times `wire::encode`/`wire::decode` and a bare `Link::send` →
/// `Endpoint::recv` hop on `transport`, with the workload's own frames
/// (hop 0 to 3 of each flight). Records spans as children of the flight
/// roots in `roots` (`transport.hop ⊃ wire.encode + wire.decode`) and the
/// wire and hop figures. `hop_metric` names the transport's hop figure.
pub fn probe_frames(
    out: &mut Outcome,
    tracer: &mut Tracer,
    transport: &mut dyn Transport,
    flights: &[(InjectedPacket, WireTraversal)],
    roots: &[(u32, usize)],
    hop_metric: &'static str,
) {
    let l_hop = tracer.layer("core.transport.hop");
    let l_encode = tracer.layer("core.wire.encode");
    let l_decode = tracer.layer("core.wire.decode");
    let messages: Vec<Vec<Message>> = flights
        .iter()
        .map(|(p, t)| (0..HOPS_PER_FLIGHT).map(|h| frame_at(t, p, h)).collect())
        .collect();
    let endpoint = transport.bind("perf-probe").expect("probe endpoint binds");
    let mut link = transport
        .connect(endpoint.addr())
        .expect("probe link connects");
    let mut failed = 0u64;
    let mut frame_bytes = 0usize;
    let mut frames = 0usize;
    for (op, &(root, flow)) in roots.iter().enumerate() {
        for msg in &messages[flow] {
            let (hop, arrived) = tracer.span(l_hop, root, op as u32, || {
                link.send(msg).and_then(|()| endpoint.recv())
            });
            failed += u64::from(arrived.ok().as_ref() != Some(msg));
            let (_, frame) = tracer.span(l_encode, hop, op as u32, || wire::encode(msg));
            let (_, back) = tracer.span(l_decode, hop, op as u32, || wire::decode(&frame));
            black_box(back.is_ok());
            frame_bytes += frame.len();
            frames += 1;
        }
    }
    out.count(frames as u64, failed);
    let lt = tracer.layers();
    out.layer("core.wire.encode_ns", lt["core.wire.encode"].mean_ns());
    out.layer("core.wire.decode_ns", lt["core.wire.decode"].mean_ns());
    out.layer(
        "core.wire.frame_bytes",
        frame_bytes as f64 / frames.max(1) as f64,
    );
    out.layer(hop_metric, lt["core.transport.hop"].mean_ns() / 1e3);
}

/// Mean microseconds of a controller round trip that reaches every worker
/// and moves no state: the `process_digests` barrier on an idle cluster.
pub fn control_rtt_us(out: &mut Outcome, tracer: &mut Tracer, handle: &mut ClusterHandle) {
    let layer = tracer.layer("core.cluster.control_rtt");
    let rounds = 64;
    let mut failed = 0u64;
    for op in 0..rounds {
        let (_, r) = tracer.span(layer, ROOT, op, || handle.process_digests());
        failed += u64::from(r.is_err());
    }
    out.count(u64::from(rounds), failed);
    out.layer(
        "core.cluster.control_rtt_us",
        tracer.layers()["core.cluster.control_rtt"].mean_ns() / 1e3,
    );
}
