//! Pluggable cluster transports (ROADMAP: "cluster as real processes").
//!
//! The multi-switch runtime does not assume its members live in one call
//! stack. A [`Transport`] hands out connected endpoints; everything above it
//! — the per-switch [`worker`] state machines and the [`cluster`] control
//! plane — is transport-agnostic and speaks only the versioned,
//! length-prefixed [`wire`] format.
//!
//! Two implementations ship:
//!
//! * [`ChannelTransport`] — in-memory
//!   `std::sync::mpsc` channels. Dependency-free, used by the test suites
//!   and — privately — by the single-threaded reference cluster
//!   ([`cluster::deploy_cluster`]). Frames are still fully encoded and
//!   decoded, so the wire format is exercised on every run.
//! * [`TcpTransport`] — framed TCP over localhost (or
//!   any reachable address): each worker is a real thread owning one
//!   [`Switch`](dejavu_asic::Switch), and every message crosses a socket.
//!
//! The addressing model is deliberately minimal: [`Transport::bind`]
//! creates an [`Endpoint`] (one inbox, many senders — workers multiplex
//! data, control and telemetry on a single inbox, since frames are
//! self-describing), and [`Transport::connect`] opens a [`Link`] to a
//! previously bound endpoint's [`PeerAddr`].

pub mod channel;
pub mod cluster;
pub mod tcp;
pub mod wire;
pub mod worker;

pub use channel::ChannelTransport;
pub use cluster::{
    spawn_cluster, ClusterError, ClusterHandle, ClusterOptions, ClusterReport, ClusterScrape,
    Delivery, PerSwitchReport, WireTraversal,
};
pub use tcp::TcpTransport;
pub use wire::{ControlMsg, DataMsg, HopSummary, Message, TelemetryMsg, WireError};

use std::fmt;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::Duration;

/// Transport-layer failure.
#[derive(Debug)]
pub enum TransportError {
    /// A frame failed to encode or decode.
    Wire(WireError),
    /// The peer is gone (channel closed / socket reset).
    Disconnected,
    /// An OS-level I/O error (TCP only).
    Io(String),
    /// The peer address belongs to a different transport kind.
    UnsupportedPeer(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Wire(e) => write!(f, "wire: {e}"),
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::Io(e) => write!(f, "io: {e}"),
            TransportError::UnsupportedPeer(a) => write!(f, "unsupported peer address {a}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

/// Where a bound [`Endpoint`] can be reached from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerAddr {
    /// A named in-process channel (see [`channel::ChannelTransport`]).
    Channel(String),
    /// A TCP socket address, e.g. `127.0.0.1:49152`.
    Tcp(String),
}

impl fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerAddr::Channel(l) => write!(f, "channel://{l}"),
            PeerAddr::Tcp(a) => write!(f, "tcp://{a}"),
        }
    }
}

/// The receive half of one bound inbox. All links connected to this
/// endpoint's address deliver into the same queue; frames are
/// self-describing, so a worker needs exactly one endpoint for data,
/// control and everything else.
pub struct Endpoint {
    addr: PeerAddr,
    rx: Receiver<Vec<u8>>,
    /// Transport-specific resources tied to this inbox's lifetime (e.g. the
    /// TCP accept-loop shutdown handle); their `Drop` runs when the
    /// endpoint is dropped.
    _guard: Option<Box<dyn Send>>,
}

impl Endpoint {
    /// Builds an endpoint from a bound address and its frame queue.
    /// Transport implementations call this; user code receives endpoints
    /// from [`Transport::bind`].
    pub fn from_parts(addr: PeerAddr, rx: Receiver<Vec<u8>>) -> Self {
        Endpoint {
            addr,
            rx,
            _guard: None,
        }
    }

    /// Attaches a resource that must not outlive the endpoint — dropping
    /// the endpoint drops the guard, letting transports tear down listener
    /// threads and sockets instead of leaking them for the process
    /// lifetime.
    pub fn with_guard(mut self, guard: Box<dyn Send>) -> Self {
        self._guard = Some(guard);
        self
    }

    /// The address peers connect to.
    pub fn addr(&self) -> &PeerAddr {
        &self.addr
    }

    /// Blocks until one raw frame arrives. `Err(Disconnected)` when every
    /// sender is gone.
    pub fn recv_raw(&self) -> Result<Vec<u8>, TransportError> {
        self.rx.recv().map_err(|_| TransportError::Disconnected)
    }

    /// Blocks until one message arrives and decodes it.
    pub fn recv(&self) -> Result<Message, TransportError> {
        Ok(wire::decode(&self.recv_raw()?)?)
    }

    /// Waits up to `timeout` for a message; `Ok(None)` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(wire::decode(&frame)?)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    /// Non-blocking [`recv_raw`](Self::recv_raw); `Ok(None)` when the inbox
    /// is empty.
    pub fn try_recv_raw(&self) -> Result<Option<Vec<u8>>, TransportError> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    /// Non-blocking poll; `Ok(None)` when the inbox is empty.
    pub fn try_recv(&self) -> Result<Option<Message>, TransportError> {
        match self.try_recv_raw()? {
            Some(frame) => Ok(Some(wire::decode(&frame)?)),
            None => Ok(None),
        }
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// The send half of one connection: frames written here arrive at the
/// endpoint this link was connected to, in order.
pub struct Link {
    sink: Box<dyn FrameSink>,
}

impl Link {
    /// Wraps a transport-specific sink.
    pub fn from_sink(sink: Box<dyn FrameSink>) -> Self {
        Link { sink }
    }

    /// Encodes and sends one message. A frame whose payload exceeds
    /// [`wire::MAX_PAYLOAD`] is refused here, before a byte is written: the
    /// receiver would reject its header and (on a stream transport) drop
    /// the connection with it.
    pub fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        let frame = wire::encode(msg);
        let len = frame.len() - wire::HEADER_LEN;
        if len > wire::MAX_PAYLOAD {
            return Err(TransportError::Wire(WireError::Overlength {
                len,
                max: wire::MAX_PAYLOAD,
            }));
        }
        self.sink.send_frame(&frame)
    }
}

impl fmt::Debug for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Link").finish_non_exhaustive()
    }
}

/// Transport-specific frame writer backing a [`Link`].
pub trait FrameSink: Send {
    /// Delivers one already-encoded frame to the peer, preserving order
    /// with respect to previous frames on this link.
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError>;
}

/// A way to create endpoints and connect links between cluster members.
///
/// Contract (what [`worker`] and [`cluster`] rely on):
///
/// * frames sent on one link arrive **in order** and **intact** (the wire
///   format's framing is the unit of delivery);
/// * a link outlives the transport object — dropping the `Transport` after
///   wiring must not tear down established connections;
/// * delivery into an endpoint is multiplex-safe: any number of links may
///   target the same address concurrently.
pub trait Transport {
    /// Short human-readable kind, e.g. `"channel"` or `"tcp"`.
    fn kind(&self) -> &'static str;

    /// Binds a new inbox under `label` and returns its endpoint.
    fn bind(&mut self, label: &str) -> Result<Endpoint, TransportError>;

    /// Opens a link to a previously bound endpoint.
    fn connect(&mut self, peer: &PeerAddr) -> Result<Link, TransportError>;
}
