//! Framed TCP transport: cluster members as real communicating peers.
//!
//! [`TcpTransport::bind`] opens a `TcpListener` (by default on an
//! OS-assigned localhost port) and spawns an accept loop; every accepted
//! connection gets a reader thread that reassembles length-prefixed frames
//! and their CRC trailers (validating magic, version and the [`MAX_PAYLOAD`]
//! bound **before** allocating) and feeds them into the endpoint's inbox.
//! [`connect`] opens a `TcpStream` with `TCP_NODELAY` so small control
//! frames don't sit in Nagle buffers behind data traffic.
//!
//! Lifecycle: reader threads exit when their socket closes or the inbox's
//! receiver is dropped. The accept thread is tied to the [`Endpoint`]: a
//! guard attached at bind time sets a stop flag and self-connects on drop,
//! waking `accept(2)` so the loop observes the flag, returns, and releases
//! the listener socket — long-lived processes that spawn many clusters do
//! not accumulate parked accept threads.
//!
//! [`MAX_PAYLOAD`]: super::wire::MAX_PAYLOAD
//! [`connect`]: TcpTransport::connect

use super::wire::{payload_len, HEADER_LEN, TRAILER_LEN};
use super::{Endpoint, FrameSink, Link, PeerAddr, Transport, TransportError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread;

/// Transport whose links are real TCP connections carrying the framed wire
/// format.
#[derive(Debug)]
pub struct TcpTransport {
    bind_host: String,
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport::new()
    }
}

impl TcpTransport {
    /// Binds endpoints on `127.0.0.1` with OS-assigned ports.
    pub fn new() -> Self {
        TcpTransport {
            bind_host: "127.0.0.1".to_string(),
        }
    }

    /// Binds endpoints on a specific host (e.g. `0.0.0.0` to accept
    /// workers from other machines).
    pub fn with_host(host: &str) -> Self {
        TcpTransport {
            bind_host: host.to_string(),
        }
    }
}

/// Reads frames off one accepted connection until EOF, socket error, a
/// malformed header, or the inbox going away.
fn pump_frames(mut stream: TcpStream, tx: Sender<Vec<u8>>) {
    let mut header = [0u8; HEADER_LEN];
    loop {
        if stream.read_exact(&mut header).is_err() {
            return; // EOF or reset: the peer is done.
        }
        let len = match payload_len(&header) {
            Ok(len) => len,
            Err(_) => return, // Corrupt stream: drop the connection.
        };
        let mut frame = vec![0u8; HEADER_LEN + len + TRAILER_LEN];
        frame[..HEADER_LEN].copy_from_slice(&header);
        if stream.read_exact(&mut frame[HEADER_LEN..]).is_err() {
            return;
        }
        if tx.send(frame).is_err() {
            return; // Endpoint dropped: nobody is listening.
        }
    }
}

/// Shuts the accept loop down with the endpoint it serves: sets the stop
/// flag, then self-connects so the thread parked in `accept(2)` wakes up,
/// observes the flag and drops the listener.
struct AcceptGuard {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl Drop for AcceptGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

struct TcpSink(TcpStream);

impl FrameSink for TcpSink {
    fn send_frame(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.0
            .write_all(&frame)
            .map_err(|e| TransportError::Io(e.to_string()))
    }
}

impl Transport for TcpTransport {
    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn bind(&mut self, _label: &str) -> Result<Endpoint, TransportError> {
        let listener = TcpListener::bind((self.bind_host.as_str(), 0))
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let (tx, rx) = channel();
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    return; // Returning drops the listener and its port.
                }
                let Ok(stream) = conn else { return };
                let tx = tx.clone();
                thread::spawn(move || pump_frames(stream, tx));
            }
        });
        Ok(Endpoint::from_parts(PeerAddr::Tcp(addr.to_string()), rx)
            .with_guard(Box::new(AcceptGuard { addr, stop })))
    }

    fn connect(&mut self, peer: &PeerAddr) -> Result<Link, TransportError> {
        match peer {
            PeerAddr::Tcp(addr) => {
                let stream =
                    TcpStream::connect(addr).map_err(|e| TransportError::Io(e.to_string()))?;
                let _ = stream.set_nodelay(true);
                Ok(Link::from_sink(Box::new(TcpSink(stream))))
            }
            other => Err(TransportError::UnsupportedPeer(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::wire::{ControlMsg, Message, TelemetryMsg};

    #[test]
    fn frames_cross_a_real_socket() {
        let mut t = TcpTransport::new();
        let ep = t.bind("w0").unwrap();
        let mut link = t.connect(&ep.addr().clone()).unwrap();
        link.send(&Message::Control(ControlMsg::AdvanceTime {
            seq: 2,
            ticks: 5,
        }))
        .unwrap();
        link.send(&Message::Telemetry(TelemetryMsg::Ack { seq: 2, info: 0 }))
            .unwrap();
        assert_eq!(
            ep.recv().unwrap(),
            Message::Control(ControlMsg::AdvanceTime { seq: 2, ticks: 5 })
        );
        assert_eq!(
            ep.recv().unwrap(),
            Message::Telemetry(TelemetryMsg::Ack { seq: 2, info: 0 })
        );
    }

    #[test]
    fn two_links_multiplex_into_one_inbox() {
        let mut t = TcpTransport::new();
        let ep = t.bind("w0").unwrap();
        let mut a = t.connect(&ep.addr().clone()).unwrap();
        let mut b = t.connect(&ep.addr().clone()).unwrap();
        a.send(&Message::Control(ControlMsg::Shutdown { seq: 2 }))
            .unwrap();
        b.send(&Message::Control(ControlMsg::Shutdown { seq: 4 }))
            .unwrap();
        let mut seqs = vec![];
        for _ in 0..2 {
            if let Message::Control(ControlMsg::Shutdown { seq }) = ep.recv().unwrap() {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        assert_eq!(seqs, vec![2, 4]);
    }

    #[test]
    fn dropping_the_endpoint_stops_the_accept_loop() {
        let mut t = TcpTransport::new();
        let ep = t.bind("w0").unwrap();
        let PeerAddr::Tcp(addr) = ep.addr().clone() else {
            unreachable!("tcp transport binds tcp addresses")
        };
        drop(ep);
        // The guard wakes accept(2); once the loop exits the listener is
        // gone and fresh connections are refused. Poll briefly — the
        // accept thread needs a moment to observe the flag.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while TcpStream::connect(&addr).is_ok() {
            assert!(
                std::time::Instant::now() < deadline,
                "accept loop still alive after endpoint drop"
            );
            thread::sleep(std::time::Duration::from_millis(10));
        }
    }
}
