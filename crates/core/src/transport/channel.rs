//! In-memory transport over `std::sync::mpsc` channels.
//!
//! The deterministic reference implementation: zero OS surface, perfect
//! for tests, and still honest — every frame is fully encoded to bytes and
//! decoded again on arrival, so the wire format is on the hot path even in
//! unit tests.

use super::{Endpoint, FrameSink, Link, PeerAddr, Transport, TransportError};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Sender};

/// Transport whose "network" is a registry of named mpsc channels.
#[derive(Debug, Default)]
pub struct ChannelTransport {
    inboxes: BTreeMap<String, Sender<Vec<u8>>>,
}

impl ChannelTransport {
    /// A transport with no endpoints yet.
    pub fn new() -> Self {
        ChannelTransport::default()
    }
}

struct ChannelSink(Sender<Vec<u8>>);

impl FrameSink for ChannelSink {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.0
            .send(frame.to_vec())
            .map_err(|_| TransportError::Disconnected)
    }
}

impl Transport for ChannelTransport {
    fn kind(&self) -> &'static str {
        "channel"
    }

    fn bind(&mut self, label: &str) -> Result<Endpoint, TransportError> {
        let (tx, rx) = channel();
        self.inboxes.insert(label.to_string(), tx);
        Ok(Endpoint::from_parts(
            PeerAddr::Channel(label.to_string()),
            rx,
        ))
    }

    fn connect(&mut self, peer: &PeerAddr) -> Result<Link, TransportError> {
        match peer {
            PeerAddr::Channel(label) => {
                let tx = self
                    .inboxes
                    .get(label)
                    .ok_or_else(|| TransportError::UnsupportedPeer(peer.to_string()))?
                    .clone();
                Ok(Link::from_sink(Box::new(ChannelSink(tx))))
            }
            other => Err(TransportError::UnsupportedPeer(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::wire::{ControlMsg, Message};

    #[test]
    fn bind_connect_roundtrip() {
        let mut t = ChannelTransport::new();
        let ep = t.bind("w0").unwrap();
        let mut link = t.connect(&ep.addr().clone()).unwrap();
        link.send(&Message::Control(ControlMsg::Shutdown { seq: 2 }))
            .unwrap();
        let got = ep.recv().unwrap();
        assert_eq!(got, Message::Control(ControlMsg::Shutdown { seq: 2 }));
    }

    #[test]
    fn an_oversized_frame_is_refused_before_anything_is_written() {
        use crate::transport::wire::{WireError, MAX_PAYLOAD};
        use dejavu_asic::state::RegisterSnapshot;
        use dejavu_asic::{PipeletId, StateSnapshot};

        let mut t = ChannelTransport::new();
        let ep = t.bind("w0").unwrap();
        let mut link = t.connect(&ep.addr().clone()).unwrap();
        let mut snapshot = StateSnapshot::empty("p");
        snapshot.registers.push(RegisterSnapshot {
            name: "r".into(),
            cells: vec![0; MAX_PAYLOAD / 16 + 1],
        });
        let err = link
            .send(&Message::Control(ControlMsg::RestoreState {
                seq: 2,
                pipelet: PipeletId::ingress(0),
                snapshot,
            }))
            .unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::Wire(WireError::Overlength { len, max }) if len > max
            ),
            "got {err}"
        );
        assert_eq!(ep.try_recv().unwrap(), None, "nothing reached the peer");
    }

    #[test]
    fn connecting_to_unknown_label_fails() {
        let mut t = ChannelTransport::new();
        assert!(t.connect(&PeerAddr::Channel("ghost".into())).is_err());
        assert!(t.connect(&PeerAddr::Tcp("127.0.0.1:1".into())).is_err());
    }
}
