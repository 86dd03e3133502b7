//! Versioned, length-prefixed wire format for the cluster runtime.
//!
//! Every byte that crosses a [`super::Link`] — over an in-memory channel or
//! a real TCP socket — is one *frame*:
//!
//! ```text
//! ┌─────────┬─────────┬─────────┬───────────┬──────────────┐
//! │ magic   │ version │ class   │ len (BE)  │ payload      │
//! │ u16     │ u8      │ u8      │ u32       │ `len` bytes  │
//! └─────────┴─────────┴─────────┴───────────┴──────────────┘
//! ```
//!
//! Three message classes ride the same framing:
//!
//! | class | direction            | contents                                 |
//! |-------|----------------------|------------------------------------------|
//! | 0     | along the chain      | [`DataMsg`] — a packet hopping switches  |
//! | 1     | controller → worker  | [`ControlMsg`] — installs, timeouts, …   |
//! | 2     | worker → controller  | [`TelemetryMsg`] — digests, metrics, …   |
//!
//! Decoding is total: a truncated, oversized, or malformed frame yields a
//! typed [`WireError`], never a panic. Unknown versions and classes are
//! rejected up front so future format revisions fail loudly instead of
//! misparsing.
//!
//! # Version 2: dynamic state is typed
//!
//! [`ControlMsg::RestoreState`] and [`TelemetryMsg::Snapshot`] carry a
//! [`StateSnapshot`] in the frame format itself (version 1 carried its JSON
//! text in a string field), laid out with the same primitives as every other
//! message — big-endian integers, `u32` counts, length-prefixed strings:
//!
//! ```text
//! snapshot := version:u32 program:str clock:u64
//!             n:u32 { name:str idle_timeout:opt_u64 n:u32 { entry } }   tables
//!             n:u32 { name:str n:u32 { cell:u128 } }                    registers
//! entry    := n:u32 { key_match } action:str n:u32 { value } priority:i32
//! ```
//!
//! `entry` is the encoding `Install` and `Evictions` already use. A snapshot
//! whose `version` is not [`SNAPSHOT_FORMAT_VERSION`] is a
//! [`WireError::BadValue`], and a frame cut inside it is
//! [`WireError::Truncated`] — never a shorter snapshot.
//!
//! State is typed because it sits inside the migration window (ingress is
//! parked from PAUSE to RESUME while every learned flow crosses a link
//! twice) and because a snapshot that fails to parse must fail the verb, not
//! vanish. [`TelemetryMsg::Metrics`] stays JSON text on purpose: a scrape is
//! off the packet path, its payload *is* the telemetry export format, and
//! the parser that reads it back is linear.

use dejavu_asic::state::{RegisterSnapshot, TableSnapshot, SNAPSHOT_FORMAT_VERSION};
use dejavu_asic::switch::Disposition;
use dejavu_asic::tables::{DigestRecord, Eviction};
use dejavu_asic::{Gress, PipeletId, PortId, StateSnapshot};
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::Value;
use std::fmt;

/// First two bytes of every frame.
pub const WIRE_MAGIC: u16 = 0xDEFA;
/// Current wire-format revision. Bump on any incompatible layout change.
pub const WIRE_VERSION: u8 = 2;
/// Fixed frame header size: magic + version + class + payload length.
pub const HEADER_LEN: usize = 8;
/// Upper bound on one frame's payload (16 MiB): a decoder confronted with a
/// longer length prefix rejects the frame instead of allocating unbounded
/// memory on behalf of a corrupt or hostile peer.
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// Typed wire-format failure. Every malformed input maps to one of these —
/// the decoder never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the structure requires.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The frame did not start with [`WIRE_MAGIC`].
    BadMagic(u16),
    /// The frame's version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// The class byte names no known message class.
    UnknownClass(u8),
    /// A message tag within a class is unknown.
    UnknownTag {
        /// The message class the tag appeared in.
        class: u8,
        /// The unknown tag.
        tag: u8,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Overlength {
        /// Claimed payload length.
        len: usize,
        /// The allowed maximum.
        max: usize,
    },
    /// Bytes were left over after the payload decoded completely.
    TrailingBytes {
        /// Number of undecoded trailing bytes.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A field carried a semantically invalid value.
    BadValue(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownClass(c) => write!(f, "unknown message class {c}"),
            WireError::UnknownTag { class, tag } => {
                write!(f, "unknown tag {tag} in class {class}")
            }
            WireError::Overlength { len, max } => {
                write!(f, "payload length {len} exceeds maximum {max}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadValue(m) => write!(f, "bad value: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Message model
// ---------------------------------------------------------------------

/// Anything that can cross a cluster link.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A packet in flight between switches (class 0).
    Data(DataMsg),
    /// A control command, controller → worker (class 1).
    Control(ControlMsg),
    /// Telemetry/digest upstream, worker → controller (class 2).
    Telemetry(TelemetryMsg),
}

/// Per-switch execution summary accumulated as a packet crosses the
/// cluster — the wire-friendly projection of a full
/// [`Traversal`](dejavu_asic::Traversal).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HopSummary {
    /// Cluster index of the switch this hop ran on.
    pub switch: u32,
    /// Latency this switch contributed, in nanoseconds.
    pub latency_ns: f64,
    /// On-chip recirculations taken on this switch.
    pub recirculations: u32,
    /// Resubmissions taken on this switch.
    pub resubmissions: u32,
    /// Tables applied, in order (merged names).
    pub tables_applied: Vec<String>,
    /// Tables that hit an entry.
    pub tables_hit: Vec<String>,
}

/// A packet hopping along the inter-switch wiring. The message accumulates
/// its own flight record: each worker appends a [`HopSummary`] and adds its
/// latency before forwarding, so the packet arrives at the far end carrying
/// the whole story (in-band, like an INT postcard).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataMsg {
    /// Correlation id assigned at ingress (odd by convention, so it can
    /// never collide with controller sequence numbers, which are even).
    pub trace: u64,
    /// Port the packet arrives on at the receiving switch.
    pub port: PortId,
    /// Latency accumulated so far, including cable hops.
    pub latency_ns: f64,
    /// Inter-switch wire hops taken so far.
    pub inter_switch_hops: u32,
    /// Per-switch summaries, in visit order.
    pub hops: Vec<HopSummary>,
    /// Current wire bytes.
    pub bytes: Vec<u8>,
}

/// Control commands, controller → worker. Every command carries an even
/// sequence number the worker echoes in its reply ([`TelemetryMsg::Ack`] /
/// [`TelemetryMsg::Nack`] or a command-specific response).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Install a table entry through the NF's original API view.
    Install {
        /// Reply correlation.
        seq: u64,
        /// NF name (the NF's own view).
        nf: String,
        /// Table name (the NF's own view).
        table: String,
        /// The entry to install.
        entry: TableEntry,
    },
    /// Remove a previously installed entry.
    Remove {
        /// Reply correlation.
        seq: u64,
        /// NF name.
        nf: String,
        /// Table name.
        table: String,
        /// The entry to remove (matched exactly).
        entry: TableEntry,
    },
    /// Set or clear a table's idle timeout.
    SetIdleTimeout {
        /// Reply correlation.
        seq: u64,
        /// NF name.
        nf: String,
        /// Table name.
        table: String,
        /// Timeout in ticks; `None` disables aging.
        ticks: Option<u64>,
    },
    /// Advance the switch's logical clock. Replies with
    /// [`TelemetryMsg::Evictions`].
    AdvanceTime {
        /// Reply correlation.
        seq: u64,
        /// Ticks to advance.
        ticks: u64,
    },
    /// Flush the switch's digest queues upstream now. The worker sends any
    /// pending [`TelemetryMsg::Digests`] followed by
    /// [`TelemetryMsg::DrainDone`] — the barrier the synchronous facade's
    /// `process_digests` builds on.
    DrainDigests {
        /// Reply correlation.
        seq: u64,
    },
    /// Capture and return the switch's metrics snapshot
    /// ([`TelemetryMsg::Metrics`]).
    ScrapeMetrics {
        /// Reply correlation.
        seq: u64,
    },
    /// Snapshot the dynamic state of every loaded pipelet
    /// ([`TelemetryMsg::Snapshot`]).
    SnapshotState {
        /// Reply correlation.
        seq: u64,
    },
    /// Restore a state snapshot onto one pipelet. Acked with the number of
    /// entries restored.
    RestoreState {
        /// Reply correlation.
        seq: u64,
        /// Target pipelet.
        pipelet: PipeletId,
        /// The state to restore, in the frame format (module docs).
        snapshot: StateSnapshot,
    },
    /// Swap in the member staged on the worker's in-process side channel
    /// (see [`SwitchWorker::swap_rx`](super::worker::SwitchWorker)): the
    /// worker replaces its switch and deployment with the staged pair and
    /// acks. The re-placement orchestrator uses this to install a new
    /// cluster-wide placement without restarting workers; a worker with no
    /// staged member (e.g. a genuinely remote process, which has no side
    /// channel) nacks instead of guessing.
    SwapMember {
        /// Reply correlation.
        seq: u64,
    },
    /// Stop the worker's event loop. Acked before the worker exits.
    Shutdown {
        /// Reply correlation.
        seq: u64,
    },
}

impl ControlMsg {
    /// The command's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            ControlMsg::Install { seq, .. }
            | ControlMsg::Remove { seq, .. }
            | ControlMsg::SetIdleTimeout { seq, .. }
            | ControlMsg::AdvanceTime { seq, .. }
            | ControlMsg::DrainDigests { seq }
            | ControlMsg::ScrapeMetrics { seq }
            | ControlMsg::SnapshotState { seq }
            | ControlMsg::RestoreState { seq, .. }
            | ControlMsg::SwapMember { seq }
            | ControlMsg::Shutdown { seq } => *seq,
        }
    }
}

/// Telemetry and replies, worker → controller.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryMsg {
    /// Generic success reply. `info` is command-specific (e.g. 1 when an
    /// install landed, 0 when it was an idempotent duplicate).
    Ack {
        /// Echoed command sequence number.
        seq: u64,
        /// Command-specific detail.
        info: u64,
    },
    /// Generic failure reply. For data-plane failures `seq` echoes the
    /// packet's trace id instead of a command sequence number.
    Nack {
        /// Echoed sequence number or trace id.
        seq: u64,
        /// Human-readable error.
        error: String,
    },
    /// Digests drained from the switch's learn queues, pushed upstream
    /// eagerly (not waiting for a poll): `(pipeline, record)` pairs.
    Digests {
        /// Cluster index of the emitting switch.
        switch: u32,
        /// Drained digests with the pipeline that queued them.
        records: Vec<(u32, DigestRecord)>,
    },
    /// Barrier marker: all digests queued before the matching
    /// [`ControlMsg::DrainDigests`] have been pushed upstream.
    DrainDone {
        /// Echoed command sequence number.
        seq: u64,
        /// Digests flushed by this drain (not counting earlier eager pushes).
        digests: u64,
    },
    /// A metrics snapshot, JSON-encoded with the telemetry exporter.
    Metrics {
        /// Echoed command sequence number.
        seq: u64,
        /// `dejavu_telemetry` JSON snapshot.
        json: String,
    },
    /// Per-pipelet state snapshots, in the frame format (module docs).
    Snapshot {
        /// Echoed command sequence number.
        seq: u64,
        /// `(pipelet, snapshot)` for every loaded pipelet with state.
        items: Vec<(PipeletId, StateSnapshot)>,
    },
    /// Entries evicted by an [`ControlMsg::AdvanceTime`] sweep.
    Evictions {
        /// Echoed command sequence number.
        seq: u64,
        /// Evictions with the pipelet they aged out on.
        evictions: Vec<(PipeletId, Eviction)>,
    },
    /// A packet finished its cluster flight on this worker: it was emitted
    /// on an unwired port (left the cluster), dropped, or punted.
    Delivered {
        /// Final fate.
        disposition: Disposition,
        /// The flight record: final bytes, total latency, all hops.
        data: DataMsg,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

const CLASS_DATA: u8 = 0;
const CLASS_CONTROL: u8 = 1;
const CLASS_TELEMETRY: u8 = 2;

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn value(&mut self, v: Value) {
        self.u16(v.bits());
        self.u128(v.raw());
    }
    fn values(&mut self, vs: &[Value]) {
        self.u32(vs.len() as u32);
        for v in vs {
            self.value(*v);
        }
    }
    fn strings(&mut self, ss: &[String]) {
        self.u32(ss.len() as u32);
        for s in ss {
            self.str(s);
        }
    }
    fn key_match(&mut self, m: &KeyMatch) {
        match m {
            KeyMatch::Exact(v) => {
                self.u8(0);
                self.value(*v);
            }
            KeyMatch::Ternary(v, mask) => {
                self.u8(1);
                self.value(*v);
                self.value(*mask);
            }
            KeyMatch::Lpm(prefix, len) => {
                self.u8(2);
                self.value(*prefix);
                self.u16(*len);
            }
            KeyMatch::Range(lo, hi) => {
                self.u8(3);
                self.value(*lo);
                self.value(*hi);
            }
            KeyMatch::Any => self.u8(4),
        }
    }
    fn entry(&mut self, e: &TableEntry) {
        self.u32(e.matches.len() as u32);
        for m in &e.matches {
            self.key_match(m);
        }
        self.str(&e.action);
        self.values(&e.action_args);
        self.i32(e.priority);
    }
    fn snapshot(&mut self, s: &StateSnapshot) {
        self.u32(s.version);
        self.str(&s.program);
        self.u64(s.clock);
        self.u32(s.tables.len() as u32);
        for t in &s.tables {
            self.str(&t.name);
            self.opt_u64(t.idle_timeout);
            self.u32(t.entries.len() as u32);
            for e in &t.entries {
                self.entry(e);
            }
        }
        self.u32(s.registers.len() as u32);
        for r in &s.registers {
            self.str(&r.name);
            self.u32(r.cells.len() as u32);
            for c in &r.cells {
                self.u128(*c);
            }
        }
    }
    fn pipelet(&mut self, p: PipeletId) {
        self.u8(match p.gress {
            Gress::Ingress => 0,
            Gress::Egress => 1,
        });
        self.u32(p.pipeline as u32);
    }
    fn disposition(&mut self, d: Disposition) {
        match d {
            Disposition::Emitted { port } => {
                self.u8(0);
                self.u16(port);
            }
            Disposition::Dropped => self.u8(1),
            Disposition::ToCpu => self.u8(2),
        }
    }
    fn hop(&mut self, h: &HopSummary) {
        self.u32(h.switch);
        self.f64(h.latency_ns);
        self.u32(h.recirculations);
        self.u32(h.resubmissions);
        self.strings(&h.tables_applied);
        self.strings(&h.tables_hit);
    }
    fn data(&mut self, d: &DataMsg) {
        self.u64(d.trace);
        self.u16(d.port);
        self.f64(d.latency_ns);
        self.u32(d.inter_switch_hops);
        self.u32(d.hops.len() as u32);
        for h in &d.hops {
            self.hop(h);
        }
        self.bytes(&d.bytes);
    }
    fn digest(&mut self, r: &DigestRecord) {
        self.str(&r.name);
        self.values(&r.values);
    }
}

/// Encodes a message into a complete frame (header + payload).
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut e = Enc::new();
    let class = match msg {
        Message::Data(d) => {
            e.data(d);
            CLASS_DATA
        }
        Message::Control(c) => {
            match c {
                ControlMsg::Install {
                    seq,
                    nf,
                    table,
                    entry,
                } => {
                    e.u8(0);
                    e.u64(*seq);
                    e.str(nf);
                    e.str(table);
                    e.entry(entry);
                }
                ControlMsg::Remove {
                    seq,
                    nf,
                    table,
                    entry,
                } => {
                    e.u8(1);
                    e.u64(*seq);
                    e.str(nf);
                    e.str(table);
                    e.entry(entry);
                }
                ControlMsg::SetIdleTimeout {
                    seq,
                    nf,
                    table,
                    ticks,
                } => {
                    e.u8(2);
                    e.u64(*seq);
                    e.str(nf);
                    e.str(table);
                    e.opt_u64(*ticks);
                }
                ControlMsg::AdvanceTime { seq, ticks } => {
                    e.u8(3);
                    e.u64(*seq);
                    e.u64(*ticks);
                }
                ControlMsg::DrainDigests { seq } => {
                    e.u8(4);
                    e.u64(*seq);
                }
                ControlMsg::ScrapeMetrics { seq } => {
                    e.u8(5);
                    e.u64(*seq);
                }
                ControlMsg::SnapshotState { seq } => {
                    e.u8(6);
                    e.u64(*seq);
                }
                ControlMsg::RestoreState {
                    seq,
                    pipelet,
                    snapshot,
                } => {
                    e.u8(7);
                    e.u64(*seq);
                    e.pipelet(*pipelet);
                    e.snapshot(snapshot);
                }
                ControlMsg::Shutdown { seq } => {
                    e.u8(8);
                    e.u64(*seq);
                }
                ControlMsg::SwapMember { seq } => {
                    e.u8(9);
                    e.u64(*seq);
                }
            }
            CLASS_CONTROL
        }
        Message::Telemetry(t) => {
            match t {
                TelemetryMsg::Ack { seq, info } => {
                    e.u8(0);
                    e.u64(*seq);
                    e.u64(*info);
                }
                TelemetryMsg::Nack { seq, error } => {
                    e.u8(1);
                    e.u64(*seq);
                    e.str(error);
                }
                TelemetryMsg::Digests { switch, records } => {
                    e.u8(2);
                    e.u32(*switch);
                    e.u32(records.len() as u32);
                    for (pipeline, r) in records {
                        e.u32(*pipeline);
                        e.digest(r);
                    }
                }
                TelemetryMsg::DrainDone { seq, digests } => {
                    e.u8(3);
                    e.u64(*seq);
                    e.u64(*digests);
                }
                TelemetryMsg::Metrics { seq, json } => {
                    e.u8(4);
                    e.u64(*seq);
                    e.str(json);
                }
                TelemetryMsg::Snapshot { seq, items } => {
                    e.u8(5);
                    e.u64(*seq);
                    e.u32(items.len() as u32);
                    for (p, snapshot) in items {
                        e.pipelet(*p);
                        e.snapshot(snapshot);
                    }
                }
                TelemetryMsg::Evictions { seq, evictions } => {
                    e.u8(6);
                    e.u64(*seq);
                    e.u32(evictions.len() as u32);
                    for (p, ev) in evictions {
                        e.pipelet(*p);
                        e.str(&ev.table);
                        e.entry(&ev.entry);
                    }
                }
                TelemetryMsg::Delivered { disposition, data } => {
                    e.u8(7);
                    e.disposition(*disposition);
                    e.data(data);
                }
            }
            CLASS_TELEMETRY
        }
    };
    let payload = e.buf;
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&WIRE_MAGIC.to_be_bytes());
    frame.push(WIRE_VERSION);
    frame.push(class);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    frame
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated {
                needed: self.pos + n,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("len 2")))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_be_bytes(
            self.take(16)?.try_into().expect("len 16"),
        ))
    }
    fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_be_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Length prefix for a variable-size field, bounded by the bytes that
    /// actually remain so a corrupt prefix cannot trigger a huge allocation.
    fn len(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n > remaining {
            return Err(WireError::Truncated {
                needed: self.pos + n,
                have: self.buf.len(),
            });
        }
        Ok(n)
    }
    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }
    fn str(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|_| WireError::BadUtf8)
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            other => Err(WireError::BadValue(format!("option flag {other}"))),
        }
    }
    fn value(&mut self) -> Result<Value, WireError> {
        let bits = self.u16()?;
        let raw = self.u128()?;
        // `Value::new` asserts its width; a corrupt one is a typed error.
        if !(1..=128).contains(&bits) {
            return Err(WireError::BadValue(format!("value width {bits}")));
        }
        Ok(Value::new(raw, bits))
    }
    fn values(&mut self) -> Result<Vec<Value>, WireError> {
        // Each value occupies 18 bytes; `len` alone cannot bound the count.
        let n = self.u32()? as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }
    fn strings(&mut self) -> Result<Vec<String>, WireError> {
        let n = self.u32()? as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.str()?);
        }
        Ok(out)
    }
    fn key_match(&mut self) -> Result<KeyMatch, WireError> {
        Ok(match self.u8()? {
            0 => KeyMatch::Exact(self.value()?),
            1 => KeyMatch::Ternary(self.value()?, self.value()?),
            2 => KeyMatch::Lpm(self.value()?, self.u16()?),
            3 => KeyMatch::Range(self.value()?, self.value()?),
            4 => KeyMatch::Any,
            other => return Err(WireError::BadValue(format!("key match kind {other}"))),
        })
    }
    fn entry(&mut self) -> Result<TableEntry, WireError> {
        let n = self.u32()? as usize;
        let mut matches = Vec::new();
        for _ in 0..n {
            matches.push(self.key_match()?);
        }
        let action = self.str()?;
        let action_args = self.values()?;
        let priority = self.i32()?;
        Ok(TableEntry {
            matches,
            action,
            action_args,
            priority,
        })
    }
    /// Every count is consumed item by item against the bytes that remain
    /// (as in [`Dec::values`]), so a corrupt count cannot allocate.
    fn snapshot(&mut self) -> Result<StateSnapshot, WireError> {
        let version = self.u32()?;
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(WireError::BadValue(format!(
                "unsupported snapshot version {version} (this build reads {SNAPSHOT_FORMAT_VERSION})"
            )));
        }
        let program = self.str()?;
        let clock = self.u64()?;
        let mut tables = Vec::new();
        for _ in 0..self.u32()? {
            let name = self.str()?;
            let idle_timeout = self.opt_u64()?;
            let mut entries = Vec::new();
            for _ in 0..self.u32()? {
                entries.push(self.entry()?);
            }
            tables.push(TableSnapshot {
                name,
                idle_timeout,
                entries,
            });
        }
        let mut registers = Vec::new();
        for _ in 0..self.u32()? {
            let name = self.str()?;
            let mut cells = Vec::new();
            for _ in 0..self.u32()? {
                cells.push(self.u128()?);
            }
            registers.push(RegisterSnapshot { name, cells });
        }
        Ok(StateSnapshot {
            version,
            program,
            clock,
            tables,
            registers,
        })
    }
    fn pipelet(&mut self) -> Result<PipeletId, WireError> {
        let gress = match self.u8()? {
            0 => Gress::Ingress,
            1 => Gress::Egress,
            other => return Err(WireError::BadValue(format!("gress {other}"))),
        };
        let pipeline = self.u32()? as usize;
        Ok(PipeletId { pipeline, gress })
    }
    fn disposition(&mut self) -> Result<Disposition, WireError> {
        Ok(match self.u8()? {
            0 => Disposition::Emitted { port: self.u16()? },
            1 => Disposition::Dropped,
            2 => Disposition::ToCpu,
            other => return Err(WireError::BadValue(format!("disposition {other}"))),
        })
    }
    fn hop(&mut self) -> Result<HopSummary, WireError> {
        Ok(HopSummary {
            switch: self.u32()?,
            latency_ns: self.f64()?,
            recirculations: self.u32()?,
            resubmissions: self.u32()?,
            tables_applied: self.strings()?,
            tables_hit: self.strings()?,
        })
    }
    fn data(&mut self) -> Result<DataMsg, WireError> {
        let trace = self.u64()?;
        let port = self.u16()?;
        let latency_ns = self.f64()?;
        let inter_switch_hops = self.u32()?;
        let n = self.u32()? as usize;
        let mut hops = Vec::new();
        for _ in 0..n {
            hops.push(self.hop()?);
        }
        let bytes = self.bytes()?;
        Ok(DataMsg {
            trace,
            port,
            latency_ns,
            inter_switch_hops,
            hops,
            bytes,
        })
    }
    fn digest(&mut self) -> Result<DigestRecord, WireError> {
        Ok(DigestRecord {
            name: self.str()?,
            values: self.values()?,
        })
    }
}

/// Validates a frame header and returns the payload length it announces.
/// Used by stream transports to know how many more bytes to read.
pub fn payload_len(header: &[u8]) -> Result<usize, WireError> {
    if header.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: header.len(),
        });
    }
    let magic = u16::from_be_bytes([header[0], header[1]]);
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if header[2] != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(header[2]));
    }
    let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Overlength {
            len,
            max: MAX_PAYLOAD,
        });
    }
    Ok(len)
}

/// Decodes one complete frame (header + payload) into a [`Message`].
pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
    let len = payload_len(frame)?;
    let class = frame[3];
    let body = &frame[HEADER_LEN..];
    if body.len() < len {
        return Err(WireError::Truncated {
            needed: HEADER_LEN + len,
            have: frame.len(),
        });
    }
    if body.len() > len {
        return Err(WireError::TrailingBytes {
            extra: body.len() - len,
        });
    }
    let mut d = Dec::new(body);
    let msg = match class {
        CLASS_DATA => Message::Data(d.data()?),
        CLASS_CONTROL => {
            let tag = d.u8()?;
            Message::Control(match tag {
                0 => ControlMsg::Install {
                    seq: d.u64()?,
                    nf: d.str()?,
                    table: d.str()?,
                    entry: d.entry()?,
                },
                1 => ControlMsg::Remove {
                    seq: d.u64()?,
                    nf: d.str()?,
                    table: d.str()?,
                    entry: d.entry()?,
                },
                2 => ControlMsg::SetIdleTimeout {
                    seq: d.u64()?,
                    nf: d.str()?,
                    table: d.str()?,
                    ticks: d.opt_u64()?,
                },
                3 => ControlMsg::AdvanceTime {
                    seq: d.u64()?,
                    ticks: d.u64()?,
                },
                4 => ControlMsg::DrainDigests { seq: d.u64()? },
                5 => ControlMsg::ScrapeMetrics { seq: d.u64()? },
                6 => ControlMsg::SnapshotState { seq: d.u64()? },
                7 => ControlMsg::RestoreState {
                    seq: d.u64()?,
                    pipelet: d.pipelet()?,
                    snapshot: d.snapshot()?,
                },
                8 => ControlMsg::Shutdown { seq: d.u64()? },
                9 => ControlMsg::SwapMember { seq: d.u64()? },
                tag => {
                    return Err(WireError::UnknownTag {
                        class: CLASS_CONTROL,
                        tag,
                    })
                }
            })
        }
        CLASS_TELEMETRY => {
            let tag = d.u8()?;
            Message::Telemetry(match tag {
                0 => TelemetryMsg::Ack {
                    seq: d.u64()?,
                    info: d.u64()?,
                },
                1 => TelemetryMsg::Nack {
                    seq: d.u64()?,
                    error: d.str()?,
                },
                2 => {
                    let switch = d.u32()?;
                    let n = d.u32()? as usize;
                    let mut records = Vec::new();
                    for _ in 0..n {
                        let pipeline = d.u32()?;
                        records.push((pipeline, d.digest()?));
                    }
                    TelemetryMsg::Digests { switch, records }
                }
                3 => TelemetryMsg::DrainDone {
                    seq: d.u64()?,
                    digests: d.u64()?,
                },
                4 => TelemetryMsg::Metrics {
                    seq: d.u64()?,
                    json: d.str()?,
                },
                5 => {
                    let seq = d.u64()?;
                    let n = d.u32()? as usize;
                    let mut items = Vec::new();
                    for _ in 0..n {
                        let p = d.pipelet()?;
                        items.push((p, d.snapshot()?));
                    }
                    TelemetryMsg::Snapshot { seq, items }
                }
                6 => {
                    let seq = d.u64()?;
                    let n = d.u32()? as usize;
                    let mut evictions = Vec::new();
                    for _ in 0..n {
                        let p = d.pipelet()?;
                        let table = d.str()?;
                        let entry = d.entry()?;
                        evictions.push((p, Eviction { table, entry }));
                    }
                    TelemetryMsg::Evictions { seq, evictions }
                }
                7 => TelemetryMsg::Delivered {
                    disposition: d.disposition()?,
                    data: d.data()?,
                },
                tag => {
                    return Err(WireError::UnknownTag {
                        class: CLASS_TELEMETRY,
                        tag,
                    })
                }
            })
        }
        other => return Err(WireError::UnknownClass(other)),
    };
    if d.pos != body.len() {
        return Err(WireError::TrailingBytes {
            extra: body.len() - d.pos,
        });
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let frame = encode(&msg);
        let back = decode(&frame).expect("decodes");
        assert_eq!(msg, back);
    }

    #[test]
    fn data_roundtrip() {
        roundtrip(Message::Data(DataMsg {
            trace: 7,
            port: 13,
            latency_ns: 1234.5,
            inter_switch_hops: 2,
            hops: vec![HopSummary {
                switch: 1,
                latency_ns: 650.0,
                recirculations: 3,
                resubmissions: 1,
                tables_applied: vec!["a__t".into(), "b__t".into()],
                tables_hit: vec!["a__t".into()],
            }],
            bytes: vec![0xde, 0xad, 0xbe, 0xef],
        }));
    }

    #[test]
    fn control_roundtrip() {
        roundtrip(Message::Control(ControlMsg::Install {
            seq: 2,
            nf: "nat".into(),
            table: "nat_in".into(),
            entry: TableEntry {
                matches: vec![
                    KeyMatch::Exact(Value::new(0xc0a80001, 32)),
                    KeyMatch::Lpm(Value::new(10, 8), 8),
                    KeyMatch::Ternary(Value::new(6, 8), Value::new(0xff, 8)),
                    KeyMatch::Range(Value::new(1, 16), Value::new(1024, 16)),
                    KeyMatch::Any,
                ],
                action: "restore_dst".into(),
                action_args: vec![Value::new(0x0a010101, 32)],
                priority: -3,
            },
        }));
    }

    #[test]
    fn telemetry_roundtrip() {
        roundtrip(Message::Telemetry(TelemetryMsg::Digests {
            switch: 2,
            records: vec![(
                0,
                DigestRecord {
                    name: "nat__flow".into(),
                    values: vec![Value::new(1, 32), Value::new(2, 16)],
                },
            )],
        }));
    }

    #[test]
    fn truncated_and_garbage_are_typed_errors() {
        let frame = encode(&Message::Control(ControlMsg::Shutdown { seq: 4 }));
        for cut in 0..frame.len() {
            assert!(decode(&frame[..cut]).is_err(), "cut at {cut} must error");
        }
        assert_eq!(decode(&[0xff; 16]), Err(WireError::BadMagic(0xffff)));
        let mut wrong_version = frame.clone();
        wrong_version[2] = 9;
        assert_eq!(
            decode(&wrong_version),
            Err(WireError::UnsupportedVersion(9))
        );
        let mut extra = frame;
        extra.push(0);
        assert_eq!(decode(&extra), Err(WireError::TrailingBytes { extra: 1 }));
    }
}
