//! Versioned, length-prefixed wire format for the cluster runtime.
//!
//! Every byte that crosses a [`super::Link`] — over an in-memory channel or
//! a real TCP socket — is one *frame*:
//!
//! ```text
//! ┌─────────┬─────────┬─────────┬───────────┬──────────────┬───────────┐
//! │ magic   │ version │ class   │ len (BE)  │ payload      │ crc (BE)  │
//! │ u16     │ u8      │ u8      │ u32       │ `len` bytes  │ u32       │
//! └─────────┴─────────┴─────────┴───────────┴──────────────┴───────────┘
//! ```
//!
//! Three message classes ride the same framing:
//!
//! | class | direction            | contents                                 |
//! |-------|----------------------|------------------------------------------|
//! | 0     | along the chain      | [`DataMsg`] — a packet hopping switches  |
//! | 1     | controller → worker  | [`ControlMsg`] — installs, timeouts, …   |
//! | 2     | worker → controller  | [`TelemetryMsg`] — replies, deliveries … |
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
//! vanish.
//!
//! # Version 3: a hop is fixed-size
//!
//! A [`DataMsg`] carries one [`HopSummary`] per switch visited, and every
//! later hop re-encodes and re-decodes the ones before it. Version 2's hop
//! also listed the names of the tables applied and hit, so a frame grew
//! with every table each member ran. Version 3's hop is 20 bytes, whatever
//! the member ran — the in-band record stays a fixed-size header, like the
//! paper's `(pathID, serviceIndex)`:
//!
//! ```text
//! hop := switch:u32 latency_ns:f64 recirculations:u32 resubmissions:u32
//! ```
//!
//! Which tables a member applied, and whether they hit, is that member's
//! telemetry (`table_hits` / `table_misses`), not the packet's.
//!
//! # Version 4: every frame proves it arrived intact
//!
//! A frame ends in the big-endian CRC-32 of its header and payload
//! ([`dejavu_p4ir::action::crc32`], the data plane's `Hash` extern).
//! [`decode`] checks the header fields a stream reader needs (magic,
//! version, the [`MAX_PAYLOAD`] bound), then that one trailer follows the
//! payload, then the trailer; a frame that fails is [`WireError::Checksum`]
//! and no payload byte of it is read, so a flipped bit is a dropped frame,
//! never a valid, wrong message. It costs 4 bytes and one CRC pass per
//! side (measured in DESIGN.md, Wire format).
//! [`TelemetryMsg::Metrics`] carries a typed [`MetricsSnapshot`] (version
//! 3 carried JSON text), so nothing on the cluster path prints or parses
//! JSON; more than [`HISTOGRAM_BUCKETS`] buckets is refused unallocated:
//!
//! ```text
//! metrics := n:u32 { name:str kind:u8 (counter:u64 | gauge:i64
//!                    | count:u64 sum:u64 n:u32 { bucket:u64 }) }
//! ```
//!
//! # Version 5: a member learns its own digests
//!
//! A member learns a digest where it was emitted, so no digest crosses a
//! link (version 4's `Digests`, telemetry tag 2, is gone) and a learned
//! flow's outbound flight takes 3 frames, not 6. The policy crosses
//! instead, once per member ([`ControlMsg::RegisterLearnPolicy`], tag 10:
//! `nf stream table action:str`, then key and argument field lists of
//! `u32`), and [`TelemetryMsg::DrainDone`] carries the digests and installs
//! learned since the member's last drain.
//!
//! # Version 6: a swapped-in member arrives holding its state
//!
//! `ControlMsg::SwapMember` (tag 9) was `seq:u64 items`, every NF slice its
//! newcomer would host in [`TelemetryMsg::Snapshot`]'s `items := n:u32
//! { pipelet snapshot }`, so a migration sends no [`ControlMsg::RestoreState`].
//!
//! # Version 7: stage, then flip
//!
//! A migration's window carries only the slices of the NFs that change
//! members. [`ControlMsg::SnapshotSlices`] (tag 11, `seq:u64 n:u32 { nf:str
//! pipelet }`) asks an NF's old member for its slice, cut from its home
//! pipelet on the member; the reply is [`TelemetryMsg::Snapshot`], one item
//! per slice asked for, in the order asked. [`ControlMsg::Flip`] (tag 9,
//! `seq:u64 staged:u64 items`, in place of version 6's `SwapMember`) makes
//! the member staged under `staged` live, holding those slices and the
//! state of the NFs that stay on it, and [`ControlMsg::Retire`] (tag 12,
//! `seq:u64`) drops what the flip replaced, after the window.
//!
//! A value is as long as it is wide: `value := bits:u8` then its
//! `ceil(bits / 8)` bytes, big-endian (version 6 spent `bits:u16 raw:u128`,
//! 18 bytes, on every one). A learned NAT entry — two exact keys and one
//! argument — shrinks from 88 bytes to 52, and so does every frame
//! carrying entries (`Install`, `Evictions`, a snapshot), in proportion.

use crate::control_plane::LearnPolicy;
use dejavu_asic::state::{RegisterSnapshot, TableSnapshot, SNAPSHOT_FORMAT_VERSION};
use dejavu_asic::switch::Disposition;
use dejavu_asic::tables::Eviction;
use dejavu_asic::telemetry::{HistogramSnapshot, MetricValue, HISTOGRAM_BUCKETS};
use dejavu_asic::{Gress, MetricsSnapshot, PipeletId, PortId, StateSnapshot};
use dejavu_p4ir::action::crc32;
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::Value;
use std::fmt;

/// First two bytes of every frame.
pub const WIRE_MAGIC: u16 = 0xDEFA;
/// Current wire-format revision. Bump on any incompatible layout change.
pub const WIRE_VERSION: u8 = 7;
/// Fixed frame header size: magic + version + class + payload length.
pub const HEADER_LEN: usize = 8;
/// Fixed frame trailer size: the CRC-32 of header and payload.
pub const TRAILER_LEN: usize = 4;
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
    /// The trailer is not the CRC-32 of the header and payload.
    Checksum,
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
            WireError::Checksum => write!(f, "frame checksum mismatch"),
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
    /// Replies and deliveries upstream, worker → controller (class 2).
    Telemetry(TelemetryMsg),
}

/// Per-switch execution summary accumulated as a packet crosses the
/// cluster: the fixed-size projection of a
/// [`BufOutcome`](dejavu_asic::switch::BufOutcome) (20 bytes on the wire,
/// see the module docs). Per-table activity is the member's telemetry
/// (`table_hits` / `table_misses` in its metrics snapshot), not part of
/// the flight record.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HopSummary {
    /// Cluster index of the switch this hop ran on.
    pub switch: u32,
    /// Latency this switch contributed, in nanoseconds.
    pub latency_ns: f64,
    /// On-chip recirculations taken on this switch.
    pub recirculations: u32,
    /// Resubmissions taken on this switch.
    pub resubmissions: u32,
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
    /// Learn what the switch's digest queues still hold, and report what
    /// the member learned since its last drain
    /// ([`TelemetryMsg::DrainDone`]) — the synchronous facade's
    /// `process_digests`.
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
    /// Make the member staged on the worker's in-process side channel
    /// (see [`SwitchWorker::swap_rx`](super::worker::SwitchWorker)) live:
    /// the worker carries its telemetry setting and clock over to the
    /// staged switch, hands over the state of every NF both switches host
    /// (cut on the live switch, restored at the NF's new pipelet, no
    /// frame), restores `state` onto it, then adopts the staged pair,
    /// keeps the outgoing one as retired and acks with the entries
    /// restored; the ack re-points the controller's NF → member map. A
    /// restore that fails or drops anything, or no staged member (e.g. a
    /// remote process, which has no side channel), nacks instead.
    Flip {
        /// Reply correlation.
        seq: u64,
        /// The tag the member was staged under.
        staged: u64,
        /// `(pipelet, snapshot)` for every NF slice moving onto the member.
        state: Vec<(PipeletId, StateSnapshot)>,
    },
    /// Cut the slices of the named NFs, each from the pipelet beside it,
    /// and return just those ([`TelemetryMsg::Snapshot`]: one item per
    /// slice asked for, in the order asked, empty when the NF holds no
    /// state there).
    SnapshotSlices {
        /// Reply correlation.
        seq: u64,
        /// `(nf, pipelet)` for every slice wanted.
        slices: Vec<(String, PipeletId)>,
    },
    /// Drop the switch the last [`ControlMsg::Flip`] retired, and any
    /// member staged and never flipped. Acked.
    Retire {
        /// Reply correlation.
        seq: u64,
    },
    /// Stop the worker's event loop. Acked before the worker exits.
    Shutdown {
        /// Reply correlation.
        seq: u64,
    },
    /// Register the learn policy for an NF's digest stream on the member,
    /// replacing an earlier one for the same stream. Acked.
    RegisterLearnPolicy {
        /// Reply correlation.
        seq: u64,
        /// The NF that emits the stream and owns the policy's table.
        nf: String,
        /// The stream, in the NF's own naming.
        stream: String,
        /// How the stream's digests become entries.
        policy: LearnPolicy,
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
            | ControlMsg::Flip { seq, .. }
            | ControlMsg::SnapshotSlices { seq, .. }
            | ControlMsg::Retire { seq }
            | ControlMsg::Shutdown { seq }
            | ControlMsg::RegisterLearnPolicy { seq, .. } => *seq,
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
    /// The answer to [`ControlMsg::DrainDigests`]: every digest queued
    /// before it has been learned, and this is what the member learned
    /// since its previous drain.
    DrainDone {
        /// Echoed command sequence number.
        seq: u64,
        /// Digests a registered policy claimed.
        digests: u64,
        /// Entries they installed (idempotent re-learns excluded).
        installed: u64,
    },
    /// A metrics snapshot, in the frame format (module docs).
    Metrics {
        /// Echoed command sequence number.
        seq: u64,
        /// The member's [`Switch::metrics_snapshot`](dejavu_asic::Switch::metrics_snapshot).
        snapshot: MetricsSnapshot,
        /// Frames the member dropped because they did not decode.
        rejected_frames: u64,
    },
    /// State snapshots, in the frame format (module docs): the answer to
    /// [`ControlMsg::SnapshotState`] and [`ControlMsg::SnapshotSlices`].
    Snapshot {
        /// Echoed command sequence number.
        seq: u64,
        /// `(pipelet, snapshot)` for every loaded pipelet with state, or
        /// for every slice asked for, in the order asked.
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
        // A `Value` is 1..=128 bits wide, so its width fits a byte.
        let bytes = usize::from(v.bits()).div_ceil(8);
        self.u8(v.bits() as u8);
        self.buf
            .extend_from_slice(&v.raw().to_be_bytes()[16 - bytes..]);
    }
    /// A `u32` count, then each item.
    fn list<I>(&mut self, items: I, mut item: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.u32(items.len() as u32);
        items.for_each(|i| item(self, i));
    }
    fn values(&mut self, vs: &[Value]) {
        self.list(vs, |e, v| e.value(*v));
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
        self.list(&e.matches, Self::key_match);
        self.str(&e.action);
        self.values(&e.action_args);
        self.i32(e.priority);
    }
    fn snapshot(&mut self, s: &StateSnapshot) {
        self.u32(s.version);
        self.str(&s.program);
        self.u64(s.clock);
        self.list(&s.tables, |e, t| {
            e.str(&t.name);
            e.opt_u64(t.idle_timeout);
            e.list(&t.entries, Self::entry);
        });
        self.list(&s.registers, |e, r| {
            e.str(&r.name);
            e.list(&r.cells, |e, c| e.u128(*c));
        });
    }
    fn items(&mut self, items: &[(PipeletId, StateSnapshot)]) {
        self.list(items, |e, (p, snapshot)| {
            e.pipelet(*p);
            e.snapshot(snapshot);
        });
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
    }
    fn data(&mut self, d: &DataMsg) {
        self.u64(d.trace);
        self.u16(d.port);
        self.f64(d.latency_ns);
        self.u32(d.inter_switch_hops);
        self.list(&d.hops, Self::hop);
        self.bytes(&d.bytes);
    }
    fn metrics(&mut self, s: &MetricsSnapshot) {
        self.list(&s.metrics, |e, (name, value)| {
            e.str(name);
            let (kind, word) = match value {
                MetricValue::Counter(c) => (0, *c),
                MetricValue::Gauge(g) => (1, *g as u64),
                MetricValue::Histogram(h) => (2, h.count),
            };
            e.u8(kind);
            e.u64(word);
            if let MetricValue::Histogram(h) = value {
                e.u64(h.sum);
                e.list(&h.buckets, |e, b| e.u64(*b));
            }
        });
    }
}

/// Encodes a message into a complete frame (header + payload + trailer).
/// The header goes into the buffer first and its class and length are
/// patched in once the payload is written, so the payload is never copied.
pub fn encode(msg: &Message) -> Vec<u8> {
    // Room for a one-hop data frame: most frames never reallocate.
    let mut e = Enc {
        buf: Vec::with_capacity(128),
    };
    e.u16(WIRE_MAGIC);
    e.u8(WIRE_VERSION);
    e.u8(0); // Class, patched below.
    e.u32(0); // Payload length, patched below.
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
                ControlMsg::Flip { seq, staged, state } => {
                    e.u8(9);
                    e.u64(*seq);
                    e.u64(*staged);
                    e.items(state);
                }
                ControlMsg::SnapshotSlices { seq, slices } => {
                    e.u8(11);
                    e.u64(*seq);
                    e.list(slices, |e, (nf, p)| {
                        e.str(nf);
                        e.pipelet(*p);
                    });
                }
                ControlMsg::Retire { seq } => {
                    e.u8(12);
                    e.u64(*seq);
                }
                ControlMsg::RegisterLearnPolicy {
                    seq,
                    nf,
                    stream,
                    policy,
                } => {
                    e.u8(10);
                    e.u64(*seq);
                    e.str(nf);
                    e.str(stream);
                    e.str(&policy.table);
                    e.str(&policy.action);
                    for fields in [&policy.key_map, &policy.arg_map] {
                        e.list(fields, |e, i| e.u32(*i as u32));
                    }
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
                TelemetryMsg::DrainDone {
                    seq,
                    digests,
                    installed,
                } => {
                    e.u8(3);
                    e.u64(*seq);
                    e.u64(*digests);
                    e.u64(*installed);
                }
                TelemetryMsg::Metrics {
                    seq,
                    snapshot,
                    rejected_frames,
                } => {
                    e.u8(4);
                    e.u64(*seq);
                    e.u64(*rejected_frames);
                    e.metrics(snapshot);
                }
                TelemetryMsg::Snapshot { seq, items } => {
                    e.u8(5);
                    e.u64(*seq);
                    e.items(items);
                }
                TelemetryMsg::Evictions { seq, evictions } => {
                    e.u8(6);
                    e.u64(*seq);
                    e.list(evictions, |e, (p, ev)| {
                        e.pipelet(*p);
                        e.str(&ev.table);
                        e.entry(&ev.entry);
                    });
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
    let len = (e.buf.len() - HEADER_LEN) as u32;
    e.buf[3] = class;
    e.buf[4..HEADER_LEN].copy_from_slice(&len.to_be_bytes());
    e.u32(crc32(&e.buf));
    e.buf
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
        let bits = u16::from(self.u8()?);
        // `Value::new` asserts its width; a corrupt one is a typed error.
        if !(1..=128).contains(&bits) {
            return Err(WireError::BadValue(format!("value width {bits}")));
        }
        let bytes = self.take(usize::from(bits).div_ceil(8))?;
        let raw = bytes.iter().fold(0u128, |raw, &b| raw << 8 | u128::from(b));
        Ok(Value::new(raw, bits))
    }
    /// A `u32` count, then that many items, each decoded against the bytes
    /// that remain: a corrupt count fails at the first missing item instead
    /// of allocating for the items it claims. A list of more than four is
    /// given its room up front, for no more items than bytes remain and
    /// 1 024 at most; a shorter one grows as it is pushed, with room left
    /// for a hop the next member appends.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.u32()? as usize;
        let mut items = Vec::new();
        if n > 4 {
            items.reserve_exact(n.min(self.buf.len() - self.pos).min(1024));
        }
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }
    fn values(&mut self) -> Result<Vec<Value>, WireError> {
        self.list(Self::value)
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
        let matches = self.list(Self::key_match)?;
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
    /// Every count is a [`Dec::list`], so a corrupt count cannot allocate.
    fn snapshot(&mut self) -> Result<StateSnapshot, WireError> {
        let version = self.u32()?;
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(WireError::BadValue(format!(
                "unsupported snapshot version {version} (this build reads {SNAPSHOT_FORMAT_VERSION})"
            )));
        }
        let program = self.str()?;
        let clock = self.u64()?;
        let tables = self.list(|d| {
            Ok(TableSnapshot {
                name: d.str()?,
                idle_timeout: d.opt_u64()?,
                entries: d.list(Self::entry)?,
            })
        })?;
        let registers = self.list(|d| {
            Ok(RegisterSnapshot {
                name: d.str()?,
                cells: d.list(Self::u128)?,
            })
        })?;
        Ok(StateSnapshot {
            version,
            program,
            clock,
            tables,
            registers,
        })
    }
    fn items(&mut self) -> Result<Vec<(PipeletId, StateSnapshot)>, WireError> {
        self.list(|d| Ok((d.pipelet()?, d.snapshot()?)))
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
        })
    }
    fn data(&mut self) -> Result<DataMsg, WireError> {
        let trace = self.u64()?;
        let port = self.u16()?;
        let latency_ns = self.f64()?;
        let inter_switch_hops = self.u32()?;
        let hops = self.list(Self::hop)?;
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
    fn fields(&mut self) -> Result<Vec<usize>, WireError> {
        self.list(|d| Ok(d.u32()? as usize))
    }
    fn metrics(&mut self) -> Result<MetricsSnapshot, WireError> {
        let series = self.list(|d| {
            let (name, kind, word) = (d.str()?, d.u8()?, d.u64()?);
            let value = match kind {
                0 => MetricValue::Counter(word),
                1 => MetricValue::Gauge(word as i64),
                2 => {
                    let (sum, n) = (d.u64()?, d.u32()? as usize);
                    if n > HISTOGRAM_BUCKETS {
                        let e = format!("{n} histogram buckets (at most {HISTOGRAM_BUCKETS})");
                        return Err(WireError::BadValue(e));
                    }
                    let buckets = (0..n).map(|_| d.u64()).collect::<Result<_, _>>()?;
                    MetricValue::Histogram(HistogramSnapshot {
                        buckets,
                        count: word,
                        sum,
                    })
                }
                other => return Err(WireError::BadValue(format!("metric kind {other}"))),
            };
            Ok((name, value))
        })?;
        Ok(MetricsSnapshot {
            metrics: series.into_iter().collect(),
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

/// Decodes one complete frame (header + payload + trailer) into a
/// [`Message`]. The header and the trailer are checked before any payload
/// byte is read (module docs, version 4).
pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
    let end = HEADER_LEN + payload_len(frame)?;
    let needed = end + TRAILER_LEN;
    if frame.len() < needed {
        return Err(WireError::Truncated {
            needed,
            have: frame.len(),
        });
    }
    if frame.len() > needed {
        return Err(WireError::TrailingBytes {
            extra: frame.len() - needed,
        });
    }
    let trailer = u32::from_be_bytes(frame[end..].try_into().expect("len 4"));
    if crc32(&frame[..end]) != trailer {
        return Err(WireError::Checksum);
    }
    let class = frame[3];
    let body = &frame[HEADER_LEN..end];
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
                9 => ControlMsg::Flip {
                    seq: d.u64()?,
                    staged: d.u64()?,
                    state: d.items()?,
                },
                10 => ControlMsg::RegisterLearnPolicy {
                    seq: d.u64()?,
                    nf: d.str()?,
                    stream: d.str()?,
                    policy: LearnPolicy {
                        table: d.str()?,
                        action: d.str()?,
                        key_map: d.fields()?,
                        arg_map: d.fields()?,
                    },
                },
                11 => ControlMsg::SnapshotSlices {
                    seq: d.u64()?,
                    slices: d.list(|d| Ok((d.str()?, d.pipelet()?)))?,
                },
                12 => ControlMsg::Retire { seq: d.u64()? },
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
                3 => TelemetryMsg::DrainDone {
                    seq: d.u64()?,
                    digests: d.u64()?,
                    installed: d.u64()?,
                },
                4 => TelemetryMsg::Metrics {
                    seq: d.u64()?,
                    rejected_frames: d.u64()?,
                    snapshot: d.metrics()?,
                },
                5 => TelemetryMsg::Snapshot {
                    seq: d.u64()?,
                    items: d.items()?,
                },
                6 => TelemetryMsg::Evictions {
                    seq: d.u64()?,
                    evictions: d.list(|d| {
                        let p = d.pipelet()?;
                        Ok((
                            p,
                            Eviction {
                                table: d.str()?,
                                entry: d.entry()?,
                            },
                        ))
                    })?,
                },
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
    fn learn_policy_roundtrip() {
        roundtrip(Message::Control(ControlMsg::RegisterLearnPolicy {
            seq: 4,
            nf: "nat".into(),
            stream: "nat_flow".into(),
            policy: LearnPolicy {
                table: "nat_in".into(),
                action: "restore_dst".into(),
                key_map: vec![2, 1],
                arg_map: vec![0],
            },
        }));
    }

    #[test]
    fn telemetry_roundtrip() {
        roundtrip(Message::Telemetry(TelemetryMsg::DrainDone {
            seq: 6,
            digests: 3,
            installed: 2,
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
        let mut extra = frame.clone();
        extra.push(0);
        assert_eq!(decode(&extra), Err(WireError::TrailingBytes { extra: 1 }));
        let mut flipped = frame;
        flipped[HEADER_LEN] ^= 1;
        assert_eq!(decode(&flipped), Err(WireError::Checksum));
    }

    #[test]
    fn a_histogram_past_the_bucket_bound_is_refused() {
        let mut snapshot = MetricsSnapshot::default();
        let buckets = vec![0; HISTOGRAM_BUCKETS + 1];
        let wide = HistogramSnapshot {
            buckets,
            ..Default::default()
        };
        snapshot
            .metrics
            .insert("h".into(), MetricValue::Histogram(wide));
        let frame = encode(&Message::Telemetry(TelemetryMsg::Metrics {
            seq: 2,
            snapshot,
            rejected_frames: 0,
        }));
        assert!(matches!(
            decode(&frame),
            Err(WireError::BadValue(m)) if m.contains("histogram buckets")
        ));
    }
}
