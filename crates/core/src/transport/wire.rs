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
//!
//! The grammar is the code below. Each type that crosses a link has one
//! codec pair (`Wire`: `put` appends it, `get` reads it back), and each
//! layout is declared once, for both: a struct as its fields in wire order
//! (`wire_struct!`), an enum as a tag byte and each variant's fields in
//! wire order (`wire_enum!`, e.g. `0 => Install { seq, nf, table, entry }`).
//! Integers are big-endian; a count and a string's or a packet's length are
//! `u32`s; a [`Value`] is its width in bits as a `u8`, then as many bytes as
//! that width needs. `frames_are_pinned` in `tests/wire_format.rs` hashes
//! the frames of a fixed corpus, so a layout that changes in both
//! directions at once, which a round trip cannot see, still fails a test.
//! DESIGN.md (Wire format) records what each version changed.
//!
//! [`decode`] checks the header fields a stream reader needs (magic,
//! version, the [`MAX_PAYLOAD`] bound), then that one trailer follows the
//! payload, then the trailer: the CRC-32 of header and payload
//! ([`dejavu_p4ir::action::crc32`], the data plane's `Hash` extern). A
//! frame that fails is [`WireError::Checksum`] and no payload byte of it is
//! read, so a flipped bit is a dropped frame, never a valid, wrong message.
//! A count is checked against the bytes that remain before anything is
//! allocated for it.

use crate::control_plane::LearnPolicy;
use dejavu_asic::state::{RegisterSnapshot, TableSnapshot, SNAPSHOT_FORMAT_VERSION};
use dejavu_asic::switch::Disposition;
use dejavu_asic::tables::Eviction;
use dejavu_asic::telemetry::{HistogramSnapshot, MetricValue, HISTOGRAM_BUCKETS};
use dejavu_asic::{Gress, MetricsSnapshot, PipeletId, PortId, StateSnapshot};
use dejavu_p4ir::action::crc32;
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::Value;
use std::collections::BTreeMap;
use std::fmt;

/// First two bytes of every frame.
pub const WIRE_MAGIC: u16 = 0xDEFA;
/// Current wire-format revision. Bump on any incompatible layout change.
pub const WIRE_VERSION: u8 = 8;
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
/// [`BufOutcome`](dejavu_asic::switch::BufOutcome), 20 bytes on the wire
/// whatever the member ran. Per-table activity is the member's telemetry
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

/// One NF's state slice as its old home sealed it: the slice's
/// [`StateSnapshot`] in the frame format, and the entries it holds. A
/// migration relays it from the old home to the new member without
/// opening it, so the snapshot is decoded once, where it is restored.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedSlice {
    /// Table entries the slice holds, counted when it was sealed.
    pub entries: u64,
    /// The slice's encoding; none for a slice with no table and no
    /// register.
    pub bytes: Vec<u8>,
}

impl SealedSlice {
    /// Seals a slice: encodes it once and counts its entries.
    pub fn seal(slice: &StateSnapshot) -> Self {
        let entries = slice.total_entries();
        let mut bytes = Vec::new();
        if !slice.is_empty() {
            // Room for a learned NAT entry (52 bytes) each: most slices
            // are encoded without growing.
            bytes.reserve(64 * (entries + slice.tables.len() + slice.registers.len() + 1));
            slice.put(&mut bytes);
        }
        SealedSlice {
            entries: entries as u64,
            bytes,
        }
    }

    /// True when the slice holds no table and no register.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decodes the sealed slice. Bytes that are not one whole snapshot, or
    /// a snapshot that does not hold the entries the seal counts, are a
    /// [`WireError`].
    pub fn open(&self) -> Result<StateSnapshot, WireError> {
        let slice = if self.is_empty() {
            StateSnapshot::empty("")
        } else {
            let mut d = Dec {
                buf: &self.bytes,
                pos: 0,
            };
            let slice = StateSnapshot::get(&mut d)?;
            if d.pos != self.bytes.len() {
                let extra = self.bytes.len() - d.pos;
                return Err(WireError::TrailingBytes { extra });
            }
            slice
        };
        let found = slice.total_entries() as u64;
        if found != self.entries {
            let e = format!("a seal of {} entries holds {found}", self.entries);
            return Err(WireError::BadValue(e));
        }
        Ok(slice)
    }
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
    /// entries restored; nacked, like a [`ControlMsg::Flip`], when the
    /// restore drops anything.
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
    /// the worker opens every seal in `state`, carries its telemetry
    /// setting and clock over to the staged switch, hands over the state
    /// of every NF both switches host (cut on the live switch, restored at
    /// the NF's new pipelet, no frame), restores the opened slices onto
    /// it, then adopts the staged pair, keeps the outgoing one as retired
    /// and acks with the entries restored; the ack re-points the
    /// controller's NF → member map. A seal that does not open, a restore
    /// that fails or drops anything, or no staged member (e.g. a remote
    /// process, which has no side channel) nacks instead.
    Flip {
        /// Reply correlation.
        seq: u64,
        /// The tag the member was staged under.
        staged: u64,
        /// `(pipelet, slice)` for every NF slice moving onto the member,
        /// sealed as its old home cut it.
        state: Vec<(PipeletId, SealedSlice)>,
    },
    /// Cut the slices of the named NFs, each from the pipelet beside it,
    /// and return just those, sealed ([`TelemetryMsg::Slices`]: one per
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
    /// [`ControlMsg::SnapshotState`].
    Snapshot {
        /// Echoed command sequence number.
        seq: u64,
        /// `(pipelet, snapshot)` for every loaded pipelet with state.
        items: Vec<(PipeletId, StateSnapshot)>,
    },
    /// The answer to [`ControlMsg::SnapshotSlices`]: one sealed slice per
    /// slice asked for, in the order asked.
    Slices {
        /// Echoed command sequence number.
        seq: u64,
        /// The slices, each sealed on the member that cut it.
        slices: Vec<SealedSlice>,
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
// Codec: one declaration per layout, read by both directions
// ---------------------------------------------------------------------

const CLASS_DATA: u8 = 0;
const CLASS_CONTROL: u8 = 1;
const CLASS_TELEMETRY: u8 = 2;

/// A type's layout on the wire: `put` appends it, `get` reads it back
/// from the bytes that remain.
trait Wire {
    fn put(&self, out: &mut Vec<u8>);
    fn get(d: &mut Dec) -> Result<Self, WireError>
    where
        Self: Sized;
}

/// Cursor over one payload.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
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
    /// Length prefix for a variable-size field, bounded by the bytes that
    /// actually remain so a corrupt prefix cannot trigger a huge allocation.
    fn len(&mut self) -> Result<usize, WireError> {
        let n = u32::get(self)? as usize;
        let remaining = self.buf.len() - self.pos;
        if n > remaining {
            return Err(WireError::Truncated {
                needed: self.pos + n,
                have: self.buf.len(),
            });
        }
        Ok(n)
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
        let n = u32::get(self)? as usize;
        let mut items = Vec::new();
        if n > 4 {
            items.reserve_exact(n.min(self.buf.len() - self.pos).min(1024));
        }
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }
}

/// Big-endian integers.
macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            fn get(d: &mut Dec) -> Result<Self, WireError> {
                let bytes = d.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_be_bytes(bytes.try_into().expect("sized")))
            }
        }
    )*};
}
wire_int!(u16, u32, u64, u128, i32, i64);

/// Implements [`Wire`] for a struct from its fields in wire order. A field
/// read `via` a function is checked as it is read (the function decodes it).
macro_rules! wire_struct {
    ($($ty:ty { $($f:ident $(via $get:path)?),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
            fn get(d: &mut Dec) -> Result<Self, WireError> {
                $(let $f = wire_struct!(@get d $($get)?);)*
                Ok(Self { $($f),* })
            }
        }
    )*};
    (@get $d:ident) => { Wire::get($d)? };
    (@get $d:ident $get:path) => { $get($d)? };
}

/// Implements [`Wire`] for an enum from its variants, each a tag byte and
/// the variant's fields in wire order; a tag not listed is `unknown(tag)`.
/// `pub fn seq for` also gives the enum a `seq()` reading every variant's
/// `seq` field.
macro_rules! wire_enum {
    (pub fn seq for $ty:ident, $unknown:expr; $($tag:literal => $v:ident { $($f:ident),* })*) => {
        wire_enum!($ty, $unknown; $($tag => $v { $($f),* })*);
        impl $ty {
            /// The command's sequence number.
            pub fn seq(&self) -> u64 {
                match self {
                    $(Self::$v { seq, .. } => *seq,)*
                }
            }
        }
    };
    ($ty:ty, $unknown:expr;
     $($tag:literal => $v:ident $(($($t:ident),*))? $({ $($f:ident),* })?)*) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$v $(($($t),*))? $({ $($f),* })? => {
                        out.push($tag);
                        $($($t.put(out);)*)?
                        $($($f.put(out);)*)?
                    })*
                }
            }
            fn get(d: &mut Dec) -> Result<Self, WireError> {
                Ok(match d.u8()? {
                    $($tag => {
                        $($(let $t = Wire::get(d)?;)*)?
                        $($(let $f = Wire::get(d)?;)*)?
                        Self::$v $(($($t),*))? $({ $($f),* })?
                    })*
                    tag => return Err(($unknown)(tag)),
                })
            }
        }
    };
}

fn bad_value(what: &str, tag: u8) -> WireError {
    WireError::BadValue(format!("{what} {tag}"))
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        u64::get(d).map(f64::from_bits)
    }
}

/// A pipeline or digest field index: a `u32`.
impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u32).put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        Ok(u32::get(d)? as usize)
    }
}

/// Packet bytes: a `u32` length, then the bytes, copied as one slice.
impl Wire for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        let n = d.len()?;
        Ok(d.take(n)?.to_vec())
    }
}

/// UTF-8 laid out as its bytes.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        String::from_utf8(Vec::get(d)?).map_err(|_| WireError::BadUtf8)
    }
}

/// A `u32` count, then each item ([`Dec::list`]).
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        self.iter().for_each(|x| x.put(out));
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        d.list(T::get)
    }
}

/// Laid out as the list of its pairs, in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        self.iter().for_each(|(k, v)| {
            k.put(out);
            v.put(out);
        });
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Vec::<(K, V)>::get(d)?.into_iter().collect())
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

/// As long as it is wide: `bits:u8` (1..=128), then its `ceil(bits / 8)`
/// bytes, big-endian.
impl Wire for Value {
    fn put(&self, out: &mut Vec<u8>) {
        let bytes = usize::from(self.bits()).div_ceil(8);
        out.push(self.bits() as u8);
        out.extend_from_slice(&self.raw().to_be_bytes()[16 - bytes..]);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        let bits = u16::from(d.u8()?);
        // `Value::new` asserts its width; a corrupt one is a typed error.
        if !(1..=128).contains(&bits) {
            return Err(WireError::BadValue(format!("value width {bits}")));
        }
        let bytes = d.take(usize::from(bits).div_ceil(8))?;
        let raw = bytes.iter().fold(0u128, |raw, &b| raw << 8 | u128::from(b));
        Ok(Value::new(raw, bits))
    }
}

/// A snapshot names the format it was cut in; another is refused by name.
fn snapshot_version(d: &mut Dec) -> Result<u32, WireError> {
    let version = u32::get(d)?;
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(WireError::BadValue(format!(
            "unsupported snapshot version {version} (this build reads {SNAPSHOT_FORMAT_VERSION})"
        )));
    }
    Ok(version)
}

/// More than [`HISTOGRAM_BUCKETS`] buckets is refused before any is read.
fn histogram_buckets(d: &mut Dec) -> Result<Vec<u64>, WireError> {
    let n = u32::get(d)? as usize;
    if n > HISTOGRAM_BUCKETS {
        let e = format!("{n} histogram buckets (at most {HISTOGRAM_BUCKETS})");
        return Err(WireError::BadValue(e));
    }
    (0..n).map(|_| u64::get(d)).collect()
}

wire_struct! {
    TableEntry { matches, action, action_args, priority }
    TableSnapshot { name, idle_timeout, entries }
    RegisterSnapshot { name, cells }
    StateSnapshot { version via snapshot_version, program, clock, tables, registers }
    PipeletId { gress, pipeline }
    Eviction { table, entry }
    HopSummary { switch, latency_ns, recirculations, resubmissions }
    DataMsg { trace, port, latency_ns, inter_switch_hops, hops, bytes }
    HistogramSnapshot { count, sum, buckets via histogram_buckets }
    MetricsSnapshot { metrics }
    LearnPolicy { table, action, key_map, arg_map }
    SealedSlice { entries, bytes }
}

wire_enum! {
    Option<u64>, |tag| bad_value("option flag", tag);
    0 => None
    1 => Some(x)
}

wire_enum! {
    KeyMatch, |tag| bad_value("key match kind", tag);
    0 => Exact(v)
    1 => Ternary(v, mask)
    2 => Lpm(prefix, len)
    3 => Range(lo, hi)
    4 => Any
}

wire_enum! {
    Gress, |tag| bad_value("gress", tag);
    0 => Ingress
    1 => Egress
}

wire_enum! {
    Disposition, |tag| bad_value("disposition", tag);
    0 => Emitted { port }
    1 => Dropped
    2 => ToCpu
}

wire_enum! {
    MetricValue, |tag| bad_value("metric kind", tag);
    0 => Counter(c)
    1 => Gauge(g)
    2 => Histogram(h)
}

wire_enum! {
    pub fn seq for ControlMsg, |tag| WireError::UnknownTag { class: CLASS_CONTROL, tag };
    0 => Install { seq, nf, table, entry }
    1 => Remove { seq, nf, table, entry }
    2 => SetIdleTimeout { seq, nf, table, ticks }
    3 => AdvanceTime { seq, ticks }
    4 => DrainDigests { seq }
    5 => ScrapeMetrics { seq }
    6 => SnapshotState { seq }
    7 => RestoreState { seq, pipelet, snapshot }
    8 => Shutdown { seq }
    9 => Flip { seq, staged, state }
    10 => RegisterLearnPolicy { seq, nf, stream, policy }
    11 => SnapshotSlices { seq, slices }
    12 => Retire { seq }
}

// Tag 2 carried version 4's digests; it stays unused.
wire_enum! {
    TelemetryMsg, |tag| WireError::UnknownTag { class: CLASS_TELEMETRY, tag };
    0 => Ack { seq, info }
    1 => Nack { seq, error }
    3 => DrainDone { seq, digests, installed }
    4 => Metrics { seq, rejected_frames, snapshot }
    5 => Snapshot { seq, items }
    6 => Evictions { seq, evictions }
    7 => Delivered { disposition, data }
    8 => Slices { seq, slices }
}

/// Encodes a message into a complete frame (header + payload + trailer).
/// The header goes into the buffer first and its length is patched in once
/// the payload is written, so the payload is never copied.
pub fn encode(msg: &Message) -> Vec<u8> {
    // Room for a one-hop data frame: most frames never reallocate.
    let mut out = Vec::with_capacity(128);
    let (class, payload): (u8, &dyn Wire) = match msg {
        Message::Data(m) => (CLASS_DATA, m),
        Message::Control(m) => (CLASS_CONTROL, m),
        Message::Telemetry(m) => (CLASS_TELEMETRY, m),
    };
    WIRE_MAGIC.put(&mut out);
    // The payload length is patched in below.
    out.extend_from_slice(&[WIRE_VERSION, class, 0, 0, 0, 0]);
    payload.put(&mut out);
    let len = (out.len() - HEADER_LEN) as u32;
    out[4..HEADER_LEN].copy_from_slice(&len.to_be_bytes());
    let crc = crc32(&out);
    crc.put(&mut out);
    out
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
/// byte is read (module docs).
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
    let body = &frame[HEADER_LEN..end];
    let mut d = Dec { buf: body, pos: 0 };
    let msg = match frame[3] {
        CLASS_DATA => Message::Data(Wire::get(&mut d)?),
        CLASS_CONTROL => Message::Control(Wire::get(&mut d)?),
        CLASS_TELEMETRY => Message::Telemetry(Wire::get(&mut d)?),
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
