//! Pluggable packet-classification indexes for match-action tables.
//!
//! Every table slot owns a [`ClassifierIndex`] — a data structure that maps a
//! key tuple to the winning entry under the rank/arbitration rules of
//! [`rank_of`]. Four implementations exist:
//!
//! * **Scan** — the priority-sorted linear scan. O(entries) per lookup; kept
//!   as the honest reference cost model and as a forced baseline for
//!   benchmarks.
//! * **Exact** — one hash table over the full key tuple, wildcard entries in
//!   a scanned spill list. For all-exact tables.
//! * **TupleSpace** — tuple-space search: entries grouped by their mask
//!   tuple, one hash table per tuple, tuples probed in descending
//!   max-rank order with early exit once no remaining tuple can beat the
//!   current best hit. The workhorse for every other table — ternary,
//!   range, mixed, and LPM (a prefix length is one mask tuple).
//! * **DecisionTree** — HyperCuts-style cuts on high-discrimination bit
//!   windows, selected automatically when the ruleset's mask diversity makes
//!   tuple-space degenerate (tuple count approaching entry count).
//!
//! The selection heuristic lives in `auto_kind_after_insert` /
//! `auto_kind_from_entries`; tables migrate between kinds as entries are
//! installed, deleted, or aged out (a decision tree is sticky until the
//! rebuild it asks for anyway — its geometric refresh). `TableState::lookup_scan`
//! (in `tables`) remains the differential oracle that every index must agree
//! with observationally.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};

use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::{mask_for, Value};

/// Rank of an entry: priority first, then summed LPM prefix length. Higher
/// ranks win; ties go to the earliest install index.
pub type Rank = (i32, u32);

/// Computes the arbitration rank of an entry (priority, total LPM prefix
/// length). Longest prefix wins among equal priorities.
pub fn rank_of(e: &TableEntry) -> Rank {
    let lpm_total: u32 = e
        .matches
        .iter()
        .filter_map(|m| m.lpm_len().map(u32::from))
        .sum();
    (e.priority, lpm_total)
}

/// Hasher state of the index-internal maps: a multiply-fold over whole
/// words instead of SipHash over bytes (a key component is an 18-byte
/// `Value`; SipHash was a third of a small-table lookup). Learned entries
/// carry packet-chosen keys, so every index draws its own seed from
/// [`RandomState`]: colliding keys cannot be precomputed. Nothing observable
/// depends on the seed — no index iterates its maps to answer a lookup.
#[derive(Debug, Clone)]
pub(crate) struct WordState(u64);

impl Default for WordState {
    fn default() -> Self {
        WordState(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.0)
    }
}

/// See [`WordState`].
pub(crate) struct WordHasher(u64);

impl WordHasher {
    /// Folds one word in: the 128-bit product spreads every input bit over
    /// the whole state (hashbrown reads both ends of the hash).
    fn mix(&mut self, word: u64) {
        let p = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_u128(&mut self, n: u128) {
        self.mix(n as u64);
        self.mix((n >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

type WordMap<K, V> = HashMap<K, V, WordState>;

/// Number of log2 buckets in the probe/depth histograms.
pub const INDEX_HIST_BUCKETS: usize = 8;

/// Which index structure a table is currently using.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// Priority-sorted linear scan.
    #[default]
    Scan,
    /// Full-key hash map with wildcard spill.
    Exact,
    /// Tuple-space search (one hash table per mask tuple).
    TupleSpace,
    /// HyperCuts-style decision tree.
    DecisionTree,
}

impl IndexKind {
    /// Stable display name, used in telemetry labels and bench records.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Scan => "scan",
            IndexKind::Exact => "exact",
            IndexKind::TupleSpace => "tuple_space",
            IndexKind::DecisionTree => "decision_tree",
        }
    }

    /// Stable numeric code, exported as the `table_index_kind` gauge.
    /// Exported codes never shift, so 2 stays unused.
    pub fn ordinal(self) -> i64 {
        match self {
            IndexKind::Scan => 0,
            IndexKind::Exact => 1,
            IndexKind::TupleSpace => 3,
            IndexKind::DecisionTree => 4,
        }
    }
}

/// Index-selection policy for a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexPolicy {
    /// Pick and migrate automatically from the table shape and ruleset.
    #[default]
    Auto,
    /// Pin a specific index kind (benchmark baselines, differential tests).
    Force(IndexKind),
}

/// Structural statistics an index reports about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Current index kind.
    pub kind: IndexKind,
    /// Partitions: stored key tuples (exact), mask tuples (tuple space),
    /// tree nodes (decision tree).
    pub partitions: usize,
    /// Entries outside the hashed structure (wildcard/range spill, root
    /// residue).
    pub spill: usize,
    /// Maximum tree depth (decision tree only).
    pub max_depth: usize,
}

/// Telemetry counters accumulated per table across lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexTelemetry {
    /// Current index kind.
    pub kind: IndexKind,
    /// Total partition/bucket probes across all lookups.
    pub probes: u64,
    /// Times the index was rebuilt from scratch.
    pub rebuilds: u64,
    /// log2 histogram of probes per lookup.
    pub probe_hist: [u64; INDEX_HIST_BUCKETS],
    /// log2 histogram of tree depth reached per lookup.
    pub depth_hist: [u64; INDEX_HIST_BUCKETS],
}

/// Interior-mutable probe recorder handed to [`ClassifierIndex::lookup`]
/// (lookups take `&self`; the dataplane counts through `Cell`s like the
/// hit/miss counters do).
#[derive(Debug, Clone, Default)]
pub struct ProbeLog {
    probes: Cell<u64>,
    probe_hist: [Cell<u64>; INDEX_HIST_BUCKETS],
    depth_hist: [Cell<u64>; INDEX_HIST_BUCKETS],
}

fn log2_bucket(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((63 - v.leading_zeros()) as usize).min(INDEX_HIST_BUCKETS - 1)
    }
}

impl ProbeLog {
    /// Records one lookup that examined `n` partitions/buckets/entries.
    pub fn record_probes(&self, n: u64) {
        self.probes.set(self.probes.get() + n);
        let b = log2_bucket(n);
        self.probe_hist[b].set(self.probe_hist[b].get() + 1);
    }

    /// Records the tree depth reached by one lookup.
    pub fn record_depth(&self, d: u64) {
        let b = log2_bucket(d);
        self.depth_hist[b].set(self.depth_hist[b].get() + 1);
    }

    /// Total probes recorded so far.
    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    /// Snapshot of the probe histogram.
    pub fn probe_hist(&self) -> [u64; INDEX_HIST_BUCKETS] {
        std::array::from_fn(|i| self.probe_hist[i].get())
    }

    /// Snapshot of the depth histogram.
    pub fn depth_hist(&self) -> [u64; INDEX_HIST_BUCKETS] {
        std::array::from_fn(|i| self.depth_hist[i].get())
    }
}

/// A pluggable table index. Implementations must agree observationally with
/// the priority-sorted scan oracle: for any key tuple, `lookup` returns the
/// entry with the highest [`Rank`], ties broken by lowest install index.
///
/// `insert`/`remove`/`remove_many` return `false` when the structure cannot
/// absorb the mutation incrementally — the caller must then `build` from
/// scratch.
pub trait ClassifierIndex: std::fmt::Debug + Send {
    /// Which kind this index is.
    fn kind(&self) -> IndexKind;
    /// Clones the index behind the trait object.
    fn clone_box(&self) -> Box<dyn ClassifierIndex>;
    /// Rebuilds from the full entry list. `ranks[i] == rank_of(&entries[i])`.
    fn build(&mut self, entries: &[TableEntry], ranks: &[Rank]);
    /// Incrementally absorbs the entry at `idx` (already present in
    /// `entries`/`ranks`). Returns `false` if a rebuild is required.
    fn insert(&mut self, entries: &[TableEntry], ranks: &[Rank], idx: usize) -> bool;
    /// Incrementally forgets the entry previously at `idx`. Returns `false`
    /// if a rebuild is required.
    fn remove(&mut self, removed: &TableEntry, rank: Rank, idx: usize) -> bool;
    /// Forgets the entries at the strictly ascending positions `removed`
    /// and renumbers every surviving position by the number of removed ones
    /// below it — what compacting the entry vector does to them. Returns
    /// `false` (the default) if a rebuild over the compacted vector is
    /// required.
    fn remove_many(&mut self, _removed: &[usize]) -> bool {
        false
    }
    /// Position of the first installed entry equal to `entry` (matches,
    /// action, args and priority). The default is the linear scan.
    fn position(&self, entries: &[TableEntry], entry: &TableEntry) -> Option<usize> {
        entries.iter().position(|e| e == entry)
    }
    /// Finds the winning entry index for `keys`, recording probe effort.
    fn lookup(
        &self,
        entries: &[TableEntry],
        ranks: &[Rank],
        keys: &[Value],
        log: &ProbeLog,
    ) -> Option<usize>;
    /// Structural statistics for telemetry and the selection heuristic.
    fn stats(&self) -> IndexStats;
}

impl Clone for Box<dyn ClassifierIndex> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// ---------------------------------------------------------------------------
// Mask-tuple signatures
// ---------------------------------------------------------------------------

/// Canonical per-key signature: which bits of the key an entry inspects.
/// Entries sharing a full signature tuple can live in one hash table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KeySig {
    /// Key is ignored (`Any`, zero mask, `/0` prefix).
    Wild,
    /// `key.bits() == bits` required, compare `key.raw() & mask`.
    Masked { bits: u16, mask: u128 },
    /// Compare `key.raw()` only (degenerate single-point range).
    Raw,
}

/// Signature and stored comparison value for one key match, or `None` when
/// the match cannot be hashed (a real range).
fn key_sig(m: &KeyMatch) -> Option<(KeySig, u128)> {
    match m {
        KeyMatch::Exact(v) => Some((
            KeySig::Masked {
                bits: v.bits(),
                mask: mask_for(v.bits()),
            },
            v.raw(),
        )),
        KeyMatch::Ternary(val, mask) => {
            let m = mask.raw() & mask_for(val.bits());
            if m == 0 {
                Some((KeySig::Wild, 0))
            } else {
                Some((
                    KeySig::Masked {
                        bits: val.bits(),
                        mask: m,
                    },
                    val.raw() & m,
                ))
            }
        }
        KeyMatch::Lpm(prefix, len) => {
            if *len == 0 {
                Some((KeySig::Wild, 0))
            } else {
                let w = prefix.bits();
                let shift = u32::from(w.saturating_sub(*len));
                let m = (mask_for(w) >> shift) << shift;
                Some((KeySig::Masked { bits: w, mask: m }, prefix.raw() & m))
            }
        }
        KeyMatch::Range(lo, hi) => {
            if lo.raw() == hi.raw() {
                Some((KeySig::Raw, lo.raw()))
            } else {
                None
            }
        }
        KeyMatch::Any => Some((KeySig::Wild, 0)),
    }
}

/// Full-tuple signature of an entry plus the hash of its stored comparison
/// values, or `None` when any key is unhashable (spill).
fn entry_sig(e: &TableEntry, hasher: &WordState) -> Option<(Vec<KeySig>, u64)> {
    let mut sigs = Vec::with_capacity(e.matches.len());
    let mut h = hasher.build_hasher();
    for m in &e.matches {
        let (sig, stored) = key_sig(m)?;
        if sig != KeySig::Wild {
            stored.hash(&mut h);
        }
        sigs.push(sig);
    }
    Some((sigs, h.finish()))
}

/// Hashes a packet key tuple under a signature. Returns `None` when a key's
/// width disagrees with the signature (such entries can never match the key,
/// mirroring width-sensitive `KeyMatch` semantics).
fn probe_hash(sig: &[KeySig], keys: &[Value], hasher: &WordState) -> Option<u64> {
    let mut h = hasher.build_hasher();
    for (s, k) in sig.iter().zip(keys.iter()) {
        match s {
            KeySig::Wild => {}
            KeySig::Masked { bits, mask } => {
                if k.bits() != *bits {
                    return None;
                }
                (k.raw() & mask).hash(&mut h);
            }
            KeySig::Raw => k.raw().hash(&mut h),
        }
    }
    Some(h.finish())
}

fn entry_matches(e: &TableEntry, keys: &[Value]) -> bool {
    e.matches.len() == keys.len()
        && e.matches
            .iter()
            .zip(keys.iter())
            .all(|(m, &k)| m.matches(k))
}

/// Arbitration order: higher [`Rank`] first, then the earlier install.
type OrderKey = (Rank, Reverse<usize>);

/// Entry `i`'s place in the arbitration order: an entry beats another iff
/// its key is greater. The one place every index compares two hits.
fn order_key(ranks: &[Rank], i: usize) -> OrderKey {
    (ranks[i], Reverse(i))
}

/// Sorted insert into a list in arbitration order, `(rank desc, index asc)`.
fn ordered_insert(order: &mut Vec<usize>, ranks: &[Rank], idx: usize) {
    let key = order_key(ranks, idx);
    let pos = order.partition_point(|&i| order_key(ranks, i) > key);
    order.insert(pos, idx);
}

/// What compacting the entry vector does to one stored position, as a
/// `retain` predicate: `false` when it is one of the strictly ascending
/// `removed`, else renumbered by the number of removed positions below it.
fn renumber(removed: &[usize], pos: &mut usize) -> bool {
    match removed.binary_search(pos) {
        Ok(_) => false,
        Err(below) => {
            *pos -= below;
            true
        }
    }
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// Priority-sorted linear scan: entry indices ordered rank-descending,
/// install order within a rank — identical arbitration to a TCAM walk.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScanIndex {
    order: Vec<usize>,
}

impl ClassifierIndex for ScanIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Scan
    }

    fn clone_box(&self) -> Box<dyn ClassifierIndex> {
        Box::new(self.clone())
    }

    fn build(&mut self, entries: &[TableEntry], ranks: &[Rank]) {
        self.order = (0..entries.len()).collect();
        self.order.sort_by_key(|&i| Reverse(order_key(ranks, i)));
    }

    fn insert(&mut self, _entries: &[TableEntry], ranks: &[Rank], idx: usize) -> bool {
        ordered_insert(&mut self.order, ranks, idx);
        true
    }

    fn remove(&mut self, _removed: &TableEntry, _rank: Rank, idx: usize) -> bool {
        self.order.retain(|&i| i != idx);
        true
    }

    fn lookup(
        &self,
        entries: &[TableEntry],
        _ranks: &[Rank],
        keys: &[Value],
        log: &ProbeLog,
    ) -> Option<usize> {
        let mut examined = 0u64;
        for &i in &self.order {
            examined += 1;
            if entry_matches(&entries[i], keys) {
                log.record_probes(examined);
                return Some(i);
            }
        }
        log.record_probes(examined);
        None
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            kind: IndexKind::Scan,
            spill: self.order.len(),
            ..IndexStats::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Exact
// ---------------------------------------------------------------------------

/// All-exact tables: one hash map over the full key tuple. Entries with
/// `Any` wildcards fall into a scanned spill list.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactIndex {
    map: WordMap<Vec<Value>, usize>,
    /// Wildcard entries, `(rank desc, index asc)`.
    spill: Vec<usize>,
    /// Hashed entries that share their key tuple with the stored winner
    /// (hashed entries minus `map.len()`). While zero the winner is its
    /// tuple's only entry, so `position` is one probe and removals need no
    /// successor; otherwise all three fall back to the scan / rebuild and
    /// arbitration among duplicates is decided by `insert` alone.
    shadowed: usize,
}

impl ExactIndex {
    fn exact_key(entry: &TableEntry) -> Option<Vec<Value>> {
        let mut key = Vec::with_capacity(entry.matches.len());
        for m in &entry.matches {
            match m {
                KeyMatch::Exact(v) => key.push(*v),
                _ => return None,
            }
        }
        Some(key)
    }
}

impl ClassifierIndex for ExactIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Exact
    }

    fn clone_box(&self) -> Box<dyn ClassifierIndex> {
        Box::new(self.clone())
    }

    fn build(&mut self, entries: &[TableEntry], ranks: &[Rank]) {
        self.map.clear();
        self.spill.clear();
        self.shadowed = 0;
        for idx in 0..entries.len() {
            self.insert(entries, ranks, idx);
        }
    }

    fn insert(&mut self, entries: &[TableEntry], ranks: &[Rank], idx: usize) -> bool {
        match Self::exact_key(&entries[idx]) {
            None => ordered_insert(&mut self.spill, ranks, idx),
            Some(key) => match self.map.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    // Same key tuple: the winner is the one scan
                    // arbitration picks.
                    self.shadowed += 1;
                    if order_key(ranks, idx) > order_key(ranks, *o.get()) {
                        o.insert(idx);
                    }
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(idx);
                }
            },
        }
        true
    }

    fn remove(&mut self, removed: &TableEntry, _rank: Rank, idx: usize) -> bool {
        match Self::exact_key(removed) {
            None => {
                self.spill.retain(|&i| i != idx);
                true
            }
            Some(key) => {
                if self.map.get(&key) != Some(&idx) {
                    // A shadowed duplicate goes quietly.
                    self.shadowed -= 1;
                    true
                } else if self.shadowed == 0 {
                    self.map.remove(&key);
                    true
                } else {
                    // The stored winner of a tuple that may hold more: we
                    // don't know which duplicate succeeds it — rebuild.
                    false
                }
            }
        }
    }

    fn remove_many(&mut self, removed: &[usize]) -> bool {
        if self.shadowed > 0 {
            return false;
        }
        self.map.retain(|_, pos| renumber(removed, pos));
        self.spill.retain_mut(|pos| renumber(removed, pos));
        true
    }

    fn position(&self, entries: &[TableEntry], entry: &TableEntry) -> Option<usize> {
        match Self::exact_key(entry) {
            // Equal entries share a rank, and within a rank the spill is
            // in install order: the first equal entry found is the lowest.
            None => self.spill.iter().copied().find(|&i| entries[i] == *entry),
            Some(key) if self.shadowed == 0 => self
                .map
                .get(&key)
                .copied()
                .filter(|&i| entries[i] == *entry),
            Some(_) => entries.iter().position(|e| e == entry),
        }
    }

    fn lookup(
        &self,
        entries: &[TableEntry],
        ranks: &[Rank],
        keys: &[Value],
        log: &ProbeLog,
    ) -> Option<usize> {
        let mut probes = 1u64;
        let mut best: Option<usize> = self.map.get(keys).copied();
        // The spill is in arbitration order: its first match is its best
        // entry, and from the first entry the hash hit beats nothing wins.
        for &i in &self.spill {
            if best.is_some_and(|b| order_key(ranks, i) <= order_key(ranks, b)) {
                break;
            }
            probes += 1;
            if entry_matches(&entries[i], keys) {
                best = Some(i);
                break;
            }
        }
        log.record_probes(probes);
        best
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            kind: IndexKind::Exact,
            partitions: self.map.len(),
            spill: self.spill.len(),
            ..IndexStats::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Tuple-space search
// ---------------------------------------------------------------------------

/// One tuple: all entries sharing a mask signature, hashed by their stored
/// comparison values. Buckets hold lists because distinct entries can share
/// a hash (collisions) or identical stored values (shadowed duplicates);
/// every candidate is verified with full `KeyMatch::matches`.
#[derive(Debug, Clone)]
struct Tuple {
    sig: Vec<KeySig>,
    /// Keyed by [`entry_sig`]'s hash under the owning index's `hasher`.
    buckets: WordMap<u64, Vec<usize>>,
    /// Multiset of live ranks; the max key drives the probe order.
    rank_counts: BTreeMap<Rank, u32>,
    len: usize,
}

impl Tuple {
    fn max_rank(&self) -> Option<Rank> {
        self.rank_counts.keys().next_back().copied()
    }
}

/// Tuple-space search: one hash table per distinct mask tuple, probed in
/// descending max-rank order with early exit once no remaining tuple can
/// beat the current best hit. Unhashable entries (real ranges) live in a
/// rank-sorted spill list scanned first.
#[derive(Debug, Clone, Default)]
pub(crate) struct TupleSpaceIndex {
    /// Tuple storage; slots may be tombstoned (empty) after removals.
    tuples: Vec<Tuple>,
    /// Seed of the stored-value hash every tuple's buckets are keyed by.
    hasher: WordState,
    by_sig: HashMap<Vec<KeySig>, usize>,
    /// Live tuple ids ordered `(max_rank desc, id asc)`.
    probe_order: Vec<usize>,
    /// Unhashable entries, `(rank desc, index asc)`.
    spill: Vec<usize>,
    live_tuples: usize,
}

impl TupleSpaceIndex {
    /// Position of tuple `tid` in the probe order under `(max_rank desc,
    /// id asc)`.
    fn probe_pos(&self, tid: usize) -> usize {
        let key = (self.tuples[tid].max_rank(), Reverse(tid));
        self.probe_order
            .partition_point(|&t| (self.tuples[t].max_rank(), Reverse(t)) > key)
    }

    fn reposition(&mut self, tid: usize) {
        self.probe_order.retain(|&t| t != tid);
        let pos = self.probe_pos(tid);
        self.probe_order.insert(pos, tid);
    }
}

impl ClassifierIndex for TupleSpaceIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::TupleSpace
    }

    fn clone_box(&self) -> Box<dyn ClassifierIndex> {
        Box::new(self.clone())
    }

    fn build(&mut self, entries: &[TableEntry], ranks: &[Rank]) {
        *self = TupleSpaceIndex::default();
        for idx in 0..entries.len() {
            self.insert(entries, ranks, idx);
        }
    }

    fn insert(&mut self, entries: &[TableEntry], ranks: &[Rank], idx: usize) -> bool {
        match entry_sig(&entries[idx], &self.hasher) {
            None => ordered_insert(&mut self.spill, ranks, idx),
            Some((sig, hash)) => {
                let tid = match self.by_sig.get(&sig) {
                    Some(&t) => t,
                    None => {
                        let t = self.tuples.len();
                        self.tuples.push(Tuple {
                            sig: sig.clone(),
                            buckets: WordMap::default(),
                            rank_counts: BTreeMap::new(),
                            len: 0,
                        });
                        self.by_sig.insert(sig, t);
                        self.live_tuples += 1;
                        let pos = self.probe_pos(t);
                        self.probe_order.insert(pos, t);
                        t
                    }
                };
                let old_max = self.tuples[tid].max_rank();
                let tuple = &mut self.tuples[tid];
                tuple.buckets.entry(hash).or_default().push(idx);
                *tuple.rank_counts.entry(ranks[idx]).or_insert(0) += 1;
                tuple.len += 1;
                if self.tuples[tid].max_rank() != old_max {
                    self.reposition(tid);
                }
            }
        }
        true
    }

    fn remove(&mut self, removed: &TableEntry, rank: Rank, idx: usize) -> bool {
        match entry_sig(removed, &self.hasher) {
            None => {
                let before = self.spill.len();
                self.spill.retain(|&i| i != idx);
                self.spill.len() < before
            }
            Some((sig, hash)) => {
                let Some(&tid) = self.by_sig.get(&sig) else {
                    return false;
                };
                let old_max = self.tuples[tid].max_rank();
                let tuple = &mut self.tuples[tid];
                let Some(bucket) = tuple.buckets.get_mut(&hash) else {
                    return false;
                };
                let before = bucket.len();
                bucket.retain(|&i| i != idx);
                if bucket.len() == before {
                    return false;
                }
                if bucket.is_empty() {
                    tuple.buckets.remove(&hash);
                }
                match tuple.rank_counts.get_mut(&rank) {
                    Some(c) if *c > 1 => *c -= 1,
                    Some(_) => {
                        tuple.rank_counts.remove(&rank);
                    }
                    None => return false,
                }
                tuple.len -= 1;
                if tuple.len == 0 {
                    // Tombstone the slot; ids are stable so no remapping.
                    self.by_sig.remove(&sig);
                    self.tuples[tid].buckets = WordMap::default();
                    self.probe_order.retain(|&t| t != tid);
                    self.live_tuples -= 1;
                } else if self.tuples[tid].max_rank() != old_max {
                    self.reposition(tid);
                }
                true
            }
        }
    }

    fn position(&self, entries: &[TableEntry], entry: &TableEntry) -> Option<usize> {
        // An equal entry has the same signature and stored values, so it
        // sits in the same bucket (or in the spill, if unhashable).
        let candidates = match entry_sig(entry, &self.hasher) {
            None => &self.spill,
            Some((sig, hash)) => self.tuples[*self.by_sig.get(&sig)?].buckets.get(&hash)?,
        };
        candidates
            .iter()
            .copied()
            .filter(|&i| entries[i] == *entry)
            .min()
    }

    fn lookup(
        &self,
        entries: &[TableEntry],
        ranks: &[Rank],
        keys: &[Value],
        log: &ProbeLog,
    ) -> Option<usize> {
        let mut best: Option<OrderKey> = None;
        let mut probes = 0u64;
        // Spill is in arbitration order: the first match is the best spill
        // candidate.
        for &i in &self.spill {
            probes += 1;
            if entry_matches(&entries[i], keys) {
                best = Some(order_key(ranks, i));
                break;
            }
        }
        for &tid in &self.probe_order {
            let tuple = &self.tuples[tid];
            let Some(tmax) = tuple.max_rank() else {
                continue;
            };
            // Early exit: tuples are max-rank descending, so once the best
            // possible remaining rank is strictly below the current hit no
            // later tuple can win. Equal max ranks must still be probed —
            // an equal-rank entry with a lower install index beats the hit.
            if best.is_some_and(|(br, _)| tmax < br) {
                break;
            }
            probes += 1;
            let Some(h) = probe_hash(&tuple.sig, keys, &self.hasher) else {
                // Width mismatch: no entry in this tuple can match the key.
                continue;
            };
            if let Some(bucket) = tuple.buckets.get(&h) {
                for &i in bucket {
                    let key = order_key(ranks, i);
                    if best.is_none_or(|b| key > b) && entry_matches(&entries[i], keys) {
                        best = Some(key);
                    }
                }
            }
        }
        log.record_probes(probes.max(1));
        best.map(|(_, Reverse(i))| i)
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            kind: IndexKind::TupleSpace,
            partitions: self.live_tuples,
            spill: self.spill.len(),
            ..IndexStats::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Decision tree (HyperCuts-style)
// ---------------------------------------------------------------------------

/// Leaf size below which a node is not cut further.
const LEAF_MAX: usize = 8;
/// Slack of the geometric refresh: a tree absorbs `built_len / 2 +
/// LEAF_SPLIT` installs (or as many deletes) before it asks for a rebuild.
const LEAF_SPLIT: usize = 64;
/// Maximum tree depth.
const MAX_DEPTH: usize = 24;
/// Bits consumed per cut (fan-out `2^CUT_BITS`).
const CUT_BITS: u32 = 4;
/// Sentinel child id for an empty subtree.
const NO_CHILD: usize = usize::MAX;

/// A cut: inspect `bits` bits of key `dim` starting at `shift`, valid for
/// keys of exactly `width` bits.
#[derive(Debug, Clone, Copy)]
struct Cut {
    dim: usize,
    width: u16,
    shift: u32,
    bits: u32,
}

fn low_mask(bits: u32) -> u128 {
    (1u128 << bits) - 1
}

/// Which child an entry's match on `cut.dim` belongs to, or `None` when the
/// entry does not pin every bit of the cut window (it stays in the node's
/// local list — no rule replication).
fn cut_value(m: &KeyMatch, cut: &Cut) -> Option<u128> {
    let window = low_mask(cut.bits) << cut.shift;
    match key_sig(m)? {
        (KeySig::Masked { bits, mask }, stored) if bits == cut.width && mask & window == window => {
            Some((stored >> cut.shift) & low_mask(cut.bits))
        }
        _ => None,
    }
}

#[derive(Debug, Clone)]
struct TreeNode {
    cut: Option<Cut>,
    /// `2^bits` child node ids (`NO_CHILD` = empty subtree).
    children: Vec<usize>,
    /// Entries resident at this node, `(rank desc, index asc)`. Unbounded
    /// on a cut node (whatever does not pin the window stays here).
    local: Vec<usize>,
    /// Upper bound on the order keys in this subtree (pruning bound).
    /// Removals leave it loose and `remove_many` renumbers its position as
    /// it does a `local` one, so a stale bound costs a probe, never an
    /// answer.
    max_key: Option<OrderKey>,
    /// The `local` length at which an install next tries to cut this
    /// leaf: `LEAF_MAX + 1` while it is small, twice its size after an
    /// attempt found no discriminating window, never (`usize::MAX`) at
    /// `MAX_DEPTH` or on a node that is already cut.
    split_at: usize,
}

impl TreeNode {
    fn leaf(local: Vec<usize>, max_key: Option<OrderKey>, depth: usize) -> Self {
        let split_at = if depth >= MAX_DEPTH {
            usize::MAX
        } else if local.len() <= LEAF_MAX {
            LEAF_MAX + 1
        } else {
            local.len() * 2
        };
        TreeNode {
            cut: None,
            children: Vec::new(),
            local,
            max_key,
            split_at,
        }
    }
}

/// HyperCuts-style decision tree: each internal node cuts on the
/// highest-scoring `(dim, bit window)` — score is entries covering the
/// window × distinct window values — and entries that don't pin the window
/// stay in the node's local list. Lookup descends one path in arbitration
/// order, as a TCAM answers: it stops each local list at its first match
/// and prunes a subtree whose `max_key` cannot beat the current best.
///
/// Every entry lives in exactly one `local`: that of the first node on its
/// own descent (by [`cut_value`]) that is a leaf or whose window it does not
/// pin. Build, install, leaf split, removal and `position` all walk that
/// same descent, so each costs the path it touches.
#[derive(Debug, Clone)]
pub(crate) struct DecisionTreeIndex {
    nodes: Vec<TreeNode>,
    /// Entry count at the last full build.
    built_len: usize,
    /// Entries absorbed incrementally since the last build.
    grown: usize,
    /// Entries forgotten incrementally since the last build.
    shrunk: usize,
    max_depth: usize,
}

impl Default for DecisionTreeIndex {
    fn default() -> Self {
        DecisionTreeIndex {
            nodes: vec![TreeNode::leaf(Vec::new(), None, 0)],
            built_len: 0,
            grown: 0,
            shrunk: 0,
            max_depth: 0,
        }
    }
}

impl DecisionTreeIndex {
    /// Best cut for this entry set, or `None` when no window discriminates.
    /// One pass per dimension: each entry's `(mask, stored)` is derived
    /// once, and every window it pins gains a count and one bit in that
    /// window's bitmap of seen values (`2^CUT_BITS = 16` of them).
    fn choose_cut(ids: &[usize], entries: &[TableEntry]) -> Option<Cut> {
        let arity = entries.get(*ids.first()?)?.matches.len();
        let mut best: Option<(u64, Cut)> = None;
        let mut sigs: Vec<(u16, u128, u128)> = Vec::with_capacity(ids.len());
        for dim in 0..arity {
            sigs.clear();
            // Majority key width among maskable sigs on this dim.
            let mut width_counts: BTreeMap<u16, usize> = BTreeMap::new();
            for &i in ids {
                if let Some((KeySig::Masked { bits, mask }, stored)) =
                    key_sig(&entries[i].matches[dim])
                {
                    *width_counts.entry(bits).or_insert(0) += 1;
                    sigs.push((bits, mask, stored));
                }
            }
            let Some((&w, _)) = width_counts.iter().max_by_key(|&(&w, &c)| (c, w)) else {
                continue;
            };
            let bits = CUT_BITS.min(u32::from(w));
            let window_count = (u32::from(w) - bits + 1) as usize;
            // Per window start: entries pinning it, bitmap of their values.
            let mut windows = [(0u64, 0u16); 128];
            for &(_, mask, stored) in sigs.iter().filter(|s| s.0 == w) {
                // Bit `s` of `pinned` ⇔ `mask` covers bits `s..s + bits`.
                let mut pinned = (0..bits).fold(u128::MAX, |p, b| p & (mask >> b));
                while pinned != 0 {
                    let shift = pinned.trailing_zeros();
                    pinned &= pinned - 1;
                    let (covered, seen) = &mut windows[shift as usize];
                    *covered += 1;
                    *seen |= 1 << ((stored >> shift) & low_mask(bits)) as u32;
                }
            }
            for (shift, &(covered, seen)) in windows[..window_count].iter().enumerate() {
                let values = u64::from(seen.count_ones());
                // A useful cut must split the covered set and cover a
                // meaningful fraction of the node.
                if values < 2 || covered * 4 < ids.len() as u64 {
                    continue;
                }
                let score = covered * values;
                if best.is_none_or(|(bs, _)| score > bs) {
                    best = Some((
                        score,
                        Cut {
                            dim,
                            width: w,
                            shift: shift as u32,
                            bits,
                        },
                    ));
                }
            }
        }
        best.map(|(_, c)| c)
    }

    /// Fills the already-allocated node `id` from `ids`: a leaf, or a cut
    /// whose children append to `nodes`. A full build fills the root; an
    /// install that overflows a leaf refills that leaf where it stands.
    fn fill_node(
        &mut self,
        id: usize,
        mut ids: Vec<usize>,
        entries: &[TableEntry],
        ranks: &[Rank],
        depth: usize,
    ) {
        self.max_depth = self.max_depth.max(depth);
        let max_key = ids.iter().map(|&i| order_key(ranks, i)).max();
        let cut = if ids.len() <= LEAF_MAX || depth >= MAX_DEPTH {
            None
        } else {
            Self::choose_cut(&ids, entries)
        };
        let Some(cut) = cut else {
            ids.sort_by_key(|&i| Reverse(order_key(ranks, i)));
            self.nodes[id] = TreeNode::leaf(ids, max_key, depth);
            return;
        };
        let fan = 1usize << cut.bits;
        let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); fan];
        let mut local = Vec::new();
        for &i in &ids {
            match cut_value(&entries[i].matches[cut.dim], &cut) {
                Some(v) => partitions[v as usize].push(i),
                None => local.push(i),
            }
        }
        local.sort_by_key(|&i| Reverse(order_key(ranks, i)));
        self.nodes[id] = TreeNode {
            cut: Some(cut),
            children: vec![NO_CHILD; fan],
            local,
            max_key,
            split_at: usize::MAX,
        };
        for (slot, part) in partitions.into_iter().enumerate() {
            if !part.is_empty() {
                let child = self.nodes.len();
                self.nodes.push(TreeNode::leaf(Vec::new(), None, depth + 1));
                self.nodes[id].children[slot] = child;
                self.fill_node(child, part, entries, ranks, depth + 1);
            }
        }
    }

    /// The node whose `local` holds `entry` if it is installed: the end of
    /// the entry's own descent.
    fn home_of(&self, entry: &TableEntry) -> Option<usize> {
        let mut node = 0usize;
        loop {
            let n = &self.nodes[node];
            let Some(cut) = n.cut else { return Some(node) };
            match cut_value(entry.matches.get(cut.dim)?, &cut) {
                None => return Some(node),
                Some(v) => match n.children[v as usize] {
                    NO_CHILD => return None,
                    child => node = child,
                },
            }
        }
    }
}

impl ClassifierIndex for DecisionTreeIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::DecisionTree
    }

    fn clone_box(&self) -> Box<dyn ClassifierIndex> {
        Box::new(self.clone())
    }

    fn build(&mut self, entries: &[TableEntry], ranks: &[Rank]) {
        *self = DecisionTreeIndex {
            built_len: entries.len(),
            ..DecisionTreeIndex::default()
        };
        self.fill_node(0, (0..entries.len()).collect(), entries, ranks, 0);
    }

    fn insert(&mut self, entries: &[TableEntry], ranks: &[Rank], idx: usize) -> bool {
        let key = Some(order_key(ranks, idx));
        self.grown += 1;
        // The geometric refresh — the one rebuild an installing tree still
        // asks for, O(log n) times over a table's life: cuts chosen for the
        // built set go stale as installs and deletes pile up.
        if self.grown.max(self.shrunk) > self.built_len / 2 + LEAF_SPLIT {
            return false;
        }
        let mut node = 0usize;
        let mut depth = 0usize;
        loop {
            let n = &mut self.nodes[node];
            n.max_key = n.max_key.max(key);
            let pinned = n
                .cut
                .and_then(|cut| cut_value(&entries[idx].matches[cut.dim], &cut));
            let Some(v) = pinned else {
                ordered_insert(&mut n.local, ranks, idx);
                if n.local.len() >= n.split_at {
                    // The leaf outgrew itself: cut it where it stands.
                    let ids = std::mem::take(&mut n.local);
                    self.fill_node(node, ids, entries, ranks, depth);
                }
                return true;
            };
            depth += 1;
            let child = n.children[v as usize];
            node = if child != NO_CHILD {
                child
            } else {
                let new_id = self.nodes.len();
                self.nodes[node].children[v as usize] = new_id;
                self.nodes.push(TreeNode::leaf(Vec::new(), None, depth));
                self.max_depth = self.max_depth.max(depth);
                new_id
            };
        }
    }

    fn remove(&mut self, removed: &TableEntry, _rank: Rank, idx: usize) -> bool {
        let Some(home) = self.home_of(removed) else {
            return false;
        };
        let local = &mut self.nodes[home].local;
        let Some(at) = local.iter().position(|&i| i == idx) else {
            return false;
        };
        local.remove(at);
        self.shrunk += 1;
        true
    }

    fn remove_many(&mut self, removed: &[usize]) -> bool {
        for n in &mut self.nodes {
            // Survivors keep their relative order: `local` stays sorted.
            n.local.retain_mut(|pos| renumber(removed, pos));
            // A removed bound's position becomes its next survivor's, which
            // still bounds every entry that followed it.
            if let Some((_, Reverse(pos))) = &mut n.max_key {
                *pos -= removed.partition_point(|&r| r < *pos);
            }
        }
        self.shrunk += removed.len();
        true
    }

    fn position(&self, entries: &[TableEntry], entry: &TableEntry) -> Option<usize> {
        let local = &self.nodes[self.home_of(entry)?].local;
        // Equal entries share a rank, and within a rank `local` is in
        // install order: the first equal entry found is the lowest.
        let rank = rank_of(entry);
        let from = local.partition_point(|&i| rank_of(&entries[i]) > rank);
        local[from..]
            .iter()
            .copied()
            .take_while(|&i| rank_of(&entries[i]) == rank)
            .find(|&i| entries[i] == *entry)
    }

    fn lookup(
        &self,
        entries: &[TableEntry],
        ranks: &[Rank],
        keys: &[Value],
        log: &ProbeLog,
    ) -> Option<usize> {
        let mut best: Option<OrderKey> = None;
        let mut probes = 0u64;
        let mut depth = 0u64;
        let mut node = 0usize;
        loop {
            let n = &self.nodes[node];
            probes += 1;
            for &i in &n.local {
                // Local lists are in arbitration order: the first match is
                // the list's best, and from the first entry the current
                // best beats nothing here can win.
                let key = order_key(ranks, i);
                if best.is_some_and(|b| key <= b) {
                    break;
                }
                probes += 1;
                if entry_matches(&entries[i], keys) {
                    best = Some(key);
                    break;
                }
            }
            let Some(cut) = n.cut else { break };
            let Some(&k) = keys.get(cut.dim) else { break };
            if k.bits() != cut.width {
                // Every subtree entry pins a window of `width`-bit keys;
                // a different key width can only match local/spill rules.
                break;
            }
            let child = n.children[((k.raw() >> cut.shift) & low_mask(cut.bits)) as usize];
            if child == NO_CHILD {
                break;
            }
            // The bound is on the whole order key: a subtree that cannot
            // beat the hit is pruned, an equal-rank one when its earliest
            // install of that rank came after the hit's.
            if best.is_some_and(|b| self.nodes[child].max_key.is_none_or(|m| m <= b)) {
                break;
            }
            node = child;
            depth += 1;
        }
        log.record_probes(probes.max(1));
        log.record_depth(depth);
        best.map(|(_, Reverse(i))| i)
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            kind: IndexKind::DecisionTree,
            partitions: self.nodes.len(),
            spill: self.nodes[0].local.len(),
            max_depth: self.max_depth,
        }
    }
}

// ---------------------------------------------------------------------------
// Selection heuristic
// ---------------------------------------------------------------------------

/// Minimum entry count before the decision tree is ever worth building.
const TREE_MIN_ENTRIES: usize = 64;

/// Decision tree when the tuple space is degenerate (tuples or spill
/// approaching the entry count), else tuple-space search.
fn tcam_kind(n: usize, tuples: usize, spill: usize) -> IndexKind {
    if n >= TREE_MIN_ENTRIES && (tuples * 4 >= n || spill * 2 >= n) {
        IndexKind::DecisionTree
    } else {
        IndexKind::TupleSpace
    }
}

/// Desired kind after an incremental install, given the current index's
/// self-reported stats. An all-exact table is served by `Exact`; every
/// other table by the TCAM rule of [`tcam_kind`]. Sticky: a decision tree
/// stays a decision tree until a rebuild re-evaluates from scratch.
pub(crate) fn auto_kind_after_insert(
    all_exact: bool,
    n: usize,
    current: IndexKind,
    stats: &IndexStats,
) -> IndexKind {
    if all_exact {
        IndexKind::Exact
    } else if current == IndexKind::DecisionTree {
        IndexKind::DecisionTree
    } else {
        tcam_kind(n, stats.partitions, stats.spill)
    }
}

/// Desired kind for a full rebuild, computed from the entries themselves
/// (for an empty table, its initial kind).
pub(crate) fn auto_kind_from_entries(all_exact: bool, entries: &[TableEntry]) -> IndexKind {
    if all_exact {
        return IndexKind::Exact;
    }
    let mut sigs = HashSet::new();
    let mut spill = 0usize;
    for e in entries {
        let sig: Option<Vec<KeySig>> = e.matches.iter().map(|m| Some(key_sig(m)?.0)).collect();
        match sig {
            Some(sig) => {
                sigs.insert(sig);
            }
            None => spill += 1,
        }
    }
    tcam_kind(entries.len(), sigs.len(), spill)
}

/// Constructs an empty index of the requested kind.
pub(crate) fn make_index(kind: IndexKind) -> Box<dyn ClassifierIndex> {
    match kind {
        IndexKind::Scan => Box::new(ScanIndex::default()),
        IndexKind::Exact => Box::new(ExactIndex::default()),
        IndexKind::TupleSpace => Box::new(TupleSpaceIndex::default()),
        IndexKind::DecisionTree => Box::new(DecisionTreeIndex::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ground-truth arbitration: best rank, ties to lowest index.
    fn oracle(entries: &[TableEntry], ranks: &[Rank], keys: &[Value]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, e) in entries.iter().enumerate() {
            if entry_matches(e, keys) {
                let better = best.is_none_or(|b| ranks[i] > ranks[b]);
                if better {
                    best = Some(i);
                }
            }
        }
        best
    }

    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }

    fn random_entry(r: &mut Lcg) -> TableEntry {
        let m0 = match r.next() % 6 {
            0 => KeyMatch::Any,
            1 => KeyMatch::Exact(Value::new(r.next() as u128 % 64, 16)),
            2 => {
                let masks = [0xff00u128, 0x0ff0, 0xffff, 0x00ff, 0x3c3c, 0];
                let m = masks[(r.next() % 6) as usize];
                KeyMatch::Ternary(Value::new(r.next() as u128, 16), Value::new(m, 16))
            }
            3 => KeyMatch::Lpm(Value::new(r.next() as u128, 16), (r.next() % 17) as u16),
            4 => {
                let lo = r.next() as u128 % 256;
                let hi = lo + r.next() as u128 % 4;
                KeyMatch::Range(Value::new(lo, 16), Value::new(hi, 16))
            }
            _ => KeyMatch::Ternary(Value::new(r.next() as u128, 8), Value::new(0xf0, 8)),
        };
        TableEntry {
            matches: vec![m0],
            action: "a".into(),
            action_args: vec![],
            priority: (r.next() % 4) as i32,
        }
    }

    fn random_keys(r: &mut Lcg) -> Vec<Value> {
        let bits = if r.next().is_multiple_of(8) { 8 } else { 16 };
        vec![Value::new(r.next() as u128 % 300, bits)]
    }

    fn check_against_oracle(kind: IndexKind, seed: u64, n: usize) {
        let mut r = Lcg(seed);
        let entries: Vec<_> = (0..n).map(|_| random_entry(&mut r)).collect();
        let ranks: Vec<_> = entries.iter().map(rank_of).collect();
        let mut ix = make_index(kind);
        ix.build(&entries, &ranks);
        let log = ProbeLog::default();
        for _ in 0..400 {
            let keys = random_keys(&mut r);
            assert_eq!(
                ix.lookup(&entries, &ranks, &keys, &log),
                oracle(&entries, &ranks, &keys),
                "{kind:?} diverged on {keys:?}"
            );
        }
        assert!(log.probes() > 0);
    }

    #[test]
    fn scan_matches_oracle() {
        check_against_oracle(IndexKind::Scan, 1, 120);
    }

    #[test]
    fn tuple_space_matches_oracle() {
        for seed in 0..8 {
            check_against_oracle(IndexKind::TupleSpace, seed, 150);
        }
    }

    #[test]
    fn decision_tree_matches_oracle() {
        for seed in 0..8 {
            check_against_oracle(IndexKind::DecisionTree, seed, 150);
        }
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        for kind in [IndexKind::TupleSpace, IndexKind::DecisionTree] {
            let mut r = Lcg(99);
            let mut entries = Vec::new();
            let mut ranks = Vec::new();
            let mut ix = make_index(kind);
            ix.build(&entries, &ranks);
            for _ in 0..120 {
                entries.push(random_entry(&mut r));
                ranks.push(rank_of(entries.last().unwrap()));
                if !ix.insert(&entries, &ranks, entries.len() - 1) {
                    ix.build(&entries, &ranks);
                }
                let keys = random_keys(&mut r);
                let log = ProbeLog::default();
                assert_eq!(
                    ix.lookup(&entries, &ranks, &keys, &log),
                    oracle(&entries, &ranks, &keys),
                    "{kind:?} diverged mid-insert"
                );
            }
        }
    }

    #[test]
    fn tuple_space_incremental_remove() {
        let mut r = Lcg(7);
        let entries: Vec<_> = (0..80).map(|_| random_entry(&mut r)).collect();
        let ranks: Vec<_> = entries.iter().map(rank_of).collect();
        let mut ix = TupleSpaceIndex::default();
        ix.build(&entries, &ranks);
        // Remove the tail half one by one (the only shape `remove` must
        // support: the victim is always the last live index).
        let mut live_entries = entries.clone();
        let mut live_ranks = ranks.clone();
        for idx in (40..entries.len()).rev() {
            assert!(ix.remove(&entries[idx], ranks[idx], idx), "remove {idx}");
            live_entries.truncate(idx);
            live_ranks.truncate(idx);
            let keys = random_keys(&mut r);
            let log = ProbeLog::default();
            assert_eq!(
                ix.lookup(&live_entries, &live_ranks, &keys, &log),
                oracle(&live_entries, &live_ranks, &keys),
            );
        }
    }

    /// An all-exact entry on one 8-bit key (`None` = the `Any` wildcard).
    fn exact_entry(key: Option<u128>, arg: u128, priority: i32) -> TableEntry {
        TableEntry {
            matches: vec![key.map_or(KeyMatch::Any, |k| KeyMatch::Exact(Value::new(k, 8)))],
            action: "a".into(),
            action_args: vec![Value::new(arg, 16)],
            priority,
        }
    }

    /// `ix` answers every key of the 8-bit space and the position of every
    /// entry like a fresh build over `entries`.
    fn assert_equals_fresh_build(ix: &ExactIndex, entries: &[TableEntry], ranks: &[Rank]) {
        let mut fresh = ExactIndex::default();
        fresh.build(entries, ranks);
        let log = ProbeLog::default();
        for k in 0..=255u128 {
            let keys = [Value::new(k, 8)];
            assert_eq!(
                ix.lookup(entries, ranks, &keys, &log),
                fresh.lookup(entries, ranks, &keys, &log),
                "key {k}"
            );
        }
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(ix.position(entries, e), Some(i), "entry {i}");
            assert_eq!(fresh.position(entries, e), Some(i), "entry {i} (fresh)");
        }
        assert_eq!(ix.stats(), fresh.stats());
    }

    #[test]
    fn exact_remove_many_equals_rebuild_over_compacted_entries() {
        for seed in 0..32 {
            let mut r = Lcg(seed);
            // Distinct keys in shuffled install order, wildcards in between.
            let mut keys: Vec<u128> = (0..48).collect();
            for i in (1..keys.len()).rev() {
                keys.swap(i, (r.next() % (i as u64 + 1)) as usize);
            }
            let mut entries = Vec::new();
            for (n, k) in keys.into_iter().enumerate() {
                entries.push(exact_entry(Some(k), n as u128, (r.next() % 3) as i32));
                if r.next().is_multiple_of(8) {
                    entries.push(exact_entry(None, n as u128, (r.next() % 3) as i32));
                }
            }
            let mut ranks: Vec<_> = entries.iter().map(rank_of).collect();
            let mut ix = ExactIndex::default();
            ix.build(&entries, &ranks);
            // Three rounds, so renumbered positions get renumbered again.
            for _ in 0..3 {
                let removed: Vec<usize> = (0..entries.len())
                    .filter(|_| r.next().is_multiple_of(3))
                    .collect();
                assert!(ix.remove_many(&removed), "no duplicate key is installed");
                for &i in removed.iter().rev() {
                    let gone = entries.remove(i);
                    ranks.remove(i);
                    assert_eq!(ix.position(&entries, &gone), None);
                }
                assert_equals_fresh_build(&ix, &entries, &ranks);
            }
        }
    }

    #[test]
    fn exact_falls_back_while_a_key_tuple_holds_two_entries() {
        // 1 and 3 are equal; 2 shares their key with a lower priority.
        let mut entries = vec![
            exact_entry(Some(9), 3, 0),
            exact_entry(Some(7), 1, 5),
            exact_entry(Some(7), 2, 0),
            exact_entry(Some(7), 1, 5),
        ];
        let mut ranks: Vec<_> = entries.iter().map(rank_of).collect();
        let mut ix = ExactIndex::default();
        ix.build(&entries, &ranks);
        assert_eq!(
            ix.position(&entries, &entries[3]),
            Some(1),
            "first equal entry"
        );
        assert_eq!(
            ix.position(&entries, &entries[2]),
            Some(2),
            "shadowed entry"
        );
        assert!(!ix.clone().remove_many(&[0]), "duplicates present: rebuild");
        assert!(
            !ix.clone().remove(&entries[1], ranks[1], 1),
            "the winner's successor is unknown: rebuild"
        );
        // Shadowed duplicates go quietly (`remove` takes the tail); once
        // the last is gone the fast paths are back.
        for idx in [3, 2] {
            let gone = entries.pop().unwrap();
            assert!(ix.remove(&gone, ranks.pop().unwrap(), idx));
        }
        assert_eq!(entries.len(), 2);
        assert_equals_fresh_build(&ix, &entries, &ranks);
        assert!(ix.remove_many(&[0]));
        entries.remove(0);
        ranks.remove(0);
        assert_equals_fresh_build(&ix, &entries, &ranks);
        let last = entries.pop().unwrap();
        assert!(ix.remove(&last, ranks.pop().unwrap(), 0), "sole winner");
        assert_equals_fresh_build(&ix, &entries, &ranks);
    }

    #[test]
    fn tuple_space_early_exit_keeps_install_order_ties() {
        // Two entries, same rank, different tuples, both matching: the
        // earlier install must win even though its tuple is probed second
        // (tuple ids break probe-order ties).
        let e0 = TableEntry {
            matches: vec![KeyMatch::Ternary(Value::new(0x10, 8), Value::new(0xf0, 8))],
            action: "a".into(),
            action_args: vec![],
            priority: 5,
        };
        let e1 = TableEntry {
            matches: vec![KeyMatch::Ternary(Value::new(0x01, 8), Value::new(0x0f, 8))],
            action: "a".into(),
            action_args: vec![],
            priority: 5,
        };
        let entries = vec![e0, e1];
        let ranks: Vec<_> = entries.iter().map(rank_of).collect();
        let mut ix = TupleSpaceIndex::default();
        ix.build(&entries, &ranks);
        let log = ProbeLog::default();
        let hit = ix.lookup(&entries, &ranks, &[Value::new(0x11, 8)], &log);
        assert_eq!(hit, Some(0));
    }

    #[test]
    fn heuristic_selects_tree_for_diverse_masks() {
        // 64 entries, each with a unique ternary mask → tuple per entry.
        let entries: Vec<_> = (0..64u128)
            .map(|i| TableEntry {
                matches: vec![KeyMatch::Ternary(
                    Value::new(i, 32),
                    Value::new(0xffff_0000 | i, 32),
                )],
                action: "a".into(),
                action_args: vec![],
                priority: 0,
            })
            .collect();
        assert_eq!(
            auto_kind_from_entries(false, &entries),
            IndexKind::DecisionTree
        );
        // One shared mask → one tuple → tuple space.
        let uniform: Vec<_> = (0..64u128)
            .map(|i| TableEntry {
                matches: vec![KeyMatch::Ternary(
                    Value::new(i << 8, 32),
                    Value::new(0xffff_ff00, 32),
                )],
                action: "a".into(),
                action_args: vec![],
                priority: 0,
            })
            .collect();
        assert_eq!(
            auto_kind_from_entries(false, &uniform),
            IndexKind::TupleSpace
        );
    }

    #[test]
    fn log2_buckets() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 1);
        assert_eq!(log2_bucket(4), 2);
        assert_eq!(log2_bucket(255), 7);
        assert_eq!(log2_bucket(u64::MAX), 7);
    }

    #[test]
    fn sig_classification() {
        assert_eq!(key_sig(&KeyMatch::Any), Some((KeySig::Wild, 0)));
        assert_eq!(
            key_sig(&KeyMatch::Lpm(Value::new(0, 32), 0)),
            Some((KeySig::Wild, 0))
        );
        assert_eq!(
            key_sig(&KeyMatch::Ternary(Value::new(1, 8), Value::new(0, 8))),
            Some((KeySig::Wild, 0))
        );
        assert!(key_sig(&KeyMatch::Range(Value::new(1, 8), Value::new(2, 8))).is_none());
        assert_eq!(
            key_sig(&KeyMatch::Range(Value::new(3, 8), Value::new(3, 8))),
            Some((KeySig::Raw, 3))
        );
        let (sig, stored) = key_sig(&KeyMatch::Lpm(Value::new(0x0a00_00ff, 32), 8)).unwrap();
        assert_eq!(
            sig,
            KeySig::Masked {
                bits: 32,
                mask: 0xff00_0000
            }
        );
        assert_eq!(stored, 0x0a00_0000);
    }

    /// An `acl_ruleset`-shaped rule on two 32-bit ternary fields: seven in
    /// ten are prefix pairs (/0 … /32), the rest scattered masks.
    fn acl_entry(r: &mut Lcg) -> TableEntry {
        let prefix = |r: &mut Lcg| match r.next() % 5 {
            0 => 0u32,
            len => u32::MAX << (32 - 8 * len),
        };
        let (src_mask, dst_mask) = if r.next() % 10 < 7 {
            (prefix(r), prefix(r))
        } else {
            (r.next() as u32, r.next() as u32)
        };
        let ternary = |val: u32, mask: u32| {
            KeyMatch::Ternary(
                Value::new(u128::from(val & mask), 32),
                Value::new(u128::from(mask), 32),
            )
        };
        TableEntry {
            matches: vec![
                ternary(r.next() as u32, src_mask),
                ternary(r.next() as u32, dst_mask),
            ],
            action: "a".into(),
            action_args: vec![],
            priority: (r.next() % 32) as i32,
        }
    }

    /// A key tuple `e` matches: its pinned bits, noise elsewhere.
    fn matching_keys(e: &TableEntry, r: &mut Lcg) -> Vec<Value> {
        e.matches
            .iter()
            .map(|m| match m {
                KeyMatch::Ternary(val, mask) => {
                    Value::new(val.raw() | (u128::from(r.next() as u32) & !mask.raw()), 32)
                }
                _ => unreachable!("acl entries are ternary"),
            })
            .collect()
    }

    /// The tree's structure over `entries`: every position sits in exactly
    /// one `local` — the one its own descent ends in — every `local` is
    /// `(rank desc, idx asc)`, every `max_key` bounds the order keys of its
    /// subtree (install index included, not just rank), and the nodes form
    /// one tree under slot 0.
    fn assert_tree_invariants(ix: &DecisionTreeIndex, entries: &[TableEntry], ranks: &[Rank]) {
        fn subtree_max(
            ix: &DecisionTreeIndex,
            id: usize,
            ranks: &[Rank],
            visited: &mut usize,
        ) -> Option<OrderKey> {
            *visited += 1;
            let n = &ix.nodes[id];
            let mut max = n.local.iter().map(|&i| order_key(ranks, i)).max();
            for &c in n.children.iter().filter(|&&c| c != NO_CHILD) {
                max = max.max(subtree_max(ix, c, ranks, visited));
            }
            assert!(n.max_key >= max, "node {id}: {:?} < {max:?}", n.max_key);
            max
        }
        let mut homes = vec![0u32; entries.len()];
        for (id, n) in ix.nodes.iter().enumerate() {
            assert!(
                n.local
                    .windows(2)
                    .all(|w| order_key(ranks, w[0]) > order_key(ranks, w[1])),
                "node {id} unsorted"
            );
            for &i in &n.local {
                homes[i] += 1;
                assert_eq!(
                    ix.home_of(&entries[i]),
                    Some(id),
                    "entry {i} off its descent"
                );
            }
        }
        assert!(
            homes.iter().all(|&c| c == 1),
            "an entry is lost or held twice"
        );
        let mut visited = 0;
        subtree_max(ix, 0, ranks, &mut visited);
        assert_eq!(visited, ix.nodes.len(), "a node is unreachable or shared");
    }

    /// Installs one at a time past every leaf's capacity, tail and interior
    /// removals, bulk removals and duplicates, at the scale where leaves
    /// split in place and positions are renumbered across appended nodes:
    /// after every step the structure holds, `position` is the linear
    /// scan's, and lookups are the oracle's.
    #[test]
    fn decision_tree_absorbs_churn_at_acl_scale() {
        for seed in 0..4 {
            let mut r = Lcg(0xac1 + seed);
            let mut entries: Vec<TableEntry> = Vec::new();
            let mut ranks: Vec<Rank> = Vec::new();
            let mut ix = DecisionTreeIndex::default();
            let (mut rebuilds, mut splits) = (0, 0);
            let log = ProbeLog::default();
            for step in 0..1200 {
                match r.next() % 16 {
                    // Interior removal of one position.
                    0 | 1 if !entries.is_empty() => {
                        let at = (r.next() % entries.len() as u64) as usize;
                        assert!(ix.remove_many(&[at]));
                        entries.remove(at);
                        ranks.remove(at);
                    }
                    // Tail removal.
                    2 if !entries.is_empty() => {
                        let gone = entries.pop().unwrap();
                        let rank = ranks.pop().unwrap();
                        assert!(ix.remove(&gone, rank, entries.len()), "step {step}");
                        assert_eq!(
                            ix.position(&entries, &gone).is_some(),
                            entries.contains(&gone)
                        );
                    }
                    // A sweep: every fifth position from a random start.
                    3 if step % 8 == 0 && !entries.is_empty() => {
                        let from = (r.next() % entries.len() as u64) as usize;
                        let removed: Vec<usize> = (from..entries.len()).step_by(5).collect();
                        assert!(ix.remove_many(&removed));
                        for &i in removed.iter().rev() {
                            entries.remove(i);
                            ranks.remove(i);
                        }
                    }
                    sel => {
                        // One install in eight repeats an installed rule.
                        let e = if sel == 4 && !entries.is_empty() {
                            entries[(r.next() % entries.len() as u64) as usize].clone()
                        } else {
                            acl_entry(&mut r)
                        };
                        ranks.push(rank_of(&e));
                        entries.push(e);
                        let nodes = ix.nodes.len();
                        if !ix.insert(&entries, &ranks, entries.len() - 1) {
                            ix.build(&entries, &ranks);
                            rebuilds += 1;
                        } else if ix.nodes.len() > nodes + 1 {
                            splits += 1;
                        }
                    }
                }
                assert_tree_invariants(&ix, &entries, &ranks);
                if entries.is_empty() {
                    continue;
                }
                for _ in 0..4 {
                    let e = &entries[(r.next() % entries.len() as u64) as usize];
                    assert_eq!(
                        ix.position(&entries, e),
                        entries.iter().position(|x| x == e),
                        "step {step}: not the first equal entry"
                    );
                    let keys = matching_keys(e, &mut r);
                    assert_eq!(
                        ix.lookup(&entries, &ranks, &keys, &log),
                        oracle(&entries, &ranks, &keys),
                        "step {step}: diverged on {keys:?}"
                    );
                }
                let mut absent = acl_entry(&mut r);
                absent.priority = 99;
                assert_eq!(ix.position(&entries, &absent), None);
            }
            assert!(entries.len() > 300, "the churn grows the table");
            assert!(
                rebuilds <= 8,
                "{rebuilds} rebuilds for {} entries",
                entries.len()
            );
            assert!(splits > 8, "{splits} leaves were cut where they stood");
        }
    }

    #[test]
    fn tuple_space_position_is_the_first_equal_entry() {
        let mut r = Lcg(11);
        let mut entries: Vec<_> = (0..200).map(|_| random_entry(&mut r)).collect();
        // Repeats of installed entries (ranges in the spill included).
        for i in 0..50 {
            entries.push(entries[i * 3].clone());
        }
        let ranks: Vec<_> = entries.iter().map(rank_of).collect();
        let mut ix = TupleSpaceIndex::default();
        ix.build(&entries, &ranks);
        for e in &entries {
            assert_eq!(
                ix.position(&entries, e),
                entries.iter().position(|x| x == e)
            );
        }
        let mut absent = entries[0].clone();
        absent.priority = 99;
        assert_eq!(ix.position(&entries, &absent), None);
    }
}
