//! Runtime table state — the entries the control plane installs.
//!
//! The P4 program fixes each table's *shape* (`dejavu_p4ir::TableDef`); the
//! control plane populates it at run time (the paper's §3.1: "the control
//! plane will simply install a new session in the lb_session upon packet
//! reception"). [`TableState`] owns the entries of every table of one
//! pipelet program and implements hardware match semantics:
//!
//! * exact tables: at most one matching entry,
//! * LPM keys: the longest matching prefix wins,
//! * ternary/range keys: the highest-priority matching entry wins.
//!
//! Lookups are served from per-table [`crate::index::ClassifierIndex`]es
//! maintained incrementally at install/delete/aging time, the way a switch
//! driver shadows hardware match memories:
//!
//! * all-exact-key tables get a hash index keyed on the full key tuple
//!   (SRAM-style O(1) lookup),
//! * every other table — LPM, ternary, range, mixed — gets **tuple-space
//!   search** (one hash table per mask tuple, so one per prefix length,
//!   probed in descending max-rank order with early exit), migrating to a
//!   **HyperCuts-style decision tree** when the ruleset's mask diversity
//!   makes the tuple space degenerate.
//!
//! The selection heuristic lives in `crate::index`; a per-table
//! [`IndexPolicy`] can pin any admissible kind (benchmark baselines,
//! differential tests). [`TableState::lookup_scan`] preserves the original
//! linear-scan semantics as the reference oracle, so the property suite can
//! differentially check every index against it. Hit/miss counters live in
//! `Cell`s so the counting and read-only lookup paths share one `&self`
//! code path.

use crate::index::{
    auto_kind_after_insert, auto_kind_from_entries, make_index, rank_of, ClassifierIndex,
    IndexKind, IndexPolicy, IndexTelemetry, ProbeLog, Rank,
};
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::{IrError, MatchKind, TableDef, Value};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Hit/miss counters of one table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableCounters {
    /// Lookups that matched an installed entry.
    pub hits: u64,
    /// Lookups that fell through to the default action.
    pub misses: u64,
}

/// One digest message emitted by an action's `digest(...)` primitive.
/// After program merging the stream name is scoped like tables
/// (`<nf>__<stream>`), which is what the control-plane learning loop keys
/// its handlers on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestRecord {
    /// Digest stream name, shared with the compiled program that emits it.
    pub name: Arc<str>,
    /// Evaluated field values, in the order the action listed them.
    pub values: Vec<Value>,
}

/// Runtime state of one table: entries in install order, the pluggable
/// classification index, and interior-mutable counters.
#[derive(Debug, Clone)]
struct TableRt {
    entries: Vec<TableEntry>,
    ranks: Vec<Rank>,
    /// Ordinal of each entry's action within the table definition's action
    /// list, parallel to `entries`. Resolved once at install time so the
    /// engines' hot paths can map a hit to a prelowered action without
    /// hashing the action name per packet.
    action_ords: Vec<usize>,
    /// Every key is `MatchKind::Exact`: the one shape `Exact` can serve.
    all_exact: bool,
    /// Auto-select or pinned index kind.
    policy: IndexPolicy,
    index: Box<dyn ClassifierIndex>,
    /// Probe/depth effort recorded by the index on every lookup.
    probe_log: ProbeLog,
    /// Times the index was rebuilt from scratch (migrations and sweeps).
    rebuilds: u64,
    hits: Cell<u64>,
    misses: Cell<u64>,
    /// Logical tick of the last hit, parallel to `entries` (install tick
    /// until first hit). `Cell` for the same reason as the counters: the
    /// lookup paths take `&self`.
    last_hit: Vec<Cell<u64>>,
    /// Idle timeout in logical ticks; `None` disables aging.
    idle_timeout: Option<u64>,
    /// Entries evicted so far (expiry sweeps + LRU capacity evictions).
    evictions: Cell<u64>,
    /// Lower bound on the minimum `last_hit` stamp across live entries
    /// (`u64::MAX` when empty). Stamps only move forward, so the bound
    /// stays valid between full sweeps and lets `advance_clock` skip the
    /// per-entry scan while `now - floor < timeout` — the steady-state
    /// fast path when every flow is active.
    stamp_floor: u64,
}

impl TableRt {
    fn new(def: &TableDef) -> Self {
        let all_exact = def.keys.iter().all(|k| k.kind == MatchKind::Exact);
        TableRt {
            entries: Vec::new(),
            ranks: Vec::new(),
            action_ords: Vec::new(),
            all_exact,
            policy: IndexPolicy::Auto,
            index: make_index(auto_kind_from_entries(all_exact, &[])),
            probe_log: ProbeLog::default(),
            rebuilds: 0,
            hits: Cell::new(0),
            misses: Cell::new(0),
            last_hit: Vec::new(),
            idle_timeout: None,
            evictions: Cell::new(0),
            stamp_floor: u64::MAX,
        }
    }

    fn push(&mut self, entry: TableEntry, now: u64, action_ord: usize) {
        self.stamp_floor = self.stamp_floor.min(now);
        let idx = self.entries.len();
        let rank = rank_of(&entry);
        self.entries.push(entry);
        self.ranks.push(rank);
        self.action_ords.push(action_ord);
        self.last_hit.push(Cell::new(now));
        if !self.index.insert(&self.entries, &self.ranks, idx) {
            // The index asked for its refresh (the tree, geometrically):
            // the one point where a sticky kind is judged again.
            self.reindex_auto();
        }
        self.maybe_migrate();
    }

    /// Room for `n` more entries without growing the per-entry lists.
    fn reserve(&mut self, n: usize) {
        self.entries.reserve(n);
        self.ranks.reserve(n);
        self.action_ords.reserve(n);
        self.last_hit.reserve(n);
    }

    /// Room for one more entry of `def`. A full table with aging evicts
    /// its least-recently-hit entry, like a learn cache (the bounded-memory
    /// LRU fallback); a full table without aging refuses.
    fn make_room(&mut self, def: &TableDef) -> Result<(), IrError> {
        if (self.entries.len() as u32) < def.size {
            return Ok(());
        }
        match self.lru_victim() {
            Some(victim) if self.idle_timeout.is_some() => {
                self.remove_at(victim);
                self.evictions.set(self.evictions.get() + 1);
                Ok(())
            }
            _ => Err(IrError::Invalid(format!(
                "table {} full ({} entries)",
                def.name, def.size
            ))),
        }
    }

    /// Rebuilds the current index from the full entry list.
    fn rebuild_index(&mut self) {
        self.index.build(&self.entries, &self.ranks);
        self.rebuilds += 1;
    }

    /// The kind the policy/heuristic wants right now, judged from the live
    /// index's self-reported stats (the cheap post-install check).
    fn desired_kind_incremental(&self) -> IndexKind {
        match self.policy {
            IndexPolicy::Force(k) => k,
            IndexPolicy::Auto => auto_kind_after_insert(
                self.all_exact,
                self.entries.len(),
                self.index.kind(),
                &self.index.stats(),
            ),
        }
    }

    /// Swaps to the desired index kind (and rebuilds) if it changed.
    fn maybe_migrate(&mut self) {
        let desired = self.desired_kind_incremental();
        if desired != self.index.kind() {
            self.index = make_index(desired);
            self.rebuild_index();
        }
    }

    /// Re-evaluates the desired kind from the entries themselves and
    /// rebuilds — the path for every mutation the index could not absorb
    /// and for policy changes.
    fn reindex_auto(&mut self) {
        let desired = match self.policy {
            IndexPolicy::Force(k) => k,
            IndexPolicy::Auto => auto_kind_from_entries(self.all_exact, &self.entries),
        };
        if desired != self.index.kind() {
            self.index = make_index(desired);
        }
        self.rebuild_index();
    }

    /// Records a hit against entry `i` at logical tick `now`.
    fn touch(&self, i: usize, now: u64) {
        self.last_hit[i].set(now);
    }

    /// Removes the entries at the strictly ascending positions `removed`
    /// and hands them back in that order. Survivors keep install order and
    /// their hit stamps; the index absorbs the renumbering where it can and
    /// is rebuilt once where it cannot. Callers account for evictions
    /// themselves — a control-plane delete is not an eviction — and
    /// `stamp_floor` stays a valid lower bound.
    fn remove_sorted(&mut self, removed: &[usize]) -> Vec<TableEntry> {
        let absorbed = self.index.remove_many(removed);
        let taken = take_sorted(&mut self.entries, removed).collect();
        take_sorted(&mut self.ranks, removed).for_each(drop);
        take_sorted(&mut self.action_ords, removed).for_each(drop);
        take_sorted(&mut self.last_hit, removed).for_each(drop);
        if !absorbed {
            self.reindex_auto();
        }
        taken
    }

    /// Removes the entry at `victim`. The tail case (learn-cache LRU churn
    /// on fresh entries) is one incremental `remove`; interior removals
    /// compact.
    fn remove_at(&mut self, victim: usize) {
        if victim + 1 == self.entries.len() {
            let entry = self.entries.pop().expect("victim in bounds");
            let rank = self.ranks.pop().expect("ranks parallel");
            self.action_ords.pop();
            self.last_hit.pop();
            if !self.index.remove(&entry, rank, victim) {
                self.reindex_auto();
            }
        } else {
            self.remove_sorted(&[victim]);
        }
    }

    /// Position of the first installed entry equal to `entry`.
    fn position(&self, entry: &TableEntry) -> Option<usize> {
        self.index.position(&self.entries, entry)
    }

    /// Index of the least-recently-hit entry (ties → earliest install).
    fn lru_victim(&self) -> Option<usize> {
        (0..self.entries.len()).min_by_key(|&i| (self.last_hit[i].get(), i))
    }

    /// Indexed lookup: the winning entry index, or `None` on miss.
    fn find(&self, keys: &[Value]) -> Option<usize> {
        self.index
            .lookup(&self.entries, &self.ranks, keys, &self.probe_log)
    }

    /// The counting lookup behind every engine-facing view: find the
    /// winner, count the hit or miss, stamp a hit at `now` for aging.
    fn lookup(&self, keys: &[Value], now: u64) -> Option<(usize, &TableEntry)> {
        let found = self.find(keys);
        self.count(found.is_some());
        let i = found?;
        self.touch(i, now);
        Some((self.action_ords[i], &self.entries[i]))
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.set(self.hits.get() + 1);
        } else {
            self.misses.set(self.misses.get() + 1);
        }
    }

    fn clear_entries(&mut self) {
        self.entries.clear();
        self.ranks.clear();
        self.action_ords.clear();
        self.last_hit.clear();
        self.stamp_floor = u64::MAX;
        self.reindex_auto();
    }
}

/// An entry's keys against its table's: as many match specs as keys, each
/// of its key's kind (or `Any`), and no prefix longer than its value is
/// wide.
fn check_keys(def: &TableDef, entry: &TableEntry) -> Result<(), IrError> {
    if entry.matches.len() != def.keys.len() {
        return Err(IrError::Invalid(format!(
            "table {}: entry has {} key matches, table has {} keys",
            def.name,
            entry.matches.len(),
            def.keys.len()
        )));
    }
    for (km, key) in entry.matches.iter().zip(&def.keys) {
        let ok = matches!(
            (km, key.kind),
            (KeyMatch::Exact(_), MatchKind::Exact)
                | (KeyMatch::Ternary(..), MatchKind::Ternary)
                | (KeyMatch::Lpm(..), MatchKind::Lpm)
                | (KeyMatch::Range(..), MatchKind::Range)
                | (KeyMatch::Any, _)
        );
        if !ok {
            return Err(IrError::Invalid(format!(
                "table {}: match kind mismatch on key {}",
                def.name, key.field
            )));
        }
        // P4Runtime's INVALID_ARGUMENT: a prefix longer than its value
        // would outrank every genuine prefix of the same priority.
        if let KeyMatch::Lpm(prefix, len) = km {
            if *len > prefix.bits() {
                return Err(IrError::Invalid(format!(
                    "table {}: prefix length {len} on key {} exceeds its {} bits",
                    def.name,
                    key.field,
                    prefix.bits()
                )));
            }
        }
    }
    Ok(())
}

/// Drains the elements of `v` at the strictly ascending positions
/// `removed`, in that order; the rest close up in place as the iterator is
/// exhausted.
fn take_sorted<'a, T>(v: &'a mut Vec<T>, removed: &'a [usize]) -> impl Iterator<Item = T> + 'a {
    let (mut at, mut next) = (0usize, 0usize);
    v.extract_if(.., move |_| {
        let gone = removed.get(next) == Some(&at);
        at += 1;
        next += usize::from(gone);
        gone
    })
}

/// Runtime state of one pipelet: table entries, hit counters, and stateful
/// register arrays.
#[derive(Debug, Clone, Default)]
pub struct TableState {
    ids: HashMap<String, usize>,
    slots: Vec<TableRt>,
    /// Register arrays, lazily zero-initialized on first access.
    registers: BTreeMap<String, Vec<u128>>,
    /// Logical clock in ticks, advanced by `Switch::advance_time`.
    clock: u64,
    /// Digests emitted during the current pass, drained by the switch into
    /// its bounded per-pipeline queue after each pipelet pass.
    pending_digests: Vec<DigestRecord>,
}

/// One entry evicted by an expiry sweep, reported so callers (telemetry,
/// tests, operators) can see exactly what aged out.
#[derive(Debug, Clone, PartialEq)]
pub struct Eviction {
    /// Table the entry was evicted from.
    pub table: String,
    /// The evicted entry.
    pub entry: TableEntry,
}

impl TableState {
    /// Empty state.
    pub fn new() -> Self {
        TableState::default()
    }

    /// Ensures a slot exists for `def`, returning its dense id. Called by
    /// the switch at program-load time so compiled programs can address
    /// tables by index (and so miss counters exist before any install).
    pub fn preregister(&mut self, def: &TableDef) -> usize {
        if let Some(&id) = self.ids.get(&def.name) {
            return id;
        }
        let id = self.slots.len();
        self.ids.insert(def.name.clone(), id);
        self.slots.push(TableRt::new(def));
        id
    }

    fn slot(&self, table: &str) -> Option<&TableRt> {
        self.ids.get(table).map(|&id| &self.slots[id])
    }

    /// Installs an entry after validating it against the table definition:
    /// the per-key match specs must agree in arity and kind with the table's
    /// keys, no prefix may be longer than its value is wide, and the
    /// declared capacity must not be exceeded.
    pub fn install(&mut self, def: &TableDef, entry: TableEntry) -> Result<(), IrError> {
        check_keys(def, &entry)?;
        let Some(action_ord) = def.actions.iter().position(|a| a == &entry.action) else {
            return Err(IrError::Undefined {
                kind: "entry action",
                name: entry.action.clone(),
            });
        };
        let id = self.preregister(def);
        let slot = &mut self.slots[id];
        slot.make_room(def)?;
        slot.push(entry, self.clock, action_ord);
        Ok(())
    }

    /// Installs `entries` into `def`'s table as [`install`](Self::install)
    /// would, with the same checks, finding the table once and each
    /// entry's action once; an entry already installed counts as installed
    /// and is not added again, so installing the same list twice changes
    /// nothing. Each entry that does not install goes to `refused` with
    /// the reason. Returns how many entries are installed.
    pub fn install_all(
        &mut self,
        def: &TableDef,
        entries: Vec<TableEntry>,
        mut refused: impl FnMut(TableEntry, String),
    ) -> usize {
        let id = self.preregister(def);
        let (slot, now) = (&mut self.slots[id], self.clock);
        let room = (def.size as usize).saturating_sub(slot.entries.len());
        slot.reserve(entries.len().min(room));
        let mut installed = 0;
        for entry in entries {
            let Some(action_ord) = def.actions.iter().position(|a| a == &entry.action) else {
                refused(entry, "action no longer defined".into());
                continue;
            };
            if entry.matches.len() != def.keys.len() {
                refused(entry, "key shape changed".into());
                continue;
            }
            if slot.position(&entry).is_some() {
                installed += 1;
                continue;
            }
            match check_keys(def, &entry).and_then(|()| slot.make_room(def)) {
                Ok(()) => {
                    slot.push(entry, now, action_ord);
                    installed += 1;
                }
                Err(e) => refused(entry, e.to_string()),
            }
        }
        installed
    }

    /// Enables (or disables, with `None`) idle-timeout aging on a table:
    /// entries not hit for `timeout` logical ticks are evicted by the next
    /// [`TableState::advance_clock`] sweep, and a full table evicts LRU
    /// instead of refusing installs. The table must be registered.
    pub fn set_idle_timeout(&mut self, table: &str, timeout: Option<u64>) -> Result<(), IrError> {
        let &id = self.ids.get(table).ok_or(IrError::Undefined {
            kind: "table",
            name: table.to_string(),
        })?;
        self.slots[id].idle_timeout = timeout;
        Ok(())
    }

    /// The configured idle timeout of a table, if aging is enabled.
    pub fn idle_timeout(&self, table: &str) -> Option<u64> {
        self.slot(table).and_then(|s| s.idle_timeout)
    }

    /// Current logical time in ticks.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Seeds the logical clock (the switch aligns a freshly loaded pipelet
    /// with its own time base so aging is continuous across reloads).
    pub fn set_clock(&mut self, now: u64) {
        self.clock = now;
    }

    /// Advances the logical clock by `ticks` and sweeps every aging-enabled
    /// table: entries idle for at least their table's timeout are evicted
    /// and reported. Deterministic — both engines share this state, so the
    /// differential suite sees identical post-sweep tables.
    pub fn advance_clock(&mut self, ticks: u64) -> Vec<Eviction> {
        self.clock = self.clock.saturating_add(ticks);
        let now = self.clock;
        let mut names: Vec<(&String, usize)> = self.ids.iter().map(|(n, &i)| (n, i)).collect();
        names.sort_by_key(|&(_, i)| i);
        let mut evicted = Vec::new();
        for (name, id) in names {
            let slot = &mut self.slots[id];
            let Some(timeout) = slot.idle_timeout else {
                continue;
            };
            if now.saturating_sub(slot.stamp_floor) < timeout {
                // Even the stalest possible entry is younger than the
                // timeout, so nothing can have expired — skip the scan.
                continue;
            }
            let mut min_live = u64::MAX;
            let expired: Vec<usize> = (0..slot.entries.len())
                .filter(|&i| {
                    let stamp = slot.last_hit[i].get();
                    let dead = now.saturating_sub(stamp) >= timeout;
                    if !dead {
                        min_live = min_live.min(stamp);
                    }
                    dead
                })
                .collect();
            slot.stamp_floor = min_live;
            if expired.is_empty() {
                continue;
            }
            slot.evictions
                .set(slot.evictions.get() + expired.len() as u64);
            evicted.extend(
                slot.remove_sorted(&expired)
                    .into_iter()
                    .map(|entry| Eviction {
                        table: name.clone(),
                        entry,
                    }),
            );
        }
        evicted
    }

    /// Entries evicted from a table so far (sweeps + LRU fallback).
    pub fn evictions(&self, table: &str) -> u64 {
        self.slot(table).map_or(0, |s| s.evictions.get())
    }

    /// The installed entries of a table, in install order (empty slice when
    /// the table is unknown). The state-snapshot capture path.
    pub fn entries(&self, table: &str) -> &[TableEntry] {
        self.slot(table).map_or(&[], |s| &s.entries)
    }

    /// True when an identical entry (same matches, action, args, priority)
    /// is already installed — the idempotence check of the learning loop,
    /// answered by the table's index (one probe on an all-exact table).
    pub fn contains_entry(&self, table: &str, entry: &TableEntry) -> bool {
        self.slot(table)
            .is_some_and(|s| s.position(entry).is_some())
    }

    /// Removes the first installed entry equal to `entry` (same matches,
    /// action, args, priority). Returns `Ok(true)` when one was removed,
    /// `Ok(false)` when no such entry exists. Control-plane deletes do not
    /// count as evictions. The index absorbs the removal incrementally
    /// where its structure allows, else it rebuilds once.
    pub fn remove_entry(&mut self, table: &str, entry: &TableEntry) -> Result<bool, IrError> {
        let &id = self.ids.get(table).ok_or(IrError::Undefined {
            kind: "table",
            name: table.to_string(),
        })?;
        let slot = &mut self.slots[id];
        let Some(pos) = slot.position(entry) else {
            return Ok(false);
        };
        slot.remove_at(pos);
        Ok(true)
    }

    /// Sets the index-selection policy of a table and reindexes under it.
    /// `Force(Exact)` requires an all-exact table; scan, tuple-space and
    /// decision-tree are admissible for every table.
    pub fn set_index_policy(&mut self, table: &str, policy: IndexPolicy) -> Result<(), IrError> {
        let &id = self.ids.get(table).ok_or(IrError::Undefined {
            kind: "table",
            name: table.to_string(),
        })?;
        let slot = &mut self.slots[id];
        if let IndexPolicy::Force(kind) = policy {
            if kind == IndexKind::Exact && !slot.all_exact {
                return Err(IrError::Invalid(format!(
                    "table {table}: index kind {} not admissible for this key shape",
                    kind.name()
                )));
            }
        }
        slot.policy = policy;
        slot.reindex_auto();
        Ok(())
    }

    /// The index kind a table is currently served by.
    pub fn index_kind(&self, table: &str) -> Option<IndexKind> {
        self.slot(table).map(|s| s.index.kind())
    }

    /// Per-table index telemetry (kind, probes, rebuilds, histograms) in
    /// registration (program) order — the telemetry scrape path.
    pub fn index_telemetry(&self) -> Vec<(String, IndexTelemetry)> {
        let mut named: Vec<(&String, usize)> = self.ids.iter().map(|(n, &i)| (n, i)).collect();
        named.sort_by_key(|&(_, i)| i);
        named
            .into_iter()
            .map(|(name, i)| {
                let s = &self.slots[i];
                (
                    name.clone(),
                    IndexTelemetry {
                        kind: s.index.kind(),
                        probes: s.probe_log.probes(),
                        rebuilds: s.rebuilds,
                        probe_hist: s.probe_log.probe_hist(),
                        depth_hist: s.probe_log.depth_hist(),
                    },
                )
            })
            .collect()
    }

    /// Touched register arrays and their cell contents (the state-snapshot
    /// capture path; untouched arrays are implicitly zero).
    pub fn register_arrays(&self) -> &BTreeMap<String, Vec<u128>> {
        &self.registers
    }

    /// Restores a register array from snapshot cells: sized to the (new)
    /// definition, each cell truncated to the cell width. Extra snapshot
    /// cells are dropped; missing ones stay zero.
    pub fn restore_register(&mut self, def: &dejavu_p4ir::table::RegisterDef, cells: &[u128]) {
        let mask = dejavu_p4ir::mask_for(def.width_bits);
        let mut arr = vec![0u128; def.size as usize];
        for (dst, &src) in arr.iter_mut().zip(cells) {
            *dst = src & mask;
        }
        self.registers.insert(def.name.clone(), arr);
    }

    /// Queues a digest record (called by both engines' `digest` primitive).
    pub fn emit_digest(&mut self, name: Arc<str>, values: Vec<Value>) {
        self.pending_digests.push(DigestRecord { name, values });
    }

    /// Takes the digests emitted since the last take.
    pub fn take_digests(&mut self) -> Vec<DigestRecord> {
        std::mem::take(&mut self.pending_digests)
    }

    /// Drains the digests emitted since the last drain, keeping the list's
    /// capacity (the switch moves them into its bounded per-pipeline queue
    /// after every pass); `None` when there are none.
    pub(crate) fn drain_digests(&mut self) -> Option<std::vec::Drain<'_, DigestRecord>> {
        let pending = &mut self.pending_digests;
        (!pending.is_empty()).then(|| pending.drain(..))
    }

    /// Removes all entries of a table (counters survive).
    pub fn clear(&mut self, table: &str) {
        if let Some(&id) = self.ids.get(table) {
            self.slots[id].clear_entries();
        }
    }

    /// Number of installed entries in a table.
    pub fn len(&self, table: &str) -> usize {
        self.slot(table).map_or(0, |s| s.entries.len())
    }

    /// True when the named table has no entries.
    pub fn is_empty(&self, table: &str) -> bool {
        self.len(table) == 0
    }

    /// Counting lookup returning a borrowed entry (no per-hit clone).
    /// `None` means a miss (run the default action).
    pub fn lookup_ref(&self, def: &TableDef, keys: &[Value]) -> Option<&TableEntry> {
        self.lookup_ref_ord(def, keys).map(|(_, e)| e)
    }

    /// Counting lookup by the dense id [`TableState::preregister`] returned,
    /// returning the winning entry's action ordinal (its position in the
    /// table definition's action list, resolved at install time) alongside
    /// the entry. The compiled engine's zero-clone hot path: it maps the
    /// ordinal through a prelowered per-table action table instead of
    /// hashing the action name.
    pub fn lookup_id_ord(&self, id: usize, keys: &[Value]) -> Option<(usize, &TableEntry)> {
        self.slots.get(id)?.lookup(keys, self.clock)
    }

    /// Counting lookup by table definition returning the action ordinal and
    /// a borrowed entry — the reference interpreter's zero-clone path.
    pub fn lookup_ref_ord(&self, def: &TableDef, keys: &[Value]) -> Option<(usize, &TableEntry)> {
        self.slot(&def.name)?.lookup(keys, self.clock)
    }

    /// Lookup without counter updates (same index-backed path).
    pub fn lookup_readonly(&self, def: &TableDef, keys: &[Value]) -> Option<TableEntry> {
        let slot = self.slot(&def.name)?;
        slot.find(keys).map(|i| slot.entries[i].clone())
    }

    /// The original linear-scan lookup over install order — kept verbatim as
    /// the reference oracle for differential testing of the indexes (and as
    /// the pre-index cost model for benchmarks). Updates counters.
    pub fn lookup_scan(&self, def: &TableDef, keys: &[Value]) -> Option<TableEntry> {
        let slot = self.slot(&def.name)?;
        let mut best: Option<(usize, (i32, u32))> = None;
        for (i, e) in slot.entries.iter().enumerate() {
            if e.matches.iter().zip(keys).all(|(m, v)| m.matches(*v)) {
                let rank = rank_of(e);
                if best.is_none_or(|(_, r)| rank > r) {
                    best = Some((i, rank));
                }
            }
        }
        slot.count(best.is_some());
        if let Some((i, _)) = best {
            slot.touch(i, self.clock);
        }
        best.map(|(i, _)| slot.entries[i].clone())
    }

    /// Counters of every registered table, in registration (program)
    /// order — the telemetry scrape path.
    pub fn all_counters(&self) -> Vec<(String, TableCounters)> {
        let mut named: Vec<(&String, usize)> = self.ids.iter().map(|(n, &i)| (n, i)).collect();
        named.sort_by_key(|&(_, i)| i);
        named
            .into_iter()
            .map(|(name, i)| {
                let s = &self.slots[i];
                (
                    name.clone(),
                    TableCounters {
                        hits: s.hits.get(),
                        misses: s.misses.get(),
                    },
                )
            })
            .collect()
    }

    /// Counters of a table (zero if never looked up).
    pub fn counters(&self, table: &str) -> TableCounters {
        self.slot(table)
            .map_or_else(TableCounters::default, |s| TableCounters {
                hits: s.hits.get(),
                misses: s.misses.get(),
            })
    }

    /// Total installed entries across all tables.
    pub fn total_entries(&self) -> usize {
        self.slots.iter().map(|s| s.entries.len()).sum()
    }

    /// Reads a register cell (index wrapped modulo the array size, as the
    /// stateful ALU does). Lazily zero-initializes the array.
    pub fn register_read(&mut self, def: &dejavu_p4ir::table::RegisterDef, index: u32) -> u128 {
        let arr = self
            .registers
            .entry(def.name.clone())
            .or_insert_with(|| vec![0u128; def.size as usize]);
        arr[(index % def.size) as usize]
    }

    /// Writes a register cell (value truncated to the cell width, index
    /// wrapped).
    pub fn register_write(
        &mut self,
        def: &dejavu_p4ir::table::RegisterDef,
        index: u32,
        value: u128,
    ) {
        let arr = self
            .registers
            .entry(def.name.clone())
            .or_insert_with(|| vec![0u128; def.size as usize]);
        arr[(index % def.size) as usize] = value & dejavu_p4ir::mask_for(def.width_bits);
    }

    /// Control-plane view of a register cell without initializing it
    /// (`None` when never touched).
    pub fn register_peek(&self, name: &str, index: u32) -> Option<u128> {
        self.registers
            .get(name)
            .and_then(|a| a.get(index as usize))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_p4ir::fref;
    use dejavu_p4ir::table::TableKey;

    fn lpm_table() -> TableDef {
        TableDef {
            name: "routes".into(),
            keys: vec![TableKey {
                field: fref("ipv4", "dst_addr"),
                kind: MatchKind::Lpm,
            }],
            actions: vec!["fwd".into(), "drop".into()],
            default_action: "drop".into(),
            default_action_args: vec![],
            size: 4,
        }
    }

    fn lpm_entry(prefix: u128, len: u16, port: u128) -> TableEntry {
        TableEntry {
            matches: vec![KeyMatch::Lpm(Value::new(prefix, 32), len)],
            action: "fwd".into(),
            action_args: vec![Value::new(port, 16)],
            priority: 0,
        }
    }

    #[test]
    fn longest_prefix_wins() {
        let def = lpm_table();
        let mut st = TableState::new();
        st.install(&def, lpm_entry(0x0a000000, 8, 1)).unwrap();
        st.install(&def, lpm_entry(0x0a010000, 16, 2)).unwrap();
        let hit = st.lookup_ref(&def, &[Value::new(0x0a010203, 32)]).unwrap();
        assert_eq!(hit.action_args[0].raw(), 2);
        let hit = st.lookup_ref(&def, &[Value::new(0x0a990203, 32)]).unwrap();
        assert_eq!(hit.action_args[0].raw(), 1);
        assert!(st.lookup_ref(&def, &[Value::new(0x0b000001, 32)]).is_none());
        assert_eq!(st.counters("routes"), TableCounters { hits: 2, misses: 1 });
    }

    #[test]
    fn ternary_priority_wins() {
        let def = TableDef {
            name: "acl".into(),
            keys: vec![TableKey {
                field: fref("ipv4", "src_addr"),
                kind: MatchKind::Ternary,
            }],
            actions: vec!["permit".into(), "deny".into()],
            default_action: "permit".into(),
            default_action_args: vec![],
            size: 8,
        };
        let mut st = TableState::new();
        st.install(
            &def,
            TableEntry {
                matches: vec![KeyMatch::Ternary(Value::new(0, 32), Value::new(0, 32))], // any
                action: "permit".into(),
                action_args: vec![],
                priority: 1,
            },
        )
        .unwrap();
        st.install(
            &def,
            TableEntry {
                matches: vec![KeyMatch::Ternary(
                    Value::new(0x0a000000, 32),
                    Value::new(0xff000000, 32),
                )],
                action: "deny".into(),
                action_args: vec![],
                priority: 10,
            },
        )
        .unwrap();
        let hit = st.lookup_ref(&def, &[Value::new(0x0a123456, 32)]).unwrap();
        assert_eq!(hit.action, "deny");
        let hit = st.lookup_ref(&def, &[Value::new(0x0b123456, 32)]).unwrap();
        assert_eq!(hit.action, "permit");
    }

    #[test]
    fn install_validates_arity_kind_action_capacity() {
        let def = lpm_table();
        let mut st = TableState::new();
        // wrong arity
        assert!(st
            .install(
                &def,
                TableEntry {
                    matches: vec![],
                    action: "fwd".into(),
                    action_args: vec![],
                    priority: 0
                }
            )
            .is_err());
        // wrong kind
        assert!(st
            .install(
                &def,
                TableEntry {
                    matches: vec![KeyMatch::Exact(Value::new(1, 32))],
                    action: "fwd".into(),
                    action_args: vec![],
                    priority: 0
                }
            )
            .is_err());
        // unknown action
        assert!(st
            .install(
                &def,
                TableEntry {
                    matches: vec![KeyMatch::Lpm(Value::new(0, 32), 0)],
                    action: "ghost".into(),
                    action_args: vec![],
                    priority: 0
                }
            )
            .is_err());
        // capacity
        for i in 0..4u128 {
            st.install(&def, lpm_entry(i << 24, 8, 1)).unwrap();
        }
        assert!(st.install(&def, lpm_entry(0xff000000, 8, 1)).is_err());
        assert_eq!(st.total_entries(), 4);
    }

    #[test]
    fn clear_and_len() {
        let def = lpm_table();
        let mut st = TableState::new();
        st.install(&def, lpm_entry(0, 0, 9)).unwrap();
        assert_eq!(st.len("routes"), 1);
        assert!(!st.is_empty("routes"));
        st.clear("routes");
        assert!(st.is_empty("routes"));
    }

    #[test]
    fn wildcard_any_match_allowed_on_any_kind() {
        let def = lpm_table();
        let mut st = TableState::new();
        st.install(
            &def,
            TableEntry {
                matches: vec![KeyMatch::Any],
                action: "fwd".into(),
                action_args: vec![Value::new(3, 16)],
                priority: -1,
            },
        )
        .unwrap();
        let hit = st.lookup_ref(&def, &[Value::new(0xdeadbeef, 32)]).unwrap();
        assert_eq!(hit.action_args[0].raw(), 3);
    }

    fn exact_table(size: u32) -> TableDef {
        TableDef {
            name: "fib".into(),
            keys: vec![TableKey {
                field: fref("ipv4", "dst_addr"),
                kind: MatchKind::Exact,
            }],
            actions: vec!["fwd".into()],
            default_action: "fwd".into(),
            default_action_args: vec![Value::new(0, 16)],
            size,
        }
    }

    #[test]
    fn exact_index_agrees_with_scan_including_wildcards() {
        let def = exact_table(64);
        let mut st = TableState::new();
        for i in 0..16u128 {
            st.install(
                &def,
                TableEntry {
                    matches: vec![KeyMatch::Exact(Value::new(i, 32))],
                    action: "fwd".into(),
                    action_args: vec![Value::new(i, 16)],
                    priority: (i % 3) as i32,
                },
            )
            .unwrap();
        }
        // A wildcard spill entry outranking low-priority exact entries.
        st.install(
            &def,
            TableEntry {
                matches: vec![KeyMatch::Any],
                action: "fwd".into(),
                action_args: vec![Value::new(999, 16)],
                priority: 1,
            },
        )
        .unwrap();
        for i in 0..20u128 {
            let keys = [Value::new(i, 32)];
            assert_eq!(
                st.lookup_readonly(&def, &keys),
                st.lookup_scan(&def, &keys),
                "key {i}"
            );
        }
    }

    #[test]
    fn lpm_index_handles_mixed_priorities_via_fallback() {
        let def = lpm_table();
        let mut st = TableState::new();
        st.install(&def, lpm_entry(0x0a000000, 8, 1)).unwrap();
        // A /16 with *lower* priority: the /8 must still win on priority.
        st.install(
            &def,
            TableEntry {
                matches: vec![KeyMatch::Lpm(Value::new(0x0a010000, 32), 16)],
                action: "fwd".into(),
                action_args: vec![Value::new(2, 16)],
                priority: -5,
            },
        )
        .unwrap();
        let keys = [Value::new(0x0a010203, 32)];
        let hit = st.lookup_readonly(&def, &keys).unwrap();
        assert_eq!(hit.action_args[0].raw(), 1);
        assert_eq!(st.lookup_scan(&def, &keys).unwrap(), hit);
    }

    #[test]
    fn route_table_absorbs_a_withdrawn_winner_and_a_second_priority() {
        let def = TableDef {
            size: 2_000,
            ..lpm_table()
        };
        let route = |i: u128| lpm_entry(0x0a00_0000 | (i << 8), 24, i);
        let mut st = TableState::new();
        let id = st.preregister(&def);
        for i in 0..1_000 {
            st.install(&def, route(i)).unwrap();
        }
        let kind = st.index_kind("routes");
        let built = st.slots[id].rebuilds;
        // Withdraw the newest route: the tail, and its prefix's winner.
        assert!(st.remove_entry("routes", &route(999)).unwrap());
        assert_eq!(st.slots[id].rebuilds, built, "tail withdrawal rebuilt");
        let withdrawn = [Value::new(0x0a03_e701, 32)];
        assert!(st.lookup_readonly(&def, &withdrawn).is_none());
        // A backup /8 at a second priority: no migration, no rebuild.
        let backup = TableEntry {
            priority: -1,
            ..lpm_entry(0x0a00_0000, 8, 7)
        };
        st.install(&def, backup.clone()).unwrap();
        assert_eq!(st.index_kind("routes"), kind);
        assert_eq!(st.slots[id].rebuilds, built, "a second priority rebuilt");
        assert_eq!(st.lookup_readonly(&def, &withdrawn), Some(backup));
        let kept = [Value::new(0x0a00_0001, 32)];
        assert_eq!(st.lookup_readonly(&def, &kept), Some(route(0)));
    }

    #[test]
    fn install_refuses_a_prefix_longer_than_its_key() {
        let def = lpm_table();
        let mut st = TableState::new();
        st.install(&def, lpm_entry(0x0a00_0001, 32, 1)).unwrap();
        let refused = st.install(&def, lpm_entry(0x0a00_0001, 33, 2));
        assert!(matches!(refused, Err(IrError::Invalid(_))), "{refused:?}");
        assert_eq!(st.entries("routes"), [lpm_entry(0x0a00_0001, 32, 1)]);
    }

    #[test]
    fn lookup_id_matches_name_lookup_and_counts() {
        let def = exact_table(8);
        let mut st = TableState::new();
        let id = st.preregister(&def);
        st.install(
            &def,
            TableEntry {
                matches: vec![KeyMatch::Exact(Value::new(7, 32))],
                action: "fwd".into(),
                action_args: vec![],
                priority: 0,
            },
        )
        .unwrap();
        assert!(st.lookup_id_ord(id, &[Value::new(7, 32)]).is_some());
        assert!(st.lookup_id_ord(id, &[Value::new(8, 32)]).is_none());
        assert_eq!(st.counters("fib"), TableCounters { hits: 1, misses: 1 });
    }

    #[test]
    fn evicting_sweep_absorbs_and_leaves_a_tight_stamp_floor() {
        let def = exact_table(64);
        let mut st = TableState::new();
        let id = st.preregister(&def);
        st.set_idle_timeout("fib", Some(4)).unwrap();
        let entry = |i: u128| TableEntry {
            matches: vec![KeyMatch::Exact(Value::new(i, 32))],
            action: "fwd".into(),
            action_args: vec![Value::new(i, 16)],
            priority: 0,
        };
        for i in 0..8 {
            st.install(&def, entry(i)).unwrap();
        }
        // Ticks 1..3: the odd flows stay warm, the even ones go idle.
        for _ in 0..3 {
            assert!(st.advance_clock(1).is_empty());
            for i in [1u128, 3, 5, 7] {
                assert!(st.lookup_id_ord(id, &[Value::new(i, 32)]).is_some());
            }
        }
        let evicted = st.advance_clock(1);
        let gone: Vec<u128> = evicted
            .iter()
            .map(|e| e.entry.action_args[0].raw())
            .collect();
        assert_eq!(gone, [0, 2, 4, 6], "ascending install order");
        assert_eq!(st.entries("fib"), [entry(1), entry(3), entry(5), entry(7)]);
        // Interior removals were absorbed: no rebuild, renumbered lookups.
        assert_eq!(st.slots[id].rebuilds, 0);
        for i in 0..8u128 {
            let hit = st.lookup_readonly(&def, &[Value::new(i, 32)]);
            assert_eq!(hit, (i % 2 == 1).then(|| entry(i)));
        }
        // The floor is the survivors' oldest stamp, so the next sweeps are
        // skipped without a scan until it can have expired.
        assert_eq!(st.slots[id].stamp_floor, 3);
        st.slots[id].last_hit[0].set(0); // a scan would evict this one
        assert!(st.advance_clock(2).is_empty(), "skipped: 6 - 3 < 4");
        assert_eq!(st.advance_clock(1).len(), 4, "scanned at 7 - 3 >= 4");
        assert_eq!(st.slots[id].stamp_floor, u64::MAX);
    }

    #[test]
    fn tree_at_the_selection_threshold_does_not_flap() {
        // An LRU-at-capacity ACL cache of 64 diverse-mask rules: exactly
        // `TREE_MIN_ENTRIES`, so every eviction dips below the threshold.
        let def = TableDef {
            name: "acl".into(),
            keys: vec![TableKey {
                field: fref("ipv4", "src_addr"),
                kind: MatchKind::Ternary,
            }],
            actions: vec!["permit".into()],
            default_action: "permit".into(),
            default_action_args: vec![],
            size: 64,
        };
        let rule = |i: u128| TableEntry {
            matches: vec![KeyMatch::Ternary(
                Value::new(i << 16, 32),
                Value::new(0xffff_0000 | i, 32),
            )],
            action: "permit".into(),
            action_args: vec![],
            priority: (i % 4) as i32,
        };
        let mut st = TableState::new();
        let id = st.preregister(&def);
        st.set_idle_timeout("acl", Some(1_000)).unwrap();
        for i in 0..64 {
            st.install(&def, rule(i)).unwrap();
        }
        assert_eq!(st.index_kind("acl"), Some(IndexKind::DecisionTree));
        let built = st.slots[id].rebuilds;
        for i in 64..264 {
            if i % 2 == 0 {
                // The control plane deletes the newest rule (the tail)…
                assert!(st.remove_entry("acl", &rule(i - 1)).unwrap());
                assert_eq!(st.index_kind("acl"), Some(IndexKind::DecisionTree));
            }
            // …or the full table evicts its least-recently-hit (interior).
            st.install(&def, rule(i)).unwrap();
            assert_eq!(st.len("acl"), 64);
            assert_eq!(st.index_kind("acl"), Some(IndexKind::DecisionTree));
            let keys = [Value::new(i << 16, 32)];
            assert_eq!(st.lookup_readonly(&def, &keys), Some(rule(i)));
        }
        assert_eq!(st.evictions("acl"), 100);
        let rebuilds = st.slots[id].rebuilds - built;
        assert!(
            rebuilds <= 2,
            "{rebuilds} rebuilds over 200 delete/install pairs"
        );
    }

    #[test]
    fn counters_survive_clear() {
        let def = exact_table(8);
        let mut st = TableState::new();
        st.preregister(&def);
        assert!(st.lookup_ref(&def, &[Value::new(1, 32)]).is_none());
        st.clear("fib");
        assert_eq!(st.counters("fib").misses, 1);
    }
}
