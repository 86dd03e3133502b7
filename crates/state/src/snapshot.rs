//! Versioned snapshots of pipelet state and their JSON round-trip.
//!
//! A [`StateSnapshot`] is the unit of state migration: everything the
//! control plane needs to rebuild a pipelet's dynamic state on a freshly
//! loaded program (or a different switch). Tables are keyed by their merged
//! name (`<nf>__<table>`), so remapping after an NF upgrade is a plain name
//! lookup — entries whose table vanished or changed shape are reported, not
//! silently discarded (see [`crate::migrate`]).
//!
//! JSON is the *export and interchange* format — snapshot files, the
//! `flow_state_demo` artifact, other tools. Cluster workers do not exchange
//! it: between a worker and the controller a snapshot crosses the link in
//! the frame format of `dejavu_core::transport::wire`, which checks the same
//! [`SNAPSHOT_FORMAT_VERSION`].
//!
//! The JSON encoding is hand-rolled on the write side and parsed back with
//! `dejavu-telemetry`'s self-contained parser (the workspace `serde_json`
//! shim is write-only). `u128` raw values are encoded as decimal *strings*
//! so register cells and match values wider than 64 bits survive the trip.

use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::Value;
use dejavu_telemetry::parse_json;
use serde::json::Value as Json;
use std::fmt::Write as _;

/// Current snapshot format version. Bump on any incompatible change to the
/// JSON layout; [`from_json`] rejects versions it does not understand.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// Dynamic state of one table: its installed entries plus the aging
/// configuration in force when the snapshot was taken.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Merged table name (`<nf>__<table>` after composition).
    pub name: String,
    /// Idle timeout in logical ticks, when aging was enabled.
    pub idle_timeout: Option<u64>,
    /// Installed entries, in install order.
    pub entries: Vec<TableEntry>,
}

/// Contents of one register array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterSnapshot {
    /// Register name (`<nf>__<register>` after composition).
    pub name: String,
    /// Cell values, index order. Length equals the declared array size.
    pub cells: Vec<u128>,
}

/// A complete, versioned capture of one pipelet's mutable dataplane state.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSnapshot {
    /// Format version ([`SNAPSHOT_FORMAT_VERSION`] when produced here).
    pub version: u32,
    /// Name of the program the state was captured from (informational).
    pub program: String,
    /// Logical clock at capture time, so aging continuity survives
    /// migration.
    pub clock: u64,
    /// Per-table dynamic state, in table registration order.
    pub tables: Vec<TableSnapshot>,
    /// Register file contents, one per register array.
    pub registers: Vec<RegisterSnapshot>,
}

impl StateSnapshot {
    /// An empty snapshot for a program (no entries, no registers, clock 0).
    pub fn empty(program: impl Into<String>) -> Self {
        StateSnapshot {
            version: SNAPSHOT_FORMAT_VERSION,
            program: program.into(),
            clock: 0,
            tables: Vec::new(),
            registers: Vec::new(),
        }
    }

    /// Total dynamic entries across all tables.
    pub fn total_entries(&self) -> usize {
        self.tables.iter().map(|t| t.entries.len()).sum()
    }

    /// The table snapshot with the given merged name, if present.
    pub fn table(&self, name: &str) -> Option<&TableSnapshot> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// True when the snapshot holds no table and no register.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.registers.is_empty()
    }

    /// Serializes to the versioned JSON format.
    pub fn to_json(&self) -> String {
        to_json(self)
    }

    /// Parses the versioned JSON format back into a snapshot.
    pub fn from_json(text: &str) -> Result<Self, String> {
        from_json(text)
    }
}

// ---------------------------------------------------------------- writing

fn write_value(out: &mut String, v: Value) {
    let _ = write!(out, "{{\"raw\":\"{}\",\"bits\":{}}}", v.raw(), v.bits());
}

fn write_key_match(out: &mut String, m: &KeyMatch) {
    match m {
        KeyMatch::Exact(v) => {
            out.push_str("{\"kind\":\"exact\",\"value\":");
            write_value(out, *v);
            out.push('}');
        }
        KeyMatch::Ternary(v, mask) => {
            out.push_str("{\"kind\":\"ternary\",\"value\":");
            write_value(out, *v);
            out.push_str(",\"mask\":");
            write_value(out, *mask);
            out.push('}');
        }
        KeyMatch::Lpm(prefix, len) => {
            out.push_str("{\"kind\":\"lpm\",\"prefix\":");
            write_value(out, *prefix);
            let _ = write!(out, ",\"len\":{len}}}");
        }
        KeyMatch::Range(lo, hi) => {
            out.push_str("{\"kind\":\"range\",\"lo\":");
            write_value(out, *lo);
            out.push_str(",\"hi\":");
            write_value(out, *hi);
            out.push('}');
        }
        KeyMatch::Any => out.push_str("{\"kind\":\"any\"}"),
    }
}

fn write_entry(out: &mut String, e: &TableEntry) {
    out.push_str("{\"matches\":[");
    for (i, m) in e.matches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key_match(out, m);
    }
    let _ = write!(out, "],\"action\":\"{}\",\"args\":[", escape(&e.action));
    for (i, a) in e.action_args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_value(out, *a);
    }
    let _ = write!(out, "],\"priority\":{}}}", e.priority);
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes a snapshot to the versioned JSON format.
pub fn to_json(snap: &StateSnapshot) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"version\":{},\"program\":\"{}\",\"clock\":{},\"tables\":[",
        snap.version,
        escape(&snap.program),
        snap.clock
    );
    for (i, t) in snap.tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{}\",\"idle_timeout\":", escape(&t.name));
        match t.idle_timeout {
            Some(ticks) => {
                let _ = write!(out, "{ticks}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"entries\":[");
        for (j, e) in t.entries.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_entry(&mut out, e);
        }
        out.push_str("]}");
    }
    out.push_str("],\"registers\":[");
    for (i, r) in snap.registers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{}\",\"cells\":[", escape(&r.name));
        for (j, c) in r.cells.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{c}\"");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------- parsing

fn field<'a>(obj: &'a [(String, Json)], name: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {name:?}"))
}

fn as_object(v: &Json) -> Result<&[(String, Json)], String> {
    match v {
        Json::Object(fields) => Ok(fields),
        other => Err(format!("expected object, got {other:?}")),
    }
}

fn as_array(v: &Json) -> Result<&[Json], String> {
    match v {
        Json::Array(items) => Ok(items),
        other => Err(format!("expected array, got {other:?}")),
    }
}

fn as_str(v: &Json) -> Result<&str, String> {
    match v {
        Json::Str(s) => Ok(s),
        other => Err(format!("expected string, got {other:?}")),
    }
}

fn as_u64(v: &Json) -> Result<u64, String> {
    match v {
        Json::UInt(u) => Ok(*u),
        Json::Int(i) if *i >= 0 => Ok(*i as u64),
        other => Err(format!("expected unsigned number, got {other:?}")),
    }
}

fn as_i32(v: &Json) -> Result<i32, String> {
    match v {
        Json::UInt(u) => i32::try_from(*u).map_err(|_| format!("priority {u} out of range")),
        Json::Int(i) => i32::try_from(*i).map_err(|_| format!("priority {i} out of range")),
        other => Err(format!("expected integer, got {other:?}")),
    }
}

/// Raw values are encoded as decimal strings so the full `u128` range
/// survives the shim's `u64` number representation.
fn as_u128(v: &Json) -> Result<u128, String> {
    match v {
        Json::Str(s) => s
            .parse::<u128>()
            .map_err(|e| format!("bad u128 {s:?}: {e}")),
        Json::UInt(u) => Ok(u128::from(*u)),
        other => Err(format!("expected u128 string, got {other:?}")),
    }
}

fn parse_value(v: &Json) -> Result<Value, String> {
    let obj = as_object(v)?;
    let raw = as_u128(field(obj, "raw")?)?;
    let bits = as_u64(field(obj, "bits")?)?;
    let bits = u16::try_from(bits).map_err(|_| format!("width {bits} out of range"))?;
    Ok(Value::new(raw, bits))
}

fn parse_key_match(v: &Json) -> Result<KeyMatch, String> {
    let obj = as_object(v)?;
    match as_str(field(obj, "kind")?)? {
        "exact" => Ok(KeyMatch::Exact(parse_value(field(obj, "value")?)?)),
        "ternary" => Ok(KeyMatch::Ternary(
            parse_value(field(obj, "value")?)?,
            parse_value(field(obj, "mask")?)?,
        )),
        "lpm" => {
            let len = as_u64(field(obj, "len")?)?;
            let len = u16::try_from(len).map_err(|_| format!("prefix len {len} out of range"))?;
            Ok(KeyMatch::Lpm(parse_value(field(obj, "prefix")?)?, len))
        }
        "range" => Ok(KeyMatch::Range(
            parse_value(field(obj, "lo")?)?,
            parse_value(field(obj, "hi")?)?,
        )),
        "any" => Ok(KeyMatch::Any),
        other => Err(format!("unknown match kind {other:?}")),
    }
}

fn parse_entry(v: &Json) -> Result<TableEntry, String> {
    let obj = as_object(v)?;
    let matches = as_array(field(obj, "matches")?)?
        .iter()
        .map(parse_key_match)
        .collect::<Result<Vec<_>, _>>()?;
    let action = as_str(field(obj, "action")?)?.to_string();
    let action_args = as_array(field(obj, "args")?)?
        .iter()
        .map(parse_value)
        .collect::<Result<Vec<_>, _>>()?;
    let priority = as_i32(field(obj, "priority")?)?;
    Ok(TableEntry {
        matches,
        action,
        action_args,
        priority,
    })
}

/// Parses the versioned JSON format back into a [`StateSnapshot`].
pub fn from_json(text: &str) -> Result<StateSnapshot, String> {
    let root = parse_json(text)?;
    let obj = as_object(&root)?;
    let version = u32::try_from(as_u64(field(obj, "version")?)?)
        .map_err(|_| "version out of range".to_string())?;
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(format!(
            "unsupported snapshot version {version} (this build reads {SNAPSHOT_FORMAT_VERSION})"
        ));
    }
    let program = as_str(field(obj, "program")?)?.to_string();
    let clock = as_u64(field(obj, "clock")?)?;
    let mut tables = Vec::new();
    for t in as_array(field(obj, "tables")?)? {
        let tobj = as_object(t)?;
        let idle_timeout = match field(tobj, "idle_timeout")? {
            Json::Null => None,
            other => Some(as_u64(other)?),
        };
        tables.push(TableSnapshot {
            name: as_str(field(tobj, "name")?)?.to_string(),
            idle_timeout,
            entries: as_array(field(tobj, "entries")?)?
                .iter()
                .map(parse_entry)
                .collect::<Result<Vec<_>, _>>()?,
        });
    }
    let mut registers = Vec::new();
    for r in as_array(field(obj, "registers")?)? {
        let robj = as_object(r)?;
        registers.push(RegisterSnapshot {
            name: as_str(field(robj, "name")?)?.to_string(),
            cells: as_array(field(robj, "cells")?)?
                .iter()
                .map(as_u128)
                .collect::<Result<Vec<_>, _>>()?,
        });
    }
    Ok(StateSnapshot {
        version,
        program,
        clock,
        tables,
        registers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StateSnapshot {
        StateSnapshot {
            version: SNAPSHOT_FORMAT_VERSION,
            program: "nat\"v2\"".to_string(),
            clock: 42,
            tables: vec![
                TableSnapshot {
                    name: "nat__nat_in".to_string(),
                    idle_timeout: Some(30),
                    entries: vec![TableEntry {
                        matches: vec![
                            KeyMatch::Exact(Value::new(0x0a000001, 32)),
                            KeyMatch::Lpm(Value::new(0x0a000000, 32), 8),
                            KeyMatch::Ternary(Value::new(0x50, 16), Value::new(0xffff, 16)),
                            KeyMatch::Range(Value::new(1, 16), Value::new(1024, 16)),
                            KeyMatch::Any,
                        ],
                        action: "restore_dst".to_string(),
                        action_args: vec![Value::new(u128::MAX, 128)],
                        priority: -3,
                    }],
                },
                TableSnapshot {
                    name: "nat__empty".to_string(),
                    idle_timeout: None,
                    entries: vec![],
                },
            ],
            registers: vec![RegisterSnapshot {
                name: "lb__backends".to_string(),
                cells: vec![0, u128::MAX, 7],
            }],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample();
        let text = snap.to_json();
        let back = StateSnapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn rejects_unknown_version() {
        let mut snap = sample();
        snap.version = 99;
        let err = StateSnapshot::from_json(&snap.to_json()).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(StateSnapshot::from_json("{}").is_err());
        assert!(StateSnapshot::from_json("not json").is_err());
        assert!(StateSnapshot::from_json(r#"{"version":1}"#).is_err());
    }

    #[test]
    fn u128_values_survive_the_shim() {
        let snap = sample();
        let back = StateSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.registers[0].cells[1], u128::MAX);
        assert_eq!(back.tables[0].entries[0].action_args[0].raw(), u128::MAX);
    }

    #[test]
    fn helpers_report_shape() {
        let snap = sample();
        assert_eq!(snap.total_entries(), 1);
        assert!(snap.table("nat__nat_in").is_some());
        assert!(snap.table("absent").is_none());
        assert_eq!(StateSnapshot::empty("x").total_entries(), 0);
    }
}
