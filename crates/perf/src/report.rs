//! The records a run writes: the driver's one-line result, the printed
//! ledger, and the per-workload JSON file.

use crate::harness::{Outcome, RunCfg};
use crate::host;
use crate::spec;
use crate::stats::Figure;
use serde::json::Value;
use serde::Serialize;

/// Which metric family the driver's result line carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// `--trace 0`: every end-to-end metric.
    EndToEnd,
    /// `--trace 1`: every per-layer metric (0 for layers the workload
    /// does not cross).
    PerLayer,
}

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The member `key` of a JSON object.
pub fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// A JSON string.
pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Renders a JSON value on one line.
pub fn compact(v: &Value) -> String {
    let mut s = String::new();
    v.render(&mut s, 0, false);
    s
}

/// Renders a JSON value indented.
pub fn pretty(v: &Value) -> String {
    let mut s = String::new();
    v.render(&mut s, 0, true);
    s.push('\n');
    s
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// The driver's result: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`. A run is correct when nothing
/// failed and every end-to-end metric it owes is a positive number.
pub fn driver_line(out: &Outcome, emit: Emit) -> String {
    let (owed, have): (&[spec::Metric], _) = match emit {
        Emit::EndToEnd => (&spec::END_TO_END, &out.end_to_end),
        Emit::PerLayer => (&spec::PER_LAYER, &out.per_layer),
    };
    let value_of = |m: &spec::Metric| have.get(m.name).map_or(0.0, |f| finite(f.value));
    let complete = emit == Emit::PerLayer || owed.iter().all(|m| value_of(m) > 0.0);
    let metrics = owed
        .iter()
        .map(|m| {
            let fields = vec![
                ("value", Value::Float(value_of(m))),
                ("unit", Value::Str(m.unit.to_string())),
            ];
            (m.name.to_string(), obj(fields))
        })
        .collect();
    compact(&obj(vec![
        (
            "correct",
            Value::Bool(out.failed == 0 && out.attempted > 0 && complete),
        ),
        ("attempted", Value::UInt(out.attempted.max(1))),
        ("failed", Value::UInt(out.failed)),
        ("metrics", Value::Object(metrics)),
    ]))
}

fn figures(
    map: &std::collections::BTreeMap<&'static str, Figure>,
    order: &[spec::Metric],
) -> Value {
    Value::Object(
        order
            .iter()
            .filter_map(|m| map.get(m.name).map(|f| (m.name.to_string(), f.to_json())))
            .collect(),
    )
}

/// What the record says about the host and the run's settings.
pub fn host_json(cfg: &RunCfg) -> Value {
    let cpus = host::cpus_allowed();
    obj(vec![
        (
            "cpus_allowed",
            Value::Array(cpus.iter().map(|c| Value::UInt(*c as u64)).collect()),
        ),
        (
            "pinned_cpu",
            match cpus.as_slice() {
                [one] => Value::UInt(*one as u64),
                _ => Value::Null,
            },
        ),
        ("kernel_ref_s", Value::Float(host::KERNEL_REF_S)),
        ("seed", Value::UInt(cfg.seed)),
        ("scale", Value::Str(cfg.scale.name().to_string())),
        ("measure_s", Value::Float(cfg.measure_s)),
        ("rep_s", Value::Float(cfg.rep_s)),
        ("trace_s", Value::Float(cfg.trace_s)),
    ])
}

/// The per-workload ledger record (`<out>/<workload>.json`).
pub fn ledger_json(workload: &str, cfg: &RunCfg, out: &Outcome) -> Value {
    obj(vec![
        ("workload", Value::Str(workload.to_string())),
        ("host", host_json(cfg)),
        ("attempted", Value::UInt(out.attempted)),
        ("failed", Value::UInt(out.failed)),
        ("failed_share", Value::Float(out.failed_share())),
        ("end_to_end", figures(&out.end_to_end, &spec::END_TO_END)),
        ("per_layer", figures(&out.per_layer, &spec::PER_LAYER)),
        ("notes", Value::Object(out.notes.clone())),
    ])
}

/// A number with about six significant digits, whatever its magnitude.
pub fn sig(x: f64) -> String {
    let a = x.abs();
    if a == 0.0 || !x.is_finite() {
        return "0".into();
    }
    let decimals = (5 - a.log10().floor() as i32).clamp(0, 9) as usize;
    format!("{x:.decimals$}")
}

/// Prints every figure of a record by name, with unit and sample count.
pub fn print_ledger(workload: &str, out: &Outcome) {
    println!(
        "== {workload}: attempted {} failed {} ({:.4}%)",
        out.attempted,
        out.failed,
        100.0 * out.failed_share()
    );
    let line = |name: &str, f: &Figure| {
        println!(
            "  {name:<40} {:>14} {:<8} n={:<5} median {}  raw {}  q1 {}  q3 {}",
            sig(f.value),
            f.unit,
            f.n,
            sig(f.median),
            sig(f.raw),
            sig(f.q1),
            sig(f.q3)
        );
    };
    for m in &spec::END_TO_END {
        if let Some(f) = out.end_to_end.get(m.name) {
            line(m.name, f);
        }
    }
    for m in &spec::PER_LAYER {
        if let Some(f) = out.per_layer.get(m.name) {
            line(m.name, f);
        }
    }
    for (k, v) in &out.notes {
        println!("  # {k} = {}", compact(v));
    }
}
