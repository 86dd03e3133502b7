//! In-memory span recorder for the traced pass.
//!
//! The harness wraps every call it makes into a layer in a span (name,
//! start, end, parent, operation id). Spans stay in memory and are written
//! out once, at exit, as a Chrome trace-event file. A layer's *self time*
//! is its span minus the spans recorded with it as parent.
//!
//! The layers are measured from outside: the root span times the
//! workload's real operation, and the inner layers are then driven with
//! the same inputs through their own public entry points and recorded as
//! children of the root span of the same operation. Child spans therefore
//! carry their own (later) wall-clock timestamps; nesting is by the
//! `parent` pointer, not by interval containment.

use crate::host;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Interned layer name (index into the tracer's name table).
    pub name: u16,
    /// Span id of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Operation (packet, migration, plan) the span belongs to; spans of
    /// one operation share it.
    pub op: u32,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Aggregated time of one layer over a traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded for the layer.
    pub count: u64,
    /// Sum of span durations (clock overhead removed), nanoseconds.
    pub total_ns: f64,
    /// `total_ns` minus the time of the spans these spans caused.
    pub self_ns: f64,
}

impl LayerTime {
    /// Mean span duration in nanoseconds (0 without spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns / self.count as f64
        }
    }
}

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    overhead_ns: f64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock overhead was calibrated just now.
    pub fn new() -> Self {
        Self::with_overhead(host::timer_overhead_ns())
    }

    /// A tracer with a given per-span clock overhead (tests).
    pub fn with_overhead(overhead_ns: f64) -> Self {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            overhead_ns,
        }
    }

    /// Calibrated cost of the two clock reads inside every span.
    pub fn overhead_ns(&self) -> f64 {
        self.overhead_ns
    }

    /// Interns a layer name.
    pub fn layer(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    /// Pre-allocates room for `n` more spans so recording never reallocates
    /// inside a measured loop.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True before the first span.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Times `f` as one span and returns its id with `f`'s result.
    #[inline]
    pub fn span<R>(&mut self, layer: u16, parent: u32, op: u32, f: impl FnOnce() -> R) -> (u32, R) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        (self.record(layer, parent, op, start, end), r)
    }

    /// Records a span from two clock readings; returns its id.
    #[inline]
    pub fn record(
        &mut self,
        layer: u16,
        parent: u32,
        op: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name: layer,
            parent,
            op,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
        id
    }

    /// Duration of a span with the clock overhead removed (never below 0).
    fn duration_ns(&self, s: &Span) -> f64 {
        ((s.end_ns - s.start_ns) as f64 - self.overhead_ns).max(0.0)
    }

    /// Per-layer totals and self times. Self times telescope: summed over
    /// every layer they equal the summed duration of the root spans.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize] += self.duration_ns(s);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(&children) {
            let d = self.duration_ns(s);
            let e = out.entry(self.names[s.name as usize]).or_default();
            e.count += 1;
            e.total_ns += d;
            e.self_ns += d - child_ns;
        }
        out
    }

    /// Summed duration of the root spans, nanoseconds.
    pub fn root_ns(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(|s| self.duration_ns(s))
            .sum()
    }

    /// Writes the first `max_ops` operations' spans as a Chrome
    /// trace-event array (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span, one row (`tid`) per layer, `args`
    /// carrying the operation id, the span id and the parent span id.
    pub fn write_chrome(&self, mut out: impl std::io::Write, max_ops: u32) -> std::io::Result<()> {
        out.write_all(b"[")?;
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate() {
            if s.op >= max_ops {
                continue;
            }
            if !first {
                out.write_all(b",")?;
            }
            first = false;
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                self.names[s.name as usize],
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                id,
                parent,
            )?;
        }
        out.write_all(b"\n]\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// root(100) ⊃ { a(30) ⊃ { b(10) }, a(20) }: self times telescope.
    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::with_overhead(0.0);
        let (root, a, b) = (t.layer("root"), t.layer("a"), t.layer("b"));
        let e = t.epoch;
        let at = |ns: u64| e + Duration::from_nanos(ns);
        let r = t.record(root, ROOT, 0, at(0), at(100));
        let a1 = t.record(a, r, 0, at(200), at(230));
        t.record(b, a1, 0, at(300), at(310));
        t.record(a, r, 0, at(400), at(420));
        let l = t.layers();
        assert_eq!(l["root"].self_ns, 50.0);
        assert_eq!(l["a"].total_ns, 50.0);
        assert_eq!(l["a"].self_ns, 40.0);
        assert_eq!(l["b"].self_ns, 10.0);
        assert_eq!(l["a"].count, 2);
        assert_eq!(l["a"].mean_ns(), 25.0);
        let selfs: f64 = l.values().map(|x| x.self_ns).sum();
        assert_eq!(selfs, t.root_ns());
    }

    #[test]
    fn clock_overhead_is_removed_per_span() {
        let mut t = Tracer::with_overhead(25.0);
        let x = t.layer("x");
        let e = t.epoch;
        t.record(x, ROOT, 0, e, e + Duration::from_nanos(125));
        t.record(x, ROOT, 1, e, e + Duration::from_nanos(10));
        let l = t.layers();
        assert_eq!(l["x"].total_ns, 100.0, "125-25, and 10-25 floors at 0");
    }

    #[test]
    fn chrome_file_is_a_json_array_of_complete_events() {
        let mut t = Tracer::with_overhead(0.0);
        let x = t.layer("layer.x");
        let (id, v) = t.span(x, ROOT, 0, || 7);
        assert_eq!((id, v), (0, 7));
        t.span(x, id, 0, || ());
        t.span(x, ROOT, 5, || ());
        let mut bytes = Vec::new();
        t.write_chrome(&mut bytes, 1).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let v = dejavu_asic::telemetry::parse_json(&text).unwrap();
        match v {
            serde::json::Value::Array(events) => assert_eq!(events.len(), 2, "op 5 is cut off"),
            other => panic!("not an array: {other:?}"),
        }
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"parent\":0"));
    }
}
