//! Exporters (JSON, Prometheus text) and a small JSON parser.
//!
//! The JSON exporter rides on the workspace `serde_json` shim; the parser
//! exists because the shim is write-only — CI validates an exported
//! snapshot by parsing it back, and external tools (scripts/check.sh)
//! need the round-trip to be self-contained.

use crate::snapshot::{MetricValue, MetricsSnapshot};
use serde::json::Value;

/// Serializes a snapshot to pretty-printed JSON.
pub fn to_json_string(snapshot: &MetricsSnapshot) -> String {
    serde_json::to_string_pretty(snapshot)
        .unwrap_or_else(|e| unreachable!("snapshot serialization is infallible: {e:?}"))
}

/// Serializes a snapshot to Prometheus text exposition format.
///
/// Names follow the convention used throughout the workspace — labels are
/// embedded in the metric name (`port_rx_packets{port="3"}`) — which is
/// already the Prometheus sample syntax, so emission is direct. Histograms
/// expand to cumulative `_bucket{le="…"}` series plus `_sum`/`_count`,
/// with `le` set to each log2 bucket's exclusive upper bound.
pub fn to_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.metrics {
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("{name} {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("{name} {v}\n"));
            }
            MetricValue::Histogram(h) => {
                let (base, labels) = split_labels(name);
                let mut cumulative = 0u64;
                for (i, &b) in h.buckets.iter().enumerate() {
                    cumulative += b;
                    if b == 0 && cumulative == 0 {
                        continue;
                    }
                    let le = 1u128 << (i + 1);
                    out.push_str(&format!(
                        "{base}_bucket{{{labels}le=\"{le}\"}} {cumulative}\n"
                    ));
                }
                out.push_str(&format!(
                    "{base}_bucket{{{labels}le=\"+Inf\"}} {count}\n",
                    count = h.count
                ));
                out.push_str(&format!(
                    "{base}_sum{labelled} {sum}\n",
                    labelled = original_labels(name),
                    sum = h.sum
                ));
                out.push_str(&format!(
                    "{base}_count{labelled} {count}\n",
                    labelled = original_labels(name),
                    count = h.count
                ));
            }
        }
    }
    out
}

/// Splits `name{a="b"}` into `("name", "a=\"b\",")` — the label part ready
/// to prepend inside a brace set. Plain names yield an empty label part.
fn split_labels(name: &str) -> (&str, String) {
    match name.find('{') {
        Some(i) => {
            let inner = name[i + 1..].trim_end_matches('}');
            let mut labels = inner.to_string();
            if !labels.is_empty() {
                labels.push(',');
            }
            (&name[..i], labels)
        }
        None => (name, String::new()),
    }
}

/// The `{…}` suffix of a labelled name, or empty for plain names.
fn original_labels(name: &str) -> &str {
    match name.find('{') {
        Some(i) => &name[i..],
        None => "",
    }
}

/// Parses JSON text into the workspace shim's [`Value`]. Supports the full
/// JSON grammar (objects, arrays, strings with escapes, numbers, booleans,
/// null); numbers without fraction/exponent parse as `Int`/`UInt`, others
/// as `Float`. Errors carry a byte offset and description.
pub fn parse_json(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash
                    // in one go: every byte is validated once, so a document
                    // costs O(n). The input came from &str and both
                    // delimiters are ASCII, so a run always ends on a scalar
                    // boundary and this re-validation cannot fail.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    s.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use crate::snapshot::MetricsSnapshot;

    #[test]
    fn parse_scalars_and_nesting() {
        let v = parse_json(r#"{"a": 1, "b": [-2, 3.5, "x\ny", true, null], "c": {}}"#).unwrap();
        let Value::Object(fields) = v else { panic!() };
        assert_eq!(fields[0], ("a".to_string(), Value::UInt(1)));
        let Value::Array(items) = &fields[1].1 else {
            panic!()
        };
        assert_eq!(items[0], Value::Int(-2));
        assert_eq!(items[1], Value::Float(3.5));
        assert_eq!(items[2], Value::Str("x\ny".to_string()));
        assert_eq!(items[3], Value::Bool(true));
        assert_eq!(items[4], Value::Null);
        assert_eq!(fields[2].1, Value::Object(vec![]));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    fn parse_str(doc: &str) -> Result<String, String> {
        parse_json(doc).map(|v| match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        })
    }

    #[test]
    fn multibyte_scalars_meet_escapes_and_quotes() {
        // Directly before an escape, directly after one, and as the last
        // thing before the closing quote: a run never splits a scalar.
        for ch in ["é", "漢", "😀"] {
            let parsed = |body: String| parse_str(&format!("\"{body}\"")).unwrap();
            assert_eq!(parsed(format!(r"{ch}\n")), format!("{ch}\n"));
            assert_eq!(parsed(format!(r"\n{ch}")), format!("\n{ch}"));
            assert_eq!(parsed(format!(r"a\t{ch}")), format!("a\t{ch}"));
            assert_eq!(parsed(ch.to_string()), ch);
            assert_eq!(
                parsed(format!(r"{ch}é{ch}\\{ch}")),
                format!(r"{ch}é{ch}\{ch}")
            );
        }
    }

    #[test]
    fn escapes_at_run_boundaries() {
        assert_eq!(parse_str(r#""""#).unwrap(), "");
        assert_eq!(parse_str(r#""\"""#).unwrap(), r#"""#);
        assert_eq!(parse_str(r#""\\""#).unwrap(), r"\");
        assert_eq!(parse_str(r#""\\\"\\""#).unwrap(), r#"\"\"#);
        assert_eq!(parse_str(r#""é\"é\\é""#).unwrap(), r#"é"é\é"#);
        assert_eq!(parse_str(r#""\"run\"""#).unwrap(), r#""run""#);
        assert_eq!(parse_str(r#""run\\""#).unwrap(), r"run\");
        // A quote ends the string even when an escaped backslash precedes it.
        assert_eq!(
            parse_json(r#"["a\\","b"]"#).unwrap(),
            Value::Array(vec![Value::Str(r"a\".into()), Value::Str("b".into())])
        );
    }

    #[test]
    fn string_errors_keep_their_text() {
        assert_eq!(parse_json("\"abc").unwrap_err(), "unterminated string");
        assert_eq!(parse_json("\"漢").unwrap_err(), "unterminated string");
        assert_eq!(
            parse_json("\"abc\\").unwrap_err(),
            "bad escape None at byte 5"
        );
        assert_eq!(
            parse_json(r#""a\qb""#).unwrap_err(),
            "bad escape Some('q') at byte 3"
        );
        assert_eq!(parse_json(r#""\u12""#).unwrap_err(), "truncated \\u escape");
        assert_eq!(parse_json(r#""\u12zz""#).unwrap_err(), "bad \\u escape");
    }

    /// Linearity guard that times nothing: ≈ 4 MiB of 64-byte strings. With
    /// a per-character rescan of the remaining document this is ~10¹³ byte
    /// visits and the test run never gets past it; linear, it is
    /// milliseconds.
    #[test]
    fn a_four_mebibyte_document_parses_within_the_test_run() {
        let item = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdé";
        assert_eq!(item.len(), 64);
        let n = 4 * 1024 * 1024 / (item.len() + 3);
        let doc = format!("[{}]", vec![format!("\"{item}\""); n].join(","));
        let Value::Array(items) = parse_json(&doc).unwrap() else {
            panic!("expected an array")
        };
        assert_eq!(items.len(), n);
        assert!(items.iter().all(|v| *v == Value::Str(item.into())));
    }

    #[test]
    fn exporters_cover_all_kinds() {
        let mut r = MetricsRegistry::enabled();
        let c = r.counter("pkts_total{pipelet=\"ingress0\"}");
        let g = r.gauge("queue_depth");
        let h = r.histogram("latency_ns{port=\"1\"}");
        r.add(c, 7);
        r.set_gauge(g, -3);
        r.observe(h, 650);
        r.observe(h, 1300);
        let s = MetricsSnapshot::capture(&r);

        let json = to_json_string(&s);
        let parsed = parse_json(&json).unwrap();
        assert!(matches!(parsed, Value::Object(_)));

        let prom = to_prometheus(&s);
        assert!(prom.contains("pkts_total{pipelet=\"ingress0\"} 7"));
        assert!(prom.contains("queue_depth -3"));
        assert!(prom.contains("latency_ns_count{port=\"1\"} 2"));
        assert!(prom.contains("latency_ns_sum{port=\"1\"} 1950"));
        assert!(prom.contains("le=\"+Inf\"} 2"));
        // 650 lands in bucket 9 → le=1024 cumulative 1.
        assert!(prom.contains("latency_ns_bucket{port=\"1\",le=\"1024\"} 1"));
    }
}
