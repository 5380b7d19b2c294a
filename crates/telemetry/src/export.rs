//! Exporters: JSONL trace dump, Prometheus-style text snapshot, and a
//! minimal JSON parser for the round-trip check.
//!
//! The workspace has no JSON library, so the parse-back half of the JSONL
//! round-trip (a nightly-CI gate) is a small recursive-descent parser
//! here. It handles exactly the JSON this module emits — objects, arrays,
//! strings with escapes, numbers, booleans, null — which is all of
//! standard JSON anyway.

use std::fmt::Write as _;

use crate::span::FinishedSpan;
use crate::TelemetrySnapshot;

/// Format an `f64` as a JSON number. Uses Rust's shortest round-trip
/// representation; non-finite values (only the `+Inf` histogram bucket
/// bound in practice) become JSON strings, since JSON has no infinity.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot ("5"), which is still a
        // valid JSON number and parses back to the same f64.
        s
    } else if v > 0.0 {
        "\"+Inf\"".to_string()
    } else if v < 0.0 {
        "\"-Inf\"".to_string()
    } else {
        "\"NaN\"".to_string()
    }
}

/// Escape a string for inclusion in a JSON document (without quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_attrs(attrs: &[(std::borrow::Cow<'static, str>, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(k), json_f64(*v));
    }
    out.push('}');
    out
}

fn span_line(span: &FinishedSpan) -> String {
    let parent = match span.parent {
        Some(p) => p.0.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ms\":{},\"end_ms\":{},\"attrs\":{}}}",
        span.id.0,
        parent,
        json_escape(&span.name),
        json_f64(span.start_ms),
        json_f64(span.end_ms),
        json_attrs(&span.attrs),
    )
}

/// Serialize a snapshot as JSON Lines: one `meta` record, then one record
/// per counter, gauge, histogram and span, in snapshot order.
pub fn to_jsonl(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"level\":\"{}\",\"deterministic\":{},\"dropped_spans\":{}}}",
        snapshot.level.as_str(),
        snapshot.deterministic,
        snapshot.dropped_spans,
    );
    for (name, value) in &snapshot.metrics.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
            json_escape(name)
        );
    }
    for (name, value) in &snapshot.metrics.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            json_escape(name),
            json_f64(*value)
        );
    }
    for (name, hist) in &snapshot.metrics.histograms {
        let mut buckets = String::from("[");
        for (i, (le, cum)) in hist.buckets.iter().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            let _ = write!(buckets, "[{},{cum}]", json_f64(*le));
        }
        buckets.push(']');
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{},\"p999\":{},\"buckets\":{}}}",
            json_escape(name),
            hist.count,
            json_f64(hist.sum),
            json_f64(hist.min),
            json_f64(hist.max),
            json_f64(hist.p50),
            json_f64(hist.p99),
            json_f64(hist.p999),
            buckets,
        );
    }
    for span in &snapshot.spans {
        let _ = writeln!(out, "{}", span_line(span));
    }
    out
}

/// Map a dotted metric name onto the Prometheus charset and namespace:
/// `serve.latency.ms` → `rtnn_serve_latency_ms`.
fn prometheus_name(name: &str) -> String {
    let mut out = String::from("rtnn_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Serialize the metric side of a snapshot as Prometheus text exposition:
/// counters and gauges as single samples, histograms as cumulative
/// `_bucket{le=...}` series plus `_sum`/`_count` and exact
/// `{quantile=...}` summary samples.
pub fn to_prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.metrics.counters {
        let prom = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {prom} counter");
        let _ = writeln!(out, "{prom} {value}");
    }
    for (name, value) in &snapshot.metrics.gauges {
        let prom = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {prom} gauge");
        let _ = writeln!(out, "{prom} {}", prom_f64(*value));
    }
    for (name, hist) in &snapshot.metrics.histograms {
        let prom = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {prom} histogram");
        let mut saw_inf = false;
        for (le, cum) in &hist.buckets {
            saw_inf |= le.is_infinite();
            let _ = writeln!(out, "{prom}_bucket{{le=\"{}\"}} {cum}", prom_f64(*le));
        }
        if !saw_inf {
            let _ = writeln!(out, "{prom}_bucket{{le=\"+Inf\"}} {}", hist.count);
        }
        let _ = writeln!(out, "{prom}_sum {}", prom_f64(hist.sum));
        let _ = writeln!(out, "{prom}_count {}", hist.count);
        for (q, v) in [("0.5", hist.p50), ("0.99", hist.p99), ("0.999", hist.p999)] {
            let _ = writeln!(out, "{prom}{{quantile=\"{q}\"}} {}", prom_f64(v));
        }
    }
    out
}

/// A parsed JSON value (the parser half of the JSONL round-trip).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, fields in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(fields)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err(self.err("truncated \\u escape"));
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| self.err("non-UTF8 \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| self.err("invalid \\u escape"))?;
                        self.pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode the multi-byte UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let width = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    if start + width > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + width])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = start + width;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err(&format!("invalid number {text:?}")))
    }
}

/// Parse one JSON document.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut parser = Parser::new(input);
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing garbage after JSON value"));
    }
    Ok(value)
}

/// Parse a JSON Lines document: one value per non-empty line.
pub fn parse_jsonl(input: &str) -> Result<Vec<JsonValue>, String> {
    let mut records = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(records)
}

/// Serialize `snapshot` to JSONL, parse it back, and verify the parsed
/// records reproduce the snapshot: same meta, same counter values, same
/// span ids/parents/intervals, same record counts. This is the nightly-CI
/// exporter round-trip gate.
pub fn verify_jsonl_roundtrip(snapshot: &TelemetrySnapshot) -> Result<(), String> {
    let text = to_jsonl(snapshot);
    let records = parse_jsonl(&text)?;
    fn of_type<'a>(records: &'a [JsonValue], t: &'a str) -> impl Iterator<Item = &'a JsonValue> {
        records
            .iter()
            .filter(move |r| r.get("type").and_then(JsonValue::as_str) == Some(t))
    }

    let meta = of_type(&records, "meta")
        .next()
        .ok_or("round-trip lost the meta record")?;
    if meta.get("level").and_then(JsonValue::as_str) != Some(snapshot.level.as_str()) {
        return Err("round-trip changed the telemetry level".into());
    }

    let expect_count = |t: &str, want: usize| {
        let got = of_type(&records, t).count();
        if got == want {
            Ok(())
        } else {
            Err(format!("round-trip {t} records: got {got}, want {want}"))
        }
    };
    expect_count("counter", snapshot.metrics.counters.len())?;
    expect_count("gauge", snapshot.metrics.gauges.len())?;
    expect_count("histogram", snapshot.metrics.histograms.len())?;
    expect_count("span", snapshot.spans.len())?;

    for (record, span) in of_type(&records, "span").zip(snapshot.spans.iter()) {
        let id = record.get("id").and_then(JsonValue::as_f64);
        let start = record.get("start_ms").and_then(JsonValue::as_f64);
        let end = record.get("end_ms").and_then(JsonValue::as_f64);
        let name = record.get("name").and_then(JsonValue::as_str);
        if id != Some(span.id.0 as f64)
            || start != Some(span.start_ms)
            || end != Some(span.end_ms)
            || name != Some(&span.name)
        {
            return Err(format!("round-trip altered span {}", span.id));
        }
        let parent_ok = match span.parent {
            Some(p) => record.get("parent").and_then(JsonValue::as_f64) == Some(p.0 as f64),
            None => record.get("parent") == Some(&JsonValue::Null),
        };
        if !parent_ok {
            return Err(format!("round-trip altered the parent of span {}", span.id));
        }
    }

    for (record, (name, value)) in
        of_type(&records, "counter").zip(snapshot.metrics.counters.iter())
    {
        if record.get("name").and_then(JsonValue::as_str) != Some(name)
            || record.get("value").and_then(JsonValue::as_f64) != Some(*value as f64)
        {
            return Err(format!("round-trip altered counter {name:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("-2.5e2").unwrap(), JsonValue::Number(-250.0));
        assert_eq!(
            parse_json("\"a\\n\\\"b\\u0041\"").unwrap(),
            JsonValue::String("a\n\"bA".to_string())
        );
        let v = parse_json(r#"{"a":[1,2,{"b":null}],"c":"d"}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("d"));
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[1], JsonValue::Number(2.0));
        assert_eq!(arr[2].get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn parses_unicode_strings() {
        let v = parse_json("\"héllo → 世界\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → 世界"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"x", "{\"a\" 1}", "12 34", "truth"] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn jsonl_reports_the_failing_line() {
        let err = parse_jsonl("{\"ok\":1}\n{broken\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn numbers_round_trip_through_the_emitted_format() {
        for v in [0.0, 5.0, -1.25, 1e-9, 123456.789, f64::MAX] {
            let text = json_f64(v);
            let back = parse_json(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, v, "text {text}");
        }
        assert_eq!(json_f64(f64::INFINITY), "\"+Inf\"");
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("serve.latency.ms"), "rtnn_serve_latency_ms");
        assert_eq!(prometheus_name("a-b c"), "rtnn_a_b_c");
        assert_eq!(prometheus_name("slo.breach-p99"), "rtnn_slo_breach_p99");
    }
}
