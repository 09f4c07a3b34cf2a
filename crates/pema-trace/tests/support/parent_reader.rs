//! The readers as they were before `json::Reader`: the recursive tree
//! tokenizer, `ObjReader` with its `read_*` helpers, and the trace
//! decoder built on them, copied verbatim from the commit that last
//! shipped them (only `json::` prefixes dropped and a `parse_jsonl`
//! put around the decoder). Test-only: the oracle the new single-pass
//! readers are held against, here for trace files and — through a
//! `#[path]` include — in `pema-live` for Prometheus matrices.
//!
//! The tokenizer recurses without a limit; keep deeply nested input
//! away from it.

// Each test binary that includes this file uses its own part of it.
#![allow(dead_code)]

use pema_sim::{ServiceWindowStats, WindowStats};
use pema_telemetry::json::Value;
use pema_trace::{
    ReadMode, Trace, TraceError, TraceMeta, TraceRecord, FORMAT_NAME, FORMAT_VERSION,
};

/// `Trace::parse_jsonl` as it was: every non-blank line through the
/// tree decoder, then the structural validation, with errors on real
/// file lines.
pub fn parse_jsonl(text: &str, mode: ReadMode) -> Result<Trace, TraceError> {
    let strict = mode == ReadMode::Strict;
    let err = |line: usize, message: String| TraceError { line, message };
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (header_idx, header) = lines
        .next()
        .ok_or_else(|| err(0, "empty trace file".into()))?;
    let header_line = header_idx + 1;
    let meta = parse_header(header, strict).map_err(|m| err(header_line, m))?;
    let mut records = Vec::new();
    let mut record_lines = Vec::new();
    for (idx, line) in lines {
        let record = parse_record(line, strict).map_err(|m| err(idx + 1, m))?;
        records.push(record);
        record_lines.push(idx + 1);
    }
    let trace = Trace { meta, records };
    // `validate_at` is private; `validate` numbers the header 1 and
    // record `i` line `i + 2`, which maps back onto the file's lines.
    trace.validate().map_err(|e| {
        let line = match e.line {
            1 => header_line,
            dense => record_lines[dense - 2],
        };
        err(line, e.message)
    })?;
    Ok(trace)
}

pub fn parse_header(line: &str, strict: bool) -> Result<TraceMeta, String> {
    let mut obj = ObjReader::new(parse(line)?)?;
    let format = read_string(&obj.take("format")?)?;
    if format != FORMAT_NAME {
        return Err(format!("not a {FORMAT_NAME} file (format = \"{format}\")"));
    }
    let version = read_u64(&obj.take("version")?)?;
    if version > FORMAT_VERSION {
        return Err(format!(
            "version {version} is newer than this reader (max {FORMAT_VERSION})"
        ));
    }
    if strict && version != FORMAT_VERSION {
        return Err(format!(
            "version {version} != {FORMAT_VERSION} (strict mode; use lenient to read older traces)"
        ));
    }
    let meta = TraceMeta {
        app: read_string(&obj.take("app")?)?,
        services: obj
            .take("services")?
            .as_array()
            .ok_or("services must be an array")?
            .iter()
            .map(read_string)
            .collect::<Result<_, _>>()?,
        slo_ms: read_f64(&obj.take("slo_ms")?)?,
        interval_s: read_f64(&obj.take("interval_s")?)?,
        warmup_s: read_f64(&obj.take("warmup_s")?)?,
        backend_seed: read_u64(&obj.take("backend_seed")?)?,
        policy: read_string(&obj.take("policy")?)?,
        policy_seed: read_u64(&obj.take("policy_seed")?)?,
        early_check_s: match obj.take("early_check_s")? {
            Value::Null => None,
            v => Some(read_f64(&v)?),
        },
        initial_alloc: read_f64_array(&obj.take("initial_alloc")?)?,
    };
    obj.finish(strict)?;
    Ok(meta)
}

fn parse_record(line: &str, strict: bool) -> Result<TraceRecord, String> {
    let mut obj = ObjReader::new(parse(line)?)?;
    let record = TraceRecord {
        iter: read_u64(&obj.take("iter")?)?,
        time_s: read_f64(&obj.take("time_s")?)?,
        rps: read_f64(&obj.take("rps")?)?,
        action: read_string(&obj.take("action")?)?,
        pema_id: read_u64(&obj.take("pema_id")?)?,
        alloc: read_f64_array(&obj.take("alloc")?)?,
        stats: parse_stats(obj.take("stats")?, strict)?,
    };
    obj.finish(strict)?;
    Ok(record)
}

fn parse_stats(v: Value, strict: bool) -> Result<WindowStats, String> {
    let mut obj = ObjReader::new(v)?;
    let stats = WindowStats {
        start_s: read_f64(&obj.take("start_s")?)?,
        duration_s: read_f64(&obj.take("duration_s")?)?,
        offered_rps: read_f64(&obj.take("offered_rps")?)?,
        achieved_rps: read_f64(&obj.take("achieved_rps")?)?,
        completed: read_u64(&obj.take("completed")?)?,
        arrivals: read_u64(&obj.take("arrivals")?)?,
        mean_ms: read_f64(&obj.take("mean_ms")?)?,
        p50_ms: read_f64(&obj.take("p50_ms")?)?,
        p95_ms: read_f64(&obj.take("p95_ms")?)?,
        p99_ms: read_f64(&obj.take("p99_ms")?)?,
        max_ms: read_f64(&obj.take("max_ms")?)?,
        per_service: obj
            .take("per_service")?
            .as_array()
            .ok_or("per_service must be an array")?
            .iter()
            .map(|svc| parse_service(svc.clone(), strict))
            .collect::<Result<_, _>>()?,
    };
    obj.finish(strict)?;
    Ok(stats)
}

fn parse_service(v: Value, strict: bool) -> Result<ServiceWindowStats, String> {
    let mut obj = ObjReader::new(v)?;
    let svc = ServiceWindowStats {
        alloc_cores: read_f64(&obj.take("alloc_cores")?)?,
        util_pct: read_f64(&obj.take("util_pct")?)?,
        cpu_used_s: read_f64(&obj.take("cpu_used_s")?)?,
        throttled_s: read_f64(&obj.take("throttled_s")?)?,
        usage_p90_cores: read_f64(&obj.take("usage_p90_cores")?)?,
        usage_peak_cores: read_f64(&obj.take("usage_peak_cores")?)?,
        mem_bytes: read_f64(&obj.take("mem_bytes")?)?,
        visits: read_u64(&obj.take("visits")?)?,
        mean_self_ms: read_f64(&obj.take("mean_self_ms")?)?,
        mean_visit_ms: read_f64(&obj.take("mean_visit_ms")?)?,
    };
    obj.finish(strict)?;
    Ok(svc)
}

// ---- `ObjReader` and the `read_*` helpers ----

/// Consumes an object's fields by name, tracking what is left over so
/// strict readers can reject unknown keys.
pub struct ObjReader {
    fields: Vec<(String, Value)>,
}

impl ObjReader {
    /// Wraps a parsed value; errors unless it is an object.
    pub fn new(v: Value) -> Result<Self, String> {
        match v {
            Value::Obj(fields) => Ok(Self { fields }),
            other => Err(format!("expected an object, found {}", other.kind())),
        }
    }

    /// Removes and returns a required field.
    pub fn take(&mut self, key: &str) -> Result<Value, String> {
        self.take_opt(key)
            .ok_or_else(|| format!("missing required key \"{key}\""))
    }

    /// Removes and returns an optional field.
    pub fn take_opt(&mut self, key: &str) -> Option<Value> {
        let i = self.fields.iter().position(|(k, _)| k == key)?;
        Some(self.fields.remove(i).1)
    }

    /// Finishes the read: in strict mode any remaining (unknown) key
    /// is an error; in lenient mode leftovers are ignored.
    pub fn finish(self, strict: bool) -> Result<(), String> {
        if strict {
            if let Some((k, _)) = self.fields.first() {
                return Err(format!("unknown key \"{k}\" (strict mode)"));
            }
        }
        Ok(())
    }
}

/// Reads an `f64` in the trace encoding (number, or one of the
/// non-finite string tokens).
pub fn read_f64(v: &Value) -> Result<f64, String> {
    if let Some(x) = v.as_f64() {
        return Ok(x);
    }
    match v.as_str() {
        Some("inf") => Ok(f64::INFINITY),
        Some("-inf") => Ok(f64::NEG_INFINITY),
        Some("nan") => Ok(f64::NAN),
        _ => Err(format!("expected a number, found {}", v.kind())),
    }
}

/// Reads a required `u64`.
pub fn read_u64(v: &Value) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("expected a non-negative integer, found {}", v.kind()))
}

/// Reads a required string.
pub fn read_string(v: &Value) -> Result<String, String> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("expected a string, found {}", v.kind()))
}

/// Reads an array of trace-encoded `f64`s.
pub fn read_f64_array(v: &Value) -> Result<Vec<f64>, String> {
    v.as_array()
        .ok_or_else(|| format!("expected an array, found {}", v.kind()))?
        .iter()
        .map(read_f64)
        .collect()
}

// ---- the tokenizer ----

/// Parses one complete JSON document (one trace line).
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut kv = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(kv));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        kv.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(kv));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    skip_ws(b, pos);
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        if *pos + 4 > b.len() {
                            return Err("truncated \\u escape".to_string());
                        }
                        let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                            .map_err(|_| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char)),
                }
            }
            c => {
                // Re-assemble multi-byte UTF-8 sequences.
                let len = match c {
                    0x00..=0x7F => {
                        out.push(c as char);
                        continue;
                    }
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let start = *pos - 1;
                let end = (start + len).min(b.len());
                let s = std::str::from_utf8(&b[start..end])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_string())?;
    if raw.is_empty() || raw.parse::<f64>().is_err() {
        return Err(format!("bad number at byte {start}"));
    }
    Ok(Value::Num(raw.to_string()))
}
