//! The on-disk trace format: versioned, schema-checked JSON lines.
//!
//! A trace file is UTF-8 text, one JSON document per line:
//!
//! * **line 1** — the header: format name, version, and the run
//!   metadata ([`TraceMeta`]) needed to replay the run (app identity,
//!   SLO, harness timing, seeds, the allocation in force before the
//!   first interval);
//! * **every further line** — one control interval ([`TraceRecord`]):
//!   the loop-level fields (interval index, virtual time, offered
//!   load, the policy's decision tag and applied allocation) plus the
//!   complete measured [`WindowStats`], per-service observations
//!   included.
//!
//! Floats use the bit-exact encoding of [`pema_telemetry::json`] (shortest
//! round-trip decimals, `"inf"`/`"-inf"`/`"nan"` string tokens), so a
//! write → read cycle reproduces every field to the bit — the property
//! the replay determinism guarantee rests on.
//!
//! A line is read in a single pass, straight into the structs (no
//! tree in between), with its keys in any order. Readers run in one of
//! two [`ReadMode`]s:
//!
//! * [`Strict`](ReadMode::Strict) — the version must equal
//!   [`FORMAT_VERSION`] and unknown or repeated keys are rejected. Use
//!   for traces this build of the code wrote (CI, tests, goldens).
//! * [`Lenient`](ReadMode::Lenient) — unknown keys are ignored (of a
//!   repeated key the first occurrence counts) and any version up to
//!   [`FORMAT_VERSION`] is accepted, so files from older writers (or
//!   newer writers that only *added* optional keys) still load.
//!   Structural invariants (per-service array lengths, parseable
//!   numbers, well-formed JSON even in what is ignored) are enforced
//!   in both modes.
//!
//! The full spec, including the compatibility rules for evolving the
//! schema, lives in `docs/trace-format.md`.

use pema_sim::{ServiceWindowStats, WindowStats};
use pema_telemetry::json::{self, Reader};
use std::fmt;
use std::io;
use std::path::Path;

/// Format identifier carried in every header line.
pub const FORMAT_NAME: &str = "pema-trace";

/// Current format version. Bump only for incompatible changes (see
/// `docs/trace-format.md`); additive optional keys do not bump it.
pub const FORMAT_VERSION: u64 = 1;

/// How tolerant the reader is of schema drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Exact version match, unknown keys rejected.
    Strict,
    /// Versions `<= FORMAT_VERSION` accepted, unknown keys ignored.
    Lenient,
}

/// A trace-format error, carrying the offending line (1-based; 0 for
/// file-level problems).
#[derive(Debug, Clone)]
pub struct TraceError {
    /// Line the error occurred on (1-based; 0 = file level).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "trace: {}", self.message)
        } else {
            write!(f, "trace line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TraceError {}

impl From<TraceError> for io::Error {
    fn from(e: TraceError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

fn err(line: usize, message: impl Into<String>) -> TraceError {
    TraceError {
        line,
        message: message.into(),
    }
}

/// Run metadata: everything a replay needs besides the records.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Application name (resolvable via `pema_apps::by_name` for the
    /// bundled apps; informational otherwise).
    pub app: String,
    /// Service names, indexed like the allocation vector.
    pub services: Vec<String>,
    /// SLO the recorded run was judged against, ms.
    pub slo_ms: f64,
    /// Configured monitoring window per control interval, seconds.
    pub interval_s: f64,
    /// Configured settling time before each measurement, seconds.
    pub warmup_s: f64,
    /// Backend seed of the recorded run.
    pub backend_seed: u64,
    /// Policy tag of the recorded run (`"pema"`, `"rule"`, …).
    pub policy: String,
    /// Seed the recorded policy was constructed with (0 when the
    /// policy is seedless, e.g. the rule baseline).
    pub policy_seed: u64,
    /// §6 early-violation-check period of the recorded run, seconds
    /// (`None` when the run measured full windows). A faithful replay
    /// must re-enable the same mode — [`replay`](crate::replay) does.
    pub early_check_s: Option<f64>,
    /// Allocation in force during the first recorded window — the
    /// starting point an exact replay must use.
    pub initial_alloc: Vec<f64>,
}

impl TraceMeta {
    /// Number of services in the recorded app.
    pub fn n_services(&self) -> usize {
        self.services.len()
    }
}

/// One recorded control interval: the loop-level view plus the full
/// measured window.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Interval index (0-based).
    pub iter: u64,
    /// Virtual time at the start of the interval, seconds.
    pub time_s: f64,
    /// Offered load during the interval.
    pub rps: f64,
    /// Policy decision tag at the end of the interval.
    pub action: String,
    /// PEMA process id (workload-aware runs; 0 otherwise).
    pub pema_id: u64,
    /// Allocation applied for the *next* interval (after the cluster's
    /// allocation floor).
    pub alloc: Vec<f64>,
    /// The complete measured window.
    pub stats: WindowStats,
}

/// A complete recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Run metadata (header line).
    pub meta: TraceMeta,
    /// Per-interval records, in recorded order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Number of services in the recorded app.
    pub fn n_services(&self) -> usize {
        self.meta.n_services()
    }

    /// Structural validation shared by both read modes: every
    /// allocation / per-service vector must match the header's service
    /// count, and recorded window start times must not go backwards.
    ///
    /// Errors use the dense-file convention (header = line 1, record
    /// `i` = line `i + 2`); the file reader remaps them onto real line
    /// numbers when the file contains blank lines.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.validate_at(&|i| i + 2, 1)
    }

    /// [`validate`](Self::validate) with an explicit record-index →
    /// file-line mapping and header line.
    fn validate_at(
        &self,
        line_of: &dyn Fn(usize) -> usize,
        header_line: usize,
    ) -> Result<(), TraceError> {
        let n = self.n_services();
        if self.meta.initial_alloc.len() != n {
            return Err(err(
                header_line,
                format!(
                    "initial_alloc has {} entries for {n} services",
                    self.meta.initial_alloc.len()
                ),
            ));
        }
        let mut prev_end = f64::NEG_INFINITY;
        for (i, r) in self.records.iter().enumerate() {
            let line = line_of(i);
            if r.alloc.len() != n {
                return Err(err(line, format!("alloc has {} entries", r.alloc.len())));
            }
            if r.stats.per_service.len() != n {
                return Err(err(
                    line,
                    format!("per_service has {} entries", r.stats.per_service.len()),
                ));
            }
            if r.stats.start_s < prev_end {
                return Err(err(
                    line,
                    format!(
                        "window starts at {} before the previous window ended at {prev_end}",
                        r.stats.start_s
                    ),
                ));
            }
            prev_end = r.stats.start_s + r.stats.duration_s;
        }
        Ok(())
    }

    // ---- writing ----

    /// Serializes the trace to JSON lines.
    pub fn to_jsonl(&self) -> String {
        // Room for the header and one record, then the tape is sized
        // from that record. A run's records are about one size, but the
        // first is the short one (round allocations and a virtual clock
        // at zero print in fewer digits than what follows), hence the
        // quarter on top: spare capacity is never touched, a tape that
        // outgrows its buffer is copied whole.
        let mut out = String::with_capacity(512 * (self.n_services() + 2));
        self.write_header(&mut out);
        let mut records = self.records.iter();
        if let Some(first) = records.next() {
            let at = out.len();
            write_record(&mut out, first);
            let record_len = out.len() - at;
            out.reserve((record_len + record_len / 4) * records.len());
        }
        for r in records {
            write_record(&mut out, r);
        }
        out
    }

    /// Writes the trace to a file.
    pub fn write_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_jsonl())
            .map_err(|e| io::Error::new(e.kind(), format!("write trace {}: {e}", path.display())))
    }

    fn write_header(&self, out: &mut String) {
        let m = &self.meta;
        out.push_str("{\"format\":");
        json::push_quoted(out, FORMAT_NAME);
        out.push_str(",\"version\":");
        json::push_u64(out, FORMAT_VERSION);
        out.push_str(",\"app\":");
        json::push_quoted(out, &m.app);
        out.push_str(",\"services\":[");
        push_join(out, &m.services, |out, s| json::push_quoted(out, s));
        out.push_str("],\"slo_ms\":");
        json::push_f64(out, m.slo_ms);
        out.push_str(",\"interval_s\":");
        json::push_f64(out, m.interval_s);
        out.push_str(",\"warmup_s\":");
        json::push_f64(out, m.warmup_s);
        out.push_str(",\"backend_seed\":");
        json::push_u64(out, m.backend_seed);
        out.push_str(",\"policy\":");
        json::push_quoted(out, &m.policy);
        out.push_str(",\"policy_seed\":");
        json::push_u64(out, m.policy_seed);
        out.push_str(",\"early_check_s\":");
        match m.early_check_s {
            Some(s) => json::push_f64(out, s),
            None => out.push_str("null"),
        }
        out.push_str(",\"initial_alloc\":[");
        push_join(out, &m.initial_alloc, |out, v| json::push_f64(out, *v));
        out.push_str("]}\n");
    }

    // ---- reading ----

    /// Parses a trace from JSON-lines text. Blank lines are skipped;
    /// errors name the real file line.
    pub fn parse_jsonl(text: &str, mode: ReadMode) -> Result<Self, TraceError> {
        let strict = mode == ReadMode::Strict;
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (header_idx, header) = lines.next().ok_or_else(|| err(0, "empty trace file"))?;
        let header_line = header_idx + 1;
        let meta = parse_header(header, strict).map_err(|m| err(header_line, m))?;
        let n = meta.n_services();
        let mut records = Vec::new();
        let mut record_lines = Vec::new();
        for (idx, line) in lines {
            let record = parse_record(line, n, strict).map_err(|m| err(idx + 1, m))?;
            records.push(record);
            record_lines.push(idx + 1);
        }
        let trace = Trace { meta, records };
        trace.validate_at(&|i| record_lines[i], header_line)?;
        Ok(trace)
    }

    /// Reads a trace from a file.
    pub fn read_file(path: impl AsRef<Path>, mode: ReadMode) -> io::Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| io::Error::new(e.kind(), format!("read trace {}: {e}", path.display())))?;
        Self::parse_jsonl(&text, mode).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }
}

fn push_join<T>(out: &mut String, items: &[T], mut push: impl FnMut(&mut String, &T)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
}

fn write_record(out: &mut String, r: &TraceRecord) {
    out.push_str("{\"iter\":");
    json::push_u64(out, r.iter);
    out.push_str(",\"time_s\":");
    json::push_f64(out, r.time_s);
    out.push_str(",\"rps\":");
    json::push_f64(out, r.rps);
    out.push_str(",\"action\":");
    json::push_quoted(out, &r.action);
    out.push_str(",\"pema_id\":");
    json::push_u64(out, r.pema_id);
    out.push_str(",\"alloc\":[");
    push_join(out, &r.alloc, |out, v| json::push_f64(out, *v));
    out.push_str("],\"stats\":");
    write_stats(out, &r.stats);
    out.push_str("}\n");
}

fn write_stats(out: &mut String, s: &WindowStats) {
    for (key, v) in [
        ("{\"start_s\":", s.start_s),
        (",\"duration_s\":", s.duration_s),
        (",\"offered_rps\":", s.offered_rps),
        (",\"achieved_rps\":", s.achieved_rps),
    ] {
        out.push_str(key);
        json::push_f64(out, v);
    }
    out.push_str(",\"completed\":");
    json::push_u64(out, s.completed);
    out.push_str(",\"arrivals\":");
    json::push_u64(out, s.arrivals);
    for (key, v) in [
        (",\"mean_ms\":", s.mean_ms),
        (",\"p50_ms\":", s.p50_ms),
        (",\"p95_ms\":", s.p95_ms),
        (",\"p99_ms\":", s.p99_ms),
        (",\"max_ms\":", s.max_ms),
    ] {
        out.push_str(key);
        json::push_f64(out, v);
    }
    out.push_str(",\"per_service\":[");
    push_join(out, &s.per_service, |out, svc| {
        for (key, v) in [
            ("{\"alloc_cores\":", svc.alloc_cores),
            (",\"util_pct\":", svc.util_pct),
            (",\"cpu_used_s\":", svc.cpu_used_s),
            (",\"throttled_s\":", svc.throttled_s),
            (",\"usage_p90_cores\":", svc.usage_p90_cores),
            (",\"usage_peak_cores\":", svc.usage_peak_cores),
            (",\"mem_bytes\":", svc.mem_bytes),
        ] {
            out.push_str(key);
            json::push_f64(out, v);
        }
        out.push_str(",\"visits\":");
        json::push_u64(out, svc.visits);
        out.push_str(",\"mean_self_ms\":");
        json::push_f64(out, svc.mean_self_ms);
        out.push_str(",\"mean_visit_ms\":");
        json::push_f64(out, svc.mean_visit_ms);
        out.push('}');
    });
    out.push_str("]}");
}

// The keys of the four kinds of object in a trace file, in the order
// the writer above emits them. The readers below dispatch on a key's
// position in its list.
const HEADER_KEYS: [&str; 12] = [
    "format",
    "version",
    "app",
    "services",
    "slo_ms",
    "interval_s",
    "warmup_s",
    "backend_seed",
    "policy",
    "policy_seed",
    "early_check_s",
    "initial_alloc",
];
const RECORD_KEYS: [&str; 7] = [
    "iter", "time_s", "rps", "action", "pema_id", "alloc", "stats",
];
const STATS_KEYS: [&str; 12] = [
    "start_s",
    "duration_s",
    "offered_rps",
    "achieved_rps",
    "completed",
    "arrivals",
    "mean_ms",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "max_ms",
    "per_service",
];
const SERVICE_KEYS: [&str; 10] = [
    "alloc_cores",
    "util_pct",
    "cpu_used_s",
    "throttled_s",
    "usage_p90_cores",
    "usage_peak_cores",
    "mem_bytes",
    "visits",
    "mean_self_ms",
    "mean_visit_ms",
];

/// Walks the object `r` is at, handing the value of `keys[i]` to
/// `field(r, i)` as it goes by; `field` is called exactly once for
/// every `i` or the read fails.
///
/// Keys may come in any order: each is first held against the one the
/// writer would emit next — a file this code wrote never takes the
/// search. Every key of `keys` is required in both modes. A key outside
/// the list is an error to a strict reader and skipped, its value still
/// syntax-checked, by a lenient one; so is the second occurrence of a
/// key (lenient: the first wins).
fn read_fields<'a>(
    r: &mut Reader<'a>,
    keys: &[&str],
    strict: bool,
    mut field: impl FnMut(&mut Reader<'a>, usize) -> Result<(), String>,
) -> Result<(), String> {
    debug_assert!(keys.len() <= u32::BITS as usize, "`seen` is a u32");
    r.begin_object()?;
    let mut seen = 0u32;
    let mut next = 0;
    while let Some(key) = r.next_key()? {
        let at = match keys.get(next) {
            Some(k) if *k == key => Some(next),
            _ => keys.iter().position(|k| *k == key),
        };
        match at {
            Some(i) if seen & (1 << i) == 0 => {
                seen |= 1 << i;
                next = i + 1;
                field(r, i)?;
            }
            _ if strict => return Err(format!("unknown key \"{key}\" (strict mode)")),
            _ => r.skip_value()?,
        }
    }
    match (0..keys.len()).find(|i| seen & (1 << i) == 0) {
        Some(i) => Err(format!("missing required key \"{}\"", keys[i])),
        None => Ok(()),
    }
}

/// Reads an array of trace-encoded `f64`s expected to hold `n`.
fn read_f64_array(r: &mut Reader<'_>, n: usize) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(n);
    r.begin_array()?;
    while r.next_element()? {
        out.push(r.f64()?);
    }
    Ok(out)
}

fn parse_header(line: &str, strict: bool) -> Result<TraceMeta, String> {
    let mut m = TraceMeta {
        app: String::new(),
        services: Vec::new(),
        slo_ms: 0.0,
        interval_s: 0.0,
        warmup_s: 0.0,
        backend_seed: 0,
        policy: String::new(),
        policy_seed: 0,
        early_check_s: None,
        initial_alloc: Vec::new(),
    };
    let mut r = Reader::new(line);
    read_fields(&mut r, &HEADER_KEYS, strict, |r, i| {
        match i {
            0 => {
                let format = r.string()?;
                if format != FORMAT_NAME {
                    return Err(format!("not a {FORMAT_NAME} file (format = \"{format}\")"));
                }
            }
            1 => {
                let version = r.u64()?;
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
            }
            2 => m.app = r.string()?.into_owned(),
            3 => {
                r.begin_array()?;
                while r.next_element()? {
                    m.services.push(r.string()?.into_owned());
                }
            }
            4 => m.slo_ms = r.f64()?,
            5 => m.interval_s = r.f64()?,
            6 => m.warmup_s = r.f64()?,
            7 => m.backend_seed = r.u64()?,
            8 => m.policy = r.string()?.into_owned(),
            9 => m.policy_seed = r.u64()?,
            10 => m.early_check_s = if r.null()? { None } else { Some(r.f64()?) },
            _ => m.initial_alloc = read_f64_array(r, m.services.len())?,
        }
        Ok(())
    })?;
    r.end()?;
    Ok(m)
}

/// Decodes one record line of a trace with `n` services (what `alloc`
/// and `per_service` are reserved for; their lengths are checked by
/// [`Trace::validate`], not here).
fn parse_record(line: &str, n: usize, strict: bool) -> Result<TraceRecord, String> {
    let mut rec = TraceRecord {
        iter: 0,
        time_s: 0.0,
        rps: 0.0,
        action: String::new(),
        pema_id: 0,
        alloc: Vec::new(),
        stats: WindowStats {
            start_s: 0.0,
            duration_s: 0.0,
            offered_rps: 0.0,
            achieved_rps: 0.0,
            completed: 0,
            arrivals: 0,
            mean_ms: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            max_ms: 0.0,
            per_service: Vec::new(),
        },
    };
    let mut r = Reader::new(line);
    read_fields(&mut r, &RECORD_KEYS, strict, |r, i| {
        match i {
            0 => rec.iter = r.u64()?,
            1 => rec.time_s = r.f64()?,
            2 => rec.rps = r.f64()?,
            3 => rec.action = r.string()?.into_owned(),
            4 => rec.pema_id = r.u64()?,
            5 => rec.alloc = read_f64_array(r, n)?,
            _ => parse_stats(r, &mut rec.stats, n, strict)?,
        }
        Ok(())
    })?;
    r.end()?;
    Ok(rec)
}

fn parse_stats(
    r: &mut Reader<'_>,
    s: &mut WindowStats,
    n: usize,
    strict: bool,
) -> Result<(), String> {
    read_fields(r, &STATS_KEYS, strict, |r, i| {
        match i {
            0 => s.start_s = r.f64()?,
            1 => s.duration_s = r.f64()?,
            2 => s.offered_rps = r.f64()?,
            3 => s.achieved_rps = r.f64()?,
            4 => s.completed = r.u64()?,
            5 => s.arrivals = r.u64()?,
            6 => s.mean_ms = r.f64()?,
            7 => s.p50_ms = r.f64()?,
            8 => s.p95_ms = r.f64()?,
            9 => s.p99_ms = r.f64()?,
            10 => s.max_ms = r.f64()?,
            _ => {
                s.per_service.reserve(n);
                r.begin_array()?;
                while r.next_element()? {
                    s.per_service.push(parse_service(r, strict)?);
                }
            }
        }
        Ok(())
    })
}

fn parse_service(r: &mut Reader<'_>, strict: bool) -> Result<ServiceWindowStats, String> {
    let mut s = ServiceWindowStats {
        alloc_cores: 0.0,
        util_pct: 0.0,
        cpu_used_s: 0.0,
        throttled_s: 0.0,
        usage_p90_cores: 0.0,
        usage_peak_cores: 0.0,
        mem_bytes: 0.0,
        visits: 0,
        mean_self_ms: 0.0,
        mean_visit_ms: 0.0,
    };
    read_fields(r, &SERVICE_KEYS, strict, |r, i| {
        match i {
            0 => s.alloc_cores = r.f64()?,
            1 => s.util_pct = r.f64()?,
            2 => s.cpu_used_s = r.f64()?,
            3 => s.throttled_s = r.f64()?,
            4 => s.usage_p90_cores = r.f64()?,
            5 => s.usage_peak_cores = r.f64()?,
            6 => s.mem_bytes = r.f64()?,
            7 => s.visits = r.u64()?,
            8 => s.mean_self_ms = r.f64()?,
            _ => s.mean_visit_ms = r.f64()?,
        }
        Ok(())
    })?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(alloc: f64) -> ServiceWindowStats {
        ServiceWindowStats {
            alloc_cores: alloc,
            util_pct: 37.5,
            cpu_used_s: 1.125,
            throttled_s: 0.25,
            usage_p90_cores: 0.7,
            usage_peak_cores: 1.1,
            mem_bytes: 1.5e8,
            visits: 1234,
            mean_self_ms: 1.75,
            mean_visit_ms: 3.5,
        }
    }

    fn sample() -> Trace {
        Trace {
            meta: TraceMeta {
                app: "toy-chain".into(),
                services: vec!["gateway".into(), "logic".into()],
                slo_ms: 100.0,
                interval_s: 8.0,
                warmup_s: 1.0,
                backend_seed: 42,
                policy: "pema".into(),
                policy_seed: 7,
                early_check_s: None,
                initial_alloc: vec![1.5, 2.0],
            },
            records: vec![TraceRecord {
                iter: 0,
                time_s: 0.0,
                rps: 120.0,
                action: "reduce(2)".into(),
                pema_id: 0,
                alloc: vec![1.4, 1.9],
                stats: WindowStats {
                    start_s: 1.0,
                    duration_s: 8.0,
                    offered_rps: 120.0,
                    achieved_rps: 119.5,
                    completed: 956,
                    arrivals: 960,
                    mean_ms: 12.25,
                    p50_ms: 10.5,
                    p95_ms: f64::INFINITY,
                    p99_ms: 80.0,
                    max_ms: 95.0,
                    per_service: vec![svc(1.5), svc(2.0)],
                },
            }],
        }
    }

    #[test]
    fn round_trip_strict() {
        let t = sample();
        let text = t.to_jsonl();
        let back = Trace::parse_jsonl(&text, ReadMode::Strict).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn unknown_key_rejected_strict_ignored_lenient() {
        let mut text = sample().to_jsonl();
        text = text.replacen("{\"iter\":", "{\"future_field\":[1,2],\"iter\":", 1);
        assert!(Trace::parse_jsonl(&text, ReadMode::Strict).is_err());
        let t = Trace::parse_jsonl(&text, ReadMode::Lenient).unwrap();
        assert_eq!(t.records.len(), 1);
    }

    #[test]
    fn newer_version_rejected_in_both_modes() {
        let text = sample()
            .to_jsonl()
            .replacen("\"version\":1", "\"version\":99", 1);
        assert!(Trace::parse_jsonl(&text, ReadMode::Strict).is_err());
        assert!(Trace::parse_jsonl(&text, ReadMode::Lenient).is_err());
    }

    #[test]
    fn missing_key_rejected_in_both_modes() {
        let text = sample().to_jsonl().replacen("\"rps\":120,", "", 1);
        assert!(Trace::parse_jsonl(&text, ReadMode::Strict).is_err());
        let lenient = Trace::parse_jsonl(&text, ReadMode::Lenient);
        assert!(lenient.is_err(), "required keys stay required: {lenient:?}");
    }

    #[test]
    fn wrong_service_count_rejected() {
        let mut t = sample();
        t.records[0].alloc.pop();
        let text = t.to_jsonl();
        let e = Trace::parse_jsonl(&text, ReadMode::Lenient).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
    }

    #[test]
    fn error_names_the_line() {
        let mut text = sample().to_jsonl();
        text.push_str("not json\n");
        let e = Trace::parse_jsonl(&text, ReadMode::Strict).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
    }

    #[test]
    fn early_check_round_trips_as_null_or_number() {
        let mut t = sample();
        assert!(t.to_jsonl().contains("\"early_check_s\":null"));
        t.meta.early_check_s = Some(2.5);
        let back = Trace::parse_jsonl(&t.to_jsonl(), ReadMode::Strict).unwrap();
        assert_eq!(back.meta.early_check_s, Some(2.5));
    }

    #[test]
    fn blank_lines_do_not_shift_reported_line_numbers() {
        let mut t = sample();
        t.records[0].alloc.pop(); // structural error in the record
        let text = t.to_jsonl().replacen('\n', "\n\n\n", 1); // record now on line 4
        let e = Trace::parse_jsonl(&text, ReadMode::Lenient).unwrap_err();
        assert_eq!(e.line, 4, "{e}");
    }

    #[test]
    fn infinity_survives_the_file() {
        let t = sample();
        let back = Trace::parse_jsonl(&t.to_jsonl(), ReadMode::Strict).unwrap();
        assert!(back.records[0].stats.p95_ms.is_infinite());
    }

    /// The readers try the key the writer emits next before searching
    /// for it, and dispatch on its position: the four lists must be the
    /// writer's keys in the writer's order.
    #[test]
    fn key_lists_are_the_writers_keys_in_the_writers_order() {
        fn keys(v: &json::Value) -> Vec<&str> {
            match v {
                json::Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("expected an object, found {}", other.kind()),
            }
        }
        let text = sample().to_jsonl();
        let (header, record) = text.split_once('\n').unwrap();
        let (header, record) = (json::parse(header).unwrap(), json::parse(record).unwrap());
        let stats = record.get("stats").unwrap();
        let service = &stats.get("per_service").unwrap().as_array().unwrap()[0];
        assert_eq!(keys(&header), HEADER_KEYS);
        assert_eq!(keys(&record), RECORD_KEYS);
        assert_eq!(keys(stats), STATS_KEYS);
        assert_eq!(keys(service), SERVICE_KEYS);
    }

    #[test]
    fn repeated_key_rejected_strict_first_wins_lenient() {
        // The second `rps` is not even a number: a lenient reader
        // checks its syntax and nothing else.
        let text = sample()
            .to_jsonl()
            .replacen("\"rps\":120,", "\"rps\":120,\"rps\":[\"x\"],", 1);
        let e = Trace::parse_jsonl(&text, ReadMode::Strict).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "unknown key \"rps\" (strict mode)")
        );
        assert_eq!(
            Trace::parse_jsonl(&text, ReadMode::Lenient).unwrap(),
            sample()
        );
        let broken = text.replacen("[\"x\"]", "[\"x\",]", 1);
        assert!(Trace::parse_jsonl(&broken, ReadMode::Lenient).is_err());
    }

    #[test]
    fn ill_typed_and_ill_formed_lines_are_typed_errors_on_their_line() {
        let text = sample().to_jsonl();
        for (from, to, what) in [
            (
                "\"action\":\"reduce(2)\"",
                "\"action\":7",
                "expected a string, found number",
            ),
            (
                "\"p99_ms\":80",
                "\"p99_ms\":\"Inf\"",
                "expected a number, found string",
            ),
            (
                "\"p99_ms\":80",
                "\"p99_ms\":null",
                "expected a number, found null",
            ),
            (
                "\"completed\":956",
                "\"completed\":956.0",
                "expected a non-negative integer",
            ),
            (
                "\"completed\":956",
                "\"completed\":-1",
                "expected a non-negative integer",
            ),
            (
                "\"alloc\":[1.4,1.9]",
                "\"alloc\":1.4",
                "expected an array, found number",
            ),
            (
                "\"stats\":{",
                "\"stats\":[{",
                "expected an object, found array",
            ),
            (
                "{\"iter\":0,",
                "[{\"iter\":0,",
                "expected an object, found array",
            ),
            ("]}}\n", "]}}}\n", "trailing garbage"),
            ("]}}\n", "]}\n", "expected ',' or '}'"),
        ] {
            assert!(text.contains(from), "{from}");
            for mode in [ReadMode::Strict, ReadMode::Lenient] {
                let e = Trace::parse_jsonl(&text.replacen(from, to, 1), mode).unwrap_err();
                assert_eq!(e.line, 2, "{to}: {e}");
                assert!(e.message.contains(what), "{to}: {e}");
            }
        }
    }
}
