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
//! tree in between), with its keys in any order: a line in this
//! writer's exact layout against that layout, any other by the general
//! reader. Each object of the tape (the header's [`TraceMeta`], a
//! record's [`TraceRecord`], [`WindowStats`] and [`ServiceWindowStats`])
//! is declared once, as its field names in writer order
//! (`tape_object!`), the header's after its two checks, `format` and
//! `version`; the writer, both readers and the key lists all come from
//! that declaration. A tape of 2 MiB or more is
//! written and read on several threads, to the same bytes and the same
//! result. Readers run in one of two [`ReadMode`]s:
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
use std::sync::mpsc;

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
    /// count, every window must start and last a finite time, and
    /// recorded window start times must not go backwards.
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
            let (start, duration) = (r.stats.start_s, r.stats.duration_s);
            if !(start.is_finite() && duration.is_finite()) {
                return Err(err(
                    line,
                    format!("window start_s {start} and duration_s {duration} must be finite"),
                ));
            }
            if start < prev_end {
                return Err(err(
                    line,
                    format!(
                        "window starts at {start} before the previous window ended at {prev_end}"
                    ),
                ));
            }
            prev_end = start + duration;
        }
        Ok(())
    }

    // ---- writing ----

    /// Serializes the trace to JSON lines.
    ///
    /// A tape of 2 MiB or more is written on up to one thread per MiB
    /// and per CPU; the bytes are the same at any thread count.
    pub fn to_jsonl(&self) -> String {
        self.encode(chunk_count)
    }

    /// [`to_jsonl`](Self::to_jsonl) on `chunks(estimated tape bytes)`
    /// threads.
    fn encode(&self, chunks: impl FnOnce(usize) -> usize) -> String {
        // Room for the header and one record, then the tape is sized
        // from that record. A run's records are about one size, but the
        // first is the short one (round allocations and a virtual clock
        // at zero print in fewer digits than what follows), hence the
        // quarter on top: spare capacity is never touched, a tape that
        // outgrows its buffer is copied whole.
        let mut out = String::with_capacity(512 * (self.n_services() + 2));
        write_line(&mut out, &self.meta);
        let Some((first, rest)) = self.records.split_first() else {
            return out;
        };
        let at = out.len();
        write_line(&mut out, first);
        let record_len = out.len() - at;
        let room = record_len + record_len / 4;
        out.reserve(room * rest.len());
        let block = (BLOCK_BYTES / record_len).max(1);
        let blocks = rest.len().div_ceil(block);
        match chunks(record_len * self.records.len()).min(blocks) {
            0 | 1 => rest.iter().for_each(|r| write_line(&mut out, r)),
            k => write_interleaved(&mut out, rest, block, room * block, k),
        }
        out
    }

    /// Writes the trace to a file.
    pub fn write_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_jsonl())
            .map_err(|e| io::Error::new(e.kind(), format!("write trace {}: {e}", path.display())))
    }

    // ---- reading ----

    /// Parses a trace from JSON-lines text. Blank lines are skipped;
    /// errors name the real file line.
    ///
    /// A text of 2 MiB or more is read on up to one thread per MiB and
    /// per CPU; the result, error included, is the same at any thread
    /// count.
    pub fn parse_jsonl(text: &str, mode: ReadMode) -> Result<Self, TraceError> {
        Self::decode(text, mode, chunk_count(text.len()))
    }

    /// [`parse_jsonl`](Self::parse_jsonl) with the lines after the
    /// header cut into `chunks` runs, each read on a thread of its own.
    fn decode(text: &str, mode: ReadMode, chunks: usize) -> Result<Self, TraceError> {
        let strict = mode == ReadMode::Strict;
        let (header_idx, header) = text
            .lines()
            .enumerate()
            .find(|(_, l)| !l.trim().is_empty())
            .ok_or_else(|| err(0, "empty trace file"))?;
        let header_line = header_idx + 1;
        let meta: TraceMeta = parse_line(header, 0, strict).map_err(|m| err(header_line, m))?;
        let n = meta.n_services();
        // The rest of the header's line (its line ending, if any) and
        // every line after it, so the body's lines count from the
        // header's.
        let body = &text[header.as_ptr().addr() - text.as_ptr().addr() + header.len()..];
        let mut records = Vec::new();
        let mut record_lines = Vec::new();
        let mut first_idx = header_idx;
        for chunk in on_threads(&split_lines(body, chunks), |lines| {
            read_records(lines, n, strict)
        }) {
            let mut chunk = chunk.map_err(|(i, m)| err(first_idx + i + 1, m))?;
            chunk.lines.iter_mut().for_each(|i| *i += first_idx + 1);
            first_idx += chunk.line_count;
            if records.is_empty() {
                (records, record_lines) = (chunk.records, chunk.lines);
            } else {
                records.append(&mut chunk.records);
                record_lines.append(&mut chunk.lines);
            }
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

// ---- coding a big tape on several threads ----

/// Below two of these, in bytes, a tape is written and read on the
/// calling thread alone; above, it is cut into one chunk per this many
/// bytes, at most one per CPU.
///
/// Sized on a 2-core host (rustc 1.95.0, release build): spawning and
/// joining one scoped thread took 31–38 µs, while one MiB of the
/// TrainTicket tape took ≈ 1.7 ms to encode and ≈ 2.0 ms to decode on
/// one thread. A thread handed a chunk this size spends about 2 % of
/// its time being started and joined.
const MIN_CHUNK: usize = 1 << 20;

/// Bytes of records an encode thread writes between two hand-overs.
const BLOCK_BYTES: usize = 64 << 10;

/// Block buffers each encode worker cycles through: one it fills while
/// the caller copies the other.
const BUFFERS: usize = 2;

/// How many threads code a tape of `bytes`.
fn chunk_count(bytes: usize) -> usize {
    match bytes / MIN_CHUNK {
        0 | 1 => 1,
        k => k.min(pema_control::resolve_threads(0)),
    }
}

/// Writes `records` onto `out` on `k` threads, `block` records at a
/// time. Blocks are dealt round-robin: the calling thread writes its
/// blocks straight into `out`, and takes each other block, in record
/// order, from the worker that wrote it into one of its `BUFFERS`
/// reused buffers of `capacity` bytes. So a worker runs at most
/// `BUFFERS` blocks ahead, and the tape is never held twice.
fn write_interleaved(
    out: &mut String,
    records: &[TraceRecord],
    block: usize,
    capacity: usize,
    k: usize,
) {
    std::thread::scope(|s| {
        let workers: Vec<_> = (1..k)
            .map(|w| {
                let (filled, filled_rx) = mpsc::sync_channel::<String>(BUFFERS);
                let (free, free_rx) = mpsc::sync_channel::<String>(BUFFERS);
                for _ in 0..BUFFERS {
                    let _ = free.send(String::with_capacity(capacity));
                }
                s.spawn(move || {
                    for part in records.chunks(block).skip(w).step_by(k) {
                        let Ok(mut buf) = free_rx.recv() else { return };
                        buf.clear();
                        part.iter().for_each(|r| write_line(&mut buf, r));
                        if filled.send(buf).is_err() {
                            return;
                        }
                    }
                });
                (filled_rx, free)
            })
            .collect();
        for (j, part) in records.chunks(block).enumerate() {
            match j % k {
                0 => part.iter().for_each(|r| write_line(out, r)),
                w => {
                    let (filled, free) = &workers[w - 1];
                    let buf = filled.recv().expect("a trace encode thread panicked");
                    out.push_str(&buf);
                    // Its worker is gone once it has sent its last block.
                    let _ = free.send(buf);
                }
            }
        }
    });
}

/// Cuts `text` after newlines into at most `k` runs of whole lines of
/// about equal size (one, empty, for an empty text).
fn split_lines(text: &str, k: usize) -> Vec<&str> {
    let mut parts = Vec::with_capacity(k);
    let mut rest = text;
    for left in (2..=k).rev() {
        let from = rest.len() / left;
        let Some(nl) = rest.as_bytes()[from..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let (part, tail) = rest.split_at(from + nl + 1);
        parts.push(part);
        rest = tail;
    }
    if parts.is_empty() || !rest.is_empty() {
        parts.push(rest);
    }
    parts
}

/// `f` of every part, in order: the first on the calling thread, each
/// other one on a scoped thread of its own.
fn on_threads<'t, T: Send>(parts: &[&'t str], f: impl Fn(&'t str) -> T + Sync) -> Vec<T> {
    match parts {
        [] => Vec::new(),
        [one] => vec![f(one)],
        [first, rest @ ..] => std::thread::scope(|s| {
            let f = &f;
            let others: Vec<_> = rest.iter().map(|&p| s.spawn(move || f(p))).collect();
            let mut out = Vec::with_capacity(parts.len());
            out.push(f(first));
            out.extend(
                others
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
            );
            out
        }),
    }
}

/// The records on a run of whole lines.
struct Chunk {
    records: Vec<TraceRecord>,
    /// The 0-based index, within the run, of each record's line.
    lines: Vec<usize>,
    /// Lines in the run, blank ones included.
    line_count: usize,
}

/// Reads a run of whole lines, skipping blank ones; a failure names
/// the 0-based index of its line within the run.
fn read_records(text: &str, n: usize, strict: bool) -> Result<Chunk, (usize, String)> {
    let mut chunk = Chunk {
        records: Vec::new(),
        lines: Vec::new(),
        line_count: 0,
    };
    for (i, line) in text.lines().enumerate() {
        chunk.line_count = i + 1;
        if !line.trim().is_empty() {
            chunk
                .records
                .push(parse_line(line, n, strict).map_err(|m| (i, m))?);
            chunk.lines.push(i);
        }
    }
    Ok(chunk)
}

// ---- the schema ----

/// A kind of value on a tape: how the writer prints it, how the general
/// reader reads it, and how [`parse_line`] reads it off a line in the
/// writer's own layout. `n` is the trace's service count, what a vector
/// is reserved for.
trait Field: Sized {
    fn write(&self, out: &mut String);
    fn read(r: &mut Reader<'_>, n: usize, strict: bool) -> Result<Self, String>;
    fn read_layout(p: &mut Layout<'_>, n: usize) -> Option<Self>;
}

impl Field for f64 {
    fn write(&self, out: &mut String) {
        json::push_f64(out, *self);
    }

    fn read(r: &mut Reader<'_>, _: usize, _: bool) -> Result<Self, String> {
        r.f64()
    }

    /// A number token, or one of the writer's three string tokens.
    fn read_layout(p: &mut Layout<'_>, _: usize) -> Option<Self> {
        if p.src.as_bytes().get(p.pos) != Some(&b'"') {
            return p.token().parse().ok();
        }
        [
            ("\"inf\"", f64::INFINITY),
            ("\"-inf\"", f64::NEG_INFINITY),
            ("\"nan\"", f64::NAN),
        ]
        .into_iter()
        .find_map(|(token, v)| p.lit(token).map(|()| v))
    }
}

impl Field for u64 {
    fn write(&self, out: &mut String) {
        json::push_u64(out, *self);
    }

    fn read(r: &mut Reader<'_>, _: usize, _: bool) -> Result<Self, String> {
        r.u64()
    }

    fn read_layout(p: &mut Layout<'_>, _: usize) -> Option<Self> {
        p.token().parse().ok()
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        json::push_quoted(out, self);
    }

    fn read(r: &mut Reader<'_>, _: usize, _: bool) -> Result<Self, String> {
        Ok(r.string()?.into_owned())
    }

    /// A string without escapes.
    fn read_layout(p: &mut Layout<'_>, _: usize) -> Option<Self> {
        p.lit("\"")?;
        let rest = &p.src.as_bytes()[p.pos..];
        let n = rest.iter().position(|&c| c == b'"' || c == b'\\')?;
        (rest[n] == b'"').then(|| {
            p.pos += n + 1;
            p.src[p.pos - n - 1..p.pos - 1].to_owned()
        })
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }

    fn read(r: &mut Reader<'_>, n: usize, strict: bool) -> Result<Self, String> {
        let mut out = Vec::with_capacity(n);
        r.begin_array()?;
        while r.next_element()? {
            out.push(T::read(r, n, strict)?);
        }
        Ok(out)
    }

    fn read_layout(p: &mut Layout<'_>, n: usize) -> Option<Self> {
        p.lit("[")?;
        let mut out = Vec::with_capacity(n);
        if p.lit("]").is_none() {
            out.push(T::read_layout(p, n)?);
            while p.lit(",").is_some() {
                out.push(T::read_layout(p, n)?);
            }
            p.lit("]")?;
        }
        Some(out)
    }
}

/// `null`, or a value.
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }

    fn read(r: &mut Reader<'_>, n: usize, strict: bool) -> Result<Self, String> {
        if r.null()? {
            Ok(None)
        } else {
            T::read(r, n, strict).map(Some)
        }
    }

    fn read_layout(p: &mut Layout<'_>, n: usize) -> Option<Self> {
        match p.lit("null") {
            Some(()) => Some(None),
            None => T::read_layout(p, n).map(Some),
        }
    }
}

/// The header's `format` check: the writer's [`FORMAT_NAME`], and any
/// other name an error in both modes.
struct Format;

impl Field for Format {
    fn write(&self, out: &mut String) {
        json::push_quoted(out, FORMAT_NAME);
    }

    fn read(r: &mut Reader<'_>, _: usize, _: bool) -> Result<Self, String> {
        let format = r.string()?;
        if format != FORMAT_NAME {
            return Err(format!("not a {FORMAT_NAME} file (format = \"{format}\")"));
        }
        Ok(Format)
    }

    fn read_layout(p: &mut Layout<'_>, _: usize) -> Option<Self> {
        p.lit("\"")?;
        p.lit(FORMAT_NAME)?;
        p.lit("\"").map(|()| Format)
    }
}

/// The header's `version` check: a newer version is an error in both
/// modes, an older one to a strict reader.
struct Version;

impl Field for Version {
    fn write(&self, out: &mut String) {
        json::push_u64(out, FORMAT_VERSION);
    }

    fn read(r: &mut Reader<'_>, _: usize, strict: bool) -> Result<Self, String> {
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
        Ok(Version)
    }

    /// Only this writer's version, the one both modes read.
    fn read_layout(p: &mut Layout<'_>, n: usize) -> Option<Self> {
        (u64::read_layout(p, n)? == FORMAT_VERSION).then_some(Version)
    }
}

/// Declares an object of the tape once: its type and its fields, each
/// field's key being its name, in the order the writer emits them. An
/// object may open with checks, `[key: Check, …]`: keys whose value is
/// verified and dropped, a unit struct's [`Field`] impl writing the one
/// value and reading it or failing. From that list come the key list
/// `$keys` and the object's [`Field`] impl:
///
/// * the writer, every key pushed as one literal with its punctuation;
/// * the general reader: the object zero-filled, then each check read
///   and each field set as [`read_fields`] hands over the position of
///   its key in `$keys`;
/// * the layout path: the same literals, in the same order.
///
/// The readers build the object by name, so a field left out of the
/// list does not compile.
macro_rules! tape_object {
    ($keys:ident = $ty:ident [$c0:ident: $t0:ident $(, $c:ident: $t:ident)*] {
        $($f:ident),+ $(,)?
    }) => {
        tape_object!(@impl $keys $ty ["{" $c0 $t0 $(, "," $c $t)*] [$("," $f),+]);
    };
    ($keys:ident = $ty:ident { $f0:ident $(, $f:ident)* $(,)? }) => {
        tape_object!(@impl $keys $ty [] ["{" $f0 $(, "," $f)*]);
    };
    (@impl $keys:ident $ty:ident
        [$($co:literal $c:ident $t:ident),*] [$($fo:literal $f:ident),+]) => {
        const $keys: &[&str] = &[$(stringify!($c),)* $(stringify!($f)),+];

        impl Field for $ty {
            fn write(&self, out: &mut String) {
                $(
                    out.push_str(tape_object!(@key $co $c));
                    $t.write(out);
                )*
                $(
                    out.push_str(tape_object!(@key $fo $f));
                    self.$f.write(out);
                )+
                out.push('}');
            }

            fn read(r: &mut Reader<'_>, n: usize, strict: bool) -> Result<Self, String> {
                let mut v = $ty {
                    $($f: Default::default(),)+
                };
                type Set<'f> = &'f mut dyn FnMut(&mut Reader<'_>) -> Result<(), String>;
                let set: &mut [Set<'_>] = &mut [
                    $(&mut |r| $t::read(r, n, strict).map(drop),)*
                    $(&mut |r| {
                        v.$f = Field::read(r, n, strict)?;
                        Ok(())
                    },)+
                ];
                read_fields(r, $keys, strict, |r, i| set[i](r))?;
                Ok(v)
            }

            fn read_layout(p: &mut Layout<'_>, n: usize) -> Option<Self> {
                $(p.field::<$t>(tape_object!(@key $co $c), n)?;)*
                let v = $ty {
                    $($f: p.field(tape_object!(@key $fo $f), n)?,)+
                };
                p.lit("}")?;
                Some(v)
            }
        }
    };
    (@key $open:literal $field:ident) => {
        concat!($open, "\"", stringify!($field), "\":")
    };
}

tape_object! {
    HEADER_KEYS = TraceMeta [format: Format, version: Version] {
        app, services, slo_ms, interval_s, warmup_s, backend_seed, policy,
        policy_seed, early_check_s, initial_alloc,
    }
}

tape_object! {
    RECORD_KEYS = TraceRecord { iter, time_s, rps, action, pema_id, alloc, stats }
}

tape_object! {
    STATS_KEYS = WindowStats {
        start_s, duration_s, offered_rps, achieved_rps, completed, arrivals,
        mean_ms, p50_ms, p95_ms, p99_ms, max_ms, per_service,
    }
}

tape_object! {
    SERVICE_KEYS = ServiceWindowStats {
        alloc_cores, util_pct, cpu_used_s, throttled_s, usage_p90_cores,
        usage_peak_cores, mem_bytes, visits, mean_self_ms, mean_visit_ms,
    }
}

fn write_line(out: &mut String, v: &impl Field) {
    v.write(out);
    out.push('\n');
}

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

/// Decodes one line of a trace with `n` services (what its vectors are
/// reserved for; their lengths are checked by [`Trace::validate`], not
/// here): the header as a [`TraceMeta`], a record as a [`TraceRecord`].
///
/// A line laid out exactly as [`write_line`] lays a `T` out is read
/// against that layout: the writer's keys as byte literals in the
/// writer's order, no whitespace, strings without escapes, nothing
/// after the closing brace. A number is the `Reader`'s token (the run
/// of `0-9 . e E + -`) read by `str::parse`, a non-finite float one of
/// the writer's three string tokens.
///
/// At the first byte that departs from that layout, a token
/// `str::parse` refuses, or a check the layout cannot vouch for
/// (another format name, another version), the general reader reads the
/// line again from its start: it alone reports errors and applies the
/// reading modes. Where the layout answers, the general reader would
/// return the same value in either mode.
fn parse_line<T: Field>(line: &str, n: usize, strict: bool) -> Result<T, String> {
    let mut p = Layout { src: line, pos: 0 };
    if let Some(v) = T::read_layout(&mut p, n) {
        if p.pos == line.len() {
            return Ok(v);
        }
    }
    let mut r = Reader::new(line);
    let v = T::read(&mut r, n, strict)?;
    r.end()?;
    Ok(v)
}

/// [`parse_line`]'s cursor on the writer's layout. A read answers
/// `None` when the line does not go on as the writer would have gone on.
struct Layout<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Layout<'a> {
    fn lit(&mut self, lit: &str) -> Option<()> {
        let rest = &self.src.as_bytes()[self.pos..];
        rest.starts_with(lit.as_bytes())
            .then(|| self.pos += lit.len())
    }

    /// The `Reader`'s number token at the cursor, possibly empty.
    fn token(&mut self) -> &'a str {
        let rest = &self.src.as_bytes()[self.pos..];
        let n = rest
            .iter()
            .position(|c| !matches!(c, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(rest.len());
        self.pos += n;
        &self.src[self.pos - n..self.pos]
    }

    /// The value after `key`, a key with its punctuation.
    fn field<T: Field>(&mut self, key: &str, n: usize) -> Option<T> {
        self.lit(key)?;
        T::read_layout(self, n)
    }
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

    /// The sample's header, key by key in writer order.
    const SAMPLE_HEADER: [&str; 12] = [
        "\"format\":\"pema-trace\"",
        "\"version\":1",
        "\"app\":\"toy-chain\"",
        "\"services\":[\"gateway\",\"logic\"]",
        "\"slo_ms\":100",
        "\"interval_s\":8",
        "\"warmup_s\":1",
        "\"backend_seed\":42",
        "\"policy\":\"pema\"",
        "\"policy_seed\":7",
        "\"early_check_s\":null",
        "\"initial_alloc\":[1.5,2]",
    ];

    /// The sample tape with a header of `pairs` instead of its own.
    fn with_header<'a>(pairs: impl IntoIterator<Item = &'a str>) -> String {
        let text = sample().to_jsonl();
        let (header, records) = text.split_once('\n').unwrap();
        assert_eq!(header, format!("{{{}}}", SAMPLE_HEADER.join(",")));
        let pairs: Vec<&str> = pairs.into_iter().collect();
        format!("{{{}}}\n{records}", pairs.join(","))
    }

    /// `text` read strictly and leniently, an error as its line and
    /// message.
    fn both_modes(text: &str) -> [Result<Trace, (usize, String)>; 2] {
        [ReadMode::Strict, ReadMode::Lenient]
            .map(|mode| Trace::parse_jsonl(text, mode).map_err(|e| (e.line, e.message)))
    }

    #[test]
    fn a_wrong_format_is_named_on_the_headers_line() {
        let text = sample().to_jsonl().replacen("\"pema-trace\"", "\"x\"", 1);
        let want = Err((3, "not a pema-trace file (format = \"x\")".to_string()));
        assert_eq!(both_modes(&format!("\n  \n{text}")), [want.clone(), want]);
    }

    #[test]
    fn newer_version_rejected_in_both_modes() {
        let text = sample()
            .to_jsonl()
            .replacen("\"version\":1", "\"version\":99", 1);
        let newer = "version 99 is newer than this reader (max 1)";
        let want = Err((1, newer.to_string()));
        assert_eq!(both_modes(&text), [want.clone(), want]);
    }

    #[test]
    fn an_older_version_reads_leniently_only() {
        let text = sample()
            .to_jsonl()
            .replacen("\"version\":1", "\"version\":0", 1);
        let strict = "version 0 != 1 (strict mode; use lenient to read older traces)";
        assert_eq!(
            both_modes(&text),
            [Err((1, strict.to_string())), Ok(sample())]
        );
    }

    #[test]
    fn header_keys_in_reverse_order_read_the_same() {
        let text = with_header(SAMPLE_HEADER.into_iter().rev());
        assert_eq!(both_modes(&text), [Ok(sample()), Ok(sample())]);
    }

    #[test]
    fn an_unknown_header_key_is_rejected_strict_skipped_lenient() {
        let (before, after) = SAMPLE_HEADER.split_at(3);
        let added = "\"added_later\":{\"x\":[1,null]}";
        let text = with_header([before, &[added], after].concat());
        let strict = "unknown key \"added_later\" (strict mode)";
        assert_eq!(
            both_modes(&text),
            [Err((1, strict.to_string())), Ok(sample())]
        );
    }

    #[test]
    fn a_header_without_early_check_s_is_rejected_in_both_modes() {
        let text = with_header(
            SAMPLE_HEADER
                .into_iter()
                .filter(|pair| !pair.starts_with("\"early_check_s\"")),
        );
        let want = Err((1, "missing required key \"early_check_s\"".to_string()));
        assert_eq!(both_modes(&text), [want.clone(), want]);
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
    fn a_window_must_start_and_last_a_finite_time() {
        for (i, start, value) in [
            (1, true, f64::NAN),
            (3, true, f64::NEG_INFINITY),
            (0, false, f64::NAN),
            (2, false, f64::INFINITY),
        ] {
            let mut t = long_tape(5, 2);
            let stats = &mut t.records[i].stats;
            *if start {
                &mut stats.start_s
            } else {
                &mut stats.duration_s
            } = value;
            let e = t.validate().unwrap_err();
            assert_eq!(e.line, i + 2, "{e}");
            assert!(e.message.ends_with("must be finite"), "{e}");
            let want = Err((i + 2, e.message));
            assert_eq!(both_modes(&t.to_jsonl()), [want.clone(), want]);
        }
        // The NaN is reported on its own line, ahead of the window after
        // it that starts backwards.
        let mut t = long_tape(5, 2);
        t.records[1].stats.start_s = f64::NAN;
        t.records[2].stats.start_s = -5.0;
        assert_eq!(t.validate().unwrap_err().line, 3);
        t.records[1].stats.start_s = 11.0;
        let e = t.validate().unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.starts_with("window starts at -5 before"), "{e}");
    }

    #[test]
    fn infinity_survives_the_file() {
        let t = sample();
        let back = Trace::parse_jsonl(&t.to_jsonl(), ReadMode::Strict).unwrap();
        assert!(back.records[0].stats.p95_ms.is_infinite());
    }

    /// The readers try the key the writer emits next before searching
    /// for it, and dispatch on its position. Every object's key list and
    /// its writer come from one `tape_object!`, the header's two checks
    /// included; each list must be the writer's keys in the writer's
    /// order.
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

    /// A tape of `records` intervals over `services` services whose
    /// numbers print in many shapes (integers, fractions, large and
    /// tiny magnitudes), with a saturated window every fifth record and
    /// an `early-` action every seventh.
    fn long_tape(records: usize, services: usize) -> Trace {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut f = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = state >> 11;
            r as f64 / [1.0, 7.0, 1e9, 3e17][(r % 4) as usize]
        };
        let mut t = sample();
        t.meta.services = (0..services).map(|i| format!("svc-{i}")).collect();
        t.meta.initial_alloc = vec![1.0; services];
        t.records.clear();
        for i in 0..records {
            let start = 10.0 * i as f64;
            let mut alloc = Vec::new();
            let mut per_service = Vec::new();
            for _ in 0..services {
                alloc.push(f());
                per_service.push(ServiceWindowStats {
                    alloc_cores: f(),
                    util_pct: f(),
                    cpu_used_s: f(),
                    throttled_s: f(),
                    usage_p90_cores: f(),
                    usage_peak_cores: f(),
                    mem_bytes: f(),
                    visits: f() as u64,
                    mean_self_ms: f(),
                    mean_visit_ms: f(),
                });
            }
            t.records.push(TraceRecord {
                iter: i as u64,
                time_s: start,
                rps: f(),
                action: if i % 7 == 3 {
                    "early-reduce(1)"
                } else {
                    "hold"
                }
                .into(),
                pema_id: i as u64 % 3,
                alloc,
                stats: WindowStats {
                    start_s: start + 1.0,
                    duration_s: f() % 9.0,
                    offered_rps: f(),
                    achieved_rps: f(),
                    completed: f() as u64,
                    arrivals: f() as u64,
                    mean_ms: f(),
                    p50_ms: f(),
                    p95_ms: if i % 5 == 2 { f64::INFINITY } else { f() },
                    p99_ms: f(),
                    max_ms: f(),
                    per_service,
                },
            });
        }
        t
    }

    fn decode_at(text: &str, mode: ReadMode, chunks: usize) -> Result<Trace, (usize, String)> {
        Trace::decode(text, mode, chunks).map_err(|e| (e.line, e.message))
    }

    /// Every record line is damaged in turn, so each chunk count sees a
    /// damaged line in its first chunk, on each of its boundaries and
    /// in its last chunk; once with a second damaged line at the end,
    /// which must not be the one reported.
    #[test]
    fn chunked_decode_reads_what_one_chunk_reads() {
        let plain = long_tape(24, 2).to_jsonl();
        // Blank lines before the header too.
        let spaced: String = plain
            .lines()
            .enumerate()
            .map(|(i, l)| match i % 9 {
                0 | 2 => format!("\n{l}\n"),
                5 => format!("  \t\n{l}\n"),
                _ => format!("{l}\n"),
            })
            .collect();
        let crlf = plain.replace('\n', "\r\n");
        let mut boundaries = 0;
        for text in [plain, spaced, crlf] {
            let lines: Vec<&str> = text.split_inclusive('\n').collect();
            let damage = |at: &[(usize, &str, &str)]| -> String {
                let mut out = String::new();
                for (i, l) in lines.iter().enumerate() {
                    match at.iter().find(|d| d.0 == i) {
                        Some(&(_, from, to)) => out.push_str(&l.replacen(from, to, 1)),
                        None => out.push_str(l),
                    }
                }
                out
            };
            // A syntax error, caught on its line; a short `alloc`,
            // caught by validation after the merge.
            let (syntax, short) = (("\"rps\":", "\"rps\":x"), ("],\"stats\"", ",1],\"stats\""));
            let last = lines.len() - 1;
            let mut cases = vec![(text.clone(), None)];
            for i in (0..lines.len()).filter(|&i| lines[i].contains("\"iter\":")) {
                for (from, to) in [syntax, short] {
                    cases.push((damage(&[(i, from, to)]), Some(i + 1)));
                    if i < last {
                        cases.push((damage(&[(i, from, to), (last, from, to)]), Some(i + 1)));
                    }
                }
                // Validation runs only once every line has been read.
                if i < last {
                    let (s, l) = (syntax, short);
                    cases.push((damage(&[(i, l.0, l.1), (last, s.0, s.1)]), Some(last + 1)));
                }
            }
            for (case, line) in &cases {
                for mode in [ReadMode::Strict, ReadMode::Lenient] {
                    let one = decode_at(case, mode, 1);
                    assert_eq!(one.as_ref().err().map(|e| e.0), *line, "{one:?}");
                    for k in [2, 3, 7] {
                        assert_eq!(decode_at(case, mode, k), one, "{k} chunks");
                    }
                }
                let starts: Vec<usize> = split_lines(case, 7)
                    .iter()
                    .map(|p| {
                        case[..p.as_ptr().addr() - case.as_ptr().addr()]
                            .matches('\n')
                            .count()
                            + 1
                    })
                    .collect();
                boundaries += line.is_some_and(|l| starts[1..].contains(&l)) as usize;
            }
        }
        assert!(boundaries > 0, "no damaged line opened a chunk");
    }

    #[test]
    fn chunked_encode_writes_the_bytes_one_chunk_writes() {
        for records in [0, 1, 2, 1500] {
            let t = long_tape(records, 2);
            let one = t.encode(|_| 1);
            if records == 1500 {
                assert!(one.len() > 8 * BLOCK_BYTES, "a tape of {} bytes", one.len());
            }
            for k in [2, 3, 7] {
                assert!(t.encode(|_| k) == one, "{records} records on {k} chunks");
            }
        }
    }

    /// Big enough to be coded on every CPU a 2-core host has.
    #[test]
    fn a_tape_of_several_chunks_round_trips_through_the_public_entry_points() {
        let t = long_tape(300, 41);
        let text = t.to_jsonl();
        assert!(
            text.len() >= 2 * MIN_CHUNK,
            "a tape of {} bytes",
            text.len()
        );
        assert!(Trace::parse_jsonl(&text, ReadMode::Strict).unwrap() == t);
        let mut lines = String::new();
        for (i, r) in t.records.iter().enumerate() {
            let one = Trace {
                meta: t.meta.clone(),
                records: vec![r.clone()],
            }
            .to_jsonl();
            let (header, line) = one.split_once('\n').unwrap();
            if i == 0 {
                lines.push_str(header);
                lines.push('\n');
            }
            lines.push_str(line);
        }
        assert!(text == lines, "a tape is its header and its records' lines");
    }

    /// What the layout path alone makes of a whole line.
    fn layout<T: Field>(line: &str, n: usize) -> Option<T> {
        let mut p = Layout { src: line, pos: 0 };
        T::read_layout(&mut p, n).filter(|_| p.pos == line.len())
    }

    /// What the general reader alone makes of a line.
    fn general<T: Field>(line: &str, n: usize, strict: bool) -> Result<T, String> {
        let mut r = Reader::new(line);
        let v = T::read(&mut r, n, strict)?;
        r.end()?;
        Ok(v)
    }

    #[test]
    fn writer_lines_take_the_layout_path() {
        let mut t = long_tape(30, 3);
        t.records[4].stats.per_service[1].throttled_s = f64::NAN;
        t.records[6].stats.mean_ms = f64::NEG_INFINITY;
        let text = t.to_jsonl();
        for token in [
            "\"p95_ms\":\"inf\"",
            "\"action\":\"early-",
            "\"nan\"",
            "\"-inf\"",
        ] {
            assert!(text.contains(token), "{token}");
        }
        let (header, records) = text.split_once('\n').unwrap();
        for (early_check_s, header) in [
            (None, header.to_string()),
            (Some(2.5), header.replacen("null", "2.5", 1)),
        ] {
            let fast: TraceMeta = layout(&header, 0).expect("the header fell back");
            assert_eq!(fast.early_check_s, early_check_s);
            for strict in [true, false] {
                assert_eq!(Ok(&fast), general(&header, 0, strict).as_ref());
            }
        }
        for line in records.lines() {
            let fast: TraceRecord = layout(line, 3).unwrap_or_else(|| panic!("fell back: {line}"));
            for strict in [true, false] {
                let general: TraceRecord = general(line, 3, strict).unwrap();
                // Debug, not `==`: one field is NaN.
                assert_eq!(format!("{fast:?}"), format!("{general:?}"));
            }
        }
    }

    /// A header the layout cannot vouch for goes to the general reader,
    /// which applies the modes.
    #[test]
    fn headers_of_another_name_or_version_fall_back() {
        let text = sample().to_jsonl();
        let header = text.lines().next().unwrap();
        for (from, to) in [
            ("\"version\":1", "\"version\":0"),
            ("\"version\":1", "\"version\":10"),
            ("\"pema-trace\"", "\"pema-tracer\""),
            ("\"pema-trace\"", "\"pema\\u002dtrace\""),
        ] {
            let departed = header.replacen(from, to, 1);
            assert!(layout::<TraceMeta>(&departed, 0).is_none(), "{to}");
            for strict in [true, false] {
                assert_eq!(
                    parse_line::<TraceMeta>(&departed, 0, strict),
                    general(&departed, 0, strict),
                    "{to}"
                );
            }
        }
    }

    #[test]
    fn departures_from_the_layout_fall_back_and_read_as_before() {
        let text = sample().to_jsonl();
        let line = text.lines().nth(1).unwrap();
        let want = Ok(sample().records.remove(0));
        let int = "expected a non-negative integer, found number";
        for (what, departed, strict, lenient) in [
            (
                "a space after a colon",
                line.replacen("\"rps\":", "\"rps\": ", 1),
                want.clone(),
                want.clone(),
            ),
            (
                "two keys swapped",
                line.replacen("\"time_s\":0,\"rps\":120", "\"rps\":120,\"time_s\":0", 1),
                want.clone(),
                want.clone(),
            ),
            (
                "an escaped action",
                line.replacen("\"reduce(2)\"", "\"\\u0072educe(2)\"", 1),
                want.clone(),
                want.clone(),
            ),
            (
                "trailing spaces",
                format!("{line}  "),
                want.clone(),
                want.clone(),
            ),
            (
                "1.0 in iter",
                line.replacen("\"iter\":0", "\"iter\":1.0", 1),
                Err(int),
                Err(int),
            ),
            (
                "a misspelt key",
                line.replacen("\"pema_id\"", "\"pema_ld\"", 1),
                Err("unknown key \"pema_ld\" (strict mode)"),
                Err("missing required key \"pema_id\""),
            ),
        ] {
            assert_ne!(departed, line, "{what}");
            assert!(layout::<TraceRecord>(&departed, 2).is_none(), "{what}");
            for (strict, want) in [(true, strict), (false, lenient)] {
                let got = parse_line::<TraceRecord>(&departed, 2, strict);
                assert_eq!(got, general(&departed, 2, strict), "{what}");
                assert_eq!(
                    got.map_err(|e| e.to_string()),
                    want.map_err(str::to_string),
                    "{what}"
                );
            }
        }
    }
}
