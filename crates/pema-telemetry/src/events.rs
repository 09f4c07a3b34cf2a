//! Structured JSONL event log — the side channel for per-event detail
//! the aggregated registry cannot hold (which member, which interval,
//! exact span bounds).
//!
//! One JSON object per line, written with the same hand-rolled writer
//! the trace format uses ([`crate::json`]), so `f64` fields round-trip
//! bit-exactly and non-finite values use the `"inf"`/`"-inf"`/`"nan"`
//! spellings. Timestamps are supplied by the *caller* from the clock
//! it already runs on (virtual sim time or the live `TimeSource`), so
//! a deterministic run writes a deterministic event log.
//!
//! An event costs one encode and one copy: fields are borrowed, the
//! line is built in a buffer the emitting thread reuses, *outside* the
//! sink's lock, and the lock covers only the copy of the finished line
//! into the sink's write buffer. Nothing is allocated per event once a
//! thread's line buffer has grown to its longest line.

use crate::json;
use std::cell::Cell;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// One field value of an event. Strings are borrowed: an event is
/// encoded before [`EventSink::emit`] returns.
#[derive(Debug, Clone)]
pub enum EventField<'a> {
    /// Trace-encoded float (bit-exact, `"inf"`/`"-inf"`/`"nan"`).
    F64(f64),
    /// Non-negative integer (survives above 2^53).
    U64(u64),
    /// String.
    Str(&'a str),
}

/// Write-buffer size of a file sink: about 340 `interval` lines (≈ 190
/// bytes each) per `write(2)`, where `BufWriter`'s 8 KiB default made
/// one system call per 43.
const FILE_BUFFER_BYTES: usize = 64 * 1024;

thread_local! {
    /// The emitting thread's line under construction. Taken for the
    /// length of one `emit` and put back, so a fleet shard formats
    /// every member's events in one buffer that stays in cache.
    static LINE: Cell<String> = const { Cell::new(String::new()) };
}

/// A shared, append-only JSONL event writer. Cloning shares the
/// underlying stream; lines are written whole under one lock, so
/// events from different fleet shards never interleave mid-line.
/// A file sink batches lines (see [`EventSink::flush`]); dropping the
/// last clone flushes what is still buffered.
#[derive(Clone)]
pub struct EventSink {
    out: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl EventSink {
    /// Creates (truncating) `path` and returns a sink writing to it.
    pub fn to_file(path: &str) -> std::io::Result<EventSink> {
        let f = std::fs::File::create(path)?;
        let out = std::io::BufWriter::with_capacity(FILE_BUFFER_BYTES, f);
        Ok(EventSink {
            out: Arc::new(Mutex::new(Box::new(out))),
        })
    }

    /// A sink writing into a shared in-memory buffer, for tests.
    pub fn memory() -> (EventSink, Arc<Mutex<Vec<u8>>>) {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = EventSink {
            out: Arc::new(Mutex::new(Box::new(Shared(buf.clone())))),
        };
        (sink, buf)
    }

    /// Appends one event line:
    /// `{"event":<kind>,"t_s":<t_s>,<fields…>}`. Write errors are
    /// swallowed — telemetry must never abort a run.
    pub fn emit(&self, kind: &str, t_s: f64, fields: &[(&str, EventField)]) {
        let mut line = LINE.take();
        line.clear();
        line.push_str("{\"event\":");
        json::push_quoted(&mut line, kind);
        line.push_str(",\"t_s\":");
        json::push_f64(&mut line, t_s);
        for (k, v) in fields {
            line.push(',');
            json::push_quoted(&mut line, k);
            line.push(':');
            match v {
                EventField::F64(x) => json::push_f64(&mut line, *x),
                EventField::U64(x) => json::push_u64(&mut line, *x),
                EventField::Str(s) => json::push_quoted(&mut line, s),
            }
        }
        line.push_str("}\n");
        let _ = self
            .out
            .lock()
            .expect("event sink poisoned")
            .write_all(line.as_bytes());
        LINE.set(line);
    }

    /// Flushes buffered lines to the underlying stream: every event
    /// emitted before the call is in the file when it returns.
    pub fn flush(&self) {
        let _ = self.out.lock().expect("event sink poisoned").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_valid_jsonl_with_bit_exact_floats() {
        let (sink, buf) = EventSink::memory();
        sink.emit(
            "phase",
            40.125,
            &[
                ("member", EventField::Str("carts-0")),
                ("span_s", EventField::F64(1.0 / 3.0)),
                ("iter", EventField::U64(u64::MAX - 1)),
            ],
        );
        sink.emit("scrape", f64::INFINITY, &[]);
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let obj = json::parse(lines[0]).unwrap();
        let field = |key: &str| obj.get(key).unwrap();
        assert_eq!(field("event").as_str(), Some("phase"));
        assert_eq!(
            field("t_s").as_f64().map(f64::to_bits),
            Some(40.125f64.to_bits())
        );
        assert_eq!(
            field("span_s").as_f64().map(f64::to_bits),
            Some((1.0f64 / 3.0).to_bits())
        );
        assert_eq!(field("iter").as_u64(), Some(u64::MAX - 1));
        assert_eq!(field("member").as_str(), Some("carts-0"));
        assert!(matches!(&obj, json::Value::Obj(fields) if fields.len() == 5));
        // A non-finite time is one of the string tokens.
        let obj = json::parse(lines[1]).unwrap();
        assert_eq!(obj.get("t_s").unwrap().as_str(), Some("inf"));
    }

    /// A file sink over a fresh path, and the path.
    fn file_sink(name: &str) -> (EventSink, std::path::PathBuf) {
        let path = std::env::temp_dir().join(format!("pema-events-{}-{name}", std::process::id()));
        let sink = EventSink::to_file(path.to_str().unwrap()).unwrap();
        (sink, path)
    }

    #[test]
    fn flush_makes_every_emitted_line_visible_in_the_file() {
        // More lines than one write buffer holds and a tail that does
        // not fill the next: both must be in the file after `flush`.
        let (sink, path) = file_sink("flush");
        let lines = 2 * FILE_BUFFER_BYTES / 40;
        for i in 0..lines {
            sink.emit("tick", i as f64, &[("i", EventField::U64(i as u64))]);
        }
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        drop(sink);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), lines);
        for (i, line) in text.lines().enumerate() {
            assert_eq!(
                line,
                format!("{{\"event\":\"tick\",\"t_s\":{i},\"i\":{i}}}")
            );
        }
    }

    #[test]
    fn dropping_the_last_clone_flushes() {
        let (sink, path) = file_sink("drop");
        let other = sink.clone();
        sink.emit("a", 0.0, &[]);
        other.emit("b", 1.0, &[]);
        drop(sink);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "",
            "two short lines sit in the write buffer while a clone lives"
        );
        drop(other);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            text,
            "{\"event\":\"a\",\"t_s\":0}\n{\"event\":\"b\",\"t_s\":1}\n"
        );
    }

    #[test]
    fn clones_share_one_stream() {
        let (sink, buf) = EventSink::memory();
        let other = sink.clone();
        sink.emit("a", 0.0, &[]);
        other.emit("b", 1.0, &[]);
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
    }
}
