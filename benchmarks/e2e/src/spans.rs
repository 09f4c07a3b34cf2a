//! In-memory spans for the traced run.
//!
//! The product has no spans of its own yet, so every span here is taken
//! from outside: around a call the harness makes into a layer
//! ([`Tracer::scope`]) or around a trait method an adapter forwards
//! ([`Meter`]). Spans stay in memory and are written out when the run
//! ends. Raw spans are kept for the first [`RAW_INTERVALS`] control
//! intervals; a running count/sum/max per span name covers all of them.
//!
//! A span's self time is its duration minus the part its child spans
//! cover ([`self_times`] on raw spans, [`Tracer::self_ns`] on the
//! per-name totals).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Control intervals whose raw spans are kept.
pub const RAW_INTERVALS: u64 = 1000;

/// One recorded span. `parent` is the id of the span that caused it
/// (0: none); spans of one control interval share `interval`
/// (`member << 32 | interval index`).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub interval: u64,
}

/// Running totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
}

impl Agg {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean duration, ns (0 when the span never fired).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

thread_local! {
    /// The innermost open [`Scope`] on this thread (0: none).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

struct Totals {
    agg: Agg,
    /// Name of the span this one nests under ("" at the top).
    parent: &'static str,
}

/// Total time of the span names nested directly under `name`, ns.
fn children_ns(totals: &BTreeMap<&'static str, Totals>, name: &str) -> u64 {
    totals
        .values()
        .filter(|t| t.parent == name)
        .map(|t| t.agg.sum_ns)
        .sum()
}

/// The span store of one traced run, shared by every adapter.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    /// Parent of spans recorded on threads with no open scope (fleet
    /// workers): the harness's span around `Fleet::run`.
    root: AtomicU32,
    /// Control intervals seen so far (one `decide` each).
    intervals: AtomicU64,
    raw: Mutex<Vec<Span>>,
    totals: Mutex<BTreeMap<&'static str, Totals>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            root: AtomicU32::new(0),
            intervals: AtomicU64::new(0),
            raw: Mutex::new(Vec::new()),
            totals: Mutex::new(BTreeMap::new()),
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn raw_open(&self) -> bool {
        self.intervals.load(Ordering::Relaxed) < RAW_INTERVALS
    }

    /// Counts one control interval (called once per `Policy::decide`).
    pub fn note_interval(&self) {
        self.intervals.fetch_add(1, Ordering::Relaxed);
    }

    fn push_raw(&self, span: Span) {
        self.raw.lock().expect("span store poisoned").push(span);
    }

    fn merge(&self, name: &'static str, parent: &'static str, agg: &Agg) {
        self.totals
            .lock()
            .expect("span store poisoned")
            .entry(name)
            .or_insert(Totals {
                agg: Agg::default(),
                parent,
            })
            .agg
            .merge(agg);
    }

    /// Opens a span around a call the harness itself makes; it closes
    /// when the guard drops. Spans recorded on this thread meanwhile
    /// become its children.
    pub fn scope(
        self: &Arc<Self>,
        name: &'static str,
        parent: &'static str,
        interval: u64,
    ) -> Scope {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.with(|c| c.replace(id));
        Scope {
            tracer: Arc::clone(self),
            name,
            parent,
            interval,
            id,
            outer,
            start: Instant::now(),
        }
    }

    /// Like [`scope`](Self::scope), and also adopts the spans of
    /// threads that have no open scope of their own (fleet workers).
    pub fn root_scope(self: &Arc<Self>, name: &'static str) -> Scope {
        let scope = self.scope(name, "", 0);
        self.root.store(scope.id, Ordering::Relaxed);
        scope
    }

    /// Running totals of one span name (zero when it never fired).
    pub fn agg(&self, name: &str) -> Agg {
        self.totals
            .lock()
            .expect("span store poisoned")
            .get(name)
            .map_or(Agg::default(), |t| t.agg)
    }

    /// Total time of every span whose name starts with `prefix`, ns.
    pub fn sum_ns_prefixed(&self, prefix: &str) -> u64 {
        self.totals
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.agg.sum_ns)
            .sum()
    }

    /// Self time of a span name over the whole run: its total minus the
    /// totals of the names nested directly under it.
    pub fn self_ns(&self, name: &str) -> u64 {
        let totals = self.totals.lock().expect("span store poisoned");
        let own = totals.get(name).map_or(0, |t| t.agg.sum_ns);
        own.saturating_sub(children_ns(&totals, name))
    }

    /// Serialises the raw spans and the per-name totals.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let raw = self.raw.lock().expect("span store poisoned");
        let totals = self.totals.lock().expect("span store poisoned");
        let mut out = String::with_capacity(raw.len() * 96 + 4096);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"raw_intervals\":{RAW_INTERVALS},\"totals\":{{"
        );
        for (i, (name, t)) in totals.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\":{{\"parent\":\"{}\",\"count\":{},\"sum_ns\":{},\"max_ns\":{},\"self_ns\":{}}}",
                if i > 0 { "," } else { "" },
                t.parent,
                t.agg.count,
                t.agg.sum_ns,
                t.agg.max_ns,
                t.agg.sum_ns.saturating_sub(children_ns(&totals, name)),
            );
        }
        out.push_str("},\"spans\":[");
        let own = self_times(&raw);
        for (i, s) in raw.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"interval\":{}}}",
                if i > 0 { "," } else { "" },
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                own[&s.id],
                s.parent,
                s.interval,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Guard of a span opened with [`Tracer::scope`].
pub struct Scope {
    tracer: Arc<Tracer>,
    name: &'static str,
    parent: &'static str,
    interval: u64,
    id: u32,
    outer: u32,
    start: Instant,
}

impl Drop for Scope {
    fn drop(&mut self) {
        let end = Instant::now();
        CURRENT.with(|c| c.set(self.outer));
        let mut agg = Agg::default();
        agg.add(end.duration_since(self.start).as_nanos() as u64);
        self.tracer.merge(self.name, self.parent, &agg);
        if self.tracer.raw_open() {
            self.tracer.push_raw(Span {
                id: self.id,
                name: self.name,
                start_ns: self.tracer.ns(self.start),
                end_ns: self.tracer.ns(end),
                parent: self.outer,
                interval: self.interval,
            });
        }
    }
}

/// One adapter's handle for one span name. Totals are kept locally and
/// folded into the tracer when the adapter drops, so the hot path takes
/// no lock once raw recording has closed.
pub struct Meter {
    tracer: Arc<Tracer>,
    name: &'static str,
    parent: &'static str,
    agg: Agg,
}

impl Meter {
    pub fn new(tracer: &Arc<Tracer>, name: &'static str, parent: &'static str) -> Meter {
        Meter {
            tracer: Arc::clone(tracer),
            name,
            parent,
            agg: Agg::default(),
        }
    }

    /// Records the span `[start, now]`.
    pub fn record(&mut self, start: Instant, interval: u64) {
        let end = Instant::now();
        self.agg.add(end.duration_since(start).as_nanos() as u64);
        if self.tracer.raw_open() {
            let open = CURRENT.with(|c| c.get());
            let parent = if open != 0 {
                open
            } else {
                self.tracer.root.load(Ordering::Relaxed)
            };
            self.tracer.push_raw(Span {
                id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
                name: self.name,
                start_ns: self.tracer.ns(start),
                end_ns: self.tracer.ns(end),
                parent,
                interval,
            });
        }
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        if self.agg.count > 0 {
            self.tracer.merge(self.name, self.parent, &self.agg);
        }
    }
}

/// Self time of every raw span: its duration minus the durations of the
/// spans that name it as parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut own: BTreeMap<u32, u64> = spans
        .iter()
        .map(|s| (s.id, s.end_ns - s.start_ns))
        .collect();
    for s in spans {
        if let Some(parent) = own.get_mut(&s.parent) {
            *parent = parent.saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "x",
            start_ns,
            end_ns,
            parent,
            interval: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // step [0,100] → window [10,60] → http [20,50]; decide [60,90].
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 2, 20, 50),
            span(4, 1, 60, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 50 - 30);
        assert_eq!(own[&2], 50 - 30);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&4], 30);
        // Self times of a tree add up to the root's duration.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn scopes_nest_and_meters_attach_to_the_open_scope() {
        let tracer = Tracer::new();
        let mut meter = Meter::new(&tracer, "layer.call", "loop.step");
        {
            let _step = tracer.scope("loop.step", "", 7);
            let t0 = Instant::now();
            std::hint::black_box((0..1000).sum::<u64>());
            meter.record(t0, 7);
        }
        drop(meter);
        let raw = tracer.raw.lock().unwrap().clone();
        assert_eq!(raw.len(), 2);
        let (call, step) = (&raw[0], &raw[1]);
        assert_eq!((call.name, step.name), ("layer.call", "loop.step"));
        assert_eq!(call.parent, step.id);
        assert_eq!(step.parent, 0);
        assert_eq!((call.interval, step.interval), (7, 7));
        assert!(step.start_ns <= call.start_ns && call.end_ns <= step.end_ns);
        // Per-name totals agree with the raw spans, self time included.
        assert_eq!(tracer.agg("layer.call").count, 1);
        assert_eq!(
            tracer.self_ns("loop.step"),
            tracer.agg("loop.step").sum_ns - tracer.agg("layer.call").sum_ns
        );
        assert_eq!(
            tracer.self_ns("layer.call"),
            tracer.agg("layer.call").sum_ns
        );
        let json = tracer.to_json("w", 1);
        assert!(pema_telemetry::json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn raw_spans_stop_after_the_interval_budget_but_totals_go_on() {
        let tracer = Tracer::new();
        let mut meter = Meter::new(&tracer, "layer.call", "");
        for _ in 0..RAW_INTERVALS + 5 {
            meter.record(Instant::now(), 0);
            tracer.note_interval();
        }
        drop(meter);
        assert_eq!(tracer.raw.lock().unwrap().len() as u64, RAW_INTERVALS);
        assert_eq!(tracer.agg("layer.call").count, RAW_INTERVALS + 5);
    }

    #[test]
    fn worker_threads_without_a_scope_attach_to_the_root() {
        let tracer = Tracer::new();
        let root = tracer.root_scope("fleet.run");
        let root_id = root.id;
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut meter = Meter::new(&tracer, "layer.call", "fleet.run");
                meter.record(Instant::now(), 1);
            });
        });
        drop(root);
        let raw = tracer.raw.lock().unwrap();
        assert_eq!(raw[0].parent, root_id);
    }
}
