//! The shared metric registry: counters, gauges, and histograms with
//! labels and HELP/TYPE metadata.
//!
//! Generalizes the handle-based design of `pema-metrics::registry`
//! (plain indices, no string hashing on the hot path) in two ways the
//! controller needs and the simulator did not:
//!
//! * **labels + metadata** — series belong to a *family* (`name`,
//!   help, kind) and carry a label set, so the renderer can emit valid
//!   Prometheus text exposition with one `# HELP`/`# TYPE` pair per
//!   family;
//! * **lock-free recording** — handles hold an `Arc` straight to the
//!   series' atomics, so a fleet shard bumping a counter never takes
//!   the registry lock (the lock exists only for registration and for
//!   rendering a scrape).
//!
//! Everything here is a *side channel*: reads are for scrapes and
//! tests only, and must never flow back into control decisions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// An `f64` stored as its bit pattern in an `AtomicU64`.
///
/// `add` is a compare-exchange loop — contention on a single series is
/// bounded by the number of fleet shards, and the loop body is a
/// handful of instructions, so this stays far cheaper than a mutex.
#[derive(Debug, Default)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Metric kind, as exposed on the `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `f64`.
    Counter,
    /// Instantaneous `f64`.
    Gauge,
    /// Cumulative-bucket distribution.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Handle to a counter series. Cloning shares the series.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicF64>,
}

impl Counter {
    /// Adds `v`. Negative or non-finite increments are ignored
    /// (counters are monotone by definition).
    pub fn add(&self, v: f64) {
        if v > 0.0 && v.is_finite() {
            self.cell.add(v);
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.cell.add(1.0);
    }

    /// Current cumulative value.
    pub fn value(&self) -> f64 {
        self.cell.get()
    }
}

/// Handle to a gauge series. Cloning shares the series.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicF64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.cell.set(v);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.cell.get()
    }
}

#[derive(Debug)]
struct HistCore {
    /// Upper bounds of the finite buckets, strictly increasing. An
    /// implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One count per finite bound, plus the `+Inf` bucket. *Not*
    /// cumulative in storage; cumulated at render time.
    counts: Vec<AtomicU64>,
    sum: AtomicF64,
}

/// Handle to a histogram series. Cloning shares the series.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistCore>,
}

impl Histogram {
    /// Records one observation. NaN observations are dropped (a NaN
    /// sum would poison the series forever).
    pub fn observe(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let i = self
            .core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.core.bounds.len());
        self.core.counts[i].fetch_add(1, Ordering::Relaxed);
        self.core.sum.add(v);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.core
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.core.sum.get()
    }

    /// Cumulative bucket counts paired with their upper bounds
    /// (`f64::INFINITY` last), exactly as a scrape would render them.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.core.bounds.len() + 1);
        for (i, c) in self.core.counts.iter().enumerate() {
            acc += c.load(Ordering::Relaxed);
            let bound = self.core.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }
}

/// Default bucket bounds for durations in seconds: wide enough to span
/// a sub-millisecond decide phase and a multi-minute live measurement
/// window.
pub const DEFAULT_SECONDS_BUCKETS: &[f64] =
    &[0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0];

#[derive(Clone)]
enum SeriesValue {
    Plain(Arc<AtomicF64>),
    Hist(Arc<HistCore>),
}

/// One label set: pairs in registration order (render sorts the
/// *series*, not the pairs, so the caller controls pair order).
type Labels = Vec<(String, String)>;

struct Family {
    help: String,
    kind: MetricKind,
    /// Bucket bounds all histogram series of this family share.
    bounds: Vec<f64>,
    /// Keyed by label set, so resolving one of a fleet's per-member
    /// series does not scan the others. Render sorts by the *escaped*
    /// label block, which this order is close to but does not equal.
    series: BTreeMap<Labels, SeriesValue>,
}

/// Families by name; the map's order is the exposition's.
type Families = BTreeMap<String, Family>;

/// The shared registry. Cloning shares the underlying storage; the
/// instrumented components write through handles, the `/metrics`
/// listener renders scrapes.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Arc<Mutex<Families>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().enumerate().all(|(i, b)| {
            b.is_ascii_alphabetic() || b == b'_' || b == b':' || (i > 0 && b.is_ascii_digit())
        })
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .enumerate()
            .all(|(i, b)| b.is_ascii_alphabetic() || b == b'_' || (i > 0 && b.is_ascii_digit()))
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
pub(crate) fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl Telemetry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Families> {
        self.inner.lock().expect("telemetry registry poisoned")
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> SeriesValue {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?} on {name}");
        }
        let mut fams = self.lock();
        let fam = fams.entry(name.to_string()).or_insert_with(|| {
            assert!(
                kind != MetricKind::Histogram
                    || bounds.windows(2).all(|w| w[0] < w[1]) && !bounds.is_empty(),
                "histogram {name} needs non-empty strictly increasing bounds"
            );
            Family {
                help: help.to_string(),
                kind,
                bounds: bounds.to_vec(),
                series: BTreeMap::new(),
            }
        });
        assert_eq!(
            fam.kind,
            kind,
            "metric {name} registered as both {} and {}",
            fam.kind.as_str(),
            kind.as_str()
        );
        // Re-registering an existing label set returns the same series
        // (idempotent).
        let labels: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let n_buckets = fam.bounds.len() + 1;
        fam.series
            .entry(labels)
            .or_insert_with(|| match kind {
                MetricKind::Histogram => SeriesValue::Hist(Arc::new(HistCore {
                    bounds: fam.bounds.clone(),
                    counts: (0..n_buckets).map(|_| AtomicU64::new(0)).collect(),
                    sum: AtomicF64::default(),
                })),
                _ => SeriesValue::Plain(Arc::new(AtomicF64::default())),
            })
            .clone()
    }

    /// Registers (or re-resolves) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, MetricKind::Counter, labels, &[]) {
            SeriesValue::Plain(cell) => Counter { cell },
            SeriesValue::Hist(_) => unreachable!(),
        }
    }

    /// Registers (or re-resolves) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, MetricKind::Gauge, labels, &[]) {
            SeriesValue::Plain(cell) => Gauge { cell },
            SeriesValue::Hist(_) => unreachable!(),
        }
    }

    /// Registers (or re-resolves) a histogram series. The family's
    /// bucket bounds are fixed by its first registration; later
    /// registrations reuse them.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self.register(name, help, MetricKind::Histogram, labels, bounds) {
            SeriesValue::Hist(core) => Histogram { core },
            SeriesValue::Plain(_) => unreachable!(),
        }
    }

    /// Renders a scrape in Prometheus text exposition format 0.0.4.
    ///
    /// Ordering is deterministic regardless of registration order:
    /// families sort by name, series by their rendered label set — so
    /// two scrapes of identical state are byte-identical.
    pub fn render(&self) -> String {
        let fams = self.lock();
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            out.push_str(&format!(
                "# HELP {name} {}\n# TYPE {name} {}\n",
                escape_help(&fam.help),
                fam.kind.as_str()
            ));
            let mut rendered: Vec<(String, String)> = fam
                .series
                .iter()
                .map(|(labels, value)| (label_block(labels), render_series(name, labels, value)))
                .collect();
            rendered.sort_by(|a, b| a.0.cmp(&b.0));
            for (_, body) in rendered {
                out.push_str(&body);
            }
        }
        out
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// `{k="v",…}` or the empty string for an unlabeled series.
fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Like [`label_block`] but with an extra `le` pair appended (always
/// braced, even when the base label set is empty).
fn label_block_le(labels: &[(String, String)], le: &str) -> String {
    let mut body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    body.push(format!("le=\"{le}\""));
    format!("{{{}}}", body.join(","))
}

fn fmt_bound(b: f64) -> String {
    if b == f64::INFINITY {
        "+Inf".to_string()
    } else {
        format!("{b}")
    }
}

fn render_series(name: &str, labels: &[(String, String)], value: &SeriesValue) -> String {
    let mut out = String::new();
    match value {
        SeriesValue::Plain(cell) => {
            out.push_str(&format!(
                "{name}{} {}\n",
                label_block(labels),
                fmt_value(cell.get())
            ));
        }
        SeriesValue::Hist(core) => {
            let h = Histogram { core: core.clone() };
            // One read of the cells serves both: `_count` re-read from
            // them could have moved past the `+Inf` bucket meanwhile.
            let buckets = h.cumulative_buckets();
            for (bound, cum) in &buckets {
                out.push_str(&format!(
                    "{name}_bucket{} {cum}\n",
                    label_block_le(labels, &fmt_bound(*bound))
                ));
            }
            out.push_str(&format!(
                "{name}_sum{} {}\n",
                label_block(labels),
                fmt_value(h.sum())
            ));
            out.push_str(&format!(
                "{name}_count{} {}\n",
                label_block(labels),
                buckets.last().map_or(0, |&(_, cum)| cum)
            ));
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotone_and_rejects_bad_increments() {
        let t = Telemetry::new();
        let c = t.counter("x_total", "test", &[]);
        c.inc();
        c.add(2.5);
        c.add(-1.0);
        c.add(f64::NAN);
        assert_eq!(c.value(), 3.5);
    }

    #[test]
    fn registration_is_idempotent_per_label_set() {
        let t = Telemetry::new();
        let a = t.counter("x_total", "test", &[("m", "a")]);
        let b = t.counter("x_total", "test", &[("m", "a")]);
        let other = t.counter("x_total", "test", &[("m", "b")]);
        a.inc();
        assert_eq!(b.value(), 1.0);
        assert_eq!(other.value(), 0.0);
    }

    /// A 50 000-member fleet's registration. No timer: with a lookup
    /// that scans the series already registered this takes a minute,
    /// with the indexed one it does not register on the clock.
    #[test]
    fn registering_a_fleet_of_series_is_not_quadratic() {
        const MEMBERS: usize = 50_000;
        let t = Telemetry::new();
        let families = ["fleet_a_total", "fleet_b_total", "fleet_c_total"];
        let member = |i: usize| format!("app-{i}");
        for i in 0..MEMBERS {
            for f in families {
                t.counter(f, "per member", &[("member", &member(i))])
                    .add((i + 1) as f64);
            }
        }
        for f in families {
            for i in [0, MEMBERS - 1] {
                let again = t.counter(f, "per member", &[("member", &member(i))]);
                assert_eq!(again.value(), (i + 1) as f64, "{f} member {i}");
            }
        }
        let text = t.render();
        assert_eq!(text.lines().count(), families.len() * (MEMBERS + 2));
        let report = crate::lint(&text, None);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn kind_conflict_panics() {
        let t = Telemetry::new();
        let _ = t.counter("x", "test", &[]);
        let _ = t.gauge("x", "test", &[]);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let t = Telemetry::new();
        let h = t.histogram("lat_seconds", "test", &[], &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 56.05);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0], (0.1, 1));
        assert_eq!(buckets[1], (1.0, 3));
        assert_eq!(buckets[2], (10.0, 4));
        assert_eq!(buckets[3].1, 5);
        assert!(buckets[3].0.is_infinite());
    }

    #[test]
    fn histogram_boundary_lands_in_lower_bucket() {
        let t = Telemetry::new();
        let h = t.histogram("b_seconds", "test", &[], &[1.0, 2.0]);
        h.observe(1.0); // le="1" is inclusive
        assert_eq!(h.cumulative_buckets()[0].1, 1);
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let t = Telemetry::new();
        t.gauge("z_depth", "depth", &[("shard", "1")]).set(3.0);
        t.counter("a_total", "alpha", &[("m", "b")]).inc();
        t.counter("a_total", "alpha", &[("m", "a")]).add(2.0);
        let text = t.render();
        let expect = "# HELP a_total alpha\n# TYPE a_total counter\n\
                      a_total{m=\"a\"} 2\na_total{m=\"b\"} 1\n\
                      # HELP z_depth depth\n# TYPE z_depth gauge\n\
                      z_depth{shard=\"1\"} 3\n";
        assert_eq!(text, expect);
        assert_eq!(t.render(), text);
    }

    #[test]
    fn render_escapes_label_values() {
        let t = Telemetry::new();
        t.counter("e_total", "esc", &[("m", "a\"b\\c\nd")]).inc();
        let text = t.render();
        assert!(text.contains("e_total{m=\"a\\\"b\\\\c\\nd\"} 1"), "{text}");
    }

    #[test]
    fn render_histogram_has_inf_bucket_sum_count() {
        let t = Telemetry::new();
        let h = t.histogram("h_seconds", "hist", &[("phase", "decide")], &[0.5]);
        h.observe(0.25);
        h.observe(2.0);
        let text = t.render();
        assert!(text.contains("h_seconds_bucket{phase=\"decide\",le=\"0.5\"} 1"));
        assert!(text.contains("h_seconds_bucket{phase=\"decide\",le=\"+Inf\"} 2"));
        assert!(text.contains("h_seconds_sum{phase=\"decide\"} 2.25"));
        assert!(text.contains("h_seconds_count{phase=\"decide\"} 2"));
    }

    #[test]
    fn concurrent_scrapes_are_never_torn() {
        let t = Telemetry::new();
        let h = t.histogram("torn_seconds", "test", &[], &[0.5]);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (started, first) = std::sync::mpsc::channel();
        let writer = {
            let (h, stop) = (h.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                h.observe(1.0);
                started.send(()).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    h.observe(1.0);
                }
            })
        };
        first.recv().unwrap();
        let field = |text: &str, series: &str| -> u64 {
            let line = text.lines().find(|l| l.starts_with(series)).unwrap();
            line.rsplit(' ').next().unwrap().parse().unwrap()
        };
        for _ in 0..1000 {
            let text = t.render();
            assert_eq!(
                field(&text, "torn_seconds_count"),
                field(&text, "torn_seconds_bucket{le=\"+Inf\"}"),
                "{text}"
            );
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn shared_clone_sees_writes_across_threads() {
        let t = Telemetry::new();
        let c = t.counter("threads_total", "test", &[]);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 4000.0);
    }
}
