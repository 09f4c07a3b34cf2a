//! The discrete-event cluster simulator.
//!
//! [`ClusterSim`] executes an [`AppSpec`] under open-loop Poisson load:
//! requests arrive at the entry service of a sampled request class and
//! walk the class's call tree; each visit queues for a worker thread,
//! executes log-normal CPU work under the service's CFS quota, fans out
//! to child calls, and replies. The simulator reproduces the three
//! observables the paper's controller uses — p95 end-to-end latency,
//! per-service CPU utilization, and CFS throttling time — plus the
//! per-second usage samples rule-based autoscalers consume.
//!
//! The design notes in `runtime.rs` explain the piecewise-linear
//! integration; this module owns event scheduling and the visit state
//! machine.
//!
//! ## Event scheduling
//!
//! `run_until` merges three sources by a shared `(time, seq)` key —
//! the [`CalendarQueue`] holding visit events, the arrival-chain slot,
//! and the per-service timer table — dispatching in exactly the order
//! the original single-heap engine did (the global `seq` counter ticks
//! on every scheduling action, including in-place slot overwrites, so
//! FIFO tie-breaking is preserved). Timer- and arrival-class events
//! are the ones that get *superseded* on nearly every dispatch; the
//! indexed slots absorb those rewrites in O(1) instead of leaving
//! stale heap entries to pop and discard later.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::queue::CalendarQueue;
use crate::rng::{bernoulli, exponential, weight_total, weighted_index_with_total, LogNormal};
use crate::runtime::{
    RunningJob, ServiceRt, Stage, Visit, VisitSlot, CFS_PERIOD_NS, NO_PARENT, QUOTA_EPS, WORK_EPS,
};
use crate::stats::{ServiceWindowStats, WindowStats};
use crate::time::SimTime;
use crate::topology::{Allocation, AppSpec, CallTable};
use crate::trace::{RequestTrace, TraceSpan};
use pema_metrics::LatencyHistogram;

/// Events routed through the calendar queue. Timer- and arrival-class
/// events do not appear here: they live in indexed slots (one per
/// service, one for the arrival chain) where rescheduling is an O(1)
/// overwrite instead of a push that leaves a stale entry behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A visit arrives at its service (index, slot generation).
    VisitStart(u32, u32),
    /// A child call replied to its parent visit (index, generation).
    ChildDone(u32, u32),
}

/// Which event source won the three-way merge in `run_until`.
#[derive(PartialEq)]
enum Src {
    Queue,
    Arrival,
    Timer,
}

/// Services per block of the two-level timer argmin index.
const TIMER_BLOCK: usize = 16;

/// A running simulation of one application on its cluster.
///
/// The simulator is *persistent*: allocation changes and successive
/// measurement windows act on live queues, exactly like reconfiguring a
/// real deployment. For independent evaluations (fresh queues per
/// configuration) see [`crate::evaluator::SimEvaluator`].
pub struct ClusterSim {
    app: AppSpec,
    services: Vec<ServiceRt>,
    node_services: Vec<Vec<usize>>,
    node_rate: Vec<f64>,
    node_cores: Vec<f64>,
    /// Incrementally maintained Σ active jobs per node (the PS-rate
    /// denominator; see [`Self::after_change`]).
    node_active: Vec<usize>,
    /// `floor(cores)` per node — integer fast path of
    /// [`Self::apply_node_rate`].
    node_cores_floor: Vec<u64>,
    visits: Vec<VisitSlot>,
    free: Vec<usize>,
    queue: CalendarQueue<Ev>,
    /// Global event sequence — the FIFO tie-breaker shared by the
    /// queue and the indexed timer/arrival slots. Bumped on every
    /// scheduling action exactly as the old single-heap engine bumped
    /// it on every push, so same-time events dispatch in the same
    /// relative order.
    seq: u64,
    events_dispatched: u64,
    /// Scheduled events resolved *in place*: a timer or arrival slot
    /// overwrite that replaced a still-armed deadline. The old
    /// single-heap engine paid a deferred stale pop for each of these;
    /// the indexed slots absorb them at reschedule time.
    events_superseded: u64,
    now: SimTime,
    rng: SmallRng,
    /// CPU speed factor (1.0 = reference). Scales sampled demands.
    speed: f64,
    /// Client-side request timeout, seconds. Requests older than this
    /// are abandoned at their next scheduling point.
    timeout_s: Option<f64>,
    arrival_rate: f64,
    /// Arrival-chain slot: next arrival time/seq (armed = chain live).
    arrival_at: SimTime,
    arrival_seq: u64,
    arrival_armed: bool,
    /// Per-service timer slots `(t_ns, seq)`: the service's next
    /// deadline, or `(u64::MAX, u64::MAX)` when idle. Rescheduling
    /// overwrites in place — no stale timer events exist anywhere.
    timer_key: Vec<(u64, u64)>,
    /// Two-level argmin index over `timer_key`: per-block minima
    /// (`t`, `seq`, `sid` per [`TIMER_BLOCK`] services, healed lazily
    /// via `block_dirty`) plus a cached global minimum. Keeps the
    /// rescan after each timer fire O(block + #blocks) instead of
    /// O(#services) — what lets the timer table scale to
    /// cluster-sized topologies.
    block_min: Vec<(u64, u64, u32)>,
    block_dirty: Vec<bool>,
    /// Cached global argmin (`t`, `seq`, `sid`); recomputed lazily.
    timer_min: (u64, u64, u32),
    timer_min_valid: bool,
    class_weights: Vec<f64>,
    /// Positive mass of `class_weights`, precomputed for the arrival
    /// path (see [`weight_total`]).
    class_weight_total: f64,
    /// Per-endpoint work samplers with the log-normal µ/σ
    /// transcendentals precomputed (bit-identical to sampling through
    /// [`crate::rng::lognormal_mean_cv`] per visit).
    ep_sampler: Vec<LogNormal>,
    /// Flattened fan-out plan — the fields of the spec's
    /// [`CallTable`], held directly so the per-visit fan-out path
    /// reads them without another hop.
    ep_group_start: Vec<u32>,
    group_spans: Vec<(u32, u32)>,
    flat_calls: Vec<(u32, f64)>,
    /// Reusable buffer for the sampled calls of one fan-out group.
    scratch_calls: Vec<usize>,
    /// Reusable buffer for work completions inside one timer event
    /// (`(position at collection time, visit index)`).
    scratch_done: Vec<(usize, usize)>,
    // measurement
    hist: LatencyHistogram,
    recording: bool,
    measure_start: SimTime,
    completed_in_window: u64,
    arrivals_in_window: u64,
    // tracing (Jaeger-like request sampling)
    trace_rate: f64,
    trace_builders: Vec<Option<TraceBuilder>>,
    trace_free: Vec<usize>,
    completed_traces: Vec<RequestTrace>,
    trace_cap: usize,
}

/// In-flight trace under construction.
struct TraceBuilder {
    class: u32,
    spans: Vec<TraceSpan>,
    start: SimTime,
}

/// A measurement window opened by [`ClusterSim::open_window`] and not
/// yet closed — the incremental counterpart of [`ClusterSim::run_window`].
///
/// Holding this handle does not borrow the simulator; it only carries
/// the window boundaries, so a fleet scheduler can keep many simulators
/// mid-window at once and advance each in turn.
#[derive(Debug, Clone, Copy)]
pub struct OpenWindow {
    start: SimTime,
    end: SimTime,
    window_s: f64,
}

impl OpenWindow {
    /// Virtual time the window ends at, seconds.
    pub fn end_s(&self) -> f64 {
        self.end.as_secs()
    }

    /// The requested window length, seconds.
    pub fn window_s(&self) -> f64 {
        self.window_s
    }
}

impl ClusterSim {
    /// Builds a simulator for a validated application spec.
    ///
    /// # Panics
    /// Panics if the spec fails validation — topology bugs are
    /// programming errors, not runtime conditions.
    pub fn new(app: &AppSpec, seed: u64) -> Self {
        app.validate().expect("invalid AppSpec");
        let mut node_services = vec![Vec::new(); app.nodes.len()];
        let mut services = Vec::with_capacity(app.services.len());
        for (i, s) in app.services.iter().enumerate() {
            node_services[s.node].push(i);
            services.push(ServiceRt::new(s.node, s.threads, app.generous_alloc[i]));
        }
        let class_weights: Vec<f64> = app.classes.iter().map(|c| c.weight).collect();
        let class_weight_total = weight_total(&class_weights);
        let node_cores = app.nodes.iter().map(|n| n.cores).collect();
        let node_rate = vec![1.0; app.nodes.len()];
        let ep_sampler = app
            .endpoints
            .iter()
            .map(|e| {
                let spec = &app.services[e.service.0];
                LogNormal::from_mean_cv(spec.demand_s * e.work_scale, spec.demand_cv)
            })
            .collect();
        let CallTable {
            ep_group_start,
            group_spans,
            flat_calls,
        } = app.call_table();
        ClusterSim {
            app: app.clone(),
            services,
            node_services,
            node_rate,
            node_cores,
            node_active: vec![0; app.nodes.len()],
            node_cores_floor: app.nodes.iter().map(|n| n.cores.floor() as u64).collect(),
            visits: Vec::with_capacity(4096),
            free: Vec::new(),
            queue: CalendarQueue::new(),
            seq: 0,
            events_dispatched: 0,
            events_superseded: 0,
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            speed: 1.0,
            timeout_s: None,
            arrival_rate: 0.0,
            arrival_at: SimTime::ZERO,
            arrival_seq: u64::MAX,
            arrival_armed: false,
            timer_key: vec![(u64::MAX, u64::MAX); app.services.len()],
            block_min: vec![
                (u64::MAX, u64::MAX, u32::MAX);
                app.services.len().div_ceil(TIMER_BLOCK)
            ],
            block_dirty: vec![false; app.services.len().div_ceil(TIMER_BLOCK)],
            timer_min: (u64::MAX, u64::MAX, u32::MAX),
            timer_min_valid: true,
            class_weights,
            class_weight_total,
            ep_sampler,
            ep_group_start,
            group_spans,
            flat_calls,
            scratch_calls: Vec::new(),
            scratch_done: Vec::new(),
            hist: LatencyHistogram::new(),
            recording: false,
            measure_start: SimTime::ZERO,
            completed_in_window: 0,
            arrivals_in_window: 0,
            trace_rate: 0.0,
            trace_builders: Vec::new(),
            trace_free: Vec::new(),
            completed_traces: Vec::new(),
            trace_cap: 20_000,
        }
    }

    /// Enables Jaeger-like request tracing: each arriving request is
    /// sampled with probability `rate`; completed traces are retained
    /// (up to an internal cap) until drained with
    /// [`Self::take_traces`].
    pub fn set_trace_sampling(&mut self, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "sampling rate in [0,1]");
        self.trace_rate = rate;
    }

    /// Drains and returns all completed request traces.
    pub fn take_traces(&mut self) -> Vec<RequestTrace> {
        std::mem::take(&mut self.completed_traces)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The application spec this simulator runs.
    pub fn app(&self) -> &AppSpec {
        &self.app
    }

    /// Current allocation vector.
    pub fn allocation(&self) -> Allocation {
        Allocation::new(self.services.iter().map(|s| s.alloc).collect())
    }

    /// Applies a new allocation to all services, effective immediately
    /// (vertical scaling without container restarts, as with the
    /// in-place resize the paper relies on).
    ///
    /// # Panics
    /// Panics if the vector length does not match the service count.
    pub fn set_allocation(&mut self, alloc: &Allocation) {
        assert_eq!(alloc.len(), self.services.len(), "allocation length");
        for i in 0..self.services.len() {
            self.services[i].advance(self.now);
            self.services[i].set_alloc(alloc.get(i));
        }
        for node in 0..self.node_services.len() {
            self.refresh_node(node);
        }
        for i in 0..self.services.len() {
            self.reschedule_timer(i);
        }
    }

    /// Sets the CPU speed factor (1.0 = reference hardware). Models the
    /// paper's CPU-frequency experiments: demands scale by 1/speed for
    /// *future* work samples.
    pub fn set_speed(&mut self, speed: f64) {
        assert!(speed > 0.0 && speed.is_finite(), "speed must be positive");
        self.speed = speed;
    }

    /// Current CPU speed factor.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Sets the client-side request timeout: requests older than
    /// `timeout_s` are abandoned at their next scheduling point (thread
    /// acquisition or fan-out), their latency recorded as the timeout —
    /// what the client experienced. Without timeouts, a saturated
    /// interval leaves a backlog that poisons every later measurement
    /// (a death spiral no real deployment exhibits, because load
    /// generators and users give up).
    pub fn set_request_timeout(&mut self, timeout_s: Option<f64>) {
        if let Some(t) = timeout_s {
            assert!(t > 0.0 && t.is_finite(), "timeout must be positive");
        }
        self.timeout_s = timeout_s;
    }

    /// True when the visit's root request has outlived the timeout.
    fn timed_out(&self, vi: usize) -> bool {
        match self.timeout_s {
            Some(to) => self.now.secs_since(self.visits[vi].v.root_start) > to,
            None => false,
        }
    }

    /// Sets the offered load (requests/second). Restarts the arrival
    /// chain so the new rate takes effect immediately (the arrival
    /// slot is overwritten in place).
    pub fn set_arrival_rate(&mut self, rps: f64) {
        assert!(rps >= 0.0 && rps.is_finite(), "rps must be non-negative");
        self.arrival_rate = rps;
        if self.arrival_armed {
            self.events_superseded += 1;
        }
        if rps > 0.0 {
            let dt = exponential(&mut self.rng, rps);
            let t = self.now.plus_secs(dt);
            self.seq += 1;
            self.arrival_at = t;
            self.arrival_seq = self.seq;
            self.arrival_armed = true;
        } else {
            self.arrival_armed = false;
        }
    }

    /// Runs `warmup_s` of settling time followed by a measured window of
    /// `window_s` at the given offered load, returning the window's
    /// statistics. Queues persist across calls.
    pub fn run_window(&mut self, rps: f64, warmup_s: f64, window_s: f64) -> WindowStats {
        let w = self.open_window(rps, warmup_s, window_s);
        self.advance_window(&w, window_s);
        self.close_window(w)
    }

    /// Like [`Self::run_window`], but checks the accumulated p95 every
    /// `check_every_s` and aborts the window as soon as it exceeds
    /// `abort_p95_ms` — the paper's §6 "higher-resolution performance
    /// monitoring" improvement, which caps how long the application is
    /// exposed to a bad configuration. Returns the (possibly partial)
    /// window statistics and whether the window was aborted.
    pub fn run_window_abortable(
        &mut self,
        rps: f64,
        warmup_s: f64,
        window_s: f64,
        check_every_s: f64,
        abort_p95_ms: f64,
    ) -> (WindowStats, bool) {
        assert!(check_every_s > 0.0, "check interval must be positive");
        let w = self.open_window(rps, warmup_s, window_s);
        let mut aborted = false;
        loop {
            let done = self.advance_window(&w, check_every_s);
            if self.window_p95_ms().is_some_and(|p95| p95 > abort_p95_ms) {
                aborted = true;
                break;
            }
            if done {
                break;
            }
        }
        (self.close_window_measured(w), aborted)
    }

    /// Sets the offered load, runs the settling time, and opens a
    /// measured window — the first half of [`Self::run_window`], split
    /// out so callers can advance the window in slices (and interleave
    /// other work, e.g. other simulators, between slices).
    ///
    /// The returned handle must be closed with [`Self::close_window`]
    /// or [`Self::close_window_measured`] (or dropped via
    /// [`Self::discard_window`]) before the next window opens.
    pub fn open_window(&mut self, rps: f64, warmup_s: f64, window_s: f64) -> OpenWindow {
        self.set_arrival_rate(rps);
        self.run_until(self.now.plus_secs(warmup_s));
        self.begin_window(window_s);
        OpenWindow {
            start: self.now,
            end: self.now.plus_secs(window_s),
            window_s,
        }
    }

    /// Advances an open window by at most `dt_s` simulated seconds
    /// (capped at the window end) and reports whether the end was
    /// reached. Slicing a window into several `advance_window` calls
    /// dispatches exactly the same event sequence as one
    /// [`Self::run_until`] to the end — the golden-snapshot tests in
    /// `pema-bench` pin this bit-identity.
    pub fn advance_window(&mut self, w: &OpenWindow, dt_s: f64) -> bool {
        let next = self.now.plus_secs(dt_s).min(w.end);
        self.run_until(next);
        self.now >= w.end
    }

    /// The running p95 of the open window, ms — `None` until a minimal
    /// sample (50 completions) has accumulated, matching the guard the
    /// abortable path has always used before trusting the estimate.
    pub fn window_p95_ms(&self) -> Option<f64> {
        if self.hist.count() >= 50 {
            self.hist.quantile(0.95).map(|p95| p95 * 1e3)
        } else {
            None
        }
    }

    /// Closes a fully-run window, reporting the *requested* length as
    /// its duration — what [`Self::run_window`] has always done.
    pub fn close_window(&mut self, w: OpenWindow) -> WindowStats {
        self.end_window(w.window_s)
    }

    /// Closes a (possibly partial) window, reporting the *measured*
    /// length as its duration — what [`Self::run_window_abortable`]
    /// has always done, whether or not it aborted.
    pub fn close_window_measured(&mut self, w: OpenWindow) -> WindowStats {
        let measured = self.now.secs_since(w.start);
        self.end_window(measured.max(1e-9))
    }

    /// Abandons an open window without collecting statistics
    /// (cancellation): recording stops, queues and the clock stay
    /// where they are, and the next window opens cleanly.
    pub fn discard_window(&mut self, w: OpenWindow) {
        let _ = w;
        self.recording = false;
    }

    /// Advances the simulation, processing all events up to `t_end`:
    /// a three-way merge over the calendar queue (visit events), the
    /// arrival slot, and the per-service timer table, ordered by the
    /// shared `(t, seq)` key.
    pub fn run_until(&mut self, t_end: SimTime) {
        loop {
            let (tm_t, tm_seq, tm_sid) = self.timer_min();
            let mut best_t = tm_t;
            let mut best_seq = tm_seq;
            let mut src = Src::Timer;
            if self.arrival_armed && (self.arrival_at.0, self.arrival_seq) < (best_t, best_seq) {
                best_t = self.arrival_at.0;
                best_seq = self.arrival_seq;
                src = Src::Arrival;
            }
            if let Some((qt, qseq)) = self.queue.peek_min(t_end) {
                if (qt.0, qseq) < (best_t, best_seq) {
                    best_t = qt.0;
                    src = Src::Queue;
                }
            }
            if best_t > t_end.0 || (src == Src::Timer && tm_sid == u32::MAX) {
                break;
            }
            self.now = SimTime(best_t);
            self.events_dispatched += 1;
            match src {
                Src::Queue => {
                    let (_, ev) = self.queue.pop_cached();
                    self.dispatch(ev);
                }
                Src::Arrival => {
                    self.arrival_armed = false;
                    self.on_arrival();
                }
                Src::Timer => {
                    let sid = tm_sid as usize;
                    self.set_timer_key(sid, (u64::MAX, u64::MAX));
                    self.on_timer(sid);
                }
            }
        }
        self.now = t_end;
    }

    /// The earliest armed service timer as `(t, seq, sid)` —
    /// `(MAX, MAX, MAX)` when every service is idle. Lazily recomputed
    /// from the (small, contiguous) timer table when invalidated.
    #[inline]
    fn timer_min(&mut self) -> (u64, u64, u32) {
        if !self.timer_min_valid {
            let mut best = (u64::MAX, u64::MAX, u32::MAX);
            for b in 0..self.block_min.len() {
                if self.block_dirty[b] {
                    self.block_dirty[b] = false;
                    let lo = b * TIMER_BLOCK;
                    let hi = (lo + TIMER_BLOCK).min(self.timer_key.len());
                    let mut bm = (u64::MAX, u64::MAX, u32::MAX);
                    for sid in lo..hi {
                        let key = self.timer_key[sid];
                        if key < (bm.0, bm.1) {
                            bm = (key.0, key.1, sid as u32);
                        }
                    }
                    self.block_min[b] = bm;
                }
                let bm = self.block_min[b];
                if (bm.0, bm.1) < (best.0, best.1) {
                    best = bm;
                }
            }
            self.timer_min = best;
            self.timer_min_valid = true;
        }
        self.timer_min
    }

    /// Writes a service's timer slot, maintaining the block and global
    /// argmin caches (`(u64::MAX, u64::MAX)` disarms).
    #[inline]
    fn set_timer_key(&mut self, sid: usize, key: (u64, u64)) {
        self.timer_key[sid] = key;
        let b = sid / TIMER_BLOCK;
        if !self.block_dirty[b] {
            let bm = self.block_min[b];
            if key < (bm.0, bm.1) {
                self.block_min[b] = (key.0, key.1, sid as u32);
            } else if bm.2 == sid as u32 {
                // The block's minimum moved later; heal lazily.
                self.block_dirty[b] = true;
            }
        }
        if self.timer_min_valid {
            let gm = self.timer_min;
            if key < (gm.0, gm.1) {
                self.timer_min = (key.0, key.1, sid as u32);
            } else if gm.2 == sid as u32 {
                self.timer_min_valid = false;
            }
        }
    }

    /// Starts a measurement window now.
    fn begin_window(&mut self, window_s: f64) {
        for i in 0..self.services.len() {
            self.services[i].advance(self.now);
            self.services[i].begin_window(self.now, window_s);
        }
        self.hist.reset();
        self.recording = true;
        self.measure_start = self.now;
        self.completed_in_window = 0;
        self.arrivals_in_window = 0;
    }

    /// Ends the measurement window and collects statistics.
    fn end_window(&mut self, window_s: f64) -> WindowStats {
        self.recording = false;
        let dur = self.now.secs_since(self.measure_start).max(1e-9);
        let mut per_service = Vec::with_capacity(self.services.len());
        for i in 0..self.services.len() {
            self.services[i].advance(self.now);
            let s = &self.services[i];
            let spec = &self.app.services[i];
            let mut buckets: Vec<f32> = s
                .usage_buckets
                .iter()
                .take(dur.floor().max(1.0) as usize)
                .copied()
                .collect();
            buckets.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let p90 = if buckets.is_empty() {
                0.0
            } else {
                let rank = ((0.90 * buckets.len() as f64).ceil() as usize).clamp(1, buckets.len());
                buckets[rank - 1] as f64
            };
            let peak = buckets.last().copied().unwrap_or(0.0) as f64;
            let avg_open = s.occupancy_integral / dur;
            per_service.push(ServiceWindowStats {
                alloc_cores: s.alloc,
                util_pct: s.cpu_used_s / (s.alloc * dur) * 100.0,
                cpu_used_s: s.cpu_used_s,
                throttled_s: s.throttled_s,
                usage_p90_cores: p90,
                usage_peak_cores: peak,
                mem_bytes: spec.mem_base_bytes + avg_open * spec.mem_per_job_bytes,
                visits: s.visits_done,
                mean_self_ms: if s.visits_done > 0 {
                    s.self_time_s / s.visits_done as f64 * 1e3
                } else {
                    0.0
                },
                mean_visit_ms: if s.visits_done > 0 {
                    s.visit_time_s / s.visits_done as f64 * 1e3
                } else {
                    0.0
                },
            });
        }
        let completed = self.hist.count();
        let (mean, p50, p95, p99, max) = if completed > 0 {
            (
                self.hist.mean().unwrap() * 1e3,
                self.hist.quantile(0.50).unwrap() * 1e3,
                self.hist.quantile(0.95).unwrap() * 1e3,
                self.hist.quantile(0.99).unwrap() * 1e3,
                self.hist.max().unwrap() * 1e3,
            )
        } else if self.arrivals_in_window > 0 {
            // Saturation: traffic arrived but nothing finished.
            let inf = f64::INFINITY;
            (inf, inf, inf, inf, inf)
        } else {
            (0.0, 0.0, 0.0, 0.0, 0.0)
        };
        WindowStats {
            start_s: self.measure_start.as_secs(),
            duration_s: window_s,
            offered_rps: self.arrival_rate,
            achieved_rps: completed as f64 / dur,
            completed,
            arrivals: self.arrivals_in_window,
            mean_ms: mean,
            p50_ms: p50,
            p95_ms: p95,
            p99_ms: p99,
            max_ms: max,
            per_service,
        }
    }

    // ---- event plumbing ----

    #[inline]
    fn push(&mut self, t: SimTime, ev: Ev) {
        self.seq += 1;
        self.queue.push(t, self.seq, ev);
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::VisitStart(vi, vgen) => self.on_visit_start(vi as usize, vgen),
            Ev::ChildDone(vi, vgen) => self.on_child_done(vi as usize, vgen),
        }
    }

    fn on_arrival(&mut self) {
        debug_assert!(self.arrival_rate > 0.0, "disarmed chains never fire");
        // Schedule the next arrival of the chain (slot overwrite).
        let dt = exponential(&mut self.rng, self.arrival_rate);
        let t = self.now.plus_secs(dt);
        self.seq += 1;
        self.arrival_at = t;
        self.arrival_seq = self.seq;
        self.arrival_armed = true;

        if self.recording {
            self.arrivals_in_window += 1;
        }
        let class =
            weighted_index_with_total(&mut self.rng, &self.class_weights, self.class_weight_total);
        let root_ep = self.app.classes[class].root;
        let vi = self.new_visit(root_ep, NO_PARENT, 0, self.now);
        if self.trace_rate > 0.0 && bernoulli(&mut self.rng, self.trace_rate) {
            let tb = TraceBuilder {
                class: class as u32,
                spans: Vec::with_capacity(8),
                start: self.now,
            };
            let slot = match self.trace_free.pop() {
                Some(i) => {
                    self.trace_builders[i] = Some(tb);
                    i
                }
                None => {
                    self.trace_builders.push(Some(tb));
                    self.trace_builders.len() - 1
                }
            };
            let span = self.new_span(slot, root_ep, u32::MAX);
            self.visits[vi].v.trace = slot as u32;
            self.visits[vi].v.span = span;
        }
        let vgen = self.visits[vi].gen;
        self.push(self.now, Ev::VisitStart(vi as u32, vgen));
    }

    /// Creates a span inside a trace builder and returns its index.
    fn new_span(&mut self, builder: usize, ep: usize, parent_span: u32) -> u32 {
        let e = &self.app.endpoints[ep];
        let b = self.trace_builders[builder]
            .as_mut()
            .expect("live trace builder");
        b.spans.push(TraceSpan {
            service: e.service.0 as u32,
            endpoint: ep as u32,
            parent: parent_span,
            start_s: f64::NAN,
            end_s: f64::NAN,
            self_cpu_s: 0.0,
        });
        (b.spans.len() - 1) as u32
    }

    /// Allocates a visit slot for endpoint `ep` with the given parent.
    fn new_visit(&mut self, ep: usize, parent: u32, parent_gen: u32, root_start: SimTime) -> usize {
        let e = &self.app.endpoints[ep];
        let sid = e.service.0;
        let spec = &self.app.services[sid];
        let work = self.ep_sampler[ep].sample(&mut self.rng) / self.speed;
        let pre = work * spec.pre_fraction;
        let post = work - pre;
        let v = Visit {
            service: sid as u32,
            endpoint: ep as u32,
            parent,
            parent_gen,
            stage: Stage::ExecPre,
            remaining: pre,
            post_work: post,
            pending: 0,
            is_root: parent == NO_PARENT,
            start: SimTime::ZERO, // set on VisitStart
            root_start,
            exec_self: 0.0,
            trace: u32::MAX,
            span: 0,
        };
        if let Some(slot) = self.free.pop() {
            self.visits[slot].gen = self.visits[slot].gen.wrapping_add(1);
            self.visits[slot].live = true;
            self.visits[slot].v = v;
            slot
        } else {
            self.visits.push(VisitSlot {
                gen: 0,
                live: true,
                v,
            });
            self.visits.len() - 1
        }
    }

    fn on_visit_start(&mut self, vi: usize, vgen: u32) {
        if self.visits[vi].gen != vgen || !self.visits[vi].live {
            return;
        }
        let sid = self.visits[vi].v.service as usize;
        self.services[sid].advance(self.now);
        self.ensure_period_current(sid);
        self.visits[vi].v.start = self.now;
        if self.visits[vi].v.trace != u32::MAX {
            let (tb, span) = (
                self.visits[vi].v.trace as usize,
                self.visits[vi].v.span as usize,
            );
            if let Some(b) = self.trace_builders[tb].as_mut() {
                b.spans[span].start_s = self.now.as_secs();
            }
        }
        self.services[sid].open_visits += 1;
        if self.services[sid].thread_available() {
            self.services[sid].threads_busy += 1;
            self.start_exec(sid, vi);
        } else {
            self.services[sid].thread_queue.push_back(vi);
        }
        self.after_change(sid);
    }

    /// Rolls the CFS period forward (lazily) when the service was idle
    /// across one or more period boundaries.
    fn ensure_period_current(&mut self, sid: usize) {
        let s = &mut self.services[sid];
        if self.now >= s.period_end && !s.stalled {
            let k = (self.now.0 - s.period_end.0) / CFS_PERIOD_NS + 1;
            s.period_end = SimTime(s.period_end.0 + k * CFS_PERIOD_NS);
            s.quota_left = s.quota;
        }
    }

    /// Puts a visit into the running set (it has a thread). Zero-work
    /// stages are completed inline; timed-out requests are abandoned
    /// without consuming CPU.
    fn start_exec(&mut self, sid: usize, vi: usize) {
        if self.timed_out(vi) {
            // Skip all remaining work and reply immediately: the
            // client is gone, drain the backlog fast.
            self.visits[vi].v.stage = Stage::ExecPost;
            self.visits[vi].v.remaining = 0.0;
            self.finish_visit(sid, vi);
            return;
        }
        if self.visits[vi].v.remaining <= WORK_EPS {
            self.visits[vi].v.remaining = 0.0;
            self.handle_exec_complete(sid, vi);
        } else {
            let v = &self.visits[vi].v;
            let job = RunningJob {
                vi,
                remaining: v.remaining,
                exec_self: v.exec_self,
            };
            self.services[sid].push_job(job);
        }
    }

    /// A visit finished the CPU work of its current stage.
    fn handle_exec_complete(&mut self, sid: usize, vi: usize) {
        let stage = self.visits[vi].v.stage;
        match stage {
            Stage::ExecPre => self.try_issue_group(sid, vi, 0),
            Stage::Children(_) => unreachable!("children stage has no CPU work"),
            Stage::ExecPost => self.finish_visit(sid, vi),
        }
    }

    /// Issues child-call group `g` of visit `vi`; groups whose sampled
    /// call set is empty are skipped; after the last group the visit
    /// proceeds to post-work.
    fn try_issue_group(&mut self, sid: usize, vi: usize, mut g: usize) {
        if self.timed_out(vi) {
            self.visits[vi].v.stage = Stage::ExecPost;
            self.visits[vi].v.remaining = 0.0;
            self.finish_visit(sid, vi);
            return;
        }
        loop {
            let ep = self.visits[vi].v.endpoint as usize;
            let groups_lo = self.ep_group_start[ep] as usize;
            let n_groups = self.ep_group_start[ep + 1] as usize - groups_lo;
            if g >= n_groups {
                // Move to post-work.
                let post = self.visits[vi].v.post_work;
                self.visits[vi].v.stage = Stage::ExecPost;
                self.visits[vi].v.remaining = post;
                if post <= WORK_EPS {
                    self.visits[vi].v.remaining = 0.0;
                    self.finish_visit(sid, vi);
                } else {
                    let exec_self = self.visits[vi].v.exec_self;
                    self.services[sid].push_job(RunningJob {
                        vi,
                        remaining: post,
                        exec_self,
                    });
                }
                return;
            }
            // Sample the calls of group g (flattened table, reusable
            // scratch buffer: fan-outs are contiguous-read and
            // allocation-free in steady state).
            let (lo, hi) = self.group_spans[groups_lo + g];
            let mut calls = std::mem::take(&mut self.scratch_calls);
            calls.clear();
            for &(child_ep, p) in &self.flat_calls[lo as usize..hi as usize] {
                if bernoulli(&mut self.rng, p) {
                    calls.push(child_ep as usize);
                }
            }
            if calls.is_empty() {
                self.scratch_calls = calls;
                g += 1;
                continue;
            }
            self.visits[vi].v.stage = Stage::Children(g as u16);
            self.visits[vi].v.pending = calls.len() as u16;
            let parent_gen = self.visits[vi].gen;
            let root_start = self.visits[vi].v.root_start;
            let parent_trace = self.visits[vi].v.trace;
            let parent_span = self.visits[vi].v.span;
            for &child_ep in &calls {
                let ci = self.new_visit(child_ep, vi as u32, parent_gen, root_start);
                if parent_trace != u32::MAX {
                    let span = self.new_span(parent_trace as usize, child_ep, parent_span);
                    self.visits[ci].v.trace = parent_trace;
                    self.visits[ci].v.span = span;
                }
                let cgen = self.visits[ci].gen;
                let t = self.now.plus_secs(self.hop_delay());
                self.push(t, Ev::VisitStart(ci as u32, cgen));
            }
            self.scratch_calls = calls;
            return;
        }
    }

    /// One-way network delay for an RPC hop (uniform ±50% jitter).
    fn hop_delay(&mut self) -> f64 {
        let base = self.app.net_delay_s;
        if base <= 0.0 {
            return 0.0;
        }
        use rand::Rng;
        base * (0.5 + self.rng.gen::<f64>())
    }

    /// A child call replied: decrement the parent's pending count and
    /// advance it to the next group or post-work.
    fn on_child_done(&mut self, vi: usize, vgen: u32) {
        if self.visits[vi].gen != vgen || !self.visits[vi].live {
            return;
        }
        let sid = self.visits[vi].v.service as usize;
        self.services[sid].advance(self.now);
        self.ensure_period_current(sid);
        debug_assert!(matches!(self.visits[vi].v.stage, Stage::Children(_)));
        self.visits[vi].v.pending = self.visits[vi].v.pending.saturating_sub(1);
        if self.visits[vi].v.pending == 0 {
            let g = match self.visits[vi].v.stage {
                Stage::Children(g) => g as usize,
                _ => 0,
            };
            self.try_issue_group(sid, vi, g + 1);
        }
        self.after_change(sid);
    }

    /// Completes a visit: releases its thread, records metrics, replies
    /// to the parent (or records end-to-end latency for roots), and
    /// starts the next queued visit if any.
    fn finish_visit(&mut self, sid: usize, vi: usize) {
        // Every path here has already removed the visit from the
        // running list (work completions remove it in `on_timer`;
        // inline zero-work and timed-out visits never entered it).
        debug_assert!(
            self.services[sid].running.iter().all(|j| j.vi != vi),
            "visit finished while still running"
        );
        let s = &mut self.services[sid];
        s.threads_busy = s.threads_busy.saturating_sub(1);
        s.open_visits = s.open_visits.saturating_sub(1);
        s.visits_done += 1;
        let v = &self.visits[vi].v;
        s.self_time_s += v.exec_self;
        s.visit_time_s += self.now.secs_since(v.start);

        let parent = v.parent;
        let parent_gen = v.parent_gen;
        let is_root = v.is_root;
        let root_start = v.root_start;
        let trace = v.trace;
        let span = v.span;
        let exec_self = v.exec_self;
        let v_start = v.start;

        // Free the slot.
        self.visits[vi].live = false;
        self.free.push(vi);

        if trace != u32::MAX {
            let tb = trace as usize;
            if let Some(b) = self.trace_builders[tb].as_mut() {
                let sp = &mut b.spans[span as usize];
                sp.end_s = self.now.as_secs();
                sp.self_cpu_s = exec_self;
                if sp.start_s.is_nan() {
                    sp.start_s = v_start.as_secs();
                }
            }
            if is_root {
                if let Some(b) = self.trace_builders[tb].take() {
                    if self.completed_traces.len() < self.trace_cap {
                        self.completed_traces.push(RequestTrace {
                            class: b.class,
                            spans: b.spans,
                            latency_s: self.now.secs_since(b.start),
                            start_s: b.start.as_secs(),
                        });
                    }
                    self.trace_free.push(tb);
                }
            }
        }

        if is_root {
            if self.recording && root_start >= self.measure_start {
                // A timed-out request's client saw exactly the timeout.
                let latency = match self.timeout_s {
                    Some(to) => self.now.secs_since(root_start).min(to * 1.001),
                    None => self.now.secs_since(root_start),
                };
                self.hist.record(latency);
                self.completed_in_window += 1;
            }
        } else {
            let t = self.now.plus_secs(self.hop_delay());
            self.push(t, Ev::ChildDone(parent, parent_gen));
        }

        // Hand the freed thread to the next queued visit.
        if let Some(next) = self.services[sid].thread_queue.pop_front() {
            self.services[sid].threads_busy += 1;
            self.start_exec(sid, next);
        }
    }

    fn on_timer(&mut self, sid: usize) {
        self.services[sid].advance(self.now);

        if self.now >= self.services[sid].period_end {
            // Period boundary: replenish and unstall.
            let s = &mut self.services[sid];
            let k = (self.now.0 - s.period_end.0) / CFS_PERIOD_NS + 1;
            s.period_end = SimTime(s.period_end.0 + k * CFS_PERIOD_NS);
            s.quota_left = s.quota;
            s.stalled = false;
        } else if !self.services[sid].stalled && self.services[sid].quota_left <= QUOTA_EPS {
            // Quota exhausted: stall until period end.
            let s = &mut self.services[sid];
            if !s.running.is_empty() {
                s.stalled = true;
            } else {
                // Nothing running; just top up at the boundary later.
                s.quota_left = 0.0;
            }
        } else {
            // Work completion(s). `advance` (which just integrated to
            // `now`) refreshed the completion caches in its decrement
            // pass, so the overwhelmingly common cases — exactly one
            // job done, or a spurious wake with none — need no
            // re-scan at all.
            let svc = &self.services[sid];
            if svc.done_valid && svc.done_count == 0 {
                // Spurious wake (e.g. the deadline's state changed
                // between scheduling and firing): nothing completed.
            } else if svc.done_valid && svc.done_count == 1 {
                let pos = svc.first_done as usize;
                let job = self.services[sid].remove_job(pos);
                let vi = job.vi;
                self.visits[vi].v.exec_self = job.exec_self;
                self.visits[vi].v.remaining = 0.0;
                self.handle_exec_complete(sid, vi);
            } else {
                // General path: collect positions and visits in one
                // pass into the reusable scratch buffer; earlier
                // removals shift positions, so re-locate each.
                let mut done = std::mem::take(&mut self.scratch_done);
                done.clear();
                done.extend(
                    self.services[sid]
                        .running
                        .iter()
                        .enumerate()
                        .filter(|(_, j)| j.remaining <= WORK_EPS)
                        .map(|(pos, j)| (pos, j.vi)),
                );
                for &(_, vi) in &done {
                    if let Some(pos) = self.services[sid].running.iter().position(|j| j.vi == vi) {
                        let job = self.services[sid].remove_job(pos);
                        self.visits[vi].v.exec_self = job.exec_self;
                    }
                    self.visits[vi].v.remaining = 0.0;
                    self.handle_exec_complete(sid, vi);
                }
                self.scratch_done = done;
            }
        }
        self.after_change(sid);
    }

    /// Updates the node's processor-sharing bookkeeping after a state
    /// change on service `sid` and re-times its timer.
    ///
    /// Only `sid`'s active-job contribution can have changed (every
    /// running/stalled mutation happens inside an event handler for
    /// one service, and each handler ends here), so the node total is
    /// maintained incrementally — `O(1)` per event instead of
    /// re-summing the node's services.
    fn after_change(&mut self, sid: usize) {
        let node = self.services[sid].node;
        let new = self.services[sid].node_active_jobs();
        let old = self.services[sid].active_contrib;
        if new != old {
            self.node_active[node] = self.node_active[node] - old + new;
            self.services[sid].active_contrib = new;
            self.apply_node_rate(node);
        }
        self.reschedule_timer(sid);
    }

    /// Recomputes a node's PS rate from the tracked active-job count;
    /// when it changes, advances and re-times every service on the
    /// node.
    fn apply_node_rate(&mut self, node: usize) {
        let active = self.node_active[node];
        let cores = self.node_cores[node];
        // Fast path: an uncontended node staying uncontended (the
        // common case) needs no float work at all. `active as f64 <=
        // cores` is exactly `active <= floor(cores)` for job counts in
        // the f64-exact range.
        if active as u64 <= self.node_cores_floor[node] && self.node_rate[node] == 1.0 {
            return;
        }
        let new_rate = if active as f64 <= cores {
            1.0
        } else {
            cores / active as f64
        };
        if (new_rate - self.node_rate[node]).abs() > 1e-12 {
            // Borrow dance instead of cloning the membership list: the
            // loop body never touches `node_services`.
            let members = std::mem::take(&mut self.node_services[node]);
            for &i in &members {
                self.services[i].advance(self.now);
                self.services[i].rate = new_rate;
                self.reschedule_timer(i);
            }
            self.node_services[node] = members;
            self.node_rate[node] = new_rate;
        }
    }

    /// Fully recomputes a node's active-job count and applies the
    /// rate — used when an operation (allocation change) may touch
    /// every service on the node at once.
    fn refresh_node(&mut self, node: usize) {
        let mut active = 0;
        let members = std::mem::take(&mut self.node_services[node]);
        for &i in &members {
            let c = self.services[i].node_active_jobs();
            self.services[i].active_contrib = c;
            active += c;
        }
        self.node_services[node] = members;
        self.node_active[node] = active;
        self.apply_node_rate(node);
    }

    /// Re-times the service: overwrites its timer slot with the next
    /// deadline (or disarms it), maintaining the cached table minimum.
    fn reschedule_timer(&mut self, sid: usize) {
        if self.timer_key[sid].0 != u64::MAX {
            // A still-armed deadline is being replaced — the event is
            // resolved in place (the old engine popped it as stale).
            self.events_superseded += 1;
        }
        match self.services[sid].next_deadline(self.now) {
            Some((t, _kind)) => {
                self.seq += 1;
                self.set_timer_key(sid, (t.0, self.seq));
            }
            None => {
                if self.timer_key[sid].0 != u64::MAX {
                    self.set_timer_key(sid, (u64::MAX, u64::MAX));
                }
            }
        }
    }

    /// Number of scheduled events (queued visit events plus armed
    /// timer/arrival slots) — exposed for tests guarding against event
    /// leaks.
    #[doc(hidden)]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
            + self.timer_key.iter().filter(|k| k.0 != u64::MAX).count()
            + usize::from(self.arrival_armed)
    }

    /// Total scheduled events *resolved* since construction: events
    /// dispatched from the queue/slots plus timer and arrival
    /// deadlines superseded in place by a reschedule. This is the
    /// workload-invariant count the repo benchmark divides wall time by
    /// (`sim.engine.ns_per_event`): the pre-optimization single-heap
    /// engine resolved the same scheduled events for the same workload
    /// (superseded ones as deferred stale pops), so events/second is
    /// directly comparable across engine generations.
    pub fn events_processed(&self) -> u64 {
        self.events_dispatched + self.events_superseded
    }

    /// Events dispatched (state-machine transitions actually run),
    /// excluding in-place superseded deadlines.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Number of live (in-flight) visits — exposed for tests.
    #[doc(hidden)]
    pub fn live_visits(&self) -> usize {
        self.visits.iter().filter(|s| s.live).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{
        CallGroup, EndpointNode, NodeSpec, RequestClass, ServiceId, ServiceSpec,
    };

    /// frontend -> backend chain with small demands.
    fn chain_app() -> AppSpec {
        AppSpec {
            name: "chain".into(),
            services: vec![
                ServiceSpec::new("frontend", 0.002).cv(0.5),
                ServiceSpec::new("backend", 0.004).cv(0.5),
            ],
            endpoints: vec![
                EndpointNode {
                    service: ServiceId(0),
                    work_scale: 1.0,
                    groups: vec![CallGroup {
                        calls: vec![(1, 1.0)],
                    }],
                },
                EndpointNode {
                    service: ServiceId(1),
                    work_scale: 1.0,
                    groups: vec![],
                },
            ],
            classes: vec![RequestClass {
                name: "get".into(),
                weight: 1.0,
                root: 0,
            }],
            nodes: vec![NodeSpec { cores: 32.0 }],
            net_delay_s: 0.0002,
            slo_ms: 100.0,
            generous_alloc: vec![2.0, 2.0],
        }
    }

    #[test]
    fn light_load_latency_near_service_time() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 1);
        let stats = sim.run_window(20.0, 2.0, 20.0);
        assert!(stats.completed > 300, "completed={}", stats.completed);
        // Raw work ≈ 6ms + 2 hops ≈ 0.4ms; generous alloc, light load:
        // p95 should be well under 50 ms and above the raw work floor.
        assert!(
            stats.p95_ms > 4.0 && stats.p95_ms < 50.0,
            "p95={}",
            stats.p95_ms
        );
        assert!(stats.mean_ms >= 5.0, "mean={}", stats.mean_ms);
    }

    #[test]
    fn throughput_matches_offered_load() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 2);
        let stats = sim.run_window(100.0, 2.0, 30.0);
        assert!(
            (stats.achieved_rps - 100.0).abs() < 10.0,
            "achieved={}",
            stats.achieved_rps
        );
    }

    #[test]
    fn utilization_tracks_demand() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 3);
        let stats = sim.run_window(100.0, 2.0, 30.0);
        // backend: 100 rps × 4 ms = 0.4 cores over 2 allocated = 20%.
        let u = stats.per_service[1].util_pct;
        assert!((u - 20.0).abs() < 5.0, "util={u}");
    }

    #[test]
    fn starved_service_throttles_and_latency_blows_up() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 4);
        // backend needs 0.4 cores on average; give it 0.3.
        sim.set_allocation(&Allocation::new(vec![2.0, 0.3]));
        let stats = sim.run_window(100.0, 5.0, 30.0);
        assert!(
            stats.per_service[1].throttled_s > 1.0,
            "throttled={}",
            stats.per_service[1].throttled_s
        );
        assert!(stats.p95_ms > 100.0, "p95={}", stats.p95_ms);
    }

    #[test]
    fn reducing_allocation_increases_latency_monotonically_ish() {
        let app = chain_app();
        let mut means = Vec::new();
        for alloc in [2.0, 0.6, 0.45] {
            let mut sim = ClusterSim::new(&app, 5);
            sim.set_allocation(&Allocation::new(vec![2.0, alloc]));
            let stats = sim.run_window(100.0, 3.0, 20.0);
            means.push(stats.mean_ms);
        }
        assert!(
            means[0] < means[1] && means[1] < means[2],
            "mean sequence {means:?} not increasing as allocation shrinks"
        );
    }

    #[test]
    fn determinism_same_seed_same_stats() {
        let app = chain_app();
        let mut a = ClusterSim::new(&app, 42);
        let mut b = ClusterSim::new(&app, 42);
        let sa = a.run_window(80.0, 1.0, 10.0);
        let sb = b.run_window(80.0, 1.0, 10.0);
        assert_eq!(sa.completed, sb.completed);
        assert_eq!(sa.p95_ms, sb.p95_ms);
        assert_eq!(sa.per_service[0].cpu_used_s, sb.per_service[0].cpu_used_s);
    }

    #[test]
    fn different_seeds_differ() {
        let app = chain_app();
        let mut a = ClusterSim::new(&app, 1);
        let mut b = ClusterSim::new(&app, 2);
        let sa = a.run_window(80.0, 1.0, 10.0);
        let sb = b.run_window(80.0, 1.0, 10.0);
        // Means are computed exactly (not bucketed), so two different
        // random streams virtually never coincide.
        assert_ne!(sa.mean_ms, sb.mean_ms);
    }

    #[test]
    fn zero_rate_window_is_empty() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 1);
        let stats = sim.run_window(0.0, 0.5, 2.0);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.arrivals, 0);
        assert_eq!(stats.p95_ms, 0.0);
    }

    #[test]
    fn no_visit_leaks_after_drain() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 9);
        sim.run_window(50.0, 1.0, 10.0);
        sim.set_arrival_rate(0.0);
        sim.run_until(sim.now().plus_secs(10.0));
        assert_eq!(sim.live_visits(), 0, "visits leaked");
        assert_eq!(sim.pending_events(), 0, "events leaked");
    }

    #[test]
    fn persistent_windows_keep_queues() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 11);
        let w1 = sim.run_window(100.0, 2.0, 10.0);
        let w2 = sim.run_window(100.0, 0.0, 10.0);
        assert!(w1.completed > 0 && w2.completed > 0);
        assert!(w2.start_s > w1.start_s);
    }

    #[test]
    fn allocation_roundtrip() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 1);
        let a = Allocation::new(vec![1.5, 0.7]);
        sim.set_allocation(&a);
        assert_eq!(sim.allocation(), a);
    }

    #[test]
    fn speed_scales_latency() {
        let app = chain_app();
        let mut fast = ClusterSim::new(&app, 7);
        fast.set_speed(2.0);
        let sf = fast.run_window(50.0, 1.0, 10.0);
        let mut slow = ClusterSim::new(&app, 7);
        slow.set_speed(0.5);
        let ss = slow.run_window(50.0, 1.0, 10.0);
        assert!(
            ss.mean_ms > sf.mean_ms * 2.0,
            "slow={} fast={}",
            ss.mean_ms,
            sf.mean_ms
        );
    }

    #[test]
    fn tracing_produces_well_formed_span_trees() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 31);
        sim.set_trace_sampling(0.5);
        sim.run_window(100.0, 1.0, 10.0);
        let traces = sim.take_traces();
        assert!(traces.len() > 200, "only {} traces", traces.len());
        for t in &traces {
            // Root is span 0 at the frontend; a backend child exists.
            assert_eq!(t.spans[0].parent, u32::MAX);
            assert_eq!(t.spans[0].service, 0);
            assert_eq!(t.spans.len(), 2, "chain app has exactly two visits");
            assert_eq!(t.spans[1].parent, 0);
            assert_eq!(t.spans[1].service, 1);
            // Temporal containment: child within parent, both finite.
            for s in &t.spans {
                assert!(s.start_s.is_finite() && s.end_s.is_finite());
                assert!(s.end_s >= s.start_s);
                assert!(s.self_cpu_s >= 0.0);
            }
            assert!(t.spans[1].start_s >= t.spans[0].start_s);
            assert!(t.spans[1].end_s <= t.spans[0].end_s + 1e-9);
            // Trace latency matches the root span.
            let root_dur = t.spans[0].end_s - t.start_s;
            assert!((root_dur - t.latency_s).abs() < 1e-6);
        }
        // Drain semantics.
        assert!(sim.take_traces().is_empty());
    }

    #[test]
    fn tracing_disabled_by_default() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 32);
        sim.run_window(100.0, 1.0, 5.0);
        assert!(sim.take_traces().is_empty());
    }

    #[test]
    fn trace_sampling_rate_respected() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 33);
        sim.set_trace_sampling(0.1);
        let stats = sim.run_window(100.0, 1.0, 20.0);
        let traces = sim.take_traces();
        let frac = traces.len() as f64 / stats.arrivals as f64;
        assert!(
            (frac - 0.1).abs() < 0.04,
            "sampling fraction {frac} far from 0.1"
        );
    }

    #[test]
    fn abortable_window_triggers_under_starvation() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 21);
        sim.set_allocation(&Allocation::new(vec![2.0, 0.2]));
        let (stats, aborted) = sim.run_window_abortable(150.0, 2.0, 60.0, 5.0, 100.0);
        assert!(aborted, "starved backend should trip the early check");
        assert!(
            stats.duration_s < 59.0,
            "window should have ended early: {}",
            stats.duration_s
        );
        assert!(stats.p95_ms > 100.0);
    }

    #[test]
    fn abortable_window_completes_when_healthy() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 22);
        let (stats, aborted) = sim.run_window_abortable(100.0, 1.0, 10.0, 2.0, 200.0);
        assert!(!aborted);
        assert!((stats.duration_s - 10.0).abs() < 0.2);
    }

    #[test]
    fn saturated_window_reports_infinite_p95() {
        let app = chain_app();
        let mut sim = ClusterSim::new(&app, 13);
        sim.set_allocation(&Allocation::new(vec![0.05, 0.05]));
        let stats = sim.run_window(500.0, 1.0, 5.0);
        // 500 rps × 6 ms = 3 cores of demand on 0.1 cores: hopeless.
        assert!(stats.p95_ms > 1000.0 || stats.p95_ms.is_infinite());
    }
}
