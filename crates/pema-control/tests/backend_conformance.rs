//! Backend-conformance suite: every [`ClusterBackend`] must honour the
//! same loop-facing contract, whatever is underneath it. The suite runs
//! against all four shipped backends ([`SimBackend`], [`FluidBackend`],
//! `pema_trace::TraceBackend` replaying a freshly recorded DES run, and
//! `pema_live::LiveBackend` scraping a loopback
//! [`FakeCluster`](pema_live::FakeCluster) over real HTTP) and against
//! [`FourMethod`], an in-test backend that implements the trait's four
//! required methods and nothing else; any further adapter should be
//! added to [`each_backend`] and pass unchanged.
//!
//! Pinned invariants:
//! * `apply` takes effect before the next measurement (both directly
//!   and through a [`ControlLoop`] pre-interval switch);
//! * virtual time strictly advances across measurements;
//! * an early-abort check shortens the reported `duration_s` on an SLO
//!   breach and leaves healthy windows untouched;
//! * violation accounting: a permanently starved run marks every
//!   interval violated and `violating_time_s` sums the (shortened)
//!   interval lengths;
//! * a window polled by hand (`begin_window`/`poll_window`, as the
//!   fleet does) is result-identical to its reference — for the DES
//!   the engine itself, `ClusterSim::run_window` or its window API
//!   driven through the §6 early-check loop below, for every other
//!   backend an identically built twin driven through the provided
//!   `measure_window` / `measure_window_abortable` — and `now_s` stays
//!   monotone while windows of several backends are polled interleaved
//!   (the fleet scheduler's contract);
//! * the provided blocking calls drive a `Pending`-returning poll to
//!   its end.

use pema_control::{
    ClusterBackend, ControlLoop, Experiment, FluidBackend, HarnessConfig, HoldPolicy, SimBackend,
    WindowPoll, WindowRequest,
};
use pema_live::{live_over_fake, Fault};
use pema_sim::topology::{CallGroup, EndpointNode, NodeSpec, RequestClass};
use pema_sim::{
    Allocation, AppSpec, ClusterSim, Evaluator as _, FluidEvaluator, ServiceId, ServiceSpec,
    WindowStats, MIN_ALLOC,
};
use pema_trace::{TraceBackend, TraceRecorder};

/// Records a healthy DES run of `app` to replay in the conformance
/// checks: six 8-second windows under the generous allocation. Long
/// enough for every check below (none measures more than four
/// windows), and recorded at the longest window any check requests so
/// the replayed `duration_s` satisfies the full-length assertion.
fn conformance_trace(app: &AppSpec) -> pema_trace::Trace {
    let cfg = HarnessConfig {
        interval_s: 8.0,
        warmup_s: 1.0,
        seed: 42,
    };
    let recorder = TraceRecorder::new(app, "hold", 0, &cfg);
    let handle = recorder.handle();
    Experiment::builder()
        .app(app)
        .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))
        .config(cfg)
        .rps(120.0)
        .iters(6)
        .observer(recorder)
        .run();
    handle.take()
}

/// The offered load the live fake cluster serves. All conformance
/// checks drive loads (100–150 rps) whose healthy/starved verdicts on
/// the toy chain match this one's, so a single constant keeps the
/// fake's telemetry consistent across checks.
const LIVE_RPS: f64 = 120.0;

/// The least a backend can be: the four required methods and no
/// `begin_window`/`cancel_window`, over the fluid model. Its early-check
/// windows advance one check period per poll and answer `Pending` in
/// between, so everything that reaches it through the provided
/// `measure_window*` exercises their poll loop.
struct FourMethod {
    eval: FluidEvaluator,
    alloc: Allocation,
    clock_s: f64,
    /// Measured seconds of the window in progress; 0 between windows.
    checked_s: f64,
}

impl FourMethod {
    fn new(app: &AppSpec) -> Self {
        FourMethod {
            eval: FluidEvaluator::new(app),
            alloc: Allocation::new(app.generous_alloc.clone()),
            clock_s: 0.0,
            checked_s: 0.0,
        }
    }
}

impl ClusterBackend for FourMethod {
    fn apply(&mut self, alloc: &Allocation) {
        self.alloc = alloc.clone();
    }

    fn allocation(&self) -> Allocation {
        self.alloc.clone()
    }

    fn now_s(&self) -> f64 {
        self.clock_s
    }

    fn poll_window(&mut self, req: &WindowRequest) -> WindowPoll {
        if self.checked_s == 0.0 {
            self.clock_s += req.warmup_s;
        }
        let left = req.window_s - self.checked_s;
        let step = req.early.map_or(left, |e| e.check_s.min(left));
        self.checked_s += step;
        self.clock_s += step;
        self.eval.window_s = self.checked_s;
        let mut stats = self.eval.evaluate(&self.alloc, req.rps);
        let breached = req.early.is_some_and(|e| stats.violates(e.slo_ms));
        if !breached && self.checked_s < req.window_s {
            return WindowPoll::Pending {
                resume_at_s: self.clock_s,
            };
        }
        stats.start_s = self.clock_s - self.checked_s;
        self.checked_s = 0.0;
        WindowPoll::Ready {
            stats,
            aborted: breached,
        }
    }
}

/// Runs `check` once per shipped backend and once for [`FourMethod`],
/// labelled for assertions.
fn each_backend(app: &AppSpec, check: impl Fn(&str, Box<dyn ClusterBackend>)) {
    check("sim", Box::new(SimBackend::new(app, 42)));
    check("fluid", Box::new(FluidBackend::new(app)));
    check("trace", Box::new(TraceBackend::new(conformance_trace(app))));
    check("live", Box::new(live_over_fake(app, LIVE_RPS)));
    check("four-method", Box::new(FourMethod::new(app)));
}

/// Runs `check` once per shipped backend with *two* identically
/// constructed instances — for proving two driving styles equivalent.
fn each_backend_pair(
    app: &AppSpec,
    check: impl Fn(&str, Box<dyn ClusterBackend>, Box<dyn ClusterBackend>),
) {
    check(
        "sim",
        Box::new(SimBackend::new(app, 42)),
        Box::new(SimBackend::new(app, 42)),
    );
    check(
        "fluid",
        Box::new(FluidBackend::new(app)),
        Box::new(FluidBackend::new(app)),
    );
    let tape = conformance_trace(app);
    check(
        "trace",
        Box::new(TraceBackend::new(tape.clone())),
        Box::new(TraceBackend::new(tape)),
    );
    // Two independent fake clusters: the fluid model behind them is
    // deterministic, so identically driven instances stay bit-equal.
    check(
        "live",
        Box::new(live_over_fake(app, LIVE_RPS)),
        Box::new(live_over_fake(app, LIVE_RPS)),
    );
    check(
        "four-method",
        Box::new(FourMethod::new(app)),
        Box::new(FourMethod::new(app)),
    );
}

/// What a hand-polled window is compared against.
enum Reference {
    /// The DES engine itself, configured as [`SimBackend::new`]
    /// configures it and driven through its window API: nothing here
    /// goes through the poll seam.
    Engine(Box<ClusterSim>),
    /// An identically built twin, driven through the trait's provided
    /// blocking calls.
    Twin(Box<dyn ClusterBackend>),
}

impl Reference {
    fn measure(&mut self, req: &WindowRequest) -> (WindowStats, bool) {
        let (rps, warmup_s, window_s) = (req.rps, req.warmup_s, req.window_s);
        match (self, req.early) {
            (Reference::Engine(sim), None) => (sim.run_window(rps, warmup_s, window_s), false),
            (Reference::Engine(sim), Some(e)) => {
                // Advance one check period at a time; stop at the end or
                // at the first check whose running p95 breaches the SLO.
                let w = sim.open_window(rps, warmup_s, window_s);
                let aborted = loop {
                    let done = sim.advance_window(&w, e.check_s);
                    if sim.window_p95_ms().is_some_and(|p95| p95 > e.slo_ms) {
                        break true;
                    }
                    if done {
                        break false;
                    }
                };
                (sim.close_window_measured(w), aborted)
            }
            (Reference::Twin(b), None) => (b.measure_window(rps, warmup_s, window_s), false),
            (Reference::Twin(b), Some(e)) => {
                b.measure_window_abortable(rps, warmup_s, window_s, e.check_s, e.slo_ms)
            }
        }
    }

    fn apply(&mut self, alloc: &Allocation) {
        match self {
            Reference::Engine(sim) => sim.set_allocation(alloc),
            Reference::Twin(b) => b.apply(alloc),
        }
    }

    fn now_s(&self) -> f64 {
        match self {
            Reference::Engine(sim) => sim.now().as_secs(),
            Reference::Twin(b) => b.now_s(),
        }
    }
}

/// [`each_backend_pair`] with the first instance as the second's
/// [`Reference`] — the engine in its place on the DES legs. The
/// provided blocking calls *are* the poll seam, so only a reference
/// outside it keeps those legs from comparing the seam with itself.
fn each_reference_pair(app: &AppSpec, check: impl Fn(&str, Reference, Box<dyn ClusterBackend>)) {
    each_backend_pair(app, |name, twin, polled| {
        let reference = if name.starts_with("sim") {
            Reference::Engine(Box::new(SimBackend::new(app, 42).sim))
        } else {
            Reference::Twin(twin)
        };
        check(name, reference, polled)
    });
}

/// Drives one window through the non-blocking seam to completion,
/// asserting `now_s` never moves backwards between polls. Returns the
/// stats, the abort flag, and how many `Pending` polls occurred.
fn poll_to_ready(b: &mut dyn ClusterBackend, req: &WindowRequest) -> (WindowStats, bool, usize) {
    b.begin_window(req);
    let mut last_now = b.now_s();
    let mut pendings = 0usize;
    loop {
        match b.poll_window(req) {
            WindowPoll::Pending { resume_at_s } => {
                pendings += 1;
                assert!(resume_at_s.is_finite(), "resume_at_s must be finite");
                let now = b.now_s();
                assert!(
                    now >= last_now,
                    "now_s moved backwards mid-window: {last_now} → {now}"
                );
                last_now = now;
            }
            WindowPoll::Ready { stats, aborted } => return (stats, aborted, pendings),
        }
    }
}

fn app() -> AppSpec {
    pema_apps::toy_chain() // 3 services, SLO 100 ms
}

/// A load/allocation pair that deeply saturates the toy chain on both
/// backends (every service at the 0.05-core floor at 150 rps).
fn starved(app: &AppSpec) -> Allocation {
    Allocation::new(vec![MIN_ALLOC; app.n_services()])
}

#[test]
fn apply_is_visible_in_allocation_and_measurement() {
    let app = app();
    let target = Allocation::new(vec![0.9, 0.8, 0.7]);
    each_backend(&app, |name, mut b| {
        b.apply(&target);
        let read_back = b.allocation();
        for i in 0..app.n_services() {
            assert_eq!(
                read_back.get(i),
                target.get(i),
                "{name}: allocation() must read back what apply() set"
            );
        }
        let stats = b.measure_window(120.0, 1.0, 5.0);
        for (i, s) in stats.per_service.iter().enumerate() {
            assert_eq!(
                s.alloc_cores,
                target.get(i),
                "{name}: the measured window must see the applied allocation"
            );
        }
    });
}

#[test]
fn virtual_time_strictly_advances() {
    let app = app();
    each_backend(&app, |name, mut b| {
        let t0 = b.now_s();
        b.measure_window(100.0, 1.0, 4.0);
        let t1 = b.now_s();
        b.measure_window(100.0, 1.0, 4.0);
        let t2 = b.now_s();
        assert!(t1 > t0 && t2 > t1, "{name}: time went {t0} → {t1} → {t2}");
    });
}

#[test]
fn early_abort_shortens_violating_windows_only() {
    let app = app();
    each_backend(&app, |name, mut b| {
        // Healthy: generous allocation, no abort, full window.
        let (healthy, aborted) = b.measure_window_abortable(120.0, 1.0, 8.0, 2.0, app.slo_ms);
        assert!(!aborted, "{name}: healthy window must not abort");
        assert!(
            healthy.duration_s > 0.9 * 8.0,
            "{name}: healthy window must run (close to) full length, got {}",
            healthy.duration_s
        );

        // Starved: the p95 breach must cut the window to ~one check.
        b.apply(&starved(&app));
        let (sick, aborted) = b.measure_window_abortable(150.0, 1.0, 8.0, 2.0, app.slo_ms);
        assert!(aborted, "{name}: saturated window must abort early");
        assert!(
            sick.duration_s < 8.0 / 2.0,
            "{name}: aborted window must be much shorter than requested, got {}",
            sick.duration_s
        );
        assert!(
            sick.violates(app.slo_ms),
            "{name}: aborted window must still report the violation"
        );
    });
}

#[test]
fn loop_applies_pre_interval_allocation_before_measuring() {
    let app = app();
    let held = vec![0.6, 0.5, 0.4];
    let total: f64 = held.iter().sum();
    each_backend(&app, |name, b| {
        let mut control = ControlLoop::new(
            b,
            HoldPolicy::new(held.clone(), app.slo_ms),
            HarnessConfig {
                interval_s: 5.0,
                warmup_s: 1.0,
                seed: 7,
            },
        );
        for _ in 0..3 {
            let log = control.step_once(120.0);
            // `total_cpu` is the allocation in force *during* the
            // window: from the very first interval it must be the held
            // allocation, not the generous start.
            assert!(
                (log.total_cpu - total).abs() < 1e-9,
                "{name}: interval {} ran under {} cores, expected {total}",
                log.iter,
                log.total_cpu
            );
        }
    });
}

#[test]
fn nonblocking_seam_matches_measure_window() {
    // Three consecutive plain windows driven through begin/poll must be
    // result-identical to the reference's blocking windows, interval by
    // interval, with the same virtual timeline — the fleet scheduler
    // changes nothing about what a window measures.
    let app = app();
    each_reference_pair(&app, |name, mut blocking, mut polled| {
        for i in 0..3 {
            let req = WindowRequest::new(120.0, 1.0, 5.0);
            let (want, _) = blocking.measure(&req);
            let (got, aborted, _) = poll_to_ready(&mut *polled, &req);
            assert!(!aborted, "{name}: plain window {i} must not abort");
            assert_eq!(
                want, got,
                "{name}: window {i} differs between the reference and the polled window"
            );
            assert_eq!(
                blocking.now_s().to_bits(),
                polled.now_s().to_bits(),
                "{name}: virtual clocks diverged after window {i}"
            );
        }
    });
}

#[test]
fn nonblocking_cancellation_matches_measure_window_abortable() {
    let app = app();
    each_reference_pair(&app, |name, mut blocking, mut polled| {
        // Healthy window under early checks: no cancellation, and for
        // backends with intra-window visibility (the DES) the window
        // must actually be served in several polls — that is what lets
        // a fleet interleave other loops between checks instead of
        // spinning inside one blocking call.
        let req = WindowRequest::new(120.0, 1.0, 8.0).with_early_check(2.0, app.slo_ms);
        let (want, want_abort) = blocking.measure(&req);
        let (got, got_abort, pendings) = poll_to_ready(&mut *polled, &req);
        assert!(!want_abort && !got_abort, "{name}: healthy window aborted");
        assert_eq!(want, got, "{name}: healthy early-check window differs");
        if name == "sim" || name == "four-method" {
            assert!(
                pendings >= 2,
                "{name}: an 8 s window at 2 s checks must take several polls, got {pendings}"
            );
        }

        // Starved window: the breach must cancel it at a check boundary
        // with exactly the stats the reference's abortable path reports.
        blocking.apply(&starved(&app));
        polled.apply(&starved(&app));
        let req = WindowRequest::new(150.0, 1.0, 8.0).with_early_check(2.0, app.slo_ms);
        let (want, want_abort) = blocking.measure(&req);
        let (got, got_abort, _) = poll_to_ready(&mut *polled, &req);
        assert!(want_abort, "{name}: starved window must abort (reference)");
        assert!(got_abort, "{name}: starved window must abort (polled)");
        assert_eq!(
            want, got,
            "{name}: cancelled window differs from its reference"
        );
        assert_eq!(
            blocking.now_s().to_bits(),
            polled.now_s().to_bits(),
            "{name}: virtual clocks diverged after the cancelled window"
        );
    });
}

#[test]
fn now_s_monotone_across_interleaved_windows() {
    // The fleet scheduler polls many backends' windows interleaved;
    // each backend's clock must advance monotonically regardless of
    // what happens to the others between its polls.
    let app = app();
    each_backend_pair(&app, |name, mut a, mut b| {
        let req = WindowRequest::new(120.0, 1.0, 8.0).with_early_check(2.0, app.slo_ms);
        let t0a = a.now_s();
        let t0b = b.now_s();
        a.begin_window(&req);
        b.begin_window(&req);
        let (mut last_a, mut last_b) = (a.now_s(), b.now_s());
        assert!(
            last_a >= t0a && last_b >= t0b,
            "{name}: begin went backwards"
        );
        let (mut done_a, mut done_b) = (false, false);
        while !(done_a && done_b) {
            if !done_a {
                done_a = matches!(a.poll_window(&req), WindowPoll::Ready { .. });
                let now = a.now_s();
                assert!(now >= last_a, "{name}: a went {last_a} → {now}");
                last_a = now;
            }
            if !done_b {
                done_b = matches!(b.poll_window(&req), WindowPoll::Ready { .. });
                let now = b.now_s();
                assert!(now >= last_b, "{name}: b went {last_b} → {now}");
                last_b = now;
            }
        }
        assert!(
            last_a > t0a && last_b > t0b,
            "{name}: a completed window must advance the clock"
        );
        // A subsequent window keeps advancing strictly.
        let next = WindowRequest::new(120.0, 1.0, 4.0);
        let (_, _, _) = poll_to_ready(&mut *a, &next);
        assert!(
            a.now_s() > last_a,
            "{name}: the next window must advance the clock further"
        );
    });
}

#[test]
fn violation_accounting_sums_shortened_intervals() {
    let app = app();
    each_backend(&app, |name, b| {
        let floor = starved(&app);
        let mut control = ControlLoop::new(
            b,
            HoldPolicy::new(floor.0.clone(), app.slo_ms),
            HarnessConfig {
                interval_s: 8.0,
                warmup_s: 1.0,
                seed: 9,
            },
        )
        .with_early_check(2.0);
        for _ in 0..4 {
            control.step_once(150.0);
        }
        let result = control.into_result();
        assert_eq!(
            result.violations(),
            4,
            "{name}: every starved interval must count as a violation"
        );
        assert!(
            (result.violation_rate() - 1.0).abs() < 1e-12,
            "{name}: violation rate must be 1.0"
        );
        let expected: f64 = result.log.iter().map(|l| l.interval_s).sum();
        assert!(
            (result.violating_time_s() - expected).abs() < 1e-9,
            "{name}: violating_time_s must sum the measured interval lengths"
        );
        // Early checks shortened every interval.
        for l in &result.log {
            assert!(
                l.interval_s < 8.0 / 2.0,
                "{name}: interval {} ran {}s despite early checks",
                l.iter,
                l.interval_s
            );
            assert!(
                l.action.starts_with("early-"),
                "{name}: aborted interval must carry the early- action tag, got {}",
                l.action
            );
        }
    });
}

#[test]
fn provided_blocking_calls_drive_a_pending_poll_to_ready() {
    // A backend that implements only the required methods still gets
    // `measure_window_abortable`: the provided loop must keep polling
    // through `Pending` (three of them for an 8 s window at 2 s checks)
    // and hand back exactly what polling by hand yields.
    let app = app();
    let (mut provided, mut by_hand) = (FourMethod::new(&app), FourMethod::new(&app));
    let req = WindowRequest::new(120.0, 1.0, 8.0).with_early_check(2.0, app.slo_ms);
    let (want, _, pendings) = poll_to_ready(&mut by_hand, &req);
    assert_eq!(pendings, 3, "the by-hand window must have pended");
    let (got, aborted) = provided.measure_window_abortable(120.0, 1.0, 8.0, 2.0, app.slo_ms);
    assert!(!aborted, "healthy window aborted");
    assert_eq!(want, got);
    assert_eq!(got.duration_s.to_bits(), 8.0f64.to_bits());
    assert_eq!(provided.now_s().to_bits(), 9.0f64.to_bits());
}

#[test]
fn live_backend_rides_out_first_poll_flakiness() {
    // Network-flakiness conformance: the live backend's first scrape
    // attempt hits a dropped connection; the retry policy absorbs it.
    // The window must still complete un-degraded, `now_s` must stay
    // monotone across the polls (checked inside `poll_to_ready`), and
    // no typed measurement error may be recorded.
    let app = app();
    let mut live = live_over_fake(&app, LIVE_RPS);
    live.cluster.inject_fault(Fault::DropConnection);
    let req = WindowRequest::new(LIVE_RPS, 1.0, 8.0);
    let (stats, aborted, _) = poll_to_ready(&mut live, &req);
    assert!(
        !aborted,
        "live: a transient fault must not abort the window"
    );
    assert!(
        stats.p95_ms.is_finite(),
        "live: the retried scrape must recover real telemetry"
    );
    assert!(
        live.backend.errors().is_empty(),
        "live: an absorbed fault must not surface as an error: {:?}",
        live.backend.errors()
    );
    // The retry backoff consumes real (fake-clock) time, so the clock
    // ends at or slightly past the window boundary — never before it.
    let now = live.now_s();
    assert!(
        (9.0..10.0).contains(&now),
        "live: clock must land at warmup + window (+ one short backoff), got {now}"
    );
    assert_eq!(stats.duration_s.to_bits(), 8.0f64.to_bits());
}

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
fn abortable_window_triggers_under_starvation() {
    let app = chain_app();
    let mut sim = SimBackend::from_sim(ClusterSim::new(&app, 21));
    sim.apply(&Allocation::new(vec![2.0, 0.2]));
    let (stats, aborted) = sim.measure_window_abortable(150.0, 2.0, 60.0, 5.0, 100.0);
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
    let mut sim = SimBackend::from_sim(ClusterSim::new(&app, 22));
    let (stats, aborted) = sim.measure_window_abortable(100.0, 1.0, 10.0, 2.0, 200.0);
    assert!(!aborted);
    assert!((stats.duration_s - 10.0).abs() < 0.2);
}
