//! [`ClusterBackend`] — the execution-environment half of the paper's
//! Fig. 9 loop, split out of the control loop.
//!
//! Fig. 9 shows PEMA between two external systems: Prometheus (the
//! telemetry source it *measures* from) and Kubernetes (the actuator it
//! *applies* allocations through). A [`ClusterBackend`] bundles exactly
//! those two roles behind one trait — [`poll_window`] is the
//! Prometheus scrape, [`apply`] is the `kubectl patch` — so the loop in
//! [`ControlLoop`](crate::ControlLoop) never knows whether it is
//! driving the discrete-event simulator, the analytic fluid model, a
//! recorded-trace replayer, or a live cluster (`pema_live::LiveBackend`).
//!
//! Two backends live in this crate (the trace replayer is
//! `pema_trace::TraceBackend`, one crate up):
//!
//! * [`SimBackend`] — wraps [`ClusterSim`], the packet-level DES. This
//!   is the fidelity backend every paper figure runs on; it reproduces
//!   the pre-refactor `ControlLoop` results byte-for-byte (pinned by
//!   the golden-snapshot tests in `pema-bench`).
//! * [`FluidBackend`] — wraps [`FluidEvaluator`], the M/G/1-PS analytic
//!   model. Three to four orders of magnitude faster; shape-faithful
//!   but approximate. It unlocks sweeps that are infeasible on the DES
//!   (e.g. the `cluster_scale` scenario's policy sweep over the
//!   120-service topology).
//!
//! [`poll_window`]: ClusterBackend::poll_window
//! [`apply`]: ClusterBackend::apply

use pema_sim::{
    Allocation, AppSpec, ClusterSim, Evaluator as _, FluidEvaluator, OpenWindow, WindowStats,
};

/// The §6 early-check parameters of one monitoring window: the running
/// p95 is compared against `slo_ms` every `check_s` seconds and the
/// window aborts on a breach.
#[derive(Debug, Clone, Copy)]
pub struct EarlyCheck {
    /// Check period, seconds.
    pub check_s: f64,
    /// SLO the running p95 is checked against, ms.
    pub slo_ms: f64,
}

/// Everything one monitoring window needs, as one value. The caller
/// passes the same request to [`begin_window`](ClusterBackend::begin_window)
/// and to every [`poll_window`](ClusterBackend::poll_window) of that
/// window, so a backend that measures in one poll keeps no state
/// between calls.
#[derive(Debug, Clone, Copy)]
pub struct WindowRequest {
    /// Offered load, requests/second.
    pub rps: f64,
    /// Settling time before measurement, seconds.
    pub warmup_s: f64,
    /// Measured window length, seconds.
    pub window_s: f64,
    /// §6 early-check cancellation, when enabled.
    pub early: Option<EarlyCheck>,
}

impl WindowRequest {
    /// A plain full-length window (no early checks).
    pub fn new(rps: f64, warmup_s: f64, window_s: f64) -> Self {
        Self {
            rps,
            warmup_s,
            window_s,
            early: None,
        }
    }

    /// Adds §6 early-check cancellation.
    ///
    /// # Panics
    /// Panics unless `check_s` is positive — a zero check period would
    /// make an incremental backend poll forever without advancing.
    pub fn with_early_check(mut self, check_s: f64, slo_ms: f64) -> Self {
        assert!(check_s > 0.0, "check interval must be positive");
        self.early = Some(EarlyCheck { check_s, slo_ms });
        self
    }
}

/// What polling an in-progress window yields.
#[derive(Debug, Clone)]
pub enum WindowPoll {
    /// Still measuring. `resume_at_s` is the backend virtual time at
    /// which the next poll is useful — a fleet scheduler services
    /// whichever loop has the smallest resume time next.
    Pending {
        /// Backend virtual time to re-poll at, seconds.
        resume_at_s: f64,
    },
    /// The window completed (or aborted on an early check).
    Ready {
        /// The window's observables (shortened when aborted).
        stats: WindowStats,
        /// Whether an early check cancelled the window.
        aborted: bool,
    },
}

/// The telemetry-source + actuator pair of Fig. 9, as one object.
///
/// A backend owns a (virtual or real) cluster running one application.
/// It is four methods, plus `begin`/`cancel` if it keeps a window in
/// flight between polls:
///
/// | method | Fig. 9 role |
/// |---|---|
/// | [`apply`](Self::apply) | Kubernetes: set CPU limits |
/// | [`allocation`](Self::allocation) | Kubernetes: read CPU limits |
/// | [`poll_window`](Self::poll_window) | Prometheus: scrape one monitoring window, with the §6 early checks when the request carries them |
/// | [`now_s`](Self::now_s) | the clock the window ran on |
/// | [`begin_window`](Self::begin_window) / [`cancel_window`](Self::cancel_window) | open / abandon a window served over several polls |
///
/// [`ControlLoop`](crate::ControlLoop) and [`Fleet`](crate::Fleet) drive
/// `begin_window`, then `poll_window` until it is
/// [`Ready`](WindowPoll::Ready); between polls a fleet services other
/// loops. [`measure_window`](Self::measure_window) and
/// [`measure_window_abortable`](Self::measure_window_abortable) are
/// that same loop, provided for callers that want one window and have
/// nothing else to do meanwhile — a backend never implements them.
///
/// Implementations must make `apply` take effect before the next
/// measurement and must report the *actual* measured duration in
/// [`WindowStats::duration_s`] (shorter than requested when an early
/// check aborts) — the conformance suite in
/// `tests/backend_conformance.rs` pins both.
pub trait ClusterBackend {
    /// Applies an allocation (cores per service) to the cluster. Takes
    /// effect before the next measurement.
    fn apply(&mut self, alloc: &Allocation);

    /// The allocation currently in force.
    fn allocation(&self) -> Allocation;

    /// Current virtual time, seconds. Strictly increases across
    /// measurements.
    fn now_s(&self) -> f64;

    /// Advances the window described by `req` — offered load `req.rps`
    /// for `req.warmup_s` (settling, discarded) plus `req.window_s`
    /// (measured) seconds — and returns [`WindowPoll::Ready`] once it
    /// completed, or aborted because the running p95 breached
    /// `req.early`'s SLO at one of its checks (the paper's §6
    /// high-resolution monitoring extension). `req` must be the request
    /// passed to [`begin_window`](Self::begin_window).
    ///
    /// A backend without intra-window visibility measures the whole
    /// window in its first poll and needs no `begin_window`. One with it
    /// (the DES, a live cluster) advances to the next check per poll and
    /// answers [`WindowPoll::Pending`] in between: the caller is free to
    /// service other loops, and a breach cancels the window at the next
    /// poll boundary. A poll must bound its own wait; a caller may
    /// re-poll immediately.
    fn poll_window(&mut self, req: &WindowRequest) -> WindowPoll;

    /// Starts the monitoring window described by `req` without blocking
    /// for it. The default prepares nothing, for backends whose
    /// [`poll_window`](Self::poll_window) measures in one shot.
    fn begin_window(&mut self, req: &WindowRequest) {
        let _ = req;
    }

    /// Abandons an in-progress window without producing statistics
    /// (fleet-level cancellation: a loop being torn down mid-window
    /// must not poison the backend for later use). The default is a
    /// no-op, for backends that never have a window in flight between
    /// calls.
    fn cancel_window(&mut self) {}

    /// Changes the modelled CPU speed factor (the Fig. 19 clock-change
    /// experiments). Backends without a mutable notion of hardware
    /// speed ignore it — a trace replay cannot re-run the past on
    /// different silicon.
    fn set_speed(&mut self, speed: f64) {
        let _ = speed;
    }

    /// One full-length window, start to finish: `begin_window`, then
    /// `poll_window` until ready.
    fn measure_window(&mut self, rps: f64, warmup_s: f64, window_s: f64) -> WindowStats {
        run_window(self, &WindowRequest::new(rps, warmup_s, window_s)).0
    }

    /// Like [`measure_window`](Self::measure_window) with §6 early
    /// checks every `check_s` seconds against `slo_ms`. Returns the
    /// (possibly shortened) stats and whether the window aborted.
    fn measure_window_abortable(
        &mut self,
        rps: f64,
        warmup_s: f64,
        window_s: f64,
        check_s: f64,
        slo_ms: f64,
    ) -> (WindowStats, bool) {
        let req = WindowRequest::new(rps, warmup_s, window_s).with_early_check(check_s, slo_ms);
        run_window(self, &req)
    }
}

fn run_window<B: ClusterBackend + ?Sized>(
    backend: &mut B,
    req: &WindowRequest,
) -> (WindowStats, bool) {
    backend.begin_window(req);
    loop {
        if let WindowPoll::Ready { stats, aborted } = backend.poll_window(req) {
            return (stats, aborted);
        }
    }
}

/// Forwarding impl so `Box<dyn ClusterBackend>` (and boxed concrete
/// backends) drive the loop directly — the trait is object-safe by
/// design, and heterogeneous backend collections (the conformance
/// suite, future backend registries) rely on it.
impl<B: ClusterBackend + ?Sized> ClusterBackend for Box<B> {
    fn apply(&mut self, alloc: &Allocation) {
        (**self).apply(alloc)
    }

    fn allocation(&self) -> Allocation {
        (**self).allocation()
    }

    fn now_s(&self) -> f64 {
        (**self).now_s()
    }

    fn poll_window(&mut self, req: &WindowRequest) -> WindowPoll {
        (**self).poll_window(req)
    }

    fn begin_window(&mut self, req: &WindowRequest) {
        (**self).begin_window(req)
    }

    fn cancel_window(&mut self) {
        (**self).cancel_window()
    }

    fn set_speed(&mut self, speed: f64) {
        (**self).set_speed(speed)
    }
}

/// The discrete-event simulator as a backend (full fidelity).
///
/// Construction matches what the pre-refactor harness did: the cluster
/// starts from the app's generous allocation and clients time out after
/// 8× the SLO (as a load generator would), so saturated intervals shed
/// their backlog instead of poisoning later measurements.
pub struct SimBackend {
    /// The wrapped simulator — public for backend-specific scripting
    /// (speed changes, trace sampling, …) that the trait deliberately
    /// does not cover.
    pub sim: ClusterSim,
    /// The window currently being polled, if any (the non-blocking
    /// seam's progress state).
    inflight: Option<OpenWindow>,
}

impl SimBackend {
    /// Standard backend for an app: fresh simulator seeded with `seed`,
    /// request timeout at 8× the SLO.
    pub fn new(app: &AppSpec, seed: u64) -> Self {
        let mut sim = ClusterSim::new(app, seed);
        sim.set_request_timeout(Some(app.slo_ms / 1e3 * 8.0));
        Self::from_sim(sim)
    }

    /// Wraps an already-configured simulator.
    pub fn from_sim(sim: ClusterSim) -> Self {
        Self {
            sim,
            inflight: None,
        }
    }
}

impl ClusterBackend for SimBackend {
    fn apply(&mut self, alloc: &Allocation) {
        self.sim.set_allocation(alloc);
    }

    fn allocation(&self) -> Allocation {
        self.sim.allocation()
    }

    fn now_s(&self) -> f64 {
        self.sim.now().as_secs()
    }

    fn begin_window(&mut self, req: &WindowRequest) {
        assert!(
            self.inflight.is_none(),
            "begin_window while a window is already in flight"
        );
        if let Some(e) = req.early {
            // `EarlyCheck` fields are public; catch a hand-built zero
            // period here instead of letting poll_window spin at a
            // fixed virtual time.
            assert!(e.check_s > 0.0, "check interval must be positive");
        }
        self.inflight = Some(self.sim.open_window(req.rps, req.warmup_s, req.window_s));
    }

    /// Without early checks the single poll runs the window to its end
    /// exactly like [`ClusterSim::run_window`]; with early checks each
    /// poll advances one check period ([`ClusterSim::advance_window`])
    /// and a breach of [`ClusterSim::window_p95_ms`] cancels the window
    /// at that poll boundary (the conformance suite and the
    /// `pema-bench` goldens pin both) while letting a fleet interleave
    /// other loops between checks.
    fn poll_window(&mut self, req: &WindowRequest) -> WindowPoll {
        let w = self
            .inflight
            .take()
            .expect("poll_window without begin_window");
        match req.early {
            None => {
                self.sim.advance_window(&w, req.window_s);
                WindowPoll::Ready {
                    stats: self.sim.close_window(w),
                    aborted: false,
                }
            }
            Some(e) => {
                let done = self.sim.advance_window(&w, e.check_s);
                let breached = self.sim.window_p95_ms().is_some_and(|p95| p95 > e.slo_ms);
                if breached || done {
                    WindowPoll::Ready {
                        stats: self.sim.close_window_measured(w),
                        aborted: breached,
                    }
                } else {
                    self.inflight = Some(w);
                    WindowPoll::Pending {
                        resume_at_s: self.sim.now().as_secs(),
                    }
                }
            }
        }
    }

    fn cancel_window(&mut self) {
        if let Some(w) = self.inflight.take() {
            self.sim.discard_window(w);
        }
    }

    fn set_speed(&mut self, speed: f64) {
        self.sim.set_speed(speed);
    }
}

/// The analytic fluid model as a backend (speed over fidelity).
///
/// Each measurement is one closed-form evaluation instead of millions
/// of simulated events, so a full policy run completes in microseconds.
/// Virtual time is book-kept locally (the evaluator itself is
/// stateless): each window advances the clock by `warmup_s + duration`,
/// matching the DES backend's timeline shape.
///
/// The model is deterministic — same allocation and load, same stats —
/// which makes fluid-backed scenarios trivially reproducible.
pub struct FluidBackend {
    eval: FluidEvaluator,
    alloc: Allocation,
    clock_s: f64,
}

impl FluidBackend {
    /// Builds the fluid backend for an app, starting (like the DES
    /// backend) from the generous allocation.
    pub fn new(app: &AppSpec) -> Self {
        Self {
            eval: FluidEvaluator::new(app),
            alloc: Allocation::new(app.generous_alloc.clone()),
            clock_s: 0.0,
        }
    }

    fn evaluate(&mut self, rps: f64, warmup_s: f64, window_s: f64) -> WindowStats {
        self.eval.window_s = window_s;
        let mut stats = self.eval.evaluate(&self.alloc, rps);
        stats.start_s = self.clock_s + warmup_s;
        self.clock_s += warmup_s + window_s;
        stats
    }
}

impl ClusterBackend for FluidBackend {
    fn apply(&mut self, alloc: &Allocation) {
        assert_eq!(
            alloc.len(),
            self.alloc.len(),
            "allocation length must match the app"
        );
        self.alloc.0.clone_from(&alloc.0);
    }

    fn allocation(&self) -> Allocation {
        self.alloc.clone()
    }

    fn poll_window(&mut self, req: &WindowRequest) -> WindowPoll {
        let Some(e) = req.early else {
            return WindowPoll::Ready {
                stats: self.evaluate(req.rps, req.warmup_s, req.window_s),
                aborted: false,
            };
        };
        // The fluid model has no intra-window dynamics: a violating
        // window violates from its first second, so an early check at
        // `check_s` catches it immediately and the interval shrinks to
        // exactly one check period. A healthy probe already *is* the
        // full-window result; only the abort branch re-evaluates (at
        // the shortened window, so the reported counters stay
        // duration-consistent).
        self.eval.window_s = req.window_s;
        let mut probe = self.eval.evaluate(&self.alloc, req.rps);
        if probe.violates(e.slo_ms) && e.check_s < req.window_s {
            WindowPoll::Ready {
                stats: self.evaluate(req.rps, req.warmup_s, e.check_s),
                aborted: true,
            }
        } else {
            probe.start_s = self.clock_s + req.warmup_s;
            self.clock_s += req.warmup_s + req.window_s;
            WindowPoll::Ready {
                stats: probe,
                aborted: false,
            }
        }
    }

    fn now_s(&self) -> f64 {
        self.clock_s
    }

    fn set_speed(&mut self, speed: f64) {
        self.eval.speed = speed;
    }
}
