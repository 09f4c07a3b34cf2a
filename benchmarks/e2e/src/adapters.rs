//! Timing adapters: pass-through implementations of the product's
//! public traits that record a span around each forwarded call. They
//! are installed only in the traced run; the untraced run drives the
//! product's own types directly.

use crate::spans::{Meter, Tracer};
use pema_control::{
    ArbitrationEvent, ArbitrationRequest, ClusterBackend, Decision, FleetPolicy, IterationLog,
    Observer, Policy, WindowPoll, WindowRequest,
};
use pema_sim::{Allocation, WindowStats};
use std::sync::Arc;
use std::time::Instant;

/// Span name of the step a single control loop takes; the harness opens
/// it around `ControlLoop::step_once`.
pub const LOOP_STEP: &str = "control.loop.step";
/// Span name of one `Fleet::run` call; the harness opens it.
pub const FLEET_RUN: &str = "control.fleet.run";

/// Span names of one backend layer.
pub struct BackendLayer {
    pub begin: &'static str,
    pub poll: &'static str,
    pub apply: &'static str,
}

pub const SIM_ENGINE: BackendLayer = BackendLayer {
    begin: "sim.engine.begin_window",
    poll: "sim.engine.poll_window",
    apply: "sim.engine.apply",
};
pub const SIM_FLUID: BackendLayer = BackendLayer {
    begin: "sim.fluid.begin_window",
    poll: "sim.fluid.poll_window",
    apply: "sim.fluid.apply",
};
pub const TRACE_BACKEND: BackendLayer = BackendLayer {
    begin: "trace.backend.begin_window",
    poll: "trace.backend.poll_window",
    apply: "trace.backend.apply",
};
pub const LIVE_BACKEND: BackendLayer = BackendLayer {
    begin: "live.backend.begin_window",
    poll: "live.backend.poll_window",
    apply: "live.backend.apply",
};

pub const DECIDE_PEMA: &str = "core.controller.decide";
pub const DECIDE_RULE: &str = "baselines.rule.decide";
pub const DECIDE_HOLD: &str = "control.policy.hold.decide";
pub const OBSERVE_RECORDER: &str = "trace.recorder.observe";
pub const ARBITRATE: &str = "control.arbitration.arbitrate";

/// A [`ClusterBackend`] that times the three calls the control loop
/// makes on its hot path. `member` tags the spans' interval ids.
pub struct TimedBackend<B> {
    pub inner: B,
    member: u64,
    windows: u64,
    begin: Meter,
    poll: Meter,
    apply: Meter,
}

impl<B> TimedBackend<B> {
    pub fn new(
        inner: B,
        layer: &BackendLayer,
        parent: &'static str,
        member: usize,
        tracer: &Arc<Tracer>,
    ) -> Self {
        TimedBackend {
            inner,
            member: (member as u64) << 32,
            windows: 0,
            begin: Meter::new(tracer, layer.begin, parent),
            poll: Meter::new(tracer, layer.poll, parent),
            apply: Meter::new(tracer, layer.apply, parent),
        }
    }

    fn interval(&self) -> u64 {
        self.member | self.windows
    }
}

impl<B: ClusterBackend> ClusterBackend for TimedBackend<B> {
    fn apply(&mut self, alloc: &Allocation) {
        let t0 = Instant::now();
        self.inner.apply(alloc);
        // The apply that ends interval k runs after window k closed.
        self.apply
            .record(t0, self.member | self.windows.saturating_sub(1));
    }

    fn allocation(&self) -> Allocation {
        self.inner.allocation()
    }

    fn measure_window(&mut self, rps: f64, warmup_s: f64, window_s: f64) -> WindowStats {
        self.inner.measure_window(rps, warmup_s, window_s)
    }

    fn measure_window_abortable(
        &mut self,
        rps: f64,
        warmup_s: f64,
        window_s: f64,
        check_s: f64,
        slo_ms: f64,
    ) -> (WindowStats, bool) {
        self.inner
            .measure_window_abortable(rps, warmup_s, window_s, check_s, slo_ms)
    }

    fn now_s(&self) -> f64 {
        self.inner.now_s()
    }

    fn begin_window(&mut self, req: &WindowRequest) {
        let t0 = Instant::now();
        self.inner.begin_window(req);
        self.begin.record(t0, self.interval());
    }

    fn poll_window(&mut self, req: &WindowRequest) -> WindowPoll {
        let t0 = Instant::now();
        let poll = self.inner.poll_window(req);
        self.poll.record(t0, self.interval());
        if matches!(poll, WindowPoll::Ready { .. }) {
            self.windows += 1;
        }
        poll
    }

    fn cancel_window(&mut self) {
        self.inner.cancel_window()
    }

    fn set_speed(&mut self, speed: f64) {
        self.inner.set_speed(speed)
    }
}

/// A [`Policy`] that times `decide` and counts control intervals.
pub struct TimedPolicy<P> {
    inner: P,
    tracer: Arc<Tracer>,
    member: u64,
    decisions: u64,
    decide: Meter,
}

impl<P> TimedPolicy<P> {
    pub fn new(
        inner: P,
        name: &'static str,
        parent: &'static str,
        member: usize,
        tracer: &Arc<Tracer>,
    ) -> Self {
        TimedPolicy {
            inner,
            tracer: Arc::clone(tracer),
            member: (member as u64) << 32,
            decisions: 0,
            decide: Meter::new(tracer, name, parent),
        }
    }
}

impl<P: Policy> Policy for TimedPolicy<P> {
    fn pre_interval(&mut self, rps: f64) -> Option<Allocation> {
        self.inner.pre_interval(rps)
    }

    fn decide(&mut self, stats: &WindowStats) -> Decision {
        let t0 = Instant::now();
        let decision = self.inner.decide(stats);
        self.decide.record(t0, self.member | self.decisions);
        self.decisions += 1;
        self.tracer.note_interval();
        decision
    }

    fn slo_ms(&self) -> f64 {
        self.inner.slo_ms()
    }
}

/// An [`Observer`] that times `on_interval`.
pub struct TimedObserver<O> {
    inner: O,
    member: u64,
    observe: Meter,
}

impl<O> TimedObserver<O> {
    pub fn new(
        inner: O,
        name: &'static str,
        parent: &'static str,
        member: usize,
        tracer: &Arc<Tracer>,
    ) -> Self {
        TimedObserver {
            inner,
            member: (member as u64) << 32,
            observe: Meter::new(tracer, name, parent),
        }
    }
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn on_interval(&mut self, log: &IterationLog, stats: &WindowStats) {
        let t0 = Instant::now();
        self.inner.on_interval(log, stats);
        self.observe.record(t0, self.member | log.iter as u64);
    }

    fn on_arbitration(&mut self, event: &ArbitrationEvent) {
        self.inner.on_arbitration(event)
    }
}

/// A [`FleetPolicy`] that times `arbitrate`.
pub struct TimedFleetPolicy<F> {
    inner: F,
    rounds: u64,
    arbitrate: Meter,
}

impl<F> TimedFleetPolicy<F> {
    pub fn new(inner: F, tracer: &Arc<Tracer>) -> Self {
        TimedFleetPolicy {
            inner,
            rounds: 0,
            arbitrate: Meter::new(tracer, ARBITRATE, FLEET_RUN),
        }
    }
}

impl<F: FleetPolicy> FleetPolicy for TimedFleetPolicy<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn arbitrate(&mut self, budget: f64, requests: &[ArbitrationRequest]) -> Vec<f64> {
        let t0 = Instant::now();
        let grants = self.inner.arbitrate(budget, requests);
        self.arbitrate.record(t0, self.rounds);
        self.rounds += 1;
        grants
    }

    fn enforces_budget(&self) -> bool {
        self.inner.enforces_budget()
    }
}
