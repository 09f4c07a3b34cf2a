//! [`Experiment`] — the builder-style facade over the control loop.
//!
//! The builder describes a run against an app. The `pema-bench`
//! scenarios, `pema-cli run|live|fleet`, the examples and most tests
//! use it; `pema_trace::replay` and the benchmark harness, which have
//! a backend and a policy in hand, call
//! [`ControlLoop::new`](crate::ControlLoop::new) directly.
//!
//! ```
//! use pema_control::{Experiment, HarnessConfig};
//! use pema_core::{PemaController, PemaParams};
//!
//! let app = pema_apps::toy_chain();
//! let params = PemaParams::defaults(app.slo_ms);
//! let result = Experiment::builder()
//!     .app(&app)
//!     .policy(PemaController::new(params, app.generous_alloc.clone()))
//!     .config(HarnessConfig {
//!         interval_s: 10.0,
//!         warmup_s: 1.0,
//!         seed: 7,
//!     })
//!     .rps(150.0)
//!     .iters(3)
//!     .run();
//! assert_eq!(result.log.len(), 3);
//! ```
//!
//! The builder is generic over two slots:
//!
//! * **policy** — any value implementing [`Policy`];
//! * **backend** — [`UseSim`] (default), [`UseFluid`], or any value
//!   implementing [`ClusterBackend`] directly.
//!
//! The backend markers defer construction to
//! [`build`](ExperimentBuilder::build), so the app and seed can arrive
//! in any order. [`build`] hands back the fully wired
//! [`ControlLoop`](crate::ControlLoop) for stepping runs that script
//! the policy or backend mid-flight; [`run`](ExperimentBuilder::run)
//! drives the configured workload to completion in one call.
//!
//! [`build`]: ExperimentBuilder::build

use crate::backend::{ClusterBackend, FluidBackend, SimBackend};
use crate::control::{ControlLoop, HarnessConfig, Load, Observer, Run, RunResult};
use crate::fleet::ArbMeta;
use crate::policy::Policy;
use crate::telemetry::LoopTelemetry;
use pema_sim::AppSpec;
use pema_telemetry::{EventSink, Telemetry};
use pema_workload::Workload;

/// Entry point of the facade: [`Experiment::builder`].
pub struct Experiment;

impl Experiment {
    /// Starts a run description. Policy slot is empty (filling it is
    /// mandatory); backend slot defaults to the DES ([`UseSim`]).
    pub fn builder() -> ExperimentBuilder<Unset, UseSim> {
        ExperimentBuilder::new()
    }
}

/// Placeholder for the not-yet-chosen policy slot. Does not implement
/// [`Policy`], so forgetting `.policy(..)` is a compile error at
/// `.build()` / `.run()`.
pub struct Unset;

/// Backend marker: the discrete-event simulator ([`SimBackend::new`] —
/// generous allocation, 8×SLO request timeout), seeded from the
/// harness config. The builder's default.
pub struct UseSim;

/// Backend marker: the analytic fluid model ([`FluidBackend::new`]) —
/// orders of magnitude faster, approximate numbers, deterministic.
pub struct UseFluid;

/// Anything the builder's backend slot accepts: a marker (constructed
/// against the app + config at build time) or a ready
/// [`ClusterBackend`] instance.
pub trait IntoBackend {
    /// The concrete backend under the loop.
    type Backend: ClusterBackend;

    /// Builds the backend.
    fn into_backend(self, app: &AppSpec, cfg: &HarnessConfig) -> Self::Backend;
}

impl IntoBackend for UseSim {
    type Backend = SimBackend;

    fn into_backend(self, app: &AppSpec, cfg: &HarnessConfig) -> SimBackend {
        SimBackend::new(app, cfg.seed)
    }
}

impl IntoBackend for UseFluid {
    type Backend = FluidBackend;

    fn into_backend(self, app: &AppSpec, _cfg: &HarnessConfig) -> FluidBackend {
        FluidBackend::new(app)
    }
}

impl<B: ClusterBackend> IntoBackend for B {
    type Backend = B;

    fn into_backend(self, _app: &AppSpec, _cfg: &HarnessConfig) -> B {
        self
    }
}

/// The run description — see [`Experiment::builder`] for the grammar
/// and the crate docs for a full example. Under the name
/// [`MemberSpec`](crate::MemberSpec) it is also what a
/// [`Fleet`](crate::Fleet) member is described by: [`name`](Self::name),
/// [`priority`](Self::priority), [`weight`](Self::weight) and
/// [`floor`](Self::floor) are read by the fleet and inert outside one.
pub struct ExperimentBuilder<P = Unset, B = UseSim> {
    policy: P,
    backend: B,
    pub(crate) run: RunSpec,
}

/// What a run description holds whatever fills its two slots.
pub(crate) struct RunSpec {
    app: Option<AppSpec>,
    cfg: HarnessConfig,
    early_check_s: Option<f64>,
    load: Option<Load>,
    iters: usize,
    observers: Vec<Box<dyn Observer + Send>>,
    telemetry: Option<Telemetry>,
    events: Option<EventSink>,
    /// Read by [`Fleet::member`](crate::Fleet::member) only.
    pub(crate) name: Option<String>,
    pub(crate) arb: ArbMeta,
}

impl ExperimentBuilder {
    /// An empty run description (policy slot unset, DES backend) —
    /// what [`Experiment::builder`] returns.
    pub fn new() -> Self {
        Self {
            policy: Unset,
            backend: UseSim,
            run: RunSpec {
                app: None,
                cfg: HarnessConfig::default(),
                early_check_s: None,
                load: None,
                iters: 0,
                observers: Vec::new(),
                telemetry: None,
                events: None,
                name: None,
                arb: ArbMeta {
                    priority: 0,
                    weight: 1.0,
                    floor: 0.0,
                },
            },
        }
    }
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl<P, B> ExperimentBuilder<P, B> {
    /// The application under test (required).
    pub fn app(mut self, app: &AppSpec) -> Self {
        self.run.app = Some(app.clone());
        self
    }

    /// Full harness timing configuration (interval, warmup, seed).
    pub fn config(mut self, cfg: HarnessConfig) -> Self {
        self.run.cfg = cfg;
        self
    }

    /// Backend seed, keeping the current interval/warmup.
    pub fn seed(mut self, seed: u64) -> Self {
        self.run.cfg.seed = seed;
        self
    }

    /// Monitoring window per control interval, seconds.
    pub fn interval_s(mut self, interval_s: f64) -> Self {
        self.run.cfg.interval_s = interval_s;
        self
    }

    /// Settling time before each measurement, seconds.
    pub fn warmup_s(mut self, warmup_s: f64) -> Self {
        self.run.cfg.warmup_s = warmup_s;
        self
    }

    /// Enables §6 early violation checks every `check_s` seconds.
    pub fn early_check(mut self, check_s: f64) -> Self {
        self.run.early_check_s = Some(check_s);
        self
    }

    /// Constant offered load for [`run`](Self::run).
    pub fn rps(mut self, rps: f64) -> Self {
        self.run.load = Some(Load::Const(rps));
        self
    }

    /// Time-varying offered load for [`run`](Self::run), sampled at
    /// each interval start (backend virtual time). `Send` so the run
    /// can join a sharded [`Fleet`](crate::Fleet).
    pub fn workload(mut self, w: impl Workload + Send + 'static) -> Self {
        self.run.load = Some(Load::Pattern(Box::new(w)));
        self
    }

    /// Number of control intervals [`run`](Self::run) executes.
    pub fn iters(mut self, iters: usize) -> Self {
        self.run.iters = iters;
        self
    }

    /// Registers a per-interval observer (any
    /// `FnMut(&IterationLog, &WindowStats)` closure qualifies; `Send`
    /// so the run can join a sharded [`Fleet`](crate::Fleet) — share
    /// state through `Arc<Mutex<…>>`).
    pub fn observer(mut self, obs: impl Observer + Send + 'static) -> Self {
        self.run.observers.push(Box::new(obs));
        self
    }

    /// Attaches self-instrumentation: the loop records its interval
    /// counters and phase-span histograms into `hub` (labelled by the
    /// app's name), e.g. for a scrapeable
    /// [`MetricsServer`](pema_telemetry::MetricsServer). A pure side
    /// channel — run output is byte-identical with or without it.
    /// Superseded by [`Fleet::telemetry`](crate::Fleet::telemetry) when
    /// that is also set (the fleet re-labels members by their fleet
    /// names).
    pub fn telemetry(mut self, hub: &Telemetry) -> Self {
        self.run.telemetry = Some(hub.clone());
        self
    }

    /// Additionally streams one JSONL event per committed interval to
    /// `sink` (only meaningful together with
    /// [`telemetry`](Self::telemetry)).
    pub fn events(mut self, sink: EventSink) -> Self {
        self.run.events = Some(sink);
        self
    }

    /// The name [`FleetResult`](crate::FleetResult) reports this member
    /// by (default `app<i>` by insertion index).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.run.name = Some(name.into());
        self
    }

    /// Arbitration priority class — higher classes are served first
    /// under contention (default 0).
    pub fn priority(mut self, priority: i32) -> Self {
        self.run.arb.priority = priority;
        self
    }

    /// Weighted-fair-share weight under contention (default 1.0).
    ///
    /// # Panics
    /// Panics unless the weight is finite and non-negative.
    pub fn weight(mut self, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "MemberSpec::weight: must be finite and non-negative"
        );
        self.run.arb.weight = weight;
        self
    }

    /// Guaranteed minimum total cores under contention (default 0.0;
    /// a member is never forced above its own proposal — the effective
    /// floor is `min(floor, proposed)`).
    ///
    /// # Panics
    /// Panics unless the floor is finite and non-negative.
    pub fn floor(mut self, floor: f64) -> Self {
        assert!(
            floor.is_finite() && floor >= 0.0,
            "MemberSpec::floor: must be finite and non-negative"
        );
        self.run.arb.floor = floor;
        self
    }

    /// Fills the policy slot. Anything that is not a [`Policy`] is
    /// rejected here, not later at `.run()`:
    ///
    /// ```compile_fail,E0277
    /// let _ = pema_control::Experiment::builder().policy(3.0_f64);
    /// ```
    pub fn policy<Q: Policy>(self, policy: Q) -> ExperimentBuilder<Q, B> {
        ExperimentBuilder {
            policy,
            backend: self.backend,
            run: self.run,
        }
    }

    /// Fills the backend slot (marker or explicit [`ClusterBackend`]
    /// instance).
    pub fn backend<C>(self, backend: C) -> ExperimentBuilder<P, C> {
        ExperimentBuilder {
            policy: self.policy,
            backend,
            run: self.run,
        }
    }
}

impl<P: Policy, B: IntoBackend> ExperimentBuilder<P, B> {
    fn wire(self) -> (ControlLoop<P, B::Backend>, Option<Load>, usize) {
        let run = self.run;
        let app = run
            .app
            .expect("Experiment::builder(): call .app(..) before .build()/.run()");
        let backend = self.backend.into_backend(&app, &run.cfg);
        let mut control = ControlLoop::new(backend, self.policy, run.cfg);
        if let Some(check_s) = run.early_check_s {
            control = control.with_early_check(check_s);
        }
        for obs in run.observers {
            control.push_observer(obs);
        }
        if let Some(hub) = run.telemetry {
            let mut tel = LoopTelemetry::new(&hub, &app.name);
            if let Some(sink) = run.events {
                tel = tel.with_events(sink);
            }
            control.set_telemetry(tel);
        }
        (control, run.load, run.iters)
    }

    /// Wires everything up and hands back the loop for manual stepping
    /// (mid-run SLO / clock scripting, per-interval branching, …).
    pub fn build(self) -> ControlLoop<P, B::Backend> {
        self.wire().0
    }

    /// The described run, ready to drive — what [`run`](Self::run)
    /// drives and [`Fleet::member`](crate::Fleet::member) boxes.
    ///
    /// # Panics
    /// Panics unless both a load (`.rps(..)` / `.workload(..)`) and a
    /// positive `.iters(..)` were set.
    pub(crate) fn into_run(self) -> Run<P, B::Backend> {
        let (control, load, iters) = self.wire();
        Run::new(control, load, iters)
    }

    /// Wires everything up and drives the configured workload for the
    /// configured number of intervals.
    ///
    /// # Panics
    /// Panics unless both a load (`.rps(..)` / `.workload(..)`) and a
    /// positive `.iters(..)` were set.
    pub fn run(self) -> RunResult {
        self.into_run().drive()
    }
}
