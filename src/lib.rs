//! # PEMA — Practical Efficient Microservice Autoscaling (HPDC '22)
//!
//! A full-system reproduction of Hossen, Islam & Ahmed, *"Practical
//! Efficient Microservice Autoscaling with QoS Assurance"* (HPDC '22),
//! in Rust. The paper's Kubernetes testbed is replaced by a
//! discrete-event cluster simulator that reproduces the observables the
//! autoscaler consumes; everything above that line — the PEMA
//! controller, the workload-aware range manager, the OPTM and RULE
//! baselines, the three benchmark applications, and the full
//! experiment suite — is implemented as published.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | `pema` (this crate) | umbrella re-exports, the [`prelude`], the examples |
//! | [`pema_control`] | backend-agnostic control plane: [`ClusterBackend`](pema_control::ClusterBackend), [`ControlLoop`](pema_control::ControlLoop), [`Experiment`](pema_control::Experiment) facade; the RULE baseline |
//! | [`pema_core`] | the PEMA controller (Algorithm 1, Eqns. 3–11) and its workload ranges |
//! | [`pema_sim`] | DES cluster: CFS throttling, thread pools, tail latency; the fluid model, OPTM search and load patterns |
//! | [`pema_apps`] | SockShop (13), TrainTicket (41), HotelReservation (18) |
//! | [`pema_metrics`] | histograms, quantiles, windows |
//! | [`pema_trace`] | trace record/replay: versioned JSONL traces, [`TraceBackend`](pema_trace::TraceBackend) counterfactual replayer |
//! | [`pema_live`] | live-cluster adapter: [`LiveBackend`](pema_live::LiveBackend) scrapes Prometheus / patches Kubernetes over hand-rolled HTTP, plus the in-process [`FakeCluster`](pema_live::FakeCluster) test server |
//! | `pema-bench` | scenario registry + parallel deterministic executor, the bottleneck-detection study (paper Table 1); hosts `pema-cli`, the one executable |
//!
//! ## The experiment suite
//!
//! Every figure/table of the paper's evaluation is a registered
//! *scenario* in `pema-bench`, and `pema-cli list|all|run <id>…` runs
//! any subset across worker threads with byte-identical results for
//! any `--jobs` value. `pema-bench` sits above this crate (its
//! scenarios are written against the [`prelude`]), which is why the
//! executable lives there. CSVs land under `$PEMA_RESULTS_DIR`
//! (default `./results`):
//!
//! ```text
//! pema-cli list                 show the registry
//! pema-cli all  --jobs 4        run the full suite
//! pema-cli run  fig05 --smoke   tiny-duration sanity pass of one figure
//! pema-cli help                 every command; `<command> --help` its flags
//! ```
//!
//! ## Quick start
//!
//! Runs are described through the [`Experiment`](pema_control::Experiment)
//! builder: pick an app, a policy value, a backend (DES by default,
//! [`UseFluid`](pema_control::UseFluid) for fast approximate sweeps),
//! and a load:
//!
//! ```
//! use pema::prelude::*;
//!
//! let app = pema_apps::sockshop();
//! let params = PemaParams::defaults(app.slo_ms);
//! let result = Experiment::builder()
//!     .app(&app)
//!     .policy(PemaController::new(params, app.generous_alloc.clone()))
//!     .config(HarnessConfig { interval_s: 10.0, warmup_s: 2.0, seed: 7 })
//!     .rps(700.0)
//!     .iters(5)
//!     .run();
//! assert_eq!(result.log.len(), 5);
//! ```

pub use pema_apps;
pub use pema_control;
pub use pema_core;
pub use pema_live;
pub use pema_metrics;
pub use pema_sim;
pub use pema_telemetry;
pub use pema_trace;

/// Common imports for examples and experiments.
pub mod prelude {
    pub use pema_control::{
        policy_by_name, resolve_threads, AimdBackoff, ArbitrationEvent, ClusterBackend,
        ControlLoop, Experiment, ExperimentBuilder, Fleet, FleetArbitration, FleetPolicy,
        FleetResult, FluidBackend, HarnessConfig, HoldPolicy, IterationLog, MemberSpec, Observer,
        Policy, RulePolicy, RunResult, SimBackend, Unlimited, UseFluid, UseSim, WeightedFairShare,
    };
    pub use pema_core::{
        PemaController, PemaParams, RangeConfig, WorkloadAwarePema, WorkloadRange,
    };
    pub use pema_live::{FakeCluster, KubeConfigLite, LiveBackend, LiveConfig, WallClock};
    pub use pema_sim::{
        find_optimum, optimum_for, wikipedia_like_trace, Allocation, AppSpec, BurstPattern,
        ClusterSim, Evaluator, FluidEvaluator, OptmConfig, SimEvaluator, StepPattern, TailCurve,
        TailModel, WindowStats, Workload,
    };
    pub use pema_telemetry::{EventSink, MetricsServer, Telemetry};
    pub use pema_trace::{
        rebase_stats_with, replay, ReadMode, ReplayRun, Trace, TraceBackend, TraceRecorder,
    };
}
