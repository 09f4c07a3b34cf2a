//! # pema-sim — discrete-event microservice cluster simulator
//!
//! The substrate for the PEMA (HPDC '22) reproduction. The paper runs
//! three microservice applications on a five-node Kubernetes cluster;
//! this crate replaces that testbed with a discrete-event simulation
//! that reproduces the observables the autoscaler interacts with:
//!
//! * **end-to-end p95 latency** of requests walking the service call
//!   graph (open-loop Poisson arrivals, log-normal CPU demands,
//!   sequential/parallel/probabilistic fan-out, per-hop network delay);
//! * **CFS bandwidth throttling**: each service has quota = allocation
//!   × 100 ms per period; bursts of concurrent work exhaust the quota
//!   early in a period and stall the container until the boundary —
//!   which is why a service can throttle heavily while its *average*
//!   utilization stays low, the phenomenon PEMA's bottleneck detection
//!   relies on (paper Fig. 8);
//! * **per-service utilization / usage percentiles** that rule-based
//!   autoscalers consume.
//!
//! ## Hot-path design
//!
//! The engine is tuned so steady-state simulation is allocation-free
//! and cache-friendly without changing a single simulated outcome
//! (golden-snapshot tests in `pema-bench` pin CSVs byte-for-byte):
//!
//! * **event scheduling** — visit events flow through an index-based
//!   [`CalendarQueue`] (bucket ring + overflow heap, amortized O(1)),
//!   while timer- and arrival-class events live in per-service /
//!   per-chain *slots* where a reschedule is an O(1) overwrite: no
//!   stale events exist anywhere, and a two-level argmin index keeps
//!   the timer table scalable to cluster-sized topologies;
//! * **visit slot pool** — in-flight visits live in a generation-
//!   checked arena ([`runtime::VisitSlot`]) with a free list, and the
//!   per-job integration state rides inline in each service's running
//!   list ([`runtime::RunningJob`]) so the per-event integration walks
//!   contiguous memory;
//! * **precomputed samplers** — per-endpoint log-normal parameters and
//!   the request-class weight mass are derived once at construction
//!   ([`rng::LogNormal`], [`rng::weight_total`]), bit-identical to
//!   resampling the parameters per arrival;
//! * **batched usage sampling** — the per-second usage buckets update
//!   through a cached bucket cursor (one integer compare per event in
//!   the common case), and scratch buffers make fan-out and timer
//!   handling allocation-free.
//!
//! `ClusterSim::events_processed` counts scheduled events resolved;
//! the repo benchmark (`BENCHMARK.json`, `sim.engine.ns_per_event` on
//! `des_closed_loop`) divides wall time by it.
//!
//! ## Beside the engine
//!
//! | module | contents |
//! |---|---|
//! | [`fluid`] | the analytic fluid model: the same observables, orders of magnitude faster |
//! | [`evaluator`] | [`Evaluator`], the "what does allocation x do at load λ?" seam both models implement |
//! | [`optm`] | OPTM, the paper's optimum baseline (§4.2): a search over an [`Evaluator`] |
//! | [`pattern`], [`mmpp`], [`wiki`] | the loads a run is offered: step, burst, diurnal, trace, MMPP and Wikipedia-shaped [`Workload`]s |
//!
//! ## Quick start
//!
//! ```
//! use pema_sim::{Allocation, ClusterSim};
//! use pema_sim::topology::{AppSpec, CallGroup, EndpointNode, NodeSpec,
//!                          RequestClass, ServiceId, ServiceSpec};
//!
//! // A two-service chain: frontend -> backend.
//! let app = AppSpec {
//!     name: "demo".into(),
//!     services: vec![
//!         ServiceSpec::new("frontend", 0.002),
//!         ServiceSpec::new("backend", 0.004),
//!     ],
//!     endpoints: vec![
//!         EndpointNode { service: ServiceId(0), work_scale: 1.0,
//!                        groups: vec![CallGroup { calls: vec![(1, 1.0)] }] },
//!         EndpointNode { service: ServiceId(1), work_scale: 1.0, groups: vec![] },
//!     ],
//!     classes: vec![RequestClass { name: "get".into(), weight: 1.0, root: 0 }],
//!     nodes: vec![NodeSpec { cores: 20.0 }],
//!     net_delay_s: 0.0003,
//!     slo_ms: 100.0,
//!     generous_alloc: vec![2.0, 2.0],
//! };
//! let mut sim = ClusterSim::new(&app, 42);
//! let stats = sim.run_window(/*rps=*/50.0, /*warmup=*/1.0, /*window=*/5.0);
//! assert!(stats.p95_ms < app.slo_ms);
//! ```

pub mod engine;
pub mod evaluator;
pub mod fluid;
pub mod mmpp;
pub mod optm;
pub mod pattern;
pub mod queue;
pub mod rng;
pub mod runtime;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;
pub mod wiki;

pub use engine::{ClusterSim, OpenWindow};
pub use evaluator::{Evaluator, SimEvaluator};
pub use fluid::{
    FluidEvaluator, TailCurve, TailModel, BURST_P90_DEFAULT, LEGACY_P95_FACTOR, PEAK_FACTOR_DEFAULT,
};
pub use mmpp::{MmppState, MmppWorkload};
pub use optm::{find_optimum, optimum_for, OptmConfig, OptmError, OptmResult};
pub use pattern::{BurstPattern, DiurnalPattern, StepPattern, TracePattern, Workload};
pub use queue::CalendarQueue;
pub use stats::{ServiceWindowStats, WindowStats};
pub use time::{SimDuration, SimTime};
pub use topology::{Allocation, AppSpec, ServiceId, ServiceSpec, TopologyError, MIN_ALLOC};
pub use trace::{attribute, tail_traces, RequestTrace, ServiceAttribution, TraceSpan};
pub use wiki::wikipedia_like_trace;
