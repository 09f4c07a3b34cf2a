//! # pema-trace — trace record/replay for counterfactual policy evaluation
//!
//! The paper's whole pitch is evaluating PEMA against real operating
//! history without risking QoS in production. This crate is that
//! capability for the reproduction: it records control-loop runs into
//! a versioned on-disk format and replays them through a
//! [`ClusterBackend`](pema_control::ClusterBackend), so any policy can
//! be A/B-evaluated against a recorded run — a DES run, or a
//! `pema-cli live --dry-run --out` tape of a real cluster — without
//! re-simulating (or re-running) anything.
//!
//! Three pieces:
//!
//! | piece | role |
//! |---|---|
//! | [`TraceRecorder`] | an [`Observer`](pema_control::Observer) that captures every interval (full [`WindowStats`](pema_sim::WindowStats), decision tag, applied allocation, timestamps) into a [`Trace`] |
//! | [`Trace`] | the versioned, schema-checked JSONL format (strict + lenient readers, bit-exact floats) |
//! | [`TraceBackend`] | a `ClusterBackend` that replays the tape: `apply` is a no-op that logs counterfactual allocations and [divergence metrics](IntervalDivergence) |
//!
//! ## Record, then replay
//!
//! ```
//! use pema_control::{Experiment, HarnessConfig};
//! use pema_core::{PemaController, PemaParams};
//! use pema_trace::{replay, TraceRecorder};
//!
//! let app = pema_apps::toy_chain();
//! let cfg = HarnessConfig { interval_s: 5.0, warmup_s: 1.0, seed: 7 };
//! let mut params = PemaParams::defaults(app.slo_ms);
//! params.seed = 21;
//!
//! // Record a DES run.
//! let recorder = TraceRecorder::new(&app, "pema", params.seed, &cfg);
//! let handle = recorder.handle();
//! Experiment::builder()
//!     .app(&app)
//!     .policy(PemaController::new(params.clone(), app.generous_alloc.clone()))
//!     .config(cfg)
//!     .rps(120.0)
//!     .iters(3)
//!     .observer(recorder)
//!     .run();
//! let trace = handle.take();
//!
//! // Replay it under the identical policy: zero divergence, and the
//! // recorded decision sequence is reproduced exactly.
//! let rerun = replay(
//!     &trace,
//!     PemaController::new(params, trace.meta.initial_alloc.clone()),
//! );
//! assert!(rerun.summary.is_zero());
//! for (recorded, replayed) in trace.records.iter().zip(&rerun.result.log) {
//!     assert_eq!(recorded.action, replayed.action);
//! }
//! ```
//!
//! Replaying a *different* policy is the counterfactual evaluation:
//! the [`DivergenceSummary`] quantifies how far its allocations drift
//! from the recorded ones and how often they *would have* violated
//! the SLO (via the work-conservation check described in
//! [`backend`] — the tape cannot know counterfactual
//! queueing, so saturation is the honest signal). The `trace_replay`
//! bench scenario and `pema-cli run --out`/`replay` wrap exactly this
//! flow; the format spec lives in `docs/trace-format.md`.

pub mod backend;
pub mod format;
pub mod prom;
pub mod recorder;

pub use backend::{
    rebase_stats, replay, DivergenceSummary, IntervalDivergence, ReplayRun, TraceBackend,
};
pub use format::{
    ReadMode, Trace, TraceError, TraceMeta, TraceRecord, FORMAT_NAME, FORMAT_VERSION,
};
pub use recorder::{TraceHandle, TraceRecorder};
