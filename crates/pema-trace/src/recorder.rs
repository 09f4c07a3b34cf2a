//! [`TraceRecorder`] — an [`Observer`] that captures a running
//! experiment into a [`Trace`].
//!
//! The recorder hooks the control loop's per-interval observer seam
//! (`Experiment::observer` / `ControlLoop::observe`), so recording is
//! completely non-invasive: the run under observation is byte-identical
//! with and without a recorder attached. Because `run()` consumes the
//! builder (and with it the boxed observer), the recorder hands out a
//! shared [`TraceHandle`] up front; take the finished trace from the
//! handle after the run.
//!
//! ```
//! use pema_control::{Experiment, HarnessConfig};
//! use pema_core::{PemaController, PemaParams};
//! use pema_trace::TraceRecorder;
//!
//! let app = pema_apps::toy_chain();
//! let cfg = HarnessConfig { interval_s: 5.0, warmup_s: 1.0, seed: 7 };
//! let mut params = PemaParams::defaults(app.slo_ms);
//! params.seed = 11;
//! let recorder = TraceRecorder::new(&app, "pema", params.seed, &cfg);
//! let handle = recorder.handle();
//! Experiment::builder()
//!     .app(&app)
//!     .policy(PemaController::new(params, app.generous_alloc.clone()))
//!     .config(cfg)
//!     .rps(120.0)
//!     .iters(2)
//!     .observer(recorder)
//!     .run();
//! assert_eq!(handle.take().records.len(), 2);
//! ```

use crate::format::{Trace, TraceMeta, TraceRecord};
use pema_control::{ArbitrationEvent, HarnessConfig, IterationLog, Observer};
use pema_sim::{Allocation, AppSpec, WindowStats};
use std::sync::{Arc, Mutex};

/// Shared handle to a trace being (or finished being) recorded.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    trace: Arc<Mutex<Trace>>,
    arbitration: Arc<Mutex<Vec<ArbitrationEvent>>>,
}

impl TraceHandle {
    /// Takes the recorded trace out of the handle, leaving an empty
    /// record list behind. Call after the observed run completed.
    pub fn take(&self) -> Trace {
        let mut inner = self.trace.lock().unwrap();
        Trace {
            meta: inner.meta.clone(),
            records: std::mem::take(&mut inner.records),
        }
    }

    /// A copy of the trace as recorded so far (mid-run snapshots).
    pub fn snapshot(&self) -> Trace {
        self.trace.lock().unwrap().clone()
    }

    /// The fleet-arbitration events observed so far (one per interval
    /// when the recorded member ran under `Fleet::arbitration`; empty
    /// otherwise). Kept as an in-memory side channel, deliberately
    /// outside the serialized [`Trace`] — the versioned JSONL format
    /// stays byte-stable for non-arbitrated runs, and a replayed
    /// member re-arbitrates live rather than replaying stale grants.
    pub fn arbitration(&self) -> Vec<ArbitrationEvent> {
        self.arbitration.lock().unwrap().clone()
    }

    /// Number of intervals recorded so far.
    pub fn len(&self) -> usize {
        self.trace.lock().unwrap().records.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The recording observer. See the module docs for the wiring pattern.
pub struct TraceRecorder {
    inner: Arc<Mutex<Trace>>,
    arbitration: Arc<Mutex<Vec<ArbitrationEvent>>>,
}

impl TraceRecorder {
    /// Builds a recorder for a run of `app` under the given policy tag
    /// and seed, timed by `cfg`. The header's `initial_alloc` is
    /// captured from the first observed window.
    ///
    /// The header's SLO defaults to the app's; the observer seam
    /// cannot see the policy, so a run under a policy whose SLO is not
    /// the app's must mirror it via
    /// [`with_slo_ms`](Self::with_slo_ms), and a run using
    /// `.early_check(..)` must mirror it via
    /// [`with_early_check`](Self::with_early_check) — otherwise the
    /// replay reconstructs the wrong run and diverges spuriously.
    pub fn new(
        app: &AppSpec,
        policy: impl Into<String>,
        policy_seed: u64,
        cfg: &HarnessConfig,
    ) -> Self {
        let meta = TraceMeta {
            app: app.name.clone(),
            services: app.service_names().iter().map(|s| s.to_string()).collect(),
            slo_ms: app.slo_ms,
            interval_s: cfg.interval_s,
            warmup_s: cfg.warmup_s,
            backend_seed: cfg.seed,
            policy: policy.into(),
            policy_seed,
            early_check_s: None,
            initial_alloc: Vec::new(),
        };
        Self {
            inner: Arc::new(Mutex::new(Trace {
                meta,
                records: Vec::new(),
            })),
            arbitration: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Records the SLO the run's policy actually targets, when it is
    /// not the app's own.
    pub fn with_slo_ms(self, slo_ms: f64) -> Self {
        self.inner.lock().unwrap().meta.slo_ms = slo_ms;
        self
    }

    /// Records that the observed run uses §6 early violation checks
    /// every `check_s` seconds, so replays re-enable the same mode.
    pub fn with_early_check(self, check_s: f64) -> Self {
        self.inner.lock().unwrap().meta.early_check_s = Some(check_s);
        self
    }

    /// The shared handle the finished trace is taken from.
    pub fn handle(&self) -> TraceHandle {
        TraceHandle {
            trace: Arc::clone(&self.inner),
            arbitration: Arc::clone(&self.arbitration),
        }
    }
}

impl Observer for TraceRecorder {
    fn on_interval(&mut self, log: &IterationLog, stats: &WindowStats) {
        let mut trace = self.inner.lock().unwrap();
        if trace.records.is_empty() {
            // The allocation in force during the first window is the
            // run's starting allocation — exactly what a replay must
            // start from.
            trace.meta.initial_alloc = stats.per_service.iter().map(|s| s.alloc_cores).collect();
        }
        trace.records.push(TraceRecord {
            iter: log.iter as u64,
            time_s: log.time_s,
            rps: log.rps,
            action: log.action.clone(),
            pema_id: log.pema_id as u64,
            // The loop applies `Allocation::new(decision.alloc)`, which
            // clamps to the cluster floor; record what was actually
            // applied so the replay comparison is apples-to-apples.
            alloc: Allocation::new(log.alloc.clone()).0,
            stats: stats.clone(),
        });
    }

    fn on_arbitration(&mut self, event: &ArbitrationEvent) {
        self.arbitration.lock().unwrap().push(*event);
    }
}
