//! # pema-core — the PEMA autoscaling controller (HPDC '22)
//!
//! Implementation of **PEMA** (Practical Efficient Microservice
//! Autoscaling): a lightweight, feedback-driven resource manager that
//! finds efficient CPU allocations for microservice applications
//! through *opportunistic, monotonic resource reduction* — without ML
//! training and without intentionally violating the SLO.
//!
//! The controller consumes one [`Observation`] per control interval
//! (p95 latency + per-service utilization and CFS throttling) and emits
//! the next allocation. The main types:
//!
//! * [`PemaController`] — Algorithm 1: reduction sizing (Eqns. 3/4,
//!   smoothed per Eqns. 10/11), bottleneck avoidance (Eqn. 5 with
//!   thresholds learned per Eqns. 6/7), RHDb rollback on violation,
//!   and randomized exploration (Eqn. 8).
//! * [`WorkloadAwarePema`] — §3.4: dynamic workload-range splitting
//!   with a workload-tilted response-time target (Eqn. 9).
//! * [`WorkloadRange`] — the workload interval §3.4's manager splits.
//! * [`Rhdb`] — the resource-allocation history database.
//!
//! ```
//! use pema_core::{Observation, PemaController, PemaParams, ServiceObs};
//!
//! let params = PemaParams::defaults(/*slo_ms=*/250.0);
//! let mut pema = PemaController::new(params, vec![2.0; 4]);
//! // One control interval: plenty of headroom, so PEMA reduces.
//! let obs = Observation {
//!     p95_ms: 80.0,
//!     rps: 500.0,
//!     services: vec![ServiceObs { util_pct: 12.0, throttle_s: 0.0 }; 4],
//! };
//! let outcome = pema.step(&obs);
//! assert!(outcome.alloc.iter().sum::<f64>() <= 8.0);
//! ```

pub mod config;
pub mod controller;
pub mod manager;
pub mod observation;
pub mod ranges;
pub mod rhdb;
pub mod target;

pub use config::PemaParams;
pub use controller::{Action, PemaController, StepOutcome};
pub use manager::{ManagerOutcome, RangeConfig, WorkloadAwarePema};
pub use observation::{Observation, ServiceObs};
pub use ranges::WorkloadRange;
pub use rhdb::{Rhdb, RhdbRecord};
pub use target::{DynamicTarget, SlopeLearner};
