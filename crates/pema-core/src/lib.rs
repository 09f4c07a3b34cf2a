//! # pema-core — the PEMA autoscaling controller (HPDC '22)
//!
//! Implementation of **PEMA** (Practical Efficient Microservice
//! Autoscaling): a lightweight, feedback-driven resource manager that
//! finds efficient CPU allocations for microservice applications
//! through *opportunistic, monotonic resource reduction* — without ML
//! training and without intentionally violating the SLO.
//!
//! The controller consumes one [`pema_sim::WindowStats`] per control
//! interval — the window every backend measures — and reads four
//! signals from it: the p95 latency, the offered load, and each
//! service's CPU utilization and CFS throttling. It emits a
//! [`Decision`]: the next allocation and the [`Action`] that produced
//! it, a `Copy` value whose `Display` is the label the logs carry. The
//! main types:
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
//! use pema_core::{PemaController, PemaParams};
//! use pema_sim::{ServiceWindowStats, WindowStats};
//!
//! let params = PemaParams::defaults(/*slo_ms=*/250.0);
//! let mut pema = PemaController::new(params, vec![2.0; 4]);
//! // One control interval: plenty of headroom, so PEMA reduces.
//! let service = ServiceWindowStats { util_pct: 12.0, throttled_s: 0.0, ..Default::default() };
//! let window = WindowStats {
//!     p95_ms: 80.0,
//!     offered_rps: 500.0,
//!     per_service: vec![service; 4],
//!     ..Default::default()
//! };
//! let decision = pema.step(&window);
//! assert!(decision.alloc.iter().sum::<f64>() <= 8.0);
//! assert!(decision.action.to_string().starts_with("reduce("));
//! ```

pub mod config;
pub mod controller;
pub mod manager;
pub mod ranges;
pub mod rhdb;
pub mod target;

pub use config::PemaParams;
pub use controller::{Action, Decision, PemaController};
pub use manager::{RangeConfig, WorkloadAwarePema};
pub use ranges::WorkloadRange;
pub use rhdb::{Rhdb, RhdbRecord};
pub use target::{DynamicTarget, SlopeLearner};
