//! Metric primitives for the PEMA reproduction.
//!
//! Two of the observables the paper's controller consumes are produced
//! by metric machinery in this crate:
//!
//! * end-to-end latency percentiles (Linkerd in the paper) — served by
//!   [`histogram::LatencyHistogram`];
//! * moving averages of the response time (Eqns. 10/11 of the paper) —
//!   served by [`window::MovingAvg`].
//!
//! Counters, gauges and their Prometheus exposition live in
//! `pema-telemetry`, the workspace's one metrics registry.
//!
//! Everything here is deterministic and allocation-conscious:
//! histograms are fixed-size log-bucketed arrays and the moving average
//! is a ring buffer.

pub mod histogram;
pub mod stats;
pub mod window;

pub use histogram::LatencyHistogram;
pub use stats::{linear_regression, mean, percentile_sorted};
pub use window::MovingAvg;
