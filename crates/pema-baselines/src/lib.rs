//! # pema-baselines — the paper's comparison strategies
//!
//! * [`optm`] — OPTM: mechanized exhaustive search for the paper's
//!   local-optimum definition (any 0.1-CPU single-service reduction
//!   violates the SLO). The efficiency upper bound of Fig. 15.
//! * [`rule`] — RULE: Kubernetes-style rule-based vertical scaling
//!   (p90 of recent usage × 1.15 headroom), latency-blind.

pub mod optm;
pub mod rule;

pub use optm::{find_optimum, OptmConfig, OptmError, OptmResult};
pub use rule::RuleScaler;
