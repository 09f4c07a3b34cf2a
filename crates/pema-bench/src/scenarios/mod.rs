//! The registered scenarios — one module per table/figure/ablation.
//!
//! Every module follows the same shape: a `run(ctx)` function with the
//! experiment logic — what the paper varies. CSV/table/cache plumbing,
//! the backend choice and the seed-replicated fold all live in
//! [`ExperimentCtx`](crate::ExperimentCtx); the module's row in
//! [`registry`](mod@crate::registry) binds it into the suite.

pub mod ablation_early;
pub mod ablation_explore;
pub mod ablation_fluid;
pub mod ablation_ma;
pub mod ablation_thresholds;
pub mod cluster_scale;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fleet_contention;
pub mod fleet_scale;
pub mod table1;
pub mod tail_knee;
pub mod trace_replay;
