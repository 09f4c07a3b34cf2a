//! # pema-control — the backend-agnostic control plane
//!
//! The paper's architecture (Fig. 9) is an explicit loop between three
//! parties: a telemetry source (Prometheus) PEMA *measures* from, the
//! PEMA decision logic itself, and an actuator (Kubernetes) PEMA
//! *applies* allocations through. This crate is that loop with the
//! parties held apart by traits, so the same decision logic drives any
//! execution environment:
//!
//! | Fig. 9 role | paper component | here |
//! |---|---|---|
//! | telemetry source | Prometheus + cAdvisor scrape | [`ClusterBackend::poll_window`] |
//! | actuator | Kubernetes CPU-limit patch | [`ClusterBackend::apply`] |
//! | decision logic | PEMA / manager / RULE | [`Policy`] implementations: [`PemaController`](pema_core::PemaController), [`WorkloadAwarePema`](pema_core::WorkloadAwarePema), [`RulePolicy`], [`HoldPolicy`] |
//! | control cycle | measure → observe → act → apply | [`ControlLoop`] |
//! | experiment wiring | testbed scripts | [`Experiment`] builder facade |
//! | fleet-wide deployment | one controller, many apps | [`Fleet`] cooperative scheduler |
//!
//! Two [`ClusterBackend`]s live here: [`SimBackend`] (the
//! discrete-event simulator — full fidelity, byte-identical to the
//! pre-refactor harness) and [`FluidBackend`] (the analytic fluid model
//! — orders of magnitude faster, for large-scale sweeps). Two more sit
//! one crate up: `pema_trace::TraceBackend` (replays a recorded run for
//! counterfactual policy evaluation — its `apply` is a no-op that
//! logs divergence from the tape) and `pema_live::LiveBackend`
//! (Prometheus + Kubernetes). Each is the trait's four required
//! methods, plus `begin_window`/`cancel_window` where a window stays
//! in flight between polls; nothing above the trait changes.
//!
//! ## Constructing runs
//!
//! The [`Experiment`] builder wires a policy value and a backend to an
//! app ([`ControlLoop::new`] is the same wiring without the app):
//!
//! ```
//! use pema_control::{Experiment, HarnessConfig, UseFluid};
//! use pema_core::{PemaController, PemaParams};
//!
//! let app = pema_apps::toy_chain();
//! let result = Experiment::builder()
//!     .app(&app)
//!     .policy(PemaController::new(
//!         PemaParams::defaults(app.slo_ms),
//!         app.generous_alloc.clone(),
//!     ))
//!     .backend(UseFluid) // drop this line for the full-fidelity DES
//!     .config(HarnessConfig::with_seed(7))
//!     .rps(150.0)
//!     .iters(10)
//!     .run();
//! assert_eq!(result.log.len(), 10);
//! ```
//!
//! `.build()` instead of `.run()` returns the [`ControlLoop`] for
//! stepping runs that script the policy or backend mid-flight (SLO
//! changes, CPU-clock changes, bursty traces). Many fully-described
//! members can instead be handed to a [`Fleet`]
//! (`Fleet::new().member(…).member(…).run()`, each member a builder —
//! [`MemberSpec`] is the same type), which drives them all concurrently
//! from one process over the
//! [`ClusterBackend::begin_window`]/[`poll_window`] seam — a fleet of
//! one is byte-identical to `.run()`, and per-member results are
//! scheduling-invariant (see the [`fleet`](Fleet) docs and
//! `docs/fleet.md`). A fleet may additionally share one CPU budget
//! across its members via `.arbitration(budget, policy)` — a
//! [`FleetPolicy`] ([`Unlimited`] / [`WeightedFairShare`] /
//! [`AimdBackoff`]) grants or cuts each member's proposed allocation
//! at a deterministic window-boundary barrier.
//!
//! [`poll_window`]: ClusterBackend::poll_window

mod arbitration;
mod backend;
mod control;
mod experiment;
mod fleet;
mod policy;
mod rule;
pub mod telemetry;

pub use arbitration::{
    squeeze_to_budget, AimdBackoff, ArbitrationEvent, ArbitrationRequest, FleetArbitration,
    FleetPolicy, MemberArbitration, Unlimited, WeightedFairShare,
};
pub use backend::{
    ClusterBackend, EarlyCheck, FluidBackend, SimBackend, WindowPoll, WindowRequest,
};
pub use control::{ControlLoop, HarnessConfig, IterationLog, LoopPoll, Observer, RunResult};
pub use experiment::{Experiment, ExperimentBuilder, IntoBackend, Unset, UseFluid, UseSim};
pub use fleet::{resolve_threads, Fleet, FleetResult, FleetRun, MemberSpec};
pub use policy::{policy_by_name, Decision, HoldPolicy, Policy};
pub use rule::RulePolicy;
pub use telemetry::LoopTelemetry;
