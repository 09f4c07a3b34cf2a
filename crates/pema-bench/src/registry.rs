//! The scenario registry: one [`Scenario`] per table/figure/ablation
//! of the paper's evaluation, discoverable by id.
//!
//! Adding an experiment is ~30 lines: write a `fn run(ctx:
//! &mut ExperimentCtx) -> io::Result<()>` module under `scenarios/`,
//! call [`declare_scenario!`] in it, and list the unit struct here.
//!
//! [`declare_scenario!`]: crate::declare_scenario

use crate::ctx::ExperimentCtx;
use std::io;

/// One registered experiment.
pub trait Scenario: Sync {
    /// Stable id: CSV base name, CLI selector, RNG-stream root.
    fn id(&self) -> &'static str;

    /// One-line description shown by `pema-cli list`.
    fn about(&self) -> &'static str;

    /// CSV files (without `.csv`) this scenario writes — used to skip
    /// completed scenarios when re-running the suite without `--force`.
    /// (The [`declare_scenario!`] macro defaults this to `[id]`.)
    ///
    /// [`declare_scenario!`]: crate::declare_scenario
    fn outputs(&self) -> &'static [&'static str];

    /// Whether this scenario participates in the `--backend` matrix —
    /// its closed-loop runs flow through
    /// [`ExperimentCtx::loop_backend`], so `--backend fluid` /
    /// `trace:<path>` swap the execution environment under it. The
    /// [`declare_scenario!`] macro defaults this to `false`; a registry
    /// test pins the exact participant set, so every new scenario
    /// forces an explicit decision instead of silently opting out.
    ///
    /// [`ExperimentCtx::loop_backend`]: crate::ExperimentCtx::loop_backend
    /// [`declare_scenario!`]: crate::declare_scenario
    fn backend_matrix(&self) -> bool;

    /// Runs the experiment. All output goes through `ctx`.
    fn run(&self, ctx: &mut ExperimentCtx) -> io::Result<()>;
}

/// Declares the [`Scenario`] impl for a module exposing
/// `fn run(&mut ExperimentCtx) -> io::Result<()>`.
#[macro_export]
macro_rules! declare_scenario {
    ($ty:ident, id: $id:literal, about: $about:literal $(,)?) => {
        $crate::declare_scenario!($ty, id: $id, about: $about, outputs: [$id], backend_matrix: false);
    };
    ($ty:ident, id: $id:literal, about: $about:literal, backend_matrix: $bm:literal $(,)?) => {
        $crate::declare_scenario!($ty, id: $id, about: $about, outputs: [$id], backend_matrix: $bm);
    };
    ($ty:ident, id: $id:literal, about: $about:literal,
     outputs: [$($out:literal),+ $(,)?] $(,)?) => {
        $crate::declare_scenario!($ty, id: $id, about: $about, outputs: [$($out),+], backend_matrix: false);
    };
    ($ty:ident, id: $id:literal, about: $about:literal,
     outputs: [$($out:literal),+ $(,)?], backend_matrix: $bm:literal $(,)?) => {
        /// Registry entry for this scenario (see the module docs).
        pub struct $ty;

        impl $crate::Scenario for $ty {
            fn id(&self) -> &'static str {
                $id
            }

            fn about(&self) -> &'static str {
                $about
            }

            fn outputs(&self) -> &'static [&'static str] {
                &[$($out),+]
            }

            fn backend_matrix(&self) -> bool {
                $bm
            }

            fn run(&self, ctx: &mut $crate::ExperimentCtx) -> ::std::io::Result<()> {
                run(ctx)
            }
        }
    };
}

/// Every registered scenario, in suite order (the order the old `all`
/// binary ran them).
pub fn registry() -> &'static [&'static dyn Scenario] {
    use crate::scenarios::*;
    static REGISTRY: &[&dyn Scenario] = &[
        &fig05::Fig05,
        &fig06::Fig06,
        &fig07::Fig07,
        &fig08::Fig08,
        &table1::Table1,
        &fig11::Fig11,
        &fig12::Fig12,
        &fig13::Fig13,
        &fig14::Fig14,
        &fig15::Fig15,
        &fig16::Fig16,
        &fig17::Fig17,
        &fig18::Fig18,
        &fig19::Fig19,
        &fig20::Fig20,
        &ablation_ma::AblationMa,
        &ablation_explore::AblationExplore,
        &ablation_thresholds::AblationThresholds,
        &ablation_fluid::AblationFluid,
        &ablation_early::AblationEarly,
        &tail_knee::TailKnee,
        &cluster_scale::ClusterScale,
        &trace_replay::TraceReplay,
        &fleet_scale::FleetScale,
        &fleet_contention::FleetContention,
    ];
    REGISTRY
}
