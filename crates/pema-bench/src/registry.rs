//! The scenario registry: one [`Scenario`] row per table/figure/
//! ablation of the paper's evaluation, discoverable by id.
//!
//! Adding an experiment: write a `pub(crate) fn run(ctx: &mut
//! ExperimentCtx) -> io::Result<()>` module under `scenarios/` (the
//! median one is 76 lines, docs included) and add its row to
//! `SCENARIOS`.

use crate::ctx::ExperimentCtx;
use crate::scenarios::*;
use std::io;

/// One registered experiment.
pub struct Scenario {
    /// Stable id: CLI selector, RNG-stream root.
    pub id: &'static str,
    /// One-line description shown by `pema-cli list`.
    pub about: &'static str,
    /// CSV files (without `.csv`) the scenario writes — a suite run
    /// without `--force` skips a scenario whose outputs all exist.
    pub outputs: &'static [&'static str],
    /// Whether `--backend` reaches the scenario. This is the switch,
    /// not a label: the context of a `false` row is built on the DES
    /// whatever the flag says ([`ExperimentCtx::closed_loop`] and
    /// [`ExperimentCtx::measure`] read the context's selection). A
    /// registry test pins the participant set, so a new row is an
    /// explicit decision either way.
    pub backend_matrix: bool,
    /// Runs the experiment. All output goes through `ctx`.
    pub run: fn(&mut ExperimentCtx) -> io::Result<()>,
}

const fn row(
    id: &'static str,
    outputs: &'static [&'static str],
    backend_matrix: bool,
    run: fn(&mut ExperimentCtx) -> io::Result<()>,
    about: &'static str,
) -> Scenario {
    Scenario {
        id,
        about,
        outputs,
        backend_matrix,
        run,
    }
}

/// Every scenario, in suite order.
#[rustfmt::skip]
const SCENARIOS: &[Scenario] = &[
    row("fig05", &["fig05"], true, fig05::run, "good vs bad resource distribution at equal totals (3 apps x 3 workloads)"),
    row("fig06", &["fig06"], true, fig06::run, "SockShop good vs bad per-service allocation/utilization at one total"),
    row("fig07", &["fig07a", "fig07b"], true, fig07::run, "monotonic-reduction evidence: latency-change CDF + reduction trajectories"),
    row("fig08", &["fig08"], false, fig08::run, "bottleneck signatures: utilization vs throttling sweeps (TrainTicket)"),
    row("table1", &["table1", "table1_feature_study"], false, table1::run, "bottleneck classification accuracy (util + throttling features)"),
    row("fig11", &["fig11"], true, fig11::run, "PEMA iterative execution on SockShop, high vs low exploration"),
    row("fig12", &["fig12"], true, fig12::run, "PEMA iterative execution on TrainTicket and HotelReservation"),
    row("fig13", &["fig13"], true, fig13::run, "dynamic workload-range splitting on TrainTicket (200-300 rps)"),
    row("fig14", &["fig14"], true, fig14::run, "36-hour diurnal execution on SockShop (workload-aware manager)"),
    row("fig15", &["fig15"], true, fig15::run, "efficiency comparison PEMA vs OPTM vs RULE (3 apps x 3 workloads)"),
    row("fig16", &["fig16"], true, fig16::run, "alpha sensitivity sweep (reduction aggressiveness), beta = 0.3"),
    row("fig17", &["fig17"], true, fig17::run, "beta sensitivity sweep (max per-step reduction), alpha = 0.5"),
    row("fig18", &["fig18"], true, fig18::run, "bursty-workload handling on SockShop (pre-emptive range switching)"),
    row("fig19", &["fig19"], true, fig19::run, "adaptability to CPU clock changes (1.8 -> 1.6 -> 2.0 GHz)"),
    row("fig20", &["fig20"], true, fig20::run, "adaptability to dynamic SLO changes (250 -> 120 -> 400 ms)"),
    row("ablation_ma", &["ablation_ma"], false, ablation_ma::run, "ablation: moving-average window K for reduction sizing"),
    row("ablation_explore", &["ablation_explore"], false, ablation_explore::run, "ablation: exploration off/low/high (Eqn. 8)"),
    row("ablation_thresholds", &["ablation_thresholds"], false, ablation_thresholds::run, "ablation: adaptive vs frozen bottleneck thresholds (Eqns. 6/7)"),
    row("ablation_fluid", &["ablation_fluid"], false, ablation_fluid::run, "ablation: fluid vs DES evaluator fidelity and speedup"),
    row("ablation_early", &["ablation_early"], false, ablation_early::run, "extension: 10-second early violation checks vs full-interval monitoring"),
    row("tail_knee", &["tail_knee"], false, tail_knee::run, "DES p95 knee sweep — fluid tail-model calibration fixture"),
    row("cluster_scale", &["cluster_scale"], false, cluster_scale::run, "120-service PEMA workload sweep vs fluid OPTM (fluid backend)"),
    row("trace_replay", &["trace_replay"], false, trace_replay::run, "record a DES PEMA run, replay under PEMA/RULE/HOLD (counterfactual CSV)"),
    row("fleet_scale", &["fleet_scale", "fleet_scale_apps"], false, fleet_scale::run, "64-app concurrent fleet, one control process (mixed PEMA/RULE/HOLD, fluid)"),
    row("fleet_contention", &["fleet_contention", "fleet_contention_rounds"], false, fleet_contention::run, "arbitrated fleet under contention: overcommit (aimd), noisy neighbor + priority flash crowd (fair)"),
];

/// Every registered scenario, in suite order.
pub fn registry() -> &'static [Scenario] {
    SCENARIOS
}
