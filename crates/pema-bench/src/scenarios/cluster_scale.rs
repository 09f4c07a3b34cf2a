//! Beyond-the-paper scale-out — a PEMA workload sweep over the
//! 120-service `cluster-scale` topology on the fluid backend.
//!
//! The paper's largest application has 41 services; this scenario runs
//! the unmodified PEMA controller across a six-level workload band on a
//! synthetic 120-service cluster (24 replicated five-service chains on
//! 8 nodes). On the discrete-event backend one such closed-loop run
//! takes minutes; the whole sweep here — hundreds of control intervals
//! per load level — finishes in milliseconds because the
//! `ClusterBackend` trait lets the identical `ControlLoop` + policy run
//! against the analytic fluid model instead.
//!
//! Per load level the sweep reports the fluid-model OPTM total as a
//! reference lower bound (searched on the *same* model, so the
//! comparison is internally consistent), PEMA's settled total and
//! normalized efficiency, the interval at which PEMA converged, and its
//! violation count. Caveats inherent to the fluid model: its latency
//! knee is far flatter than the DES's, so the OPTM bound exploits the
//! SLO much more aggressively than a DES-backed search would, and at
//! light load the 0.05-core allocation floor dominates both totals.
//! Exploration is disabled (`A = B = 0`) so the settled totals are
//! clean of the random walk-backs the ablation scenarios study.

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let app = pema_apps::cluster_scale(24); // 120 services
    let generous: f64 = app.generous_alloc.iter().sum();
    // `cluster_scale` is sized for roughly 40 rps per replica chain
    // (960 rps total); sweep from light load to 1.5× nominal.
    let full_loads = [240.0, 480.0, 720.0, 960.0, 1200.0, 1440.0];
    let loads: &[f64] = if ctx.smoke() {
        &full_loads[..2]
    } else {
        &full_loads
    };
    let iters = ctx.iters(60);

    let mut rows = Vec::new();
    let mut tbl = Vec::new();
    let t0 = std::time::Instant::now();
    for &rps in loads {
        // Reference bound on the same model (not the DES-backed shared
        // cache — mixing models would make the ratio meaningless).
        let opt = fluid_optimum_for(&app, rps)
            .expect("generous allocation must satisfy the SLO on the fluid model");

        let mut params = PemaParams::defaults(app.slo_ms);
        params.seed = 0xC5CA;
        params.explore_a = 0.0;
        params.explore_b = 0.0;
        let pema = Experiment::builder()
            .app(&app)
            .policy(PemaController::new(params, app.generous_alloc.clone()))
            .backend(UseFluid)
            .config(ctx.harness_cfg(0xC5))
            .rps(rps)
            .iters(iters)
            .run();

        let settled = pema.settled_total(10);
        let converge_iter = pema
            .log
            .iter()
            .find(|l| l.total_cpu <= settled * 1.05)
            .map_or(iters, |l| l.iter);
        let norm = settled / opt.total;
        rows.push(format!(
            "{rps:.0},{:.3},{settled:.3},{norm:.3},{converge_iter},{}",
            opt.total,
            pema.violations()
        ));
        tbl.push(vec![
            format!("{rps:.0}"),
            format!("{:.1}", opt.total),
            format!("{settled:.1}"),
            format!("{norm:.2}"),
            format!("{converge_iter}"),
            format!("{}", pema.violations()),
        ]);
    }
    ctx.say(format!(
        "swept {} load levels × {iters} intervals × {} services on the fluid \
         backend in {:.2?} (generous = {generous:.0} cores)",
        loads.len(),
        app.n_services(),
        t0.elapsed()
    ));
    ctx.print_table(
        "cluster-scale: PEMA across the workload band, 120 services (fluid backend)",
        &[
            "rps",
            "fluidOPTM",
            "PEMA cpu",
            "vs OPTM",
            "convergeIt",
            "viol",
        ],
        &tbl,
    );
    ctx.write_csv(
        "cluster_scale",
        "rps,fluid_optm_total,pema_settled,pema_norm_optm,converge_iter,violations",
        &rows,
    )
}
