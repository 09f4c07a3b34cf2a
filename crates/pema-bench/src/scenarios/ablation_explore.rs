//! Ablation — exploration (Eqn. 8) on/off.
//!
//! Without exploration (A = B = 0), unlucky early reductions can
//! strand PEMA at an inefficient allocation (§3.3, "escaping
//! sub-optimum configurations"); random walk-backs via the RHDb
//! recover the missed opportunities at the cost of transiently higher
//! allocation.

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let app = pema_apps::sockshop();
    let rps = 700.0;
    let iters = ctx.iters(60);
    let opt = ctx.optimum_cached(&app, rps)?;
    let mut rows = Vec::new();
    let mut tbl = Vec::new();
    for (label, a, b) in [
        ("off", 0.0, 0.0),
        ("low", 0.05, 0.005),
        ("high", 0.10, 0.01),
    ] {
        let runs = ctx.replicate(4, 10, |rep| {
            let mut params = PemaParams::defaults(app.slo_ms);
            params.explore_a = a;
            params.explore_b = b;
            params.seed = 0xAB2 + rep * 31;
            let policy = PemaController::new(params, app.generous_alloc.clone());
            let run = ctx.closed_loop(&app, 0xE0 + rep)?.policy(policy);
            Ok(run.rps(rps).iters(iters).run())
        })?;
        let (avg, worst) = (runs.mean_total(), runs.worst_total);
        rows.push(format!(
            "{label},{a},{b},{:.3},{:.3}",
            avg / opt.total,
            worst / opt.total
        ));
        tbl.push(vec![
            label.to_string(),
            format!("{:.2}", avg / opt.total),
            format!("{:.2}", worst / opt.total),
        ]);
    }
    ctx.print_table(
        "Ablation: exploration (SockShop @700, 4 seeds)",
        &["exploration", "avg resource/OPTM", "worst resource/OPTM"],
        &tbl,
    );
    ctx.write_csv(
        "ablation_explore",
        "setting,a,b,avg_norm_optm,worst_norm_optm",
        &rows,
    )
}
