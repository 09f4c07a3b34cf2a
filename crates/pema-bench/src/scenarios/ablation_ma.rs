//! Ablation — the moving-average window K (Eqns. 10/11 vs raw Eqns.
//! 3/4).
//!
//! §3.5 of the paper motivates smoothing: transient dips in response
//! time otherwise bait PEMA into reductions that violate the SLO one
//! interval later. K = 1 disables smoothing; the paper uses K = 5.

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let app = pema_apps::sockshop();
    let rps = 700.0;
    let iters = ctx.iters(50);
    let opt = ctx.optimum_cached(&app, rps)?;
    let mut rows = Vec::new();
    let mut tbl = Vec::new();
    for k in [1usize, 3, 5, 9] {
        let runs = ctx.replicate(3, 10, |rep| {
            let mut params = PemaParams::defaults(app.slo_ms);
            params.ma_window = k;
            params.seed = 0xAB1 + rep * 7;
            let policy = PemaController::new(params, app.generous_alloc.clone());
            let run = ctx.closed_loop(&app, 0xAB + rep)?.policy(policy);
            Ok(run.rps(rps).iters(iters).run())
        })?;
        let avg_total = runs.mean_total();
        let viol_pct = runs.violation_pct();
        rows.push(format!("{k},{:.3},{viol_pct:.2}", avg_total / opt.total));
        tbl.push(vec![
            format!("{k}"),
            format!("{:.2}", avg_total / opt.total),
            format!("{viol_pct:.1}%"),
        ]);
    }
    ctx.print_table(
        "Ablation: moving-average window K (SockShop @700)",
        &["K", "resource/OPTM", "violations"],
        &tbl,
    );
    ctx.write_csv("ablation_ma", "k,resource_norm_optm,violations_pct", &rows)
}
