//! Ablation — opportunistic bottleneck-threshold learning (Eqns. 6/7)
//! vs frozen initial thresholds.
//!
//! With frozen thresholds (utilization stuck at the conservative 15%,
//! throttling at 0 s), Eqn. 5's normalization treats *every* service
//! above 15% utilization as at-threshold (inclusion probability 0) and
//! any throttling excludes a service outright — so reduction stalls at
//! inflated allocations. Learning the per-service thresholds is what
//! lets PEMA keep carving.

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
    for (label, freeze) in [("adaptive", false), ("frozen", true)] {
        let runs = ctx.replicate(3, 10, |rep| {
            let mut params = PemaParams::defaults(app.slo_ms);
            params.freeze_thresholds = freeze;
            params.seed = 0xAB3 + rep * 13;
            let policy = PemaController::new(params, app.generous_alloc.clone());
            let run = ctx.closed_loop(&app, 0x7E + rep)?.policy(policy);
            Ok(run.rps(rps).iters(iters).run())
        })?;
        let (norm, viol_pct) = (runs.mean_total() / opt.total, runs.violation_pct());
        rows.push(format!("{label},{norm:.3},{viol_pct:.2}"));
        tbl.push(vec![
            label.to_string(),
            format!("{norm:.2}"),
            format!("{viol_pct:.1}%"),
        ]);
    }
    ctx.print_table(
        "Ablation: threshold learning (SockShop @700, 3 seeds)",
        &["thresholds", "resource/OPTM", "violations"],
        &tbl,
    );
    ctx.write_csv(
        "ablation_thresholds",
        "setting,resource_norm_optm,violations_pct",
        &rows,
    )
}
