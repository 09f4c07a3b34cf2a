//! Extension experiment — §6's high-resolution monitoring.
//!
//! The paper's stated limitation: "when PEMA causes an unintentional
//! SLO violation, it rolls back the resource configuration in the next
//! time step. Hence, the application suffers from bad performance
//! during the entire resource update interval … PEMA can be improved by
//! implementing higher resolution performance monitoring (e.g., within
//! 10 seconds), catching the SLO violations early."
//!
//! This experiment implements that improvement and quantifies it:
//! identical controllers run with and without a 10-second early
//! violation check; we compare total *time* spent in violation (the
//! user-visible exposure) and the resulting efficiency.

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let app = pema_apps::sockshop();
    let rps = 700.0;
    let iters = ctx.iters(50);
    let check_s = if ctx.smoke() { 2.0 } else { 10.0 };
    let opt = ctx.optimum_cached(&app, rps)?;
    let mut rows = Vec::new();
    let mut tbl = Vec::new();
    for (label, early) in [
        ("interval (paper)", None),
        ("10 s early check", Some(check_s)),
    ] {
        let runs = ctx.replicate(3, 10, |rep| {
            let mut params = PemaParams::defaults(app.slo_ms);
            // Slightly aggressive so violations actually occur.
            params.alpha = 0.3;
            params.seed = 0xEA7 + rep * 17;
            let policy = PemaController::new(params, app.generous_alloc.clone());
            let mut run = ctx.closed_loop(&app, 0xEC + rep)?.policy(policy);
            if let Some(s) = early {
                run = run.early_check(s);
            }
            Ok(run.rps(rps).iters(iters).run())
        })?;
        let (viols, viol_time) = (runs.violations, runs.violating_s);
        let avg_total = runs.mean_total();
        rows.push(format!(
            "{label},{viols},{viol_time:.1},{:.3}",
            avg_total / opt.total
        ));
        tbl.push(vec![
            label.to_string(),
            format!("{viols}"),
            format!("{viol_time:.0} s"),
            format!("{:.2}", avg_total / opt.total),
        ]);
    }
    ctx.print_table(
        "Extension: early violation mitigation (SockShop @700, 3 seeds)",
        &[
            "monitoring",
            "violations",
            "time in violation",
            "resource/OPTM",
        ],
        &tbl,
    );
    ctx.write_csv(
        "ablation_early",
        "setting,violations,violating_time_s,resource_norm_optm",
        &rows,
    )
}
