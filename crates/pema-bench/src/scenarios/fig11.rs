//! Fig. 11 — PEMA's iterative execution on SockShop at 700 rps under
//! high (A=0.1, B=0.01) and low (A=0.05, B=0.005) exploration.
//!
//! Shows total CPU allocation and p95 response per iteration; both
//! settings converge near the optimum (8.8 CPU in the paper; the
//! dashed optimum here is the cached OPTM result), with exploration
//! occasionally jumping back to older allocations.
//!
//! Participates in the backend matrix: the closed-loop runs come from
//! `ctx.closed_loop`, so `--backend fluid` (or `trace:<path>`) swaps
//! the execution environment.

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let app = pema_apps::sockshop();
    let rps = 700.0;
    let iters = ctx.iters(70);
    let opt = ctx.optimum_cached(&app, rps)?;

    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for (label, params) in [
        ("high", PemaParams::defaults(app.slo_ms).high_exploration()),
        ("low", PemaParams::defaults(app.slo_ms).low_exploration()),
    ] {
        let mut p = params;
        p.seed = 0xF111;
        let result = ctx
            .closed_loop(&app, 0x11)?
            .policy(PemaController::new(p, app.generous_alloc.clone()))
            .rps(rps)
            .iters(iters)
            .run();
        for l in &result.log {
            rows.push(format!(
                "{label},{},{:.3},{:.2},{}",
                l.iter, l.total_cpu, l.p95_ms, l.action
            ));
        }
        summary.push(vec![
            label.to_string(),
            format!("{:.2}", result.settled_total(10)),
            format!("{:.2}", result.settled_total(10) / opt.total),
            format!("{}", result.violations()),
            format!(
                "{}",
                result.log.iter().filter(|l| l.action == "explore").count()
            ),
        ]);
    }
    summary.push(vec![
        "OPTM".into(),
        format!("{:.2}", opt.total),
        "1.00".into(),
        "-".into(),
        "-".into(),
    ]);
    ctx.print_table(
        "Fig. 11: SockShop @700 rps, exploration settings",
        &[
            "setting",
            "settledCPU",
            "vsOPTM",
            "violations",
            "explorations",
        ],
        &summary,
    );
    ctx.write_csv("fig11", "exploration,iter,total_cpu,p95_ms,action", &rows)
}
