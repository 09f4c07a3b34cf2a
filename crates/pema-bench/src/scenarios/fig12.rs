//! Fig. 12 — PEMA's iterative execution on TrainTicket (225 rps) and
//! HotelReservation (500 rps): total CPU and p95 response per
//! iteration, converging toward efficient allocations with only a few
//! unintentional SLO violations.
//!
//! Participates in the backend matrix (`--backend`, via
//! `ctx.closed_loop`).

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for (app, rps, iters) in [
        (pema_apps::trainticket(), 225.0, ctx.iters(55)),
        (pema_apps::hotelreservation(), 500.0, ctx.iters(32)),
    ] {
        let opt = ctx.optimum_cached(&app, rps)?;
        let mut params = PemaParams::defaults(app.slo_ms);
        params.seed = 0xF112;
        let result = ctx
            .closed_loop(&app, 0x12)?
            .policy(PemaController::new(params, app.generous_alloc.clone()))
            .rps(rps)
            .iters(iters)
            .run();
        for l in &result.log {
            rows.push(format!(
                "{},{},{:.3},{:.2},{}",
                app.name, l.iter, l.total_cpu, l.p95_ms, l.action
            ));
        }
        summary.push(vec![
            app.name.clone(),
            format!("{rps:.0}"),
            format!("{:.2}", app.generous_alloc.iter().sum::<f64>()),
            format!("{:.2}", result.settled_total(8)),
            format!("{:.2}", opt.total),
            format!("{:.2}", result.settled_total(8) / opt.total),
            format!("{}", result.violations()),
        ]);
    }
    ctx.print_table(
        "Fig. 12: PEMA execution (TrainTicket, HotelReservation)",
        &[
            "app",
            "rps",
            "startCPU",
            "settledCPU",
            "OPTM",
            "vsOPTM",
            "violations",
        ],
        &summary,
    );
    ctx.write_csv("fig12", "app,iter,total_cpu,p95_ms,action", &rows)
}
