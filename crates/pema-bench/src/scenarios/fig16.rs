//! Fig. 16 — sensitivity to α (reduction aggressiveness), at β = 0.3.
//!
//! Small α ⇒ aggressive reduction ⇒ many SLO violations and rollbacks
//! ⇒ sub-optimal settling; large α ⇒ premature slow-down ⇒ also
//! sub-optimal, but with few violations. The U-shape in resource and
//! the downward slope in violations are the paper's findings.
//! Participates in the backend matrix via `ctx.closed_loop`.

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let title = "Fig. 16: α sensitivity (β = 0.3)";
    sweep(ctx, "fig16", 0x16, "alpha", title, |params, alpha| {
        params.alpha = alpha;
        params.beta = 0.3;
    })
}

/// The sensitivity protocol of Figs. 16 and 17: one knob swept over
/// five values on TrainTicket and SockShop, two seeds a point (PEMA
/// `0xF100 + seed`, harness `seed`, stepped per replicate), settled
/// resource normalized to OPTM beside the violation share. `set` turns
/// the default parameters into the point's.
pub(crate) fn sweep(
    ctx: &mut ExperimentCtx,
    fig: &str,
    seed: u64,
    knob: &str,
    title: &str,
    set: fn(&mut PemaParams, f64),
) -> io::Result<()> {
    let iters = ctx.iters(55);
    let mut rows = Vec::new();
    let mut tbl = Vec::new();
    for (app, rps) in [
        (pema_apps::trainticket(), 225.0),
        (pema_apps::sockshop(), 700.0),
    ] {
        let opt = ctx.optimum_cached(&app, rps)?;
        for value in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let runs = ctx.replicate(2, 8, |rep| {
                let mut params = PemaParams::defaults(app.slo_ms);
                set(&mut params, value);
                params.seed = 0xF100 + seed + rep * 977;
                let policy = PemaController::new(params, app.generous_alloc.clone());
                let run = ctx.closed_loop(&app, seed + rep)?.policy(policy);
                Ok(run.rps(rps).iters(iters).run())
            })?;
            let norm = runs.mean_total() / opt.total;
            let viol = runs.violation_pct();
            rows.push(format!("{},{value},{norm:.3},{viol:.1}", app.name));
            tbl.push(vec![
                app.name.clone(),
                format!("{value}"),
                format!("{norm:.2}"),
                format!("{viol:.0}%"),
            ]);
        }
    }
    let header = ["app", knob, "resource/OPTM", "SLO violations"];
    ctx.print_table(title, &header, &tbl);
    let header = format!("app,{knob},resource_norm_optm,violations_pct");
    ctx.write_csv(fig, &header, &rows)
}
