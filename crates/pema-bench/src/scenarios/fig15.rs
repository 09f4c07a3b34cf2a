//! Fig. 15 — resource-allocation efficiency: PEMA vs OPTM vs RULE on
//! all three applications at three workload levels each.
//!
//! CPU totals are normalized to OPTM. The paper's headline: PEMA stays
//! close to optimum (drifting slightly at high load) and beats RULE by
//! up to 33%. PEMA results average several independent runs, as in the
//! paper ("since PEMA is provably efficient, we run PEMA several
//! times … and show the average").
//!
//! Participates in the backend matrix (`--backend`, via
//! `ctx.closed_loop`). The OPTM reference is searched on the fluid
//! model under `--backend fluid` and in smoke mode, and on the DES
//! otherwise, `trace:` included — so a smoke run on the DES normalizes
//! its DES allocations by a fluid optimum.

use crate::{paper_apps, ExperimentCtx};
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let iters = ctx.iters(70);
    let mut rows = Vec::new();
    let mut tbl = Vec::new();
    for (app, _, fig15_loads) in paper_apps() {
        for rps in fig15_loads {
            let opt = ctx.optimum_cached(&app, rps)?;

            // PEMA: average settled allocation over independent runs.
            let pema = ctx.replicate(3, 10, |rep| {
                let mut params = PemaParams::defaults(app.slo_ms);
                params.seed = 0xF115 + rep * 101;
                let policy = PemaController::new(params, app.generous_alloc.clone());
                let run = ctx.closed_loop(&app, 0x15 + rep)?.policy(policy);
                Ok(run.rps(rps).iters(iters).run())
            })?;
            let pema_avg = pema.mean_total();

            // RULE: converges in a few windows; settled over the tail.
            let rule = ctx
                .closed_loop(&app, 0x5115)?
                .policy(RulePolicy::new(&app))
                .rps(rps)
                .iters(ctx.iters(12))
                .run();
            let rule_total = rule.settled_total(5);

            let pema_n_norm = pema_avg / opt.total;
            let rule_norm = rule_total / opt.total;
            let savings = (1.0 - pema_avg / rule_total) * 100.0;
            rows.push(format!(
                "{},{rps},{:.3},{:.3},{:.3},{:.1}",
                app.name, opt.total, pema_avg, rule_total, savings
            ));
            tbl.push(vec![
                app.name.clone(),
                format!("{rps:.0}"),
                "1.00".to_string(),
                format!("{pema_n_norm:.2}"),
                format!("{rule_norm:.2}"),
                format!("{savings:.0}%"),
                format!("{:.1}%", pema.violation_pct()),
            ]);
        }
    }
    ctx.print_table(
        "Fig. 15: normalized CPU (OPTM = 1.00)",
        &[
            "app",
            "rps",
            "OPTM",
            "PEMA",
            "RULE",
            "PEMA saves vs RULE",
            "PEMA viol%",
        ],
        &tbl,
    );
    ctx.write_csv(
        "fig15",
        "app,rps,optm_total,pema_total,rule_total,pema_savings_vs_rule_pct",
        &rows,
    )
}
