//! Fig. 7 — the monotonicity evidence behind PEMA's design.
//!
//! (a) CDF of the end-to-end response-time change (normalized to the
//!     SLO) caused by random *monotonic* reductions — random subsets of
//!     services reduced by random amounts from random feasible starting
//!     points. The paper finds the change is an **increase** in ~90%
//!     of trials (89.8% TrainTicket, 93.9% SockShop).
//!
//! (b) Example monotonic reduction trajectories: response (normalized
//!     to SLO) as total resource (normalized to optimum) shrinks toward
//!     (1, 1).
//!
//! Participates in the backend matrix through `ctx.measure`
//! (`--backend fluid` measures every window on the analytic model).

use crate::{paper_apps, ExperimentCtx};
use pema::prelude::*;
use rand::Rng;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    // ---- (a) CDF of latency change under monotonic reduction ----
    let trials = ctx.iters(60);
    let mut cdf_rows = Vec::new();
    let mut tbl = Vec::new();
    for (app, workloads, _) in paper_apps() {
        let rps = workloads[1];
        let opt = ctx.optimum_cached(&app, rps)?;
        let mut rng = ctx.rng(0xF107);
        let mut deltas = Vec::with_capacity(trials);
        for t in 0..trials {
            // Random feasible-ish start: optimum scaled up by 1.1–1.9
            // with per-service jitter.
            let start = Allocation::new(
                opt.alloc
                    .0
                    .iter()
                    .map(|x| x * rng.gen_range(1.1..1.9))
                    .collect(),
            );
            // Random monotonic reduction: each service reduced with
            // probability 1/3 by 5–30%.
            let reduced = Allocation::new(
                start
                    .0
                    .iter()
                    .map(|x| {
                        if rng.gen::<f64>() < 0.33 {
                            x * (1.0 - rng.gen_range(0.05..0.30))
                        } else {
                            *x
                        }
                    })
                    .collect(),
            );
            let before = ctx.measure(&app, &start, rps, 0x700 + t as u64);
            let after = ctx.measure(&app, &reduced, rps, 0x700 + t as u64);
            if before.p95_ms.is_finite() && after.p95_ms.is_finite() {
                deltas.push((after.p95_ms - before.p95_ms) / app.slo_ms);
            }
        }
        deltas.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if deltas.is_empty() {
            ctx.say(format!("{}: no finite trials, skipping CDF row", app.name));
            continue;
        }
        let increase_frac =
            deltas.iter().filter(|d| **d >= -1e-9).count() as f64 / deltas.len() as f64;
        tbl.push(vec![
            app.name.clone(),
            format!("{}", deltas.len()),
            format!("{:.1}%", increase_frac * 100.0),
            format!("{:.3}", deltas[deltas.len() / 2]),
        ]);
        for (i, d) in deltas.iter().enumerate() {
            cdf_rows.push(format!(
                "{},{:.4},{:.4}",
                app.name,
                d,
                (i + 1) as f64 / deltas.len() as f64 * 100.0
            ));
        }
    }
    ctx.print_table(
        "Fig. 7a: monotonic reductions that increased latency",
        &["app", "trials", "increase%", "medianΔ/SLO"],
        &tbl,
    );
    ctx.write_csv("fig07a", "app,delta_norm_slo,cdf_pct", &cdf_rows)?;

    // ---- (b) response vs resource trajectories ----
    let steps = ctx.iters(10).max(3);
    let mut rows = Vec::new();
    for (app, workloads, _) in paper_apps() {
        let rps = workloads[1];
        let opt = ctx.optimum_cached(&app, rps)?;
        for step in 0..steps {
            let scale = 2.2 - step as f64 * (1.2 / (steps - 1) as f64); // 2.2 → 1.0
            let alloc = Allocation::new(opt.alloc.0.iter().map(|x| x * scale).collect());
            let s = ctx.measure(&app, &alloc, rps, 0xF107B);
            rows.push(format!(
                "{},{:.3},{:.4}",
                app.name,
                alloc.total() / opt.total,
                s.p95_ms / app.slo_ms
            ));
        }
    }
    ctx.write_csv(
        "fig07b",
        "app,resource_norm_optimum,response_norm_slo",
        &rows,
    )?;
    ctx.say("fig07b rows written (trajectories toward (1,1)).");
    Ok(())
}
