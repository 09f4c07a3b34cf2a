//! Fig. 5 — impact of "good" vs "bad" resource distribution.
//!
//! For each application and workload level, take a good allocation
//! (the cached OPTM result, which satisfies the SLO) and a bad one
//! obtained by randomly redistributing the *same total* across
//! services, then compare p95 response normalized to the SLO. The
//! paper reports up to 43.9% (TrainTicket), 91.3% (SockShop) and
//! 256.2% (HotelReservation) latency increase from redistribution
//! alone.
//!
//! Participates in the backend matrix: every window comes from
//! `ctx.measure`, which `--backend fluid` moves onto the analytic
//! model.

use crate::{paper_apps, ExperimentCtx};
use pema::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use std::io;

/// Randomly redistributes the total of `alloc` across services while
/// preserving the sum: repeatedly moves a random fraction of a random
/// donor's cores to a random recipient.
fn redistribute(alloc: &Allocation, rng: &mut SmallRng) -> Allocation {
    let n = alloc.len();
    let mut v = alloc.0.clone();
    for _ in 0..n {
        let from = rng.gen_range(0..n);
        let to = rng.gen_range(0..n);
        if from == to {
            continue;
        }
        let moved = v[from] * rng.gen_range(0.10..0.30);
        if v[from] - moved < pema_sim::MIN_ALLOC {
            continue;
        }
        v[from] -= moved;
        v[to] += moved;
    }
    Allocation::new(v)
}

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let mut rows_csv = Vec::new();
    let mut rows_tbl = Vec::new();
    for (app, workloads, _) in paper_apps() {
        for rps in workloads {
            let opt = ctx.optimum_cached(&app, rps)?;
            // "Good" = a comfortably SLO-satisfying allocation (the
            // optimum plus a little margin, like the paper's good
            // configs — which were found by tuning, not exhaustive
            // search).
            let good_alloc = Allocation::new(opt.alloc.0.iter().map(|x| x * 1.15).collect());
            let good = ctx.measure(&app, &good_alloc, rps, 0xF105);
            // Bad: the worst of three random redistributions of the
            // same total (the paper hand-picks one bad instance).
            let mut rng = ctx.rng(0xBAD + rps as u64);
            let mut worst = 0.0f64;
            for _ in 0..ctx.iters(3) {
                let bad_alloc = redistribute(&good_alloc, &mut rng);
                let bad = ctx.measure(&app, &bad_alloc, rps, 0xF105);
                worst = worst.max(bad.p95_ms);
            }
            let g = good.p95_ms / app.slo_ms;
            let b = worst / app.slo_ms;
            let b_str = if b.is_finite() {
                format!("{b:.2}")
            } else {
                "inf".to_string()
            };
            let incr = if b.is_finite() {
                format!("{:.1}%", (worst / good.p95_ms - 1.0) * 100.0)
            } else {
                ">1000%".to_string()
            };
            rows_csv.push(format!(
                "{},{rps},{:.2},{:.4},{:.4}",
                app.name,
                good_alloc.total(),
                g,
                if b.is_finite() { b } else { 99.0 }
            ));
            rows_tbl.push(vec![
                app.name.clone(),
                format!("{rps:.0}"),
                format!("{:.2}", good_alloc.total()),
                format!("{g:.2}"),
                b_str,
                incr,
            ]);
        }
    }
    ctx.print_table(
        "Fig. 5: good vs bad distribution (response normalized to SLO)",
        &["app", "rps", "totalCPU", "good", "bad", "increase"],
        &rows_tbl,
    );
    ctx.write_csv(
        "fig05",
        "app,rps,total_cpu,good_norm_response,bad_norm_response",
        &rows_csv,
    )
}
