//! Fig. 6 — SockShop per-service allocation and utilization for a good
//! and a bad configuration with the same total CPU.
//!
//! The paper's point: the bad configuration (74% higher latency there)
//! has *no readily identifiable marker* — the starved services'
//! utilizations remain below the front-end's, so no utilization rule
//! can fix the distribution.
//!
//! Participates in the backend matrix through `ctx.measure`
//! (`--backend fluid` measures both windows on the analytic model).

use crate::ExperimentCtx;
use pema::prelude::*;
use rand::Rng;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let app = pema_apps::sockshop();
    let rps = 550.0;
    let opt = ctx.optimum_cached(&app, rps)?;

    // Good: the optimum, lifted slightly for margin (the paper's good
    // config satisfies the SLO comfortably, total 7.5).
    let good_alloc = Allocation::new(opt.alloc.0.iter().map(|x| x * 1.15).collect());

    // Bad: move cores away from the Java tier onto already-rich
    // services, preserving the total.
    let mut rng = ctx.rng(0xF106);
    let mut bad = good_alloc.0.clone();
    let names = app.service_names();
    let idx = |n: &str| names.iter().position(|x| *x == n).unwrap();
    for (from, to) in [
        ("carts", "payment"),
        ("orders", "user-db"),
        ("carts-db", "rabbitmq"),
        ("front-end", "queue-master"),
    ] {
        let f = idx(from);
        let t = idx(to);
        let moved = bad[f] * rng.gen_range(0.20..0.35);
        bad[f] -= moved;
        bad[t] += moved;
    }
    let bad_alloc = Allocation::new(bad);
    assert!((bad_alloc.total() - good_alloc.total()).abs() < 1e-6);

    let good = ctx.measure(&app, &good_alloc, rps, 0xF106);
    let bad_stats = ctx.measure(&app, &bad_alloc, rps, 0xF106);

    let mut rows_csv = Vec::new();
    let mut rows_tbl = Vec::new();
    for (i, name) in names.iter().enumerate() {
        rows_csv.push(format!(
            "{name},{:.3},{:.3},{:.1},{:.1}",
            good_alloc.get(i),
            bad_alloc.get(i),
            good.per_service[i].util_pct,
            bad_stats.per_service[i].util_pct
        ));
        rows_tbl.push(vec![
            name.to_string(),
            format!("{:.2}", good_alloc.get(i)),
            format!("{:.2}", bad_alloc.get(i)),
            format!("{:.1}", good.per_service[i].util_pct),
            format!("{:.1}", bad_stats.per_service[i].util_pct),
        ]);
    }
    ctx.say(format!(
        "total CPU = {:.2} in both configs; p95 good = {:.0} ms, bad = {:.0} ms (SLO {} ms)",
        good_alloc.total(),
        good.p95_ms,
        bad_stats.p95_ms,
        app.slo_ms
    ));
    ctx.print_table(
        "Fig. 6: SockShop good vs bad distribution (same total)",
        &["service", "allocGood", "allocBad", "util%Good", "util%Bad"],
        &rows_tbl,
    );
    rows_csv.insert(
        0,
        format!("__latency__,{:.1},{:.1},0,0", good.p95_ms, bad_stats.p95_ms),
    );
    ctx.write_csv(
        "fig06",
        "service,alloc_good,alloc_bad,util_good_pct,util_bad_pct",
        &rows_csv,
    )
}
