//! Fig. 8 — CPU utilization and CFS throttling as a service approaches
//! its bottleneck allocation (TrainTicket `seat`, `basic`,
//! `ticketinfo`).
//!
//! Every other service keeps its generous allocation while the service
//! under study sweeps downward. The paper's two observations, which
//! PEMA's bottleneck detection rests on:
//!
//! * utilization changes *gradually* through the bottleneck, and the
//!   bottleneck utilization differs per service (≈15% for `seat`,
//!   ≈25% for `ticketinfo`) — so no universal utilization threshold
//!   works;
//! * throttling time jumps *sharply* at the bottleneck allocation.

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let app = pema_apps::trainticket();
    let rps = 225.0;
    let services = ["seat", "basic", "ticketinfo"];
    let n_levels = ctx.iters(14).max(4);
    let (warmup_s, window_s) = ctx.window(4.0, 25.0);
    let mut rows = Vec::new();
    let mut tbl = Vec::new();

    for name in services {
        let sid = app.service_by_name(name).unwrap().0;
        let generous = app.generous_alloc[sid];

        // Sweep downward and find the bottleneck allocation: the first
        // level whose window violates the SLO.
        let levels: Vec<f64> = (0..n_levels)
            .map(|k| generous * (1.0 - k as f64 * 0.065 * 14.0 / n_levels as f64))
            .collect();
        let mut measured = Vec::new();
        let mut bottleneck_alloc = None;
        for &a in &levels {
            let mut alloc = Allocation::new(app.generous_alloc.clone());
            alloc.set(sid, a);
            let mut sim = ClusterSim::new(&app, 0xF108);
            sim.set_allocation(&alloc);
            let s = sim.run_window(rps, warmup_s, window_s);
            let sv = &s.per_service[sid];
            measured.push((a, sv.util_pct, sv.throttled_s, s.p95_ms));
            if bottleneck_alloc.is_none() && s.p95_ms > app.slo_ms {
                bottleneck_alloc = Some(a);
            }
        }
        let bn = bottleneck_alloc.unwrap_or(levels[levels.len() - 1]);
        // Signature at the last *feasible* level (just above the
        // bottleneck): in a violating window the backlog drives
        // utilization to 100% regardless of the knee position.
        let at_edge = measured
            .iter()
            .rev()
            .find(|m| m.3 <= app.slo_ms)
            .unwrap_or(&measured[0]);
        tbl.push(vec![
            name.to_string(),
            format!("{bn:.2}"),
            format!("{:.1}", at_edge.1),
            format!("{:.2}", at_edge.2),
        ]);
        for (a, util, thr, p95) in &measured {
            rows.push(format!(
                "{name},{:.3},{:.1},{:.3},{:.1}",
                a / bn,
                util,
                thr,
                p95
            ));
        }
    }
    ctx.print_table(
        "Fig. 8: bottleneck signatures (TrainTicket)",
        &["service", "bottleneckAlloc", "util%@bn", "throttle_s@bn"],
        &tbl,
    );
    ctx.write_csv(
        "fig08",
        "service,resource_norm_bottleneck,util_pct,throttle_s,p95_ms",
        &rows,
    )
}
