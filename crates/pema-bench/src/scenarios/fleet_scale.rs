//! Beyond-the-paper fleet scale-out — 64 applications driven
//! concurrently by **one** control process.
//!
//! The paper's Fig. 9 loop controls a single application; the ROADMAP
//! north-star is a controller serving production fleets. This scenario
//! is that dimension made concrete: a [`Fleet`] multiplexes 64 control
//! loops (the three paper apps, cycled, under per-app workloads and a
//! PEMA / RULE / HOLD policy mix) over the shared virtual clock, using
//! the non-blocking `begin_window`/`poll_window` backend seam. The
//! loops run on the fluid backend — deterministic and fast enough to
//! sweep 64 apps × 40 intervals in milliseconds — so the scenario's
//! CSVs are golden-pinnable; DES members are exercised by the
//! conformance, property, and bit-identity tests in `pema-control`.
//!
//! Outputs:
//! * `fleet_scale_apps.csv` — one row per app per control interval;
//! * `fleet_scale.csv` — the fleet summary: one row per app (insertion
//!   order, never completion order — scheduling must not leak into the
//!   bytes) plus a final `fleet` roll-up row.
//!
//! `--backend` never reaches it (registry row `backend_matrix:
//! false`): the fleet *is* the experiment, the fluid backend its
//! substrate.

use crate::fleet::{fleet_member, member_load};
use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let n_apps = if ctx.smoke() { 8 } else { 64 };
    let iters = ctx.iters(40);
    let templates = pema_apps::fleet_mix();
    let timing = ctx.harness_cfg(0);

    let mut fleet = Fleet::new().threads(ctx.fleet_threads());
    let mut labels: Vec<(String, String, f64)> = Vec::new(); // (app, policy, rps)
    for i in 0..n_apps {
        let (policy, rps, member) = fleet_member(&templates, i, "mixed", 0xF1EE7, |_, _| UseFluid)
            .expect("the mix names bundled policies");
        let app_name = member_load(&templates, i).0.name.clone();
        labels.push((app_name, policy.to_string(), rps));
        let member = member
            .interval_s(timing.interval_s)
            .warmup_s(timing.warmup_s)
            .iters(iters);
        fleet = fleet.member(member);
    }

    let t0 = std::time::Instant::now();
    let result = fleet.run();
    let wall = t0.elapsed();

    let total_intervals = result.total_intervals();
    ctx.say(format!(
        "fleet: {n_apps} apps × {iters} intervals on one process in {wall:.2?} \
         ({:.0} app-intervals/sec, {} scheduler polls, virtual span {:.0} s)",
        total_intervals as f64 / wall.as_secs_f64().max(1e-9),
        result.polls,
        result.span_s(),
    ));

    // Rows in member order, each member's in its log's order: the runs
    // come back in insertion order, so the bytes do not depend on
    // scheduling or the thread count.
    let mut apps_rows = Vec::new();
    let mut summary_rows = Vec::new();
    let mut tbl = Vec::new();
    let mut fleet_cpu = 0.0f64;
    let mut fleet_violations = 0usize;
    for (i, run) in result.runs.iter().enumerate() {
        let (app, policy, rps) = &labels[i];
        apps_rows.extend(run.result.log.iter().map(|log| {
            format!(
                "{i},{app},{},{:.0},{:.3},{:.2},{},{}",
                log.iter, log.rps, log.total_cpu, log.p95_ms, log.violated as u8, log.action
            )
        }));
        let settled = run.result.settled_total(10);
        fleet_cpu += settled;
        fleet_violations += run.result.violations();
        summary_rows.push(format!(
            "{i},{app},{policy},{rps:.0},{},{settled:.3},{},{:.4},{:.1}",
            run.result.log.len(),
            run.result.violations(),
            run.result.violation_rate(),
            run.end_s,
        ));
        if i < 6 || i + 1 == result.runs.len() {
            tbl.push(vec![
                run.name.clone(),
                policy.clone(),
                format!("{rps:.0}"),
                format!("{settled:.1}"),
                format!("{}", run.result.violations()),
            ]);
        }
    }
    summary_rows.push(format!(
        "{n_apps},fleet,all,0,{total_intervals},{fleet_cpu:.3},{fleet_violations},{:.4},{:.1}",
        fleet_violations as f64 / total_intervals.max(1) as f64,
        result.span_s(),
    ));
    ctx.print_table(
        "fleet-scale: one process, many apps (first members + last)",
        &["member", "policy", "rps", "settledCPU", "viol"],
        &tbl,
    );

    ctx.write_csv(
        "fleet_scale_apps",
        "app_idx,app,iter,rps,total_cpu,p95_ms,violated,action",
        &apps_rows,
    )?;
    ctx.write_csv(
        "fleet_scale",
        "app_idx,app,policy,rps,intervals,settled_cpu,violations,violation_rate,end_s",
        &summary_rows,
    )
}
