//! Fig. 13 — dynamic workload-range splitting on TrainTicket.
//!
//! The workload wanders within 200–300 rps; the manager starts with a
//! single 200–300 range and recursively splits it (the paper reaches
//! ranges topped at 300/275/250/225/212), each child bootstrapping from
//! its parent's allocation so it needs only a few iterations to settle.
//! Output: per-iteration total CPU, response, and the owning range /
//! PEMA process id.
//!
//! Participates in the backend matrix: the closed-loop run comes from
//! `ctx.closed_loop`, so `--backend fluid` (or `trace:<path>`) swaps
//! the execution environment.

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let app = pema_apps::trainticket();
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 0xF113;
    let range_cfg = pema_core::RangeConfig {
        initial: WorkloadRange::new(200.0, 300.0),
        target_width: 12.5,
        split_after: 10,
        m_learn_steps: 5,
    };
    // Slow wander across the band (deterministic, covers the range).
    let wander = |t_s: f64| {
        let phase = t_s / 44.0 * 0.37;
        250.0 + 50.0 * (phase.sin() * 0.9 + (2.3 * phase).sin() * 0.1)
    };

    let policy = WorkloadAwarePema::new(params, app.generous_alloc.clone(), range_cfg);
    let mut runner = ctx.closed_loop(&app, 0x13)?.policy(policy).build();
    let mut rows = Vec::new();
    for i in 0..ctx.iters(130) {
        let rps = wander(i as f64 * 44.0);
        let log = runner.step_once(rps).clone();
        rows.push(format!(
            "{},{:.0},{:.3},{:.2},{},{}",
            log.iter, log.rps, log.total_cpu, log.p95_ms, log.pema_id, log.action
        ));
    }
    let ranges = runner.policy.ranges();
    let result = runner.into_result();
    let tbl: Vec<Vec<String>> = ranges
        .iter()
        .map(|(r, id, iters)| vec![r.to_string(), format!("#{id}"), format!("{iters}")])
        .collect();
    ctx.print_table(
        "Fig. 13: final workload ranges (TrainTicket 200–300 rps)",
        &["range", "pema id", "iterations"],
        &tbl,
    );
    ctx.say(format!(
        "violations: {} / {} intervals ({:.1}%)",
        result.violations(),
        result.log.len(),
        result.violation_rate() * 100.0
    ));
    ctx.write_csv("fig13", "iter,rps,total_cpu,p95_ms,pema_id,action", &rows)
}
