//! Fig. 18 — bursty-workload handling on SockShop.
//!
//! The manager first matures across the 300–800 rps band (the paper
//! assumes "PEMA has already traversed the resource reduction
//! iterations for all workload ranges"), then faces two 10-minute
//! bursts: 400 → ~750 rps and 400 → ~650 rps. PEMA switches the
//! allocation to the burst's workload range at the next interval,
//! keeping response below the SLO. Participates in the backend matrix
//! via `ctx.closed_loop`.

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let app = pema_apps::sockshop();
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 0xF118;
    let range_cfg = pema_core::RangeConfig {
        initial: WorkloadRange::new(300.0, 800.0),
        target_width: 62.5,
        split_after: 8,
        m_learn_steps: 5,
    };
    let policy = WorkloadAwarePema::new(params, app.generous_alloc.clone(), range_cfg);
    let mut run = ctx.closed_loop(&app, 0x18)?.policy(policy);
    if !ctx.smoke() {
        run = run.interval_s(30.0);
    }
    let mut runner = run.build();

    // Training phase: wander over the whole band until ranges mature.
    let train_iters = ctx.iters(140);
    for i in 0..train_iters {
        let t = i as f64;
        let rps = 550.0 + 250.0 * ((t * 0.23).sin() * 0.8 + (t * 0.059).cos() * 0.2);
        runner.step_once(rps.clamp(300.0, 800.0));
    }
    ctx.say(format!(
        "training done: {} ranges, {} intervals",
        runner.policy.ranges().len(),
        train_iters
    ));

    // Burst scenario: 50 minutes at 2-minute control intervals.
    let burst = BurstPattern {
        base_rps: 400.0,
        bursts: vec![(600.0, 600.0, 750.0), (1800.0, 600.0, 650.0)],
    };
    let mut rows = Vec::new();
    for i in 0..ctx.iters(25) {
        let minute = i as f64 * 2.0;
        let rps = burst.rps_at(minute * 60.0);
        let log = runner.step_once(rps).clone();
        rows.push(format!(
            "{minute},{rps:.0},{:.3},{:.2},{}",
            log.total_cpu, log.p95_ms, log.pema_id
        ));
        ctx.say(format!(
            "min {minute:4.0}: rps={rps:4.0} totalCPU={:6.2} p95={:6.1} ms (range #{})",
            log.total_cpu, log.p95_ms, log.pema_id
        ));
    }
    let result = runner.into_result();
    let burst_log = &result.log[train_iters..];
    ctx.say(format!(
        "burst-phase violations: {} / {}",
        burst_log.iter().filter(|l| l.violated).count(),
        burst_log.len()
    ));
    ctx.write_csv("fig18", "minute,rps,total_cpu,p95_ms,pema_id", &rows)
}
