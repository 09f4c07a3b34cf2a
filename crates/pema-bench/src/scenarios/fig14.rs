//! Fig. 14 — 36-hour extended execution on SockShop under a
//! Wikipedia-like diurnal workload (200–1100 rps).
//!
//! One control interval corresponds to the paper's two minutes of wall
//! time; the trace clock advances two minutes per interval (the
//! simulator's measurement window is shorter — statistics converge
//! faster in simulation). Reports workload, total CPU, and response
//! (instantaneous + 5-interval moving average) per interval, plus
//! violation statistics. Participates in the backend matrix via
//! `ctx.closed_loop`.

use crate::ExperimentCtx;
use pema::prelude::*;
use pema_metrics::MovingAvg;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let app = pema_apps::sockshop();
    let trace = wikipedia_like_trace(200.0, 1100.0, 120.0, 0.03);
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 0xF114;
    // The simulated latency knee is sharper than the testbed's, so the
    // long-running experiment keeps a deeper response buffer (§3.3's
    // "scale down R" knob): targets sit at 80% of the SLO, trading a
    // few percent of allocation for far fewer noise-driven violations.
    params.response_buffer = 0.80;
    let range_cfg = pema_core::RangeConfig {
        initial: WorkloadRange::new(200.0, 1100.0),
        target_width: 112.5,
        split_after: 12,
        m_learn_steps: 6,
    };
    // Full-fidelity control interval: the paper's two minutes. Shorter
    // windows flag brief burst episodes as violations that a 2-minute
    // p95 dilutes.
    let policy = WorkloadAwarePema::new(params, app.generous_alloc.clone(), range_cfg);
    let mut run = ctx.closed_loop(&app, 0x14)?.policy(policy);
    if !ctx.smoke() {
        run = run.interval_s(120.0).warmup_s(4.0);
    }

    let intervals = ctx.iters(1080); // 36 h at 2-minute intervals
    let mut runner = run.build();
    let mut ma = MovingAvg::new(5);
    let mut rows = Vec::new();
    let t0 = std::time::Instant::now();
    for i in 0..intervals {
        let trace_time = i as f64 * 120.0;
        let rps = trace.rps_at(trace_time);
        let log = runner.step_once(rps).clone();
        let smooth = ma.push(if log.p95_ms.is_finite() {
            log.p95_ms
        } else {
            app.slo_ms * 2.0
        });
        rows.push(format!(
            "{:.3},{:.0},{:.3},{:.4},{:.4},{}",
            trace_time / 3600.0,
            rps,
            log.total_cpu,
            log.p95_ms / app.slo_ms,
            smooth / app.slo_ms,
            log.pema_id
        ));
        if i % 120 == 0 {
            ctx.say(format!(
                "hour {:5.1}: rps={:6.0} totalCPU={:6.2} p95/SLO={:5.2} ({} ranges) [{:?}]",
                trace_time / 3600.0,
                rps,
                log.total_cpu,
                log.p95_ms / app.slo_ms,
                runner.policy.ranges().len(),
                t0.elapsed()
            ));
        }
    }
    let ranges = runner.policy.ranges().len();
    let result = runner.into_result();
    ctx.say(format!(
        "36 h done: {} intervals, {} final ranges, violations {:.2}%, mean total CPU {:.2}",
        result.log.len(),
        ranges,
        result.violation_rate() * 100.0,
        result.log.iter().map(|l| l.total_cpu).sum::<f64>() / result.log.len() as f64
    ));
    ctx.write_csv(
        "fig14",
        "hour,rps,total_cpu,response_norm_slo,response_ma_norm_slo,pema_id",
        &rows,
    )
}
