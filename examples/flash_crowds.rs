//! Flash crowds: random bursts + early violation mitigation.
//!
//! Goes beyond the paper's scripted bursts (Fig. 18) in two ways this
//! repository adds:
//!
//! * the burst schedule is a seeded Markov-modulated Poisson process
//!   (`MmppWorkload`) — bursts arrive at *random* times, so the
//!   autoscaler cannot be tuned to the script;
//! * the harness uses the §6 high-resolution monitoring extension
//!   (`with_early_check`): a breach detected within 10 seconds triggers
//!   rollback immediately instead of after the full control interval.
//!
//! ```sh
//! cargo run --release --example flash_crowds
//! ```

use pema::pema_sim::MmppWorkload;
use pema::prelude::*;

fn main() {
    let app = pema_apps::sockshop();
    // Calm at 400 rps; flash crowds to 700 rps lasting ~4 minutes,
    // arriving every ~20 minutes on average.
    let workload = MmppWorkload::calm_burst(400.0, 700.0, 1200.0, 240.0, 40_000.0, 99);

    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 77;
    let mut runner = Experiment::builder()
        .app(&app)
        .policy(PemaController::new(params, app.generous_alloc.clone()))
        .config(HarnessConfig {
            interval_s: 40.0,
            warmup_s: 4.0,
            seed: 78,
        })
        .early_check(10.0)
        .build();

    let mut in_burst_viol = 0;
    let mut burst_intervals = 0;
    for i in 0..60 {
        let rps = workload.rps_at(i as f64 * 120.0);
        let log = runner.step_once(rps).clone();
        if rps > 500.0 {
            burst_intervals += 1;
            if log.violated {
                in_burst_viol += 1;
            }
        }
        if i % 6 == 0 {
            println!(
                "t={:3} min rps={:4.0} totalCPU={:6.2} p95={:7.1} ms {}",
                i * 2,
                rps,
                log.total_cpu,
                log.p95_ms,
                log.action
            );
        }
    }
    let result = runner.into_result();
    println!(
        "\n{} intervals, {} burst intervals, {} burst violations; \
         total time in violation {:.0}s (early checks cap each episode at ~10s)",
        result.log.len(),
        burst_intervals,
        in_burst_viol,
        result.violating_time_s()
    );
}
