//! Workload-aware autoscaling over a diurnal day — the paper's
//! extended-execution scenario (Fig. 14) in miniature.
//!
//! A Wikipedia-like trace drives SockShop between 200 and 1100 rps for
//! 12 virtual hours. The workload-aware manager splits the band into
//! ranges, learns one allocation per range, and switches allocations as
//! the day progresses; the example prints an hourly digest and the
//! final range table.
//!
//! ```sh
//! cargo run --release --example diurnal_autoscaling
//! ```

use pema::prelude::*;

fn main() {
    let app = pema_apps::sockshop();
    let trace = wikipedia_like_trace(200.0, 1100.0, 120.0, 0.03);

    let params = PemaParams::defaults(app.slo_ms);
    let range_cfg = RangeConfig {
        initial: WorkloadRange::new(200.0, 1100.0),
        target_width: 112.5,
        split_after: 10,
        m_learn_steps: 5,
    };
    // `.build()` (instead of `.run()`) hands back the loop for manual
    // stepping: the trace clock here advances two minutes per control
    // interval, independent of the simulator's virtual time.
    let mut runner = Experiment::builder()
        .app(&app)
        .policy(WorkloadAwarePema::new(
            params,
            app.generous_alloc.clone(),
            range_cfg,
        ))
        .config(HarnessConfig {
            interval_s: 30.0,
            warmup_s: 3.0,
            seed: 7,
        })
        .build();

    // One control interval ≙ two minutes of trace time; 12 hours.
    let intervals = 12 * 30;
    let mut viol = 0;
    for i in 0..intervals {
        let trace_t = i as f64 * 120.0;
        let rps = trace.rps_at(trace_t);
        let log = runner.step_once(rps).clone();
        if log.violated {
            viol += 1;
        }
        if i % 30 == 0 {
            println!(
                "hour {:2}: rps={:6.0}  totalCPU={:6.2}  p95={:6.1} ms  range #{}",
                i / 30,
                rps,
                log.total_cpu,
                log.p95_ms,
                log.pema_id
            );
        }
    }

    println!("\nfinal workload ranges:");
    for (range, id, iters) in runner.policy.ranges() {
        println!(
            "  {:>10} rps → PEMA #{id} ({iters} recent iterations)",
            range.to_string()
        );
    }
    println!(
        "\n{} intervals, {} SLO violations ({:.1}%)",
        intervals,
        viol,
        viol as f64 / intervals as f64 * 100.0
    );
}
