//! Adapting to hardware changes (paper Fig. 19) — the cluster's CPU
//! clock drops mid-run and later rises; PEMA re-navigates both times
//! with no retraining, the paper's core argument against ML-heavy
//! autoscalers.
//!
//! ```sh
//! cargo run --release --example hardware_change
//! ```

use pema::prelude::*;

fn main() {
    let app = pema_apps::sockshop();
    let mut runner = Experiment::builder()
        .app(&app)
        .policy(Pema(PemaParams::defaults(app.slo_ms)))
        .config(HarnessConfig {
            interval_s: 40.0,
            warmup_s: 4.0,
            seed: 5,
        })
        .build();

    println!("phase 1: nominal clock (1.8 GHz)");
    for _ in 0..14 {
        runner.step_once(700.0);
    }
    report(&mut runner);

    println!("\nphase 2: clock drops to 1.6 GHz — demands grow by 12.5%");
    runner.backend.set_speed(1.6 / 1.8);
    for _ in 0..14 {
        runner.step_once(700.0);
    }
    report(&mut runner);

    println!("\nphase 3: upgrade to 2.0 GHz — reduction opportunities open up");
    runner.backend.set_speed(2.0 / 1.8);
    for _ in 0..14 {
        runner.step_once(700.0);
    }
    report(&mut runner);

    let result = runner.into_result();
    println!(
        "\ntotal violations across all phases: {} / {}",
        result.violations(),
        result.log.len()
    );
}

fn report(runner: &mut ControlLoop<PemaController>) {
    let last = runner.step_once(700.0).clone();
    println!(
        "  → settled near {:.2} cores, p95 {:.1} ms (SLO 250 ms)",
        last.total_cpu, last.p95_ms
    );
}
