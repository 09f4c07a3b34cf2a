//! Integration: adaptability scenarios (paper §4.4) — hardware speed
//! changes and dynamic SLOs.

use pema_control::{ClusterBackend, ControlLoop, Experiment, HarnessConfig};
use pema_core::{PemaController, PemaParams};
use pema_sim::AppSpec;

fn cfg(seed: u64) -> HarnessConfig {
    HarnessConfig {
        interval_s: 15.0,
        warmup_s: 2.0,
        seed,
    }
}

fn pema_runner(
    app: &AppSpec,
    params: PemaParams,
    cfg: HarnessConfig,
) -> ControlLoop<PemaController> {
    Experiment::builder()
        .app(app)
        .policy(PemaController::new(params, app.generous_alloc.clone()))
        .config(cfg)
        .build()
}

#[test]
fn slowdown_raises_allocation_speedup_lowers_it() {
    let app = pema_apps::toy_chain();
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 21;
    let mut runner = pema_runner(&app, params, cfg(21));
    for _ in 0..20 {
        runner.step_once(150.0);
    }
    let settled_nominal = avg_tail(&runner, 5);

    // Slow the hardware down 25%: demands grow, PEMA must hold more.
    runner.backend.set_speed(0.75);
    for _ in 0..20 {
        runner.step_once(150.0);
    }
    let settled_slow = avg_tail(&runner, 5);

    // Speed up 50% beyond nominal: reductions resume.
    runner.backend.set_speed(1.5);
    for _ in 0..20 {
        runner.step_once(150.0);
    }
    let settled_fast = avg_tail(&runner, 5);

    assert!(
        settled_slow > settled_nominal * 1.05,
        "slow hardware should need more CPU: {settled_slow:.2} vs {settled_nominal:.2}"
    );
    assert!(
        settled_fast < settled_slow,
        "fast hardware should need less CPU: {settled_fast:.2} vs {settled_slow:.2}"
    );
}

#[test]
fn tighter_slo_costs_resources_looser_slo_saves_them() {
    let app = pema_apps::toy_chain(); // SLO 100 ms
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 22;
    let mut runner = pema_runner(&app, params, cfg(22));
    for _ in 0..20 {
        runner.step_once(150.0);
    }
    let at_100 = avg_tail(&runner, 5);

    runner.policy.set_slo_ms(60.0);
    for _ in 0..20 {
        runner.step_once(150.0);
    }
    let at_60 = avg_tail(&runner, 5);

    runner.policy.set_slo_ms(200.0);
    for _ in 0..20 {
        runner.step_once(150.0);
    }
    let at_200 = avg_tail(&runner, 5);

    // Tightening 100 → 60 ms may or may not require more CPU on this
    // small app (the knee is sharp); it must at least stay in the same
    // band rather than shrinking further.
    assert!(
        at_60 >= at_100 * 0.85,
        "tighter SLO should not free resources: {at_60:.2} vs {at_100:.2}"
    );
    assert!(
        at_200 < at_60,
        "looser SLO should save resources: {at_200:.2} vs {at_60:.2}"
    );
}

#[test]
fn slo_violation_detection_follows_current_slo() {
    let app = pema_apps::toy_chain();
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 23;
    let mut runner = pema_runner(&app, params, cfg(23));
    for _ in 0..10 {
        runner.step_once(150.0);
    }
    // An absurdly tight SLO makes every interval a violation.
    runner.policy.set_slo_ms(1.0);
    let log = runner.step_once(150.0).clone();
    assert!(log.violated);
    assert_eq!(log.action, "rollback");
}

fn avg_tail(runner: &ControlLoop<PemaController>, k: usize) -> f64 {
    // The loop does not expose its internal log directly; rely on
    // the controller's current allocation as the settled proxy.
    let _ = k;
    runner.policy.total_alloc()
}
