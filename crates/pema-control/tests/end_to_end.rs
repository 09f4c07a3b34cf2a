//! Cross-crate integration: the full PEMA loop (controller × simulator)
//! on real application models.

use pema_control::{Experiment, HarnessConfig, RulePolicy, RunResult};
use pema_core::{PemaController, PemaParams};
use pema_sim::{optimum_for, AppSpec};

fn cfg(seed: u64) -> HarnessConfig {
    HarnessConfig {
        interval_s: 15.0,
        warmup_s: 2.0,
        seed,
    }
}

/// Shorthand: a constant-load PEMA run through the `Experiment` facade.
fn pema_run(
    app: &AppSpec,
    params: PemaParams,
    cfg: HarnessConfig,
    rps: f64,
    iters: usize,
) -> RunResult {
    Experiment::builder()
        .app(app)
        .policy(PemaController::new(params, app.generous_alloc.clone()))
        .config(cfg)
        .rps(rps)
        .iters(iters)
        .run()
}

#[test]
fn pema_converges_and_preserves_qos_on_toy_chain() {
    let app = pema_apps::toy_chain();
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 1;
    let result = pema_run(&app, params, cfg(2), 150.0, 30);
    let start: f64 = app.generous_alloc.iter().sum();
    assert!(
        result.settled_total(8) < 0.7 * start,
        "should reduce well below the generous {start}: got {}",
        result.settled_total(8)
    );
    assert!(
        result.violation_rate() < 0.25,
        "QoS-preserving design: {:.0}% violations",
        result.violation_rate() * 100.0
    );
}

#[test]
fn pema_beats_rule_on_sockshop() {
    let app = pema_apps::sockshop();
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 3;
    let pema = pema_run(&app, params, cfg(4), 550.0, 35);
    let rule = Experiment::builder()
        .app(&app)
        .policy(RulePolicy::new(&app))
        .config(cfg(4))
        .rps(550.0)
        .iters(10)
        .run();
    assert!(
        pema.settled_total(8) < rule.settled_total(4),
        "PEMA ({:.2}) should settle below RULE ({:.2})",
        pema.settled_total(8),
        rule.settled_total(4)
    );
}

#[test]
fn optimum_is_a_lower_bound_for_pema() {
    let app = pema_apps::toy_chain();
    let rps = 150.0;
    let opt = optimum_for(&app, rps, 9).expect("optimum exists");
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 5;
    let result = pema_run(&app, params, cfg(6), rps, 30);
    // PEMA is provably efficient, not optimal: it must end at or above
    // the optimum (tolerating measurement noise), and within ~2×.
    let settled = result.settled_total(8);
    assert!(
        settled > 0.85 * opt.total,
        "settled {settled:.2} below optimum {:.2}?",
        opt.total
    );
    assert!(
        settled < 2.2 * opt.total,
        "settled {settled:.2} too far above optimum {:.2}",
        opt.total
    );
}

#[test]
fn rollback_recovers_from_violation() {
    let app = pema_apps::toy_chain();
    let mut params = PemaParams::defaults(app.slo_ms);
    // Very aggressive: guarantees overshoot and rollback.
    params.alpha = 0.1;
    params.beta = 0.9;
    params.seed = 7;
    let result = pema_run(&app, params, cfg(8), 150.0, 25);
    let had_violation = result.violations() > 0;
    let had_rollback = result.log.iter().any(|l| l.action == "rollback");
    assert!(
        had_violation && had_rollback,
        "aggressive params should violate and roll back"
    );
    // After the dust settles the system is healthy again.
    let last = result.log.last().unwrap();
    assert!(
        !last.violated || result.log[result.log.len() - 2].violated,
        "should not end in a fresh violation"
    );
}

#[test]
fn run_logs_are_complete_and_consistent() {
    let app = pema_apps::toy_chain();
    let params = PemaParams::defaults(app.slo_ms);
    let result = pema_run(&app, params, cfg(10), 100.0, 12);
    assert_eq!(result.log.len(), 12);
    for (i, l) in result.log.iter().enumerate() {
        assert_eq!(l.iter, i);
        assert_eq!(l.alloc.len(), app.n_services());
        assert!(l.total_cpu > 0.0);
        assert!(l.rps == 100.0);
    }
    // Virtual time strictly advances.
    for w in result.log.windows(2) {
        assert!(w[1].time_s > w[0].time_s);
    }
}

#[test]
fn different_seeds_give_different_but_sane_outcomes() {
    let app = pema_apps::toy_chain();
    let mut totals = Vec::new();
    for seed in [11, 22, 33] {
        let mut params = PemaParams::defaults(app.slo_ms);
        params.seed = seed;
        let result = pema_run(&app, params, cfg(seed), 150.0, 25);
        totals.push(result.settled_total(8));
    }
    // Randomized exploration ⇒ runs differ…
    assert!(
        totals.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-6),
        "all seeds identical: {totals:?}"
    );
    // …but all land in a sane band.
    for t in &totals {
        assert!(*t > 0.5 && *t < 5.0, "settled total {t} out of band");
    }
}
