//! Integration: workload-aware PEMA (dynamic ranging, bursts) against
//! the simulator.

use pema_control::{ControlLoop, Experiment, HarnessConfig};
use pema_core::{PemaParams, RangeConfig, WorkloadAwarePema};
use pema_sim::AppSpec;
use pema_workload::WorkloadRange;

fn cfg(seed: u64) -> HarnessConfig {
    HarnessConfig {
        interval_s: 12.0,
        warmup_s: 2.0,
        seed,
    }
}

fn managed_runner(
    app: &AppSpec,
    params: PemaParams,
    ranges: RangeConfig,
    cfg: HarnessConfig,
) -> ControlLoop<WorkloadAwarePema> {
    Experiment::builder()
        .app(app)
        .policy(WorkloadAwarePema::new(
            params,
            app.generous_alloc.clone(),
            ranges,
        ))
        .config(cfg)
        .build()
}

fn range_cfg() -> RangeConfig {
    RangeConfig {
        initial: WorkloadRange::new(100.0, 300.0),
        target_width: 50.0,
        split_after: 6,
        m_learn_steps: 4,
    }
}

#[test]
fn manager_splits_ranges_under_varying_load() {
    let app = pema_apps::toy_chain();
    let params = PemaParams::defaults(app.slo_ms);
    let mut runner = managed_runner(&app, params, range_cfg(), cfg(1));
    for i in 0..40 {
        let rps = 120.0 + (i as f64 * 37.0) % 170.0;
        runner.step_once(rps);
    }
    let ranges = runner.policy.ranges();
    assert!(ranges.len() >= 2, "no split after 40 intervals");
    // Partition property: contiguous, covering [100, 300].
    assert_eq!(ranges[0].0.lo, 100.0);
    assert_eq!(ranges.last().unwrap().0.hi, 300.0);
    for w in ranges.windows(2) {
        assert_eq!(w[0].0.hi, w[1].0.lo, "ranges must tile the band");
    }
}

#[test]
fn manager_learns_workload_slope() {
    let app = pema_apps::toy_chain();
    let params = PemaParams::defaults(app.slo_ms);
    let mut runner = managed_runner(&app, params, range_cfg(), cfg(2));
    for i in 0..6 {
        let rps = 100.0 + i as f64 * 40.0;
        runner.step_once(rps);
    }
    let m = runner.policy.slope_m().expect("m learned after 4 samples");
    assert!(m >= 0.0, "slope must be non-negative: {m}");
}

#[test]
fn burst_switch_keeps_qos() {
    let app = pema_apps::toy_chain();
    let params = PemaParams::defaults(app.slo_ms);
    let mut runner = managed_runner(&app, params, range_cfg(), cfg(3));
    // Mature both halves of the band.
    for i in 0..36 {
        let rps = if i % 2 == 0 { 130.0 } else { 270.0 };
        runner.step_once(rps);
    }
    // Steady low, then burst high for a few intervals.
    for _ in 0..4 {
        runner.step_once(130.0);
    }
    let mut burst_viols = 0;
    for _ in 0..5 {
        let log = runner.step_once(280.0).clone();
        if log.violated {
            burst_viols += 1;
        }
    }
    assert!(
        burst_viols <= 2,
        "burst handling should mostly hold the SLO ({burst_viols}/5 violated)"
    );
}

#[test]
fn per_range_allocations_order_with_load() {
    let app = pema_apps::toy_chain();
    let params = PemaParams::defaults(app.slo_ms);
    let mut runner = managed_runner(&app, params, range_cfg(), cfg(4));
    for i in 0..60 {
        let rps = if i % 2 == 0 { 130.0 } else { 270.0 };
        runner.step_once(rps);
    }
    let lo_total: f64 = runner.policy.allocation_for(130.0).iter().sum();
    let hi_total: f64 = runner.policy.allocation_for(270.0).iter().sum();
    assert!(
        lo_total <= hi_total * 1.15,
        "low-load range ({lo_total:.2}) should not need much more than high ({hi_total:.2})"
    );
}

#[test]
fn managed_runner_result_accounting() {
    let app = pema_apps::toy_chain();
    let params = PemaParams::defaults(app.slo_ms);
    let mut runner = managed_runner(&app, params, range_cfg(), cfg(5));
    for _ in 0..10 {
        runner.step_once(200.0);
    }
    let result = runner.into_result();
    assert_eq!(result.log.len(), 10);
    // The learning phase is visible in the log.
    assert!(result.log[0].action == "learn-m");
}
