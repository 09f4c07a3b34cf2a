//! Behaviour of the generic loop + `Experiment` facade on the DES
//! backend — the tests that lived in the old root-crate `runner`
//! module, re-expressed against the new API, plus the facade
//! bit-identity guarantee the `pema-bench` golden snapshots build on.

use pema_control::{
    policy_by_name, stats_to_obs, Decision, Experiment, HarnessConfig, HoldPolicy, IterationLog,
    Policy, RulePolicy, SimBackend, UseFluid,
};
use pema_core::{PemaController, PemaParams, WorkloadAwarePema};
use pema_sim::{Allocation, ClusterSim, WindowStats};
use std::sync::{Arc, Mutex};

#[test]
fn pema_reduces_toy_chain_through_the_facade() {
    let app = pema_apps::toy_chain();
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 3;
    let result = Experiment::builder()
        .app(&app)
        .policy(PemaController::new(params, app.generous_alloc.clone()))
        .config(HarnessConfig {
            interval_s: 15.0,
            warmup_s: 2.0,
            seed: 5,
        })
        .rps(150.0)
        .iters(20)
        .run();
    let start_total: f64 = app.generous_alloc.iter().sum();
    assert!(
        result.settled_total(5) < start_total * 0.8,
        "PEMA should have reduced from {start_total}: {}",
        result.settled_total(5)
    );
    assert!(result.violation_rate() < 0.3, "too many violations");
}

#[test]
fn rule_tracks_usage_through_the_facade() {
    let app = pema_apps::toy_chain();
    let result = Experiment::builder()
        .app(&app)
        .policy(RulePolicy::new(&app))
        .config(HarnessConfig {
            interval_s: 15.0,
            warmup_s: 2.0,
            seed: 5,
        })
        .rps(150.0)
        .iters(8)
        .run();
    let start_total: f64 = app.generous_alloc.iter().sum();
    assert!(result.settled_total(3) < start_total);
}

#[test]
fn stats_conversion_preserves_fields() {
    let app = pema_apps::toy_chain();
    let mut sim = ClusterSim::new(&app, 1);
    let stats = sim.run_window(100.0, 1.0, 5.0);
    let obs = stats_to_obs(&stats);
    assert_eq!(obs.n_services(), 3);
    assert_eq!(obs.p95_ms, stats.p95_ms);
    assert_eq!(obs.rps, stats.offered_rps);
}

#[test]
fn custom_policy_drives_the_generic_loop() {
    // A custom policy plugs into the same loop the named runners use:
    // one window per interval, logged totals matching the allocation
    // in force, metadata passed through.
    struct Chill(Vec<f64>);
    impl Policy for Chill {
        fn decide(&mut self, _stats: &WindowStats) -> Decision {
            Decision {
                alloc: self.0.clone(),
                action: "chill".into(),
                pema_id: 7,
            }
        }
        fn slo_ms(&self) -> f64 {
            100.0
        }
    }
    let app = pema_apps::toy_chain();
    let alloc = app.generous_alloc.clone();
    let result = Experiment::builder()
        .app(&app)
        .policy(Chill(alloc.clone()))
        .config(HarnessConfig {
            interval_s: 6.0,
            warmup_s: 1.0,
            seed: 9,
        })
        .rps(120.0)
        .iters(3)
        .run();
    assert_eq!(result.log.len(), 3);
    for l in &result.log {
        assert_eq!(l.pema_id, 7);
        assert_eq!(l.action, "chill");
        assert!((l.total_cpu - alloc.iter().sum::<f64>()).abs() < 1e-9);
    }
    assert_eq!(result.slo_ms, 100.0);
}

#[test]
fn managed_policy_pre_switches_allocation() {
    let app = pema_apps::toy_chain();
    let params = PemaParams::defaults(app.slo_ms);
    let range_cfg =
        pema_core::RangeConfig::new(pema_workload::WorkloadRange::new(100.0, 300.0), 50.0);
    let mut runner = Experiment::builder()
        .app(&app)
        .policy(WorkloadAwarePema::new(
            params,
            app.generous_alloc.clone(),
            range_cfg,
        ))
        .config(HarnessConfig {
            interval_s: 8.0,
            warmup_s: 1.0,
            seed: 11,
        })
        .build();
    let expected: f64 = runner.policy.allocation_for(150.0).iter().sum();
    let log = runner.step_once(150.0).clone();
    // total_cpu reflects the pre-switched allocation in force during
    // the window, exactly as the dedicated runner did.
    assert!((log.total_cpu - expected).abs() < 1e-9);
}

#[test]
fn observers_see_every_interval_with_full_stats() {
    let app = pema_apps::toy_chain();
    let seen: Arc<Mutex<Vec<(usize, f64)>>> = Arc::default();
    let sink = Arc::clone(&seen);
    let result = Experiment::builder()
        .app(&app)
        .policy(PemaController::new(
            PemaParams::defaults(app.slo_ms),
            app.generous_alloc.clone(),
        ))
        .config(HarnessConfig {
            interval_s: 6.0,
            warmup_s: 1.0,
            seed: 4,
        })
        .rps(150.0)
        .iters(5)
        .observer(move |log: &IterationLog, stats: &WindowStats| {
            // The observer gets richer data than the log line: the
            // per-service breakdown the CSV emitters need.
            assert_eq!(stats.per_service.len(), 3);
            assert_eq!(log.p95_ms.to_bits(), stats.p95_ms.to_bits());
            sink.lock().unwrap().push((log.iter, log.total_cpu));
        })
        .run();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 5);
    for (i, ((iter, total), l)) in seen.iter().zip(&result.log).enumerate() {
        assert_eq!(*iter, i);
        assert_eq!(total.to_bits(), l.total_cpu.to_bits());
    }
}

/// The guarantee the `pema-bench` golden snapshots (fig06 et al.) rest
/// on: a one-interval `Experiment` run with a held allocation on a
/// `SimBackend` without the request timeout produces *bit-identical*
/// window stats to driving `ClusterSim` directly the way the
/// pre-refactor harness did.
#[test]
fn facade_one_shot_is_bit_identical_to_raw_cluster_sim() {
    let app = pema_apps::sockshop();
    let alloc = Allocation::new(app.generous_alloc.iter().map(|x| x * 0.7).collect());
    let (rps, warmup, window, seed) = (550.0, 1.0, 5.0, 0xF106);

    // The historical direct path.
    let mut sim = ClusterSim::new(&app, seed);
    sim.set_allocation(&alloc);
    let want = sim.run_window(rps, warmup, window);

    // The facade path.
    let captured: Arc<Mutex<Option<WindowStats>>> = Arc::default();
    let sink = Arc::clone(&captured);
    Experiment::builder()
        .app(&app)
        .policy(HoldPolicy::new(alloc.0.clone(), app.slo_ms))
        .backend(SimBackend::from_sim(ClusterSim::new(&app, seed)))
        .config(HarnessConfig {
            interval_s: window,
            warmup_s: warmup,
            seed,
        })
        .rps(rps)
        .iters(1)
        .observer(move |_log: &IterationLog, stats: &WindowStats| {
            *sink.lock().unwrap() = Some(stats.clone());
        })
        .run();
    let got = captured
        .lock()
        .unwrap()
        .take()
        .expect("one window observed");

    let bits = |x: f64| x.to_bits();
    assert_eq!(bits(got.p95_ms), bits(want.p95_ms), "p95 diverged");
    assert_eq!(bits(got.mean_ms), bits(want.mean_ms), "mean diverged");
    assert_eq!(bits(got.p50_ms), bits(want.p50_ms));
    assert_eq!(bits(got.p99_ms), bits(want.p99_ms));
    assert_eq!(bits(got.max_ms), bits(want.max_ms));
    assert_eq!(bits(got.start_s), bits(want.start_s));
    assert_eq!(bits(got.duration_s), bits(want.duration_s));
    assert_eq!(bits(got.achieved_rps), bits(want.achieved_rps));
    assert_eq!(got.completed, want.completed);
    assert_eq!(got.arrivals, want.arrivals);
    assert_eq!(got.per_service.len(), want.per_service.len());
    for (g, w) in got.per_service.iter().zip(&want.per_service) {
        assert_eq!(bits(g.alloc_cores), bits(w.alloc_cores));
        assert_eq!(bits(g.util_pct), bits(w.util_pct));
        assert_eq!(bits(g.cpu_used_s), bits(w.cpu_used_s));
        assert_eq!(bits(g.throttled_s), bits(w.throttled_s));
        assert_eq!(bits(g.usage_p90_cores), bits(w.usage_p90_cores));
        assert_eq!(g.visits, w.visits);
    }
}

#[test]
fn loop_with_early_check_shortens_logged_intervals() {
    let app = pema_apps::toy_chain();
    let floor = vec![pema_sim::MIN_ALLOC; app.n_services()];
    let mut runner = Experiment::builder()
        .app(&app)
        .policy(HoldPolicy::new(floor, app.slo_ms))
        .config(HarnessConfig {
            interval_s: 10.0,
            warmup_s: 1.0,
            seed: 2,
        })
        .early_check(2.0)
        .build();
    let log = runner.step_once(150.0).clone();
    assert!(log.violated);
    assert!(log.interval_s < 5.0, "early check must cut the interval");
}

/// `policy_by_name` is where the CLI, the fleet and `replay` get
/// their policies: its `"rule"`, capped at the generous allocation,
/// decides bit-identically to the `RulePolicy::new(&app)` the
/// scenarios and the repo benchmark build, and a name it does not know
/// is `None`, not a default.
#[test]
fn rule_by_name_decides_as_rule_policy_new() {
    for (app, rps) in pema_apps::fleet_mix() {
        let run = |policy: Box<dyn Policy + Send>| {
            Experiment::builder()
                .app(&app)
                .policy(policy)
                .backend(UseFluid)
                .rps(rps)
                .iters(30)
                .run()
        };
        let named = policy_by_name("rule", app.slo_ms, &app.generous_alloc, 0);
        let named = run(named.expect("rule is bundled"));
        let direct = run(Box::new(RulePolicy::new(&app)));
        assert_eq!(named.log.len(), 30);
        for (n, d) in named.log.iter().zip(&direct.log) {
            let bits = |alloc: &[f64]| alloc.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&n.alloc), bits(&d.alloc), "{} @ {}", app.name, n.iter);
            assert_eq!(n.p95_ms.to_bits(), d.p95_ms.to_bits());
            assert_eq!((n.violated, &n.action), (d.violated, &d.action));
        }
        assert!(policy_by_name("managed", app.slo_ms, &app.generous_alloc, 0).is_none());
    }
}
