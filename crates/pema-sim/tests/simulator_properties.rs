//! Integration + property tests on the simulator's key invariants: the
//! behaviours PEMA's design *assumes* (monotonicity, throttle
//! signatures) must hold in the substrate.

use pema_sim::{
    fluid_optimum_for, Allocation, AppSpec, ClusterSim, Evaluator, FluidEvaluator, WindowStats,
    MIN_ALLOC,
};
use proptest::prelude::*;

fn measure(app: &AppSpec, alloc: &Allocation, rps: f64, seed: u64) -> WindowStats {
    let mut sim = ClusterSim::new(app, seed);
    sim.set_allocation(alloc);
    sim.run_window(rps, 2.0, 12.0)
}

#[test]
fn monotonic_reduction_mostly_increases_latency() {
    // The paper's Fig. 7a claim, checked end-to-end on the toy app:
    // random monotonic reductions increase mean latency in ≥ 85% of
    // trials.
    let app = pema_apps::toy_chain();
    let mut increases = 0;
    let trials = 20;
    for t in 0..trials {
        let scale = 1.2 + (t as f64 % 5.0) * 0.2;
        let start = Allocation::new(app.generous_alloc.iter().map(|x| x * scale).collect());
        let mut reduced = start.clone();
        reduced.scale_service(t % 3, 0.55);
        let before = measure(&app, &start, 150.0, 1000 + t as u64);
        let after = measure(&app, &reduced, 150.0, 1000 + t as u64);
        if after.mean_ms >= before.mean_ms - 0.3 {
            increases += 1;
        }
    }
    assert!(
        increases as f64 / trials as f64 >= 0.85,
        "only {increases}/{trials} monotonic reductions increased latency"
    );
}

#[test]
fn throttling_spikes_when_starved() {
    let app = pema_apps::toy_chain();
    let healthy = measure(
        &app,
        &Allocation::new(app.generous_alloc.clone()),
        150.0,
        77,
    );
    let mut starved_alloc = Allocation::new(app.generous_alloc.clone());
    starved_alloc.set(1, 0.25); // starve `logic`
    let starved = measure(&app, &starved_alloc, 150.0, 77);
    assert!(healthy.per_service[1].throttled_s < 0.2);
    assert!(
        starved.per_service[1].throttled_s > 1.0,
        "starved service should throttle: {}",
        starved.per_service[1].throttled_s
    );
}

#[test]
fn utilization_is_bounded_and_consistent() {
    let app = pema_apps::sockshop();
    let stats = measure(&app, &Allocation::new(app.generous_alloc.clone()), 550.0, 3);
    for (i, s) in stats.per_service.iter().enumerate() {
        assert!(
            s.util_pct >= 0.0 && s.util_pct <= 101.0,
            "service {i} utilization {}",
            s.util_pct
        );
        // cpu_used must equal util × alloc × duration (internal
        // consistency of the two reported forms).
        let implied = s.util_pct / 100.0 * s.alloc_cores * stats.duration_s;
        assert!(
            (implied - s.cpu_used_s).abs() < 0.05 * s.cpu_used_s.max(0.1),
            "service {i}: util/cpu_used inconsistent"
        );
    }
}

#[test]
fn percentiles_are_ordered() {
    let app = pema_apps::toy_chain();
    let stats = measure(&app, &Allocation::new(app.generous_alloc.clone()), 200.0, 9);
    assert!(stats.p50_ms <= stats.p95_ms);
    assert!(stats.p95_ms <= stats.p99_ms);
    assert!(stats.p99_ms <= stats.max_ms + 1e-9);
    assert!(stats.mean_ms > 0.0);
}

#[test]
fn fluid_model_orders_allocations_like_des() {
    let app = pema_apps::toy_chain();
    let rich = Allocation::new(app.generous_alloc.clone());
    let mid = Allocation::new(app.generous_alloc.iter().map(|x| x * 0.5).collect());
    let poor = Allocation::new(app.generous_alloc.iter().map(|x| x * 0.28).collect());
    let mut fluid = FluidEvaluator::new(&app);
    let des: Vec<f64> = [&rich, &mid, &poor]
        .iter()
        .map(|a| measure(&app, a, 150.0, 31).mean_ms)
        .collect();
    let flu: Vec<f64> = [&rich, &mid, &poor]
        .iter()
        .map(|a| fluid.evaluate(a, 150.0).mean_ms)
        .collect();
    assert!(des[0] <= des[1] && des[1] <= des[2], "DES ordering {des:?}");
    assert!(
        flu[0] <= flu[1] && flu[1] <= flu[2],
        "fluid ordering {flu:?}"
    );
}

/// The paper's three applications, each with its Fig. 15 workloads.
fn fig15_cells() -> Vec<(AppSpec, [f64; 3])> {
    vec![
        (pema_apps::sockshop(), pema_apps::sockshop::FIG15_WORKLOADS),
        (
            pema_apps::trainticket(),
            pema_apps::trainticket::FIG15_WORKLOADS,
        ),
        (
            pema_apps::hotelreservation(),
            pema_apps::hotelreservation::FIG15_WORKLOADS,
        ),
    ]
}

#[test]
fn fluid_optm_meets_the_papers_definition_on_every_fig15_cell() {
    // §4.2: an allocation is optimum when reducing any single
    // microservice by 0.1 CPU violates the SLO.
    for (app, loads) in fig15_cells() {
        for rps in loads {
            let r = fluid_optimum_for(&app, rps)
                .unwrap_or_else(|e| panic!("{} @ {rps}: {e}", app.name));
            let mut eval = FluidEvaluator::new(&app);
            let slo = app.slo_ms;
            assert!(r.p95_ms <= slo, "{} @ {rps}: infeasible optimum", app.name);
            assert!(r.sweeps < 40, "{} @ {rps}: hit the sweep cap", app.name);
            for i in 0..r.alloc.len() {
                if r.alloc.get(i) <= MIN_ALLOC + 1e-12 {
                    continue;
                }
                let mut cut = r.alloc.clone();
                cut.set(i, r.alloc.get(i) - 0.1);
                let p95 = eval.evaluate(&cut, rps).p95_ms;
                assert!(
                    p95 > slo,
                    "{} @ {rps}: service {i} still reducible (p95 {p95} ms)",
                    app.name
                );
            }
        }
    }
}

#[test]
fn fluid_usage_p90_and_peak_are_fixed_multiples_of_the_mean() {
    for (app, loads) in fig15_cells() {
        let mut eval = FluidEvaluator::new(&app);
        let stats = eval.evaluate(&Allocation::new(app.generous_alloc.clone()), loads[0]);
        for (i, s) in stats.per_service.iter().enumerate() {
            let mean = s.cpu_used_s / stats.duration_s;
            assert!(
                (s.usage_p90_cores - 1.15 * mean).abs() <= 1e-12 * mean,
                "{} service {i}: p90 {} vs mean {mean}",
                app.name,
                s.usage_p90_cores
            );
            assert!(
                (s.usage_peak_cores - 2.5 * mean).abs() <= 1e-12 * mean,
                "{} service {i}: peak {} vs mean {mean}",
                app.name,
                s.usage_peak_cores
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Throughput conservation: at feasible allocations the simulator
    /// completes roughly what arrives, for any load in the feasible
    /// band.
    #[test]
    fn throughput_matches_offered_load(rps in 60.0f64..250.0) {
        let app = pema_apps::toy_chain();
        let stats = measure(&app, &Allocation::new(app.generous_alloc.clone()), rps, 55);
        prop_assert!(
            (stats.achieved_rps - rps).abs() < rps * 0.2 + 5.0,
            "achieved {} vs offered {}", stats.achieved_rps, rps
        );
    }

    /// Latency monotone in uniform scale (coarse grid, exact seeds).
    #[test]
    fn latency_monotone_in_uniform_scale(seed in 0u64..50) {
        let app = pema_apps::toy_chain();
        let hi = Allocation::new(app.generous_alloc.clone());
        let lo = Allocation::new(app.generous_alloc.iter().map(|x| x * 0.3).collect());
        let s_hi = measure(&app, &hi, 150.0, seed);
        let s_lo = measure(&app, &lo, 150.0, seed);
        prop_assert!(
            s_lo.mean_ms >= s_hi.mean_ms * 0.95,
            "lo alloc faster than hi? {} vs {}", s_lo.mean_ms, s_hi.mean_ms
        );
    }
}
