//! The fluid model's flat evaluation plan against an oracle that shares
//! none of its code: [`RecursiveFluid`] below is the evaluator as it was
//! before the plan existed — a clone of the `AppSpec`, walked
//! recursively on every call — rebuilt from the crate's public API
//! only, with its own copy of the normal-tail approximation.
//!
//! The comparison is `to_bits()` for `to_bits()` on every field of
//! every `WindowStats` and `ServiceWindowStats`, plus `bottleneck_rho`:
//! goldens and benchmark digests pin the model's output bit for bit, so
//! "close" is a failure here.

use pema_sim::runtime::CFS_PERIOD_S;
use pema_sim::topology::{CallGroup, EndpointNode, NodeSpec, RequestClass, ServiceId, ServiceSpec};
use pema_sim::{
    Allocation, AppSpec, Evaluator, FluidEvaluator, ServiceWindowStats, TailModel, WindowStats,
    BURST_P90_DEFAULT, PEAK_FACTOR_DEFAULT,
};
use proptest::prelude::*;

/// The pre-plan evaluator, verbatim but for its name.
struct RecursiveFluid {
    app: AppSpec,
    visits: Vec<f64>,
    demand: Vec<f64>,
    speed: f64,
    window_s: f64,
    burst_p90: f64,
    peak_factor: f64,
    tail: TailModel,
}

impl RecursiveFluid {
    fn new(app: &AppSpec) -> Self {
        app.validate().expect("invalid AppSpec");
        Self {
            app: app.clone(),
            visits: app.expected_visits(),
            demand: app.expected_demand(),
            speed: 1.0,
            window_s: 20.0,
            burst_p90: BURST_P90_DEFAULT,
            peak_factor: PEAK_FACTOR_DEFAULT,
            tail: TailModel::calibrated(),
        }
    }

    fn visit_demand(&self, i: usize) -> f64 {
        if self.visits[i] > 0.0 {
            self.demand[i] / self.visits[i] / self.speed
        } else {
            0.0
        }
    }

    fn utilization(&self, i: usize, alloc: f64, lambda_i: f64) -> f64 {
        lambda_i * self.visit_demand(i) / alloc
    }

    fn bottleneck_rho(&self, alloc: &Allocation, rps: f64) -> f64 {
        (0..self.app.services.len())
            .map(|i| self.utilization(i, alloc.get(i), rps * self.visits[i]))
            .fold(0.0, f64::max)
    }

    fn visit_sojourn(&self, i: usize, alloc: f64, lambda_i: f64) -> f64 {
        let d_visit = self.visit_demand(i);
        if d_visit == 0.0 {
            return 0.0;
        }
        let rho = lambda_i * d_visit / alloc;
        if rho >= 1.0 {
            return f64::INFINITY;
        }
        let base = d_visit / (1.0 - rho);
        let quota = alloc * CFS_PERIOD_S;
        let nu = lambda_i * CFS_PERIOD_S;
        let p_throttle = if nu > 0.0 && d_visit > 0.0 {
            let thresh = quota / d_visit;
            normal_tail((thresh - nu) / nu.sqrt().max(1e-9))
        } else {
            0.0
        };
        base + p_throttle * CFS_PERIOD_S * 0.5
    }

    fn throttle_fraction(&self, i: usize, alloc: f64, lambda_i: f64) -> f64 {
        let d_visit = self.visit_demand(i);
        if d_visit == 0.0 {
            return 0.0;
        }
        let rho = lambda_i * d_visit / alloc;
        if rho >= 1.0 {
            return 1.0;
        }
        let quota = alloc * CFS_PERIOD_S;
        let nu = lambda_i * CFS_PERIOD_S;
        if nu <= 0.0 || d_visit <= 0.0 {
            return 0.0;
        }
        let thresh = quota / d_visit;
        normal_tail((thresh - nu) / nu.sqrt().max(1e-9))
    }

    fn endpoint_latency(&self, e: usize, sojourn: &[f64]) -> f64 {
        let ep = &self.app.endpoints[e];
        let own = sojourn[ep.service.0] * ep.work_scale.max(0.0);
        let mut total = own;
        for g in &ep.groups {
            let mut group_latency: f64 = 0.0;
            for &(child, p) in &g.calls {
                let l = p * (self.endpoint_latency(child, sojourn) + 2.0 * self.app.net_delay_s);
                group_latency = group_latency.max(l);
            }
            total += group_latency;
        }
        total
    }

    fn evaluate(&mut self, alloc: &Allocation, rps: f64) -> WindowStats {
        assert_eq!(alloc.len(), self.app.services.len());
        let n = self.app.services.len();
        let mut sojourn = vec![0.0; n];
        let mut per_service = Vec::with_capacity(n);
        let mut rho_max: f64 = 0.0;
        for i in 0..n {
            let lambda_i = rps * self.visits[i];
            sojourn[i] = self.visit_sojourn(i, alloc.get(i), lambda_i);
            rho_max = rho_max.max(self.utilization(i, alloc.get(i), lambda_i));
            let cpu_rate = (rps * self.demand[i] / self.speed).min(alloc.get(i));
            let util = cpu_rate / alloc.get(i) * 100.0;
            let thr_frac = self.throttle_fraction(i, alloc.get(i), lambda_i);
            per_service.push(ServiceWindowStats {
                alloc_cores: alloc.get(i),
                util_pct: util,
                cpu_used_s: cpu_rate * self.window_s,
                throttled_s: thr_frac * self.window_s,
                usage_p90_cores: cpu_rate * self.burst_p90,
                usage_peak_cores: cpu_rate * self.peak_factor.max(self.burst_p90),
                mem_bytes: self.app.services[i].mem_base_bytes,
                visits: (lambda_i * self.window_s).round() as u64,
                mean_self_ms: self.visit_demand(i) * 1e3,
                mean_visit_ms: sojourn[i] * 1e3,
            });
        }
        let total_w: f64 = self.app.classes.iter().map(|c| c.weight).sum();
        let mut mean_s = 0.0;
        for c in &self.app.classes {
            mean_s += c.weight / total_w * self.endpoint_latency(c.root, &sojourn);
        }
        let p95 = mean_s * self.tail.p95.factor(rho_max);
        let p99 = mean_s * self.tail.p99.factor(rho_max);
        let max = mean_s * self.tail.max.factor(rho_max);
        let completed = (rps * self.window_s).round() as u64;
        WindowStats {
            start_s: 0.0,
            duration_s: self.window_s,
            offered_rps: rps,
            achieved_rps: if mean_s.is_finite() { rps } else { 0.0 },
            completed: if mean_s.is_finite() { completed } else { 0 },
            arrivals: completed,
            mean_ms: mean_s * 1e3,
            p50_ms: mean_s * 0.8 * 1e3,
            p95_ms: p95 * 1e3,
            p99_ms: p99 * 1e3,
            max_ms: max * 1e3,
            per_service,
        }
    }
}

fn normal_tail(z: f64) -> f64 {
    if z >= 8.0 {
        return 0.0;
    }
    if z <= -8.0 {
        return 1.0;
    }
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Every field of a window as raw bits, in declaration order.
fn bits(w: &WindowStats) -> Vec<u64> {
    let mut out = vec![
        w.start_s.to_bits(),
        w.duration_s.to_bits(),
        w.offered_rps.to_bits(),
        w.achieved_rps.to_bits(),
        w.completed,
        w.arrivals,
        w.mean_ms.to_bits(),
        w.p50_ms.to_bits(),
        w.p95_ms.to_bits(),
        w.p99_ms.to_bits(),
        w.max_ms.to_bits(),
    ];
    for s in &w.per_service {
        out.extend([
            s.alloc_cores.to_bits(),
            s.util_pct.to_bits(),
            s.cpu_used_s.to_bits(),
            s.throttled_s.to_bits(),
            s.usage_p90_cores.to_bits(),
            s.usage_peak_cores.to_bits(),
            s.mem_bytes.to_bits(),
            s.visits,
            s.mean_self_ms.to_bits(),
            s.mean_visit_ms.to_bits(),
        ]);
    }
    out
}

/// A five-service app holding the shapes the paper apps lack:
///
/// * `idle` — a service no class visits (only endpoint 5 runs on it,
///   and no root reaches endpoint 5);
/// * a diamond — `left` and `right` both call endpoint 0 (`leaf`);
/// * endpoint 5 — unreachable from any root, though it has children;
/// * a zero-probability call to `hot`'s endpoint beside a live one:
///   class `bulk` loads `hot` directly, so `hot` can saturate, and
///   then `gate`'s group computes `0 × ∞`.
fn edge_app() -> AppSpec {
    let leaf = |service: usize| EndpointNode {
        service: ServiceId(service),
        work_scale: 1.0,
        groups: vec![],
    };
    let calling = |service: usize, work_scale: f64, groups: Vec<Vec<(usize, f64)>>| EndpointNode {
        service: ServiceId(service),
        work_scale,
        groups: groups
            .into_iter()
            .map(|calls| CallGroup { calls })
            .collect(),
    };
    AppSpec {
        name: "edge".into(),
        services: vec![
            ServiceSpec::new("gate", 0.0010),
            ServiceSpec::new("left", 0.0020),
            ServiceSpec::new("right", 0.0015).cv(1.4),
            ServiceSpec::new("leaf", 0.0030),
            ServiceSpec::new("hot", 0.0040),
            ServiceSpec::new("idle", 0.0010),
        ],
        endpoints: vec![
            leaf(3),                               // 0: leaf
            calling(1, 1.0, vec![vec![(0, 1.0)]]), // 1: left  -> leaf
            calling(2, 0.5, vec![vec![(0, 0.7)]]), // 2: right -> leaf
            leaf(4),                               // 3: hot
            calling(
                0,
                1.0,
                vec![vec![(1, 1.0), (2, 0.8)], vec![(3, 0.0), (0, 0.25)]],
            ), // 4: gate (root)
            calling(5, 2.0, vec![vec![(0, 1.0), (3, 1.0)]]), // 5: unreachable
        ],
        classes: vec![
            RequestClass {
                name: "page".into(),
                weight: 3.0,
                root: 4,
            },
            RequestClass {
                name: "bulk".into(),
                weight: 1.0,
                root: 3,
            },
        ],
        nodes: vec![NodeSpec { cores: 32.0 }],
        net_delay_s: 0.0002,
        slo_ms: 80.0,
        generous_alloc: vec![1.0, 1.5, 1.0, 2.0, 1.0, 0.5],
    }
}

/// `(app, nominal rps)` for every app the property ranges over.
fn apps() -> Vec<(AppSpec, f64)> {
    vec![
        (pema_apps::sockshop(), 700.0),
        (pema_apps::trainticket(), 250.0),
        (pema_apps::hotelreservation(), 600.0),
        (pema_apps::toy_chain(), 150.0),
        (pema_apps::cluster_scale(24), 960.0),
        (edge_app(), 200.0),
    ]
}

/// Evaluates both models at one point and compares them bit for bit.
fn compare(
    flat: &mut FluidEvaluator,
    oracle: &mut RecursiveFluid,
    alloc: &Allocation,
    rps: f64,
) -> Result<WindowStats, TestCaseError> {
    let got = flat.evaluate(alloc, rps);
    let want = oracle.evaluate(alloc, rps);
    prop_assert_eq!(bits(&got), bits(&want));
    prop_assert_eq!(
        flat.bottleneck_rho(alloc, rps).to_bits(),
        oracle.bottleneck_rho(alloc, rps).to_bits()
    );
    Ok(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random allocations (0.05–1.5 × generous with ±30 % per-service
    /// jitter, so low scales saturate services), loads, speeds and
    /// window lengths, two evaluations per case on the same pair so the
    /// reused scratch is exercised too.
    #[test]
    fn flat_plan_matches_the_recursive_evaluator(
        which in 0usize..6,
        scale in prop_oneof![0.05f64..0.4, 0.4f64..1.5],
        load in 0.2f64..1.8,
        knobs in (0.5f64..2.0, 1.0f64..120.0, 1.0f64..4.0, 1.0f64..4.0),
        jitter in proptest::collection::vec(0.7f64..1.3, 120),
    ) {
        let (app, nominal) = apps().swap_remove(which);
        let (speed, window_s, burst_p90, peak_factor) = knobs;
        let mut flat = FluidEvaluator::new(&app);
        let mut oracle = RecursiveFluid::new(&app);
        prop_assert_eq!(flat.n_services(), app.services.len());
        prop_assert_eq!(flat.slo_ms().to_bits(), app.slo_ms.to_bits());
        let alloc_at = |scale: f64| {
            Allocation::new(
                app.generous_alloc
                    .iter()
                    .zip(&jitter)
                    .map(|(g, j)| g * scale * j)
                    .collect(),
            )
        };
        // Defaults first, then every knob moved.
        compare(&mut flat, &mut oracle, &alloc_at(scale), nominal * load)?;
        (flat.speed, oracle.speed) = (speed, speed);
        (flat.window_s, oracle.window_s) = (window_s, window_s);
        (flat.burst_p90, oracle.burst_p90) = (burst_p90, burst_p90);
        (flat.peak_factor, oracle.peak_factor) = (peak_factor, peak_factor);
        let legacy = TailModel::constant(pema_sim::LEGACY_P95_FACTOR);
        (flat.tail, oracle.tail) = (legacy, legacy);
        compare(&mut flat, &mut oracle, &alloc_at(1.55 - scale), nominal * load)?;
    }
}

#[test]
fn the_property_reaches_saturated_and_healthy_windows() {
    // The ranges above are only an oracle test if they land on both
    // sides of saturation for every app.
    for (app, nominal) in apps() {
        let mut flat = FluidEvaluator::new(&app);
        let at =
            |scale: f64| Allocation::new(app.generous_alloc.iter().map(|g| g * scale).collect());
        assert!(
            flat.evaluate(&at(0.05), nominal * 1.8).p95_ms.is_infinite(),
            "{} never saturates",
            app.name
        );
        assert!(
            flat.evaluate(&at(1.5), nominal * 0.2).p95_ms.is_finite(),
            "{} never runs healthy",
            app.name
        );
    }
}

#[test]
fn edge_shapes_match_bit_for_bit() {
    let app = edge_app();
    let mut flat = FluidEvaluator::new(&app);
    let mut oracle = RecursiveFluid::new(&app);
    let generous = Allocation::new(app.generous_alloc.clone());

    // Healthy: the diamond's leaf is computed once in the plan and once
    // per parent in the oracle, the unreachable endpoint not at all.
    let healthy = compare(&mut flat, &mut oracle, &generous, 200.0).unwrap();
    assert!(healthy.p95_ms.is_finite());
    // `idle` is visited by no class: no load, no latency, no visits.
    let idle = &healthy.per_service[5];
    assert_eq!(
        (idle.visits, idle.cpu_used_s, idle.mean_visit_ms),
        (0, 0.0, 0.0)
    );

    // `hot` saturated (200 rps × ¼ of the mix × 4 ms = 0.2 cores
    // against 0.1): its endpoint's latency is ∞, `gate`'s
    // zero-probability call to it is 0 × ∞ = NaN, and `f64::max` must
    // drop that NaN so `page` stays finite while `bulk` makes the mean
    // infinite — never NaN.
    let mut starved = app.generous_alloc.clone();
    starved[4] = 0.1;
    let sat = compare(&mut flat, &mut oracle, &Allocation::new(starved), 200.0).unwrap();
    assert!(sat.per_service[4].mean_visit_ms.is_infinite());
    assert!(sat.per_service[0].mean_visit_ms.is_finite());
    assert!(sat.mean_ms.is_infinite() && sat.p95_ms.is_infinite());
    assert_eq!((sat.completed, sat.achieved_rps), (0, 0.0));

    // Back to healthy on the same evaluator: nothing of the saturated
    // pass survives in the scratch.
    let again = compare(&mut flat, &mut oracle, &generous, 200.0).unwrap();
    assert_eq!(bits(&again), bits(&healthy));
}
