//! The discrete-event simulator against closed-form queueing results,
//! an oracle that shares none of its code: each application below is
//! built by hand from [`pema_sim::topology`], and the expected mean
//! response time comes from textbook formulas, not from the engine.
//!
//! A service alone on a 1-core node, with unbounded threads and an
//! allocation above the node's cores (so CFS never throttles it), is a
//! processor-sharing server: the engine splits the node's core evenly
//! among the running jobs. Under Poisson arrivals that is M/G/1-PS,
//! whose mean response time S/(1−ρ) depends on the service-time
//! distribution only through its mean S. So one formula must hold at
//! every demand CV. PS servers are quasi-reversible, so a tandem of
//! them (a request visits A, which calls B, with no network delay)
//! adds up: S_A/(1−ρ_A) + S_B/(1−ρ_B).
//!
//! ρ is each station's *realised* load, `cpu_used_s / duration_s`,
//! not the nominal λS: a window's Poisson arrivals and log-normal
//! demands drift from their means by a percent or so, and at ρ = 0.6
//! a 1 % error in ρ moves 1/(1−ρ) by 1.5 %. The realised load removes
//! that noise and leaves the engine's own error.
//!
//! The tolerance is [`TOL`]. Over seeds 1–8, every case read within
//! ±2.3 % at ρ ∈ {0.3, 0.6} with 600 s windows, and within ±1.5 % at
//! ρ = 0.8 with 20 000 s windows; the errors straddle zero, so the
//! spread is sampling noise, not a bias of the engine.

use pema_sim::topology::{CallGroup, EndpointNode, NodeSpec, RequestClass, ServiceId, ServiceSpec};
use pema_sim::{AppSpec, ClusterSim, WindowStats};

/// Largest relative error of the mean response time accepted.
const TOL: f64 = 0.03;
const SEED: u64 = 7;
const WARMUP_S: f64 = 50.0;
/// Mean CPU demand per visit of the first (or only) station, seconds.
const S_A: f64 = 0.010;
/// Mean CPU demand per visit of the tandem's second station, seconds.
const S_B: f64 = 0.005;

/// A service alone on its own 1-core node, never throttled.
fn station(name: &str, demand_s: f64, cv: f64, node: usize) -> ServiceSpec {
    ServiceSpec::new(name, demand_s)
        .cv(cv)
        .threads(None)
        .on_node(node)
}

fn app(services: Vec<ServiceSpec>, endpoints: Vec<EndpointNode>) -> AppSpec {
    let n = services.len();
    AppSpec {
        name: "oracle".into(),
        services,
        endpoints,
        classes: vec![RequestClass {
            name: "req".into(),
            weight: 1.0,
            root: 0,
        }],
        nodes: vec![NodeSpec { cores: 1.0 }; n],
        net_delay_s: 0.0,
        slo_ms: 1e3,
        generous_alloc: vec![2.0; n],
    }
}

/// One PS station with mean demand [`S_A`].
fn single(cv: f64) -> AppSpec {
    app(
        vec![station("a", S_A, cv, 0)],
        vec![EndpointNode {
            service: ServiceId(0),
            work_scale: 1.0,
            groups: vec![],
        }],
    )
}

/// A (mean demand [`S_A`], node 0) does all its work, then calls
/// B (mean demand [`S_B`], node 1) and replies when B does.
fn tandem(cv: f64) -> AppSpec {
    app(
        vec![station("a", S_A, cv, 0).pre(1.0), station("b", S_B, cv, 1)],
        vec![
            EndpointNode {
                service: ServiceId(0),
                work_scale: 1.0,
                groups: vec![CallGroup {
                    calls: vec![(1, 1.0)],
                }],
            },
            EndpointNode {
                service: ServiceId(1),
                work_scale: 1.0,
                groups: vec![],
            },
        ],
    )
}

/// One measured window of `window_s` at `rps` after [`WARMUP_S`].
fn measure(app: &AppSpec, rps: f64, window_s: f64, seed: u64) -> WindowStats {
    ClusterSim::new(app, seed).run_window(rps, WARMUP_S, window_s)
}

/// Relative error of the measured mean response time against the
/// sum of S_i/(1−ρ̂_i) over the stations, after checking that no
/// station was throttled.
fn ps_error(w: &WindowStats, demands: &[f64]) -> f64 {
    let expected_s: f64 = demands
        .iter()
        .zip(&w.per_service)
        .map(|(s, svc)| {
            assert_eq!(svc.throttled_s, 0.0, "a PS station was throttled");
            let rho = svc.cpu_used_s / w.duration_s;
            assert!(rho < 0.95, "realised load {rho}");
            s / (1.0 - rho)
        })
        .sum();
    w.mean_ms / (expected_s * 1e3) - 1.0
}

/// Checks the single station and the tandem at every CV in
/// {0.5, 1, 2}, with the first station's nominal load at `rho`.
fn check(rho: f64, window_s: f64) {
    let rps = rho / S_A;
    for cv in [0.5, 1.0, 2.0] {
        let cases = [
            (
                "single",
                measure(&single(cv), rps, window_s, SEED),
                &[S_A][..],
            ),
            (
                "tandem",
                measure(&tandem(cv), rps, window_s, SEED),
                &[S_A, S_B][..],
            ),
        ];
        for (name, w, demands) in cases {
            let err = ps_error(&w, demands);
            println!(
                "{name} rho {rho} cv {cv}: mean {:.3} ms, error {:+.2} %",
                w.mean_ms,
                err * 1e2
            );
            assert!(
                err.abs() <= TOL,
                "{name} at rho {rho}, cv {cv}: mean {} ms is {:+.2} % off the PS formula",
                w.mean_ms,
                err * 1e2
            );
        }
    }
}

#[test]
fn processor_sharing_matches_its_closed_form() {
    for rho in [0.3, 0.6] {
        check(rho, 600.0);
    }
}

/// Near saturation the mean converges slowly: over seeds 1–8, 6 000 s
/// windows still spread ±3.0 %, so this variant measures 20 000 s
/// windows (±1.5 %), about 10 s in release. CI runs it by name.
#[test]
#[ignore = "20 000 s windows near saturation; run in release"]
fn processor_sharing_matches_its_closed_form_near_saturation() {
    check(0.8, 20_000.0);
}
