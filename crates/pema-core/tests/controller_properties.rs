//! Property tests on the PEMA controller: invariants that must hold for
//! *any* observation sequence, not just the happy paths the unit tests
//! cover.

use pema_core::{Action, PemaController, PemaParams};
use pema_sim::{ServiceWindowStats, WindowStats, MIN_ALLOC};
use proptest::prelude::*;

/// Arbitrary per-service observation.
fn arb_service() -> impl Strategy<Value = ServiceWindowStats> {
    (0.0f64..120.0, 0.0f64..30.0).prop_map(|(u, h)| ServiceWindowStats {
        util_pct: u,
        throttled_s: h,
        ..Default::default()
    })
}

/// Arbitrary observation for `n` services, p95 spanning healthy to
/// deeply violating.
fn arb_obs(n: usize) -> impl Strategy<Value = WindowStats> {
    (
        prop_oneof![10.0f64..240.0, 250.1f64..2000.0, Just(f64::INFINITY)],
        50.0f64..1000.0,
        proptest::collection::vec(arb_service(), n),
    )
        .prop_map(|(p95, rps, services)| WindowStats {
            p95_ms: p95,
            offered_rps: rps,
            per_service: services,
            ..Default::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reduction steps are monotonic: no service grows unless the
    /// action was a rollback or an exploration jump.
    #[test]
    fn reductions_are_monotonic(
        seed in 0u64..1000,
        observations in proptest::collection::vec(arb_obs(6), 1..40)
    ) {
        let mut params = PemaParams::defaults(250.0);
        params.seed = seed;
        let mut ctrl = PemaController::new(params, vec![2.0; 6]);
        for obs in &observations {
            let before = ctrl.allocation().to_vec();
            let out = ctrl.step(obs);
            match out.action {
                Action::Reduced { .. } | Action::Held => {
                    for (a, b) in out.alloc.iter().zip(&before) {
                        prop_assert!(*a <= *b + 1e-12);
                    }
                }
                Action::RolledBack | Action::Explored => {}
                a @ (Action::LearnM | Action::Rule) => {
                    prop_assert!(false, "the controller never decides {:?}", a);
                }
            }
        }
    }

    /// The allocation floor is never violated.
    #[test]
    fn floor_always_respected(
        seed in 0u64..1000,
        observations in proptest::collection::vec(arb_obs(4), 1..60)
    ) {
        let mut params = PemaParams::defaults(250.0);
        params.seed = seed;
        let mut ctrl = PemaController::new(params, vec![1.5; 4]);
        for obs in &observations {
            let out = ctrl.step(obs);
            for &a in &out.alloc {
                prop_assert!(a >= MIN_ALLOC - 1e-12);
            }
        }
    }

    /// A violating observation always yields a rollback action, and the
    /// controller never stays on the exact allocation that violated.
    #[test]
    fn violations_always_roll_back(
        seed in 0u64..1000,
        preamble in proptest::collection::vec(arb_obs(4), 0..10)
    ) {
        let mut params = PemaParams::defaults(250.0);
        params.seed = seed;
        let mut ctrl = PemaController::new(params, vec![1.5; 4]);
        for obs in &preamble {
            ctrl.step(obs);
        }
        let service = ServiceWindowStats { util_pct: 50.0, throttled_s: 1.0, ..Default::default() };
        let violating = WindowStats {
            p95_ms: 400.0,
            offered_rps: 100.0,
            per_service: vec![service; 4],
            ..Default::default()
        };
        let out = ctrl.step(&violating);
        prop_assert_eq!(out.action, Action::RolledBack);
    }

    /// Thresholds are monotone non-decreasing over any run.
    #[test]
    fn thresholds_never_decrease(
        seed in 0u64..1000,
        observations in proptest::collection::vec(arb_obs(5), 1..40)
    ) {
        let mut params = PemaParams::defaults(250.0);
        params.seed = seed;
        let mut ctrl = PemaController::new(params, vec![2.0; 5]);
        let mut prev_u = ctrl.util_thresholds().to_vec();
        let mut prev_h = ctrl.throttle_thresholds().to_vec();
        for obs in &observations {
            ctrl.step(obs);
            for (new, old) in ctrl.util_thresholds().iter().zip(&prev_u) {
                prop_assert!(new >= old);
            }
            for (new, old) in ctrl.throttle_thresholds().iter().zip(&prev_h) {
                prop_assert!(new >= old);
            }
            prev_u = ctrl.util_thresholds().to_vec();
            prev_h = ctrl.throttle_thresholds().to_vec();
        }
    }

    /// The controller is a pure function of (params, observation
    /// sequence): identical runs agree step by step.
    #[test]
    fn replay_determinism(
        seed in 0u64..1000,
        observations in proptest::collection::vec(arb_obs(3), 1..25)
    ) {
        let mk = || {
            let mut params = PemaParams::defaults(250.0);
            params.seed = seed;
            PemaController::new(params, vec![2.0; 3])
        };
        let mut a = mk();
        let mut b = mk();
        for obs in &observations {
            let oa = a.step(obs);
            let ob = b.step(obs);
            prop_assert_eq!(oa.alloc, ob.alloc);
        }
    }

    /// On constant evidence with headroom — every service 15–90 %
    /// utilized, none throttling, p95 at most half the target — PEMA
    /// cuts on every step while any service is above the floor, and
    /// the total never rises. A repeatable signal puts every service
    /// at its learned threshold from the first step on (Eqn. 6), the
    /// case where Eqn. 5 is 0/0.
    #[test]
    fn no_hold_on_constant_evidence(
        seed in 0u64..1000,
        utils in proptest::collection::vec(15.0f64..90.0, 2..9),
        p95_frac in 0.0f64..0.5,
        rps in 50.0f64..1000.0,
    ) {
        let n = utils.len();
        let mut params = PemaParams::defaults(250.0);
        params.seed = seed;
        params.explore_a = 0.0;
        params.explore_b = 0.0;
        let mut ctrl = PemaController::new(params, vec![2.0; n]);
        let window = WindowStats {
            p95_ms: 250.0 * p95_frac,
            offered_rps: rps,
            per_service: utils
                .iter()
                .map(|&u| ServiceWindowStats { util_pct: u, throttled_s: 0.0, ..Default::default() })
                .collect(),
            ..Default::default()
        };
        let mut total = ctrl.total_alloc();
        for step in 0..60 {
            if ctrl.allocation().iter().all(|&a| a <= MIN_ALLOC) {
                break;
            }
            let out = ctrl.step(&window);
            let reduced = matches!(out.action, Action::Reduced { .. });
            prop_assert!(reduced, "step {}: {:?}", step, out.action);
            prop_assert!(ctrl.total_alloc() <= total);
            total = ctrl.total_alloc();
        }
    }
}
