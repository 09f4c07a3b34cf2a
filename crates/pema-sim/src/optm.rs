//! OPTM — the paper's optimum benchmark (§4.2).
//!
//! The paper defines an allocation as optimum when reducing any single
//! microservice by 0.1 CPU violates the SLO, and finds it by exhaustive
//! manual trial and error. This module mechanizes that definition:
//!
//! 1. **Pre-scaling**: uniformly shrink the starting allocation while
//!    it stays feasible (coarse, preserves the starting distribution);
//! 2. **Coordinate descent**: repeatedly sweep the services in a
//!    seeded random order, accepting any single-service `step_cores`
//!    reduction that keeps p95 ≤ SLO, until a full sweep makes no
//!    progress — exactly the paper's local-optimality condition.
//!
//! OPTM is *not* a deployable controller (its search violates the SLO
//! constantly); like in the paper it serves as the efficiency upper
//! bound for Fig. 15.

use crate::evaluator::{Evaluator, SimEvaluator};
use crate::topology::{Allocation, AppSpec, MIN_ALLOC};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Search configuration.
#[derive(Debug, Clone)]
pub struct OptmConfig {
    /// Single-service reduction step (the paper uses 0.1 CPU).
    pub step_cores: f64,
    /// Maximum coordinate-descent sweeps.
    pub max_sweeps: usize,
    /// Acceptance margin on the SLO: accept while `p95 ≤ margin × SLO`
    /// (1.0 = the paper's definition; < 1 is conservative).
    pub slo_margin: f64,
    /// Uniform pre-scaling factor per coarse step.
    pub prescale: f64,
    /// RNG seed for sweep ordering.
    pub seed: u64,
}

impl Default for OptmConfig {
    fn default() -> Self {
        Self {
            step_cores: 0.1,
            max_sweeps: 40,
            slo_margin: 1.0,
            prescale: 0.9,
            seed: 1,
        }
    }
}

/// Result of an OPTM search.
#[derive(Debug, Clone)]
pub struct OptmResult {
    /// The locally optimal allocation found.
    pub alloc: Allocation,
    /// Its total cores.
    pub total: f64,
    /// p95 of the final allocation, ms.
    pub p95_ms: f64,
    /// Number of evaluator calls spent.
    pub evaluations: u64,
    /// Coordinate sweeps executed.
    pub sweeps: usize,
}

/// Errors from the search.
#[derive(Debug, Clone, PartialEq)]
pub enum OptmError {
    /// The starting allocation already violates the SLO — the search
    /// has no feasible anchor.
    StartInfeasible {
        /// p95 observed at the start, ms.
        p95_ms: f64,
    },
}

impl std::fmt::Display for OptmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptmError::StartInfeasible { p95_ms } => {
                write!(f, "starting allocation violates SLO (p95 = {p95_ms} ms)")
            }
        }
    }
}

impl std::error::Error for OptmError {}

/// Runs the OPTM search at offered load `rps`, starting from `start`
/// (typically the application's generous allocation).
pub fn find_optimum(
    eval: &mut dyn Evaluator,
    start: &Allocation,
    rps: f64,
    cfg: &OptmConfig,
) -> Result<OptmResult, OptmError> {
    let slo = eval.slo_ms() * cfg.slo_margin;
    let mut evaluations = 0u64;
    let feasible = |alloc: &Allocation, ev: &mut dyn Evaluator, n: &mut u64| {
        *n += 1;
        let s = ev.evaluate(alloc, rps);
        (s.p95_ms <= slo, s.p95_ms)
    };

    let (ok, p95) = feasible(start, eval, &mut evaluations);
    if !ok {
        return Err(OptmError::StartInfeasible { p95_ms: p95 });
    }
    let mut current = start.clone();

    // Phase 1: uniform pre-scaling while feasible. The floor clamp in
    // `Allocation::new` means a fully-floored trial equals `current`;
    // without the progress check the loop would spin forever whenever
    // the all-floor allocation is feasible (easy to hit on large
    // topologies under light per-service load, e.g. the fluid-backed
    // `cluster_scale` sweep).
    loop {
        let trial = Allocation::new(current.0.iter().map(|x| x * cfg.prescale).collect());
        if trial.total() >= current.total() - 1e-9 {
            break;
        }
        let (ok, _) = feasible(&trial, eval, &mut evaluations);
        if ok {
            current = trial;
        } else {
            break;
        }
    }

    // Phase 2: coordinate descent to the paper's local optimum.
    let n = current.len();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut sweeps = 0;
    for _ in 0..cfg.max_sweeps {
        sweeps += 1;
        let mut order: Vec<usize> = (0..n).collect();
        // Fisher–Yates with the seeded RNG.
        for k in (1..n).rev() {
            let j = rng.gen_range(0..=k);
            order.swap(k, j);
        }
        let mut improved = false;
        for &i in &order {
            loop {
                let cur_i = current.get(i);
                if cur_i <= MIN_ALLOC + 1e-12 {
                    break;
                }
                let mut trial = current.clone();
                trial.set(i, cur_i - cfg.step_cores);
                let (ok, _) = feasible(&trial, eval, &mut evaluations);
                if ok {
                    current = trial;
                    improved = true;
                } else {
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let final_stats = eval.evaluate(&current, rps);
    evaluations += 1;
    Ok(OptmResult {
        total: current.total(),
        alloc: current,
        p95_ms: final_stats.p95_ms,
        evaluations,
        sweeps,
    })
}

/// OPTM for an app at one workload on the DES, starting from the
/// generous allocation: 4 s warm-up, 20 s windows, the worse of two
/// replications per evaluation.
pub fn optimum_for(app: &AppSpec, rps: f64, seed: u64) -> Result<OptmResult, OptmError> {
    let mut eval = SimEvaluator::new(app, seed)
        .with_window(4.0, 20.0)
        .with_robustness(2);
    let start = Allocation::new(app.generous_alloc.clone());
    find_optimum(&mut eval, &start, rps, &OptmConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{ServiceWindowStats, WindowStats};

    /// Synthetic evaluator: p95 = Σ c_i / x_i (separable, convex-ish),
    /// SLO 100 ms. The unique local optimum per coordinate is reached
    /// when any 0.1 reduction pushes p95 over 100.
    struct Toy {
        coef: Vec<f64>,
    }

    impl Evaluator for Toy {
        fn n_services(&self) -> usize {
            self.coef.len()
        }
        fn slo_ms(&self) -> f64 {
            100.0
        }
        fn evaluate(&mut self, alloc: &Allocation, _rps: f64) -> WindowStats {
            let p95: f64 = self
                .coef
                .iter()
                .zip(&alloc.0)
                .map(|(c, x)| c / x.max(1e-9))
                .sum();
            WindowStats {
                start_s: 0.0,
                duration_s: 1.0,
                offered_rps: 0.0,
                achieved_rps: 0.0,
                completed: 1,
                arrivals: 1,
                mean_ms: p95,
                p50_ms: p95,
                p95_ms: p95,
                p99_ms: p95,
                max_ms: p95,
                per_service: alloc
                    .0
                    .iter()
                    .map(|&a| ServiceWindowStats {
                        alloc_cores: a,
                        util_pct: 0.0,
                        cpu_used_s: 0.0,
                        throttled_s: 0.0,
                        usage_p90_cores: 0.0,
                        usage_peak_cores: 0.0,
                        mem_bytes: 0.0,
                        visits: 0,
                        mean_self_ms: 0.0,
                        mean_visit_ms: 0.0,
                    })
                    .collect(),
            }
        }
    }

    #[test]
    fn finds_local_optimum_on_toy_model() {
        let mut toy = Toy {
            coef: vec![10.0, 20.0, 5.0],
        };
        let start = Allocation::new(vec![3.0, 3.0, 3.0]);
        let r = find_optimum(&mut toy, &start, 100.0, &OptmConfig::default()).unwrap();
        // Final allocation is feasible...
        assert!(r.p95_ms <= 100.0);
        // ...and locally optimal: any 0.1 reduction violates.
        for i in 0..3 {
            let mut probe = r.alloc.clone();
            probe.set(i, probe.get(i) - 0.1);
            let s = toy.evaluate(&probe, 100.0);
            assert!(
                s.p95_ms > 100.0,
                "service {i} still reducible: {}",
                s.p95_ms
            );
        }
    }

    #[test]
    fn heavier_services_get_more_cores() {
        let mut toy = Toy {
            coef: vec![5.0, 40.0],
        };
        let start = Allocation::new(vec![4.0, 4.0]);
        let r = find_optimum(&mut toy, &start, 100.0, &OptmConfig::default()).unwrap();
        assert!(
            r.alloc.get(1) > r.alloc.get(0),
            "coef-40 service should keep more cores: {:?}",
            r.alloc
        );
    }

    #[test]
    fn terminates_at_the_floor_when_everything_is_feasible() {
        // Regression: with near-zero demands the all-floor allocation
        // is feasible, and the pre-scaling loop used to spin forever
        // (the floor clamp makes each trial equal to the current
        // allocation). First hit by the fluid-backed `cluster_scale`
        // sweep, where per-service load is tiny.
        let mut toy = Toy {
            coef: vec![1e-6; 8],
        };
        let start = Allocation::new(vec![2.0; 8]);
        let r = find_optimum(&mut toy, &start, 100.0, &OptmConfig::default()).unwrap();
        assert!(
            (r.total - 8.0 * MIN_ALLOC).abs() < 1e-9,
            "everything feasible ⇒ the optimum is the floor, got {}",
            r.total
        );
    }

    #[test]
    fn infeasible_start_is_an_error() {
        let mut toy = Toy { coef: vec![1000.0] };
        let start = Allocation::new(vec![1.0]);
        let r = find_optimum(&mut toy, &start, 100.0, &OptmConfig::default());
        assert!(matches!(r, Err(OptmError::StartInfeasible { .. })));
    }

    #[test]
    fn result_dominated_by_start() {
        let mut toy = Toy {
            coef: vec![10.0, 10.0, 10.0, 10.0],
        };
        let start = Allocation::new(vec![3.0; 4]);
        let r = find_optimum(&mut toy, &start, 100.0, &OptmConfig::default()).unwrap();
        assert!(r.alloc.dominated_by(&start));
        assert!(r.total < start.total());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut toy = Toy {
                coef: vec![10.0, 20.0, 5.0, 2.0],
            };
            let start = Allocation::new(vec![3.0; 4]);
            find_optimum(&mut toy, &start, 100.0, &OptmConfig::default())
                .unwrap()
                .alloc
        };
        assert_eq!(run(), run());
    }
}
