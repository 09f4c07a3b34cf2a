//! The evaluation interface shared by the DES and the fluid model.
//!
//! Search procedures (the OPTM baseline, calibration sweeps, property
//! tests) need to ask "what happens under allocation x at load λ?"
//! without caring whether the answer comes from the full discrete-event
//! simulation or the fast analytic approximation. [`Evaluator`] is that
//! interface.

use crate::engine::ClusterSim;
use crate::stats::WindowStats;
use crate::topology::{Allocation, AppSpec};

/// Evaluates the steady-state behaviour of an allocation at a load.
pub trait Evaluator {
    /// Number of services in the application.
    fn n_services(&self) -> usize;
    /// The application's SLO (p95 response time, ms).
    fn slo_ms(&self) -> f64;
    /// Measures the application under `alloc` at `rps` offered load.
    fn evaluate(&mut self, alloc: &Allocation, rps: f64) -> WindowStats;
}

/// DES-backed evaluator: every call builds a fresh simulator (empty
/// queues) and measures one window.
///
/// Uses *common random numbers*: every evaluation replays the same
/// arrival and demand randomness, so comparisons between allocations
/// see configuration effects rather than sampling noise — the standard
/// variance-reduction technique for simulation-based search.
pub struct SimEvaluator {
    app: AppSpec,
    seed: u64,
    /// Settling time before measurement, seconds.
    warmup_s: f64,
    /// Measured window length, seconds.
    window_s: f64,
    /// Independent replications per evaluation; the reported window is
    /// the one with the **worst p95** (robust evaluation). With 1, the
    /// evaluator is pure CRN.
    replications: u32,
    evaluations: u64,
}

impl SimEvaluator {
    /// Creates an evaluator with the given base seed and default
    /// 4 s warmup / 20 s measurement window, single replication.
    pub fn new(app: &AppSpec, seed: u64) -> Self {
        Self {
            app: app.clone(),
            seed,
            warmup_s: 4.0,
            window_s: 20.0,
            replications: 1,
            evaluations: 0,
        }
    }

    /// Sets warmup and window lengths.
    pub fn with_window(mut self, warmup_s: f64, window_s: f64) -> Self {
        self.warmup_s = warmup_s;
        self.window_s = window_s;
        self
    }

    /// Evaluates each configuration under `k` independent seeds and
    /// reports the worst-p95 window. Search procedures (OPTM) use this
    /// so a configuration is only "feasible" if it survives more than
    /// one lucky measurement window.
    pub fn with_robustness(mut self, k: u32) -> Self {
        assert!(k >= 1, "need at least one replication");
        self.replications = k;
        self
    }

    /// Number of `evaluate` calls so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

impl Evaluator for SimEvaluator {
    fn n_services(&self) -> usize {
        self.app.services.len()
    }

    fn slo_ms(&self) -> f64 {
        self.app.slo_ms
    }

    fn evaluate(&mut self, alloc: &Allocation, rps: f64) -> WindowStats {
        self.evaluations += 1;
        let mut worst: Option<WindowStats> = None;
        for r in 0..self.replications {
            let mut sim = ClusterSim::new(&self.app, self.seed.wrapping_add(r as u64 * 0x9E37));
            sim.set_allocation(alloc);
            let stats = sim.run_window(rps, self.warmup_s, self.window_s);
            let replace = match &worst {
                None => true,
                Some(w) => stats.p95_ms > w.p95_ms,
            };
            if replace {
                worst = Some(stats);
            }
        }
        worst.expect("at least one replication")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{
        CallGroup, EndpointNode, NodeSpec, RequestClass, ServiceId, ServiceSpec,
    };

    fn app() -> AppSpec {
        AppSpec {
            name: "pair".into(),
            services: vec![
                ServiceSpec::new("a", 0.002).cv(0.5),
                ServiceSpec::new("b", 0.003).cv(0.5),
            ],
            endpoints: vec![
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
            classes: vec![RequestClass {
                name: "r".into(),
                weight: 1.0,
                root: 0,
            }],
            nodes: vec![NodeSpec { cores: 32.0 }],
            net_delay_s: 0.0002,
            slo_ms: 100.0,
            generous_alloc: vec![1.5, 1.5],
        }
    }

    #[test]
    fn evaluations_are_reproducible() {
        let mut e = SimEvaluator::new(&app(), 5).with_window(1.0, 8.0);
        let a = Allocation::new(vec![1.0, 1.0]);
        let s1 = e.evaluate(&a, 50.0);
        let s2 = e.evaluate(&a, 50.0);
        assert_eq!(s1.p95_ms, s2.p95_ms, "CRN evaluations must match");
        assert_eq!(e.evaluations(), 2);
    }

    #[test]
    fn common_random_numbers_order_configs_cleanly() {
        let mut e = SimEvaluator::new(&app(), 5).with_window(1.0, 8.0);
        let rich = e.evaluate(&Allocation::new(vec![1.5, 1.5]), 80.0);
        let poor = e.evaluate(&Allocation::new(vec![0.2, 0.25]), 80.0);
        assert!(
            poor.mean_ms > rich.mean_ms,
            "poor={} rich={}",
            poor.mean_ms,
            rich.mean_ms
        );
    }

    #[test]
    fn trait_object_usable() {
        let mut e: Box<dyn Evaluator> =
            Box::new(SimEvaluator::new(&app(), 1).with_window(0.5, 4.0));
        assert_eq!(e.n_services(), 2);
        assert_eq!(e.slo_ms(), 100.0);
        let s = e.evaluate(&Allocation::new(vec![1.0, 1.0]), 20.0);
        assert!(s.completed > 0);
    }
}
