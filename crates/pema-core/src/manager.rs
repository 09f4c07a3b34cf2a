//! Workload-aware PEMA — dynamic range splitting (paper §3.4).
//!
//! One [`crate::PemaController`] learns the efficient allocation for one
//! workload *range*. The manager owns a partition of the workload axis
//! into ranges, routes each interval's observation to the range
//! containing the current load, and recursively splits ranges in half
//! once their controller has matured (Fig. 10b): the **high** child
//! keeps the parent's PEMA process (same id, same state); the **low**
//! child gets a *new* process bootstrapped from the parent's allocation
//! — an allocation that satisfies the SLO at a higher workload also
//! satisfies it lower down.
//!
//! Per Eqn. 9, each step tilts the active controller's response-time
//! target by the workload slope `m`, learned once at startup while the
//! allocation is held fixed.

use crate::config::PemaParams;
use crate::controller::{Action, PemaController, StepOutcome};
use crate::observation::Observation;
use crate::ranges::WorkloadRange;
use crate::target::{DynamicTarget, SlopeLearner};

/// Configuration for the range manager.
#[derive(Debug, Clone)]
pub struct RangeConfig {
    /// The full workload band to manage, rps.
    pub initial: WorkloadRange,
    /// Stop splitting once ranges are at most this wide, rps.
    pub target_width: f64,
    /// Split a range after its controller has run this many intervals
    /// since the range was created.
    pub split_after: u32,
    /// Number of fixed-allocation intervals used to learn the slope
    /// `m` at startup.
    pub m_learn_steps: u32,
}

impl RangeConfig {
    /// Sensible defaults: split after 12 intervals down to
    /// `target_width`.
    pub fn new(initial: WorkloadRange, target_width: f64) -> Self {
        Self {
            initial,
            target_width,
            split_after: 12,
            m_learn_steps: 5,
        }
    }
}

/// One workload range and its PEMA process.
#[derive(Debug, Clone)]
struct RangeEntry {
    range: WorkloadRange,
    ctrl: PemaController,
    /// Stable process id for reporting (paper Fig. 10b's "#1..#5").
    pema_id: usize,
    /// Intervals run since this range was created.
    iterations: u32,
}

/// What the manager did in one step.
#[derive(Debug, Clone)]
pub struct ManagerOutcome {
    /// Allocation to apply for the next interval.
    pub alloc: Vec<f64>,
    /// Controller action (None while still learning `m`).
    pub action: Option<Action>,
    /// Id of the PEMA process that acted.
    pub pema_id: usize,
    /// The range that acted.
    pub range: WorkloadRange,
    /// The dynamic response-time target used, ms.
    pub target_ms: f64,
    /// True while the manager is in the startup slope-learning phase.
    pub learning_m: bool,
    /// Set when this step split a range: `(parent_hi_id, new_low_id)`.
    pub split: Option<(usize, usize)>,
    /// True when the active range changed since the previous step
    /// (burst handling: allocation switched to the new range's).
    pub switched_range: bool,
}

/// Workload-aware PEMA: a forest of per-range controllers.
#[derive(Debug, Clone)]
pub struct WorkloadAwarePema {
    cfg: RangeConfig,
    ranges: Vec<RangeEntry>,
    learner: SlopeLearner,
    /// Learned latency-vs-workload slope, ms per rps.
    m: Option<f64>,
    active: usize,
    next_pema_id: usize,
    params: PemaParams,
}

impl WorkloadAwarePema {
    /// Creates the manager with one controller covering the whole band,
    /// starting from `initial_alloc`.
    pub fn new(params: PemaParams, initial_alloc: Vec<f64>, cfg: RangeConfig) -> Self {
        params.validate().expect("invalid PemaParams");
        let ctrl = PemaController::new(params.clone(), initial_alloc);
        Self {
            ranges: vec![RangeEntry {
                range: cfg.initial,
                ctrl,
                pema_id: 1,
                iterations: 0,
            }],
            learner: SlopeLearner::new(),
            m: None,
            active: 0,
            next_pema_id: 2,
            cfg,
            params,
        }
    }

    /// The learned workload slope `m` (ms per rps), once available.
    pub fn slope_m(&self) -> Option<f64> {
        self.m
    }

    /// The SLO currently in force, ms.
    ///
    /// Reads the active range's controller (not the construction-time
    /// [`PemaParams`]) so the value stays correct after
    /// [`set_slo_ms`](Self::set_slo_ms).
    pub fn slo_ms(&self) -> f64 {
        self.ranges[self.active].ctrl.params().slo_ms
    }

    /// The parameters every per-range controller was created with.
    pub fn params(&self) -> &PemaParams {
        &self.params
    }

    /// Current ranges as `(range, pema_id, iterations)`, ordered by
    /// workload.
    pub fn ranges(&self) -> Vec<(WorkloadRange, usize, u32)> {
        self.ranges
            .iter()
            .map(|e| (e.range, e.pema_id, e.iterations))
            .collect()
    }

    /// The allocation the manager would deploy for workload `rps`
    /// (used for pre-emptive burst switching without a control step).
    pub fn allocation_for(&self, rps: f64) -> &[f64] {
        let idx = self.range_index(rps);
        self.ranges[idx].ctrl.allocation()
    }

    /// Index of the range containing `rps` (clamped to the ends).
    fn range_index(&self, rps: f64) -> usize {
        let n = self.ranges.len();
        for (i, e) in self.ranges.iter().enumerate() {
            if e.range.contains(rps, i == n - 1) {
                return i;
            }
        }
        if rps < self.ranges[0].range.lo {
            0
        } else {
            n - 1
        }
    }

    /// Changes the SLO of every per-range controller (Fig. 20).
    pub fn set_slo_ms(&mut self, slo_ms: f64) {
        for e in &mut self.ranges {
            e.ctrl.set_slo_ms(slo_ms);
        }
    }

    /// Runs one control interval.
    pub fn step(&mut self, obs: &Observation) -> ManagerOutcome {
        // Startup: learn the workload slope with allocation fixed.
        if self.m.is_none() {
            self.learner.record(obs.rps, obs.p95_ms);
            if (self.learner.len() as u32) < self.cfg.m_learn_steps {
                let e = &self.ranges[self.active];
                return ManagerOutcome {
                    alloc: e.ctrl.allocation().to_vec(),
                    action: None,
                    pema_id: e.pema_id,
                    range: e.range,
                    target_ms: e.ctrl.params().slo_ms,
                    learning_m: true,
                    split: None,
                    switched_range: false,
                };
            }
            // Flat fallback when the workload never varied.
            self.m = Some(self.learner.fit().unwrap_or(0.0));
        }

        // Route to the range owning the current workload.
        let idx = self.range_index(obs.rps);
        let switched = idx != self.active;
        self.active = idx;

        // Tilt the target (Eqn. 9). The learned slope is floored at a
        // fraction of the SLO per range width: when the latency-vs-
        // workload curve is flat at the learning allocation (m ≈ 0 —
        // common when learning happens at the generous allocation, far
        // from the knee), a zero tilt would let a range settle on an
        // allocation tuned at its bottom edge that violates at its top.
        // The floor guarantees ≥ 25% SLO headroom at the bottom of any
        // range and vanishes as ranges narrow — consistent with the
        // paper's note that the dynamic target stops mattering for
        // final (narrow) ranges.
        let m = self.m.unwrap_or(0.0);
        let entry = &mut self.ranges[idx];
        let slo = entry.ctrl.params().slo_ms;
        let width = entry.range.width().max(1e-9);
        let m_floor = 0.25 * slo / width;
        let target = DynamicTarget {
            m: m.max(m_floor),
            lambda_max: entry.range.hi,
            r_slo_ms: slo,
        };
        let target_ms = target.at(obs.rps);
        entry.ctrl.set_target_ms(target_ms);
        let out: StepOutcome = entry.ctrl.step(obs);
        entry.iterations += 1;
        let pema_id = entry.pema_id;
        let range = entry.range;

        // Maybe split this range.
        let split = self.maybe_split(idx);

        ManagerOutcome {
            alloc: out.alloc,
            action: Some(out.action),
            pema_id,
            range,
            target_ms,
            learning_m: false,
            split,
            switched_range: switched,
        }
    }

    /// Splits range `idx` when it has matured: high child keeps the
    /// controller, low child gets a bootstrapped clone.
    fn maybe_split(&mut self, idx: usize) -> Option<(usize, usize)> {
        let e = &self.ranges[idx];
        if e.iterations < self.cfg.split_after || e.range.is_final(self.cfg.target_width) {
            return None;
        }
        let (low, high) = e.range.split();
        let parent_id = e.pema_id;
        let new_id = self.next_pema_id;
        self.next_pema_id += 1;

        // Low child: clone of the parent's controller, reseeded so the
        // two processes decorrelate, counting iterations afresh.
        // The paper bootstraps the low child from the parent's
        // allocation; cloning carries the learned thresholds and the
        // RHDb along, which only helps (feasible history transfers
        // downward by monotonicity). Decorrelation between siblings
        // comes from acting on different workloads.
        let low_ctrl = e.ctrl.clone();

        let high_entry = RangeEntry {
            range: high,
            ctrl: self.ranges[idx].ctrl.clone(),
            pema_id: parent_id,
            iterations: 0,
        };
        let low_entry = RangeEntry {
            range: low,
            ctrl: low_ctrl,
            pema_id: new_id,
            iterations: 0,
        };
        // Replace idx with the two children, keeping order by workload.
        self.ranges[idx] = low_entry;
        self.ranges.insert(idx + 1, high_entry);
        // Fix the active pointer: it should follow the range containing
        // whatever workload we last served; the next step re-routes
        // anyway, so pointing at the high child is safe.
        self.active = idx + 1;
        Some((parent_id, new_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::ServiceObs;

    fn obs(p95: f64, rps: f64) -> Observation {
        Observation {
            p95_ms: p95,
            rps,
            services: vec![
                ServiceObs {
                    util_pct: 10.0,
                    throttle_s: 0.0
                };
                4
            ],
        }
    }

    fn manager() -> WorkloadAwarePema {
        let mut p = PemaParams::defaults(900.0);
        p.explore_a = 0.0;
        p.explore_b = 0.0;
        let cfg = RangeConfig {
            initial: WorkloadRange::new(200.0, 400.0),
            target_width: 50.0,
            split_after: 4,
            m_learn_steps: 3,
        };
        WorkloadAwarePema::new(p, vec![2.0; 4], cfg)
    }

    #[test]
    fn learns_m_before_acting() {
        let mut mgr = manager();
        let o1 = mgr.step(&obs(300.0, 200.0));
        assert!(o1.learning_m);
        assert!(o1.action.is_none());
        let o2 = mgr.step(&obs(350.0, 300.0));
        assert!(o2.learning_m);
        // Third sample completes learning; acting starts.
        let o3 = mgr.step(&obs(400.0, 400.0));
        assert!(!o3.learning_m);
        assert!(o3.action.is_some());
        let m = mgr.slope_m().unwrap();
        assert!((m - 0.5).abs() < 1e-9, "m={m}");
    }

    #[test]
    fn target_tilts_with_workload() {
        let mut mgr = manager();
        mgr.step(&obs(300.0, 200.0));
        mgr.step(&obs(350.0, 300.0));
        mgr.step(&obs(400.0, 400.0));
        // Low workload in the 200–400 range → target below SLO.
        let out = mgr.step(&obs(300.0, 250.0));
        assert!(out.target_ms < 900.0, "target={}", out.target_ms);
        // At the top of the range → target == SLO.
        let out = mgr.step(&obs(400.0, 400.0));
        assert!((out.target_ms - 900.0).abs() < 1e-9);
    }

    #[test]
    fn splits_after_maturity() {
        let mut mgr = manager();
        // 3 learning steps + enough control steps to trigger a split.
        for i in 0..12 {
            let rps = 200.0 + (i as f64 * 37.0) % 200.0;
            let out = mgr.step(&obs(400.0, rps));
            if out.split.is_some() {
                break;
            }
        }
        assert!(mgr.ranges().len() >= 2, "range should have split");
        // Children partition the original band.
        let rs = mgr.ranges();
        assert_eq!(rs[0].0.lo, 200.0);
        assert_eq!(rs.last().unwrap().0.hi, 400.0);
    }

    #[test]
    fn high_child_keeps_parent_id() {
        let mut mgr = manager();
        for _ in 0..3 {
            mgr.step(&obs(400.0, 300.0));
        }
        let mut split = None;
        for _ in 0..8 {
            let out = mgr.step(&obs(400.0, 300.0));
            if out.split.is_some() {
                split = out.split;
                break;
            }
        }
        let (parent, new) = split.expect("split should fire");
        assert_eq!(parent, 1);
        assert_eq!(new, 2);
        let rs = mgr.ranges();
        // Low child carries the new id, high child the parent id.
        assert_eq!(rs[0].1, 2);
        assert_eq!(rs[1].1, 1);
    }

    #[test]
    fn splitting_stops_at_target_width() {
        let mut mgr = manager();
        // Drive many iterations across the band.
        for i in 0..200 {
            let rps = 200.0 + (i as f64 * 53.0) % 200.0;
            mgr.step(&obs(400.0, rps));
        }
        for (r, _, _) in mgr.ranges() {
            assert!(r.width() >= 50.0 - 1e-9, "range {r} split too far");
        }
        // 200..400 at width 50 → exactly 4 final ranges.
        assert_eq!(mgr.ranges().len(), 4);
    }

    #[test]
    fn burst_switches_range_and_allocation() {
        let mut mgr = manager();
        // Learn m (3 steps), then mature the initial range with
        // near-target responses (no reduction, just iterations).
        for _ in 0..3 {
            mgr.step(&obs(850.0, 300.0));
        }
        for _ in 0..5 {
            mgr.step(&obs(850.0, 300.0));
        }
        assert!(mgr.ranges().len() >= 2, "expected a split by now");
        // Step only the low range with lots of headroom: it reduces
        // while the high range stays at the bootstrap allocation.
        for _ in 0..3 {
            mgr.step(&obs(200.0, 220.0));
        }
        let low_alloc = mgr.allocation_for(220.0).to_vec();
        let high_alloc = mgr.allocation_for(380.0).to_vec();
        assert_ne!(low_alloc, high_alloc, "ranges should have diverged");
        // A burst to 380 must switch the active range.
        let out = mgr.step(&obs(350.0, 380.0));
        assert!(out.switched_range);
        assert_eq!(out.range.hi, 400.0);
    }

    #[test]
    fn out_of_band_workloads_clamp() {
        let mut mgr = manager();
        for _ in 0..3 {
            mgr.step(&obs(300.0, 300.0));
        }
        let lo = mgr.step(&obs(300.0, 50.0));
        assert_eq!(lo.range.lo, 200.0);
        let hi = mgr.step(&obs(300.0, 900.0));
        assert!(hi.range.hi >= 399.0);
    }

    #[test]
    fn slo_change_propagates() {
        let mut mgr = manager();
        for _ in 0..3 {
            mgr.step(&obs(300.0, 300.0));
        }
        mgr.set_slo_ms(500.0);
        let out = mgr.step(&obs(499.0, 400.0));
        // 499 < 500: no violation expected.
        assert!(!matches!(out.action, Some(Action::RolledBack { .. })));
        let out = mgr.step(&obs(501.0, 400.0));
        assert!(matches!(out.action, Some(Action::RolledBack { .. })));
    }
}
