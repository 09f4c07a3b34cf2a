//! Workload-aware PEMA — dynamic range splitting (paper §3.4).
//!
//! One [`crate::PemaController`] learns the efficient allocation for one
//! workload *range*. The manager owns a partition of the workload axis
//! into ranges, routes each interval's observation to the range
//! containing the current load, and recursively splits ranges in half
//! once their controller has matured (Fig. 10b): the **high** child
//! keeps the parent's PEMA process (same id, same state); the **low**
//! child gets a *new* process id that starts as a clone of the parent's
//! controller — allocation, learned thresholds, RHDb and RNG state — an
//! allocation that satisfies the SLO at a higher workload also
//! satisfies it lower down.
//!
//! Per Eqn. 9, each step tilts the active controller's response-time
//! target by the workload slope `m`, learned once at startup while the
//! allocation is held fixed.

use crate::config::PemaParams;
use crate::controller::{Action, Decision, PemaController};
use crate::ranges::WorkloadRange;
use crate::target::{DynamicTarget, SlopeLearner};
use pema_sim::WindowStats;

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

    /// Runs one control interval on the measured window; the decision
    /// carries the id of the PEMA process that acted.
    pub fn step(&mut self, stats: &WindowStats) -> Decision {
        // Startup: learn the workload slope with allocation fixed.
        if self.m.is_none() {
            self.learner.record(stats.offered_rps, stats.p95_ms);
            if (self.learner.len() as u32) < self.cfg.m_learn_steps {
                let e = &self.ranges[self.active];
                return Decision {
                    alloc: e.ctrl.allocation().to_vec(),
                    action: Action::LearnM,
                    pema_id: e.pema_id,
                };
            }
            // Flat fallback when the workload never varied.
            self.m = Some(self.learner.fit().unwrap_or(0.0));
        }

        // Route to the range owning the current workload.
        let idx = self.range_index(stats.offered_rps);
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
        entry.ctrl.set_target_ms(target.at(stats.offered_rps));
        let mut decision = entry.ctrl.step(stats);
        entry.iterations += 1;
        decision.pema_id = entry.pema_id;

        // Maybe split this range.
        self.maybe_split(idx);
        decision
    }

    /// Splits range `idx` when it has matured: high child keeps the
    /// controller, low child gets a clone of it.
    fn maybe_split(&mut self, idx: usize) {
        let e = &self.ranges[idx];
        if e.iterations < self.cfg.split_after || e.range.is_final(self.cfg.target_width) {
            return;
        }
        let (low, high) = e.range.split();
        let new_id = self.next_pema_id;
        self.next_pema_id += 1;

        // Low child: a clone of the parent's controller, counting
        // iterations afresh. The paper bootstraps the low child from
        // the parent's allocation; cloning carries the learned
        // thresholds and the RHDb along, which only helps (feasible
        // history transfers downward by monotonicity). Nothing reseeds
        // the clone: both children start from the same RNG state and
        // decorrelate only by acting on different workloads.
        let low_entry = RangeEntry {
            range: low,
            ctrl: e.ctrl.clone(),
            pema_id: new_id,
            iterations: 0,
        };
        // High child: the parent entry itself, narrowed in place.
        let parent = &mut self.ranges[idx];
        parent.range = high;
        parent.iterations = 0;
        // The low child goes before it, keeping order by workload.
        self.ranges.insert(idx, low_entry);
        // Fix the active pointer: it should follow the range containing
        // whatever workload we last served; the next step re-routes
        // anyway, so pointing at the high child is safe.
        self.active = idx + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pema_sim::ServiceWindowStats;

    fn obs(p95: f64, rps: f64) -> WindowStats {
        let service = ServiceWindowStats {
            util_pct: 10.0,
            throttled_s: 0.0,
            ..Default::default()
        };
        WindowStats {
            p95_ms: p95,
            offered_rps: rps,
            per_service: vec![service; 4],
            ..Default::default()
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
        assert!(mgr.m.is_none());
        assert_eq!(o1.action, Action::LearnM);
        let o2 = mgr.step(&obs(350.0, 300.0));
        assert!(mgr.m.is_none());
        assert_eq!(o2.action, Action::LearnM);
        // Third sample completes learning; acting starts.
        let o3 = mgr.step(&obs(400.0, 400.0));
        assert!(mgr.m.is_some());
        assert_ne!(o3.action, Action::LearnM);
        let m = mgr.slope_m().unwrap();
        assert!((m - 0.5).abs() < 1e-9, "m={m}");
    }

    #[test]
    fn target_tilts_with_workload() {
        let mut mgr = manager();
        mgr.step(&obs(300.0, 200.0));
        mgr.step(&obs(350.0, 300.0));
        mgr.step(&obs(400.0, 400.0));
        let target = |mgr: &WorkloadAwarePema| mgr.ranges[mgr.active].ctrl.target_ms;
        // Low workload in the 200–400 range → target below SLO.
        mgr.step(&obs(300.0, 250.0));
        assert!(target(&mgr) < 900.0, "target={}", target(&mgr));
        // At the top of the range → target == SLO.
        mgr.step(&obs(400.0, 400.0));
        assert!((target(&mgr) - 900.0).abs() < 1e-9);
    }

    #[test]
    fn splits_after_maturity() {
        let mut mgr = manager();
        // 3 learning steps + enough control steps to trigger a split.
        for i in 0..12 {
            let rps = 200.0 + (i as f64 * 37.0) % 200.0;
            mgr.step(&obs(400.0, rps));
            if mgr.ranges.len() > 1 {
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
        for _ in 0..8 {
            mgr.step(&obs(400.0, 300.0));
            if mgr.ranges.len() > 1 {
                break;
            }
        }
        assert_eq!(mgr.ranges.len(), 2, "split should fire");
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
        let before = mgr.active;
        mgr.step(&obs(350.0, 380.0));
        assert_ne!(mgr.active, before);
        assert_eq!(mgr.ranges[mgr.active].range.hi, 400.0);
    }

    #[test]
    fn out_of_band_workloads_clamp() {
        let mut mgr = manager();
        for _ in 0..3 {
            mgr.step(&obs(300.0, 300.0));
        }
        mgr.step(&obs(300.0, 50.0));
        assert_eq!(mgr.ranges[mgr.active].range.lo, 200.0);
        mgr.step(&obs(300.0, 900.0));
        assert!(mgr.ranges[mgr.active].range.hi >= 399.0);
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
        assert_ne!(out.action, Action::RolledBack);
        let out = mgr.step(&obs(501.0, 400.0));
        assert_eq!(out.action, Action::RolledBack);
    }
}
