//! RULE — Kubernetes-style rule-based allocation (§4.2).
//!
//! The paper's commercial comparison point is Kubernetes' rule-based
//! scaling: the HPA drives resources so that measured CPU usage sits at
//! a target fraction of the allocation, and the companion VPA rule uses
//! the 90th percentile of recent usage samples with overprovisioning
//! headroom (§5 cites both). RULE is *latency-blind*: it never looks at
//! the SLO, only at usage — so its safety comes entirely from the
//! utilization headroom, which is exactly the inefficiency PEMA
//! exploits (Fig. 15: PEMA saves up to 33% vs RULE).
//!
//! Implementation: per service, take the p90 of per-second usage
//! samples over the last few monitoring windows and allocate
//! `p90_usage / target_utilization` (a 65% target over 5 windows),
//! clamped between the cluster floor and the service's generous
//! allocation.

use pema_sim::{Allocation, AppSpec, WindowStats, MIN_ALLOC};

/// Target utilization: an allocation is sized so the p90 usage sits
/// at this fraction of it (HPA-style).
const TARGET_UTIL: f64 = 0.65;
/// Number of recent windows whose p90 samples are retained.
const WINDOW: usize = 5;

/// Kubernetes-flavoured rule-based vertical scaler.
#[derive(Debug, Clone)]
pub struct RuleScaler {
    /// Per-service upper clamp.
    cap: Vec<f64>,
    /// Recent p90-of-1s-usage samples: one ring of [`WINDOW`] slots per
    /// service, service `i` at `i * WINDOW..`. A slot not yet written
    /// holds 0.0, which the max below cannot tell from absent.
    ring: Vec<f64>,
    /// Slot the next sample overwrites — the oldest once the ring is
    /// full. All services advance together.
    head: usize,
}

impl RuleScaler {
    /// Creates a scaler for an application, capped at its generous
    /// allocation: a 65% utilization target over the last 5 windows.
    pub fn new(app: &AppSpec) -> Self {
        Self::capped_at(app.generous_alloc.clone())
    }

    /// [`new`](Self::new) for any per-service upper clamp.
    pub fn capped_at(cap: Vec<f64>) -> Self {
        Self {
            ring: vec![0.0; WINDOW * cap.len()],
            cap,
            head: 0,
        }
    }

    /// Ingests one monitoring window and returns the allocation for the
    /// next interval.
    ///
    /// # Panics
    /// Panics if the window's service count differs from the cap's.
    pub fn step(&mut self, stats: &WindowStats) -> Allocation {
        assert_eq!(stats.per_service.len(), self.cap.len());
        let mut next = Vec::with_capacity(self.cap.len());
        for ((s, h), cap) in stats
            .per_service
            .iter()
            .zip(self.ring.chunks_exact_mut(WINDOW))
            .zip(&self.cap)
        {
            h[self.head] = s.usage_p90_cores;
            // Max over the retained p90 samples: a spike in any recent
            // window keeps the allocation up (the rule errs safe).
            let p90 = h.iter().copied().fold(0.0f64, f64::max);
            next.push((p90 / TARGET_UTIL).clamp(MIN_ALLOC, *cap));
        }
        self.head = (self.head + 1) % WINDOW;
        Allocation::new(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pema_sim::stats::ServiceWindowStats;

    fn app() -> AppSpec {
        pema_apps::toy_chain()
    }

    fn window(p90s: &[f64]) -> WindowStats {
        WindowStats {
            start_s: 0.0,
            duration_s: 30.0,
            offered_rps: 100.0,
            achieved_rps: 100.0,
            completed: 3000,
            arrivals: 3000,
            mean_ms: 10.0,
            p50_ms: 8.0,
            p95_ms: 20.0,
            p99_ms: 30.0,
            max_ms: 50.0,
            per_service: p90s
                .iter()
                .map(|&p| ServiceWindowStats {
                    alloc_cores: 1.0,
                    util_pct: 50.0,
                    cpu_used_s: 15.0,
                    throttled_s: 0.0,
                    usage_p90_cores: p,
                    usage_peak_cores: p * 1.3,
                    mem_bytes: 1e8,
                    visits: 3000,
                    mean_self_ms: 1.0,
                    mean_visit_ms: 2.0,
                })
                .collect(),
        }
    }

    #[test]
    fn sizes_for_target_utilization() {
        let mut r = RuleScaler::new(&app());
        let a = r.step(&window(&[0.39, 0.78, 0.195]));
        assert!((a.get(0) - 0.6).abs() < 1e-9);
        assert!((a.get(1) - 1.2).abs() < 1e-9);
        assert!((a.get(2) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn default_target_overprovisions() {
        let mut r = RuleScaler::new(&app());
        let a = r.step(&window(&[0.65, 0.65, 0.65]));
        // p90 0.65 at 65% target → exactly 1.0 core.
        for i in 0..3 {
            assert!((a.get(i) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn clamps_to_generous_cap() {
        let mut r = RuleScaler::new(&app());
        let a = r.step(&window(&[100.0, 100.0, 100.0]));
        for (i, cap) in app().generous_alloc.iter().enumerate() {
            assert_eq!(a.get(i), *cap);
        }
    }

    #[test]
    fn floors_idle_services() {
        let mut r = RuleScaler::new(&app());
        let a = r.step(&window(&[0.0, 0.0, 0.0]));
        for i in 0..3 {
            assert_eq!(a.get(i), MIN_ALLOC);
        }
    }

    #[test]
    fn remembers_spikes_within_window() {
        let mut r = RuleScaler::new(&app());
        r.step(&window(&[0.78, 0.065, 0.065]));
        // Four quiet windows: spike is still within the 5-window memory.
        for _ in 0..4 {
            let a = r.step(&window(&[0.065, 0.065, 0.065]));
            assert!((a.get(0) - 1.2).abs() < 1e-9, "spike forgotten early");
        }
        // Sixth window: spike evicted.
        let a = r.step(&window(&[0.065, 0.065, 0.065]));
        assert!((a.get(0) - 0.1).abs() < 1e-9);
    }

    /// The rule as first written: one deque of p90 samples per service,
    /// trimmed to the last [`WINDOW`].
    struct DequeRule {
        history: Vec<std::collections::VecDeque<f64>>,
    }

    impl DequeRule {
        fn step(&mut self, p90s: &[f64], cap: &[f64]) -> Vec<f64> {
            let mut next = Vec::new();
            for (i, &p) in p90s.iter().enumerate() {
                let h = &mut self.history[i];
                h.push_back(p);
                while h.len() > WINDOW {
                    h.pop_front();
                }
                let p90 = h.iter().copied().fold(0.0f64, f64::max);
                next.push((p90 / TARGET_UTIL).clamp(MIN_ALLOC, cap[i]));
            }
            next
        }
    }

    /// A deterministic, spiky p90 series (LCG; spikes decay out of the
    /// window at different times per service).
    fn sample(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 40) as f64 / (1u64 << 24) as f64
    }

    #[test]
    fn ring_matches_per_service_deques() {
        let app = app();
        let n = app.services.len();
        for k in 0..7 {
            let mut rule = RuleScaler::new(&app);
            let mut reference = DequeRule {
                history: vec![Default::default(); n],
            };
            let mut state = 0x5EED + k;
            for step in 0..30 {
                let p90s: Vec<f64> = (0..n).map(|_| sample(&mut state)).collect();
                let got = rule.step(&window(&p90s));
                let want = reference.step(&p90s, &app.generous_alloc);
                assert_eq!(got.0, want, "series {k}, step {step}");
            }
        }
    }
}
