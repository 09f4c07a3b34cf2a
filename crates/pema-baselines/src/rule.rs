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
//! `p90_usage / target_utilization` (default target 65%), clamped
//! between the cluster floor and the service's generous allocation.

use pema_sim::{Allocation, AppSpec, WindowStats, MIN_ALLOC};

/// Kubernetes-flavoured rule-based vertical scaler.
#[derive(Debug, Clone)]
pub struct RuleScaler {
    /// Target utilization: allocation is sized so the p90 usage sits at
    /// this fraction of it (HPA-style; 0.65 by default).
    pub target_util: f64,
    /// Number of recent windows whose p90 samples are retained (read at
    /// every step; 0 is treated as 1, the current window alone).
    pub window: usize,
    /// Per-service upper clamp (the generous allocation).
    cap: Vec<f64>,
    /// Recent p90-of-1s-usage samples: one ring of `ring_window` slots
    /// per service, service `i` at `i * ring_window..`. A slot not yet
    /// written holds 0.0, which the max below cannot tell from absent.
    ring: Vec<f64>,
    /// The `window` the ring is laid out for.
    ring_window: usize,
    /// Slot the next sample overwrites — the oldest once the ring is
    /// full. All services advance together.
    head: usize,
    /// Samples retained per service, at most `ring_window`.
    seen: usize,
}

impl RuleScaler {
    /// Creates a scaler for an application with a 65% utilization
    /// target over the last 5 windows.
    pub fn new(app: &AppSpec) -> Self {
        Self {
            target_util: 0.65,
            window: 5,
            cap: app.generous_alloc.clone(),
            ring: Vec::new(),
            ring_window: 0,
            head: 0,
            seen: 0,
        }
    }

    /// Sets the utilization target (must be in (0, 1]).
    pub fn with_target_util(mut self, u: f64) -> Self {
        assert!(u > 0.0 && u <= 1.0, "target utilization must be in (0,1]");
        self.target_util = u;
        self
    }

    /// Lays the ring out for `window` slots per service, keeping the
    /// most recent samples that fit.
    fn resize_ring(&mut self, window: usize) {
        let (old, keep) = (self.ring_window, self.seen.min(window));
        let mut ring = vec![0.0; window * self.cap.len()];
        for (i, h) in ring.chunks_exact_mut(window).enumerate() {
            for (j, slot) in h[..keep].iter_mut().enumerate() {
                *slot = self.ring[i * old + (self.head + old - keep + j) % old];
            }
        }
        self.ring = ring;
        self.ring_window = window;
        self.head = keep % window;
        self.seen = keep;
    }

    /// Ingests one monitoring window and returns the allocation for the
    /// next interval.
    ///
    /// # Panics
    /// Panics if the window's service count differs from the app's.
    pub fn step(&mut self, stats: &WindowStats) -> Allocation {
        assert_eq!(stats.per_service.len(), self.cap.len());
        let window = self.window.max(1);
        if window != self.ring_window {
            self.resize_ring(window);
        }
        let mut next = Vec::with_capacity(self.cap.len());
        for ((s, h), cap) in stats
            .per_service
            .iter()
            .zip(self.ring.chunks_exact_mut(window))
            .zip(&self.cap)
        {
            h[self.head] = s.usage_p90_cores;
            // Max over the retained p90 samples: a spike in any recent
            // window keeps the allocation up (the rule errs safe).
            let p90 = h.iter().copied().fold(0.0f64, f64::max);
            next.push((p90 / self.target_util).clamp(MIN_ALLOC, *cap));
        }
        self.head = (self.head + 1) % window;
        self.seen = (self.seen + 1).min(window);
        Allocation::new(next)
    }

    /// Number of windows currently retained (all services advance
    /// together).
    pub fn windows_seen(&self) -> usize {
        self.seen
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
        let mut r = RuleScaler::new(&app()).with_target_util(0.5);
        let a = r.step(&window(&[0.4, 0.8, 0.2]));
        assert!((a.get(0) - 0.8).abs() < 1e-9);
        assert!((a.get(1) - 1.6).abs() < 1e-9);
        assert!((a.get(2) - 0.4).abs() < 1e-9);
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
        let mut r = RuleScaler::new(&app()).with_target_util(0.5);
        r.step(&window(&[0.6, 0.05, 0.05]));
        // Four quiet windows: spike is still within the 5-window memory.
        for _ in 0..4 {
            let a = r.step(&window(&[0.05, 0.05, 0.05]));
            assert!((a.get(0) - 1.2).abs() < 1e-9, "spike forgotten early");
        }
        // Sixth window: spike evicted.
        let a = r.step(&window(&[0.05, 0.05, 0.05]));
        assert!((a.get(0) - 0.1).abs() < 1e-9);
    }

    /// The rule as first written: one deque of p90 samples per service,
    /// trimmed to the last `window`.
    struct DequeRule {
        window: usize,
        history: Vec<std::collections::VecDeque<f64>>,
    }

    impl DequeRule {
        fn step(&mut self, p90s: &[f64], target_util: f64, cap: &[f64]) -> Vec<f64> {
            let mut next = Vec::new();
            for (i, &p) in p90s.iter().enumerate() {
                let h = &mut self.history[i];
                h.push_back(p);
                while h.len() > self.window {
                    h.pop_front();
                }
                let p90 = h.iter().copied().fold(0.0f64, f64::max);
                next.push((p90 / target_util).clamp(MIN_ALLOC, cap[i]));
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
        // Each schedule is the `window` in force at successive steps:
        // constant 1…7, then grown, shrunk and bounced mid-run.
        let mut schedules: Vec<Vec<usize>> = (1..=7).map(|w| vec![w; 30]).collect();
        schedules.push([vec![3; 8], vec![7; 12], vec![2; 10]].concat());
        schedules.push([vec![5; 3], vec![1; 4], vec![6; 9], vec![4; 9]].concat());
        for (k, schedule) in schedules.iter().enumerate() {
            let mut rule = RuleScaler::new(&app);
            let mut reference = DequeRule {
                window: 0,
                history: vec![Default::default(); n],
            };
            let mut state = 0x5EED + k as u64;
            for (step, &w) in schedule.iter().enumerate() {
                rule.window = w;
                reference.window = w;
                let p90s: Vec<f64> = (0..n).map(|_| sample(&mut state)).collect();
                let got = rule.step(&window(&p90s));
                let want = reference.step(&p90s, rule.target_util, &app.generous_alloc);
                assert_eq!(got.0, want, "schedule {k}, step {step}, window {w}");
                assert_eq!(
                    rule.windows_seen(),
                    reference.history[0].len(),
                    "schedule {k}, step {step}"
                );
                assert!(rule.windows_seen() <= w);
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_target_rejected() {
        let _ = RuleScaler::new(&app()).with_target_util(0.0);
    }
}
