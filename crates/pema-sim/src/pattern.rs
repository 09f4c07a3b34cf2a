//! Deterministic request-rate patterns.
//!
//! The paper drives its three applications with several load shapes:
//! fixed request rates for the core efficiency results, a 36-hour
//! Wikipedia-derived diurnal trace for the extended run (Fig. 14,
//! [`wiki`](crate::wiki)), and square bursts for the adaptability study
//! (Fig. 18). A [`Workload`] is a function from time (seconds) to
//! offered load (requests per second); the control loop samples it at
//! each interval start. Random bursts are [`mmpp`](crate::mmpp).

/// A workload: offered load (requests/second) as a function of time.
pub trait Workload {
    /// Offered load at time `t_s` seconds.
    fn rps_at(&self, t_s: f64) -> f64;
}

/// Piecewise-constant steps: `(start_s, rps)` pairs; the rate of the
/// last step whose start time is ≤ t applies.
#[derive(Debug, Clone)]
pub struct StepPattern {
    steps: Vec<(f64, f64)>,
}

impl StepPattern {
    /// Builds a step pattern. Steps are sorted by start time; the rate
    /// before the first step is the first step's rate.
    pub fn new(mut steps: Vec<(f64, f64)>) -> Self {
        assert!(!steps.is_empty(), "step pattern needs at least one step");
        steps.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        Self { steps }
    }
}

impl Workload for StepPattern {
    fn rps_at(&self, t_s: f64) -> f64 {
        let mut rate = self.steps[0].1;
        for &(start, r) in &self.steps {
            if t_s >= start {
                rate = r;
            } else {
                break;
            }
        }
        rate.max(0.0)
    }
}

/// A base rate with square bursts: each burst lifts the rate to
/// `burst_rps` for `[start_s, start_s + duration_s)` (paper Fig. 18).
#[derive(Debug, Clone)]
pub struct BurstPattern {
    /// Rate outside bursts.
    pub base_rps: f64,
    /// `(start_s, duration_s, burst_rps)` triples.
    pub bursts: Vec<(f64, f64, f64)>,
}

impl Workload for BurstPattern {
    fn rps_at(&self, t_s: f64) -> f64 {
        for &(start, dur, rps) in &self.bursts {
            if t_s >= start && t_s < start + dur {
                return rps.max(0.0);
            }
        }
        self.base_rps.max(0.0)
    }
}

/// Smooth diurnal pattern: a day-period sinusoid with a weaker second
/// harmonic (morning/evening peaks), oscillating between `min_rps` and
/// `max_rps` with period `period_s` (default 24 h).
#[derive(Debug, Clone)]
pub struct DiurnalPattern {
    /// Lowest rate of the cycle.
    pub min_rps: f64,
    /// Highest rate of the cycle.
    pub max_rps: f64,
    /// Cycle length in seconds (86 400 for a day).
    pub period_s: f64,
    /// Phase offset in seconds (shifts the trough).
    pub phase_s: f64,
}

impl Workload for DiurnalPattern {
    fn rps_at(&self, t_s: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * (t_s + self.phase_s) / self.period_s;
        // Fundamental + 25% second harmonic, normalized to [0, 1].
        let raw = 0.5 - 0.5 * w.cos() + 0.125 * (2.0 * w).sin();
        let norm = (raw / 1.125).clamp(0.0, 1.0);
        (self.min_rps + (self.max_rps - self.min_rps) * norm).max(0.0)
    }
}

/// Replays a sampled trace with linear interpolation; time past the end
/// wraps around (so a 24 h trace loops for a 36 h experiment).
#[derive(Debug, Clone)]
pub struct TracePattern {
    /// Sample interval, seconds.
    pub sample_interval_s: f64,
    /// Rate samples.
    pub samples: Vec<f64>,
}

impl TracePattern {
    /// Builds a trace; panics if fewer than two samples.
    pub fn new(sample_interval_s: f64, samples: Vec<f64>) -> Self {
        assert!(samples.len() >= 2, "trace needs at least two samples");
        assert!(sample_interval_s > 0.0, "sample interval must be positive");
        Self {
            sample_interval_s,
            samples,
        }
    }

    /// Total trace duration before wrap-around, seconds.
    pub fn duration_s(&self) -> f64 {
        self.samples.len() as f64 * self.sample_interval_s
    }
}

impl Workload for TracePattern {
    fn rps_at(&self, t_s: f64) -> f64 {
        let dur = self.duration_s();
        let t = t_s.rem_euclid(dur);
        let pos = t / self.sample_interval_s;
        let i = pos.floor() as usize % self.samples.len();
        let j = (i + 1) % self.samples.len();
        let frac = pos - pos.floor();
        (self.samples[i] * (1.0 - frac) + self.samples[j] * frac).max(0.0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A 24-hour cycle between the given bounds.
    fn daily(min_rps: f64, max_rps: f64) -> DiurnalPattern {
        DiurnalPattern {
            min_rps,
            max_rps,
            period_s: 86_400.0,
            phase_s: 0.0,
        }
    }

    /// Smallest and largest rate of `w` over `[0, horizon_s]`, probed
    /// at 1 s resolution.
    pub(crate) fn range_over(w: &dyn Workload, horizon_s: f64) -> (f64, f64) {
        let steps = horizon_s.max(1.0) as usize;
        (0..=steps)
            .map(|i| w.rps_at(i as f64))
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), r| {
                (lo.min(r), hi.max(r))
            })
    }

    #[test]
    fn steps_switch_at_boundaries() {
        let w = StepPattern::new(vec![(0.0, 100.0), (60.0, 300.0), (120.0, 200.0)]);
        assert_eq!(w.rps_at(0.0), 100.0);
        assert_eq!(w.rps_at(59.9), 100.0);
        assert_eq!(w.rps_at(60.0), 300.0);
        assert_eq!(w.rps_at(150.0), 200.0);
    }

    #[test]
    fn steps_sort_input() {
        let w = StepPattern::new(vec![(60.0, 300.0), (0.0, 100.0)]);
        assert_eq!(w.rps_at(10.0), 100.0);
    }

    #[test]
    #[should_panic]
    fn steps_reject_empty() {
        StepPattern::new(vec![]);
    }

    #[test]
    fn bursts_override_base() {
        let w = BurstPattern {
            base_rps: 400.0,
            bursts: vec![(600.0, 600.0, 750.0), (1800.0, 600.0, 650.0)],
        };
        assert_eq!(w.rps_at(0.0), 400.0);
        assert_eq!(w.rps_at(700.0), 750.0);
        assert_eq!(w.rps_at(1200.0), 400.0);
        assert_eq!(w.rps_at(1900.0), 650.0);
        assert_eq!(w.rps_at(2400.0), 400.0);
    }

    #[test]
    fn diurnal_respects_bounds() {
        let w = daily(200.0, 1100.0);
        let (lo, hi) = range_over(&w, 86_400.0);
        assert!(lo >= 200.0 - 1e-9, "lo={lo}");
        assert!(hi <= 1100.0 + 1e-9, "hi={hi}");
        assert!(hi - lo > 600.0, "cycle should span most of the range");
    }

    #[test]
    fn diurnal_trough_at_zero_phase() {
        let w = daily(100.0, 200.0);
        assert!(w.rps_at(0.0) < 115.0);
        assert!(w.rps_at(43_200.0) > 180.0);
    }

    #[test]
    fn trace_interpolates_and_wraps() {
        let w = TracePattern::new(10.0, vec![100.0, 200.0, 300.0]);
        assert_eq!(w.rps_at(0.0), 100.0);
        assert_eq!(w.rps_at(5.0), 150.0);
        assert_eq!(w.rps_at(10.0), 200.0);
        // Wraps after 30 s.
        assert_eq!(w.rps_at(30.0), 100.0);
        assert_eq!(w.rps_at(35.0), 150.0);
    }

    #[test]
    #[should_panic]
    fn trace_rejects_single_sample() {
        TracePattern::new(10.0, vec![1.0]);
    }

    #[test]
    fn bounds_probe() {
        let w = StepPattern::new(vec![(0.0, 100.0), (5.0, 900.0)]);
        let (lo, hi) = range_over(&w, 10.0);
        assert_eq!(lo, 100.0);
        assert_eq!(hi, 900.0);
    }
}
