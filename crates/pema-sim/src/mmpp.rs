//! Markov-modulated Poisson process (MMPP) workload.
//!
//! The paper's burst experiment (Fig. 18) uses hand-placed square
//! bursts; real traffic bursts arrive at random times. An MMPP is the
//! standard model: a continuous-time Markov chain switches between
//! rate states (e.g. "calm" and "flash crowd"), and the offered load is
//! the rate of the current state. Because the `Workload` trait is a
//! pure function of time, the state path is **pre-sampled** at
//! construction from a seed, keeping runs reproducible.

use crate::pattern::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One state of the modulating chain.
#[derive(Debug, Clone, Copy)]
pub struct MmppState {
    /// Offered load while in this state, rps.
    pub rps: f64,
    /// Mean sojourn time in this state, seconds (exponential).
    pub mean_dwell_s: f64,
}

/// A pre-sampled MMPP workload over a fixed horizon (wraps around
/// afterwards).
#[derive(Debug, Clone)]
pub struct MmppWorkload {
    /// `(segment start time, rps)` changepoints, sorted by time.
    segments: Vec<(f64, f64)>,
    horizon_s: f64,
}

impl MmppWorkload {
    /// Samples a state path over `horizon_s` seconds. The chain starts
    /// in state 0 and transitions uniformly at random to a *different*
    /// state at each jump.
    ///
    /// # Panics
    /// Panics with fewer than two states or non-positive dwell times.
    pub fn new(states: &[MmppState], horizon_s: f64, seed: u64) -> Self {
        assert!(states.len() >= 2, "MMPP needs at least two states");
        assert!(horizon_s > 0.0, "horizon must be positive");
        for s in states {
            assert!(
                s.mean_dwell_s > 0.0 && s.rps >= 0.0,
                "invalid MMPP state {s:?}"
            );
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut segments = Vec::new();
        let mut t = 0.0;
        let mut cur = 0usize;
        while t < horizon_s {
            segments.push((t, states[cur].rps));
            // Exponential sojourn.
            let u: f64 = rng.gen::<f64>();
            t += -(1.0 - u).ln() * states[cur].mean_dwell_s;
            // Jump to a different state.
            let mut next = rng.gen_range(0..states.len() - 1);
            if next >= cur {
                next += 1;
            }
            cur = next;
        }
        Self {
            segments,
            horizon_s,
        }
    }

    /// Two-state calm/burst helper: `base_rps` with exponential bursts
    /// to `burst_rps` (mean dwell `burst_s`) arriving on average every
    /// `mean_gap_s` seconds.
    pub fn calm_burst(
        base_rps: f64,
        burst_rps: f64,
        mean_gap_s: f64,
        burst_s: f64,
        horizon_s: f64,
        seed: u64,
    ) -> Self {
        Self::new(
            &[
                MmppState {
                    rps: base_rps,
                    mean_dwell_s: mean_gap_s,
                },
                MmppState {
                    rps: burst_rps,
                    mean_dwell_s: burst_s,
                },
            ],
            horizon_s,
            seed,
        )
    }
}

impl Workload for MmppWorkload {
    fn rps_at(&self, t_s: f64) -> f64 {
        let t = t_s.rem_euclid(self.horizon_s);
        // Binary search for the last segment starting at or before t.
        let idx = match self
            .segments
            .binary_search_by(|(s, _)| s.partial_cmp(&t).unwrap())
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        self.segments[idx].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> MmppWorkload {
        MmppWorkload::calm_burst(400.0, 750.0, 600.0, 120.0, 10_000.0, 42)
    }

    #[test]
    fn rates_come_from_states() {
        let w = two_state();
        for i in 0..1000 {
            let r = w.rps_at(i as f64 * 10.0);
            assert!(r == 400.0 || r == 750.0, "unexpected rate {r}");
        }
    }

    #[test]
    fn both_states_visited() {
        let w = two_state();
        let mut seen_low = false;
        let mut seen_high = false;
        for i in 0..2000 {
            let r = w.rps_at(i as f64 * 5.0);
            if r == 400.0 {
                seen_low = true;
            } else if r == 750.0 {
                seen_high = true;
            }
        }
        assert!(seen_low && seen_high);
    }

    #[test]
    fn dwell_fractions_respect_means() {
        // Calm 600 s vs burst 120 s → ~17% of time in burst.
        let w = MmppWorkload::calm_burst(100.0, 500.0, 600.0, 120.0, 500_000.0, 7);
        let samples = 50_000;
        let burst = (0..samples)
            .filter(|i| w.rps_at(*i as f64 * 10.0) == 500.0)
            .count();
        let frac = burst as f64 / samples as f64;
        assert!((frac - 1.0 / 6.0).abs() < 0.05, "burst fraction {frac}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = two_state();
        let b = two_state();
        for i in 0..100 {
            assert_eq!(a.rps_at(i as f64 * 37.0), b.rps_at(i as f64 * 37.0));
        }
        let c = MmppWorkload::calm_burst(400.0, 750.0, 600.0, 120.0, 10_000.0, 43);
        let differs = (0..100).any(|i| a.rps_at(i as f64 * 37.0) != c.rps_at(i as f64 * 37.0));
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn wraps_after_horizon() {
        let w = two_state();
        assert_eq!(w.rps_at(100.0), w.rps_at(10_100.0));
    }

    #[test]
    #[should_panic]
    fn rejects_single_state() {
        MmppWorkload::new(
            &[MmppState {
                rps: 1.0,
                mean_dwell_s: 1.0,
            }],
            100.0,
            1,
        );
    }
}
