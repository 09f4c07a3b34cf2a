//! The K-step moving average of the response time.
//!
//! PEMA smooths the response-time feedback with a K-step moving average
//! (Eqns. 10/11 in the paper) while still reacting to the *instantaneous*
//! response time for SLO-violation rollback (Algorithm 1, line 4).
//! [`MovingAvg`] implements both views over one stream of observations.

use std::collections::VecDeque;

/// K-step moving average as used by Eqns. (10) and (11) of the paper.
///
/// Until K samples have arrived the average is taken over however many
/// samples exist — matching a controller that starts acting from its
/// first observation.
#[derive(Debug, Clone)]
pub struct MovingAvg {
    buf: VecDeque<f64>,
    k: usize,
    /// Running sum of `buf`. Kept incrementally — subtract the evicted
    /// sample, then add the new one — and that order is part of the
    /// output: every golden's `r_ma` column depends on it to the bit.
    sum: f64,
}

impl MovingAvg {
    /// Creates a moving average over the last `k` observations.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "window capacity must be positive");
        Self {
            buf: VecDeque::with_capacity(k),
            k,
            sum: 0.0,
        }
    }

    /// Adds an observation, evicting the oldest once `k` are held, and
    /// returns the updated average.
    pub fn push(&mut self, v: f64) -> f64 {
        if self.buf.len() == self.k {
            if let Some(old) = self.buf.pop_front() {
                self.sum -= old;
            }
        }
        self.buf.push_back(v);
        self.sum += v;
        self.sum / self.buf.len() as f64
    }

    /// Current average, or `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.sum / self.buf.len() as f64)
        }
    }

    /// Most recent raw observation (the *instantaneous* value the paper
    /// uses for violation detection).
    pub fn last(&self) -> Option<f64> {
        self.buf.back().copied()
    }

    /// Number of observations currently contributing to the average.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before any observation.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Discards history (used on workload-range switch).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        MovingAvg::new(0);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut m = MovingAvg::new(3);
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.push(v);
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m.value(), Some(3.0));
    }

    #[test]
    fn empty_window_queries() {
        let m = MovingAvg::new(5);
        assert!(m.is_empty());
        assert_eq!(m.value(), None);
        assert_eq!(m.last(), None);
    }

    #[test]
    fn moving_avg_partial_fill() {
        let mut m = MovingAvg::new(5);
        assert_eq!(m.push(10.0), 10.0);
        assert_eq!(m.push(20.0), 15.0);
        assert_eq!(m.value(), Some(15.0));
        assert_eq!(m.last(), Some(20.0));
    }

    #[test]
    fn moving_avg_rolls() {
        let mut m = MovingAvg::new(2);
        m.push(1.0);
        m.push(3.0);
        assert_eq!(m.value(), Some(2.0));
        m.push(5.0);
        assert_eq!(m.value(), Some(4.0)); // (3+5)/2
    }

    #[test]
    fn moving_avg_clear() {
        let mut m = MovingAvg::new(3);
        m.push(1.0);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.value(), None);
    }

    #[test]
    fn window_clear_resets_sum() {
        let mut m = MovingAvg::new(2);
        m.push(10.0);
        m.clear();
        m.push(4.0);
        assert_eq!(m.value(), Some(4.0));
    }
}
