//! Controller parameters (Algorithm 1's inputs).

/// Tunable parameters of the PEMA controller.
///
/// The paper's defaults: `alpha = 0.5`, `beta = 0.3`, exploration
/// `A = 0.05 / B = 0.005` ("low exploration"; the "high" setting is
/// `A = 0.1 / B = 0.01`), moving-average window `K = 5`, utilization
/// threshold seed 15%, throttling threshold seed 0 s.
#[derive(Debug, Clone)]
pub struct PemaParams {
    /// Aggressiveness of reduction (Eqn. 3): *smaller* α reduces more
    /// aggressively for the same SLO headroom. Must be in (0, 1].
    pub alpha: f64,
    /// Maximum fractional resource reduction per step (Eqn. 4). Must be
    /// in (0, 1].
    pub beta: f64,
    /// Exploration probability slope `A` (Eqn. 8).
    pub explore_a: f64,
    /// Exploration probability floor `B` (Eqn. 8).
    pub explore_b: f64,
    /// Moving-average window `K` over response times (Eqns. 10/11).
    pub ma_window: usize,
    /// The SLO on p95 end-to-end response time, milliseconds.
    pub slo_ms: f64,
    /// Response-time buffer: reduction math targets `buffer × R` to
    /// absorb transient perturbation (§3.3 suggests scaling R down,
    /// e.g. to 95%; we default to 90% which suits the simulator's
    /// knee sharpness).
    pub response_buffer: f64,
    /// Disables the opportunistic threshold learning of Eqns. 6/7
    /// (thresholds stay at their initial values). Used by the
    /// `ablation_thresholds` experiment; always `false` in normal
    /// operation.
    pub freeze_thresholds: bool,
    /// RNG seed for the randomized selection and exploration.
    pub seed: u64,
}

impl PemaParams {
    /// Paper defaults for the given SLO.
    pub fn defaults(slo_ms: f64) -> Self {
        Self {
            alpha: 0.5,
            beta: 0.3,
            explore_a: 0.05,
            explore_b: 0.005,
            ma_window: 5,
            slo_ms,
            response_buffer: 0.90,
            freeze_thresholds: false,
            seed: 0xC0FFEE,
        }
    }

    /// The paper's "high exploration" setting (Fig. 11).
    pub fn high_exploration(mut self) -> Self {
        self.explore_a = 0.10;
        self.explore_b = 0.01;
        self
    }

    /// The paper's "low exploration" setting (Fig. 11).
    pub fn low_exploration(mut self) -> Self {
        self.explore_a = 0.05;
        self.explore_b = 0.005;
        self
    }

    /// Checks the constraints the paper states: `α, β ∈ (0, 1]`,
    /// `0 ≤ B ≤ A ≤ 1`, `A + B ≤ 1`, `K ≥ 1`, positive SLO.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(format!("alpha must be in (0,1], got {}", self.alpha));
        }
        if !(self.beta > 0.0 && self.beta <= 1.0) {
            return Err(format!("beta must be in (0,1], got {}", self.beta));
        }
        if !(0.0..=1.0).contains(&self.explore_a) || !(0.0..=1.0).contains(&self.explore_b) {
            return Err("exploration parameters must be in [0,1]".into());
        }
        if self.explore_b > self.explore_a {
            return Err(format!(
                "need B <= A, got A={} B={}",
                self.explore_a, self.explore_b
            ));
        }
        if self.explore_a + self.explore_b > 1.0 {
            return Err("need A + B <= 1".into());
        }
        if self.ma_window == 0 {
            return Err("moving-average window must be >= 1".into());
        }
        if self.slo_ms <= 0.0 || self.slo_ms.is_nan() {
            return Err("SLO must be positive".into());
        }
        if !(self.response_buffer > 0.0 && self.response_buffer <= 1.0) {
            return Err("response buffer must be in (0,1]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        PemaParams::defaults(250.0).validate().unwrap();
        PemaParams::defaults(250.0)
            .high_exploration()
            .validate()
            .unwrap();
    }

    #[test]
    fn rejects_bad_alpha() {
        let mut p = PemaParams::defaults(250.0);
        p.alpha = 0.0;
        assert!(p.validate().is_err());
        p.alpha = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_b_above_a() {
        let mut p = PemaParams::defaults(250.0);
        p.explore_a = 0.01;
        p.explore_b = 0.02;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_a_plus_b_above_one() {
        let mut p = PemaParams::defaults(250.0);
        p.explore_a = 0.9;
        p.explore_b = 0.2;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_zero_window_and_slo() {
        let mut p = PemaParams::defaults(250.0);
        p.ma_window = 0;
        assert!(p.validate().is_err());
        let mut p = PemaParams::defaults(0.0);
        p.ma_window = 5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn exploration_presets() {
        let p = PemaParams::defaults(250.0).high_exploration();
        assert_eq!(p.explore_a, 0.10);
        assert_eq!(p.explore_b, 0.01);
        let p = p.low_exploration();
        assert_eq!(p.explore_a, 0.05);
    }
}
