//! Deterministic random samplers for the simulator.
//!
//! Only `rand` is on the approved dependency list (no `rand_distr`), so
//! the distributions the simulator needs — exponential inter-arrivals,
//! log-normal service demands, Bernoulli branches — are implemented here
//! on top of the uniform source. All samplers consume a caller-provided
//! RNG so every component can own an independent, seeded stream.

use rand::Rng;

/// Samples an exponential variate with the given rate (events/second).
///
/// Returns `f64::INFINITY` for non-positive rates, which conveniently
/// disables an arrival process.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    if rate <= 0.0 || !rate.is_finite() {
        return f64::INFINITY;
    }
    // Inversion: -ln(1-U)/λ with U in [0,1). 1-U avoids ln(0).
    let u: f64 = rng.gen::<f64>();
    -(1.0 - u).ln() / rate
}

/// Samples a standard normal via Box–Muller (single value; the twin is
/// discarded to keep the sampler stateless).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        return r * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Samples a log-normal with the given *mean* and coefficient of
/// variation (std/mean). A CV of zero returns the mean deterministically.
///
/// Parameterizing by mean/CV (rather than µ/σ of the underlying normal)
/// keeps service-demand configs intuitive: `demand_s` is the average CPU
/// cost of a request and `demand_cv` its burstiness.
///
/// Hot paths that draw from the *same* distribution repeatedly should
/// build a [`LogNormal`] once instead — it precomputes the µ/σ
/// transcendentals and produces bit-identical samples.
pub fn lognormal_mean_cv<R: Rng + ?Sized>(rng: &mut R, mean: f64, cv: f64) -> f64 {
    LogNormal::from_mean_cv(mean, cv).sample(rng)
}

/// A log-normal sampler with precomputed parameters.
///
/// [`lognormal_mean_cv`] re-derives µ = ln(mean) − σ²/2 and σ on every
/// call — three transcendentals per sample. The simulator draws one
/// work sample per *visit* from a per-endpoint distribution that never
/// changes, so the engine builds one of these per endpoint at
/// construction. `sample` performs the exact same float operations in
/// the exact same order as the free function, consuming the same RNG
/// stream — the two are bit-for-bit interchangeable (tested below).
#[derive(Debug, Clone, Copy)]
pub enum LogNormal {
    /// Non-positive mean or CV: the sample is a constant and no RNG is
    /// consumed (matching the free function's early returns).
    Degenerate(f64),
    /// Proper log-normal with precomputed underlying-normal params.
    Sampled {
        /// Mean of the underlying normal.
        mu: f64,
        /// Std of the underlying normal (σ = sqrt(ln(1 + cv²))).
        sigma: f64,
    },
}

impl LogNormal {
    /// Precomputes the sampler for the given mean and CV.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        if mean <= 0.0 {
            return LogNormal::Degenerate(0.0);
        }
        if cv <= 0.0 {
            return LogNormal::Degenerate(mean);
        }
        let sigma2 = (1.0 + cv * cv).ln();
        LogNormal::Sampled {
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// Draws one sample (consumes RNG only in the non-degenerate case).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            LogNormal::Degenerate(v) => v,
            LogNormal::Sampled { mu, sigma } => {
                let z = standard_normal(rng);
                (mu + sigma * z).exp()
            }
        }
    }
}

/// Bernoulli trial with probability `p` (clamped to `[0,1]`).
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    if p >= 1.0 {
        return true;
    }
    if p <= 0.0 {
        return false;
    }
    rng.gen::<f64>() < p
}

/// The positive-weight mass [`weighted_index_with_total`] normalizes
/// by. Callers sampling from a fixed weight vector (the engine's
/// request-class mix) compute this once instead of re-summing per
/// arrival.
pub fn weight_total(weights: &[f64]) -> f64 {
    weights.iter().filter(|w| **w > 0.0).sum()
}

/// Samples an index from a discrete distribution given by `weights`,
/// whose positive-weight mass is `total` (see [`weight_total`]).
/// Weights need not be normalized; non-positive weights are treated as
/// zero. Returns 0, drawing nothing, when all weights vanish; otherwise
/// consumes one uniform draw.
#[inline]
pub fn weighted_index_with_total<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &[f64],
    total: f64,
) -> usize {
    if total <= 0.0 || weights.is_empty() {
        return 0;
    }
    let mut x = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(12345)
    }

    fn weighted_index(rng: &mut SmallRng, weights: &[f64]) -> usize {
        weighted_index_with_total(rng, weights, weight_total(weights))
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = rng();
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut r, 4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn exponential_disabled_for_zero_rate() {
        let mut r = rng();
        assert_eq!(exponential(&mut r, 0.0), f64::INFINITY);
        assert_eq!(exponential(&mut r, -1.0), f64::INFINITY);
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }

    #[test]
    fn lognormal_mean_and_cv() {
        let mut r = rng();
        let n = 200_000;
        let (target_mean, target_cv) = (0.004, 1.5);
        let samples: Vec<f64> = (0..n)
            .map(|_| lognormal_mean_cv(&mut r, target_mean, target_cv))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!(
            (mean - target_mean).abs() < target_mean * 0.05,
            "mean={mean}"
        );
        assert!((cv - target_cv).abs() < target_cv * 0.1, "cv={cv}");
    }

    #[test]
    fn lognormal_degenerate_cases() {
        let mut r = rng();
        assert_eq!(lognormal_mean_cv(&mut r, 0.0, 1.0), 0.0);
        assert_eq!(lognormal_mean_cv(&mut r, 2.0, 0.0), 2.0);
        assert_eq!(lognormal_mean_cv(&mut r, -1.0, 1.0), 0.0);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        assert!(bernoulli(&mut r, 1.0));
        assert!(!bernoulli(&mut r, 0.0));
        assert!(bernoulli(&mut r, 2.0));
        assert!(!bernoulli(&mut r, -0.5));
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = rng();
        let hits = (0..100_000).filter(|_| bernoulli(&mut r, 0.3)).count();
        let f = hits as f64 / 100_000.0;
        assert!((f - 0.3).abs() < 0.01, "freq={f}");
    }

    #[test]
    fn weighted_index_distribution() {
        let mut r = rng();
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..100_000 {
            counts[weighted_index(&mut r, &w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let f0 = counts[0] as f64 / 100_000.0;
        assert!((f0 - 0.25).abs() < 0.01, "f0={f0}");
    }

    #[test]
    fn weighted_index_degenerate() {
        let mut r = rng();
        assert_eq!(weighted_index(&mut r, &[]), 0);
        assert_eq!(weighted_index(&mut r, &[0.0, 0.0]), 0);
        assert_eq!(weighted_index(&mut r, &[-1.0, -2.0]), 0);
    }

    #[test]
    fn precomputed_lognormal_is_bit_identical_to_free_function() {
        for (mean, cv) in [
            (0.004, 1.5),
            (2.0, 0.3),
            (1e-6, 4.0),
            (0.5, 0.0),
            (0.0, 1.0),
        ] {
            let sampler = LogNormal::from_mean_cv(mean, cv);
            let mut a = SmallRng::seed_from_u64(99);
            let mut b = SmallRng::seed_from_u64(99);
            for _ in 0..1000 {
                let x = lognormal_mean_cv(&mut a, mean, cv);
                let y = sampler.sample(&mut b);
                assert_eq!(x.to_bits(), y.to_bits(), "mean={mean} cv={cv}");
            }
            // Streams stayed in lockstep (same RNG consumption).
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(exponential(&mut a, 2.0), exponential(&mut b, 2.0));
        }
    }
}
