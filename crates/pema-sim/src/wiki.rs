//! Wikipedia-like diurnal trace (paper Fig. 14, citing Urdaneta et al.,
//! "Wikipedia workload analysis for decentralized hosting").
//!
//! The paper replays a Wikipedia request-rate trace scaled into the
//! 200–1100 rps band for its 36-hour SockShop run. The original trace
//! is not redistributable, so we embed a 24-hour shape with the
//! characteristics reported in the workload study: a deep night trough,
//! a steep morning ramp, a broad daytime plateau with a mid-afternoon
//! dip, and an evening peak — plus small deterministic ripples in place
//! of measurement noise.

use crate::pattern::TracePattern;

/// Normalized 24-hour shape sampled hourly (fraction of peak). Derived
/// from the published diurnal profile of Wikipedia traffic: trough near
/// 05:00 at ~35% of peak, evening peak near 20:00.
const HOURLY_SHAPE: [f64; 24] = [
    0.52, 0.45, 0.40, 0.37, 0.35, 0.36, 0.41, 0.50, 0.61, 0.72, 0.80, 0.85, 0.87, 0.86, 0.83, 0.82,
    0.84, 0.88, 0.93, 0.97, 1.00, 0.95, 0.81, 0.65,
];

/// Builds a Wikipedia-like 24-hour trace scaled to `[min_rps, max_rps]`
/// and sampled every `sample_interval_s` seconds. Deterministic ripples
/// (two short-period sinusoids) stand in for the minute-scale noise of
/// the real trace; `ripple` sets their relative amplitude (the paper's
/// trace suggests a few percent — 0.03 is a good default).
pub fn wikipedia_like_trace(
    min_rps: f64,
    max_rps: f64,
    sample_interval_s: f64,
    ripple: f64,
) -> TracePattern {
    assert!(max_rps > min_rps && min_rps >= 0.0, "bad rps bounds");
    assert!(sample_interval_s > 0.0, "bad sample interval");
    let n = (86_400.0 / sample_interval_s).ceil() as usize;
    let lo_shape = HOURLY_SHAPE.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut samples = Vec::with_capacity(n);
    for k in 0..n {
        let t_h = k as f64 * sample_interval_s / 3600.0;
        let i = (t_h.floor() as usize) % 24;
        let j = (i + 1) % 24;
        let frac = t_h - t_h.floor();
        let shape = HOURLY_SHAPE[i] * (1.0 - frac) + HOURLY_SHAPE[j] * frac;
        // Rescale [lo_shape, 1.0] onto [min_rps, max_rps].
        let norm = (shape - lo_shape) / (1.0 - lo_shape);
        let base = min_rps + (max_rps - min_rps) * norm;
        let r1 = (2.0 * std::f64::consts::PI * t_h / 0.9).sin();
        let r2 = (2.0 * std::f64::consts::PI * t_h / 0.23 + 1.3).sin();
        let noisy = base * (1.0 + ripple * (0.7 * r1 + 0.3 * r2));
        samples.push(noisy.clamp(min_rps * 0.9, max_rps * 1.1));
    }
    TracePattern::new(sample_interval_s, samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::tests::range_over;
    use crate::pattern::Workload;

    #[test]
    fn trace_spans_requested_band() {
        let t = wikipedia_like_trace(200.0, 1100.0, 120.0, 0.03);
        let (lo, hi) = range_over(&t, 86_400.0);
        assert!((180.0..300.0).contains(&lo), "lo={lo}");
        assert!(hi > 1000.0 && hi <= 1210.0, "hi={hi}");
    }

    #[test]
    fn trough_is_early_morning_peak_is_evening() {
        let t = wikipedia_like_trace(200.0, 1100.0, 300.0, 0.0);
        let at = |h: f64| t.rps_at(h * 3600.0);
        assert!(at(4.5) < at(12.0));
        assert!(at(20.0) > at(12.0) * 0.95);
        assert!(at(4.5) < 300.0, "trough={}", at(4.5));
        assert!(at(20.0) > 1000.0, "peak={}", at(20.0));
    }

    #[test]
    fn wraps_for_36_hour_experiments() {
        let t = wikipedia_like_trace(200.0, 1100.0, 120.0, 0.03);
        let a = t.rps_at(6.0 * 3600.0);
        let b = t.rps_at(30.0 * 3600.0); // 24 h later
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let a = wikipedia_like_trace(100.0, 500.0, 60.0, 0.05);
        let b = wikipedia_like_trace(100.0, 500.0, 60.0, 0.05);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_bounds() {
        wikipedia_like_trace(500.0, 100.0, 60.0, 0.0);
    }
}
