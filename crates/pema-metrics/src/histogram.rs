//! Log-bucketed latency histogram with quantile queries.
//!
//! The simulator records one sample per completed request; a measurement
//! window may hold hundreds of thousands of samples, so the histogram
//! must be O(1) per record and compact. We use logarithmically spaced
//! buckets (HDR-histogram style) covering 1 µs .. ~537 s with a fixed
//! relative error of about 2.4% (32 sub-buckets per octave), which is
//! far below the noise floor of any latency experiment in the paper.

/// Number of sub-buckets per power-of-two octave. 32 gives ≤ ~3.1%
/// relative quantile error, plenty for p95 comparisons against an SLO.
const SUBBUCKETS: usize = 32;
/// Number of octaves covered. 1 µs * 2^29 ≈ 537 s max trackable value.
const OCTAVES: usize = 29;
const NBUCKETS: usize = SUBBUCKETS * OCTAVES;

/// A fixed-size log-bucketed histogram of non-negative durations in
/// seconds.
///
/// ```
/// use pema_metrics::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for i in 1..=1000 {
///     h.record(i as f64 / 1000.0); // 1ms..1s
/// }
/// let p95 = h.quantile(0.95).unwrap();
/// assert!((p95 - 0.95).abs() < 0.95 * 0.05);
/// ```
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; NBUCKETS]>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Samples below 1 µs land here (bucket underflow).
    underflow: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Smallest trackable value, in seconds (1 µs).
const UNIT: f64 = 1e-6;

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Box::new([0u64; NBUCKETS]),
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            underflow: 0,
        }
    }

    fn bucket_of(value_s: f64) -> Option<usize> {
        if value_s < UNIT {
            return None;
        }
        let ratio = value_s / UNIT;
        // ratio >= 1. Bucket index = octave * SUBBUCKETS + sub index.
        //
        // The octave is floor(log2(ratio)), which for a normal positive
        // f64 is just its IEEE exponent — no libm call. The one case
        // where the two can disagree is a value within half an ulp
        // *below* a power of two, where `log2` may round its result up
        // to the integer and the old `log2().floor()` formulation
        // landed in the higher octave; values that close to the
        // boundary (mantissa all-ones in the top bits) take the slow
        // path so the bucketing stays bit-for-bit identical.
        let bits = ratio.to_bits();
        const MANTISSA_NEAR_TOP: u64 = 0x000F_FFFF_FFFF_FF00;
        let octave = if (bits & 0x000F_FFFF_FFFF_FFFF) >= MANTISSA_NEAR_TOP {
            ratio.log2().floor() as usize
        } else {
            ((bits >> 52) & 0x7FF) as usize - 1023
        };
        let octave = octave.min(OCTAVES - 1);
        let base = (1u64 << octave) as f64;
        let frac = (ratio / base - 1.0).clamp(0.0, 0.999_999);
        let sub = (frac * SUBBUCKETS as f64) as usize;
        Some(octave * SUBBUCKETS + sub.min(SUBBUCKETS - 1))
    }

    /// Representative value (geometric-ish midpoint) of bucket `idx`.
    fn bucket_mid(idx: usize) -> f64 {
        let octave = idx / SUBBUCKETS;
        let sub = idx % SUBBUCKETS;
        let base = (1u64 << octave) as f64;
        UNIT * base * (1.0 + (sub as f64 + 0.5) / SUBBUCKETS as f64)
    }

    /// Records one sample (seconds). Negative and NaN samples are ignored.
    #[inline]
    pub fn record(&mut self, value_s: f64) {
        if !value_s.is_finite() || value_s < 0.0 {
            return;
        }
        self.total += 1;
        self.sum += value_s;
        self.min = self.min.min(value_s);
        self.max = self.max.max(value_s);
        match Self::bucket_of(value_s) {
            Some(b) => self.counts[b] += 1,
            None => self.underflow += 1,
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of recorded samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// Exact minimum recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact maximum recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// Returns the `q`-quantile (0.0 ..= 1.0) in seconds, or `None` if
    /// the histogram is empty. Uses the nearest-rank method on bucket
    /// boundaries; the answer is within one bucket width (≈3%) of the
    /// exact order statistic.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: smallest value with CDF >= q.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if seen >= rank {
            return Some(0.0);
        }
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_mid(idx).min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.underflow += other.underflow;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Clears all recorded samples.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        self.underflow = 0;
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.5))
            .field("p95", &self.quantile(0.95))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_none());
        assert!(h.mean().is_none());
        assert!(h.min().is_none());
        assert!(h.max().is_none());
    }

    #[test]
    fn single_sample_quantiles_return_it() {
        let mut h = LatencyHistogram::new();
        h.record(0.250);
        for q in [0.0, 0.5, 0.95, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((v - 0.250).abs() < 0.250 * 0.04, "q={q} got {v}");
        }
    }

    #[test]
    fn uniform_ramp_quantiles_accurate() {
        let mut h = LatencyHistogram::new();
        let n = 10_000;
        for i in 1..=n {
            h.record(i as f64 * 1e-4); // 0.1ms .. 1s
        }
        for (q, expect) in [(0.5, 0.5), (0.9, 0.9), (0.95, 0.95), (0.99, 0.99)] {
            let v = h.quantile(q).unwrap();
            assert!(
                (v - expect).abs() < expect * 0.05,
                "q={q} got {v} want {expect}"
            );
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(0.1);
        h.record(0.2);
        h.record(0.3);
        assert!((h.mean().unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn min_max_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0.5, 0.005, 3.0, 0.042] {
            h.record(v);
        }
        assert_eq!(h.min().unwrap(), 0.005);
        assert_eq!(h.max().unwrap(), 3.0);
    }

    #[test]
    fn rejects_nan_and_negative() {
        let mut h = LatencyHistogram::new();
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn underflow_counts_as_zero() {
        let mut h = LatencyHistogram::new();
        h.record(1e-9);
        h.record(1e-8);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5).unwrap(), 0.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 1..=100 {
            a.record(i as f64 * 1e-3);
        }
        for i in 101..=200 {
            b.record(i as f64 * 1e-3);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        let p50 = a.quantile(0.5).unwrap();
        assert!((p50 - 0.100).abs() < 0.01, "p50={p50}");
        assert_eq!(a.max().unwrap(), 0.200);
    }

    #[test]
    fn reset_empties() {
        let mut h = LatencyHistogram::new();
        h.record(0.1);
        h.reset();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_none());
    }

    /// The reference bucketing the exponent-extraction fast path must
    /// reproduce exactly (the pre-optimization formulation).
    fn bucket_of_reference(value_s: f64) -> Option<usize> {
        if value_s < UNIT {
            return None;
        }
        let ratio = value_s / UNIT;
        let octave = ratio.log2().floor() as usize;
        let octave = octave.min(OCTAVES - 1);
        let base = (1u64 << octave) as f64;
        let frac = (ratio / base - 1.0).clamp(0.0, 0.999_999);
        let sub = (frac * SUBBUCKETS as f64) as usize;
        Some(octave * SUBBUCKETS + sub.min(SUBBUCKETS - 1))
    }

    #[test]
    fn fast_bucketing_matches_log2_reference() {
        // Dense sweep plus adversarial values hugging every power-of-
        // two boundary from both sides (where log2 rounding could
        // disagree with exponent extraction).
        let mut values: Vec<f64> = (1..200_000).map(|i| i as f64 * 2.7e-6).collect();
        for oct in 0..=OCTAVES {
            let b = UNIT * (1u64 << oct) as f64;
            for ulps in 1..=4i64 {
                values.push(f64::from_bits(b.to_bits() - ulps as u64));
                values.push(f64::from_bits(b.to_bits() + ulps as u64));
            }
            values.push(b);
        }
        for v in values {
            assert_eq!(
                LatencyHistogram::bucket_of(v),
                bucket_of_reference(v),
                "bucketing diverged at {v:e} (bits {:#x})",
                v.to_bits()
            );
        }
    }

    #[test]
    fn very_large_values_clamp_to_top_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(1e6); // 11.5 days; beyond range
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0).unwrap() > 100.0);
    }
}
