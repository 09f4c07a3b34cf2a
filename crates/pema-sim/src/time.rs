//! Simulation clock types.
//!
//! Virtual time is kept in integer nanoseconds so that event ordering is
//! exact and platform-independent; all rate arithmetic happens in `f64`
//! seconds and is converted at the boundary.

use std::fmt;

/// A point in virtual time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from seconds. Saturates at the u64 range and clamps
    /// negative inputs to zero.
    pub fn from_secs(s: f64) -> SimTime {
        if !s.is_finite() || s <= 0.0 {
            return SimTime(0);
        }
        SimTime((s * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// This time as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference in seconds (`self - earlier`).
    pub fn secs_since(self, earlier: SimTime) -> f64 {
        self.0.saturating_sub(earlier.0) as f64 / 1e9
    }

    /// Adds a duration expressed in seconds.
    ///
    /// The nanosecond rounding is computed with integer arithmetic —
    /// exactly `(s * 1e9).round() as u64` for every positive finite
    /// input, without the libm `round` call this sits on the per-hop
    /// scheduling path for: below 2^52 the `+ 0.5` is exact (ulp ≤
    /// 0.5) so truncation is round-half-away; at or above 2^52 the
    /// value is already integral.
    pub fn plus_secs(self, s: f64) -> SimTime {
        if !s.is_finite() || s <= 0.0 {
            return self;
        }
        let x = s * 1e9;
        let ns = if x < 4_503_599_627_370_496.0 {
            (x + 0.5) as u64
        } else {
            x as u64
        };
        SimTime(self.0.saturating_add(ns))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_roundtrip() {
        let t = SimTime::from_secs(1.25);
        assert_eq!(t.0, 1_250_000_000);
        assert!((t.as_secs() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimTime::from_secs(-5.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs(f64::NAN), SimTime::ZERO);
    }

    #[test]
    fn secs_since_saturates() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(b.secs_since(a), 1.0);
        assert_eq!(a.secs_since(b), 0.0);
    }

    #[test]
    fn plus_secs_ignores_nonpositive() {
        let t = SimTime::from_secs(1.0);
        assert_eq!(t.plus_secs(0.0), t);
        assert_eq!(t.plus_secs(-1.0), t);
        assert_eq!(t.plus_secs(0.5), SimTime::from_secs(1.5));
    }

    #[test]
    fn plus_secs_matches_round_reference() {
        // The integer formulation must agree with `.round()` bit-for-
        // bit, including half-nanosecond ties and huge durations.
        let cases = [
            1e-9,
            1.5e-9,
            2.5e-9,
            0.25e-9,
            0.5e-9,
            std::f64::consts::PI,
            1234.567890123,
            4.6e6,
            9.2e9,
        ];
        for s in cases {
            let expect = (s * 1e9_f64).round() as u64;
            assert_eq!(
                SimTime::ZERO.plus_secs(s),
                SimTime(expect),
                "plus_secs({s}) diverged from round()"
            );
        }
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::from_secs(1.0));
        assert_eq!(v[2], SimTime::from_secs(3.0));
    }
}
