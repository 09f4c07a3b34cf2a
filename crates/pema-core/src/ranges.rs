//! Workload-range arithmetic for PEMA's dynamic ranging (paper §3.4).
//!
//! PEMA discretizes the workload axis into ranges, learns one resource
//! allocation per range, and recursively splits ranges in half as
//! learning matures (Fig. 10b). The tree bookkeeping lives in
//! [`manager`](crate::manager); this module provides the interval type
//! and its split rule so the arithmetic is testable in isolation.

/// A half-open workload interval `[lo, hi)` in requests per second.
/// The upper end is inclusive for the topmost range so the maximum
/// workload is always covered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadRange {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (exclusive, except for the topmost range).
    pub hi: f64,
}

impl WorkloadRange {
    /// Creates a range; panics if `lo >= hi` or either bound is not
    /// finite and non-negative.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo >= 0.0 && lo < hi,
            "invalid workload range [{lo}, {hi})"
        );
        Self { lo, hi }
    }

    /// Range width in rps.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint.
    pub fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// True if the range contains rate `rps`. `top` marks the topmost
    /// range, whose upper bound is inclusive.
    pub fn contains(&self, rps: f64, top: bool) -> bool {
        if top {
            rps >= self.lo && rps <= self.hi
        } else {
            rps >= self.lo && rps < self.hi
        }
    }

    /// Splits the range into `(low_child, high_child)` at the midpoint
    /// (the paper splits parent ranges into two equal children).
    pub fn split(&self) -> (WorkloadRange, WorkloadRange) {
        let m = self.mid();
        (
            WorkloadRange { lo: self.lo, hi: m },
            WorkloadRange { lo: m, hi: self.hi },
        )
    }

    /// True when the range is at or below the target width and should
    /// not be split further.
    pub fn is_final(&self, target_width: f64) -> bool {
        self.width() <= target_width + 1e-9
    }
}

impl std::fmt::Display for WorkloadRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.0}~{:.0}", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_properties() {
        let r = WorkloadRange::new(200.0, 400.0);
        assert_eq!(r.width(), 200.0);
        assert_eq!(r.mid(), 300.0);
        assert_eq!(r.to_string(), "200~400");
    }

    #[test]
    #[should_panic]
    fn rejects_inverted() {
        WorkloadRange::new(400.0, 200.0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative() {
        WorkloadRange::new(-1.0, 10.0);
    }

    #[test]
    fn containment_semantics() {
        let r = WorkloadRange::new(200.0, 300.0);
        assert!(r.contains(200.0, false));
        assert!(r.contains(299.9, false));
        assert!(!r.contains(300.0, false));
        assert!(r.contains(300.0, true));
        assert!(!r.contains(199.9, false));
    }

    #[test]
    fn split_produces_equal_children() {
        let r = WorkloadRange::new(200.0, 400.0);
        let (lo, hi) = r.split();
        assert_eq!(lo, WorkloadRange::new(200.0, 300.0));
        assert_eq!(hi, WorkloadRange::new(300.0, 400.0));
    }

    #[test]
    fn final_width_check() {
        let r = WorkloadRange::new(200.0, 225.0);
        assert!(r.is_final(25.0));
        assert!(!r.is_final(20.0));
    }

    proptest! {
        #[test]
        fn split_partitions_range(lo in 0.0f64..1000.0, w in 1.0f64..1000.0, x in 0.0f64..1.0) {
            let r = WorkloadRange::new(lo, lo + w);
            let (a, b) = r.split();
            prop_assert!((a.width() - b.width()).abs() < 1e-9);
            prop_assert_eq!(a.hi, b.lo);
            // Every point of the parent falls in exactly one child
            // (using the non-top semantics for the low child).
            let p = lo + x * w * 0.999;
            let in_a = a.contains(p, false);
            let in_b = b.contains(p, true);
            prop_assert!(in_a ^ in_b);
        }
    }
}
