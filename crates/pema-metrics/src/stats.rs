//! Small statistics helpers shared across the workspace.
//!
//! The paper learns the workload-sensitivity slope `m` of Eqn. (9) with
//! ordinary least squares on (workload, response-time) pairs; that
//! regression lives here so both the controller and the experiment
//! harness use the same code.

/// Mean of a slice; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Nearest-rank percentile of an already **sorted** slice, `q` in 0..=1.
///
/// # Panics
/// Panics if the slice is empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Ordinary least squares fit `y = slope * x + intercept`.
///
/// Returns `None` when fewer than two distinct x values exist (the
/// slope is then undefined).
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx <= f64::EPSILON {
        return None;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    Some((slope, my - slope * mx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 0.5), 3.0);
        assert_eq!(percentile_sorted(&v, 0.95), 5.0);
        assert_eq!(percentile_sorted(&v, 1.0), 5.0);
    }

    #[test]
    #[should_panic]
    fn percentile_empty_panics() {
        percentile_sorted(&[], 0.5);
    }

    #[test]
    fn regression_recovers_line() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x - 7.0).collect();
        let (m, b) = linear_regression(&xs, &ys).unwrap();
        assert!((m - 2.5).abs() < 1e-9);
        assert!((b + 7.0).abs() < 1e-9);
    }

    #[test]
    fn regression_degenerate() {
        assert_eq!(linear_regression(&[1.0], &[1.0]), None);
        assert_eq!(linear_regression(&[2.0, 2.0], &[1.0, 3.0]), None);
        assert_eq!(linear_regression(&[1.0, 2.0], &[1.0]), None);
    }

    proptest! {
        #[test]
        fn percentile_bounded_by_min_max(mut v in proptest::collection::vec(-1e6f64..1e6, 1..200), q in 0.0f64..=1.0) {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let p = percentile_sorted(&v, q);
            prop_assert!(p >= v[0] && p <= v[v.len() - 1]);
        }

        #[test]
        fn percentile_monotone_in_q(mut v in proptest::collection::vec(-1e6f64..1e6, 1..100), q1 in 0.0f64..=1.0, q2 in 0.0f64..=1.0) {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(percentile_sorted(&v, lo) <= percentile_sorted(&v, hi));
        }

        #[test]
        fn regression_residual_orthogonality(
            pts in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..50)
        ) {
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            if let Some((m, b)) = linear_regression(&xs, &ys) {
                // OLS residuals sum to ~0.
                let resid_sum: f64 = xs.iter().zip(&ys).map(|(x, y)| y - (m * x + b)).sum();
                prop_assert!(resid_sum.abs() < 1e-6 * (1.0 + ys.iter().map(|y| y.abs()).sum::<f64>()));
            }
        }
    }
}
