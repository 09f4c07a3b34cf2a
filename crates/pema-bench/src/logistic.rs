//! From-scratch logistic regression (no ML dependency is on the
//! approved list, and none is needed at this scale).
//!
//! Features are z-score standardized; the model is trained by full-batch
//! gradient descent with L2 regularization (400 epochs, learning rate
//! 0.5, L2 strength 1e-3). Deterministic given the data (no random
//! initialization).

/// A trained logistic-regression model.
#[derive(Debug, Clone)]
pub struct Logistic {
    /// Weights in standardized feature space.
    pub weights: Vec<f64>,
    /// Bias term.
    pub bias: f64,
    /// Per-feature means (standardization).
    pub mean: Vec<f64>,
    /// Per-feature standard deviations (standardization).
    pub std: Vec<f64>,
}

/// Gradient-descent epochs.
const EPOCHS: usize = 400;
/// Learning rate.
const LR: f64 = 0.5;
/// L2 regularization strength.
const L2: f64 = 1e-3;

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Logistic {
    /// Trains on rows `x` (n × d) with boolean labels.
    ///
    /// # Panics
    /// Panics on empty data or inconsistent dimensions.
    pub fn fit(x: &[Vec<f64>], y: &[bool]) -> Self {
        assert!(!x.is_empty(), "empty training set");
        assert_eq!(x.len(), y.len(), "row/label count mismatch");
        let d = x[0].len();
        assert!(x.iter().all(|r| r.len() == d), "ragged feature rows");
        let n = x.len() as f64;

        // Standardize.
        let mut mean = vec![0.0; d];
        for r in x {
            for (m, v) in mean.iter_mut().zip(r) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0; d];
        for r in x {
            for j in 0..d {
                std[j] += (r[j] - mean[j]).powi(2) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt().max(1e-9);
        }
        let xs: Vec<Vec<f64>> = x
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(j, v)| (v - mean[j]) / std[j])
                    .collect()
            })
            .collect();

        let mut w = vec![0.0; d];
        let mut b = 0.0;
        for _ in 0..EPOCHS {
            let mut gw = vec![0.0; d];
            let mut gb = 0.0;
            for (r, &label) in xs.iter().zip(y) {
                let z = b + r.iter().zip(&w).map(|(a, c)| a * c).sum::<f64>();
                let err = sigmoid(z) - if label { 1.0 } else { 0.0 };
                for j in 0..d {
                    gw[j] += err * r[j] / n;
                }
                gb += err / n;
            }
            for j in 0..d {
                w[j] -= LR * (gw[j] + L2 * w[j]);
            }
            b -= LR * gb;
        }
        Logistic {
            weights: w,
            bias: b,
            mean,
            std,
        }
    }

    /// Probability of the positive class for one raw feature row.
    fn predict_proba(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.weights.len());
        let z = self.bias
            + row
                .iter()
                .enumerate()
                .map(|(j, v)| (v - self.mean[j]) / self.std[j] * self.weights[j])
                .sum::<f64>();
        sigmoid(z)
    }

    /// Hard prediction at threshold 0.5.
    pub fn predict(&self, row: &[f64]) -> bool {
        self.predict_proba(row) >= 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separable_1d_learned() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<bool> = (0..100).map(|i| i >= 50).collect();
        let m = Logistic::fit(&x, &y);
        assert!(!m.predict(&[10.0]));
        assert!(m.predict(&[90.0]));
        let acc = x.iter().zip(&y).filter(|(r, &l)| m.predict(r) == l).count();
        assert!(acc >= 95, "accuracy {acc}/100");
    }

    #[test]
    fn two_features_with_one_informative() {
        // Feature 0 informative, feature 1 constant noise-free junk.
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 100) as f64, 42.0]).collect();
        let y: Vec<bool> = (0..200).map(|i| (i % 100) >= 50).collect();
        let m = Logistic::fit(&x, &y);
        assert!(m.weights[0].abs() > m.weights[1].abs() * 10.0);
    }

    #[test]
    fn probabilities_are_probabilities() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![false, false, true, true];
        let m = Logistic::fit(&x, &y);
        for r in &x {
            let p = m.predict_proba(r);
            assert!((0.0..=1.0).contains(&p));
        }
        // Monotone in the informative feature.
        assert!(m.predict_proba(&[3.0]) > m.predict_proba(&[0.0]));
    }

    #[test]
    fn constant_feature_does_not_nan() {
        let x = vec![vec![5.0], vec![5.0], vec![5.0]];
        let y = vec![true, false, true];
        let m = Logistic::fit(&x, &y);
        assert!(m.predict_proba(&[5.0]).is_finite());
    }

    #[test]
    #[should_panic]
    fn empty_data_panics() {
        Logistic::fit(&[], &[]);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }
}
