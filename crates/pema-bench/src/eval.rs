//! k-fold cross-validation and the Table 1 report rows.

use crate::dataset::Dataset;
use crate::features::Feature;
use crate::logistic::Logistic;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Mean k-fold cross-validated accuracy of logistic regression on the
/// dataset restricted to `features`.
///
/// Folds are assigned by a seeded shuffle, so results are reproducible.
/// Returns `None` when the dataset has fewer samples than folds or
/// lacks both classes.
pub fn cross_validate(ds: &Dataset, features: &[Feature], k: usize, seed: u64) -> Option<f64> {
    let n = ds.len();
    if n < k || k < 2 || ds.positives() == 0 || ds.positives() == n {
        return None;
    }
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut correct = 0usize;
    let mut total = 0usize;
    for fold in 0..k {
        let test: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(pos, _)| pos % k == fold)
            .map(|(_, &i)| i)
            .collect();
        let train: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(pos, _)| pos % k != fold)
            .map(|(_, &i)| i)
            .collect();
        let x: Vec<Vec<f64>> = train
            .iter()
            .map(|&i| ds.samples[i].project(features))
            .collect();
        let y: Vec<bool> = train.iter().map(|&i| ds.samples[i].label).collect();
        if y.iter().all(|&l| l) || y.iter().all(|&l| !l) {
            continue; // degenerate fold
        }
        let model = Logistic::fit(&x, &y);
        for &i in &test {
            let pred = model.predict(&ds.samples[i].project(features));
            if pred == ds.samples[i].label {
                correct += 1;
            }
            total += 1;
        }
    }
    if total == 0 {
        None
    } else {
        Some(correct as f64 / total as f64)
    }
}

/// Accuracy of every single feature and of the paper's util+throttle
/// pair, for the feature-selection study backing Table 1. Returns
/// `(label, accuracy)` pairs.
pub fn feature_study(ds: &Dataset, k: usize, seed: u64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for f in Feature::ALL {
        if let Some(acc) = cross_validate(ds, &[f], k, seed) {
            out.push((f.name().to_string(), acc));
        }
    }
    if let Some(acc) = cross_validate(ds, &Feature::PAPER_PAIR, k, seed) {
        out.push(("util+throttle".to_string(), acc));
    }
    if let Some(acc) = cross_validate(ds, &Feature::ALL, k, seed) {
        out.push(("all five".to_string(), acc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;

    /// Synthetic dataset where feature 1 (throttling) separates the
    /// classes and the rest is noise-ish.
    fn synthetic(n: usize) -> Dataset {
        let mut samples = Vec::new();
        for i in 0..n {
            let label = i % 2 == 0;
            let throttle = if label {
                2.0 + (i % 7) as f64 * 0.1
            } else {
                0.1
            };
            samples.push(Sample {
                raw: [
                    30.0 + (i % 13) as f64, // util: uninformative here
                    throttle,
                    1e8,
                    1.0,
                    2.0,
                ],
                label,
                service: i % 5,
            });
        }
        Dataset { samples }
    }

    #[test]
    fn informative_feature_scores_high() {
        let ds = synthetic(100);
        let acc = cross_validate(&ds, &[Feature::Throttling], 5, 1).unwrap();
        assert!(acc > 0.95, "acc={acc}");
    }

    #[test]
    fn uninformative_feature_scores_low() {
        let ds = synthetic(100);
        let acc = cross_validate(&ds, &[Feature::Memory], 5, 1).unwrap();
        assert!(acc < 0.75, "memory should not separate classes: {acc}");
    }

    #[test]
    fn pair_at_least_as_good_as_weak_single() {
        let ds = synthetic(100);
        let pair = cross_validate(&ds, &Feature::PAPER_PAIR, 5, 1).unwrap();
        let util = cross_validate(&ds, &[Feature::Utilization], 5, 1).unwrap();
        assert!(pair >= util - 0.05);
    }

    #[test]
    fn degenerate_datasets_return_none() {
        let mut ds = synthetic(10);
        for s in &mut ds.samples {
            s.label = true;
        }
        assert!(cross_validate(&ds, &[Feature::Throttling], 5, 1).is_none());
        let empty = Dataset { samples: vec![] };
        assert!(cross_validate(&empty, &[Feature::Throttling], 5, 1).is_none());
    }

    #[test]
    fn study_reports_rows() {
        let ds = synthetic(60);
        let rows = feature_study(&ds, 5, 1);
        assert!(rows.iter().any(|(n, _)| n == "util+throttle"));
        assert!(rows.len() >= 6);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = synthetic(80);
        let a = cross_validate(&ds, &Feature::PAPER_PAIR, 5, 9).unwrap();
        let b = cross_validate(&ds, &Feature::PAPER_PAIR, 5, 9).unwrap();
        assert_eq!(a, b);
    }
}
