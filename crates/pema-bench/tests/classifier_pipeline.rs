//! Integration: the Table 1 pipeline end-to-end on the toy application —
//! induce a bottleneck in the simulator, harvest features, train, and
//! verify the paper's feature choice discriminates.

use pema_bench::dataset::{generate_dataset, Dataset, DatasetConfig};
use pema_bench::eval::cross_validate;
use pema_bench::features::Feature;
use pema_bench::logistic::Logistic;
use stump::Stump;

fn dataset() -> Dataset {
    let app = pema_apps::toy_chain();
    let cfg = DatasetConfig {
        rps: 150.0,
        levels: 7,
        repeats: 2,
        window_s: 8.0,
        warmup_s: 2.0,
        ..Default::default()
    };
    generate_dataset(&app, &["logic"], &cfg)
}

#[test]
fn util_throttle_pair_classifies_bottlenecks() {
    let ds = dataset();
    assert!(ds.positives() >= 4, "not enough induced violations");
    let acc = cross_validate(&ds, &Feature::PAPER_PAIR, 4, 1).expect("CV runs");
    assert!(
        acc >= 0.9,
        "util+throttle should be ≥90% accurate (paper: 94–100%), got {:.1}%",
        acc * 100.0
    );
}

#[test]
fn memory_feature_is_weaker_than_throttling() {
    let ds = dataset();
    let mem = cross_validate(&ds, &[Feature::Memory], 4, 1).unwrap_or(0.5);
    let thr = cross_validate(&ds, &[Feature::Throttling], 4, 1).unwrap_or(0.5);
    assert!(
        thr >= mem,
        "throttling ({thr:.2}) should beat memory ({mem:.2}) as a bottleneck feature"
    );
}

#[test]
fn stump_agrees_with_logistic_on_throttle() {
    let ds = dataset();
    let x: Vec<Vec<f64>> = ds
        .samples
        .iter()
        .map(|s| s.project(&[Feature::Throttling]))
        .collect();
    let y: Vec<bool> = ds.samples.iter().map(|s| s.label).collect();
    let stump = Stump::fit(&x, &y);
    let logit = Logistic::fit(&x, &y);
    let agree = x
        .iter()
        .filter(|r| stump.predict(r) == logit.predict(r))
        .count();
    assert!(
        agree as f64 / x.len() as f64 >= 0.85,
        "stump and logistic disagree too often ({agree}/{})",
        x.len()
    );
}

/// A decision stump — a one-split tree on a single feature: the
/// independent oracle [`Logistic`] is checked against above (Fig. 8
/// suggests a simple threshold on throttling already separates
/// bottlenecks, so logistic regression should not be doing anything
/// magical).
mod stump {
    /// A threshold classifier on one feature dimension.
    #[derive(Debug, Clone, Copy)]
    pub struct Stump {
        /// Feature column index used for the split.
        pub dim: usize,
        /// Split threshold.
        pub threshold: f64,
        /// Predicted class for values above the threshold.
        pub above_is_positive: bool,
    }

    impl Stump {
        /// Fits the best single split by exhaustive search over midpoints
        /// of consecutive sorted values in each dimension.
        ///
        /// # Panics
        /// Panics on empty or ragged data.
        pub fn fit(x: &[Vec<f64>], y: &[bool]) -> Self {
            assert!(!x.is_empty(), "empty training set");
            assert_eq!(x.len(), y.len());
            let d = x[0].len();
            assert!(x.iter().all(|r| r.len() == d), "ragged rows");

            let mut best = Stump {
                dim: 0,
                threshold: f64::NEG_INFINITY,
                above_is_positive: true,
            };
            let mut best_correct = 0usize;
            for dim in 0..d {
                let mut vals: Vec<f64> = x.iter().map(|r| r[dim]).collect();
                vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
                vals.dedup();
                let mut cands = vec![vals[0] - 1.0];
                for w in vals.windows(2) {
                    cands.push(0.5 * (w[0] + w[1]));
                }
                for &th in &cands {
                    for &above_pos in &[true, false] {
                        let correct = x
                            .iter()
                            .zip(y)
                            .filter(|(r, &l)| ((r[dim] > th) == above_pos) == l)
                            .count();
                        if correct > best_correct {
                            best_correct = correct;
                            best = Stump {
                                dim,
                                threshold: th,
                                above_is_positive: above_pos,
                            };
                        }
                    }
                }
            }
            best
        }

        /// Predicts the class of one row.
        pub fn predict(&self, row: &[f64]) -> bool {
            (row[self.dim] > self.threshold) == self.above_is_positive
        }

        /// Training-set accuracy of a fitted stump.
        pub fn accuracy(&self, x: &[Vec<f64>], y: &[bool]) -> f64 {
            let c = x
                .iter()
                .zip(y)
                .filter(|(r, &l)| self.predict(r) == l)
                .count();
            c as f64 / x.len() as f64
        }
    }

    #[test]
    fn perfect_split_found() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<bool> = (0..50).map(|i| i >= 25).collect();
        let s = Stump::fit(&x, &y);
        assert_eq!(s.accuracy(&x, &y), 1.0);
        assert!(s.threshold >= 24.0 && s.threshold < 25.0);
    }

    #[test]
    fn picks_informative_dimension() {
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 3) as f64, if i < 30 { 0.0 } else { 5.0 }])
            .collect();
        let y: Vec<bool> = (0..60).map(|i| i >= 30).collect();
        let s = Stump::fit(&x, &y);
        assert_eq!(s.dim, 1);
        assert_eq!(s.accuracy(&x, &y), 1.0);
    }

    #[test]
    fn inverted_classes_handled() {
        // Positives have *low* values.
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<bool> = (0..40).map(|i| i < 20).collect();
        let s = Stump::fit(&x, &y);
        assert_eq!(s.accuracy(&x, &y), 1.0);
        assert!(!s.above_is_positive);
    }

    #[test]
    #[should_panic]
    fn empty_panics() {
        Stump::fit(&[], &[]);
    }
}
