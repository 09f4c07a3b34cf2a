//! Integration: the Table 1 pipeline end-to-end on the toy application —
//! induce a bottleneck in the simulator, harvest features, train, and
//! verify the paper's feature choice discriminates.

use pema_classifier::{
    cross_validate, generate_dataset, DatasetConfig, Feature, FitConfig, Logistic, Stump,
};

fn dataset() -> pema_classifier::Dataset {
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
    let logit = Logistic::fit(&x, &y, &FitConfig::default());
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
