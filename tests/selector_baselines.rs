//! The nine baseline selectors of Fig. 4 all train and evaluate end-to-end.

mod common;

use kdselector::core::nonnn::{FeatureModel, FeatureSelector, RocketSelector};
use kdselector::core::train::TrainConfig;
use kdselector::core::Architecture;

#[test]
fn feature_baselines_produce_reports() {
    let pipeline = common::tiny_pipeline("featbase");
    for kind in [
        FeatureModel::Knn,
        FeatureModel::Svc,
        FeatureModel::AdaBoost,
        FeatureModel::RandomForest,
    ] {
        let selector = FeatureSelector::train(&pipeline.dataset, kind, pipeline.config.train.seed);
        let report = pipeline.evaluate_selector(&selector);
        assert_eq!(report.per_dataset.len(), 14, "{kind:?}");
        assert_eq!(report.selector, kind.name());
        let avg = report.average_auc_pr();
        assert!((0.0..=1.0).contains(&avg), "{kind:?} avg={avg}");
    }
    common::cleanup("featbase");
}

#[test]
fn rocket_baseline_produces_report() {
    let pipeline = common::tiny_pipeline("rocketbase");
    let selector = RocketSelector::train(&pipeline.dataset, pipeline.config.train.seed);
    let report = pipeline.evaluate_selector(&selector);
    assert_eq!(report.per_dataset.len(), 14);
    assert_eq!(report.selector, "Rocket");
    common::cleanup("rocketbase");
}

#[test]
fn all_nn_architectures_train_on_the_pipeline() {
    let pipeline = common::tiny_pipeline("archs");
    for arch in Architecture::ALL {
        let cfg = TrainConfig {
            arch,
            epochs: 2,
            ..pipeline.config.train
        };
        let outcome = pipeline.train_nn_with(&cfg, arch.name());
        assert_eq!(outcome.report.per_dataset.len(), 14, "{arch:?}");
        assert!(outcome.stats.train_seconds > 0.0);
    }
    common::cleanup("archs");
}
