//! The offline loop: label the history, build the window dataset, train the
//! full KDSelector (ResNet + PISL + MKI + PA) and evaluate it.

use crate::rng::derive;
use crate::serve::{WIDTH, WINDOW};
use crate::trace::span;
use kdselector_core::dataset::SelectorDataset;
use kdselector_core::eval::evaluate;
use kdselector_core::labels::{compute_perf_matrix, PerfMatrix};
use kdselector_core::prune::PruneState;
use kdselector_core::selector::NnSelector;
use kdselector_core::train::{TrainConfig, TrainSession};
use kdselector_core::{Architecture, PruningStrategy};
use std::collections::BTreeMap;
use std::time::Instant;
use tsad_models::{default_model_set, ModelId};
use tsdata::benchmark::generate_series;
use tsdata::{all_families, TimeSeries};
use tstext::FrozenTextEncoder;

/// Seed of the detectors that produce the labels.
pub const DETECTOR_SEED: u64 = 11;
/// Width of the frozen metadata text encoder (the MKI knowledge source).
pub const TEXT_DIM: usize = 64;

/// Training epochs of the full KDSelector.
const EPOCHS: usize = 8;

/// Size of one offline loop's history.
#[derive(Debug, Clone, Copy)]
pub struct LearnConfig {
    /// Training series per family (all 16 families); one test series per
    /// test-split family.
    pub train_per_family: usize,
    /// Series lengths, dealt round-robin so every seed gets the same mix.
    pub lengths: &'static [usize],
}

/// The full KDSelector on the served ResNet (PISL + MKI + PA).
fn kdselector() -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        width: WIDTH,
        ..TrainConfig::kdselector(Architecture::ResNet)
    }
}

/// The labelled history one loop learns from.
pub struct History {
    pub train: Vec<TimeSeries>,
    pub test: Vec<TimeSeries>,
}

/// Generates the history: every family, mixed lengths, all from `seed`.
pub fn history(cfg: &LearnConfig, seed: u64) -> History {
    let mut train = Vec::new();
    let mut test = Vec::new();
    let mut k = 0usize;
    for (fi, family) in all_families().iter().enumerate() {
        let mut make = |split: &str, s: usize, stream: u64| {
            let len = cfg.lengths[k % cfg.lengths.len()];
            k += 1;
            let series_seed = derive(seed, stream << 32 | (fi as u64) << 16 | s as u64);
            generate_series(
                family,
                len,
                series_seed,
                &format!("{}-{split}-{s:03}", family.name),
            )
        };
        for s in 0..cfg.train_per_family {
            train.push(make("train", s, 1));
        }
        if family.in_test_split {
            test.push(make("test", 0, 2));
        }
    }
    History { train, test }
}

/// Timings and quality of one offline loop.
#[derive(Debug, Clone)]
pub struct LearnRun {
    pub learn_s: f64,
    pub label_s: f64,
    pub dataset_s: f64,
    pub train_s: f64,
    pub eval_s: f64,
    /// Per-series mean test AUC-PR of the models the selector picks.
    pub selected_auc_pr: f64,
    /// Oracle mean AUC-PR over `selected_auc_pr` (1 for a selector that
    /// always picks a best model).
    pub oracle_ratio: f64,
    /// Share of test series where the pick is the best model.
    pub hard_label_acc: f64,
    /// Fraction of sample visits PA kept.
    pub examined_frac: f64,
    /// Wall time of each epoch (only when run epoch by epoch).
    pub epoch_s: Vec<f64>,
    /// Samples examined per epoch.
    pub epoch_examined: Vec<usize>,
    /// Windows in the training set.
    pub windows: usize,
    /// Every perf-matrix cell finite and in [0, 1], with 12 columns.
    pub labels_valid: bool,
}

/// Everything a loop produces, for the probes that follow it.
pub struct Learned {
    pub run: LearnRun,
    pub selector: NnSelector,
    pub dataset: SelectorDataset,
    pub test_perf: PerfMatrix,
}

/// One offline loop over `h`. `per_epoch` drives the session one epoch at
/// a time to time each epoch (the same arithmetic as running to completion).
pub fn learn_once(h: &History, encoder: &FrozenTextEncoder, per_epoch: bool) -> Learned {
    let t0 = Instant::now();
    let (train_perf, test_perf) = {
        let _s = span("labels.compute_perf_matrix");
        (
            compute_perf_matrix(&h.train, DETECTOR_SEED),
            compute_perf_matrix(&h.test, DETECTOR_SEED),
        )
    };
    let t_label = Instant::now();
    let dataset = {
        let _s = span("dataset.build");
        SelectorDataset::build(&h.train, &train_perf, WINDOW, encoder)
    };
    let t_dataset = Instant::now();
    let mut epoch_s = Vec::new();
    let (model, stats) = {
        let _s = span("train.session");
        let mut session = {
            let _s = span("train.session_new");
            TrainSession::new(&dataset, &kdselector())
        };
        if per_epoch {
            while !session.is_complete() {
                let _s = span("train.epoch");
                let t = Instant::now();
                session.run_epoch(&dataset);
                epoch_s.push(t.elapsed().as_secs_f64());
            }
        } else {
            session.run_to_completion(&dataset);
        }
        session.finish()
    };
    let t_train = Instant::now();
    let selector = NnSelector::new("kdselector", model, WINDOW);
    let report = {
        let _s = span("eval.evaluate");
        evaluate(&selector, &h.test, &test_perf)
    };
    let t_eval = Instant::now();

    let (selected_auc_pr, hard_label_acc) = quality(&test_perf, &report.selections);
    let run = LearnRun {
        learn_s: (t_eval - t0).as_secs_f64(),
        label_s: (t_label - t0).as_secs_f64(),
        dataset_s: (t_dataset - t_label).as_secs_f64(),
        train_s: (t_train - t_dataset).as_secs_f64(),
        eval_s: (t_eval - t_train).as_secs_f64(),
        selected_auc_pr,
        oracle_ratio: test_perf.oracle_mean() / selected_auc_pr,
        hard_label_acc,
        examined_frac: stats.examined_fraction(),
        epoch_s,
        epoch_examined: stats.epoch_examined.clone(),
        windows: dataset.len(),
        labels_valid: labels_valid(&train_perf, h.train.len())
            && labels_valid(&test_perf, h.test.len()),
    };
    Learned {
        run,
        selector,
        dataset,
        test_perf,
    }
}

/// Per-series mean AUC-PR of `picks` and the share that hit the best model.
fn quality(perf: &PerfMatrix, picks: &[ModelId]) -> (f64, f64) {
    let n = picks.len().max(1) as f64;
    let auc: f64 = picks
        .iter()
        .enumerate()
        .map(|(i, &m)| perf.perf_of(i, m))
        .sum();
    let hits = picks
        .iter()
        .enumerate()
        .filter(|&(i, &m)| m == perf.best_model(i))
        .count();
    (auc / n, hits as f64 / n)
}

fn labels_valid(perf: &PerfMatrix, series: usize) -> bool {
    perf.len() == series
        && perf.rows.iter().all(|row| {
            row.len() == ModelId::ALL.len()
                && row.iter().all(|v| v.is_finite() && (0.0..=1.0).contains(v))
        })
}

/// Per-layer numbers measured by probes beside the traced loop.
pub fn probe_layers(h: &History, learned: &Learned, out: &mut BTreeMap<String, f64>) {
    // Detectors and AUC-PR, called serially so each cost is its own.
    let series: Vec<&TimeSeries> = h.train.iter().chain(&h.test).collect();
    let mut detector_s = vec![0.0f64; ModelId::ALL.len()];
    let mut auc_s = 0.0;
    for ts in &series {
        let labels = ts.point_labels();
        for det in default_model_set(DETECTOR_SEED) {
            let t = Instant::now();
            let scores = det.score(&ts.values);
            detector_s[det.id().index()] += t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(tsmetrics::auc_pr(&scores, &labels));
            auc_s += t.elapsed().as_secs_f64();
        }
    }
    let n = series.len() as f64;
    for (m, s) in ModelId::ALL.iter().zip(&detector_s) {
        out.insert(format!("detector.{}.ms_per_series", m.name()), s * 1e3 / n);
    }
    out.insert("tsmetrics.auc_pr_ms_per_series".into(), auc_s * 1e3 / n);
    let serial_s: f64 = detector_s.iter().sum::<f64>() + auc_s;
    out.insert(
        "labels.pool_util".into(),
        serial_s / (learned.run.label_s * tspar::threads() as f64),
    );

    // PA: LSH set-up and epoch planning on the loop's dataset.
    let ds = &learned.dataset;
    let train = kdselector();
    let with_knowledge = train.mki.is_some();
    let inputs: Vec<Vec<f64>> = (0..ds.len())
        .map(|i| ds.lsh_input(i, with_knowledge))
        .collect();
    let t = Instant::now();
    let mut state = PruneState::new(train.pruning, Some(&inputs), ds.len(), 0x9A);
    out.insert("prune.lsh_setup_ms".into(), t.elapsed().as_secs_f64() * 1e3);
    let indices: Vec<usize> = (0..ds.len()).collect();
    let losses: Vec<f64> = indices.iter().map(|&i| (i % 17) as f64 / 17.0).collect();
    state.record_losses(&indices, &losses);
    let epochs = train.epochs.max(2);
    let t = Instant::now();
    for e in 1..epochs {
        std::hint::black_box(state.plan_epoch(e, epochs));
    }
    out.insert(
        "prune.plan_ms".into(),
        t.elapsed().as_secs_f64() * 1e3 / (epochs - 1) as f64,
    );

    // Training throughput of the traced loop.
    let run = &learned.run;
    let epoch_ms = crate::stats::median(&run.epoch_s).unwrap_or(f64::NAN) * 1e3;
    out.insert("train.epoch_ms".into(), epoch_ms);
    let examined: usize = run.epoch_examined.iter().sum();
    out.insert(
        "train.windows_per_s".into(),
        examined as f64 / run.epoch_s.iter().sum::<f64>(),
    );
    out.insert("train.examined_frac".into(), run.examined_frac);

    // Tables 1-2: the same loop without PA, and without PISL/MKI as well.
    for (name, ablation) in [
        (
            "plain",
            TrainConfig {
                pisl: None,
                mki: None,
                pruning: PruningStrategy::None,
                ..train
            },
        ),
        (
            "pisl_mki",
            TrainConfig {
                pruning: PruningStrategy::None,
                ..train
            },
        ),
    ] {
        let mut session = TrainSession::new(ds, &ablation);
        let mut epoch_s = Vec::new();
        while !session.is_complete() {
            let t = Instant::now();
            session.run_epoch(ds);
            epoch_s.push(t.elapsed().as_secs_f64());
        }
        let (model, _) = session.finish();
        let selector = NnSelector::new(name, model, WINDOW);
        let report = evaluate(&selector, &h.test, &learned.test_perf);
        let (auc, _) = quality(&learned.test_perf, &report.selections);
        let ms = crate::stats::median(&epoch_s).unwrap_or(f64::NAN) * 1e3;
        out.insert(format!("train.ablation.{name}.epoch_ms"), ms);
        out.insert(format!("train.ablation.{name}.auc_pr"), auc);
    }

    // Encoder inference on a fixed batch of training windows.
    let batch: Vec<Vec<f32>> = ds.windows.iter().take(256).cloned().collect();
    let model = &learned.selector.model;
    std::hint::black_box(model.predict_logits(&batch));
    let mut per_window_us = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(model.predict_logits(&batch));
        per_window_us.push(t.elapsed().as_secs_f64() * 1e6 / batch.len() as f64);
    }
    out.insert(
        "encoder.infer_us_per_window".into(),
        crate::stats::median(&per_window_us).unwrap_or(f64::NAN),
    );

    out.insert("eval.ms".into(), run.eval_s * 1e3);
    out.insert("eval.hard_label_acc".into(), run.hard_label_acc);
    out.insert("dataset.build_ms".into(), run.dataset_s * 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perfect_selector_has_an_oracle_ratio_of_one() {
        let perf = PerfMatrix {
            series_ids: vec!["a".into(), "b".into(), "c".into()],
            rows: vec![
                vec![0.1, 0.7, 0.2, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3],
                vec![0.3, 0.1, 0.2, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.9, 0.0, 0.1],
                vec![0.1, 0.1, 0.6, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2],
            ],
        };
        let best: Vec<ModelId> = (0..perf.len()).map(|i| perf.best_model(i)).collect();
        let (auc, acc) = quality(&perf, &best);
        assert_eq!(perf.oracle_mean() / auc, 1.0);
        assert_eq!(acc, 1.0);
        // Any worse pick raises the ratio above one.
        let mut worse = best;
        worse[1] = ModelId::ALL[0];
        let (auc, acc) = quality(&perf, &worse);
        assert!(perf.oracle_mean() / auc > 1.0);
        assert_eq!(acc, 2.0 / 3.0);
    }
}
