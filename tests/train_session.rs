//! Training-session integration: the determinism contract
//! (bitwise-identical weights and stats at any `KD_THREADS`), checkpoint
//! round-trips with bitwise continuation, and live deployment of a
//! session-trained selector into a serving engine under concurrent
//! callers.
//!
//! Lives in its own binary because the determinism sweep mutates the
//! process-global `tspar` thread policy (every result asserted here is
//! thread-count-invariant, so concurrently running tests are unaffected).

use kdselector::core::dataset::SelectorDataset;
use kdselector::core::labels::PerfMatrix;
use kdselector::core::manage::SelectorStore;
use kdselector::core::prune::PruningStrategy;
use kdselector::core::serve::SelectorEngine;
use kdselector::core::train::{
    train, MkiConfig, PislConfig, TrainConfig, TrainSession, TrainStats, TrainedSelector,
};
use kdselector::core::Architecture;
use kdselector::nn::serialize::{save_params, StateDict};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use tsdata::{Benchmark, BenchmarkConfig, WindowConfig};
use tspar::Parallelism;
use tstext::FrozenTextEncoder;

/// Synthetic-label dataset (no detector runs): 8 series, window 32.
fn toy_dataset(seed: u64) -> SelectorDataset {
    let mut cfg = BenchmarkConfig::tiny();
    cfg.series_length = 320;
    cfg.seed = seed;
    let b = Benchmark::generate(cfg);
    let series: Vec<_> = b.train.into_iter().take(8).collect();
    let rows: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            (0..12)
                .map(|m| if m == i % 4 { 0.85 } else { 0.1 })
                .collect()
        })
        .collect();
    let perf = PerfMatrix {
        series_ids: series.iter().map(|s| s.id.clone()).collect(),
        rows,
    };
    let enc = FrozenTextEncoder::new(48, 0);
    let wc = WindowConfig {
        length: 32,
        stride: 32,
        znormalize: true,
    };
    SelectorDataset::build(&series, &perf, wc, &enc)
}

/// The acceptance configuration: PISL + MKI + PA pruning. Its batch of 24
/// does not divide the 80-window datasets, so every full-data epoch ends
/// on a short tail batch.
fn kd_cfg() -> TrainConfig {
    TrainConfig {
        arch: Architecture::ConvNet,
        width: 4,
        epochs: 5,
        batch_size: 24,
        lr: 5e-3,
        pisl: Some(PislConfig::default()),
        mki: Some(MkiConfig {
            hidden: 16,
            proj_dim: 8,
            ..MkiConfig::default()
        }),
        pruning: PruningStrategy::Pa {
            ratio: 0.7,
            lsh_bits: 12,
            bins: 4,
            anneal: 0.2,
        },
        ..TrainConfig::default()
    }
}

fn weights_of(model: &TrainedSelector) -> StateDict {
    save_params(&model.params())
}

fn assert_stats_eq(a: &TrainStats, b: &TrainStats, what: &str) {
    assert_eq!(a.epoch_loss, b.epoch_loss, "{what}: epoch losses");
    assert_eq!(a.epoch_accuracy, b.epoch_accuracy, "{what}: accuracies");
    assert_eq!(
        a.epoch_examined, b.epoch_examined,
        "{what}: examined counts"
    );
}

/// The determinism pin: a PISL+MKI+PA run produces bitwise-identical
/// `TrainedSelector` weights, buffers and per-epoch `TrainStats` at
/// `KD_THREADS` ∈ {1, 2, 4}, tail batches included.
///
/// One test fn so the global thread-policy mutations never interleave
/// with themselves.
#[test]
fn training_is_bitwise_identical_across_thread_counts() {
    let ds = toy_dataset(11);
    let cfg = kd_cfg();
    assert_ne!(
        ds.len() % cfg.batch_size,
        0,
        "the sweep must cross a short tail batch"
    );

    let run = |threads: usize| {
        tspar::set_parallelism(Parallelism::Fixed(threads));
        let (model, stats) = train(&ds, &cfg);
        let buffers: Vec<Vec<f32>> = model.buffers().iter().map(|b| b.to_vec()).collect();
        (weights_of(&model), buffers, stats)
    };

    let (w1, b1, s1) = run(1);
    let (w2, b2, s2) = run(2);
    let (w4, b4, s4) = run(4);
    tspar::set_parallelism(Parallelism::Auto);

    assert_eq!(w1, w2, "weights at 1 vs 2 threads");
    assert_eq!(w1, w4, "weights at 1 vs 4 threads");
    assert_eq!(b1, b2, "batch-norm buffers at 1 vs 2 threads");
    assert_eq!(b1, b4, "batch-norm buffers at 1 vs 4 threads");
    assert_stats_eq(&s1, &s2, "1 vs 2 threads");
    assert_stats_eq(&s1, &s4, "1 vs 4 threads");
}

/// Satellite pin: save at epoch k, resume, and epochs k+1..n produce
/// bitwise-identical weights and stats to an uninterrupted run — through
/// the on-disk store, not just in-memory snapshots.
#[test]
fn checkpoint_roundtrip_through_store_is_bitwise_identical() {
    let ds = toy_dataset(5);
    let mut cfg = kd_cfg();
    cfg.epochs = 6;

    let mut straight = TrainSession::new(&ds, &cfg);
    straight.run_to_completion(&ds);
    let (straight_model, straight_stats) = straight.finish();

    for split in [1usize, 3, 5] {
        let dir = std::env::temp_dir().join(format!("kdsel-ckpt-{split}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SelectorStore::open(&dir).unwrap();

        let mut first = TrainSession::new(&ds, &cfg);
        for _ in 0..split {
            first.run_epoch(&ds);
        }
        first.save_checkpoint(&store, "mid").unwrap();
        drop(first);

        let mut resumed = TrainSession::resume_from(&store, "mid", &ds).unwrap();
        assert_eq!(resumed.epoch(), split, "resume lands at epoch {split}");
        resumed.run_to_completion(&ds);
        let (resumed_model, resumed_stats) = resumed.finish();

        assert_eq!(
            weights_of(&straight_model),
            weights_of(&resumed_model),
            "weights after resume from epoch {split}"
        );
        for (a, b) in straight_model.buffers().iter().zip(resumed_model.buffers()) {
            assert_eq!(*a, b, "buffers after resume from epoch {split}");
        }
        assert_stats_eq(
            &straight_stats,
            &resumed_stats,
            &format!("resume from epoch {split}"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Resuming over a *different* dataset — even one with the identical
/// window count and shape — is a hard error (content fingerprint), not a
/// silently corrupted continuation.
#[test]
fn resume_rejects_same_sized_but_different_dataset() {
    let ds = toy_dataset(5);
    let other = toy_dataset(6); // same shape, different content
    assert_eq!(ds.len(), other.len(), "precondition: sizes match");
    let mut cfg = kd_cfg();
    cfg.epochs = 3;
    let mut session = TrainSession::new(&ds, &cfg);
    session.run_epoch(&ds);
    let ckpt = session.checkpoint();

    let err = match TrainSession::resume(&other, &ckpt) {
        Err(e) => e,
        Ok(_) => panic!("resume over a different dataset must fail"),
    };
    assert!(err.contains("fingerprint"), "unexpected error: {err}");
    // The original dataset still resumes fine.
    assert!(TrainSession::resume(&ds, &ckpt).is_ok());
}

/// A checkpoint taken at the final epoch boundary resumes into an
/// already-complete session whose finish() hands back the exact weights.
#[test]
fn checkpoint_of_finished_run_resumes_complete() {
    let ds = toy_dataset(7);
    let mut cfg = kd_cfg();
    cfg.epochs = 2;
    let mut session = TrainSession::new(&ds, &cfg);
    session.run_to_completion(&ds);
    let ckpt = session.checkpoint();
    let (model, _) = session.finish();

    let resumed = TrainSession::resume(&ds, &ckpt).unwrap();
    assert!(resumed.is_complete());
    let (resumed_model, _) = resumed.finish();
    assert_eq!(weights_of(&model), weights_of(&resumed_model));
}

/// Acceptance pin: a live engine serves correctly before and after
/// `deploy()` of a session-trained selector, with concurrent callers in
/// flight across the swap.
#[test]
fn deploy_hot_swaps_session_output_under_concurrent_serving() {
    let ds = toy_dataset(3);
    let window = ds.window_cfg;
    let series: Vec<tsdata::TimeSeries> = (0..6)
        .map(|i| {
            tsdata::TimeSeries::new(
                format!("deploy-{i}"),
                "D",
                (0..160)
                    .map(|t| ((t + 11 * i) as f64 * 0.17).sin() + 0.02 * i as f64)
                    .collect(),
                vec![],
            )
        })
        .collect();

    // v1: an untrained build; v2: the session-trained selector.
    let engine = Arc::new(SelectorEngine::with_window_cache(16));
    engine
        .deploy(
            "live",
            TrainedSelector::build(Architecture::ConvNet, 32, 4, 99),
            window,
        )
        .expect("v1 deploys");
    let before = engine.select_batch("live", &series).expect("v1 serves");

    // References for both versions from independent engines.
    let mut cfg = kd_cfg();
    cfg.epochs = 2;
    let reference_v2 = {
        let (model, _) = train(&ds, &cfg);
        let probe = SelectorEngine::new();
        probe.deploy("live", model, window).unwrap();
        probe.select_batch("live", &series).unwrap()
    };
    let reference_v1 = {
        let probe = SelectorEngine::new();
        probe
            .deploy(
                "live",
                TrainedSelector::build(Architecture::ConvNet, 32, 4, 99),
                window,
            )
            .unwrap();
        probe.select_batch("live", &series).unwrap()
    };
    assert_eq!(before, reference_v1, "pre-deploy serving matches v1");

    let stop = AtomicBool::new(false);
    let v2_observations = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let mut callers = Vec::new();
        for _ in 0..4 {
            callers.push(scope.spawn(|| {
                let mut observed_v2 = false;
                // Acquire pairs with the Release store below — callers
                // branch on the flag, so it is control flow.
                while !stop.load(Ordering::Acquire) {
                    let got = engine.select_batch("live", &series).expect("registered");
                    if got == reference_v2 {
                        if !observed_v2 {
                            v2_observations.fetch_add(1, Ordering::SeqCst);
                        }
                        observed_v2 = true;
                    } else {
                        assert_eq!(
                            got, reference_v1,
                            "every served batch is exactly v1 or exactly v2"
                        );
                    }
                }
                observed_v2
            }));
        }

        // Train a session while the callers hammer the engine, then deploy
        // its output into the live registry.
        let mut session = TrainSession::new(&ds, &cfg);
        session.run_to_completion(&ds);
        let (model, stats) = session.finish();
        assert_eq!(stats.epoch_loss.len(), cfg.epochs);
        engine.deploy("live", model, window).expect("v2 deploys");

        // Post-deploy serving is exactly v2, while callers may still be
        // finishing v1 batches they resolved before the swap.
        let after = engine.select_batch("live", &series).expect("v2 serves");
        assert_eq!(after, reference_v2, "post-deploy serving matches v2");

        // Wait (bounded) until a concurrent caller's own loop has served
        // the deployed version — on a loaded single-core box the callers
        // may be starved for a while, but the registry already holds v2,
        // so their next completed iteration must observe it.
        // kdlint: allow(wallclock): bounded test poll — fail, not hang.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while v2_observations.load(Ordering::SeqCst) == 0 {
            assert!(
                // kdlint: allow(wallclock): poll deadline check.
                std::time::Instant::now() < deadline,
                "no concurrent caller observed the deployed selector in 30s"
            );
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        let observations: Vec<bool> = callers.into_iter().map(|c| c.join().unwrap()).collect();
        assert!(
            observations.iter().any(|&v| v),
            "at least one concurrent caller served the deployed selector"
        );
    });
}

/// Session-trained models round-trip through the store and serve from a
/// fresh engine identically (deploy ≡ save → load).
#[test]
fn deploy_equals_save_load_serve() {
    let ds = toy_dataset(9);
    let window = ds.window_cfg;
    let mut cfg = kd_cfg();
    cfg.epochs = 2;
    let (model, _) = train(&ds, &cfg);

    let dir = std::env::temp_dir().join(format!("kdsel-deploy-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SelectorStore::open(&dir).unwrap();
    store.save("kd", &model, "session-trained").unwrap();

    let deployed = SelectorEngine::new();
    deployed.deploy("kd", model, window).unwrap();
    let loaded = SelectorEngine::new();
    loaded.load(&store, "kd", window).unwrap();

    let series: Vec<tsdata::TimeSeries> = (0..4)
        .map(|i| {
            tsdata::TimeSeries::new(
                format!("rt-{i}"),
                "D",
                (0..128)
                    .map(|t| ((t * (i + 2)) as f64 * 0.11).cos())
                    .collect(),
                vec![],
            )
        })
        .collect();
    assert_eq!(
        deployed.select_batch("kd", &series).unwrap(),
        loaded.select_batch("kd", &series).unwrap(),
        "deployed and store-loaded selectors serve bitwise-identically"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
