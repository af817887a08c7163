//! The serving layer's contract: batched `SelectorEngine` results are
//! bit-identical to the per-series path at any `KD_THREADS` setting, stable
//! under concurrent callers, and preserved exactly by a save → load → serve
//! round trip.
//!
//! Lives in its own integration binary because it mutates the
//! process-global `tspar` thread policy (one test fn so mutations never
//! interleave).

use kdselector::core::manage::SelectorStore;
use kdselector::core::selector::NnSelector;
use kdselector::core::serve::{SelectRequest, SelectorEngine};
use kdselector::core::train::TrainedSelector;
use kdselector::core::Architecture;
use std::sync::Arc;
use tsdata::{TimeSeries, WindowConfig};
use tspar::Parallelism;

mod common;

fn window_cfg() -> WindowConfig {
    WindowConfig {
        length: 64,
        stride: 32,
        znormalize: true,
    }
}

/// Deterministic synthetic series, long enough for several windows.
fn batch(n: usize, len: usize) -> Vec<TimeSeries> {
    (0..n)
        .map(|i| {
            TimeSeries::new(
                format!("serve-{i}"),
                format!("D{}", i % 3),
                (0..len)
                    .map(|t| {
                        let x = t as f64 * 0.08 + i as f64;
                        x.sin() + 0.4 * (x * 3.1).cos()
                    })
                    .collect(),
                vec![],
            )
        })
        .collect()
}

#[test]
fn engine_serves_deterministically_and_round_trips() {
    // Two architectures: plain conv stack and the attention path.
    let engine = SelectorEngine::new();
    for (name, arch) in [
        ("convnet", Architecture::ConvNet),
        ("transformer", Architecture::Transformer),
    ] {
        let model = TrainedSelector::build(arch, 64, 8, 17);
        engine.register(name, Arc::new(NnSelector::new(name, model, window_cfg())));
    }
    let series = batch(12, 400);

    // --- Batched vs per-series, across thread counts. -------------------
    tspar::set_parallelism(Parallelism::Fixed(1));
    let serial_conv = engine.select_batch("convnet", &series).unwrap();
    let serial_tf = engine.select_batch("transformer", &series).unwrap();
    // Per-series path at 1 thread: must agree decision for decision.
    let conv = engine.get("convnet").unwrap();
    for (ts, selection) in series.iter().zip(&serial_conv) {
        assert_eq!(selection.model, conv.select(ts), "{}", ts.id);
        assert_eq!(selection.votes, {
            let mut counts = vec![0usize; 12];
            for v in conv.window_votes(ts) {
                counts[v] += 1;
            }
            counts
        });
    }

    for threads in [2, 5, 8] {
        tspar::set_parallelism(Parallelism::Fixed(threads));
        let par_conv = engine.select_batch("convnet", &series).unwrap();
        let par_tf = engine.select_batch("transformer", &series).unwrap();
        assert_eq!(serial_conv, par_conv, "convnet at {threads} threads");
        assert_eq!(serial_tf, par_tf, "transformer at {threads} threads");
    }

    // --- Concurrent callers: N threads serving the same engine. ---------
    tspar::set_parallelism(Parallelism::Fixed(3));
    let request = SelectRequest::new("convnet", series.clone());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = &engine;
                let request = &request;
                s.spawn(move || engine.handle(request).unwrap())
            })
            .collect();
        for h in handles {
            assert_eq!(
                h.join().expect("serving thread"),
                serial_conv,
                "concurrent serving must match the serial result exactly"
            );
        }
    });
    tspar::set_parallelism(Parallelism::Auto);

    // --- Save → load → serve round trip: bit-identical votes. -----------
    let store_dir = common::temp_cache("serving-store");
    let store = SelectorStore::open(&store_dir).unwrap();
    let conv = engine.get("convnet").unwrap();
    // Scores before the trip (full window-score matrices, not just votes).
    let refs: Vec<&TimeSeries> = series.iter().collect();
    let scores_before: Vec<Vec<Vec<f32>>> = conv.window_scores(&refs);
    let nn = TrainedSelector::build(Architecture::ConvNet, 64, 8, 17);
    store.save("roundtrip", &nn, "serving test").unwrap();

    let engine2 = SelectorEngine::new();
    engine2.load(&store, "roundtrip", window_cfg()).unwrap();
    assert_eq!(engine2.names(), vec!["roundtrip"]);
    let reloaded = engine2.get("roundtrip").unwrap();
    let scores_after = reloaded.window_scores(&refs);
    assert_eq!(
        scores_before, scores_after,
        "save → load → serve must preserve every logit bit-for-bit"
    );
    assert_eq!(
        engine2.select_batch("roundtrip", &series).unwrap(),
        serial_conv,
        "reloaded selections must match the original engine"
    );

    let _ = std::fs::remove_dir_all(&store_dir);
}
