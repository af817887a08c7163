//! The persistent-pool determinism contract, enforced end to end:
//!
//! 1. **Pool ≡ serial, bitwise.** Every parallel entry point must produce
//!    results on the persistent pool bit-identical to the serial run at
//!    `Parallelism::Fixed(1)`, at every tested `KD_THREADS` width —
//!    checked at the primitive level (`par_map` / `par_chunks_mut`) and
//!    through the `SelectorEngine` serving path (selector fan-out → tsnn
//!    batched layers → GEMM).
//! 2. **Stress.** N concurrent `SelectorEngine` callers × a
//!    `KD_THREADS ∈ {1, 2, 4, 7}` sweep: bit-identical `Selection`s, no
//!    deadlock, with nested parallel regions running inline on executors.
//! 3. **Panic/recovery.** A panicking region propagates to its caller
//!    while a concurrent serving caller is unaffected, and the pool serves
//!    correctly afterwards.
//!
//! Lives in its own integration binary because it mutates the
//! process-global `tspar` thread policy (one test fn so the mutations
//! never interleave).

use kdselector::core::selector::NnSelector;
use kdselector::core::serve::{SelectRequest, Selection, SelectorEngine};
use kdselector::core::train::TrainedSelector;
use kdselector::core::Architecture;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use tsdata::{TimeSeries, WindowConfig};
use tspar::Parallelism;

/// The ISSUE-mandated width sweep.
const WIDTHS: [usize; 4] = [1, 2, 4, 7];

/// Deterministic synthetic series, long enough for several 64-windows.
fn batch(n: usize, len: usize) -> Vec<TimeSeries> {
    (0..n)
        .map(|i| {
            TimeSeries::new(
                format!("pool-{i}"),
                format!("D{}", i % 4),
                (0..len)
                    .map(|t| {
                        let x = t as f64 * 0.07 + i as f64 * 1.3;
                        x.sin() + 0.35 * (x * 2.9).cos()
                    })
                    .collect(),
                vec![],
            )
        })
        .collect()
}

/// A pure float task whose bits cannot depend on the executor.
fn float_task(i: usize) -> f64 {
    let x = (i as f64 * 0.13).sin();
    x.mul_add(x, (i as f64 + 1.0).ln())
}

fn test_engine() -> SelectorEngine {
    let window = WindowConfig {
        length: 64,
        stride: 32,
        znormalize: true,
    };
    let engine = SelectorEngine::new();
    for (name, arch, seed) in [
        ("convnet", Architecture::ConvNet, 17),
        ("transformer", Architecture::Transformer, 29),
    ] {
        let model = TrainedSelector::build(arch, 64, 8, seed);
        engine.register(name, Arc::new(NnSelector::new(name, model, window)));
    }
    engine
}

#[test]
fn pool_path_is_bitwise_identical_to_serial_path() {
    // ---- Primitive level: references computed serially once. ------------
    tspar::set_parallelism(Parallelism::Fixed(1));
    let map_ref: Vec<f64> = (0..513).map(float_task).collect();
    let chunk_fill = |ci: usize, chunk: &mut [f64]| {
        for (j, x) in chunk.iter_mut().enumerate() {
            *x = float_task(ci * 37 + j) * 0.5;
        }
    };
    let chunks_ref = {
        let mut v = vec![0.0f64; 1001];
        for (ci, chunk) in v.chunks_mut(37).enumerate() {
            chunk_fill(ci, chunk);
        }
        v
    };
    // Nested region reference: an outer map whose body opens an inner map.
    let nested_ref: Vec<f64> = (0..24)
        .map(|i| (0..40).map(|j| float_task(i * 40 + j)).sum::<f64>())
        .collect();

    for &width in &WIDTHS {
        tspar::set_parallelism(Parallelism::Fixed(width));
        let tag = format!("width {width}");

        let got = tspar::par_map(513, float_task);
        assert_eq!(got, map_ref, "par_map diverged at {tag}");

        let mut v = vec![0.0f64; 1001];
        tspar::par_chunks_mut(&mut v, 37, chunk_fill);
        assert_eq!(v, chunks_ref, "par_chunks_mut diverged at {tag}");

        let nested = tspar::par_map(24, |i| {
            tspar::par_map(40, move |j| float_task(i * 40 + j))
                .iter()
                .sum::<f64>()
        });
        assert_eq!(nested, nested_ref, "nested regions diverged at {tag}");
    }

    // ---- Serving level: engine Selections across the full matrix. -------
    let engine = test_engine();
    let series = batch(12, 420);
    tspar::set_parallelism(Parallelism::Fixed(1));
    let reference_conv = engine.select_batch("convnet", &series).unwrap();
    let reference_tf = engine.select_batch("transformer", &series).unwrap();

    for &width in &WIDTHS {
        tspar::set_parallelism(Parallelism::Fixed(width));
        let tag = format!("width {width}");
        assert_eq!(
            engine.select_batch("convnet", &series).unwrap(),
            reference_conv,
            "convnet Selections diverged at {tag}"
        );
        assert_eq!(
            engine.select_batch("transformer", &series).unwrap(),
            reference_tf,
            "transformer Selections diverged at {tag}"
        );
    }

    // ---- Stress: 4 concurrent callers × width sweep. ---------------------
    // Each caller opens its own selector fan-out region (which nests into
    // batched layers and GEMM); all share one pool and must agree bitwise.
    let request = SelectRequest::new("convnet", series.clone());
    for &width in &WIDTHS {
        tspar::set_parallelism(Parallelism::Fixed(width));
        let results: Vec<Vec<Selection>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let engine = &engine;
                    let request = &request;
                    s.spawn(move || engine.handle(request).unwrap())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serving caller"))
                .collect()
        });
        for (caller, got) in results.iter().enumerate() {
            assert_eq!(
                got, &reference_conv,
                "caller {caller} diverged at width {width}"
            );
        }
    }

    // ---- Panic/recovery: a panicking region next to a serving caller. ---
    tspar::set_parallelism(Parallelism::Fixed(4));
    std::panic::set_hook(Box::new(|_| {})); // the panics below are deliberate
    std::thread::scope(|s| {
        let panicker = s.spawn(|| {
            for round in 0..8 {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    tspar::par_map(48, |i| {
                        if i == 5 {
                            panic!("deliberate ({round})");
                        }
                        i
                    })
                }));
                assert!(outcome.is_err(), "round {round} must panic");
            }
        });
        let server = s.spawn(|| {
            for _ in 0..8 {
                assert_eq!(
                    engine.handle(&request).unwrap(),
                    reference_conv,
                    "serving caller disturbed by a concurrent panicking region"
                );
            }
        });
        panicker.join().expect("panicking caller thread");
        server.join().expect("serving caller thread");
    });
    let _ = std::panic::take_hook();

    // The pool remains fully usable after captured panics.
    assert_eq!(
        engine.select_batch("convnet", &series).unwrap(),
        reference_conv,
        "pool must serve bit-identically after panic recovery"
    );

    tspar::set_parallelism(Parallelism::Auto);
}
