//! The scratch-arena contract (`core::serve::arena`), end to end:
//!
//! 1. **Pooling never changes results.** The reference serves each
//!    request directly on its own freshly spawned thread at
//!    `KD_THREADS=1`, so every request starts from an empty thread-local
//!    arena. Direct serving and the queued, coalescing front-end on warm
//!    arenas, at `KD_THREADS ∈ {1, 4}`, produce bitwise-identical
//!    `Selection`s — the buffers the arena recycles are fully overwritten
//!    before every use, so reuse can only change speed.
//! 2. **Grouped ≡ per-series, bitwise.** The one-forward-pass batch path
//!    (`window_scores`) scores exactly what per-series `series_scores`
//!    calls produce.
//! 3. **Steady state is allocation-free.** After one warm-up pass,
//!    re-serving the same request shapes grows no arena buffer:
//!    `kdprof::Counter::ArenaGrowth` stays zero while `ArenaReuse`
//!    advances.
//!
//! Lives in its own integration binary because it flips the
//! process-global `tspar` thread policy and resets the `kdprof` counters
//! (one test fn so the mutations never interleave with other tests).

use kdselector::core::selector::NnSelector;
use kdselector::core::serve::{QueueConfig, SelectRequest, Selection, SelectorEngine, ServeQueue};
use kdselector::core::train::TrainedSelector;
use kdselector::core::Architecture;
use std::sync::Arc;
use tsdata::{TimeSeries, WindowConfig};
use tspar::Parallelism;

const KD_SWEEP: [usize; 2] = [1, 4];

fn window_cfg() -> WindowConfig {
    WindowConfig {
        length: 64,
        stride: 32,
        znormalize: true,
    }
}

/// Deterministic synthetic series, long enough for several windows.
fn series_pool(n: usize, len: usize) -> Vec<TimeSeries> {
    (0..n)
        .map(|i| {
            TimeSeries::new(
                format!("arena-{i}"),
                format!("D{}", i % 3),
                (0..len)
                    .map(|t| {
                        let x = t as f64 * 0.11 + i as f64 * 0.6;
                        x.sin() + 0.35 * (x * 3.1).cos()
                    })
                    .collect(),
                vec![],
            )
        })
        .collect()
}

fn nn_engine() -> Arc<SelectorEngine> {
    let engine = SelectorEngine::new();
    for (name, arch, seed) in [
        ("convnet", Architecture::ConvNet, 41),
        ("transformer", Architecture::Transformer, 53),
    ] {
        let model = TrainedSelector::build(arch, 64, 8, seed);
        let selector = NnSelector::new(name, model, window_cfg());
        engine.register(name, Arc::new(selector));
    }
    Arc::new(engine)
}

/// Mixed-shape request stream: batch sizes cycle 1..=3, selectors
/// alternate so the coalescer sees mergeable runs and boundaries.
fn request_stream(pool: &[TimeSeries], total: usize) -> Vec<SelectRequest> {
    (0..total)
        .map(|i| {
            let size = 1 + i % 3;
            let batch: Vec<TimeSeries> = (0..size)
                .map(|j| pool[(i * 3 + j * 5) % pool.len()].clone())
                .collect();
            let selector = if (i / 2) % 2 == 0 {
                "convnet"
            } else {
                "transformer"
            };
            SelectRequest::new(selector, batch)
        })
        .collect()
}

#[test]
fn arena_pooling_is_invisible_and_allocation_free_after_warmup() {
    let engine = nn_engine();
    let pool = series_pool(8, 320);
    let requests = request_stream(&pool, 16);

    // ---- Reference: serial, each request on a fresh thread (cold arena).
    tspar::set_parallelism(Parallelism::Fixed(1));
    let expected: Vec<Vec<Selection>> = std::thread::scope(|s| {
        requests
            .iter()
            .map(|r| {
                s.spawn(|| engine.handle(r).expect("direct serve"))
                    .join()
                    .expect("reference thread")
            })
            .collect()
    });

    // ---- Sweep: KD_THREADS {1, 4} on warm arenas, direct and queued. ----
    for &threads in &KD_SWEEP {
        tspar::set_parallelism(Parallelism::Fixed(threads));
        let tag = format!("KD_THREADS={threads}");

        for (i, request) in requests.iter().enumerate() {
            let got = engine.handle(request).expect("direct serve");
            assert_eq!(
                got, expected[i],
                "direct request {i} diverged from reference at {tag}"
            );
        }

        let queue = ServeQueue::new(
            Arc::clone(&engine),
            QueueConfig {
                max_depth: 1024,
                max_batch: 8,
            },
        );
        // Submit everything up front so the FIFO really holds
        // overlapping traffic for the coalescer, then redeem in order.
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| queue.submit(r.clone()).expect("admitted"))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let got = ticket.wait().expect("served");
            assert_eq!(
                got, expected[i],
                "queued request {i} diverged from reference at {tag}"
            );
        }
        assert_eq!(queue.depth(), 0, "queue fully drained at {tag}");
    }

    // ---- Grouped ≡ per-series, bitwise. ---------------------------------
    tspar::set_parallelism(Parallelism::Fixed(1));
    let selector = engine.get("convnet").expect("registered");
    let refs: Vec<&TimeSeries> = pool.iter().collect();
    let grouped = selector.window_scores(&refs);
    assert_eq!(grouped.len(), refs.len());
    for (i, ts) in pool.iter().enumerate() {
        assert_eq!(
            grouped[i],
            selector.series_scores(ts),
            "grouped scoring diverged from per-series on series {i}"
        );
    }

    // ---- Zero arena growth after warmup. --------------------------------
    // Serial so every arena take lands on this thread's arena; one pass
    // over the full stream warms each buffer to its high-water mark.
    for request in &requests {
        engine.handle(request).expect("warmup serve");
    }
    kdprof::reset();
    for (i, request) in requests.iter().enumerate() {
        let got = engine.handle(request).expect("steady-state serve");
        assert_eq!(got, expected[i], "steady-state request {i} diverged");
    }
    let growth = kdprof::counter_value(kdprof::Counter::ArenaGrowth);
    let reuse = kdprof::counter_value(kdprof::Counter::ArenaReuse);
    assert_eq!(
        growth, 0,
        "warm arena must satisfy every take from recycled capacity \
         (ArenaGrowth={growth}, ArenaReuse={reuse})"
    );
    assert!(
        reuse > 0,
        "the steady-state pass must actually route scratch through the arena"
    );
}
