//! Kernel-level speedup record — blocked/parallel GEMM vs the naive seed
//! kernel at matrix shapes drawn from the selector architectures — plus a
//! serving-throughput record (selections/sec through the batched
//! `SelectorEngine` at a fixed 64-series batch) and a training-throughput
//! record (windows/sec through the data-parallel session stack at 1 and N
//! worker threads, with the bitwise cross-thread-count guard asserted) and
//! a streaming-loop record (windows/sec through incremental ingestion with
//! cache publishing, plus the daemon's drift → retrain → deploy latency)
//! and a `Conv1d` record (inference and backward cost at the served
//! ResNet's conv shapes, backward also at the training batch, with a
//! bitwise 1-vs-N-thread weight-gradient guard) and a `detectors` record
//! (label cost: ms per series of each of the 12 detectors at three series
//! lengths, single threaded, plus the LSTM gate math's ns per element
//! against libm).
//!
//! Appends one compact JSON line per run to `BENCH_micro.json` (repo root,
//! override with `KD_BENCH_OUT`) so the perf trajectory is tracked PR over
//! PR. Run via `scripts/bench.sh` or:
//!
//! ```text
//! cargo run --release -p kdselector-bench --bin micro_kernels
//! ```

use kdselector_core::dataset::SelectorDataset;
use kdselector_core::labels::PerfMatrix;
use kdselector_core::selector::{NnSelector, Selector};
use kdselector_core::serve::{
    QueueConfig, RouterConfig, SelectRequest, SelectorEngine, ServeQueue, ShardedRouter,
};
use kdselector_core::train::{MkiConfig, PislConfig, TrainConfig, TrainSession, TrainedSelector};
use kdselector_core::{Architecture, PruningStrategy};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;
use tsdata::{Benchmark, BenchmarkConfig, TimeSeries, WindowConfig};
use tsnn::Tensor;
use tstext::FrozenTextEncoder;

/// (label, op, n, m, k) — shapes taken from the workspace's hot paths:
/// Linear forward/backward in the MKI projection MLPs (256-wide hidden),
/// the InfoNCE similarity matrix, classifier layers over minibatches, and
/// a square stress shape for the cache-blocking headroom.
const CASES: &[(&str, &str, usize, usize, usize)] = &[
    ("mki_mlp_fc1", "matmul", 64, 256, 64),
    ("mki_mlp_fc1_dw", "t_matmul", 64, 256, 64),
    ("mki_mlp_fc1_dx", "matmul_t", 64, 64, 256),
    ("mki_mlp_fc2", "matmul", 64, 64, 256),
    ("infonce_sim", "matmul_t", 64, 64, 64),
    ("classifier", "matmul", 256, 12, 128),
    ("classifier_dw", "t_matmul", 256, 12, 128),
    ("square_256", "matmul", 256, 256, 256),
    ("square_256_t", "matmul_t", 256, 256, 256),
];

fn filled(shape: &[usize], seed: u32) -> Tensor {
    // Cheap deterministic fill; values in [-0.5, 0.5).
    let numel: usize = shape.iter().product();
    let data = (0..numel)
        .map(|i| {
            (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 8) & 0xFFFF) as f32
                / 65536.0
                - 0.5
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// Median-of-samples nanoseconds per call.
fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    // Calibrate batch size to ~10ms.
    let t0 = Instant::now();
    let _keep = f();
    let once = t0.elapsed().as_secs_f64().max(1e-7);
    let batch = ((0.01 / once).ceil() as usize).clamp(1, 20_000);
    let mut samples = Vec::with_capacity(7);
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2] * 1e9
}

/// Large-inner-dimension cases for the k-blocked, dual-panel GEMM path.
///
/// Both sides run through [`tsnn::gemm::gemm_prepacked_with_kc`] on the
/// same pre-packed `B`, so packing cost cancels and the comparison
/// isolates the kernel: `kc = usize::MAX` forces the pre-blocking
/// single-panel full-`k` sweep (the kernel every earlier record
/// measured), the [`tsnn::gemm::KC`] side is what [`tsnn::gemm::gemm`]
/// now does for `k > KC`. The two must agree **bitwise**
/// (`max_abs_diff == 0.0` asserted): blocking only introduces exact
/// `f32` round trips through `C`, and panel fusion never reorders any
/// output element's chain. Timing is interleaved A/B/A/B per round —
/// this host's clock wanders enough that back-to-back medians would
/// charge one side for a frequency dip the other side never saw.
fn large_k_benchmark() -> serde_json::Value {
    use tsnn::gemm::{gemm_prepacked_with_kc, Layout, PackedB, KC};

    println!(
        "\n{:<16} {:>5}x{:<4}x{:<4} {:>14} {:>12} {:>8} {:>8}",
        "large-k case", "n", "m", "k", "unblocked ns", "blocked ns", "speedup", "max|Δ|"
    );
    let mut rows = Vec::new();
    let mut log_speedup_sum = 0.0f64;
    let shapes: &[(&str, usize, usize, usize)] = &[
        ("large_k_1024", 64, 128, 1024),
        ("large_k_2048", 64, 128, 2048),
        ("large_k_wide", 64, 512, 2048),
    ];
    for &(label, n, m, k) in shapes {
        let a = filled(&[n, k], 1).data().to_vec();
        let b = filled(&[k, m], 2).data().to_vec();
        let packed = PackedB::pack(m, k, &b, Layout::Normal);
        let mut blocked = vec![0.0f32; n * m];
        gemm_prepacked_with_kc(n, &a, Layout::Normal, &packed, KC, &mut blocked);
        let mut unblocked = vec![0.0f32; n * m];
        gemm_prepacked_with_kc(n, &a, Layout::Normal, &packed, usize::MAX, &mut unblocked);
        let diff = blocked
            .iter()
            .zip(&unblocked)
            .map(|(&x, &y)| (x - y).abs() as f64)
            .fold(0.0, f64::max);
        assert!(
            diff == 0.0,
            "{label}: k-blocked kernel must be bitwise identical to the unblocked sweep ({diff})"
        );

        // Interleaved medians: one timed batch of each variant per round.
        let t0 = Instant::now();
        gemm_prepacked_with_kc(n, &a, Layout::Normal, &packed, usize::MAX, &mut unblocked);
        let once = t0.elapsed().as_secs_f64().max(1e-7);
        let batch = ((0.01 / once).ceil() as usize).clamp(1, 1000);
        let mut un_samples = Vec::with_capacity(7);
        let mut bl_samples = Vec::with_capacity(7);
        for _ in 0..7 {
            let t = Instant::now();
            for _ in 0..batch {
                gemm_prepacked_with_kc(n, &a, Layout::Normal, &packed, usize::MAX, &mut unblocked);
                std::hint::black_box(unblocked[0]);
            }
            un_samples.push(t.elapsed().as_secs_f64() / batch as f64);
            let t = Instant::now();
            for _ in 0..batch {
                gemm_prepacked_with_kc(n, &a, Layout::Normal, &packed, KC, &mut blocked);
                std::hint::black_box(blocked[0]);
            }
            bl_samples.push(t.elapsed().as_secs_f64() / batch as f64);
        }
        un_samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
        bl_samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let un_ns = un_samples[un_samples.len() / 2] * 1e9;
        let bl_ns = bl_samples[bl_samples.len() / 2] * 1e9;
        let speedup = un_ns / bl_ns;
        log_speedup_sum += speedup.ln();
        println!(
            "{:<16} {:>5}x{:<4}x{:<4} {:>14.0} {:>12.0} {:>7.2}x {:>8.1}",
            label, n, m, k, un_ns, bl_ns, speedup, diff
        );
        rows.push(serde_json::json!({
            "case": label,
            "n": n,
            "m": m,
            "k": k,
            "kc": KC,
            "unblocked_ns": un_ns,
            "blocked_ns": bl_ns,
            "speedup": speedup,
            "max_abs_diff": diff,
        }));
    }
    let geomean = (log_speedup_sum / shapes.len() as f64).exp();
    println!("large-k geomean speedup, k-blocked over unblocked sweep: {geomean:.2}x");
    serde_json::json!({
        "kc": KC,
        "geomean_speedup": geomean,
        "cases": rows,
    })
}

/// `Conv1d` cost at the served ResNet's eleven conv shapes — `(c_in,
/// c_out, k)` of its three residual blocks (k = 7/5/3 stages plus the
/// 1×1 projection shortcuts) at width 8 — on a 256-window batch of 64
/// samples. `infer_ns` times `Layer::infer`; `backward_ns` times
/// `Layer::backward` alone (its `forward(train)` runs untimed), which
/// computes both the weight and the input gradient, so its FLOP count is
/// twice the forward's. `backward_train_ns` times the same call at the
/// training batch (64 windows).
///
/// Each case also asserts that the weight and bias gradients of one
/// training batch are bitwise equal at 1 and at 4 threads: the weight
/// gradient runs its channel tiles as pool tasks, and the split must not
/// move a bit.
fn conv_benchmark(threads: usize) -> serde_json::Value {
    use rand::SeedableRng;
    use tsnn::layers::{Conv1d, Layer};

    const BATCH: usize = 256;
    const TRAIN_BATCH: usize = 64;
    const LEN: usize = 64;
    const THREADS_HI: usize = 4;
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 8, 7),
        (8, 8, 5),
        (8, 8, 3),
        (1, 8, 1),
        (8, 16, 7),
        (16, 16, 5),
        (16, 16, 3),
        (8, 16, 1),
        (16, 16, 7),
        (16, 16, 5),
        (16, 16, 3),
    ];
    // Median seconds of one `backward` call, each after an untimed
    // `forward(train)`.
    let backward_secs = |conv: &mut Conv1d, x: &Tensor, g: &Tensor| {
        let mut samples = Vec::with_capacity(7);
        for _ in 0..7 {
            let mut spent = 0.0;
            for _ in 0..4 {
                conv.forward(x, true);
                let t = Instant::now();
                std::hint::black_box(conv.backward(g));
                spent += t.elapsed().as_secs_f64();
            }
            samples.push(spent / 4.0);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[samples.len() / 2]
    };
    // The weight and bias gradient bits of one fresh backward pass.
    let grad_bits = |conv: &Conv1d, x: &Tensor, g: &Tensor, threads: usize| {
        tspar::set_parallelism(tspar::Parallelism::Fixed(threads));
        let mut conv = conv.clone();
        conv.weight.zero_grad();
        conv.bias.zero_grad();
        conv.forward(x, true);
        conv.backward(g);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        (bits(&conv.weight.grad), bits(&conv.bias.grad))
    };
    println!(
        "\n{:<16} {:>12} {:>8} {:>12} {:>8} {:>12} {:>8}",
        "conv case", "infer ns", "GFLOP/s", "backward ns", "GFLOP/s", "bwd@64 ns", "GFLOP/s"
    );
    let mut rows = Vec::new();
    let (mut infer_total, mut backward_total) = (0.0, 0.0);
    for (i, &(c_in, c_out, k)) in SHAPES.iter().enumerate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(i as u64);
        let mut conv = Conv1d::new(c_in, c_out, k, &mut rng);
        let x = filled(&[BATCH, c_in, LEN], 1);
        let g = filled(&[BATCH, c_out, LEN], 2);
        let x_train = filled(&[TRAIN_BATCH, c_in, LEN], 1);
        let g_train = filled(&[TRAIN_BATCH, c_out, LEN], 2);
        let case = format!("c{c_in}x{c_out}_k{k}_{i}");
        assert!(
            grad_bits(&conv, &x_train, &g_train, 1)
                == grad_bits(&conv, &x_train, &g_train, THREADS_HI),
            "{case}: conv weight gradient diverged across thread counts"
        );
        tspar::set_parallelism(tspar::Parallelism::Auto);
        let infer_ns = time_ns(|| conv.infer(&x));
        let backward_ns = backward_secs(&mut conv, &x, &g) * 1e9;
        let backward_train_ns = backward_secs(&mut conv, &x_train, &g_train) * 1e9;
        let flop = 2.0 * (BATCH * c_in * c_out * k * LEN) as f64;
        let train_flop = flop * (TRAIN_BATCH as f64 / BATCH as f64);
        println!(
            "{:<16} {:>12.0} {:>8.1} {:>12.0} {:>8.1} {:>12.0} {:>8.1}",
            case,
            infer_ns,
            flop / infer_ns,
            backward_ns,
            2.0 * flop / backward_ns,
            backward_train_ns,
            2.0 * train_flop / backward_train_ns
        );
        infer_total += infer_ns;
        backward_total += backward_ns;
        rows.push(serde_json::json!({
            "case": case,
            "c_in": c_in,
            "c_out": c_out,
            "k": k,
            "infer_ns": infer_ns,
            "infer_gflop_per_sec": flop / infer_ns,
            "backward_ns": backward_ns,
            "backward_gflop_per_sec": 2.0 * flop / backward_ns,
            "backward_train_ns": backward_train_ns,
            "backward_train_gflop_per_sec": 2.0 * train_flop / backward_train_ns,
        }));
    }
    let infer_us_per_window = infer_total / 1e3 / BATCH as f64;
    println!(
        "conv: {infer_us_per_window:.1} us/window inference, {:.1} us/window backward \
         (served ResNet w8, {threads} thread(s)); weight gradients bitwise-equal at 1 and \
         {THREADS_HI} threads",
        backward_total / 1e3 / BATCH as f64
    );
    serde_json::json!({
        "threads": threads,
        "batch": BATCH,
        "train_batch": TRAIN_BATCH,
        "len": LEN,
        "threads_hi": THREADS_HI,
        "infer_per_window_ns": infer_us_per_window * 1e3,
        "backward_per_window_ns": backward_total / BATCH as f64,
        "cases": rows,
    })
}

/// Serving throughput numbers for the JSON record.
struct ServeBench {
    batch: usize,
    series_len: usize,
    window: usize,
    width: usize,
    windows_per_series: usize,
    batch_seconds: f64,
}

impl ServeBench {
    fn selections_per_sec(&self) -> f64 {
        self.batch as f64 / self.batch_seconds
    }

    fn windows_per_sec(&self) -> f64 {
        (self.batch * self.windows_per_series) as f64 / self.batch_seconds
    }
}

/// Times the two serving paths over one fixed 64-series load:
///
/// * **direct** — a single batched `select_batch` call on an uncached
///   engine (the raw batch path, comparable with earlier PRs' records);
/// * **queued** — the same series as mixed-size requests (1/2/4/8 series)
///   submitted through a `ServeQueue`, coalesced back into engine batches
///   by the coalescer thread, with the content-keyed window cache warm
///   after the first run.
///
/// The two paths are sampled **interleaved** (direct, queued, direct,
/// queued, ...) so machine drift on a noisy/timeshared box lands on both
/// equally, and each reports its median. Both engines hold the same
/// weights (same build seed), so the work differs only by the layer under
/// test.
///
/// Read the comparison for what it is: "the queued front-end *as
/// deployed* (coalescer + tickets + warm cache) keeps up with the raw
/// batch path" — the cache's extraction savings and the queue's dispatch
/// overhead are bundled, roughly cancelling at these series lengths. It
/// is a regression tripwire for the deployed configuration, not an
/// isolated measurement of coalescer cost (the `window_cache` hit/miss
/// counters in the record expose the cache half).
fn serving_benchmarks() -> (ServeBench, serde_json::Value) {
    const BATCH: usize = 64;
    const SERIES_LEN: usize = 1024;
    const WINDOW: usize = 64;
    const WIDTH: usize = 8;
    const MAX_BATCH: usize = 64;
    const ROUNDS: usize = 7;

    let window_cfg = WindowConfig {
        length: WINDOW,
        stride: WINDOW / 2,
        znormalize: true,
    };
    // Direct path: deliberately uncached.
    let direct_engine = Arc::new(SelectorEngine::new());
    direct_engine.register(
        "convnet",
        Arc::new(NnSelector::new(
            "convnet",
            TrainedSelector::build(Architecture::ConvNet, WINDOW, WIDTH, 7),
            window_cfg,
        )),
    );
    // Queued path: same weights plus the LRU window cache the queued
    // front-end is designed to exploit on repeat traffic.
    let queue_engine = Arc::new(SelectorEngine::with_window_cache(2 * BATCH));
    let cache = Arc::clone(queue_engine.window_cache().expect("configured"));
    queue_engine.register(
        "convnet",
        Arc::new(
            NnSelector::new(
                "convnet",
                TrainedSelector::build(Architecture::ConvNet, WINDOW, WIDTH, 7),
                window_cfg,
            )
            .with_cache(Arc::clone(&cache)),
        ),
    );
    let queue = ServeQueue::new(
        Arc::clone(&queue_engine),
        QueueConfig {
            max_depth: 1024,
            max_batch: MAX_BATCH,
        },
    );

    let batch: Vec<TimeSeries> = (0..BATCH)
        .map(|i| {
            TimeSeries::new(
                format!("bench-{i}"),
                "D",
                (0..SERIES_LEN)
                    .map(|t| {
                        let x = t as f64 * 0.05 + i as f64 * 0.7;
                        x.sin() + 0.3 * (x * 2.3).cos()
                    })
                    .collect(),
                vec![],
            )
        })
        .collect();
    let windows_per_series = (SERIES_LEN - WINDOW) / (WINDOW / 2) + 1;

    // Mixed request sizes cycling 1, 2, 4, 8 over the 64 series.
    let mut requests: Vec<SelectRequest> = Vec::new();
    let mut taken = 0usize;
    let mut size_cycle = [1usize, 2, 4, 8].iter().cycle();
    while taken < batch.len() {
        let size = (*size_cycle.next().unwrap()).min(batch.len() - taken);
        requests.push(SelectRequest::new(
            "convnet",
            batch[taken..taken + size].to_vec(),
        ));
        taken += size;
    }

    let run_direct = || {
        let selections = direct_engine
            .select_batch("convnet", &batch)
            .expect("registered");
        assert_eq!(selections.len(), BATCH);
        selections
    };
    // Queued ≡ direct guard, asserted before anything is timed: the
    // coalesced, cached, arena-pooled queue front-end must hand back the
    // exact selections the raw uncached batch path computes.
    {
        let direct_ref = run_direct();
        let mut queued_all = Vec::new();
        for r in requests.clone() {
            queued_all.extend(queue.serve(r).expect("served"));
        }
        assert_eq!(
            direct_ref, queued_all,
            "queued serving drifted from the direct batch path"
        );
    }
    // Payloads are materialised outside the timed section for both paths
    // (the direct batch above is prebuilt too): one owned request set per
    // round, handed to submit by value.
    let mut request_sets: Vec<Vec<SelectRequest>> =
        (0..=ROUNDS).map(|_| requests.clone()).collect();
    let mut run_queued = || {
        let set = request_sets.pop().expect("one set per round");
        let tickets: Vec<_> = set
            .into_iter()
            .map(|r| queue.submit(r).expect("admitted"))
            .collect();
        for ticket in tickets {
            assert!(!ticket.wait().expect("served").is_empty());
        }
    };

    // Warm up both paths (pool workers, window cache), then sample
    // interleaved and take each path's median.
    run_direct();
    run_queued();
    let mut direct_samples = Vec::with_capacity(ROUNDS);
    let mut queued_samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        std::hint::black_box(run_direct());
        direct_samples.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        run_queued();
        queued_samples.push(t.elapsed().as_secs_f64());
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[samples.len() / 2]
    };
    let direct_seconds = median(&mut direct_samples);
    let queued_seconds = median(&mut queued_samples);

    let serve = ServeBench {
        batch: BATCH,
        series_len: SERIES_LEN,
        window: WINDOW,
        width: WIDTH,
        windows_per_series,
        batch_seconds: direct_seconds,
    };
    let queued_per_sec = BATCH as f64 / queued_seconds;
    let stats = cache.stats();
    println!(
        "queued serving:     {queued_per_sec:.0} selections/sec \
         ({} mixed-size requests, max_batch {MAX_BATCH}, cache {} hits / {} misses)",
        requests.len(),
        stats.hits,
        stats.misses,
    );
    let cache_record = serde_json::json!({
        "hits": stats.hits,
        "misses": stats.misses,
        "entries": stats.entries,
    });
    let queue_record = serde_json::json!({
        "batch": BATCH,
        "requests": requests.len(),
        "max_batch": MAX_BATCH,
        "series_len": SERIES_LEN,
        "window": WINDOW,
        "width": WIDTH,
        "batch_seconds": queued_seconds,
        "selections_per_sec": queued_per_sec,
        "window_cache": cache_record,
    });
    (serve, queue_record)
}

/// Routed serving throughput: the same mixed-size 64-series load pushed
/// through a 4-shard `ShardedRouter` by 4 producer threads, against the
/// identical requests served by direct `select_batch` calls on the same
/// producer threads. Eight selector names (same ConvNet weights) spread
/// the traffic over the placement ring so every shard works.
///
/// Both paths run uncached and hold identical weights, so the ratio
/// isolates what the routing tier adds per request: ring lookup, breaker
/// admission, queue submit/ticket hand-off, and the coalescer hop. The
/// routed replies are asserted bitwise-equal to the direct selections
/// before anything is timed — the record tracks overhead, not drift.
fn route_benchmark() -> serde_json::Value {
    const BATCH: usize = 64;
    const SERIES_LEN: usize = 1024;
    const WINDOW: usize = 64;
    const WIDTH: usize = 8;
    const SHARDS: usize = 4;
    const PRODUCERS: usize = 4;
    const NAMES: usize = 8;
    const ROUNDS: usize = 7;

    let window_cfg = WindowConfig {
        length: WINDOW,
        stride: WINDOW / 2,
        znormalize: true,
    };
    let direct_engine = Arc::new(SelectorEngine::new());
    // cache_capacity 0 keeps the shards uncached like the direct engine,
    // so repeat rounds don't hand the router a cache win the direct path
    // lacks.
    let router = ShardedRouter::new(RouterConfig {
        shards: SHARDS,
        cache_capacity: 0,
        ..RouterConfig::default()
    });
    for n in 0..NAMES {
        let name = format!("convnet-{n}");
        let selector: Arc<dyn Selector> = Arc::new(NnSelector::new(
            name.clone(),
            TrainedSelector::build(Architecture::ConvNet, WINDOW, WIDTH, 7),
            window_cfg,
        ));
        direct_engine.register(&name, Arc::clone(&selector));
        router
            .register(&name, selector)
            .expect("inline registration needs no store");
    }

    let batch: Vec<TimeSeries> = (0..BATCH)
        .map(|i| {
            TimeSeries::new(
                format!("route-bench-{i}"),
                "D",
                (0..SERIES_LEN)
                    .map(|t| {
                        let x = t as f64 * 0.05 + i as f64 * 0.7;
                        x.sin() + 0.3 * (x * 2.3).cos()
                    })
                    .collect(),
                vec![],
            )
        })
        .collect();

    // Mixed request sizes cycling 1, 2, 4, 8; selector names cycling so
    // the ring spreads requests over all shards.
    let mut requests: Vec<SelectRequest> = Vec::new();
    let mut taken = 0usize;
    let mut size_cycle = [1usize, 2, 4, 8].iter().cycle();
    while taken < batch.len() {
        let size = (*size_cycle.next().unwrap()).min(batch.len() - taken);
        requests.push(SelectRequest::new(
            format!("convnet-{}", requests.len() % NAMES),
            batch[taken..taken + size].to_vec(),
        ));
        taken += size;
    }
    let per_producer = requests.len().div_ceil(PRODUCERS);

    let run_direct = || {
        std::thread::scope(|s| {
            for chunk in requests.chunks(per_producer) {
                let engine = &direct_engine;
                s.spawn(move || {
                    for r in chunk {
                        let selections = engine
                            .select_batch(&r.selector, &r.batch)
                            .expect("registered");
                        std::hint::black_box(selections);
                    }
                });
            }
        });
    };
    let run_routed = || {
        std::thread::scope(|s| {
            for chunk in requests.chunks(per_producer) {
                let router = &router;
                s.spawn(move || {
                    for r in chunk {
                        let reply = router.route(r).expect("healthy tier");
                        assert!(!reply.degraded, "no faults injected");
                        std::hint::black_box(reply.selections);
                    }
                });
            }
        });
    };

    // Correctness guard before timing: the routed tier must serve the
    // exact bits the direct engine produces.
    for r in &requests {
        let direct = direct_engine
            .select_batch(&r.selector, &r.batch)
            .expect("registered");
        let routed = router.route(r).expect("healthy tier").selections;
        assert_eq!(direct, routed, "router drifted from the direct engine");
    }

    // Warm up, then sample interleaved and take each path's median.
    run_direct();
    run_routed();
    let mut direct_samples = Vec::with_capacity(ROUNDS);
    let mut routed_samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        run_direct();
        direct_samples.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        run_routed();
        routed_samples.push(t.elapsed().as_secs_f64());
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[samples.len() / 2]
    };
    let direct_seconds = median(&mut direct_samples);
    let routed_seconds = median(&mut routed_samples);
    let stats = router.stats();
    router.shutdown();

    let direct_per_sec = BATCH as f64 / direct_seconds;
    let routed_per_sec = BATCH as f64 / routed_seconds;
    let relative = routed_per_sec / direct_per_sec;
    println!(
        "routed serving:     {routed_per_sec:.0} selections/sec through {SHARDS} shards \
         ({PRODUCERS} producers, {} requests, {:.0}% of direct {direct_per_sec:.0}/sec)",
        requests.len(),
        relative * 100.0,
    );
    serde_json::json!({
        "shards": SHARDS,
        "producers": PRODUCERS,
        "selector_names": NAMES,
        "batch": BATCH,
        "requests": requests.len(),
        "series_len": SERIES_LEN,
        "window": WINDOW,
        "width": WIDTH,
        "batch_seconds": routed_seconds,
        "selections_per_sec": routed_per_sec,
        "direct_batch_seconds": direct_seconds,
        "direct_selections_per_sec": direct_per_sec,
        "relative_throughput": relative,
        "routed": stats.routed,
        "retries": stats.retries,
    })
}

/// Calibrates the `MIN_PAR_WORK` gate against the persistent pool: the
/// same fixed chunking executed inline vs dispatched on the pool (width
/// 4) across a ladder of work sizes (1 multiply-add per element,
/// matching how the layer gates estimate work).
///
/// Two crossover estimates are recorded:
///
/// * `direct_crossover` — smallest work size where the pooled region beat
///   the inline loop outright. Only meaningful on a multi-core machine
///   (`null` when the box cannot show a parallel win, e.g. 1-CPU CI).
/// * `modeled_crossover` — break-even from the dispatch-overhead model,
///   which works on any machine: the fixed cost a region pays to dispatch
///   is estimated as the median `pool_ns − serial_ns` over the
///   **dispatch-dominated rungs only** (`serial_ns ≤ pool_ns / 2`). The
///   big rungs must be excluded from the estimate on *both* machine
///   classes: on a multi-core box the pool wins them, clamping the
///   difference to zero (which would collapse the median), and on a
///   single-core box they bundle timeslicing cost that grows with work
///   (which would inflate it) — only the small rungs isolate the fixed
///   dispatch cost. A `width`-way region then wins once
///   `serial_ns > overhead · width / (width − 1)`
///   (from `serial/width + overhead < serial`). The `MIN_PAR_WORK`
///   constant is pinned roughly one power of two above this break-even
///   for safety margin — the sweep exists so the record shows when the
///   constant drifts from the measured overhead.
fn par_gate_sweep() -> serde_json::Value {
    const WIDTH: usize = 4;
    tspar::set_parallelism(tspar::Parallelism::Fixed(WIDTH));

    println!(
        "\n{:<10} {:>12} {:>12} {:>12} {:>8}",
        "work", "serial ns", "pool ns", "overhead ns", "speedup"
    );
    let mut rows = Vec::new();
    let mut serials: Vec<(usize, f64)> = Vec::new();
    let mut dispatch_dominated: Vec<f64> = Vec::new();
    let mut direct_crossover: Option<usize> = None;
    for shift in 12..=21u32 {
        let work = 1usize << shift;
        let chunk = work.div_ceil(WIDTH);
        let mut buf = vec![1.0f32; work];
        let body = |_ci: usize, c: &mut [f32]| {
            for x in c.iter_mut() {
                *x = x.mul_add(1.0000119, 1e-7);
            }
        };
        let serial_ns = time_ns(|| {
            for (ci, c) in buf.chunks_mut(chunk).enumerate() {
                body(ci, c);
            }
        });
        tspar::par_chunks_mut(&mut buf, chunk, body); // warm the pool
        let pool_ns = time_ns(|| tspar::par_chunks_mut(&mut buf, chunk, body));
        let speedup = serial_ns / pool_ns;
        let overhead_ns = (pool_ns - serial_ns).max(0.0);
        if speedup >= 1.0 && direct_crossover.is_none() {
            direct_crossover = Some(work);
        }
        serials.push((work, serial_ns));
        if serial_ns <= pool_ns / 2.0 {
            dispatch_dominated.push(overhead_ns);
        }
        println!(
            "1<<{shift:<6} {serial_ns:>12.0} {pool_ns:>12.0} {overhead_ns:>12.0} {speedup:>7.2}x"
        );
        rows.push(serde_json::json!({
            "work": work,
            "serial_ns": serial_ns,
            "pool_ns": pool_ns,
            "overhead_ns": overhead_ns,
            "speedup": speedup,
        }));
    }
    tspar::set_parallelism(tspar::Parallelism::Auto);

    // If no rung was dispatch-dominated (pathological timing), fall back
    // to a null model rather than invent a crossover from compute noise.
    dispatch_dominated.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let overhead_ns = dispatch_dominated
        .get(dispatch_dominated.len() / 2)
        .copied();
    let break_even_ns = overhead_ns.map(|o| o * WIDTH as f64 / (WIDTH as f64 - 1.0));
    let modeled_crossover = break_even_ns.and_then(|be| {
        serials
            .iter()
            .find(|&&(_, serial_ns)| serial_ns >= be)
            .map(|&(work, _)| work)
    });
    println!(
        "par gate: dispatch overhead ≈ {} ns/region, modeled crossover {}, \
         direct crossover {}, MIN_PAR_WORK = {}",
        overhead_ns.map_or("unmeasured".into(), |o| format!("{o:.0}")),
        modeled_crossover.map_or("beyond sweep".into(), |w| format!("{w}")),
        direct_crossover.map_or("not reached (single-core box?)".into(), |w| format!("{w}")),
        tspar::MIN_PAR_WORK,
    );
    serde_json::json!({
        "threads": WIDTH,
        "sweep": rows,
        "overhead_ns": overhead_ns,
        "break_even_serial_ns": break_even_ns,
        "modeled_crossover": modeled_crossover,
        "direct_crossover": direct_crossover,
        "gate": tspar::MIN_PAR_WORK,
    })
}

/// Training throughput through the session stack: windows/sec over a
/// synthetic-label dataset (no detector runs), with PISL + MKI active and
/// `REPLICAS` data-parallel replicas, at 1 worker thread and at
/// `THREADS_HI`. The same fixed micro-partitioning runs in both cases —
/// only the execution width differs — so the two runs are measuring the
/// identical computation and the bench asserts their final weights are
/// bitwise equal (the `train::dp` determinism contract) before reporting.
///
/// On a single-core box the "speedup" hovers at/below 1 (the record is the
/// point, not a pass/fail); on a multi-core box it shows the replica
/// fan-out paying off.
fn train_benchmark() -> serde_json::Value {
    const REPLICAS: usize = 4;
    const THREADS_HI: usize = 4;
    const ROUNDS: usize = 5;

    // Synthetic perf rows: selector-learning signal without detector cost.
    let mut bcfg = BenchmarkConfig::tiny();
    bcfg.series_length = 1024;
    let b = Benchmark::generate(bcfg);
    let series: Vec<TimeSeries> = b.train.into_iter().take(12).collect();
    let rows: Vec<Vec<f64>> = (0..series.len())
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
    let encoder = FrozenTextEncoder::new(48, 0);
    let window_cfg = WindowConfig {
        length: 64,
        stride: 32,
        znormalize: true,
    };
    let dataset = SelectorDataset::build(&series, &perf, window_cfg, &encoder);

    let cfg = TrainConfig {
        arch: Architecture::ConvNet,
        width: 6,
        epochs: 3,
        batch_size: 64,
        replicas: REPLICAS,
        pisl: Some(PislConfig::default()),
        mki: Some(MkiConfig {
            hidden: 64,
            proj_dim: 32,
            ..MkiConfig::default()
        }),
        // Full data keeps the visited-window count fixed, so windows/sec
        // at the two thread counts divide out to a clean speedup.
        pruning: PruningStrategy::None,
        seed: 7,
        ..TrainConfig::default()
    };

    let run = |threads: usize| {
        tspar::set_parallelism(tspar::Parallelism::Fixed(threads));
        // Warm-up (spawns pool workers, faults in the dataset).
        let mut warm = TrainSession::new(&dataset, &cfg);
        warm.run_epoch(&dataset);
        let mut samples = Vec::with_capacity(ROUNDS);
        let mut weights = None;
        for _ in 0..ROUNDS {
            let mut session = TrainSession::new(&dataset, &cfg);
            let t = Instant::now();
            session.run_to_completion(&dataset);
            samples.push(t.elapsed().as_secs_f64());
            let visited: usize = session.stats().epoch_examined.iter().sum();
            let (model, _) = session.finish();
            let snapshot = tsnn::serialize::save_params(&model.params());
            match &weights {
                None => weights = Some((snapshot, visited)),
                Some((reference, _)) => assert_eq!(
                    reference, &snapshot,
                    "training must be deterministic run over run"
                ),
            }
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let seconds = samples[samples.len() / 2];
        let (weights, visited) = weights.expect("at least one round");
        (visited as f64 / seconds, seconds, weights)
    };

    let (wps_1, secs_1, weights_1) = run(1);
    let (wps_n, secs_n, weights_n) = run(THREADS_HI);
    tspar::set_parallelism(tspar::Parallelism::Auto);
    assert_eq!(
        weights_1, weights_n,
        "data-parallel training diverged across thread counts"
    );

    let speedup = wps_n / wps_1;
    println!(
        "train throughput:   {wps_1:.0} windows/sec at 1 thread, {wps_n:.0} at {THREADS_HI} \
         ({speedup:.2}x, {REPLICAS} replicas, {} windows x {} epochs, bitwise-equal weights)",
        dataset.len(),
        cfg.epochs,
    );
    serde_json::json!({
        "windows": dataset.len(),
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "replicas": REPLICAS,
        "arch": "ConvNet",
        "width": cfg.width,
        "threads_hi": THREADS_HI,
        "seconds_t1": secs_1,
        "seconds_tn": secs_n,
        "windows_per_sec_t1": wps_1,
        "windows_per_sec_tn": wps_n,
        "speedup": speedup,
    })
}

/// Streaming-loop record: ingestion throughput (windows/sec through
/// chunked `StreamIngestor` appends, cache publishing included — the
/// steady-state serving path), plus the `RetrainDaemon`'s drift → retrain
/// → deploy latency on a synthetic-label corpus (the time from the ingest
/// that raises the drift signal to the retrained model being live in the
/// serving engine).
fn stream_benchmark() -> serde_json::Value {
    use kdselector_core::manage::SelectorStore;
    use kdselector_core::serve::WindowCache;
    use kdselector_core::stream::{
        DaemonConfig, DaemonEvent, DriftConfig, LabelOracle, RetrainDaemon, StreamIngestor,
    };

    let window = WindowConfig {
        length: 64,
        stride: 32,
        znormalize: true,
    };

    // --- Ingestion throughput: one long stream, fixed-size appends, each
    // followed by a cache publish (every append changes the prefix key, so
    // every publish is an insert — the worst case).
    const CHUNK: usize = 512;
    const CHUNKS: usize = 128;
    let chunks: Vec<Vec<f64>> = (0..CHUNKS)
        .map(|c| {
            (0..CHUNK)
                .map(|i| ((c * CHUNK + i) as f64 * 0.19).sin())
                .collect()
        })
        .collect();
    let cache = Arc::new(WindowCache::with_byte_budget(8, 1 << 22));
    let mut ingestor = StreamIngestor::new(window).with_cache(Arc::clone(&cache));
    let t = Instant::now();
    let mut produced = 0usize;
    for chunk in &chunks {
        produced += ingestor.append("bench", chunk).len();
        let _ = ingestor.publish("bench");
    }
    let ingest_secs = t.elapsed().as_secs_f64();
    let ingest_wps = produced as f64 / ingest_secs;

    // --- Drift → retrain → deploy latency. Synthetic oracle: labels flip
    // with the series mean, no detector runs.
    struct MeanOracle;
    impl LabelOracle for MeanOracle {
        fn perf_row(&self, ts: &TimeSeries) -> Vec<f64> {
            let mean = ts.values.iter().sum::<f64>() / ts.len().max(1) as f64;
            let best = usize::from(mean >= 1.0);
            (0..12).map(|m| if m == best { 0.9 } else { 0.1 }).collect()
        }
    }
    let dir = std::env::temp_dir().join(format!("kdsel-bench-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SelectorStore::open(&dir).expect("bench store");
    let engine = Arc::new(SelectorEngine::with_shared_cache(Arc::new(
        WindowCache::with_byte_budget(8, 1 << 22),
    )));
    let cfg = DaemonConfig {
        selector: "bench-stream".to_string(),
        window,
        train: TrainConfig {
            arch: Architecture::ConvNet,
            width: 6,
            epochs: 2,
            batch_size: 64,
            pruning: PruningStrategy::None,
            ..TrainConfig::default()
        },
        drift: DriftConfig {
            window: 256,
            threshold: 6.0,
        },
        quota: usize::MAX,
        min_samples: 1024,
        text_dim: 32,
    };
    let epochs = cfg.train.epochs;
    let mut daemon = RetrainDaemon::new(Arc::clone(&engine), store, Box::new(MeanOracle), cfg);
    // Stable reference traffic (anchors the drift window, builds corpus).
    for chunk in chunks.iter().take(8) {
        let events = daemon.ingest("bench", chunk).expect("ingest");
        assert!(events.is_empty(), "stable traffic must not trigger");
    }
    // The level shift: drift fires inside this ingest, and the clock runs
    // until the retrained model is deployed and serving.
    let shifted: Vec<f64> = chunks[8].iter().map(|v| v + 30.0).collect();
    let t = Instant::now();
    let mut events = daemon.ingest("bench", &shifted).expect("ingest");
    events.extend(daemon.run_pending().expect("retrain"));
    let retrain_secs = t.elapsed().as_secs_f64();
    let retrain_windows = events
        .iter()
        .find_map(|e| match e {
            DaemonEvent::RetrainStarted { windows, .. } => Some(*windows),
            _ => None,
        })
        .expect("the shift must trigger a retrain");
    assert!(
        matches!(events.last(), Some(DaemonEvent::Deployed { .. })),
        "the retrain must end in a deploy"
    );
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "stream loop:        {ingest_wps:.0} windows/sec ingested ({produced} windows, publish \
         included), drift->deploy {retrain_secs:.3}s ({retrain_windows} windows x {epochs} epochs)"
    );
    serde_json::json!({
        "chunk": CHUNK,
        "chunks": CHUNKS,
        "ingest_windows": produced,
        "ingest_secs": ingest_secs,
        "ingest_windows_per_sec": ingest_wps,
        "retrain_windows": retrain_windows,
        "epochs": epochs,
        "drift_to_deploy_secs": retrain_secs,
    })
}

/// Snapshot of the kdprof aggregates accumulated so far — the serving
/// phase breakdown (admit → coalesce → window → pack → score → complete)
/// plus the deterministic counters (cache, arena, coalescer). The bench
/// binary builds with kdprof's `timing` feature, so spans carry real
/// nanoseconds here; library builds without the bench compile them out.
fn profile_record() -> serde_json::Value {
    let phases = kdprof::phase_stats();
    let counters = kdprof::counter_stats();
    println!("\nserving phase profile (kdprof, spans inclusive):");
    println!(
        "{:<12} {:>10} {:>14} {:>12}",
        "phase", "calls", "total ms", "ns/call"
    );
    for p in &phases {
        if p.calls == 0 {
            continue;
        }
        println!(
            "{:<12} {:>10} {:>14.3} {:>12.0}",
            p.name,
            p.calls,
            p.nanos as f64 / 1e6,
            p.nanos as f64 / p.calls as f64
        );
    }
    let counter_line: Vec<String> = counters
        .iter()
        .filter(|c| c.value > 0)
        .map(|c| format!("{}={}", c.name, c.value))
        .collect();
    println!("counters: {}", counter_line.join(" "));
    serde_json::json!({
        "timing": kdprof::timing_enabled(),
        "phases": phases
            .iter()
            .map(|p| {
                serde_json::json!({
                    "phase": p.name,
                    "calls": p.calls,
                    "nanos": p.nanos,
                })
            })
            .collect::<Vec<_>>(),
        "counters": counters
            .iter()
            .map(|c| serde_json::json!({"counter": c.name, "value": c.value}))
            .collect::<Vec<_>>(),
    })
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f64 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| (x - y).abs() as f64)
        .fold(0.0, f64::max)
}

/// Label cost: ms per series of each of the 12 detectors at series
/// lengths 512/1024/1536 on one thread (median of three passes over
/// three benchmark families per length), and the owned gate math of
/// `tsnn::simd` (`exp`/`sigmoid`/`tanh` over a 4096-element slice) in ns
/// per element against the host libm.
fn detectors_benchmark() -> serde_json::Value {
    use tsad_models::default_model_set;
    use tsdata::benchmark::generate_series;

    const LENGTHS: &[usize] = &[512, 1024, 1536];
    const FAMILIES: usize = 3;
    const PASSES: usize = 3;
    tspar::set_parallelism(tspar::Parallelism::Fixed(1));
    let families = tsdata::all_families();
    let mut rows = Vec::new();
    println!("\n{:<10} {:>6} {:>14}", "detector", "len", "ms/series");
    for &len in LENGTHS {
        let series: Vec<TimeSeries> = families[..FAMILIES]
            .iter()
            .enumerate()
            .map(|(i, f)| generate_series(f, len, 0xDE7 + i as u64, &format!("{}-{len}", f.name)))
            .collect();
        let mut per_model: Vec<Vec<f64>> = vec![Vec::new(); 12];
        for _ in 0..PASSES {
            let mut spent = [0.0f64; 12];
            for ts in &series {
                for det in default_model_set(11) {
                    let t = Instant::now();
                    std::hint::black_box(det.score(&ts.values));
                    spent[det.id().index()] += t.elapsed().as_secs_f64();
                }
            }
            for (samples, s) in per_model.iter_mut().zip(spent) {
                samples.push(s * 1e3 / FAMILIES as f64);
            }
        }
        for (model, mut samples) in tsad_models::ModelId::ALL.iter().zip(per_model) {
            samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let ms = samples[samples.len() / 2];
            println!("{:<10} {:>6} {:>14.3}", model.name(), len, ms);
            rows.push(serde_json::json!({
                "case": format!("{}@{len}", model.name()),
                "len": len,
                "ms_per_series": ms,
            }));
        }
    }
    tspar::set_parallelism(tspar::Parallelism::Auto);

    const ELEMS: usize = 4096;
    let xs: Vec<f32> = (0..ELEMS)
        .map(|i| -10.0 + 20.0 * i as f32 / ELEMS as f32)
        .collect();
    let mut out = vec![0.0f32; ELEMS];
    let mut per_elem = |f: &dyn Fn(&[f32], &mut [f32])| {
        time_ns(|| {
            f(&xs, &mut out);
            out[ELEMS / 2]
        }) / ELEMS as f64
    };
    type SliceFn = fn(&[f32], &mut [f32]);
    let gates: [(&str, SliceFn, SliceFn); 3] = [
        (
            "exp",
            |x, o| {
                o.iter_mut()
                    .zip(x)
                    .for_each(|(o, &x)| *o = tsnn::simd::exp(x))
            },
            |x, o| o.iter_mut().zip(x).for_each(|(o, &x)| *o = x.exp()),
        ),
        (
            "sigmoid",
            |x, o| {
                o.iter_mut()
                    .zip(x)
                    .for_each(|(o, &x)| *o = tsnn::simd::sigmoid(x))
            },
            |x, o| {
                o.iter_mut()
                    .zip(x)
                    .for_each(|(o, &x)| *o = 1.0 / (1.0 + (-x).exp()))
            },
        ),
        (
            "tanh",
            |x, o| {
                o.iter_mut()
                    .zip(x)
                    .for_each(|(o, &x)| *o = tsnn::simd::tanh(x))
            },
            |x, o| o.iter_mut().zip(x).for_each(|(o, &x)| *o = x.tanh()),
        ),
    ];
    println!(
        "\n{:<10} {:>12} {:>12} {:>8}",
        "gate", "owned ns/el", "libm ns/el", "speedup"
    );
    let mut gate_rows = Vec::new();
    for (name, owned, libm) in gates {
        let owned_ns = per_elem(&owned);
        let libm_ns = per_elem(&libm);
        println!(
            "{name:<10} {owned_ns:>12.3} {libm_ns:>12.3} {:>7.1}x",
            libm_ns / owned_ns
        );
        gate_rows.push(serde_json::json!({
            "case": name,
            "owned_ns_per_elem": owned_ns,
            "libm_ns_per_elem": libm_ns,
            "speedup": libm_ns / owned_ns,
        }));
    }
    serde_json::json!({
        "threads": 1,
        "families": FAMILIES,
        "series": rows,
        "gates": gate_rows,
    })
}

fn main() {
    use tsnn::gemm::{self, Layout};

    let threads = tspar::threads();
    println!("kernel micro-bench: {threads} thread(s) (KD_THREADS to override)\n");
    println!(
        "{:<16} {:>10} {:>5}x{:<4}x{:<4} {:>12} {:>12} {:>8} {:>10}",
        "case", "op", "n", "m", "k", "naive ns", "blocked ns", "speedup", "max|Δ|"
    );

    let mut rows = Vec::new();
    let mut log_speedup_sum = 0.0f64;
    for &(label, op, n, m, k) in CASES {
        // Operands plus the layouts `gemm_naive` reads them through.
        let (a, b, la, lb) = match op {
            "matmul" => (
                filled(&[n, k], 1),
                filled(&[k, m], 2),
                Layout::Normal,
                Layout::Normal,
            ),
            // t_matmul: self is (inner, rows_out) = (k, n) in tensor terms.
            "t_matmul" => (
                filled(&[k, n], 1),
                filled(&[k, m], 2),
                Layout::Transposed,
                Layout::Normal,
            ),
            // matmul_t: other is (m, k).
            "matmul_t" => (
                filled(&[n, k], 1),
                filled(&[m, k], 2),
                Layout::Normal,
                Layout::Transposed,
            ),
            _ => unreachable!(),
        };
        let (fast, slow): (Tensor, Tensor) = match op {
            "matmul" => (a.matmul(&b), a.matmul_naive(&b)),
            "t_matmul" => (a.t_matmul(&b), a.t_matmul_naive(&b)),
            "matmul_t" => (a.matmul_t(&b), a.matmul_t_naive(&b)),
            _ => unreachable!(),
        };
        // The seed kernels round mul and add separately, so they are an
        // accuracy reference; `gemm_naive` runs the blocked kernel's own
        // ascending-`p` fma chain per element, so it must match bitwise.
        let diff = max_abs_diff(&fast, &slow);
        assert!(
            diff <= 1e-5,
            "{label}: blocked kernel diverged from naive ({diff})"
        );
        let mut fused = vec![0.0f32; n * m];
        gemm::gemm_naive(n, m, k, a.data(), la, b.data(), lb, &mut fused);
        assert!(
            fast.data()
                .iter()
                .zip(&fused)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{label}: blocked kernel is not bitwise gemm_naive"
        );

        let naive_ns = match op {
            "matmul" => time_ns(|| a.matmul_naive(&b)),
            "t_matmul" => time_ns(|| a.t_matmul_naive(&b)),
            "matmul_t" => time_ns(|| a.matmul_t_naive(&b)),
            _ => unreachable!(),
        };
        let blocked_ns = match op {
            "matmul" => time_ns(|| a.matmul(&b)),
            "t_matmul" => time_ns(|| a.t_matmul(&b)),
            "matmul_t" => time_ns(|| a.matmul_t(&b)),
            _ => unreachable!(),
        };
        let speedup = naive_ns / blocked_ns;
        log_speedup_sum += speedup.ln();
        println!(
            "{:<16} {:>10} {:>5}x{:<4}x{:<4} {:>12.0} {:>12.0} {:>7.2}x {:>10.2e}",
            label, op, n, m, k, naive_ns, blocked_ns, speedup, diff
        );
        rows.push(serde_json::json!({
            "case": label,
            "op": op,
            "n": n,
            "m": m,
            "k": k,
            "naive_ns": naive_ns,
            "blocked_ns": blocked_ns,
            "speedup": speedup,
            "max_abs_diff": diff,
        }));
    }

    let geomean = (log_speedup_sum / CASES.len() as f64).exp();
    println!("\ngeomean speedup: {geomean:.2}x at {threads} thread(s)");

    // --- k-blocked dual-panel kernel vs the unblocked sweep, large k. -----
    let gemm_large_k = large_k_benchmark();

    // --- Conv1d at the served ResNet's shapes. -----------------------------
    let conv = conv_benchmark(threads);

    // --- Label cost: every detector, one thread; gate math vs libm. -------
    let detectors = detectors_benchmark();

    // --- Serving throughput: direct batch vs the queued front-end, --------
    // --- sampled interleaved (see serving_benchmarks). --------------------
    println!();
    kdprof::reset();
    let (serve, serve_queue) = serving_benchmarks();
    // Snapshot the profile before the router/train sections add their own
    // phases, so the record isolates the serving hot path.
    let profile = profile_record();
    println!(
        "serving throughput: {:.0} selections/sec, {:.0} windows/sec \
         (batch {}, {} windows/series, ConvNet w{})",
        serve.selections_per_sec(),
        serve.windows_per_sec(),
        serve.batch,
        serve.windows_per_series,
        serve.width,
    );

    // --- Routed serving: 4-shard router vs direct, same producers. --------
    let route = route_benchmark();

    // --- Training throughput: session stack, 1 vs N threads. --------------
    let train = train_benchmark();

    // --- Streaming loop: ingest throughput + drift->deploy latency. -------
    let stream = stream_benchmark();

    // --- MIN_PAR_WORK calibration: serial vs pool across work sizes. ------
    let par_gate = par_gate_sweep();

    let serve_record = serde_json::json!({
        "batch": serve.batch,
        "series_len": serve.series_len,
        "window": serve.window,
        "width": serve.width,
        "windows_per_series": serve.windows_per_series,
        "batch_seconds": serve.batch_seconds,
        "selections_per_sec": serve.selections_per_sec(),
        "windows_per_sec": serve.windows_per_sec(),
    });
    let record = serde_json::json!({
        "bench": "micro_kernels",
        "threads": threads,
        "geomean_speedup": geomean,
        "cases": rows,
        "gemm_large_k": gemm_large_k,
        "conv": conv,
        "detectors": detectors,
        "serve": serve_record,
        "serve_queue": serve_queue,
        "profile": profile,
        "route": route,
        "train": train,
        "stream": stream,
        "par_gate": par_gate,
    });
    let path = std::env::var("KD_BENCH_OUT").unwrap_or_else(|_| "BENCH_micro.json".into());
    let line = serde_json::to_string(&record).expect("serializable record");
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            let _ = writeln!(f, "{line}");
            println!("appended record to {path}");
        }
        Err(e) => eprintln!("could not append to {path}: {e}"),
    }
}
