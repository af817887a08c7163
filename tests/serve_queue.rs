//! The queued serving front-end's contract, enforced end to end:
//!
//! 1. **Queued ≡ direct, bitwise.** A request's `Selection`s are identical
//!    whether served directly via `engine.handle`, queued alone
//!    (`max_batch = 1`), or coalesced with arbitrary neighbours
//!    (`max_batch = 8`), under sustained overlapping load from N producer
//!    threads, across `KD_THREADS ∈ {1, 4}`.
//! 2. **Admission control.** A depth-bounded queue rejects the
//!    `max_depth + 1`-th pending request with `ServeError::Overloaded`
//!    (carrying the observed depth) and accepts again after draining.
//! 3. **Window cache.** A cached engine serves bitwise-identically to an
//!    uncached one, and repeat series hit instead of re-extracting; a
//!    byte-budgeted cache thrashing under eviction still serves the same
//!    bits (capacity and budget only cost speed, never results).
//! 4. **Hot swap + failure surfacing.** Selectors can be registered on the
//!    live engine between submits; unknown selectors and panicking
//!    selectors fail the affected tickets without killing the queue.
//!
//! Lives in its own integration binary because it mutates the
//! process-global `tspar` thread policy (one test fn so mutations never
//! interleave). CI additionally runs the whole binary at `KD_THREADS=1`
//! and `KD_THREADS=4` via the matrix legs.

use kdselector::core::selector::{NnSelector, Selector};
use kdselector::core::serve::{
    QueueConfig, SelectRequest, Selection, SelectorEngine, ServeError, ServeQueue, WindowCache,
};
use kdselector::core::train::TrainedSelector;
use kdselector::core::Architecture;
use std::sync::{Arc, Condvar, Mutex};
// kdlint: allow(wallclock): test poll-deadline helper only.
use std::time::{Duration, Instant};
use tsdata::{TimeSeries, WindowConfig};
use tspar::Parallelism;

const KD_SWEEP: [usize; 2] = [1, 4];
const MAX_BATCH_SWEEP: [usize; 2] = [1, 8];
const PRODUCERS: usize = 4;
const REQUESTS_PER_PRODUCER: usize = 8;

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
                format!("queue-{i}"),
                format!("D{}", i % 3),
                (0..len)
                    .map(|t| {
                        let x = t as f64 * 0.09 + i as f64 * 0.8;
                        x.sin() + 0.45 * (x * 2.7).cos()
                    })
                    .collect(),
                vec![],
            )
        })
        .collect()
}

fn nn_engine(cache: Option<Arc<WindowCache>>) -> Arc<SelectorEngine> {
    let engine = SelectorEngine::new();
    for (name, arch, seed) in [
        ("convnet", Architecture::ConvNet, 17),
        ("transformer", Architecture::Transformer, 29),
    ] {
        let model = TrainedSelector::build(arch, 64, 8, seed);
        let mut selector = NnSelector::new(name, model, window_cfg());
        if let Some(cache) = &cache {
            selector = selector.with_cache(Arc::clone(cache));
        }
        engine.register(name, Arc::new(selector));
    }
    Arc::new(engine)
}

/// Mixed-shape request stream: sizes cycle 1..=4, selectors alternate in
/// runs so the coalescer sees both mergeable neighbours and boundaries.
fn request_stream(pool: &[TimeSeries]) -> Vec<SelectRequest> {
    let total = PRODUCERS * REQUESTS_PER_PRODUCER;
    (0..total)
        .map(|i| {
            let size = 1 + i % 4;
            let batch: Vec<TimeSeries> = (0..size)
                .map(|j| pool[(i * 3 + j * 5) % pool.len()].clone())
                .collect();
            let selector = if (i / 3) % 2 == 0 {
                "convnet"
            } else {
                "transformer"
            };
            SelectRequest::new(selector, batch)
        })
        .collect()
}

/// A selector that blocks every scoring call until the gate opens — the
/// deterministic way to hold the coalescer mid-batch while producers pile
/// requests into the FIFO.
struct GateSelector {
    open: Mutex<bool>,
    released: Condvar,
}

impl GateSelector {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            open: Mutex::new(false),
            released: Condvar::new(),
        })
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.released.notify_all();
    }
}

impl Selector for GateSelector {
    fn name(&self) -> &str {
        "gate"
    }

    fn series_scores(&self, ts: &TimeSeries) -> Vec<Vec<f32>> {
        let open = self.open.lock().unwrap();
        drop(self.released.wait_while(open, |o| !*o).unwrap());
        let mut row = vec![0.0f32; 12];
        row[ts.len() % 12] = 1.0;
        vec![row]
    }
}

/// Polls `cond` up to 5s; panics with `what` on timeout so a scheduling bug
/// fails the test instead of hanging CI.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    // kdlint: allow(wallclock): poll deadline so a bug fails, not hangs.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        // kdlint: allow(wallclock): poll deadline check.
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn queued_serving_is_deterministic_bounded_and_recoverable() {
    // ---- References: every request served directly, serially. -----------
    tspar::set_parallelism(Parallelism::Fixed(1));
    let engine = nn_engine(None);
    let pool = series_pool(10, 380);
    let requests = request_stream(&pool);
    let expected: Vec<Vec<Selection>> = requests
        .iter()
        .map(|r| engine.handle(r).expect("direct serve"))
        .collect();

    // ---- Coalescing sweep: N producers × M requests, bitwise ≡ direct. --
    for &threads in &KD_SWEEP {
        for &max_batch in &MAX_BATCH_SWEEP {
            tspar::set_parallelism(Parallelism::Fixed(threads));
            let queue = ServeQueue::new(
                Arc::clone(&engine),
                QueueConfig {
                    max_depth: 1024,
                    max_batch,
                },
            );
            assert_eq!(queue.config().max_batch, max_batch);
            let tag = format!("KD_THREADS={threads}, max_batch={max_batch}");
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..PRODUCERS)
                    .map(|p| {
                        let queue = &queue;
                        let requests = &requests;
                        s.spawn(move || {
                            // Each producer owns every PRODUCERS-th request:
                            // submit them all (so the FIFO really holds
                            // overlapping traffic), then redeem in order.
                            let mine: Vec<usize> =
                                (0..requests.len()).filter(|i| i % PRODUCERS == p).collect();
                            let tickets: Vec<_> = mine
                                .iter()
                                .map(|&i| (i, queue.submit(requests[i].clone()).expect("admitted")))
                                .collect();
                            tickets
                                .into_iter()
                                .map(|(i, t)| (i, t.wait().expect("served")))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for handle in handles {
                    for (i, got) in handle.join().expect("producer thread") {
                        assert_eq!(
                            got, expected[i],
                            "request {i} diverged from direct serving at {tag}"
                        );
                    }
                }
            });
            assert_eq!(queue.depth(), 0, "queue fully drained at {tag}");
        }
    }

    // ---- Window cache: cached queue ≡ uncached queue, and repeats hit. --
    tspar::set_parallelism(Parallelism::Fixed(1));
    {
        let cache = Arc::new(WindowCache::new(64));
        let cached_engine = nn_engine(Some(Arc::clone(&cache)));
        let queue = ServeQueue::new(Arc::clone(&cached_engine), QueueConfig::default());
        for pass in 0..2 {
            for (i, request) in requests.iter().enumerate() {
                let got = queue.serve(request.clone()).expect("served");
                assert_eq!(
                    got, expected[i],
                    "cached pass {pass} request {i} diverged from the uncached path"
                );
            }
        }
        let stats = cache.stats();
        // 10 distinct series × 2 selector configs... same window config, so
        // 10 distinct keys; everything after the first sight is a hit.
        assert_eq!(stats.entries, 10, "one entry per distinct series content");
        assert_eq!(stats.misses, 10, "each content extracted exactly once");
        assert!(
            stats.hits > stats.misses,
            "repeat series must hit: {stats:?}"
        );
    }

    // ---- Byte-budgeted cache: thrashing evictions only cost speed. ------
    // Each 380-sample entry holds 11 windows × 64 f32 = 2816 payload
    // bytes; a 6000-byte budget caps the cache at 2 of the 10 distinct
    // entries, so this pass evicts constantly — and must still serve the
    // exact bits of the uncached reference.
    {
        let cache = Arc::new(WindowCache::with_byte_budget(64, 6000));
        let cached_engine = nn_engine(Some(Arc::clone(&cache)));
        let queue = ServeQueue::new(Arc::clone(&cached_engine), QueueConfig::default());
        for (i, request) in requests.iter().enumerate() {
            let got = queue.serve(request.clone()).expect("served");
            assert_eq!(
                got, expected[i],
                "byte-budgeted request {i} diverged from the uncached path"
            );
        }
        let stats = cache.stats();
        assert!(stats.bytes <= 6000, "byte budget enforced: {stats:?}");
        assert!(stats.entries < 10, "budget must force evictions: {stats:?}");
    }

    // ---- Hot swap: register on the live engine between submits. ---------
    {
        let queue = ServeQueue::new(Arc::clone(&engine), QueueConfig::default());
        let late = SelectRequest::new("late-arrival", vec![pool[0].clone()]);
        let err = queue.serve(late.clone()).unwrap_err();
        assert!(matches!(err, ServeError::UnknownSelector(ref n) if n == "late-arrival"));
        let model = TrainedSelector::build(Architecture::ConvNet, 64, 8, 17);
        queue.engine().register(
            "late-arrival",
            Arc::new(NnSelector::new("late-arrival", model, window_cfg())),
        );
        let got = queue.serve(late).expect("served after hot swap");
        // Same weights (seed 17) as "convnet": hot-swapped registration
        // serves the same bits.
        assert_eq!(got, engine.select_batch("convnet", &pool[..1]).unwrap());
    }

    // ---- Overload: bounded depth rejects, then recovers after drain. ----
    let gate = GateSelector::new();
    let gated_engine = Arc::new(SelectorEngine::new());
    gated_engine.register("gate", Arc::clone(&gate) as Arc<dyn Selector>);
    let queue = ServeQueue::new(
        Arc::clone(&gated_engine),
        QueueConfig {
            max_depth: 3,
            max_batch: 4,
        },
    );
    let gated_request = |i: usize| SelectRequest::new("gate", vec![pool[i % pool.len()].clone()]);

    // The blocker: claimed by the coalescer, stuck inside series_scores.
    let blocker = queue.submit(gated_request(0)).expect("admitted");
    wait_for("coalescer to claim the blocker", || queue.depth() == 0);

    // Fill the FIFO to the bound while the coalescer is stuck...
    let backlog: Vec<_> = (1..=3)
        .map(|i| queue.submit(gated_request(i)).expect("within bound"))
        .collect();
    assert_eq!(queue.depth(), 3);
    // ...and the next submit must bounce with the observed depth.
    let err = queue.submit(gated_request(4)).unwrap_err();
    assert_eq!(
        err,
        ServeError::Overloaded { depth: 3, limit: 3 },
        "admission control must reject at the bound"
    );
    assert!(err.to_string().contains("overloaded"));

    // Recovery: release the gate, the backlog drains, admissions reopen.
    gate.release();
    assert_eq!(blocker.wait().expect("blocker served").len(), 1);
    for ticket in backlog {
        assert_eq!(ticket.wait().expect("backlog served").len(), 1);
    }
    wait_for("queue to drain", || queue.depth() == 0);
    let reopened = queue.submit(gated_request(5)).expect("admissions reopened");
    assert_eq!(reopened.wait().expect("served after recovery").len(), 1);

    // ---- Panicking selector fails its tickets, queue survives. ----------
    struct PanickySelector;
    impl Selector for PanickySelector {
        fn name(&self) -> &str {
            "panicky"
        }
        fn series_scores(&self, _ts: &TimeSeries) -> Vec<Vec<f32>> {
            panic!("deliberate serve-side panic")
        }
    }
    gated_engine.register("panicky", Arc::new(PanickySelector));
    std::panic::set_hook(Box::new(|_| {})); // the panic below is deliberate
    let err = queue
        .serve(SelectRequest::new("panicky", vec![pool[0].clone()]))
        .unwrap_err();
    let _ = std::panic::take_hook();
    assert!(
        matches!(err, ServeError::Panicked(ref msg) if msg.contains("deliberate")),
        "panic must surface on the ticket: {err:?}"
    );
    let alive = queue.submit(gated_request(6)).expect("queue survived");
    assert_eq!(alive.wait().expect("served after panic").len(), 1);

    // ---- A selector breaking the batch contract fails the group. --------
    struct ShortSelector;
    impl Selector for ShortSelector {
        fn name(&self) -> &str {
            "short"
        }
        fn series_scores(&self, _ts: &TimeSeries) -> Vec<Vec<f32>> {
            unreachable!("batch override below bypasses this")
        }
        // Returns one row fewer than series: serving must refuse to pair
        // this with the batch, queued or direct.
        fn window_scores(&self, batch: &[&TimeSeries]) -> Vec<Vec<Vec<f32>>> {
            vec![vec![vec![1.0; 12]]; batch.len().saturating_sub(1)]
        }
    }
    gated_engine.register("short", Arc::new(ShortSelector));
    let err = queue
        .serve(SelectRequest::new(
            "short",
            vec![pool[0].clone(), pool[1].clone()],
        ))
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::MalformedOutput {
            expected: 2,
            got: 1
        },
        "short output must fail the group, not misassign results"
    );
    assert_eq!(
        gated_engine.select_batch("short", &pool[..2]),
        Err(ServeError::MalformedOutput {
            expected: 2,
            got: 1
        }),
        "direct serving must reject short output the same way"
    );
    let alive = queue.submit(gated_request(7)).expect("queue survived");
    assert_eq!(
        alive.wait().expect("served after malformed output").len(),
        1
    );

    // ---- Shutdown drains admitted work before the coalescer exits. ------
    // (3 submits = max_depth, so admission cannot bounce even if the
    // coalescer has not claimed anything yet.)
    let tickets: Vec<_> = (0..3)
        .map(|i| queue.submit(gated_request(i)).expect("admitted"))
        .collect();
    drop(queue);
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(
            ticket.wait().expect("drained on shutdown").len(),
            1,
            "ticket {i} must complete during drain"
        );
    }

    tspar::set_parallelism(Parallelism::Auto);
}
