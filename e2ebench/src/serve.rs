//! The serving path: a `ServeQueue` over a `SelectorEngine` with a shared
//! `WindowCache`, serving a seeded ResNet `NnSelector`.
//!
//! Requests carry 1–8 series of mixed lengths. A fixed share of the series
//! repeat content served a few requests earlier (cache hits); the rest walk
//! through a pool much larger than the cache (misses). Two phases:
//!
//! * a closed loop holding a fixed number of requests outstanding, which
//!   saturates the queue (`select_per_s`);
//! * an open loop on a seeded, jittered schedule at a fixed rate (about
//!   half the stack's capacity), in windows of fixed length, timed from
//!   each request's due time. A timed run sends one short window, whose
//!   sampled answers are checked against direct `select_batch`; the traced
//!   run sends full windows and reports `serve.open_p50_ms` and
//!   `serve.open_tail_ms`.

use crate::load::{self, jittered_schedule, open_loop, summarize, Summary};
use crate::rng::{derive, SplitMix};
use crate::stats;
use crate::trace::span;
use kdselector_core::serve::{QueueConfig, SelectRequest, SelectorEngine, ServeQueue, WindowCache};
use kdselector_core::train::TrainedSelector;
use kdselector_core::Architecture;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsdata::benchmark::generate_series;
use tsdata::{all_families, extract_windows, TimeSeries, WindowConfig};

/// Registered name of the served selector.
pub const SELECTOR: &str = "kdselector";
/// Encoder width of the served ResNet (the width `learn` trains).
pub const WIDTH: usize = 8;
/// Window extraction of the served selector.
pub const WINDOW: WindowConfig = WindowConfig {
    length: 64,
    stride: 32,
    znormalize: true,
};

/// Open-loop arrival rate in requests per second: about half the stack's
/// capacity. The closed loop saturates at about 960 series/s, or 210
/// requests/s of 4.5 series on average, on a 2-core Xeon VM.
pub const RATE: f64 = 100.0;
/// Series lengths of the request pool, dealt round-robin.
const LENGTHS: [usize; 3] = [128, 256, 512];
/// Distinct series in the pool, far more than the cache holds.
const POOL: usize = 512;
/// Share of request series that repeat recently served content.
const REPEAT_SHARE: f64 = 0.3;
/// How far back, in series, a repeat may reach.
const RECENT: usize = 32;
/// Request recipes generated; phases that need more cycle through them.
const RECIPES: usize = 2048;
/// Window-cache entry cap.
const CACHE_ENTRIES: usize = 96;
/// Requests the closed loop keeps outstanding.
const OUTSTANDING: usize = 16;
/// Queue coalescing bound, in series per engine batch.
const MAX_BATCH: usize = 32;

/// Builds the seeded ResNet selector every serving engine holds.
pub fn seeded_model(seed: u64) -> TrainedSelector {
    TrainedSelector::build(Architecture::ResNet, WINDOW.length, WIDTH, seed)
}

/// Generated traffic: a series pool and request recipes (pool indices).
pub struct Traffic {
    pub pool: Vec<TimeSeries>,
    pub requests: Vec<Vec<usize>>,
}

impl Traffic {
    /// The `i`-th request (recipes cycle).
    pub fn request(&self, i: usize) -> SelectRequest {
        let recipe = &self.requests[i % self.requests.len()];
        SelectRequest::new(
            SELECTOR,
            recipe.iter().map(|&k| self.pool[k].clone()).collect(),
        )
    }

    /// Series in the `i`-th request.
    pub fn series_in(&self, i: usize) -> usize {
        self.requests[i % self.requests.len()].len()
    }
}

/// Generates the pool and request recipes from `seed`.
pub fn traffic(seed: u64) -> Traffic {
    let families = all_families();
    let pool: Vec<TimeSeries> = (0..POOL)
        .map(|k| {
            let family = &families[k % families.len()];
            let len = LENGTHS[k % LENGTHS.len()];
            generate_series(
                family,
                len,
                derive(seed, 0x5E00 + k as u64),
                &format!("req-{k}"),
            )
        })
        .collect();
    let mut rng = SplitMix::new(derive(seed, 0x5E5E));
    let mut recent: VecDeque<usize> = VecDeque::new();
    let mut next_fresh = 0usize;
    let requests = (0..RECIPES)
        .map(|_| {
            let size = 1 + rng.below(8);
            (0..size)
                .map(|_| {
                    let k = if !recent.is_empty() && rng.unit() < REPEAT_SHARE {
                        recent[rng.below(recent.len())]
                    } else {
                        next_fresh = (next_fresh + 1) % POOL;
                        next_fresh
                    };
                    recent.push_back(k);
                    if recent.len() > RECENT {
                        recent.pop_front();
                    }
                    k
                })
                .collect()
        })
        .collect();
    Traffic { pool, requests }
}

/// A queue over a cached engine holding the seeded selector.
pub struct Stack {
    pub engine: Arc<SelectorEngine>,
    pub cache: Arc<WindowCache>,
    pub queue: ServeQueue,
}

/// Builds the serving stack around `model`.
pub fn stack(model: TrainedSelector) -> Stack {
    let cache = Arc::new(WindowCache::new(CACHE_ENTRIES));
    let engine = Arc::new(SelectorEngine::with_shared_cache(Arc::clone(&cache)));
    engine
        .deploy(SELECTOR, model, WINDOW)
        .expect("window length matches the model");
    let queue = ServeQueue::new(
        Arc::clone(&engine),
        QueueConfig {
            max_depth: 1024,
            max_batch: MAX_BATCH,
        },
    );
    Stack {
        engine,
        cache,
        queue,
    }
}

/// Length of one open-loop window of the traced run: 300 requests at
/// [`RATE`], so its tail (the highest percentile with ten samples beyond
/// it) is p95 with 15 beyond. The median over windows is reported.
///
/// Open-loop latency is not an end-to-end metric: on a 2-core shared host
/// the host's speed drifts by 20-50% over minutes, and thread wake-ups and
/// queueing amplify the drift in latency. Over ten seeds at 40 requests/s
/// the tail spread by 0.34-0.56 and the median by up to 0.24 (Q3-Q1 over
/// the median), beyond any usable regression bound; the closed loop's
/// `select_per_s` spread by 0.05-0.16.
pub const OPEN_WINDOW: Duration = Duration::from_secs(3);
/// The one open-loop window of a timed run, which only checks answers.
pub const CHECK_WINDOW: Duration = Duration::from_secs(1);

/// The serving phases of a run, accumulated over its rounds.
#[derive(Default)]
pub struct ServeRun {
    /// Every open-loop request, all windows together.
    pub records: Vec<load::Record>,
    /// Each window's median latency, in ms.
    pub p50s: Vec<f64>,
    /// Each window's tail (`None` for a window with too few samples).
    pub tails: Vec<Option<stats::Tail>>,
    /// Closed-loop selection rates, one per slice.
    pub rates: Vec<f64>,
    /// Closed-loop requests attempted and failed.
    pub closed_attempted: usize,
    pub closed_failed: usize,
    /// Sampled open-loop responses that differ from direct uncached
    /// `select_batch`.
    pub mismatches: usize,
    /// Open-loop series served and engine groups formed.
    pub open_series: usize,
    pub open_groups: u64,
    /// Cache lookups during the open loop (hits, misses).
    pub open_cache: (u64, u64),
    /// Index of the next request recipe to send.
    next: usize,
}

impl ServeRun {
    /// Runs one open-loop window of `length`, checking every fourth answer
    /// against `reference`.
    pub fn open_window(
        &mut self,
        traffic: &Traffic,
        stack: &Stack,
        reference: &SelectorEngine,
        seed: u64,
        length: Duration,
    ) {
        let window_seed = derive(seed, 0x0BE1 + self.p50s.len() as u64);
        let schedule = jittered_schedule(RATE, length, window_seed);
        let base = self.next;
        let cache_before = stack.cache.stats();
        let groups_before = kdprof::counter_value(kdprof::Counter::GroupsCoalesced);
        let (records, kept) = {
            let _s = span("serve.open_loop");
            open_loop(
                &schedule,
                Duration::from_secs(10),
                |i| traffic.request(base + i),
                |r| stack.queue.submit(r),
                |i| i % 4 == 0,
            )
        };
        self.open_groups += kdprof::counter_value(kdprof::Counter::GroupsCoalesced) - groups_before;
        let cache_after = stack.cache.stats();
        self.open_cache.0 += cache_after.hits - cache_before.hits;
        self.open_cache.1 += cache_after.misses - cache_before.misses;
        let summary = summarize(&records);
        self.p50s
            .push(stats::median(&summary.latency_ms).unwrap_or(f64::NAN));
        self.tails.push(stats::tail(&summary.latency_ms));
        self.open_series += records
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r.outcome, load::Outcome::Served(_)))
            .map(|(i, _)| traffic.series_in(base + i))
            .sum::<usize>();
        self.mismatches += kept
            .iter()
            .filter(|(i, selections)| {
                let request = traffic.request(base + i);
                reference.select_batch(SELECTOR, &request.batch).as_ref() != Ok(selections)
            })
            .count();
        self.next += records.len();
        self.records.extend(records);
    }

    /// Runs the closed loop for `length`.
    pub fn closed(&mut self, traffic: &Traffic, stack: &Stack, length: Duration) {
        let _s = span("serve.closed_loop");
        let (rates, attempted, failed) = closed_loop(traffic, stack, self.next, length);
        self.rates.extend(rates);
        self.next += attempted;
        self.closed_attempted += attempted;
        self.closed_failed += failed;
    }

    /// Every open-loop request's latency, lateness and outcome.
    pub fn open(&self) -> Summary {
        summarize(&self.records)
    }

    /// Median over windows of the window medians, in ms.
    pub fn select_p50_ms(&self) -> f64 {
        stats::median(&self.p50s).unwrap_or(f64::NAN)
    }

    /// Median over windows of the window tails, in ms (NaN if a window
    /// had too few samples for a tail).
    pub fn select_tail_ms(&self) -> f64 {
        let tails: Option<Vec<f64>> = self.tails.iter().map(|t| t.map(|t| t.value)).collect();
        tails.and_then(|t| stats::median(&t)).unwrap_or(f64::NAN)
    }

    /// Median closed-loop selection rate, series per second.
    pub fn select_per_s(&self) -> f64 {
        stats::median(&self.rates).unwrap_or(f64::NAN)
    }
}

/// Keeps [`OUTSTANDING`] requests in flight for `span`, timing the
/// series completed in four equal slices; returns the slice rates and the
/// requests attempted and failed.
fn closed_loop(
    traffic: &Traffic,
    stack: &Stack,
    first: usize,
    span: Duration,
) -> (Vec<f64>, usize, usize) {
    const SLICES: u32 = 4;
    let mut next = first;
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut in_flight = VecDeque::new();
    let mut submit = |next: &mut usize, in_flight: &mut VecDeque<_>| {
        let n = traffic.series_in(*next);
        match stack.queue.submit(traffic.request(*next)) {
            Ok(ticket) => in_flight.push_back((ticket, n)),
            Err(_) => failed += 1,
        }
        attempted += 1;
        *next += 1;
    };
    for _ in 0..OUTSTANDING {
        submit(&mut next, &mut in_flight);
    }
    let mut rates = Vec::new();
    let start = Instant::now();
    let mut slice_start = start;
    let mut slice_series = 0usize;
    let mut slice = 1;
    let mut errored = 0usize;
    while let Some((ticket, n)) = in_flight.pop_front() {
        match ticket.wait() {
            Ok(_) => slice_series += n,
            Err(_) => errored += 1,
        }
        let now = Instant::now();
        if now >= start + span * slice / SLICES {
            rates.push(slice_series as f64 / (now - slice_start).as_secs_f64());
            slice_start = now;
            slice_series = 0;
            slice += 1;
        }
        if slice <= SLICES {
            submit(&mut next, &mut in_flight);
        }
    }
    (rates, attempted, failed + errored)
}

/// Per-layer probes of the serving path (traced run only).
pub fn probe_layers(
    traffic: &Traffic,
    stack: &Stack,
    reference: &SelectorEngine,
    run: &ServeRun,
    out: &mut BTreeMap<String, f64>,
) {
    // Windowing alone.
    let sample: Vec<&TimeSeries> = traffic.pool.iter().take(64).collect();
    let t = Instant::now();
    for ts in &sample {
        std::hint::black_box(extract_windows(ts, 0, &WINDOW));
    }
    out.insert(
        "tsdata.windows_us_per_series".into(),
        t.elapsed().as_secs_f64() * 1e6 / sample.len() as f64,
    );

    // The engine with no queue and no cache, one request at a time.
    let requests: Vec<SelectRequest> = (0..64).map(|i| traffic.request(i)).collect();
    let series: usize = requests.iter().map(|r| r.batch.len()).sum();
    let t = Instant::now();
    for r in &requests {
        std::hint::black_box(reference.handle(r).expect("registered"));
    }
    out.insert(
        "engine.ms_per_series".into(),
        t.elapsed().as_secs_f64() * 1e3 / series as f64,
    );
    // The queue's share of open-loop latency: the same cached engine
    // called directly on the open loop's requests. Negative when
    // coalescing saves more than the queue costs.
    let mut direct_ms = Vec::new();
    for i in (0..run.records.len()).step_by(8) {
        let r = traffic.request(i);
        let t = Instant::now();
        std::hint::black_box(stack.engine.handle(&r).expect("registered"));
        direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.insert(
        "queue.overhead_ms".into(),
        run.select_p50_ms() - stats::median(&direct_ms).unwrap_or(f64::NAN),
    );
    out.insert("serve.open_p50_ms".into(), run.select_p50_ms());
    out.insert("serve.open_tail_ms".into(), run.select_tail_ms());
    out.insert(
        "queue.series_per_group".into(),
        run.open_series as f64 / run.open_groups.max(1) as f64,
    );
    let (hits, misses) = run.open_cache;
    out.insert(
        "cache.hit_ratio".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.insert("cache.bytes".into(), stack.cache.stats().bytes as f64);
    out.insert(
        "loadgen.lateness_p99_ms".into(),
        stats::tail(&run.open().lateness_ms).map_or(f64::NAN, |t| t.value),
    );

    // Allocations per request once the stack is warm: the same prebuilt
    // requests served twice through the queue, counting the second pass.
    let prebuilt: Vec<SelectRequest> = (0..64).map(|i| traffic.request(i)).collect();
    for r in prebuilt.iter().cloned() {
        stack.queue.serve(r).expect("served");
    }
    let warm = prebuilt.clone();
    let before = crate::trace::allocations();
    for r in warm {
        std::hint::black_box(stack.queue.serve(r).expect("served"));
    }
    out.insert(
        "alloc.per_request".into(),
        (crate::trace::allocations() - before) as f64 / prebuilt.len() as f64,
    );
}
