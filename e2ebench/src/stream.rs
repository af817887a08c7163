//! Writes beside reads: seeded chunks appended to many named streams
//! through a `StreamIngestor` that publishes into the engine's shared
//! `WindowCache`, with selections served over stream snapshots between
//! append rounds and a `MarginDriftTap` watching the served margins.
//!
//! The loop runs in cycles of fixed size (a fresh ingestor each cycle), so
//! stream lengths, and with them the per-append cost, are the same in
//! every cycle whatever the run length.

use crate::rng::derive;
use crate::serve::{Stack, SELECTOR, WINDOW};
use crate::trace::span;
use kdselector_core::serve::{SelectRequest, SelectionTap};
use kdselector_core::stream::{DriftConfig, DriftKind, DriftMonitor, MarginDriftTap};
use kdselector_core::StreamIngestor;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsdata::benchmark::generate_series;
use tsdata::{all_families, extract_windows};

/// Named streams appended to in each round.
const STREAMS: usize = 16;
/// Samples per appended chunk.
const CHUNK: usize = 128;
/// Append rounds per cycle.
const APPEND_ROUNDS: usize = 16;
/// Stream snapshots per selection request.
const PER_REQUEST: usize = 2;
/// Cycles every call to [`StreamRun::cycles`] runs at least: 208
/// selections, one full [`TAIL_WINDOW`].
const MIN_CYCLES: usize = 13;
/// Selections per tail window: the highest percentile with ten samples
/// beyond it is then p95. The reported tail is the median over windows, so
/// a scheduler stall on the shared host moves one window, not the figure.
pub const TAIL_WINDOW: usize = 200;

/// Seeded stream contents: `chunks[stream][round]`.
pub struct Feed {
    pub names: Vec<String>,
    pub chunks: Vec<Vec<Vec<f64>>>,
}

/// Generates every stream's samples from `seed`.
pub fn feed(seed: u64) -> Feed {
    let families = all_families();
    let names = (0..STREAMS).map(|s| format!("sensor-{s:02}")).collect();
    let chunks = (0..STREAMS)
        .map(|s| {
            let family = &families[s % families.len()];
            let ts = generate_series(
                family,
                CHUNK * APPEND_ROUNDS,
                derive(seed, 0x57 << 16 | s as u64),
                "stream",
            );
            ts.values.chunks(CHUNK).map(<[f64]>::to_vec).collect()
        })
        .collect();
    Feed { names, chunks }
}

/// The stream phase of a run, accumulated over its rounds.
#[derive(Debug, Clone, Default)]
pub struct StreamRun {
    /// Each cycle's windows emitted per second of append + publish.
    pub rates: Vec<f64>,
    /// Latency of each selection over stream snapshots, in ms.
    pub latency_ms: Vec<f64>,
    pub requests: usize,
    pub failed: usize,
    /// Checked publishes that differed from batch extraction of their
    /// snapshot.
    pub mismatches: usize,
    pub cycles: usize,
    pub append_s: f64,
    pub appends: usize,
    pub publish_s: f64,
    pub publishes: usize,
    pub observe_s: f64,
    pub observes: usize,
    /// Cache lookups during the phase (hits, misses).
    pub cache: (u64, u64),
    /// Drift signals raised on served margins.
    pub drift_signals: usize,
}

impl StreamRun {
    /// Runs whole cycles until `length` has passed (at least [`MIN_CYCLES`]).
    pub fn cycles(&mut self, feed: &Feed, stack: &Stack, length: Duration) {
        let _s = span("stream.phase");
        let tap = Arc::new(MarginDriftTap::new(DriftConfig {
            window: 32,
            threshold: 6.0,
        }));
        stack
            .engine
            .set_selection_tap(Some(Arc::clone(&tap) as Arc<dyn SelectionTap>));
        let cache_before = stack.cache.stats();
        let start = Instant::now();
        let first = self.cycles;
        while self.cycles < first + MIN_CYCLES || start.elapsed() < length {
            let rate = cycle(feed, self.cycles, stack, self);
            self.rates.push(rate);
            self.cycles += 1;
        }
        stack.engine.set_selection_tap(None);
        self.drift_signals += tap.drain().len();
        let cache_after = stack.cache.stats();
        self.cache.0 += cache_after.hits - cache_before.hits;
        self.cache.1 += cache_after.misses - cache_before.misses;
    }

    /// Median over cycles of windows emitted per second of append + publish.
    pub fn windows_per_s(&self) -> f64 {
        crate::stats::median(&self.rates).unwrap_or(f64::NAN)
    }

    /// Tails of consecutive [`TAIL_WINDOW`]-selection windows.
    pub fn tails(&self) -> Vec<crate::stats::Tail> {
        self.latency_ms
            .chunks_exact(TAIL_WINDOW)
            .filter_map(crate::stats::tail)
            .collect()
    }
}

/// One cycle: a fresh ingestor, [`APPEND_ROUNDS`] rounds of appends and
/// publishes, a selection request after each round. Returns the cycle's
/// ingest rate (windows per second of append + publish).
///
/// Each cycle shifts the feed's level by its index, so no cycle's prefixes
/// repeat content an earlier cycle left in the cache.
fn cycle(feed: &Feed, index: usize, stack: &Stack, out: &mut StreamRun) -> f64 {
    let _s = span("stream.cycle");
    let mut ingestor = StreamIngestor::new(WINDOW).with_cache(Arc::clone(&stack.cache));
    let mut drift = DriftMonitor::new(DriftConfig {
        window: 8,
        threshold: 6.0,
    });
    let mut windows = 0usize;
    let mut ingest_s = 0.0;
    for round in 0..APPEND_ROUNDS {
        for (s, name) in feed.names.iter().enumerate() {
            let chunk: Vec<f64> = feed.chunks[s][round]
                .iter()
                .map(|v| v + index as f64)
                .collect();
            let t = Instant::now();
            windows += ingestor.append(name, &chunk).len();
            let t_append = Instant::now();
            let published = ingestor.publish(name);
            let t_publish = Instant::now();
            let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
            std::hint::black_box(drift.observe(name, DriftKind::InputShift, mean));
            let t_observe = Instant::now();
            out.append_s += (t_append - t).as_secs_f64();
            out.publish_s += (t_publish - t_append).as_secs_f64();
            out.observe_s += (t_observe - t_publish).as_secs_f64();
            ingest_s += (t_publish - t).as_secs_f64();
            out.appends += 1;
            out.publishes += 1;
            out.observes += 1;
            // Check the last round's publishes against batch extraction.
            if round + 1 == APPEND_ROUNDS {
                let snapshot = ingestor.snapshot(name).expect("stream exists");
                let batch: Vec<Vec<f32>> = extract_windows(&snapshot, 0, &WINDOW)
                    .into_iter()
                    .map(|w| w.values)
                    .collect();
                if !published.is_some_and(|m| *m == batch) {
                    out.mismatches += 1;
                }
            }
        }
        // Serve the next few streams' snapshots, rotating through them.
        let t = Instant::now();
        let batch = (0..PER_REQUEST)
            .map(|k| {
                let name = &feed.names[(round * PER_REQUEST + k) % feed.names.len()];
                ingestor.snapshot(name).expect("stream exists")
            })
            .collect();
        out.requests += 1;
        match stack.queue.serve(SelectRequest::new(SELECTOR, batch)) {
            Ok(_) => out.latency_ms.push(t.elapsed().as_secs_f64() * 1e3),
            Err(_) => out.failed += 1,
        }
    }
    windows as f64 / ingest_s
}

/// Per-layer numbers of the stream phase (traced run only).
pub fn probe_layers(run: &StreamRun, out: &mut BTreeMap<String, f64>) {
    out.insert(
        "stream.append_us_per_chunk".into(),
        run.append_s * 1e6 / run.appends.max(1) as f64,
    );
    out.insert(
        "stream.publish_us".into(),
        run.publish_s * 1e6 / run.publishes.max(1) as f64,
    );
    out.insert(
        "drift.observe_us".into(),
        run.observe_s * 1e6 / run.observes.max(1) as f64,
    );
    let (hits, misses) = run.cache;
    out.insert(
        "stream.cache_hit_ratio".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
}
