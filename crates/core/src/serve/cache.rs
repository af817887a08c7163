//! An LRU cache for per-series window extraction.
//!
//! Windowing a series (slice, tail-pad, z-normalise) is repeated work when
//! the same series shows up in request after request — a monitoring loop
//! re-submitting the same sensor stream hits the serving layer with
//! byte-identical payloads. [`WindowCache`] memoises the extracted window
//! matrix so repeat series skip re-windowing and z-normalisation entirely
//! and go straight to the NN forward pass.
//!
//! # Cache key
//!
//! An entry is keyed by **series content, not identity**:
//!
//! * a 64-bit word-wise FNV-1a hash over the raw `f64` bit patterns of
//!   [`TimeSeries::values`], plus the series length as an extra
//!   collision guard (non-cryptographic — see [`Key::new`]), and
//! * the full [`WindowConfig`] (`length`, `stride`, `znormalize`) — the
//!   same values windowed differently are different entries.
//!
//! The series `id` and `dataset` name are deliberately **not** part of the
//! key: two series with bit-equal values share one entry regardless of
//! what they are called, which is exactly right because window extraction
//! never reads either field. Anomaly labels are ignored for the same
//! reason (serving-path extraction is label-blind).
//!
//! # Determinism
//!
//! A hit returns the `Arc` of the vector the cold path produced, so the
//! hit path is bitwise-identical to re-extraction by construction —
//! `tests/serve_queue.rs` pins cached ≡ uncached end to end. Eviction is
//! least-recently-used on a monotonic touch counter under one mutex, so
//! capacity only affects *speed*, never results.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tsdata::{TimeSeries, WindowConfig};

/// Cache key: content hash + extraction parameters (see the module docs).
/// `Ord` (not `Hash`) because the map is a `BTreeMap` — eviction scans in
/// key order, so victim selection is deterministic under ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    /// 64-bit word-wise FNV-1a over the `f64` bit patterns of the values.
    content: u64,
    /// Series length, as an extra collision guard.
    len: usize,
    window: usize,
    stride: usize,
    znormalize: bool,
}

impl Key {
    fn new(ts: &TimeSeries, cfg: &WindowConfig) -> Self {
        // Word-wise FNV-1a (shared kernel, see `crate::hash`): one 64-bit
        // xor-multiply per f64 instead of one per byte. Hashing is on the
        // hit path (every lookup pays it), so at serving-size series a
        // wider or byte-wise walk costs more than the re-windowing the
        // cache saves. 64 bits of content hash + the length guard makes
        // an accidental cross-content collision astronomically unlikely;
        // like any non-cryptographic cache key, it is not proof against
        // an adversary crafting colliding payloads.
        let mut h = crate::hash::FNV_OFFSET;
        for &v in &ts.values {
            crate::hash::fnv1a_mix(&mut h, v.to_bits());
        }
        Self {
            content: h,
            len: ts.len(),
            window: cfg.length,
            stride: cfg.stride,
            znormalize: cfg.znormalize,
        }
    }
}

struct Entry {
    /// Touch stamp from the cache's monotonic counter; smallest = coldest.
    last_used: u64,
    /// Payload bytes of `windows` (counted against the byte budget).
    bytes: usize,
    windows: Arc<Vec<Vec<f32>>>,
}

struct Inner {
    map: BTreeMap<Key, Entry>,
    tick: u64,
    /// Sum of `Entry::bytes` over the map (kept incrementally so the
    /// budget check is O(1), not a scan).
    bytes: usize,
}

/// Hit/miss/occupancy counters, for tests and operational visibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache — including lookups that lost a
    /// same-key race and adopted the winner's entry at insert time (see
    /// [`WindowCache::get_or_insert`]), so `hits + misses` always equals
    /// the number of lookups.
    pub hits: u64,
    /// Lookups whose extraction was actually inserted.
    pub misses: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Payload bytes currently held (window matrices only, not map
    /// overhead).
    pub bytes: usize,
}

/// A bounded, thread-safe LRU cache of extracted window matrices.
///
/// Shared via `Arc` between the selectors of one engine; every method takes
/// `&self`. See the module docs for the keying and determinism contract.
///
/// **Sizing:** capacity bounds the *entry count*; entry sizes vary wildly
/// with series length. One entry holds one series' window matrix ≈
/// `windows_per_series × window_length × 4` bytes (windows per series ≈
/// `series_len / stride`) — e.g. 1k-sample series at window 64 / stride 32
/// cost ~8 KB per entry, but a 10M-sample series costs ~80 MB, so an entry
/// count alone is no memory bound when series lengths are unbounded. Use
/// [`WindowCache::with_byte_budget`] to cap payload bytes alongside the
/// entry count: eviction then runs while *either* limit is exceeded, still
/// coldest-first, so the budget — like capacity — only affects speed,
/// never results. A single entry larger than the whole budget is still
/// admitted (the cache never holds fewer than one entry); it is evicted as
/// soon as a warmer insert displaces it.
pub struct WindowCache {
    inner: Mutex<Inner>,
    capacity: usize,
    /// Optional payload-byte bound enforced alongside `capacity`.
    byte_budget: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WindowCache {
    /// New cache holding at most `capacity` window matrices (min 1), with
    /// no byte bound.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                tick: 0,
                bytes: 0,
            }),
            capacity: capacity.max(1),
            byte_budget: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// New cache bounded by *both* an entry count and a payload-byte
    /// budget (window matrices only; map/Arc overhead is not counted).
    /// Whenever either bound is exceeded, coldest entries are evicted
    /// first, deterministically (key order breaks LRU ties), down to a
    /// floor of one entry — so one oversized matrix still serves rather
    /// than thrash.
    pub fn with_byte_budget(capacity: usize, max_bytes: usize) -> Self {
        Self {
            byte_budget: Some(max_bytes),
            ..Self::new(capacity)
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured payload-byte budget, if any.
    pub fn byte_budget(&self) -> Option<usize> {
        self.byte_budget
    }

    /// Returns the cached window matrix for `(ts content, cfg)`, extracting
    /// via `build` on a miss. The build runs *outside* the cache lock so a
    /// long extraction never blocks hits on other series; if two threads
    /// race on the same cold key, the first insert wins and both callers
    /// share it (both builds produce bit-identical matrices, so the race
    /// can only cost time, never change results).
    ///
    /// **Stat accounting:** the miss is counted at *insert resolution*, not
    /// at lookup time. The racing loser finds the winner's entry when it
    /// returns to insert and is served from the cache, so it counts as a
    /// hit — `hits + misses` therefore always equals the lookup count, and
    /// `misses` equals the number of matrices actually inserted.
    pub fn get_or_insert(
        &self,
        ts: &TimeSeries,
        cfg: &WindowConfig,
        build: impl FnOnce() -> Vec<Vec<f32>>,
    ) -> Arc<Vec<Vec<f32>>> {
        let key = Key::new(ts, cfg);
        {
            let mut inner = self.inner.lock().unwrap();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.last_used = tick;
                // kdlint: allow(relaxed): stat counter — read only by
                // `stats()` snapshots; nothing branches on it.
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.windows);
            }
        }
        let built = Arc::new(build());
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            // Lost the cold-key race: another thread inserted while we were
            // building. This lookup is answered from the cache, so it is a
            // hit — counting it as a second miss would make `hits + misses`
            // overshoot the lookup count.
            entry.last_used = tick;
            // kdlint: allow(relaxed): stat counter — read only by
            // `stats()` snapshots; nothing branches on it.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&entry.windows);
        }
        // kdlint: allow(relaxed): stat counter — read only by `stats()`
        // snapshots; nothing branches on it.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let bytes: usize = built
            .iter()
            .map(|row| row.len() * std::mem::size_of::<f32>())
            .sum();
        inner.bytes += bytes;
        inner.map.insert(
            key,
            Entry {
                last_used: tick,
                bytes,
                windows: Arc::clone(&built),
            },
        );
        // Evict coldest-first while over the entry cap *or* the byte
        // budget, down to a floor of one entry (the just-inserted entry
        // carries the freshest tick, so it is never the victim while
        // anything colder remains). O(entries) scan per evict: serving
        // caches are tens-to-hundreds of entries, and eviction only runs
        // on insert of a new key, so the scan is noise next to the
        // extraction it just paid for.
        while inner.map.len() > 1
            && (inner.map.len() > self.capacity
                || self.byte_budget.is_some_and(|b| inner.bytes > b))
        {
            let coldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty map");
            if let Some(evicted) = inner.map.remove(&coldest) {
                inner.bytes -= evicted.bytes;
            }
        }
        built
    }

    /// Whether `(ts content, cfg)` currently has an entry (does not touch
    /// LRU order; test/introspection helper).
    pub fn contains(&self, ts: &TimeSeries, cfg: &WindowConfig) -> bool {
        let key = Key::new(ts, cfg);
        self.inner.lock().unwrap().map.contains_key(&key)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            // kdlint: allow(relaxed): stat snapshot — approximate reads are
            // fine; tests that assert exact values quiesce first.
            hits: self.hits.load(Ordering::Relaxed),
            // kdlint: allow(relaxed): stat snapshot — same as above.
            misses: self.misses.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }

    /// Drops every entry (counters keep accumulating).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.bytes = 0;
    }
}

impl std::fmt::Debug for WindowCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("WindowCache")
            .field("capacity", &self.capacity)
            .field("byte_budget", &self.byte_budget)
            .field("entries", &stats.entries)
            .field("bytes", &stats.bytes)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::extract_windows;

    fn cfg() -> WindowConfig {
        WindowConfig {
            length: 8,
            stride: 4,
            znormalize: true,
        }
    }

    fn series(id: &str, seed: usize, len: usize) -> TimeSeries {
        TimeSeries::new(
            id,
            "D",
            (0..len)
                .map(|t| ((t + seed * 31) as f64 * 0.3).sin())
                .collect(),
            vec![],
        )
    }

    fn windows_of(ts: &TimeSeries) -> Vec<Vec<f32>> {
        extract_windows(ts, 0, &cfg())
            .into_iter()
            .map(|w| w.values)
            .collect()
    }

    #[test]
    fn hit_path_returns_the_cold_result_bitwise() {
        let cache = WindowCache::new(4);
        let ts = series("a", 1, 40);
        let cold = cache.get_or_insert(&ts, &cfg(), || windows_of(&ts));
        let hit = cache.get_or_insert(&ts, &cfg(), || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&cold, &hit), "hit must share the cold matrix");
        assert_eq!(*cold, windows_of(&ts), "cached matrix is the extraction");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn equal_content_different_names_share_an_entry() {
        // The key hashes values + window config only — id/dataset are not
        // inputs to extraction, so they must not split the cache.
        let cache = WindowCache::new(4);
        let a = series("sensor-A", 7, 40);
        let b = TimeSeries::new("sensor-B", "OTHER", a.values.clone(), vec![]);
        let wa = cache.get_or_insert(&a, &cfg(), || windows_of(&a));
        let wb = cache.get_or_insert(&b, &cfg(), || panic!("same content must hit"));
        assert!(Arc::ptr_eq(&wa, &wb));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_window_config_is_a_different_entry() {
        let cache = WindowCache::new(4);
        let ts = series("a", 3, 40);
        let other = WindowConfig {
            length: 8,
            stride: 8,
            znormalize: true,
        };
        cache.get_or_insert(&ts, &cfg(), || windows_of(&ts));
        cache.get_or_insert(&ts, &other, Vec::new);
        assert_eq!(cache.len(), 2, "same series, two configs, two entries");
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = WindowCache::new(2);
        let a = series("a", 1, 40);
        let b = series("b", 2, 40);
        let c = series("c", 3, 40);
        cache.get_or_insert(&a, &cfg(), || windows_of(&a));
        cache.get_or_insert(&b, &cfg(), || windows_of(&b));
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        cache.get_or_insert(&a, &cfg(), || panic!("hit"));
        cache.get_or_insert(&c, &cfg(), || windows_of(&c));
        assert_eq!(cache.len(), 2);
        assert!(
            cache.contains(&a, &cfg()),
            "recently-touched entry survives"
        );
        assert!(!cache.contains(&b, &cfg()), "coldest entry evicted");
        assert!(cache.contains(&c, &cfg()));
    }

    #[test]
    fn capacity_one_still_serves() {
        let cache = WindowCache::new(0); // clamped to 1
        assert_eq!(cache.capacity(), 1);
        let a = series("a", 1, 40);
        let b = series("b", 2, 40);
        let wa = cache.get_or_insert(&a, &cfg(), || windows_of(&a));
        let wb = cache.get_or_insert(&b, &cfg(), || windows_of(&b));
        assert_eq!(*wa, windows_of(&a));
        assert_eq!(*wb, windows_of(&b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = WindowCache::new(4);
        let a = series("a", 1, 40);
        cache.get_or_insert(&a, &cfg(), || windows_of(&a));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().bytes, 0, "clear resets the byte ledger");
    }

    /// One 40-sample series at window 8 / stride 4 yields 9 windows of 8
    /// f32s = 288 payload bytes per entry (the sizes the budget tests
    /// below are tuned around).
    const ENTRY_BYTES: usize = 9 * 8 * 4;

    #[test]
    fn byte_budget_evicts_coldest_until_under_budget() {
        // Two entries (576 B) fit a 600 B budget; a third (864 B) forces
        // the coldest out even though the entry cap (10) is nowhere near.
        let cache = WindowCache::with_byte_budget(10, 2 * ENTRY_BYTES + 24);
        assert_eq!(cache.byte_budget(), Some(600));
        let a = series("a", 1, 40);
        let b = series("b", 2, 40);
        let c = series("c", 3, 40);
        cache.get_or_insert(&a, &cfg(), || windows_of(&a));
        cache.get_or_insert(&b, &cfg(), || windows_of(&b));
        assert_eq!(cache.stats().bytes, 2 * ENTRY_BYTES);
        cache.get_or_insert(&c, &cfg(), || windows_of(&c));
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains(&a, &cfg()), "coldest entry paid the budget");
        assert!(cache.contains(&b, &cfg()));
        assert!(cache.contains(&c, &cfg()));
        assert_eq!(cache.stats().bytes, 2 * ENTRY_BYTES);
    }

    #[test]
    fn entry_larger_than_the_budget_is_still_admitted() {
        // The budget never evicts below one entry: a single oversized
        // matrix serves (and keeps serving hits) instead of thrashing.
        let cache = WindowCache::with_byte_budget(10, ENTRY_BYTES / 2);
        let a = series("a", 1, 40);
        let b = series("b", 2, 40);
        let wa = cache.get_or_insert(&a, &cfg(), || windows_of(&a));
        assert_eq!(*wa, windows_of(&a));
        assert_eq!(cache.len(), 1, "oversized sole entry is kept");
        let hit = cache.get_or_insert(&a, &cfg(), || panic!("must hit"));
        assert!(Arc::ptr_eq(&wa, &hit));
        cache.get_or_insert(&b, &cfg(), || windows_of(&b));
        assert_eq!(cache.len(), 1, "warmer insert displaces it");
        assert!(!cache.contains(&a, &cfg()));
        assert!(cache.contains(&b, &cfg()));
    }

    #[test]
    fn budget_eviction_only_costs_speed_not_results() {
        // Same lookups against a thrashing byte-budgeted cache and an
        // uncached extraction: bitwise-equal matrices throughout.
        let cache = WindowCache::with_byte_budget(10, ENTRY_BYTES);
        for round in 0..3 {
            for seed in 0..5 {
                let ts = series("s", seed, 40);
                let got = cache.get_or_insert(&ts, &cfg(), || windows_of(&ts));
                assert_eq!(*got, windows_of(&ts), "round {round} seed {seed}");
            }
        }
    }

    #[test]
    fn racing_cold_lookups_count_one_miss_and_one_hit() {
        // Regression: the miss used to be counted *before* the build, so
        // two threads racing one cold key both counted a miss and
        // `hits + misses` overshot the lookup count by one.
        use std::sync::Barrier;
        let cache = Arc::new(WindowCache::new(4));
        let ts = Arc::new(series("race", 5, 40));
        let barrier = Arc::new(Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let ts = Arc::clone(&ts);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    cache.get_or_insert(&ts, &cfg(), || {
                        // Both threads reach their build before either
                        // returns to insert, forcing the race every run.
                        // kdlint: allow(unbounded-wait): two-party test barrier; both threads reach it unconditionally.
                        barrier.wait();
                        windows_of(&ts)
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            // kdlint: allow(unbounded-wait): joining test threads that terminate after the barrier releases.
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        assert!(
            Arc::ptr_eq(&results[0], &results[1]),
            "the losing thread adopts the winner's entry"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one insert, one miss");
        assert_eq!(stats.hits, 1, "the losing lookup is a hit");
        assert_eq!(stats.hits + stats.misses, 2, "hits + misses == lookups");
        assert_eq!(stats.entries, 1);
    }
}
