//! Deterministic parallelism for the KDSelector workspace, executed on a
//! persistent worker pool.
//!
//! crates.io (and therefore rayon) is unavailable in this build
//! environment, so the workspace carries its own small runtime. Three
//! design rules keep results **bit-identical at any thread count** — the
//! property `tests/pool_determinism.rs` and the end-to-end determinism
//! tests pin down:
//!
//! 1. **Fixed partitions.** Work is split into chunks whose boundaries
//!    depend only on the problem size and the region's thread-count
//!    snapshot (never on which executor runs what); executors merely
//!    execute chunks.
//! 2. **Disjoint writes.** Every chunk owns its slice of the output, so no
//!    accumulation order depends on scheduling.
//! 3. **Ordered reductions.** When chunk results must be combined, callers
//!    receive them in chunk order ([`par_map`] preserves index order).
//!
//! # Execution
//!
//! Partitioning is separate from execution. The partitions of a region
//! run on a lazily-initialized, process-wide pool of long-lived workers
//! ([`mod@pool`]): the caller runs partition 0 inline and claims
//! leftovers, workers claim the rest from a shared queue. Per-region cost
//! is a queue push plus condvar wakeups.
//!
//! Because partitions and per-chunk work are fixed before dispatch and all
//! writes are disjoint, the number of live pool workers can never affect
//! results: a region at any width is bit-identical to the serial run at
//! `Parallelism::Fixed(1)`, which is the reference the determinism tests
//! compare against.
//!
//! # Thread-count snapshot semantics
//!
//! The worker count comes from [`Parallelism`]: the `KD_THREADS`
//! environment variable if set, otherwise all available cores, with a
//! process-wide programmatic override ([`set_parallelism`]) taking
//! precedence. Every parallel region resolves [`threads`] **exactly once
//! at entry** and derives both its partitioning and its dispatch width
//! from that single snapshot — a `KD_THREADS` change mid-run takes effect
//! at the next region boundary and can never desync the partitioner from
//! the pool dispatch within a region (`crates/tspar/tests/env_snapshot.rs`
//! is the regression test).

#![deny(unsafe_op_in_unsafe_fn)]

mod pool;

pub use pool::{pool_workers, shutdown_pool};

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread-count policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// `KD_THREADS` if set and valid, else all available cores.
    Auto,
    /// Exactly `n` worker threads (`1` disables parallelism).
    Fixed(usize),
}

impl Parallelism {
    /// Resolves the policy to a concrete thread count (≥ 1).
    ///
    /// `Auto` re-reads `KD_THREADS` on every call: regions resolve their
    /// width once at entry (see the module docs), so the env read is paid
    /// once per region — not once per task — and a mid-run change takes
    /// effect at the next region boundary. The core-count fallback is
    /// cached for the process (it never changes and costs a syscall).
    pub fn resolve(self) -> usize {
        match self {
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => env_threads().unwrap_or_else(available_cores),
        }
    }
}

fn env_threads() -> Option<usize> {
    // kdlint: allow(env-knob): deployment width — results are
    // bit-identical at any worker count.
    std::env::var("KD_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
}

fn available_cores() -> usize {
    static CACHE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    })
}

/// Process-wide override; 0 = follow [`Parallelism::Auto`].
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide thread-count policy. `Auto` clears any override.
pub fn set_parallelism(p: Parallelism) {
    let v = match p {
        Parallelism::Auto => 0,
        Parallelism::Fixed(n) => n.max(1),
    };
    OVERRIDE.store(v, Ordering::SeqCst);
}

/// The effective worker count for a new parallel region.
///
/// **Snapshot semantics:** each region calls this exactly once at entry
/// and uses the answer for both its fixed partitioning and its pool
/// dispatch, so the two can never disagree; policy changes (env or
/// [`set_parallelism`]) apply from the next region on.
///
/// Inside a pool executor this is always 1: nested regions (e.g. a
/// detector's GEMM inside the per-series label pass) run inline on the
/// executor instead of re-entering the pool and oversubscribing the
/// machine `threads() × threads()`-fold. Results are unchanged either way.
pub fn threads() -> usize {
    if IN_WORKER.with(|f| f.get()) {
        return 1;
    }
    match OVERRIDE.load(Ordering::SeqCst) {
        0 => Parallelism::Auto.resolve(),
        n => n,
    }
}

thread_local! {
    /// True while this thread is executing region partitions — on pool
    /// workers and on a submitting caller while it runs its own lots — so
    /// nested regions stay inline.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII worker flag: marks the current thread as a region executor until
/// dropped (restoring the previous state), so [`threads`] reports 1 and
/// nested regions run inline.
pub(crate) struct WorkerScope {
    prev: bool,
}

pub(crate) fn worker_scope() -> WorkerScope {
    WorkerScope {
        prev: IN_WORKER.with(|f| f.replace(true)),
    }
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_WORKER.with(|f| f.set(prev));
    }
}

/// Interior-mutable cell for one partition's task list: each lot index is
/// claimed exactly once from the pool job's atomic counter, so the
/// executor holds the only live access to the lot's contents.
struct LotCell<T>(UnsafeCell<T>);

// SAFETY: see `LotCell` — exclusive per-lot access is guaranteed by the
// execution protocol, so sharing the container across executors only ever
// sends each `T` to a single thread.
unsafe impl<T: Send> Sync for LotCell<T> {}

/// One [`par_map`] partition: `(task index, output slot)` pairs.
type MapLot<'a, T> = LotCell<Vec<(usize, &'a mut Option<T>)>>;

/// One [`par_chunks_mut`] partition: `(chunk index, chunk)` pairs.
type ChunkLot<'a, T> = LotCell<Vec<(usize, &'a mut [T])>>;

/// Maps `f` over `0..n`, preserving index order in the output. Tasks are
/// dealt to partitions round-robin (task `i` → partition `i % workers`),
/// which balances heterogeneous task costs the same way the seed's
/// hand-rolled detector pool did.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Region-entry snapshot: partition count and dispatch width both come
    // from this single read.
    let workers = threads().min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    {
        let mut build: Vec<Vec<(usize, &mut Option<T>)>> = (0..workers)
            .map(|_| Vec::with_capacity(n / workers + 1))
            .collect();
        for (i, slot) in out.iter_mut().enumerate() {
            build[i % workers].push((i, slot));
        }
        let lots: Vec<MapLot<'_, T>> = build
            .into_iter()
            .map(|lot| LotCell(UnsafeCell::new(lot)))
            .collect();
        let f = &f;
        pool::run_region(lots.len(), &|lot| {
            // SAFETY: `lot` is executed exactly once (LotCell contract).
            let items = unsafe { &mut *lots[lot].0.get() };
            for (i, slot) in items.iter_mut() {
                **slot = Some(f(*i));
            }
        });
    }
    out.into_iter()
        .map(|v| v.expect("executor filled every slot"))
        .collect()
}

/// Minimum useful work (inner-loop multiply-adds, roughly) for a parallel
/// region: even pool dispatch costs a queue push plus condvar wakeups, so
/// below this the dispatch cost outweighs the compute and callers should
/// stay serial.
///
/// Calibrated by the `micro_kernels` bench's `par_gate` sweep
/// (`BENCH_micro.json`): pool dispatch costs ≈ 4–5 µs per region. A
/// width-`w` region breaks even once its serial time exceeds
/// `overhead · w / (w − 1)` — ≈ 6.5 µs at width 4, reached at the
/// `1 << 17` rung of the sweep (~1 multiply-add per work unit). Below-gate
/// regions run the identical serial chunking (same boundaries, same
/// results) — the `pool_props` proptest pins gated ≡ sequential on both
/// sides of the gate, so retuning the constant can never change values.
pub const MIN_PAR_WORK: usize = 1 << 17;

/// [`par_chunks_mut`] gated by a work estimate: runs serially (same chunk
/// boundaries, same results) when `work` is below [`MIN_PAR_WORK`]. Hot
/// per-minibatch layers use this so small shapes never pay dispatch
/// overhead.
pub fn par_chunks_mut_gated<T, F>(data: &mut [T], chunk_len: usize, work: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if work < MIN_PAR_WORK {
        for (i, chunk) in data.chunks_mut(chunk_len.max(1)).enumerate() {
            f(i, chunk);
        }
    } else {
        par_chunks_mut(data, chunk_len, f);
    }
}

/// Splits `data` into fixed-length chunks (the last may be short) and runs
/// `f(chunk_index, chunk)` on the region's executors. Chunk boundaries
/// depend only on `chunk_len`, so output is scheduling-independent for any
/// `f` that writes only through its chunk.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len.max(1));
    // Region-entry snapshot (see `threads`).
    let workers = threads().min(n_chunks.max(1));
    if workers <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let mut build: Vec<Vec<(usize, &mut [T])>> = (0..workers)
        .map(|_| Vec::with_capacity(n_chunks / workers + 1))
        .collect();
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        build[i % workers].push((i, chunk));
    }
    let lots: Vec<ChunkLot<'_, T>> = build
        .into_iter()
        .map(|lot| LotCell(UnsafeCell::new(lot)))
        .collect();
    let f = &f;
    pool::run_region(lots.len(), &|lot| {
        // SAFETY: `lot` is executed exactly once (LotCell contract).
        let items = unsafe { &mut *lots[lot].0.get() };
        for (i, chunk) in items.iter_mut() {
            f(*i, chunk);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_prefers_fixed() {
        assert_eq!(Parallelism::Fixed(3).resolve(), 3);
        assert_eq!(Parallelism::Fixed(0).resolve(), 1);
        assert!(Parallelism::Auto.resolve() >= 1);
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(100, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_single() {
        assert!(par_map(0, |i| i).is_empty());
        assert_eq!(par_map(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_slices() {
        let mut data = vec![0usize; 103];
        par_chunks_mut(&mut data, 10, |ci, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = ci * 10 + j;
            }
        });
        assert_eq!(data, (0..103).collect::<Vec<_>>());
    }

    /// One test (not several) so the process-global override is never
    /// mutated concurrently by the multi-threaded test harness.
    /// (Pool lifecycle, panic safety, and env snapshot behaviour live in
    /// their own integration binaries — each is a separate process.)
    #[test]
    fn global_override_behaviours() {
        // Nested regions: executors must see threads() == 1.
        set_parallelism(Parallelism::Fixed(4));
        let inner = par_map(4, |_| threads());
        assert!(
            inner.iter().all(|&t| t == 1),
            "executors must see threads() == 1 to keep nested regions inline: {inner:?}"
        );

        // Identical results at 1 vs 8 workers.
        let run = || {
            let mut v = vec![0.0f64; 777];
            par_chunks_mut(&mut v, 13, |ci, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = ((ci * 13 + j) as f64).sqrt();
                }
            });
            v
        };
        set_parallelism(Parallelism::Fixed(1));
        let serial = run();
        set_parallelism(Parallelism::Fixed(8));
        let pooled = run();
        assert_eq!(serial, pooled, "pool at 8 workers");

        // Nested region inside a region body: inline, correct, no deadlock.
        let nested = par_map(6, |i| {
            par_map(5, move |j| (i * 5 + j) as u64).iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..6)
            .map(|i| (0..5).map(|j| (i * 5 + j) as u64).sum())
            .collect();
        assert_eq!(nested, expect);

        set_parallelism(Parallelism::Auto);
    }
}
