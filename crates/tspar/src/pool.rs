//! The persistent worker pool every parallel region executes on.
//!
//! A lazily-initialized, process-wide pool of long-lived workers fed from
//! a shared FIFO injector queue, so hot per-minibatch layers just above
//! the [`crate::MIN_PAR_WORK`] gate pay a queue push and condvar wakeups
//! per region rather than OS thread spawns:
//!
//! * **Jobs, not tasks.** A region submits one [`Job`] describing its fixed
//!   partitions ("lots"). Executors *claim* lots from the job's atomic
//!   claim counter, so a lot runs exactly once no matter how many workers
//!   wake. The queue only tracks unclaimed work: an exhausted job is popped
//!   the next time a worker sees it at the front.
//! * **The caller is executor 0.** The submitting thread runs lot 0 inline,
//!   then claims whatever the workers have not taken, and finally blocks on
//!   the job's completion latch. Because the caller always drains its own
//!   region, a region completes even with zero live workers — the pool can
//!   never deadlock a submitter.
//! * **Determinism is upstream.** Partition boundaries and per-lot work are
//!   fixed by [`crate::par_map`]/[`crate::par_chunks_mut`] before dispatch
//!   and each lot writes disjoint output, so *which* executor runs a lot
//!   cannot affect results. The pool path is bit-identical to the serial
//!   path at `Parallelism::Fixed(1)` — `tests/pool_determinism.rs` at the
//!   workspace root pins that contract.
//! * **Panic safety.** Each lot body runs under `catch_unwind`; the first
//!   payload is stored on the job and re-raised on the submitting thread
//!   after every lot has finished (mirroring [`std::thread::scope`]).
//!   Workers survive payload capture, so one panicking region neither
//!   poisons the pool nor disturbs unrelated concurrent regions.
//! * **Nested regions run inline.** Workers (and the caller, while it
//!   executes lots) are flagged via the crate's worker scope, which makes
//!   [`crate::threads`] report 1 — an inner parallel region therefore runs
//!   serially on the executor instead of re-entering the pool and risking a
//!   wait-for-self deadlock.
//!
//! # Safety model
//!
//! A [`Job`] stores a lifetime-erased pointer to the region body, which
//! borrows the caller's stack. The invariant making that sound: the body
//! pointer is only dereferenced while running a claimed lot, every lot
//! holds `remaining > 0` until its body call returns, and [`run_region`]
//! does not return (or resume a panic) until `remaining == 0`. After the
//! last lot finishes, the only reachable traces of the job are its atomics
//! — the pointer value may dangle but is never dereferenced again.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Hard ceiling on live pool workers: a runaway `KD_THREADS` must not fork
/// an unbounded thread herd. Regions wanting more width than this still
/// complete — the caller claims the surplus lots itself.
const MAX_WORKERS: usize = 256;

/// Lifetime-erased pointer to a region body (`Fn(lot_index)`).
struct BodyPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is only dereferenced by [`run_lot`] under the job
// invariant documented in the module header (the submitting caller outlives
// every dereference), so moving the pointer to another thread cannot
// outlive the borrow it erases.
unsafe impl Send for BodyPtr {}
// SAFETY: `dyn Fn(usize) + Sync` is callable from any thread by
// definition, so shared references to the pointer are as safe as the
// pointee's own `Sync` bound.
unsafe impl Sync for BodyPtr {}

/// One submitted parallel region: `n_lots` fixed partitions, each executed
/// exactly once by whichever executor claims it.
struct Job {
    body: BodyPtr,
    n_lots: usize,
    /// Claim counter: `fetch_add` hands out lot indices; values `>= n_lots`
    /// mean the job is exhausted (overshoot is harmless).
    next: AtomicUsize,
    /// Completion latch + first panic payload.
    state: Mutex<JobState>,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
}

struct JobState {
    /// Lots whose body call has not yet returned.
    remaining: usize,
    /// First captured panic payload, re-raised by the submitter.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct PoolState {
    /// FIFO of jobs that may still have unclaimed lots.
    queue: VecDeque<Arc<Job>>,
    /// Live workers (spawned, not shut down).
    workers: usize,
    /// Join handles for [`shutdown_pool`].
    handles: Vec<JoinHandle<()>>,
    /// When set, workers exit instead of sleeping; submits stop growing the
    /// pool (regions still complete via the caller's claim loop).
    shutdown: bool,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Signalled on submit and shutdown.
    work_ready: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            workers: 0,
            handles: Vec::new(),
            shutdown: false,
        }),
        work_ready: Condvar::new(),
    })
}

/// Runs a region of `n_lots` fixed partitions on the pool. Called with
/// `n_lots >= 2` (serial regions never reach dispatch) from a thread that
/// is not itself a pool executor (nested regions short-circuit at
/// [`crate::threads`] `== 1`).
///
/// Panics with the first captured payload if any lot body panicked, after
/// every lot has finished.
pub(crate) fn run_region(n_lots: usize, body: &(dyn Fn(usize) + Sync)) {
    debug_assert!(n_lots >= 2, "serial regions must not be dispatched");
    let erased: *const (dyn Fn(usize) + Sync) = body;
    // SAFETY: lifetime erasure only — see the module header. We do not
    // return until `remaining == 0`, so `body` outlives every dereference.
    let erased = BodyPtr(unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync + 'static)>(
            erased,
        )
    });
    let job = Arc::new(Job {
        body: erased,
        n_lots,
        // Lot 0 is pre-claimed: the caller always runs it inline.
        next: AtomicUsize::new(1),
        state: Mutex::new(JobState {
            remaining: n_lots,
            panic: None,
        }),
        done: Condvar::new(),
    });
    submit(Arc::clone(&job), n_lots - 1);

    // The caller is executor 0: lot 0 first, then whatever the workers have
    // not claimed. The worker scope makes nested regions run inline here,
    // exactly as they do on pool workers.
    {
        let _nested_inline = crate::worker_scope();
        run_lot(&job, 0);
        loop {
            // kdlint: allow(relaxed): RMW-unique lot claim — fetch_add hands
            // each index to exactly one executor; lot data is published by
            // the submit-side mutex, not by this counter.
            let lot = job.next.fetch_add(1, Ordering::Relaxed);
            if lot >= n_lots {
                break;
            }
            run_lot(&job, lot);
        }
    }

    // Completion latch: workers may still be running claimed lots. The
    // state mutex also publishes their output writes to this thread.
    let payload = {
        let st = job.state.lock().unwrap();
        let mut st = job.done.wait_while(st, |s| s.remaining > 0).unwrap();
        st.panic.take()
    };
    retire(&job);
    if let Some(p) = payload {
        panic::resume_unwind(p);
    }
}

/// Enqueues a job and makes sure up to `helpers` workers exist to claim
/// its lots alongside the caller.
fn submit(job: Arc<Job>, helpers: usize) {
    let pool = pool();
    let mut st = pool.state.lock().unwrap();
    let target = helpers.min(MAX_WORKERS);
    while !st.shutdown && st.workers < target {
        let idx = st.workers;
        match std::thread::Builder::new()
            .name(format!("tspar-worker-{idx}"))
            .spawn(worker_loop)
        {
            Ok(handle) => {
                st.workers += 1;
                st.handles.push(handle);
            }
            // Spawn failure (resource exhaustion) degrades gracefully: the
            // caller's claim loop drains whatever workers cannot take.
            Err(_) => break,
        }
    }
    st.queue.push_back(job);
    let wakeups = target.min(st.workers).max(1);
    drop(st);
    // Wake only as many sleepers as the region can employ: notify_all
    // would stampede every idle worker over the pool mutex per region once
    // the pool has grown wide. A worker that is busy (not waiting) anyway
    // re-checks the queue before it ever sleeps, so no submit is lost.
    for _ in 0..wakeups {
        pool.work_ready.notify_one();
    }
}

/// Drops a completed job from the queue if a worker has not already popped
/// it, so finished regions never pile up behind live ones.
fn retire(job: &Arc<Job>) {
    if let Some(pool) = POOL.get() {
        let mut st = pool.state.lock().unwrap();
        st.queue.retain(|j| !Arc::ptr_eq(j, job));
    }
}

/// A persistent worker: claim a lot, run it, drain the rest of that job,
/// sleep until the next submit.
fn worker_loop() {
    let _worker = crate::worker_scope();
    let pool = pool();
    while let Some((job, lot)) = next_assignment(pool) {
        run_lot(&job, lot);
        loop {
            // kdlint: allow(relaxed): RMW-unique lot claim — see run_region;
            // the job Arc itself arrived through the pool mutex.
            let lot = job.next.fetch_add(1, Ordering::Relaxed);
            if lot >= job.n_lots {
                break;
            }
            run_lot(&job, lot);
        }
    }
}

/// Blocks until a job with an unclaimed lot is at the queue front (FIFO:
/// older regions drain first) or the pool is shutting down (`None`).
fn next_assignment(pool: &Pool) -> Option<(Arc<Job>, usize)> {
    let mut st = pool.state.lock().unwrap();
    loop {
        if st.shutdown {
            return None;
        }
        // Front-check and pop happen under one lock hold, so an exhausted
        // job is popped by exactly the worker that observed it exhausted.
        while let Some(front) = st.queue.front() {
            // kdlint: allow(relaxed): RMW-unique lot claim under the pool
            // lock — the queue mutex publishes the job; the counter only
            // partitions indices.
            let lot = front.next.fetch_add(1, Ordering::Relaxed);
            if lot < front.n_lots {
                return Some((Arc::clone(front), lot));
            }
            st.queue.pop_front();
        }
        st = pool.work_ready.wait(st).unwrap();
    }
}

/// Runs one claimed lot, capturing a panic instead of unwinding through the
/// executor, and opens the completion latch when the lot is the last.
fn run_lot(job: &Job, lot: usize) {
    // SAFETY: `lot < n_lots` was claimed exactly once, so `remaining > 0`
    // holds until this call returns and the submitter is still blocked in
    // `run_region` — the body borrow is live (module-header invariant).
    let body = unsafe { &*job.body.0 };
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| body(lot)));
    let mut st = job.state.lock().unwrap();
    if let Err(payload) = outcome {
        // First panic wins, mirroring `thread::scope`; later payloads from
        // the same region are dropped.
        st.panic.get_or_insert(payload);
    }
    st.remaining -= 1;
    if st.remaining == 0 {
        job.done.notify_all();
    }
}

/// Number of live persistent workers (0 before the first pooled region,
/// and again after [`shutdown_pool`]).
pub fn pool_workers() -> usize {
    POOL.get().map_or(0, |p| p.state.lock().unwrap().workers)
}

/// Joins and discards every pool worker, returning the pool to its
/// pristine lazy state — the next parallel region respawns workers on
/// demand. Intended for tests and benchmarks that need a cold pool;
/// regions submitted while a shutdown is in flight still complete, because
/// the submitting caller always drains its own lots.
pub fn shutdown_pool() {
    let Some(pool) = POOL.get() else { return };
    // Serialize whole shutdowns: a second caller interleaving with the
    // join phase could otherwise clear the shutdown flag before the first
    // caller's workers observe it, putting those workers back to sleep
    // and deadlocking the first caller's `join`.
    static SHUTDOWN_GUARD: Mutex<()> = Mutex::new(());
    let _one_at_a_time = SHUTDOWN_GUARD.lock().unwrap();
    let handles = {
        let mut st = pool.state.lock().unwrap();
        st.shutdown = true;
        std::mem::take(&mut st.handles)
    };
    pool.work_ready.notify_all();
    for handle in handles {
        let _ = handle.join();
    }
    let mut st = pool.state.lock().unwrap();
    st.shutdown = false;
    st.workers = 0;
}
