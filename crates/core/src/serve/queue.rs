//! The queued, admission-controlled serving front-end.
//!
//! [`super::SelectorEngine`] is batch-first: it is fastest when a request
//! carries many series, because the selector fan-out amortises one `tspar`
//! region over the whole batch. Real serving traffic is the opposite shape
//! — many small concurrent requests. [`ServeQueue`] bridges the two:
//!
//! * **Submission.** Callers [`ServeQueue::submit`] a
//!   [`super::SelectRequest`] and get a [`Ticket`] back immediately; the
//!   ticket's [`Ticket::wait`] blocks until the response is ready (or
//!   [`Ticket::wait_for`] bounds the wait with a deadline).
//! * **Coalescing.** A dedicated coalescer thread drains the bounded FIFO:
//!   it pops the front request, then keeps merging *consecutive* requests
//!   naming the same selector until [`QueueConfig::max_batch`] series are
//!   gathered, runs the merged batch through the engine once (one selector
//!   fan-out region on the `tspar` pool), and splits the results back per
//!   request. Merging only consecutive same-selector requests keeps
//!   completion in submission order. A single request larger than
//!   `max_batch` is never split — it just rides alone.
//! * **Admission control.** The queue holds at most
//!   [`QueueConfig::max_depth`] pending requests. A submit beyond that is
//!   rejected *immediately* with [`super::ServeError::Overloaded`] carrying
//!   the observed depth, so callers can shed load or back off instead of
//!   stacking unbounded latency. Once the coalescer drains below the bound,
//!   submits are accepted again — overload is a state, not a terminal
//!   condition.
//! * **Observability.** [`ServeQueue::stats`] exposes lifetime
//!   [`QueueStats`] counters (admitted / served / rejected / coalesced /
//!   panicked), and [`ServeQueue::heartbeat`] a monotonic liveness beat the
//!   supervision layer ([`super::router`]) uses to spot wedged workers.
//!
//! # Determinism
//!
//! Coalescing must not change answers. It cannot: per-series scores depend
//! only on the series (each series runs through the selector's
//! [`crate::selector::Selector::series_scores`] kernel independently, and
//! `tspar` partitioning never leaks into values), so a request's
//! [`super::Selection`]s are bit-identical whether it is served directly
//! via [`super::SelectorEngine::handle`], queued alone, or coalesced with
//! arbitrary neighbours, at any `KD_THREADS`. `tests/serve_queue.rs` sweeps
//! exactly that matrix.
//!
//! # Shutdown and worker death
//!
//! [`ServeQueue::shutdown`] (also run by `Drop`) is **idempotent**: it
//! stops admissions (late submits get [`super::ServeError::ShuttingDown`]),
//! drains every request already admitted, completes their tickets, and
//! joins the coalescer exactly once — calling it twice, from two threads,
//! or with submitters still holding tickets is safe and panic-free.
//!
//! Tickets can never be left dangling: every admitted request completes
//! exactly once. If the coalescer thread dies (an injected
//! [`super::FaultPoint::Group`] panic escaping the per-group
//! `catch_unwind` — the fault-injection path a supervisor uses to
//! exercise worker death), the requests it had claimed
//! complete with [`super::ServeError::WorkerDied`] as they unwind, and
//! later submits are bounced with the same error instead of queueing work
//! nothing will serve. The supervision layer transplants the unclaimed
//! backlog onto a respawned worker.

use super::fault::{run_action, FaultAction, FaultPlan};
use super::{SelectRequest, Selection, SelectorEngine, ServeError};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for a [`ServeQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Admission bound: maximum pending (admitted, not yet served)
    /// requests. Submits beyond this are rejected with
    /// [`ServeError::Overloaded`].
    pub max_depth: usize,
    /// Coalescing bound: maximum series merged into one engine batch.
    /// `1` disables merging (every request rides alone).
    pub max_batch: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        Self {
            max_depth: 1024,
            max_batch: 64,
        }
    }
}

/// Lifetime request counters for one [`ServeQueue`] worker, snapshot via
/// [`ServeQueue::stats`]. All counts are *requests* (not series):
///
/// * `admitted` — submits accepted into the FIFO.
/// * `served` — requests completed with a successful response.
/// * `rejected` — submits bounced at admission ([`ServeError::Overloaded`]
///   or an injected [`ServeError::Rejected`]); never enqueued.
/// * `coalesced` — requests served as part of a multi-request group (a
///   group of 3 counts 3; a request riding alone counts 0).
/// * `panicked` — requests failed by a panicking selector
///   ([`ServeError::Panicked`]) or by worker death
///   ([`ServeError::WorkerDied`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Submits accepted into the FIFO.
    pub admitted: u64,
    /// Requests completed with a successful response.
    pub served: u64,
    /// Submits bounced at admission (never enqueued).
    pub rejected: u64,
    /// Requests served as part of a multi-request coalesced group.
    pub coalesced: u64,
    /// Requests failed by selector panic or worker death.
    pub panicked: u64,
}

impl QueueStats {
    /// Field-wise sum — the supervision layer folds the counters of retired
    /// worker generations into the live one with this.
    pub fn merge(&self, other: &QueueStats) -> QueueStats {
        QueueStats {
            admitted: self.admitted + other.admitted,
            served: self.served + other.served,
            rejected: self.rejected + other.rejected,
            coalesced: self.coalesced + other.coalesced,
            panicked: self.panicked + other.panicked,
        }
    }
}

/// Shared atomic counters behind [`QueueStats`]. A separate leaf `Arc` (not
/// part of `Shared`) so each `Pending`'s drop-guard can record worker-death
/// failures without creating an `Arc` cycle through the queue state.
#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    coalesced: AtomicU64,
    panicked: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> QueueStats {
        QueueStats {
            // kdlint: allow(relaxed): stat snapshot — monotonic telemetry;
            // tests asserting exact values quiesce the queue first.
            admitted: self.admitted.load(Ordering::Relaxed),
            // kdlint: allow(relaxed): stat snapshot — see `admitted`.
            served: self.served.load(Ordering::Relaxed),
            // kdlint: allow(relaxed): stat snapshot — see `admitted`.
            rejected: self.rejected.load(Ordering::Relaxed),
            // kdlint: allow(relaxed): stat snapshot — see `admitted`.
            coalesced: self.coalesced.load(Ordering::Relaxed),
            // kdlint: allow(relaxed): stat snapshot — see `admitted`.
            panicked: self.panicked.load(Ordering::Relaxed),
        }
    }
}

/// One-shot completion slot shared between a [`Ticket`] and the coalescer.
struct SlotState {
    /// Set by the winning `complete` and never cleared. Completion must be
    /// remembered separately from `value`: the waiter consumes `value`, and
    /// if "completed" were inferred from `value.is_some()`, a drop-guard
    /// running after the waiter redeemed the ticket would see `None` and
    /// "win" a second completion on an already-served slot (miscounting it
    /// as a worker death).
    completed: bool,
    value: Option<Result<Vec<Selection>, ServeError>>,
}

struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Slot {
    /// Completes the slot if nothing else has; returns whether this call
    /// won. Idempotence matters on the failure paths: a worker abandoned as
    /// wedged can finish its stalled group long after the supervision layer
    /// already failed (or re-served) the same tickets — first writer wins,
    /// every ticket still resolves exactly once.
    fn complete(&self, result: Result<Vec<Selection>, ServeError>) -> bool {
        let mut guard = self.state.lock().unwrap();
        if guard.completed {
            return false;
        }
        guard.completed = true;
        guard.value = Some(result);
        self.ready.notify_all();
        true
    }
}

/// A handle to an admitted request: redeem it with [`Ticket::wait`].
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the request is served and returns its result: one
    /// [`Selection`] per submitted series, in request order — bit-identical
    /// to what [`SelectorEngine::handle`] returns for the same request.
    pub fn wait(self) -> Result<Vec<Selection>, ServeError> {
        let guard = self.slot.state.lock().unwrap();
        // kdlint: allow(unbounded-wait): bounded by the queue totality
        // contract — every admitted slot completes exactly once (worker,
        // drain, or Pending drop-guard on worker death), so this wait
        // always ends; deadline-budgeted callers use `wait_for`.
        let mut guard = self.slot.ready.wait_while(guard, |s| !s.completed).unwrap();
        guard.value.take().expect("slot completed exactly once")
    }

    /// [`Ticket::wait`] with a deadline: returns the result if it arrives
    /// within `timeout`, otherwise hands the ticket back (`Err(self)`) so
    /// the caller can keep waiting, retry elsewhere, or walk away — the
    /// deadline-budgeted router path. An abandoned ticket is safe to drop;
    /// the response is discarded when it arrives.
    pub fn wait_for(self, timeout: Duration) -> Result<Result<Vec<Selection>, ServeError>, Ticket> {
        let guard = self.slot.state.lock().unwrap();
        let (mut guard, timed_out) = self
            .slot
            .ready
            .wait_timeout_while(guard, timeout, |s| !s.completed)
            .unwrap();
        if timed_out.timed_out() && !guard.completed {
            drop(guard);
            return Err(self);
        }
        Ok(guard.value.take().expect("slot completed exactly once"))
    }

    /// Whether the response is ready (`wait` would not block).
    pub fn is_ready(&self) -> bool {
        self.slot.state.lock().unwrap().completed
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

/// An admitted request waiting in the FIFO (or claimed by the worker).
///
/// The `Drop` impl is the no-hang guarantee: if a `Pending` is destroyed
/// without its slot completed — the worker thread unwinding with a claimed
/// group, or queue state dropped with a dead worker's backlog — the ticket
/// resolves to [`ServeError::WorkerDied`] instead of dangling.
pub(crate) struct Pending {
    request: SelectRequest,
    slot: Arc<Slot>,
    counters: Arc<Counters>,
}

impl Drop for Pending {
    fn drop(&mut self) {
        if self.slot.complete(Err(ServeError::WorkerDied)) {
            // kdlint: allow(relaxed): stat counter — snapshot-only reads.
            self.counters.panicked.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct State {
    queue: VecDeque<Pending>,
    shutdown: bool,
}

struct Shared {
    config: QueueConfig,
    state: Mutex<State>,
    /// Signalled on submit and on shutdown.
    work: Condvar,
    counters: Arc<Counters>,
    /// The fault plan a shard queue consults, with the shard index its
    /// rules filter on; `None` outside fault-injection runs.
    faults: Option<(usize, Arc<FaultPlan>)>,
    /// Worker liveness beat: bumped every time the coalescer claims a group
    /// and again when it finishes serving one. Stagnant beats while work is
    /// pending or in flight mean the worker is wedged.
    beats: AtomicU64,
    /// Whether the worker is currently inside a group (claimed, not yet
    /// completed) — distinguishes "idle, nothing to do" from "stuck".
    in_flight: AtomicBool,
}

/// The queued serving front-end: FIFO + admission control + coalescer
/// thread over a shared [`SelectorEngine`]. See the module docs.
///
/// `submit` takes `&self`; share the queue across producer threads behind a
/// reference or an `Arc`. The underlying engine stays reachable through
/// [`ServeQueue::engine`] — its registry is hot-swappable (`register` /
/// `load` via `&self`), so selectors can be replaced while the queue is
/// serving.
pub struct ServeQueue {
    engine: Arc<SelectorEngine>,
    shared: Arc<Shared>,
    coalescer: Mutex<Option<JoinHandle<()>>>,
}

impl ServeQueue {
    /// Starts a queue (and its coalescer thread) over `engine`.
    pub fn new(engine: Arc<SelectorEngine>, config: QueueConfig) -> Self {
        Self::build(engine, config, None)
    }

    /// Starts shard `shard`'s queue consulting `plan`:
    ///
    /// * [`super::FaultPoint::Submit`] runs inside `submit` after the
    ///   shutdown check. A `Reject` bounces the request with
    ///   [`ServeError::Rejected`] (counted as `rejected`, never enqueued);
    ///   any other action spends its occurrence and is ignored.
    /// * [`super::FaultPoint::Group`] runs on the worker thread after a
    ///   coalesced group is claimed, **outside** the panic guard around
    ///   scoring — a panic there kills the worker (the claimed requests
    ///   fail with [`ServeError::WorkerDied`], never hang), and a stall
    ///   wedges the worker's heartbeat.
    pub(crate) fn with_faults(
        engine: Arc<SelectorEngine>,
        config: QueueConfig,
        shard: usize,
        plan: Arc<FaultPlan>,
    ) -> Self {
        Self::build(engine, config, Some((shard, plan)))
    }

    fn build(
        engine: Arc<SelectorEngine>,
        config: QueueConfig,
        faults: Option<(usize, Arc<FaultPlan>)>,
    ) -> Self {
        let shared = Arc::new(Shared {
            config: QueueConfig {
                max_depth: config.max_depth.max(1),
                max_batch: config.max_batch.max(1),
            },
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            counters: Arc::new(Counters::default()),
            faults,
            beats: AtomicU64::new(0),
            in_flight: AtomicBool::new(false),
        });
        let coalescer = {
            let engine = Arc::clone(&engine);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("kdsel-serve-coalescer".into())
                .spawn(move || coalescer_loop(&engine, &shared))
                .expect("spawn coalescer thread")
        };
        Self {
            engine,
            shared,
            coalescer: Mutex::new(Some(coalescer)),
        }
    }

    /// Starts a queue with [`QueueConfig::default`].
    pub fn with_default_config(engine: Arc<SelectorEngine>) -> Self {
        Self::new(engine, QueueConfig::default())
    }

    /// Admits a request, returning a [`Ticket`] redeemable for the
    /// response.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] when the FIFO already holds `max_depth`
    /// pending requests (the request is **not** admitted — retry after
    /// backing off); [`ServeError::Rejected`] when a shard's fault plan
    /// refuses admission; [`ServeError::ShuttingDown`] when
    /// the queue is being shut down; [`ServeError::WorkerDied`] when the
    /// worker thread is gone (nothing would ever serve the request). An
    /// unknown selector name is *not* checked here: it surfaces on the
    /// ticket, exactly as [`SelectorEngine::handle`] would report it.
    // kdprof: hot
    pub fn submit(&self, request: SelectRequest) -> Result<Ticket, ServeError> {
        kdprof::span!(kdprof::Phase::Admit);
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState {
                completed: false,
                value: None,
            }),
            ready: Condvar::new(),
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            if st.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if let Some((shard, plan)) = &self.shared.faults {
                if let Some(FaultAction::Reject) = plan.on_submit(*shard, &request.selector) {
                    self.shared
                        .counters
                        .rejected
                        // kdlint: allow(relaxed): stat counter — snapshot-only.
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Rejected);
                }
            }
            if !self.is_alive() {
                // A dead worker (Group fault escaped the group guard) can
                // never drain the FIFO; admitting would hang the ticket
                // until the supervision layer transplants the backlog.
                // Fail fast instead — the router retry path covers it.
                return Err(ServeError::WorkerDied);
            }
            let depth = st.queue.len();
            if depth >= self.shared.config.max_depth {
                self.shared
                    .counters
                    .rejected
                    // kdlint: allow(relaxed): stat counter — snapshot-only.
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    depth,
                    limit: self.shared.config.max_depth,
                });
            }
            self.shared
                .counters
                .admitted
                // kdlint: allow(relaxed): stat counter — snapshot-only; the
                // admission bound itself reads `st.queue.len()` under the
                // state lock, never this counter.
                .fetch_add(1, Ordering::Relaxed);
            st.queue.push_back(Pending {
                request,
                slot: Arc::clone(&slot),
                counters: Arc::clone(&self.shared.counters),
            });
        }
        self.shared.work.notify_one();
        Ok(Ticket { slot })
    }

    /// Convenience: submit and wait in one call (still goes through the
    /// FIFO and coalescer, so it can be merged with neighbours).
    pub fn serve(&self, request: SelectRequest) -> Result<Vec<Selection>, ServeError> {
        // kdlint: allow(unbounded-wait): `Ticket::wait` — bounded by the
        // queue totality contract (see its annotation).
        self.submit(request)?.wait()
    }

    /// Current number of pending (admitted, not yet claimed) requests.
    pub fn depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// The queue's configuration.
    pub fn config(&self) -> QueueConfig {
        self.shared.config
    }

    /// Snapshot of the lifetime request counters.
    pub fn stats(&self) -> QueueStats {
        self.shared.counters.snapshot()
    }

    /// Monotonic worker liveness beat (see [`QueueStats`] docs): advances
    /// whenever the coalescer claims or completes a group. A supervisor
    /// that sees the beat stagnate while [`ServeQueue::has_work`] holds
    /// should treat the worker as wedged.
    pub fn heartbeat(&self) -> u64 {
        // Acquire pairs with the worker's Release bumps: a supervisor that
        // observes a beat also observes the group claim/completion behind
        // it — this is cross-thread control flow (wedge detection), not a
        // stat counter.
        self.shared.beats.load(Ordering::Acquire)
    }

    /// Whether the worker currently has anything to do: requests pending in
    /// the FIFO or a claimed group in flight. A stagnant heartbeat is only
    /// suspicious while this is `true`.
    pub fn has_work(&self) -> bool {
        // Acquire pairs with the worker's Release stores: supervisors
        // branch on this flag (a stagnant beat is only suspicious while
        // work is pending), so it must not be weaker than the beat.
        self.shared.in_flight.load(Ordering::Acquire) || self.depth() > 0
    }

    /// Whether the coalescer thread is still running. `false` after
    /// [`ServeQueue::shutdown`] — or, without a shutdown, when the worker
    /// died (an injected Group panic escaped the group guard).
    pub fn is_alive(&self) -> bool {
        self.coalescer
            .lock()
            .unwrap()
            .as_ref()
            .is_some_and(|handle| !handle.is_finished())
    }

    /// The engine behind the queue — use it to hot-swap selectors
    /// (`engine().register(..)`) while serving.
    pub fn engine(&self) -> &Arc<SelectorEngine> {
        &self.engine
    }

    /// Stops admissions (late submits get [`ServeError::ShuttingDown`]),
    /// drains every admitted request, and joins the worker. **Idempotent
    /// and panic-free**: safe to call repeatedly, concurrently, from `Drop`,
    /// and with submitters still holding unredeemed tickets (their tickets
    /// complete during the drain). Joining a worker that died keeps the
    /// drain guarantee a different way: the undrained backlog completes
    /// with [`ServeError::WorkerDied`] when the queue state drops.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        let handle = self.coalescer.lock().unwrap().take();
        if let Some(handle) = handle {
            // A panic on the coalescer thread has already completed the
            // affected tickets (Pending drop-guards); nothing useful to do
            // with the payload here.
            // kdlint: allow(unbounded-wait): bounded by the drain — the
            // shutdown flag is already set, so the worker exits after at
            // most the admitted backlog; wedged workers are handled by the
            // supervision layer via `begin_shutdown`, which never joins.
            let _ = handle.join();
        }
    }

    /// Flips the shutdown flag and wakes the worker without joining it —
    /// the supervision layer uses this on a wedged worker it cannot join.
    pub(crate) fn begin_shutdown(&self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
    }

    /// Drops the worker's join handle without joining — detaches a wedged
    /// worker so a later [`ServeQueue::shutdown`] / `Drop` cannot block on
    /// a thread that may be stalled indefinitely. The detached thread still
    /// exits on its own once it unblocks (the shutdown flag is already
    /// set by the caller), completing any claimed tickets on the way out.
    pub(crate) fn detach_worker(&self) {
        let _ = self.coalescer.lock().unwrap().take();
    }

    /// Removes and returns every admitted-but-unclaimed request, in FIFO
    /// order. The supervision layer transplants this backlog onto a
    /// respawned worker via [`ServeQueue::resubmit`] so admitted work
    /// survives worker death.
    pub(crate) fn take_backlog(&self) -> Vec<Pending> {
        let mut st = self.shared.state.lock().unwrap();
        st.queue.drain(..).collect()
    }

    /// Re-enqueues a transplanted request, bypassing admission control (it
    /// was already admitted — and counted — by the queue it came from).
    pub(crate) fn resubmit(&self, pending: Pending) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.queue.push_back(pending);
        }
        self.shared.work.notify_one();
    }
}

impl Drop for ServeQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServeQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeQueue")
            .field("config", &self.shared.config)
            .field("depth", &self.depth())
            .field("alive", &self.is_alive())
            .field("stats", &self.stats())
            .field("engine", &self.engine)
            .finish()
    }
}

/// Coalescer: pop a group of consecutive same-selector requests (bounded
/// by `max_batch` series), serve it as one engine batch, complete tickets
/// in submission order; on shutdown, drain what was admitted, then exit.
fn coalescer_loop(engine: &SelectorEngine, shared: &Shared) {
    loop {
        let group = {
            let st = shared.state.lock().unwrap();
            let mut st = shared
                .work
                // kdlint: allow(unbounded-wait): idle worker parking —
                // every submit and shutdown notifies under the same mutex,
                // so the wait is bounded by the arrival of work or
                // shutdown, not by a timer.
                .wait_while(st, |s| s.queue.is_empty() && !s.shutdown)
                .unwrap();
            // Span opens *after* the idle park above, so Coalesce measures
            // group claiming, not time spent waiting for work.
            kdprof::span!(kdprof::Phase::Coalesce);
            let Some(first) = st.queue.pop_front() else {
                debug_assert!(st.shutdown);
                return;
            };
            let mut total = first.request.batch.len();
            let mut group = vec![first];
            while let Some(next) = st.queue.front() {
                if next.request.selector != group[0].request.selector
                    || total + next.request.batch.len() > shared.config.max_batch
                {
                    break;
                }
                total += next.request.batch.len();
                group.push(st.queue.pop_front().expect("front just peeked"));
            }
            group
        };
        // The state lock is released here: producers keep submitting (and
        // the admission bound keeps measuring true backlog) while the
        // engine computes.
        // Release pairs with the supervisor's Acquire loads in `heartbeat`
        // and `has_work`: wedge detection branches on these, so the claim
        // must be published before the beat that advertises it.
        shared.in_flight.store(true, Ordering::Release);
        shared.beats.fetch_add(1, Ordering::Release);
        if let Some((shard, plan)) = &shared.faults {
            // Deliberately outside the scoring panic guard: a Group panic
            // kills the worker (the supervision fault path). The claimed
            // group's drop-guards fail its tickets on unwind.
            if let Some(action) = plan.on_group(*shard, &group[0].request.selector) {
                run_action(action);
            }
        }
        serve_group(engine, shared, group);
        // Release, as above: the completed group happens-before the beat
        // and the in-flight clear a supervisor may branch on.
        shared.beats.fetch_add(1, Ordering::Release);
        shared.in_flight.store(false, Ordering::Release);
    }
}

// kdprof: hot
fn serve_group(engine: &SelectorEngine, shared: &Shared, group: Vec<Pending>) {
    let selector = &group[0].request.selector;
    let counters = &shared.counters;
    kdprof::incr(kdprof::Counter::GroupsCoalesced, 1);
    if group.len() > 1 {
        counters
            .coalesced
            // kdlint: allow(relaxed): stat counter — snapshot-only.
            .fetch_add(group.len() as u64, Ordering::Relaxed);
    }
    // Borrow, don't copy: the merged batch is a list of references into
    // the pending requests, which stay alive until their slots complete.
    let merged: Vec<&tsdata::TimeSeries> =
        group.iter().flat_map(|p| p.request.batch.iter()).collect();
    // A panicking selector must fail the group's tickets, not hang every
    // future submitter by killing the coalescer.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        engine.select_batch_refs(selector, &merged)
    }));
    match outcome {
        Ok(Ok(all)) => {
            kdprof::span!(kdprof::Phase::Complete);
            let mut all = all.into_iter();
            for pending in group {
                let take = pending.request.batch.len();
                let part: Vec<Selection> = all.by_ref().take(take).collect();
                if pending.slot.complete(Ok(part)) {
                    // kdlint: allow(relaxed): stat counter — snapshot-only.
                    counters.served.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(Err(err)) => {
            // One selector name per group, so the error is the same for
            // every member (UnknownSelector, or MalformedOutput when the
            // selector broke the one-result-per-series contract).
            for pending in group {
                // kdlint: allow(hot-alloc): error completion — cold by
                // definition; steady-state requests resolve `Ok`.
                pending.slot.complete(Err(err.clone()));
            }
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "selector panicked".into());
            for pending in group {
                // kdlint: allow(hot-alloc): panic fault path — the group
                // is already lost; steady state never panics.
                let err = ServeError::Panicked(msg.clone());
                if pending.slot.complete(Err(err)) {
                    // kdlint: allow(relaxed): stat counter — snapshot-only.
                    counters.panicked.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::Selector;
    use crate::serve::{FaultPoint, FaultRule};
    use tsdata::TimeSeries;

    /// A selector whose vote is the series length mod 12 — cheap and
    /// deterministic, no NN forward pass.
    struct LenSelector;

    impl Selector for LenSelector {
        fn name(&self) -> &str {
            "len"
        }
        fn series_scores(&self, ts: &TimeSeries) -> Vec<Vec<f32>> {
            let mut row = vec![0.0f32; 12];
            row[ts.len() % 12] = 1.0;
            vec![row]
        }
    }

    fn len_engine() -> Arc<SelectorEngine> {
        let engine = SelectorEngine::new();
        engine.register("len", Arc::new(LenSelector));
        Arc::new(engine)
    }

    fn req(n: usize) -> SelectRequest {
        SelectRequest::new("len", vec![TimeSeries::new("s", "D", vec![0.0; n], vec![])])
    }

    /// Counters are bumped on the worker thread right after a ticket
    /// completes, so a waiter can observe the result a hair before the
    /// count: poll instead of asserting instantaneously.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..5000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn stats_count_admitted_served_rejected() {
        let queue = ServeQueue::new(len_engine(), QueueConfig::default());
        for i in 0..5 {
            queue.serve(req(10 + i)).expect("served");
        }
        wait_until("served count", || queue.stats().served == 5);
        let stats = queue.stats();
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.served, 5);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.panicked, 0);
    }

    #[test]
    fn a_redeemed_slot_stays_completed() {
        // Regression: completion used to be inferred from `value.is_some()`,
        // so once the waiter consumed the value, a late drop-guard
        // `complete(WorkerDied)` would "win" again and miscount a served
        // request as a worker death (flaking the stats tests above).
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState {
                completed: false,
                value: None,
            }),
            ready: Condvar::new(),
        });
        assert!(slot.complete(Ok(vec![])));
        let ticket = Ticket {
            slot: Arc::clone(&slot),
        };
        // kdlint: allow(unbounded-wait): the slot is completed above, so
        // this returns without blocking.
        assert!(ticket.wait().is_ok());
        assert!(!slot.complete(Err(ServeError::WorkerDied)));
    }

    #[test]
    fn stats_count_panicked_requests() {
        struct Bomb;
        impl Selector for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn series_scores(&self, _ts: &TimeSeries) -> Vec<Vec<f32>> {
                panic!("bang")
            }
        }
        let engine = SelectorEngine::new();
        engine.register("bomb", Arc::new(Bomb));
        let queue = ServeQueue::new(Arc::new(engine), QueueConfig::default());
        std::panic::set_hook(Box::new(|_| {}));
        let err = queue
            .serve(SelectRequest::new(
                "bomb",
                vec![TimeSeries::new("s", "D", vec![0.0; 8], vec![])],
            ))
            .unwrap_err();
        let _ = std::panic::take_hook();
        assert!(matches!(err, ServeError::Panicked(_)));
        wait_until("panicked count", || queue.stats().panicked == 1);
        assert_eq!(queue.stats().served, 0);
    }

    #[test]
    fn shutdown_is_idempotent_and_panic_free() {
        let queue = ServeQueue::new(len_engine(), QueueConfig::default());
        // Outstanding tickets at shutdown time: the drain completes them.
        let tickets: Vec<Ticket> = (0..4).map(|i| queue.submit(req(20 + i)).unwrap()).collect();
        queue.shutdown();
        queue.shutdown(); // double shutdown: no join panic, no deadlock
        for ticket in tickets {
            // kdlint: allow(unbounded-wait): shutdown above drained the
            // queue, so every slot is already complete.
            assert_eq!(ticket.wait().expect("drained").len(), 1);
        }
        // Admissions stay closed, idempotently.
        assert!(matches!(
            queue.submit(req(1)).unwrap_err(),
            ServeError::ShuttingDown
        ));
        assert!(!queue.is_alive());
        queue.shutdown(); // third time, after drop-path equivalent work
    }

    #[test]
    fn concurrent_shutdown_from_many_threads_is_safe() {
        let queue = Arc::new(ServeQueue::new(len_engine(), QueueConfig::default()));
        let tickets: Vec<Ticket> = (0..8).map(|i| queue.submit(req(i + 1)).unwrap()).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let queue = Arc::clone(&queue);
                s.spawn(move || queue.shutdown());
            }
        });
        for ticket in tickets {
            // kdlint: allow(unbounded-wait): the scope joined the shutdown
            // threads, so the drain already completed every slot.
            assert!(ticket.wait().is_ok(), "drained during concurrent shutdown");
        }
    }

    #[test]
    fn wait_for_times_out_and_returns_the_ticket() {
        struct Gate(Mutex<bool>, Condvar);
        impl Selector for Gate {
            fn name(&self) -> &str {
                "gate"
            }
            fn series_scores(&self, _ts: &TimeSeries) -> Vec<Vec<f32>> {
                let open = self.0.lock().unwrap();
                // kdlint: allow(unbounded-wait): test gate — the test body
                // opens it right after the bounded wait times out.
                drop(self.1.wait_while(open, |o| !*o).unwrap());
                vec![vec![1.0; 12]]
            }
        }
        let gate = Arc::new(Gate(Mutex::new(false), Condvar::new()));
        let engine = SelectorEngine::new();
        engine.register("gate", Arc::clone(&gate) as Arc<dyn Selector>);
        let queue = ServeQueue::new(Arc::new(engine), QueueConfig::default());
        let ticket = queue
            .submit(SelectRequest::new(
                "gate",
                vec![TimeSeries::new("s", "D", vec![0.0; 4], vec![])],
            ))
            .unwrap();
        // Gate closed: the bounded wait must give the ticket back.
        let ticket = ticket
            .wait_for(Duration::from_millis(20))
            .expect_err("must time out");
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        // Gate open: the same ticket now resolves.
        let got = ticket
            .wait_for(Duration::from_secs(5))
            .expect("resolves after release")
            .expect("served");
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn submit_reject_fault_bounces_at_admission() {
        let plan =
            FaultPlan::new().with(FaultRule::at(FaultPoint::Submit, FaultAction::Reject).times(1));
        let queue =
            ServeQueue::with_faults(len_engine(), QueueConfig::default(), 0, Arc::new(plan));
        assert!(matches!(
            queue.submit(req(5)).unwrap_err(),
            ServeError::Rejected
        ));
        assert_eq!(queue.serve(req(5)).expect("second admit").len(), 1);
        wait_until("served count", || queue.stats().served == 1);
        let stats = queue.stats();
        assert_eq!((stats.rejected, stats.admitted), (1, 1));
    }

    #[test]
    fn submit_panic_and_stall_faults_are_spent_and_ignored() {
        let plan = Arc::new(
            FaultPlan::new()
                .with(
                    FaultRule::at(
                        FaultPoint::Submit,
                        FaultAction::Panic("at admission".into()),
                    )
                    .times(1),
                )
                .with(
                    FaultRule::at(
                        FaultPoint::Submit,
                        FaultAction::Stall(Duration::from_secs(3600)),
                    )
                    .times(1),
                ),
        );
        let queue = Arc::new(ServeQueue::with_faults(
            len_engine(),
            QueueConfig::default(),
            0,
            Arc::clone(&plan),
        ));
        // Submit from a helper thread so a submitter that panicked or
        // stalled shows up as a bounded receive failure, not a hung test.
        let (tx, rx) = std::sync::mpsc::channel();
        {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let served = [queue.serve(req(5)), queue.serve(req(6))].map(|r| r.map(|s| s.len()));
                let _ = tx.send(served);
            });
        }
        let served = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a Submit panic or stall must not reach the submitter");
        assert!(matches!(served, [Ok(1), Ok(1)]), "{served:?}");
        assert!(plan.on_submit(0, "len").is_none(), "both occurrences spent");
        wait_until("served count", || queue.stats().served == 2);
        let stats = queue.stats();
        assert_eq!((stats.rejected, stats.admitted), (0, 2));
    }

    #[test]
    fn worker_death_fails_claimed_tickets_and_later_submits() {
        let plan = FaultPlan::new().with(
            FaultRule::at(
                FaultPoint::Group,
                FaultAction::Panic("injected worker death".into()),
            )
            .times(1),
        );
        let queue =
            ServeQueue::with_faults(len_engine(), QueueConfig::default(), 0, Arc::new(plan));
        std::panic::set_hook(Box::new(|_| {}));
        let err = queue.serve(req(3)).unwrap_err();
        let _ = std::panic::take_hook();
        assert!(matches!(err, ServeError::WorkerDied), "{err:?}");
        // The ticket resolves while the worker thread is still unwinding;
        // give the thread a beat to actually finish.
        wait_until("worker exit", || !queue.is_alive());
        wait_until("panicked count", || queue.stats().panicked == 1);
        // The queue refuses work nothing would serve, instead of hanging.
        assert!(matches!(
            queue.submit(req(4)).unwrap_err(),
            ServeError::WorkerDied
        ));
        queue.shutdown(); // dead-worker shutdown is still panic-free
    }

    #[test]
    fn heartbeat_advances_on_service() {
        let queue = ServeQueue::new(len_engine(), QueueConfig::default());
        let before = queue.heartbeat();
        queue.serve(req(9)).expect("served");
        wait_until("claim + completion beats", || {
            queue.heartbeat() >= before + 2
        });
        wait_until("idle", || !queue.has_work());
    }
}
