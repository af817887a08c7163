//! The supervised sharded serving tier.
//!
//! [`ShardedRouter`] places selectors on N shard workers — each its own
//! [`super::SelectorEngine`] + [`super::ServeQueue`] (see
//! [`super::shard`]) — by consistent hashing over a virtual-node ring
//! ([`HashRing`]), and wraps every request in a failure policy:
//!
//! * **Supervision.** A supervisor thread probes each shard on a fixed
//!   interval: a worker that *died* (panic escaped the group guard) or
//!   *wedged* (heartbeat stagnant across consecutive probes while work is
//!   pending or in flight) is respawned — fresh engine, selectors
//!   re-registered from their [`super::shard::SelectorSpec`]s, the dead
//!   worker's admitted backlog transplanted in FIFO order. Saved selectors
//!   round-trip bitwise through the store, so a respawned shard serves
//!   bit-identical `Selection`s.
//! * **Lifecycle policy.** Every request runs under a deadline budget
//!   ([`RouterConfig::deadline`], overridable per request). Transient
//!   failures — overload, injected rejection, worker death, selector
//!   panics — are retried up to [`super::policy::RetryPolicy::max_retries`]
//!   times with deterministic jittered backoff. A per-(shard, selector)
//!   [`super::policy::Breaker`] trips after consecutive failures and
//!   half-opens on an arrival-count probe schedule.
//! * **Degraded fallback.** When the breaker sheds a request, retries are
//!   exhausted, or the deadline expires, the router serves the request
//!   inline through a registered fallback selector (typically a cheap
//!   `nonnn` baseline) and marks each [`Selection::degraded`] — a
//!   best-effort answer instead of an error. Without a fallback the
//!   request fails with a typed [`RouteError`]; it never hangs: every
//!   wait is bounded by the deadline.
//!
//! Shards are *in-process*: the tier models the control plane of a
//! distributed selector-serving service (placement, supervision, failure
//! policy) on threads, keeping the whole failure matrix deterministic and
//! testable via [`super::fault::FaultPlan`].

use super::fault::FaultPlan;
use super::policy::{Breaker, BreakerConfig, BreakerVerdict, RetryPolicy};
use super::queue::{QueueConfig, QueueStats};
use super::shard::{SelectorSpec, Shard};
use super::{SelectRequest, Selection, ServeError};
use crate::hash::{fnv1a_mix, fnv1a_str, splitmix64};
use crate::manage::SelectorStore;
use crate::selector::Selector;
use crate::train::TrainedSelector;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
// kdlint: allow(wallclock): the router's clock use is deadline budgeting
// only — each site below carries its own annotation.
use std::time::{Duration, Instant};
use tsdata::WindowConfig;

/// A consistent-hash ring over `shards` shards with `vnodes` virtual
/// nodes per shard.
///
/// Placement is the classic successor rule: hash the key, walk clockwise
/// to the first virtual node, take its shard. Virtual nodes smooth the
/// load split (more vnodes → tighter balance), and consistency bounds
/// churn: growing the ring from N to N+1 shards only relocates keys whose
/// successor became one of the new shard's vnodes — an expected 1/(N+1)
/// of them — and never moves a key between two old shards
/// (`tests/router_placement.rs` pins both properties).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(vnode hash, shard)` sorted by hash (shard index tie-breaks equal
    /// hashes so placement is deterministic even under collisions).
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// A ring over `shards` shards (at least 1) with `vnodes` virtual
    /// nodes each (at least 1).
    pub fn new(shards: usize, vnodes: usize) -> Self {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for v in 0..vnodes {
                // FNV concentrates short-string entropy in the low bits;
                // the ring partitions by the full word, so avalanche
                // through splitmix64 before placing the point.
                let mut h = fnv1a_str(&format!("shard-{shard}"));
                fnv1a_mix(&mut h, v as u64);
                points.push((splitmix64(h), shard));
            }
        }
        points.sort_unstable();
        Self { points, shards }
    }

    /// The shard a selector name is placed on.
    pub fn place(&self, name: &str) -> usize {
        let key = splitmix64(fnv1a_str(name));
        let idx = self.points.partition_point(|&(h, _)| h < key);
        // Successor with wraparound.
        self.points[if idx == self.points.len() { 0 } else { idx }].1
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

/// Configuration for a [`ShardedRouter`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of shard workers.
    pub shards: usize,
    /// Virtual nodes per shard on the placement ring.
    pub vnodes: usize,
    /// Per-shard queue configuration.
    pub queue: QueueConfig,
    /// Per-shard window-cache capacity (`0` disables the cache).
    pub cache_capacity: usize,
    /// Retry/backoff policy for transient failures.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds, per (shard, selector).
    pub breaker: BreakerConfig,
    /// Default per-request deadline. **Mandatory** (not optional): every
    /// wait inside the router is bounded by it, which is what turns "a
    /// shard stalled" into a degraded answer instead of a hung caller.
    pub deadline: Duration,
    /// Supervisor probe interval.
    pub supervise_every: Duration,
    /// Consecutive stagnant-heartbeat probes (with work pending) before a
    /// worker is declared wedged and respawned.
    pub wedge_checks: u32,
    /// Seed for deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            vnodes: 64,
            queue: QueueConfig::default(),
            cache_capacity: 256,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            deadline: Duration::from_secs(5),
            supervise_every: Duration::from_millis(10),
            wedge_checks: 3,
            seed: 0,
        }
    }
}

/// Per-request routing options.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteOptions {
    /// Overrides [`RouterConfig::deadline`] for this request.
    pub deadline: Option<Duration>,
}

/// A served route: the selections plus how they were obtained.
#[derive(Debug, Clone)]
pub struct RouteReply {
    /// One [`Selection`] per submitted series, in request order.
    pub selections: Vec<Selection>,
    /// The shard that served the request; `None` when the fallback served
    /// it inline.
    pub shard: Option<usize>,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Whether the fallback served (every selection is then marked
    /// [`Selection::degraded`]).
    pub degraded: bool,
}

/// Terminal routing failures. Transient shard errors are retried and
/// degraded internally; what escapes is typed and final — a router call
/// **never hangs**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// No selector registered under this name anywhere on the tier.
    UnknownSelector(String),
    /// The deadline expired before any attempt succeeded, and no fallback
    /// selector is registered.
    DeadlineExceeded {
        /// Attempts that ran before the budget was exhausted.
        attempts: u32,
    },
    /// Retries exhausted without success, and no fallback is registered.
    Exhausted {
        /// Attempts that ran.
        attempts: u32,
        /// The final attempt's error.
        last: ServeError,
    },
    /// The circuit breaker for the selector's shard is open (the request
    /// was shed without an attempt), and no fallback is registered.
    BreakerOpen,
    /// The router is shutting down.
    ShuttingDown,
    /// The fallback selector itself failed while serving a degraded
    /// request: it panicked, or returned a different number of score sets
    /// than series.
    FallbackFailed(String),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnknownSelector(name) => {
                write!(f, "no selector registered under {name:?} on any shard")
            }
            RouteError::DeadlineExceeded { attempts } => {
                write!(f, "deadline exceeded after {attempts} attempt(s)")
            }
            RouteError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempt(s): {last}")
            }
            RouteError::BreakerOpen => {
                write!(f, "circuit breaker open and no fallback is registered")
            }
            RouteError::ShuttingDown => write!(f, "router is shutting down"),
            RouteError::FallbackFailed(msg) => {
                write!(f, "fallback selector failed: {msg}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Why an inline fallback attempt produced no reply.
enum DegradeFailure {
    NoFallback,
    FallbackFailed(String),
}

/// One shard's health view in [`RouterStats`].
#[derive(Debug, Clone)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Whether the current worker generation is alive.
    pub alive: bool,
    /// Pending requests on the live queue.
    pub depth: usize,
    /// Worker generation (0 = never respawned).
    pub generation: u64,
    /// Respawns performed by the supervisor (== generation).
    pub respawns: u64,
    /// Lifetime queue counters across all generations.
    pub queue: QueueStats,
    /// Selector names placed on this shard.
    pub selectors: Vec<String>,
    /// Open circuit breakers on this shard.
    pub breakers_open: usize,
}

/// Cross-shard router statistics.
#[derive(Debug, Clone)]
pub struct RouterStats {
    /// Requests routed (every `route` call that reached the attempt loop).
    pub routed: u64,
    /// Requests answered by the degraded fallback.
    pub degraded: u64,
    /// Requests that escaped with a terminal [`RouteError`].
    pub failed: u64,
    /// Retry attempts beyond first tries.
    pub retries: u64,
    /// Per-shard health.
    pub shards: Vec<ShardHealth>,
}

/// The supervised sharded serving tier. See the module docs.
///
/// Construction returns an `Arc` because the supervisor thread holds a
/// `Weak` reference to the router; dropping every `Arc` (or calling
/// [`ShardedRouter::shutdown`]) stops it.
pub struct ShardedRouter {
    config: RouterConfig,
    ring: HashRing,
    shards: Vec<Shard>,
    /// Authoritative name → spec map (a selector exists on the tier iff
    /// it is here); shards hold per-shard copies for respawn.
    specs: Mutex<BTreeMap<String, SelectorSpec>>,
    /// Placement overrides from [`ShardedRouter::migrate`], consulted
    /// before the ring.
    overrides: Mutex<BTreeMap<String, usize>>,
    fallback: Mutex<Option<Arc<dyn Selector>>>,
    /// `BTreeMap` so `stats()` aggregates in deterministic key order.
    breakers: Mutex<BTreeMap<(usize, String), Breaker>>,
    routed: AtomicU64,
    degraded: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
    shutdown: AtomicBool,
    supervisor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ShardedRouter {
    /// Starts a tier with no fault injection.
    pub fn new(config: RouterConfig) -> Arc<Self> {
        Self::build(config, None)
    }

    /// Starts a tier whose shards consult `plan` at every
    /// [`super::fault::FaultPoint`] — the deterministic fault-injection
    /// entry for tests and drills.
    pub fn with_fault_injection(config: RouterConfig, plan: Arc<FaultPlan>) -> Arc<Self> {
        Self::build(config, Some(plan))
    }

    fn build(mut config: RouterConfig, faults: Option<Arc<FaultPlan>>) -> Arc<Self> {
        config.shards = config.shards.max(1);
        config.vnodes = config.vnodes.max(1);
        config.wedge_checks = config.wedge_checks.max(1);
        let ring = HashRing::new(config.shards, config.vnodes);
        let shards = (0..config.shards)
            .map(|i| {
                Shard::new(
                    i,
                    config.queue,
                    config.cache_capacity,
                    faults.as_ref().map(Arc::clone),
                )
            })
            .collect();
        let router = Arc::new(Self {
            ring,
            shards,
            specs: Mutex::new(BTreeMap::new()),
            overrides: Mutex::new(BTreeMap::new()),
            fallback: Mutex::new(None),
            breakers: Mutex::new(BTreeMap::new()),
            routed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            supervisor: Mutex::new(None),
            config,
        });
        let supervisor = {
            let weak = Arc::downgrade(&router);
            std::thread::Builder::new()
                .name("kdsel-router-supervisor".into())
                .spawn(move || supervisor_loop(weak))
                .expect("spawn supervisor thread")
        };
        *router.supervisor.lock().unwrap() = Some(supervisor);
        router
    }

    /// The router's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Registers a store-backed selector on its ring-placed shard. The
    /// spec (store + window) is kept so supervision can re-register the
    /// selector after worker death — registered state survives as long as
    /// the store does.
    ///
    /// # Errors
    /// Store I/O / missing selector / window-length mismatch, exactly as
    /// [`super::SelectorEngine::load`] reports them.
    pub fn register_from_store(
        &self,
        store: &SelectorStore,
        name: &str,
        window: WindowConfig,
    ) -> std::io::Result<()> {
        if !store.contains(name) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("selector {name:?} is not saved in the store"),
            ));
        }
        let spec = SelectorSpec::Stored {
            store: store.clone(),
            window,
        };
        self.place_spec(name, spec)
    }

    /// Registers an in-memory selector (shared by handle) on its
    /// ring-placed shard. The handle survives respawn through the spec.
    pub fn register(&self, name: &str, selector: Arc<dyn Selector>) -> std::io::Result<()> {
        self.place_spec(name, SelectorSpec::Inline { selector })
    }

    /// Deploys a freshly trained selector onto its ring-placed shard (the
    /// in-memory analogue of [`ShardedRouter::register_from_store`],
    /// validating the window like [`super::SelectorEngine::deploy`]).
    pub fn deploy(
        &self,
        name: &str,
        model: TrainedSelector,
        window: WindowConfig,
    ) -> std::io::Result<()> {
        super::check_servable_window(name, &model, &window)?;
        let selector: Arc<dyn Selector> = Arc::new(crate::selector::NnSelector::new(
            name.to_string(),
            model,
            window,
        ));
        self.register(name, selector)
    }

    fn place_spec(&self, name: &str, spec: SelectorSpec) -> std::io::Result<()> {
        let shard = self.shard_of_inner(name);
        self.shards[shard].register(name, spec.clone())?;
        self.specs.lock().unwrap().insert(name.to_string(), spec);
        Ok(())
    }

    /// Installs the degraded-mode fallback selector. It is served inline
    /// by the routing thread (no queue, no shard — it must stay available
    /// when shards aren't), so keep it cheap: a `nonnn` baseline, not a
    /// deep model.
    pub fn set_fallback(&self, selector: Arc<dyn Selector>) {
        *self.fallback.lock().unwrap() = Some(selector);
    }

    /// Removes a selector from the tier; returns whether it was
    /// registered.
    pub fn unregister(&self, name: &str) -> bool {
        let known = self.specs.lock().unwrap().remove(name).is_some();
        if known {
            let shard = self.shard_of_inner(name);
            self.shards[shard].unregister(name);
            self.overrides.lock().unwrap().remove(name);
        }
        known
    }

    /// The shard currently serving `name` (override-aware).
    pub fn shard_of(&self, name: &str) -> usize {
        self.shard_of_inner(name)
    }

    fn shard_of_inner(&self, name: &str) -> usize {
        if let Some(&shard) = self.overrides.lock().unwrap().get(name) {
            return shard;
        }
        self.ring.place(name)
    }

    /// The placement ring (for inspection and the placement tests).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Registered selector names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.specs.lock().unwrap().keys().cloned().collect()
    }

    /// Migrates a selector to `target` under live traffic, with the
    /// exactly-v1-or-exactly-v2 guarantee: the selector is installed on
    /// the target *before* the placement flip (both shards briefly serve
    /// identical registrations), and the source drains its already-queued
    /// requests before unregistering — at no point can a request observe
    /// a half-migrated state.
    ///
    /// # Errors
    /// `NotFound` for an unknown selector; `InvalidInput` for an
    /// out-of-range target; install errors from the target shard. A
    /// drain that outlives [`RouterConfig::deadline`] reports `TimedOut`
    /// (the flip has already happened; only the source-side unregister is
    /// left pending, and a respawn or re-migration clears it).
    pub fn migrate(&self, name: &str, target: usize) -> std::io::Result<()> {
        if target >= self.shards.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "target shard {target} out of range (tier has {})",
                    self.shards.len()
                ),
            ));
        }
        let Some(spec) = self.specs.lock().unwrap().get(name).cloned() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("selector {name:?} is not registered"),
            ));
        };
        let source = self.shard_of_inner(name);
        if source == target {
            return Ok(());
        }
        // 1. Install on the target first: from here on both shards can
        //    serve the selector, identically (deterministic scoring +
        //    bitwise store round-trip).
        self.shards[target].register(name, spec)?;
        // 2. Flip placement: new submits route to the target.
        self.overrides
            .lock()
            .unwrap()
            .insert(name.to_string(), target);
        // 3. Drain the source: its queue is FIFO, so once an empty-batch
        //    barrier request submitted *after* the flip completes, every
        //    request enqueued before the flip has been served. An
        //    empty batch is free (no windows to score) and cannot change
        //    any counter callers observe.
        let barrier = SelectRequest::new(name, Vec::new());
        // kdlint: allow(wallclock): drain deadline — bounds how long the
        // migration waits, never what any request computes.
        let deadline = Instant::now() + self.config.deadline;
        loop {
            let queue = self.shards[source].queue();
            match queue.submit(barrier.clone()) {
                Ok(ticket) => {
                    // kdlint: allow(wallclock): remaining drain budget.
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    match ticket.wait_for(remaining) {
                        Ok(_) => break,
                        // kdlint: allow(wallclock): deadline check only.
                        Err(_) if Instant::now() >= deadline => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                "source shard did not drain within the deadline",
                            ));
                        }
                        Err(_) => unreachable!("wait_for only times out at the deadline"),
                    }
                }
                // The source worker died or is shutting down: its backlog
                // transplant (respawn) preserves FIFO order, so retry the
                // barrier against the replacement queue.
                Err(ServeError::WorkerDied | ServeError::ShuttingDown) => {
                    // kdlint: allow(wallclock): deadline check only.
                    if Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "source shard did not come back within the deadline",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(ServeError::Overloaded { .. } | ServeError::Rejected) => {
                    // kdlint: allow(wallclock): deadline check only.
                    if Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "source shard stayed overloaded past the deadline",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(other) => {
                    return Err(std::io::Error::other(format!(
                        "barrier submit failed: {other}"
                    )));
                }
            }
        }
        // 4. Retire the source registration (spec stays in the tier map;
        //    the shard-local copy is gone so respawns don't resurrect it).
        self.shards[source].unregister(name);
        Ok(())
    }

    /// Routes a request with the default deadline.
    pub fn route(&self, request: &SelectRequest) -> Result<RouteReply, RouteError> {
        self.route_with(request, RouteOptions::default())
    }

    /// Routes a request: resolves placement, submits to the owning
    /// shard's queue, and applies the full lifecycle policy (deadline,
    /// retries with deterministic backoff, circuit breaker, degraded
    /// fallback). Never hangs: every internal wait is bounded by the
    /// deadline.
    pub fn route_with(
        &self,
        request: &SelectRequest,
        opts: RouteOptions,
    ) -> Result<RouteReply, RouteError> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(RouteError::ShuttingDown);
        }
        // Authoritative existence check: unknown names fail fast and
        // typed, without burning retries against every shard.
        if !self.specs.lock().unwrap().contains_key(&request.selector) {
            // kdlint: allow(relaxed): stat counter — snapshot-only.
            self.failed.fetch_add(1, Ordering::Relaxed);
            return Err(RouteError::UnknownSelector(request.selector.clone()));
        }
        // kdlint: allow(relaxed): stat counter — snapshot-only.
        self.routed.fetch_add(1, Ordering::Relaxed);
        // kdlint: allow(wallclock): request deadline — bounds waiting and
        // retry policy; the selections themselves never read the clock.
        let deadline = Instant::now() + opts.deadline.unwrap_or(self.config.deadline);

        // Breaker gate. The breaker is keyed on the *current* placement so
        // a migrated selector starts with a clean breaker on its new
        // shard.
        let shard = self.shard_of_inner(&request.selector);
        let verdict = self
            .breakers
            .lock()
            .unwrap()
            .entry((shard, request.selector.clone()))
            .or_insert_with(|| Breaker::new(self.config.breaker))
            .admit();
        if verdict == BreakerVerdict::Shed {
            return self.degrade(request, 0).map_err(|err| {
                // kdlint: allow(relaxed): stat counter — snapshot-only.
                self.failed.fetch_add(1, Ordering::Relaxed);
                match err {
                    DegradeFailure::NoFallback => RouteError::BreakerOpen,
                    DegradeFailure::FallbackFailed(msg) => RouteError::FallbackFailed(msg),
                }
            });
        }

        let mut attempts = 0u32;
        let mut last_err = ServeError::ShuttingDown;
        while attempts < self.config.retry.max_attempts() {
            attempts += 1;
            if attempts > 1 {
                // kdlint: allow(relaxed): stat counter — snapshot-only.
                self.retries.fetch_add(1, Ordering::Relaxed);
                let backoff =
                    self.config
                        .retry
                        .backoff(self.config.seed, &request.selector, attempts - 1);
                // kdlint: allow(wallclock): remaining retry budget.
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                std::thread::sleep(backoff.min(remaining));
            }
            // kdlint: allow(wallclock): remaining retry budget.
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            // Re-resolve placement every attempt: a migration or respawn
            // between attempts re-routes the retry to the live owner.
            let shard = self.shard_of_inner(&request.selector);
            let queue = self.shards[shard].queue();
            let ticket = match queue.submit(request.clone()) {
                Ok(ticket) => ticket,
                Err(
                    err @ (ServeError::Overloaded { .. }
                    | ServeError::Rejected
                    | ServeError::WorkerDied
                    | ServeError::ShuttingDown),
                ) => {
                    // Transient: backpressure, injected rejection, or a
                    // dead/retiring worker the supervisor is replacing.
                    last_err = err;
                    continue;
                }
                Err(err) => {
                    last_err = err;
                    break;
                }
            };
            // kdlint: allow(wallclock): remaining wait budget.
            let remaining = deadline.saturating_duration_since(Instant::now());
            match ticket.wait_for(remaining) {
                Ok(Ok(selections)) => {
                    self.breaker_outcome(shard, &request.selector, true);
                    return Ok(RouteReply {
                        selections,
                        shard: Some(shard),
                        attempts,
                        degraded: false,
                    });
                }
                Ok(Err(err)) => {
                    match &err {
                        // Service failures count against the breaker.
                        ServeError::Panicked(_)
                        | ServeError::WorkerDied
                        | ServeError::MalformedOutput { .. } => {
                            self.breaker_outcome(shard, &request.selector, false);
                        }
                        // Shard-local UnknownSelector is transient: the
                        // respawn re-registration or a migration flip may
                        // not have landed yet (the tier-level map already
                        // vouched for the name).
                        ServeError::UnknownSelector(_) => {}
                        _ => {}
                    }
                    last_err = err;
                    continue;
                }
                Err(_abandoned) => {
                    // Deadline expired waiting on a live ticket — the
                    // shard is stalled past the budget. Count it against
                    // the breaker and degrade; the abandoned ticket's
                    // response is discarded when (if) it lands.
                    self.breaker_outcome(shard, &request.selector, false);
                    return self.degrade(request, attempts).map_err(|err| {
                        // kdlint: allow(relaxed): stat counter — snapshot-only.
                        self.failed.fetch_add(1, Ordering::Relaxed);
                        match err {
                            DegradeFailure::NoFallback => RouteError::DeadlineExceeded { attempts },
                            DegradeFailure::FallbackFailed(msg) => RouteError::FallbackFailed(msg),
                        }
                    });
                }
            }
        }
        self.degrade_or_fail(request, attempts, last_err, deadline)
    }

    fn breaker_outcome(&self, shard: usize, selector: &str, success: bool) {
        let mut breakers = self.breakers.lock().unwrap();
        let breaker = breakers
            .entry((shard, selector.to_string()))
            .or_insert_with(|| Breaker::new(self.config.breaker));
        if success {
            breaker.on_success();
        } else {
            breaker.on_failure();
        }
    }

    fn degrade_or_fail(
        &self,
        request: &SelectRequest,
        attempts: u32,
        last: ServeError,
        // kdlint: allow(wallclock): deadline handoff for error typing.
        deadline: Instant,
    ) -> Result<RouteReply, RouteError> {
        self.degrade(request, attempts).map_err(|err| {
            // kdlint: allow(relaxed): stat counter — snapshot-only.
            self.failed.fetch_add(1, Ordering::Relaxed);
            match err {
                DegradeFailure::FallbackFailed(msg) => RouteError::FallbackFailed(msg),
                DegradeFailure::NoFallback => {
                    // kdlint: allow(wallclock): picks the error type
                    // (deadline vs exhausted); the reply data is fixed.
                    if Instant::now() >= deadline {
                        RouteError::DeadlineExceeded { attempts }
                    } else {
                        RouteError::Exhausted { attempts, last }
                    }
                }
            }
        })
    }

    /// Serves `request` through the fallback selector inline, marking
    /// every selection degraded. The caller maps a [`DegradeFailure`] to
    /// the route error fitting its context.
    fn degrade(
        &self,
        request: &SelectRequest,
        attempts: u32,
    ) -> Result<RouteReply, DegradeFailure> {
        let Some(fallback) = self.fallback.lock().unwrap().clone() else {
            return Err(DegradeFailure::NoFallback);
        };
        let refs: Vec<&tsdata::TimeSeries> = request.batch.iter().collect();
        let served = catch_unwind(AssertUnwindSafe(|| {
            super::select_with(fallback.as_ref(), &refs)
        }));
        match served {
            Ok(Ok(selections)) => {
                // kdlint: allow(relaxed): stat counter — snapshot-only.
                self.degraded.fetch_add(1, Ordering::Relaxed);
                Ok(RouteReply {
                    selections: selections
                        .into_iter()
                        .map(Selection::into_degraded)
                        .collect(),
                    shard: None,
                    attempts,
                    degraded: true,
                })
            }
            Ok(Err(err)) => Err(DegradeFailure::FallbackFailed(err.to_string())),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "fallback panicked".into());
                Err(DegradeFailure::FallbackFailed(msg))
            }
        }
    }

    /// Cross-shard statistics and per-shard health.
    pub fn stats(&self) -> RouterStats {
        let breakers = self.breakers.lock().unwrap();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let queue = shard.queue();
                let generation = shard.generation();
                ShardHealth {
                    shard: i,
                    alive: shard.is_alive(),
                    depth: queue.depth(),
                    generation,
                    respawns: generation,
                    queue: shard.stats(),
                    selectors: shard.selector_names(),
                    breakers_open: breakers
                        .iter()
                        .filter(|((s, _), b)| *s == i && b.is_open())
                        .count(),
                }
            })
            .collect();
        RouterStats {
            // kdlint: allow(relaxed): stat snapshot — approximate reads;
            // exact-value tests quiesce the tier first.
            routed: self.routed.load(Ordering::Relaxed),
            // kdlint: allow(relaxed): stat snapshot — see `routed`.
            degraded: self.degraded.load(Ordering::Relaxed),
            // kdlint: allow(relaxed): stat snapshot — see `routed`.
            failed: self.failed.load(Ordering::Relaxed),
            // kdlint: allow(relaxed): stat snapshot — see `routed`.
            retries: self.retries.load(Ordering::Relaxed),
            shards,
        }
    }

    /// Whether `name` is currently registered on shard `shard` (migration
    /// introspection for tests).
    pub fn shard_serves(&self, shard: usize, name: &str) -> bool {
        shard < self.shards.len() && self.shards[shard].has_selector(name)
    }

    /// Stops the supervisor and shuts every shard queue down (draining
    /// admitted requests). Idempotent; also run by `Drop`.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let supervisor = self.supervisor.lock().unwrap().take();
        if let Some(handle) = supervisor {
            // kdlint: allow(unbounded-wait): bounded by the supervisor's
            // probe interval — it re-checks the shutdown flag (and its
            // Weak upgrade) every tick, so the join ends within one tick.
            let _ = handle.join();
        }
        for shard in &self.shards {
            shard.queue().shutdown();
        }
    }
}

impl Drop for ShardedRouter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ShardedRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRouter")
            .field("shards", &self.shards.len())
            .field("selectors", &self.names())
            .field("shutdown", &self.shutdown.load(Ordering::Acquire))
            .finish()
    }
}

/// The supervision loop: probe every shard each interval; respawn dead
/// workers immediately and wedged workers after
/// [`RouterConfig::wedge_checks`] consecutive stagnant probes. Holds only
/// a `Weak` on the router so shutdown (or the last `Arc` dropping) ends
/// it.
fn supervisor_loop(router: Weak<ShardedRouter>) {
    let (interval, wedge_checks, n_shards) = match router.upgrade() {
        Some(r) => (
            r.config.supervise_every,
            r.config.wedge_checks,
            r.shards.len(),
        ),
        None => return,
    };
    let mut prev_beats = vec![0u64; n_shards];
    let mut stagnant = vec![0u32; n_shards];
    loop {
        std::thread::sleep(interval);
        let Some(router) = router.upgrade() else {
            return;
        };
        if router.shutdown.load(Ordering::Acquire) {
            return;
        }
        for (i, shard) in router.shards.iter().enumerate() {
            if !shard.is_alive() {
                shard.respawn();
                stagnant[i] = 0;
                prev_beats[i] = 0;
                continue;
            }
            let (beats, has_work, _depth) = shard.probe();
            if has_work && beats == prev_beats[i] {
                stagnant[i] += 1;
                if stagnant[i] >= wedge_checks {
                    shard.respawn();
                    stagnant[i] = 0;
                    prev_beats[i] = 0;
                    continue;
                }
            } else {
                stagnant[i] = 0;
            }
            prev_beats[i] = beats;
        }
        // `router` (the strong ref) drops here, so shutdown's join can't
        // deadlock against a supervisor holding the last Arc.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_places_deterministically_and_in_range() {
        let ring = HashRing::new(4, 64);
        for i in 0..100 {
            let name = format!("selector-{i}");
            let a = ring.place(&name);
            assert!(a < 4);
            assert_eq!(a, ring.place(&name), "placement is a pure function");
        }
    }

    #[test]
    fn ring_spreads_names_over_all_shards() {
        let ring = HashRing::new(4, 64);
        let mut counts = [0usize; 4];
        for i in 0..200 {
            counts[ring.place(&format!("sel-{i}"))] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "200 names must touch every one of 4 shards: {counts:?}"
        );
    }

    #[test]
    fn deploy_rejects_windows_below_the_architecture_minimum() {
        // ConvNet builds at window 2 but cannot serve it: deploying must
        // fail up front, not panic on every request and burn retries.
        let router = ShardedRouter::new(RouterConfig::default());
        let model = TrainedSelector::build(crate::Architecture::ConvNet, 2, 4, 5);
        let window = WindowConfig {
            length: 2,
            stride: 2,
            znormalize: true,
        };
        let err = router.deploy("short", model, window).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(!router.names().iter().any(|n| n == "short"));
        router.shutdown();
    }

    #[test]
    fn malformed_fallback_output_fails_the_route() {
        // Primary and fallback both return one score set short: the
        // degraded reply must be an error, not a short reply.
        struct Short;
        impl Selector for Short {
            fn name(&self) -> &str {
                "short"
            }
            fn series_scores(&self, _ts: &tsdata::TimeSeries) -> Vec<Vec<f32>> {
                unreachable!("window_scores is overridden")
            }
            fn window_scores(&self, batch: &[&tsdata::TimeSeries]) -> Vec<Vec<Vec<f32>>> {
                vec![vec![vec![1.0; 12]]; batch.len().saturating_sub(1)]
            }
        }
        let router = ShardedRouter::new(RouterConfig {
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            ..RouterConfig::default()
        });
        router.register("short", Arc::new(Short)).unwrap();
        router.set_fallback(Arc::new(Short));
        let series = tsdata::TimeSeries::new("s", "D", vec![0.0; 64], vec![]);
        let err = router
            .route(&SelectRequest::new("short", vec![series.clone(), series]))
            .unwrap_err();
        assert!(
            matches!(err, RouteError::FallbackFailed(ref msg) if msg.contains("1 results for a batch of 2")),
            "{err:?}"
        );
        router.shutdown();
    }

    #[test]
    fn degenerate_ring_sizes_are_clamped() {
        let ring = HashRing::new(0, 0);
        assert_eq!(ring.shards(), 1);
        assert_eq!(ring.place("anything"), 0);
    }
}
