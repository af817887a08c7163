//! The selector serving layer: a thread-safe, hot-swappable registry of
//! named selectors answering batched selection requests, plus a queued
//! front-end for high-concurrency traffic.
//!
//! [`SelectorEngine`] is the process-level entry point a service wraps: it
//! owns `Arc<dyn Selector>`s (loadable from a [`SelectorStore`]), accepts a
//! [`SelectRequest`] carrying a *batch* of series, and answers with one
//! structured [`Selection`] per series — the chosen model plus the full
//! per-class vote tally and the vote margin, so callers can reason about
//! confidence, not just the argmax. The registry sits behind an `RwLock`:
//! [`SelectorEngine::register`] and [`SelectorEngine::load`] take `&self`,
//! so selectors can be **hot-swapped while serving threads are in flight**
//! (in-flight batches finish on the selector they resolved; the next
//! lookup sees the replacement).
//!
//! Optional layers scale and observe the serving path:
//!
//! * [`queue::ServeQueue`] — a bounded FIFO + coalescer thread that merges
//!   many small same-selector requests into one engine batch, with
//!   admission control ([`ServeError::Overloaded`]) for backpressure.
//! * [`cache::WindowCache`] — an LRU keyed by series *content* (not id)
//!   that lets repeated series skip re-windowing/z-normalisation; attach
//!   one with [`SelectorEngine::with_window_cache`].
//! * [`SelectionTap`] — an observer hook invoked after every served batch
//!   (margin taps for drift monitoring; install with
//!   [`SelectorEngine::set_selection_tap`]).
//! * [`router::ShardedRouter`] — the supervised sharded tier: selectors
//!   placed on N shard workers (each its own engine + queue) by consistent
//!   hashing, with worker supervision/respawn, per-request deadlines,
//!   bounded deterministic retries, per-(shard, selector) circuit breakers,
//!   and degraded-mode fallback ([`Selection::degraded`]). Failure paths
//!   are exercised deterministically by handing a [`fault::FaultPlan`] to
//!   [`router::ShardedRouter::with_fault_injection`]; it is the tier's one
//!   fault seam.
//!
//! # Determinism
//!
//! Batched serving runs each series through the selector's per-series
//! scoring kernel, fanned out over [`tspar`]'s fixed work partitions on
//! the persistent worker pool (so a high-QPS serving loop pays queue
//! dispatch per batch, not thread spawn/join). Partition boundaries depend
//! only on the batch size, never on the worker count, and each series is
//! scored independently — so a batch served at `KD_THREADS=1` and at
//! `KD_THREADS=64`, the same series selected one at
//! a time via [`Selector::select`], a request served directly via
//! [`SelectorEngine::handle`], or the same request coalesced with
//! arbitrary neighbours by a [`queue::ServeQueue`] all produce
//! bit-identical `Selection`s. The engine is `Send + Sync`; N threads
//! serving the same engine concurrently also agree exactly
//! (`tests/pool_determinism.rs` and `tests/serve_queue.rs` stress those
//! paths).
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use kdselector_core::manage::SelectorStore;
//! use kdselector_core::serve::{QueueConfig, SelectRequest, SelectorEngine, ServeQueue};
//! use tsdata::WindowConfig;
//!
//! let store = SelectorStore::open("selectors").unwrap();
//! let window = WindowConfig { length: 64, stride: 64, znormalize: true };
//! let engine = Arc::new(SelectorEngine::with_window_cache(256));
//! engine.load(&store, "resnet-kd", window).unwrap();
//!
//! // Direct batch path:
//! let request = SelectRequest::new("resnet-kd", vec![/* series */]);
//! for selection in engine.handle(&request).unwrap() {
//!     println!("{} (margin {:.2})", selection.model, selection.margin);
//! }
//!
//! // Queued front-end for many small concurrent requests:
//! let queue = ServeQueue::new(engine, QueueConfig::default());
//! let ticket = queue.submit(SelectRequest::new("resnet-kd", vec![])).unwrap();
//! let selections = ticket.wait().unwrap();
//! ```

pub mod arena;
pub mod cache;
pub mod fault;
pub mod policy;
pub mod queue;
pub mod router;
pub mod shard;

pub use arena::ScratchArena;
pub use cache::{CacheStats, WindowCache};
pub use fault::{FaultAction, FaultPlan, FaultPoint, FaultRule};
pub use policy::{Breaker, BreakerConfig, BreakerVerdict, RetryPolicy};
pub use queue::{QueueConfig, QueueStats, ServeQueue, Ticket};
pub use router::{
    HashRing, RouteError, RouteOptions, RouteReply, RouterConfig, RouterStats, ShardHealth,
    ShardedRouter,
};
pub use shard::SelectorSpec;

use crate::manage::SelectorStore;
use crate::selector::{argmax, majority_winner, vote_counts, NnSelector, Selector};
use crate::train::TrainedSelector;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use tsad_models::ModelId;
use tsdata::{TimeSeries, WindowConfig};

/// A batched selection request: which registered selector to use and the
/// series to select models for.
#[derive(Debug, Clone)]
pub struct SelectRequest {
    /// Name of a registered selector.
    pub selector: String,
    /// The batch of series to serve.
    pub batch: Vec<TimeSeries>,
}

impl SelectRequest {
    /// New request for `selector` over `batch`.
    pub fn new(selector: impl Into<String>, batch: Vec<TimeSeries>) -> Self {
        Self {
            selector: selector.into(),
            batch,
        }
    }
}

/// The structured result of selecting a model for one series.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Selection {
    /// The chosen model (majority vote over windows, low-index tie-break).
    pub model: ModelId,
    /// Per-class vote counts in [`ModelId::ALL`] order.
    pub votes: Vec<usize>,
    /// Number of windows that voted.
    pub windows: usize,
    /// Vote margin: `(top count − runner-up count) / windows`, in `[0, 1]`.
    /// `0` for windowless series; `1` when every window agrees.
    pub margin: f64,
    /// `true` when the selection was served by a degraded-mode fallback
    /// selector (circuit breaker open, or no deadline budget left for the
    /// primary) rather than the selector the request named. Degraded
    /// answers are best-effort: callers that need the primary's answer
    /// should treat this flag as a retry-later signal.
    pub degraded: bool,
}

impl Selection {
    /// Derives a selection from one series' per-window class scores,
    /// through the same argmax and majority rule as [`Selector::select`].
    pub fn from_scores(scores: &[Vec<f32>]) -> Self {
        let n_classes = ModelId::ALL.len();
        let window_votes: Vec<usize> = scores.iter().map(|row| argmax(row)).collect();
        let votes = vote_counts(&window_votes, n_classes);
        let winner = majority_winner(&votes);
        // Top-2 counts in one pass (serving computes a margin per series,
        // so no clone-and-full-sort of the tally on the hot path).
        let (mut top, mut second) = (0usize, 0usize);
        for &count in &votes {
            if count > top {
                second = top;
                top = count;
            } else if count > second {
                second = count;
            }
        }
        let windows = scores.len();
        let margin = if windows == 0 {
            0.0
        } else {
            (top - second) as f64 / windows as f64
        };
        Self {
            model: ModelId::from_index(winner),
            votes,
            windows,
            margin,
            degraded: false,
        }
    }

    /// Marks the selection as served by a fallback selector (see
    /// [`Selection::degraded`]).
    pub fn into_degraded(mut self) -> Self {
        self.degraded = true;
        self
    }
}

/// Errors a serving call can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request named a selector that is not registered.
    UnknownSelector(String),
    /// A [`queue::ServeQueue`] refused admission: the FIFO already holds
    /// `limit` pending requests. The request was **not** enqueued.
    Overloaded {
        /// Pending requests at rejection time. Under the current strict
        /// admission rule the queue can never exceed its bound, so this
        /// always equals `limit` — carried separately so the signal stays
        /// meaningful if admission ever becomes soft (e.g. priority
        /// lanes).
        depth: usize,
        /// The queue's configured `max_depth`.
        limit: usize,
    },
    /// The queue is shutting down and no longer admits requests.
    ShuttingDown,
    /// The selector broke the batch contract: it returned a different
    /// number of per-series score sets than series submitted, so results
    /// could not be paired with series without misassigning them. Checked
    /// on every serving path; in a [`queue::ServeQueue`] it fails every
    /// request of the coalesced group.
    MalformedOutput {
        /// Series in the batch.
        expected: usize,
        /// Score sets the selector returned.
        got: usize,
    },
    /// The selector panicked while serving the request (carries the
    /// panic message). The queue survives and keeps serving.
    Panicked(String),
    /// The worker thread serving the queue died (a panic escaped the
    /// per-group guard, e.g. an injected [`FaultPoint::Group`] fault)
    /// before this request could be served, or would never serve it. The
    /// supervision layer respawns workers; retrying covers the window.
    WorkerDied,
    /// A shard's [`FaultPlan`] refused admission (an injected
    /// [`FaultPoint::Submit`] `Reject`). The request was **not** enqueued.
    Rejected,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownSelector(name) => {
                write!(f, "no selector registered under {name:?}")
            }
            ServeError::Overloaded { depth, limit } => {
                write!(
                    f,
                    "serve queue overloaded: {depth} pending requests (limit {limit})"
                )
            }
            ServeError::ShuttingDown => write!(f, "serve queue is shutting down"),
            ServeError::MalformedOutput { expected, got } => {
                write!(
                    f,
                    "selector returned {got} results for a batch of {expected} series"
                )
            }
            ServeError::Panicked(msg) => write!(f, "selector panicked while serving: {msg}"),
            ServeError::WorkerDied => {
                write!(f, "the serve queue's worker thread died before serving")
            }
            ServeError::Rejected => {
                write!(f, "an injected fault rejected the request at admission")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// An observer of served [`Selection`]s, for operational monitoring.
///
/// Install one with [`SelectorEngine::set_selection_tap`]; every
/// [`SelectorEngine::select_batch`] / [`SelectorEngine::select_batch_refs`]
/// call invokes it *after* computing the batch's selections (the tap can
/// never change results, only watch them). The canonical consumer is a
/// drift monitor watching vote margins decay on a live selector — see
/// [`crate::stream::MarginDriftTap`].
///
/// Taps observe in the serving threads' call order: under concurrent
/// serving that order is scheduling-dependent, so a tap that needs a
/// *reproducible* observation stream must be driven single-threaded (the
/// [`crate::stream::RetrainDaemon`] instead scores windows on its own
/// ingest path, keeping its drift decisions replayable regardless of
/// serving concurrency). Implementations must be cheap or hand off
/// quickly: they run inside the serving call.
pub trait SelectionTap: Send + Sync {
    /// Called once per served batch with the selector's registered name
    /// and the selections just produced, in batch order.
    fn observe(&self, selector: &str, selections: &[Selection]);
}

/// A registry of named, immutable selectors serving batched requests.
///
/// Every method takes `&self` — registration (`register` / `load`) writes
/// through an internal `RwLock`, serving (`handle` / `select_batch`) takes
/// a read lock only to resolve the name, so a configured engine can be
/// shared across threads behind a plain reference or an `Arc`, and
/// selectors can be replaced (hot-swapped) while other threads serve.
#[derive(Default)]
pub struct SelectorEngine {
    registry: RwLock<BTreeMap<String, Arc<dyn Selector>>>,
    /// Shared window-extraction cache attached to selectors loaded via
    /// [`SelectorEngine::load`] (keyed by content + window config, so one
    /// cache safely serves every selector of the engine).
    window_cache: Option<Arc<WindowCache>>,
    /// Optional post-serve observer (margin taps; see [`SelectionTap`]).
    tap: RwLock<Option<Arc<dyn SelectionTap>>>,
}

impl SelectorEngine {
    /// New empty engine (no window cache).
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty engine whose [`SelectorEngine::load`]ed selectors share an
    /// LRU [`WindowCache`] holding up to `capacity` window matrices.
    pub fn with_window_cache(capacity: usize) -> Self {
        Self {
            window_cache: Some(Arc::new(WindowCache::new(capacity))),
            ..Self::default()
        }
    }

    /// New empty engine sharing `cache` (e.g. a byte-budgeted
    /// [`WindowCache::with_byte_budget`], or a cache a
    /// [`crate::stream::StreamIngestor`] publishes streamed window
    /// matrices into so serving the streamed series never re-windows).
    pub fn with_shared_cache(cache: Arc<WindowCache>) -> Self {
        Self {
            window_cache: Some(cache),
            ..Self::default()
        }
    }

    /// Installs (`Some`) or removes (`None`) the engine's [`SelectionTap`].
    /// Takes `&self`: safe while other threads serve — in-flight batches
    /// finish under the tap they already resolved.
    pub fn set_selection_tap(&self, tap: Option<Arc<dyn SelectionTap>>) {
        *self.tap.write().unwrap() = tap;
    }

    fn tap_observe(&self, selector: &str, selections: &[Selection]) {
        // Clone the handle out of the lock so a slow tap never holds the
        // registry of observers against `set_selection_tap`.
        let tap = self.tap.read().unwrap().clone();
        if let Some(tap) = tap {
            tap.observe(selector, selections);
        }
    }

    /// The shared window cache, if one was configured (stats/introspection;
    /// pass clones to hand-built selectors via [`NnSelector::with_cache`]).
    pub fn window_cache(&self) -> Option<&Arc<WindowCache>> {
        self.window_cache.as_ref()
    }

    /// Registers a selector under `name`, replacing any previous entry.
    /// Takes `&self`: safe to call while other threads serve — in-flight
    /// batches finish on the selector they already resolved, the next
    /// request sees the replacement.
    ///
    /// Note that `register` takes the selector as-is and therefore does
    /// **not** attach the engine's window cache (it cannot reach inside an
    /// arbitrary `dyn Selector`): wire a hand-built [`NnSelector`] up with
    /// [`NnSelector::with_cache`] yourself, or go through
    /// [`SelectorEngine::load`], which attaches the cache automatically.
    pub fn register(&self, name: impl Into<String>, selector: Arc<dyn Selector>) {
        self.registry.write().unwrap().insert(name.into(), selector);
    }

    /// Removes a selector; returns it if it was registered.
    pub fn unregister(&self, name: &str) -> Option<Arc<dyn Selector>> {
        self.registry.write().unwrap().remove(name)
    }

    /// Loads a saved NN selector from `store` and registers it under its
    /// store name, attaching the engine's window cache if one is
    /// configured. Takes `&self` (see [`SelectorEngine::register`]).
    ///
    /// # Errors
    /// Besides store I/O failures, fails with `InvalidInput` when
    /// `window.length` disagrees with the window length the selector was
    /// trained with — catching the mismatch here instead of panicking in a
    /// serving thread on the first request.
    pub fn load(
        &self,
        store: &SelectorStore,
        name: &str,
        window: WindowConfig,
    ) -> std::io::Result<()> {
        self.deploy(name, store.load(name)?, window)
    }

    /// Deploys a freshly trained selector into the live registry: wraps it
    /// for serving (attaching the engine's window cache if one is
    /// configured, like [`SelectorEngine::load`]) and hot-swaps it under
    /// `name` while other threads keep serving — in-flight batches finish
    /// on the selector they already resolved, the next lookup sees the
    /// deployment. The typical call site is the end of a training session:
    ///
    /// ```no_run
    /// # use kdselector_core::serve::SelectorEngine;
    /// # use kdselector_core::train::TrainSession;
    /// # use tsdata::WindowConfig;
    /// # fn demo(engine: &SelectorEngine, session: TrainSession, window: WindowConfig) {
    /// let (model, _stats) = session.finish();
    /// engine.deploy("kdselector", model, window).unwrap();
    /// # }
    /// ```
    ///
    /// # Errors
    /// `InvalidInput` when `window.length` disagrees with the window
    /// length the selector was trained with, or that length is shorter
    /// than its architecture accepts ([`crate::Architecture::min_window`])
    /// — the same guards [`SelectorEngine::load`] applies, catching the
    /// mismatch at deploy time instead of panicking in a serving thread.
    pub fn deploy(
        &self,
        name: impl Into<String>,
        model: TrainedSelector,
        window: WindowConfig,
    ) -> std::io::Result<()> {
        let name = name.into();
        let selector = self.servable(&name, model, window)?;
        self.register(name, Arc::new(selector));
        Ok(())
    }

    /// The selector [`SelectorEngine::deploy`] registers: `model` checked
    /// for a servable `window` and wrapped with the engine's window cache,
    /// if one is configured.
    pub(crate) fn servable(
        &self,
        name: &str,
        model: TrainedSelector,
        window: WindowConfig,
    ) -> std::io::Result<NnSelector> {
        check_servable_window(name, &model, &window)?;
        let selector = NnSelector::new(name, model, window);
        Ok(match &self.window_cache {
            Some(cache) => selector.with_cache(Arc::clone(cache)),
            None => selector,
        })
    }

    /// The registered selector names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.registry.read().unwrap().keys().cloned().collect()
    }

    /// Looks up a registered selector (a clone of the shared handle, so the
    /// caller keeps serving on it even if the name is swapped afterwards).
    pub fn get(&self, name: &str) -> Option<Arc<dyn Selector>> {
        self.registry.read().unwrap().get(name).cloned()
    }

    /// Number of registered selectors.
    pub fn len(&self) -> usize {
        self.registry.read().unwrap().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.registry.read().unwrap().is_empty()
    }

    /// Serves a batched request: one [`Selection`] per series, in request
    /// order. Bit-identical to per-series [`Selector::select`] calls at any
    /// thread count.
    pub fn handle(&self, request: &SelectRequest) -> Result<Vec<Selection>, ServeError> {
        self.select_batch(&request.selector, &request.batch)
    }

    /// Serves a batch against the named selector. The registry read lock is
    /// held only for the name lookup, never during scoring — registration
    /// stays responsive while long batches compute.
    ///
    /// # Errors
    /// [`ServeError::UnknownSelector`] for an unregistered name;
    /// [`ServeError::MalformedOutput`] when the selector returns a
    /// different number of score sets than series.
    pub fn select_batch(
        &self,
        selector: &str,
        batch: &[TimeSeries],
    ) -> Result<Vec<Selection>, ServeError> {
        self.select_batch_refs(selector, &batch.iter().collect::<Vec<_>>())
    }

    /// [`SelectorEngine::select_batch`] over borrowed series — the path
    /// the [`queue::ServeQueue`] coalescer takes to serve several merged
    /// requests without copying their series into one contiguous batch.
    pub fn select_batch_refs(
        &self,
        selector: &str,
        batch: &[&TimeSeries],
    ) -> Result<Vec<Selection>, ServeError> {
        let sel = self
            .get(selector)
            .ok_or_else(|| ServeError::UnknownSelector(selector.to_string()))?;
        let selections = select_with(sel.as_ref(), batch)?;
        self.tap_observe(selector, &selections);
        Ok(selections)
    }
}

/// Scores `batch` on `selector` and derives one [`Selection`] per series:
/// the one body behind direct, queued and degraded serving.
///
/// # Errors
/// [`ServeError::MalformedOutput`] when the selector breaks the batch
/// contract (one score set per series): pairing a short or long result
/// with the batch would hand series selections that belong to others.
pub(crate) fn select_with(
    selector: &dyn Selector,
    batch: &[&TimeSeries],
) -> Result<Vec<Selection>, ServeError> {
    let scores = selector.window_scores(batch);
    if scores.len() != batch.len() {
        return Err(ServeError::MalformedOutput {
            expected: batch.len(),
            got: scores.len(),
        });
    }
    Ok(scores.iter().map(|s| Selection::from_scores(s)).collect())
}

/// Rejects serving `model` under `window`: the window length must be the
/// one the selector was trained with and at least its architecture's
/// minimum ([`crate::Architecture::min_window`]). Every deploy path
/// (engine, router, shard respawn) checks here, so a bad deployment fails
/// with `InvalidInput` instead of panicking in a serving thread.
pub(crate) fn check_servable_window(
    name: &str,
    model: &TrainedSelector,
    window: &WindowConfig,
) -> std::io::Result<()> {
    if model.window < model.arch.min_window() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "selector {name:?}: window {} is shorter than the {} minimum of {}",
                model.window,
                model.arch.name(),
                model.arch.min_window()
            ),
        ));
    }
    if model.window != window.length {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "selector {name:?} was trained with window length {}, \
                 but the serving WindowConfig has length {}",
                model.window, window.length
            ),
        ));
    }
    Ok(())
}

impl Clone for SelectorEngine {
    fn clone(&self) -> Self {
        Self {
            registry: RwLock::new(self.registry.read().unwrap().clone()),
            window_cache: self.window_cache.clone(),
            tap: RwLock::new(self.tap.read().unwrap().clone()),
        }
    }
}

impl std::fmt::Debug for SelectorEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectorEngine")
            .field("selectors", &self.names())
            .field("window_cache", &self.window_cache)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::train::TrainedSelector;

    fn sine_series(id: usize, len: usize) -> TimeSeries {
        TimeSeries::new(
            format!("serve-{id}"),
            "D",
            (0..len)
                .map(|t| ((t + 7 * id) as f64 * 0.21).sin() + 0.01 * id as f64)
                .collect(),
            vec![],
        )
    }

    #[test]
    fn nan_scores_select_deterministically() {
        use crate::selector::argmax;
        // NaN never displaces an incumbent or wins a comparison: the
        // first finite maximum wins regardless of where the NaNs sit.
        assert_eq!(argmax(&[2.0, f32::NAN, 1.0]), 0);
        assert_eq!(argmax(&[f32::NAN, 1.0, 2.0]), 2);
        assert_eq!(argmax(&[1.0, f32::NAN, 2.0, f32::NAN]), 2);
        // Degenerate rows fall back to index 0, not an arbitrary winner.
        assert_eq!(argmax(&[f32::NAN, f32::NAN, f32::NAN]), 0);
        assert_eq!(argmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]), 0);
        assert_eq!(argmax(&[]), 0);
        // Ties keep the lowest index.
        assert_eq!(argmax(&[3.0, 3.0, 1.0]), 0);

        // The same contract holds through Selection::from_scores: a row
        // poisoned by NaNs still votes first-wins, so the selection and
        // its vote tally are reproducible.
        let sel = Selection::from_scores(&[
            vec![2.0, f32::NAN, 1.0, 0.0],
            vec![f32::NAN; 4],
            vec![2.0, f32::NAN, 1.0, 0.0],
        ]);
        assert_eq!(sel.model, ModelId::from_index(0));
        assert_eq!(sel.votes[0], 3);
        assert_eq!(sel.windows, 3);
    }

    fn test_engine() -> SelectorEngine {
        let window = WindowConfig {
            length: 32,
            stride: 32,
            znormalize: true,
        };
        let model = TrainedSelector::build(Architecture::ConvNet, 32, 4, 3);
        let engine = SelectorEngine::new();
        engine.register(
            "convnet",
            Arc::new(NnSelector::new("convnet", model, window)),
        );
        engine
    }

    #[test]
    fn selection_tap_observes_served_batches_without_changing_them() {
        use std::sync::Mutex;
        struct Recorder {
            seen: Mutex<Vec<(String, usize, f64)>>,
        }
        impl SelectionTap for Recorder {
            fn observe(&self, selector: &str, selections: &[Selection]) {
                let mut seen = self.seen.lock().unwrap();
                for s in selections {
                    seen.push((selector.to_string(), s.windows, s.margin));
                }
            }
        }

        let engine = test_engine();
        let batch: Vec<TimeSeries> = (0..3).map(|i| sine_series(i, 200)).collect();
        let untapped = engine.select_batch("convnet", &batch).unwrap();

        let tap = Arc::new(Recorder {
            seen: Mutex::new(Vec::new()),
        });
        engine.set_selection_tap(Some(Arc::clone(&tap) as Arc<dyn SelectionTap>));
        let tapped = engine.select_batch("convnet", &batch).unwrap();
        assert_eq!(tapped, untapped, "the tap must never change results");

        let seen = tap.seen.lock().unwrap().clone();
        assert_eq!(seen.len(), batch.len(), "one observation per series");
        for ((name, windows, margin), sel) in seen.iter().zip(&tapped) {
            assert_eq!(name, "convnet");
            assert_eq!(*windows, sel.windows);
            assert_eq!(*margin, sel.margin);
        }

        // Removing the tap stops observation; serving is unaffected.
        engine.set_selection_tap(None);
        let after = engine.select_batch("convnet", &batch).unwrap();
        assert_eq!(after, untapped);
        assert_eq!(tap.seen.lock().unwrap().len(), batch.len());
    }

    #[test]
    fn unknown_selector_is_an_error() {
        let engine = test_engine();
        let err = engine.select_batch("ghost", &[]).unwrap_err();
        assert!(matches!(err, ServeError::UnknownSelector(ref n) if n == "ghost"));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn registry_lists_replaces_and_unregisters() {
        let engine = test_engine();
        assert_eq!(engine.names(), vec!["convnet".to_string()]);
        assert_eq!(engine.len(), 1);
        assert!(!engine.is_empty());
        assert!(engine.get("convnet").is_some());
        let model = TrainedSelector::build(Architecture::ConvNet, 32, 4, 9);
        let window = WindowConfig {
            length: 32,
            stride: 32,
            znormalize: true,
        };
        engine.register("convnet", Arc::new(NnSelector::new("v2", model, window)));
        assert_eq!(engine.len(), 1, "same name replaces");
        assert_eq!(engine.get("convnet").unwrap().name(), "v2");
        let removed = engine.unregister("convnet").expect("was registered");
        assert_eq!(removed.name(), "v2");
        assert!(engine.is_empty());
        assert!(engine.unregister("convnet").is_none());
    }

    #[test]
    fn hot_swap_while_serving_keeps_in_flight_selector_alive() {
        let engine = test_engine();
        // A serving thread resolves the selector handle...
        let in_flight = engine.get("convnet").unwrap();
        // ...and a deployer swaps the name out from under it.
        let model = TrainedSelector::build(Architecture::ConvNet, 32, 4, 11);
        let window = WindowConfig {
            length: 32,
            stride: 32,
            znormalize: true,
        };
        engine.register("convnet", Arc::new(NnSelector::new("v2", model, window)));
        // The in-flight handle still works and still names the old version.
        assert_eq!(in_flight.name(), "convnet");
        let ts = sine_series(0, 96);
        assert!(!in_flight.series_scores(&ts).is_empty());
        assert_eq!(engine.get("convnet").unwrap().name(), "v2");
    }

    #[test]
    fn batched_selection_matches_per_series_select() {
        let engine = test_engine();
        let batch: Vec<TimeSeries> = (0..6).map(|i| sine_series(i, 200)).collect();
        let selections = engine.select_batch("convnet", &batch).unwrap();
        assert_eq!(selections.len(), 6);
        let sel = engine.get("convnet").unwrap();
        for (ts, selection) in batch.iter().zip(&selections) {
            assert_eq!(selection.model, sel.select(ts), "{}", ts.id);
            assert_eq!(selection.windows, sel.window_votes(ts).len());
            assert!(selection.windows > 0);
            assert_eq!(selection.votes.iter().sum::<usize>(), selection.windows);
            assert!((0.0..=1.0).contains(&selection.margin));
        }
    }

    #[test]
    fn handle_routes_requests() {
        let engine = test_engine();
        let request = SelectRequest::new("convnet", (0..3).map(|i| sine_series(i, 96)).collect());
        let selections = engine.handle(&request).unwrap();
        assert_eq!(selections.len(), 3);
    }

    #[test]
    fn selection_from_scores_votes_and_margin() {
        // 4 windows: classes 2, 2, 5, 2 → winner 2, margin (3-1)/4.
        let mk = |c: usize| {
            let mut row = vec![0.0f32; 12];
            row[c] = 1.0;
            row
        };
        let scores = vec![mk(2), mk(2), mk(5), mk(2)];
        let s = Selection::from_scores(&scores);
        assert_eq!(s.model, ModelId::from_index(2));
        assert_eq!(s.votes[2], 3);
        assert_eq!(s.votes[5], 1);
        assert_eq!(s.windows, 4);
        assert!((s.margin - 0.5).abs() < 1e-12);
    }

    /// Regression pins for the one-pass top-2 margin (the sort-based margin
    /// it replaced is the reference): tie, unanimous, windowless, and a
    /// split where top == second must subtract to zero.
    #[test]
    fn margin_pins_on_crafted_score_sets() {
        let mk = |c: usize| {
            let mut row = vec![0.0f32; 12];
            row[c] = 1.0;
            row
        };
        // Tie: 3 vs 3 → margin 0, winner is the lower index.
        let tie = Selection::from_scores(&[mk(1), mk(4), mk(1), mk(4), mk(1), mk(4)]);
        assert_eq!(tie.model, ModelId::from_index(1));
        assert_eq!(tie.margin, 0.0);
        // Unanimous: every window agrees → margin 1.
        let unanimous = Selection::from_scores(&[mk(7), mk(7), mk(7)]);
        assert_eq!(unanimous.model, ModelId::from_index(7));
        assert_eq!(unanimous.margin, 1.0);
        assert_eq!(unanimous.votes[7], 3);
        // Windowless: no votes → default model, margin 0.
        let empty = Selection::from_scores(&[]);
        assert_eq!(empty.model, ModelId::from_index(0));
        assert_eq!(empty.windows, 0);
        assert_eq!(empty.margin, 0.0);
        // Three-way 2/2/1 split over 5 windows → (2-2)/5 = 0.
        let split = Selection::from_scores(&[mk(3), mk(3), mk(9), mk(9), mk(0)]);
        assert_eq!(split.margin, 0.0);
        assert_eq!(split.model, ModelId::from_index(3));
        // Reference check against the replaced clone-and-sort computation.
        for scores in [
            vec![mk(2), mk(2), mk(5), mk(2)],
            vec![mk(1), mk(4), mk(1), mk(4), mk(1), mk(4)],
            vec![mk(7), mk(7), mk(7)],
            vec![mk(3), mk(3), mk(9), mk(9), mk(0)],
        ] {
            let s = Selection::from_scores(&scores);
            let mut sorted: Vec<usize> = s.votes.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let reference = (sorted[0] - sorted[1]) as f64 / scores.len() as f64;
            assert_eq!(s.margin, reference, "one-pass top-2 must equal full sort");
        }
    }

    #[test]
    fn windowless_series_selects_default_with_zero_margin() {
        let s = Selection::from_scores(&[]);
        assert_eq!(s.model, ModelId::from_index(0));
        assert_eq!(s.windows, 0);
        assert_eq!(s.margin, 0.0);
    }

    #[test]
    fn load_rejects_mismatched_window_length() {
        let dir = std::env::temp_dir().join(format!("kdsel-serve-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SelectorStore::open(&dir).unwrap();
        let model = TrainedSelector::build(Architecture::ConvNet, 64, 4, 1);
        store.save("w64", &model, "").unwrap();

        let engine = SelectorEngine::new();
        let bad = WindowConfig {
            length: 32,
            stride: 32,
            znormalize: true,
        };
        let err = engine.load(&store, "w64", bad).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(engine.is_empty(), "failed load must not register");

        let good = WindowConfig {
            length: 64,
            stride: 32,
            znormalize: true,
        };
        engine.load(&store, "w64", good).unwrap();
        assert_eq!(engine.names(), vec!["w64".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_attaches_the_engine_window_cache() {
        let dir = std::env::temp_dir().join(format!("kdsel-serve-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SelectorStore::open(&dir).unwrap();
        let model = TrainedSelector::build(Architecture::ConvNet, 32, 4, 5);
        store.save("cached", &model, "").unwrap();

        let engine = SelectorEngine::with_window_cache(8);
        let window = WindowConfig {
            length: 32,
            stride: 32,
            znormalize: true,
        };
        engine.load(&store, "cached", window).unwrap();
        let cache = Arc::clone(engine.window_cache().expect("configured"));
        assert_eq!(cache.stats().misses, 0);

        let batch: Vec<TimeSeries> = (0..3).map(|i| sine_series(i, 128)).collect();
        let cold = engine.select_batch("cached", &batch).unwrap();
        assert_eq!(cache.stats().misses, 3, "each series extracted once");
        let warm = engine.select_batch("cached", &batch).unwrap();
        assert_eq!(cold, warm, "hit path must be bit-identical to cold path");
        assert_eq!(cache.stats().hits, 3);
        assert_eq!(cache.stats().misses, 3, "no re-extraction on the hit path");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn check<T: Send + Sync>(_: &T) {}
        check(&test_engine());
    }

    #[test]
    fn deploy_validates_window_and_hot_swaps() {
        let engine = test_engine();
        let window = WindowConfig {
            length: 32,
            stride: 32,
            znormalize: true,
        };
        // Window mismatch is rejected and leaves the registry untouched.
        let wrong = TrainedSelector::build(Architecture::ConvNet, 64, 4, 21);
        let err = engine.deploy("convnet", wrong, window).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(engine.get("convnet").unwrap().name(), "convnet");

        // A matching model replaces the live entry; in-flight handles
        // keep serving the old version.
        let in_flight = engine.get("convnet").unwrap();
        let fresh = TrainedSelector::build(Architecture::ConvNet, 32, 4, 23);
        let reference = {
            let probe = NnSelector::new(
                "probe",
                TrainedSelector::build(Architecture::ConvNet, 32, 4, 23),
                window,
            );
            probe.series_scores(&sine_series(1, 96))
        };
        engine.deploy("convnet", fresh, window).unwrap();
        assert_eq!(engine.len(), 1, "deploy replaces, never duplicates");
        let swapped = engine.get("convnet").unwrap();
        assert_eq!(
            swapped.series_scores(&sine_series(1, 96)),
            reference,
            "deployed selector serves the new weights"
        );
        let _ = in_flight.series_scores(&sine_series(0, 96));
    }

    #[test]
    fn deploy_rejects_windows_below_the_architecture_minimum() {
        // A ConvNet at window 2 builds, but its second pool would panic in
        // the serving thread; deploy refuses it up front.
        let engine = test_engine();
        let window = WindowConfig {
            length: 2,
            stride: 2,
            znormalize: true,
        };
        let short = TrainedSelector::build(Architecture::ConvNet, 2, 4, 5);
        let err = engine.deploy("short", short, window).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(engine.get("short").is_none());
    }

    #[test]
    fn deploy_attaches_the_engine_window_cache() {
        let engine = SelectorEngine::with_window_cache(4);
        let window = WindowConfig {
            length: 32,
            stride: 32,
            znormalize: true,
        };
        let model = TrainedSelector::build(Architecture::ConvNet, 32, 4, 3);
        engine.deploy("cached", model, window).unwrap();
        let cache = Arc::clone(engine.window_cache().expect("configured"));
        let batch: Vec<TimeSeries> = (0..2).map(|i| sine_series(i, 128)).collect();
        engine.select_batch("cached", &batch).unwrap();
        assert_eq!(cache.stats().misses, 2);
        engine.select_batch("cached", &batch).unwrap();
        assert_eq!(cache.stats().hits, 2, "deployed selector uses the cache");
    }
}
