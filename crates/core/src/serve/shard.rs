//! One shard of the sharded serving tier: a private [`SelectorEngine`] +
//! [`ServeQueue`] pair, plus the bookkeeping that lets the supervisor
//! replace a dead or wedged worker without losing registered state or
//! admitted requests.
//!
//! The key idea is that a shard's *identity* is not its worker thread but
//! its **selector specs**: every selector registered on a shard is kept as
//! a re-creatable [`SelectorSpec`] (a store + window config for persisted
//! NN selectors, or a shared handle for in-memory ones). When the
//! supervisor respawns the shard, it builds a fresh engine, re-installs
//! every spec, transplants the dead worker's admitted-but-unserved backlog
//! onto the new queue, and bumps the generation counter. Because saved
//! selectors round-trip bitwise through [`SelectorStore`] and scoring is
//! deterministic, a respawned shard serves **bit-identical** `Selection`s
//! to its predecessor — worker death is invisible in the data plane.

use super::fault::{run_action, FaultAction, FaultInjector, FaultySelector};
use super::queue::{QueueConfig, QueueHook, QueueStats};
use super::{SelectorEngine, ServeError, ServeQueue};
use crate::manage::SelectorStore;
use crate::selector::Selector;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tsdata::WindowConfig;

/// A re-creatable description of one registered selector — everything a
/// respawned shard needs to rebuild its engine registry.
#[derive(Clone)]
pub enum SelectorSpec {
    /// A persisted NN selector: reloaded from the store on every install,
    /// so registered state survives worker death as long as the store
    /// does.
    Stored {
        /// The store holding the selector's manifest + weights.
        store: SelectorStore,
        /// The serving window configuration.
        window: WindowConfig,
    },
    /// An in-memory selector shared by handle (e.g. a `nonnn` baseline or
    /// a just-trained deployment). Survives respawn because the spec keeps
    /// the `Arc` alive outside the shard's engine.
    Inline {
        /// The shared selector handle.
        selector: Arc<dyn Selector>,
    },
}

impl std::fmt::Debug for SelectorSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectorSpec::Stored { store, window } => f
                .debug_struct("Stored")
                .field("dir", &store.dir())
                .field("window", window)
                .finish(),
            SelectorSpec::Inline { selector } => f
                .debug_struct("Inline")
                .field("name", &selector.name())
                .finish(),
        }
    }
}

/// The live half of a shard, replaced wholesale on respawn.
struct ShardState {
    engine: Arc<SelectorEngine>,
    queue: Arc<ServeQueue>,
    /// Selector specs owned by this shard, keyed by registered name.
    specs: BTreeMap<String, SelectorSpec>,
    /// Incremented on every respawn (generation 0 is the original worker).
    generation: u64,
    /// Queue counters accumulated from retired worker generations.
    retired_stats: QueueStats,
}

/// Bridges the shard's [`FaultInjector`] into the queue's [`QueueHook`]
/// seam, stamping events with the shard index.
struct ShardHook {
    shard: usize,
    injector: Arc<dyn FaultInjector>,
}

impl QueueHook for ShardHook {
    fn on_submit(&self, selector: &str) -> Option<ServeError> {
        match self.injector.on_submit(self.shard, selector) {
            Some(FaultAction::Reject) => Some(ServeError::Rejected),
            Some(other) => {
                // Panic/stall at admission would fault the *submitter*,
                // not the shard; run worker-side actions on the worker
                // only. Treat them as no-ops here.
                let _ = other;
                None
            }
            None => None,
        }
    }

    fn on_group(&self, selector: &str) {
        if let Some(action) = self.injector.on_group(self.shard, selector) {
            // Panics escape the queue's scoring guard by design: this is
            // the worker-death fault. Stalls wedge the heartbeat.
            run_action(action);
        }
    }
}

/// One supervised shard: engine + queue + respawnable registry.
pub(crate) struct Shard {
    index: usize,
    queue_config: QueueConfig,
    cache_capacity: usize,
    injector: Option<Arc<dyn FaultInjector>>,
    state: Mutex<ShardState>,
}

impl Shard {
    pub(crate) fn new(
        index: usize,
        queue_config: QueueConfig,
        cache_capacity: usize,
        injector: Option<Arc<dyn FaultInjector>>,
    ) -> Self {
        let engine = Self::fresh_engine(cache_capacity);
        let queue = Self::fresh_queue(index, &engine, queue_config, injector.as_ref());
        Self {
            index,
            queue_config,
            cache_capacity,
            injector,
            state: Mutex::new(ShardState {
                engine,
                queue,
                specs: BTreeMap::new(),
                generation: 0,
                retired_stats: QueueStats::default(),
            }),
        }
    }

    fn fresh_engine(cache_capacity: usize) -> Arc<SelectorEngine> {
        Arc::new(if cache_capacity > 0 {
            SelectorEngine::with_window_cache(cache_capacity)
        } else {
            SelectorEngine::new()
        })
    }

    fn fresh_queue(
        index: usize,
        engine: &Arc<SelectorEngine>,
        config: QueueConfig,
        injector: Option<&Arc<dyn FaultInjector>>,
    ) -> Arc<ServeQueue> {
        Arc::new(match injector {
            Some(injector) => ServeQueue::with_hook(
                Arc::clone(engine),
                config,
                Arc::new(ShardHook {
                    shard: index,
                    injector: Arc::clone(injector),
                }),
            ),
            None => ServeQueue::new(Arc::clone(engine), config),
        })
    }

    /// Builds the servable selector a spec describes and registers it on
    /// `engine`, wrapping it with the shard's fault injector if one is
    /// installed.
    fn install_on(
        &self,
        engine: &Arc<SelectorEngine>,
        name: &str,
        spec: &SelectorSpec,
    ) -> std::io::Result<()> {
        match spec {
            SelectorSpec::Stored { store, window } => {
                // `load` on the engine attaches its window cache and
                // validates the window length; but with an injector the
                // selector must be wrapped, so build it by hand the same
                // way `SelectorEngine::deploy` does.
                match &self.injector {
                    None => engine.load(store, name, *window),
                    Some(injector) => {
                        let model = store.load(name)?;
                        super::check_servable_window(name, &model, window)?;
                        let mut selector =
                            crate::selector::NnSelector::new(name.to_string(), model, *window);
                        if let Some(cache) = engine.window_cache() {
                            selector = selector.with_cache(Arc::clone(cache));
                        }
                        engine.register(
                            name,
                            Arc::new(FaultySelector::new(
                                Arc::new(selector),
                                Arc::clone(injector),
                                self.index,
                                name,
                            )),
                        );
                        Ok(())
                    }
                }
            }
            SelectorSpec::Inline { selector } => {
                let servable: Arc<dyn Selector> = match &self.injector {
                    None => Arc::clone(selector),
                    Some(injector) => Arc::new(FaultySelector::new(
                        Arc::clone(selector),
                        Arc::clone(injector),
                        self.index,
                        name,
                    )),
                };
                engine.register(name, servable);
                Ok(())
            }
        }
    }

    /// Registers a spec on the live engine and records it for respawn.
    pub(crate) fn register(&self, name: &str, spec: SelectorSpec) -> std::io::Result<()> {
        let mut st = self.state.lock().unwrap();
        self.install_on(&st.engine, name, &spec)?;
        st.specs.insert(name.to_string(), spec);
        Ok(())
    }

    /// Unregisters a selector from the live engine and the respawn set.
    pub(crate) fn unregister(&self, name: &str) -> bool {
        let mut st = self.state.lock().unwrap();
        st.engine.unregister(name);
        st.specs.remove(name).is_some()
    }

    /// The live queue (for submits). A clone of the `Arc`, so a respawn
    /// happening after this call leaves the caller holding the retiring
    /// queue — submits to it fail with `WorkerDied`/`ShuttingDown`, which
    /// the router's retry loop absorbs by re-fetching.
    pub(crate) fn queue(&self) -> Arc<ServeQueue> {
        Arc::clone(&self.state.lock().unwrap().queue)
    }

    pub(crate) fn generation(&self) -> u64 {
        self.state.lock().unwrap().generation
    }

    pub(crate) fn selector_names(&self) -> Vec<String> {
        self.state.lock().unwrap().specs.keys().cloned().collect()
    }

    pub(crate) fn has_selector(&self, name: &str) -> bool {
        self.state.lock().unwrap().specs.contains_key(name)
    }

    /// Lifetime queue counters across all worker generations.
    pub(crate) fn stats(&self) -> QueueStats {
        let st = self.state.lock().unwrap();
        st.retired_stats.merge(&st.queue.stats())
    }

    /// Liveness of the current worker generation.
    pub(crate) fn is_alive(&self) -> bool {
        self.state.lock().unwrap().queue.is_alive()
    }

    /// Supervisor probe: (heartbeat, has_work, depth) of the live queue.
    pub(crate) fn probe(&self) -> (u64, bool, usize) {
        let queue = self.queue();
        (queue.heartbeat(), queue.has_work(), queue.depth())
    }

    /// Replaces the worker: retires the current engine + queue (detaching
    /// a possibly-wedged worker thread rather than joining it), rebuilds
    /// the registry from the recorded specs, and transplants the retired
    /// queue's admitted-but-unserved backlog onto the new queue in FIFO
    /// order. Specs that fail to rebuild (e.g. store deleted out from
    /// under the shard) are dropped from the registry — their requests
    /// surface `UnknownSelector`, a typed error, rather than wedging the
    /// respawn.
    pub(crate) fn respawn(&self) {
        let mut st = self.state.lock().unwrap();
        // Retire the old worker without joining: it may be wedged (stalled
        // in a fault action) and the supervisor must not block on it. The
        // shutdown flag makes it exit — completing claimed tickets — when
        // it unblocks; a worker that *died* is already gone.
        st.queue.begin_shutdown();
        let backlog = st.queue.take_backlog();
        st.queue.detach_worker();
        st.retired_stats = st.retired_stats.merge(&st.queue.stats());

        let engine = Self::fresh_engine(self.cache_capacity);
        for (name, spec) in &st.specs {
            if let Err(err) = self.install_on(&engine, name, spec) {
                // Typed-error degradation beats a respawn loop that can
                // never succeed; the router's health view shows the gap.
                let _ = err;
            }
        }
        let queue = Self::fresh_queue(
            self.index,
            &engine,
            self.queue_config,
            self.injector.as_ref(),
        );
        for pending in backlog {
            queue.resubmit(pending);
        }
        st.engine = engine;
        st.queue = queue;
        st.generation += 1;
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap();
        f.debug_struct("Shard")
            .field("index", &self.index)
            .field("generation", &st.generation)
            .field("selectors", &st.specs.keys().collect::<Vec<_>>())
            .field("alive", &st.queue.is_alive())
            .finish()
    }
}
