//! The selector protocol and majority voting (§2 of the paper).
//!
//! Redesigned around **immutability and batching**: a trained selector is a
//! read-only inference artefact (`&self` everywhere, `Send + Sync`), and the
//! primary entry point is batch-first — [`Selector::window_scores`] maps a
//! batch of series to per-window class *scores* (not just argmax votes).
//! Per-series votes, per-series selection and batched selection are all
//! derived from that one kernel, so every path — single series, batch,
//! [`crate::serve::SelectorEngine`] — produces bit-identical decisions.
//!
//! The default batch implementation fans the per-series kernel out over
//! [`tspar`]'s fixed work partitions, executed on the persistent worker
//! pool: results are bit-identical at any `KD_THREADS` setting because
//! each series is scored independently and the partition boundaries never
//! depend on the worker count.

use crate::serve::WindowCache;
use crate::train::TrainedSelector;
use std::sync::Arc;
use tsad_models::ModelId;
use tsdata::{extract_windows, TimeSeries, WindowConfig};

/// A TSAD model selector: predicts the best model for a series.
///
/// Implementors provide [`Selector::series_scores`] — per-window class
/// scores for one series — and inherit batched scoring, voting and
/// selection. All methods take `&self`; a selector must be shareable across
/// serving threads (`Send + Sync`).
pub trait Selector: Send + Sync {
    /// Display name, e.g. `"ResNet"` or `"Ours"`.
    fn name(&self) -> &str;

    /// Per-window class scores for one series: one row per window, one
    /// column per model in [`ModelId::ALL`] order. Higher is better; the
    /// row argmax is the window's vote. Series too short for a single
    /// window yield an empty matrix.
    ///
    /// Scores need not be finite: vote derivation uses [`argmax`], whose
    /// contract is pinned — ties keep the lowest index, `NaN` scores are
    /// ignored, and an all-`NaN` row votes for index 0 — so a selector
    /// emitting `NaN`s degrades deterministically instead of making the
    /// winner depend on score order.
    fn series_scores(&self, ts: &TimeSeries) -> Vec<Vec<f32>>;

    /// Batch-first entry point: scores for every series in the batch,
    /// preserving order. The default fans [`Selector::series_scores`] out
    /// over [`tspar::par_map`]'s fixed partitions (which depend only on
    /// the count), so it is bit-identical to the serial per-series loop at
    /// any thread count. It takes borrowed series so the serving queue's
    /// coalescer can merge requests with zero series copies. Override it
    /// only to batch work across series (as [`NnSelector`] does), keeping
    /// the default's results bit for bit.
    ///
    /// Every serving path ([`crate::serve::SelectorEngine`], the queue,
    /// the router's fallback) goes through this one method, and rejects a
    /// result with a different number of score sets than series as
    /// [`crate::serve::ServeError::MalformedOutput`].
    fn window_scores(&self, batch: &[&TimeSeries]) -> Vec<Vec<Vec<f32>>> {
        tspar::par_map(batch.len(), |i| self.series_scores(batch[i]))
    }

    /// Per-window class votes for one series (row argmax of the scores).
    fn window_votes(&self, ts: &TimeSeries) -> Vec<usize> {
        self.series_scores(ts)
            .iter()
            .map(|row| argmax(row))
            .collect()
    }

    /// Selects a model for a series by majority vote over its windows
    /// (ties break toward the lower model index, deterministically).
    fn select(&self, ts: &TimeSeries) -> ModelId {
        let votes = self.window_votes(ts);
        ModelId::from_index(majority_vote(&votes, ModelId::ALL.len()))
    }

    /// Selects a model for every series in the batch. Derived from the
    /// batched scores, so it matches per-series [`Selector::select`] calls
    /// exactly.
    fn select_batch(&self, batch: &[TimeSeries]) -> Vec<ModelId> {
        self.window_scores(&batch.iter().collect::<Vec<_>>())
            .iter()
            .map(|scores| {
                let votes: Vec<usize> = scores.iter().map(|row| argmax(row)).collect();
                ModelId::from_index(majority_vote(&votes, ModelId::ALL.len()))
            })
            .collect()
    }
}

/// Row argmax with the workspace's canonical semantics: one forward scan
/// where only a strictly greater score displaces the incumbent, so the
/// **first** greatest score wins (ties keep the lowest index) and `NaN`
/// scores are skipped — `NaN` never compares greater than anything,
/// including the `NEG_INFINITY` the scan starts from. An all-`NaN` or
/// empty row deterministically selects index 0. The previous `max_by`
/// formulation mapped incomparable pairs to `Equal`, which made the
/// winner under `NaN`s depend on where they sat in the row. Every vote
/// derivation in the crate goes through this one function so batched and
/// per-series paths can never disagree.
pub fn argmax(row: &[f32]) -> usize {
    let mut best = f32::NEG_INFINITY;
    let mut idx = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > best {
            best = v;
            idx = i;
        }
    }
    idx
}

/// Tallies votes per class, ignoring out-of-range votes.
pub fn vote_counts(votes: &[usize], n_classes: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n_classes];
    for &v in votes {
        if v < n_classes {
            counts[v] += 1;
        }
    }
    counts
}

/// The winning class of a tally, with deterministic low-index tie-break.
/// The single majority rule every selection path shares — trait-derived
/// `select`, batched `select_batch`, and the serving layer's
/// [`crate::serve::Selection`] all go through here.
pub fn majority_winner(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Majority vote with deterministic low-index tie-break.
pub fn majority_vote(votes: &[usize], n_classes: usize) -> usize {
    majority_winner(&vote_counts(votes, n_classes))
}

/// An NN selector: a trained encoder+classifier plus window preprocessing.
///
/// Inference runs through [`TrainedSelector::predict_logits`]'s immutable
/// path, so an `NnSelector` is `Send + Sync` and can serve concurrent
/// batches without cloning the network.
pub struct NnSelector {
    /// Display name.
    pub label: String,
    /// The trained network.
    pub model: TrainedSelector,
    /// Window extraction used at inference (must match training).
    pub window_cfg: WindowConfig,
    /// Optional shared window-extraction cache: repeat series (keyed by
    /// content + window config, never by id) skip re-windowing and
    /// z-normalisation. A hit returns the exact matrix the cold path
    /// built, so caching can never change scores.
    cache: Option<Arc<WindowCache>>,
}

impl NnSelector {
    /// Wraps a trained model.
    pub fn new(label: impl Into<String>, model: TrainedSelector, window_cfg: WindowConfig) -> Self {
        Self {
            label: label.into(),
            model,
            window_cfg,
            cache: None,
        }
    }

    /// Attaches a shared window-extraction cache (see
    /// [`crate::serve::WindowCache`] for the keying contract).
    pub fn with_cache(mut self, cache: Arc<WindowCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached window cache, if any.
    pub fn cache(&self) -> Option<&Arc<WindowCache>> {
        self.cache.as_ref()
    }

    fn extract(&self, ts: &TimeSeries) -> Vec<Vec<f32>> {
        kdprof::span!(kdprof::Phase::Window);
        let out: Vec<Vec<f32>> = extract_windows(ts, 0, &self.window_cfg)
            .into_iter()
            .map(|w| w.values)
            .collect();
        kdprof::incr(kdprof::Counter::WindowsBuilt, out.len() as u64);
        out
    }

    /// The cache-aware window matrix for one series: a shared hit, or a
    /// freshly extracted (and, with a cache, inserted) matrix. Hits return
    /// the exact matrix the cold path built, so caching never changes
    /// scores.
    fn windows_for(&self, ts: &TimeSeries) -> Arc<Vec<Vec<f32>>> {
        match &self.cache {
            Some(cache) => cache.get_or_insert(ts, &self.window_cfg, || self.extract(ts)),
            None => Arc::new(self.extract(ts)),
        }
    }
}

impl Selector for NnSelector {
    fn name(&self) -> &str {
        &self.label
    }

    // kdprof: hot
    fn series_scores(&self, ts: &TimeSeries) -> Vec<Vec<f32>> {
        kdprof::incr(kdprof::Counter::SeriesScored, 1);
        if self.cache.is_some() {
            let windows = self.windows_for(ts);
            if windows.is_empty() {
                return Vec::new();
            }
            let rows: Vec<&[f32]> = windows.iter().map(Vec::as_slice).collect();
            return self.model.predict_logits_rows(&rows);
        }
        // Uncached single-series path: window buffers come from this
        // thread's scratch arena and return to it after scoring, so
        // repeated uncached selections re-window allocation-free. The
        // arena borrow is released before prediction (which pools its own
        // staging through the same arena) and re-taken to return buffers.
        let mut windows: Vec<Vec<f32>> = Vec::new();
        {
            kdprof::span!(kdprof::Phase::Window);
            crate::serve::arena::with_arena(|a| {
                tsdata::extract_window_values_into(
                    ts,
                    &self.window_cfg,
                    || a.take_window_buf(),
                    &mut windows,
                );
            });
        }
        kdprof::incr(kdprof::Counter::WindowsBuilt, windows.len() as u64);
        if windows.is_empty() {
            return Vec::new();
        }
        let rows: Vec<&[f32]> = windows.iter().map(Vec::as_slice).collect();
        let scores = self.model.predict_logits_rows(&rows);
        crate::serve::arena::with_arena(|a| a.put_window_bufs(windows));
        scores
    }

    /// Group-batched scoring: gather every series' window matrix (in
    /// parallel, cache-aware), then run **one** chunked forward pass over
    /// the concatenated window rows and split the logits back per series.
    /// Batching per-window rows across series amortises the per-layer
    /// dispatch overhead the per-series default pays once per series.
    ///
    /// Bit-identical to the default (`series_scores` per series): every
    /// layer of the forward pass is per-batch-element independent, the
    /// GEMM kernels are row-independent with all dispatch variants pinned
    /// bitwise-equal, and `tests/serve_arena.rs` pins grouped ≡ per-series
    /// directly.
    // kdprof: hot
    fn window_scores(&self, batch: &[&TimeSeries]) -> Vec<Vec<Vec<f32>>> {
        if batch.is_empty() {
            return Vec::new();
        }
        kdprof::incr(kdprof::Counter::SeriesScored, batch.len() as u64);
        let per_series: Vec<Arc<Vec<Vec<f32>>>> =
            tspar::par_map(batch.len(), |i| self.windows_for(batch[i]));
        let rows: Vec<&[f32]> = per_series
            .iter()
            .flat_map(|w| w.iter().map(Vec::as_slice))
            .collect();
        if rows.is_empty() {
            return vec![Vec::new(); batch.len()];
        }
        let mut scores = self.model.predict_logits_rows(&rows).into_iter();
        per_series
            .iter()
            .map(|w| scores.by_ref().take(w.len()).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_vote_picks_mode() {
        assert_eq!(majority_vote(&[1, 2, 2, 3, 2], 12), 2);
    }

    #[test]
    fn majority_vote_tie_breaks_low_index() {
        assert_eq!(majority_vote(&[5, 3, 5, 3], 12), 3);
    }

    #[test]
    fn majority_vote_empty_defaults_to_zero() {
        assert_eq!(majority_vote(&[], 12), 0);
    }

    #[test]
    fn out_of_range_votes_ignored() {
        assert_eq!(majority_vote(&[99, 99, 1], 12), 1);
    }

    #[test]
    fn argmax_picks_peak() {
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    /// A selector whose scores are a fixed ramp per window.
    struct Ramp;

    impl Selector for Ramp {
        fn name(&self) -> &str {
            "ramp"
        }
        fn series_scores(&self, ts: &TimeSeries) -> Vec<Vec<f32>> {
            // One "window" per 10 points; class (len/10 % 12) peaks.
            let w = ts.len() / 10;
            (0..w)
                .map(|_| {
                    let mut row = vec![0.0f32; 12];
                    row[(ts.len() / 10) % 12] = 1.0;
                    row
                })
                .collect()
        }
    }

    #[test]
    fn batched_selection_matches_per_series() {
        let batch: Vec<TimeSeries> = (1..7)
            .map(|i| TimeSeries::new(format!("s{i}"), "D", vec![0.0; i * 17], vec![]))
            .collect();
        let sel = Ramp;
        let batched = sel.select_batch(&batch);
        let serial: Vec<ModelId> = batch.iter().map(|ts| sel.select(ts)).collect();
        assert_eq!(batched, serial);
        // Trait-object path agrees too.
        let dyn_sel: &dyn Selector = &sel;
        assert_eq!(dyn_sel.select_batch(&batch), serial);
    }

    #[test]
    fn window_scores_preserves_batch_order() {
        let batch: Vec<TimeSeries> = (1..5)
            .map(|i| TimeSeries::new(format!("s{i}"), "D", vec![0.0; i * 10], vec![]))
            .collect();
        let scores = Ramp.window_scores(&batch.iter().collect::<Vec<_>>());
        assert_eq!(scores.len(), 4);
        for (i, s) in scores.iter().enumerate() {
            assert_eq!(s.len(), i + 1, "series {i} window count");
        }
    }
}
