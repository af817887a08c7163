//! Deterministic fault injection for the sharded serving tier.
//!
//! The robustness machinery in [`super::router`] — supervision, respawn,
//! retries, breakers, degraded fallback — only earns trust if its failure
//! paths are *testable*, and testable here means **deterministic**: given
//! a seed and a fault schedule, a replay run must be bitwise-identical to
//! the live run (the `tests/serve_queue.rs` contract, extended to
//! failures). Clock-based or probabilistic fault injection cannot deliver
//! that, so this module scripts faults by **occurrence count** instead:
//!
//! * A [`FaultRule`] matches an interception point ([`FaultPoint`]) plus
//!   optional shard / selector filters, carries a [`FaultAction`], and
//!   fires on a bounded number of matches ([`FaultRule::times`]). "Panic
//!   the first 2 groups selector `a` serves on shard 1" is exact no matter
//!   how requests interleave, coalesce, or which `KD_THREADS` runs them.
//! * A [`FaultPlan`] is an ordered rule list; the first live matching rule
//!   fires per event. Plans are `Send + Sync` and shared across shards.
//!
//! A plan reaches the tier through
//! [`super::ShardedRouter::with_fault_injection`], which hands it to every
//! shard. Each shard consults it at two places, both always compiled (no
//! test-only feature to drift out of sync with production code paths):
//!
//! * Its [`super::ServeQueue`]: [`FaultPoint::Submit`] rejections at
//!   admission, and [`FaultPoint::Group`] panics/stalls on the worker
//!   thread — a Group panic escapes the scoring guard and **kills the
//!   shard worker**, which is exactly how supervision and respawn are
//!   exercised.
//! * A selector wrapper (`FaultySelector`) around every selector it
//!   registers: [`FaultPoint::Score`] panics/stalls inside scoring, which
//!   the per-group guard catches — the shard survives, the group fails
//!   with [`super::ServeError::Panicked`].

use crate::selector::Selector;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tsdata::TimeSeries;

/// What a firing fault does at its interception point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with the given message. At [`FaultPoint::Group`] this kills
    /// the shard worker (supervision territory); at [`FaultPoint::Score`]
    /// the group guard catches it (the shard survives).
    Panic(String),
    /// Sleep for the given duration before proceeding — a wedged worker
    /// ([`FaultPoint::Group`]) or a slow selector ([`FaultPoint::Score`])
    /// that blows deadline budgets.
    Stall(Duration),
    /// Refuse admission with [`super::ServeError::Rejected`]. Only
    /// meaningful at [`FaultPoint::Submit`]; ignored elsewhere.
    Reject,
}

/// Where in the request path a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Queue admission, before the request is enqueued.
    Submit,
    /// On the shard worker, after a coalesced group is claimed and before
    /// it is scored (outside the panic guard).
    Group,
    /// Inside the selector's per-series scoring kernel (inside the panic
    /// guard).
    Score,
}

/// One scripted fault: point + filters + action + occurrence budget.
#[derive(Debug)]
pub struct FaultRule {
    point: FaultPoint,
    shard: Option<usize>,
    selector: Option<String>,
    series: Option<String>,
    action: FaultAction,
    /// Remaining firings; `None` = unlimited.
    remaining: Option<AtomicU64>,
}

impl FaultRule {
    /// A rule firing `action` at `point`, unfiltered and unlimited until
    /// narrowed by the builder methods.
    pub fn at(point: FaultPoint, action: FaultAction) -> Self {
        Self {
            point,
            shard: None,
            selector: None,
            series: None,
            action,
            remaining: None,
        }
    }

    /// Restricts the rule to one shard index.
    pub fn on_shard(mut self, shard: usize) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Restricts the rule to one selector name.
    pub fn on_selector(mut self, selector: impl Into<String>) -> Self {
        self.selector = Some(selector.into());
        self
    }

    /// Restricts a [`FaultPoint::Score`] rule to one series id.
    pub fn on_series(mut self, series_id: impl Into<String>) -> Self {
        self.series = Some(series_id.into());
        self
    }

    /// Bounds the rule to its first `n` matches — the knob that makes
    /// schedules replayable ("fail twice, then succeed").
    pub fn times(mut self, n: u64) -> Self {
        self.remaining = Some(AtomicU64::new(n));
        self
    }

    /// Whether the rule matches the event; consumes one occurrence when it
    /// does.
    fn fire(
        &self,
        point: FaultPoint,
        shard: usize,
        selector: &str,
        series: Option<&str>,
    ) -> Option<FaultAction> {
        if self.point != point {
            return None;
        }
        if self.shard.is_some_and(|s| s != shard) {
            return None;
        }
        if self.selector.as_deref().is_some_and(|s| s != selector) {
            return None;
        }
        if let Some(want) = self.series.as_deref() {
            if series != Some(want) {
                return None;
            }
        }
        if let Some(remaining) = &self.remaining {
            // Claim one occurrence atomically; concurrent matchers race for
            // the budget but never over-fire. AcqRel on the claim (Acquire
            // on the loads) so a thread that observes the budget exhausted
            // also observes every effect of the faults that drained it —
            // callers branch on this value, so it is control flow, not a
            // stat counter.
            let mut cur = remaining.load(Ordering::Acquire);
            loop {
                if cur == 0 {
                    return None;
                }
                match remaining.compare_exchange_weak(
                    cur,
                    cur - 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        Some(self.action.clone())
    }
}

/// An ordered fault schedule: for each event the first rule that matches
/// (and still has occurrence budget) fires.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a rule (builder-style).
    pub fn with(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Appends a rule in place.
    pub fn push(&mut self, rule: FaultRule) {
        self.rules.push(rule);
    }

    fn first_firing(
        &self,
        point: FaultPoint,
        shard: usize,
        selector: &str,
        series: Option<&str>,
    ) -> Option<FaultAction> {
        self.rules
            .iter()
            .find_map(|rule| rule.fire(point, shard, selector, series))
    }

    /// Consulted at queue admission on `shard`. The queue acts only on
    /// `Reject`; any other action spends its occurrence and is ignored,
    /// since a panic or stall there would fault the submitter, not the
    /// shard.
    pub fn on_submit(&self, shard: usize, selector: &str) -> Option<FaultAction> {
        self.first_firing(FaultPoint::Submit, shard, selector, None)
    }

    /// Consulted on the shard worker after a group is claimed; a returned
    /// `Panic` kills the worker.
    pub fn on_group(&self, shard: usize, selector: &str) -> Option<FaultAction> {
        self.first_firing(FaultPoint::Group, shard, selector, None)
    }

    /// Consulted inside scoring for each series; a returned `Panic` fails
    /// the group (the worker survives).
    pub fn on_score(
        &self,
        shard: usize,
        selector: &str,
        series: &TimeSeries,
    ) -> Option<FaultAction> {
        self.first_firing(FaultPoint::Score, shard, selector, Some(&series.id))
    }
}

/// Executes a worker-side fault action (panics or sleeps). Shared by the
/// queue worker and [`FaultySelector`]; `Reject` is an admission-only
/// action and is ignored here.
pub(crate) fn run_action(action: FaultAction) {
    match action {
        FaultAction::Panic(msg) => panic!("{msg}"),
        FaultAction::Stall(d) => std::thread::sleep(d),
        FaultAction::Reject => {}
    }
}

/// A selector wrapper that consults a [`FaultPlan`] at
/// [`FaultPoint::Score`] before delegating to the wrapped selector — how a
/// shard's registered selectors become faulty without the engine, queue,
/// or scoring kernels knowing.
pub(crate) struct FaultySelector {
    inner: Arc<dyn Selector>,
    plan: Arc<FaultPlan>,
    shard: usize,
    registered: String,
}

impl FaultySelector {
    /// Wraps `inner` (registered as `registered` on shard `shard`) with
    /// `plan`.
    pub(crate) fn new(
        inner: Arc<dyn Selector>,
        plan: Arc<FaultPlan>,
        shard: usize,
        registered: impl Into<String>,
    ) -> Self {
        Self {
            inner,
            plan,
            shard,
            registered: registered.into(),
        }
    }
}

impl Selector for FaultySelector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn series_scores(&self, series: &TimeSeries) -> Vec<Vec<f32>> {
        if let Some(action) = self.plan.on_score(self.shard, &self.registered, series) {
            run_action(action);
        }
        self.inner.series_scores(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_filter_on_point_shard_selector_and_series() {
        let plan = FaultPlan::new().with(
            FaultRule::at(FaultPoint::Score, FaultAction::Reject)
                .on_shard(1)
                .on_selector("a")
                .on_series("s-3"),
        );
        let series = |id: &str| TimeSeries::new(id, "D", vec![0.0; 4], vec![]);
        assert!(plan.on_score(1, "a", &series("s-3")).is_some());
        assert!(plan.on_score(0, "a", &series("s-3")).is_none(), "shard");
        assert!(plan.on_score(1, "b", &series("s-3")).is_none(), "selector");
        assert!(plan.on_score(1, "a", &series("s-4")).is_none(), "series");
        assert!(plan.on_submit(1, "a").is_none(), "point");
        assert!(plan.on_group(1, "a").is_none(), "point");
    }

    #[test]
    fn occurrence_budget_bounds_firings_exactly() {
        let plan =
            FaultPlan::new().with(FaultRule::at(FaultPoint::Submit, FaultAction::Reject).times(2));
        assert!(plan.on_submit(0, "x").is_some());
        assert!(plan.on_submit(3, "y").is_some());
        assert!(plan.on_submit(0, "x").is_none(), "budget exhausted");
        assert!(plan.on_submit(0, "x").is_none());
    }

    #[test]
    fn first_matching_rule_wins_then_falls_through() {
        let plan = FaultPlan::new()
            .with(FaultRule::at(FaultPoint::Group, FaultAction::Panic("boom".into())).times(1))
            .with(FaultRule::at(
                FaultPoint::Group,
                FaultAction::Stall(Duration::from_millis(1)),
            ));
        assert_eq!(
            plan.on_group(0, "x"),
            Some(FaultAction::Panic("boom".into()))
        );
        // Rule 1 spent: rule 2 now matches, forever.
        assert_eq!(
            plan.on_group(0, "x"),
            Some(FaultAction::Stall(Duration::from_millis(1)))
        );
        assert_eq!(
            plan.on_group(5, "y"),
            Some(FaultAction::Stall(Duration::from_millis(1)))
        );
    }

    #[test]
    fn faulty_selector_panics_on_score_fault() {
        struct Flat;
        impl Selector for Flat {
            fn name(&self) -> &str {
                "flat"
            }
            fn series_scores(&self, _series: &TimeSeries) -> Vec<Vec<f32>> {
                vec![vec![1.0; 12]]
            }
        }
        let plan =
            Arc::new(FaultPlan::new().with(
                FaultRule::at(FaultPoint::Score, FaultAction::Panic("scored".into())).times(1),
            ));
        let faulty = FaultySelector::new(Arc::new(Flat), plan, 0, "flat");
        let series = TimeSeries::new("s", "D", vec![0.0; 4], vec![]);
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faulty.series_scores(&series)
        }));
        let _ = std::panic::take_hook();
        assert!(result.is_err(), "first score panics");
        // Budget spent: the wrapper now delegates cleanly.
        assert_eq!(faulty.series_scores(&series).len(), 1);
        assert_eq!(faulty.name(), "flat");
    }
}
