//! Selector evaluation — the paper's headline metric.
//!
//! A selector is scored by the AUC-PR *of the TSAD models it selects*: for
//! each test series, look up the detection performance of the chosen model
//! (computed once by [`crate::labels`]) and average per dataset family —
//! exactly the protocol behind Tables 1–3 and Fig. 4. [`BestSingle`] and
//! [`FamilyMajority`] are the reference rows: selectors fitted on the
//! training perf matrix alone and scored by the same [`evaluate`].

use crate::labels::PerfMatrix;
use crate::selector::Selector;
use tsad_models::ModelId;
use tsdata::TimeSeries;

/// Evaluation result of one selector over the test split.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EvalReport {
    /// Selector name.
    pub selector: String,
    /// `(dataset, mean AUC-PR)` per dataset family, in first-seen order.
    pub per_dataset: Vec<(String, f64)>,
    /// Model chosen per test series (aligned with the input order).
    pub selections: Vec<ModelId>,
}

impl EvalReport {
    /// Average AUC-PR across dataset families (the paper's bottom row).
    pub fn average_auc_pr(&self) -> f64 {
        if self.per_dataset.is_empty() {
            return 0.0;
        }
        self.per_dataset.iter().map(|(_, v)| v).sum::<f64>() / self.per_dataset.len() as f64
    }

    /// AUC-PR of a specific dataset family, if present.
    pub fn dataset_auc_pr(&self, dataset: &str) -> Option<f64> {
        self.per_dataset
            .iter()
            .find(|(d, _)| d == dataset)
            .map(|(_, v)| *v)
    }
}

/// Evaluates a selector on the test series against the test perf matrix.
///
/// Runs the whole test split through the selector's batch-first entry point
/// ([`Selector::select_batch`]), which fans out over `tspar`'s fixed
/// partitions — bit-identical to a per-series loop at any thread count.
///
/// # Panics
/// Panics if `perf` does not cover `test`.
pub fn evaluate(selector: &dyn Selector, test: &[TimeSeries], perf: &PerfMatrix) -> EvalReport {
    assert_eq!(
        perf.len(),
        test.len(),
        "perf matrix must cover the test set"
    );
    let selections = selector.select_batch(test);
    let mut sums: Vec<(String, f64, usize)> = Vec::new();
    for (i, (ts, &choice)) in test.iter().zip(&selections).enumerate() {
        let score = perf.perf_of(i, choice);
        match sums.iter_mut().find(|(d, _, _)| *d == ts.dataset) {
            Some((_, total, count)) => {
                *total += score;
                *count += 1;
            }
            None => sums.push((ts.dataset.clone(), score, 1)),
        }
    }
    EvalReport {
        selector: selector.name().to_string(),
        per_dataset: sums
            .into_iter()
            .map(|(d, t, c)| (d, t / c as f64))
            .collect(),
        selections,
    }
}

/// Model with the best mean AUC-PR over `rows`; ties break toward the
/// lower index. An empty iterator yields index 0.
fn best_mean<'a>(rows: impl IntoIterator<Item = &'a Vec<f64>>) -> ModelId {
    let mut sums = [0.0f64; ModelId::ALL.len()];
    let mut n = 0usize;
    for row in rows {
        for (sum, v) in sums.iter_mut().zip(row) {
            *sum += v;
        }
        n += 1;
    }
    let means = sums.map(|s| s / n.max(1) as f64);
    let mut best = 0;
    for (m, &mean) in means.iter().enumerate() {
        if mean > means[best] {
            best = m;
        }
    }
    ModelId::from_index(best)
}

/// One window row voting for `model`: a selector that never looks at the
/// samples scores every series with it.
fn one_hot(model: ModelId) -> Vec<Vec<f32>> {
    let mut row = vec![0.0f32; ModelId::ALL.len()];
    row[model.index()] = 1.0;
    vec![row]
}

/// The best single detector (MSAD's reference row): the detector with the
/// best mean AUC-PR on the *training* perf matrix, selected for every
/// series. Choosing it on the test split would pick it in hindsight.
#[derive(Debug, Clone)]
pub struct BestSingle {
    /// The chosen detector.
    pub model: ModelId,
}

impl BestSingle {
    /// Picks the detector from the training perf matrix.
    pub fn fit(train_perf: &PerfMatrix) -> Self {
        Self {
            model: best_mean(&train_perf.rows),
        }
    }
}

impl Selector for BestSingle {
    fn name(&self) -> &str {
        "Best single"
    }
    fn series_scores(&self, _ts: &TimeSeries) -> Vec<Vec<f32>> {
        one_hot(self.model)
    }
}

/// Family majority: for each series, the detector with the best mean
/// AUC-PR over the training series of its `dataset`, ties toward the lower
/// index. A family absent from training gets the [`BestSingle`] detector.
/// It reads the dataset name only, never a sample — a selector that loses
/// to it learns less from the samples than a lookup gets from the name.
#[derive(Debug, Clone)]
pub struct FamilyMajority {
    /// `(dataset, detector)` per training family, in first-seen order.
    pub families: Vec<(String, ModelId)>,
    fallback: ModelId,
}

impl FamilyMajority {
    /// Picks each family's detector from the training split.
    ///
    /// # Panics
    /// Panics if `train_perf` does not cover `train`.
    pub fn fit(train: &[TimeSeries], train_perf: &PerfMatrix) -> Self {
        assert_eq!(
            train_perf.len(),
            train.len(),
            "perf matrix must cover the training set"
        );
        let mut families: Vec<(String, ModelId)> = Vec::new();
        for ts in train {
            if families.iter().all(|(d, _)| *d != ts.dataset) {
                let rows = train
                    .iter()
                    .zip(&train_perf.rows)
                    .filter(|(s, _)| s.dataset == ts.dataset)
                    .map(|(_, row)| row);
                families.push((ts.dataset.clone(), best_mean(rows)));
            }
        }
        Self {
            families,
            fallback: BestSingle::fit(train_perf).model,
        }
    }
}

impl Selector for FamilyMajority {
    fn name(&self) -> &str {
        "Family majority"
    }
    fn series_scores(&self, ts: &TimeSeries) -> Vec<Vec<f32>> {
        let model = self
            .families
            .iter()
            .find(|(d, _)| *d == ts.dataset)
            .map_or(self.fallback, |&(_, m)| m);
        one_hot(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedSelector(usize);

    impl Selector for FixedSelector {
        fn name(&self) -> &str {
            "fixed"
        }
        fn series_scores(&self, _ts: &TimeSeries) -> Vec<Vec<f32>> {
            let mut row = vec![0.0f32; 12];
            row[self.0] = 1.0;
            vec![row]
        }
    }

    fn toy() -> (Vec<TimeSeries>, PerfMatrix) {
        let mk = |id: &str, ds: &str| TimeSeries::new(id, ds, vec![0.0; 50], vec![]);
        let series = vec![mk("a", "D1"), mk("b", "D1"), mk("c", "D2")];
        let mut rows = vec![vec![0.1; 12]; 3];
        rows[0][0] = 0.9; // model 0 great on series a
        rows[1][0] = 0.5;
        rows[2][3] = 0.8; // model 3 great on series c
        let perf = PerfMatrix {
            series_ids: series.iter().map(|s| s.id.clone()).collect(),
            rows,
        };
        (series, perf)
    }

    #[test]
    fn evaluate_groups_by_dataset() {
        let (series, perf) = toy();
        let sel = FixedSelector(0);
        let report = evaluate(&sel, &series, &perf);
        assert_eq!(report.per_dataset.len(), 2);
        assert!((report.dataset_auc_pr("D1").unwrap() - 0.7).abs() < 1e-12);
        assert!((report.dataset_auc_pr("D2").unwrap() - 0.1).abs() < 1e-12);
        assert!((report.average_auc_pr() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn oracle_beats_any_fixed_selector() {
        let (_, perf) = toy();
        for m in 0..12 {
            // Oracle mean is over series (not datasets), so compare on the
            // same scale: the fixed selector's series mean.
            let fixed_mean: f64 = (0..3)
                .map(|i| perf.perf_of(i, ModelId::from_index(m)))
                .sum::<f64>()
                / 3.0;
            assert!(perf.oracle_mean() >= fixed_mean - 1e-12);
        }
        assert_eq!(BestSingle::fit(&perf).model, ModelId::IForest);
    }

    #[test]
    fn best_single_is_chosen_on_the_training_matrix() {
        let (series, test_perf) = toy();
        // On the test rows model 0 is best; on the training rows model 5.
        let mut train_perf = test_perf.clone();
        for row in &mut train_perf.rows {
            row[5] = 0.95;
        }
        assert_eq!(BestSingle::fit(&test_perf).model, ModelId::from_index(0));
        let best = BestSingle::fit(&train_perf);
        assert_eq!(best.model, ModelId::from_index(5));
        let report = evaluate(&best, &series, &test_perf);
        assert!(report.selections.iter().all(|&m| m == best.model));
        assert!((report.average_auc_pr() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn family_majority_breaks_ties_toward_the_lower_index() {
        let (series, mut perf) = toy();
        // D1: models 2 and 7 tie on the family mean (0.6 over a and b).
        perf.rows[0] = vec![0.1; 12];
        perf.rows[1] = vec![0.1; 12];
        perf.rows[0][2] = 0.8;
        perf.rows[1][2] = 0.4;
        perf.rows[0][7] = 0.4;
        perf.rows[1][7] = 0.8;
        let fm = FamilyMajority::fit(&series, &perf);
        assert_eq!(
            fm.families,
            vec![
                ("D1".to_string(), ModelId::from_index(2)),
                ("D2".to_string(), ModelId::from_index(3)),
            ]
        );
        let report = evaluate(&fm, &series, &perf);
        assert_eq!(
            report.selections,
            vec![
                ModelId::from_index(2),
                ModelId::from_index(2),
                ModelId::from_index(3)
            ]
        );
        // An unseen family falls back to the best single detector.
        let unseen = TimeSeries::new("z", "D9", vec![0.0; 50], vec![]);
        assert_eq!(fm.select(&unseen), BestSingle::fit(&perf).model);
    }
}
