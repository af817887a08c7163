//! Property-based tests over the workspace's core invariants.

use kdselector::core::prune::{PruneState, PruningStrategy};
use kdselector::core::selector::majority_vote;
use kdselector::lsh::{hamming, SimHash};
use kdselector::metrics::{auc_pr, auc_roc};
use kdselector::nn::gemm::{gemm_naive, Layout};
use kdselector::nn::loss::{cross_entropy, info_nce, softmax_rows};
use kdselector::nn::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng as _;
use tsdata::{extract_windows, AnomalyInterval, AnomalyKind, TimeSeries, WindowConfig};

mod common;
use common::random_tensor;

/// `gemm_naive`'s `n×m` product of row-major `a` and `b` read through the
/// given layouts: the single-rounding fma chain per output element that
/// the blocked kernel documents.
fn fused_naive(
    n: usize,
    m: usize,
    k: usize,
    a: &Tensor,
    la: Layout,
    b: &Tensor,
    lb: Layout,
) -> Tensor {
    let mut c = Tensor::zeros(&[n, m]);
    gemm_naive(n, m, k, a.data(), la, b.data(), lb, c.data_mut());
    c
}

/// The blocked kernel and [`fused_naive`] run the same ascending-`p` fma
/// chain per output element, so they must agree bit for bit. The seed's
/// `Tensor::*_naive` kernels round the multiply and the add separately,
/// so they are an accuracy reference only.
fn assert_blocked_matches(blocked: &Tensor, fused: &Tensor, seed: &Tensor, what: &str) {
    assert_eq!(blocked.shape(), fused.shape(), "{what} shape");
    for (i, (&x, &y)) in blocked.data().iter().zip(fused.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what} diverges at {i}: blocked {x} vs fused naive {y}"
        );
    }
    for (i, (&x, &y)) in blocked.data().iter().zip(seed.data()).enumerate() {
        assert!(
            (x - y).abs() <= 1e-5,
            "{what} drifts from the seed kernel at {i}: blocked {x} vs seed {y}"
        );
    }
}

fn scores_and_labels() -> impl Strategy<Value = (Vec<f64>, Vec<bool>)> {
    proptest::collection::vec((0.0f64..1.0, proptest::bool::ANY), 2..200)
        .prop_map(|v| v.into_iter().unzip())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn auc_metrics_are_bounded((scores, labels) in scores_and_labels()) {
        let pr = auc_pr(&scores, &labels);
        let roc = auc_roc(&scores, &labels);
        prop_assert!((0.0..=1.0).contains(&pr), "pr={pr}");
        prop_assert!((0.0..=1.0).contains(&roc), "roc={roc}");
    }

    #[test]
    fn auc_invariant_under_monotone_transform((scores, labels) in scores_and_labels()) {
        let transformed: Vec<f64> = scores.iter().map(|s| s * 3.0 + 10.0).collect();
        let a = auc_pr(&scores, &labels);
        let b = auc_pr(&transformed, &labels);
        prop_assert!((a - b).abs() < 1e-9);
        let c = auc_roc(&scores, &labels);
        let d = auc_roc(&transformed, &labels);
        prop_assert!((c - d).abs() < 1e-9);
    }

    #[test]
    fn perfect_ranking_maximises_auc(n_pos in 1usize..20, n_neg in 1usize..20) {
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_pos {
            scores.push(10.0 + i as f64);
            labels.push(true);
        }
        for i in 0..n_neg {
            scores.push(-(i as f64));
            labels.push(false);
        }
        prop_assert!((auc_pr(&scores, &labels) - 1.0).abs() < 1e-12);
        prop_assert!((auc_roc(&scores, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn simhash_scale_invariance(v in proptest::collection::vec(-100.0f64..100.0, 8..32),
                                scale in 0.01f64..50.0) {
        let h = SimHash::new(v.len(), 14, 5);
        let scaled: Vec<f64> = v.iter().map(|x| x * scale).collect();
        prop_assert_eq!(h.hash(&v), h.hash(&scaled));
    }

    #[test]
    fn simhash_hamming_symmetric(a in proptest::collection::vec(-10.0f64..10.0, 16),
                                 b in proptest::collection::vec(-10.0f64..10.0, 16)) {
        let h = SimHash::new(16, 12, 1);
        let (sa, sb) = (h.hash(&a), h.hash(&b));
        prop_assert_eq!(hamming(sa, sb), hamming(sb, sa));
        prop_assert_eq!(hamming(sa, sa), 0);
    }

    #[test]
    fn windows_have_requested_length(len in 10usize..300, wl in 4usize..64, stride in 1usize..32) {
        let ts = TimeSeries::new("p", "D", (0..len).map(|i| i as f64).collect(), vec![]);
        let cfg = WindowConfig { length: wl, stride, znormalize: false };
        let ws = extract_windows(&ts, 0, &cfg);
        prop_assert!(!ws.is_empty());
        for w in &ws {
            prop_assert_eq!(w.values.len(), wl);
        }
        // Tail coverage: the last point of the series is inside some window.
        if len >= wl {
            let covered = ws.iter().any(|w| w.start + wl >= len);
            prop_assert!(covered);
        }
    }

    #[test]
    fn majority_vote_valid_and_permutation_invariant(
        votes in proptest::collection::vec(0usize..12, 1..50)
    ) {
        let winner = majority_vote(&votes, 12);
        prop_assert!(winner < 12);
        let mut reversed = votes.clone();
        reversed.reverse();
        prop_assert_eq!(winner, majority_vote(&reversed, 12));
    }

    #[test]
    fn softmax_rows_are_distributions(
        rows in proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, 12), 1..8)
    ) {
        let n = rows.len();
        let t = Tensor::from_rows(&rows);
        let s = softmax_rows(&t);
        for i in 0..n {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn cross_entropy_nonnegative_and_grad_rows_sum_to_zero(
        rows in proptest::collection::vec(proptest::collection::vec(-5.0f32..5.0, 6), 1..8),
        seed in 0usize..6
    ) {
        let n = rows.len();
        let targets: Vec<usize> = (0..n).map(|i| (i + seed) % 6).collect();
        let logits = Tensor::from_rows(&rows);
        let out = cross_entropy(&logits, &targets, None);
        prop_assert!(out.loss >= 0.0);
        for i in 0..n {
            let row_sum: f32 = out.grad.row(i).iter().sum();
            prop_assert!(row_sum.abs() < 1e-5, "row {i} sums to {row_sum}");
        }
    }

    #[test]
    fn info_nce_nonnegative(
        zt in proptest::collection::vec(proptest::collection::vec(-3.0f32..3.0, 8), 2..10)
    ) {
        let n = zt.len();
        let zk: Vec<Vec<f32>> =
            zt.iter().map(|r| r.iter().map(|v| v * 0.5 + 0.1).collect()).collect();
        let (loss, per_sample, _, _) =
            info_nce(&Tensor::from_rows(&zt), &Tensor::from_rows(&zk), 0.2, None);
        prop_assert!(loss >= -1e-9, "loss={loss}");
        prop_assert_eq!(per_sample.len(), n);
        prop_assert!(per_sample.iter().all(|&l| l >= -1e-9));
    }

    #[test]
    fn prune_plans_are_valid(n in 10usize..300, ratio in 0.1f64..0.95) {
        let mut st = PruneState::new(
            PruningStrategy::InfoBatch { ratio, anneal: 0.0 },
            None,
            n,
            9,
        );
        let idx: Vec<usize> = (0..n).collect();
        let losses: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        st.record_losses(&idx, &losses);
        let plan = st.plan_epoch(1, 10);
        // Indices unique and in range.
        let mut seen = std::collections::BTreeSet::new();
        for &i in &plan.indices {
            prop_assert!(i < n);
            prop_assert!(seen.insert(i), "duplicate index {i}");
        }
        // Weights are 1 or the rescale factor.
        let rescale = (1.0 / (1.0 - ratio)) as f32;
        for &w in &plan.weights {
            prop_assert!((w - 1.0).abs() < 1e-5 || (w - rescale).abs() < 1e-4);
        }
    }

    #[test]
    fn blocked_kernels_match_naive_reference(
        n in 1usize..48,
        m in 1usize..48,
        k in 1usize..80,
        seed in 0u64..10_000,
    ) {
        // Rectangular and degenerate shapes (dims of 1, non-multiples of
        // the register tile) across all three products.
        let mut rng = StdRng::seed_from_u64(seed);
        let (nl, tr) = (Layout::Normal, Layout::Transposed);
        let a = random_tensor(&mut rng, &[n, k]);
        let b = random_tensor(&mut rng, &[k, m]);
        let fused = fused_naive(n, m, k, &a, nl, &b, nl);
        assert_blocked_matches(&a.matmul(&b), &fused, &a.matmul_naive(&b), "matmul");

        let at = random_tensor(&mut rng, &[k, n]); // (k,n)ᵀ × (k,m)
        let fused = fused_naive(n, m, k, &at, tr, &b, nl);
        assert_blocked_matches(&at.t_matmul(&b), &fused, &at.t_matmul_naive(&b), "t_matmul");

        let bt = random_tensor(&mut rng, &[m, k]); // (n,k) × (m,k)ᵀ
        let fused = fused_naive(n, m, k, &a, nl, &bt, tr);
        assert_blocked_matches(&a.matmul_t(&bt), &fused, &a.matmul_t_naive(&bt), "matmul_t");
    }

    #[test]
    fn point_labels_match_interval_mass(
        starts in proptest::collection::vec(0usize..180, 0..5),
        len in 1usize..20
    ) {
        let intervals: Vec<AnomalyInterval> = starts
            .iter()
            .map(|&s| AnomalyInterval { start: s, end: s + len, kind: AnomalyKind::Spike })
            .collect();
        let ts = TimeSeries::new("p", "D", vec![0.0; 200], intervals);
        let labeled = ts.point_labels().iter().filter(|&&b| b).count();
        let mass: usize = ts.anomaly_lengths().iter().sum();
        prop_assert_eq!(labeled, mass, "merged intervals must agree with labels");
    }
}
