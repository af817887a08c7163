//! Order statistics for reported timings.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A tail percentile together with the sample counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.0`.
    pub percentile: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Percentiles tried from the highest down, capped at p99.
const TAIL_CANDIDATES: [f64; 7] = [99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples a tail percentile needs beyond its rank to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile (at most p99) that has at least [`MIN_BEYOND`]
/// samples beyond its nearest rank. `None` when even the median has fewer
/// (fewer than 20 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let rank = nearest_rank(p, n)?;
        let beyond = n - 1 - rank;
        (beyond >= MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: s[rank],
            beyond,
            samples: n,
        })
    })
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers have to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1100 samples: rank of p99 is 1089 (value 1089), 11 beyond it.
        let t = tail(&ramp(1100)).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 1089.0);
        assert_eq!(t.beyond, 11);
        assert_eq!(t.samples, 1100);
        // 1010 samples: p99 has exactly 10 beyond, which is enough.
        let t = tail(&ramp(1010)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.0, 10));
    }

    #[test]
    fn falls_back_to_lower_percentiles_for_small_samples() {
        // 1000 samples: p99 leaves 10 beyond (rank 989).
        assert_eq!(tail(&ramp(1000)).unwrap().percentile, 99.0);
        // 999 samples: p99 leaves 9 beyond, p98 leaves 19.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.beyond), (98.0, 19));
        // 200 samples: p95 leaves exactly 10.
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        // 21 samples: only the median qualifies.
        let t = tail(&ramp(21)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 11.0, 10));
        // 20 samples: the median still has exactly ten beyond; 19: nothing.
        assert_eq!(tail(&ramp(20)).unwrap().beyond, 10);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }
}
