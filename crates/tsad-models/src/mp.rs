//! Matrix profile: 1-NN z-normalised distance of every subsequence.

use crate::common::{auto_window, normalize_scores, window_scores_to_points};
use crate::{Detector, ModelId};
use tslinalg::stats;

/// Matrix-profile discord detector: the anomaly score of a subsequence is
/// its z-normalised Euclidean distance to its nearest non-trivial match.
#[derive(Debug, Clone)]
pub struct MatrixProfile {
    /// Cap on the number of profiled subsequences (stride grows beyond it).
    max_subsequences: usize,
}

impl Detector for MatrixProfile {
    fn id(&self) -> ModelId {
        ModelId::Mp
    }

    fn score(&self, series: &[f64]) -> Vec<f64> {
        self.score_with(series, squared_profile)
    }
}

impl MatrixProfile {
    /// Default configuration.
    pub fn default_config() -> Self {
        Self {
            max_subsequences: 1500,
        }
    }

    /// The detector's pipeline around `sq_profile`, which maps the
    /// z-normalised subsequences and the exclusion gap (in subsequences)
    /// to the squared profile.
    fn score_with(
        &self,
        series: &[f64],
        sq_profile: impl Fn(&[Vec<f64>], usize) -> Vec<f64>,
    ) -> Vec<f64> {
        let n = series.len();
        if n == 0 {
            return Vec::new();
        }
        let w = auto_window(series);
        if n < 2 * w {
            return vec![0.0; n];
        }
        // Stride keeps the O(m²) profile tractable on long series.
        let mut stride = 1usize;
        while (n - w) / stride + 1 > self.max_subsequences {
            stride += 1;
        }
        // Z-normalised subsequences.
        let mut subs: Vec<Vec<f64>> = (0..=n - w)
            .step_by(stride)
            .map(|s| series[s..s + w].to_vec())
            .collect();
        for s in &mut subs {
            stats::znormalize(s);
        }

        // Exclusion zone: ignore trivially overlapping matches, i.e.
        // partners whose starts lie less than `exclusion` apart.
        let exclusion = (w / 2).max(stride);
        let mut profile = sq_profile(&subs, exclusion.div_ceil(stride));
        for v in &mut profile {
            if !v.is_finite() {
                *v = 0.0;
            } else {
                *v = v.sqrt();
            }
        }
        normalize_scores(window_scores_to_points(&profile, n, w, stride))
    }
}

/// Partner lanes per group: one cache line of `f64`.
const LANES: usize = 8;
/// Positions between two abandon checks of a group.
const ABANDON_EVERY: usize = 4;

/// One chain step on every lane: `d2[l] + (a − col[l])·(a − col[l])`.
#[inline(always)]
fn add_sq_diffs(mut d2: [f64; LANES], a: f64, col: &[f64]) -> [f64; LANES] {
    let col: &[f64; LANES] = col.try_into().expect("panel column");
    for (d, &b) in d2.iter_mut().zip(col) {
        *d += (a - b) * (a - b);
    }
    d2
}

/// Whether `d2[l] >= bound[l]` on every lane (false on any NaN lane).
#[inline(always)]
fn all_at_least(d2: &[f64; LANES], bound: &[f64; LANES]) -> bool {
    d2.iter()
        .zip(bound)
        .fold(true, |all, (d, b)| all & (d >= b))
}

/// Squared 1-NN distance of every subsequence to a partner at least `gap`
/// subsequences away (`∞` when it has none).
///
/// Row `i` meets its partners `j ≥ i + gap` in groups of [`LANES`]
/// aligned columns, read from a panel copy of the subsequences (group
/// `g`'s `w × LANES` block holds subsequences `g·LANES..(g+1)·LANES`
/// position by position), so one load feeds [`LANES`] pair chains. Each
/// lane keeps the pair's own chain, `d2 += (a − b)·(a − b)` over
/// ascending positions. Every [`ABANDON_EVERY`] positions the group is
/// abandoned if every live lane has reached `max(profile[i],
/// profile[j])` as read at the start of the group; profiles only fall, so
/// such a partial sum (and the full sum above it) can lower neither
/// minimum. Every pair therefore contributes its full chain or nothing
/// that matters, and a minimum over exact values does not depend on the
/// order it is taken in: the profile is bitwise that of the pair-at-a-time
/// loop with per-pair abandoning (`tests::profile_oracle`).
fn squared_profile(subs: &[Vec<f64>], gap: usize) -> Vec<f64> {
    let m = subs.len();
    let w = subs.first().map_or(0, Vec::len);
    let groups = m.div_ceil(LANES);
    let mut panels = vec![0.0f64; groups * w * LANES];
    for (j, s) in subs.iter().enumerate() {
        let panel = &mut panels[(j / LANES) * w * LANES..];
        for (p, &v) in s.iter().enumerate() {
            panel[p * LANES + j % LANES] = v;
        }
    }
    // Padded to whole groups so every lane reads a slot; the padding is
    // never written and is cut off at the end.
    let mut profile = vec![f64::INFINITY; groups * LANES];
    for (i, a) in subs.iter().enumerate() {
        let first = i + gap;
        for g in first / LANES..groups {
            let j0 = g * LANES;
            // Live lanes are partners `first..m`; dead ones get a −∞ bound
            // and never hold the group up.
            let live = first.saturating_sub(j0)..(m - j0).min(LANES);
            let pi = profile[i];
            let bound: [f64; LANES] = std::array::from_fn(|l| {
                let pj = profile[j0 + l];
                if !live.contains(&l) {
                    f64::NEG_INFINITY
                } else if pi > pj {
                    pi
                } else {
                    pj
                }
            });
            let panel = &panels[j0 * w..(j0 + LANES) * w];
            let mut d2 = [0.0f64; LANES];
            let mut abandoned = false;
            for (p, (&av, col)) in a.iter().zip(panel.chunks_exact(LANES)).enumerate() {
                d2 = add_sq_diffs(d2, av, col);
                if p % ABANDON_EVERY == ABANDON_EVERY - 1 && all_at_least(&d2, &bound) {
                    abandoned = true;
                    break;
                }
            }
            if abandoned {
                continue;
            }
            for l in live {
                let d = d2[l];
                if d < profile[i] {
                    profile[i] = d;
                }
                if d < profile[j0 + l] {
                    profile[j0 + l] = d;
                }
            }
        }
    }
    profile.truncate(m);
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pair-at-a-time loop [`squared_profile`] replaced, kept as its
    /// oracle: partners closer than `gap` subsequences are skipped, and a
    /// pair is abandoned once its partial sum reaches both current minima.
    fn profile_oracle(subs: &[Vec<f64>], gap: usize) -> Vec<f64> {
        let m = subs.len();
        let mut profile = vec![f64::INFINITY; m];
        for i in 0..m {
            for j in i + 1..m {
                if j - i < gap {
                    continue;
                }
                let mut d2 = 0.0;
                for (a, b) in subs[i].iter().zip(&subs[j]) {
                    d2 += (a - b) * (a - b);
                    // Early abandon once both current minima are beaten.
                    if d2 >= profile[i] && d2 >= profile[j] {
                        break;
                    }
                }
                if d2 < profile[i] {
                    profile[i] = d2;
                }
                if d2 < profile[j] {
                    profile[j] = d2;
                }
            }
        }
        profile
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Lane profile ≡ oracle, bitwise, on random subsequences: counts
    /// around every lane remainder, gaps from adjacent partners to none.
    #[test]
    fn lane_profile_matches_oracle_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        for m in [1usize, 2, 7, 8, 9, 15, 16, 17, 31, 64, 101] {
            for w in [1usize, 3, 8, 13] {
                for gap in [
                    1,
                    2,
                    5,
                    8,
                    m.saturating_sub(9),
                    m.saturating_sub(1),
                    m,
                    m + 3,
                ] {
                    let gap = gap.max(1);
                    let mut subs: Vec<Vec<f64>> = (0..m)
                        .map(|_| (0..w).map(|_| rng.random_range(-2.0..2.0)).collect())
                        .collect();
                    // Exact repeats make ties between partners.
                    if m > 4 {
                        subs[m - 1] = subs[1].clone();
                        subs[m / 2] = subs[1].clone();
                    }
                    let got = squared_profile(&subs, gap);
                    let want = profile_oracle(&subs, gap);
                    assert_eq!(bits(&got), bits(&want), "m={m} w={w} gap={gap}");
                }
            }
        }
    }

    fn assert_scores_match_oracle(series: &[f64], what: &str) {
        let d = MatrixProfile::default_config();
        let got = d.score(series);
        let want = d.score_with(series, profile_oracle);
        assert_eq!(bits(&got), bits(&want), "{what} (n={})", series.len());
    }

    #[test]
    fn lane_scores_match_oracle_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let noisy = |n: usize, rng: &mut StdRng| -> Vec<f64> {
            (0..n)
                .map(|t| (t as f64 * 0.3).sin() + rng.random_range(-0.3..0.3))
                .collect()
        };
        // Lengths whose subsequence counts land on every lane remainder.
        for n in [64usize, 101, 200, 333, 517, 1000] {
            assert_scores_match_oracle(&noisy(n, &mut rng), "random");
        }
        // n > 1500 + w: stride > 1.
        for n in [1700usize, 3100] {
            assert_scores_match_oracle(&noisy(n, &mut rng), "strided");
        }
        assert_scores_match_oracle(&[2.5; 300], "constant");
        let (discord, _, _) = discord_series();
        assert_scores_match_oracle(&discord, "discord");
        let mut gappy = noisy(400, &mut rng);
        gappy[37] = f64::NAN;
        gappy[250] = f64::NAN;
        assert_scores_match_oracle(&gappy, "NaN-bearing");
        let mut flat_spot = noisy(400, &mut rng);
        for v in &mut flat_spot[100..180] {
            *v = 1.0;
        }
        assert_scores_match_oracle(&flat_spot, "flat stretch");
    }

    /// Periodic signal with one distorted cycle — the classic discord.
    fn discord_series() -> (Vec<f64>, usize, usize) {
        let period = 25;
        let mut s: Vec<f64> = (0..600)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / period as f64).sin())
            .collect();
        let (a, b) = (300, 325);
        for v in &mut s[a..b] {
            // Invert one cycle: same value range, wrong shape.
            *v = -*v * 0.8 + 0.1;
        }
        (s, a, b)
    }

    #[test]
    fn discord_cycle_gets_top_score() {
        let (s, a, b) = discord_series();
        let scores = MatrixProfile::default_config().score(&s);
        let anom: f64 = scores[a..b].iter().cloned().fold(0.0, f64::max);
        let normal: f64 = scores[100..150].iter().cloned().fold(0.0, f64::max);
        assert!(anom > normal + 0.2, "anom={anom} normal={normal}");
        // The global maximum lies inside (or adjacent to) the discord.
        let argmax = scores
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap()
            .0;
        assert!(
            (a.saturating_sub(30)..b + 30).contains(&argmax),
            "argmax={argmax}"
        );
    }

    #[test]
    fn too_short_series_scores_zero() {
        let scores = MatrixProfile::default_config().score(&[1.0; 20]);
        assert!(scores.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scores_bounded_and_full_length() {
        let (s, _, _) = discord_series();
        let scores = MatrixProfile::default_config().score(&s);
        assert_eq!(scores.len(), s.len());
        assert!(scores.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn twin_discords_deflate_each_other() {
        // The classic "twin freak" property: a discord that occurs twice
        // matches its twin, so its profile value drops relative to a series
        // where it occurs once. Compare region-max / series-mean ratios.
        let period = 25;
        let base: Vec<f64> = (0..800)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / period as f64).sin())
            .collect();
        let distort = |s: &mut [f64], at: usize| {
            for v in &mut s[at..at + period] {
                *v = -*v * 0.8 + 0.1;
            }
        };
        let mut single = base.clone();
        distort(&mut single, 400);
        let mut twin = base.clone();
        distort(&mut twin, 200);
        distort(&mut twin, 600);

        let d = MatrixProfile::default_config();
        let ratio = |scores: &[f64], a: usize| {
            let peak: f64 = scores[a..a + period].iter().cloned().fold(0.0, f64::max);
            let mean: f64 = scores.iter().sum::<f64>() / scores.len() as f64;
            peak / mean.max(1e-9)
        };
        let r_single = ratio(&d.score(&single), 400);
        let r_twin = ratio(&d.score(&twin), 200);
        assert!(r_single > r_twin, "single={r_single} twin={r_twin}");
    }
}
