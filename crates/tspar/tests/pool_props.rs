//! Property tests for the parallel runtime: pool execution must match a
//! sequential reference for arbitrary partition counts, work sizes and
//! `KD_THREADS` values — including regions below the `MIN_PAR_WORK` gate.
//!
//! These tests mutate the process-global thread policy concurrently (the
//! harness runs them in parallel), which is safe here because every
//! assertion is *width-independent*: any snapshot an interleaved region
//! happens to observe must produce the same bits. That is exactly the
//! determinism contract under test.

use proptest::prelude::*;
use tspar::Parallelism;

/// Deterministic pure-float task: bit-identical wherever it runs.
fn task(i: usize, salt: u64) -> f64 {
    let x = (i as f64 * 0.37 + salt as f64 * 0.11).sin();
    x * x + (i as f64 + 1.0).sqrt() * 0.5
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn par_map_matches_sequential(
        n in 0usize..300,
        width in 1usize..9,
        salt in 0u64..10_000,
    ) {
        tspar::set_parallelism(Parallelism::Fixed(width));
        let expect: Vec<f64> = (0..n).map(|i| task(i, salt)).collect();
        let got = tspar::par_map(n, |i| task(i, salt));
        tspar::set_parallelism(Parallelism::Auto);
        prop_assert_eq!(got, expect, "n={} width={}", n, width);
    }

    #[test]
    fn par_chunks_mut_matches_sequential(
        len in 0usize..400,
        chunk_len in 1usize..64,
        width in 1usize..9,
        salt in 0u64..10_000,
    ) {
        let fill = |ci: usize, chunk: &mut [f64]| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = task(ci * 1000 + j, salt);
            }
        };
        let mut expect = vec![0.0f64; len];
        for (ci, chunk) in expect.chunks_mut(chunk_len).enumerate() {
            fill(ci, chunk);
        }

        tspar::set_parallelism(Parallelism::Fixed(width));
        let mut got = vec![0.0f64; len];
        tspar::par_chunks_mut(&mut got, chunk_len, fill);
        tspar::set_parallelism(Parallelism::Auto);
        prop_assert_eq!(got, expect, "len={} chunk={} width={}", len, chunk_len, width);
    }

    #[test]
    fn gated_regions_match_sequential_below_and_above_the_gate(
        len in 1usize..300,
        chunk_len in 1usize..48,
        width in 1usize..9,
        above_gate in proptest::bool::ANY,
        salt in 0u64..10_000,
    ) {
        // Below the gate the region must stay serial (same chunk
        // boundaries); above it, dispatch must not change a single bit.
        let work = if above_gate { tspar::MIN_PAR_WORK } else { tspar::MIN_PAR_WORK - 1 };
        let fill = |ci: usize, chunk: &mut [f64]| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = task(ci * 1000 + j, salt) * 1.5;
            }
        };
        let mut expect = vec![0.0f64; len];
        for (ci, chunk) in expect.chunks_mut(chunk_len).enumerate() {
            fill(ci, chunk);
        }

        tspar::set_parallelism(Parallelism::Fixed(width));
        let mut got = vec![0.0f64; len];
        tspar::par_chunks_mut_gated(&mut got, chunk_len, work, fill);
        tspar::set_parallelism(Parallelism::Auto);
        prop_assert_eq!(got, expect);
    }
}
