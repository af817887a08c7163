//! Regression test for `KD_THREADS` snapshot semantics.
//!
//! The policy is read **once per region** at entry (not cached for the
//! process, not re-read per task): a mid-run env change takes effect at
//! the next region boundary and can never desync the partitioner from the
//! pool dispatch inside a region, because both derive from the same
//! snapshot.
//!
//! Own integration binary (own process): it mutates the process
//! environment, which must not race other tests' `threads()` reads.

use tspar::Parallelism;

/// One test fn so the env/override mutations never interleave.
#[test]
fn kd_threads_is_snapshotted_once_per_region() {
    // kdlint: allow(env-knob): saves the caller's width to restore it;
    // this test pins how `KD_THREADS` is read.
    let original = std::env::var("KD_THREADS").ok();
    tspar::set_parallelism(Parallelism::Auto);

    // Live per region: a change is visible at the next resolve, not pinned
    // to the first value the process ever saw (the pre-pool runtime cached
    // it for the whole process, so the pool size could never follow; now
    // both follow together from one snapshot).
    std::env::set_var("KD_THREADS", "3");
    assert_eq!(tspar::threads(), 3, "env value must apply to new regions");
    std::env::set_var("KD_THREADS", "5");
    assert_eq!(
        tspar::threads(),
        5,
        "mid-run env change applies at the next region"
    );

    // Invalid values fall back to the core count (>= 1).
    std::env::set_var("KD_THREADS", "zero");
    assert!(tspar::threads() >= 1);
    std::env::set_var("KD_THREADS", "0");
    assert!(tspar::threads() >= 1);

    // A change *inside* a running region cannot desync it: partitioning and
    // dispatch were fixed by the entry snapshot, and results must equal the
    // sequential reference exactly.
    std::env::set_var("KD_THREADS", "4");
    let expect: Vec<f64> = (0..200).map(|i| (i as f64).sqrt() * 3.0).collect();
    let got = tspar::par_map(200, |i| {
        if i == 0 {
            std::env::set_var("KD_THREADS", "1");
        }
        (i as f64).sqrt() * 3.0
    });
    assert_eq!(
        got, expect,
        "mid-region env change must not affect the region"
    );
    assert_eq!(
        tspar::threads(),
        1,
        "the change applies from the next region on"
    );

    // The programmatic override takes precedence over the env.
    tspar::set_parallelism(Parallelism::Fixed(2));
    std::env::set_var("KD_THREADS", "7");
    assert_eq!(tspar::threads(), 2);
    tspar::set_parallelism(Parallelism::Auto);
    assert_eq!(tspar::threads(), 7);

    match original {
        Some(v) => std::env::set_var("KD_THREADS", v),
        None => std::env::remove_var("KD_THREADS"),
    }
}
