//! Pool lifecycle: lazy spawn, growth to the region width, reuse across
//! regions and concurrent callers, shutdown and respawn.
//!
//! Own integration binary (own process): worker-count assertions require
//! that nothing else drives the pool concurrently.

use tspar::Parallelism;

/// One test fn so the global policy mutations and worker-count
/// observations never interleave.
#[test]
fn pool_grows_lazily_is_reused_and_survives_shutdown() {
    assert_eq!(
        tspar::pool_workers(),
        0,
        "no workers before the first pooled region"
    );

    // First region at width 4: the caller is executor 0, so exactly 3
    // helpers are spawned.
    tspar::set_parallelism(Parallelism::Fixed(4));
    let out = tspar::par_map(16, |i| i + 1);
    assert_eq!(out, (1..=16).collect::<Vec<_>>());
    assert_eq!(
        tspar::pool_workers(),
        3,
        "width 4 needs 3 persistent helpers"
    );

    // Wider region: the pool grows to the new width...
    tspar::set_parallelism(Parallelism::Fixed(7));
    let out = tspar::par_map(32, |i| i * i);
    assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    assert_eq!(
        tspar::pool_workers(),
        6,
        "width 7 grows the pool to 6 helpers"
    );

    // ...and narrower regions reuse it without shrinking (idle workers
    // sleep on the queue condvar; they cost nothing per region).
    tspar::set_parallelism(Parallelism::Fixed(2));
    let out = tspar::par_map(8, |i| i as f64 * 0.5);
    assert_eq!(out, (0..8).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
    assert_eq!(tspar::pool_workers(), 6, "the pool never shrinks mid-run");

    // A region wider than the partition count spawns only what it can use.
    tspar::set_parallelism(Parallelism::Fixed(100));
    let out = tspar::par_map(3, |i| i);
    assert_eq!(out, vec![0, 1, 2]);
    assert_eq!(
        tspar::pool_workers(),
        6,
        "3 partitions need at most 2 helpers; the pool stays at 6"
    );

    // Concurrent independent callers share the one pool and all get exact
    // results (each caller drains its own region, so this cannot deadlock
    // even if every worker is busy elsewhere).
    tspar::set_parallelism(Parallelism::Fixed(3));
    let expect: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(2654435761)).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let expect = &expect;
                s.spawn(move || {
                    for _ in 0..10 {
                        let got = tspar::par_map(500, |i| (i as u64).wrapping_mul(2654435761));
                        assert_eq!(&got, expect);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("caller thread");
        }
    });

    // Shutdown joins every worker; the next region lazily respawns.
    tspar::shutdown_pool();
    assert_eq!(tspar::pool_workers(), 0, "shutdown joins all workers");
    tspar::shutdown_pool(); // idempotent
    assert_eq!(tspar::pool_workers(), 0);

    tspar::set_parallelism(Parallelism::Fixed(4));
    let out = tspar::par_map(16, |i| i + 2);
    assert_eq!(out, (2..18).collect::<Vec<_>>());
    assert_eq!(
        tspar::pool_workers(),
        3,
        "regions after shutdown respawn the pool"
    );

    // Shutdowns racing each other and racing active regions must neither
    // deadlock nor corrupt results: shutdowns serialize internally, and a
    // submitting caller always drains its own lots even with zero workers.
    let expect: Vec<usize> = (0..100).map(|i| i * 7).collect();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..5 {
                    tspar::shutdown_pool();
                }
            });
        }
        s.spawn(|| {
            for _ in 0..10 {
                assert_eq!(tspar::par_map(100, |i| i * 7), expect);
            }
        });
    });

    tspar::set_parallelism(Parallelism::Auto);
}
