//! Panic safety: a panicking partition body must propagate to the
//! submitting caller, leave the pool reusable, and not poison unrelated
//! concurrent regions.
//!
//! Own integration binary (own process): it pins a fixed thread policy and
//! replaces the panic hook while deliberately panicking regions run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use tspar::Parallelism;

/// Runs `f` with panic-hook output suppressed (the panics in here are
/// deliberate; their default-hook stack traces would drown the test log).
fn quiet<R>(f: impl FnOnce() -> R) -> R {
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    let _ = std::panic::take_hook();
    out
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string payload>")
}

/// One test fn so the global policy mutations never interleave.
#[test]
fn panics_propagate_and_the_pool_stays_usable() {
    tspar::set_parallelism(Parallelism::Fixed(4));

    // --- A worker-executed lot panics: the submitter gets the payload. ---
    let err = quiet(|| {
        catch_unwind(AssertUnwindSafe(|| {
            tspar::par_map(64, |i| {
                if i == 13 {
                    panic!("boom at {i}");
                }
                i * 2
            })
        }))
    })
    .expect_err("a panicking partition must fail the region");
    assert_eq!(panic_message(err.as_ref()), "boom at 13");

    // --- The caller-executed lot (partition 0 runs inline) panics too. ---
    let err = quiet(|| {
        catch_unwind(AssertUnwindSafe(|| {
            tspar::par_map(64, |i| {
                if i == 0 {
                    panic!("boom at caller lot");
                }
                i
            })
        }))
    })
    .expect_err("a panic on the inline partition must fail the region");
    assert_eq!(panic_message(err.as_ref()), "boom at caller lot");

    // --- Every partition panicking still yields exactly one panic. ---
    let err = quiet(|| {
        catch_unwind(AssertUnwindSafe(|| {
            tspar::par_map(16, |i| -> usize { panic!("all panic ({i})") })
        }))
    })
    .expect_err("region must fail");
    assert!(panic_message(err.as_ref()).starts_with("all panic"));

    // --- The pool is reusable afterwards: same workers, correct bits. ---
    let workers_after_panics = tspar::pool_workers();
    assert!(
        workers_after_panics >= 1,
        "workers must survive captured panics (got {workers_after_panics})"
    );
    let out = tspar::par_map(100, |i| i * 3);
    assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());

    // --- Unrelated concurrent regions are not poisoned: one caller
    //     panics repeatedly while another computes; the clean caller must
    //     see exact results every time. ---
    let clean_runs = AtomicUsize::new(0);
    let expect: Vec<f64> = (0..300).map(|i| (i as f64 * 0.7).cos()).collect();
    quiet(|| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for round in 0..20 {
                    let err = catch_unwind(AssertUnwindSafe(|| {
                        tspar::par_map(32, |i| {
                            if i == 7 {
                                panic!("round {round}");
                            }
                            i
                        })
                    }));
                    assert!(err.is_err(), "round {round} must panic");
                }
            });
            s.spawn(|| {
                for _ in 0..20 {
                    let got = tspar::par_map(300, |i| (i as f64 * 0.7).cos());
                    assert_eq!(got, expect, "clean region poisoned by a concurrent panic");
                    // kdlint: allow(relaxed): stat counter — the final value
                    // is published by scope join, not by this ordering.
                    clean_runs.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
    });
    // kdlint: allow(relaxed): read after scope join — the join edge already
    // ordered every increment before this load.
    assert_eq!(clean_runs.load(Ordering::Relaxed), 20);

    tspar::set_parallelism(Parallelism::Auto);
}
