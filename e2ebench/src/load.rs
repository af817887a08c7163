//! Load generation and request accounting.
//!
//! The open loop sends requests on a seeded schedule whatever the system
//! does, so a stall delays every later request. Each request is
//! timed from when it was *due*, not from when the generator got round to
//! sending it, and the generator's own lateness is reported beside the
//! latencies. A request that is refused, errors or never completes counts
//! as failed against the number attempted.

use crate::rng::SplitMix;
use kdselector_core::serve::{Selection, ServeError, Ticket};
use std::sync::{mpsc, OnceLock};
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Served; completion time as an offset from the run start.
    Served(Duration),
    /// Refused at admission (`Overloaded`, `Rejected`, `ShuttingDown`).
    Refused,
    /// Admitted, then answered with an error.
    Errored,
    /// Admitted, but not answered before the drain deadline.
    NeverCompleted,
}

/// One request of a load run. Offsets are from the run start.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When the generator actually sent it.
    pub sent: Duration,
    /// How it ended.
    pub outcome: Outcome,
}

/// Latencies, lateness and failure counts of a load run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests refused, errored or never completed.
    pub failed: usize,
    /// Due-to-completion latency of every served request, in ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request, in ms (never negative).
    pub lateness_ms: Vec<f64>,
}

impl Summary {
    /// Failed requests over attempted requests (0 when nothing ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Folds request records into latencies, lateness and failure counts.
pub fn summarize(records: &[Record]) -> Summary {
    let mut s = Summary {
        attempted: records.len(),
        ..Summary::default()
    };
    for r in records {
        s.lateness_ms.push(ms(r.sent.saturating_sub(r.due)));
        match r.outcome {
            Outcome::Served(done) => s.latency_ms.push(ms(done.saturating_sub(r.due))),
            Outcome::Refused | Outcome::Errored | Outcome::NeverCompleted => s.failed += 1,
        }
    }
    s
}

/// Send offsets at a fixed `rate` (requests per second) over `span`: one
/// request per interval, placed uniformly at random inside it from `seed`.
/// Unlike Poisson arrivals this never bunches more than two requests into
/// one interval, so the tail measures the system rather than arrival
/// bursts.
pub fn jittered_schedule(rate: f64, span: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = SplitMix::new(seed);
    let n = (rate * span.as_secs_f64()).floor() as usize;
    (0..n)
        .map(|i| Duration::from_secs_f64((i as f64 + rng.unit()) / rate))
        .collect()
}

/// Runs an open loop: for each offset in `schedule`, builds request `i`
/// with `prepare(i)`, waits until it is due and hands it to `submit`. A
/// waiter thread redeems admitted tickets in order and stamps their
/// completion; tickets still open `drain` after the last send count as
/// never completed. `keep(i)` says which responses to hand back (for
/// output checks).
pub fn open_loop<R>(
    schedule: &[Duration],
    drain: Duration,
    mut prepare: impl FnMut(usize) -> R,
    mut submit: impl FnMut(R) -> Result<Ticket, ServeError>,
    keep: impl Fn(usize) -> bool + Send,
) -> (Vec<Record>, Vec<(usize, Vec<Selection>)>) {
    let start = Instant::now();
    let mut records: Vec<Record> = schedule
        .iter()
        .map(|&due| Record {
            due,
            sent: due,
            outcome: Outcome::NeverCompleted,
        })
        .collect();
    let (tx, rx) = mpsc::channel::<(usize, Ticket)>();
    // Set once the last request is sent; starts the drain clock.
    let all_sent: OnceLock<Instant> = OnceLock::new();
    let (ended, kept) = std::thread::scope(|scope| {
        let all_sent = &all_sent;
        let waiter = scope.spawn(move || {
            let mut ended: Vec<(usize, Outcome)> = Vec::new();
            let mut kept = Vec::new();
            for (i, mut ticket) in rx {
                let outcome = loop {
                    // Short slices so the drain deadline is noticed; a
                    // completion wakes the wait at once, so stamps stay exact.
                    match ticket.wait_for(Duration::from_millis(5)) {
                        Ok(Ok(selections)) => {
                            let done = start.elapsed();
                            if keep(i) {
                                kept.push((i, selections));
                            }
                            break Outcome::Served(done);
                        }
                        Ok(Err(_)) => break Outcome::Errored,
                        Err(open) => ticket = open,
                    }
                    if all_sent.get().is_some_and(|&t| t.elapsed() >= drain) {
                        break Outcome::NeverCompleted;
                    }
                };
                ended.push((i, outcome));
            }
            (ended, kept)
        });
        for (i, &due) in schedule.iter().enumerate() {
            let request = prepare(i);
            sleep_until(start + due);
            records[i].sent = start.elapsed();
            match submit(request) {
                Ok(ticket) => {
                    let _ = tx.send((i, ticket));
                }
                Err(_) => records[i].outcome = Outcome::Refused,
            }
        }
        let _ = all_sent.set(Instant::now());
        drop(tx);
        waiter.join().expect("waiter thread panicked")
    });
    for (i, outcome) in ended {
        records[i].outcome = outcome;
    }
    (records, kept)
}

/// Sleeps until `t`, spinning for the last stretch so sends land close to
/// their due time.
pub fn sleep_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdselector_core::serve::{QueueConfig, SelectRequest, SelectorEngine, ServeQueue};
    use kdselector_core::Selector;
    use std::sync::Arc;
    use tsdata::TimeSeries;

    fn rec(due_ms: u64, sent_ms: u64, outcome: Outcome) -> Record {
        Record {
            due: Duration::from_millis(due_ms),
            sent: Duration::from_millis(sent_ms),
            outcome,
        }
    }

    #[test]
    fn latency_runs_from_due_time_and_lateness_is_reported() {
        let s = summarize(&[
            // On time: 5 ms of service.
            rec(10, 10, Outcome::Served(Duration::from_millis(15))),
            // Sent 30 ms late behind a stall: the wait counts in latency.
            rec(20, 50, Outcome::Served(Duration::from_millis(55))),
        ]);
        assert_eq!(s.latency_ms, vec![5.0, 35.0]);
        assert_eq!(s.lateness_ms, vec![0.0, 30.0]);
        assert_eq!((s.attempted, s.failed), (2, 0));
    }

    #[test]
    fn refused_errored_and_unfinished_requests_all_fail() {
        let s = summarize(&[
            rec(0, 0, Outcome::Served(Duration::from_millis(1))),
            rec(1, 1, Outcome::Refused),
            rec(2, 2, Outcome::Errored),
            rec(3, 3, Outcome::NeverCompleted),
        ]);
        assert_eq!((s.attempted, s.failed), (4, 3));
        assert_eq!(s.failed_frac(), 0.75);
        assert_eq!(s.latency_ms.len(), 1);
        assert_eq!(summarize(&[]).failed_frac(), 0.0);
    }

    #[test]
    fn jittered_schedule_is_seeded_sorted_and_at_its_rate() {
        let a = jittered_schedule(1000.0, Duration::from_secs(2), 5);
        assert_eq!(a, jittered_schedule(1000.0, Duration::from_secs(2), 5));
        assert_ne!(a, jittered_schedule(1000.0, Duration::from_secs(2), 6));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 2000);
        // Each send lands inside its own interval.
        for (i, t) in a.iter().enumerate() {
            assert!((i as f64..i as f64 + 1.0).contains(&(t.as_secs_f64() * 1000.0)));
        }
    }

    /// A selector that takes longer than any drain deadline in these tests.
    struct Slow;
    impl Selector for Slow {
        fn name(&self) -> &str {
            "slow"
        }
        fn series_scores(&self, _ts: &TimeSeries) -> Vec<Vec<f32>> {
            std::thread::sleep(Duration::from_millis(300));
            vec![vec![0.0; 12]]
        }
    }

    #[test]
    fn open_loop_counts_refused_and_never_completed_tickets() {
        let engine = Arc::new(SelectorEngine::new());
        engine.register("slow", Arc::new(Slow));
        // One request in service, one waiting; everything else is refused.
        let queue = ServeQueue::new(
            engine,
            QueueConfig {
                max_depth: 1,
                max_batch: 1,
            },
        );
        let series = TimeSeries::new("s", "d", vec![0.0; 8], vec![]);
        let schedule: Vec<Duration> = (0..6).map(|i| Duration::from_millis(i * 5)).collect();
        let (records, kept) = open_loop(
            &schedule,
            Duration::from_millis(50),
            |_| SelectRequest::new("slow", vec![series.clone()]),
            |r| queue.submit(r),
            |_| true,
        );
        let s = summarize(&records);
        assert_eq!(s.attempted, 6);
        assert!(kept.is_empty(), "nothing finishes within the drain");
        let refused = records
            .iter()
            .filter(|r| r.outcome == Outcome::Refused)
            .count();
        let unfinished = records
            .iter()
            .filter(|r| r.outcome == Outcome::NeverCompleted)
            .count();
        assert!(refused >= 3, "{records:?}");
        assert!(unfinished >= 1, "{records:?}");
        assert_eq!(s.failed, refused + unfinished);
        assert_eq!(s.failed, 6);
        queue.shutdown();
    }
}
