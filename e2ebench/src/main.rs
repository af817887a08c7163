//! End-to-end benchmark of the KDSelector workspace.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload learn --seed 1 --seconds 30 --trace 0
//! python3 e2ebench/spread.py --workload serve --seeds 1-10
//! cargo test --release --manifest-path e2ebench/Cargo.toml
//! ```
//!
//! Every workload runs the system's three stages through their public
//! APIs, each at its own scale, and prints every end-to-end metric:
//!
//! * **learn** — label a history with all 12 detectors, build the window
//!   dataset, train the full KDSelector (ResNet + PISL + MKI + PA) and
//!   evaluate it (`learn_s`, `label_s`, `train_s`, `selected_auc_pr`,
//!   `oracle_ratio`);
//! * **serve** — a saturating closed loop through a `ServeQueue` over a
//!   cached `SelectorEngine` (`select_per_s`), and an open loop at half
//!   its capacity (one short window that checks answers in a timed run;
//!   full windows whose latencies are traced, see [`serve::OPEN_WINDOW`]);
//! * **stream** — appends and publishes through a `StreamIngestor`, with
//!   selections over stream snapshots (`ingest_windows_per_s`,
//!   `stream_select_p50_ms`, `stream_select_p99_ms`).
//!
//! The workload named on the command line gets most of the run time and
//! seeded inputs; the other two stages run as short probes on inputs fixed
//! across seeds. The selector's quality is always measured on the fixed
//! reference history, so it is a pure function of the code: a change that
//! alters selections moves it on every workload. `claims.json` says what
//! each seed drives and which end-to-end metric each layer should move.
//!
//! A timed run is four rounds, each running every stage for its share of
//! the round; timings are medians over the loops, windows, slices and
//! cycles of all rounds. Spreading each stage over the whole run keeps the
//! figures steady on a small shared host whose speed drifts over seconds.
//!
//! With `--trace 1` the run records spans around the layer calls, probes
//! each layer on its own and prints the per-layer metrics instead. The
//! spans are written to `$CARGO_TARGET_DIR/e2ebench-trace-<workload>-<seed>.json`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod learn;
mod load;
mod rng;
mod serve;
mod stats;
mod stream;
mod trace;

use learn::{History, LearnConfig, Learned};
use serve::{Stack, Traffic};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use stream::Feed;
use tstext::FrozenTextEncoder;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Series lengths of the `learn` workload's history (short, medium, long:
/// the long ones expose the matrix profile's quadratic cost).
const LENGTHS: &[usize] = &[512, 1024, 1536];
/// Series lengths of the smaller reference history.
const REFERENCE_LENGTHS: &[usize] = &[256, 512, 768];
/// Seed of the fixed reference history (quality and learn probes).
const REFERENCE_SEED: u64 = 7;
/// Seed of the fixed serving and streaming probes.
const PROBE_SEED: u64 = 0x9E0B;
/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 9;
/// Rounds of a timed run; each runs every phase once.
const ROUNDS: usize = 4;
/// Open-loop windows of the traced run.
const OPEN_WINDOWS: usize = 3;

/// The fixed reference loop: quality, and the learn probe of `serve` and
/// `stream`.
const REFERENCE: LearnConfig = LearnConfig {
    train_per_family: 1,
    lengths: REFERENCE_LENGTHS,
};

/// The `learn` workload's seeded loop.
const SEEDED: LearnConfig = LearnConfig {
    train_per_family: 1,
    lengths: LENGTHS,
};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Learn,
    Serve,
    Stream,
}

/// Shares of the run's seconds given to each phase. The learn phase runs
/// at least one loop per round, so on `serve` and `stream` it takes a
/// little more than its share.
struct Shares {
    learn: f64,
    closed: f64,
    stream: f64,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "learn" => Some(Self::Learn),
            "serve" => Some(Self::Serve),
            "stream" => Some(Self::Stream),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Learn => "learn",
            Self::Serve => "serve",
            Self::Stream => "stream",
        }
    }

    fn shares(self) -> Shares {
        match self {
            Self::Learn => Shares {
                learn: 0.60,
                closed: 0.20,
                stream: 0.20,
            },
            Self::Serve => Shares {
                learn: 0.25,
                closed: 0.50,
                stream: 0.25,
            },
            Self::Stream => Shares {
                learn: 0.25,
                closed: 0.20,
                stream: 0.55,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).unwrap_or(30.0),
        trace,
    })
}

/// Everything a run works on, built in set-up.
struct Inputs {
    reference: History,
    /// The seeded history of the `learn` workload.
    seeded: Option<History>,
    encoder: FrozenTextEncoder,
    traffic: Traffic,
    feed: Feed,
    stack: Stack,
    /// An uncached engine with the same selector: the direct reference
    /// queued answers are checked against.
    direct: kdselector_core::SelectorEngine,
}

fn setup(args: &Args) -> Inputs {
    let (seeded_workload, traffic_seed, feed_seed) = match args.workload {
        Workload::Learn => (true, PROBE_SEED, PROBE_SEED),
        Workload::Serve => (false, args.seed, PROBE_SEED),
        Workload::Stream => (false, PROBE_SEED, args.seed),
    };
    let (reference, seeded, traffic, feed) = {
        let _s = trace::span("tsdata.generate");
        (
            learn::history(&REFERENCE, REFERENCE_SEED),
            seeded_workload.then(|| learn::history(&SEEDED, args.seed)),
            serve::traffic(traffic_seed),
            stream::feed(feed_seed),
        )
    };
    let stack = serve::stack(serve::seeded_model(traffic_seed));
    let direct = kdselector_core::SelectorEngine::new();
    direct
        .deploy(
            serve::SELECTOR,
            serve::seeded_model(traffic_seed),
            serve::WINDOW,
        )
        .expect("window length matches the model");
    // Warm the pool workers, the arena and both engines, then start cold.
    for i in 0..8 {
        stack
            .queue
            .serve(traffic.request(i))
            .expect("warm-up request served");
        direct.handle(&traffic.request(i)).expect("registered");
    }
    stack.cache.clear();
    Inputs {
        reference,
        seeded,
        encoder: FrozenTextEncoder::new(learn::TEXT_DIM, 0xBEB7),
        traffic,
        feed,
        stack,
        direct,
    }
}

/// Accumulates metrics, counts and check results for the final line.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !(value.is_finite() && value > 0.0) {
            self.fail(format!("metric {name} = {value} is not a positive number"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    fn fail(&mut self, msg: String) {
        eprintln!("e2ebench: {msg}");
        self.failures.push(msg);
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are already failures; keep the line valid JSON.
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --workload learn|serve|stream --seed N \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // Load comes from this one process, using as many pool threads as cores.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("KD_THREADS", cores.to_string());
    println!(
        "# workload {} seed {} seconds {} trace {} KD_THREADS {} cores {cores}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tspar::threads()
    );
    trace::set_enabled(args.trace);

    let mut report = Report::default();
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();

    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let built = setup(&args);
        setup_s.push(t.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    let shares = args.workload.shares();
    // Every phase runs once per round, so each metric samples the whole run
    // rather than one stretch of it: a small shared host's speed can drift
    // by tens of percent over seconds. A traced run does one round.
    let rounds = if args.trace { 1 } else { ROUNDS };
    let budget = |share: f64| Duration::from_secs_f64(args.seconds * share / rounds as f64);
    let serve_seed = if args.workload == Workload::Serve {
        args.seed
    } else {
        PROBE_SEED
    };
    let history = inputs.seeded.as_ref().unwrap_or(&inputs.reference);
    // On `learn`, the reference loop runs first: quality, and a warm-up.
    let quality = inputs.seeded.is_some().then(|| {
        trace::set_enabled(false);
        let q = learn_once(&inputs.reference, &inputs, false, &mut report).run;
        trace::set_enabled(args.trace);
        q
    });
    let mut loops: Vec<learn::LearnRun> = Vec::new();
    let mut serving = serve::ServeRun::default();
    let mut streaming = stream::StreamRun::default();
    for round in 0..rounds {
        if args.trace {
            traced_learn(history, &inputs, &mut loops, &mut report, &mut layers);
        } else {
            // At least one loop per round; more while another still fits.
            let start = Instant::now();
            let mut n = 0u32;
            while n == 0 || start.elapsed() * (n + 1) / n <= budget(shares.learn) {
                loops.push(learn_once(history, &inputs, false, &mut report).run);
                n += 1;
            }
        }
        serving.closed(&inputs.traffic, &inputs.stack, budget(shares.closed));
        if round == 0 {
            // A timed run only checks the open loop's answers; the traced
            // run measures its latencies.
            let (windows, length) = if args.trace {
                (OPEN_WINDOWS, serve::OPEN_WINDOW)
            } else {
                (1, serve::CHECK_WINDOW)
            };
            for _ in 0..windows {
                let (traffic, stack) = (&inputs.traffic, &inputs.stack);
                serving.open_window(traffic, stack, &inputs.direct, serve_seed, length);
            }
        }
        streaming.cycles(&inputs.feed, &inputs.stack, budget(shares.stream));
    }
    report_learn(&loops, quality.as_ref(), &mut report);
    report_serve(&serving, &mut report);
    report_stream(&streaming, &mut report);
    if args.trace {
        serve::probe_layers(
            &inputs.traffic,
            &inputs.stack,
            &inputs.direct,
            &serving,
            &mut layers,
        );
        stream::probe_layers(&streaming, &mut layers);
    }

    report.metric("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    inputs.stack.queue.shutdown();

    if args.trace {
        let spans = trace::recorded();
        let times = trace::layer_times(&spans);
        if let Some(t) = times.get("tsdata.generate") {
            layers.insert("tsdata.generate_ms".into(), t.total_ms / t.spans as f64);
        }
        for name in SPAN_LAYERS {
            let self_ms = times.get(name).map_or(0.0, |t| t.self_ms);
            layers.insert(format!("span.{name}.self_ms"), self_ms);
        }
        write_trace(&args, &times, &layers);
        let mut traced = Report {
            attempted: report.attempted,
            failed: report.failed,
            failures: report.failures.clone(),
            ..Report::default()
        };
        for (name, value) in &layers {
            traced.metrics.push((name.clone(), *value, unit_of(name)));
            if !value.is_finite() {
                traced.fail(format!("layer metric {name} = {value}"));
            }
        }
        println!("{}", traced.json());
    } else {
        println!("{}", report.json());
    }
}

/// Spans whose self time the traced run reports.
const SPAN_LAYERS: [&str; 11] = [
    "tsdata.generate",
    "labels.compute_perf_matrix",
    "dataset.build",
    "train.session",
    "train.session_new",
    "train.epoch",
    "eval.evaluate",
    "serve.open_loop",
    "serve.closed_loop",
    "stream.phase",
    "stream.cycle",
];

fn unit_of(name: &str) -> &'static str {
    let last = name.rsplit('.').next().unwrap_or("");
    if last == "ms" || last.ends_with("_ms") || last.ends_with("ms_per_series") {
        "ms"
    } else if last.ends_with("_us") || last.contains("us_per_") {
        "us"
    } else if last.ends_with("per_s") {
        "1/s"
    } else {
        match last {
            "auc_pr" => "auc_pr",
            "bytes" => "bytes",
            "per_request" => "count",
            "series_per_group" => "series",
            _ => "ratio",
        }
    }
}

/// Three loops of the traced run: spans off, on, off. The traced loop
/// against the mean of the other two is the tracing overhead; the traced
/// loop's outputs feed the learn-layer probes.
fn traced_learn(
    history: &History,
    inputs: &Inputs,
    loops: &mut Vec<learn::LearnRun>,
    report: &mut Report,
    layers: &mut BTreeMap<String, f64>,
) {
    trace::set_enabled(false);
    let before = learn_once(history, inputs, false, report).run;
    trace::set_enabled(true);
    let traced = learn_once(history, inputs, true, report);
    trace::set_enabled(false);
    let after = learn_once(history, inputs, false, report).run;
    trace::set_enabled(true);
    let untraced = (before.learn_s + after.learn_s) / 2.0;
    layers.insert("trace.overhead_ratio".into(), traced.run.learn_s / untraced);
    learn::probe_layers(history, &traced, layers);
    loops.extend([before, traced.run, after]);
}

fn learn_once(h: &History, inputs: &Inputs, per_epoch: bool, report: &mut Report) -> Learned {
    let learned = learn::learn_once(h, &inputs.encoder, per_epoch);
    report.attempted += 1;
    report.check(
        learned.run.labels_valid,
        "perf-matrix cells finite, in [0, 1], 12 columns",
    );
    learned
}

/// Medians over the timed loops; quality from the reference loop.
fn report_learn(loops: &[learn::LearnRun], quality: Option<&learn::LearnRun>, report: &mut Report) {
    let first = &loops[0];
    let same_quality = loops.iter().all(|r| {
        r.selected_auc_pr.to_bits() == first.selected_auc_pr.to_bits()
            && r.oracle_ratio.to_bits() == first.oracle_ratio.to_bits()
    });
    report.check(
        same_quality,
        "quality identical across loops of one history",
    );
    let med = |f: fn(&learn::LearnRun) -> f64| {
        let xs: Vec<f64> = loops.iter().map(f).collect();
        stats::median(&xs).unwrap_or(f64::NAN)
    };
    let learn_s: Vec<String> = loops.iter().map(|r| format!("{:.3}", r.learn_s)).collect();
    println!(
        "# learn: {} loops over {} windows, learn_s {}; this history's quality {:.6} (oracle ratio {:.6})",
        loops.len(),
        first.windows,
        learn_s.join(" "),
        first.selected_auc_pr,
        first.oracle_ratio
    );
    let quality = quality.unwrap_or(first);
    report.metric("learn_s", med(|r| r.learn_s), "s");
    report.metric("label_s", med(|r| r.label_s), "s");
    report.metric("train_s", med(|r| r.train_s), "s");
    report.metric("selected_auc_pr", quality.selected_auc_pr, "auc_pr");
    report.metric("oracle_ratio", quality.oracle_ratio, "ratio");
}

fn report_serve(run: &serve::ServeRun, report: &mut Report) {
    let open = run.open();
    report.attempted += open.attempted + run.closed_attempted;
    report.failed += open.failed + run.closed_failed;
    report.check(
        run.mismatches == 0,
        "queued selections equal direct select_batch",
    );
    let tails: Vec<String> = run
        .tails
        .iter()
        .map(|t| match t {
            Some(t) => format!("p{} of {} ({} beyond)", t.percentile, t.samples, t.beyond),
            None => "none".into(),
        })
        .collect();
    let lateness = stats::tail(&open.lateness_ms);
    println!(
        "# serve: open loop {} requests at {} req/s in {} windows, failed_frac {}; \
         p50 {:.3} ms; window tails {}; generator lateness p{} {:.3} ms",
        open.attempted,
        serve::RATE,
        run.tails.len(),
        open.failed_frac(),
        run.select_p50_ms(),
        tails.join(", "),
        lateness.map_or(0.0, |t| t.percentile),
        lateness.map_or(f64::NAN, |t| t.value),
    );
    report.metric("select_per_s", run.select_per_s(), "1/s");
}

fn report_stream(run: &stream::StreamRun, report: &mut Report) {
    report.attempted += run.requests;
    report.failed += run.failed;
    report.check(
        run.mismatches == 0,
        "published stream matrices equal extract_windows on their snapshots",
    );
    let tails = run.tails();
    let tail_ms: Vec<f64> = tails.iter().map(|t| t.value).collect();
    println!(
        "# stream: {} cycles, {} requests, {} failed; tail p{} of each {}-selection window \
         ({} beyond), median of {}; {} drift signals",
        run.cycles,
        run.requests,
        run.failed,
        tails.first().map_or(0.0, |t| t.percentile),
        stream::TAIL_WINDOW,
        tails.first().map_or(0, |t| t.beyond),
        tails.len(),
        run.drift_signals
    );
    report.metric("ingest_windows_per_s", run.windows_per_s(), "1/s");
    report.metric(
        "stream_select_p50_ms",
        stats::median(&run.latency_ms).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "stream_select_p99_ms",
        stats::median(&tail_ms).unwrap_or(f64::NAN),
        "ms",
    );
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Writes the per-layer span times and metrics of a traced run.
fn write_trace(
    args: &Args,
    times: &BTreeMap<&'static str, trace::LayerTime>,
    layers: &BTreeMap<String, f64>,
) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "e2ebench/target".into());
    let path = std::path::Path::new(&dir).join(format!(
        "e2ebench-trace-{}-{}.json",
        args.workload.name(),
        args.seed
    ));
    let mut s = String::from("{\"spans\": {");
    for (i, (name, t)) in times.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"spans\": {}, \"total_ms\": {:?}, \"self_ms\": {:?}}}",
            t.spans, t.total_ms, t.self_ms
        );
    }
    s.push_str("}, \"layers\": {");
    for (i, (name, v)) in layers.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(s, "{sep}\"{name}\": {v:?}");
    }
    s.push_str("}}\n");
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, s));
    if let Err(e) = written {
        eprintln!("e2ebench: could not write {}: {e}", path.display());
    }
}
