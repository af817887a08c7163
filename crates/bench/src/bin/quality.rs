//! The paper's quality claims in one run: Tables 1–3 and Fig. 4.
//!
//! Prepares the pipeline once, trains each distinct configuration once and
//! prints every table as a view over that run set, a column being a label
//! and a run: Table 1's +PISL&MKI is also Table 2's "Full data", Table 3's
//! ResNet "+KDSelector" and Fig. 4's "Ours". Accuracy columns train without
//! pruning (the paper's protocol). Fig. 4's reference columns are chosen on
//! the training split alone. Runs, views and references land in
//! `target/kdsel-results/quality.json`. `KDSEL_SCALE=quick` runs in seconds;
//! the default scale, in minutes, is the one to read the tables at.
//!
//! ```sh
//! KDSEL_SCALE=quick cargo run --release -p kdselector-bench --bin quality
//! ```

use kdselector_core::eval::{BestSingle, EvalReport, FamilyMajority};
use kdselector_core::nonnn::{FeatureModel, FeatureSelector, RocketSelector};
use kdselector_core::pipeline::{Pipeline, PipelineConfig};
use kdselector_core::prune::PruningStrategy;
use kdselector_core::selector::Selector;
use kdselector_core::train::{MkiConfig, PislConfig, TrainConfig};
use kdselector_core::Architecture;
use serde_json::{json, Value};
use std::time::Instant;
use tsdata::BenchmarkConfig;

/// The scale `KDSEL_SCALE` selects (`quick`, else `default`) and its
/// pipeline configuration.
fn scale_config() -> (&'static str, PipelineConfig) {
    let quick = std::env::var("KDSEL_SCALE").as_deref() == Ok("quick");
    let (train, test, length, epochs, width) = match quick {
        true => (3, 2, 800, 6, 6),
        false => (10, 5, 1200, 10, 8),
    };
    let cfg = PipelineConfig {
        benchmark: BenchmarkConfig {
            train_series_per_family: train,
            test_series_per_family: test,
            series_length: length,
            seed: 7,
        },
        train: TrainConfig {
            epochs,
            width,
            ..TrainConfig::default()
        },
        ..PipelineConfig::default()
    };
    (if quick { "quick" } else { "default" }, cfg)
}

/// What one run trains.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Method {
    /// An NN selector.
    Nn(TrainConfig),
    /// A classic classifier on TSFresh-style features.
    Feature(FeatureModel),
    /// MiniRocket + ridge.
    Rocket,
}

impl Method {
    /// Display name, unique among the runs of one scale.
    fn name(&self) -> String {
        match self {
            Method::Nn(cfg) => {
                let mut name = cfg.arch.name().to_string();
                if cfg.pisl.is_some() {
                    name += "+PISL";
                }
                if cfg.mki.is_some() {
                    name += "+MKI";
                }
                if cfg.pruning != PruningStrategy::None {
                    name = format!("{name}+{}", cfg.pruning.name());
                }
                name
            }
            Method::Feature(kind) => kind.name().to_string(),
            Method::Rocket => "Rocket".to_string(),
        }
    }
}

/// A table column: its label and the index of its run.
type Column = (String, usize);

/// The distinct methods the views need, each once, in first-use order.
#[derive(Default)]
struct RunSet {
    methods: Vec<Method>,
}

impl RunSet {
    /// A column labelled `label` over `method`'s run, added on first use.
    fn column(&mut self, label: impl Into<String>, method: Method) -> Column {
        let run = self.methods.iter().position(|m| *m == method);
        let run = run.unwrap_or_else(|| {
            self.methods.push(method);
            self.methods.len() - 1
        });
        (label.into(), run)
    }
}

/// The paper's four tables, keyed `table1`, `table2`, `table3`, `fig4`,
/// as views over one run set. `base` is the scale's standard configuration.
fn views(base: TrainConfig) -> (RunSet, [(&'static str, Vec<Column>); 4]) {
    let mut set = RunSet::default();
    let nn = Method::Nn;
    let (pisl, mki) = (Some(PislConfig::default()), Some(MkiConfig::default()));
    // PISL&MKI at the scale's epochs and width, without pruning (the
    // accuracy setting) or with it (PA makes the full KDSelector).
    let enhanced = |arch| TrainConfig {
        epochs: base.epochs,
        width: base.width,
        ..TrainConfig::knowledge_enhanced(arch)
    };
    let pruned = |cfg, pruning| nn(TrainConfig { pruning, ..cfg });
    let full = enhanced(base.arch);
    let (ib, pa) = (
        PruningStrategy::info_batch_default(),
        PruningStrategy::pa_default(),
    );

    let table1 = vec![
        set.column("Standard", nn(base)),
        set.column("+PISL", nn(TrainConfig { pisl, ..base })),
        set.column("+MKI", nn(TrainConfig { mki, ..base })),
        set.column("+PISL&MKI", nn(TrainConfig { pisl, mki, ..base })),
    ];
    let table2 = vec![
        set.column("Full data", nn(full)),
        set.column("+InfoBatch", pruned(full, ib)),
        set.column("+PA (Ours)", pruned(full, pa)),
    ];
    let mut table3 = Vec::new();
    // ResNet, InceptionTime and Transformer.
    for &arch in &Architecture::ALL[1..] {
        let name = arch.name();
        table3.push(set.column(name, nn(TrainConfig { arch, ..base })));
        table3.push(set.column(format!("{name} +KDSelector"), nn(enhanced(arch))));
        table3.push(set.column(format!("{name} +KDSelector+PA"), pruned(enhanced(arch), pa)));
    }
    let mut fig4 = Vec::new();
    use FeatureModel::{AdaBoost, Knn, RandomForest, Svc};
    for kind in [Knn, Svc, AdaBoost, RandomForest] {
        fig4.push(set.column(kind.name(), Method::Feature(kind)));
    }
    fig4.push(set.column("Rocket", Method::Rocket));
    for arch in Architecture::ALL {
        fig4.push(set.column(arch.name(), nn(TrainConfig { arch, ..base })));
    }
    fig4.push(set.column("Ours", nn(enhanced(Architecture::ResNet))));
    let views = [
        ("table1", table1),
        ("table2", table2),
        ("table3", table3),
        ("fig4", fig4),
    ];
    (set, views)
}

/// One evaluated selector: a trained run or a reference.
struct Run {
    report: EvalReport,
    /// The NN configuration, if the run trained one.
    config: Option<TrainConfig>,
    /// Training wall-clock seconds (references train nothing).
    seconds: Option<f64>,
    /// Fraction of sample visits made (NN runs; pruning lowers it).
    visited: Option<f64>,
}

impl Run {
    /// Training seconds; only trained runs are asked.
    fn secs(&self) -> f64 {
        self.seconds.expect("a trained run")
    }

    fn avg(&self) -> f64 {
        self.report.average_auc_pr()
    }
}

/// Trains `method` on the pipeline and scores it on the test split.
fn train(pipeline: &Pipeline, method: Method) -> Run {
    let name = method.name();
    eprintln!("[quality] training {name} ...");
    let seed = pipeline.config.train.seed;
    let t0 = Instant::now();
    let secs = || Some(t0.elapsed().as_secs_f64());
    match method {
        Method::Nn(cfg) => {
            let outcome = pipeline.train_nn_with(&cfg, &name);
            Run {
                report: outcome.report,
                config: Some(cfg),
                seconds: Some(outcome.stats.train_seconds),
                visited: Some(outcome.stats.examined_fraction()),
            }
        }
        Method::Feature(kind) => {
            let selector = FeatureSelector::train(&pipeline.dataset, kind, seed);
            scored(pipeline, &selector, secs())
        }
        Method::Rocket => {
            let selector = RocketSelector::train(&pipeline.dataset, seed);
            scored(pipeline, &selector, secs())
        }
    }
}

/// Scores a selector that is not an NN run.
fn scored(pipeline: &Pipeline, selector: &dyn Selector, seconds: Option<f64>) -> Run {
    Run {
        report: pipeline.evaluate_selector(selector),
        config: None,
        seconds,
        visited: None,
    }
}

/// Prints one row: a left-aligned header, then one cell per column.
fn row(header: &str, cols: &[(&str, &Run)], cell: impl Fn(&str, &Run) -> String) {
    print!("{header:<14}");
    for (label, run) in cols {
        print!("{:>16}", cell(label, run));
    }
    println!();
}

/// Prints per-dataset AUC-PR, the average and the training-time rows.
fn print_table(title: &str, cols: &[(&str, &Run)]) {
    println!("\n=== {title} ===");
    row("Dataset", cols, |label, _| label.to_string());
    for (di, (dataset, _)) in cols[0].1.report.per_dataset.iter().enumerate() {
        row(dataset, cols, |_, r| {
            format!("{:.4}", r.report.per_dataset[di].1)
        });
    }
    row("Average", cols, |_, r| format!("{:.4}", r.avg()));
    row("Time (s)", cols, |_, r| {
        r.seconds.map_or("-".into(), |t| format!("{t:.2}"))
    });
}

fn print_table1(cols: &[(&str, &Run)]) {
    print_table("Table 1: PISL and MKI (AUC-PR per dataset, ResNet)", cols);
    let (standard, both) = (cols[0].1, cols[3].1);
    println!(
        "\nPaper: Standard 0.421 → +PISL&MKI 0.461 (Δ +0.040) at ≈0% time; \
         ours: Δ {:+.3} at {:+.1}% time",
        both.avg() - standard.avg(),
        (both.secs() / standard.secs() - 1.0) * 100.0
    );
}

fn print_table2(cols: &[(&str, &Run)]) {
    print_table("Table 2: Results of PA (PISL & MKI kept on, ResNet)", cols);
    let full = cols[0].1;
    let saved = |run: &Run| (1.0 - run.secs() / full.secs()) * 100.0;
    row("Visited (%)", cols, |_, r| {
        format!("{:.1}", r.visited.unwrap_or(1.0) * 100.0)
    });
    row("Time saved", cols, |_, r| format!("{:.1}%", saved(r)));
    println!("\nPaper: InfoBatch −39.1% time (−0.006 AUC), PA −58.3% time (−0.009 AUC)");
}

fn print_table3(cols: &[(&str, &Run)]) {
    println!("\n=== Table 3: KDSelector on different architectures ===");
    println!(
        "{:<15} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "Architecture", "Default", "+KDSelector", "ΔAUC-PR", "Default(s)", "Saved time"
    );
    for arch in cols.chunks(3) {
        let [(name, default), (_, kd), (_, fast)] = arch else {
            unreachable!("Table 3 columns come in triples")
        };
        let (d, k) = (default.avg(), kd.avg());
        println!(
            "{name:<15} {d:>12.4} {k:>12.4} {:>+12.4} {:>12.1} {:>11.1}%",
            k - d,
            default.secs(),
            (1.0 - fast.secs() / default.secs()) * 100.0
        );
    }
    println!("\nPaper: ΔAUC-PR +0.040 / +0.046 / +0.015; saved 58.3% / 71.0% / 74.2%");
}

fn print_fig4(cols: &[(&str, &Run)], references: &[Run], oracle: f64) {
    let mut with_refs = cols.to_vec();
    with_refs.extend(references.iter().map(|r| (r.report.selector.as_str(), r)));
    print_table("Fig. 4: AUC-PR of model-selection solutions", &with_refs);
    println!("\nOracle (per-series best model): {oracle:.4}");
    println!("Paper: Ours best on average (0.46 vs ≤0.44 for every baseline)");
}

/// A run in the result format.
fn run_json(run: &Run) -> Value {
    json!({
        "selector": run.report.selector,
        "config": run.config,
        "per_dataset": run.report.per_dataset,
        "average_auc_pr": run.avg(),
        "train_seconds": run.seconds,
        "visited_fraction": run.visited,
    })
}

fn main() {
    let (scale, cfg) = scale_config();
    eprintln!("[quality] scale={scale} label-cache={:?}", cfg.cache_dir);
    let t0 = Instant::now();
    let pipeline = Pipeline::prepare(cfg).expect("pipeline preparation");
    eprintln!("[quality] labels ready in {:.1?}", t0.elapsed());

    let (set, views) = views(pipeline.config.train);
    let runs: Vec<Run> = set.methods.iter().map(|&m| train(&pipeline, m)).collect();
    let family = FamilyMajority::fit(&pipeline.benchmark.train, &pipeline.train_perf);
    let references = [
        scored(&pipeline, &BestSingle::fit(&pipeline.train_perf), None),
        scored(&pipeline, &family, None),
    ];
    let oracle = pipeline.test_perf.oracle_mean();

    let resolved: Vec<Vec<(&str, &Run)>> = views
        .iter()
        .map(|(_, view)| view.iter().map(|(l, r)| (l.as_str(), &runs[*r])).collect())
        .collect();
    print_table1(&resolved[0]);
    print_table2(&resolved[1]);
    print_table3(&resolved[2]);
    print_fig4(&resolved[3], &references, oracle);

    let view_json = |view: &[Column]| -> Vec<Value> {
        view.iter()
            .map(|(label, run)| json!({ "label": label, "run": run }))
            .collect()
    };
    let record = json!({
        "scale": scale,
        "oracle": oracle,
        "runs": runs.iter().map(run_json).collect::<Vec<_>>(),
        "views": Value::Object(
            views.iter().map(|(key, view)| (key.to_string(), json!(view_json(view)))).collect()
        ),
        "references": references.iter().map(run_json).collect::<Vec<_>>(),
    });
    let path = std::path::Path::new("target/kdsel-results/quality.json");
    let text = serde_json::to_string_pretty(&record).expect("serialisable record") + "\n";
    std::fs::create_dir_all("target/kdsel-results").expect("results directory");
    std::fs::write(path, text).expect("writable results file");
    eprintln!("[quality] recorded {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_share_one_run_per_distinct_configuration() {
        let (_, cfg) = scale_config();
        let (set, views) = views(cfg.train);
        let nn = |m: &Method| matches!(m, Method::Nn(_));
        assert_eq!(set.methods.len(), 18);
        assert_eq!(set.methods.iter().filter(|m| nn(m)).count(), 13);
        // Every run is distinct (so equal configs cannot hold two runs),
        // and every column resolves to one.
        for (i, a) in set.methods.iter().enumerate() {
            assert!(set.methods[..i].iter().all(|b| b != a), "{a:?} twice");
        }
        let columns: Vec<&Column> = views.iter().flat_map(|(_, v)| v).collect();
        assert_eq!(columns.len(), 4 + 3 + 9 + 10);
        assert!(columns.iter().all(|(_, run)| *run < set.methods.len()));
        // Equal configs share a run: Table 1's +PISL&MKI is Table 2's
        // full data, Table 3's ResNet +KDSelector and Fig. 4's Ours.
        let [(_, t1), (_, t2), (_, t3), (_, f4)] = &views;
        let shared = [t1[3].1, t2[0].1, t3[1].1, f4[9].1];
        assert!(shared.iter().all(|&run| run == shared[0]), "{shared:?}");
        assert_eq!(t3[2].1, t2[2].1, "ResNet +KDSelector+PA is +PA (Ours)");
        assert_eq!(t1[0].1, f4[6].1, "standard ResNet");
        assert_eq!(t3[0].1, f4[6].1, "standard ResNet");
        let names: Vec<String> = set.methods.iter().map(Method::name).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} twice");
        }
    }
}
