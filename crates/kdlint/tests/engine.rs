//! Rule-engine behaviour: per-rule detection, the allow-annotation
//! grammar, path scoping, the fixture corpus, and the meta-test that the
//! live workspace lints clean.

use kdlint::rules::{default_rules, lint_source, rule_by_name, Diagnostic};
use std::path::Path;

/// Lints `source` with one named rule, scope bypassed, audit on — the
/// same configuration the fixture runner uses.
fn one_rule(rule: &str, source: &str) -> Vec<Diagnostic> {
    let rule = rule_by_name(rule).expect("known rule");
    lint_source("test.rs", source, &[rule], false, true)
}

/// Lints `source` under a chosen workspace-relative path with the full
/// default rule set and scopes enforced.
fn scoped(path: &str, source: &str) -> Vec<Diagnostic> {
    lint_source(path, source, &default_rules(), true, true)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------- rules

#[test]
fn wallclock_flags_instant_and_systemtime() {
    let diags = one_rule(
        "no-wallclock",
        "fn f() { let t = std::time::Instant::now(); }",
    );
    assert_eq!(rules_of(&diags), ["no-wallclock"]);
    let diags = one_rule("no-wallclock", "use std::time::SystemTime;");
    assert_eq!(diags.len(), 1);
}

#[test]
fn wallclock_in_a_string_is_invisible() {
    assert!(one_rule("no-wallclock", r#"fn f() { let m = "Instant"; }"#).is_empty());
}

#[test]
fn ambient_rng_flags_thread_rng_randomstate_and_rand_random() {
    let src = "fn f() { let mut r = thread_rng(); }";
    assert_eq!(one_rule("no-ambient-rng", src).len(), 1);
    let src = "use std::collections::hash_map::RandomState;";
    assert_eq!(one_rule("no-ambient-rng", src).len(), 1);
    let src = "fn f() -> f64 { rand::random() }";
    assert_eq!(one_rule("no-ambient-rng", src).len(), 1);
    // Seeded streams are the sanctioned path.
    let src = "fn f() { let r = StdRng::seed_from_u64(7); }";
    assert!(one_rule("no-ambient-rng", src).is_empty());
}

#[test]
fn hash_iteration_tracks_bindings_not_types() {
    // Iterating a HashMap-typed binding is flagged...
    let src = "fn f(m: &HashMap<u32, u32>) { for k in m.keys() {} }";
    assert_eq!(one_rule("hash-iteration", src).len(), 1);
    // ...point-wise probes of the same binding are fine...
    let src = "fn f(m: &HashMap<u32, u32>) -> bool { m.contains_key(&1) }";
    assert!(one_rule("hash-iteration", src).is_empty());
    // ...and BTreeMap iteration is the sanctioned replacement.
    let src = "fn f(m: &BTreeMap<u32, u32>) { for k in m.keys() {} }";
    assert!(one_rule("hash-iteration", src).is_empty());
}

#[test]
fn hash_iteration_catches_for_loops_over_sets() {
    let src = "fn f(seen: HashSet<u64>) { for v in seen { drop(v); } }";
    assert_eq!(one_rule("hash-iteration", src).len(), 1);
}

#[test]
fn unsafe_needs_safety_accepts_contiguous_comment_blocks() {
    let ok = "// SAFETY: exclusive access by construction.\nunsafe { go() }";
    assert!(one_rule("unsafe-needs-safety", ok).is_empty());
    let ok_two_lines =
        "// SAFETY: the caller holds the lock, so this\n// cannot race.\nunsafe { go() }";
    assert!(one_rule("unsafe-needs-safety", ok_two_lines).is_empty());
    let ok_same_line = "unsafe { go() } // SAFETY: single-threaded test.";
    assert!(one_rule("unsafe-needs-safety", ok_same_line).is_empty());
}

#[test]
fn unsafe_needs_safety_rejects_gaps_and_lowercase() {
    // A blank line breaks contiguity: the comment no longer justifies
    // the unsafe site it drifted away from.
    let gap = "// SAFETY: stale justification.\n\nunsafe { go() }";
    assert_eq!(one_rule("unsafe-needs-safety", gap).len(), 1);
    let lowercase = "// Safety: wrong convention.\nunsafe { go() }";
    assert_eq!(one_rule("unsafe-needs-safety", lowercase).len(), 1);
    let bare = "unsafe { go() }";
    assert_eq!(one_rule("unsafe-needs-safety", bare).len(), 1);
}

#[test]
fn relaxed_ordering_requires_an_audit_annotation() {
    let bare = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
    assert_eq!(one_rule("relaxed-ordering-audit", bare).len(), 1);
    let audited = "fn f(c: &AtomicU64) {\n    \
         // kdlint: allow(relaxed): stat counter, snapshot-only reads.\n    \
         c.fetch_add(1, Ordering::Relaxed);\n}";
    assert!(one_rule("relaxed-ordering-audit", audited).is_empty());
    // Stronger orderings need no annotation.
    let acq = "fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Acquire) }";
    assert!(one_rule("relaxed-ordering-audit", acq).is_empty());
}

#[test]
fn unbounded_wait_distinguishes_thread_join_from_path_join() {
    let thread_join = "fn f(h: JoinHandle<()>) { let _ = h.join(); }";
    assert_eq!(one_rule("unbounded-wait", thread_join).len(), 1);
    let path_join = "fn f(d: &Path) -> PathBuf { d.join(\"x.bin\") }";
    assert!(one_rule("unbounded-wait", path_join).is_empty());
    let recv = "fn f(rx: &Receiver<u8>) { let _ = rx.recv(); }";
    assert_eq!(one_rule("unbounded-wait", recv).len(), 1);
    let bounded = "fn f(rx: &Receiver<u8>, t: Duration) { let _ = rx.recv_timeout(t); }";
    assert!(one_rule("unbounded-wait", bounded).is_empty());
}

#[test]
fn env_knob_flags_runtime_reads_not_the_env_macro() {
    let src = "fn f() -> bool { std::env::var(\"KD_X\").is_ok() }";
    assert_eq!(rules_of(&one_rule("no-env-knob", src)), ["no-env-knob"]);
    let src = "use std::env; fn f() -> bool { env::var_os(\"KD_X\").is_some() }";
    assert_eq!(one_rule("no-env-knob", src).len(), 1);
    // Compile-time `env!` and non-reading `env` items are not switches.
    assert!(one_rule("no-env-knob", "fn f() -> &'static str { env!(\"X\") }").is_empty());
    assert!(one_rule("no-env-knob", "fn f() { let _ = std::env::args(); }").is_empty());
}

#[test]
fn feature_knob_flags_feature_predicates_not_other_cfgs() {
    let attr = "#[cfg(feature = \"x\")]\nfn f() {}";
    assert_eq!(
        rules_of(&one_rule("no-feature-knob", attr)),
        ["no-feature-knob"]
    );
    let nested = "#[cfg(not(feature = \"x\"))]\nfn f() {}";
    assert_eq!(one_rule("no-feature-knob", nested).len(), 1);
    let macro_form = "fn f() -> bool { cfg!(feature = \"x\") }";
    assert_eq!(one_rule("no-feature-knob", macro_form).len(), 1);
    // Built-in predicates and a plain `feature` identifier are not knobs.
    assert!(one_rule("no-feature-knob", "#[cfg(test)]\nmod t {}").is_empty());
    assert!(one_rule(
        "no-feature-knob",
        "fn f() -> bool { cfg!(debug_assertions) }"
    )
    .is_empty());
    assert!(one_rule(
        "no-feature-knob",
        "fn f(feature: usize) -> usize { feature }"
    )
    .is_empty());
}

// ------------------------------------------------------------- scoping

#[test]
fn bench_crate_may_read_the_environment() {
    let src = "fn f() -> bool { std::env::var(\"KD_X\").is_ok() }";
    assert!(scoped("crates/bench/src/bin/micro_kernels.rs", src).is_empty());
    assert!(!scoped("crates/tsnn/src/gemm.rs", src).is_empty());
}

#[test]
fn bench_crate_may_read_the_clock() {
    let src = "fn f() { let t = std::time::Instant::now(); }";
    assert!(scoped("crates/bench/src/lib.rs", src).is_empty());
    assert!(!scoped("crates/core/src/lib.rs", src).is_empty());
}

#[test]
fn hot_alloc_covers_every_marked_function_and_the_vec_macro() {
    let src = "// kdprof: hot\nfn step(n: usize) -> usize { let s = vec![0.0f32; n]; s.len() }";
    for path in [
        "crates/tsnn/src/layers/lstm.rs",
        "crates/tsnn/src/layers/conv1d.rs",
        "crates/tsnn/src/layers/attention.rs",
        "crates/core/src/selector.rs",
        "crates/core/src/train/mod.rs",
    ] {
        assert_eq!(rules_of(&scoped(path, src)), ["no-hot-alloc"], "{path}");
    }
    let cold = "fn setup(n: usize) -> Vec<f32> { vec![0.0; n] }";
    assert!(scoped("crates/tsnn/src/layers/lstm.rs", cold).is_empty());
}

#[test]
fn unbounded_wait_only_applies_to_the_serving_tier() {
    let src = "fn f(h: JoinHandle<()>) { let _ = h.join(); }";
    assert!(scoped("crates/core/src/train/mod.rs", src).is_empty());
    assert_eq!(
        rules_of(&scoped("crates/core/src/serve/queue.rs", src)),
        ["unbounded-wait"]
    );
}

// -------------------------------------------------- annotation grammar

#[test]
fn trailing_allow_suppresses_its_own_line() {
    let src = "use std::time::Instant; \
               // kdlint: allow(wallclock): latency probe only.";
    assert!(one_rule("no-wallclock", src).is_empty());
}

#[test]
fn own_line_allow_targets_the_next_code_line_past_comments() {
    let src = "// kdlint: allow(wallclock): deadline budgeting only.\n\
               // (a plain comment between annotation and target is fine)\n\
               use std::time::Instant;";
    assert!(one_rule("no-wallclock", src).is_empty());
}

#[test]
fn an_allow_does_not_leak_to_later_lines() {
    let src = "// kdlint: allow(wallclock): covers the next line only.\n\
               use std::time::Instant;\n\
               fn f() { let t = Instant::now(); }";
    let diags = one_rule("no-wallclock", src);
    assert_eq!(diags.len(), 1, "the second site must still be flagged");
    assert_eq!(diags[0].line, 3);
}

#[test]
fn reasonless_unknown_and_unused_allows_are_violations() {
    let no_reason = "// kdlint: allow(wallclock):\nuse std::time::Instant;";
    let diags = one_rule("no-wallclock", no_reason);
    assert_eq!(rules_of(&diags), ["annotation"], "reason is mandatory");

    let unknown = "// kdlint: allow(clocks): not a rule.\nlet x = 1;";
    let diags = lint_source("t.rs", unknown, &default_rules(), false, true);
    assert_eq!(rules_of(&diags), ["annotation"]);

    let unused = "// kdlint: allow(wallclock): suppresses nothing.\nlet x = 1;";
    let diags = one_rule("no-wallclock", unused);
    assert_eq!(
        rules_of(&diags),
        ["annotation"],
        "unused allows must rot loudly"
    );
}

// -------------------------------------------------------- meta / corpus

#[test]
fn fixture_corpus_is_green() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let failures = kdlint::run_fixtures(&fixtures).expect("fixtures readable");
    assert!(
        failures.is_empty(),
        "fixture corpus failures: {failures:#?}"
    );
}

#[test]
fn the_live_workspace_lints_clean() {
    // The CI gate as a test: any regression that introduces a wall-clock
    // read, ambient RNG, hash iteration, bare unsafe, unaudited Relaxed,
    // or unbounded serve wait fails here too.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let diags = kdlint::lint_workspace(root).expect("workspace readable");
    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    assert!(rendered.is_empty(), "workspace violations: {rendered:#?}");
}
