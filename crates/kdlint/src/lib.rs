//! `kdlint` — the workspace's determinism/totality lint engine.
//!
//! Every layer of this repository rests on two statically-unenforced
//! invariants: **bitwise-identical results at any `KD_THREADS`** and
//! **every route returns exactly once**. The test suites pin those
//! dynamically; kdlint drift-proofs them mechanically by banning the
//! constructs that erode them — wall-clock reads, ambient RNG, hash-order
//! iteration, unjustified `unsafe`, unaudited `Ordering::Relaxed`,
//! unbounded waits in the serving tier, allocation in `kdprof: hot`
//! functions, and run-time environment switches. See [`rules`] for the rule catalogue and the
//! `// kdlint: allow(<rule>): <reason>` grammar.
//!
//! The crate is dependency-free by design (no syn, no proc-macro): it
//! carries its own token-level lexer ([`lexer`]) so it builds before — and
//! independently of — everything else in the tree.
//!
//! Run it:
//!
//! ```text
//! cargo run -p kdlint -- --workspace      # lint the tree (CI gate)
//! cargo run -p kdlint -- --fixtures      # self-test the rule corpus
//! cargo run -p kdlint -- --rule no-wallclock path/to/file.rs
//! ```

pub mod lexer;
pub mod rules;

pub use rules::{default_rules, lint_source, rule_by_name, Diagnostic, Rule};

use std::path::{Path, PathBuf};

/// Directories never linted: build output, VCS, the vendored dependency
/// shims (stand-ins for third-party crates, not product code), kdlint's
/// own fixture corpus (which contains violations on purpose), and the
/// end-to-end benchmark — a separate cargo workspace whose files only a
/// benchmark change may edit, and which reads the wall clock by design.
const EXCLUDED_PREFIXES: [&str; 5] = [
    "target",
    ".git",
    "shims",
    "crates/kdlint/fixtures",
    "e2ebench",
];

/// Collects every workspace `.rs` file under `root`, workspace-relative
/// with `/` separators, sorted for deterministic reporting order.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = rel_path(root, &path);
            if EXCLUDED_PREFIXES
                .iter()
                .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
            {
                continue;
            }
            if entry.file_type()?.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Renders `path` relative to `root` with `/` separators (rule scopes
/// match on these prefixes, so they must not vary by platform). A path
/// outside `root` is rendered as given.
fn rel_path(root: &Path, path: &Path) -> String {
    let mut out = String::new();
    for c in path.strip_prefix(root).unwrap_or(path).components() {
        match c {
            std::path::Component::RootDir => out.push('/'),
            c => {
                if !out.is_empty() && !out.ends_with('/') {
                    out.push('/');
                }
                out.push_str(&c.as_os_str().to_string_lossy());
            }
        }
    }
    out
}

/// Lints the whole workspace under `root` with the default rules,
/// path scopes enforced and the allow-audit on.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let rules = default_rules();
    let mut out = Vec::new();
    for file in workspace_files(root)? {
        let source = std::fs::read_to_string(&file)?;
        let rel = rel_path(root, &file);
        out.extend(lint_source(&rel, &source, &rules, true, true));
    }
    Ok(out)
}

/// Runs the fixture corpus under `crates/kdlint/fixtures/<rule>/`: each
/// rule directory must hold an `ok.rs` the rule passes and a
/// `violation.rs` the rule flags (scope bypassed — fixtures stand in for
/// in-scope files). The special `annotation` directory exercises the
/// allow-grammar audit with the full engine. Returns failure messages
/// (empty = corpus green).
pub fn run_fixtures(fixtures_dir: &Path) -> std::io::Result<Vec<String>> {
    let mut failures = Vec::new();
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(fixtures_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    if dirs.is_empty() {
        failures.push(format!("no fixture directories under {fixtures_dir:?}"));
    }
    let mut seen_rules = Vec::new();
    for dir in dirs {
        let dir_name = dir.file_name().unwrap_or_default().to_string_lossy();
        let rule_name = dir_name.replace('_', "-");
        for case in ["ok.rs", "violation.rs"] {
            let path = dir.join(case);
            let source = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(err) => {
                    failures.push(format!("{}: missing fixture {case}: {err}", dir_name));
                    continue;
                }
            };
            let diags = if rule_name == "annotation" {
                // Annotation fixtures run the full engine: the grammar
                // audit is engine-level, not one rule's.
                lint_source(case, &source, &default_rules(), false, true)
            } else {
                let Some(rule) = rule_by_name(&rule_name) else {
                    failures.push(format!("{dir_name}: no rule named {rule_name}"));
                    break;
                };
                lint_source(case, &source, &[rule], false, true)
            };
            let expect_clean = case == "ok.rs";
            if expect_clean && !diags.is_empty() {
                failures.push(format!(
                    "{rule_name}/ok.rs must lint clean, got: {}",
                    diags
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                ));
            }
            if !expect_clean && diags.is_empty() {
                failures.push(format!(
                    "{rule_name}/violation.rs must be flagged, but linted clean"
                ));
            }
        }
        seen_rules.push(rule_name);
    }
    // The corpus must cover every shipped rule — a rule without fixtures
    // is a rule that can silently rot.
    for rule in default_rules() {
        if !seen_rules.iter().any(|r| r == rule.name()) {
            failures.push(format!("rule {} has no fixture directory", rule.name()));
        }
    }
    Ok(failures)
}
