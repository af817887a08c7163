//! The rule engine: eight contract rules plus the annotation grammar.
//!
//! Every rule is keyed to an invariant the workspace's tests pin
//! dynamically — bitwise-identical results at any `KD_THREADS`, every
//! route returning exactly once — and exists to catch *drift* toward
//! breaking those invariants before a test ever runs:
//!
//! | rule | contract |
//! |------|----------|
//! | `no-wallclock` | values never depend on wall time |
//! | `no-ambient-rng` | all randomness flows from seeded streams |
//! | `hash-iteration` | no iteration over randomized hash order |
//! | `unsafe-needs-safety` | every `unsafe` carries its proof obligation |
//! | `relaxed-ordering-audit` | `Relaxed` only on audited stat counters |
//! | `unbounded-wait` | `core::serve` waits are deadline-bounded |
//! | `no-hot-alloc` | profiled hot paths stay allocation-free |
//! | `no-env-knob` | behaviour is not switched by environment variables |
//!
//! Rules report candidate findings; the engine suppresses those whose line
//! carries a `// kdlint: allow(<key>): <reason>` annotation and flags
//! annotations that are malformed (no reason) or unused (suppressing
//! nothing) so the allow-list can never silently rot.

use crate::lexer::{lex, Tok, Token};
use std::collections::{BTreeMap, BTreeSet};

/// A reported violation. `line` is 1-based.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A parsed `kdlint: allow(<key>): <reason>` annotation.
#[derive(Debug, Clone)]
struct Allow {
    key: String,
    reason: String,
    /// Line the annotation comment sits on.
    at: u32,
    /// Code line the annotation suppresses findings on.
    target: u32,
}

/// Everything rules need about one file.
pub struct FileCtx {
    pub path: String,
    /// Non-comment tokens, in order.
    pub code: Vec<Token>,
    /// Comment text per line (merged when several share a line).
    comments: BTreeMap<u32, String>,
    /// Non-doc comment text per line — the only place annotations may
    /// live, so documentation *about* the grammar is never parsed as an
    /// annotation.
    plain_comments: BTreeMap<u32, String>,
    /// Lines containing at least one non-comment token.
    code_lines: BTreeSet<u32>,
    /// Raw source lines (for attribute-line detection).
    raw_lines: Vec<String>,
    allows: Vec<Allow>,
}

/// The canonical allow-keys, in rule order.
const ALLOW_KEYS: [&str; 7] = [
    "wallclock",
    "ambient-rng",
    "hash-iteration",
    "relaxed",
    "unbounded-wait",
    "hot-alloc",
    "env-knob",
];

impl FileCtx {
    pub fn new(path: &str, source: &str) -> Self {
        let tokens = lex(source);
        let mut code = Vec::new();
        let mut comments: BTreeMap<u32, String> = BTreeMap::new();
        let mut plain_comments: BTreeMap<u32, String> = BTreeMap::new();
        let mut code_lines = BTreeSet::new();
        for t in &tokens {
            match &t.kind {
                Tok::LineComment(text) | Tok::BlockComment(text) => {
                    // Doc comments keep the third delimiter char as the
                    // first byte of their text (`///x` → "/x", `//!x` →
                    // "!x", `/** */` → "* ", `/*! */` → "! "); plain
                    // comments start with whitespace or content.
                    let is_doc =
                        matches!(text.bytes().next(), Some(b'/') | Some(b'!') | Some(b'*'));
                    // A multi-line block comment marks every covered line,
                    // so SAFETY lookups and annotation targeting treat the
                    // whole block as comment lines.
                    for line in t.line..=t.end_line {
                        let slot = comments.entry(line).or_default();
                        if !slot.is_empty() {
                            slot.push(' ');
                        }
                        slot.push_str(text);
                        if !is_doc {
                            let slot = plain_comments.entry(line).or_default();
                            if !slot.is_empty() {
                                slot.push(' ');
                            }
                            slot.push_str(text);
                        }
                    }
                }
                _ => {
                    for line in t.line..=t.end_line {
                        code_lines.insert(line);
                    }
                    code.push(t.clone());
                }
            }
        }
        let raw_lines: Vec<String> = source.lines().map(str::to_string).collect();
        let mut ctx = Self {
            path: path.to_string(),
            code,
            comments,
            plain_comments,
            code_lines,
            raw_lines,
            allows: Vec::new(),
        };
        ctx.allows = ctx.parse_allows();
        ctx
    }

    /// Parses annotations out of the comment map. An annotation trailing
    /// code applies to its own line; an annotation alone on a line applies
    /// to the next code line (skipping further comment/attribute/blank
    /// lines, so annotations stack).
    fn parse_allows(&self) -> Vec<Allow> {
        let mut allows = Vec::new();
        for (&line, text) in &self.plain_comments {
            let mut rest = text.as_str();
            while let Some(pos) = rest.find("kdlint:") {
                let after = &rest[pos + "kdlint:".len()..];
                let spec = after.trim_start();
                let (key, reason) = parse_allow_spec(spec);
                let target = if self.code_lines.contains(&line) {
                    line
                } else {
                    self.next_code_line(line)
                };
                allows.push(Allow {
                    key,
                    reason,
                    at: line,
                    target,
                });
                rest = after;
            }
        }
        allows
    }

    /// The first code line after `line`, skipping comment-only, blank, and
    /// attribute lines. Returns 0 (no line) when nothing follows.
    fn next_code_line(&self, line: u32) -> u32 {
        let mut l = line + 1;
        loop {
            if self.code_lines.contains(&l) {
                return l;
            }
            let raw = match self.raw_lines.get(l as usize - 1) {
                Some(r) => r.trim(),
                None => return 0,
            };
            let skippable = raw.is_empty() || self.comments.contains_key(&l);
            if !skippable {
                return 0;
            }
            l += 1;
        }
    }

    /// Whether the contiguous comment/attribute block ending directly above
    /// `line` (or `line` itself) contains `SAFETY:`.
    fn has_safety_comment(&self, line: u32) -> bool {
        if self
            .comments
            .get(&line)
            .is_some_and(|c| c.contains("SAFETY:"))
        {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            if let Some(text) = self.comments.get(&l) {
                if text.contains("SAFETY:") {
                    return true;
                }
                // A line that is comment-only continues the block; a line
                // with code ends it (its trailing comment was checked).
                if self.code_lines.contains(&l) {
                    return false;
                }
                continue;
            }
            let raw = self.raw_lines.get(l as usize - 1).map_or("", |r| r.trim());
            // Attribute lines (`#[...]`, `#![...]`) sit between a SAFETY
            // comment and the unsafe item without breaking contiguity.
            if raw.starts_with('#') && !self.code_lines.contains(&l) {
                continue;
            }
            return false;
        }
        false
    }
}

/// Splits `allow(<key>): <reason>` into its parts. Unknown shapes come
/// back with an empty key so the annotation check can flag them.
fn parse_allow_spec(spec: &str) -> (String, String) {
    let Some(body) = spec.strip_prefix("allow(") else {
        return (String::new(), String::new());
    };
    let Some(close) = body.find(')') else {
        return (String::new(), String::new());
    };
    let key = body[..close].trim().to_string();
    let after = body[close + 1..].trim_start();
    let reason = after.strip_prefix(':').unwrap_or("").trim().to_string();
    (key, reason)
}

/// One lint rule: a name, an allow-key, a path scope, and a token-level
/// check producing candidate findings (the engine applies allows).
pub trait Rule {
    /// Diagnostic name, e.g. `no-wallclock`.
    fn name(&self) -> &'static str;
    /// The key accepted in `kdlint: allow(<key>)`, empty if the rule has
    /// its own grammar (`unsafe-needs-safety` wants a SAFETY comment, not
    /// an allow).
    fn allow_key(&self) -> &'static str;
    /// Whether the rule runs on this workspace-relative path.
    fn applies(&self, path: &str) -> bool;
    /// Emits every candidate finding (allows are applied by the engine).
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>);
}

fn diag(ctx: &FileCtx, line: u32, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        path: ctx.path.clone(),
        line,
        rule,
        message,
    }
}

fn in_bench(path: &str) -> bool {
    path.starts_with("crates/bench/")
}

// ---------------------------------------------------------------------
// no-wallclock
// ---------------------------------------------------------------------

/// `Instant` / `SystemTime` make values (or observable control flow)
/// depend on wall time, which breaks replay ≡ live. Allowed only at
/// annotated sites — deadline bounding and reported timings, never data.
pub struct NoWallclock;

impl Rule for NoWallclock {
    fn name(&self) -> &'static str {
        "no-wallclock"
    }
    fn allow_key(&self) -> &'static str {
        "wallclock"
    }
    fn applies(&self, path: &str) -> bool {
        // The bench crate exists to measure wall time.
        !in_bench(path)
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        for t in &ctx.code {
            if let Some(name @ ("Instant" | "SystemTime")) = t.kind.ident() {
                out.push(diag(
                    ctx,
                    t.line,
                    self.name(),
                    format!(
                        "`{name}` reads the wall clock; results must not depend on real \
                         time — bound the site with a deadline argument or annotate why \
                         it can only affect latency"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// no-ambient-rng
// ---------------------------------------------------------------------

/// Ambient randomness (`thread_rng`, `rand::random`, `RandomState`) is
/// unseedable and unreplayable; all randomness must come from explicit
/// seeded streams.
pub struct NoAmbientRng;

impl Rule for NoAmbientRng {
    fn name(&self) -> &'static str {
        "no-ambient-rng"
    }
    fn allow_key(&self) -> &'static str {
        "ambient-rng"
    }
    fn applies(&self, _path: &str) -> bool {
        true
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        let code = &ctx.code;
        for (i, t) in code.iter().enumerate() {
            match t.kind.ident() {
                Some(name @ ("thread_rng" | "RandomState")) => {
                    out.push(diag(
                        ctx,
                        t.line,
                        self.name(),
                        format!(
                            "`{name}` is ambient (unseeded) randomness; derive every \
                             random stream from an explicit seed"
                        ),
                    ));
                }
                // `rand::random` (possibly `rand::random::<T>()`).
                Some("rand")
                    if code.get(i + 1).is_some_and(|t| t.kind == Tok::PathSep)
                        && code.get(i + 2).and_then(|t| t.kind.ident()) == Some("random") =>
                {
                    out.push(diag(
                        ctx,
                        t.line,
                        self.name(),
                        "`rand::random` is ambient (unseeded) randomness; derive every \
                         random stream from an explicit seed"
                            .to_string(),
                    ));
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------
// hash-iteration
// ---------------------------------------------------------------------

/// Methods whose results surface iteration order.
const ITER_METHODS: [&str; 11] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "extend",
];

/// Iterating a `HashMap`/`HashSet` observes randomized (per-process)
/// order. The rule tracks bindings declared with a hash-container type or
/// constructor in the same file and flags iteration over them — switch to
/// `BTreeMap`/`BTreeSet`, or collect-and-sort before iterating.
pub struct HashIteration;

impl HashIteration {
    /// Binding names declared as hash containers: `name: HashMap<..>`
    /// (fields, lets, params — wrappers like `Mutex<HashMap<..>>`
    /// included) and `name = HashMap::new()/with_capacity(..)/from(..)`.
    fn tracked_bindings(ctx: &FileCtx) -> BTreeSet<String> {
        let code = &ctx.code;
        let mut tracked = BTreeSet::new();
        for (i, t) in code.iter().enumerate() {
            if !matches!(t.kind.ident(), Some("HashMap" | "HashSet")) {
                continue;
            }
            // Walk back over the type/path context to the nearest `:` or
            // `=` within the declaration, then take the ident before it.
            let window_start = i.saturating_sub(24);
            for j in (window_start..i).rev() {
                match &code[j].kind {
                    Tok::Punct(':') | Tok::Punct('=') => {
                        if let Some(Tok::Ident(name)) = code.get(j.wrapping_sub(1)).map(|t| &t.kind)
                        {
                            tracked.insert(name.clone());
                        }
                        break;
                    }
                    // `;`, `{`, `}` end the declaration: no binding found
                    // (e.g. a bare `use` import — importing is fine,
                    // iterating is what the rule is for).
                    Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
                    _ => {}
                }
            }
        }
        tracked
    }
}

impl Rule for HashIteration {
    fn name(&self) -> &'static str {
        "hash-iteration"
    }
    fn allow_key(&self) -> &'static str {
        "hash-iteration"
    }
    fn applies(&self, path: &str) -> bool {
        // Every crate whose output reaches results or stats. The bench
        // crate only times; everything else is in scope.
        !in_bench(path)
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        let tracked = Self::tracked_bindings(ctx);
        if tracked.is_empty() {
            return;
        }
        let code = &ctx.code;
        let mut flag = |line: u32, name: &str, how: &str| {
            out.push(diag(
                ctx,
                line,
                "hash-iteration",
                format!(
                    "{how} `{name}`, a HashMap/HashSet, observes randomized iteration \
                     order; use BTreeMap/BTreeSet or sort before iterating"
                ),
            ));
        };
        for (i, t) in code.iter().enumerate() {
            let Some(name) = t.kind.ident() else { continue };
            if !tracked.contains(name) {
                continue;
            }
            // `tracked.iter()` / `tracked.keys()` / ... method calls.
            if code.get(i + 1).map(|t| &t.kind) == Some(&Tok::Punct('.')) {
                if let Some(m) = code.get(i + 2).and_then(|t| t.kind.ident()) {
                    if ITER_METHODS.contains(&m)
                        && code.get(i + 3).map(|t| &t.kind) == Some(&Tok::Punct('('))
                    {
                        flag(t.line, name, &format!("calling `.{m}()` on"));
                        continue;
                    }
                }
            }
            // `for x in tracked` — scan back for a `for`..`in` context on
            // the same statement.
            let window_start = i.saturating_sub(16);
            let mut saw_in = false;
            for j in (window_start..i).rev() {
                match code[j].kind.ident() {
                    Some("in") => saw_in = true,
                    Some("for") if saw_in => {
                        flag(t.line, name, "`for` loop over");
                        break;
                    }
                    _ => {
                        if matches!(code[j].kind, Tok::Punct(';') | Tok::Punct('{')) {
                            break;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// unsafe-needs-safety
// ---------------------------------------------------------------------

/// Every `unsafe` block/impl/fn must state its proof obligation in a
/// `// SAFETY:` comment on the same line or the contiguous comment block
/// directly above.
pub struct UnsafeNeedsSafety;

impl Rule for UnsafeNeedsSafety {
    fn name(&self) -> &'static str {
        "unsafe-needs-safety"
    }
    fn allow_key(&self) -> &'static str {
        "" // the SAFETY comment *is* the annotation
    }
    fn applies(&self, _path: &str) -> bool {
        true
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        for t in &ctx.code {
            if t.kind.ident() == Some("unsafe") && !ctx.has_safety_comment(t.line) {
                out.push(diag(
                    ctx,
                    t.line,
                    self.name(),
                    "`unsafe` without a `// SAFETY:` comment — state the invariant that \
                     makes this sound, directly above the site"
                        .to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// relaxed-ordering-audit
// ---------------------------------------------------------------------

/// `Ordering::Relaxed` provides no happens-before edges; it is only safe
/// on audited stat counters (and RMW-unique ID/claim counters whose
/// payloads are published elsewhere), never on cross-thread control flow
/// like liveness flags. Every site must be annotated or upgraded.
pub struct RelaxedOrderingAudit;

impl Rule for RelaxedOrderingAudit {
    fn name(&self) -> &'static str {
        "relaxed-ordering-audit"
    }
    fn allow_key(&self) -> &'static str {
        "relaxed"
    }
    fn applies(&self, _path: &str) -> bool {
        true
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        let code = &ctx.code;
        for (i, t) in code.iter().enumerate() {
            if t.kind.ident() == Some("Ordering")
                && code.get(i + 1).map(|t| &t.kind) == Some(&Tok::PathSep)
                && code.get(i + 2).and_then(|t| t.kind.ident()) == Some("Relaxed")
            {
                out.push(diag(
                    ctx,
                    t.line,
                    self.name(),
                    "`Ordering::Relaxed` is unaudited — annotate why no happens-before \
                     edge is needed (stat counter, RMW-unique claim), or upgrade the \
                     ordering if any thread branches on this value"
                        .to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// unbounded-wait
// ---------------------------------------------------------------------

/// Wait methods with no deadline parameter.
const UNBOUNDED_WAITS: [&str; 4] = ["wait", "wait_while", "recv", "join"];

/// The serving tier's totality contract: every route returns exactly
/// once, never hangs — so every wait in `core::serve` must carry a
/// timeout (`wait_timeout*`, `recv_timeout`, `wait_for`) or an annotation
/// explaining what bounds it.
pub struct UnboundedWait;

impl Rule for UnboundedWait {
    fn name(&self) -> &'static str {
        "unbounded-wait"
    }
    fn allow_key(&self) -> &'static str {
        "unbounded-wait"
    }
    fn applies(&self, path: &str) -> bool {
        path.starts_with("crates/core/src/serve/")
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        let code = &ctx.code;
        for (i, t) in code.iter().enumerate() {
            if t.kind != Tok::Punct('.') {
                continue;
            }
            let Some(m) = code.get(i + 1).and_then(|t| t.kind.ident()) else {
                continue;
            };
            if !UNBOUNDED_WAITS.contains(&m)
                || code.get(i + 2).map(|t| &t.kind) != Some(&Tok::Punct('('))
            {
                continue;
            }
            // `join` is also `Path::join`/`slice::join`, which take an
            // argument — only the nullary call is a thread join.
            let nullary = code.get(i + 3).map(|t| &t.kind) == Some(&Tok::Punct(')'));
            if m != "join" || nullary {
                out.push(diag(
                    ctx,
                    code[i + 1].line,
                    self.name(),
                    format!(
                        "`.{m}()` can block forever; the serve totality contract requires \
                         a deadline-bounded wait (`wait_timeout*` / `wait_for` / \
                         `recv_timeout`) or an annotation stating what bounds it"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// no-hot-alloc
// ---------------------------------------------------------------------

/// The serving hot path's steady-state contract: after warmup, a request
/// is served without touching the allocator (the kdprof profile record
/// pins `ArenaGrowth == 0` dynamically; this rule drift-proofs it
/// statically). Functions marked `// kdprof: hot` — the ones the profile
/// showed on the per-request path — must not call `Vec::new`,
/// `.to_vec()`, or `.clone()`; scratch comes from the per-worker arena,
/// and cold branches (error completion, shutdown) carry an annotation
/// saying why they never run in steady state.
pub struct NoHotAlloc;

impl NoHotAlloc {
    /// Token-index ranges `[body_open, body_close)` of every function
    /// marked by a `// kdprof: hot` comment (trailing the signature line
    /// or on its own line directly above, attributes in between fine —
    /// the same targeting as allow-annotations).
    fn hot_ranges(ctx: &FileCtx) -> Vec<(usize, usize)> {
        let code = &ctx.code;
        let mut ranges = Vec::new();
        for (&line, text) in &ctx.plain_comments {
            if !text.contains("kdprof: hot") {
                continue;
            }
            let target = if ctx.code_lines.contains(&line) {
                line
            } else {
                ctx.next_code_line(line)
            };
            if target == 0 {
                continue;
            }
            // First `fn` at or after the marked line, then its body: the
            // brace block after the signature.
            let Some(fn_idx) = code
                .iter()
                .position(|t| t.line >= target && t.kind.ident() == Some("fn"))
            else {
                continue;
            };
            let Some(open) = code[fn_idx..]
                .iter()
                .position(|t| t.kind == Tok::Punct('{'))
                .map(|p| fn_idx + p)
            else {
                continue;
            };
            let mut depth = 0usize;
            let mut close = code.len();
            for (i, t) in code.iter().enumerate().skip(open) {
                match t.kind {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            close = i;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            ranges.push((open, close));
        }
        ranges
    }
}

impl Rule for NoHotAlloc {
    fn name(&self) -> &'static str {
        "no-hot-alloc"
    }
    fn allow_key(&self) -> &'static str {
        "hot-alloc"
    }
    fn applies(&self, path: &str) -> bool {
        // The profiled per-request path: the serving tier and the GEMM
        // kernel it bottoms out in. Train-time code may allocate.
        path.starts_with("crates/core/src/serve/") || path == "crates/tsnn/src/gemm.rs"
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        let code = &ctx.code;
        for (start, close) in Self::hot_ranges(ctx) {
            for i in start..close {
                let t = &code[i];
                let Some(name) = t.kind.ident() else { continue };
                // `Vec::new(..)` / `Vec::with_capacity(..)`.
                if name == "Vec"
                    && code.get(i + 1).map(|t| &t.kind) == Some(&Tok::PathSep)
                    && matches!(
                        code.get(i + 2).and_then(|t| t.kind.ident()),
                        Some("new" | "with_capacity")
                    )
                {
                    let ctor = code[i + 2].kind.ident().unwrap_or("new");
                    out.push(diag(
                        ctx,
                        t.line,
                        self.name(),
                        format!(
                            "`Vec::{ctor}` allocates inside a `kdprof: hot` function; \
                             steady-state serving must be allocation-free — take scratch \
                             from the worker arena, or annotate why this branch is cold"
                        ),
                    ));
                    continue;
                }
                // `.to_vec()` / `.clone()` method calls.
                if matches!(name, "to_vec" | "clone")
                    && i > start
                    && code[i - 1].kind == Tok::Punct('.')
                    && code.get(i + 1).map(|t| &t.kind) == Some(&Tok::Punct('('))
                {
                    out.push(diag(
                        ctx,
                        t.line,
                        self.name(),
                        format!(
                            "`.{name}()` allocates inside a `kdprof: hot` function; \
                             steady-state serving must be allocation-free — borrow or \
                             reuse arena scratch, or annotate why this branch is cold"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// no-env-knob
// ---------------------------------------------------------------------

/// A run-time `env::var` / `env::var_os` read is a hidden switch: it
/// selects a second code path (or value) that tests and production may
/// not share. Allowed only at annotated sites that configure deployment
/// (a thread count, a cache path), never behaviour. The compile-time
/// `env!` macro is not a read and is not flagged.
pub struct NoEnvKnob;

impl Rule for NoEnvKnob {
    fn name(&self) -> &'static str {
        "no-env-knob"
    }
    fn allow_key(&self) -> &'static str {
        "env-knob"
    }
    fn applies(&self, path: &str) -> bool {
        // Bench drivers take their scale and output path from the
        // environment.
        !in_bench(path)
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        let code = &ctx.code;
        for (i, t) in code.iter().enumerate() {
            if t.kind.ident() != Some("env")
                || code.get(i + 1).map(|t| &t.kind) != Some(&Tok::PathSep)
            {
                continue;
            }
            if let Some(read @ ("var" | "var_os")) = code.get(i + 2).and_then(|t| t.kind.ident()) {
                out.push(diag(
                    ctx,
                    t.line,
                    self.name(),
                    format!(
                        "`env::{read}` reads a run-time switch; one code path must serve \
                         tests and production — take the value as an argument, or \
                         annotate why it only configures deployment"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// The eight contract rules, in reporting order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoWallclock),
        Box::new(NoAmbientRng),
        Box::new(HashIteration),
        Box::new(UnsafeNeedsSafety),
        Box::new(RelaxedOrderingAudit),
        Box::new(UnboundedWait),
        Box::new(NoHotAlloc),
        Box::new(NoEnvKnob),
    ]
}

/// Looks a rule up by its diagnostic name (`no-wallclock`, ...).
pub fn rule_by_name(name: &str) -> Option<Box<dyn Rule>> {
    default_rules().into_iter().find(|r| r.name() == name)
}

/// Lints one file with `rules`. `enforce_scope = false` runs every rule
/// regardless of its path scope (fixture mode). When `audit_allows` is
/// set, malformed and unused allow-annotations are violations too — on by
/// default for full-rule runs so the allow-list cannot rot.
pub fn lint_source(
    path: &str,
    source: &str,
    rules: &[Box<dyn Rule>],
    enforce_scope: bool,
    audit_allows: bool,
) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(path, source);
    let mut out = Vec::new();
    let mut used: BTreeSet<(String, u32)> = BTreeSet::new();
    for rule in rules {
        if enforce_scope && !rule.applies(path) {
            continue;
        }
        let mut found = Vec::new();
        rule.check(&ctx, &mut found);
        for d in found {
            let allowed = !rule.allow_key().is_empty()
                && ctx
                    .allows
                    .iter()
                    .any(|a| a.key == rule.allow_key() && a.target == d.line && a.target != 0);
            if allowed {
                used.insert((rule.allow_key().to_string(), d.line));
            } else {
                out.push(d);
            }
        }
    }
    if audit_allows {
        for a in &ctx.allows {
            if a.key.is_empty() {
                out.push(diag(
                    &ctx,
                    a.at,
                    "annotation",
                    "malformed kdlint annotation — expected \
                     `kdlint: allow(<rule>): <reason>`"
                        .to_string(),
                ));
            } else if !ALLOW_KEYS.contains(&a.key.as_str()) {
                out.push(diag(
                    &ctx,
                    a.at,
                    "annotation",
                    format!(
                        "unknown allow key `{}` — one of: {}",
                        a.key,
                        ALLOW_KEYS.join(", ")
                    ),
                ));
            } else if a.reason.is_empty() {
                out.push(diag(
                    &ctx,
                    a.at,
                    "annotation",
                    format!(
                        "allow({}) carries no reason — every exemption must say *why* \
                         the contract still holds",
                        a.key
                    ),
                ));
            } else if !used.contains(&(a.key.clone(), a.target)) {
                out.push(diag(
                    &ctx,
                    a.at,
                    "annotation",
                    format!(
                        "unused allow({}) — the rule reports nothing on line {}; \
                         delete the annotation",
                        a.key, a.target
                    ),
                ));
            }
        }
    }
    out.sort();
    out
}
