//! no-env-knob: passes — the one deployment read is annotated with a
//! reason, `env!` is compile-time, and `env::var` inside strings or
//! comments is not code.

/// Mentions env::var("KD_X") in a doc comment — comments are not code.
pub fn manifest_dir() -> &'static str {
    let banner = "std::env::var(\"KD_X\") in a string literal is data";
    let _ = banner;
    env!("CARGO_MANIFEST_DIR")
}

pub fn workers() -> usize {
    // kdlint: allow(env-knob): deployment width — the worker count never
    // changes a result, only how many threads compute it.
    std::env::var("KD_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}
