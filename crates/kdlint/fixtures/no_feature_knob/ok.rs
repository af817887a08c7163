//! no-feature-knob: passes — `cfg(test)` and target predicates are not
//! cargo features, and cfg(feature = "x") inside strings or comments is
//! not code.

#[cfg(test)]
mod tests {}

#[cfg(target_arch = "x86_64")]
pub fn arch() -> &'static str {
    "x86_64 — cfg!(feature = \"x\") in a string literal is data"
}

pub fn debug_build() -> bool {
    cfg!(debug_assertions)
}

/// A field named `feature` is an identifier, not a cfg predicate.
pub struct Column {
    pub feature: usize,
}
