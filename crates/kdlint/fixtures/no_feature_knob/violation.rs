//! no-feature-knob: fails — a cargo feature picks the code path.

#[cfg(feature = "fast")]
pub fn kernel() -> u32 {
    1
}

pub fn fast_path_enabled() -> bool {
    cfg!(feature = "fast")
}

#[cfg(not(feature = "fast"))]
pub fn kernel() -> u32 {
    0
}
