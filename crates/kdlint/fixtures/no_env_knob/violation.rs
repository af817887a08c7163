//! no-env-knob: fails — an environment variable picks the code path.

pub fn fast_path_enabled() -> bool {
    std::env::var_os("KD_FAST_PATH").is_none()
}
