//! Selector management: save, list, load (the demo system's "Selector
//! Management" module).
//!
//! A saved selector is a directory entry of two JSON files: a manifest
//! describing how to rebuild the architecture and a weight snapshot. The
//! store also persists training checkpoints (`<name>.ckpt`,
//! [`TrainCheckpoint`]) so interrupted sessions resume bitwise-identically.

use crate::arch::Architecture;
use crate::train::{TrainCheckpoint, TrainedSelector};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use tsnn::serialize::{load_params, save_params, StateDict};

/// On-disk weight snapshot: trainable parameters plus non-trainable
/// buffers (batch-norm running statistics).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SavedState {
    /// Trainable parameters, `params_mut()` order.
    pub params: StateDict,
    /// Non-trainable buffers, `buffers_mut()` order.
    pub buffers: Vec<Vec<f32>>,
}

/// Manifest of a saved selector.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SelectorManifest {
    /// User-chosen name.
    pub name: String,
    /// Architecture to rebuild.
    pub arch: Architecture,
    /// Window length.
    pub window: usize,
    /// Encoder width.
    pub width: usize,
    /// Build seed (init shapes are seed-independent but kept for
    /// reproducibility records).
    pub seed: u64,
    /// Free-form notes (e.g. training configuration, evaluation results).
    pub notes: String,
}

/// Directory-backed selector store.
#[derive(Debug, Clone)]
pub struct SelectorStore {
    dir: PathBuf,
}

impl SelectorStore {
    /// Opens (creating if needed) a store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// Saves a selector under `name`, overwriting any previous version.
    ///
    /// Takes the selector by shared reference: saving snapshots read-only
    /// parameters and buffers, so a selector that is concurrently serving
    /// requests can be persisted without exclusive access.
    pub fn save(&self, name: &str, selector: &TrainedSelector, notes: &str) -> std::io::Result<()> {
        validate_name(name)?;
        let manifest = SelectorManifest {
            name: name.to_string(),
            arch: selector.arch,
            window: selector.window,
            width: selector.width,
            seed: selector.seed,
            notes: notes.to_string(),
        };
        let params = save_params(&selector.params());
        let buffers: Vec<Vec<f32>> = selector.buffers().iter().map(|b| b.to_vec()).collect();
        let state = SavedState { params, buffers };
        std::fs::write(
            self.manifest_path(name),
            serde_json::to_vec_pretty(&manifest)?,
        )?;
        std::fs::write(self.weights_path(name), serde_json::to_vec(&state)?)?;
        Ok(())
    }

    /// Loads a selector by name.
    ///
    /// # Errors
    /// `InvalidData` when the manifest's window is shorter than its
    /// architecture accepts ([`Architecture::min_window`]) or the weight
    /// snapshot does not fit the rebuilt architecture.
    pub fn load(&self, name: &str) -> std::io::Result<TrainedSelector> {
        validate_name(name)?;
        let manifest: SelectorManifest =
            serde_json::from_slice(&std::fs::read(self.manifest_path(name))?)?;
        if manifest.window < manifest.arch.min_window() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "selector {name:?}: window {} is shorter than the {} minimum of {}",
                    manifest.window,
                    manifest.arch.name(),
                    manifest.arch.min_window()
                ),
            ));
        }
        let state: SavedState = serde_json::from_slice(&std::fs::read(self.weights_path(name))?)?;
        let mut selector = TrainedSelector::build(
            manifest.arch,
            manifest.window,
            manifest.width,
            manifest.seed,
        );
        load_params(&mut selector.params_mut(), &state.params)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let mut buffers = selector.buffers_mut();
        if buffers.len() != state.buffers.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "buffer count mismatch: model has {}, snapshot has {}",
                    buffers.len(),
                    state.buffers.len()
                ),
            ));
        }
        for (dst, src) in buffers.iter_mut().zip(&state.buffers) {
            if dst.len() != src.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "buffer length mismatch",
                ));
            }
            dst.copy_from_slice(src);
        }
        Ok(selector)
    }

    /// Whether a selector of this name is saved (both manifest and
    /// weights present) — the cheap existence probe the sharded router
    /// uses to validate a store-backed registration before placing it.
    pub fn contains(&self, name: &str) -> bool {
        validate_name(name).is_ok()
            && self.manifest_path(name).is_file()
            && self.weights_path(name).is_file()
    }

    /// Lists all saved selector manifests, sorted by name.
    pub fn list(&self) -> std::io::Result<Vec<SelectorManifest>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("manifest") {
                if let Ok(bytes) = std::fs::read(&path) {
                    if let Ok(m) = serde_json::from_slice::<SelectorManifest>(&bytes) {
                        out.push(m);
                    }
                }
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    /// Deletes a saved selector (and any checkpoint of the same name).
    /// Missing entries are not an error.
    pub fn delete(&self, name: &str) -> std::io::Result<()> {
        validate_name(name)?;
        for path in [
            self.manifest_path(name),
            self.weights_path(name),
            self.checkpoint_path(name),
        ] {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Persists a training checkpoint under `name`, overwriting any
    /// previous checkpoint of that name. The usual caller is
    /// [`crate::train::TrainSession::save_checkpoint`] at an epoch
    /// boundary.
    ///
    /// The write is atomic (unique temp file + rename), so a crash
    /// mid-save leaves the previous checkpoint intact — losing the
    /// checkpoint to the very interruption it exists to survive would
    /// defeat the point. Temp names are unique per (process, call), so
    /// concurrent saves of the same name cannot interleave bytes; failed
    /// writes clean their temp up (a hard kill between write and rename
    /// can still leave a dot-prefixed `.…tmp…` file behind, which `list`
    /// and `load_checkpoint` ignore).
    pub fn save_checkpoint(&self, name: &str, checkpoint: &TrainCheckpoint) -> std::io::Result<()> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        validate_name(name)?;
        let tmp = self.dir.join(format!(
            ".{name}.ckpt.tmp-{}-{}",
            std::process::id(),
            // kdlint: allow(relaxed): RMW-unique sequence — each caller gets
            // a distinct temp suffix; nothing is published through it.
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let bytes = serde_json::to_vec(checkpoint)?;
        let written = std::fs::write(&tmp, bytes)
            .and_then(|()| std::fs::rename(&tmp, self.checkpoint_path(name)));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }

    /// Loads a training checkpoint by name (resume it with
    /// [`crate::train::TrainSession::resume`]).
    pub fn load_checkpoint(&self, name: &str) -> std::io::Result<TrainCheckpoint> {
        validate_name(name)?;
        Ok(serde_json::from_slice(&std::fs::read(
            self.checkpoint_path(name),
        )?)?)
    }

    fn manifest_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.manifest"))
    }

    fn weights_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.weights"))
    }

    fn checkpoint_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.ckpt"))
    }

    /// Store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

fn validate_name(name: &str) -> std::io::Result<()> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.');
    if ok {
        Ok(())
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("invalid selector name {name:?} (use [A-Za-z0-9._-])"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::TrainedSelector;

    fn temp_store(tag: &str) -> SelectorStore {
        let dir = std::env::temp_dir().join(format!("kdsel-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SelectorStore::open(dir).unwrap()
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let store = temp_store("roundtrip");
        let mut original = TrainedSelector::build(Architecture::ConvNet, 32, 4, 9);
        // Perturb the batch-norm running statistics so the round trip must
        // restore buffers, not just trainable parameters.
        for (i, buf) in original.buffers_mut().into_iter().enumerate() {
            for (j, v) in buf.iter_mut().enumerate() {
                *v = 0.5 + 0.01 * (i + j) as f32;
            }
        }
        let windows: Vec<Vec<f32>> = (0..3)
            .map(|s| (0..32).map(|t| ((t + s) as f32 * 0.3).sin()).collect())
            .collect();
        let before = original.predict_logits(&windows);
        store.save("my-selector", &original, "unit test").unwrap();

        let loaded = store.load("my-selector").unwrap();
        let after = loaded.predict_logits(&windows);
        assert_eq!(before, after);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn list_and_delete() {
        let store = temp_store("list");
        let s = TrainedSelector::build(Architecture::ConvNet, 32, 4, 1);
        store.save("a", &s, "").unwrap();
        store.save("b", &s, "noted").unwrap();
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].name, "a");
        assert_eq!(listed[1].notes, "noted");
        store.delete("a").unwrap();
        assert_eq!(store.list().unwrap().len(), 1);
        store.delete("a").unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn invalid_names_rejected() {
        let store = temp_store("names");
        let s = TrainedSelector::build(Architecture::ConvNet, 32, 4, 1);
        assert!(store.save("../evil", &s, "").is_err());
        assert!(store.save("", &s, "").is_err());
        assert!(store.load("no/slash").is_err());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_rejects_windows_below_the_architecture_minimum() {
        let store = temp_store("minwin");
        // A ConvNet at window 2 builds and saves; a Transformer manifest
        // edited down to window 4 would panic in the stem if built.
        let convnet = TrainedSelector::build(Architecture::ConvNet, 2, 4, 1);
        store.save("convnet", &convnet, "").unwrap();
        let transformer = TrainedSelector::build(Architecture::Transformer, 8, 4, 1);
        store.save("transformer", &transformer, "").unwrap();
        let path = store.manifest_path("transformer");
        let mut manifest: SelectorManifest =
            serde_json::from_slice(&std::fs::read(&path).unwrap()).unwrap();
        manifest.window = 4;
        std::fs::write(&path, serde_json::to_vec(&manifest).unwrap()).unwrap();
        for name in ["convnet", "transformer"] {
            let err = store.load(name).err().expect("short window must not load");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_missing_selector_fails() {
        let store = temp_store("missing");
        assert!(store.load("ghost").is_err());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
