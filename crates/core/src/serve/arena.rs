//! Per-worker scratch arena for the serving hot path.
//!
//! Steady-state inference used to allocate per batch: window-value
//! buffers during extraction, the flat staging buffer behind the chunked
//! input, the encoder's activations and the logits the classifier
//! writes. The arena pools all four **per thread** (the encoder's as one
//! [`tsnn::Workspace`]) — the coalescer thread and each
//! [`tspar`] pool worker own one arena for the life of the process, so
//! after a warm-up pass the serving loop performs zero allocations in
//! the pooled paths ([`kdprof::Counter::ArenaGrowth`] pins this).
//!
//! # Determinism
//!
//! Pooling never changes results: every buffer is fully overwritten (or
//! `clear()`ed and re-extended) before use, and the arithmetic performed
//! on it is byte-for-byte the same as on a fresh allocation. The
//! `tests/serve_arena.rs` harness pins warm-arena serving, direct and
//! queued at `KD_THREADS ∈ {1, 4}`, bitwise against requests each served
//! on a fresh thread, whose arena starts empty.

use std::cell::RefCell;

/// Reusable scratch buffers for one serving thread.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Recycled window-value buffers (window matrices / znorm scratch).
    window_bufs: Vec<Vec<f32>>,
    /// Flat staging for the chunked batch input tensor (recycled through
    /// `Tensor::into_data`).
    input: Vec<f32>,
    /// Flat staging for the classifier's logit rows.
    logits: Vec<f32>,
    /// The encoder's inference workspace: features, activation slots and
    /// layer scratch, carved per chunk.
    workspace: tsnn::Workspace,
}

impl ScratchArena {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the input staging buffer, cleared but with its capacity.
    pub fn take_input(&mut self) -> Vec<f32> {
        Self::note(self.input.capacity());
        std::mem::take(&mut self.input)
    }

    /// Returns the input staging buffer for the next batch.
    pub fn put_input(&mut self, mut buf: Vec<f32>) {
        buf.clear();
        self.input = buf;
    }

    /// Takes the logits staging buffer, cleared but with its capacity.
    pub fn take_logits(&mut self) -> Vec<f32> {
        Self::note(self.logits.capacity());
        std::mem::take(&mut self.logits)
    }

    /// Returns the logits staging buffer for the next batch.
    pub fn put_logits(&mut self, mut buf: Vec<f32>) {
        buf.clear();
        self.logits = buf;
    }

    /// Takes the encoder's inference workspace, with whatever it has grown
    /// to.
    pub fn take_workspace(&mut self) -> tsnn::Workspace {
        Self::note(self.workspace.len());
        std::mem::take(&mut self.workspace)
    }

    /// Returns the inference workspace for the next chunk.
    pub fn put_workspace(&mut self, ws: tsnn::Workspace) {
        self.workspace = ws;
    }

    /// Takes a recycled window-value buffer (cleared), or a fresh one.
    pub fn take_window_buf(&mut self) -> Vec<f32> {
        match self.window_bufs.pop() {
            Some(mut b) => {
                Self::note(b.capacity());
                b.clear();
                b
            }
            None => {
                Self::note(0);
                Vec::new()
            }
        }
    }

    /// Returns window-value buffers for later extraction passes.
    pub fn put_window_bufs(&mut self, bufs: impl IntoIterator<Item = Vec<f32>>) {
        self.window_bufs.extend(bufs);
    }

    /// Growth accounting: a take with zero capacity will allocate.
    fn note(capacity: usize) {
        if capacity == 0 {
            kdprof::incr(kdprof::Counter::ArenaGrowth, 1);
        } else {
            kdprof::incr(kdprof::Counter::ArenaReuse, 1);
        }
    }
}

thread_local! {
    static ARENA: RefCell<ScratchArena> = RefCell::new(ScratchArena::new());
}

/// Runs `f` with this thread's arena.
pub fn with_arena<R>(f: impl FnOnce(&mut ScratchArena) -> R) -> R {
    ARENA.with(|a| f(&mut a.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_keep_capacity_across_take_put() {
        let mut a = ScratchArena::new();
        let mut b = a.take_input();
        b.extend_from_slice(&[1.0; 64]);
        a.put_input(b);
        let b = a.take_input();
        assert!(b.is_empty());
        assert!(b.capacity() >= 64, "capacity recycled");
    }

    #[test]
    fn window_bufs_recycle() {
        let mut a = ScratchArena::new();
        let mut w = a.take_window_buf();
        w.extend_from_slice(&[2.0; 32]);
        a.put_window_bufs([w]);
        let w = a.take_window_buf();
        assert!(w.is_empty());
        assert!(w.capacity() >= 32);
        // Pool drained: the next take is fresh.
        let w2 = a.take_window_buf();
        assert_eq!(w2.capacity(), 0);
    }
}
