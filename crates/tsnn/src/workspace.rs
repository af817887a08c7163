//! Activation shapes and the grow-only buffer a layer graph runs on.
//!
//! A graph call on a [`Workspace`] sizes the buffer once for an input
//! shape ([`crate::layers::Layer::ws_len`]) and carves it per layer into
//! output, tape and gradient slots, so steady-state training steps and
//! inference chunks reuse the same memory instead of allocating,
//! zero-filling and freeing activation-sized tensors per call. Every slot
//! is fully overwritten before it is read, so reuse never changes a bit.

use std::ops::Range;

/// The shape of an activation, rank 1 to 3, held inline so shape
/// arithmetic never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    dims: [usize; 3],
    rank: usize,
}

impl Dims {
    /// Dims from a shape slice.
    ///
    /// # Panics
    /// Panics unless `shape` has rank 1 to 3.
    pub fn new(shape: &[usize]) -> Self {
        assert!(
            (1..=3).contains(&shape.len()),
            "activation rank must be 1 to 3, got {shape:?}"
        );
        let mut dims = [0; 3];
        dims[..shape.len()].copy_from_slice(shape);
        Self {
            dims,
            rank: shape.len(),
        }
    }

    /// The shape as a slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Size of axis `d`.
    pub fn dim(&self, d: usize) -> usize {
        self.as_slice()[d]
    }

    /// Element count.
    pub fn numel(&self) -> usize {
        self.as_slice().iter().product()
    }
}

/// A grow-only `f32` buffer that layer graphs carve per call (see the
/// [module docs](self)). Cloning yields an empty workspace: a copy of a
/// model sizes its own on first use.
#[derive(Debug, Default)]
pub struct Workspace {
    buf: Vec<f32>,
}

impl Clone for Workspace {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl Workspace {
    /// An empty workspace; it grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The first `len` floats, growing the buffer if it is shorter. The
    /// contents are whatever the previous call left: callers overwrite
    /// before they read.
    pub fn get(&mut self, len: usize) -> &mut [f32] {
        if self.buf.len() < len {
            self.buf.resize(len, 0.0);
        }
        &mut self.buf[..len]
    }

    /// Floats currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the workspace holds nothing yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Mutable views of `buf` at `N` pairwise-disjoint `ranges`, in argument
/// order. Empty ranges may sit anywhere.
///
/// # Panics
/// Panics if two non-empty ranges overlap or a range is out of bounds.
pub(crate) fn carve<const N: usize>(buf: &mut [f32], ranges: [Range<usize>; N]) -> [&mut [f32]; N] {
    let mut order: [usize; N] = std::array::from_fn(|i| i);
    order.sort_unstable_by_key(|&i| ranges[i].start);
    let mut out: [Option<&mut [f32]>; N] = std::array::from_fn(|_| None);
    let mut rest = buf;
    let mut at = 0;
    for i in order {
        let r = &ranges[i];
        if r.is_empty() {
            out[i] = Some(&mut []);
            continue;
        }
        assert!(r.start >= at, "overlapping workspace slots");
        let tail = std::mem::take(&mut rest);
        let (_, tail) = tail.split_at_mut(r.start - at);
        let (mine, tail) = tail.split_at_mut(r.len());
        out[i] = Some(mine);
        rest = tail;
        at = r.end;
    }
    out.map(|s| s.expect("every range carved"))
}

/// A bump cursor over slot offsets: each [`Cursor::take`] reserves the
/// next `len` floats.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Cursor(usize);

impl Cursor {
    /// Reserves `len` floats and returns their range.
    pub(crate) fn take(&mut self, len: usize) -> Range<usize> {
        let r = self.0..self.0 + len;
        self.0 += len;
        r
    }

    /// Floats reserved so far.
    pub(crate) fn end(&self) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_roundtrip() {
        let d = Dims::new(&[2, 3, 4]);
        assert_eq!(d.as_slice(), &[2, 3, 4]);
        assert_eq!(d.numel(), 24);
        assert_eq!(Dims::new(&[5]).numel(), 5);
    }

    #[test]
    fn carve_returns_argument_order_and_allows_empty_ranges() {
        let mut buf: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let [a, b, c] = carve(&mut buf, [6..8, 0..2, 3..3]);
        assert_eq!(a, &[6.0, 7.0]);
        assert_eq!(b, &[0.0, 1.0]);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn carve_rejects_overlap() {
        let mut buf = vec![0.0f32; 8];
        let _ = carve(&mut buf, [0..4, 3..5]);
    }

    #[test]
    fn workspace_grows_and_clones_empty() {
        let mut ws = Workspace::new();
        ws.get(4).fill(1.0);
        assert_eq!(ws.get(2), &[1.0, 1.0]);
        assert_eq!(ws.len(), 4);
        assert!(ws.clone().is_empty());
    }
}
