//! Dense row-major `f32` tensor.

use crate::gemm;

/// A dense row-major tensor of `f32` values with a dynamic shape.
///
/// The workspace uses three layouts:
/// * `(N, C, L)` — batched channel-major sequences (conv stacks),
/// * `(N, T, D)` — batched token sequences (attention blocks),
/// * `(N, D)` — batched feature vectors (heads, projections).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; numel],
        }
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(data.len(), numel, "buffer does not match shape {shape:?}");
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Stacks equal-length rows into a `(rows.len(), row_len)` tensor.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let n = rows.len();
        let d = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n * d);
        for r in rows {
            assert_eq!(r.len(), d, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            shape: vec![n, d],
            data,
        }
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat immutable data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Size of dimension `d`.
    #[inline]
    pub fn dim(&self, d: usize) -> usize {
        self.shape[d]
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    /// Panics on element-count mismatch.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, self.data.len(), "reshape element mismatch");
        self.shape = shape.to_vec();
        self
    }

    /// Gives the tensor `shape`, reusing both buffers (no allocation once
    /// they have grown): a reused staging tensor whose contents the caller
    /// overwrites. Elements kept from before are left as they were, new
    /// ones are zero.
    pub fn set_shape(&mut self, shape: &[usize]) {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(shape.iter().product(), 0.0);
    }

    /// Row `i` of a rank-2 tensor.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert_eq!(self.shape.len(), 2);
        let d = self.shape[1];
        &self.data[i * d..(i + 1) * d]
    }

    /// Mutable row `i` of a rank-2 tensor.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert_eq!(self.shape.len(), 2);
        let d = self.shape[1];
        &mut self.data[i * d..(i + 1) * d]
    }

    /// Contiguous `(C·L)`- or `(T·D)`-slice for batch element `n` of a
    /// rank-3 tensor.
    #[inline]
    pub fn batch(&self, n: usize) -> &[f32] {
        debug_assert_eq!(self.shape.len(), 3);
        let stride = self.shape[1] * self.shape[2];
        &self.data[n * stride..(n + 1) * stride]
    }

    /// Mutable batch slice of a rank-3 tensor.
    #[inline]
    pub fn batch_mut(&mut self, n: usize) -> &mut [f32] {
        debug_assert_eq!(self.shape.len(), 3);
        let stride = self.shape[1] * self.shape[2];
        &mut self.data[n * stride..(n + 1) * stride]
    }

    /// Fills with zeros in place.
    pub fn zero_(&mut self) {
        for v in &mut self.data {
            *v = 0.0;
        }
    }

    /// Elementwise `self += other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise `self *= scalar`.
    pub fn scale_(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Sum of squares of all elements.
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }

    /// Consumes the tensor, returning its flat buffer. Lets hot loops
    /// recycle allocations (`Tensor::from_vec(shape, buf)` → use →
    /// `buf = t.into_data()`).
    #[inline]
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Matrix product of two rank-2 tensors: `(n,k) × (k,m) → (n,m)`.
    ///
    /// Runs on the cache-blocked, register-tiled, parallel kernel in
    /// [`crate::gemm`]; results are bit-identical at any thread count.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(other.shape.len(), 2);
        let (n, k) = (self.shape[0], self.shape[1]);
        let (k2, m) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch");
        let mut out = Tensor::zeros(&[n, m]);
        gemm::gemm(
            n,
            m,
            k,
            &self.data,
            gemm::Layout::Normal,
            &other.data,
            gemm::Layout::Normal,
            &mut out.data,
        );
        out
    }

    /// `selfᵀ × other` for rank-2 tensors: `(n,k)ᵀ × (n,m) → (k,m)`.
    ///
    /// The transpose is absorbed by the kernel's packing step — `self` is
    /// never materialised transposed.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(other.shape.len(), 2);
        let (n, k) = (self.shape[0], self.shape[1]);
        let (n2, m) = (other.shape[0], other.shape[1]);
        assert_eq!(n, n2, "t_matmul outer dimension mismatch");
        let mut out = Tensor::zeros(&[k, m]);
        gemm::gemm(
            k,
            m,
            n,
            &self.data,
            gemm::Layout::Transposed,
            &other.data,
            gemm::Layout::Normal,
            &mut out.data,
        );
        out
    }

    /// `self × otherᵀ` for rank-2 tensors: `(n,k) × (m,k)ᵀ → (n,m)`.
    ///
    /// The transpose is absorbed by the kernel's packing step.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(other.shape.len(), 2);
        let (n, k) = (self.shape[0], self.shape[1]);
        let (m, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_t inner dimension mismatch");
        let mut out = Tensor::zeros(&[n, m]);
        gemm::gemm(
            n,
            m,
            k,
            &self.data,
            gemm::Layout::Normal,
            &other.data,
            gemm::Layout::Transposed,
            &mut out.data,
        );
        out
    }

    /// Reference `matmul`: the seed's single-threaded i-k-j axpy kernel,
    /// kept verbatim so tests and benchmarks compare the blocked path
    /// against the original implementation.
    pub fn matmul_naive(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(other.shape.len(), 2);
        let (n, k) = (self.shape[0], self.shape[1]);
        let m = other.shape[1];
        assert_eq!(k, other.shape[0], "matmul inner dimension mismatch");
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..n {
            let a_row = self.row(i);
            let o_row = &mut out.data[i * m..(i + 1) * m];
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[kk * m..(kk + 1) * m];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Reference `t_matmul`: the seed's column-wise accumulation kernel.
    pub fn t_matmul_naive(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(other.shape.len(), 2);
        let (n, k) = (self.shape[0], self.shape[1]);
        let m = other.shape[1];
        assert_eq!(n, other.shape[0], "t_matmul outer dimension mismatch");
        let mut out = Tensor::zeros(&[k, m]);
        for i in 0..n {
            let a_row = self.row(i);
            let b_row = other.row(i);
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let o_row = &mut out.data[kk * m..(kk + 1) * m];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Reference `matmul_t`: the seed's row-dot kernel.
    pub fn matmul_t_naive(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(other.shape.len(), 2);
        let (n, k) = (self.shape[0], self.shape[1]);
        let m = other.shape[0];
        assert_eq!(k, other.shape[1], "matmul_t inner dimension mismatch");
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..n {
            let a_row = self.row(i);
            let o_row = &mut out.data[i * m..(i + 1) * m];
            for (j, o) in o_row.iter_mut().enumerate() {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_numel() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.numel(), 24);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "reshape element mismatch")]
    fn reshape_mismatch_panics() {
        let _ = Tensor::zeros(&[2, 2]).reshape(&[3, 2]);
    }

    #[test]
    fn rows_and_batches_are_views() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.row(1), &[4., 5., 6.]);
        let b = Tensor::from_vec(&[2, 2, 2], (0..8).map(|i| i as f32).collect());
        assert_eq!(b.batch(1), &[4., 5., 6., 7.]);
    }

    #[test]
    fn matmul_matches_reference() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(&[2, 2], vec![5., 6., 7., 8.]);
        assert_eq!(a.matmul(&b).data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let a = Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![1., 0., 0., 1., 1., 1.]);
        let got = a.t_matmul(&b); // (2,3)·(3,2) → (2,2)
                                  // aᵀ = [[1,3,5],[2,4,6]]
        assert_eq!(got.data(), &[6., 8., 8., 10.]);
    }

    #[test]
    fn matmul_t_equals_matmul_with_transpose() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[2, 3], vec![1., 1., 0., 0., 1., 1.]);
        let got = a.matmul_t(&b); // (2,3)·(3,2) → (2,2)
        assert_eq!(got.data(), &[3., 5., 9., 11.]);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Tensor::from_vec(&[2], vec![1., 2.]);
        let b = Tensor::from_vec(&[2], vec![3., 4.]);
        a.add_assign(&b);
        a.scale_(2.0);
        assert_eq!(a.data(), &[8., 12.]);
    }

    #[test]
    fn from_rows_stacks() {
        let t = Tensor::from_rows(&[vec![1., 2.], vec![3., 4.]]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.row(1), &[3., 4.]);
    }

    #[test]
    fn sq_norm_sums_squares() {
        let t = Tensor::from_vec(&[3], vec![1., 2., 2.]);
        assert!((t.sq_norm() - 9.0).abs() < 1e-9);
    }
}
