//! Trainable parameters and the layer protocol.

use crate::tensor::Tensor;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the current backward pass.
    pub grad: Tensor,
}

impl Param {
    /// Wraps a tensor as a parameter with a zero gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self { value, grad }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.zero_();
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// The layer protocol: stateful forward (caches activations), backward
/// (consumes the cache, accumulates parameter gradients, returns the input
/// gradient), an immutable inference path, and parameter access for the
/// optimizer and for persistence.
///
/// `train` distinguishes training from inference for layers with different
/// behaviours (dropout, batch-norm running statistics).
///
/// [`Layer::infer`] is the shared-state entry point: it computes exactly
/// what `forward(x, false)` computes (bit-identically) but takes `&self`,
/// so a trained layer can serve concurrent batches from many threads
/// without cloning or locking.
pub trait Layer {
    /// Forward pass. Caches whatever `backward` will need when `train` is
    /// true.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Inference pass: identical output to `forward(x, false)`, but `&self`
    /// — no activation caches, no running-statistic updates, safe to call
    /// from many threads at once.
    fn infer(&self, x: &Tensor) -> Tensor;

    /// Backward pass: given ∂loss/∂output, accumulates parameter gradients
    /// and returns ∂loss/∂input. Must be called after a `forward` with
    /// `train = true`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable access to all trainable parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Read-only access to all trainable parameters, in `params_mut()`
    /// order (persistence snapshots a trained model without `&mut`).
    fn params(&self) -> Vec<&Param>;

    /// Non-trainable state in a stable order — batch-norm running
    /// statistics — which persistence saves alongside the parameters.
    /// Empty for layers without such state.
    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        Vec::new()
    }

    /// Read-only view of the non-trainable state, `buffers_mut()` order.
    fn buffers(&self) -> Vec<&Vec<f32>> {
        Vec::new()
    }

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }
}

/// Zeroes the gradients of a parameter list.
pub fn zero_grads(params: &mut [&mut Param]) {
    for p in params.iter_mut() {
        p.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_starts_with_zero_grad() {
        let p = Param::new(Tensor::from_vec(&[2], vec![1.0, -1.0]));
        assert!(p.grad.data().iter().all(|&g| g == 0.0));
        assert_eq!(p.numel(), 2);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.grad.data_mut()[0] = 5.0;
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }
}
