//! Trainable parameters and the layer protocol.

use crate::tensor::Tensor;
use crate::workspace::Dims;

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
///
/// # The workspace protocol
///
/// The `*_ws` methods run the same arithmetic on caller-owned memory (see
/// [`crate::workspace`]): the caller passes the input, an output slot of
/// [`Layer::out_dims`] elements and a workspace slice of
/// [`Layer::ws_len`] floats, and the layer allocates nothing. In training
/// the caller keeps `x`, `y` and `ws` untouched between
/// [`Layer::forward_ws`] and [`Layer::backward_ws`] and hands them back,
/// so a layer reads its input from that tape instead of cloning it. The
/// defaults bridge to the tensor methods (allocating, with the cache held
/// by the layer), so a layer only implements the protocol where the
/// allocations matter; every path computes the same bits.
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

    /// Calls `f` on every parameter in `params_mut()` order without
    /// collecting them: the walk clipping and the optimizer take every
    /// step. The default collects; graphs and the layers they train
    /// override it.
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self.params_mut() {
            f(p);
        }
    }

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

    /// Output shape for an input of shape `x`.
    fn out_dims(&self, x: Dims) -> Dims;

    /// Workspace floats for an input of shape `x`, besides the caller's
    /// input, output and gradient slots: with `train`, the tape
    /// [`Layer::forward_ws`] leaves for [`Layer::backward_ws`]; without,
    /// the scratch of [`Layer::infer_ws`].
    fn ws_len(&self, _x: Dims, _train: bool) -> usize {
        0
    }

    /// Scratch floats [`Layer::backward_ws`] needs for an input of shape
    /// `x`, beyond the tape; it holds nothing between calls.
    fn grad_len(&self, _x: Dims) -> usize {
        0
    }

    /// Training forward into `y`; `ws` becomes this call's tape.
    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        let out = self.forward(&Tensor::from_vec(xd.as_slice(), x.to_vec()), true);
        y.copy_from_slice(out.data());
    }

    /// Backward of the last [`Layer::forward_ws`]: `x`, `y` and the first
    /// of `ws` are that call's input, output and tape, `gy` is ∂loss/∂y;
    /// accumulates parameter gradients and writes ∂loss/∂x into `gx`. The
    /// second of `ws` is [`Layer::grad_len`] floats of scratch that lives
    /// only for this call (siblings in a graph share it).
    fn backward_ws(
        &mut self,
        _x: &[f32],
        xd: Dims,
        _y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        _ws: (&mut [f32], &mut [f32]),
    ) {
        let yd = self.out_dims(xd);
        let g = self.backward(&Tensor::from_vec(yd.as_slice(), gy.to_vec()));
        gx.copy_from_slice(g.data());
    }

    /// Inference into `y`, bitwise [`Layer::infer`].
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        let out = self.infer(&Tensor::from_vec(xd.as_slice(), x.to_vec()));
        y.copy_from_slice(out.data());
    }

    /// Whether the layer is elementwise and runs in place on its input
    /// slot ([`Layer::forward_in_place`], [`Layer::infer_in_place`]); its
    /// backward then reads only `y` (it is handed `y` as `x` too).
    fn in_place(&self) -> bool {
        false
    }

    /// Training forward overwriting `y`, which holds the input.
    fn forward_in_place(&mut self, _y: &mut [f32]) {
        unreachable!("layer does not run in place")
    }

    /// Inference overwriting `y`, which holds the input.
    fn infer_in_place(&self, _y: &mut [f32]) {
        unreachable!("layer does not run in place")
    }

    /// Whether [`Layer::backward_ws`] reads the forward output `y`: a graph
    /// must then not overwrite that slot between forward and backward.
    fn reads_output(&self) -> bool {
        self.in_place()
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
