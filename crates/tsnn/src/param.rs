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

/// The layer protocol: training forward, backward and inference on
/// caller-owned memory, plus parameter access for the optimizer and for
/// persistence.
///
/// The caller passes the input `x` of shape `xd`, an output slot of
/// [`Layer::out_dims`] elements and a workspace slice of
/// [`Layer::ws_len`] floats, and the layer allocates nothing (see
/// [`crate::workspace`]). In training the caller keeps `x`, `y` and `ws`
/// untouched between [`Layer::forward_ws`] and [`Layer::backward_ws`] and
/// hands them back, so a layer reads its input and whatever else it taped
/// from there instead of caching it. [`Layer::infer_ws`] is the inference
/// pass: it takes `&self` — no tape, no running-statistic updates — so a
/// trained layer serves concurrent batches from many threads without
/// cloning or locking.
///
/// A layer graph ([`crate::layers::Seq`]) is the one tensor front: its
/// inherent `forward`/`backward`/`infer` take and return [`Tensor`]s and
/// drive this protocol on the graph's own workspace.
pub trait Layer {
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
    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]);

    /// Backward of the last [`Layer::forward_ws`]: `x`, `y` and the first
    /// of `ws` are that call's input, output and tape, `gy` is ∂loss/∂y;
    /// accumulates parameter gradients and writes ∂loss/∂x into `gx`. The
    /// second of `ws` is [`Layer::grad_len`] floats of scratch that lives
    /// only for this call (siblings in a graph share it).
    fn backward_ws(
        &mut self,
        x: &[f32],
        xd: Dims,
        y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        ws: (&mut [f32], &mut [f32]),
    );

    /// Inference into `y` on `ws` scratch. Bitwise the output of
    /// [`Layer::forward_ws`], except where the layer keeps running
    /// statistics (batch norm normalises with those instead).
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]);

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
