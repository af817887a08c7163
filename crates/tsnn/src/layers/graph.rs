//! Layer graphs: sequential chains, residual blocks and channel
//! concatenation over [`Layer`]s.
//!
//! A network is declared as a tree of these combinators over leaf layers;
//! forward, inference, backward, and parameter and buffer enumeration are
//! written once here instead of once per model. Parameter and buffer order
//! is declaration order — depth first, a residual's main path before its
//! shortcut, concat branches left to right — which is the positional order
//! persistence relies on.

use crate::param::{Layer, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use std::fmt::Debug;

/// A layer a graph can own: thread-safe (a trained graph serves from many
/// threads through [`Layer::infer`]) and cloneable behind a box (training
/// replicas copy whole graphs). Every `Clone` layer is a node.
pub trait Node: Layer + Debug + Send + Sync + 'static {
    /// Boxed deep copy.
    fn clone_node(&self) -> Box<dyn Node>;
}

impl<T: Layer + Clone + Debug + Send + Sync + 'static> Node for T {
    fn clone_node(&self) -> Box<dyn Node> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Node> {
    fn clone(&self) -> Self {
        self.clone_node()
    }
}

/// Layers applied in order; an empty chain is the identity.
#[derive(Debug, Clone, Default)]
pub struct Seq {
    layers: Vec<Box<dyn Node>>,
}

impl Seq {
    /// Empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `layer` to the chain.
    pub fn then(mut self, layer: impl Node) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// The two-layer perceptron `in → hidden (ReLU) → out` on `(N, in)`
    /// rows, drawing the first linear layer's weights before the second's.
    pub fn mlp(input: usize, hidden: usize, output: usize, rng: &mut StdRng) -> Self {
        Self::new()
            .then(super::Linear::new(input, hidden, rng))
            .then(super::Relu::new())
            .then(super::Linear::new(hidden, output, rng))
    }
}

impl Layer for Seq {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return x.clone();
        };
        let mut y = first.forward(x, train);
        for layer in rest {
            y = layer.forward(&y, train);
        }
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let Some((first, rest)) = self.layers.split_first() else {
            return x.clone();
        };
        let mut y = first.infer(x);
        for layer in rest {
            y = layer.infer(&y);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let Some((last, rest)) = self.layers.split_last_mut() else {
            return grad_out.clone();
        };
        let mut g = last.backward(grad_out);
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.buffers_mut())
            .collect()
    }

    fn buffers(&self) -> Vec<&Vec<f32>> {
        self.layers.iter().flat_map(|l| l.buffers()).collect()
    }
}

/// `main(x) + shortcut(x)`, where a missing shortcut is the identity. The
/// input gradient is `main′ + shortcut′` in that order.
#[derive(Debug, Clone)]
pub struct Residual {
    main: Seq,
    shortcut: Option<Seq>,
}

impl Residual {
    /// Residual block over `main`, with a projected `shortcut` or (`None`)
    /// the identity.
    pub fn new(main: Seq, shortcut: Option<Seq>) -> Self {
        Self { main, shortcut }
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut y = self.main.forward(x, train);
        match &mut self.shortcut {
            Some(s) => y.add_assign(&s.forward(x, train)),
            None => y.add_assign(x),
        }
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut y = self.main.infer(x);
        match &self.shortcut {
            Some(s) => y.add_assign(&s.infer(x)),
            None => y.add_assign(x),
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = self.main.backward(grad_out);
        match &mut self.shortcut {
            Some(s) => g.add_assign(&s.backward(grad_out)),
            None => g.add_assign(grad_out),
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.main.params_mut();
        p.extend(self.shortcut.iter_mut().flat_map(|s| s.params_mut()));
        p
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = self.main.params();
        p.extend(self.shortcut.iter().flat_map(|s| s.params()));
        p
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        let mut b = self.main.buffers_mut();
        b.extend(self.shortcut.iter_mut().flat_map(|s| s.buffers_mut()));
        b
    }

    fn buffers(&self) -> Vec<&Vec<f32>> {
        let mut b = self.main.buffers();
        b.extend(self.shortcut.iter().flat_map(|s| s.buffers()));
        b
    }
}

/// Branches applied to the same `(N, C, L)` input, outputs concatenated
/// along the channel axis. The input gradient sums the branch gradients
/// left to right.
#[derive(Debug, Clone)]
pub struct Concat {
    branches: Vec<Seq>,
    widths: Option<Vec<usize>>,
}

impl Concat {
    /// Concatenation of `branches`, left to right.
    ///
    /// # Panics
    /// Panics if `branches` is empty.
    pub fn new(branches: Vec<Seq>) -> Self {
        assert!(!branches.is_empty(), "Concat needs at least one branch");
        Self {
            branches,
            widths: None,
        }
    }
}

impl Layer for Concat {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let parts: Vec<Tensor> = self
            .branches
            .iter_mut()
            .map(|b| b.forward(x, train))
            .collect();
        if train {
            self.widths = Some(parts.iter().map(|p| p.dim(1)).collect());
        }
        concat_channels(&parts)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let parts: Vec<Tensor> = self.branches.iter().map(|b| b.infer(x)).collect();
        concat_channels(&parts)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let widths = self.widths.take().expect("backward without forward(train)");
        let parts = split_channels(grad_out, &widths);
        let mut grads = self
            .branches
            .iter_mut()
            .zip(&parts)
            .map(|(b, g)| b.backward(g));
        let mut gx = grads.next().expect("at least one branch");
        for g in grads {
            gx.add_assign(&g);
        }
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.branches
            .iter_mut()
            .flat_map(|b| b.params_mut())
            .collect()
    }

    fn params(&self) -> Vec<&Param> {
        self.branches.iter().flat_map(|b| b.params()).collect()
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        self.branches
            .iter_mut()
            .flat_map(|b| b.buffers_mut())
            .collect()
    }

    fn buffers(&self) -> Vec<&Vec<f32>> {
        self.branches.iter().flat_map(|b| b.buffers()).collect()
    }
}

/// Concatenates rank-3 tensors along the channel axis.
fn concat_channels(parts: &[Tensor]) -> Tensor {
    let n = parts[0].dim(0);
    let l = parts[0].dim(2);
    let c_total: usize = parts.iter().map(|p| p.dim(1)).sum();
    let mut out = Tensor::zeros(&[n, c_total, l]);
    for ni in 0..n {
        let ob = out.batch_mut(ni);
        let mut offset = 0;
        for p in parts {
            let c = p.dim(1);
            ob[offset * l..(offset + c) * l].copy_from_slice(p.batch(ni));
            offset += c;
        }
    }
    out
}

/// Splits a channel-concatenated gradient back into per-part gradients.
fn split_channels(grad: &Tensor, widths: &[usize]) -> Vec<Tensor> {
    let n = grad.dim(0);
    let l = grad.dim(2);
    let mut outs: Vec<Tensor> = widths.iter().map(|&c| Tensor::zeros(&[n, c, l])).collect();
    for ni in 0..n {
        let gb = grad.batch(ni);
        let mut offset = 0;
        for (o, &c) in outs.iter_mut().zip(widths) {
            o.batch_mut(ni)
                .copy_from_slice(&gb[offset * l..(offset + c) * l]);
            offset += c;
        }
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::layers::{BatchNorm1d, Conv1d, Gelu, Linear, Relu, SameMaxPool1d};
    use rand::SeedableRng;

    fn ramp(shape: &[usize]) -> Tensor {
        let numel: usize = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..numel)
                .map(|i| ((i * 13 % 17) as f32 - 8.0) * 0.1)
                .collect(),
        )
    }

    #[test]
    fn concat_split_roundtrip() {
        let a = Tensor::from_vec(&[1, 2, 3], (0..6).map(|i| i as f32).collect());
        let b = Tensor::from_vec(&[1, 1, 3], vec![10., 11., 12.]);
        let cat = concat_channels(&[a.clone(), b.clone()]);
        assert_eq!(cat.shape(), &[1, 3, 3]);
        let parts = split_channels(&cat, &[2, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn empty_seq_is_identity() {
        let mut s = Seq::new();
        let x = ramp(&[2, 3]);
        assert_eq!(s.forward(&x, true), x);
        assert_eq!(s.backward(&x), x);
        assert!(s.params().is_empty());
    }

    #[test]
    fn seq_gradients() {
        let mut rng = StdRng::seed_from_u64(1);
        // GELU rather than ReLU: finite differences across a kink mislead.
        let mut s = Seq::new()
            .then(Linear::new(4, 6, &mut rng))
            .then(Gelu::new())
            .then(Linear::new(6, 3, &mut rng));
        let x = ramp(&[3, 4]);
        check_layer_gradients(&mut s, &x, 1e-2, 2e-2);
    }

    #[test]
    fn projected_residual_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let main = Seq::new()
            .then(Conv1d::new(2, 3, 3, &mut rng))
            .then(Gelu::new())
            .then(Conv1d::new(3, 3, 3, &mut rng));
        let shortcut = Seq::new()
            .then(Conv1d::new(2, 3, 1, &mut rng))
            .then(BatchNorm1d::new(3));
        let mut r = Residual::new(main, Some(shortcut));
        check_layer_gradients(&mut r, &ramp(&[2, 2, 6]), 1e-2, 3e-2);
    }

    #[test]
    fn identity_residual_gradients() {
        let mut rng = StdRng::seed_from_u64(3);
        let main = Seq::new()
            .then(Conv1d::new(3, 3, 3, &mut rng))
            .then(Gelu::new());
        let mut r = Residual::new(main, None);
        check_layer_gradients(&mut r, &ramp(&[2, 3, 5]), 1e-2, 2e-2);
    }

    #[test]
    fn nested_concat_gradients() {
        let mut rng = StdRng::seed_from_u64(4);
        let inner = Concat::new(vec![
            Seq::new().then(Conv1d::new(2, 1, 3, &mut rng)),
            Seq::new().then(Conv1d::new(2, 2, 5, &mut rng)),
        ]);
        let mut c = Concat::new(vec![
            Seq::new().then(Conv1d::new(2, 2, 1, &mut rng)).then(inner),
            Seq::new()
                .then(SameMaxPool1d::new(3))
                .then(Conv1d::new(2, 1, 1, &mut rng)),
        ]);
        // Distinct neighbours keep the pooling argmax stable under ±eps.
        let x = ramp(&[2, 2, 8]);
        let y = c.forward(&x, false);
        assert_eq!(y.shape(), &[2, 4, 8]);
        check_layer_gradients(&mut c, &x, 1e-3, 2e-2);
    }

    #[test]
    fn enumeration_follows_declaration_order() {
        let mut rng = StdRng::seed_from_u64(5);
        let main = Seq::new()
            .then(Conv1d::new(1, 2, 3, &mut rng))
            .then(BatchNorm1d::new(2))
            .then(Relu::new());
        let shortcut = Seq::new()
            .then(Conv1d::new(1, 2, 1, &mut rng))
            .then(BatchNorm1d::new(2));
        let mut r = Residual::new(main, Some(shortcut));
        // conv w/b, bn γ/β, shortcut conv w/b, shortcut bn γ/β.
        let kernels: Vec<usize> = r.params().iter().map(|p| p.numel()).collect();
        assert_eq!(kernels, vec![6, 2, 2, 2, 2, 2, 2, 2]);
        assert_eq!(r.buffers().len(), 4);
        assert_eq!(r.buffers_mut().len(), 4);
        // A clone is deep: mutating it leaves the original untouched.
        let mut copy = r.clone();
        copy.params_mut()[0].value.data_mut()[0] += 1.0;
        assert_ne!(copy.params()[0].value, r.params()[0].value);
    }
}
