//! Optimizers and gradient clipping.

use crate::param::Param;

/// Clips gradients to a maximum global L2 norm, returning the pre-clip norm.
///
/// This enforces the bounded-gradient assumption of the paper's §A.1.
pub fn clip_grad_norm(params: &mut [&mut Param], max_norm: f64) -> f64 {
    clip_grad_norm_with(|f| params.iter_mut().for_each(|p| f(p)), max_norm)
}

/// [`clip_grad_norm`] over a parameter walk: `walk(f)` calls `f` on every
/// parameter in order (e.g. [`crate::layers::Layer::for_each_param_mut`]),
/// so nothing is collected. Walks twice: the norm, then the rescale.
pub fn clip_grad_norm_with(mut walk: impl FnMut(&mut dyn FnMut(&mut Param)), max_norm: f64) -> f64 {
    // `-0.0`: the start `Iterator::sum` uses.
    let mut total = -0.0f64;
    walk(&mut |p| total += p.grad.sq_norm());
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = (max_norm / norm) as f32;
        walk(&mut |p| p.grad.scale_(scale));
    }
    norm
}

/// Plain SGD with momentum and optional weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// New optimizer.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Applies one update step. The parameter list must be the same (same
    /// order, same shapes) on every call.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.is_empty() {
            self.velocity = params.iter().map(|p| vec![0.0; p.value.numel()]).collect();
        }
        assert_eq!(self.velocity.len(), params.len(), "parameter list changed");
        for (p, vel) in params.iter_mut().zip(&mut self.velocity) {
            let wd = self.weight_decay;
            for ((w, &g), v) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(vel.iter_mut())
            {
                let g = g + wd * *w;
                *v = self.momentum * *v + g;
                *w -= self.lr * *v;
            }
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Serialisable snapshot of an [`Adam`] optimizer's adaptive state.
///
/// Training checkpoints persist this alongside the model weights: restoring
/// it into an optimizer with the same hyperparameters and the same parameter
/// list makes every subsequent [`Adam::step`] bitwise-identical to an
/// uninterrupted run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AdamState {
    /// Step counter `t` (bias-correction exponent).
    pub t: i32,
    /// First-moment estimates, parameter-list order.
    pub m: Vec<Vec<f32>>,
    /// Second-moment estimates, parameter-list order.
    pub v: Vec<Vec<f32>>,
}

/// Adam optimizer (Kingma & Ba) with decoupled weight decay off by default.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: i32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// New optimizer with the standard betas (0.9, 0.999).
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step. The parameter list must be stable across
    /// calls.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.step_with(|f| params.iter_mut().for_each(|p| f(p)));
    }

    /// [`Adam::step`] over a parameter walk: `walk(f)` calls `f` on every
    /// parameter in the stable order, so nothing is collected (the moments
    /// are sized on the first step).
    ///
    /// # Panics
    /// Panics if the walk visits a different number of parameters than the
    /// first step did.
    pub fn step_with(&mut self, walk: impl FnOnce(&mut dyn FnMut(&mut Param))) {
        let first = self.m.is_empty();
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        let (lr, beta1, beta2, eps, wd) =
            (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut i = 0;
        walk(&mut |p| {
            if first {
                ms.push(vec![0.0; p.value.numel()]);
                vs.push(vec![0.0; p.value.numel()]);
            }
            assert!(i < ms.len(), "parameter list changed");
            for (((w, &g), mi), vi) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(ms[i].iter_mut())
                .zip(vs[i].iter_mut())
            {
                let g = g + wd * *w;
                *mi = beta1 * *mi + (1.0 - beta1) * g;
                *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            i += 1;
        });
        assert_eq!(i, ms.len(), "parameter list changed");
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Snapshots the adaptive state (step counter and both moment vectors)
    /// for checkpointing. An optimizer that has never stepped snapshots
    /// empty moments; restoring that is equivalent to a fresh optimizer.
    pub fn state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores a snapshot taken by [`Adam::state`]. The next `step` call
    /// is then bitwise-identical to the step an uninterrupted run would
    /// have taken, provided the parameter list matches the one the
    /// snapshot was taken against (the usual `step` stability contract).
    ///
    /// # Errors
    /// Rejects snapshots whose moment vectors disagree with each other;
    /// a parameter-list mismatch surfaces on the next `step`.
    pub fn load_state(&mut self, state: AdamState) -> Result<(), String> {
        if state.m.len() != state.v.len() {
            return Err(format!(
                "corrupt Adam state: {} first moments vs {} second moments",
                state.m.len(),
                state.v.len()
            ));
        }
        for (i, (m, v)) in state.m.iter().zip(&state.v).enumerate() {
            if m.len() != v.len() {
                return Err(format!(
                    "corrupt Adam state: moment {i} has {} vs {} entries",
                    m.len(),
                    v.len()
                ));
            }
        }
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Minimises f(w) = (w − 3)² with the given stepper.
    fn converges(mut step: impl FnMut(&mut Param)) -> f32 {
        let mut p = Param::new(Tensor::from_vec(&[1], vec![0.0]));
        for _ in 0..500 {
            let w = p.value.data()[0];
            p.grad.data_mut()[0] = 2.0 * (w - 3.0);
            step(&mut p);
        }
        p.value.data()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        let w = converges(|p| opt.step(&mut [p]));
        assert!((w - 3.0).abs() < 1e-3, "w={w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05, 0.0);
        let w = converges(|p| opt.step(&mut [p]));
        assert!((w - 3.0).abs() < 0.05, "w={w}");
    }

    #[test]
    fn weight_decay_shrinks_solution() {
        let mut opt = Sgd::new(0.05, 0.0, 1.0);
        let w = converges(|p| opt.step(&mut [p]));
        assert!(w < 2.5 && w > 0.0, "w={w}");
    }

    #[test]
    fn clip_caps_global_norm() {
        let mut p1 = Param::new(Tensor::zeros(&[2]));
        let mut p2 = Param::new(Tensor::zeros(&[2]));
        p1.grad.data_mut().copy_from_slice(&[3.0, 0.0]);
        p2.grad.data_mut().copy_from_slice(&[0.0, 4.0]);
        let norm = clip_grad_norm(&mut [&mut p1, &mut p2], 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let after: f64 = p1.grad.sq_norm() + p2.grad.sq_norm();
        assert!((after.sqrt() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_noop_below_threshold() {
        let mut p = Param::new(Tensor::zeros(&[1]));
        p.grad.data_mut()[0] = 0.5;
        clip_grad_norm(&mut [&mut p], 1.0);
        assert_eq!(p.grad.data()[0], 0.5);
    }

    /// State round-trip through save/restore: a run interrupted mid-way and
    /// resumed from the snapshot lands on bitwise-identical weights.
    #[test]
    fn adam_state_roundtrip_resumes_bitwise() {
        let descend = |opt: &mut Adam, p: &mut Param, steps: usize| {
            for _ in 0..steps {
                let w = p.value.data()[0];
                p.grad.data_mut()[0] = 2.0 * (w - 3.0);
                opt.step(&mut [p]);
            }
        };
        let mut straight_opt = Adam::new(0.05, 0.01);
        let mut straight = Param::new(Tensor::from_vec(&[1], vec![0.0]));
        descend(&mut straight_opt, &mut straight, 40);

        let mut first_opt = Adam::new(0.05, 0.01);
        let mut resumed = Param::new(Tensor::from_vec(&[1], vec![0.0]));
        descend(&mut first_opt, &mut resumed, 17);
        let snapshot = first_opt.state();
        assert_eq!(snapshot.t, 17);
        drop(first_opt);

        let mut second_opt = Adam::new(0.05, 0.01);
        second_opt.load_state(snapshot).unwrap();
        descend(&mut second_opt, &mut resumed, 23);
        assert_eq!(
            straight.value.data()[0].to_bits(),
            resumed.value.data()[0].to_bits(),
            "resume must continue the exact trajectory"
        );
    }

    #[test]
    fn adam_load_state_rejects_inconsistent_moments() {
        let mut opt = Adam::new(0.1, 0.0);
        let bad = AdamState {
            t: 1,
            m: vec![vec![0.0; 2]],
            v: vec![],
        };
        assert!(opt.load_state(bad).is_err());
        let bad_inner = AdamState {
            t: 1,
            m: vec![vec![0.0; 2]],
            v: vec![vec![0.0; 3]],
        };
        assert!(opt.load_state(bad_inner).is_err());
    }
}
