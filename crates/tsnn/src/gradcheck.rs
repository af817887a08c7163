//! Finite-difference gradient verification.
//!
//! Every layer's hand-written backward pass is validated in its unit tests,
//! run as a one-layer [`Seq`], by comparing against central finite
//! differences of a fixed scalar loss
//! `L = Σ_i c_i · y_i`, where the coefficients `c_i` are a deterministic
//! pseudo-random pattern. This catches indexing errors, missed terms and
//! transposition bugs that unit-output tests cannot.

use crate::layers::{Layer, Seq};
use crate::tensor::Tensor;

/// Deterministic coefficient pattern in `[-1, 1]`.
fn coeff(i: usize) -> f32 {
    let mut x = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
}

/// Scalar probe loss `Σ c_i y_i` in f64 for precision.
fn probe_loss(y: &Tensor) -> f64 {
    y.data()
        .iter()
        .enumerate()
        .map(|(i, &v)| coeff(i) as f64 * v as f64)
        .sum()
}

/// Gradient of the probe loss with respect to the output.
fn probe_grad(shape: &[usize]) -> Tensor {
    let numel: usize = shape.iter().product();
    Tensor::from_vec(shape, (0..numel).map(coeff).collect())
}

/// Relative-error comparison suited to f32 finite differences.
fn close(analytic: f64, numeric: f64, tol: f64) -> bool {
    (analytic - numeric).abs() <= tol * (analytic.abs() + numeric.abs() + 0.5)
}

/// Verifies a graph's input and parameter gradients against central
/// differences (a single layer runs as `Seq::new().then(layer)`). Panics
/// with a diagnostic on mismatch.
///
/// * `eps` — perturbation size (1e-2 works well in f32).
/// * `tol` — relative tolerance (2e-2 typical).
///
/// The graph must be deterministic across repeated forward passes.
pub fn check_layer_gradients(layer: &mut Seq, x: &Tensor, eps: f32, tol: f32) {
    // Analytic pass.
    let y = layer.forward(x, true);
    let grad_out = probe_grad(y.shape());
    for p in layer.params_mut() {
        p.zero_grad();
    }
    let grad_in = layer.backward(&grad_out);

    // Input gradients.
    let mut xp = x.clone();
    for i in 0..x.numel() {
        let orig = xp.data()[i];
        xp.data_mut()[i] = orig + eps;
        let lp = probe_loss(&layer.forward(&xp, true));
        xp.data_mut()[i] = orig - eps;
        let lm = probe_loss(&layer.forward(&xp, true));
        xp.data_mut()[i] = orig;
        let numeric = (lp - lm) / (2.0 * eps as f64);
        let analytic = grad_in.data()[i] as f64;
        assert!(
            close(analytic, numeric, tol as f64),
            "input grad {i}: analytic={analytic:.6} numeric={numeric:.6}"
        );
    }

    // Parameter gradients. Collect analytic copies first to avoid aliasing.
    let analytic_param_grads: Vec<Vec<f32>> = layer
        .params_mut()
        .iter()
        .map(|p| p.grad.data().to_vec())
        .collect();
    let n_params = analytic_param_grads.len();
    #[allow(clippy::needless_range_loop)] // `pi` also re-borrows `layer.params_mut()`
    for pi in 0..n_params {
        let numel = layer.params_mut()[pi].value.numel();
        // Check every element of small params; stride through big ones.
        let stride = (numel / 64).max(1);
        let mut i = 0;
        while i < numel {
            let orig = layer.params_mut()[pi].value.data()[i];
            layer.params_mut()[pi].value.data_mut()[i] = orig + eps;
            let lp = probe_loss(&layer.forward(x, true));
            layer.params_mut()[pi].value.data_mut()[i] = orig - eps;
            let lm = probe_loss(&layer.forward(x, true));
            layer.params_mut()[pi].value.data_mut()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps as f64);
            let analytic = analytic_param_grads[pi][i] as f64;
            assert!(
                close(analytic, numeric, tol as f64),
                "param {pi} grad {i}: analytic={analytic:.6} numeric={numeric:.6}"
            );
            i += stride;
        }
    }
}

/// Verifies the gradient of a scalar-valued function `f(x)` given its
/// analytic gradient — used for the loss functions.
pub fn check_function_gradient(
    f: &mut dyn FnMut(&Tensor) -> f64,
    x: &Tensor,
    analytic: &Tensor,
    eps: f32,
    tol: f32,
) {
    assert_eq!(x.shape(), analytic.shape());
    let mut xp = x.clone();
    for i in 0..x.numel() {
        let orig = xp.data()[i];
        xp.data_mut()[i] = orig + eps;
        let lp = f(&xp);
        xp.data_mut()[i] = orig - eps;
        let lm = f(&xp);
        xp.data_mut()[i] = orig;
        let numeric = (lp - lm) / (2.0 * eps as f64);
        let a = analytic.data()[i] as f64;
        assert!(
            close(a, numeric, tol as f64),
            "grad {i}: analytic={a:.6} numeric={numeric:.6}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coeffs_are_deterministic_and_bounded() {
        for i in 0..100 {
            let c = coeff(i);
            assert_eq!(c, coeff(i));
            assert!((-1.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn function_gradcheck_accepts_correct_gradient() {
        // f(x) = Σ x_i², ∇f = 2x.
        let x = Tensor::from_vec(&[3], vec![0.5, -1.0, 2.0]);
        let analytic = Tensor::from_vec(&[3], vec![1.0, -2.0, 4.0]);
        let mut f = |t: &Tensor| {
            t.data()
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>()
        };
        check_function_gradient(&mut f, &x, &analytic, 1e-3, 1e-2);
    }

    #[test]
    #[should_panic(expected = "grad")]
    fn function_gradcheck_rejects_wrong_gradient() {
        let x = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        let wrong = Tensor::from_vec(&[2], vec![5.0, 5.0]);
        let mut f = |t: &Tensor| {
            t.data()
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>()
        };
        check_function_gradient(&mut f, &x, &wrong, 1e-3, 1e-2);
    }
}
