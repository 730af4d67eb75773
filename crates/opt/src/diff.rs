//! Numerical differentiation helpers.
//!
//! Central finite differences keep a solver independent of the objective it
//! minimizes, at the cost of many objective evaluations per derivative. They
//! differentiate every barrier problem without exact-derivative hooks (the
//! `FnProblem`s, such as Stage 3's Fig. 4(d) polish of problem P6), every
//! [`crate::newton::DampedNewton::minimize`] objective, and every gradient
//! step whose caller brings no gradient (the Stage-1 gradient-descent
//! baseline; Stage 3's inner solves use a bit-identical incremental form).
//! Stage 1's problem P3 has closed-form derivatives instead, and its tests
//! hold them to these helpers.

use crate::linalg::DenseMatrix;

/// Default relative step used by the finite-difference helpers.
pub const DEFAULT_FD_STEP: f64 = 1e-6;

/// Central-difference gradient of `f` at `x` with relative step `step`.
///
/// The per-coordinate step is `step * max(1, |x_i|)` so that very large or
/// very small coordinates (the QuHE problem mixes Hz-scale and unit-scale
/// variables) are handled uniformly.
pub fn central_gradient<F>(f: &F, x: &[f64], step: f64) -> Vec<f64>
where
    F: Fn(&[f64]) -> f64,
{
    let mut grad = Vec::new();
    let mut work = Vec::new();
    central_gradient_into(f, x, step, &mut grad, &mut work);
    grad
}

/// In-place variant of [`central_gradient`]: writes the gradient into `grad`
/// and uses `work` as the evaluation-point buffer, so repeated calls (one per
/// solver iteration) allocate nothing once the buffers have grown to
/// `x.len()`. Bit-identical to [`central_gradient`].
pub fn central_gradient_into<F>(
    f: &F,
    x: &[f64],
    step: f64,
    grad: &mut Vec<f64>,
    work: &mut Vec<f64>,
) where
    F: Fn(&[f64]) -> f64,
{
    grad.clear();
    grad.resize(x.len(), 0.0);
    work.clear();
    work.extend_from_slice(x);
    for i in 0..x.len() {
        let h = step * x[i].abs().max(1.0);
        let orig = work[i];
        work[i] = orig + h;
        let fp = f(work);
        work[i] = orig - h;
        let fm = f(work);
        work[i] = orig;
        grad[i] = (fp - fm) / (2.0 * h);
    }
}

/// Central-difference Hessian of `f` at `x` with relative step `step`.
///
/// Uses the symmetric four-point formula for off-diagonal entries and the
/// three-point formula on the diagonal. The result is explicitly symmetrized.
pub fn central_hessian<F>(f: &F, x: &[f64], step: f64) -> DenseMatrix
where
    F: Fn(&[f64]) -> f64,
{
    let mut h = DenseMatrix::zeros(0, 0);
    let mut work = Vec::new();
    let mut steps = Vec::new();
    central_hessian_into(f, x, step, &mut h, &mut work, &mut steps);
    h
}

/// In-place variant of [`central_hessian`]: writes the Hessian into `h`
/// (reshaped as needed) and uses `work`/`steps` as scratch, so repeated calls
/// allocate nothing once the buffers have grown. Bit-identical to
/// [`central_hessian`].
pub fn central_hessian_into<F>(
    f: &F,
    x: &[f64],
    step: f64,
    h: &mut DenseMatrix,
    work: &mut Vec<f64>,
    steps: &mut Vec<f64>,
) where
    F: Fn(&[f64]) -> f64,
{
    let n = x.len();
    h.reshape_zeroed(n, n);
    let f0 = f(x);
    work.clear();
    work.extend_from_slice(x);
    steps.clear();
    steps.extend(x.iter().map(|xi| step * xi.abs().max(1.0)));

    for i in 0..n {
        // Diagonal: (f(x+h) - 2 f(x) + f(x-h)) / h^2.
        let hi = steps[i];
        let orig = work[i];
        work[i] = orig + hi;
        let fp = f(work);
        work[i] = orig - hi;
        let fm = f(work);
        work[i] = orig;
        h.set(i, i, (fp - 2.0 * f0 + fm) / (hi * hi));

        for j in (i + 1)..n {
            let hj = steps[j];
            let (oi, oj) = (work[i], work[j]);
            work[i] = oi + hi;
            work[j] = oj + hj;
            let fpp = f(work);
            work[j] = oj - hj;
            let fpm = f(work);
            work[i] = oi - hi;
            let fmm = f(work);
            work[j] = oj + hj;
            let fmp = f(work);
            work[i] = oi;
            work[j] = oj;
            let val = (fpp - fpm - fmp + fmm) / (4.0 * hi * hj);
            h.set(i, j, val);
            h.set(j, i, val);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic(x: &[f64]) -> f64 {
        // f = 3 x0^2 + 2 x0 x1 + 5 x1^2 + 7 x0 - x1
        3.0 * x[0] * x[0] + 2.0 * x[0] * x[1] + 5.0 * x[1] * x[1] + 7.0 * x[0] - x[1]
    }

    #[test]
    fn gradient_of_quadratic_matches_analytic() {
        let x = [1.5, -2.0];
        let g = central_gradient(&quadratic, &x, DEFAULT_FD_STEP);
        let expected = [
            6.0 * x[0] + 2.0 * x[1] + 7.0,
            2.0 * x[0] + 10.0 * x[1] - 1.0,
        ];
        assert!((g[0] - expected[0]).abs() < 1e-5);
        assert!((g[1] - expected[1]).abs() < 1e-5);
    }

    #[test]
    fn hessian_of_quadratic_matches_analytic() {
        let x = [0.3, 0.7];
        let h = central_hessian(&quadratic, &x, 1e-4);
        assert!((h.get(0, 0) - 6.0).abs() < 1e-3);
        assert!((h.get(1, 1) - 10.0).abs() < 1e-3);
        assert!((h.get(0, 1) - 2.0).abs() < 1e-3);
        assert!((h.get(1, 0) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn gradient_scales_step_with_magnitude() {
        // f(x) = x^2 at a very large coordinate should still differentiate well.
        let f = |x: &[f64]| x[0] * x[0];
        let g = central_gradient(&f, &[1.0e9], DEFAULT_FD_STEP);
        let rel_err = (g[0] - 2.0e9).abs() / 2.0e9;
        assert!(rel_err < 1e-6, "relative error {rel_err}");
    }
}
