//! Linear system and least-squares solvers.
//!
//! AutoAI-TS fits linear regressions constantly (learning-curve projection in
//! T-Daub, F-tests in look-back discovery, OLS pipelines, GLS/Prophet
//! simulators). All solvers here are direct: Gaussian elimination with
//! partial pivoting for general systems, Cholesky for SPD normal equations,
//! and ridge-stabilized normal equations for least squares.

use crate::matrix::Matrix;

/// Error type for solver failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// Matrix is singular (or numerically so) and the system cannot be solved.
    Singular,
    /// Dimensions of the inputs are inconsistent.
    DimensionMismatch,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Singular => write!(f, "matrix is singular"),
            SolveError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Solve `a * x = b` by Gaussian elimination with partial pivoting.
///
/// `a` must be square. Returns `Err(Singular)` when a pivot underflows.
pub fn solve_linear(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    let n = a.nrows();
    if a.ncols() != n || b.len() != n {
        return Err(SolveError::DimensionMismatch);
    }
    // augmented working copy
    let mut m = vec![0.0; n * (n + 1)];
    for r in 0..n {
        m[r * (n + 1)..r * (n + 1) + n].copy_from_slice(a.row(r));
        m[r * (n + 1) + n] = b[r];
    }
    let w = n + 1;
    for col in 0..n {
        // partial pivot
        let mut piv = col;
        let mut best = m[col * w + col].abs();
        for r in (col + 1)..n {
            let v = m[r * w + col].abs();
            if v > best {
                best = v;
                piv = r;
            }
        }
        if best < 1e-12 {
            return Err(SolveError::Singular);
        }
        if piv != col {
            for k in 0..w {
                m.swap(col * w + k, piv * w + k);
            }
        }
        let pivot = m[col * w + col];
        for r in (col + 1)..n {
            let f = m[r * w + col] / pivot;
            if f == 0.0 {
                continue;
            }
            for k in col..w {
                m[r * w + k] -= f * m[col * w + k];
            }
        }
    }
    // back substitution
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut s = m[r * w + n];
        for k in (r + 1)..n {
            s -= m[r * w + k] * x[k];
        }
        x[r] = s / m[r * w + r];
    }
    Ok(x)
}

/// Cholesky factorization of a symmetric positive definite matrix, in
/// place.
///
/// On `Ok`, the lower triangle of `a` (diagonal included) holds the factor
/// `L` with `A = L Lᵀ`; the strict upper triangle is left as it was. On
/// `Err(Singular)` (the matrix is not numerically positive definite) `a`
/// is partly overwritten. Each entry is read from `a` just before its
/// factor entry replaces it, so the factor has the bits of one built in a
/// separate matrix, without the n × n copy.
pub fn cholesky(a: &mut Matrix) -> Result<(), SolveError> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(SolveError::DimensionMismatch);
    }
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= a[(i, k)] * a[(j, k)];
            }
            if i == j {
                if s <= 1e-14 {
                    return Err(SolveError::Singular);
                }
                a[(i, j)] = s.sqrt();
            } else {
                a[(i, j)] = s / a[(j, j)];
            }
        }
    }
    Ok(())
}

/// Solve `a * x = b` where `a` is SPD, via Cholesky, factoring `a` in place
/// (see [`cholesky`]). Fails with `Err(Singular)` when `a` is not positive
/// definite.
pub fn cholesky_solve(a: &mut Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    let n = a.nrows();
    if b.len() != n {
        return Err(SolveError::DimensionMismatch);
    }
    cholesky(a)?;
    let l = &*a;
    // forward: L y = b
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[(i, k)] * y[k];
        }
        y[i] = s / l[(i, i)];
    }
    // backward: Lᵀ x = y
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for k in (i + 1)..n {
            s -= l[(k, i)] * x[k];
        }
        x[i] = s / l[(i, i)];
    }
    Ok(x)
}

/// Ordinary least squares: minimize `||X β - y||²`.
///
/// Solved through the normal equations with a tiny jitter retry when the Gram
/// matrix is rank-deficient (constant columns are common in windowed time
/// series features).
pub fn lstsq(x: &Matrix, y: &[f64]) -> Result<Vec<f64>, SolveError> {
    lstsq_ridge(x, y, 0.0)
}

/// Ridge least squares: minimize `||X β - y||² + λ ||β||²`.
pub fn lstsq_ridge(x: &Matrix, y: &[f64], lambda: f64) -> Result<Vec<f64>, SolveError> {
    if x.nrows() != y.len() {
        return Err(SolveError::DimensionMismatch);
    }
    let mut g = x.gram();
    let rhs = x.t_matvec(y);
    if lambda > 0.0 {
        for i in 0..g.nrows() {
            g[(i, i)] += lambda;
        }
    }
    // the factorization overwrites its matrix; the jitter retry below
    // needs the normal equations intact
    match cholesky_solve(&mut g.clone(), &rhs) {
        Ok(beta) => Ok(beta),
        Err(_) => {
            // rank-deficient design: stabilize with small jitter proportional
            // to the trace so the fit degrades gracefully instead of failing.
            let trace: f64 = (0..g.nrows()).map(|i| g[(i, i)]).sum();
            let jitter = (trace / g.nrows().max(1) as f64).max(1.0) * 1e-8 + 1e-10;
            for i in 0..g.nrows() {
                g[(i, i)] += jitter;
            }
            cholesky_solve(&mut g, &rhs)
        }
    }
}

/// Fit a simple linear regression `y = a + b t` over `(t, y)` pairs and
/// return `(intercept, slope)`. Used by T-Daub's learning-curve projection.
pub fn simple_linreg(t: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(t.len(), y.len());
    let n = t.len() as f64;
    if t.is_empty() {
        return (0.0, 0.0);
    }
    let mt = t.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (&ti, &yi) in t.iter().zip(y) {
        sxx += (ti - mt) * (ti - mt);
        sxy += (ti - mt) * (yi - my);
    }
    if sxx < 1e-12 {
        return (my, 0.0);
    }
    let slope = sxy / sxx;
    (my - slope * mt, slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn gaussian_elimination_solves_3x3() {
        let a = Matrix::from_vec(3, 3, vec![2., 1., -1., -3., -1., 2., -2., 1., 2.]);
        let b = [8., -11., -3.];
        let x = solve_linear(&a, &b).unwrap();
        assert_close(&x, &[2., 3., -1.], 1e-10);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 2., 4.]);
        assert_eq!(solve_linear(&a, &[1., 2.]), Err(SolveError::Singular));
    }

    #[test]
    fn cholesky_recovers_factor() {
        // A = L Lᵀ with L = [[2,0],[1,3]]
        let mut l = Matrix::from_vec(2, 2, vec![4., 2., 2., 10.]);
        cholesky(&mut l).unwrap();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_solve_matches_gaussian() {
        let a = Matrix::from_vec(3, 3, vec![6., 2., 1., 2., 5., 2., 1., 2., 4.]);
        let b = [1., 2., 3.];
        let x1 = cholesky_solve(&mut a.clone(), &b).unwrap();
        let x2 = solve_linear(&a, &b).unwrap();
        assert_close(&x1, &x2, 1e-9);
    }

    /// The copying factorization `cholesky` replaced: the factor built in
    /// a separate zeroed matrix, in the same loop order.
    fn copying_cholesky(a: &Matrix) -> Result<Matrix, SolveError> {
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 1e-14 {
                        return Err(SolveError::Singular);
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// The solve on top of [`copying_cholesky`].
    fn copying_cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        let n = a.nrows();
        let l = copying_cholesky(a)?;
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= l[(i, k)] * y[k];
            }
            y[i] = s / l[(i, i)];
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= l[(k, i)] * x[k];
            }
            x[i] = s / l[(i, i)];
        }
        Ok(x)
    }

    #[test]
    fn in_place_cholesky_matches_copying_factorization_bitwise() {
        let mut rng = crate::Rng64::seed_from_u64(0xC401);
        for n in [1, 2, 3, 7, 16, 41] {
            // X^T X + n I is SPD; an RBF-style kernel matrix is too
            let x = Matrix::from_vec(
                n + 3,
                n,
                (0..(n + 3) * n).map(|_| rng.range_f64(-2.0, 2.0)).collect(),
            );
            let mut gram = x.gram();
            for i in 0..n {
                gram[(i, i)] += n as f64;
            }
            let mut kernel = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let d = (i as f64 - j as f64) / n as f64;
                    kernel[(i, j)] = (-4.0 * d * d).exp() + if i == j { 1e-3 } else { 0.0 };
                }
            }
            for a in [gram, kernel] {
                let b: Vec<f64> = (0..n).map(|_| rng.range_f64(-5.0, 5.0)).collect();
                let want_l = copying_cholesky(&a).unwrap();
                let mut l = a.clone();
                cholesky(&mut l).unwrap();
                for i in 0..n {
                    for j in 0..n {
                        // lower triangle: the factor; upper: untouched
                        let want = if j <= i { want_l[(i, j)] } else { a[(i, j)] };
                        assert_eq!(l[(i, j)].to_bits(), want.to_bits(), "n={n} ({i},{j})");
                    }
                }
                let want_x = copying_cholesky_solve(&a, &b).unwrap();
                let got_x = cholesky_solve(&mut a.clone(), &b).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got_x), bits(&want_x), "n={n}");
            }
        }
        // a non-SPD matrix fails both ways at the same pivot
        let bad = Matrix::from_vec(2, 2, vec![1., 2., 2., 1.]);
        assert_eq!(copying_cholesky(&bad).err(), Some(SolveError::Singular));
        assert_eq!(cholesky(&mut bad.clone()), Err(SolveError::Singular));
    }

    #[test]
    fn lstsq_exact_on_full_rank_square() {
        // y = 1 + 2x fitted exactly
        let x = Matrix::from_rows(&[vec![1., 0.], vec![1., 1.], vec![1., 2.]]);
        let y = [1., 3., 5.];
        let beta = lstsq(&x, &y).unwrap();
        assert_close(&beta, &[1., 2.], 1e-8);
    }

    #[test]
    fn lstsq_survives_duplicate_columns() {
        // duplicate feature columns are rank deficient; jitter path must work
        let x = Matrix::from_rows(&[vec![1., 1.], vec![2., 2.], vec![3., 3.]]);
        let y = [2., 4., 6.];
        let beta = lstsq(&x, &y).unwrap();
        let pred: Vec<f64> = (0..3)
            .map(|r| x.row(r).iter().zip(&beta).map(|(a, b)| a * b).sum())
            .collect();
        assert_close(&pred, &y, 1e-4);
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let x = Matrix::from_rows(&[vec![1., 0.], vec![1., 1.], vec![1., 2.], vec![1., 3.]]);
        let y = [1., 3., 5., 7.];
        let b0 = lstsq_ridge(&x, &y, 0.0).unwrap();
        let b1 = lstsq_ridge(&x, &y, 10.0).unwrap();
        assert!(b1[1].abs() < b0[1].abs());
    }

    #[test]
    fn simple_linreg_recovers_line() {
        let t = [1., 2., 3., 4.];
        let y = [3., 5., 7., 9.]; // y = 1 + 2t
        let (a, b) = simple_linreg(&t, &y);
        assert!((a - 1.0).abs() < 1e-10);
        assert!((b - 2.0).abs() < 1e-10);
    }

    #[test]
    fn simple_linreg_constant_input() {
        let (a, b) = simple_linreg(&[1., 1., 1.], &[5., 6., 7.]);
        assert_eq!(b, 0.0);
        assert!((a - 6.0).abs() < 1e-12);
    }
}
