//! Support vector regression: the RBF kernel machine behind the paper's
//! WindowSVR pipeline.
//!
//! [`KernelRidgeSvr`] is solved in closed form as kernel ridge regression.
//! It is the nonlinear SVR stand-in documented in DESIGN.md: the same
//! hypothesis space as ε-SVR with an RBF kernel, but with a squared loss
//! that admits a direct solver — avoiding a fragile hand-rolled SMO while
//! preserving the pipeline's modeling behavior. It standardizes features
//! and target internally.

use autoai_linalg::{cholesky_solve, Matrix};

use crate::api::{MlError, Regressor};

/// Ridge penalty added to the kernel diagonal (like `1/C`).
const LAMBDA: f64 = 1e-2;

/// Maximum training rows before even subsampling (keeps the O(n³) solve
/// bounded).
const MAX_TRAIN: usize = 600;

fn standardize_stats(x: &Matrix) -> Vec<(f64, f64)> {
    (0..x.ncols())
        .map(|c| {
            let col = x.col(c);
            (
                autoai_linalg::mean(&col),
                autoai_linalg::std_dev(&col).max(1e-9),
            )
        })
        .collect()
}

/// RBF kernel machine solved as kernel ridge regression.
///
/// Training cost is O(n³) in the window count, so `fit` subsamples evenly
/// above 600 windows. The RBF bandwidth γ comes from the median heuristic.
pub struct KernelRidgeSvr {
    support: Matrix,
    alphas: Vec<f64>,
    gamma: f64,
    feature_stats: Vec<(f64, f64)>,
    target_stats: (f64, f64),
}

impl KernelRidgeSvr {
    /// New unfitted RBF model.
    pub fn new() -> Self {
        Self {
            support: Matrix::zeros(0, 0),
            alphas: Vec::new(),
            gamma: 1.0,
            feature_stats: Vec::new(),
            target_stats: (0.0, 1.0),
        }
    }

    fn rbf(&self, a: &[f64], b: &[f64]) -> f64 {
        let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        (-self.gamma * d2).exp()
    }

    fn standardize_row(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(row.iter().enumerate().map(|(j, &v)| {
            let (m, s) = self.feature_stats[j];
            (v - m) / s
        }));
    }
}

impl Default for KernelRidgeSvr {
    fn default() -> Self {
        Self::new()
    }
}

impl Regressor for KernelRidgeSvr {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        let n_all = x.nrows();
        if n_all == 0 {
            return Err(MlError::new("kernel svr: no samples"));
        }
        self.feature_stats = standardize_stats(x);
        self.target_stats = (autoai_linalg::mean(y), autoai_linalg::std_dev(y).max(1e-9));
        let (ym, ys) = self.target_stats;

        // subsample evenly when too large (keeps temporal spread)
        let idx: Vec<usize> = if n_all > MAX_TRAIN {
            let step = n_all as f64 / MAX_TRAIN as f64;
            (0..MAX_TRAIN)
                .map(|i| ((i as f64 * step) as usize).min(n_all - 1))
                .collect()
        } else {
            (0..n_all).collect()
        };
        let n = idx.len();
        let d = x.ncols();

        // standardized support matrix
        let mut support = Matrix::zeros(n, d);
        for (r, &i) in idx.iter().enumerate() {
            let row = x.row(i);
            let srow = support.row_mut(r);
            for j in 0..d {
                let (m, s) = self.feature_stats[j];
                srow[j] = (row[j] - m) / s;
            }
        }

        // gamma: median pairwise distance heuristic on a sample
        let m = n.min(100);
        let mut dists = Vec::with_capacity(m * (m - 1) / 2);
        for i in 0..m {
            for j in (i + 1)..m {
                let d2: f64 = support
                    .row(i * n / m.max(1))
                    .iter()
                    .zip(support.row(j * n / m.max(1)))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                dists.push(d2);
            }
        }
        self.gamma = 1.0 / autoai_linalg::median(&dists).max(1e-9);

        // K + λI solve
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = {
                    let d2: f64 = support
                        .row(i)
                        .iter()
                        .zip(support.row(j))
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    (-self.gamma * d2).exp()
                };
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
            k[(i, i)] += LAMBDA;
        }
        let targets: Vec<f64> = idx.iter().map(|&i| (y[i] - ym) / ys).collect();
        self.alphas = cholesky_solve(&mut k, &targets)
            .map_err(|e| MlError::new(format!("kernel solve failed: {e}")))?;
        self.support = support;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(
            !self.alphas.is_empty(),
            "KernelRidgeSvr::predict before fit"
        );
        let mut z = Vec::with_capacity(row.len());
        self.standardize_row(row, &mut z);
        let s: f64 = (0..self.support.nrows())
            .map(|i| self.alphas[i] * self.rbf(&z, self.support.row(i)))
            .sum();
        let (ym, ys) = self.target_stats;
        s * ys + ym
    }

    fn name(&self) -> &'static str {
        "kernel_svr"
    }

    fn clone_unfitted(&self) -> Box<dyn Regressor> {
        Box::new(Self::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_svr_fits_nonlinear() {
        let rows: Vec<Vec<f64>> = (0..150).map(|i| vec![i as f64 / 15.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0]).sin() * 5.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut m = KernelRidgeSvr::new();
        m.fit(&x, &y).unwrap();
        let preds = m.predict(&x);
        let mae: f64 = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / y.len() as f64;
        assert!(mae < 0.5, "kernel svr MAE {mae}");
    }

    #[test]
    fn kernel_svr_subsamples_large_input() {
        let rows: Vec<Vec<f64>> = (0..2000).map(|i| vec![i as f64 / 100.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut m = KernelRidgeSvr::new();
        m.fit(&x, &y).unwrap();
        assert!(m.support.nrows() <= MAX_TRAIN);
        let p = m.predict_row(&[10.0]);
        assert!((p - 20.0).abs() < 2.0, "subsampled kernel prediction {p}");
    }

    #[test]
    fn empty_input_rejected() {
        assert!(KernelRidgeSvr::new()
            .fit(&Matrix::zeros(0, 1), &[])
            .is_err());
    }
}
