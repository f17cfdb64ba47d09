//! The shared regressor contract and the multi-output adapter.

use autoai_linalg::{parallel_try_map_range, Matrix};

/// Error raised when a model cannot be fitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlError {
    /// Human-readable description.
    pub message: String,
}

impl MlError {
    /// Build from anything printable.
    pub fn new(msg: impl Into<String>) -> Self {
        Self {
            message: msg.into(),
        }
    }
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ml error: {}", self.message)
    }
}

impl std::error::Error for MlError {}

/// A supervised regressor over dense feature matrices.
///
/// Follows the sklearn estimator contract from Figure 1 of the paper:
/// `fit(X, y)` then `predict(X)`. Single-row prediction is the primitive so
/// recursive forecasting loops stay allocation-light.
pub trait Regressor: Send + Sync {
    /// Fit on features `x` (`n x d`) and targets `y` (`n`).
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError>;

    /// Predict a single feature row.
    fn predict_row(&self, row: &[f64]) -> f64;

    /// Predict every row of `x`.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.nrows()).map(|r| self.predict_row(x.row(r))).collect()
    }

    /// Model name for pipeline descriptions.
    fn name(&self) -> &'static str;

    /// A fresh unfitted copy with the same hyperparameters (used by
    /// multi-output adapters and ensembles).
    fn clone_unfitted(&self) -> Box<dyn Regressor>;
}

/// Fits one inner regressor per target column — the standard way the
/// paper's ML pipelines produce multi-step (and multi-series) forecasts from
/// flattened windows.
pub struct MultiOutputRegressor {
    prototype: Box<dyn Regressor>,
    fitted: Vec<Box<dyn Regressor>>,
}

impl MultiOutputRegressor {
    /// Wrap a prototype regressor.
    pub fn new(prototype: Box<dyn Regressor>) -> Self {
        Self {
            prototype,
            fitted: Vec::new(),
        }
    }

    /// Fit one clone of the prototype per column of `y` (`n x k`), the
    /// columns in parallel on the shared worker pool. A panicking column
    /// fit surfaces as an error, like a failing one.
    pub fn fit(&mut self, x: &Matrix, y: &Matrix) -> Result<(), MlError> {
        if x.nrows() != y.nrows() {
            return Err(MlError::new(format!(
                "row mismatch: X has {}, y has {}",
                x.nrows(),
                y.nrows()
            )));
        }
        self.fitted.clear();
        // the outputs are independent fits, each landing in its own slot,
        // so fitting them in parallel is bit-identical to a serial loop
        self.fitted = parallel_try_map_range(y.ncols(), |k| {
            let mut model = self.prototype.clone_unfitted();
            model.fit(x, &y.col(k))?;
            Ok(model)
        })
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| Err(MlError::new(format!("output fit panicked: {p}")))))
        .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Number of fitted outputs.
    pub fn n_outputs(&self) -> usize {
        self.fitted.len()
    }

    /// Predict all outputs for one feature row.
    pub fn predict_row(&self, row: &[f64]) -> Vec<f64> {
        self.fitted.iter().map(|m| m.predict_row(row)).collect()
    }

    /// Predict all outputs for every row of `x` (`n x k` result).
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.nrows(), self.fitted.len());
        for r in 0..x.nrows() {
            let row = x.row(r);
            for (k, m) in self.fitted.iter().enumerate() {
                out[(r, k)] = m.predict_row(row);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearRegression;

    #[test]
    fn multi_output_fits_each_column() {
        // y0 = x, y1 = 2x + 1
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 3.0],
            vec![2.0, 5.0],
            vec![3.0, 7.0],
        ]);
        let mut m = MultiOutputRegressor::new(Box::new(LinearRegression::new()));
        m.fit(&x, &y).unwrap();
        assert_eq!(m.n_outputs(), 2);
        let p = m.predict_row(&[4.0]);
        assert!((p[0] - 4.0).abs() < 1e-6);
        assert!((p[1] - 9.0).abs() < 1e-6);
        let batch = m.predict(&x);
        assert_eq!(batch.nrows(), 4);
        assert!((batch[(2, 1)] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_fit_matches_one_fit_per_column_bitwise() {
        use crate::forest::{RandomForestConfig, RandomForestRegressor};
        let x = Matrix::from_rows(
            &(0..40)
                .map(|i| vec![i as f64, (i as f64 * 0.3).sin()])
                .collect::<Vec<_>>(),
        );
        let y = Matrix::from_rows(
            &(0..40)
                .map(|i| (0..5).map(|k| ((i * (k + 2)) % 7) as f64).collect())
                .collect::<Vec<_>>(),
        );
        let proto = || {
            RandomForestRegressor::with_config(RandomForestConfig {
                n_trees: 5,
                ..Default::default()
            })
        };
        let mut multi = MultiOutputRegressor::new(Box::new(proto()));
        multi.fit(&x, &y).unwrap();
        let got = multi.predict(&x);
        for k in 0..y.ncols() {
            let mut single = proto();
            single.fit(&x, &y.col(k)).unwrap();
            for r in 0..x.nrows() {
                assert_eq!(
                    got[(r, k)].to_bits(),
                    single.predict_row(x.row(r)).to_bits()
                );
            }
        }
    }

    #[test]
    fn multi_output_rejects_row_mismatch() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let y = Matrix::from_rows(&[vec![0.0]]);
        let mut m = MultiOutputRegressor::new(Box::new(LinearRegression::new()));
        assert!(m.fit(&x, &y).is_err());
    }
}
