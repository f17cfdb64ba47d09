//! Ordinary least squares, the Linear Regression of the paper's ML model
//! list (§3) and the linear learner of the window pipelines.
//!
//! The intercept is fitted by augmenting the design matrix with a ones
//! column.

use autoai_linalg::{lstsq, Matrix};

use crate::api::{MlError, Regressor};

fn augment(x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.nrows(), x.ncols() + 1);
    for r in 0..x.nrows() {
        let row = out.row_mut(r);
        row[0] = 1.0;
        row[1..].copy_from_slice(x.row(r));
    }
    out
}

/// Ordinary least squares with intercept.
#[derive(Debug, Clone, Default)]
pub struct LinearRegression {
    /// `[intercept, coef_0, coef_1, …]` after fitting.
    pub coefficients: Vec<f64>,
}

impl LinearRegression {
    /// New unfitted model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Regressor for LinearRegression {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        if x.nrows() == 0 {
            return Err(MlError::new("linear regression: no samples"));
        }
        let xa = augment(x);
        self.coefficients =
            lstsq(&xa, y).map_err(|e| MlError::new(format!("lstsq failed: {e}")))?;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(
            !self.coefficients.is_empty(),
            "LinearRegression::predict before fit"
        );
        self.coefficients[0]
            + row
                .iter()
                .zip(&self.coefficients[1..])
                .map(|(a, b)| a * b)
                .sum::<f64>()
    }

    fn name(&self) -> &'static str {
        "linear_regression"
    }

    fn clone_unfitted(&self) -> Box<dyn Regressor> {
        Box::new(Self::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data() -> (Matrix, Vec<f64>) {
        // y = 3 + 2 x0 - x1
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 7) as f64, (i % 5) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 + 2.0 * r[0] - r[1]).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn ols_recovers_exact_coefficients() {
        let (x, y) = linear_data();
        let mut m = LinearRegression::new();
        m.fit(&x, &y).unwrap();
        assert!((m.coefficients[0] - 3.0).abs() < 1e-6);
        assert!((m.coefficients[1] - 2.0).abs() < 1e-6);
        assert!((m.coefficients[2] + 1.0).abs() < 1e-6);
        assert!((m.predict_row(&[10.0, 2.0]) - 21.0).abs() < 1e-5);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(LinearRegression::new()
            .fit(&Matrix::zeros(0, 2), &[])
            .is_err());
    }
}
