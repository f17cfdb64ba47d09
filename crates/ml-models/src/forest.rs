//! Random forest regression: bootstrap-aggregated CART trees, fitted in
//! parallel on the worker pool (the paper stresses "efficient, parallel"
//! search), with one tree workspace per worker reused across its trees.

use std::sync::atomic::{AtomicUsize, Ordering};

use autoai_linalg::{parallel_try_map_range, Matrix, Rng64};

use crate::api::{MlError, Regressor};
use crate::tree::{DecisionTreeConfig, DecisionTreeRegressor, FeatureOrders, TreeWorkspace};

/// Hyperparameters of the random forest.
#[derive(Debug, Clone)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree depth limit.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features per split (`None` = d/3, the regression default).
    pub max_features: Option<usize>,
    /// Bootstrap sample fraction.
    pub sample_fraction: f64,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 100,
            max_depth: 12,
            min_samples_leaf: 2,
            max_features: None,
            sample_fraction: 1.0,
            seed: 42,
        }
    }
}

/// A fitted random forest.
pub struct RandomForestRegressor {
    config: RandomForestConfig,
    trees: Vec<DecisionTreeRegressor>,
}

impl RandomForestRegressor {
    /// New forest with default hyperparameters.
    pub fn new() -> Self {
        Self::with_config(RandomForestConfig::default())
    }

    /// New forest with explicit hyperparameters.
    pub fn with_config(config: RandomForestConfig) -> Self {
        Self {
            config,
            trees: Vec::new(),
        }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Default for RandomForestRegressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Regressor for RandomForestRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        let n = x.nrows();
        if n == 0 {
            return Err(MlError::new("random forest: no training samples"));
        }
        if n != y.len() {
            return Err(MlError::new("random forest: X/y row mismatch"));
        }
        let d = x.ncols();
        let max_features = self.config.max_features.unwrap_or_else(|| (d / 3).max(1));
        let n_boot = ((n as f64) * self.config.sample_fraction).round().max(1.0) as usize;

        let cfg = &self.config;
        // one argsort of the shared design matrix serves every tree
        let shared = FeatureOrders::compute(x);
        let fit_tree = |t: usize, ws: &mut TreeWorkspace| {
            let mut rng = Rng64::seed_from_u64(cfg.seed.wrapping_add(t as u64 * 7919));
            let indices: Vec<usize> = (0..n_boot).map(|_| rng.gen_range(0..n)).collect();
            let tree_cfg = DecisionTreeConfig {
                max_depth: cfg.max_depth,
                min_samples_split: 2 * cfg.min_samples_leaf,
                min_samples_leaf: cfg.min_samples_leaf,
                max_features: Some(max_features),
                seed: cfg.seed.wrapping_add(t as u64 * 104729 + 1),
            };
            let mut tree = DecisionTreeRegressor::with_config(tree_cfg);
            tree.fit_in(x, y, &indices, &shared, ws)?;
            Ok(tree)
        };
        // one pool item per worker, each with one tree workspace; the items
        // claim trees from a shared cursor, so a worker that joins late
        // still takes its share. A tree's fit depends only on its index.
        let workers = std::thread::available_parallelism()
            .map_or(1, |w| w.get())
            .min(cfg.n_trees);
        let next = AtomicUsize::new(0);
        let claimed = parallel_try_map_range(workers, |_| {
            let mut ws = TreeWorkspace::default();
            let mut fitted = Vec::new();
            loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= cfg.n_trees {
                    break fitted;
                }
                fitted.push((t, fit_tree(t, &mut ws)));
            }
        });
        let mut fits: Vec<Option<Result<DecisionTreeRegressor, MlError>>> =
            (0..cfg.n_trees).map(|_| None).collect();
        let mut panicked = None;
        for worker in claimed {
            match worker {
                Ok(trees) => {
                    for (t, fit) in trees {
                        if let Some(slot) = fits.get_mut(t) {
                            *slot = Some(fit);
                        }
                    }
                }
                Err(p) => panicked = Some(p),
            }
        }
        // a panicking tree fit is a bug, but it must surface as a typed
        // error instead of aborting the whole AutoML run; the trees its
        // worker had claimed are left without a fit
        self.trees = fits
            .into_iter()
            .map(|fit| match (fit, &panicked) {
                (Some(fit), _) => fit,
                (None, Some(p)) => Err(MlError::new(format!("tree fit panicked: {p}"))),
                (None, None) => Err(MlError::new("tree fit was never run")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "RandomForest::predict before fit");
        self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>() / self.trees.len() as f64
    }

    fn name(&self) -> &'static str {
        "random_forest"
    }

    fn clone_unfitted(&self) -> Box<dyn Regressor> {
        Box::new(Self::with_config(self.config.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sin()).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn forest_fits_sine() {
        let (x, y) = sine_data(300);
        let cfg = RandomForestConfig {
            n_trees: 30,
            ..Default::default()
        };
        let mut f = RandomForestRegressor::with_config(cfg);
        f.fit(&x, &y).unwrap();
        assert_eq!(f.n_trees(), 30);
        let preds = f.predict(&x);
        let mae: f64 = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / y.len() as f64;
        assert!(mae < 0.08, "forest MAE {mae}");
    }

    #[test]
    fn forest_is_deterministic_given_seed() {
        let (x, y) = sine_data(100);
        let cfg = RandomForestConfig {
            n_trees: 10,
            seed: 7,
            ..Default::default()
        };
        let mut f1 = RandomForestRegressor::with_config(cfg.clone());
        let mut f2 = RandomForestRegressor::with_config(cfg);
        f1.fit(&x, &y).unwrap();
        f2.fit(&x, &y).unwrap();
        for i in 0..20 {
            let row = [i as f64 / 2.0];
            assert_eq!(f1.predict_row(&row), f2.predict_row(&row));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = sine_data(100);
        let mut f1 = RandomForestRegressor::with_config(RandomForestConfig {
            n_trees: 5,
            seed: 1,
            ..Default::default()
        });
        let mut f2 = RandomForestRegressor::with_config(RandomForestConfig {
            n_trees: 5,
            seed: 2,
            ..Default::default()
        });
        f1.fit(&x, &y).unwrap();
        f2.fit(&x, &y).unwrap();
        let any_diff = (0..50).any(|i| {
            let row = [i as f64 / 5.0];
            (f1.predict_row(&row) - f2.predict_row(&row)).abs() > 1e-12
        });
        assert!(any_diff);
    }

    #[test]
    fn forest_beats_single_tree_on_noise() {
        // noisy linear data: forest averaging should not be (much) worse
        let n = 200;
        let mut rng_state = 9u64;
        let mut noise = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 0.5 + 10.0 * noise()).collect();
        let x = Matrix::from_rows(&rows);
        let mut forest = RandomForestRegressor::with_config(RandomForestConfig {
            n_trees: 50,
            max_depth: 6,
            ..Default::default()
        });
        forest.fit(&x, &y).unwrap();
        // smooth response: prediction at midpoints close to the line
        let p = forest.predict_row(&[100.0]);
        assert!((p - 50.0).abs() < 12.0, "forest mid prediction {p}");
    }

    #[test]
    fn empty_input_rejected() {
        let mut f = RandomForestRegressor::new();
        assert!(f.fit(&Matrix::zeros(0, 1), &[]).is_err());
    }
}
