//! Window-regressor pipelines: WindowRandomForest and WindowSVR.
//!
//! These are the paper's stats-ML hybrid workhorses — a look-back window is
//! flattened into features and a one-step-ahead multi-output regressor is
//! trained; multi-step forecasts are produced recursively by feeding
//! predictions back into the window.

use std::sync::Arc;

use autoai_ml_models::{
    KernelRidgeSvr, MultiOutputRegressor, RandomForestConfig, RandomForestRegressor, Regressor,
};
use autoai_transforms::{latest_window, TransformCache};
use autoai_tsdata::TimeSeriesFrame;

use crate::caching::cached_flatten;
use crate::stat_pipelines::forecast_frame;
use crate::traits::{Forecaster, PipelineError};

/// Recursive multi-step forecast for a direct window model trained for
/// `trained` steps: predict from the latest `lookback` window of `tail`,
/// keep up to `horizon` steps, append the full prediction, repeat.
/// `predict_row(features, take)` returns the series-major prediction
/// (`trained` values per series) and learns how many steps are kept. Only
/// the latest window is ever read, so the work frame is cut back to its
/// last `lookback` rows whenever it outgrows `4 · lookback`: a long horizon
/// never grows it without bound.
pub(crate) fn recursive_window_forecast(
    tail: &TimeSeriesFrame,
    lookback: usize,
    trained: usize,
    horizon: usize,
    mut predict_row: impl FnMut(&[f64], usize) -> Vec<f64>,
) -> Result<Vec<Vec<f64>>, PipelineError> {
    let n_series = tail.n_series();
    let mut work = tail.clone();
    let mut out: Vec<Vec<f64>> = vec![Vec::with_capacity(horizon); n_series];
    let mut produced = 0usize;
    while produced < horizon {
        let features = latest_window(&work, lookback)
            .ok_or_else(|| PipelineError::InvalidInput("window unavailable".into()))?;
        let take = trained.min(horizon - produced);
        let pred = predict_row(&features, take);
        let mut cols: Vec<Vec<f64>> = Vec::with_capacity(n_series);
        for c in 0..n_series {
            let seg = &pred[c * trained..(c + 1) * trained];
            out[c].extend_from_slice(&seg[..take]);
            cols.push(seg.to_vec());
        }
        work.append(&TimeSeriesFrame::from_columns(cols));
        if work.len() > lookback.saturating_mul(4) {
            work = work.tail(lookback);
        }
        produced += take;
    }
    Ok(out)
}

/// Which regressor backs the window pipeline (determines the display name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    RandomForest,
    Svr,
    Custom,
}

/// A recursive one-step window pipeline over any [`Regressor`].
pub struct WindowRegressorPipeline {
    /// Look-back window length.
    pub lookback: usize,
    prototype: Box<dyn Regressor>,
    backend: Backend,
    custom_name: String,
    model: Option<MultiOutputRegressor>,
    train_tail: Option<TimeSeriesFrame>,
    names: Vec<String>,
    cache: Option<Arc<TransformCache>>,
}

impl WindowRegressorPipeline {
    /// WindowRandomForest: the Table 6 pipeline backed by a random forest.
    pub fn random_forest(lookback: usize) -> Self {
        let cfg = RandomForestConfig {
            n_trees: 30,
            max_depth: 10,
            ..Default::default()
        };
        Self {
            lookback: lookback.max(1),
            prototype: Box::new(RandomForestRegressor::with_config(cfg)),
            backend: Backend::RandomForest,
            custom_name: String::new(),
            model: None,
            train_tail: None,
            names: Vec::new(),
            cache: None,
        }
    }

    /// WindowSVR: the Table 6 pipeline backed by the RBF kernel machine.
    pub fn svr(lookback: usize) -> Self {
        Self {
            lookback: lookback.max(1),
            prototype: Box::new(KernelRidgeSvr::new()),
            backend: Backend::Svr,
            custom_name: String::new(),
            model: None,
            train_tail: None,
            names: Vec::new(),
            cache: None,
        }
    }

    /// A window pipeline over an arbitrary regressor (extension point).
    pub fn custom(lookback: usize, name: impl Into<String>, prototype: Box<dyn Regressor>) -> Self {
        Self {
            lookback: lookback.max(1),
            prototype,
            backend: Backend::Custom,
            custom_name: name.into(),
            model: None,
            train_tail: None,
            names: Vec::new(),
            cache: None,
        }
    }
}

impl Forecaster for WindowRegressorPipeline {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        self.names = frame.names().to_vec();
        let max_lb = frame.len().saturating_sub(5).max(1);
        self.lookback = self.lookback.min(max_lb);
        let ds = cached_flatten(self.cache.as_ref(), frame, self.lookback, 1);
        if ds.is_empty() {
            return Err(PipelineError::InvalidInput(format!(
                "series of length {} too short for lookback {}",
                frame.len(),
                self.lookback
            )));
        }
        let mut model = MultiOutputRegressor::new(self.prototype.clone_unfitted());
        model
            .fit(&ds.x, &ds.y)
            .map_err(|e| PipelineError::Fit(e.message))?;
        self.model = Some(model);
        self.train_tail = Some(frame.tail(self.lookback).into_owned());
        Ok(())
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        let model = self.model.as_ref().ok_or(PipelineError::NotFitted)?;
        let tail = self.train_tail.as_ref().ok_or(PipelineError::NotFitted)?;
        let out = recursive_window_forecast(tail, self.lookback, 1, horizon, |x, _| {
            model.predict_row(x) // one value per series
        })?;
        Ok(forecast_frame(&self.names, out))
    }

    fn name(&self) -> String {
        match self.backend {
            Backend::RandomForest => "WindowRandomForest".into(),
            Backend::Svr => "WindowSVR".into(),
            Backend::Custom => format!("Window{}", self.custom_name),
        }
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self {
            lookback: self.lookback,
            prototype: self.prototype.clone_unfitted(),
            backend: self.backend,
            custom_name: self.custom_name.clone(),
            model: None,
            train_tail: None,
            names: Vec::new(),
            cache: None,
        })
    }

    fn set_transform_cache(&mut self, cache: Option<Arc<TransformCache>>) {
        self.cache = cache;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoai_tsdata::Metric;

    fn seasonal_frame(n: usize) -> TimeSeriesFrame {
        TimeSeriesFrame::univariate(
            (0..n)
                .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
                .collect(),
        )
    }

    #[test]
    fn window_rf_forecasts_seasonal() {
        let mut p = WindowRegressorPipeline::random_forest(12);
        p.fit(&seasonal_frame(300)).unwrap();
        let f = p.predict(12).unwrap();
        let truth: Vec<f64> = (300..312)
            .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
            .collect();
        let smape = autoai_tsdata::smape(&truth, f.series(0));
        assert!(smape < 6.0, "WindowRF smape {smape}");
    }

    #[test]
    fn window_svr_forecasts_seasonal() {
        let mut p = WindowRegressorPipeline::svr(12);
        p.fit(&seasonal_frame(300)).unwrap();
        let f = p.predict(12).unwrap();
        let truth: Vec<f64> = (300..312)
            .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
            .collect();
        let smape = autoai_tsdata::smape(&truth, f.series(0));
        assert!(smape < 6.0, "WindowSVR smape {smape}");
    }

    #[test]
    fn multivariate_window_pipeline() {
        let cols = vec![
            (0..200).map(|i| (i % 10) as f64).collect::<Vec<f64>>(),
            (0..200)
                .map(|i| ((i + 5) % 10) as f64)
                .collect::<Vec<f64>>(),
        ];
        let mut p = WindowRegressorPipeline::random_forest(10);
        p.fit(&TimeSeriesFrame::from_columns(cols)).unwrap();
        let f = p.predict(5).unwrap();
        assert_eq!(f.n_series(), 2);
        assert_eq!(f.len(), 5);
    }

    #[test]
    fn lookback_shrinks_on_short_series() {
        let mut p = WindowRegressorPipeline::random_forest(100);
        p.fit(&TimeSeriesFrame::univariate(
            (0..30).map(|i| i as f64).collect(),
        ))
        .unwrap();
        assert!(p.lookback <= 25);
        assert_eq!(p.predict(3).unwrap().len(), 3);
    }

    #[test]
    fn score_integrates_with_trait() {
        let frame = seasonal_frame(300);
        let train = frame.slice(0, 288);
        let test = frame.slice(288, 300);
        let mut p = WindowRegressorPipeline::random_forest(12);
        p.fit(&train).unwrap();
        let s = p.score(&test, Metric::Smape).unwrap();
        assert!(s < 10.0, "score {s}");
    }

    #[test]
    fn names_and_clone() {
        assert_eq!(
            WindowRegressorPipeline::random_forest(8).name(),
            "WindowRandomForest"
        );
        assert_eq!(WindowRegressorPipeline::svr(8).name(), "WindowSVR");
        let c = WindowRegressorPipeline::svr(8).clone_unfitted();
        assert_eq!(c.name(), "WindowSVR");
    }
}
