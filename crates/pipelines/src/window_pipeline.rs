//! The window pipelines: every stats-ML hybrid of Table 6 in one type.
//!
//! Seven of the paper's pipelines share one shape: an optional log /
//! difference chain, look-back windows flattened into features (jointly
//! over all series, or one dataset per series), a regressor trained for a
//! direct horizon, and a recursive forecast that feeds predictions back
//! into the window. [`WindowPipeline`] is that shape once; what varies is
//! the learner fitted to each group's windows:
//!
//! - one fixed regressor: WindowRandomForest and WindowSVR (one step ahead)
//!   and MT2RForecaster (multi-target linear regression, the fastest ML
//!   pipeline of Table 6);
//! - the bounded regressor tournament of [`crate::ensemble`]: the Flatten,
//!   DifferenceFlatten and LocalizedFlatten AutoEnsemblers;
//! - a direct multi-step MLP with a Gaussian-NLL dispersion head
//!   (NeuralWindow), the only one with native intervals.
//!
//! Only the tournament accepts a warm start: it refits each group's
//! previous winner on the grown frame. The MLP deliberately has none:
//! continued SGD from previous weights lands in a different optimum than a
//! cold fit, far enough to break the executor's rank-stability contract.

use std::sync::Arc;

use autoai_ml_models::{
    KernelRidgeSvr, LinearRegression, MultiOutputRegressor, RandomForestConfig,
    RandomForestRegressor, Regressor,
};
use autoai_neural::{Loss, Mlp, MlpConfig};
use autoai_transforms::{
    latest_window, DifferenceTransform, LogTransform, Transform, TransformCache, WindowDataset,
};
use autoai_tsdata::{FrameFingerprint, TimeSeriesFrame};

use crate::caching::{cached_flatten, cached_frame_op, cached_localized_flatten};
use crate::ensemble::{fit_named, tournament_fit};
use crate::interval::{IntervalForecast, IntervalSource};
use crate::stat_pipelines::{chaos_fit_gate, chaos_interval_gate, chaos_predict_gate};
use crate::traits::{Forecaster, PipelineError};

/// Recursive multi-step forecast for a direct window model trained for
/// `trained` steps: predict from the latest `lookback` window of `tail`,
/// keep up to `horizon` steps, append the full prediction, repeat.
/// `predict_row(features, take)` returns the series-major prediction
/// (`trained` values per series) and learns how many steps are kept. Only
/// the latest window is ever read, so the work frame is cut back to its
/// last `lookback` rows whenever it outgrows `4 · lookback`: a long horizon
/// never grows it without bound.
fn recursive_window_forecast(
    tail: &TimeSeriesFrame,
    lookback: usize,
    trained: usize,
    horizon: usize,
    mut predict_row: impl FnMut(&[f64], usize) -> Vec<f64>,
) -> Result<Vec<Vec<f64>>, PipelineError> {
    let mut work = tail.clone();
    let mut out: Vec<Vec<f64>> = vec![Vec::with_capacity(horizon); tail.n_series()];
    let mut produced = 0usize;
    while produced < horizon {
        let features = latest_window(&work, lookback)
            .ok_or_else(|| PipelineError::InvalidInput("window unavailable".into()))?;
        let take = trained.min(horizon - produced);
        let pred = predict_row(&features, take);
        let cols: Vec<Vec<f64>> = pred
            .chunks(trained.max(1))
            .zip(out.iter_mut())
            .map(|(seg, kept)| {
                kept.extend(seg.iter().take(take));
                seg.to_vec()
            })
            .collect();
        work.append(&TimeSeriesFrame::from_columns(cols));
        if work.len() > lookback.saturating_mul(4) {
            work = work.tail(lookback);
        }
        produced += take;
    }
    Ok(out)
}

/// What a window pipeline trains on each group's windows.
enum Learner {
    /// One fixed regressor, cloned unfitted for every output of every fit.
    Fixed(Box<dyn Regressor>),
    /// The bounded tournament over the ensemble candidates.
    Tournament,
    /// An MSE-trained MLP for the point forecast plus a Gaussian-NLL head
    /// for its bands.
    Mlp(MlpConfig),
}

/// One group's fitted model.
enum Model {
    /// A multi-output regressor and the candidate it was fitted as (the
    /// tournament winner a warm start refits).
    Regressor(MultiOutputRegressor, &'static str),
    /// The point MLP and the NLL head; the head is `None` when its fit
    /// failed, and `predict_interval` then refuses so the caller
    /// conformal-wraps instead.
    Mlp(Mlp, Option<Mlp>),
}

/// The log / difference chain as fitted on one frame.
struct Chain {
    log: Option<LogTransform>,
    diff: Option<DifferenceTransform>,
}

/// Everything a successful fit leaves behind. It is replaced whole, so a
/// declined or failed warm start keeps the previous fit intact.
struct Fitted {
    chain: Chain,
    /// One model per group: a single joint model, or one per series.
    models: Vec<Model>,
    /// The look-back this fit used: the configured one clamped to the data.
    lookback: usize,
    /// The last `lookback` rows of the transformed training data.
    tail: TimeSeriesFrame,
    names: Vec<String>,
    /// Fingerprint of the fitted frame view; a warm start must extend it.
    fp: FrameFingerprint,
    /// Window rows at the last tournament. Once a warm start's window
    /// count has doubled since, it declines so the selection re-runs.
    tournament_rows: usize,
}

/// A look-back window pipeline (see the module docs).
pub struct WindowPipeline {
    /// Display name, also the chaos key.
    name: &'static str,
    learner: Learner,
    /// Log-transform the series first.
    log: bool,
    /// First-difference the (log) series before windowing.
    difference: bool,
    /// One dataset and model per series instead of one joint model.
    per_series: bool,
    /// Draws the fit and predict chaos faults (MT2RForecaster only).
    gated: bool,
    /// Configured look-back window length. Each fit clamps it to its own
    /// data and keeps the result in its `Fitted`, so a short fit never
    /// shrinks later fits or clones.
    lookback: usize,
    /// Direct horizon the models are trained for.
    horizon: usize,
    fitted: Option<Fitted>,
    /// Shared transform cache attached by the execution engine.
    cache: Option<Arc<TransformCache>>,
}

impl WindowPipeline {
    fn new(name: &'static str, learner: Learner, lookback: usize, horizon: usize) -> Self {
        Self {
            name,
            learner,
            log: false,
            difference: false,
            per_series: false,
            gated: false,
            lookback: lookback.max(1),
            horizon: horizon.max(1),
            fitted: None,
            cache: None,
        }
    }

    /// WindowRandomForest: a one-step random forest.
    pub fn random_forest(lookback: usize) -> Self {
        let forest = RandomForestRegressor::with_config(RandomForestConfig {
            n_trees: 30,
            max_depth: 10,
            ..Default::default()
        });
        Self::new(
            "WindowRandomForest",
            Learner::Fixed(Box::new(forest)),
            lookback,
            1,
        )
    }

    /// WindowSVR: a one-step RBF kernel machine.
    pub fn svr(lookback: usize) -> Self {
        let svr = Box::new(KernelRidgeSvr::new());
        Self::new("WindowSVR", Learner::Fixed(svr), lookback, 1)
    }

    /// MT2RForecaster: one direct multi-output linear regression.
    pub fn mt2r(lookback: usize, horizon: usize) -> Self {
        let linear = Learner::Fixed(Box::new(LinearRegression::new()));
        Self {
            gated: true,
            ..Self::new("MT2RForecaster", linear, lookback, horizon)
        }
    }

    /// NeuralWindow: a direct multi-step MLP with native bands.
    pub fn neural(lookback: usize, horizon: usize) -> Self {
        let config = MlpConfig {
            epochs: 40,
            ..Default::default()
        };
        Self::new("NeuralWindow", Learner::Mlp(config), lookback, horizon)
    }

    /// FlattenAutoEnsembler(-log): joint direct multi-step ensemble.
    pub fn flatten(lookback: usize, horizon: usize, use_log: bool) -> Self {
        let name = if use_log {
            "FlattenAutoEnsembler-log"
        } else {
            "FlattenAutoEnsembler"
        };
        Self {
            log: use_log,
            ..Self::new(name, Learner::Tournament, lookback, horizon)
        }
    }

    /// DifferenceFlattenAutoEnsembler(-log): the flatten ensemble over
    /// first differences.
    pub fn difference_flatten(lookback: usize, horizon: usize, use_log: bool) -> Self {
        let name = if use_log {
            "DifferenceFlattenAutoEnsembler-log"
        } else {
            "DifferenceFlattenAutoEnsembler"
        };
        Self {
            log: use_log,
            difference: true,
            ..Self::new(name, Learner::Tournament, lookback, horizon)
        }
    }

    /// LocalizedFlattenAutoEnsembler: one ensemble per series over its own
    /// windows (no log, as in Table 6).
    pub fn localized_flatten(lookback: usize, horizon: usize) -> Self {
        let name = "LocalizedFlattenAutoEnsembler";
        Self {
            per_series: true,
            ..Self::new(name, Learner::Tournament, lookback, horizon)
        }
    }

    /// Fit the transform chain on `frame` and return it with the
    /// transformed frame and the look-back clamped to it. Each pass is
    /// memoized, so every -log / difference pipeline in the pool shares one
    /// output frame and therefore one set of window matrices.
    fn transform(&self, frame: &TimeSeriesFrame) -> (Chain, TimeSeriesFrame, usize) {
        let cache = self.cache.as_ref();
        let log = self.log.then(|| {
            let mut t = LogTransform::new();
            t.fit(frame);
            t
        });
        let after_log = match &log {
            Some(l) => cached_frame_op(cache, frame, "log", || l.transform(frame)),
            None => frame.clone(),
        };
        let diff = self.difference.then(|| {
            let mut t = DifferenceTransform::new();
            t.fit(&after_log);
            t
        });
        let transformed = match &diff {
            Some(d) => {
                let tag = format!("diff{}", d.order());
                cached_frame_op(cache, &after_log, &tag, || d.transform(&after_log))
            }
            None => after_log,
        };
        // at least four windows must fit the transformed data
        let max_lb = transformed.len().saturating_sub(self.horizon + 4).max(1);
        (Chain { log, diff }, transformed, self.lookback.min(max_lb))
    }

    /// Number of model groups: one joint model, or one per series.
    fn groups(&self, frame: &TimeSeriesFrame) -> usize {
        if self.per_series {
            frame.n_series()
        } else {
            1
        }
    }

    /// Group `g`'s windows: the joint windows, or series `g`'s own.
    fn windows(&self, frame: &TimeSeriesFrame, g: usize, lookback: usize) -> Arc<WindowDataset> {
        let cache = self.cache.as_ref();
        if self.per_series {
            cached_localized_flatten(cache, frame, g, lookback, self.horizon)
        } else {
            cached_flatten(cache, frame, lookback, self.horizon)
        }
    }

    /// Cold-fit the learner on one group's windows.
    fn learn(&self, ds: &WindowDataset) -> Result<Model, PipelineError> {
        match &self.learner {
            Learner::Fixed(proto) => {
                let mut model = MultiOutputRegressor::new(proto.clone_unfitted());
                model
                    .fit(&ds.x, &ds.y)
                    .map_err(|e| PipelineError::Fit(e.message))?;
                Ok(Model::Regressor(model, proto.name()))
            }
            Learner::Tournament => {
                let (model, chosen) = tournament_fit(&ds.x, &ds.y)?;
                Ok(Model::Regressor(model, chosen))
            }
            Learner::Mlp(config) => {
                let mut point = Mlp::new(config.clone());
                point
                    .fit(&ds.x, &ds.y)
                    .map_err(|e| PipelineError::Fit(e.message))?;
                // the uncertainty head trains at reduced epochs
                let mut nll = Mlp::new(MlpConfig {
                    loss: Loss::GaussianNll,
                    epochs: (config.epochs / 2).max(10),
                    ..config.clone()
                });
                let nll = nll.fit(&ds.x, &ds.y).is_ok().then_some(nll);
                Ok(Model::Mlp(point, nll))
            }
        }
    }

    fn fitted(&self) -> Result<&Fitted, PipelineError> {
        self.fitted
            .as_ref()
            .filter(|f| !f.models.is_empty())
            .ok_or(PipelineError::NotFitted)
    }

    /// One recursion step: the series-major prediction of every group's
    /// model on its part of the window (series-major, so series `c`'s own
    /// window is its `lookback`-long chunk).
    fn predict_row(&self, fitted: &Fitted, x: &[f64]) -> Vec<f64> {
        let width = if self.per_series {
            fitted.lookback
        } else {
            x.len()
        };
        let row = |(model, window): (&Model, &[f64])| match model {
            Model::Regressor(m, _) => m.predict_row(window),
            Model::Mlp(m, _) => m.predict_row(window),
        };
        fitted
            .models
            .iter()
            .zip(x.chunks(width.max(1)))
            .flat_map(row)
            .collect()
    }

    /// The forecast frame of the recursion's columns: the transform chain
    /// inverted (stateful inverse first, then stateless — §3's
    /// reverse-order rule), then named after the fitted series.
    fn output(fitted: &Fitted, columns: Vec<Vec<f64>>) -> TimeSeriesFrame {
        let mut fc = TimeSeriesFrame::from_columns(columns);
        if let Some(diff) = &fitted.chain.diff {
            fc = diff.inverse_transform(&fc);
        }
        if let Some(log) = &fitted.chain.log {
            fc = log.inverse_transform(&fc);
        }
        if fc.n_series() == fitted.names.len() {
            fc = fc.with_names(fitted.names.clone());
        }
        fc
    }
}

impl Forecaster for WindowPipeline {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        if self.gated {
            chaos_fit_gate(self.name, frame.len())?;
        }
        self.fitted = None;
        let (chain, transformed, lookback) = self.transform(frame);
        let mut models = Vec::new();
        let mut tournament_rows = 0;
        for g in 0..self.groups(&transformed) {
            let ds = self.windows(&transformed, g, lookback);
            if ds.is_empty() {
                return Err(PipelineError::InvalidInput(format!(
                    "length {} too short for lookback {lookback} + horizon {}",
                    transformed.len(),
                    self.horizon
                )));
            }
            models.push(self.learn(&ds)?);
            tournament_rows = ds.x.nrows();
        }
        self.fitted = Some(Fitted {
            chain,
            models,
            lookback,
            tail: transformed.tail(lookback).into_owned(),
            names: frame.names().to_vec(),
            fp: frame.fingerprint(),
            tournament_rows,
        });
        Ok(())
    }

    fn fit_incremental(
        &mut self,
        frame: &TimeSeriesFrame,
        previous_rows: usize,
    ) -> Result<bool, PipelineError> {
        let Some(prev) = self.fitted.as_ref() else {
            return Ok(false);
        };
        let fp = frame.fingerprint();
        if !matches!(self.learner, Learner::Tournament)
            || prev.models.is_empty()
            || previous_rows != prev.fp.rows()
            || frame.len() < previous_rows
            || !(fp.extends_as_suffix(&prev.fp) || fp.extends_as_prefix(&prev.fp))
        {
            return Ok(false);
        }
        let (chain, transformed, lookback) = self.transform(frame);
        if self.groups(&transformed) != prev.models.len() {
            return Ok(false);
        }
        // growth trigger: once the window count has doubled since the last
        // tournament the winner may no longer hold, so decline and let the
        // executor's full `fit` re-run the selection
        let stale_rows = prev.tournament_rows.max(1).saturating_mul(2);
        let mut models = Vec::with_capacity(prev.models.len());
        for (g, model) in prev.models.iter().enumerate() {
            let ds = self.windows(&transformed, g, lookback);
            let Model::Regressor(_, chosen) = model else {
                return Ok(false);
            };
            if ds.is_empty() || ds.x.nrows() >= stale_rows {
                return Ok(false);
            }
            models.push(Model::Regressor(fit_named(chosen, &ds.x, &ds.y)?, chosen));
        }
        let tournament_rows = prev.tournament_rows;
        self.fitted = Some(Fitted {
            chain,
            models,
            lookback,
            tail: transformed.tail(lookback).into_owned(),
            names: frame.names().to_vec(),
            fp,
            tournament_rows,
        });
        Ok(true)
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        let fitted = self.fitted()?;
        if self.gated {
            if let Some(poisoned) = chaos_predict_gate(self.name, horizon, fitted.tail.n_series()) {
                return Ok(poisoned);
            }
        }
        let out = recursive_window_forecast(
            &fitted.tail,
            fitted.lookback,
            self.horizon,
            horizon,
            |x, _| self.predict_row(fitted, x),
        )?;
        Ok(Self::output(fitted, out))
    }

    fn predict_interval(
        &self,
        horizon: usize,
        levels: &[f64],
    ) -> Result<IntervalForecast, PipelineError> {
        if !matches!(self.learner, Learner::Mlp(_)) {
            return Err(PipelineError::InvalidInput(
                "no native interval implementation".into(),
            ));
        }
        let fitted = self.fitted()?;
        let Some(Model::Mlp(_, Some(nll))) = fitted.models.first() else {
            return Err(PipelineError::InvalidInput(
                "Gaussian-NLL head unavailable".into(),
            ));
        };
        let poison = chaos_interval_gate(self.name, horizon)?;
        // same recursion as `predict` for the point path; the NLL head runs
        // on the identical features and contributes only the dispersion
        let trained = self.horizon;
        let mut stds: Vec<Vec<f64>> = vec![Vec::with_capacity(horizon); fitted.tail.n_series()];
        let out = recursive_window_forecast(
            &fitted.tail,
            fitted.lookback,
            trained,
            horizon,
            |x, take| {
                let dist = nll.predict_distribution(x);
                for (sd, seg) in stds.iter_mut().zip(dist.chunks(trained)) {
                    let spread = |&(_, s): &(f64, f64)| if poison { f64::NAN } else { s.abs() };
                    sd.extend(seg.iter().take(take).map(spread));
                }
                self.predict_row(fitted, x)
            },
        )?;
        IntervalForecast::from_gaussian(
            Self::output(fitted, out),
            levels,
            &stds,
            IntervalSource::Native,
        )
    }

    fn name(&self) -> String {
        self.name.into()
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        let learner = match &self.learner {
            Learner::Fixed(proto) => Learner::Fixed(proto.clone_unfitted()),
            Learner::Tournament => Learner::Tournament,
            Learner::Mlp(config) => Learner::Mlp(config.clone()),
        };
        // deliberately does not carry the cache: the execution engine
        // re-attaches it before every fit so detached clones stay inert
        Box::new(Self {
            learner,
            fitted: None,
            cache: None,
            ..*self
        })
    }

    fn set_transform_cache(&mut self, cache: Option<Arc<TransformCache>>) {
        self.cache = cache;
    }
}

#[cfg(test)]
mod tests {
    use autoai_tsdata::Metric;

    use super::*;
    use crate::registry::{pipeline_by_name, PipelineContext};

    fn seasonal_frame(n: usize) -> TimeSeriesFrame {
        TimeSeriesFrame::univariate(
            (0..n)
                .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
                .collect(),
        )
    }

    fn truth(range: std::ops::Range<usize>) -> Vec<f64> {
        range
            .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
            .collect()
    }

    #[test]
    fn flatten_log_forecasts_seasonal() {
        let mut p = WindowPipeline::flatten(12, 6, true);
        p.fit(&seasonal_frame(300)).unwrap();
        let f = p.predict(6).unwrap();
        let smape = autoai_tsdata::smape(&truth(300..306), f.series(0));
        assert!(smape < 5.0, "FlattenAutoEnsembler-log smape {smape}");
        assert!(!chosen(&p).is_empty());
    }

    #[test]
    fn difference_flatten_handles_trend() {
        // trending series: differencing is essential for window regressors
        let frame = TimeSeriesFrame::univariate(
            (0..300)
                .map(|i| 100.0 + 2.0 * i as f64 + (i as f64 * 0.5).sin())
                .collect(),
        );
        let mut p = WindowPipeline::difference_flatten(8, 6, false);
        p.fit(&frame).unwrap();
        let f = p.predict(6).unwrap();
        // forecasts must continue climbing past the last train value (698)
        assert!(f.series(0)[5] > 700.0, "{:?}", f.series(0));
        let target: Vec<f64> = (300..306)
            .map(|i| 100.0 + 2.0 * i as f64 + (i as f64 * 0.5).sin())
            .collect();
        let smape = autoai_tsdata::smape(&target, f.series(0));
        assert!(smape < 2.0, "DifferenceFlatten smape {smape}");
    }

    #[test]
    fn localized_fits_each_series_separately() {
        let cols = vec![
            (0..240)
                .map(|i| 10.0 + (2.0 * std::f64::consts::PI * i as f64 / 8.0).sin())
                .collect::<Vec<f64>>(),
            (0..240)
                .map(|i| 50.0 + 0.5 * i as f64)
                .collect::<Vec<f64>>(),
        ];
        let mut p = WindowPipeline::localized_flatten(10, 4);
        p.fit(&TimeSeriesFrame::from_columns(cols)).unwrap();
        let f = p.predict(4).unwrap();
        assert_eq!(f.n_series(), 2);
        // series 1 is a clean line; localized model should continue it
        assert!(f.series(1)[3] > 165.0, "{:?}", f.series(1));
    }

    #[test]
    fn recursive_extension_beyond_horizon() {
        let mut p = WindowPipeline::flatten(12, 4, false);
        p.fit(&seasonal_frame(300)).unwrap();
        let f = p.predict(10).unwrap();
        assert_eq!(f.len(), 10);
        let smape = autoai_tsdata::smape(&truth(300..310), f.series(0));
        assert!(smape < 8.0, "extended smape {smape}");
    }

    #[test]
    fn log_roundtrip_preserves_scale() {
        // large-scale data through the log path must come back on scale
        let frame = TimeSeriesFrame::univariate(
            (0..200)
                .map(|i| 1e6 + 1e5 * (i as f64 * 0.7).sin())
                .collect(),
        );
        let mut p = WindowPipeline::flatten(8, 4, true);
        p.fit(&frame).unwrap();
        let f = p.predict(4).unwrap();
        for &v in f.series(0) {
            assert!(v > 5e5 && v < 2e6, "forecast off scale: {v}");
        }
    }

    #[test]
    fn too_short_series_rejected() {
        let mut p = WindowPipeline::flatten(8, 4, false);
        assert!(p
            .fit(&TimeSeriesFrame::univariate(vec![1.0, 2.0, 3.0]))
            .is_err());
    }

    #[test]
    fn warm_start_skips_tournament_and_keeps_choice() {
        let frame = seasonal_frame(240);
        let mut p = WindowPipeline::flatten(12, 6, false);
        // previous fit on the trailing 180 rows (T-Daub reverse allocation)
        p.fit(&frame.slice(60, 240)).unwrap();
        let winners = chosen(&p);
        assert!(p.fit_incremental(&frame, 180).unwrap());
        assert_eq!(chosen(&p), winners, "warm start must keep the winner");
        let f = p.predict(6).unwrap();
        let smape = autoai_tsdata::smape(&truth(240..246), f.series(0));
        assert!(smape < 8.0, "warm-started smape {smape}");
    }

    #[test]
    fn warm_start_declines_when_window_count_doubles() {
        let frame = seasonal_frame(300);
        let mut p = WindowPipeline::flatten(12, 6, false);
        p.fit(&frame.slice(240, 300)).unwrap();
        // 60 → 300 rows: the window count far more than doubles, so the
        // regressor tournament must re-run via a full fit
        assert!(!p.fit_incremental(&frame, 60).unwrap());
    }

    #[test]
    fn warm_start_refuses_unrelated_frame() {
        let mut p = WindowPipeline::flatten(12, 6, false);
        p.fit(&seasonal_frame(200)).unwrap();
        assert!(!p.fit_incremental(&seasonal_frame(220), 200).unwrap());
    }

    #[test]
    fn localized_warm_start_refits_per_series_winners() {
        let cols = vec![
            (0..260)
                .map(|i| 10.0 + (2.0 * std::f64::consts::PI * i as f64 / 8.0).sin())
                .collect::<Vec<f64>>(),
            (0..260)
                .map(|i| 50.0 + 0.5 * i as f64)
                .collect::<Vec<f64>>(),
        ];
        let frame = TimeSeriesFrame::from_columns(cols);
        let mut p = WindowPipeline::localized_flatten(10, 4);
        p.fit(&frame.slice(60, 260)).unwrap();
        let winners = chosen(&p);
        assert!(p.fit_incremental(&frame, 200).unwrap());
        assert_eq!(chosen(&p), winners);
        let f = p.predict(4).unwrap();
        assert_eq!(f.n_series(), 2);
        assert!(f.series(1)[3] > 170.0, "{:?}", f.series(1));
    }

    /// The unbounded tournament the bounded one must agree with: every
    /// candidate fits every output, MAE summed row-major.

    /// Each group's tournament winner (empty when unfitted).
    fn chosen(p: &WindowPipeline) -> Vec<&'static str> {
        let models = p.fitted.iter().flat_map(|f| &f.models);
        models
            .filter_map(|m| match m {
                Model::Regressor(_, name) => Some(*name),
                Model::Mlp(..) => None,
            })
            .collect()
    }

    /// The nine window pipelines, built through the registry.
    fn family() -> Vec<(&'static str, Box<dyn Forecaster>)> {
        let ctx = PipelineContext::new(8, 4, vec![12]);
        [
            "FlattenAutoEnsembler",
            "FlattenAutoEnsembler-log",
            "DifferenceFlattenAutoEnsembler",
            "DifferenceFlattenAutoEnsembler-log",
            "LocalizedFlattenAutoEnsembler",
            "WindowRandomForest",
            "WindowSVR",
            "MT2RForecaster",
            "NeuralWindow",
        ]
        .into_iter()
        .map(|name| (name, pipeline_by_name(name, &ctx).unwrap()))
        .collect()
    }

    #[test]
    fn family_refuses_before_fit() {
        let frame = seasonal_frame(40);
        for (name, mut p) in family() {
            assert_eq!(p.predict(3), Err(PipelineError::NotFitted), "{name}");
            // only NeuralWindow has native bands; the rest refuse even fitted
            let expected = if name == "NeuralWindow" {
                PipelineError::NotFitted
            } else {
                PipelineError::InvalidInput("no native interval implementation".into())
            };
            let interval = p.predict_interval(3, &[0.8]).map(|_| ());
            assert_eq!(interval, Err(expected), "{name}");
            assert_eq!(p.fit_incremental(&frame, 0), Ok(false), "{name}");
            assert_eq!(p.fit_incremental(&frame, 40), Ok(false), "{name}");
        }
    }

    #[test]
    fn family_clone_unfitted_keeps_the_name() {
        for (name, p) in family() {
            assert_eq!(p.name(), name);
            let clone = p.clone_unfitted();
            assert_eq!(clone.name(), name);
            assert_eq!(clone.predict(1), Err(PipelineError::NotFitted), "{name}");
        }
    }

    #[test]
    fn only_the_tournament_accepts_a_warm_start() {
        let frame = seasonal_frame(120);
        for (name, mut p) in family() {
            p.fit(&frame.slice(20, 120)).unwrap();
            let warm = p.fit_incremental(&frame, 100).unwrap();
            assert_eq!(warm, name.contains("AutoEnsembler"), "{name}");
        }
    }

    fn bits(f: &TimeSeriesFrame) -> Vec<u64> {
        (0..f.n_series())
            .flat_map(|c| f.series(c).iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn a_declined_warm_start_keeps_the_previous_fit() {
        let frame = seasonal_frame(300);
        let mut p = WindowPipeline::difference_flatten(12, 6, true);
        p.fit(&frame.slice(0, 60)).unwrap();
        let before = bits(&p.predict(6).unwrap());
        // 60 -> 200 rows: the window count more than doubles, so the warm
        // start declines after the transform chain was refitted
        assert_eq!(p.fit_incremental(&frame.slice(0, 200), 60), Ok(false));
        assert_eq!(bits(&p.predict(6).unwrap()), before);
        // the kept fit still warm-starts from its own rows
        assert_eq!(p.fit_incremental(&frame.slice(0, 80), 60), Ok(true));
    }

    #[test]
    fn window_rf_forecasts_seasonal() {
        let mut p = WindowPipeline::random_forest(12);
        p.fit(&seasonal_frame(300)).unwrap();
        let f = p.predict(12).unwrap();
        let smape = autoai_tsdata::smape(&truth(300..312), f.series(0));
        assert!(smape < 6.0, "WindowRF smape {smape}");
    }

    #[test]
    fn window_svr_forecasts_seasonal() {
        let mut p = WindowPipeline::svr(12);
        p.fit(&seasonal_frame(300)).unwrap();
        let f = p.predict(12).unwrap();
        let smape = autoai_tsdata::smape(&truth(300..312), f.series(0));
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
        let mut p = WindowPipeline::random_forest(10);
        p.fit(&TimeSeriesFrame::from_columns(cols)).unwrap();
        let f = p.predict(5).unwrap();
        assert_eq!(f.n_series(), 2);
        assert_eq!(f.len(), 5);
    }

    #[test]
    fn lookback_shrinks_on_short_series() {
        let mut p = WindowPipeline::random_forest(100);
        p.fit(&TimeSeriesFrame::univariate(
            (0..30).map(|i| i as f64).collect(),
        ))
        .unwrap();
        assert!(p.fitted.as_ref().unwrap().lookback <= 25);
        assert_eq!(p.predict(3).unwrap().len(), 3);
    }

    #[test]
    fn score_integrates_with_trait() {
        let frame = seasonal_frame(300);
        let train = frame.slice(0, 288);
        let test = frame.slice(288, 300);
        let mut p = WindowPipeline::random_forest(12);
        p.fit(&train).unwrap();
        let s = p.score(&test, Metric::Smape).unwrap();
        assert!(s < 10.0, "score {s}");
    }

    #[test]
    fn mt2r_learns_seasonal_linear_structure() {
        let mut p = WindowPipeline::mt2r(12, 6);
        let frame = seasonal_frame(200);
        p.fit(&frame).unwrap();
        let f = p.predict(6).unwrap();
        let smape = autoai_tsdata::smape(&truth(200..206), f.series(0));
        assert!(smape < 3.0, "mt2r smape {smape}");
    }

    #[test]
    fn mt2r_extends_beyond_trained_horizon_recursively() {
        let mut p = WindowPipeline::mt2r(12, 4);
        p.fit(&seasonal_frame(200)).unwrap();
        let f = p.predict(10).unwrap();
        assert_eq!(f.len(), 10);
        assert!(f.series(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mt2r_shrinks_lookback_for_short_series() {
        let mut p = WindowPipeline::mt2r(50, 2);
        p.fit(&TimeSeriesFrame::univariate(
            (0..30).map(|i| i as f64).collect(),
        ))
        .unwrap();
        assert!(p.fitted.as_ref().unwrap().lookback < 50);
        let f = p.predict(2).unwrap();
        assert!(f.series(0)[0] > 25.0);
    }

    #[test]
    fn a_short_fit_does_not_shrink_later_fits() {
        let mut p = WindowPipeline::flatten(30, 24, false);
        p.fit(&seasonal_frame(50)).unwrap();
        assert!(p.fitted.as_ref().unwrap().lookback < 30);
        p.fit(&seasonal_frame(300)).unwrap();
        assert_eq!(p.fitted.as_ref().unwrap().lookback, 30);
        assert_eq!(p.lookback, 30);
    }

    #[test]
    fn neural_pipeline_fits_seasonal() {
        let mut p = WindowPipeline::neural(12, 4);
        p.fit(&seasonal_frame(300)).unwrap();
        let f = p.predict(4).unwrap();
        let smape = autoai_tsdata::smape(&truth(300..304), f.series(0));
        assert!(smape < 15.0, "neural smape {smape}");
    }

    #[test]
    fn neural_pipeline_interval_uses_nll_head() {
        let mut p = WindowPipeline::neural(12, 4);
        p.fit(&seasonal_frame(300)).unwrap();
        let iv = p
            .predict_interval(6, &crate::interval::DEFAULT_LEVELS)
            .unwrap();
        assert_eq!(iv.source(), IntervalSource::Native);
        assert_eq!(iv.horizon(), 6);
        let (lo, hi) = iv.band(1).unwrap();
        for t in 0..6 {
            assert!(lo.series(0)[t].is_finite() && hi.series(0)[t].is_finite());
            assert!(lo.series(0)[t] <= hi.series(0)[t]);
        }
    }
}
