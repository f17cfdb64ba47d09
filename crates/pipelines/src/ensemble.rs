//! The AutoEnsembler family: Flatten / DifferenceFlatten / LocalizedFlatten.
//!
//! These are the paper's in-house statistical-ML hybrid pipelines (the top
//! performers of Table 6). Each one chains stateless/stateful transforms
//! with a *direct* multi-output regressor, and "auto" refers to automatic
//! model selection inside the pipeline: several candidate regressors are
//! trained on the windowed data, evaluated on a temporal validation split of
//! the windows, and the best one is refitted on everything.
//!
//! The selection is a bounded tournament ([`select_regressor`]): candidates
//! fit one horizon output at a time, and one whose running validation error
//! already exceeds the best finished candidate's total stops there — the
//! same early-stopping idea T-Daub applies to whole pipelines. The winner
//! and its MAE bits are those of an exhaustive tournament.

use std::sync::Arc;

use autoai_ml_models::{
    GradientBoostingConfig, GradientBoostingRegressor, LinearRegression, MultiOutputRegressor,
    RandomForestConfig, RandomForestRegressor, Regressor,
};
use autoai_transforms::{DifferenceTransform, LogTransform, Transform, TransformCache};
use autoai_tsdata::TimeSeriesFrame;

use autoai_tsdata::FrameFingerprint;

use crate::caching::{cached_flatten, cached_frame_op, cached_localized_flatten};
use crate::traits::{Forecaster, PipelineError};
use crate::window_pipeline::recursive_window_forecast;

/// Which flatten variant the ensembler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsembleMode {
    /// Joint windows over all series (FlattenAutoEnsembler).
    Flatten,
    /// First-difference the (log) series before windowing
    /// (DifferenceFlattenAutoEnsembler).
    DifferenceFlatten,
    /// One model per series over its own windows
    /// (LocalizedFlattenAutoEnsembler).
    LocalizedFlatten,
}

/// A fitted flatten-ensemble pipeline.
pub struct AutoEnsembler {
    mode: EnsembleMode,
    /// Look-back window length.
    pub lookback: usize,
    /// Direct forecast horizon trained for.
    pub horizon: usize,
    use_log: bool,
    log: Option<LogTransform>,
    diff: Option<DifferenceTransform>,
    /// Joint model (Flatten / DifferenceFlatten modes).
    model: Option<MultiOutputRegressor>,
    /// Per-series models (LocalizedFlatten mode).
    local_models: Vec<MultiOutputRegressor>,
    /// Name of the regressor the auto-selection chose.
    pub chosen_regressor: String,
    /// Per-series winners (LocalizedFlatten mode), kept separately so a
    /// warm start can refit each series' own winner.
    local_chosen: Vec<String>,
    /// Tail of the *transformed* training data used to seed prediction.
    train_tail: Option<TimeSeriesFrame>,
    names: Vec<String>,
    /// Shared transform cache attached by the execution engine.
    cache: Option<Arc<TransformCache>>,
    /// Rows of the last successfully fitted frame (0 = unfitted).
    fitted_rows: usize,
    /// Window-matrix rows at the last regressor *tournament*; once the
    /// data has grown enough that the window count doubles, a warm start
    /// declines and the selection re-runs from scratch.
    tournament_rows: usize,
    /// Fingerprint of the last fitted frame view, proving that a warm
    /// start really extends the previously seen data.
    last_fp: Option<FrameFingerprint>,
}

impl AutoEnsembler {
    /// FlattenAutoEnsembler(-log): joint direct multi-step ensemble.
    pub fn flatten(lookback: usize, horizon: usize, use_log: bool) -> Self {
        Self::new(EnsembleMode::Flatten, lookback, horizon, use_log)
    }

    /// DifferenceFlattenAutoEnsembler(-log).
    pub fn difference_flatten(lookback: usize, horizon: usize, use_log: bool) -> Self {
        Self::new(EnsembleMode::DifferenceFlatten, lookback, horizon, use_log)
    }

    /// LocalizedFlattenAutoEnsembler (no log by default, as in Table 6).
    pub fn localized_flatten(lookback: usize, horizon: usize) -> Self {
        Self::new(EnsembleMode::LocalizedFlatten, lookback, horizon, false)
    }

    fn new(mode: EnsembleMode, lookback: usize, horizon: usize, use_log: bool) -> Self {
        Self {
            mode,
            lookback: lookback.max(1),
            horizon: horizon.max(1),
            use_log,
            log: None,
            diff: None,
            model: None,
            local_models: Vec::new(),
            chosen_regressor: String::new(),
            local_chosen: Vec::new(),
            train_tail: None,
            names: Vec::new(),
            cache: None,
            fitted_rows: 0,
            tournament_rows: 0,
            last_fp: None,
        }
    }

    /// The candidate regressors auto-selection chooses from.
    fn candidates() -> Vec<(&'static str, Box<dyn Regressor>)> {
        vec![
            (
                "linear",
                Box::new(LinearRegression::new()) as Box<dyn Regressor>,
            ),
            (
                "random_forest",
                Box::new(RandomForestRegressor::with_config(RandomForestConfig {
                    n_trees: 30,
                    max_depth: 10,
                    ..Default::default()
                })),
            ),
            (
                "gbm",
                Box::new(GradientBoostingRegressor::with_config(
                    GradientBoostingConfig {
                        n_rounds: 60,
                        ..Default::default()
                    },
                )),
            ),
        ]
    }

    /// Select the best candidate on a temporal window split, then refit it
    /// on all windows. Returns `(fitted model, chosen name)`.
    fn auto_fit(
        x: &autoai_linalg::Matrix,
        y: &autoai_linalg::Matrix,
    ) -> Result<(MultiOutputRegressor, String), PipelineError> {
        let chosen = (x.nrows() >= 12)
            .then(|| select_regressor(Self::candidates(), x, y))
            .flatten()
            .unwrap_or("linear");
        let model = Self::fit_named(chosen, x, y)?;
        Ok((model, chosen.to_string()))
    }

    /// Fit the named candidate regressor on all windows, skipping the
    /// selection tournament — the warm-start fast path.
    fn fit_named(
        name: &str,
        x: &autoai_linalg::Matrix,
        y: &autoai_linalg::Matrix,
    ) -> Result<MultiOutputRegressor, PipelineError> {
        let Some(proto) = Self::candidates()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| p)
        else {
            return Err(PipelineError::Fit(format!(
                "ensemble candidate `{name}` is not registered"
            )));
        };
        let mut model = MultiOutputRegressor::new(proto);
        model.fit(x, y).map_err(|e| PipelineError::Fit(e.message))?;
        Ok(model)
    }

    /// Fit the transform chain on `frame` and return the transformed frame
    /// with the look-back clamped to it — shared by `fit` and
    /// [`Forecaster::fit_incremental`] so both paths see identical inputs.
    fn apply_transforms(&mut self, frame: &TimeSeriesFrame) -> TimeSeriesFrame {
        let cache = self.cache.as_ref();
        // the transform passes themselves are memoized so every -log /
        // difference pipeline in the pool shares one output frame (and
        // therefore one set of downstream window matrices)
        self.log = if self.use_log {
            let mut t = LogTransform::new();
            t.fit(frame);
            Some(t)
        } else {
            None
        };
        let after_log = match &self.log {
            Some(l) => cached_frame_op(cache, frame, "log", || l.transform(frame)),
            None => frame.clone(),
        };
        self.diff = if self.mode == EnsembleMode::DifferenceFlatten {
            let mut t = DifferenceTransform::new();
            t.fit(&after_log);
            Some(t)
        } else {
            None
        };
        let transformed = match &self.diff {
            Some(d) => {
                let tag = format!("diff{}", d.order());
                cached_frame_op(cache, &after_log, &tag, || d.transform(&after_log))
            }
            None => after_log,
        };

        // adapt look-back to data length
        let max_lb = transformed.len().saturating_sub(self.horizon + 4).max(1);
        self.lookback = self.lookback.min(max_lb);
        transformed
    }

    /// Invert the transform chain on forecast output (stateful inverse
    /// first, then stateless — §3's reverse-order rule).
    fn inverse(&self, frame: &TimeSeriesFrame) -> TimeSeriesFrame {
        let mut cur = frame.clone();
        if let Some(diff) = &self.diff {
            cur = diff.inverse_transform(&cur);
        }
        if let Some(log) = &self.log {
            cur = log.inverse_transform(&cur);
        }
        cur
    }
}

/// The bounded regressor tournament behind [`AutoEnsembler`]'s auto
/// selection. Each candidate trains on the first 80 % of the windows, one
/// output at a time (a fresh clone of its prototype per output, exactly as
/// [`MultiOutputRegressor::fit`] does), and is scored by validation MAE on
/// the rest; the lowest MAE wins and the earlier candidate keeps a tie.
/// Returns `None` when every candidate fails to fit.
///
/// A candidate is abandoned as soon as its running absolute error exceeds
/// the best completed candidate's total error × (1 + 1e-9). That cannot
/// change the winner: every term is non-negative and rounded addition is
/// monotone, so a full sum falls below any partial sum by at most about
/// `m·u` relative (m terms, unit roundoff u) — orders of magnitude inside
/// the margin. A completed candidate's MAE is summed row-major from its
/// kept predictions, the same order and bits an exhaustive tournament
/// compares. A NaN best bound never abandons anyone, and a candidate that
/// fails to fit any output is skipped.
fn select_regressor(
    candidates: Vec<(&'static str, Box<dyn Regressor>)>,
    x: &autoai_linalg::Matrix,
    y: &autoai_linalg::Matrix,
) -> Option<&'static str> {
    let n = x.nrows();
    let k = y.ncols();
    let cut = n - (n / 5).max(1);
    let train_rows: Vec<Vec<f64>> = (0..cut).map(|r| x.row(r).to_vec()).collect();
    let train_y: Vec<Vec<f64>> = (0..cut).map(|r| y.row(r).to_vec()).collect();
    let xt = autoai_linalg::Matrix::from_rows(&train_rows);
    let yt = autoai_linalg::Matrix::from_rows(&train_y);
    // validation predictions, row-major over (window, output)
    let mut preds = vec![0.0; (n - cut) * k];
    // (mae, total absolute error, name) of the best completed candidate
    let mut best: Option<(f64, f64, &'static str)> = None;
    'candidates: for (name, proto) in candidates {
        let bound = best.map(|(_, err, _)| err * (1.0 + 1e-9));
        let mut running = 0.0;
        for out in 0..k {
            let mut model = proto.clone_unfitted();
            if model.fit(&xt, &yt.col(out)).is_err() {
                continue 'candidates;
            }
            for (i, r) in (cut..n).enumerate() {
                let p = model.predict_row(x.row(r));
                running += (p - y[(r, out)]).abs();
                preds[i * k + out] = p;
            }
            if bound.is_some_and(|b| running > b) {
                continue 'candidates;
            }
        }
        let mut err = 0.0;
        for (r, row_preds) in (cut..n).zip(preds.chunks_exact(k.max(1))) {
            for (pi, ti) in row_preds.iter().zip(y.row(r)) {
                err += (pi - ti).abs();
            }
        }
        let mae = err / preds.len().max(1) as f64;
        if best.is_none_or(|(b, _, _)| mae < b) {
            best = Some((mae, err, name));
        }
    }
    best.map(|(_, _, name)| name)
}

impl Forecaster for AutoEnsembler {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        self.names = frame.names().to_vec();
        self.fitted_rows = 0;
        self.tournament_rows = 0;
        self.last_fp = None;
        let transformed = self.apply_transforms(frame);
        let cache = self.cache.as_ref();

        self.model = None;
        self.local_models.clear();
        self.local_chosen.clear();
        match self.mode {
            EnsembleMode::Flatten | EnsembleMode::DifferenceFlatten => {
                let ds = cached_flatten(cache, &transformed, self.lookback, self.horizon);
                if ds.is_empty() {
                    return Err(PipelineError::InvalidInput(format!(
                        "length {} too short for lookback {} + horizon {}",
                        transformed.len(),
                        self.lookback,
                        self.horizon
                    )));
                }
                let (model, chosen) = Self::auto_fit(&ds.x, &ds.y)?;
                self.tournament_rows = ds.x.nrows();
                self.model = Some(model);
                self.chosen_regressor = chosen;
            }
            EnsembleMode::LocalizedFlatten => {
                let mut chosen_names = Vec::new();
                for c in 0..transformed.n_series() {
                    let ds = cached_localized_flatten(
                        cache,
                        &transformed,
                        c,
                        self.lookback,
                        self.horizon,
                    );
                    if ds.is_empty() {
                        return Err(PipelineError::InvalidInput(
                            "series too short for localized windows".into(),
                        ));
                    }
                    let (model, chosen) = Self::auto_fit(&ds.x, &ds.y)?;
                    self.tournament_rows = ds.x.nrows();
                    self.local_models.push(model);
                    chosen_names.push(chosen);
                }
                self.local_chosen = chosen_names;
                self.chosen_regressor = self.local_chosen.join(",");
            }
        }
        self.train_tail = Some(transformed.tail(self.lookback + self.horizon).into_owned());
        self.fitted_rows = frame.len();
        self.last_fp = Some(frame.fingerprint());
        Ok(())
    }

    fn fit_incremental(
        &mut self,
        frame: &TimeSeriesFrame,
        previous_rows: usize,
    ) -> Result<bool, PipelineError> {
        let Some(old_fp) = self.last_fp.as_ref() else {
            return Ok(false);
        };
        let fp = frame.fingerprint();
        if self.fitted_rows == 0
            || previous_rows != self.fitted_rows
            || frame.len() < previous_rows
            || self.chosen_regressor.is_empty()
            || !(fp.extends_as_suffix(old_fp) || fp.extends_as_prefix(old_fp))
        {
            return Ok(false);
        }
        self.names = frame.names().to_vec();
        let transformed = self.apply_transforms(frame);
        let cache = self.cache.as_ref();
        // growth trigger: once the window count has doubled since the last
        // tournament, the winner may no longer hold — decline the warm
        // start so the executor's full `fit` re-runs the selection
        let stale = |rows: usize| rows >= self.tournament_rows.max(1).saturating_mul(2);
        match self.mode {
            EnsembleMode::Flatten | EnsembleMode::DifferenceFlatten => {
                if self.model.is_none() {
                    return Ok(false);
                }
                let ds = cached_flatten(cache, &transformed, self.lookback, self.horizon);
                if ds.is_empty() || stale(ds.x.nrows()) {
                    return Ok(false);
                }
                let chosen = self.chosen_regressor.clone();
                self.model = Some(Self::fit_named(&chosen, &ds.x, &ds.y)?);
            }
            EnsembleMode::LocalizedFlatten => {
                if self.local_chosen.len() != transformed.n_series() {
                    return Ok(false);
                }
                // fit into a fresh vec so a mid-way failure leaves the
                // previous models intact for the executor's cold fallback
                let mut models = Vec::with_capacity(self.local_chosen.len());
                for (c, name) in self.local_chosen.iter().enumerate() {
                    let ds = cached_localized_flatten(
                        cache,
                        &transformed,
                        c,
                        self.lookback,
                        self.horizon,
                    );
                    if ds.is_empty() || stale(ds.x.nrows()) {
                        return Ok(false);
                    }
                    models.push(Self::fit_named(name, &ds.x, &ds.y)?);
                }
                self.local_models = models;
            }
        }
        self.train_tail = Some(transformed.tail(self.lookback + self.horizon).into_owned());
        self.fitted_rows = frame.len();
        self.last_fp = Some(fp);
        Ok(true)
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        let tail = self.train_tail.as_ref().ok_or(PipelineError::NotFitted)?;
        let (lookback, trained) = (self.lookback, self.horizon);
        let out = match self.mode {
            EnsembleMode::Flatten | EnsembleMode::DifferenceFlatten => {
                let model = self.model.as_ref().ok_or(PipelineError::NotFitted)?;
                recursive_window_forecast(tail, lookback, trained, horizon, |x, _| {
                    model.predict_row(x) // series-major
                })?
            }
            EnsembleMode::LocalizedFlatten => {
                if self.local_models.is_empty() {
                    return Err(PipelineError::NotFitted);
                }
                // the multi-series window is series-major, so series `c`'s
                // own window is its `lookback`-long chunk
                recursive_window_forecast(tail, lookback, trained, horizon, |x, _| {
                    self.local_models
                        .iter()
                        .zip(x.chunks(lookback.max(1)))
                        .flat_map(|(model, window)| model.predict_row(window))
                        .collect()
                })?
            }
        };
        // inverse transforms on the assembled forecast
        let mut fc = self.inverse(&TimeSeriesFrame::from_columns(out));
        if fc.n_series() == self.names.len() {
            fc = fc.with_names(self.names.clone());
        }
        Ok(fc)
    }

    fn name(&self) -> String {
        let base = match self.mode {
            EnsembleMode::Flatten => "FlattenAutoEnsembler",
            EnsembleMode::DifferenceFlatten => "DifferenceFlattenAutoEnsembler",
            EnsembleMode::LocalizedFlatten => "LocalizedFlattenAutoEnsembler",
        };
        if self.use_log {
            format!("{base}-log")
        } else {
            base.to_string()
        }
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        // deliberately does not carry the cache: the execution engine
        // re-attaches it before every fit so detached clones stay inert
        Box::new(Self::new(
            self.mode,
            self.lookback,
            self.horizon,
            self.use_log,
        ))
    }

    fn set_transform_cache(&mut self, cache: Option<Arc<TransformCache>>) {
        self.cache = cache;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use autoai_linalg::{Matrix, Rng64};
    use autoai_ml_models::MlError;
    use autoai_transforms::{flatten_windows, localized_flatten_windows};

    use super::*;

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
        let mut p = AutoEnsembler::flatten(12, 6, true);
        p.fit(&seasonal_frame(300)).unwrap();
        let f = p.predict(6).unwrap();
        let smape = autoai_tsdata::smape(&truth(300..306), f.series(0));
        assert!(smape < 5.0, "FlattenAutoEnsembler-log smape {smape}");
        assert!(!p.chosen_regressor.is_empty());
    }

    #[test]
    fn difference_flatten_handles_trend() {
        // trending series: differencing is essential for window regressors
        let frame = TimeSeriesFrame::univariate(
            (0..300)
                .map(|i| 100.0 + 2.0 * i as f64 + (i as f64 * 0.5).sin())
                .collect(),
        );
        let mut p = AutoEnsembler::difference_flatten(8, 6, false);
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
        let mut p = AutoEnsembler::localized_flatten(10, 4);
        p.fit(&TimeSeriesFrame::from_columns(cols)).unwrap();
        let f = p.predict(4).unwrap();
        assert_eq!(f.n_series(), 2);
        // series 1 is a clean line; localized model should continue it
        assert!(f.series(1)[3] > 165.0, "{:?}", f.series(1));
    }

    #[test]
    fn names_follow_table6() {
        assert_eq!(
            AutoEnsembler::flatten(8, 2, true).name(),
            "FlattenAutoEnsembler-log"
        );
        assert_eq!(
            AutoEnsembler::difference_flatten(8, 2, true).name(),
            "DifferenceFlattenAutoEnsembler-log"
        );
        assert_eq!(
            AutoEnsembler::localized_flatten(8, 2).name(),
            "LocalizedFlattenAutoEnsembler"
        );
    }

    #[test]
    fn recursive_extension_beyond_horizon() {
        let mut p = AutoEnsembler::flatten(12, 4, false);
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
        let mut p = AutoEnsembler::flatten(8, 4, true);
        p.fit(&frame).unwrap();
        let f = p.predict(4).unwrap();
        for &v in f.series(0) {
            assert!(v > 5e5 && v < 2e6, "forecast off scale: {v}");
        }
    }

    #[test]
    fn too_short_series_rejected() {
        let mut p = AutoEnsembler::flatten(8, 4, false);
        assert!(p
            .fit(&TimeSeriesFrame::univariate(vec![1.0, 2.0, 3.0]))
            .is_err());
    }

    #[test]
    fn predict_before_fit_errors() {
        let p = AutoEnsembler::flatten(8, 4, false);
        assert!(matches!(p.predict(4), Err(PipelineError::NotFitted)));
    }

    #[test]
    fn warm_start_skips_tournament_and_keeps_choice() {
        let frame = seasonal_frame(240);
        let mut p = AutoEnsembler::flatten(12, 6, false);
        // previous fit on the trailing 180 rows (T-Daub reverse allocation)
        p.fit(&frame.slice(60, 240)).unwrap();
        let chosen = p.chosen_regressor.clone();
        assert!(p.fit_incremental(&frame, 180).unwrap());
        assert_eq!(
            p.chosen_regressor, chosen,
            "warm start must keep the winner"
        );
        let f = p.predict(6).unwrap();
        let smape = autoai_tsdata::smape(&truth(240..246), f.series(0));
        assert!(smape < 8.0, "warm-started smape {smape}");
    }

    #[test]
    fn warm_start_declines_when_window_count_doubles() {
        let frame = seasonal_frame(300);
        let mut p = AutoEnsembler::flatten(12, 6, false);
        p.fit(&frame.slice(240, 300)).unwrap();
        // 60 → 300 rows: the window count far more than doubles, so the
        // regressor tournament must re-run via a full fit
        assert!(!p.fit_incremental(&frame, 60).unwrap());
    }

    #[test]
    fn warm_start_refuses_unrelated_frame() {
        let mut p = AutoEnsembler::flatten(12, 6, false);
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
        let mut p = AutoEnsembler::localized_flatten(10, 4);
        p.fit(&frame.slice(60, 260)).unwrap();
        let chosen = p.chosen_regressor.clone();
        assert!(p.fit_incremental(&frame, 200).unwrap());
        assert_eq!(p.chosen_regressor, chosen);
        let f = p.predict(4).unwrap();
        assert_eq!(f.n_series(), 2);
        assert!(f.series(1)[3] > 170.0, "{:?}", f.series(1));
    }

    /// The unbounded tournament the bounded one must agree with: every
    /// candidate fits every output, MAE summed row-major.
    fn exhaustive_winner(
        candidates: Vec<(&'static str, Box<dyn Regressor>)>,
        x: &Matrix,
        y: &Matrix,
    ) -> Option<&'static str> {
        let n = x.nrows();
        let cut = n - (n / 5).max(1);
        let xt = Matrix::from_rows(&(0..cut).map(|r| x.row(r).to_vec()).collect::<Vec<_>>());
        let yt = Matrix::from_rows(&(0..cut).map(|r| y.row(r).to_vec()).collect::<Vec<_>>());
        let mut best: Option<(f64, &'static str)> = None;
        for (name, proto) in candidates {
            let mut m = MultiOutputRegressor::new(proto);
            if m.fit(&xt, &yt).is_err() {
                continue;
            }
            let mut err = 0.0;
            let mut count = 0usize;
            for r in cut..n {
                for (pi, ti) in m.predict_row(x.row(r)).iter().zip(y.row(r)) {
                    err += (pi - ti).abs();
                    count += 1;
                }
            }
            let mae = err / count.max(1) as f64;
            if best.as_ref().is_none_or(|&(b, _)| mae < b) {
                best = Some((mae, name));
            }
        }
        best.map(|(_, name)| name)
    }

    fn column(n: usize, f: impl FnMut(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn bounded_tournament_matches_exhaustive_bit_for_bit() {
        let n = 160;
        let mut rng = Rng64::seed_from_u64(11);
        let noisy = column(n, |_| 5.0 + rng.normal());
        let frames = [
            ("seasonal", seasonal_frame(n)),
            (
                "trend",
                TimeSeriesFrame::univariate(column(n, |i| 3.0 + 0.4 * i as f64)),
            ),
            ("noisy", TimeSeriesFrame::univariate(noisy)),
            (
                "square",
                TimeSeriesFrame::univariate(column(n, |i| if i % 10 < 5 { 1.0 } else { 9.0 })),
            ),
            (
                "two-series",
                TimeSeriesFrame::from_columns(vec![
                    column(n, |i| 10.0 + (i as f64 * 0.9).sin()),
                    column(n, |i| 50.0 + 0.5 * i as f64),
                ]),
            ),
        ];
        let mut winners = Vec::new();
        for (label, frame) in &frames {
            let joint = vec![flatten_windows(frame, 8, 4)];
            for (mode, datasets) in [
                ("flatten", joint),
                ("localized", localized_flatten_windows(frame, 8, 4)),
            ] {
                for ds in datasets {
                    let exhaustive = exhaustive_winner(AutoEnsembler::candidates(), &ds.x, &ds.y);
                    let bounded = select_regressor(AutoEnsembler::candidates(), &ds.x, &ds.y);
                    assert_eq!(bounded, exhaustive, "{label}/{mode}");
                    let (model, chosen) = AutoEnsembler::auto_fit(&ds.x, &ds.y).unwrap();
                    assert_eq!(Some(chosen.as_str()), exhaustive, "{label}/{mode}");
                    let reference = AutoEnsembler::fit_named(&chosen, &ds.x, &ds.y).unwrap();
                    let (a, b) = (model.predict(&ds.x), reference.predict(&ds.x));
                    for r in 0..a.nrows() {
                        for (p, q) in a.row(r).iter().zip(b.row(r)) {
                            assert_eq!(p.to_bits(), q.to_bits(), "{label}/{mode} row {r}");
                        }
                    }
                    winners.push(chosen);
                }
            }
        }
        // the cases must exercise more than the first candidate winning
        assert!(winners.iter().any(|w| w != "linear"), "{winners:?}");
    }

    /// Predicts the training-target mean plus a fixed offset, counting its
    /// fits in a counter shared by every clone. With `fail_at = Some(i)`
    /// the i-th fit (0-based, across clones) fails.
    struct MeanPlus {
        offset: f64,
        fits: Arc<AtomicUsize>,
        fail_at: Option<usize>,
        mean: f64,
    }

    impl MeanPlus {
        fn boxed(
            offset: f64,
            fits: &Arc<AtomicUsize>,
            fail_at: Option<usize>,
        ) -> Box<dyn Regressor> {
            Box::new(Self {
                offset,
                fits: Arc::clone(fits),
                fail_at,
                mean: 0.0,
            })
        }
    }

    impl Regressor for MeanPlus {
        fn fit(&mut self, _x: &Matrix, y: &[f64]) -> Result<(), MlError> {
            let i = self.fits.fetch_add(1, Ordering::SeqCst);
            if self.fail_at == Some(i) {
                return Err(MlError::new("scripted failure"));
            }
            self.mean = y.iter().sum::<f64>() / y.len().max(1) as f64;
            Ok(())
        }

        fn predict_row(&self, _row: &[f64]) -> f64 {
            self.mean + self.offset
        }

        fn name(&self) -> &'static str {
            "mean_plus"
        }

        fn clone_unfitted(&self) -> Box<dyn Regressor> {
            Self::boxed(self.offset, &self.fits, self.fail_at)
        }
    }

    /// 60 windows of 3 features and `k` outputs.
    fn toy_data(k: usize) -> (Matrix, Matrix) {
        let x: Vec<Vec<f64>> = (0..60).map(|r| vec![r as f64; 3]).collect();
        let y: Vec<Vec<f64>> = (0..60)
            .map(|r| (0..k).map(|c| ((r * 7 + c * 3) % 11) as f64).collect())
            .collect();
        (Matrix::from_rows(&x), Matrix::from_rows(&y))
    }

    fn counters() -> (Arc<AtomicUsize>, Arc<AtomicUsize>) {
        (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)))
    }

    #[test]
    fn a_hopeless_candidate_stops_before_fitting_every_output() {
        let k = 6;
        let (x, y) = toy_data(k);
        let (good, bad) = counters();
        let pick = select_regressor(
            vec![
                ("good", MeanPlus::boxed(0.0, &good, None)),
                ("bad", MeanPlus::boxed(1e3, &bad, None)),
            ],
            &x,
            &y,
        );
        assert_eq!(pick, Some("good"));
        assert_eq!(
            good.load(Ordering::SeqCst),
            k,
            "the winner fits every output"
        );
        let stopped_at = bad.load(Ordering::SeqCst);
        assert!(stopped_at < k, "loser fitted {stopped_at} of {k} outputs");
    }

    #[test]
    fn a_tie_keeps_the_earlier_candidate() {
        let (x, y) = toy_data(4);
        let (first, second) = counters();
        let candidates = || {
            vec![
                ("first", MeanPlus::boxed(0.5, &first, None)),
                ("second", MeanPlus::boxed(0.5, &second, None)),
            ]
        };
        assert_eq!(select_regressor(candidates(), &x, &y), Some("first"));
        assert_eq!(exhaustive_winner(candidates(), &x, &y), Some("first"));
    }

    #[test]
    fn a_nan_first_candidate_still_wins() {
        let (x, y) = toy_data(4);
        let (nan, good) = counters();
        let candidates = || {
            vec![
                ("nan", MeanPlus::boxed(f64::NAN, &nan, None)),
                ("good", MeanPlus::boxed(0.0, &good, None)),
            ]
        };
        assert_eq!(select_regressor(candidates(), &x, &y), Some("nan"));
        assert_eq!(exhaustive_winner(candidates(), &x, &y), Some("nan"));
    }

    #[test]
    fn a_candidate_failing_on_a_late_output_is_skipped() {
        let k = 5;
        let (x, y) = toy_data(k);
        let (weak, flaky) = counters();
        // `flaky` would win, but its last output fails to fit
        let candidates = || {
            vec![
                ("weak", MeanPlus::boxed(2.0, &weak, None)),
                ("flaky", MeanPlus::boxed(0.0, &flaky, Some(k - 1))),
            ]
        };
        assert_eq!(select_regressor(candidates(), &x, &y), Some("weak"));
        assert_eq!(
            flaky.load(Ordering::SeqCst),
            k,
            "flaky reached its last output"
        );
        flaky.store(0, Ordering::SeqCst);
        assert_eq!(exhaustive_winner(candidates(), &x, &y), Some("weak"));
    }
}
