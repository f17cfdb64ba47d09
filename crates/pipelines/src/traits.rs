//! The pipeline-level forecaster contract.

use std::sync::Arc;

use autoai_transforms::TransformCache;
use autoai_tsdata::{Metric, TimeSeriesFrame};

/// Errors surfaced by pipeline fitting and prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Fitting failed (message explains why).
    Fit(String),
    /// `predict`/`score` called before a successful `fit`.
    NotFitted,
    /// Input data violates the pipeline's requirements.
    InvalidInput(String),
    /// The pipeline panicked during fit/score; the executor caught the
    /// panic, quarantined the pipeline, and recorded the payload here. A
    /// crashed pipeline is removed from the pool — its internal state may
    /// be corrupt.
    Crashed(String),
    /// The pipeline exceeded its per-pipeline soft time budget and was
    /// excluded from further data allocations.
    BudgetExceeded,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Fit(m) => write!(f, "pipeline fit failed: {m}"),
            PipelineError::NotFitted => write!(f, "pipeline not fitted"),
            PipelineError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            PipelineError::Crashed(m) => write!(f, "pipeline crashed: {m}"),
            PipelineError::BudgetExceeded => write!(f, "pipeline exceeded its time budget"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A complete forecasting pipeline: transforms + model + parameter search.
///
/// Implements the paper's unified estimator API (Figure 1): `fit` consumes a
/// 2-D frame (columns = series, rows = samples), `predict` produces a 2-D
/// frame whose rows are the next `horizon` values for every input series,
/// and `score` evaluates a fitted pipeline against a held-out continuation
/// of the training data.
pub trait Forecaster: Send + Sync {
    /// Train the pipeline on `frame`.
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError>;

    /// Forecast the next `horizon` rows after the training data.
    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError>;

    /// Pipeline display name (e.g. `"FlattenAutoEnsembler-log"`).
    fn name(&self) -> String;

    /// Fresh unfitted copy with identical hyperparameters (T-Daub refits
    /// pipelines on many data allocations).
    fn clone_unfitted(&self) -> Box<dyn Forecaster>;

    /// Cooperative time-budget hint from the execution engine: the wall
    /// clock this pipeline should aim to stay under for its next `fit` +
    /// `score`. Pipelines running internal iterative searches (Nelder–Mead,
    /// order selection, ensembles) may consult the hint to trim their own
    /// search; the default implementation ignores it. The budget is *soft*:
    /// the executor enforces the deadline cooperatively between allocations
    /// regardless of whether the pipeline honors the hint.
    fn set_time_budget(&mut self, _budget: Option<std::time::Duration>) {}

    /// Hand the pipeline a shared [`TransformCache`] so its windowing and
    /// stateless-transform passes can be memoized across the pipeline pool.
    /// `None` detaches the cache. The default implementation ignores the
    /// cache — only pipelines whose transforms are pure functions of the
    /// input frame should opt in, and they must treat every cache miss
    /// (`None` return from cache lookups) as "compute it yourself".
    fn set_transform_cache(&mut self, _cache: Option<Arc<TransformCache>>) {}

    /// Warm-started refit: `frame` extends the data of this pipeline's
    /// previous successful `fit` call (under T-Daub's reverse allocations
    /// the previous training frame is exactly the trailing
    /// `previous_rows` rows of `frame`). The contract is two-tier:
    ///
    /// * **Tier 1 (bit-identical)** — closed-form pipelines (Zero Model,
    ///   seasonal naive, Yule–Walker AR) return `Ok(true)` only when the
    ///   warm-started state is **bit-identical** to a full `fit(frame)`.
    /// * **Tier 2 (rank-stable)** — iterative-search pipelines
    ///   (Holt-Winters, auto-ARIMA, the AutoEnsembler family) may instead
    ///   produce a *deterministic seeded restart*: the search is re-run on
    ///   the full `frame` but started from the previous optimum (or the
    ///   previous model-selection winner), so fit quality matches a cold
    ///   fit while skipping the redundant part of the search. Tier-2
    ///   implementations must verify via [`TimeSeriesFrame::fingerprint`]
    ///   that `frame` really extends the previously fitted view and return
    ///   `Ok(false)` otherwise.
    ///
    /// Returning `Ok(false)` (the default) tells the executor to fall back
    /// to a full `fit`; recoverable mismatches (wrong `previous_rows`,
    /// different buffers, changed series count) must use `Ok(false)`, not
    /// `Err` — an `Err` is recorded as a fit failure.
    fn fit_incremental(
        &mut self,
        _frame: &TimeSeriesFrame,
        _previous_rows: usize,
    ) -> Result<bool, PipelineError> {
        Ok(false)
    }

    /// Forecast the next `horizon` rows together with central prediction
    /// intervals at the given coverage `levels` (each in (0, 1), strictly
    /// ascending). Pipelines with a native uncertainty model (residual
    /// variance recursions, GARCH conditional variance, a Gaussian-NLL
    /// neural head) override this; the default refuses, signalling the
    /// caller to wrap the point forecast with the split-conformal fallback
    /// (`predict_interval_or_conformal` in the `interval` module).
    fn predict_interval(
        &self,
        _horizon: usize,
        _levels: &[f64],
    ) -> Result<crate::interval::IntervalForecast, PipelineError> {
        Err(PipelineError::InvalidInput(
            "no native interval implementation".into(),
        ))
    }

    /// Score against a holdout frame that immediately follows the training
    /// data. Default: forecast `test.len()` rows and score them with
    /// [`score_forecast`]: the metric averaged across series, R² negated so
    /// that **smaller is always better** for ranking.
    fn score(&self, test: &TimeSeriesFrame, metric: Metric) -> Result<f64, PipelineError> {
        score_forecast(&self.predict(test.len())?, test, metric)
    }
}

/// Score a forecast `pred` against the frame `test` it forecasts: the
/// metric averaged across series, with R² negated so that **smaller is
/// always better** for ranking. A non-finite forecast scores NaN. This is
/// [`Forecaster::score`]'s arithmetic, for callers that already hold the
/// forecast.
pub fn score_forecast(
    pred: &TimeSeriesFrame,
    test: &TimeSeriesFrame,
    metric: Metric,
) -> Result<f64, PipelineError> {
    if pred.n_series() != test.n_series() {
        return Err(PipelineError::InvalidInput(format!(
            "prediction has {} series, test has {}",
            pred.n_series(),
            test.n_series()
        )));
    }
    let mut total = 0.0;
    for c in 0..test.n_series() {
        let p = pred.series(c);
        // guard before the metric: SMAPE/MAPE skip degenerate pairs, so
        // a NaN forecast could otherwise masquerade as a perfect score
        if p.iter().any(|v| !v.is_finite()) {
            return Ok(f64::NAN);
        }
        let v = metric.eval(test.series(c), p);
        total += if metric.higher_is_better() { -v } else { v };
    }
    Ok(total / test.n_series().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial forecaster for exercising trait defaults.
    struct Constant {
        value: Option<f64>,
        n_series: usize,
    }

    impl Forecaster for Constant {
        fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
            self.n_series = frame.n_series();
            self.value = frame.series(0).last().copied();
            Ok(())
        }

        fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
            let v = self.value.ok_or(PipelineError::NotFitted)?;
            Ok(TimeSeriesFrame::from_columns(vec![
                vec![v; horizon];
                self.n_series
            ]))
        }

        fn name(&self) -> String {
            "constant".into()
        }

        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(Constant {
                value: None,
                n_series: 0,
            })
        }
    }

    #[test]
    fn default_score_averages_series() {
        let mut m = Constant {
            value: None,
            n_series: 0,
        };
        m.fit(&TimeSeriesFrame::from_columns(vec![
            vec![1.0, 2.0],
            vec![5.0, 2.0],
        ]))
        .unwrap();
        let test = TimeSeriesFrame::from_columns(vec![vec![2.0], vec![2.0]]);
        // perfect forecast of both series' value 2.0
        let s = m.score(&test, Metric::Smape).unwrap();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn score_before_fit_errors() {
        let m = Constant {
            value: None,
            n_series: 1,
        };
        let test = TimeSeriesFrame::univariate(vec![1.0]);
        assert!(m.score(&test, Metric::Mae).is_err());
    }

    #[test]
    fn r2_is_negated_for_ranking() {
        let mut m = Constant {
            value: None,
            n_series: 0,
        };
        m.fit(&TimeSeriesFrame::univariate(vec![1.0, 3.0])).unwrap();
        let test = TimeSeriesFrame::univariate(vec![3.0, 3.0]);
        let s = m.score(&test, Metric::R2).unwrap();
        assert_eq!(s, -1.0); // perfect fit → R² = 1, negated
    }
}
