//! Pipelines wrapping the statistical models (one model per series).
//!
//! Every per-series statistical pipeline is one [`PerSeries`] over the
//! model it fits to each series; the public pipeline names
//! ([`ArimaPipeline`], [`BatsPipeline`], …) are aliases of it.

use std::time::{Duration, Instant};

use autoai_linalg::parallel_try_map_range;
use autoai_stat_models::{
    auto_arima_seeded_with_deadline, auto_arima_with_deadline, Arima, Bats, BatsConfig, FitError,
    Garch, HoltWinters, IncrementalAr, SeasonalNaive, Seasonality, ThetaModel, ZeroModel,
};
use autoai_tsdata::{FrameFingerprint, TimeSeriesFrame};

use crate::interval::{IntervalForecast, IntervalSource};
use crate::traits::{Forecaster, PipelineError};

use series::{Growth, SeriesModel};

fn forecast_frame(names: &[String], forecasts: Vec<Vec<f64>>) -> TimeSeriesFrame {
    let mut f = TimeSeriesFrame::from_columns(forecasts);
    if f.n_series() == names.len() {
        f = f.with_names(names.to_vec());
    }
    f
}

/// Fit one model per series side by side on the shared worker pool and
/// collect them in series order. The first error in series order wins, as
/// in a serial loop; a panicking fit becomes a [`FitError`]. Per-series
/// fits are independent, so the models are bit-identical to a serial
/// loop's.
fn fit_per_series<M: Send>(
    n_series: usize,
    fit: impl Fn(usize) -> Result<M, FitError> + Sync,
) -> Result<Vec<M>, FitError> {
    parallel_try_map_range(n_series, fit)
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| Err(FitError::new(p.to_string()))))
        .collect()
}

/// Deterministic chaos gate at the top of `fit`/`fit_incremental`. The key
/// folds the pipeline name and the frame length — both pure functions of the
/// evaluated allocation — so a cached replay and a fresh evaluation of the
/// same unit draw the same fault, preserving cached==uncached ranking parity
/// under injection. [`ZeroModelPipeline`] deliberately has no gate: it is the
/// degradation ladder's last rung and must stay fault-free by construction.
pub(crate) fn chaos_fit_gate(pipeline: &str, len: usize) -> Result<(), PipelineError> {
    if !autoai_chaos::enabled() {
        return Ok(());
    }
    let k = autoai_chaos::key(pipeline) ^ (len as u64);
    match autoai_chaos::inject("pipeline.fit", k) {
        Some(autoai_chaos::Fault::Panic) => {
            // tscheck:allow(panic): deliberate chaos fault injection exercising the executor's panic isolation
            panic!("chaos: injected panic fitting {pipeline} on {len} rows")
        }
        Some(autoai_chaos::Fault::TypedError) => Err(PipelineError::Fit(format!(
            "chaos: injected fit error in {pipeline}"
        ))),
        Some(autoai_chaos::Fault::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Some(autoai_chaos::Fault::NanForecast) | None => Ok(()),
    }
}

/// Deterministic chaos gate in `predict`: on a NaN-forecast draw, returns a
/// poisoned frame the caller must hand back instead of its real forecast
/// (the scorer turns it into a NaN score, exercising the ranking's NaN
/// handling). Keyed on name and horizon only, for the same determinism
/// reasons as [`chaos_fit_gate`].
pub(crate) fn chaos_predict_gate(
    pipeline: &str,
    horizon: usize,
    n_series: usize,
) -> Option<TimeSeriesFrame> {
    if !autoai_chaos::enabled() {
        return None;
    }
    let k = autoai_chaos::key(pipeline) ^ (horizon as u64);
    match autoai_chaos::inject("pipeline.predict", k) {
        Some(autoai_chaos::Fault::NanForecast) => Some(TimeSeriesFrame::from_columns(vec![
            vec![f64::NAN; horizon];
            n_series.max(1)
        ])),
        Some(autoai_chaos::Fault::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        _ => None,
    }
}

/// Deterministic chaos gate in `predict_interval`, keyed on name and
/// horizon like [`chaos_predict_gate`]. `Ok(true)` is a NaN-forecast draw:
/// the caller must poison its variance path so [`IntervalForecast`]
/// validation rejects the band and the interval ladder degrades to the
/// conformal fallback. [`ZeroModelPipeline`] deliberately has no gate — its
/// intervals are the ladder's floor.
pub(crate) fn chaos_interval_gate(pipeline: &str, horizon: usize) -> Result<bool, PipelineError> {
    if !autoai_chaos::enabled() {
        return Ok(false);
    }
    let k = autoai_chaos::key(pipeline) ^ (horizon as u64);
    match autoai_chaos::inject("predict.interval", k) {
        Some(autoai_chaos::Fault::Panic) => {
            // tscheck:allow(panic): deliberate chaos fault injection exercising the interval ladder's panic isolation
            panic!("chaos: injected panic in {pipeline} predict_interval at horizon {horizon}")
        }
        Some(autoai_chaos::Fault::TypedError) => Err(PipelineError::InvalidInput(format!(
            "chaos: injected interval error in {pipeline}"
        ))),
        Some(autoai_chaos::Fault::NanForecast) => Ok(true),
        Some(autoai_chaos::Fault::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(false)
        }
        None => Ok(false),
    }
}

/// Assemble Gaussian bands for a per-series statistical pipeline from point
/// forecasts and forecast variances. `poison` (a chaos NaN draw) corrupts
/// the deviation path, which [`IntervalForecast`] validation rejects with a
/// typed error.
fn native_gaussian_interval(
    names: &[String],
    forecasts: Vec<Vec<f64>>,
    variances: Vec<Vec<f64>>,
    poison: bool,
    levels: &[f64],
) -> Result<IntervalForecast, PipelineError> {
    let std: Vec<Vec<f64>> = variances
        .into_iter()
        .map(|vs| {
            vs.into_iter()
                .map(|v| if poison { f64::NAN } else { v.max(0.0).sqrt() })
                .collect()
        })
        .collect();
    IntervalForecast::from_gaussian(
        forecast_frame(names, forecasts),
        levels,
        &std,
        IntervalSource::Native,
    )
}

/// The contract between [`PerSeries`] and the model it fits to each series.
/// `pub` inside a private module: public items can name the trait in their
/// bounds, while code outside the crate cannot reach it.
mod series {
    use std::time::Instant;

    use autoai_stat_models::FitError;

    /// How a warm-start frame grew from the previously fitted view, as
    /// proven by buffer fingerprints.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Growth {
        /// The fitted view is a strict prefix: rows were appended at the end
        /// (forward growth).
        Appended,
        /// The fitted view is a strict suffix: rows were added at the front
        /// (reverse growth, T-Daub's allocations).
        Prepended,
    }

    /// One statistical model fitted to one series.
    pub trait SeriesModel: Clone + Send + Sync + 'static {
        /// Hyperparameters shared by every series' model.
        type Spec: Clone + Send + Sync + 'static;

        /// Whether the pipeline draws chaos faults. Only the Zero Model opts
        /// out: it is the degradation ladder's fault-free last rung.
        const GATED: bool = true;

        /// Display name, also the chaos key.
        fn name(spec: &Self::Spec) -> &'static str;

        /// Cold fit on one series. `deadline` is shared by the whole
        /// pipeline fit, so the fit honors its budget, not each series.
        fn fit(
            series: &[f64],
            spec: &Self::Spec,
            deadline: Option<Instant>,
        ) -> Result<Self, FitError>;

        /// Whether a warm refit from this model, fitted on `previous_rows`
        /// rows, may be tried after `growth` (`None`: lineage unproven).
        /// Checked before the chaos gate. Default: no warm start.
        fn warm_start(&self, _growth: Option<Growth>, _previous_rows: usize) -> bool {
            false
        }

        /// Warm refit on the grown `series`, seeded by this model.
        /// `Ok(None)` refuses: the executor falls back to a cold fit.
        fn refit(
            &self,
            _series: &[f64],
            _spec: &Self::Spec,
            _growth: Option<Growth>,
            _previous_rows: usize,
            _deadline: Option<Instant>,
        ) -> Result<Option<Self>, FitError> {
            Ok(None)
        }

        /// Point forecast for the next `horizon` steps. The impls below
        /// call the model's inherent method of the same name, which method
        /// resolution picks over the trait's.
        fn forecast(&self, horizon: usize) -> Vec<f64>;

        /// Variance of each step's forecast error; `None` when the model has
        /// no native bands (the caller conformal-wraps instead).
        fn forecast_variance(&self, _horizon: usize) -> Option<Vec<f64>> {
            None
        }
    }
}

/// A statistical pipeline that fits one model `M` per series (§3: the
/// model "performs all necessary tasks internally"). Every per-series
/// pipeline of Table 6 and the extensions is this type over its model.
///
/// The wrapper owns what those pipelines share:
/// - every cold or warm fit runs the series side by side through
///   `fit_per_series` under one deadline derived from the time budget;
/// - a warm start ([`Forecaster::fit_incremental`]) needs the previous fit
///   to be `previous_rows` rows of the same series; the fingerprint growth
///   is classified once, and each model decides what it accepts;
/// - the chaos gates on fit, predict and interval paths;
/// - forecast-frame assembly and Gaussian bands from model variances.
pub struct PerSeries<M: SeriesModel> {
    spec: M::Spec,
    models: Vec<M>,
    names: Vec<String>,
    fitted_rows: usize,
    last_fp: Option<FrameFingerprint>,
    budget: Option<Duration>,
}

impl<M: SeriesModel> PerSeries<M> {
    fn with_spec(spec: M::Spec) -> Self {
        Self {
            spec,
            models: Vec::new(),
            names: Vec::new(),
            fitted_rows: 0,
            last_fp: None,
            budget: None,
        }
    }

    fn fit_gate(&self, len: usize) -> Result<(), PipelineError> {
        if M::GATED {
            chaos_fit_gate(M::name(&self.spec), len)
        } else {
            Ok(())
        }
    }

    /// Fresh unfitted copy with the same hyperparameters and time budget.
    fn unfitted(&self) -> Self {
        let mut fresh = Self::with_spec(self.spec.clone());
        fresh.budget = self.budget;
        fresh
    }

    fn deadline(&self) -> Option<Instant> {
        self.budget.map(|b| Instant::now() + b)
    }

    fn forecasts(&self, horizon: usize) -> Vec<Vec<f64>> {
        self.models.iter().map(|m| m.forecast(horizon)).collect()
    }
}

impl<M: SeriesModel> Forecaster for PerSeries<M> {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        self.fit_gate(frame.len())?;
        self.models.clear();
        self.fitted_rows = 0;
        self.last_fp = None;
        self.names = frame.names().to_vec();
        let (spec, deadline) = (&self.spec, self.deadline());
        self.models = fit_per_series(frame.n_series(), |c| {
            M::fit(frame.series(c), spec, deadline)
        })
        .map_err(|e| PipelineError::Fit(e.message))?;
        if self.models.is_empty() {
            return Err(PipelineError::InvalidInput("empty frame".into()));
        }
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
        if self.fitted_rows == 0
            || previous_rows != self.fitted_rows
            || frame.len() < previous_rows
            || frame.n_series() != self.models.len()
        {
            return Ok(false);
        }
        let fp = frame.fingerprint();
        let growth = if fp.extends_as_prefix(old_fp) {
            Some(Growth::Appended)
        } else if fp.extends_as_suffix(old_fp) {
            Some(Growth::Prepended)
        } else {
            None
        };
        if !self
            .models
            .iter()
            .all(|m| m.warm_start(growth, previous_rows))
        {
            return Ok(false);
        }
        self.fit_gate(frame.len())?;
        // warm models are built into a fresh vec so a failure mid-way
        // leaves the previous fit untouched for the executor's cold fallback
        let (seeds, spec, deadline) = (&self.models, &self.spec, self.deadline());
        let refits = fit_per_series(seeds.len(), |c| match seeds.get(c) {
            Some(seed) => seed.refit(frame.series(c), spec, growth, previous_rows, deadline),
            None => Err(FitError::new("no seed model for this series")),
        })
        .map_err(|e| PipelineError::Fit(e.message))?;
        // an error in any series fails the refit; otherwise one refusing
        // series sends the whole pipeline to the cold fallback
        let Some(models) = refits.into_iter().collect::<Option<Vec<M>>>() else {
            return Ok(false);
        };
        self.models = models;
        self.names = frame.names().to_vec();
        self.fitted_rows = frame.len();
        self.last_fp = Some(fp);
        Ok(true)
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        if M::GATED {
            let poisoned = chaos_predict_gate(M::name(&self.spec), horizon, self.models.len());
            if let Some(poisoned) = poisoned {
                return Ok(poisoned);
            }
        }
        Ok(forecast_frame(&self.names, self.forecasts(horizon)))
    }

    fn predict_interval(
        &self,
        horizon: usize,
        levels: &[f64],
    ) -> Result<IntervalForecast, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        let variances: Option<Vec<Vec<f64>>> = self
            .models
            .iter()
            .map(|m| m.forecast_variance(horizon))
            .collect();
        let Some(variances) = variances else {
            return Err(PipelineError::InvalidInput(
                "no native interval implementation".into(),
            ));
        };
        let poison = M::GATED && chaos_interval_gate(M::name(&self.spec), horizon)?;
        native_gaussian_interval(
            &self.names,
            self.forecasts(horizon),
            variances,
            poison,
            levels,
        )
    }

    fn name(&self) -> String {
        M::name(&self.spec).into()
    }

    fn set_time_budget(&mut self, budget: Option<Duration>) {
        self.budget = budget;
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(self.unfitted())
    }
}

impl<M: SeriesModel<Spec = ()>> PerSeries<M> {
    /// New unfitted pipeline (the model has no hyperparameters).
    pub fn new() -> Self {
        Self::with_spec(())
    }
}

impl<M: SeriesModel<Spec = ()>> Default for PerSeries<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// The Zero Model as a pipeline: repeat each series' last value (§4).
pub type ZeroModelPipeline = PerSeries<ZeroModel>;

impl SeriesModel for ZeroModel {
    type Spec = ();
    const GATED: bool = false;

    fn name(_: &()) -> &'static str {
        "ZeroModel"
    }

    fn fit(series: &[f64], _: &(), _: Option<Instant>) -> Result<Self, FitError> {
        let mut m = ZeroModel::new();
        m.fit(series)?;
        Ok(m)
    }

    // the fitted state is each series' last value; growing the frame at
    // the front (reverse allocations) leaves it untouched, so the previous
    // fit is already bit-identical to a full refit
    fn warm_start(&self, growth: Option<Growth>, _: usize) -> bool {
        growth != Some(Growth::Appended)
    }

    fn refit(
        &self,
        _: &[f64],
        _: &(),
        _: Option<Growth>,
        _: usize,
        _: Option<Instant>,
    ) -> Result<Option<Self>, FitError> {
        Ok(Some(self.clone()))
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        self.forecast(horizon)
    }

    fn forecast_variance(&self, horizon: usize) -> Option<Vec<f64>> {
        Some(self.forecast_variance(horizon))
    }
}

/// Seasonal naive as a pipeline: repeat each series' trailing season.
pub type SeasonalNaivePipeline = PerSeries<SeasonalNaive>;

impl SeasonalNaivePipeline {
    /// New unfitted pipeline with seasonal period `m` (clamped to ≥ 1;
    /// period 1 degenerates to the Zero Model).
    pub fn new(m: usize) -> Self {
        Self::with_spec(m.max(1))
    }
}

impl SeriesModel for SeasonalNaive {
    type Spec = usize;

    fn name(_: &usize) -> &'static str {
        "SeasonalNaive"
    }

    fn fit(series: &[f64], period: &usize, _: Option<Instant>) -> Result<Self, FitError> {
        let mut m = SeasonalNaive::new(*period);
        m.fit(series)?;
        Ok(m)
    }

    // the fitted state is the trailing season of each series; once the
    // previous fit already covered a full period, growth at the front
    // cannot change it. Shorter previous fits stored a truncated tail, so
    // they must go through a full refit.
    fn warm_start(&self, growth: Option<Growth>, previous_rows: usize) -> bool {
        growth != Some(Growth::Appended) && previous_rows >= self.period()
    }

    fn refit(
        &self,
        _: &[f64],
        _: &usize,
        _: Option<Growth>,
        _: usize,
        _: Option<Instant>,
    ) -> Result<Option<Self>, FitError> {
        Ok(Some(self.clone()))
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        self.forecast(horizon)
    }
}

/// Autoregression per series via Yule–Walker, warm-startable across
/// T-Daub's growing allocations: [`Forecaster::fit_incremental`] extends the
/// underlying [`IncrementalAr`] moment sums in O(added · order) and stays
/// bit-identical to a full refit (end-aligned blocked summation).
pub type ArPipeline = PerSeries<IncrementalAr>;

impl ArPipeline {
    /// New unfitted AR pipeline with the given order (clamped to ≥ 1).
    pub fn new(order: usize) -> Self {
        Self::with_spec(order.max(1))
    }
}

impl SeriesModel for IncrementalAr {
    type Spec = usize;

    fn name(_: &usize) -> &'static str {
        "AR"
    }

    fn fit(series: &[f64], order: &usize, _: Option<Instant>) -> Result<Self, FitError> {
        let mut m = IncrementalAr::new(*order);
        m.fit(series)?;
        Ok(m)
    }

    // the moment sums extend only when the previous data is the suffix
    fn warm_start(&self, growth: Option<Growth>, _: usize) -> bool {
        growth != Some(Growth::Appended)
    }

    fn refit(
        &self,
        series: &[f64],
        _: &usize,
        _: Option<Growth>,
        previous_rows: usize,
        _: Option<Instant>,
    ) -> Result<Option<Self>, FitError> {
        let mut m = self.clone();
        Ok(m.fit_extended(series, previous_rows)?.then_some(m))
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        self.forecast(horizon)
    }

    fn forecast_variance(&self, horizon: usize) -> Option<Vec<f64>> {
        Some(self.forecast_variance(horizon))
    }
}

/// Automatic ARIMA per series (the `Arima` pipeline of Table 6).
///
/// Supports a tier-2 (rank-stable) [`Forecaster::fit_incremental`] warm
/// start: when the new frame provably extends the previously fitted view
/// (fingerprint-verified), the stepwise order search restarts at the
/// previous winner's `(p, q)` and each refit seeds CSS Nelder–Mead from
/// the previous coefficients instead of a cold initialization.
pub type ArimaPipeline = PerSeries<Arima>;

impl ArimaPipeline {
    /// Auto-ARIMA with the paper's pmdarima-style defaults (max 3/3) and
    /// seasonal period hint `m` (0 = non-seasonal).
    pub fn new(m: usize) -> Self {
        Self::with_spec((3, 3, m))
    }

    /// Whether any per-series search in the last fit was cut short by the
    /// soft time budget (best-so-far parameters were kept).
    pub fn timed_out(&self) -> bool {
        self.models.iter().any(|m| m.timed_out)
    }
}

impl SeriesModel for Arima {
    /// `(max_p, max_q, m)`: the order-search bounds and the seasonal period.
    type Spec = (usize, usize, usize);

    fn name(_: &Self::Spec) -> &'static str {
        "Arima"
    }

    fn fit(series: &[f64], spec: &Self::Spec, deadline: Option<Instant>) -> Result<Self, FitError> {
        let &(max_p, max_q, m) = spec;
        auto_arima_with_deadline(series, max_p, max_q, m, deadline)
    }

    fn warm_start(&self, growth: Option<Growth>, _: usize) -> bool {
        growth.is_some()
    }

    fn refit(
        &self,
        series: &[f64],
        spec: &Self::Spec,
        _: Option<Growth>,
        _: usize,
        deadline: Option<Instant>,
    ) -> Result<Option<Self>, FitError> {
        let &(max_p, max_q, m) = spec;
        auto_arima_seeded_with_deadline(series, max_p, max_q, m, self, deadline).map(Some)
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        self.forecast(horizon)
    }

    fn forecast_variance(&self, horizon: usize) -> Option<Vec<f64>> {
        Some(self.forecast_variance(horizon))
    }
}

/// Holt-Winters per series (HW-Additive / HW-Multiplicative in Table 6).
///
/// Supports a tier-2 (rank-stable) [`Forecaster::fit_incremental`] warm
/// start: forward growth (the previous view is a prefix of the new frame)
/// re-runs the smoothing recursion over the appended rows only —
/// bit-identical to a full recursion at the fitted constants — while
/// reverse growth (T-Daub's allocations, previous view is a suffix)
/// restarts the Nelder–Mead smoothing-constant search from the previous
/// optimum. Both paths are fingerprint-verified with a cold-fit fallback.
pub type HoltWintersPipeline = PerSeries<HoltWinters>;

impl HoltWintersPipeline {
    /// Additive triple exponential smoothing with period `m` (0 → trend only).
    pub fn additive(m: usize) -> Self {
        Self::with_spec(if m >= 2 {
            Seasonality::Additive(m)
        } else {
            Seasonality::None
        })
    }

    /// Multiplicative triple exponential smoothing with period `m`.
    pub fn multiplicative(m: usize) -> Self {
        Self::with_spec(if m >= 2 {
            Seasonality::Multiplicative(m)
        } else {
            Seasonality::None
        })
    }

    /// Whether any per-series constant search in the last fit was cut short
    /// by the soft time budget (best-so-far parameters were kept).
    pub fn timed_out(&self) -> bool {
        self.models.iter().any(|m| m.timed_out)
    }
}

impl SeriesModel for HoltWinters {
    type Spec = Seasonality;

    fn name(seasonality: &Seasonality) -> &'static str {
        match seasonality {
            Seasonality::Multiplicative(_) => "HW-Multiplicative",
            _ => "HW-Additive",
        }
    }

    // degrade gracefully to non-seasonal when the series is too short for
    // the configured period
    fn fit(series: &[f64], s: &Seasonality, deadline: Option<Instant>) -> Result<Self, FitError> {
        HoltWinters::fit_with_deadline(series, *s, deadline)
            .or_else(|_| HoltWinters::fit_with_deadline(series, Seasonality::None, deadline))
    }

    fn warm_start(&self, growth: Option<Growth>, _: usize) -> bool {
        growth.is_some()
    }

    fn refit(
        &self,
        series: &[f64],
        s: &Seasonality,
        growth: Option<Growth>,
        previous_rows: usize,
        deadline: Option<Instant>,
    ) -> Result<Option<Self>, FitError> {
        if growth == Some(Growth::Appended) && self.len() == previous_rows {
            // forward growth: continue the smoothing recursion over the
            // appended rows only, keeping the fitted constants
            let mut warm = self.clone();
            let appended = series.get(previous_rows..).unwrap_or_default();
            return Ok(warm.extend(appended).is_ok().then_some(warm));
        }
        // reverse growth: re-optimize from the previous optimum, mirroring
        // `fit`'s graceful non-seasonal degradation
        HoltWinters::fit_seeded_with_deadline(series, *s, self, deadline)
            .or_else(|_| {
                HoltWinters::fit_seeded_with_deadline(series, Seasonality::None, self, deadline)
            })
            .map(Some)
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        self.forecast(horizon)
    }

    fn forecast_variance(&self, horizon: usize) -> Option<Vec<f64>> {
        Some(self.forecast_variance(horizon))
    }
}

/// BATS per series (the `bats` pipeline of Table 6). Each series holds its
/// model and whether that model came from a seeded refit.
///
/// Supports a tier-2 (rank-stable) [`Forecaster::fit_incremental`] warm
/// start: both forward growth (appended rows) and reverse growth (T-Daub's
/// suffix allocations) re-fit via [`Bats::fit_seeded_with_deadline`], which
/// pins the component selection (Box-Cox λ, trend, ARMA, periods) found on
/// the previous view and restarts the smoothing-constant search from the
/// previous optimum — skipping the 2×2×2 AIC grid and the golden-section λ
/// search that dominate a cold fit. Fingerprint-verified with a cold-fit
/// fallback, like every other incremental pipeline.
///
/// Seeds go stale: a component selection made on one allocation can be
/// wrong for the next (the AIC winner flips as data grows), and chained
/// warm refits would freeze it forever — far enough from the cold model to
/// perturb T-Daub's ranking. The warm path therefore caps structure age at
/// one refit: after a seeded refit the next `fit_incremental` is refused,
/// forcing the executor's cold fallback to re-run the component search, so
/// warm and cold fits alternate along T-Daub's allocation ladder.
pub type BatsPipeline = PerSeries<(Bats, bool)>;

impl BatsPipeline {
    /// BATS with the given candidate seasonal periods.
    pub fn new(periods: Vec<usize>) -> Self {
        Self::with_spec(BatsConfig::with_periods(periods))
    }

    /// Whether any per-series component search in the last fit was cut short
    /// by the soft time budget (the best configuration so far was kept).
    pub fn timed_out(&self) -> bool {
        self.models.iter().any(|(m, _)| m.timed_out)
    }
}

impl SeriesModel for (Bats, bool) {
    type Spec = BatsConfig;

    fn name(_: &BatsConfig) -> &'static str {
        "bats"
    }

    fn fit(
        series: &[f64],
        config: &BatsConfig,
        deadline: Option<Instant>,
    ) -> Result<Self, FitError> {
        Ok((Bats::fit_with_deadline(series, config, deadline)?, false))
    }

    fn warm_start(&self, growth: Option<Growth>, _: usize) -> bool {
        growth.is_some() && !self.1
    }

    // a structure change (e.g. a period newly feasible on the grown series)
    // rejects the seed — refuse so the executor falls back to a cold fit
    // with a fresh component search
    fn refit(
        &self,
        series: &[f64],
        config: &BatsConfig,
        _: Option<Growth>,
        _: usize,
        deadline: Option<Instant>,
    ) -> Result<Option<Self>, FitError> {
        let seeded = Bats::fit_seeded_with_deadline(series, config, &self.0, deadline);
        Ok(seeded.ok().map(|m| (m, true)))
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        self.0.forecast(horizon)
    }
}

/// Theta method per series (extension pipeline, M3 benchmark favorite).
///
/// Supports a tier-1 (bit-identical) [`Forecaster::fit_incremental`] warm
/// start: Theta has no extendable optimizer state, so the seeded restart
/// ([`ThetaModel::fit_seeded`]) re-sweeps the full α grid in the cold
/// fit's exact order — results match a cold fit to the last bit, and the
/// warm-start win is the fingerprint-verified lineage check (no transform
/// rebuild, no state invalidation). Cold-fit fallback on any mismatch.
pub type ThetaPipeline = PerSeries<ThetaModel>;

impl SeriesModel for ThetaModel {
    type Spec = ();

    fn name(_: &()) -> &'static str {
        "Theta"
    }

    fn fit(series: &[f64], _: &(), _: Option<Instant>) -> Result<Self, FitError> {
        let mut m = ThetaModel::new();
        m.fit(series)?;
        Ok(m)
    }

    fn warm_start(&self, growth: Option<Growth>, _: usize) -> bool {
        growth.is_some()
    }

    fn refit(
        &self,
        series: &[f64],
        _: &(),
        _: Option<Growth>,
        _: usize,
        _: Option<Instant>,
    ) -> Result<Option<Self>, FitError> {
        let mut m = ThetaModel::new();
        Ok(m.fit_seeded(series, self.alpha()).is_ok().then_some(m))
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        self.forecast(horizon)
    }
}

/// GARCH(1,1) conditional-volatility pipeline (extension, the paper's §6
/// "high volatility models" future-work item): each series is modeled as a
/// random walk with drift whose increments follow a GARCH(1,1) variance
/// process, held with the series' last value. Point forecasts extrapolate
/// the drift; intervals widen with the conditional variance forecast,
/// making this the only pool member whose bands react to volatility
/// clustering.
pub type GarchPipeline = PerSeries<(Garch, f64)>;

impl SeriesModel for (Garch, f64) {
    type Spec = ();

    fn name(_: &()) -> &'static str {
        "Garch"
    }

    fn fit(series: &[f64], _: &(), _: Option<Instant>) -> Result<Self, FitError> {
        let diffs: Vec<f64> = series.windows(2).map(|w| w[1] - w[0]).collect();
        let m = Garch::fit(&diffs)?;
        let last = series.last().copied();
        Ok((m, last.ok_or_else(|| FitError::new("empty series"))?))
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        let (m, last) = self;
        (1..=horizon).map(|h| last + m.mu * h as f64).collect()
    }

    // variance of the h-step level forecast is the accumulated conditional
    // variance of the h increments
    fn forecast_variance(&self, horizon: usize) -> Option<Vec<f64>> {
        let mut acc = 0.0;
        let increments = self.0.forecast_variance(horizon).into_iter();
        Some(
            increments
                .map(|v| {
                    acc += v.max(0.0);
                    acc
                })
                .collect(),
        )
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
    fn zero_model_pipeline_repeats_last() {
        let mut p = ZeroModelPipeline::new();
        p.fit(&TimeSeriesFrame::from_columns(vec![
            vec![1.0, 2.0],
            vec![5.0, 9.0],
        ]))
        .unwrap();
        let f = p.predict(3).unwrap();
        assert_eq!(f.series(0), &[2.0, 2.0, 2.0]);
        assert_eq!(f.series(1), &[9.0, 9.0, 9.0]);
    }

    #[test]
    fn arima_pipeline_multivariate() {
        let cols: Vec<Vec<f64>> = (0..2)
            .map(|c| (0..150).map(|i| (c as f64 + 1.0) * i as f64).collect())
            .collect();
        let mut p = ArimaPipeline::new(0);
        p.fit(&TimeSeriesFrame::from_columns(cols)).unwrap();
        let f = p.predict(4).unwrap();
        assert_eq!(f.n_series(), 2);
        // linear series keep climbing
        assert!(f.series(0)[3] > 149.0);
        assert!(f.series(1)[3] > 299.0);
    }

    #[test]
    fn hw_pipeline_seasonal_forecast() {
        let mut p = HoltWintersPipeline::additive(12);
        p.fit(&seasonal_frame(120)).unwrap();
        let f = p.predict(12).unwrap();
        let truth: Vec<f64> = (120..132)
            .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
            .collect();
        let smape = autoai_tsdata::smape(&truth, f.series(0));
        assert!(smape < 5.0, "HW smape {smape}");
    }

    #[test]
    fn hw_multiplicative_degrades_on_short_series() {
        let mut p = HoltWintersPipeline::multiplicative(50);
        // 20 points, too short for period 50 → falls back to non-seasonal
        p.fit(&TimeSeriesFrame::univariate(
            (1..=20).map(|i| i as f64).collect(),
        ))
        .unwrap();
        let f = p.predict(2).unwrap();
        assert!(f.series(0)[0] > 18.0);
    }

    #[test]
    fn bats_pipeline_runs() {
        let mut p = BatsPipeline::new(vec![12]);
        p.fit(&seasonal_frame(120)).unwrap();
        let s = p
            .score(&seasonal_frame(132).slice(120, 132), Metric::Smape)
            .unwrap();
        assert!(s < 10.0, "bats smape {s}");
    }

    #[test]
    fn theta_pipeline_runs() {
        let mut p = ThetaPipeline::new();
        p.fit(&seasonal_frame(100)).unwrap();
        assert_eq!(p.predict(5).unwrap().len(), 5);
    }

    /// Calls the generic `$check(pipeline, name)` once for a fresh instance
    /// of every per-series pipeline.
    macro_rules! for_each_per_series {
        ($check:ident) => {
            $check(ZeroModelPipeline::new(), "ZeroModel");
            $check(SeasonalNaivePipeline::new(12), "SeasonalNaive");
            $check(ArPipeline::new(4), "AR");
            $check(ArimaPipeline::new(12), "Arima");
            $check(HoltWintersPipeline::additive(12), "HW-Additive");
            $check(HoltWintersPipeline::multiplicative(12), "HW-Multiplicative");
            $check(BatsPipeline::new(vec![12]), "bats");
            $check(ThetaPipeline::new(), "Theta");
            $check(GarchPipeline::new(), "Garch");
        };
    }

    fn assert_unfitted_refuses<M: SeriesModel>(mut p: PerSeries<M>, name: &str) {
        assert_eq!(p.predict(3), Err(PipelineError::NotFitted), "{name}");
        assert!(p.predict_interval(3, &[0.8]).is_err(), "{name}");
        let frame = seasonal_frame(40);
        assert_eq!(p.fit_incremental(&frame, 0), Ok(false), "{name}");
        assert_eq!(p.fit_incremental(&frame, 40), Ok(false), "{name}");
    }

    #[test]
    fn predict_before_fit_errors() {
        for_each_per_series!(assert_unfitted_refuses);
    }

    fn assert_clone_keeps_name_and_budget<M: SeriesModel>(mut p: PerSeries<M>, name: &str) {
        let budget = Some(Duration::from_millis(250));
        p.set_time_budget(budget);
        assert_eq!(p.name(), name);
        assert_eq!(p.clone_unfitted().name(), name);
        assert_eq!(p.unfitted().budget, budget, "{name}");
    }

    #[test]
    fn clone_unfitted_produces_same_name() {
        for_each_per_series!(assert_clone_keeps_name_and_budget);
    }

    fn assert_matches_univariate_fits<M: SeriesModel>(mut p: PerSeries<M>, name: &str) {
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let frame = three_series_frame(150);
        p.fit(&frame).unwrap();
        let joint = p.predict(12).unwrap();
        for c in 0..3 {
            let mut alone = p.unfitted();
            alone
                .fit(&TimeSeriesFrame::univariate(frame.series(c).to_vec()))
                .unwrap();
            let single = alone.predict(12).unwrap();
            assert_eq!(
                bits(joint.series(c)),
                bits(single.series(0)),
                "{name} series {c}"
            );
        }
    }

    #[test]
    fn multi_series_fit_is_bit_identical_to_univariate_fits() {
        for_each_per_series!(assert_matches_univariate_fits);
    }

    #[test]
    fn tier1_warm_starts_refuse_forward_growth() {
        // a fit on a prefix is stale once rows are appended: its last value,
        // trailing season and moment sums all end too early
        let frame = seasonal_frame(120);
        let pool: Vec<Box<dyn Forecaster>> = vec![
            Box::new(ZeroModelPipeline::new()),
            Box::new(SeasonalNaivePipeline::new(12)),
            Box::new(ArPipeline::new(4)),
        ];
        for mut p in pool {
            p.fit(&frame.slice(0, 100)).unwrap();
            assert_eq!(p.fit_incremental(&frame, 100), Ok(false), "{}", p.name());
        }
    }

    #[test]
    fn seasonal_naive_repeats_trailing_season() {
        let mut p = SeasonalNaivePipeline::new(4);
        p.fit(&TimeSeriesFrame::univariate(
            (0..16).map(|i| (i % 4) as f64).collect(),
        ))
        .unwrap();
        let f = p.predict(6).unwrap();
        assert_eq!(f.series(0), &[0.0, 1.0, 2.0, 3.0, 0.0, 1.0]);
    }

    #[test]
    fn zero_model_incremental_matches_full_fit() {
        let frame = seasonal_frame(200);
        let mut inc = ZeroModelPipeline::new();
        inc.fit(&frame.tail(60)).unwrap();
        assert!(inc.fit_incremental(&frame, 60).unwrap());
        let mut full = ZeroModelPipeline::new();
        full.fit(&frame).unwrap();
        assert_eq!(
            inc.predict(5).unwrap().to_rows(),
            full.predict(5).unwrap().to_rows()
        );
        // wrong previous_rows → refuses
        assert!(!inc.fit_incremental(&frame, 60).unwrap());
    }

    #[test]
    fn seasonal_naive_incremental_matches_full_fit() {
        let frame = seasonal_frame(200);
        let mut inc = SeasonalNaivePipeline::new(12);
        inc.fit(&frame.tail(50)).unwrap();
        assert!(inc.fit_incremental(&frame, 50).unwrap());
        let mut full = SeasonalNaivePipeline::new(12);
        full.fit(&frame).unwrap();
        assert_eq!(
            inc.predict(24).unwrap().to_rows(),
            full.predict(24).unwrap().to_rows()
        );
    }

    #[test]
    fn seasonal_naive_incremental_refuses_short_previous_fit() {
        // previous fit shorter than the period stored a truncated tail: a
        // warm start would keep the wrong state
        let frame = seasonal_frame(100);
        let mut p = SeasonalNaivePipeline::new(12);
        p.fit(&frame.tail(8)).unwrap();
        assert!(!p.fit_incremental(&frame, 8).unwrap());
    }

    #[test]
    fn ar_pipeline_incremental_is_bit_identical() {
        let cols: Vec<Vec<f64>> = (0..2)
            .map(|c| {
                (0..400)
                    .map(|i| {
                        20.0 + (c as f64 + 1.0)
                            * (2.0 * std::f64::consts::PI * i as f64 / 11.0).sin()
                    })
                    .collect()
            })
            .collect();
        let frame = TimeSeriesFrame::from_columns(cols);
        let mut inc = ArPipeline::new(4);
        inc.fit(&frame.tail(150)).unwrap();
        assert!(inc.fit_incremental(&frame, 150).unwrap());
        let mut full = ArPipeline::new(4);
        full.fit(&frame).unwrap();
        let (fi, ff) = (inc.predict(10).unwrap(), full.predict(10).unwrap());
        for c in 0..2 {
            let a: Vec<u64> = fi.series(c).iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = ff.series(c).iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "series {c} diverged");
        }
    }

    #[test]
    fn hw_pipeline_incremental_reverse_growth_warm_starts() {
        let frame = seasonal_frame(240);
        let mut warm = HoltWintersPipeline::additive(12);
        // previous fit on the trailing 150 rows (T-Daub reverse allocation)
        warm.fit(&frame.slice(90, 240)).unwrap();
        assert!(warm.fit_incremental(&frame, 150).unwrap());
        let mut cold = HoltWintersPipeline::additive(12);
        cold.fit(&frame).unwrap();
        let (fw, fc) = (warm.predict(12).unwrap(), cold.predict(12).unwrap());
        for (a, b) in fw.series(0).iter().zip(fc.series(0)) {
            assert!(a.is_finite());
            assert!((a - b).abs() < 0.5, "warm {a} vs cold {b}");
        }
    }

    #[test]
    fn hw_pipeline_incremental_forward_growth_extends() {
        let frame = seasonal_frame(240);
        let mut p = HoltWintersPipeline::additive(12);
        p.fit(&frame.slice(0, 180)).unwrap();
        // forward growth: rows are appended at the end of the fitted view
        assert!(p.fit_incremental(&frame, 180).unwrap());
        let f = p.predict(12).unwrap();
        let truth: Vec<f64> = (240..252)
            .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
            .collect();
        let smape = autoai_tsdata::smape(&truth, f.series(0));
        assert!(smape < 5.0, "extended HW smape {smape}");
    }

    #[test]
    fn hw_pipeline_incremental_refuses_unrelated_frame() {
        let mut p = HoltWintersPipeline::additive(12);
        p.fit(&seasonal_frame(120)).unwrap();
        // a fresh frame with different buffers cannot be proven to extend
        // the fitted view, even with a "plausible" previous_rows
        assert!(!p.fit_incremental(&seasonal_frame(150), 120).unwrap());
    }

    #[test]
    fn arima_pipeline_incremental_reverse_growth_warm_starts() {
        let frame = TimeSeriesFrame::univariate(
            (0..220)
                .map(|i| 50.0 + 0.4 * i as f64 + (i as f64 * 0.9).sin())
                .collect(),
        );
        let mut warm = ArimaPipeline::new(0);
        warm.fit(&frame.slice(80, 220)).unwrap();
        assert!(warm.fit_incremental(&frame, 140).unwrap());
        let mut cold = ArimaPipeline::new(0);
        cold.fit(&frame).unwrap();
        let (fw, fc) = (warm.predict(6).unwrap(), cold.predict(6).unwrap());
        for (a, b) in fw.series(0).iter().zip(fc.series(0)) {
            assert!(a.is_finite());
            assert!((a - b).abs() < 2.0, "warm {a} vs cold {b}");
        }
    }

    #[test]
    fn arima_pipeline_incremental_refuses_wrong_previous_rows() {
        let frame = TimeSeriesFrame::univariate((0..160).map(|i| 10.0 + 0.3 * i as f64).collect());
        let mut p = ArimaPipeline::new(0);
        p.fit(&frame.slice(40, 160)).unwrap();
        assert!(!p.fit_incremental(&frame, 100).unwrap());
    }

    #[test]
    fn ar_pipeline_forecasts_seasonal() {
        let mut p = ArPipeline::new(12);
        p.fit(&seasonal_frame(300)).unwrap();
        let f = p.predict(6).unwrap();
        let truth: Vec<f64> = (300..306)
            .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
            .collect();
        let smape = autoai_tsdata::smape(&truth, f.series(0));
        assert!(smape < 10.0, "AR smape {smape}");
    }

    fn noisy_frame(n: usize) -> TimeSeriesFrame {
        // deterministic pseudo-noise so interval widths are non-degenerate
        TimeSeriesFrame::univariate(
            (0..n)
                .map(|i| 50.0 + (i as f64 * 0.7).sin() * 3.0 + ((i * 7919) % 13) as f64 * 0.3)
                .collect(),
        )
    }

    fn assert_native_bands(p: &dyn Forecaster, horizon: usize) {
        let iv = p
            .predict_interval(horizon, &crate::interval::DEFAULT_LEVELS)
            .unwrap();
        assert_eq!(iv.horizon(), horizon);
        assert_eq!(iv.source(), IntervalSource::Native);
        let point = p.predict(horizon).unwrap();
        // interval point path matches the plain forecast
        for (a, b) in iv.point().series(0).iter().zip(point.series(0)) {
            assert!((a - b).abs() < 1e-9, "interval point {a} != predict {b}");
        }
        let (lo80, _) = iv.band(0).unwrap();
        let (lo95, hi95) = iv.band(1).unwrap();
        // wider level is wider, and everything is finite (constructor
        // guarantees bracketing/nesting, spot-check anyway)
        for t in 0..horizon {
            assert!(lo95.series(0)[t] <= lo80.series(0)[t]);
            assert!(hi95.series(0)[t].is_finite());
        }
    }

    #[test]
    fn zero_model_interval_widens_with_horizon() {
        let mut p = ZeroModelPipeline::new();
        p.fit(&noisy_frame(100)).unwrap();
        assert_native_bands(&p, 8);
        let iv = p.predict_interval(8, &[0.9]).unwrap();
        let (lo, hi) = iv.band(0).unwrap();
        let w1 = hi.series(0)[0] - lo.series(0)[0];
        let w8 = hi.series(0)[7] - lo.series(0)[7];
        assert!(w1 > 0.0, "degenerate first-step width");
        assert!(w8 > w1, "random-walk bands must widen: {w1} vs {w8}");
    }

    #[test]
    fn ar_and_hw_intervals_are_native_and_nested() {
        let mut ar = ArPipeline::new(6);
        ar.fit(&noisy_frame(200)).unwrap();
        assert_native_bands(&ar, 10);

        let mut hw = HoltWintersPipeline::additive(12);
        hw.fit(&seasonal_frame(120)).unwrap();
        assert_native_bands(&hw, 12);
    }

    #[test]
    fn arima_interval_is_native_and_nested() {
        let mut p = ArimaPipeline::new(0);
        p.fit(&noisy_frame(150)).unwrap();
        assert_native_bands(&p, 6);
    }

    #[test]
    fn garch_pipeline_fits_and_bands_widen() {
        let mut p = GarchPipeline::new();
        p.fit(&noisy_frame(120)).unwrap();
        assert_native_bands(&p, 8);
        let iv = p.predict_interval(8, &[0.9]).unwrap();
        let (lo, hi) = iv.band(0).unwrap();
        let w1 = hi.series(0)[0] - lo.series(0)[0];
        let w8 = hi.series(0)[7] - lo.series(0)[7];
        assert!(w8 > w1, "accumulated GARCH variance must widen bands");
    }

    #[test]
    fn garch_pipeline_rejects_short_series() {
        let mut p = GarchPipeline::new();
        assert!(p
            .fit(&TimeSeriesFrame::univariate(
                (0..10).map(|i| i as f64).collect()
            ))
            .is_err());
    }

    #[test]
    fn interval_before_fit_errors() {
        assert!(ZeroModelPipeline::new()
            .predict_interval(3, &[0.8])
            .is_err());
        assert!(GarchPipeline::new().predict_interval(3, &[0.8]).is_err());
        assert!(ArPipeline::new(2).predict_interval(3, &[0.8]).is_err());
    }

    /// Three series of different shape, so every per-series search walks
    /// its own path.
    fn three_series_frame(n: usize) -> TimeSeriesFrame {
        let wave = |i: usize, p: f64| (2.0 * std::f64::consts::PI * i as f64 / p).sin();
        TimeSeriesFrame::from_columns(vec![
            (0..n)
                .map(|i| 20.0 + 5.0 * wave(i, 12.0) + 0.05 * i as f64)
                .collect(),
            (0..n)
                .map(|i| 50.0 + 3.0 * wave(i, 7.0) + ((i * 7919) % 13) as f64 * 0.3)
                .collect(),
            (0..n)
                .map(|i| 10.0 + 0.4 * i as f64 + (i as f64 * 0.9).sin())
                .collect(),
        ])
    }

    /// Forecast bits of a cold fit on `rows[40..]` followed by a warm
    /// `fit_incremental` onto every row.
    fn cold_then_warm_bits(mut p: Box<dyn Forecaster>, frame: &TimeSeriesFrame) -> Vec<u64> {
        let bits = |f: TimeSeriesFrame| -> Vec<u64> {
            (0..f.n_series())
                .flat_map(|c| f.series(c).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                .collect()
        };
        p.fit(&frame.slice(40, frame.len())).unwrap();
        let mut out = bits(p.predict(12).unwrap());
        assert!(p.fit_incremental(frame, frame.len() - 40).unwrap());
        out.extend(bits(p.predict(12).unwrap()));
        out
    }

    #[test]
    fn per_series_fan_out_matches_direct_fits_when_nested_in_busy_pool_items() {
        let frame = three_series_frame(180);
        let make = |i: usize| -> Box<dyn Forecaster> {
            if i % 2 == 0 {
                Box::new(ArimaPipeline::new(12))
            } else {
                Box::new(BatsPipeline::new(vec![12, 7]))
            }
        };
        let direct: Vec<Vec<u64>> = (0..2)
            .map(|i| cold_then_warm_bits(make(i), &frame))
            .collect();
        // the cold fits equal one model fitted per series in a plain loop
        let cold = frame.slice(40, frame.len());
        let (mut arima, mut bats) = (Vec::new(), Vec::new());
        for c in 0..3 {
            let y = cold.series(c);
            let a = autoai_stat_models::auto_arima(y, 3, 3, 12).unwrap();
            arima.extend(a.forecast(12).iter().map(|v| v.to_bits()));
            let b = Bats::fit(y, &BatsConfig::with_periods(vec![12, 7])).unwrap();
            bats.extend(b.forecast(12).iter().map(|v| v.to_bits()));
        }
        assert_eq!(direct[0][..36], arima[..]);
        assert_eq!(direct[1][..36], bats[..]);
        // every pool item runs a pipeline of its own, so the per-series
        // fan-outs (and the model searches' fan-outs inside them) nest
        let nested = parallel_try_map_range(4, |i| cold_then_warm_bits(make(i), &frame));
        for (i, r) in nested.into_iter().enumerate() {
            assert_eq!(r.unwrap(), direct[i % 2], "item {i}");
        }
    }

    #[test]
    fn expired_budget_still_fits_every_series_with_timed_out_set() {
        let frame = three_series_frame(150);
        let mut arima = ArimaPipeline::new(12);
        let mut bats = BatsPipeline::new(vec![12, 7]);
        for p in [&mut arima as &mut dyn Forecaster, &mut bats] {
            p.set_time_budget(Some(Duration::ZERO));
            p.fit(&frame).unwrap();
            let f = p.predict(6).unwrap();
            assert_eq!(f.n_series(), 3);
            for c in 0..3 {
                assert!(f.series(c).iter().all(|v| v.is_finite()), "series {c}");
            }
        }
        assert!(arima.timed_out());
        assert!(bats.timed_out());
    }
}
