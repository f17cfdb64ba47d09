//! Probabilistic forecasts: interval containers and the conformal fallback.
//!
//! Every pool pipeline can emit calibrated prediction bands. Pipelines with
//! a native uncertainty model (AR/ARIMA psi-weight recursions, Holt-Winters
//! error accumulation, GARCH conditional variance, a Gaussian-NLL neural
//! head) override [`crate::Forecaster::predict_interval`]; everything else
//! is wrapped by the split-conformal fallback in this module, so the
//! degradation ladder's "always forecast" guarantee extends to intervals.
//!
//! The container enforces the calibration contract structurally: bands are
//! finite, bracket the point forecast, and **nest** — a 95% band never sits
//! inside an 80% band. A chaos-poisoned (NaN) native band therefore fails
//! construction with a typed error and the caller degrades to conformal.

use std::panic::{catch_unwind, AssertUnwindSafe};

use autoai_transforms::ConformalScores;
use autoai_tsdata::{normal_quantile, TimeSeriesFrame};

use crate::traits::{Forecaster, PipelineError};

/// The coverage levels AutoAI-TS reports by default: central 80% and 95%.
pub const DEFAULT_LEVELS: [f64; 2] = [0.80, 0.95];

/// Where an interval's uncertainty estimate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalSource {
    /// The pipeline's own uncertainty model (variance recursion, GARCH,
    /// neural NLL head).
    Native,
    /// Split-conformal fallback calibrated on held-out residuals.
    Conformal,
    /// The Zero-Model random-walk floor at the bottom of the degradation
    /// ladder.
    Baseline,
}

impl std::fmt::Display for IntervalSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntervalSource::Native => write!(f, "native"),
            IntervalSource::Conformal => write!(f, "conformal"),
            IntervalSource::Baseline => write!(f, "baseline"),
        }
    }
}

/// A point forecast with central prediction bands at one or more coverage
/// levels. Construction validates shape, finiteness, bracketing and band
/// nesting, so a value of this type is always safe to serve.
#[derive(Debug, Clone)]
pub struct IntervalForecast {
    point: TimeSeriesFrame,
    levels: Vec<f64>,
    lower: Vec<TimeSeriesFrame>,
    upper: Vec<TimeSeriesFrame>,
    source: IntervalSource,
}

fn invalid(msg: impl Into<String>) -> PipelineError {
    PipelineError::InvalidInput(msg.into())
}

fn check_frame_shape(
    which: &str,
    frame: &TimeSeriesFrame,
    point: &TimeSeriesFrame,
) -> Result<(), PipelineError> {
    if frame.n_series() != point.n_series() || frame.len() != point.len() {
        return Err(invalid(format!(
            "{which} band shape {}x{} does not match point {}x{}",
            frame.len(),
            frame.n_series(),
            point.len(),
            point.n_series()
        )));
    }
    for s in frame.series_iter() {
        if s.iter().any(|v| !v.is_finite()) {
            return Err(invalid(format!("{which} band contains non-finite values")));
        }
    }
    Ok(())
}

impl IntervalForecast {
    /// Validate and assemble an interval forecast. `levels` must be strictly
    /// ascending coverage levels in (0, 1); `lower`/`upper` hold one band
    /// frame per level, shaped like `point`. Every value must be finite,
    /// every band must bracket the point forecast, and bands must nest
    /// (wider coverage ⇒ wider band). Violations return
    /// [`PipelineError::InvalidInput`].
    pub fn new(
        point: TimeSeriesFrame,
        levels: Vec<f64>,
        lower: Vec<TimeSeriesFrame>,
        upper: Vec<TimeSeriesFrame>,
        source: IntervalSource,
    ) -> Result<Self, PipelineError> {
        if levels.is_empty() {
            return Err(invalid("interval forecast needs at least one level"));
        }
        for pair in levels.windows(2) {
            if let [a, b] = pair {
                if b <= a {
                    return Err(invalid(format!(
                        "levels must be strictly ascending, got {a} then {b}"
                    )));
                }
            }
        }
        if let Some(bad) = levels.iter().find(|l| !(**l > 0.0 && **l < 1.0)) {
            return Err(invalid(format!("coverage level {bad} outside (0, 1)")));
        }
        if lower.len() != levels.len() || upper.len() != levels.len() {
            return Err(invalid(format!(
                "expected {} lower/upper bands, got {}/{}",
                levels.len(),
                lower.len(),
                upper.len()
            )));
        }
        for s in point.series_iter() {
            if s.iter().any(|v| !v.is_finite()) {
                return Err(invalid("point forecast contains non-finite values"));
            }
        }
        for (lo, hi) in lower.iter().zip(upper.iter()) {
            check_frame_shape("lower", lo, &point)?;
            check_frame_shape("upper", hi, &point)?;
        }
        // bracketing: lower <= point <= upper at every level
        for (lo, hi) in lower.iter().zip(upper.iter()) {
            for ((ls, hs), ps) in lo
                .series_iter()
                .zip(hi.series_iter())
                .zip(point.series_iter())
            {
                for ((l, h), p) in ls.iter().zip(hs.iter()).zip(ps.iter()) {
                    if l > p || p > h {
                        return Err(invalid(format!(
                            "band [{l}, {h}] does not bracket point {p}"
                        )));
                    }
                }
            }
        }
        // nesting: ascending levels ⇒ lower is non-increasing, upper
        // non-decreasing (quantile monotonicity / non-crossing bands)
        for pair in lower.windows(2) {
            if let [narrow, wide] = pair {
                for (ns, ws) in narrow.series_iter().zip(wide.series_iter()) {
                    if ns.iter().zip(ws.iter()).any(|(n, w)| w > n) {
                        return Err(invalid("lower bands cross: wider level is narrower"));
                    }
                }
            }
        }
        for pair in upper.windows(2) {
            if let [narrow, wide] = pair {
                for (ns, ws) in narrow.series_iter().zip(wide.series_iter()) {
                    if ns.iter().zip(ws.iter()).any(|(n, w)| w < n) {
                        return Err(invalid("upper bands cross: wider level is narrower"));
                    }
                }
            }
        }
        Ok(Self {
            point,
            levels,
            lower,
            upper,
            source,
        })
    }

    /// Build symmetric Gaussian bands `point ± z(level) · std` where
    /// `std[series][step]` is the forecast standard deviation. NaN or
    /// negative deviations fail validation, which is exactly how chaos
    /// poisoning of a native variance path surfaces as a typed error.
    pub fn from_gaussian(
        point: TimeSeriesFrame,
        levels: &[f64],
        std: &[Vec<f64>],
        source: IntervalSource,
    ) -> Result<Self, PipelineError> {
        if std.len() != point.n_series() || std.iter().any(|s| s.len() != point.len()) {
            return Err(invalid("std shape does not match point forecast"));
        }
        let mut lower = Vec::with_capacity(levels.len());
        let mut upper = Vec::with_capacity(levels.len());
        for level in levels {
            let z = normal_quantile((1.0 + level) / 2.0);
            let mut lo_cols = Vec::with_capacity(point.n_series());
            let mut hi_cols = Vec::with_capacity(point.n_series());
            for (ps, ss) in point.series_iter().zip(std.iter()) {
                let lo: Vec<f64> = ps.iter().zip(ss.iter()).map(|(p, s)| p - z * s).collect();
                let hi: Vec<f64> = ps.iter().zip(ss.iter()).map(|(p, s)| p + z * s).collect();
                lo_cols.push(lo);
                hi_cols.push(hi);
            }
            lower.push(TimeSeriesFrame::from_columns(lo_cols));
            upper.push(TimeSeriesFrame::from_columns(hi_cols));
        }
        Self::new(point, levels.to_vec(), lower, upper, source)
    }

    /// The point forecast the bands are centred on.
    pub fn point(&self) -> &TimeSeriesFrame {
        &self.point
    }

    /// Coverage levels, strictly ascending.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Lower and upper band frames for the level at `idx` (index into
    /// [`levels`](Self::levels)).
    pub fn band(&self, idx: usize) -> Option<(&TimeSeriesFrame, &TimeSeriesFrame)> {
        Some((self.lower.get(idx)?, self.upper.get(idx)?))
    }

    /// Where the uncertainty estimate came from.
    pub fn source(&self) -> IntervalSource {
        self.source
    }

    /// Relabel the provenance (the degradation ladder marks the Zero-Model
    /// floor as [`IntervalSource::Baseline`]).
    pub fn with_source(mut self, source: IntervalSource) -> Self {
        self.source = source;
        self
    }

    /// Forecast horizon (rows).
    pub fn horizon(&self) -> usize {
        self.point.len()
    }

    /// Number of series (columns).
    pub fn n_series(&self) -> usize {
        self.point.n_series()
    }
}

/// Split-conformal calibration for a fitted forecaster: held-out absolute
/// residuals per series, ready to widen any point forecast into a
/// distribution-free band.
#[derive(Debug, Clone)]
pub struct ConformalCalibration {
    scores: ConformalScores,
}

impl ConformalCalibration {
    /// Calibrate against a holdout frame that immediately follows the
    /// forecaster's training data: one `predict(calib.len())` call (no
    /// refits — the `duplicate_fits == 0` invariant is untouched), handed
    /// to [`ConformalCalibration::from_forecast`]. Returns `None` when the
    /// forecaster cannot produce usable residuals for every series.
    pub fn calibrate(f: &dyn Forecaster, calib: &TimeSeriesFrame) -> Option<Self> {
        if calib.len() == 0 {
            return None;
        }
        let pred = catch_unwind(AssertUnwindSafe(|| f.predict(calib.len())))
            .ok()?
            .ok()?;
        Self::from_forecast(&pred, calib)
    }

    /// Calibrate from a forecast `pred` of the calibration frame `calib`:
    /// per-series absolute residuals become the conformal scores. Returns
    /// `None` when the shapes differ or a series has no usable residual.
    pub fn from_forecast(pred: &TimeSeriesFrame, calib: &TimeSeriesFrame) -> Option<Self> {
        if pred.n_series() != calib.n_series() {
            return None;
        }
        let residuals: Vec<Vec<f64>> = calib
            .series_iter()
            .zip(pred.series_iter())
            .map(|(a, p)| a.iter().zip(p.iter()).map(|(x, y)| x - y).collect())
            .collect();
        ConformalScores::from_residuals(&residuals).map(|scores| Self { scores })
    }

    /// Number of calibrated series.
    pub fn n_series(&self) -> usize {
        self.scores.n_series()
    }

    /// Wrap an existing point forecast with conformal bands.
    pub fn interval_around(
        &self,
        point: &TimeSeriesFrame,
        levels: &[f64],
    ) -> Result<IntervalForecast, PipelineError> {
        if point.n_series() != self.scores.n_series() {
            return Err(invalid(format!(
                "conformal calibration covers {} series, forecast has {}",
                self.scores.n_series(),
                point.n_series()
            )));
        }
        let mut lower = Vec::with_capacity(levels.len());
        let mut upper = Vec::with_capacity(levels.len());
        for level in levels {
            let mut lo_cols = Vec::with_capacity(point.n_series());
            let mut hi_cols = Vec::with_capacity(point.n_series());
            for (c, ps) in point.series_iter().enumerate() {
                let w = self
                    .scores
                    .half_width(c, *level)
                    .ok_or_else(|| invalid(format!("no conformal score at level {level}")))?;
                lo_cols.push(ps.iter().map(|p| p - w).collect());
                hi_cols.push(ps.iter().map(|p| p + w).collect());
            }
            lower.push(TimeSeriesFrame::from_columns(lo_cols));
            upper.push(TimeSeriesFrame::from_columns(hi_cols));
        }
        IntervalForecast::new(
            point.clone(),
            levels.to_vec(),
            lower,
            upper,
            IntervalSource::Conformal,
        )
    }

    /// Predict `horizon` rows with the forecaster and wrap them with
    /// conformal bands.
    pub fn interval(
        &self,
        f: &dyn Forecaster,
        horizon: usize,
        levels: &[f64],
    ) -> Result<IntervalForecast, PipelineError> {
        let point = f.predict(horizon)?;
        for s in point.series_iter() {
            if s.iter().any(|v| !v.is_finite()) {
                return Err(invalid("point forecast contains non-finite values"));
            }
        }
        self.interval_around(&point, levels)
    }
}

/// The interval degradation ladder's first two rungs: try the pipeline's
/// native `predict_interval` (panics from chaos injection are caught and
/// treated as failure), then fall back to split-conformal bands when a
/// calibration is available. Callers with a Zero-Model floor add the final
/// rung themselves.
pub fn predict_interval_or_conformal(
    f: &dyn Forecaster,
    horizon: usize,
    levels: &[f64],
    calibration: Option<&ConformalCalibration>,
) -> Result<IntervalForecast, PipelineError> {
    let native = catch_unwind(AssertUnwindSafe(|| f.predict_interval(horizon, levels)));
    if let Ok(Ok(iv)) = native {
        return Ok(iv);
    }
    match calibration {
        Some(c) => c.interval(f, horizon, levels),
        None => Err(invalid(
            "no native interval implementation and no conformal calibration",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(vals: Vec<f64>) -> TimeSeriesFrame {
        TimeSeriesFrame::univariate(vals)
    }

    #[test]
    fn gaussian_bands_nest_and_bracket() {
        let point = frame(vec![1.0, 2.0, 3.0]);
        let std = vec![vec![0.5, 1.0, 1.5]];
        let iv =
            IntervalForecast::from_gaussian(point, &DEFAULT_LEVELS, &std, IntervalSource::Native)
                .unwrap();
        assert_eq!(iv.levels(), &DEFAULT_LEVELS);
        let (lo80, hi80) = iv.band(0).unwrap();
        let (lo95, hi95) = iv.band(1).unwrap();
        for t in 0..3 {
            let p = iv.point().series(0)[t];
            assert!(lo95.series(0)[t] <= lo80.series(0)[t]);
            assert!(lo80.series(0)[t] <= p && p <= hi80.series(0)[t]);
            assert!(hi80.series(0)[t] <= hi95.series(0)[t]);
        }
        // z(0.975) ≈ 1.96: the 95% band is ~1.96 sigma wide
        let w = hi95.series(0)[0] - iv.point().series(0)[0];
        assert!((w - 1.96 * 0.5).abs() < 0.01, "width {w}");
    }

    #[test]
    fn nan_std_is_rejected() {
        let point = frame(vec![1.0, 2.0]);
        let std = vec![vec![0.5, f64::NAN]];
        assert!(
            IntervalForecast::from_gaussian(point, &[0.8], &std, IntervalSource::Native).is_err()
        );
    }

    #[test]
    fn crossing_bands_are_rejected() {
        let point = frame(vec![0.0]);
        // 95% band narrower than 80% band: must fail nesting
        let lower = vec![frame(vec![-2.0]), frame(vec![-1.0])];
        let upper = vec![frame(vec![2.0]), frame(vec![1.0])];
        let err =
            IntervalForecast::new(point, vec![0.8, 0.95], lower, upper, IntervalSource::Native);
        assert!(err.is_err());
    }

    #[test]
    fn invalid_levels_are_rejected() {
        let point = frame(vec![0.0]);
        let band = vec![frame(vec![0.0])];
        for levels in [vec![], vec![0.0], vec![1.0], vec![0.9, 0.8]] {
            let r = IntervalForecast::new(
                point.clone(),
                levels,
                band.clone(),
                band.clone(),
                IntervalSource::Native,
            );
            assert!(r.is_err());
        }
        // zero-width bands at a valid level are fine (degenerate but legal)
        assert!(IntervalForecast::new(
            point,
            vec![0.8],
            band.clone(),
            band,
            IntervalSource::Native
        )
        .is_ok());
    }

    struct Flat {
        value: f64,
        n: usize,
    }

    impl Forecaster for Flat {
        fn fit(&mut self, _frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
            Ok(())
        }
        fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
            Ok(TimeSeriesFrame::from_columns(vec![
                vec![self.value; horizon];
                self.n
            ]))
        }
        fn name(&self) -> String {
            "flat".into()
        }
        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(Flat {
                value: self.value,
                n: self.n,
            })
        }
    }

    #[test]
    fn default_predict_interval_refuses() {
        let f = Flat { value: 1.0, n: 1 };
        assert!(f.predict_interval(3, &DEFAULT_LEVELS).is_err());
    }

    #[test]
    fn conformal_fallback_wraps_point_forecast() {
        let f = Flat { value: 5.0, n: 1 };
        // calibration truth 5 ± {0, 1, 2, 3}: residuals 0..3
        let calib = frame(vec![5.0, 6.0, 7.0, 8.0]);
        let cal = ConformalCalibration::calibrate(&f, &calib).unwrap();
        let iv = predict_interval_or_conformal(&f, 4, &DEFAULT_LEVELS, Some(&cal)).unwrap();
        assert_eq!(iv.source(), IntervalSource::Conformal);
        assert_eq!(iv.horizon(), 4);
        let (lo, hi) = iv.band(1).unwrap();
        // 95%: rank ceil(5 * .95) = 5 clamped to 4 → widest residual 3
        assert_eq!(lo.series(0)[0], 2.0);
        assert_eq!(hi.series(0)[0], 8.0);
    }

    #[test]
    fn no_native_no_calibration_is_an_error() {
        let f = Flat { value: 1.0, n: 1 };
        assert!(predict_interval_or_conformal(&f, 3, &DEFAULT_LEVELS, None).is_err());
    }

    #[test]
    fn calibrate_refuses_empty_holdout() {
        let f = Flat { value: 1.0, n: 1 };
        assert!(ConformalCalibration::calibrate(&f, &frame(vec![])).is_none());
    }
}
