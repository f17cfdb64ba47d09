//! Baseline forecasters: Zero Model, seasonal naive, and Theta.
//!
//! §4: "the system trains a basic model; the *Zero Model* … almost
//! immediately provides us with a baseline model that is available for use.
//! The Zero Model simply outputs the most recent value of a time series as
//! the next prediction. For prediction horizons greater than 1 the most
//! recent value is repeated."

use crate::FitError;

/// The paper's Zero Model: repeat the last observed value.
#[derive(Debug, Clone, Default)]
pub struct ZeroModel {
    last: f64,
    /// One-step difference variance (random-walk innovation variance),
    /// the basis of the model's native prediction intervals.
    diff_var: f64,
    fitted: bool,
}

impl ZeroModel {
    /// New unfitted model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the most recent value of the series.
    pub fn fit(&mut self, series: &[f64]) -> Result<(), FitError> {
        let last = series
            .last()
            .copied()
            .ok_or_else(|| FitError::new("empty series"))?;
        self.last = last;
        // random-walk innovation variance from one-step differences
        // (finite pairs only); a single observation leaves zero width
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for w in series.windows(2) {
            if let [a, b] = w {
                let d = b - a;
                if d.is_finite() {
                    sum += d * d;
                    pairs += 1;
                }
            }
        }
        self.diff_var = if pairs > 0 { sum / pairs as f64 } else { 0.0 };
        self.fitted = true;
        Ok(())
    }

    /// Repeat the last value `horizon` times.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        assert!(self.fitted, "ZeroModel::forecast before fit");
        vec![self.last; horizon]
    }

    /// Variance of the h-step-ahead forecast under the model's implied
    /// random walk: the one-step difference variance accumulated over `h`
    /// steps. Always finite for fitted models — the Zero Model is the
    /// degradation ladder's floor and its intervals must never fail.
    pub fn forecast_variance(&self, horizon: usize) -> Vec<f64> {
        assert!(self.fitted, "ZeroModel::forecast_variance before fit");
        (1..=horizon).map(|h| self.diff_var * h as f64).collect()
    }
}

/// Seasonal naive: repeat the value from one season ago; falls back to the
/// Zero Model when the series is shorter than the period.
#[derive(Debug, Clone)]
pub struct SeasonalNaive {
    period: usize,
    tail: Vec<f64>,
}

impl SeasonalNaive {
    /// New model with the given seasonal period (>= 1).
    pub fn new(period: usize) -> Self {
        assert!(period >= 1, "seasonal period must be >= 1");
        Self {
            period,
            tail: Vec::new(),
        }
    }

    /// The configured seasonal period.
    pub fn period(&self) -> usize {
        self.period
    }

    /// Store the trailing season of the series.
    pub fn fit(&mut self, series: &[f64]) -> Result<(), FitError> {
        if series.is_empty() {
            return Err(FitError::new("empty series"));
        }
        let take = self.period.min(series.len());
        let start = series.len().saturating_sub(take);
        self.tail = series.get(start..).unwrap_or_default().to_vec();
        Ok(())
    }

    /// Cycle through the stored season.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        assert!(!self.tail.is_empty(), "SeasonalNaive::forecast before fit");
        self.tail.iter().copied().cycle().take(horizon).collect()
    }
}

/// Theta method (Assimakopoulos & Nikolopoulos), the M3 competition winner:
/// average of a linear-trend extrapolation (theta = 0 line) and simple
/// exponential smoothing of the theta = 2 line.
#[derive(Debug, Clone, Default)]
pub struct ThetaModel {
    /// Trend line coefficients (intercept, slope) in time index units.
    trend: (f64, f64),
    /// SES level of the theta=2 line at the end of training.
    ses_level: f64,
    /// SES smoothing constant chosen by grid search.
    alpha: f64,
    n: usize,
    fitted: bool,
}

impl ThetaModel {
    /// New unfitted model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fit trend + SES components.
    pub fn fit(&mut self, series: &[f64]) -> Result<(), FitError> {
        if series.len() < 3 {
            return Err(FitError::new("theta method needs at least 3 points"));
        }
        let t: Vec<f64> = (0..series.len()).map(|i| i as f64).collect();
        let (a, b) = autoai_linalg::simple_linreg(&t, series);
        self.trend = (a, b);
        // theta = 2 line: 2*x - trend
        let theta2: Vec<f64> = series
            .iter()
            .enumerate()
            .map(|(i, &x)| 2.0 * x - (a + b * i as f64))
            .collect();
        // SES with alpha grid search on one-step SSE
        let first_theta = theta2.first().copied().unwrap_or(0.0);
        let mut best = (0.3, f64::INFINITY, first_theta);
        for k in 1..=19 {
            let alpha = k as f64 * 0.05;
            let mut level = first_theta;
            let mut sse = 0.0;
            for &x in theta2.iter().skip(1) {
                let e = x - level;
                sse += e * e;
                level += alpha * e;
            }
            if sse < best.1 {
                best = (alpha, sse, level);
            }
        }
        self.alpha = best.0;
        self.ses_level = best.2;
        self.n = series.len();
        self.fitted = true;
        Ok(())
    }

    /// The SES smoothing constant selected by the last fit.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Warm-restart fit for the `fit_incremental` protocol.
    ///
    /// Theta has no extendable optimizer state: the θ=2 line depends on the
    /// trend regression over the *whole* series, so appending (or, under
    /// reverse allocation, prepending) data invalidates every intermediate
    /// SES level — and the α SSE surface is multi-modal enough that a local
    /// hill-climb from `seed_alpha` can land on a different grid point than
    /// the cold sweep, which would silently reorder T-Daub rankings. The
    /// grid is only nineteen candidates, so the seeded restart re-sweeps it
    /// in full, in the exact iteration order and tie-break of [`Self::fit`]:
    /// the result is **bit-identical** to a cold fit (tier-1 warm-start
    /// contract), and the warm-start win for Theta lives at the pipeline
    /// layer (fingerprint-verified lineage, no transform rebuild) rather
    /// than in the model fit itself.
    pub fn fit_seeded(&mut self, series: &[f64], seed_alpha: f64) -> Result<(), FitError> {
        // the seed can only confirm what the cheap full sweep establishes;
        // it is accepted for API symmetry with the other seeded restarts
        let _ = seed_alpha;
        self.fit(series)
    }

    /// Average the extrapolated trend line and the flat SES forecast.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        assert!(self.fitted, "ThetaModel::forecast before fit");
        let (a, b) = self.trend;
        (0..horizon)
            .map(|h| {
                let t = (self.n + h) as f64;
                let theta0 = a + b * t;
                0.5 * (theta0 + self.ses_level)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_seeded_is_bitwise_identical_to_cold_from_any_seed() {
        // tier-1 warm-start contract: the seeded restart must match the
        // cold fit to the last bit regardless of the seed's quality
        let y: Vec<f64> = (0..60)
            .map(|i| 10.0 + 0.5 * i as f64 + (i % 7) as f64)
            .collect();
        let mut cold = ThetaModel::new();
        cold.fit(&y).unwrap();
        for seed in [0.0, 0.05, 0.3, 0.77, 1.0, 2.5, cold.alpha()] {
            let mut warm = ThetaModel::new();
            warm.fit_seeded(&y, seed).unwrap();
            assert_eq!(warm.alpha(), cold.alpha(), "seed {seed}");
            assert!(
                warm.alpha() > 0.04 && warm.alpha() < 0.96,
                "{}",
                warm.alpha()
            );
            for (a, b) in warm.forecast(5).iter().zip(&cold.forecast(5)) {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn zero_model_repeats_last() {
        let mut m = ZeroModel::new();
        m.fit(&[1.0, 2.0, 7.0]).unwrap();
        assert_eq!(m.forecast(3), vec![7.0, 7.0, 7.0]);
    }

    #[test]
    fn zero_model_rejects_empty() {
        assert!(ZeroModel::new().fit(&[]).is_err());
    }

    #[test]
    fn seasonal_naive_cycles() {
        let mut m = SeasonalNaive::new(3);
        m.fit(&[9.0, 9.0, 9.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.forecast(5), vec![1.0, 2.0, 3.0, 1.0, 2.0]);
    }

    #[test]
    fn seasonal_naive_short_series_fallback() {
        let mut m = SeasonalNaive::new(10);
        m.fit(&[4.0, 5.0]).unwrap();
        assert_eq!(m.forecast(3), vec![4.0, 5.0, 4.0]);
    }

    #[test]
    fn theta_tracks_linear_trend() {
        let series: Vec<f64> = (0..50).map(|i| 3.0 + 2.0 * i as f64).collect();
        let mut m = ThetaModel::new();
        m.fit(&series).unwrap();
        let f = m.forecast(5);
        // on a pure line, theta forecast ~ halfway between flat SES and trend,
        // still increasing and close to the trend continuation
        for (h, &v) in f.iter().enumerate() {
            let truth = 3.0 + 2.0 * (50 + h) as f64;
            assert!(
                (v - truth).abs() < 0.55 * truth,
                "h={h} v={v} truth={truth}"
            );
        }
        assert!(f[4] > f[0]);
    }

    #[test]
    fn theta_needs_three_points() {
        assert!(ThetaModel::new().fit(&[1.0, 2.0]).is_err());
    }
}
