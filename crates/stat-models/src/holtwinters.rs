//! Holt-Winters exponential smoothing (simple, linear-trend, and triple /
//! seasonal in additive and multiplicative flavors).
//!
//! The paper lists "Additive and Multiplicative Triple Exponential
//! Smoothing also known as Holt-winters" among its core statistical
//! pipelines (HW-Additive / HW-Multiplicative in Table 6). Smoothing
//! constants `(α, β, γ)` are chosen automatically by Nelder–Mead on the
//! one-step-ahead sum of squared errors, with a sigmoid reparameterization
//! keeping them in (0, 1).
//!
//! Two warm-start paths support T-Daub's incremental layer: [`HoltWinters::
//! fit_seeded_with_deadline`] restarts the constant search from a previous fit's
//! unconstrained optimum, and [`HoltWinters::extend`] re-runs the smoothing
//! recursion only over appended rows from the carried `(level, trend,
//! seasonals)` state — bit-identical to recursing over the concatenation at
//! the same constants, because the update is a left-to-right fold.

use std::time::Instant;

use autoai_linalg::{nelder_mead, NelderMeadOptions};

use crate::FitError;

/// Seasonal structure of a Holt-Winters model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seasonality {
    /// No seasonal component (Holt's linear trend method).
    None,
    /// Additive seasonality with the given period.
    Additive(usize),
    /// Multiplicative seasonality with the given period.
    Multiplicative(usize),
}

impl Seasonality {
    fn period(self) -> usize {
        match self {
            Seasonality::None => 0,
            Seasonality::Additive(m) | Seasonality::Multiplicative(m) => m,
        }
    }
}

/// A fitted Holt-Winters model.
#[derive(Debug, Clone)]
pub struct HoltWinters {
    /// Seasonal structure.
    pub seasonality: Seasonality,
    /// Level smoothing constant.
    pub alpha: f64,
    /// Trend smoothing constant.
    pub beta: f64,
    /// Seasonal smoothing constant.
    pub gamma: f64,
    /// Final level state.
    level: f64,
    /// Final trend state.
    trend: f64,
    /// Final seasonal indices (empty when non-seasonal).
    seasonals: Vec<f64>,
    /// One-step SSE of the optimized fit.
    pub sse: f64,
    /// True when the smoothing-constant search stopped early because a fit
    /// deadline expired; the model holds the best parameters found so far.
    pub timed_out: bool,
    n: usize,
    /// Optimized smoothing constants in the unconstrained (pre-sigmoid)
    /// space; seeds warm-started refits.
    raw: [f64; 3],
}

fn sigmoid(x: f64) -> f64 {
    // clamped to the open interval so optimized constants never saturate to
    // exactly 0 or 1 in floating point
    (1.0 / (1.0 + (-x).exp())).clamp(1e-4, 1.0 - 1e-4)
}

/// Carried recursion state: one step of the smoothing fold. `run` (full
/// fits) and [`HoltWinters::extend`] (appended-rows warm starts) share this
/// exact code path, so an extension replays the identical floating-point
/// operations a full recursion would perform.
struct HwState {
    level: f64,
    trend: f64,
    seasonals: Vec<f64>,
    sse: f64,
}

impl HwState {
    /// Initial states from the first season (or first two samples).
    fn init(series: &[f64], seasonality: Seasonality) -> Option<Self> {
        let m = seasonality.period();
        if m > 0 {
            let s1 = series.get(..m)?;
            let s2 = series.get(m..2 * m)?;
            let m1 = autoai_linalg::mean(s1);
            let m2 = autoai_linalg::mean(s2);
            let seasonals: Vec<f64> = match seasonality {
                Seasonality::Additive(_) => s1.iter().map(|&v| v - m1).collect(),
                Seasonality::Multiplicative(_) => {
                    if m1.abs() < 1e-12 {
                        return None;
                    }
                    s1.iter().map(|&v| v / m1).collect()
                }
                Seasonality::None => return None, // m == 0 for Seasonality::None
            };
            Some(Self {
                level: m1,
                trend: (m2 - m1) / m as f64,
                seasonals,
                sse: 0.0,
            })
        } else {
            let (&x0, &x1) = (series.first()?, series.get(1)?);
            Some(Self {
                level: x0,
                trend: x1 - x0,
                seasonals: Vec::new(),
                sse: 0.0,
            })
        }
    }

    /// One smoothing update for sample `x` at global index `t`. Returns
    /// `None` when the state diverges (multiplicative models on bad data).
    fn step(
        &mut self,
        seasonality: Seasonality,
        alpha: f64,
        beta: f64,
        gamma: f64,
        t: usize,
        x: f64,
    ) -> Option<()> {
        let m = seasonality.period();
        let season = if m > 0 {
            self.seasonals.get(t % m).copied()?
        } else {
            0.0
        };
        let (fitted, deseason) = match seasonality {
            Seasonality::None => (self.level + self.trend, x),
            Seasonality::Additive(_) => (self.level + self.trend + season, x - season),
            Seasonality::Multiplicative(_) => {
                if season.abs() < 1e-9 {
                    return None;
                }
                ((self.level + self.trend) * season, x / season)
            }
        };
        let err = x - fitted;
        self.sse += err * err;
        if !self.sse.is_finite() {
            return None;
        }
        let prev_level = self.level;
        self.level = alpha * deseason + (1.0 - alpha) * (self.level + self.trend);
        self.trend = beta * (self.level - prev_level) + (1.0 - beta) * self.trend;
        if m > 0 {
            let updated = match seasonality {
                Seasonality::Additive(_) => gamma * (x - self.level) + (1.0 - gamma) * season,
                Seasonality::Multiplicative(_) => {
                    if self.level.abs() < 1e-12 {
                        return None;
                    }
                    gamma * (x / self.level) + (1.0 - gamma) * season
                }
                Seasonality::None => 0.0,
            };
            *self.seasonals.get_mut(t % m)? = updated;
        }
        Some(())
    }
}

impl HoltWinters {
    /// Fit a Holt-Winters model, optimizing `(α, β, γ)` on one-step SSE.
    pub fn fit(series: &[f64], seasonality: Seasonality) -> Result<Self, FitError> {
        // raw 0 → 0.5; start from moderate smoothing
        Self::fit_from(series, seasonality, [-1.0, -2.0, -1.0], None)
    }

    /// [`HoltWinters::fit`] with a cooperative hard stop: once `deadline`
    /// passes, the constant search exits at the best parameters found so far
    /// and the returned model carries `timed_out == true`. The smoothing
    /// recursion itself (linear in the series) always completes, so the
    /// model is usable — just potentially sub-optimally tuned.
    pub fn fit_with_deadline(
        series: &[f64],
        seasonality: Seasonality,
        deadline: Option<Instant>,
    ) -> Result<Self, FitError> {
        Self::fit_from(series, seasonality, [-1.0, -2.0, -1.0], deadline)
    }

    /// Warm-started fit: restart the smoothing-constant search from the
    /// unconstrained optimum of a previous fit on overlapping data. The
    /// result is a fully re-optimized fit of `series` (not a state
    /// carry-over), so fit quality matches a cold [`HoltWinters::fit`];
    /// only the optimizer's path to the optimum is shortened. A seed with a
    /// different seasonal structure falls back to the cold start. See
    /// [`HoltWinters::fit_with_deadline`] for the timeout semantics.
    pub fn fit_seeded_with_deadline(
        series: &[f64],
        seasonality: Seasonality,
        seed: &HoltWinters,
        deadline: Option<Instant>,
    ) -> Result<Self, FitError> {
        if seed.seasonality != seasonality {
            return Self::fit_with_deadline(series, seasonality, deadline);
        }
        Self::fit_from(series, seasonality, seed.raw, deadline)
    }

    fn fit_from(
        series: &[f64],
        seasonality: Seasonality,
        init: [f64; 3],
        deadline: Option<Instant>,
    ) -> Result<Self, FitError> {
        let m = seasonality.period();
        let min_len = if m > 0 { 2 * m + 2 } else { 4 };
        if series.len() < min_len {
            return Err(FitError::new(format!(
                "series too short for Holt-Winters: {} < {}",
                series.len(),
                min_len
            )));
        }
        if series.iter().any(|v| !v.is_finite()) {
            return Err(FitError::new("series contains non-finite values"));
        }
        if matches!(seasonality, Seasonality::Multiplicative(_)) && series.iter().any(|&v| v <= 0.0)
        {
            return Err(FitError::new(
                "multiplicative Holt-Winters requires strictly positive data",
            ));
        }

        // optimize in unconstrained space via sigmoid
        let objective = |raw: &[f64]| -> f64 {
            let [a, b, g] = match raw {
                &[a, b, g] => [sigmoid(a), sigmoid(b), sigmoid(g)],
                _ => return f64::INFINITY,
            };
            match Self::run(series, seasonality, a, b, g) {
                Some((_, _, _, sse)) => sse,
                None => f64::INFINITY,
            }
        };
        let opts = NelderMeadOptions {
            max_evals: 1500,
            deadline,
            ..Default::default()
        };
        let (raw, _, timed_out) = nelder_mead(objective, &init, &opts);
        let raw: [f64; 3] = raw.try_into().unwrap_or(init);
        let [alpha, beta, gamma] = [sigmoid(raw[0]), sigmoid(raw[1]), sigmoid(raw[2])]; // tscheck:allow(strict-index): fixed-size array destructured with literal in-bounds indices
        let (level, trend, seasonals, sse) = Self::run(series, seasonality, alpha, beta, gamma)
            .ok_or_else(|| FitError::new("Holt-Winters recursion diverged"))?;

        Ok(Self {
            seasonality,
            alpha,
            beta,
            gamma,
            level,
            trend,
            seasonals,
            sse,
            timed_out,
            n: series.len(),
            raw,
        })
    }

    /// Run the smoothing recursion; returns `(level, trend, seasonals, sse)`
    /// or `None` if the state diverges (multiplicative models on bad data).
    fn run(
        series: &[f64],
        seasonality: Seasonality,
        alpha: f64,
        beta: f64,
        gamma: f64,
    ) -> Option<(f64, f64, Vec<f64>, f64)> {
        let m = seasonality.period();
        let mut state = HwState::init(series, seasonality)?;
        let start = if m > 0 { m } else { 1 };
        for (t, &x) in series.iter().enumerate().skip(start) {
            state.step(seasonality, alpha, beta, gamma, t, x)?;
        }
        Some((state.level, state.trend, state.seasonals, state.sse))
    }

    /// Continue the smoothing recursion over `appended` rows from the
    /// carried `(level, trend, seasonals)` state, keeping the fitted
    /// smoothing constants. Because the recursion is a left-to-right fold
    /// sharing [`HwState::step`] with full fits, the resulting state is
    /// bit-identical to re-running the recursion over the concatenated
    /// series at the same constants; a full `fit` would additionally
    /// re-optimize the constants, which [`HoltWinters::fit_seeded_with_deadline`] covers.
    ///
    /// On error the model's state is unspecified — callers should discard
    /// the model and fall back to a full fit.
    pub fn extend(&mut self, appended: &[f64]) -> Result<(), FitError> {
        if appended.iter().any(|v| !v.is_finite()) {
            return Err(FitError::new("appended rows contain non-finite values"));
        }
        if matches!(self.seasonality, Seasonality::Multiplicative(_))
            && appended.iter().any(|&v| v <= 0.0)
        {
            return Err(FitError::new(
                "multiplicative Holt-Winters requires strictly positive data",
            ));
        }
        let mut state = HwState {
            level: self.level,
            trend: self.trend,
            seasonals: std::mem::take(&mut self.seasonals),
            sse: self.sse,
        };
        for (i, &x) in appended.iter().enumerate() {
            if state
                .step(
                    self.seasonality,
                    self.alpha,
                    self.beta,
                    self.gamma,
                    self.n + i,
                    x,
                )
                .is_none()
            {
                return Err(FitError::new(
                    "Holt-Winters recursion diverged during extension",
                ));
            }
        }
        self.level = state.level;
        self.trend = state.trend;
        self.seasonals = state.seasonals;
        self.sse = state.sse;
        self.n += appended.len();
        Ok(())
    }

    /// Number of samples the model's recursion state has absorbed.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the model has absorbed no samples (never for fitted models).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forecast `horizon` values ahead of the training data.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        let m = self.seasonality.period();
        (1..=horizon)
            .map(|h| {
                let base = self.level + self.trend * h as f64;
                if m == 0 {
                    base
                } else {
                    let season = self
                        .seasonals
                        .get((self.n + h - 1) % m)
                        .copied()
                        .unwrap_or_default();
                    match self.seasonality {
                        Seasonality::Additive(_) => base + season,
                        Seasonality::Multiplicative(_) => base * season,
                        Seasonality::None => base,
                    }
                }
            })
            .collect()
    }

    /// In-sample one-step residual variance: the recursion's SSE over the
    /// number of smoothing steps (the recursion starts after the initial
    /// season, or after the first sample for non-seasonal fits).
    pub fn resid_variance(&self) -> f64 {
        let start = self.seasonality.period().max(1);
        let steps = self.n.saturating_sub(start);
        if steps == 0 {
            return 0.0;
        }
        let v = self.sse / steps as f64;
        if v.is_finite() {
            v.max(0.0)
        } else {
            0.0
        }
    }

    /// Approximate variance of the h-step-ahead forecast for
    /// `h = 1..=horizon`, using the additive-error state-space formula
    /// (Hyndman et al., *Forecasting with Exponential Smoothing*):
    /// `var(h) = σ²·(1 + Σ_{j=1}^{h−1} c_j²)` with
    /// `c_j = α(1 + jβ) + γ(1−α)·1{j ≡ 0 mod m}`. Multiplicative seasonality
    /// reuses the additive approximation (the conventional fallback).
    pub fn forecast_variance(&self, horizon: usize) -> Vec<f64> {
        let s2 = self.resid_variance();
        let m = self.seasonality.period();
        let mut acc = 1.0;
        (1..=horizon)
            .map(|h| {
                if h > 1 {
                    let j = (h - 1) as f64;
                    let seasonal = if m > 0 && (h - 1) % m == 0 {
                        self.gamma * (1.0 - self.alpha)
                    } else {
                        0.0
                    };
                    let cj = self.alpha * (1.0 + j * self.beta) + seasonal;
                    acc += cj * cj;
                }
                s2 * acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holt_linear_tracks_trend() {
        let series: Vec<f64> = (0..60).map(|i| 10.0 + 1.5 * i as f64).collect();
        let m = HoltWinters::fit(&series, Seasonality::None).unwrap();
        let f = m.forecast(4);
        for (h, &v) in f.iter().enumerate() {
            let truth = 10.0 + 1.5 * (60 + h) as f64;
            assert!((v - truth).abs() < 1.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn additive_seasonal_signal_recovered() {
        let pattern = [5.0, -2.0, -8.0, 5.0];
        let series: Vec<f64> = (0..80).map(|i| 20.0 + pattern[i % 4]).collect();
        let m = HoltWinters::fit(&series, Seasonality::Additive(4)).unwrap();
        let f = m.forecast(8);
        for (h, &v) in f.iter().enumerate() {
            let truth = 20.0 + pattern[(80 + h) % 4];
            assert!((v - truth).abs() < 0.5, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn multiplicative_seasonal_with_growth() {
        let pattern = [1.2, 0.8, 1.0, 1.0];
        let series: Vec<f64> = (0..120)
            .map(|i| (50.0 + 0.5 * i as f64) * pattern[i % 4])
            .collect();
        let m = HoltWinters::fit(&series, Seasonality::Multiplicative(4)).unwrap();
        let f = m.forecast(8);
        for (h, &v) in f.iter().enumerate() {
            let truth = (50.0 + 0.5 * (120 + h) as f64) * pattern[(120 + h) % 4];
            assert!((v - truth).abs() / truth < 0.1, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn multiplicative_rejects_nonpositive() {
        let series = vec![1.0, -1.0, 2.0, 3.0, 1.0, -1.0, 2.0, 3.0, 1.0, -1.0];
        assert!(HoltWinters::fit(&series, Seasonality::Multiplicative(4)).is_err());
    }

    #[test]
    fn too_short_rejected() {
        assert!(HoltWinters::fit(&[1.0, 2.0, 3.0], Seasonality::Additive(4)).is_err());
        assert!(HoltWinters::fit(&[1.0, 2.0], Seasonality::None).is_err());
    }

    #[test]
    fn smoothing_constants_in_unit_interval() {
        let series: Vec<f64> = (0..50)
            .map(|i| (i as f64 * 0.3).sin() * 5.0 + 10.0)
            .collect();
        let m = HoltWinters::fit(&series, Seasonality::None).unwrap();
        assert!(m.alpha > 0.0 && m.alpha < 1.0);
        assert!(m.beta > 0.0 && m.beta < 1.0);
    }

    #[test]
    fn constant_series_forecasts_constant() {
        let series = vec![7.0; 30];
        let m = HoltWinters::fit(&series, Seasonality::None).unwrap();
        let f = m.forecast(5);
        for v in f {
            assert!((v - 7.0).abs() < 1e-6, "{v}");
        }
    }

    #[test]
    fn extend_matches_full_recursion_bitwise() {
        let pattern = [5.0, -2.0, -8.0, 5.0];
        let series: Vec<f64> = (0..120)
            .map(|i| 20.0 + 0.05 * i as f64 + pattern[i % 4])
            .collect();
        let mut warm = HoltWinters::fit(&series[..90], Seasonality::Additive(4)).unwrap();
        warm.extend(&series[90..]).unwrap();
        // same constants, full recursion from scratch: every carried state
        // component must agree to the bit
        let (level, trend, seasonals, sse) = HoltWinters::run(
            &series,
            Seasonality::Additive(4),
            warm.alpha,
            warm.beta,
            warm.gamma,
        )
        .unwrap();
        assert_eq!(warm.level.to_bits(), level.to_bits());
        assert_eq!(warm.trend.to_bits(), trend.to_bits());
        assert_eq!(warm.sse.to_bits(), sse.to_bits());
        assert_eq!(warm.seasonals.len(), seasonals.len());
        for (a, b) in warm.seasonals.iter().zip(&seasonals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(warm.len(), 120);
    }

    #[test]
    fn extend_without_seasonality_matches_full_recursion_bitwise() {
        let series: Vec<f64> = (0..60).map(|i| 10.0 + 1.5 * i as f64).collect();
        let mut warm = HoltWinters::fit(&series[..40], Seasonality::None).unwrap();
        warm.extend(&series[40..]).unwrap();
        let (level, trend, _, sse) = HoltWinters::run(
            &series,
            Seasonality::None,
            warm.alpha,
            warm.beta,
            warm.gamma,
        )
        .unwrap();
        assert_eq!(warm.level.to_bits(), level.to_bits());
        assert_eq!(warm.trend.to_bits(), trend.to_bits());
        assert_eq!(warm.sse.to_bits(), sse.to_bits());
    }

    #[test]
    fn seeded_fit_matches_cold_fit_quality() {
        let pattern = [5.0, -2.0, -8.0, 5.0];
        let series: Vec<f64> = (0..100)
            .map(|i| 20.0 + 0.1 * i as f64 + pattern[i % 4])
            .collect();
        let seed = HoltWinters::fit(&series[..70], Seasonality::Additive(4)).unwrap();
        let warm =
            HoltWinters::fit_seeded_with_deadline(&series, Seasonality::Additive(4), &seed, None)
                .unwrap();
        let cold = HoltWinters::fit(&series, Seasonality::Additive(4)).unwrap();
        assert!(warm.sse.is_finite() && cold.sse.is_finite());
        // both start from near-optimal regions; the warm fit must not lose
        // measurable quality to the cold reference
        assert!(
            warm.sse <= cold.sse * 1.05 + 1e-9,
            "warm {} vs cold {}",
            warm.sse,
            cold.sse
        );
    }

    #[test]
    fn expired_deadline_still_yields_a_usable_model() {
        let pattern = [5.0, -2.0, -8.0, 5.0];
        let series: Vec<f64> = (0..80).map(|i| 20.0 + pattern[i % 4]).collect();
        let m = HoltWinters::fit_with_deadline(
            &series,
            Seasonality::Additive(4),
            Some(Instant::now() - std::time::Duration::from_secs(1)),
        )
        .unwrap();
        assert!(m.timed_out);
        assert!(m.sse.is_finite());
        assert!(m.forecast(4).iter().all(|v| v.is_finite()));
        // a generous deadline never trips the flag
        let far = Instant::now() + std::time::Duration::from_secs(600);
        let full =
            HoltWinters::fit_with_deadline(&series, Seasonality::Additive(4), Some(far)).unwrap();
        assert!(!full.timed_out);
    }

    #[test]
    fn seeded_fit_with_mismatched_seasonality_falls_back_to_cold() {
        let series: Vec<f64> = (0..60).map(|i| 10.0 + 1.5 * i as f64).collect();
        let seed = HoltWinters::fit(&series[..40], Seasonality::None).unwrap();
        let warm =
            HoltWinters::fit_seeded_with_deadline(&series, Seasonality::Additive(4), &seed, None)
                .unwrap();
        assert_eq!(warm.seasonality, Seasonality::Additive(4));
    }
}
