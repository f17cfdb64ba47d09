//! ARIMA / seasonal ARIMA fitted by conditional sum of squares (CSS).
//!
//! The model is `(1 - Σ φ_i B^{l_i}) (Δ^d Δ_m^D x_t - μ) = (1 + Σ θ_j B^{l_j}) e_t`
//! where seasonal AR/MA terms enter as *additive* lags at multiples of the
//! seasonal period `m` (a subset-ARIMA approximation of the multiplicative
//! polynomial — standard in lightweight implementations and adequate for the
//! paper's default orders `p,q ≤ 3, P,Q ≤ 1`). Coefficients are initialized
//! with an OLS lag regression (Hannan–Rissanen style) and refined by
//! Nelder–Mead on the CSS objective. Order selection in [`auto_arima`]
//! mirrors pmdarima's stepwise search with AICc ranking, the configuration
//! the paper benchmarks (Table 3: `start_p=1, start_q=1, max_p=3, max_q=3,
//! m=12, seasonal=True, d=1, D=1`).
//!
//! Cost structure. Every order fit minimizes the CSS objective with
//! Nelder–Mead, one point per call, through a [`CssObjective`] that owns
//! the differenced series and one residual buffer, so an evaluation
//! allocates nothing; its AR terms vectorize across the series and only
//! the MA recursion runs step by step. The arithmetic keeps the plain
//! one-loop recursion's order, so SSEs and residuals are bit-identical to
//! it. Each hill-climb step fits its (up to four) neighbouring orders side
//! by side on the shared worker pool (`parallel_try_map_range`). The
//! serial walk moves to the first improving neighbour in candidate order;
//! the fan-out keeps that rule by merging in candidate order and by
//! skipping neighbours after one already known to improve, and an order
//! the walk has already scored is never fitted again (it cannot beat a
//! later bar). Selections are therefore bit-identical to a serial walk
//! that refits every neighbour.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use autoai_linalg::{lstsq, nelder_mead, parallel_try_map_range, Matrix, NelderMeadOptions};

use crate::FitError;

/// Seasonal part of an ARIMA specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeasonalSpec {
    /// Seasonal AR order.
    pub p: usize,
    /// Seasonal differencing order.
    pub d: usize,
    /// Seasonal MA order.
    pub q: usize,
    /// Seasonal period in samples (m >= 2).
    pub m: usize,
}

/// Full ARIMA order specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArimaSpec {
    /// Non-seasonal AR order.
    pub p: usize,
    /// Non-seasonal differencing order.
    pub d: usize,
    /// Non-seasonal MA order.
    pub q: usize,
    /// Optional seasonal component.
    pub seasonal: Option<SeasonalSpec>,
}

impl ArimaSpec {
    /// Plain `ARIMA(p, d, q)`.
    pub fn new(p: usize, d: usize, q: usize) -> Self {
        Self {
            p,
            d,
            q,
            seasonal: None,
        }
    }

    /// `ARIMA(p,d,q)(P,D,Q)_m`.
    pub fn seasonal(
        p: usize,
        d: usize,
        q: usize,
        sp: usize,
        sd: usize,
        sq: usize,
        m: usize,
    ) -> Self {
        Self {
            p,
            d,
            q,
            seasonal: Some(SeasonalSpec {
                p: sp,
                d: sd,
                q: sq,
                m,
            }),
        }
    }

    fn ar_lags(&self) -> Vec<usize> {
        let mut lags: Vec<usize> = (1..=self.p).collect();
        if let Some(s) = self.seasonal {
            lags.extend((1..=s.p).map(|k| k * s.m));
        }
        lags.sort_unstable();
        lags.dedup();
        lags
    }

    fn ma_lags(&self) -> Vec<usize> {
        let mut lags: Vec<usize> = (1..=self.q).collect();
        if let Some(s) = self.seasonal {
            lags.extend((1..=s.q).map(|k| k * s.m));
        }
        lags.sort_unstable();
        lags.dedup();
        lags
    }

    /// Number of estimated coefficients (AR + MA + intercept).
    pub fn k_params(&self) -> usize {
        self.ar_lags().len() + self.ma_lags().len() + 1
    }
}

/// Difference a series at `lag`, `times` times.
fn difference(x: &[f64], lag: usize, times: usize) -> Vec<f64> {
    let mut cur = x.to_vec();
    for _ in 0..times {
        if cur.len() <= lag {
            return Vec::new();
        }
        cur = cur
            .iter()
            .zip(cur.iter().skip(lag))
            .map(|(prev, next)| next - prev)
            .collect();
    }
    cur
}

/// The conditional-sum-of-squares objective of one ARIMA specification on
/// one series: the mean-centred differenced series, the specification's
/// lag sets and one residual buffer, sized once and reused by every
/// evaluation, so an evaluation allocates nothing.
///
/// The AR part of every step's prediction is accumulated lag by lag over
/// the whole series into the residual buffer, one stride-1 loop per lag
/// that vectorizes. The MA part reads earlier residuals, so it then runs
/// step by step; only the first `max_lag` steps check that a lag reaches
/// back into the series, and the lag-1 residual stays in a register. A
/// pure-AR specification needs no step-by-step loop but the SSE sum. Each
/// step still adds `0.0 + c₁w + c₂w + …` in lag order, then its MA terms in
/// lag order, so every SSE and residual has the bits of the plain one-loop
/// recursion.
#[derive(Debug, Clone)]
pub struct CssObjective {
    /// Mean-centred differenced series.
    wc: Vec<f64>,
    /// Mean of the differenced series.
    mean: f64,
    ar_lags: Vec<usize>,
    ma_lags: Vec<usize>,
    /// Largest AR or MA lag; steps before it do not count towards the SSE.
    max_lag: usize,
    /// Residuals of the last evaluated point; between the AR and MA passes
    /// each slot holds the step's AR prediction.
    e: Vec<f64>,
}

impl CssObjective {
    /// The objective of `spec` on `series`: seasonal differencing first,
    /// then regular, then centring on the mean.
    pub fn new(series: &[f64], spec: ArimaSpec) -> Self {
        let mut w = series.to_vec();
        if let Some(s) = spec.seasonal {
            w = difference(&w, s.m, s.d);
        }
        w = difference(&w, 1, spec.d);
        let mean = autoai_linalg::mean(&w);
        let wc: Vec<f64> = w.iter().map(|v| v - mean).collect();
        let ar_lags = spec.ar_lags();
        let ma_lags = spec.ma_lags();
        let max_lag = ar_lags.iter().chain(&ma_lags).copied().max().unwrap_or(0);
        Self {
            e: vec![0.0; wc.len()],
            wc,
            mean,
            ar_lags,
            ma_lags,
            max_lag,
        }
    }

    /// The mean-centred differenced series the recursion runs over.
    pub fn centred(&self) -> &[f64] {
        &self.wc
    }

    /// The SSE at `params` (AR coefficients in lag order, then MA): `+∞`
    /// past the soft stationarity/invertibility guard `|c| > 5` or when the
    /// series is no longer than the largest lag.
    pub fn sse(&mut self, params: &[f64]) -> f64 {
        if params.iter().any(|c| c.abs() > 5.0) {
            return f64::INFINITY;
        }
        let (ar, ma) = params.split_at(self.ar_lags.len().min(params.len()));
        self.run(ar, ma).unwrap_or(f64::INFINITY)
    }

    /// Run the recursion at the given coefficients, leaving the residuals
    /// in `e`; the SSE over the steps from `max_lag` on, or `None` when the
    /// series is no longer than `max_lag`.
    fn run(&mut self, ar: &[f64], ma: &[f64]) -> Option<f64> {
        let Self {
            wc,
            ar_lags,
            ma_lags,
            max_lag,
            e,
            ..
        } = self;
        let (n, max_lag) = (wc.len(), *max_lag);
        if n <= max_lag {
            return None;
        }
        e.clear();
        e.resize(n, 0.0);
        // AR: step t gains c * w[t - l] for every lag l <= t
        for (&l, &c) in ar_lags.iter().zip(ar) {
            if let Some(tail) = e.get_mut(l..) {
                for (pred, &w) in tail.iter_mut().zip(wc.iter()) {
                    *pred += c * w;
                }
            }
        }
        if ma_lags.is_empty() || ma.is_empty() {
            for (et, &w) in e.iter_mut().zip(wc.iter()) {
                *et = w - *et;
            }
            return Some(e.iter().skip(max_lag).fold(0.0, |sse, &et| sse + et * et));
        }
        // MA, step by step: the first max_lag steps skip the lags that
        // reach before the series start
        for (t, &w) in wc.iter().enumerate().take(max_lag) {
            let mut pred = e.get(t).copied().unwrap_or_default();
            for (&l, &c) in ma_lags.iter().zip(ma) {
                match t.checked_sub(l).and_then(|i| e.get(i)) {
                    // a lag-0 term (a seasonal period of 0) reads the step's
                    // own residual before it is written: 0.0
                    Some(_) if l == 0 => pred += c * 0.0,
                    Some(&past) => pred += c * past,
                    None => {}
                }
            }
            if let Some(et) = e.get_mut(t) {
                *et = w - pred;
            }
        }
        // the step's own residual is the next step's lag-1 term: carried in
        // a register, it skips a store-to-load round trip on the chain that
        // serializes the steps
        let mut last = max_lag
            .checked_sub(1)
            .and_then(|i| e.get(i))
            .copied()
            .unwrap_or_default();
        let mut sse = 0.0;
        for (t, &w) in wc.iter().enumerate().skip(max_lag) {
            let mut pred = e.get(t).copied().unwrap_or_default();
            for (&l, &c) in ma_lags.iter().zip(ma) {
                let past = match l {
                    0 => 0.0,
                    1 => last,
                    // t >= max_lag >= l
                    _ => e.get(t - l).copied().unwrap_or_default(),
                };
                pred += c * past;
            }
            let et = w - pred;
            if let Some(slot) = e.get_mut(t) {
                *slot = et;
            }
            last = et;
            sse += et * et;
        }
        Some(sse)
    }
}

/// A fitted ARIMA model.
#[derive(Debug, Clone)]
pub struct Arima {
    /// Orders the model was fitted with.
    pub spec: ArimaSpec,
    ar_lags: Vec<usize>,
    /// Fitted AR coefficients, aligned with `ar_lags`.
    pub ar_coefs: Vec<f64>,
    ma_lags: Vec<usize>,
    /// Fitted MA coefficients, aligned with `ma_lags`.
    pub ma_coefs: Vec<f64>,
    /// Mean of the (differenced) series.
    pub intercept: f64,
    /// Residual variance estimate.
    pub sigma2: f64,
    /// Akaike information criterion (corrected) of the fit.
    pub aic: f64,
    /// True when a fit deadline expired before the CSS search (or, for
    /// `auto_arima`, the order hill climb) converged; the model holds the
    /// best parameters found so far.
    pub timed_out: bool,
    /// Differenced training series (CSS recursion state).
    w: Vec<f64>,
    /// In-sample residuals of the differenced series.
    residuals: Vec<f64>,
    /// Original training series (needed to integrate forecasts).
    history: Vec<f64>,
}

impl Arima {
    /// Fit an ARIMA with the given specification (cold start: OLS lag
    /// regression initializes the CSS search). A seasonal period below 2
    /// is an error.
    pub fn fit(series: &[f64], spec: ArimaSpec) -> Result<Self, FitError> {
        Self::fit_impl(series, spec, None, None)
    }

    /// [`Arima::fit`] with a cooperative hard stop: once `deadline` passes,
    /// the CSS search exits at the best coefficients found so far and the
    /// returned model carries `timed_out == true`.
    pub fn fit_with_deadline(
        series: &[f64],
        spec: ArimaSpec,
        deadline: Option<Instant>,
    ) -> Result<Self, FitError> {
        Self::fit_impl(series, spec, None, deadline)
    }

    /// Warm-started fit: restart the CSS Nelder–Mead from a previous fit's
    /// coefficients instead of the cold OLS initialization. The result is a
    /// fully re-optimized fit of `series`, so fit quality matches a cold
    /// [`Arima::fit`]; only the optimizer's path is shortened. A seed whose
    /// specification differs from `spec` falls back to the cold start
    /// (coefficients would not align with the lag structure). See
    /// [`Arima::fit_with_deadline`] for the timeout semantics.
    pub fn fit_seeded_with_deadline(
        series: &[f64],
        spec: ArimaSpec,
        seed: &Arima,
        deadline: Option<Instant>,
    ) -> Result<Self, FitError> {
        if seed.spec != spec {
            return Self::fit_with_deadline(series, spec, deadline);
        }
        // clamp inside the CSS guard (|c| > 5 → ∞) so the seeded simplex
        // never starts in the rejected region
        let warm: Vec<f64> = seed
            .ar_coefs
            .iter()
            .chain(seed.ma_coefs.iter())
            .map(|c| c.clamp(-4.9, 4.9))
            .collect();
        Self::fit_impl(series, spec, Some(&warm), deadline)
    }

    fn fit_impl(
        series: &[f64],
        spec: ArimaSpec,
        warm: Option<&[f64]>,
        deadline: Option<Instant>,
    ) -> Result<Self, FitError> {
        // a period below 2 puts lag-0 (m = 0) or duplicate (m = 1) terms in
        // the lag sets
        if spec.seasonal.is_some_and(|s| s.m < 2) {
            return Err(FitError::new("seasonal period must be at least 2"));
        }
        let min_len = spec.k_params() + spec.d + spec.seasonal.map_or(0, |s| s.d * s.m + s.m) + 8;
        if series.len() < min_len {
            return Err(FitError::new(format!(
                "series too short for ARIMA: {} < {}",
                series.len(),
                min_len
            )));
        }
        if series.iter().any(|v| !v.is_finite()) {
            return Err(FitError::new("series contains non-finite values"));
        }
        // 1. difference (seasonal first, then regular) and centre
        let mut css = CssObjective::new(series, spec);
        if css.wc.len() < spec.k_params() + 4 {
            return Err(FitError::new("not enough data after differencing"));
        }
        let n_ar = css.ar_lags.len();
        let n_ma = css.ma_lags.len();

        // 2. initialize: a warm seed from a previous fit wins; otherwise
        // AR by OLS lag regression, MA at 0
        let mut init = vec![0.0; n_ar.saturating_add(n_ma)];
        match warm.filter(|w| w.len() == init.len()) {
            Some(w) => init.copy_from_slice(w),
            None if n_ar > 0 => {
                let (wc, ar_lags) = (&css.wc, &css.ar_lags);
                let max_lag = ar_lags.last().copied().unwrap_or(0);
                if wc.len() > max_lag + 2 {
                    let rows: Vec<Vec<f64>> = (max_lag..wc.len())
                        .map(|t| {
                            ar_lags
                                .iter()
                                // t ranges over max_lag.. and every lag is
                                // <= max_lag, so t - l is always in bounds
                                .map(|&l| wc.get(t - l).copied().unwrap_or_default())
                                .collect()
                        })
                        .collect();
                    let x = Matrix::from_rows(&rows);
                    let y: Vec<f64> = wc.get(max_lag..).unwrap_or_default().to_vec();
                    if let Ok(beta) = lstsq(&x, &y) {
                        for (slot, b) in init.iter_mut().zip(beta.iter()) {
                            *slot = b.clamp(-0.95, 0.95);
                        }
                    }
                }
            }
            None => {}
        }

        // 3. minimize the CSS objective
        let (params, timed_out) = if n_ar + n_ma > 0 {
            let opts = NelderMeadOptions {
                max_evals: 800 * (n_ar + n_ma),
                deadline,
                ..Default::default()
            };
            let (params, _, timed_out) = nelder_mead(|p| css.sse(p), &init, &opts);
            (params, timed_out)
        } else {
            (Vec::new(), false)
        };
        let (ar_part, ma_part) = params.split_at(n_ar.min(params.len()));
        let ar_coefs = ar_part.to_vec();
        let ma_coefs = ma_part.to_vec();
        // the residual pass runs the objective's recursion, without its
        // coefficient guard
        let sse = css.run(&ar_coefs, &ma_coefs);
        let CssObjective {
            wc,
            mean,
            ar_lags,
            ma_lags,
            e,
            ..
        } = css;
        let residuals = if sse.is_some() { e } else { Vec::new() };
        let sse = sse.unwrap_or(f64::INFINITY);
        let n_eff = residuals.len().max(1) as f64;
        let sigma2 = (sse / n_eff).max(1e-300);
        let k = spec.k_params() as f64 + 1.0; // + sigma2
        let loglik = -0.5 * n_eff * ((2.0 * std::f64::consts::PI * sigma2).ln() + 1.0);
        let mut aic = -2.0 * loglik + 2.0 * k;
        // AICc small-sample correction
        if n_eff - k - 1.0 > 0.0 {
            aic += 2.0 * k * (k + 1.0) / (n_eff - k - 1.0);
        }

        Ok(Self {
            spec,
            ar_lags,
            ar_coefs,
            ma_lags,
            ma_coefs,
            intercept: mean,
            sigma2,
            aic,
            timed_out,
            w: wc,
            residuals,
            history: series.to_vec(),
        })
    }

    /// Forecast `horizon` future values on the original scale.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        // 1. recursively forecast the centered differenced series
        let n = self.w.len();
        let mut wext = self.w.clone();
        let mut eext = self.residuals.clone();
        for _ in 0..horizon {
            let t = wext.len();
            let mut pred = 0.0;
            for (&l, &c) in self.ar_lags.iter().zip(&self.ar_coefs) {
                if t >= l {
                    // tscheck:allow(strict-index): guarded by t >= l with t == wext.len()
                    pred += c * wext[t - l];
                }
            }
            for (&l, &c) in self.ma_lags.iter().zip(&self.ma_coefs) {
                if t >= l && t - l < eext.len() {
                    // tscheck:allow(strict-index): guarded by t - l < eext.len()
                    pred += c * eext[t - l];
                }
            }
            wext.push(pred);
            eext.push(0.0);
        }
        let w_fore: Vec<f64> = wext
            .get(n..)
            .unwrap_or_default()
            .iter()
            .map(|v| v + self.intercept)
            .collect();

        // 2. integrate back: regular differences first (they were applied
        // last), then seasonal.
        let mut x_d = {
            // reconstruct the d-times-regular-differenced-but-seasonally-
            // differenced-series' tail to integrate against
            let mut base = self.history.clone();
            if let Some(s) = self.spec.seasonal {
                base = difference(&base, s.m, s.d);
            }
            base
        };
        // undo regular differencing, one order at a time from the inside out
        let mut levels: Vec<Vec<f64>> = Vec::with_capacity(self.spec.d.saturating_add(1));
        levels.push(x_d.clone());
        for _ in 0..self.spec.d {
            x_d = difference(&x_d, 1, 1);
            levels.push(x_d.clone());
        }
        let mut fore = w_fore;
        for level in (0..self.spec.d).rev() {
            let anchor = levels
                .get(level)
                .and_then(|l| l.last())
                .copied()
                .unwrap_or_default();
            let mut prev = anchor;
            for f in &mut fore {
                prev += *f;
                *f = prev;
            }
        }
        // undo seasonal differencing
        if let Some(s) = self.spec.seasonal {
            let mut hist = self.history.clone();
            // reconstruct intermediate seasonal levels
            let mut slevels: Vec<Vec<f64>> = Vec::with_capacity(s.d.saturating_add(1));
            slevels.push(hist.clone());
            for _ in 0..s.d {
                hist = difference(&hist, s.m, 1);
                slevels.push(hist.clone());
            }
            for level in (0..s.d).rev() {
                let Some(base) = slevels.get(level) else {
                    continue;
                };
                let mut extended = base.clone();
                for f in fore.iter_mut() {
                    let idx = extended.len();
                    let seasonal_base = if idx >= s.m {
                        // idx - s.m < idx == extended.len(): always present
                        extended.get(idx - s.m).copied().unwrap_or_default()
                    } else {
                        base.last().copied().unwrap_or_default()
                    };
                    let v = *f + seasonal_base;
                    extended.push(v);
                    *f = v;
                }
            }
        }
        fore
    }

    /// Variance of the h-step-ahead forecast for `h = 1..=horizon`, via the
    /// psi-weight (MA(∞)) representation of the fitted, fully integrated
    /// model. The stationary ARMA psi weights (`ψ_0 = 1`,
    /// `ψ_j = θ_j + Σ_l φ_l ψ_{j−l}` over the sparse seasonal lag sets) are
    /// pushed through the regular (`d` prefix sums) and seasonal (`D`
    /// lag-`m` sums) integration operators, giving
    /// `var(h) = σ² Σ_{j<h} ψ_j²` on the original scale.
    pub fn forecast_variance(&self, horizon: usize) -> Vec<f64> {
        if horizon == 0 {
            return Vec::new();
        }
        let mut psi = vec![0.0f64; horizon];
        if let Some(first) = psi.first_mut() {
            *first = 1.0;
        }
        for j in 1..horizon {
            let mut v = 0.0;
            for (&l, &c) in self.ma_lags.iter().zip(&self.ma_coefs) {
                if l == j {
                    v += c;
                }
            }
            for (&l, &c) in self.ar_lags.iter().zip(&self.ar_coefs) {
                if let Some(&prev) = j.checked_sub(l).and_then(|i| psi.get(i)) {
                    v += c * prev;
                }
            }
            if let Some(slot) = psi.get_mut(j) {
                *slot = v;
            }
        }
        // integrate: each regular difference turns psi into its prefix sums
        for _ in 0..self.spec.d {
            let mut acc = 0.0;
            for p in psi.iter_mut() {
                acc += *p;
                *p = acc;
            }
        }
        // each seasonal difference adds the weight from one period earlier
        if let Some(s) = self.spec.seasonal {
            if s.m >= 1 {
                for _ in 0..s.d {
                    for j in s.m..horizon {
                        let prev = psi.get(j - s.m).copied().unwrap_or(0.0);
                        if let Some(slot) = psi.get_mut(j) {
                            *slot += prev;
                        }
                    }
                }
            }
        }
        let mut cum = 0.0;
        psi.iter()
            .map(|p| {
                cum += p * p;
                (self.sigma2 * cum).max(0.0)
            })
            .collect()
    }
}

/// Heuristic number of regular differences: difference while the standard
/// deviation keeps dropping by more than 10% (capped at `max_d`).
pub fn ndiffs(series: &[f64], max_d: usize) -> usize {
    let mut best_d = 0;
    let mut cur = series.to_vec();
    let mut cur_sd = autoai_linalg::std_dev(&cur);
    for d in 1..=max_d {
        let next = difference(&cur, 1, 1);
        if next.len() < 8 {
            break;
        }
        let sd = autoai_linalg::std_dev(&next);
        if sd < cur_sd * 0.9 {
            best_d = d;
            cur = next;
            cur_sd = sd;
        } else {
            break;
        }
    }
    best_d
}

/// Stepwise automatic ARIMA order selection (pmdarima-style).
///
/// Starts at `(start_p, d, start_q)` and hill-climbs over `p, q ∈ [0, max]`
/// by AICc. When `m >= 2` and the lag-`m` autocorrelation of the
/// differenced series is strong, a seasonal `(1, D, 1)_m` component is
/// included with `D = 1`.
pub fn auto_arima(series: &[f64], max_p: usize, max_q: usize, m: usize) -> Result<Arima, FitError> {
    auto_arima_impl(series, max_p, max_q, m, None, None)
}

/// [`auto_arima`] with a cooperative hard stop: the deadline is checked
/// between hill-climb candidates (and inside each candidate's CSS search),
/// so an expired budget returns the best model selected so far with
/// `timed_out == true` instead of finishing the walk.
///
/// The start model always runs, even on an already-expired deadline, so
/// the call still returns a usable model. When the start order cannot be
/// fitted, its `(1, d, 0)` and `(0, d, 0)` fallbacks run under the same
/// deadline.
pub fn auto_arima_with_deadline(
    series: &[f64],
    max_p: usize,
    max_q: usize,
    m: usize,
    deadline: Option<Instant>,
) -> Result<Arima, FitError> {
    auto_arima_impl(series, max_p, max_q, m, None, deadline)
}

/// Stepwise selection seeded by a previous winner (warm start for T-Daub's
/// growing allocations): the hill climb starts in the seed's `(p, q)`
/// neighborhood and the seed-spec fit restarts its CSS search from the
/// previous coefficients via [`Arima::fit_seeded_with_deadline`].
/// Differencing and the seasonal decision are always re-detected on the
/// new data; when either disagrees with the seed's specification the
/// search falls back to the cold start, so a stale seed costs nothing but
/// its detection pass. See [`auto_arima_with_deadline`] for the timeout
/// semantics.
pub fn auto_arima_seeded_with_deadline(
    series: &[f64],
    max_p: usize,
    max_q: usize,
    m: usize,
    seed: &Arima,
    deadline: Option<Instant>,
) -> Result<Arima, FitError> {
    auto_arima_impl(series, max_p, max_q, m, Some(seed), deadline)
}

fn auto_arima_impl(
    series: &[f64],
    max_p: usize,
    max_q: usize,
    m: usize,
    seed: Option<&Arima>,
    deadline: Option<Instant>,
) -> Result<Arima, FitError> {
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    let d = ndiffs(series, 2);
    let seasonal = if m >= 2 && series.len() >= 3 * m + 10 {
        let diffed = difference(series, 1, d);
        let sac = autoai_linalg::autocorrelation(&diffed, m);
        if sac > 0.3 {
            Some(SeasonalSpec {
                p: 1,
                d: 1,
                q: 1,
                m,
            })
        } else {
            None
        }
    } else {
        None
    };

    // a seed only counts when the freshly detected differencing and
    // seasonal structure agree with it
    let seed = seed.filter(|s| s.spec.d == d && s.spec.seasonal == seasonal);
    let try_fit = |p: usize, q: usize| -> Option<Arima> {
        let spec = ArimaSpec { p, d, q, seasonal };
        match seed.filter(|s| s.spec == spec) {
            Some(s) => Arima::fit_seeded_with_deadline(series, spec, s, deadline).ok(),
            None => Arima::fit_with_deadline(series, spec, deadline).ok(),
        }
    };

    let (mut p, mut q) = match seed {
        Some(s) => (s.spec.p.min(max_p), s.spec.q.min(max_q)),
        None => (1.min(max_p), 1.min(max_q)),
    };
    // the start model always runs, even past the deadline; its fallbacks
    // honor the deadline like every other fit
    let mut best = try_fit(p, q)
        .or_else(|| Arima::fit_with_deadline(series, ArimaSpec::new(1, d, 0), deadline).ok())
        .or_else(|| Arima::fit_with_deadline(series, ArimaSpec::new(0, d, 0), deadline).ok())
        .ok_or_else(|| FitError::new("auto_arima: no candidate model could be fitted"))?;
    // the orders the serial walk has evaluated: none of them can improve
    // on a later bar, so none is fitted twice
    let mut visited = vec![(p, q)];
    loop {
        if expired() {
            // the hill climb was cut short: mark the winner so callers can
            // tell a converged selection from a budget-truncated one
            best.timed_out = true;
            break;
        }
        let mut candidates = Vec::with_capacity(4);
        if p < max_p {
            candidates.push((p + 1, q));
        }
        if q < max_q {
            candidates.push((p, q + 1));
        }
        if p > 0 {
            candidates.push((p - 1, q));
        }
        if q > 0 {
            candidates.push((p, q - 1));
        }
        // a visited order scored `aic >= bar` against the bar of its step,
        // and every move since has only lowered the bar, so dropping it
        // leaves the first improving neighbour where it was
        candidates.retain(|c| !visited.contains(c));
        let bar = best.aic - 1e-9;
        // once neighbour `i` is known to improve, later ones are skipped
        // (`first_hit`); the merge takes the first improving neighbour in
        // candidate order, as the serial walk did
        let first_hit = AtomicUsize::new(usize::MAX);
        let fits = parallel_try_map_range(candidates.len(), |i| {
            if i > first_hit.load(Ordering::Acquire) || expired() {
                return Neighbour::Skipped;
            }
            let Some(&(cp, cq)) = candidates.get(i) else {
                return Neighbour::Skipped;
            };
            let model = try_fit(cp, cq);
            if model.as_ref().is_some_and(|m| m.aic < bar) {
                first_hit.fetch_min(i, Ordering::AcqRel);
            }
            Neighbour::Fitted(model)
        });
        let mut improved = false;
        for (fit, &(cp, cq)) in fits.into_iter().zip(&candidates) {
            // up to and including the first improving neighbour, as the
            // serial walk would have fitted them (fits the fan-out ran past
            // it are not recorded, and a skipped one ends the walk)
            visited.push((cp, cq));
            match fit {
                Ok(Neighbour::Fitted(Some(model))) if model.aic < bar => {
                    best = model;
                    p = cp;
                    q = cq;
                    improved = true;
                    break;
                }
                // the walk stops at the first neighbour the deadline
                // skipped, as a truncated selection (neighbours skipped
                // after an improvement are never reached)
                Ok(Neighbour::Skipped) => {
                    best.timed_out = true;
                    break;
                }
                // a failed or panicked fit is a neighbour that does not
                // improve
                Ok(Neighbour::Fitted(_)) | Err(_) => {}
            }
        }
        if !improved {
            break;
        }
    }
    Ok(best)
}

/// One stepwise neighbour of [`auto_arima_impl`]'s hill climb.
enum Neighbour {
    /// The fit ran; `None` when the specification could not be fitted.
    Fitted(Option<Arima>),
    /// Not fitted: the deadline had passed, or an earlier neighbour was
    /// already known to improve.
    Skipped,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar1_series(phi: f64, n: usize, seed: u64, noise: f64) -> Vec<f64> {
        let mut x = vec![0.0; n];
        let mut s = seed;
        for t in 1..n {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let e = ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            x[t] = phi * x[t - 1] + noise * e;
        }
        x
    }

    /// The original CSS recursion, one allocating loop with a `t >= l`
    /// guard on every lag at every step, kept as the reference
    /// [`CssObjective`] must match bit for bit. Residuals are empty when
    /// the series is no longer than the largest lag.
    fn reference_css(
        wc: &[f64],
        ar_lags: &[usize],
        ar: &[f64],
        ma_lags: &[usize],
        ma: &[f64],
    ) -> (Vec<f64>, f64) {
        let max_lag = ar_lags.iter().chain(ma_lags).copied().max().unwrap_or(0);
        if wc.len() <= max_lag {
            return (Vec::new(), f64::INFINITY);
        }
        let n = wc.len();
        let mut e = vec![0.0; n];
        let mut sse = 0.0;
        for t in 0..n {
            let mut pred = 0.0;
            for (&l, &c) in ar_lags.iter().zip(ar) {
                if t >= l {
                    pred += c * wc[t - l];
                }
            }
            for (&l, &c) in ma_lags.iter().zip(ma) {
                if t >= l {
                    pred += c * e[t - l];
                }
            }
            let et = wc[t] - pred;
            e[t] = et;
            if t >= max_lag {
                sse += et * et;
            }
        }
        (e, sse)
    }

    /// The reference objective: the `|c| > 5` guard, then the recursion.
    fn reference_sse(css: &CssObjective, params: &[f64]) -> f64 {
        if params.iter().any(|c| c.abs() > 5.0) {
            return f64::INFINITY;
        }
        let (ar, ma) = params.split_at(css.ar_lags.len().min(params.len()));
        let (e, sse) = reference_css(&css.wc, &css.ar_lags, ar, &css.ma_lags, ma);
        if e.is_empty() {
            f64::INFINITY
        } else {
            sse
        }
    }

    /// Equal bits, or both NaN: a NaN's payload is not part of the
    /// contract (an SSE that is not finite reads as `+∞` to the search).
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn css_objective_matches_reference_recursion_bitwise() {
        let base = ar1_series(0.6, 320, 31, 0.5);
        let series: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(i, v)| 20.0 + 0.05 * i as f64 + [0., 3., 8., 2., -4., -9.][i % 6] + v)
            .collect();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 1.8 - 0.9
        };
        let specs = [
            ("(3,1,3)", ArimaSpec::new(3, 1, 3)),
            ("m=12", ArimaSpec::seasonal(3, 1, 3, 1, 1, 1, 12)),
            ("m=4", ArimaSpec::seasonal(2, 0, 1, 1, 1, 1, 4)),
            ("pure AR", ArimaSpec::seasonal(3, 1, 0, 1, 0, 0, 12)),
            ("pure MA", ArimaSpec::new(0, 1, 3)),
            // a seasonal period of 0 puts lag-0 terms in both lag sets
            ("lag 0", ArimaSpec::seasonal(1, 1, 1, 1, 0, 1, 0)),
        ];
        for (name, spec) in specs {
            // one objective reused across every point: a stale residual
            // must not leak from one call into the next
            let mut css = CssObjective::new(&series, spec);
            let dim = css.ar_lags.len() + css.ma_lags.len();
            let mut points: Vec<Vec<f64>> = (0..12)
                .map(|_| (0..dim).map(|_| next()).collect())
                .collect();
            // midway: one point past the |c| > 5 guard, one whose
            // recursion goes non-finite after dirtying the buffer; the
            // points after them prove the buffer resets
            points[5][0] = 5.5;
            points[6][dim - 1] = f64::NAN;
            for (i, p) in points.iter().enumerate() {
                let got = css.sse(p);
                let want = reference_sse(&css, p);
                assert!(
                    same_bits(got, want),
                    "{name} point {i}: {got:e} vs {want:e}"
                );
                assert_eq!(got.is_finite(), i != 5 && i != 6, "{name} point {i}");
                if i == 5 {
                    continue; // the guard runs no recursion
                }
                let (ar, ma) = p.split_at(css.ar_lags.len());
                let (e, _) = reference_css(&css.wc, &css.ar_lags, ar, &css.ma_lags, ma);
                assert_eq!(css.e.len(), e.len(), "{name} point {i}");
                for (t, (&a, &b)) in css.e.iter().zip(&e).enumerate() {
                    assert!(
                        same_bits(a, b),
                        "{name} point {i} residual {t}: {a:e} vs {b:e}"
                    );
                }
            }
        }
        // a series no longer than the largest lag has no residuals
        let spec = ArimaSpec::seasonal(1, 0, 1, 1, 0, 1, 12);
        for len in [0, 5, 12] {
            let mut css = CssObjective::new(&series[..len], spec);
            assert_eq!(css.sse(&[0.3, 0.2, -0.1, 0.1]), f64::INFINITY, "len {len}");
            assert_eq!(css.run(&[0.3, 0.2], &[-0.1, 0.1]), None, "len {len}");
            let (e, sse) = reference_css(&css.wc, &css.ar_lags, &[0.3, 0.2], &css.ma_lags, &[]);
            assert!(e.is_empty() && sse == f64::INFINITY);
        }
    }

    #[test]
    fn ar1_coefficient_recovery() {
        let x = ar1_series(0.7, 1500, 11, 0.5);
        let m = Arima::fit(&x, ArimaSpec::new(1, 0, 0)).unwrap();
        assert!(
            (m.ar_coefs[0] - 0.7).abs() < 0.08,
            "phi = {}",
            m.ar_coefs[0]
        );
    }

    #[test]
    fn ar2_coefficient_recovery() {
        let mut x = vec![0.0; 2000];
        let mut s = 3u64;
        for t in 2..2000 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let e = ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            x[t] = 0.5 * x[t - 1] + 0.3 * x[t - 2] + 0.4 * e;
        }
        let m = Arima::fit(&x, ArimaSpec::new(2, 0, 0)).unwrap();
        assert!((m.ar_coefs[0] - 0.5).abs() < 0.1, "{:?}", m.ar_coefs);
        assert!((m.ar_coefs[1] - 0.3).abs() < 0.1, "{:?}", m.ar_coefs);
    }

    #[test]
    fn ma1_fit_reduces_residual_variance() {
        // MA(1): x_t = e_t + 0.8 e_{t-1}
        let n = 1500;
        let mut e = vec![0.0; n];
        let mut s = 17u64;
        for ei in e.iter_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *ei = ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
        }
        let x: Vec<f64> = (0..n)
            .map(|t| e[t] + 0.8 * if t > 0 { e[t - 1] } else { 0.0 })
            .collect();
        let ma = Arima::fit(&x, ArimaSpec::new(0, 0, 1)).unwrap();
        let white = Arima::fit(&x, ArimaSpec::new(0, 0, 0)).unwrap();
        assert!(
            ma.sigma2 < white.sigma2 * 0.75,
            "ma {} vs white {}",
            ma.sigma2,
            white.sigma2
        );
        assert!(
            (ma.ma_coefs[0] - 0.8).abs() < 0.15,
            "theta = {}",
            ma.ma_coefs[0]
        );
    }

    #[test]
    fn differencing_handles_linear_trend() {
        let x: Vec<f64> = (0..200).map(|i| 5.0 + 2.0 * i as f64).collect();
        let m = Arima::fit(&x, ArimaSpec::new(0, 1, 0)).unwrap();
        let f = m.forecast(3);
        // Δx is constant 2 → forecasts continue the line exactly
        // (last train value is x_199 = 403, so forecasts are 405, 407, 409)
        assert!((f[0] - 405.0).abs() < 1e-6, "{f:?}");
        assert!((f[2] - 409.0).abs() < 1e-6, "{f:?}");
    }

    #[test]
    fn second_differencing_handles_quadratic() {
        let x: Vec<f64> = (0..200).map(|i| (i * i) as f64).collect();
        let m = Arima::fit(&x, ArimaSpec::new(0, 2, 0)).unwrap();
        let f = m.forecast(2);
        assert!((f[0] - 40000.0).abs() < 1.0, "{f:?}"); // 200²
        assert!((f[1] - 40401.0).abs() < 2.0, "{f:?}"); // 201²
    }

    #[test]
    fn seasonal_differencing_reproduces_seasonal_pattern() {
        // strict period-12 pattern plus trend
        let x: Vec<f64> = (0..240)
            .map(|i| {
                (i / 12) as f64 * 10.0
                    + [0., 3., 8., 2., -4., -9., -3., 1., 6., 4., -2., -6.][i % 12]
            })
            .collect();
        let m = Arima::fit(&x, ArimaSpec::seasonal(0, 0, 0, 0, 1, 0, 12)).unwrap();
        let f = m.forecast(12);
        for (h, &v) in f.iter().enumerate() {
            let i = 240 + h;
            let truth = (i / 12) as f64 * 10.0
                + [0., 3., 8., 2., -4., -9., -3., 1., 6., 4., -2., -6.][i % 12];
            assert!((v - truth).abs() < 1.5, "h={h} v={v} truth={truth}");
        }
    }

    #[test]
    fn aic_ranks_models_sensibly() {
        let x = ar1_series(0.8, 1200, 5, 0.3);
        let m1 = Arima::fit(&x, ArimaSpec::new(1, 0, 0)).unwrap();
        let white = Arima::fit(&x, ArimaSpec::new(0, 0, 0)).unwrap();
        let m3 = Arima::fit(&x, ArimaSpec::new(3, 0, 3)).unwrap();
        // the true AR(1) must beat white noise decisively, and the over-
        // parameterized (3,0,3) can only eke out a marginal CSS advantage
        assert!(
            m1.aic < white.aic - 100.0,
            "AR(1)={} white={}",
            m1.aic,
            white.aic
        );
        assert!(
            m1.aic < m3.aic + 25.0,
            "AIC(1,0,0)={} AIC(3,0,3)={}",
            m1.aic,
            m3.aic
        );
    }

    #[test]
    fn auto_arima_runs_and_forecasts() {
        let x = ar1_series(0.6, 400, 9, 0.5);
        let m = auto_arima(&x, 3, 3, 0).unwrap();
        let f = m.forecast(12);
        assert_eq!(f.len(), 12);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn auto_arima_detects_trend_differencing() {
        let x: Vec<f64> = (0..300)
            .map(|i| i as f64 + ar1_series(0.3, 300, 2, 1.0)[i])
            .collect();
        let m = auto_arima(&x, 3, 3, 0).unwrap();
        assert!(m.spec.d >= 1, "expected differencing, got d = {}", m.spec.d);
        let f = m.forecast(10);
        // forecasts should keep climbing
        assert!(f[9] > 295.0, "{f:?}");
    }

    #[test]
    fn seeded_fit_matches_cold_fit_quality() {
        let x = ar1_series(0.7, 900, 21, 0.5);
        let seed = Arima::fit(&x[..600], ArimaSpec::new(1, 0, 1)).unwrap();
        let warm =
            Arima::fit_seeded_with_deadline(&x, ArimaSpec::new(1, 0, 1), &seed, None).unwrap();
        let cold = Arima::fit(&x, ArimaSpec::new(1, 0, 1)).unwrap();
        // both optimize the same CSS surface; the warm restart must land in
        // the same basin, not a degraded one
        assert!(
            warm.sigma2 <= cold.sigma2 * 1.05,
            "warm {} vs cold {}",
            warm.sigma2,
            cold.sigma2
        );
        assert!((warm.ar_coefs[0] - cold.ar_coefs[0]).abs() < 0.05);
    }

    #[test]
    fn seeded_fit_with_mismatched_spec_falls_back_to_cold() {
        let x = ar1_series(0.6, 500, 8, 0.5);
        let seed = Arima::fit(&x[..300], ArimaSpec::new(2, 0, 0)).unwrap();
        let warm =
            Arima::fit_seeded_with_deadline(&x, ArimaSpec::new(1, 0, 0), &seed, None).unwrap();
        assert_eq!(warm.spec, ArimaSpec::new(1, 0, 0));
        assert!(warm.sigma2.is_finite());
    }

    #[test]
    fn auto_arima_seeded_matches_cold_selection_quality() {
        let x = ar1_series(0.6, 500, 9, 0.5);
        let seed = auto_arima(&x[..350], 3, 3, 0).unwrap();
        let warm = auto_arima_seeded_with_deadline(&x, 3, 3, 0, &seed, None).unwrap();
        let cold = auto_arima(&x, 3, 3, 0).unwrap();
        assert_eq!(warm.spec.d, cold.spec.d);
        let fw = warm.forecast(8);
        let fc = cold.forecast(8);
        assert!(fw.iter().all(|v| v.is_finite()));
        // the seeded search may walk a different hill-climb path but must
        // land on a model of equivalent information-criterion quality
        assert!(
            warm.aic <= cold.aic + cold.aic.abs() * 0.01 + 1.0,
            "warm {} vs cold {}",
            warm.aic,
            cold.aic
        );
        for (a, b) in fw.iter().zip(&fc) {
            assert!((a - b).abs() < 1.0, "{fw:?} vs {fc:?}");
        }
    }

    #[test]
    fn expired_deadline_returns_best_so_far_model() {
        let x = ar1_series(0.7, 600, 13, 0.5);
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let m = auto_arima_with_deadline(&x, 3, 3, 0, Some(past)).unwrap();
        assert!(m.timed_out);
        let f = m.forecast(6);
        assert!(f.iter().all(|v| v.is_finite()), "{f:?}");
        // a generous deadline behaves exactly like no deadline
        let far = Instant::now() + std::time::Duration::from_secs(600);
        let full = auto_arima_with_deadline(&x, 3, 3, 0, Some(far)).unwrap();
        assert!(!full.timed_out);
        let unbounded = auto_arima(&x, 3, 3, 0).unwrap();
        assert_eq!(full.spec, unbounded.spec);
        for (a, b) in full.forecast(6).iter().zip(&unbounded.forecast(6)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fallback_start_models_honor_an_expired_deadline() {
        // 10 points: the (1, 0, 1) start model needs 11, so the walk starts
        // from the (1, 0, 0) fallback. The near-alternating series puts the
        // lag-1 least-squares coefficient below the -0.95 clamp of the OLS
        // start, so only a CSS search run past the deadline moves it.
        let x = [1.0, -1.1, 0.9, -1.0, 1.2, -0.9, 1.0, -1.05, 0.95, -1.0];
        assert_eq!(ndiffs(&x, 2), 0);
        assert!(Arima::fit(&x, ArimaSpec::new(1, 0, 1)).is_err());
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let m = auto_arima_with_deadline(&x, 3, 3, 0, Some(past)).unwrap();
        assert!(m.timed_out);
        let bound = Arima::fit_with_deadline(&x, ArimaSpec::new(1, 0, 0), Some(past)).unwrap();
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(m.spec, bound.spec);
        assert_eq!(bits(&m.ar_coefs), bits(&bound.ar_coefs));
        assert_eq!(bits(&m.ma_coefs), bits(&bound.ma_coefs));
        assert_eq!(m.aic.to_bits(), bound.aic.to_bits());
    }

    #[test]
    fn neighbour_fan_out_matches_direct_selection_when_nested_in_busy_pool_items() {
        let x = ar1_series(0.6, 400, 9, 0.5);
        let seasonal: Vec<f64> = (0..300)
            .map(|i| [0., 3., 8., 2., -4., -9., -3., 1., 6., 4., -2., -6.][i % 12] + x[i])
            .collect();
        let pin = |m: &Arima| {
            let mut v = vec![m.aic.to_bits(), m.intercept.to_bits()];
            v.extend(m.ar_coefs.iter().chain(&m.ma_coefs).map(|c| c.to_bits()));
            v.extend(m.forecast(12).iter().map(|f| f.to_bits()));
            (m.spec, v)
        };
        let cases: [(&[f64], usize); 2] = [(&x, 0), (&seasonal, 12)];
        for (y, m) in cases {
            let direct = pin(&auto_arima(y, 3, 3, m).unwrap());
            let seed = auto_arima(&y[..y.len() - 40], 3, 3, m).unwrap();
            let warm = pin(&auto_arima_seeded_with_deadline(y, 3, 3, m, &seed, None).unwrap());
            // every pool item runs a selection of its own
            let nested = parallel_try_map_range(4, |i| {
                if i % 2 == 0 {
                    auto_arima(y, 3, 3, m).map(|a| pin(&a))
                } else {
                    auto_arima_seeded_with_deadline(y, 3, 3, m, &seed, None).map(|a| pin(&a))
                }
            });
            for (i, r) in nested.into_iter().enumerate() {
                let want = if i % 2 == 0 { &direct } else { &warm };
                assert_eq!(&r.unwrap().unwrap(), want, "m={m} item {i}");
            }
        }
    }

    /// The stepwise walk as a plain serial loop with no deadline: no
    /// fan-out, no memo, every neighbour refitted in candidate order.
    /// Returns the winner and the number of fits that re-scored an order
    /// the same walk had already fitted.
    fn reference_walk(
        series: &[f64],
        max_p: usize,
        max_q: usize,
        m: usize,
        seed: Option<&Arima>,
    ) -> (Arima, usize) {
        let d = ndiffs(series, 2);
        let seasonal = (m >= 2
            && series.len() >= 3 * m + 10
            && autoai_linalg::autocorrelation(&difference(series, 1, d), m) > 0.3)
            .then_some(SeasonalSpec {
                p: 1,
                d: 1,
                q: 1,
                m,
            });
        let seed = seed.filter(|s| s.spec.d == d && s.spec.seasonal == seasonal);
        let mut fitted = Vec::new();
        let mut revisits = 0;
        let mut try_fit = |p: usize, q: usize| {
            revisits += usize::from(fitted.contains(&(p, q)));
            fitted.push((p, q));
            let spec = ArimaSpec { p, d, q, seasonal };
            match seed.filter(|s| s.spec == spec) {
                Some(s) => Arima::fit_seeded_with_deadline(series, spec, s, None).ok(),
                None => Arima::fit(series, spec).ok(),
            }
        };
        let (mut p, mut q) = seed.map_or((1.min(max_p), 1.min(max_q)), |s| {
            (s.spec.p.min(max_p), s.spec.q.min(max_q))
        });
        let mut best = try_fit(p, q)
            .or_else(|| Arima::fit(series, ArimaSpec::new(1, d, 0)).ok())
            .or_else(|| Arima::fit(series, ArimaSpec::new(0, d, 0)).ok())
            .unwrap();
        loop {
            let mut candidates = Vec::new();
            if p < max_p {
                candidates.push((p + 1, q));
            }
            if q < max_q {
                candidates.push((p, q + 1));
            }
            if p > 0 {
                candidates.push((p - 1, q));
            }
            if q > 0 {
                candidates.push((p, q - 1));
            }
            let bar = best.aic - 1e-9;
            let step = candidates
                .into_iter()
                .find_map(|(cp, cq)| try_fit(cp, cq).filter(|m| m.aic < bar).map(|m| (m, cp, cq)));
            let Some((model, cp, cq)) = step else {
                break;
            };
            (best, p, q) = (model, cp, cq);
        }
        (best, revisits)
    }

    #[test]
    fn order_memo_selects_what_a_serial_walk_that_refits_every_order_selects() {
        let pin = |m: &Arima| {
            let mut v = vec![m.aic.to_bits()];
            v.extend(m.forecast(12).iter().map(|f| f.to_bits()));
            (m.spec, v)
        };
        let catalog = autoai_datasets::univariate_catalog();
        let mut revisits = 0;
        for (name, m) in [
            ("a10", 12),
            ("auscafe", 12),
            ("departures", 12),
            ("ausbeer", 4),
            ("qcement", 4),
        ] {
            let entry = catalog.iter().find(|e| e.name == name).unwrap();
            let frame = entry.generate(1);
            let y = frame.series(0);
            let (want, n) = reference_walk(y, 3, 3, m, None);
            revisits += n;
            assert_eq!(pin(&auto_arima(y, 3, 3, m).unwrap()), pin(&want), "{name}");
            let seed = auto_arima(&y[..y.len() - 40], 3, 3, m).unwrap();
            let (want, n) = reference_walk(y, 3, 3, m, Some(&seed));
            revisits += n;
            let got = auto_arima_seeded_with_deadline(y, 3, 3, m, &seed, None).unwrap();
            assert_eq!(pin(&got), pin(&want), "{name} seeded");
        }
        // the walks did step back onto scored orders, so the memo was
        // exercised, not merely never consulted
        assert!(revisits > 0);
    }

    #[test]
    fn seasonal_period_below_two_rejected() {
        let x = ar1_series(0.5, 200, 3, 0.5);
        for m in [0, 1] {
            let spec = ArimaSpec::seasonal(1, 0, 1, 1, 0, 1, m);
            assert!(Arima::fit(&x, spec).is_err(), "m = {m}");
        }
        assert!(Arima::fit(&x, ArimaSpec::seasonal(1, 0, 1, 1, 0, 1, 2)).is_ok());
    }

    #[test]
    fn too_short_series_rejected() {
        assert!(Arima::fit(&[1.0, 2.0, 3.0], ArimaSpec::new(1, 0, 0)).is_err());
    }

    #[test]
    fn non_finite_series_rejected() {
        let mut x = ar1_series(0.5, 100, 1, 0.5);
        x[50] = f64::NAN;
        assert!(Arima::fit(&x, ArimaSpec::new(1, 0, 0)).is_err());
    }

    #[test]
    fn ndiffs_heuristic() {
        let flat = ar1_series(0.2, 300, 4, 1.0);
        assert_eq!(ndiffs(&flat, 2), 0);
        let trended: Vec<f64> = (0..300).map(|i| 3.0 * i as f64 + flat[i]).collect();
        assert!(ndiffs(&trended, 2) >= 1);
    }
}
