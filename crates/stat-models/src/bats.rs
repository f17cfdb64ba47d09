//! BATS: Box-Cox transform, ARMA errors, Trend and Seasonal components
//! (De Livera, Hyndman & Snyder 2011), cited directly by the paper [24].
//!
//! This is a pragmatic from-scratch reimplementation: the innovations state
//! space of the original is replaced by an exponential-smoothing recursion
//! with (a) optional Box-Cox transformation of the observations, (b)
//! optional linear trend, (c) additive seasonal components for *multiple*
//! seasonal periods in the transformed space, and (d) an optional ARMA(1,1)
//! model on the one-step residuals. Component inclusion is selected by AIC
//! over the 2×2×2 grid (Box-Cox × trend × ARMA), exactly the spirit of the
//! reference implementation's automatic component search.
//!
//! Cost structure. Each Box-Cox × trend combination runs one Nelder–Mead
//! search over the smoothing constants, which hands its objective one
//! point per call. Each search owns one `EsRecursion`, whose scratch is
//! sized once and reused from call to call, so an evaluation allocates
//! nothing. The start state (`EsStart`) is computed once per search. A
//! run keeps its step state in locals and in one fixed-size array of
//! per-period lanes for each period count up to five, and each period's
//! position in its cycle is a counter rather than a `t % m`. The
//! arithmetic keeps the reference recursion's order, so SSEs and fitted
//! states are bit-identical to it. The four combinations are
//! independent searches and run side by side on the shared worker pool
//! (`parallel_try_map_range`), as do a seeded refit's seed and cold
//! restarts. Results merge in the fixed grid order, so the selection never
//! depends on scheduling.

use std::time::Instant;

use autoai_linalg::{nelder_mead, parallel_try_map_range, NelderMeadOptions};

use crate::arima::{Arima, ArimaSpec};
use crate::FitError;

/// Configuration of the BATS component search.
#[derive(Debug, Clone, Default)]
pub struct BatsConfig {
    /// Force Box-Cox usage (`None` = try both and pick by AIC).
    pub use_box_cox: Option<bool>,
    /// Force trend usage (`None` = try both).
    pub use_trend: Option<bool>,
    /// Force ARMA error correction (`None` = try both).
    pub use_arma: Option<bool>,
    /// Candidate seasonal periods (empty = non-seasonal).
    pub seasonal_periods: Vec<usize>,
}

impl BatsConfig {
    /// Non-seasonal automatic BATS.
    pub fn auto() -> Self {
        Self::default()
    }

    /// Automatic BATS with the given seasonal periods.
    pub fn with_periods(periods: Vec<usize>) -> Self {
        Self {
            seasonal_periods: periods,
            ..Self::default()
        }
    }
}

/// Internal exponential-smoothing fit in (possibly) Box-Cox space.
#[derive(Debug, Clone)]
struct EsState {
    level: f64,
    trend: f64,
    /// One seasonal index vector per period.
    seasonals: Vec<Vec<f64>>,
    alpha: f64,
    beta: f64,
    gammas: Vec<f64>,
    residuals: Vec<f64>,
    sse: f64,
}

/// A fitted BATS model.
#[derive(Debug, Clone)]
pub struct Bats {
    /// Box-Cox λ (`None` when the transform was not selected).
    pub lambda: Option<f64>,
    /// Offset added before Box-Cox to ensure positivity.
    offset: f64,
    /// Whether a linear trend component was selected.
    pub has_trend: bool,
    /// Seasonal periods in use.
    pub periods: Vec<usize>,
    /// Whether ARMA error correction was selected.
    pub has_arma: bool,
    es: EsState,
    arma: Option<Arima>,
    /// Raw (pre-sigmoid) optimizer parameters of the selected smoothing
    /// constants — the seed for warm restarts via
    /// [`Bats::fit_seeded_with_deadline`].
    raw: Vec<f64>,
    /// AIC of the selected configuration.
    pub aic: f64,
    /// True when a fit deadline expired before the component grid (or the
    /// smoothing-constant search inside it) finished; the model is the best
    /// configuration found so far.
    pub timed_out: bool,
    n: usize,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn box_cox(v: f64, lambda: f64) -> f64 {
    if lambda.abs() < 1e-6 {
        v.max(1e-12).ln()
    } else {
        (v.max(1e-12).powf(lambda) - 1.0) / lambda
    }
}

fn box_cox_inv(y: f64, lambda: f64) -> f64 {
    if lambda.abs() < 1e-6 {
        y.exp()
    } else {
        (lambda * y + 1.0).max(1e-12).powf(1.0 / lambda)
    }
}

/// The (possibly Box-Cox transformed) series one grid combination fits,
/// with its λ and positivity offset. λ is chosen by golden-section search
/// on the profile log-likelihood.
fn transform_series(series: &[f64], use_bc: bool) -> (Vec<f64>, Option<f64>, f64) {
    if !use_bc {
        return (series.to_vec(), None, 0.0);
    }
    let min = series.iter().cloned().fold(f64::INFINITY, f64::min);
    let offset = if min <= 0.0 { 1.0 - min } else { 0.0 };
    let shifted: Vec<f64> = series.iter().map(|&v| v + offset).collect();
    let lambda = autoai_linalg::golden_section_min(
        |l| {
            let y: Vec<f64> = shifted.iter().map(|&v| box_cox(v, l)).collect();
            let var = autoai_linalg::variance(&y);
            if var <= 0.0 {
                return f64::INFINITY;
            }
            let log_j: f64 = shifted.iter().map(|&v| v.max(1e-12).ln()).sum();
            0.5 * y.len() as f64 * var.ln() - (l - 1.0) * log_j
        },
        -1.0,
        2.0,
        1e-3,
    );
    (
        shifted.iter().map(|&v| box_cox(v, lambda)).collect(),
        Some(lambda),
        offset,
    )
}

/// The parameter-independent start of the smoothing recursion: the level
/// and trend seeds and the initial seasonal indices. They depend only on
/// the series and the component structure, so a search computes them once
/// instead of once per evaluated point.
struct EsStart {
    /// Steps before one-step errors count towards the SSE.
    warmup: usize,
    level: f64,
    trend: f64,
    /// Initial seasonal indices of every period, concatenated in period
    /// order.
    seasonals: Vec<f64>,
}

impl EsStart {
    /// `None` when the series is shorter than the warm-up.
    fn new(y: &[f64], use_trend: bool, periods: &[usize]) -> Option<Self> {
        let warmup = periods.iter().copied().max().unwrap_or(1).max(2);
        // initial seasonal indices from the first cycle of each period
        let base = autoai_linalg::mean(y.get(..warmup)?);
        let mut seasonals = Vec::with_capacity(periods.iter().sum());
        for &m in periods {
            let use_cycles = (y.len() / m).clamp(1, 2);
            for j in 0..m {
                let mut s = 0.0;
                for c in 0..use_cycles {
                    // c < cycles and j < m, so c*m + j < cycles*m <= len
                    s += y.get(c * m + j).copied().unwrap_or(base);
                }
                let mut v = s / use_cycles as f64 - base;
                // divide initial effect among overlapping periods
                if periods.len() > 1 {
                    v /= periods.len() as f64;
                }
                seasonals.push(v);
            }
        }
        let trend = if use_trend && y.len() > warmup {
            (y.get(warmup)? - y.first()?) / warmup as f64
        } else {
            0.0
        };
        Some(Self {
            warmup,
            level: base,
            trend,
            seasonals,
        })
    }
}

/// The recursion state of the point being evaluated.
#[derive(Debug, Clone, Copy, Default)]
struct EsPoint {
    alpha: f64,
    beta: f64,
    level: f64,
    trend: f64,
    sse: f64,
}

/// One period's step state inside the recursion: its smoothing constant,
/// the current step's seasonal term and its position in its cycle.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    gamma: f64,
    /// `1 - gamma`, the weight the old term keeps.
    keep: f64,
    /// The current step's seasonal term.
    cur: f64,
    /// Position of the current term inside the concatenated cycles.
    slot: usize,
    /// The cycle's first position, and one past its last.
    start: usize,
    end: usize,
}

/// The additive multi-seasonal smoothing recursion of one search, run at
/// one raw optimizer point per call.
///
/// Its scratch (the point's smoothing constants and the concatenated
/// seasonal cycles) is sized once and reused from call to call, so an
/// evaluation allocates nothing. The start state comes precomputed from
/// [`EsStart`]. Inside a run the level, trend and SSE live in locals and
/// each period's step state in one [`Lane`]; the lanes are a fixed-size
/// array for each period count up to five, so the per-period loops unroll,
/// and a reused `Vec` above that. The arithmetic runs in the reference
/// recursion's exact order, including the summation order of the seasonal
/// terms, so SSEs and fitted states are bit-identical to it.
struct EsRecursion<'a> {
    y: &'a [f64],
    use_trend: bool,
    periods: &'a [usize],
    start: &'a EsStart,
    point: EsPoint,
    /// Seasonal smoothing constants, one per period.
    gammas: Vec<f64>,
    /// Seasonal cycles of every period, concatenated in period order.
    seasonals: Vec<f64>,
    /// Lanes for period counts above the fixed-size arrays; sized on first
    /// use.
    spill: Vec<Lane>,
}

impl<'a> EsRecursion<'a> {
    fn new(y: &'a [f64], use_trend: bool, periods: &'a [usize], start: &'a EsStart) -> Self {
        Self {
            y,
            use_trend,
            periods,
            start,
            point: EsPoint::default(),
            gammas: vec![0.0; periods.len()],
            seasonals: start.seasonals.clone(),
            spill: Vec::new(),
        }
    }

    /// Reset the scratch to the start state at the given raw (pre-sigmoid)
    /// optimizer point. A missing coordinate reads as 0.0 (sigmoid 0.5),
    /// which keeps the lookup total; the optimizer always passes full
    /// vectors.
    fn load(&mut self, raw: &[f64]) {
        let raw_at = |i: usize| raw.get(i).copied().unwrap_or(0.0);
        self.point = EsPoint {
            alpha: sigmoid(raw_at(0)),
            beta: if self.use_trend {
                sigmoid(raw_at(1))
            } else {
                0.0
            },
            level: self.start.level,
            trend: self.start.trend,
            sse: 0.0,
        };
        for (i, g) in self.gammas.iter_mut().enumerate() {
            *g = sigmoid(raw_at(2 + i)) * 0.5;
        }
        self.seasonals.clear();
        self.seasonals.extend_from_slice(&self.start.seasonals);
    }

    /// Run the loaded point through the whole series; `false` at the first
    /// non-finite one-step error. With `residuals`, the counted one-step
    /// errors are appended in step order.
    fn run(&mut self, residuals: Option<&mut Vec<f64>>) -> bool {
        match self.periods.len() {
            0 => self.run_in::<[Lane; 0]>([], residuals),
            1 => self.run_in([Lane::default(); 1], residuals),
            2 => self.run_in([Lane::default(); 2], residuals),
            3 => self.run_in([Lane::default(); 3], residuals),
            4 => self.run_in([Lane::default(); 4], residuals),
            5 => self.run_in([Lane::default(); 5], residuals),
            p => {
                let mut spill = std::mem::take(&mut self.spill);
                spill.resize(p, Lane::default());
                let ok = self.run_in(spill.as_mut_slice(), residuals);
                self.spill = spill;
                ok
            }
        }
    }

    /// [`Self::run`] with the lanes in `lanes`, one per period.
    fn run_in<L: AsMut<[Lane]>>(
        &mut self,
        mut lanes: L,
        mut residuals: Option<&mut Vec<f64>>,
    ) -> bool {
        let lanes = lanes.as_mut();
        let mut offset = 0;
        for ((lane, &gamma), &m) in lanes.iter_mut().zip(&self.gammas).zip(self.periods) {
            *lane = Lane {
                gamma,
                keep: 1.0 - gamma,
                cur: 0.0,
                slot: offset,
                start: offset,
                end: offset + m,
            };
            offset += m;
        }
        let seasonals = self.seasonals.as_mut_slice();
        let EsPoint {
            alpha,
            beta,
            mut level,
            mut trend,
            mut sse,
        } = self.point;
        let (keep_level, keep_trend) = (1.0 - alpha, 1.0 - beta);
        for (t, &x) in self.y.iter().enumerate() {
            // every seasonal sum folds from -0.0, the neutral element `Sum`
            // starts from
            let mut season_sum = -0.0;
            for lane in lanes.iter_mut() {
                // tscheck:allow(strict-index): a lane's slot stays in start..end, inside the cycles
                lane.cur = seasonals[lane.slot];
                season_sum += lane.cur;
            }
            let err = x - (level + trend + season_sum);
            if !err.is_finite() {
                return false;
            }
            if t >= self.start.warmup {
                sse += err * err;
                if let Some(r) = residuals.as_deref_mut() {
                    r.push(err);
                }
            }
            let prev_level = level;
            level = alpha * (x - season_sum) + keep_level * (level + trend);
            if self.use_trend {
                trend = beta * (level - prev_level) + keep_trend * trend;
            }
            // period j's update sums the other periods' terms in period
            // order: the already-updated ones before it, carried in `done`,
            // then the old ones after it, as the reference recursion does
            let mut done = -0.0;
            let mut rest = &mut *lanes;
            while let [lane, after @ ..] = std::mem::take(&mut rest) {
                let other = after.iter().fold(done, |s, l| s + l.cur);
                lane.cur = lane.gamma * (x - level - other) + lane.keep * lane.cur;
                // tscheck:allow(strict-index): a lane's slot stays in start..end, inside the cycles
                seasonals[lane.slot] = lane.cur;
                done += lane.cur;
                lane.slot += 1;
                if lane.slot == lane.end {
                    lane.slot = lane.start;
                }
                rest = after;
            }
        }
        self.point = EsPoint {
            alpha,
            beta,
            level,
            trend,
            sse,
        };
        true
    }

    /// The search objective: the SSE at one raw optimizer point, `+inf`
    /// when its recursion goes non-finite.
    fn sse(&mut self, raw: &[f64]) -> f64 {
        self.load(raw);
        if self.run(None) {
            self.point.sse
        } else {
            f64::INFINITY
        }
    }

    /// The fitted state at one raw optimizer point, residuals included;
    /// `None` when its recursion goes non-finite.
    fn fitted_state(&mut self, raw: &[f64]) -> Option<EsState> {
        self.load(raw);
        let mut residuals = Vec::with_capacity(self.y.len());
        if !self.run(Some(&mut residuals)) {
            return None;
        }
        let mut cycles = self.seasonals.as_slice();
        let seasonals = self
            .periods
            .iter()
            .map(|&m| {
                let (cycle, rest) = cycles.split_at(m.min(cycles.len()));
                cycles = rest;
                cycle.to_vec()
            })
            .collect();
        let p = self.point;
        Some(EsState {
            level: p.level,
            trend: p.trend,
            seasonals,
            alpha: p.alpha,
            beta: p.beta,
            gammas: self.gammas.clone(),
            residuals,
            sse: p.sse,
        })
    }
}

/// BATS's smoothing-constant search objective at each raw (pre-sigmoid)
/// point, evaluated the way one search evaluates its points: one start
/// state and one reused recursion. `y` is the (possibly Box-Cox
/// transformed) series; `None` when it is shorter than the warm-up.
/// The kernels bench times it against the plain recursion and pins its
/// SSE bits.
pub fn smoothing_sse(
    y: &[f64],
    use_trend: bool,
    periods: &[usize],
    points: &[Vec<f64>],
) -> Option<Vec<f64>> {
    let start = EsStart::new(y, use_trend, periods)?;
    let mut rec = EsRecursion::new(y, use_trend, periods, &start);
    Some(points.iter().map(|p| rec.sse(p)).collect())
}

/// The models one Box-Cox × trend grid combination produced, in ARMA
/// order, and whether the deadline cut its ARMA choices short.
#[derive(Default)]
struct GridCell {
    models: Vec<Bats>,
    truncated: bool,
}

impl Bats {
    /// The optimized smoothing constants `(α, β, γ_per_period)`.
    pub fn smoothing_params(&self) -> (f64, f64, &[f64]) {
        (self.es.alpha, self.es.beta, &self.es.gammas)
    }

    /// Fit a BATS model with automatic component selection by AIC.
    pub fn fit(series: &[f64], config: &BatsConfig) -> Result<Self, FitError> {
        Self::fit_with_deadline(series, config, None)
    }

    /// [`Bats::fit`] with a cooperative hard stop: the deadline is threaded
    /// into each smoothing-constant search and checked before every grid
    /// combination and ARMA choice, so an expired budget returns the best
    /// configuration found so far with `timed_out == true`.
    ///
    /// The four Box-Cox × trend combinations are independent searches and
    /// run side by side on the shared worker pool; their models are merged
    /// in the fixed grid order (Box-Cox, then trend, then ARMA), so the
    /// selection is bit-identical to a serial walk of the grid.
    ///
    /// Even on an already-expired deadline the first grid combination (and
    /// its first ARMA choice) always runs, and should it fit nothing the
    /// skipped combinations are tried in grid order until one does: a fit
    /// never fails for lack of time alone.
    pub fn fit_with_deadline(
        series: &[f64],
        config: &BatsConfig,
        deadline: Option<Instant>,
    ) -> Result<Self, FitError> {
        let periods = Self::feasible_periods(series, config)?;
        let options = |forced: Option<bool>| match forced {
            Some(b) => vec![b],
            None => vec![false, true],
        };
        let arma_options = options(config.use_arma);
        let combos: Vec<(bool, bool)> = options(config.use_box_cox)
            .into_iter()
            .flat_map(|bc| {
                options(config.use_trend)
                    .into_iter()
                    .map(move |tr| (bc, tr))
            })
            .collect();
        let expired = || deadline.is_some_and(|d| Instant::now() >= d);
        let fit_cell = |i: usize, first: bool| {
            combos.get(i).map(|&(use_bc, use_trend)| {
                Self::fit_grid_cell(
                    series,
                    &periods,
                    use_bc,
                    use_trend,
                    &arma_options,
                    deadline,
                    first,
                )
            })
        };
        // `None`: skipped because the deadline had already passed
        let cells = parallel_try_map_range(combos.len(), |i| {
            if i > 0 && expired() {
                None
            } else {
                fit_cell(i, i == 0)
            }
        });

        let mut truncated = false;
        let mut best: Option<Bats> = None;
        let mut merge = |cell: GridCell| {
            truncated |= cell.truncated;
            for cand in cell.models {
                if best.as_ref().is_none_or(|b| cand.aic < b.aic) {
                    best = Some(cand);
                }
            }
        };
        let mut fitted_any = false;
        let mut panicked = None;
        let mut skipped = Vec::new();
        for (i, cell) in cells.into_iter().enumerate() {
            match cell {
                Ok(Some(cell)) => {
                    fitted_any |= !cell.models.is_empty();
                    merge(cell);
                }
                Ok(None) => skipped.push(i),
                Err(p) => panicked = Some(p),
            }
        }
        // the deadline skipped every combination but the first; if that
        // one fitted nothing, keep going in grid order until one does
        for &i in &skipped {
            if fitted_any {
                break;
            }
            if let Some(cell) = fit_cell(i, true) {
                fitted_any |= !cell.models.is_empty();
                merge(cell);
            }
        }
        truncated |= !skipped.is_empty();
        let mut best = best.ok_or_else(|| match panicked {
            Some(p) => FitError::new(format!("no BATS configuration could be fitted: {p}")),
            None => FitError::new("no BATS configuration could be fitted"),
        })?;
        best.timed_out |= truncated;
        Ok(best)
    }

    /// The requested periods that fit twice into the data (infeasible ones
    /// are silently dropped, matching the reference implementation's
    /// behavior on short series), after rejecting non-finite and too-short
    /// series.
    fn feasible_periods(series: &[f64], config: &BatsConfig) -> Result<Vec<usize>, FitError> {
        if series.iter().any(|v| !v.is_finite()) {
            return Err(FitError::new("series contains non-finite values"));
        }
        let periods: Vec<usize> = config
            .seasonal_periods
            .iter()
            .copied()
            .filter(|&m| m >= 2 && 2 * m < series.len())
            .collect();
        let max_period = periods.iter().copied().max().unwrap_or(0);
        if series.len() < (2 * max_period).max(10) {
            return Err(FitError::new(format!(
                "series too short for BATS: {} < {}",
                series.len(),
                (2 * max_period).max(10)
            )));
        }
        Ok(periods)
    }

    /// One Box-Cox × trend combination of the component grid: transform,
    /// smoothing-constant search, then one model per ARMA choice. `first`
    /// marks the combination that must produce a model even past the
    /// deadline, so its first ARMA choice always runs.
    fn fit_grid_cell(
        series: &[f64],
        periods: &[usize],
        use_bc: bool,
        use_trend: bool,
        arma_options: &[bool],
        deadline: Option<Instant>,
        first: bool,
    ) -> GridCell {
        let (transformed, lambda, offset) = transform_series(series, use_bc);
        let mut cell = GridCell::default();
        let Some((es, es_timed_out, raw)) =
            Self::fit_es(&transformed, use_trend, periods, deadline, None)
        else {
            return cell;
        };
        for &use_arma in arma_options {
            if (!first || !cell.models.is_empty()) && deadline.is_some_and(|d| Instant::now() >= d)
            {
                cell.truncated = true;
                break;
            }
            cell.models.push(Self::assemble(
                es.clone(),
                es_timed_out,
                raw.clone(),
                lambda,
                offset,
                use_trend,
                periods,
                use_arma,
                deadline,
                series.len(),
            ));
        }
        cell
    }

    /// Build a model from a fitted smoothing core: fit the optional
    /// ARMA(1,1) error correction on its residuals and score the
    /// configuration by AIC.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        es: EsState,
        es_timed_out: bool,
        raw: Vec<f64>,
        lambda: Option<f64>,
        offset: f64,
        use_trend: bool,
        periods: &[usize],
        use_arma: bool,
        deadline: Option<Instant>,
        n: usize,
    ) -> Self {
        let arma = if use_arma && es.residuals.len() >= 30 {
            Arima::fit_with_deadline(&es.residuals, ArimaSpec::new(1, 0, 1), deadline).ok()
        } else {
            None
        };
        let sse = match &arma {
            Some(a) => a.sigma2 * es.residuals.len() as f64,
            None => es.sse,
        };
        let n_eff = es.residuals.len().max(1) as f64;
        let k = 2.0
            + periods.len() as f64
            + if use_trend { 1.0 } else { 0.0 }
            + if lambda.is_some() { 1.0 } else { 0.0 }
            + if arma.is_some() { 2.0 } else { 0.0 };
        let aic = n_eff * (sse / n_eff).max(1e-300).ln() + 2.0 * k;
        let timed_out = es_timed_out || arma.as_ref().is_some_and(|a| a.timed_out);
        Bats {
            lambda,
            offset,
            has_trend: use_trend,
            periods: periods.to_vec(),
            has_arma: arma.is_some(),
            es,
            arma,
            raw,
            aic,
            timed_out,
            n,
        }
    }

    /// Warm-restart fit: reuse the component structure and optimizer state
    /// of a previously fitted model instead of re-running the full
    /// automatic search.
    ///
    /// The expensive parts of [`Bats::fit`] are the 2×2×2 AIC component
    /// grid (up to four smoothing-constant searches) and the golden-section
    /// Box-Cox λ selection. A seeded refit skips both: the seed fixes the
    /// component selection (Box-Cox/trend/ARMA flags and λ) and its raw
    /// optimizer vector becomes a Nelder–Mead starting point next to a cold
    /// restart (the two run side by side on the worker pool), so on
    /// mildly-changed data the search restarts next to the optimum and
    /// converges in a handful of iterations. The positivity offset is
    /// recomputed for the new data (reusing a stale offset could push
    /// observations out of the Box-Cox domain). ARMA error correction, when
    /// selected, is refitted on the new residuals.
    ///
    /// Fails — signalling the caller to fall back to a cold [`Bats::fit`] —
    /// when the feasible seasonal periods of `series` no longer match the
    /// seed's (the model structure itself changed).
    pub fn fit_seeded_with_deadline(
        series: &[f64],
        config: &BatsConfig,
        seed: &Bats,
        deadline: Option<Instant>,
    ) -> Result<Self, FitError> {
        let periods = Self::feasible_periods(series, config)?;
        if periods != seed.periods {
            return Err(FitError::new(
                "seeded BATS refit: feasible seasonal periods changed",
            ));
        }
        let (transformed, lambda, offset) = match seed.lambda {
            Some(l) => {
                let min = series.iter().cloned().fold(f64::INFINITY, f64::min);
                let offset = if min <= 0.0 { 1.0 - min } else { 0.0 };
                (
                    series
                        .iter()
                        .map(|&v| box_cox(v + offset, l))
                        .collect::<Vec<f64>>(),
                    Some(l),
                    offset,
                )
            }
            None => (series.to_vec(), None, 0.0),
        };
        let (es, es_timed_out, raw) = Self::fit_es(
            &transformed,
            seed.has_trend,
            &periods,
            deadline,
            Some(&seed.raw),
        )
        .ok_or_else(|| FitError::new("seeded BATS refit: smoothing fit failed"))?;
        Ok(Self::assemble(
            es,
            es_timed_out,
            raw,
            lambda,
            offset,
            seed.has_trend,
            &periods,
            seed.has_arma,
            deadline,
            series.len(),
        ))
    }

    /// Fit the exponential-smoothing core with Nelder–Mead over smoothing
    /// constants (sigmoid-constrained), each evaluated point run through
    /// the search's one [`EsRecursion`]. The second element of the result
    /// reports whether the search was cut short by the deadline; the third
    /// is the raw optimizer vector at the optimum, reusable as a warm start
    /// via `seed`. A `seed` whose length does not match the parameter
    /// dimension is ignored (cold start).
    fn fit_es(
        y: &[f64],
        use_trend: bool,
        periods: &[usize],
        deadline: Option<Instant>,
        seed: Option<&[f64]>,
    ) -> Option<(EsState, bool, Vec<f64>)> {
        let start = EsStart::new(y, use_trend, periods)?;
        let dim = 2 + periods.len();
        let opts = NelderMeadOptions {
            max_evals: 600 * dim,
            deadline,
            ..Default::default()
        };
        // one search owns one scratch recursion, so concurrent searches
        // share nothing but the read-only start state
        let search = |init: &[f64]| {
            let mut rec = EsRecursion::new(y, use_trend, periods, &start);
            nelder_mead(|raw| rec.sse(raw), init, &opts)
        };
        let cold_init = vec![-1.0; dim];
        // a seeded search restarts from the previous optimum AND from the
        // cold initialization, keeping whichever converges lower: the seed
        // usually wins in a handful of iterations, but when the grown data
        // moved the optimum the cold start stops a stale seed from pinning
        // the search in its old basin. The two restarts are independent and
        // run side by side on the worker pool. Ties resolve to the
        // cold-start result, which is bitwise what a cold fit of this
        // configuration would produce.
        let (raw, timed_out) = match seed {
            Some(s) if s.len() == dim => {
                let mut runs =
                    parallel_try_map_range(2, |i| search(if i == 0 { s } else { &cold_init }))
                        .into_iter()
                        .map(Result::ok);
                match (runs.next().flatten(), runs.next().flatten()) {
                    (Some((r_seed, f_seed, t_seed)), Some((r_cold, f_cold, t_cold))) => {
                        if f_seed < f_cold {
                            (r_seed, t_seed || t_cold)
                        } else {
                            (r_cold, t_seed || t_cold)
                        }
                    }
                    (Some((r, _, t)), None) | (None, Some((r, _, t))) => (r, t),
                    (None, None) => return None,
                }
            }
            _ => {
                let (r, _, t) = search(&cold_init);
                (r, t)
            }
        };
        let st = EsRecursion::new(y, use_trend, periods, &start).fitted_state(&raw)?;
        Some((st, timed_out, raw))
    }

    /// Forecast `horizon` values on the original scale.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        let arma_fore = self.arma.as_ref().map(|a| a.forecast(horizon));
        (1..=horizon)
            .map(|h| {
                let t = self.n + h - 1;
                let season_sum: f64 = self
                    .periods
                    .iter()
                    .zip(&self.es.seasonals)
                    .map(|(&m, s)| s.get(t % m).copied().unwrap_or_default())
                    .sum();
                let mut v = self.es.level + self.es.trend * h as f64 + season_sum;
                if let Some(af) = &arma_fore {
                    v += af.get(h - 1).copied().unwrap_or_default();
                }
                match self.lambda {
                    Some(l) => box_cox_inv(v, l) - self.offset,
                    None => v,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_only_series() {
        let y = vec![10.0; 40];
        let m = Bats::fit(&y, &BatsConfig::auto()).unwrap();
        let f = m.forecast(5);
        for v in f {
            assert!((v - 10.0).abs() < 0.2, "{v}");
        }
    }

    #[test]
    fn trended_series_selects_trend() {
        let y: Vec<f64> = (0..80).map(|i| 5.0 + 0.7 * i as f64).collect();
        let m = Bats::fit(&y, &BatsConfig::auto()).unwrap();
        let f = m.forecast(4);
        for (h, &v) in f.iter().enumerate() {
            let truth = 5.0 + 0.7 * (80 + h) as f64;
            assert!((v - truth).abs() < 3.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn seasonal_pattern_recovered() {
        let pattern = [8.0, -3.0, -7.0, 2.0];
        let y: Vec<f64> = (0..100).map(|i| 50.0 + pattern[i % 4]).collect();
        let m = Bats::fit(&y, &BatsConfig::with_periods(vec![4])).unwrap();
        let f = m.forecast(8);
        for (h, &v) in f.iter().enumerate() {
            let truth = 50.0 + pattern[(100 + h) % 4];
            assert!((v - truth).abs() < 2.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn dual_seasonality_fits_both_components() {
        // periods 6 and 14 superimposed — the Figure 5(d) scenario
        let y: Vec<f64> = (0..400)
            .map(|i| {
                let t = i as f64;
                30.0 + 5.0 * (2.0 * std::f64::consts::PI * t / 6.0).sin()
                    + 9.0 * (2.0 * std::f64::consts::PI * t / 14.0).sin()
            })
            .collect();
        let m = Bats::fit(&y, &BatsConfig::with_periods(vec![6, 14])).unwrap();
        let f = m.forecast(28);
        let truth: Vec<f64> = (400..428)
            .map(|i| {
                let t = i as f64;
                30.0 + 5.0 * (2.0 * std::f64::consts::PI * t / 6.0).sin()
                    + 9.0 * (2.0 * std::f64::consts::PI * t / 14.0).sin()
            })
            .collect();
        let mae: f64 = f
            .iter()
            .zip(&truth)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / truth.len() as f64;
        assert!(mae < 3.5, "dual-seasonality MAE {mae}");
    }

    #[test]
    fn box_cox_helps_exponential_growth() {
        let y: Vec<f64> = (0..90).map(|i| (0.05 * i as f64).exp() * 10.0).collect();
        let with_bc = Bats::fit(
            &y,
            &BatsConfig {
                use_box_cox: Some(true),
                use_trend: Some(true),
                use_arma: Some(false),
                seasonal_periods: vec![],
            },
        )
        .unwrap();
        let f = with_bc.forecast(5);
        for (h, &v) in f.iter().enumerate() {
            let truth = (0.05 * (90 + h) as f64).exp() * 10.0;
            assert!((v - truth).abs() / truth < 0.25, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn component_flags_respected() {
        let y: Vec<f64> = (0..60).map(|i| 5.0 + (i as f64 * 0.4).sin()).collect();
        let m = Bats::fit(
            &y,
            &BatsConfig {
                use_box_cox: Some(false),
                use_trend: Some(false),
                use_arma: Some(false),
                seasonal_periods: vec![],
            },
        )
        .unwrap();
        assert!(m.lambda.is_none());
        assert!(!m.has_trend);
        assert!(!m.has_arma);
    }

    #[test]
    fn too_short_rejected() {
        assert!(Bats::fit(&[1.0, 2.0, 3.0], &BatsConfig::auto()).is_err());
    }

    #[test]
    fn expired_deadline_still_yields_a_usable_model() {
        let pattern = [8.0, -3.0, -7.0, 2.0];
        let y: Vec<f64> = (0..100).map(|i| 50.0 + pattern[i % 4]).collect();
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let m =
            Bats::fit_with_deadline(&y, &BatsConfig::with_periods(vec![4]), Some(past)).unwrap();
        assert!(m.timed_out);
        assert!(m.forecast(8).iter().all(|v| v.is_finite()));
        // only the first grid combination ran: no Box-Cox, trend or ARMA
        assert!(m.lambda.is_none() && !m.has_trend && !m.has_arma);
        let warm = Bats::fit_seeded_with_deadline(
            &y,
            &BatsConfig::with_periods(vec![4]),
            &Bats::fit(&y[..80], &BatsConfig::with_periods(vec![4])).unwrap(),
            Some(past),
        )
        .unwrap();
        assert!(warm.timed_out);
        assert!(warm.forecast(8).iter().all(|v| v.is_finite()));
        // a generous deadline behaves exactly like no deadline
        let far = Instant::now() + std::time::Duration::from_secs(600);
        let full =
            Bats::fit_with_deadline(&y, &BatsConfig::with_periods(vec![4]), Some(far)).unwrap();
        assert!(!full.timed_out);
        let unbounded = Bats::fit(&y, &BatsConfig::with_periods(vec![4])).unwrap();
        for (a, b) in full.forecast(8).iter().zip(&unbounded.forecast(8)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn seeded_refit_matches_cold_quality_on_extended_series() {
        let pattern = [8.0, -3.0, -7.0, 2.0];
        let gen = |n: usize| -> Vec<f64> { (0..n).map(|i| 50.0 + pattern[i % 4]).collect() };
        let cfg = BatsConfig::with_periods(vec![4]);
        let seed = Bats::fit(&gen(80), &cfg).unwrap();
        let warm = Bats::fit_seeded_with_deadline(&gen(100), &cfg, &seed, None).unwrap();
        // structure is inherited from the seed, not re-searched
        assert_eq!(warm.has_trend, seed.has_trend);
        assert_eq!(warm.has_arma, seed.has_arma);
        assert_eq!(warm.lambda.is_some(), seed.lambda.is_some());
        assert_eq!(warm.periods, seed.periods);
        // and the warm forecast is as good as a cold one
        for (h, &v) in warm.forecast(8).iter().enumerate() {
            let truth = 50.0 + pattern[(100 + h) % 4];
            assert!((v - truth).abs() < 2.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn seeded_refit_is_deterministic() {
        let y: Vec<f64> = (0..90)
            .map(|i| 20.0 + (i as f64 * 0.3).sin() * 4.0)
            .collect();
        let cfg = BatsConfig::auto();
        let seed = Bats::fit(&y[..70], &cfg).unwrap();
        let a = Bats::fit_seeded_with_deadline(&y, &cfg, &seed, None).unwrap();
        let b = Bats::fit_seeded_with_deadline(&y, &cfg, &seed, None).unwrap();
        for (x, z) in a.forecast(6).iter().zip(&b.forecast(6)) {
            assert_eq!(x.to_bits(), z.to_bits());
        }
    }

    #[test]
    fn seeded_refit_rejects_structure_change() {
        let pattern = [8.0, -3.0, -7.0, 2.0];
        let y: Vec<f64> = (0..100).map(|i| 50.0 + pattern[i % 4]).collect();
        let seed = Bats::fit(&y, &BatsConfig::with_periods(vec![4])).unwrap();
        // on a much shorter window the period-4 component is still feasible,
        // but requesting different periods must refuse the seed
        let err = Bats::fit_seeded_with_deadline(
            &y[..40],
            &BatsConfig::with_periods(vec![12]),
            &seed,
            None,
        );
        assert!(err.is_err());
    }

    #[test]
    fn infeasible_periods_are_dropped() {
        let y: Vec<f64> = (0..30).map(|i| i as f64).collect();
        // period 40 cannot fit twice in 30 points → silently dropped
        let m = Bats::fit(&y, &BatsConfig::with_periods(vec![40])).unwrap();
        assert!(m.periods.is_empty());
    }

    /// The original smoothing recursion, kept verbatim as the reference
    /// [`EsRecursion`] must match bit for bit.
    fn reference_run_es(
        y: &[f64],
        use_trend: bool,
        periods: &[usize],
        alpha: f64,
        beta: f64,
        gammas: &[f64],
    ) -> Option<EsState> {
        let warmup = periods.iter().copied().max().unwrap_or(1).max(2);
        let base = autoai_linalg::mean(y.get(..warmup)?);
        let mut seasonals: Vec<Vec<f64>> = periods
            .iter()
            .map(|&m| {
                let mut idx = vec![0.0; m];
                let cycles = y.len() / m;
                let use_cycles = cycles.clamp(1, 2);
                for (j, v) in idx.iter_mut().enumerate() {
                    let mut s = 0.0;
                    for c in 0..use_cycles {
                        s += y.get(c * m + j).copied().unwrap_or(base);
                    }
                    *v = s / use_cycles as f64 - base;
                }
                if periods.len() > 1 {
                    for v in idx.iter_mut() {
                        *v /= periods.len() as f64;
                    }
                }
                idx
            })
            .collect();
        let mut level = base;
        let mut trend = if use_trend && y.len() > warmup {
            (y.get(warmup)? - y.first()?) / warmup as f64
        } else {
            0.0
        };
        let mut residuals = Vec::with_capacity(y.len());
        let mut sse = 0.0;
        for (t, &x) in y.iter().enumerate() {
            let season_sum: f64 = periods
                .iter()
                .zip(&seasonals)
                .map(|(&m, s)| s.get(t % m).copied().unwrap_or_default())
                .sum();
            let fitted = level + trend + season_sum;
            let err = x - fitted;
            if !err.is_finite() {
                return None;
            }
            if t >= warmup {
                sse += err * err;
                residuals.push(err);
            }
            let prev_level = level;
            level = alpha * (x - season_sum) + (1.0 - alpha) * (level + trend);
            if use_trend {
                trend = beta * (level - prev_level) + (1.0 - beta) * trend;
            }
            for j in 0..periods.len() {
                let other: f64 = periods
                    .iter()
                    .zip(&seasonals)
                    .enumerate()
                    .filter(|&(k, _)| k != j)
                    .map(|(_, (&mk, s))| s.get(t % mk).copied().unwrap_or_default())
                    .sum();
                let g = gammas.get(j).copied().unwrap_or_default();
                let m = periods.get(j).copied().unwrap_or(1);
                if let Some(slot) = seasonals.get_mut(j).and_then(|s| s.get_mut(t % m)) {
                    *slot = g * (x - level - other) + (1.0 - g) * *slot;
                }
            }
        }
        Some(EsState {
            level,
            trend,
            seasonals,
            alpha,
            beta,
            gammas: gammas.to_vec(),
            residuals,
            sse,
        })
    }

    /// The reference recursion at one raw optimizer point.
    fn reference_at(y: &[f64], use_trend: bool, periods: &[usize], raw: &[f64]) -> Option<EsState> {
        let alpha = sigmoid(raw[0]);
        let beta = if use_trend { sigmoid(raw[1]) } else { 0.0 };
        let gammas: Vec<f64> = (0..periods.len())
            .map(|i| sigmoid(raw[2 + i]) * 0.5)
            .collect();
        reference_run_es(y, use_trend, periods, alpha, beta, &gammas)
    }

    fn state_bits(st: &EsState) -> Vec<u64> {
        [st.level, st.trend, st.alpha, st.beta, st.sse]
            .iter()
            .chain(st.seasonals.iter().flatten())
            .chain(&st.gammas)
            .chain(&st.residuals)
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn one_point_objective_matches_reference_recursion_bitwise() {
        let y: Vec<f64> = (0..160)
            .map(|i| {
                let t = i as f64;
                40.0 + 0.2 * t
                    + 5.0 * (2.0 * std::f64::consts::PI * t / 6.0).sin()
                    + 3.0 * (2.0 * std::f64::consts::PI * t / 14.0).cos()
                    + ((i * 7919) % 13) as f64 * 0.3
            })
            .collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 6.0 - 3.0
        };
        // every period count the lane dispatch compiles (0 to 5), then one
        // past it, which runs on the spill lanes
        let all = [6, 14, 5, 9, 4, 11];
        for periods in (0..=all.len()).map(|k| all[..k].to_vec()) {
            for use_trend in [false, true] {
                let start = EsStart::new(&y, use_trend, &periods).unwrap();
                // one scratch reused across every point: a stale state
                // must not leak from one call into the next
                let mut rec = EsRecursion::new(&y, use_trend, &periods, &start);
                let dim = 2 + periods.len();
                let mut points: Vec<Vec<f64>> =
                    (0..9).map(|_| (0..dim).map(|_| next()).collect()).collect();
                // a NaN coordinate sends that point's recursion non-finite
                // a step in, after it has dirtied the scratch; it sits
                // midway through the sequence, so the points after it
                // prove the scratch resets
                let bad = points.len() / 2;
                points[bad][0] = f64::NAN;
                for (i, p) in points.iter().enumerate() {
                    let want = reference_at(&y, use_trend, &periods, p);
                    assert_eq!(want.is_none(), i == bad, "point {i}");
                    let want_sse = want.as_ref().map_or(f64::INFINITY, |st| st.sse);
                    assert_eq!(
                        rec.sse(p).to_bits(),
                        want_sse.to_bits(),
                        "periods {periods:?} trend {use_trend} point {i}"
                    );
                    // the fitted-state pass runs the same recursion
                    assert_eq!(
                        rec.fitted_state(p).as_ref().map(state_bits),
                        want.as_ref().map(state_bits),
                        "fitted state: periods {periods:?} trend {use_trend} point {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn fan_out_fit_matches_direct_fit_when_nested_in_busy_pool_items() {
        let y: Vec<f64> = (0..240)
            .map(|i| {
                let t = i as f64;
                30.0 + 0.1 * t
                    + 5.0 * (2.0 * std::f64::consts::PI * t / 6.0).sin()
                    + 9.0 * (2.0 * std::f64::consts::PI * t / 14.0).sin()
                    + ((i * 31) % 7) as f64 * 0.2
            })
            .collect();
        let cfg = BatsConfig::with_periods(vec![6, 14]);
        let pin = |m: &Bats| {
            let (a, b, g) = m.smoothing_params();
            let mut v = vec![m.aic.to_bits(), a.to_bits(), b.to_bits()];
            v.extend(g.iter().map(|x| x.to_bits()));
            v.extend(m.lambda.map(f64::to_bits));
            v.push(u64::from(m.has_trend) | u64::from(m.has_arma) << 1);
            v.extend(m.forecast(12).iter().map(|x| x.to_bits()));
            v
        };
        let direct = Bats::fit(&y, &cfg).unwrap();
        let seed = Bats::fit(&y[..200], &cfg).unwrap();
        let warm = Bats::fit_seeded_with_deadline(&y, &cfg, &seed, None).unwrap();
        // every pool item is busy with a fit of its own, so the nested
        // fan-outs run mostly on their owners
        let nested = parallel_try_map_range(4, |i| {
            if i % 2 == 0 {
                Bats::fit(&y, &cfg).map(|m| pin(&m))
            } else {
                Bats::fit_seeded_with_deadline(&y, &cfg, &seed, None).map(|m| pin(&m))
            }
        });
        for (i, r) in nested.into_iter().enumerate() {
            let want = if i % 2 == 0 { pin(&direct) } else { pin(&warm) };
            assert_eq!(r.unwrap().unwrap(), want, "item {i}");
        }
    }
}
