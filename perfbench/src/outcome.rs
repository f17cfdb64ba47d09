//! What one measured phase of a workload produced: latencies, accuracy,
//! output checks, per-layer counters and the selection signature.

use std::collections::BTreeMap;

use autoai_ts::{DegradationLevel, IntervalForecast, TimeSeriesFrame};
use autoai_tsdata::{pinball_loss, smape};

/// Interval levels every read asks for; the 80% band gives the q10/q90
/// edges scored by pinball loss.
pub const LEVELS: [f64; 2] = [0.8, 0.95];

#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (an `Err`, a refusal, or a failed
    /// output check).
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Wall seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Latencies in ms by call kind: `predict`, `interval`, `observe`,
    /// `reselect` (an observe that re-selected) and `replay`.
    pub lat_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Model-selection latency in seconds: per series for cold fits (the
    /// fastest pass), per submitted re-fit on `serve-refit`.
    pub select_s: Vec<f64>,
    /// Accuracy of served forecasts against the rows that followed.
    pub smape: Vec<f64>,
    pub pinball: Vec<f64>,
    /// Holdout SMAPE of each selected forecaster.
    pub holdout_smape: Vec<f64>,
    /// Fits whose result the benchmark can see, and how many degraded.
    pub fits: u64,
    pub degraded: u64,
    /// `series winner look-back holdout-SMAPE-bits` per selection.
    pub signatures: Vec<String>,
    /// Bit hash of every served forecast, keyed by (series, step).
    pub forecasts: BTreeMap<String, u64>,
    /// Deterministic counters keyed by `counter@operation`, compared across
    /// the untraced and traced phases.
    pub exact: BTreeMap<String, u64>,
    /// Per-layer metrics of this phase.
    pub layer: BTreeMap<&'static str, f64>,
    /// Wall and process CPU seconds of the measured phase.
    pub wall_s: f64,
    pub cpu_s: Option<f64>,
}

impl Outcome {
    pub fn lat(&mut self, kind: &'static str, ms: f64) {
        self.lat_ms.entry(kind).or_default().push(ms);
    }

    pub fn lats(&self, kinds: &[&str]) -> Vec<f64> {
        kinds
            .iter()
            .filter_map(|k| self.lat_ms.get(k))
            .flatten()
            .copied()
            .collect()
    }

    /// Count one attempted operation; an `Err` counts as failed.
    pub fn attempt<T, E: std::fmt::Debug>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("{what}: {e:?}"));
                None
            }
        }
    }

    /// Record a failed output check against the operation just attempted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn degradation(&mut self, level: DegradationLevel) {
        self.fits += 1;
        if level != DegradationLevel::None {
            self.degraded += 1;
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.layer.entry(name).or_default() += value;
    }
}

/// Percentile by nearest rank on a copy of `xs`; NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// FNV-1a over the bits of every value of the frames.
pub fn bits_hash<'a>(frames: impl IntoIterator<Item = &'a TimeSeriesFrame>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in frames {
        for c in 0..f.n_series() {
            for v in f.series(c) {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    h
}

/// Every value finite and the shape `horizon x n_series`.
pub fn point_ok(f: &TimeSeriesFrame, horizon: usize, n_series: usize) -> Result<(), String> {
    if f.len() != horizon || f.n_series() != n_series {
        return Err(format!(
            "shape {}x{}, want {horizon}x{n_series}",
            f.len(),
            f.n_series()
        ));
    }
    if f.has_non_finite() {
        return Err("non-finite forecast".into());
    }
    Ok(())
}

/// Point forecast well formed, bands finite, bracketing the point and
/// nested (each wider level contains the narrower one).
pub fn interval_ok(iv: &IntervalForecast, horizon: usize, n_series: usize) -> Result<(), String> {
    point_ok(iv.point(), horizon, n_series)?;
    if iv.levels() != LEVELS {
        return Err(format!("levels {:?}", iv.levels()));
    }
    let mut inner: Option<(&TimeSeriesFrame, &TimeSeriesFrame)> = None;
    for idx in 0..LEVELS.len() {
        let (lo, hi) = iv.band(idx).ok_or("missing band")?;
        point_ok(lo, horizon, n_series)?;
        point_ok(hi, horizon, n_series)?;
        for c in 0..n_series {
            for r in 0..horizon {
                let p = iv.point().series(c)[r];
                let (l, u) = (lo.series(c)[r], hi.series(c)[r]);
                if !(l <= p && p <= u) {
                    return Err(format!("band {idx} [{l}, {u}] misses point {p}"));
                }
                if let Some((il, iu)) = inner {
                    if l > il.series(c)[r] || u < iu.series(c)[r] {
                        return Err(format!("band {idx} not nested"));
                    }
                }
            }
        }
        inner = Some((lo, hi));
    }
    Ok(())
}

/// Mean SMAPE over series of the leading forecast rows against `actual`
/// (row-major, at most the horizon).
pub fn score_smape(point: &TimeSeriesFrame, actual: &[Vec<f64>]) -> f64 {
    let n = actual.len().min(point.len());
    let per_series: Vec<f64> = (0..point.n_series())
        .map(|c| {
            let a: Vec<f64> = actual[..n].iter().map(|r| r[c]).collect();
            smape(&a, &point.series(c)[..n])
        })
        .collect();
    mean(&per_series)
}

/// Pinball loss of the 80% band's edges (q10 lower, q90 upper) against
/// `actual`, scaled by the mean absolute actual so series of different
/// magnitude weigh alike.
pub fn score_pinball(iv: &IntervalForecast, actual: &[Vec<f64>]) -> Result<f64, String> {
    let (lo, hi) = iv.band(0).ok_or("missing 80% band")?;
    let n = actual.len().min(lo.len());
    let mut per_series = Vec::new();
    for c in 0..lo.n_series() {
        let a: Vec<f64> = actual[..n].iter().map(|r| r[c]).collect();
        let q10 = pinball_loss(&a, &lo.series(c)[..n], 0.1).map_err(|e| format!("{e:?}"))?;
        let q90 = pinball_loss(&a, &hi.series(c)[..n], 0.9).map_err(|e| format!("{e:?}"))?;
        let scale = mean(&a.iter().map(|v| v.abs()).collect::<Vec<_>>()).max(1e-9);
        per_series.push((q10 + q90) / 2.0 / scale);
    }
    Ok(mean(&per_series))
}
