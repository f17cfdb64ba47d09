//! Stateless (pointwise, invertible) transforms: the log transform the
//! `*_log` window pipelines apply.
//!
//! "Stateless" in the paper means the transform does not remember sequence
//! state — each value maps independently. The transform still `fit`s a
//! per-series offset from training data.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use autoai_tsdata::TimeSeriesFrame;

use crate::traits::Transform;

fn map_frame(frame: &TimeSeriesFrame, f: impl Fn(usize, f64) -> f64) -> TimeSeriesFrame {
    let cols: Vec<Vec<f64>> = (0..frame.n_series())
        .map(|c| frame.series(c).iter().map(|&v| f(c, v)).collect())
        .collect();
    let mut out = TimeSeriesFrame::from_columns(cols);
    if frame.n_series() > 0 {
        out = out.with_names(frame.names().to_vec());
    }
    if let Some(ts) = frame.timestamps() {
        out = out.with_timestamps(ts.to_vec());
    }
    out
}

/// Natural log transform `ln(x + offset)` with a fitted per-series offset
/// that guarantees strict positivity (offset = 1 - min(x) when min ≤ 0).
#[derive(Debug, Clone, Default)]
pub struct LogTransform {
    offsets: Vec<f64>,
    /// How often `transform` had to clamp a non-positive (or NaN) shifted
    /// value up to `1e-12` before taking the log. Shared across clones so
    /// callers holding the original can audit a pipeline-internal copy.
    clamps: Arc<AtomicU64>,
}

impl LogTransform {
    /// New unfitted log transform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of values `transform` has clamped to keep the log finite.
    /// Zero on clean data whose range the fitted offset covers: any other
    /// value means outputs were silently distorted, which quality checks
    /// surface as `QualityIssue::NonPositiveForLog` upstream.
    pub fn clamp_count(&self) -> u64 {
        self.clamps.load(Ordering::Relaxed)
    }
}

impl Transform for LogTransform {
    fn fit(&mut self, frame: &TimeSeriesFrame) {
        self.offsets = (0..frame.n_series())
            .map(|c| {
                let min = frame
                    .series(c)
                    .iter()
                    .cloned()
                    .fold(f64::INFINITY, f64::min);
                if min.is_finite() && min <= 0.0 {
                    1.0 - min
                } else {
                    0.0
                }
            })
            .collect();
    }

    fn transform(&self, frame: &TimeSeriesFrame) -> TimeSeriesFrame {
        map_frame(frame, |c, v| {
            let shifted = v + self.offsets.get(c).copied().unwrap_or(0.0);
            if !(shifted >= 1e-12) {
                self.clamps.fetch_add(1, Ordering::Relaxed);
            }
            shifted.max(1e-12).ln()
        })
    }

    fn inverse_transform(&self, frame: &TimeSeriesFrame) -> TimeSeriesFrame {
        map_frame(frame, |c, v| {
            v.exp() - self.offsets.get(c).copied().unwrap_or(0.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(t: &mut dyn Transform, data: Vec<f64>, tol: f64) {
        let f = TimeSeriesFrame::univariate(data.clone());
        let tr = t.fit_transform(&f);
        let back = t.inverse_transform(&tr);
        for (a, b) in back.series(0).iter().zip(&data) {
            assert!((a - b).abs() < tol, "roundtrip: {a} vs {b}");
        }
    }

    #[test]
    fn log_roundtrip_positive() {
        roundtrip(&mut LogTransform::new(), vec![1.0, 10.0, 100.0], 1e-9);
    }

    #[test]
    fn log_roundtrip_with_nonpositive_values() {
        roundtrip(&mut LogTransform::new(), vec![-5.0, 0.0, 5.0], 1e-9);
    }

    #[test]
    fn log_never_clamps_clean_fitted_data() {
        let data = vec![-5.0, 0.0, 5.0, 12.5];
        let f = TimeSeriesFrame::univariate(data);
        let mut log = LogTransform::new();
        let _ = log.fit_transform(&f);
        assert_eq!(log.clamp_count(), 0);
    }

    #[test]
    fn out_of_range_data_is_counted_not_silently_clamped() {
        // fit on positive data (offset 0), then transform values the offset
        // cannot cover: every clamp must be surfaced on the counter
        let train = TimeSeriesFrame::univariate(vec![1.0, 2.0, 3.0]);
        let hostile = TimeSeriesFrame::univariate(vec![-4.0, 0.0, 2.0, f64::NAN]);
        let mut log = LogTransform::new();
        log.fit(&train);
        let _ = log.transform(&hostile);
        assert_eq!(log.clamp_count(), 3);
    }

    #[test]
    fn clamp_counter_is_shared_across_clones() {
        let train = TimeSeriesFrame::univariate(vec![1.0, 2.0, 3.0]);
        let mut log = LogTransform::new();
        log.fit(&train);
        let clone = log.clone();
        let _ = clone.transform(&TimeSeriesFrame::univariate(vec![-1.0]));
        assert_eq!(log.clamp_count(), 1);
    }
}
