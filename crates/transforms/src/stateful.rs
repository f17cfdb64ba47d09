//! Stateful transforms: differencing.
//!
//! Stateful transforms "retain the knowledge of the sequence of operations"
//! (§3). Differencing remembers the final observed values so that a
//! forecast expressed in differences can be integrated back onto the
//! original scale.

use autoai_tsdata::TimeSeriesFrame;

use crate::traits::Transform;

/// Order-d differencing with forecasting-aware inversion.
///
/// `transform` produces `Δᵈ x` (the frame shrinks by `d` rows).
/// `inverse_transform` interprets its input as values that *continue* the
/// training series (the forecasting case) and integrates using the stored
/// tail of the training data.
#[derive(Debug, Clone)]
pub struct DifferenceTransform {
    order: usize,
    /// For each series: the last value of each intermediate difference level
    /// (level 0 = original series … level d-1), used to integrate forecasts.
    anchors: Vec<Vec<f64>>,
}

impl DifferenceTransform {
    /// First-order differencing.
    pub fn new() -> Self {
        Self::with_order(1)
    }

    /// Differencing of the given order (`order >= 1`).
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 1, "difference order must be >= 1");
        Self {
            order,
            anchors: Vec::new(),
        }
    }

    /// The differencing order.
    pub fn order(&self) -> usize {
        self.order
    }

    fn diff_once(x: &[f64]) -> Vec<f64> {
        x.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

impl Default for DifferenceTransform {
    fn default() -> Self {
        Self::new()
    }
}

impl Transform for DifferenceTransform {
    fn fit(&mut self, frame: &TimeSeriesFrame) {
        self.anchors = (0..frame.n_series())
            .map(|c| {
                let mut level = frame.series(c).to_vec();
                let mut anchors = Vec::with_capacity(self.order);
                for _ in 0..self.order {
                    anchors.push(*level.last().unwrap_or(&0.0));
                    level = Self::diff_once(&level);
                }
                anchors
            })
            .collect();
    }

    fn transform(&self, frame: &TimeSeriesFrame) -> TimeSeriesFrame {
        let cols: Vec<Vec<f64>> = (0..frame.n_series())
            .map(|c| {
                let mut level = frame.series(c).to_vec();
                for _ in 0..self.order {
                    level = Self::diff_once(&level);
                }
                level
            })
            .collect();
        let mut out = TimeSeriesFrame::from_columns(cols);
        if frame.n_series() > 0 {
            out = out.with_names(frame.names().to_vec());
        }
        if let Some(ts) = frame.timestamps() {
            if ts.len() >= self.order {
                out = out.with_timestamps(ts[self.order..].to_vec());
            }
        }
        out
    }

    fn inverse_transform(&self, frame: &TimeSeriesFrame) -> TimeSeriesFrame {
        // integrate forecast differences: at each level, cumulative-sum the
        // values starting from the stored anchor of that level.
        let cols: Vec<Vec<f64>> = (0..frame.n_series())
            .map(|c| {
                let anchors = self.anchors.get(c).cloned().unwrap_or_default();
                let mut level = frame.series(c).to_vec();
                // invert highest-order difference first
                for anchor in anchors.iter().rev() {
                    let mut prev = *anchor;
                    for v in &mut level {
                        prev += *v;
                        *v = prev;
                    }
                }
                level
            })
            .collect();
        let mut out = TimeSeriesFrame::from_columns(cols);
        if frame.n_series() > 0 {
            out = out.with_names(frame.names().to_vec());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_values() {
        let f = TimeSeriesFrame::univariate(vec![1.0, 3.0, 6.0, 10.0]);
        let t = DifferenceTransform::new();
        let d = t.transform(&f);
        assert_eq!(d.series(0), &[2.0, 3.0, 4.0]);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn forecast_integration_continues_training_series() {
        // train on 1..=5; model forecasts constant differences of 1.0
        let train = TimeSeriesFrame::univariate(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut t = DifferenceTransform::new();
        t.fit(&train);
        let forecast_diffs = TimeSeriesFrame::univariate(vec![1.0, 1.0, 1.0]);
        let restored = t.inverse_transform(&forecast_diffs);
        assert_eq!(restored.series(0), &[6.0, 7.0, 8.0]);
    }

    #[test]
    fn second_order_difference_roundtrip_on_forecasts() {
        // quadratic series: second differences are constant 2
        let train: Vec<f64> = (0..10).map(|i| (i * i) as f64).collect();
        let f = TimeSeriesFrame::univariate(train.clone());
        let mut t = DifferenceTransform::with_order(2);
        t.fit(&f);
        let d = t.transform(&f);
        assert!(d.series(0).iter().all(|&v| (v - 2.0).abs() < 1e-9));
        // forecasting three more steps of constant second difference
        let fc = TimeSeriesFrame::univariate(vec![2.0, 2.0, 2.0]);
        let restored = t.inverse_transform(&fc);
        assert_eq!(restored.series(0), &[100.0, 121.0, 144.0]); // 10², 11², 12²
    }

    #[test]
    fn multivariate_differencing() {
        let f = TimeSeriesFrame::from_columns(vec![vec![1.0, 2.0, 4.0], vec![10.0, 30.0, 60.0]]);
        let mut t = DifferenceTransform::new();
        t.fit(&f);
        let d = t.transform(&f);
        assert_eq!(d.series(0), &[1.0, 2.0]);
        assert_eq!(d.series(1), &[20.0, 30.0]);
        let restored =
            t.inverse_transform(&TimeSeriesFrame::from_columns(vec![vec![3.0], vec![40.0]]));
        assert_eq!(restored.series(0), &[7.0]);
        assert_eq!(restored.series(1), &[100.0]);
    }

    #[test]
    fn log_then_difference_inverts_in_reverse_order() {
        use crate::stateless::LogTransform;
        // the `*_log` window pipelines log first, then difference; a perfect
        // forecast of the transformed values must map back onto the
        // original-scale continuation when inverted difference-first
        let data: Vec<f64> = (1..=40).map(|i| (i * i) as f64).collect();
        let future: Vec<f64> = (41..=43).map(|i| (i * i) as f64).collect();
        let mut log = LogTransform::new();
        let mut diff = DifferenceTransform::new();
        let _ = diff.fit_transform(&log.fit_transform(&TimeSeriesFrame::univariate(data.clone())));
        let mut all = data.clone();
        all.extend_from_slice(&future);
        let logs: Vec<f64> = all.iter().map(|v| v.ln()).collect();
        let cont_diffs: Vec<f64> = (data.len()..all.len())
            .map(|i| logs[i] - logs[i - 1])
            .collect();
        let restored = log
            .inverse_transform(&diff.inverse_transform(&TimeSeriesFrame::univariate(cont_diffs)));
        for (r, t) in restored.series(0).iter().zip(&future) {
            assert!((r - t).abs() < 1e-6 * t, "{r} vs {t}");
        }
    }

    #[test]
    fn timestamps_shrink_with_differencing() {
        let f = TimeSeriesFrame::univariate(vec![1.0, 2.0, 3.0]).with_regular_timestamps(0, 60);
        let t = DifferenceTransform::new();
        let d = t.transform(&f);
        assert_eq!(d.timestamps().unwrap(), &[60, 120]);
    }

    #[test]
    #[should_panic(expected = "order must be >= 1")]
    fn zero_order_rejected() {
        let _ = DifferenceTransform::with_order(0);
    }
}
