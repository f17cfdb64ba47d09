//! The sklearn-style transformer contract.

use autoai_tsdata::TimeSeriesFrame;

/// A fittable, invertible data transformation over time series frames.
///
/// Mirrors the sklearn transformer API from Figure 1 of the paper: `fit`
/// learns any parameters from training data, `transform` applies the
/// mapping, and `inverse_transform` undoes it (used at prediction time to
/// map model outputs back to the original scale).
pub trait Transform: Send + Sync {
    /// Learn transformation parameters from training data.
    fn fit(&mut self, frame: &TimeSeriesFrame);

    /// Apply the transformation.
    fn transform(&self, frame: &TimeSeriesFrame) -> TimeSeriesFrame;

    /// Undo the transformation on model outputs.
    ///
    /// For stateful transforms (e.g. differencing) this assumes the input
    /// continues immediately after the data seen at `fit`/`transform` time,
    /// which is exactly the forecasting case.
    fn inverse_transform(&self, frame: &TimeSeriesFrame) -> TimeSeriesFrame;

    /// Fit and transform in one call.
    fn fit_transform(&mut self, frame: &TimeSeriesFrame) -> TimeSeriesFrame {
        self.fit(frame);
        self.transform(frame)
    }
}
