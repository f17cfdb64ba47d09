//! Temporal holdout split: time series data cannot be shuffled, so the
//! holdout is the contiguous tail of the frame.

use crate::frame::TimeSeriesFrame;

/// Split off the last `horizon` rows as a holdout: `(train, holdout)`.
pub fn holdout_split(
    frame: &TimeSeriesFrame,
    horizon: usize,
) -> (TimeSeriesFrame, TimeSeriesFrame) {
    let n = frame.len();
    let cut = n.saturating_sub(horizon);
    (frame.slice(0, cut), frame.slice(cut, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> TimeSeriesFrame {
        TimeSeriesFrame::univariate((0..n).map(|i| i as f64).collect())
    }

    #[test]
    fn holdout_takes_last_rows() {
        let (tr, ho) = holdout_split(&frame(50), 12);
        assert_eq!(tr.len(), 38);
        assert_eq!(ho.len(), 12);
        assert_eq!(ho.series(0)[0], 38.0);
    }

    #[test]
    fn holdout_larger_than_frame() {
        let (tr, ho) = holdout_split(&frame(5), 10);
        assert_eq!(tr.len(), 0);
        assert_eq!(ho.len(), 5);
    }
}
