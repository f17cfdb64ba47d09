//! Flatten-family windowing: turn a time series frame into a supervised
//! (X, y) dataset for ML regressors.
//!
//! The paper's stateful Flatten transforms reshape sequences into IID-style
//! learning problems: a look-back window of history becomes the feature
//! vector and the next `horizon` values become the multi-output target.
//! Two variants are used by the AutoAI-TS pipelines:
//!
//! * **Flatten** — all series in the window are concatenated (series-major)
//!   into one feature vector; the target stacks the next `horizon` values of
//!   all series. One global model sees every series.
//! * **Localized Flatten** — one dataset *per series*; each series is
//!   predicted from its own history only.
//!
//! The kernels here are the T-Daub hot loop: every (pipeline × allocation)
//! unit runs one of them. They are written index-free (iterator chunks and
//! checked `get` ranges instead of `[]` subscripts) so the tscheck strict
//! rules apply, and [`fill_flatten_rows`] exposes the row-filling core so
//! the [`crate::cache::TransformCache`] can extend a cached design matrix
//! with only the rows a grown allocation adds.

use autoai_linalg::Matrix;
use autoai_tsdata::TimeSeriesFrame;

/// A supervised dataset derived from sliding windows.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDataset {
    /// Features: `n_windows x (lookback * n_series)`.
    pub x: Matrix,
    /// Targets: `n_windows x (horizon * n_series)`.
    pub y: Matrix,
}

impl WindowDataset {
    /// Number of windows (rows) in the dataset.
    pub fn len(&self) -> usize {
        self.x.nrows()
    }

    /// True when no full window fits the data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size of the dataset's matrices in bytes (8 bytes per cell).
    /// Used by the transform cache to account for copies avoided.
    pub fn bytes(&self) -> u64 {
        fn matrix_bytes(m: &Matrix) -> u64 {
            (m.nrows() as u64) * (m.ncols() as u64) * 8
        }
        matrix_bytes(&self.x) + matrix_bytes(&self.y)
    }
}

/// Number of complete (look-back, horizon) windows that fit `len` samples.
pub fn n_windows(len: usize, lookback: usize, horizon: usize) -> usize {
    (len + 1).saturating_sub(lookback + horizon)
}

/// Fill rows of `x`/`y` with consecutive flatten windows of `frame`,
/// starting at window index `w_first`. The iterators bound how many rows
/// are written; every yielded row slice must have the flatten layout
/// (`lookback * n_series` feature columns, `horizon * n_series` targets).
/// This is the shared core of [`flatten_windows`] and the incremental
/// design-matrix extension in the transform cache.
pub(crate) fn fill_flatten_rows<'a>(
    frame: &TimeSeriesFrame,
    lookback: usize,
    horizon: usize,
    w_first: usize,
    x_rows: impl Iterator<Item = &'a mut [f64]>,
    y_rows: impl Iterator<Item = &'a mut [f64]>,
) {
    for (i, (xr, yr)) in x_rows.zip(y_rows).enumerate() {
        let w = w_first + i;
        for (chunk, col) in xr.chunks_mut(lookback).zip(frame.series_iter()) {
            if let Some(src) = col.get(w..w + lookback) {
                chunk.copy_from_slice(src);
            }
        }
        for (chunk, col) in yr.chunks_mut(horizon).zip(frame.series_iter()) {
            if let Some(src) = col.get(w + lookback..w + lookback + horizon) {
                chunk.copy_from_slice(src);
            }
        }
    }
}

/// Flatten transform: joint windows over all series.
///
/// Feature layout is series-major: `[s0[t-L..t], s1[t-L..t], …]`; the target
/// layout matches: `[s0[t..t+h], s1[t..t+h], …]`. Returns an empty dataset
/// when the frame is too short for a single window.
pub fn flatten_windows(frame: &TimeSeriesFrame, lookback: usize, horizon: usize) -> WindowDataset {
    assert!(
        lookback >= 1 && horizon >= 1,
        "lookback and horizon must be >= 1"
    );
    let count = n_windows(frame.len(), lookback, horizon);
    let s = frame.n_series();
    let mut x = Matrix::zeros(count, lookback.saturating_mul(s));
    let mut y = Matrix::zeros(count, horizon.saturating_mul(s));
    fill_flatten_rows(
        frame,
        lookback,
        horizon,
        0,
        x.rows_iter_mut(),
        y.rows_iter_mut(),
    );
    WindowDataset { x, y }
}

/// Localized Flatten: one per-series dataset, each predicting a series from
/// its own history only.
pub fn localized_flatten_windows(
    frame: &TimeSeriesFrame,
    lookback: usize,
    horizon: usize,
) -> Vec<WindowDataset> {
    (0..frame.n_series())
        .map(|c| flatten_windows(&frame.select(c), lookback, horizon))
        .collect()
}

/// The trailing look-back window of a frame flattened into one feature
/// vector (series-major) — the prediction-time input. Returns `None` when
/// the frame is shorter than `lookback`.
pub fn latest_window(frame: &TimeSeriesFrame, lookback: usize) -> Option<Vec<f64>> {
    let n = frame.len();
    if n < lookback {
        return None;
    }
    let mut out = Vec::with_capacity(lookback.saturating_mul(frame.n_series()));
    for col in frame.series_iter() {
        out.extend_from_slice(col.get(n - lookback..)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> TimeSeriesFrame {
        TimeSeriesFrame::from_columns(vec![
            vec![1., 2., 3., 4., 5., 6.],
            vec![10., 20., 30., 40., 50., 60.],
        ])
    }

    #[test]
    fn flatten_shapes_and_contents() {
        let ds = flatten_windows(&frame(), 3, 2);
        // windows start at t=0,1 → 2 windows
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.x.ncols(), 6); // 3 lookback * 2 series
        assert_eq!(ds.y.ncols(), 4); // 2 horizon * 2 series
        assert_eq!(ds.x.row(0), &[1., 2., 3., 10., 20., 30.]);
        assert_eq!(ds.y.row(0), &[4., 5., 40., 50.]);
        assert_eq!(ds.x.row(1), &[2., 3., 4., 20., 30., 40.]);
        assert_eq!(ds.y.row(1), &[5., 6., 50., 60.]);
    }

    #[test]
    fn flatten_on_a_view_matches_flatten_on_a_copy() {
        let f = frame();
        let view = f.slice(1, 6);
        let copy = TimeSeriesFrame::from_columns(vec![
            f.series(0).get(1..).unwrap().to_vec(),
            f.series(1).get(1..).unwrap().to_vec(),
        ]);
        assert_eq!(flatten_windows(&view, 2, 1), flatten_windows(&copy, 2, 1));
    }

    #[test]
    fn too_short_frame_yields_empty_dataset() {
        let f = TimeSeriesFrame::univariate(vec![1., 2.]);
        let ds = flatten_windows(&f, 5, 1);
        assert!(ds.is_empty());
    }

    #[test]
    fn exact_fit_single_window() {
        let f = TimeSeriesFrame::univariate(vec![1., 2., 3., 4.]);
        let ds = flatten_windows(&f, 3, 1);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.x.row(0), &[1., 2., 3.]);
        assert_eq!(ds.y.row(0), &[4.]);
    }

    #[test]
    fn localized_builds_one_dataset_per_series() {
        let sets = localized_flatten_windows(&frame(), 2, 1);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].x.ncols(), 2);
        assert_eq!(sets[0].x.row(0), &[1., 2.]);
        assert_eq!(sets[0].y.row(0), &[3.]);
        assert_eq!(sets[1].x.row(0), &[10., 20.]);
        assert_eq!(sets[1].y.row(0), &[30.]);
    }

    #[test]
    fn latest_window_extracts_tail() {
        let w = latest_window(&frame(), 3).unwrap();
        assert_eq!(w, vec![4., 5., 6., 40., 50., 60.]);
        assert!(latest_window(&frame(), 10).is_none());
    }

    #[test]
    fn dataset_bytes_counts_all_matrices() {
        let ds = flatten_windows(&frame(), 3, 2);
        // x: 2x6, y: 2x4 → (12 + 8) * 8 bytes
        assert_eq!(ds.bytes(), 160);
    }

    #[test]
    fn fill_rows_with_offset_matches_full_build() {
        let f = frame();
        let full = flatten_windows(&f, 2, 1);
        let mut x = Matrix::zeros(2, 4);
        let mut y = Matrix::zeros(2, 2);
        // fill only windows 2 and 3
        fill_flatten_rows(&f, 2, 1, 2, x.rows_iter_mut(), y.rows_iter_mut());
        assert_eq!(x.row(0), full.x.row(2));
        assert_eq!(x.row(1), full.x.row(3));
        assert_eq!(y.row(1), full.y.row(3));
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn zero_lookback_rejected() {
        let _ = flatten_windows(&frame(), 0, 1);
    }
}
