//! The AutoEnsembler family's regressor tournament.
//!
//! The paper's in-house statistical-ML hybrids (the top performers of
//! Table 6) are window pipelines whose "auto" is automatic model selection:
//! several candidate regressors are trained on the windowed data, evaluated
//! on a temporal validation split of the windows, and the best one is
//! refitted on everything. The pipelines themselves are
//! [`WindowPipeline`](crate::WindowPipeline)s over this tournament.
//!
//! The selection is bounded ([`select_regressor`]): candidates fit one
//! horizon output at a time, and one whose running validation error
//! already exceeds the best finished candidate's total stops there — the
//! same early-stopping idea T-Daub applies to whole pipelines. The winner
//! and its MAE bits are those of an exhaustive tournament.

use autoai_linalg::Matrix;
use autoai_ml_models::{
    GradientBoostingConfig, GradientBoostingRegressor, LinearRegression, MultiOutputRegressor,
    RandomForestConfig, RandomForestRegressor, Regressor,
};

use crate::traits::PipelineError;

/// The candidate regressors the tournament chooses from, in tie-break
/// order.
fn candidates() -> Vec<(&'static str, Box<dyn Regressor>)> {
    vec![
        (
            "linear",
            Box::new(LinearRegression::new()) as Box<dyn Regressor>,
        ),
        (
            "random_forest",
            Box::new(RandomForestRegressor::with_config(RandomForestConfig {
                n_trees: 30,
                max_depth: 10,
                ..Default::default()
            })),
        ),
        (
            "gbm",
            Box::new(GradientBoostingRegressor::with_config(
                GradientBoostingConfig {
                    n_rounds: 60,
                    ..Default::default()
                },
            )),
        ),
    ]
}

/// Select the best candidate on a temporal window split, then refit it on
/// all windows. Returns the fitted model and the winner's name.
pub(crate) fn tournament_fit(
    x: &Matrix,
    y: &Matrix,
) -> Result<(MultiOutputRegressor, &'static str), PipelineError> {
    let chosen = (x.nrows() >= 12)
        .then(|| select_regressor(candidates(), x, y))
        .flatten()
        .unwrap_or("linear");
    Ok((fit_named(chosen, x, y)?, chosen))
}

/// Fit the named candidate regressor on all windows, skipping the
/// selection tournament — the warm-start fast path.
pub(crate) fn fit_named(
    name: &str,
    x: &Matrix,
    y: &Matrix,
) -> Result<MultiOutputRegressor, PipelineError> {
    let Some(proto) = candidates()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, p)| p)
    else {
        return Err(PipelineError::Fit(format!(
            "ensemble candidate `{name}` is not registered"
        )));
    };
    let mut model = MultiOutputRegressor::new(proto);
    model.fit(x, y).map_err(|e| PipelineError::Fit(e.message))?;
    Ok(model)
}

/// The bounded regressor tournament behind [`tournament_fit`]. Each
/// candidate trains on the first 80 % of the windows, one output at a time
/// (a fresh clone of its prototype per output, exactly as
/// [`MultiOutputRegressor::fit`] does), and is scored by validation MAE on
/// the rest; the lowest MAE wins and the earlier candidate keeps a tie.
/// Returns `None` when every candidate fails to fit.
///
/// A candidate is abandoned as soon as its running absolute error exceeds
/// the best completed candidate's total error × (1 + 1e-9). That cannot
/// change the winner: every term is non-negative and rounded addition is
/// monotone, so a full sum falls below any partial sum by at most about
/// `m·u` relative (m terms, unit roundoff u) — orders of magnitude inside
/// the margin. A completed candidate's MAE is summed row-major from its
/// kept predictions, the same order and bits an exhaustive tournament
/// compares. A NaN best bound never abandons anyone, and a candidate that
/// fails to fit any output is skipped.
fn select_regressor(
    candidates: Vec<(&'static str, Box<dyn Regressor>)>,
    x: &Matrix,
    y: &Matrix,
) -> Option<&'static str> {
    let n = x.nrows();
    let k = y.ncols();
    let cut = n - (n / 5).max(1);
    let train_rows: Vec<Vec<f64>> = (0..cut).map(|r| x.row(r).to_vec()).collect();
    let train_y: Vec<Vec<f64>> = (0..cut).map(|r| y.row(r).to_vec()).collect();
    let xt = Matrix::from_rows(&train_rows);
    let yt = Matrix::from_rows(&train_y);
    // validation predictions, row-major over (window, output)
    let mut preds = vec![0.0; (n - cut).saturating_mul(k)];
    // (mae, total absolute error, name) of the best completed candidate
    let mut best: Option<(f64, f64, &'static str)> = None;
    'candidates: for (name, proto) in candidates {
        let bound = best.map(|(_, err, _)| err * (1.0 + 1e-9));
        let mut running = 0.0;
        for out in 0..k {
            let mut model = proto.clone_unfitted();
            if model.fit(&xt, &yt.col(out)).is_err() {
                continue 'candidates;
            }
            // column `out` of the row-major validation block
            let slots = preds.iter_mut().skip(out).step_by(k);
            for (r, slot) in (cut..n).zip(slots) {
                let p = model.predict_row(x.row(r));
                let truth = y.row(r).get(out).copied().unwrap_or(f64::NAN);
                running += (p - truth).abs();
                *slot = p;
            }
            if bound.is_some_and(|b| running > b) {
                continue 'candidates;
            }
        }
        let mut err = 0.0;
        for (r, row_preds) in (cut..n).zip(preds.chunks_exact(k.max(1))) {
            for (pi, ti) in row_preds.iter().zip(y.row(r)) {
                err += (pi - ti).abs();
            }
        }
        let mae = err / preds.len().max(1) as f64;
        if best.is_none_or(|(b, _, _)| mae < b) {
            best = Some((mae, err, name));
        }
    }
    best.map(|(_, _, name)| name)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use autoai_linalg::Rng64;
    use autoai_ml_models::MlError;
    use autoai_transforms::{flatten_windows, localized_flatten_windows};
    use autoai_tsdata::TimeSeriesFrame;

    use super::*;

    fn seasonal_frame(n: usize) -> TimeSeriesFrame {
        TimeSeriesFrame::univariate(
            (0..n)
                .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
                .collect(),
        )
    }

    /// The unbounded tournament the bounded one must agree with: every
    /// candidate fits every output, MAE summed row-major.
    fn exhaustive_winner(
        candidates: Vec<(&'static str, Box<dyn Regressor>)>,
        x: &Matrix,
        y: &Matrix,
    ) -> Option<&'static str> {
        let n = x.nrows();
        let cut = n - (n / 5).max(1);
        let xt = Matrix::from_rows(&(0..cut).map(|r| x.row(r).to_vec()).collect::<Vec<_>>());
        let yt = Matrix::from_rows(&(0..cut).map(|r| y.row(r).to_vec()).collect::<Vec<_>>());
        let mut best: Option<(f64, &'static str)> = None;
        for (name, proto) in candidates {
            let mut m = MultiOutputRegressor::new(proto);
            if m.fit(&xt, &yt).is_err() {
                continue;
            }
            let mut err = 0.0;
            let mut count = 0usize;
            for r in cut..n {
                for (pi, ti) in m.predict_row(x.row(r)).iter().zip(y.row(r)) {
                    err += (pi - ti).abs();
                    count += 1;
                }
            }
            let mae = err / count.max(1) as f64;
            if best.as_ref().is_none_or(|&(b, _)| mae < b) {
                best = Some((mae, name));
            }
        }
        best.map(|(_, name)| name)
    }

    fn column(n: usize, f: impl FnMut(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn bounded_tournament_matches_exhaustive_bit_for_bit() {
        let n = 160;
        let mut rng = Rng64::seed_from_u64(11);
        let noisy = column(n, |_| 5.0 + rng.normal());
        let frames = [
            ("seasonal", seasonal_frame(n)),
            (
                "trend",
                TimeSeriesFrame::univariate(column(n, |i| 3.0 + 0.4 * i as f64)),
            ),
            ("noisy", TimeSeriesFrame::univariate(noisy)),
            (
                "square",
                TimeSeriesFrame::univariate(column(n, |i| if i % 10 < 5 { 1.0 } else { 9.0 })),
            ),
            (
                "two-series",
                TimeSeriesFrame::from_columns(vec![
                    column(n, |i| 10.0 + (i as f64 * 0.9).sin()),
                    column(n, |i| 50.0 + 0.5 * i as f64),
                ]),
            ),
        ];
        let mut winners = Vec::new();
        for (label, frame) in &frames {
            let joint = vec![flatten_windows(frame, 8, 4)];
            for (mode, datasets) in [
                ("flatten", joint),
                ("localized", localized_flatten_windows(frame, 8, 4)),
            ] {
                for ds in datasets {
                    let exhaustive = exhaustive_winner(candidates(), &ds.x, &ds.y);
                    let bounded = select_regressor(candidates(), &ds.x, &ds.y);
                    assert_eq!(bounded, exhaustive, "{label}/{mode}");
                    let (model, chosen) = tournament_fit(&ds.x, &ds.y).unwrap();
                    assert_eq!(Some(chosen), exhaustive, "{label}/{mode}");
                    let reference = fit_named(chosen, &ds.x, &ds.y).unwrap();
                    let (a, b) = (model.predict(&ds.x), reference.predict(&ds.x));
                    for r in 0..a.nrows() {
                        for (p, q) in a.row(r).iter().zip(b.row(r)) {
                            assert_eq!(p.to_bits(), q.to_bits(), "{label}/{mode} row {r}");
                        }
                    }
                    winners.push(chosen);
                }
            }
        }
        // the cases must exercise more than the first candidate winning
        assert!(winners.iter().any(|w| *w != "linear"), "{winners:?}");
    }

    /// Predicts the training-target mean plus a fixed offset, counting its
    /// fits in a counter shared by every clone. With `fail_at = Some(i)`
    /// the i-th fit (0-based, across clones) fails.
    struct MeanPlus {
        offset: f64,
        fits: Arc<AtomicUsize>,
        fail_at: Option<usize>,
        mean: f64,
    }

    impl MeanPlus {
        fn boxed(
            offset: f64,
            fits: &Arc<AtomicUsize>,
            fail_at: Option<usize>,
        ) -> Box<dyn Regressor> {
            Box::new(Self {
                offset,
                fits: Arc::clone(fits),
                fail_at,
                mean: 0.0,
            })
        }
    }

    impl Regressor for MeanPlus {
        fn fit(&mut self, _x: &Matrix, y: &[f64]) -> Result<(), MlError> {
            let i = self.fits.fetch_add(1, Ordering::SeqCst);
            if self.fail_at == Some(i) {
                return Err(MlError::new("scripted failure"));
            }
            self.mean = y.iter().sum::<f64>() / y.len().max(1) as f64;
            Ok(())
        }

        fn predict_row(&self, _row: &[f64]) -> f64 {
            self.mean + self.offset
        }

        fn name(&self) -> &'static str {
            "mean_plus"
        }

        fn clone_unfitted(&self) -> Box<dyn Regressor> {
            Self::boxed(self.offset, &self.fits, self.fail_at)
        }
    }

    /// 60 windows of 3 features and `k` outputs.
    fn toy_data(k: usize) -> (Matrix, Matrix) {
        let x: Vec<Vec<f64>> = (0..60).map(|r| vec![r as f64; 3]).collect();
        let y: Vec<Vec<f64>> = (0..60)
            .map(|r| (0..k).map(|c| ((r * 7 + c * 3) % 11) as f64).collect())
            .collect();
        (Matrix::from_rows(&x), Matrix::from_rows(&y))
    }

    fn counters() -> (Arc<AtomicUsize>, Arc<AtomicUsize>) {
        (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)))
    }

    #[test]
    fn a_hopeless_candidate_stops_before_fitting_every_output() {
        let k = 6;
        let (x, y) = toy_data(k);
        let (good, bad) = counters();
        let pick = select_regressor(
            vec![
                ("good", MeanPlus::boxed(0.0, &good, None)),
                ("bad", MeanPlus::boxed(1e3, &bad, None)),
            ],
            &x,
            &y,
        );
        assert_eq!(pick, Some("good"));
        assert_eq!(
            good.load(Ordering::SeqCst),
            k,
            "the winner fits every output"
        );
        let stopped_at = bad.load(Ordering::SeqCst);
        assert!(stopped_at < k, "loser fitted {stopped_at} of {k} outputs");
    }

    #[test]
    fn a_tie_keeps_the_earlier_candidate() {
        let (x, y) = toy_data(4);
        let (first, second) = counters();
        let candidates = || {
            vec![
                ("first", MeanPlus::boxed(0.5, &first, None)),
                ("second", MeanPlus::boxed(0.5, &second, None)),
            ]
        };
        assert_eq!(select_regressor(candidates(), &x, &y), Some("first"));
        assert_eq!(exhaustive_winner(candidates(), &x, &y), Some("first"));
    }

    #[test]
    fn a_nan_first_candidate_still_wins() {
        let (x, y) = toy_data(4);
        let (nan, good) = counters();
        let candidates = || {
            vec![
                ("nan", MeanPlus::boxed(f64::NAN, &nan, None)),
                ("good", MeanPlus::boxed(0.0, &good, None)),
            ]
        };
        assert_eq!(select_regressor(candidates(), &x, &y), Some("nan"));
        assert_eq!(exhaustive_winner(candidates(), &x, &y), Some("nan"));
    }

    #[test]
    fn a_candidate_failing_on_a_late_output_is_skipped() {
        let k = 5;
        let (x, y) = toy_data(k);
        let (weak, flaky) = counters();
        // `flaky` would win, but its last output fails to fit
        let candidates = || {
            vec![
                ("weak", MeanPlus::boxed(2.0, &weak, None)),
                ("flaky", MeanPlus::boxed(0.0, &flaky, Some(k - 1))),
            ]
        };
        assert_eq!(select_regressor(candidates(), &x, &y), Some("weak"));
        assert_eq!(
            flaky.load(Ordering::SeqCst),
            k,
            "flaky reached its last output"
        );
        flaky.store(0, Ordering::SeqCst);
        assert_eq!(exhaustive_winner(candidates(), &x, &y), Some("weak"));
    }
}
