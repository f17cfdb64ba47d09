//! Property-style tests on cross-crate invariants.
//!
//! Each test draws many random cases from the in-repo deterministic
//! [`Rng64`] (SplitMix64) instead of an external property-testing
//! framework, so the suite is hermetic and every failure is reproducible
//! from the fixed seeds below.

use autoai_ts_repro::linalg;
use autoai_ts_repro::linalg::{parallel_try_map_range, Rng64};
use autoai_ts_repro::transforms::{
    flatten_windows, localized_flatten_windows, DifferenceTransform, LogTransform, Transform,
};
use autoai_ts_repro::tsdata::{rank_rows, smape, TimeSeriesFrame};

/// Cases per property — comparable coverage to the previous proptest setup.
const CASES: usize = 64;

fn finite_series(rng: &mut Rng64, max_len: usize) -> Vec<f64> {
    let len = rng.gen_range(4..max_len);
    (0..len).map(|_| rng.range_f64(-1e6, 1e6)).collect()
}

#[test]
fn smape_bounded_0_200() {
    let mut rng = Rng64::seed_from_u64(0x51AE);
    for _ in 0..CASES {
        let a = finite_series(&mut rng, 64);
        let shift = rng.range_f64(-100.0, 100.0);
        let b: Vec<f64> = a.iter().map(|v| v + shift).collect();
        let s = smape(&a, &b);
        assert!((0.0..=200.0 + 1e-9).contains(&s), "smape {s}");
    }
}

#[test]
fn smape_identity_is_zero() {
    let mut rng = Rng64::seed_from_u64(0x51AF);
    for _ in 0..CASES {
        let a = finite_series(&mut rng, 64);
        assert_eq!(smape(&a, &a), 0.0);
    }
}

#[test]
fn log_transform_roundtrip() {
    let mut rng = Rng64::seed_from_u64(0x10C);
    for _ in 0..CASES {
        let a = finite_series(&mut rng, 64);
        let frame = TimeSeriesFrame::univariate(a.clone());
        let mut t = LogTransform::new();
        let tr = t.fit_transform(&frame);
        let back = t.inverse_transform(&tr);
        for (x, y) in back.series(0).iter().zip(&a) {
            assert!((x - y).abs() < 1e-4 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }
}

#[test]
fn difference_forecast_integration_inverts() {
    let mut rng = Rng64::seed_from_u64(0xD1FF);
    for _ in 0..CASES {
        // differencing the tail of a continued series and re-integrating
        // must reproduce the continuation exactly
        let a = finite_series(&mut rng, 64);
        let frame = TimeSeriesFrame::univariate(a.clone());
        let mut t = DifferenceTransform::new();
        t.fit(&frame);
        // pretend the model perfectly predicted the next 3 differences
        let future = [1.5f64, -2.0, 0.25];
        let mut continued = a.clone();
        let mut last = continued[continued.len() - 1];
        for d in future {
            last += d;
            continued.push(last);
        }
        let restored = t.inverse_transform(&TimeSeriesFrame::univariate(future.to_vec()));
        for (r, c) in restored.series(0).iter().zip(&continued[a.len()..]) {
            assert!((r - c).abs() < 1e-9);
        }
    }
}

#[test]
fn window_shapes_are_consistent() {
    let mut rng = Rng64::seed_from_u64(0x717);
    for _ in 0..CASES {
        let a = finite_series(&mut rng, 128);
        let lookback = rng.gen_range(1..12);
        let horizon = rng.gen_range(1..6);
        let frame = TimeSeriesFrame::univariate(a.clone());
        let ds = flatten_windows(&frame, lookback, horizon);
        let expected = (a.len() + 1).saturating_sub(lookback + horizon);
        assert_eq!(ds.len(), expected);
        if !ds.is_empty() {
            assert_eq!(ds.x.ncols(), lookback);
            assert_eq!(ds.y.ncols(), horizon);
            // the first window is the series prefix
            for (k, &ak) in a.iter().enumerate().take(lookback) {
                assert_eq!(ds.x[(0, k)], ak);
            }
        }
    }
}

#[test]
fn rank_rows_is_a_permutation_average() {
    let mut rng = Rng64::seed_from_u64(0x4A4C);
    for _ in 0..CASES {
        let len = rng.gen_range(2..10);
        let scores: Vec<f64> = (0..len).map(|_| rng.range_f64(0.0, 100.0)).collect();
        let wrapped: Vec<Option<f64>> = scores.iter().map(|&s| Some(s)).collect();
        let ranks = rank_rows(&wrapped);
        let sum: f64 = ranks.iter().filter_map(|r| *r).sum();
        let n = scores.len() as f64;
        // ranks always sum to n(n+1)/2 whether or not there are ties
        assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-9);
    }
}

// ---- transform round-trips under the executor path --------------------
//
// The three tests below run their random cases through
// `parallel_try_map_range` — the same work queue the T-Daub executor uses —
// so the invariants are exercised on worker threads, each case seeded
// independently for reproducibility. A `None`/`Err` slot would mean a
// worker panicked; the asserts inside run on the worker, the outer unwrap
// surfaces any failure message.

/// Per-case RNG: independent of case order, stable across thread counts.
fn case_rng(base: u64, case: usize) -> Rng64 {
    Rng64::seed_from_u64(base.wrapping_add((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

#[test]
fn flatten_windows_reconstruct_the_series() {
    let outcomes = parallel_try_map_range(CASES, |case| {
        let mut rng = case_rng(0xF1A7, case);
        let n_series = rng.gen_range(1..4);
        let len = rng.gen_range(8..96);
        let cols: Vec<Vec<f64>> = (0..n_series)
            .map(|_| (0..len).map(|_| rng.range_f64(-1e3, 1e3)).collect())
            .collect();
        let lookback = rng.gen_range(1..6);
        let horizon = rng.gen_range(1..4);
        let frame = TimeSeriesFrame::from_columns(cols.clone());
        let ds = flatten_windows(&frame, lookback, horizon);
        // every feature and target cell must be an exact copy of the
        // original series value at its window offset — together the
        // windows reconstruct the series
        for w in 0..ds.len() {
            for (c, col) in cols.iter().enumerate() {
                for k in 0..lookback {
                    let got = ds.x[(w, c * lookback + k)];
                    let want = col[w + k];
                    assert!((got - want).abs() < 1e-9, "x[{w},{c},{k}]: {got} vs {want}");
                }
                for k in 0..horizon {
                    let got = ds.y[(w, c * horizon + k)];
                    let want = col[w + lookback + k];
                    assert!((got - want).abs() < 1e-9, "y[{w},{c},{k}]: {got} vs {want}");
                }
            }
        }
    });
    for (case, r) in outcomes.into_iter().enumerate() {
        r.unwrap_or_else(|p| panic!("case {case}: {p}"));
    }
}

#[test]
fn localized_flatten_matches_joint_flatten_slices() {
    let outcomes = parallel_try_map_range(CASES, |case| {
        let mut rng = case_rng(0x10CA, case);
        let n_series = rng.gen_range(2..5);
        let len = rng.gen_range(10..64);
        let cols: Vec<Vec<f64>> = (0..n_series)
            .map(|_| (0..len).map(|_| rng.range_f64(-1e3, 1e3)).collect())
            .collect();
        let lookback = rng.gen_range(1..5);
        let horizon = rng.gen_range(1..3);
        let frame = TimeSeriesFrame::from_columns(cols);
        let joint = flatten_windows(&frame, lookback, horizon);
        let local = localized_flatten_windows(&frame, lookback, horizon);
        assert_eq!(local.len(), n_series);
        // each per-series dataset must equal the matching column block of
        // the joint dataset — two different code paths, same windows
        for (c, ds) in local.iter().enumerate() {
            assert_eq!(ds.len(), joint.len());
            for w in 0..ds.len() {
                for k in 0..lookback {
                    let a = ds.x[(w, k)];
                    let b = joint.x[(w, c * lookback + k)];
                    assert!((a - b).abs() < 1e-9, "x[{w},{k}] series {c}: {a} vs {b}");
                }
                for k in 0..horizon {
                    let a = ds.y[(w, k)];
                    let b = joint.y[(w, c * horizon + k)];
                    assert!((a - b).abs() < 1e-9, "y[{w},{k}] series {c}: {a} vs {b}");
                }
            }
        }
    });
    for (case, r) in outcomes.into_iter().enumerate() {
        r.unwrap_or_else(|p| panic!("case {case}: {p}"));
    }
}

#[test]
fn difference_inverse_reconstructs_forecasts_orders_1_to_3() {
    let outcomes = parallel_try_map_range(CASES, |case| {
        let mut rng = case_rng(0xD1FF2, case);
        for order in 1..=3usize {
            let len = rng.gen_range(order + 4..64);
            let train: Vec<f64> = (0..len).map(|_| rng.range_f64(-1e3, 1e3)).collect();
            let future: Vec<f64> = (0..rng.gen_range(1..6))
                .map(|_| rng.range_f64(-1e3, 1e3))
                .collect();
            let mut continued = train.clone();
            continued.extend_from_slice(&future);

            let mut t = DifferenceTransform::with_order(order);
            t.fit(&TimeSeriesFrame::univariate(train.clone()));
            // the model's "perfect forecast" in difference space: the last
            // `future.len()` entries of the order-d differences of the
            // continued series
            let diffs = t.transform(&TimeSeriesFrame::univariate(continued.clone()));
            let d = diffs.series(0);
            let tail = &d[d.len() - future.len()..];
            let restored = t.inverse_transform(&TimeSeriesFrame::univariate(tail.to_vec()));
            for (r, c) in restored.series(0).iter().zip(&future) {
                assert!(
                    (r - c).abs() < 1e-9 * (1.0 + c.abs()),
                    "order {order}: {r} vs {c}"
                );
            }
        }
    });
    for (case, r) in outcomes.into_iter().enumerate() {
        r.unwrap_or_else(|p| panic!("case {case}: {p}"));
    }
}

#[test]
fn pacf_bounded() {
    let mut rng = Rng64::seed_from_u64(0xFACF);
    for _ in 0..CASES {
        let a = finite_series(&mut rng, 128);
        let pacf = linalg::partial_autocorrelation(&a, 8);
        for (k, v) in pacf.iter().enumerate().skip(1) {
            assert!(v.abs() <= 1.0 + 1e-6, "pacf[{k}] = {v}");
        }
    }
}

#[test]
fn matrix_gram_is_symmetric_psd_diag() {
    let mut rng = Rng64::seed_from_u64(0x96A6);
    for _ in 0..CASES {
        let nrows = rng.gen_range(3..10);
        let rows: Vec<Vec<f64>> = (0..nrows)
            .map(|_| (0..3).map(|_| rng.range_f64(-100.0, 100.0)).collect())
            .collect();
        let m = linalg::Matrix::from_rows(&rows);
        let g = m.gram();
        for i in 0..3 {
            assert!(g[(i, i)] >= -1e-9, "diagonal must be nonnegative");
            for j in 0..3 {
                assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-9);
            }
        }
    }
}
