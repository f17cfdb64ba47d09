//! Error-path tests: degenerate inputs must surface as typed `Err` values
//! or well-defined sentinels — never as panics. These pin the panic-freedom
//! contract that `cargo run -p xtask -- check` enforces statically.

use autoai_ts_repro::linalg::{cholesky, cholesky_solve, lstsq, solve_linear, Matrix, SolveError};
use autoai_ts_repro::lookback::{discover_univariate, LookbackConfig};
use autoai_ts_repro::pipelines::{Forecaster, ZeroModelPipeline};
use autoai_ts_repro::tdaub::{run_tdaub, TDaubConfig};
use autoai_ts_repro::tsdata::{mape, smape, TimeSeriesFrame};

#[test]
fn cholesky_rejects_non_psd() {
    // negative-definite diagonal: not PSD
    let mut a = Matrix::from_rows(&[vec![-1.0, 0.0], vec![0.0, -2.0]]);
    assert!(matches!(cholesky(&mut a), Err(SolveError::Singular)));
    // indefinite (saddle) matrix
    let mut b = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
    assert!(matches!(cholesky(&mut b), Err(SolveError::Singular)));
}

#[test]
fn cholesky_rejects_singular_and_shape_mismatch() {
    // rank-1 (singular) Gram matrix
    let mut a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
    assert!(matches!(cholesky(&mut a), Err(SolveError::Singular)));
    // non-square input
    let mut r = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
    assert!(matches!(
        cholesky(&mut r),
        Err(SolveError::DimensionMismatch)
    ));
    // rhs length mismatch
    let mut spd = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 2.0]]);
    assert!(matches!(
        cholesky_solve(&mut spd, &[1.0, 2.0, 3.0]),
        Err(SolveError::DimensionMismatch)
    ));
}

#[test]
fn solvers_reject_singular_systems() {
    let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
    assert!(solve_linear(&a, &[1.0, 2.0]).is_err());
    // rank-deficient least squares: column 2 = 2 * column 1
    let x = Matrix::from_rows(&[
        vec![1.0, 2.0],
        vec![2.0, 4.0],
        vec![3.0, 6.0],
        vec![4.0, 8.0],
    ]);
    // must not panic: either a typed error or a (ridge-regularized) solution
    match lstsq(&x, &[1.0, 2.0, 3.0, 4.0]) {
        Ok(beta) => assert!(beta.iter().all(|b| b.is_finite())),
        Err(e) => {
            let _ = e.to_string();
        }
    }
}

#[test]
fn metrics_on_all_zero_targets_are_finite() {
    let zeros = vec![0.0; 16];
    let pred = vec![0.0; 16];
    // both zero → 0 contribution per the paper's SMAPE convention
    assert_eq!(smape(&zeros, &pred), 0.0);
    // zero actual, nonzero forecast → bounded at 200, never NaN/∞
    let nonzero = vec![3.0; 16];
    let s = smape(&zeros, &nonzero);
    assert!(s.is_finite());
    assert!((s - 200.0).abs() < 1e-9, "smape {s}");
    // MAPE skips zero-actual samples entirely: all-zero target → sentinel 0
    assert_eq!(mape(&zeros, &nonzero), 0.0);
    assert!(mape(&zeros, &zeros).is_finite());
}

#[test]
fn lookback_discovery_on_constant_series() {
    // constant series: flat spectrum, no zero crossings — discovery must
    // still return at least one candidate without panicking
    let flat = vec![7.0; 256];
    let cands = discover_univariate(&flat, None, &LookbackConfig::default());
    assert!(!cands.is_empty());
    assert!(cands.iter().all(|&c| c >= 1));
    // near-empty series
    let tiny = vec![1.0, 1.0, 1.0];
    assert!(!discover_univariate(&tiny, None, &LookbackConfig::default()).is_empty());
}

#[test]
fn tdaub_rejects_empty_pipeline_pool() {
    let data = TimeSeriesFrame::univariate((0..100).map(|i| i as f64).collect());
    let err = run_tdaub(Vec::new(), &data, &TDaubConfig::default());
    assert!(
        err.is_err(),
        "empty pool must be a typed error, not a panic"
    );
}

#[test]
fn tdaub_on_constant_series_does_not_panic() {
    let data = TimeSeriesFrame::univariate(vec![5.0; 120]);
    let pool: Vec<Box<dyn Forecaster>> = vec![Box::new(ZeroModelPipeline::new())];
    let cfg = TDaubConfig {
        parallel: false,
        ..Default::default()
    };
    let res = run_tdaub(pool, &data, &cfg);
    assert!(res.is_ok(), "constant series must select without panicking");
}
