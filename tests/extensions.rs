//! Integration tests for the extension surface: the extended pipeline
//! registry (§4 "about 80 different pipelines"), prediction intervals and
//! GARCH volatility.

use autoai_ts_repro::core_ts::{AutoAITS, AutoAITSConfig};
use autoai_ts_repro::pipelines::{extended_pipelines, PipelineContext};
use autoai_ts_repro::stat_models::Garch;
use autoai_ts_repro::tdaub::{run_tdaub, TDaubConfig};
use autoai_ts_repro::tsdata::TimeSeriesFrame;

fn seasonal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 40.0 + 9.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
        .collect()
}

#[test]
fn extended_pool_selection_still_converges() {
    // the §4 scaling claim at test scale: a 30+ pipeline pool must select a
    // sensible winner without blowing up
    let ctx = PipelineContext::new(12, 6, vec![12, 24, 6]);
    let pool = extended_pipelines(&ctx);
    assert!(pool.len() >= 30, "pool has {}", pool.len());
    let frame = TimeSeriesFrame::univariate(seasonal(500));
    let cfg = TDaubConfig {
        parallel: true,
        ..Default::default()
    };
    let result = run_tdaub(pool, &frame, &cfg).unwrap();
    // winner forecasts the seasonal signal accurately
    let truth: Vec<f64> = (500..506)
        .map(|i| 40.0 + 9.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
        .collect();
    let pred = result.best.predict(6).unwrap();
    let smape = autoai_ts_repro::tsdata::smape(&truth, pred.series(0));
    assert!(smape < 5.0, "winner {} smape {smape}", result.best.name());
}

#[test]
fn prediction_intervals_cover_a_noisy_truth() {
    // noisy seasonal data: the 95% interval should cover most of the truth
    let mut s = 99u64;
    let mut noise = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let values: Vec<f64> = (0..400)
        .map(|i| 40.0 + 9.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin() + 2.0 * noise())
        .collect();
    let train = values[..380].to_vec();
    let truth = &values[380..392];
    let mut sys = AutoAITS::with_config(AutoAITSConfig {
        pipeline_names: Some(vec!["MT2RForecaster".into(), "HW-Additive".into()]),
        ..Default::default()
    });
    sys.fit(&TimeSeriesFrame::univariate(train)).unwrap();
    let iv = sys.predict_interval(12, &[0.95]).unwrap();
    let (lo, hi) = iv.band(0).unwrap();
    let covered = truth
        .iter()
        .zip(lo.series(0).iter().zip(hi.series(0)))
        .filter(|&(t, (l, h))| l <= t && t <= h)
        .count();
    assert!(
        covered >= 9,
        "interval covered only {covered}/12 truth points"
    );
}

#[test]
fn garch_flags_volatility_regimes_on_financial_standin() {
    // the exchange-rate stand-in is a random walk; returns are near-white
    // but a synthetic volatility burst must raise the fitted variance path
    let entry = autoai_ts_repro::datasets::multivariate_catalog()
        .into_iter()
        .find(|e| e.name == "exchange")
        .unwrap();
    let frame = entry.generate(60);
    let prices = frame.series(0);
    let mut returns: Vec<f64> = prices.windows(2).map(|w| w[1] - w[0]).collect();
    let n = returns.len();
    for r in returns.iter_mut().skip(3 * n / 4) {
        *r *= 6.0; // volatility burst in the last quarter
    }
    let m = Garch::fit(&returns).unwrap();
    let path = m.variance_path();
    let calm = autoai_ts_repro::linalg::mean(&path[n / 4..n / 2]);
    let burst = autoai_ts_repro::linalg::mean(&path[7 * n / 8..]);
    assert!(burst > 4.0 * calm, "calm {calm} vs burst {burst}");
}
