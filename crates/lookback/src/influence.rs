//! Influence-vector ranking of look-back candidates (§4.1).
//!
//! "we compute an influence vector for each look-back window, where each
//! index in influence vector is a performance measure computed from applying
//! a simple models on a subset of data, e.g. F-test from linear regression,
//! mutual information based measure, or mean absolute error of random
//! forest model. Given a signal x and a look-back window lw, we randomly
//! sample nearly 800 windows and obtain a dataset of X (800 x lw), y
//! (800 x 1). The influence vector is converted into an influence rank
//! vector, and the average value of influence rank is used to sort the
//! look-back index."

use autoai_linalg::{lstsq, Matrix, Rng64};
use autoai_ml_models::{RandomForestConfig, RandomForestRegressor, Regressor};

/// Sample up to `max_windows` random `(window, next value)` pairs.
fn sample_windows(
    series: &[f64],
    lw: usize,
    max_windows: usize,
    rng: &mut Rng64,
) -> Option<(Matrix, Vec<f64>)> {
    let n = series.len();
    if n <= lw + 1 {
        return None;
    }
    let available = n - lw;
    let count = available.min(max_windows);
    let mut x = Matrix::zeros(count, lw);
    let mut y = Vec::with_capacity(count);
    for w in 0..count {
        let start = if available <= max_windows {
            w
        } else {
            rng.gen_range(0..available)
        };
        x.row_mut(w).copy_from_slice(&series[start..start + lw]);
        y.push(series[start + lw]);
    }
    Some((x, y))
}

/// Overall regression F-statistic for `y ~ X` (with intercept).
fn f_statistic(x: &Matrix, y: &[f64]) -> f64 {
    let n = x.nrows();
    let k = x.ncols();
    if n <= k + 1 {
        return 0.0;
    }
    // augment with intercept
    let mut xa = Matrix::zeros(n, k + 1);
    for r in 0..n {
        let row = xa.row_mut(r);
        row[0] = 1.0;
        row[1..].copy_from_slice(x.row(r));
    }
    let Ok(beta) = lstsq(&xa, y) else {
        return 0.0;
    };
    let mean = autoai_linalg::mean(y);
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (r, &yr) in y.iter().enumerate().take(n) {
        let pred: f64 = xa.row(r).iter().zip(&beta).map(|(a, b)| a * b).sum();
        ss_res += (yr - pred) * (yr - pred);
        ss_tot += (yr - mean) * (yr - mean);
    }
    if ss_tot < 1e-12 || ss_res < 1e-12 {
        // perfectly predictable → effectively infinite F
        return 1e12;
    }
    let r2 = 1.0 - ss_res / ss_tot;
    (r2 / k as f64) / ((1.0 - r2).max(1e-12) / (n - k - 1) as f64)
}

/// Binned mutual information between the window mean and the target.
fn mutual_information(x: &Matrix, y: &[f64], bins: usize) -> f64 {
    let n = x.nrows();
    if n < bins * 2 {
        return 0.0;
    }
    let feat: Vec<f64> = (0..n).map(|r| autoai_linalg::mean(x.row(r))).collect();
    let bin_of = |v: f64, lo: f64, hi: f64| -> usize {
        if hi - lo < 1e-12 {
            0
        } else {
            (((v - lo) / (hi - lo) * bins as f64) as usize).min(bins - 1)
        }
    };
    let (flo, fhi) = feat
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (a.min(v), b.max(v))
        });
    let (ylo, yhi) = y
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (a.min(v), b.max(v))
        });
    let mut joint = vec![0.0f64; bins * bins];
    let mut px = vec![0.0f64; bins];
    let mut py = vec![0.0f64; bins];
    for i in 0..n {
        let bx = bin_of(feat[i], flo, fhi);
        let by = bin_of(y[i], ylo, yhi);
        joint[bx * bins + by] += 1.0;
        px[bx] += 1.0;
        py[by] += 1.0;
    }
    let nf = n as f64;
    let mut mi = 0.0;
    for bx in 0..bins {
        for by in 0..bins {
            let pj = joint[bx * bins + by] / nf;
            if pj > 0.0 {
                mi += pj * (pj / ((px[bx] / nf) * (py[by] / nf))).ln();
            }
        }
    }
    mi
}

/// Holdout MAE of a small random forest (last 25% of windows held out).
fn forest_mae(x: &Matrix, y: &[f64], seed: u64) -> f64 {
    let n = x.nrows();
    if n < 16 {
        return f64::INFINITY;
    }
    let cut = n - n / 4;
    let train_rows: Vec<Vec<f64>> = (0..cut).map(|r| x.row(r).to_vec()).collect();
    let xt = Matrix::from_rows(&train_rows);
    let cfg = RandomForestConfig {
        n_trees: 12,
        max_depth: 8,
        seed,
        ..Default::default()
    };
    let mut rf = RandomForestRegressor::with_config(cfg);
    if rf.fit(&xt, &y[..cut]).is_err() {
        return f64::INFINITY;
    }
    let mut mae = 0.0;
    for (r, &yr) in y.iter().enumerate().take(n).skip(cut) {
        mae += (rf.predict_row(x.row(r)) - yr).abs();
    }
    mae / (n - cut) as f64
}

/// Order look-back candidates by average influence rank (best first).
///
/// Each candidate gets one rank per measure (1 = best); candidates are
/// returned sorted by the mean of their ranks. Candidates too long to
/// sample even one window sort last.
pub fn influence_order(
    series: &[f64],
    candidates: &[usize],
    max_windows: usize,
    seed: u64,
) -> Vec<usize> {
    let k = candidates.len();
    if k <= 1 {
        return candidates.to_vec();
    }
    let mut rng = Rng64::seed_from_u64(seed);
    // per-candidate measure values (None = not computable)
    let mut f_vals = vec![None; k];
    let mut mi_vals = vec![None; k];
    let mut mae_vals = vec![None; k];
    for (i, &lw) in candidates.iter().enumerate() {
        if let Some((x, y)) = sample_windows(series, lw, max_windows, &mut rng) {
            f_vals[i] = Some(f_statistic(&x, &y));
            mi_vals[i] = Some(mutual_information(&x, &y, 8));
            mae_vals[i] = Some(forest_mae(&x, &y, seed.wrapping_add(i as u64)));
        }
    }
    // rank per measure: higher better for F and MI, lower better for MAE
    let rank_of = |vals: &[Option<f64>], higher_better: bool| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..k).filter(|&i| vals[i].is_some()).collect();
        idx.sort_by(|&a, &b| {
            // idx only holds positions where vals is Some; NaN measure
            // values sort as total_cmp places them (after +inf), which is
            // "worst" for the higher-better measures
            let (va, vb) = (vals[a].unwrap_or(f64::NAN), vals[b].unwrap_or(f64::NAN));
            if higher_better {
                vb.total_cmp(&va)
            } else {
                va.total_cmp(&vb)
            }
        });
        let mut ranks = vec![k as f64 + 1.0; k]; // missing → worst
        for (pos, &i) in idx.iter().enumerate() {
            ranks[i] = pos as f64 + 1.0;
        }
        ranks
    };
    let rf_ = rank_of(&f_vals, true);
    let rmi = rank_of(&mi_vals, true);
    let rmae = rank_of(&mae_vals, false);
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        let sa = rf_[a] + rmi[a] + rmae[a];
        let sb = rf_[b] + rmi[b] + rmae[b];
        sa.total_cmp(&sb)
    });
    order.into_iter().map(|i| candidates[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seasonal_series(period: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin() * 10.0)
            .collect()
    }

    #[test]
    fn correct_period_ranks_first() {
        // A spike every 12 samples: a 5-long window of zeros is phase-
        // ambiguous (cannot know when the next spike lands), while a
        // 12-long window always contains the spike and pins the phase.
        // (A pure sinusoid would NOT discriminate — it satisfies a 2-lag
        // linear recurrence, so every window length predicts it perfectly.)
        let x: Vec<f64> = (0..600)
            .map(|i| if i % 12 == 0 { 10.0 } else { 0.0 })
            .collect();
        let order = influence_order(&x, &[5, 12], 400, 0);
        assert_eq!(order[0], 12, "order = {order:?}");
    }

    #[test]
    fn single_candidate_passthrough() {
        let x = seasonal_series(8, 100);
        assert_eq!(influence_order(&x, &[8], 100, 0), vec![8]);
        assert!(influence_order(&x, &[], 100, 0).is_empty());
    }

    #[test]
    fn oversized_candidates_rank_last() {
        let x = seasonal_series(10, 80);
        let order = influence_order(&x, &[10, 500], 100, 0);
        assert_eq!(order[0], 10);
        assert_eq!(order[1], 500);
    }

    #[test]
    fn f_statistic_detects_predictability() {
        // AR-like predictable data vs shuffled noise
        let x = seasonal_series(10, 400);
        let mut rng = Rng64::seed_from_u64(1);
        let (xm, y) = sample_windows(&x, 10, 300, &mut rng).unwrap();
        let f_good = f_statistic(&xm, &y);
        let noise: Vec<f64> = (0..400).map(|_| rng.next_f64()).collect();
        let (xn, yn) = sample_windows(&noise, 10, 300, &mut rng).unwrap();
        let f_bad = f_statistic(&xn, &yn);
        assert!(
            f_good > 10.0 * f_bad.max(1.0),
            "good {f_good} vs bad {f_bad}"
        );
    }

    #[test]
    fn mutual_information_nonnegative_and_informative() {
        let x = seasonal_series(6, 300);
        let mut rng = Rng64::seed_from_u64(2);
        let (xm, y) = sample_windows(&x, 6, 250, &mut rng).unwrap();
        let mi = mutual_information(&xm, &y, 8);
        assert!(mi >= 0.0);
    }

    #[test]
    fn sample_windows_bounds() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut rng = Rng64::seed_from_u64(3);
        assert!(sample_windows(&x, 19, 100, &mut rng).is_none());
        let (xm, y) = sample_windows(&x, 5, 100, &mut rng).unwrap();
        assert_eq!(xm.nrows(), 15);
        assert_eq!(y.len(), 15);
        // deterministic sequential sampling when few windows available
        assert_eq!(xm.row(0), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y[0], 5.0);
    }
}
