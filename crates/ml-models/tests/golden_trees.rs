//! Bit-exact golden pins for the CART family.
//!
//! Every tree-based regressor (single CART tree, random forest, gradient
//! boosting) is fitted on a fixed seeded matrix and the FNV-1a hash of the
//! `to_bits` of its predictions is pinned. The split search, partitioning
//! and leaf means are pure `f64` arithmetic in a fixed order, so any change
//! to the tree builder that moves a single split, threshold or leaf value
//! fails here as an exact mismatch. The cases cover both expansion paths of
//! `fit_indices_presorted` (identity clone and bootstrap/subsample
//! multiset), heavy ties with `min_samples_leaf`, a one-column matrix, and
//! the `total_cmp` / `<=` edge semantics of NaN and ±inf feature values.

use autoai_linalg::{Matrix, Rng64};
use autoai_ml_models::{
    DecisionTreeConfig, DecisionTreeRegressor, FeatureOrders, GradientBoostingConfig,
    GradientBoostingRegressor, RandomForestConfig, RandomForestRegressor, Regressor,
};

/// FNV-1a over the bit patterns of `values`.
fn bit_hash(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Lag-window design matrix over a seeded seasonal series with trend and
/// noise: row `t` holds `s[t..t+d]`, the target is `s[t+d]`.
fn window_matrix(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = Rng64::seed_from_u64(seed);
    let s: Vec<f64> = (0..n + d)
        .map(|t| {
            let t = t as f64;
            50.0 + 0.1 * t
                + 8.0 * (2.0 * std::f64::consts::PI * t / 12.0).sin()
                + 2.0 * rng.normal()
        })
        .collect();
    let rows: Vec<Vec<f64>> = (0..n).map(|t| s[t..t + d].to_vec()).collect();
    let y: Vec<f64> = (0..n).map(|t| s[t + d]).collect();
    (Matrix::from_rows(&rows), y)
}

/// Predictions on every training row plus a few off-grid probes.
fn predictions(m: &dyn Regressor, x: &Matrix, probes: &[Vec<f64>]) -> Vec<f64> {
    let mut out = m.predict(x);
    out.extend(probes.iter().map(|r| m.predict_row(r)));
    out
}

fn probes(d: usize) -> Vec<Vec<f64>> {
    vec![
        vec![0.0; d],
        vec![55.0; d],
        (0..d).map(|j| 40.0 + 2.0 * j as f64).collect(),
        vec![1e6; d],
    ]
}

fn gbm_identity() -> u64 {
    let (x, y) = window_matrix(300, 12, 11);
    let mut m = GradientBoostingRegressor::with_config(GradientBoostingConfig {
        n_rounds: 60,
        max_depth: 4,
        ..Default::default()
    });
    m.fit(&x, &y).unwrap();
    assert_eq!(m.n_rounds_fitted(), 60);
    bit_hash(&predictions(&m, &x, &probes(12)))
}

fn gbm_subsampled() -> u64 {
    let (x, y) = window_matrix(300, 12, 12);
    let mut m = GradientBoostingRegressor::with_config(GradientBoostingConfig {
        n_rounds: 60,
        max_depth: 4,
        subsample: 0.7,
        ..Default::default()
    });
    m.fit(&x, &y).unwrap();
    bit_hash(&predictions(&m, &x, &probes(12)))
}

fn forest_bootstrap() -> u64 {
    let (x, y) = window_matrix(250, 15, 13);
    let mut m = RandomForestRegressor::with_config(RandomForestConfig {
        n_trees: 30,
        max_depth: 10,
        max_features: Some(5),
        ..Default::default()
    });
    m.fit(&x, &y).unwrap();
    assert_eq!(m.n_trees(), 30);
    bit_hash(&predictions(&m, &x, &probes(15)))
}

/// Two features quantized to a handful of levels, so almost every adjacent
/// pair in a sorted order is a tie; fitted once on all rows (identity path)
/// and once on a bootstrap multiset.
fn tree_ties_min_leaf() -> u64 {
    let mut rng = Rng64::seed_from_u64(14);
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|_| {
            vec![
                rng.gen_range(0..5) as f64,
                (rng.next_f64() * 3.0).floor() * 0.5,
                rng.gen_range(0..2) as f64,
            ]
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| 3.0 * r[0] - 2.0 * r[1] * r[2] + rng.normal())
        .collect();
    let x = Matrix::from_rows(&rows);
    let cfg = DecisionTreeConfig {
        max_depth: 8,
        min_samples_leaf: 3,
        min_samples_split: 6,
        ..Default::default()
    };
    let mut full = DecisionTreeRegressor::with_config(cfg.clone());
    full.fit(&x, &y).unwrap();
    let boot: Vec<usize> = (0..200).map(|_| rng.gen_range(0..200)).collect();
    let mut bagged = DecisionTreeRegressor::with_config(cfg);
    bagged
        .fit_indices_presorted(&x, &y, &boot, &FeatureOrders::compute(&x))
        .unwrap();
    let grid: Vec<Vec<f64>> = (0..5)
        .flat_map(|a| (0..4).map(move |b| vec![a as f64, b as f64 * 0.5, (a % 2) as f64]))
        .collect();
    let mut out = predictions(&full, &x, &grid);
    out.extend(predictions(&bagged, &x, &grid));
    out.push(full.n_nodes() as f64);
    out.push(bagged.n_nodes() as f64);
    bit_hash(&out)
}

/// A single-column matrix through all three regressors.
fn one_column() -> u64 {
    let (x, y) = window_matrix(180, 1, 15);
    let probe = vec![vec![30.0], vec![50.0], vec![70.0]];
    let mut tree = DecisionTreeRegressor::new();
    tree.fit(&x, &y).unwrap();
    let mut forest = RandomForestRegressor::with_config(RandomForestConfig {
        n_trees: 10,
        ..Default::default()
    });
    forest.fit(&x, &y).unwrap();
    let mut gbm = GradientBoostingRegressor::with_config(GradientBoostingConfig {
        n_rounds: 30,
        subsample: 0.8,
        ..Default::default()
    });
    gbm.fit(&x, &y).unwrap();
    let mut out = predictions(&tree, &x, &probe);
    out.extend(predictions(&forest, &x, &probe));
    out.extend(predictions(&gbm, &x, &probe));
    out.push(tree.n_nodes() as f64);
    bit_hash(&out)
}

/// Column 0 carries NaN, -NaN, +inf and -inf among ordinary values. The
/// presort orders them by `total_cmp` (-NaN first, NaN last), the tie test
/// `v_next - v_cur < 1e-12` is false across any NaN or inf-inf pair, and a
/// NaN threshold sends every row right; the pin fixes all of it.
fn non_finite_column() -> u64 {
    let mut rng = Rng64::seed_from_u64(16);
    let specials = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let rows: Vec<Vec<f64>> = (0..160)
        .map(|i| {
            let a = if i % 9 == 0 {
                specials[(i / 9) % specials.len()]
            } else {
                rng.range_f64(-5.0, 5.0)
            };
            vec![a, rng.range_f64(0.0, 1.0), (i % 7) as f64]
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let a = if r[0].is_finite() { r[0] } else { 10.0 };
            a + 4.0 * r[1] + (i % 3) as f64
        })
        .collect();
    let x = Matrix::from_rows(&rows);
    let probe: Vec<Vec<f64>> = specials
        .iter()
        .map(|&s| vec![s, 0.5, 3.0])
        .chain([vec![0.0, 0.5, 3.0], vec![-4.0, 0.1, 6.0]])
        .collect();
    let mut tree = DecisionTreeRegressor::new();
    tree.fit(&x, &y).unwrap();
    let mut forest = RandomForestRegressor::with_config(RandomForestConfig {
        n_trees: 12,
        max_features: Some(2),
        ..Default::default()
    });
    forest.fit(&x, &y).unwrap();
    let mut gbm = GradientBoostingRegressor::with_config(GradientBoostingConfig {
        n_rounds: 25,
        ..Default::default()
    });
    gbm.fit(&x, &y).unwrap();
    let mut out = predictions(&tree, &x, &probe);
    out.extend(predictions(&forest, &x, &probe));
    out.extend(predictions(&gbm, &x, &probe));
    out.push(tree.n_nodes() as f64);
    bit_hash(&out)
}

#[test]
#[ignore = "prints current hashes for regenerating the golden constants"]
fn print_actuals() {
    println!("gbm_identity        = {:#018x}", gbm_identity());
    println!("gbm_subsampled      = {:#018x}", gbm_subsampled());
    println!("forest_bootstrap    = {:#018x}", forest_bootstrap());
    println!("tree_ties_min_leaf  = {:#018x}", tree_ties_min_leaf());
    println!("one_column          = {:#018x}", one_column());
    println!("non_finite_column   = {:#018x}", non_finite_column());
}

#[test]
fn gbm_without_subsampling_is_pinned() {
    assert_eq!(gbm_identity(), 0x2f1e_f401_e7fc_8703);
}

#[test]
fn subsampled_gbm_is_pinned() {
    assert_eq!(gbm_subsampled(), 0xd47c_ba5f_8964_f465);
}

#[test]
fn bootstrap_forest_with_max_features_is_pinned() {
    assert_eq!(forest_bootstrap(), 0xc1a9_48a1_5dce_4231);
}

#[test]
fn tied_values_with_min_samples_leaf_are_pinned() {
    assert_eq!(tree_ties_min_leaf(), 0x8a1e_f1f3_d027_200f);
}

#[test]
fn one_column_matrix_is_pinned() {
    assert_eq!(one_column(), 0x0439_e8a4_cb1d_c3f1);
}

#[test]
fn nan_and_infinite_features_are_pinned() {
    assert_eq!(non_finite_column(), 0x5f65_33f5_9583_65f3);
}
