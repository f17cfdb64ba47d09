//! Benchmark: the vectorized linalg kernels against naive textbook
//! references.
//!
//! Plain `std::time` harness (`harness = false`); run with
//! `cargo bench -p autoai-bench --bench kernels`.
//!
//! Modes:
//!
//! * default — full measurement; writes the machine-readable
//!   `BENCH_kernels.json` at the repo root (per-kernel naive/fast wall
//!   times and speedups, the ungated `css` row, plus the ungated `cart`
//!   row: fit times of the AutoEnsembler's 60-round GBM and 30-tree forest
//!   on one seeded window matrix).
//! * `--smoke` — reduced sizes, no JSON; asserts every gated kernel
//!   (matmul, gram) stays ≥ 2× ahead of its naive reference, and that
//!   all kernels agree with the references within a reassociation-sized
//!   tolerance. Exits non-zero on any violation; wired into
//!   `scripts/check.sh`.
//!
//! `dot`'s speed-up is printed but not gated: it is a short memory-bound
//! loop whose wall ratio hovers near 2× and flips with machine load.
//! What buys it is the four independent accumulators of `linalg::dot`,
//! so every mode pins that structure instead: `dot` must match
//! [`four_lane_dot`] bit for bit on the seeded vectors, which a sequential
//! reduction does not.
//!
//! The `css` row times ARIMA's CSS objective (`CssObjective::sse`, one
//! reused residual buffer) against [`naive_css`], the allocating loop with
//! a lag guard at every step that it replaced, on 64 seeded points of a
//! seasonal (3,1,3)(1,1,1)₁₂ spec. Every mode asserts both give the same
//! SSE bits on every point; the speed-up is telemetry (`gated: false`).
//!
//! The `bats` rows time BATS's smoothing-constant objective
//! (`bats::smoothing_sse`, one start state and one reused recursion)
//! against [`naive_bats_sse`], the plain per-point recursion, on 64 seeded
//! points for 1, 3 and 4 seasonal periods, each without and with trend
//! (`bats/3+t` is three periods with trend). Every mode asserts equal SSE
//! bits on every point; the speed-ups are telemetry.

use std::hint::black_box;
use std::time::Instant;

use autoai_linalg::{dot, Matrix, Rng64};
use autoai_ml_models::{
    GradientBoostingConfig, GradientBoostingRegressor, RandomForestConfig, RandomForestRegressor,
    Regressor,
};
use autoai_stat_models::arima::CssObjective;
use autoai_stat_models::bats::smoothing_sse;
use autoai_stat_models::ArimaSpec;

// ---- naive references (the pre-optimization loop shapes) ---------------

/// The reduction shape `linalg::dot` must keep: four interleaved lanes
/// folded as `(a0 + a1) + (a2 + a3)`, then the sequential tail.
fn four_lane_dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len()) / 4 * 4;
    let mut lanes = [0.0f64; 4];
    for (i, (x, y)) in a.iter().zip(b).take(n).enumerate() {
        lanes[i % 4] += x * y;
    }
    let tail = a.iter().zip(b).skip(n).fold(0.0, |acc, (x, y)| acc + x * y);
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.nrows(), b.ncols());
    for i in 0..a.nrows() {
        for j in 0..b.ncols() {
            let mut acc = 0.0;
            for k in 0..a.ncols() {
                acc += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

fn naive_gram(a: &Matrix) -> Matrix {
    let n = a.ncols();
    let mut g = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for r in 0..a.nrows() {
                acc += a[(r, i)] * a[(r, j)];
            }
            g[(i, j)] = acc;
        }
    }
    g
}

fn naive_t_matvec(a: &Matrix, v: &[f64]) -> Vec<f64> {
    (0..a.ncols())
        .map(|j| (0..a.nrows()).map(|r| a[(r, j)] * v[r]).sum())
        .collect()
}

/// The CSS objective as one allocating loop with a `t >= l` guard on every
/// lag at every step: the shape `CssObjective` replaced, and the bits it
/// must keep.
fn naive_css(wc: &[f64], ar_lags: &[usize], ma_lags: &[usize], params: &[f64]) -> f64 {
    if params.iter().any(|c| c.abs() > 5.0) {
        return f64::INFINITY;
    }
    let (ar, ma) = params.split_at(ar_lags.len().min(params.len()));
    let max_lag = ar_lags.iter().chain(ma_lags).copied().max().unwrap_or(0);
    if wc.len() <= max_lag {
        return f64::INFINITY;
    }
    let mut e = vec![0.0; wc.len()];
    let mut sse = 0.0;
    for t in 0..wc.len() {
        let mut pred = 0.0;
        for (&l, &c) in ar_lags.iter().zip(ar) {
            if t >= l {
                pred += c * wc[t - l];
            }
        }
        for (&l, &c) in ma_lags.iter().zip(ma) {
            if t >= l {
                pred += c * e[t - l];
            }
        }
        let et = wc[t] - pred;
        e[t] = et;
        if t >= max_lag {
            sse += et * et;
        }
    }
    sse
}

/// BATS's smoothing recursion at one raw optimizer point as one plain
/// loop: fresh seasonal vectors and start state per call, a `t % m` per
/// period and summand, and the other periods' sum rebuilt with a filter
/// for every period. The shape `smoothing_sse` replaced, and the bits it
/// must keep; `+inf` when the recursion goes non-finite.
fn naive_bats_sse(y: &[f64], use_trend: bool, periods: &[usize], raw: &[f64]) -> f64 {
    let sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
    let alpha = sigmoid(raw[0]);
    let beta = if use_trend { sigmoid(raw[1]) } else { 0.0 };
    let gammas: Vec<f64> = (0..periods.len())
        .map(|i| sigmoid(raw[2 + i]) * 0.5)
        .collect();
    let warmup = periods.iter().copied().max().unwrap_or(1).max(2);
    let base = y[..warmup].iter().sum::<f64>() / warmup as f64;
    let mut seasonals: Vec<Vec<f64>> = periods
        .iter()
        .map(|&m| {
            let use_cycles = (y.len() / m).clamp(1, 2);
            (0..m)
                .map(|j| {
                    let mut s = 0.0;
                    for c in 0..use_cycles {
                        s += y[c * m + j];
                    }
                    let v = s / use_cycles as f64 - base;
                    if periods.len() > 1 {
                        v / periods.len() as f64
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect();
    let mut level = base;
    let mut trend = if use_trend && y.len() > warmup {
        (y[warmup] - y[0]) / warmup as f64
    } else {
        0.0
    };
    let mut sse = 0.0;
    for (t, &x) in y.iter().enumerate() {
        let season_sum: f64 = periods.iter().zip(&seasonals).map(|(&m, s)| s[t % m]).sum();
        let err = x - (level + trend + season_sum);
        if !err.is_finite() {
            return f64::INFINITY;
        }
        if t >= warmup {
            sse += err * err;
        }
        let prev_level = level;
        level = alpha * (x - season_sum) + (1.0 - alpha) * (level + trend);
        if use_trend {
            trend = beta * (level - prev_level) + (1.0 - beta) * trend;
        }
        for j in 0..periods.len() {
            let other: f64 = periods
                .iter()
                .zip(&seasonals)
                .enumerate()
                .filter(|&(k, _)| k != j)
                .map(|(_, (&mk, s))| s[t % mk])
                .sum();
            let (g, m) = (gammas[j], periods[j]);
            let slot = &mut seasonals[j][t % m];
            *slot = g * (x - level - other) + (1.0 - g) * *slot;
        }
    }
    sse
}

// ---- harness -----------------------------------------------------------

fn random_matrix(rng: &mut Rng64, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.range_f64(-2.0, 2.0)).collect(),
    )
}

/// Best-of-`reps` wall time of `inner` calls to `f`, in milliseconds per call.
fn measure_ms(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..inner {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e3 / inner as f64);
    }
    best
}

fn max_rel_err(fast: &Matrix, slow: &Matrix, len: usize) -> f64 {
    let mut worst: f64 = 0.0;
    for i in 0..fast.nrows() {
        for j in 0..fast.ncols() {
            let (f, s) = (fast[(i, j)], slow[(i, j)]);
            worst = worst.max((f - s).abs() / (1.0 + s.abs()));
        }
    }
    worst / (len.max(1) as f64)
}

/// Lag-window design matrix of a seeded seasonal series with trend and
/// noise (`rows × lags`, the shape of a catalog series' window training
/// set): row `t` holds `s[t..t+lags]`, the target is `s[t+lags]`.
fn window_matrix(rng: &mut Rng64, rows: usize, lags: usize) -> (Matrix, Vec<f64>) {
    let s: Vec<f64> = (0..rows + lags)
        .map(|t| {
            let t = t as f64;
            100.0
                + 0.2 * t
                + 15.0 * (2.0 * std::f64::consts::PI * t / 12.0).sin()
                + 4.0 * rng.normal()
        })
        .collect();
    let data: Vec<f64> = (0..rows)
        .flat_map(|t| s[t..t + lags].iter().copied())
        .collect();
    let y = s[lags..].to_vec();
    (Matrix::from_vec(rows, lags, data), y)
}

struct KernelResult {
    name: &'static str,
    naive_ms: f64,
    fast_ms: f64,
    gated: bool,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.naive_ms / self.fast_ms
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // shapes chosen from the workspace's real design matrices (hundreds of
    // window rows, tens of lookback columns) plus a square matmul stressing
    // the register tiling
    let (mm, gram_rows, gram_cols, dot_n, reps) = if smoke {
        (96, 512, 32, 4096, 5)
    } else {
        (192, 2048, 48, 16384, 9)
    };

    let mut rng = Rng64::seed_from_u64(0xBE7C);
    let a = random_matrix(&mut rng, mm, mm);
    let b = random_matrix(&mut rng, mm, mm);
    let g = random_matrix(&mut rng, gram_rows, gram_cols);
    let x: Vec<f64> = (0..dot_n).map(|_| rng.range_f64(-2.0, 2.0)).collect();
    let y: Vec<f64> = (0..dot_n).map(|_| rng.range_f64(-2.0, 2.0)).collect();
    let w: Vec<f64> = (0..gram_rows).map(|_| rng.range_f64(-2.0, 2.0)).collect();

    println!("== kernels vs naive references ==");
    let mut results = Vec::new();

    let fast = a.matmul(&b);
    let slow = naive_matmul(&a, &b);
    assert!(
        max_rel_err(&fast, &slow, mm) < 1e-13,
        "matmul diverged from the naive reference"
    );
    results.push(KernelResult {
        name: "matmul",
        naive_ms: measure_ms(reps, 1, || {
            black_box(naive_matmul(black_box(&a), black_box(&b)));
        }),
        fast_ms: measure_ms(reps, 1, || {
            black_box(black_box(&a).matmul(black_box(&b)));
        }),
        gated: true,
    });

    let fast = g.gram();
    let slow = naive_gram(&g);
    assert!(
        max_rel_err(&fast, &slow, gram_rows) < 1e-13,
        "gram diverged from the naive reference"
    );
    results.push(KernelResult {
        name: "gram",
        naive_ms: measure_ms(reps, 1, || {
            black_box(naive_gram(black_box(&g)));
        }),
        fast_ms: measure_ms(reps, 1, || {
            black_box(black_box(&g).gram());
        }),
        gated: true,
    });

    let (df, ds, d4) = (dot(&x, &y), naive_dot(&x, &y), four_lane_dot(&x, &y));
    assert!(
        (df - ds).abs() / (1.0 + ds.abs()) < 1e-13 * dot_n as f64,
        "dot diverged from the naive reference: {df} vs {ds}"
    );
    assert_eq!(
        df.to_bits(),
        d4.to_bits(),
        "dot lost its four-lane reduction: {df:e} vs reference {d4:e}"
    );
    assert_ne!(
        ds.to_bits(),
        d4.to_bits(),
        "the seeded vectors no longer tell a sequential dot from the four-lane one"
    );
    results.push(KernelResult {
        name: "dot",
        naive_ms: measure_ms(reps, 64, || {
            black_box(naive_dot(black_box(&x), black_box(&y)));
        }),
        fast_ms: measure_ms(reps, 64, || {
            black_box(dot(black_box(&x), black_box(&y)));
        }),
        gated: false,
    });

    let fast_tv = g.t_matvec(&w);
    let slow_tv = naive_t_matvec(&g, &w);
    for (f, s) in fast_tv.iter().zip(&slow_tv) {
        assert!(
            (f - s).abs() / (1.0 + s.abs()) < 1e-13 * gram_rows as f64,
            "t_matvec diverged: {f} vs {s}"
        );
    }
    // t_matvec is memory-bound (one pass, no reduction restructuring to
    // exploit), so it is reported but not held to the 2x gate
    results.push(KernelResult {
        name: "t_matvec",
        naive_ms: measure_ms(reps, 16, || {
            black_box(naive_t_matvec(black_box(&g), black_box(&w)));
        }),
        fast_ms: measure_ms(reps, 16, || {
            black_box(black_box(&g).t_matvec(black_box(&w)));
        }),
        gated: false,
    });

    // CSS: the objective every ARIMA order fit hands Nelder–Mead, on a
    // seasonal (3,1,3)(1,1,1)_12 spec over seeded coefficient points, each
    // inside the |c| <= 5 guard. Timed against the loop it replaced, whose
    // SSE bits it must keep on every point; the ratio is telemetry.
    let (css_rows, css_points) = (300, 64);
    let mut css_rng = Rng64::seed_from_u64(0xC55);
    let css_series: Vec<f64> = (0..css_rows)
        .map(|t| {
            let t = t as f64;
            100.0
                + 0.2 * t
                + 15.0 * (2.0 * std::f64::consts::PI * t / 12.0).sin()
                + 4.0 * css_rng.normal()
        })
        .collect();
    // runtime lag sets, as a fit derives them from its spec: constant
    // arrays would let the reference unroll its lag loops
    let (ar_lags, ma_lags) = (black_box(vec![1, 2, 3, 12]), black_box(vec![1, 2, 3, 12]));
    let points: Vec<Vec<f64>> = (0..css_points)
        .map(|_| (0..8).map(|_| css_rng.range_f64(-0.9, 0.9)).collect())
        .collect();
    let mut css = CssObjective::new(&css_series, ArimaSpec::seasonal(3, 1, 3, 1, 1, 1, 12));
    let wc = css.centred().to_vec();
    for (i, p) in points.iter().enumerate() {
        let (fast, slow) = (css.sse(p), naive_css(&wc, &ar_lags, &ma_lags, p));
        assert!(fast.is_finite(), "css point {i} left the guarded region");
        assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "css point {i} diverged from the reference loop: {fast:e} vs {slow:e}"
        );
    }
    results.push(KernelResult {
        name: "css",
        naive_ms: measure_ms(reps, 4, || {
            for p in &points {
                black_box(naive_css(black_box(&wc), &ar_lags, &ma_lags, black_box(p)));
            }
        }),
        fast_ms: measure_ms(reps, 4, || {
            for p in &points {
                black_box(css.sse(black_box(p)));
            }
        }),
        gated: false,
    });

    // BATS: the smoothing-constant objective every BATS search hands
    // Nelder–Mead, over seeded raw points (the optimizer's pre-sigmoid
    // coordinates) on a seeded multi-seasonal series, for 1, 3 and 4
    // periods without and with trend. Timed against the plain per-point
    // recursion, whose SSE bits it must keep; the ratios are telemetry.
    let (bats_rows, bats_points) = (300, 64);
    let mut bats_rng = Rng64::seed_from_u64(0xBA75);
    let bats_series: Vec<f64> = (0..bats_rows)
        .map(|t| {
            let t = t as f64;
            let wave = |p: f64| (2.0 * std::f64::consts::PI * t / p).sin();
            100.0
                + 0.2 * t
                + 15.0 * wave(12.0)
                + 6.0 * wave(7.0)
                + 3.0 * wave(24.0)
                + 4.0 * bats_rng.normal()
        })
        .collect();
    let bats_cases: [(&str, &[usize], bool); 6] = [
        ("bats/1", &[12], false),
        ("bats/1+t", &[12], true),
        ("bats/3", &[7, 12, 24], false),
        ("bats/3+t", &[7, 12, 24], true),
        ("bats/4", &[4, 7, 12, 24], false),
        ("bats/4+t", &[4, 7, 12, 24], true),
    ];
    for (name, periods, use_trend) in bats_cases {
        // runtime period sets, as a fit derives them from its config
        let periods = black_box(periods.to_vec());
        let points: Vec<Vec<f64>> = (0..bats_points)
            .map(|_| {
                (0..2 + periods.len())
                    .map(|_| bats_rng.range_f64(-3.0, 3.0))
                    .collect()
            })
            .collect();
        let fast = smoothing_sse(&bats_series, use_trend, &periods, &points)
            .expect("bats series longer than its warm-up");
        for (i, (p, f)) in points.iter().zip(&fast).enumerate() {
            let slow = naive_bats_sse(&bats_series, use_trend, &periods, p);
            assert!(f.is_finite(), "{name} point {i} went non-finite");
            assert_eq!(
                f.to_bits(),
                slow.to_bits(),
                "{name} point {i} diverged from the plain recursion: {f:e} vs {slow:e}"
            );
        }
        results.push(KernelResult {
            name,
            naive_ms: measure_ms(reps, 2, || {
                for p in &points {
                    black_box(naive_bats_sse(
                        black_box(&bats_series),
                        use_trend,
                        &periods,
                        black_box(p),
                    ));
                }
            }),
            fast_ms: measure_ms(reps, 2, || {
                black_box(smoothing_sse(
                    black_box(&bats_series),
                    use_trend,
                    &periods,
                    black_box(&points),
                ));
            }),
            gated: false,
        });
    }

    // CART: the AutoEnsembler's GBM and random-forest candidates, fitted on
    // the worker pool as the tournament runs them. Telemetry, not gated —
    // there is no naive reference, only the tree builder's own history.
    let (cart_rows, cart_lags) = (457, 30);
    let (wx, wy) = window_matrix(&mut Rng64::seed_from_u64(0xCA27), cart_rows, cart_lags);
    let gbm_ms = measure_ms(reps, 1, || {
        let mut m = GradientBoostingRegressor::with_config(GradientBoostingConfig {
            n_rounds: 60,
            ..Default::default()
        });
        m.fit(black_box(&wx), black_box(&wy)).expect("gbm fit");
        black_box(m);
    });
    let forest_ms = measure_ms(reps, 1, || {
        let mut m = RandomForestRegressor::with_config(RandomForestConfig {
            n_trees: 30,
            max_depth: 10,
            ..Default::default()
        });
        m.fit(black_box(&wx), black_box(&wy)).expect("forest fit");
        black_box(m);
    });

    for r in &results {
        println!(
            "{:<10} naive {:>10.4} ms   fast {:>10.4} ms   {:>6.2}x{}",
            r.name,
            r.naive_ms,
            r.fast_ms,
            r.speedup(),
            match (r.gated, r.name) {
                (true, _) => "  [gated >= 2x]",
                (false, name) if name == "dot" || name == "css" || name.starts_with("bats") => {
                    "  [bit-pinned]"
                }
                _ => "",
            }
        );
    }

    println!(
        "{:<10} gbm   {:>10.4} ms   forest {:>8.4} ms   ({cart_rows}x{cart_lags} window)",
        "cart", gbm_ms, forest_ms
    );

    let min_gated = results
        .iter()
        .filter(|r| r.gated)
        .map(KernelResult::speedup)
        .fold(f64::INFINITY, f64::min);

    if smoke {
        assert!(
            min_gated >= 2.0,
            "kernel speedup bar not met: {min_gated:.2}x (need 2x)"
        );
        println!(
            "smoke: matmul/gram speedups >= 2x, dot bit-pinned, css and bats bit-equal to \
             their reference loops, references matched"
        );
        return;
    }

    // machine-readable record at the repo root (hand-built JSON: the schema
    // is flat and the hermetic build carries no serializer)
    let mut kernel_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"naive_ms\": {:.4}, \"fast_ms\": {:.4}, \
                 \"speedup\": {:.3}, \"gated\": {}}}",
                r.name,
                r.naive_ms,
                r.fast_ms,
                r.speedup(),
                r.gated
            )
        })
        .collect();
    kernel_json.push(format!(
        "    {{\"name\": \"cart\", \"window_shape\": [{cart_rows}, {cart_lags}], \
         \"gbm_ms\": {gbm_ms:.4}, \"forest_ms\": {forest_ms:.4}, \"gated\": false}}"
    ));
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"matmul_dim\": {mm},\n  \"gram_shape\": [{gram_rows}, {gram_cols}],\n  \"dot_len\": {dot_n},\n  \"css_shape\": [{css_rows}, {css_points}],\n  \"bats_shape\": [{bats_rows}, {bats_points}],\n  \"reps\": {reps},\n  \"kernels\": [\n{}\n  ],\n  \"min_gated_speedup\": {min_gated:.3}\n}}\n",
        kernel_json.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, json).expect("write BENCH_kernels.json");
    println!("wrote {path}");
}
