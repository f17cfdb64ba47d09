//! Bit-exact golden pins for the window pipeline family.
//!
//! The nine window pipelines (the AutoEnsembler family, WindowRandomForest,
//! WindowSVR, MT2RForecaster and NeuralWindow) are built through the
//! registry only, so these pins hold whatever types implement them. Each
//! case runs one fixed sequence on a catalog frame with a fresh shared
//! [`TransformCache`] attached:
//!
//! 1. a cold fit on the frame minus its first rows;
//! 2. `predict(1)`, `predict(h)` and `predict(3h + 1)` (bits and names);
//! 3. `predict_interval(h)` bands, or the refusal when there is no native
//!    interval;
//! 4. a reverse-growth `fit_incremental` onto the whole frame (a cold
//!    `fit` when it declines, as the executor does), then `predict(h)`;
//! 5. the cache's (hits, misses, extensions).
//!
//! Everything is folded into one FNV-1a hash per case, so any change that
//! moves one forecast bit, a warm-start decision or a cache lookup fails.
//! `print_actuals` (ignored) prints the current hashes.

use std::sync::Arc;

use autoai_ts_repro::datasets::{multivariate_catalog, univariate_catalog};
use autoai_ts_repro::pipelines::{pipeline_by_name, PipelineContext, DEFAULT_LEVELS};
use autoai_ts_repro::transforms::TransformCache;
use autoai_ts_repro::tsdata::TimeSeriesFrame;

/// Rows left out of the cold fit and added back by the warm start.
const GROWTH: usize = 24;

/// FNV-1a accumulator over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn frame(&mut self, f: &TimeSeriesFrame) {
        self.u64(f.n_series() as u64);
        self.u64(f.len() as u64);
        for name in f.names() {
            self.str(name);
        }
        for c in 0..f.n_series() {
            for v in f.series(c) {
                self.u64(v.to_bits());
            }
        }
    }
}

/// AirPassengers: 144 monthly rows, positive, multiplicative seasonality.
fn univariate() -> (TimeSeriesFrame, PipelineContext) {
    let entry = univariate_catalog()
        .into_iter()
        .find(|e| e.name == "AirPassengers")
        .expect("series is in the catalog");
    (entry.generate(1), PipelineContext::new(12, 6, vec![12]))
}

/// The first two series of walmart-sale: 143 weekly rows.
fn two_series() -> (TimeSeriesFrame, PipelineContext) {
    let entry = multivariate_catalog()
        .into_iter()
        .find(|e| e.name == "walmart-sale")
        .expect("dataset is in the catalog");
    let full = entry.generate(1);
    let frame =
        TimeSeriesFrame::from_columns(vec![full.series(0).to_vec(), full.series(1).to_vec()])
            .with_names(full.names()[..2].to_vec());
    (frame, PipelineContext::new(8, 4, vec![]))
}

/// The hash of one pipeline's fixed sequence on one frame.
fn run_case(name: &str, frame: &TimeSeriesFrame, ctx: &PipelineContext) -> u64 {
    let h = ctx.horizon;
    let cache = Arc::new(TransformCache::new());
    let mut p = pipeline_by_name(name, ctx).expect("registered pipeline");
    p.set_transform_cache(Some(Arc::clone(&cache)));
    let mut fnv = Fnv::new();
    fnv.str(&p.name());
    let cold = frame.slice(GROWTH, frame.len());
    p.fit(&cold).expect("cold fit");
    for horizon in [1, h, 3 * h + 1] {
        fnv.frame(&p.predict(horizon).expect("predict"));
    }
    match p.predict_interval(h, &DEFAULT_LEVELS) {
        Ok(iv) => {
            fnv.frame(iv.point());
            for band in 0..iv.levels().len() {
                let (lo, hi) = iv.band(band).expect("band");
                fnv.frame(lo);
                fnv.frame(hi);
            }
        }
        Err(e) => fnv.str(&format!("{e:?}")),
    }
    let warm = p.fit_incremental(frame, cold.len()).expect("warm start");
    fnv.u64(u64::from(warm));
    if !warm {
        p.fit(frame).expect("cold refit");
    }
    fnv.frame(&p.predict(h).expect("predict after growth"));
    let stats = cache.stats();
    for v in [stats.hits, stats.misses, stats.extensions] {
        fnv.u64(v);
    }
    fnv.0
}

/// (univariate hash, two-series hash) of `name`.
fn hashes(name: &str) -> (u64, u64) {
    let (uni, uni_ctx) = univariate();
    let (two, two_ctx) = two_series();
    (
        run_case(name, &uni, &uni_ctx),
        run_case(name, &two, &two_ctx),
    )
}

const FAMILY: [&str; 9] = [
    "FlattenAutoEnsembler",
    "FlattenAutoEnsembler-log",
    "DifferenceFlattenAutoEnsembler",
    "DifferenceFlattenAutoEnsembler-log",
    "LocalizedFlattenAutoEnsembler",
    "WindowRandomForest",
    "WindowSVR",
    "MT2RForecaster",
    "NeuralWindow",
];

#[test]
#[ignore = "prints current hashes for regenerating the golden constants"]
fn print_actuals() {
    for name in FAMILY {
        let (a, b) = hashes(name);
        println!("{name:<36} = ({a:#018x}, {b:#018x})");
    }
}

fn assert_pinned(name: &str, pin: (u64, u64)) {
    let (a, b) = hashes(name);
    assert_eq!(
        (a, b),
        pin,
        "{name}: (univariate, two-series) = ({a:#018x}, {b:#018x})"
    );
}

#[test]
fn flatten_is_pinned() {
    assert_pinned(
        "FlattenAutoEnsembler",
        (0xb813_27aa_b549_fcb1, 0x7abe_23e8_12ca_c2c0),
    );
}

#[test]
fn flatten_log_is_pinned() {
    assert_pinned(
        "FlattenAutoEnsembler-log",
        (0xedb4_44a1_0c4b_4d6d, 0xab67_f5ab_615d_c0f2),
    );
}

#[test]
fn difference_flatten_is_pinned() {
    assert_pinned(
        "DifferenceFlattenAutoEnsembler",
        (0x143d_29b7_c541_8359, 0x3394_fdda_6b1f_ad54),
    );
}

#[test]
fn difference_flatten_log_is_pinned() {
    assert_pinned(
        "DifferenceFlattenAutoEnsembler-log",
        (0xc541_d450_5fe5_4259, 0xa8d4_5bdb_2b1b_b094),
    );
}

#[test]
fn localized_flatten_is_pinned() {
    assert_pinned(
        "LocalizedFlattenAutoEnsembler",
        (0x8c43_3093_11e7_267d, 0xe10b_fa2b_65e6_f0b5),
    );
}

#[test]
fn window_random_forest_is_pinned() {
    assert_pinned(
        "WindowRandomForest",
        (0x48d1_ac23_04e1_3e12, 0xfd3a_ad9c_67eb_c111),
    );
}

#[test]
fn window_svr_is_pinned() {
    assert_pinned("WindowSVR", (0x4c32_8bae_f5c9_1bbf, 0x35e3_6d76_7791_6bf8));
}

#[test]
fn mt2r_is_pinned() {
    assert_pinned(
        "MT2RForecaster",
        (0x17e1_4457_d5e9_adcd, 0x8383_f4c1_71c0_255f),
    );
}

#[test]
fn neural_window_is_pinned() {
    assert_pinned(
        "NeuralWindow",
        (0xf823_18a5_5d18_bfd3, 0xe5d9_0d83_eae5_297c),
    );
}
