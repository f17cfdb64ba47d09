//! Bit-exact golden pins for the zero-conf orchestrator's healthy path.
//!
//! Each case runs a zero-conf `AutoAITS::fit` (default config, the ten
//! default pipelines) on one catalog frame and folds into one FNV-1a hash:
//!
//! 1. `best_pipeline`, the look-back and the `holdout_smape` bits;
//! 2. the ensemble selection's member names and weight bits;
//! 3. the `predict(12)` bits;
//! 4. every `predict_interval(12, &[0.8, 0.95])` band bit and the band's
//!    source.
//!
//! The cases cover a univariate frame, a two-series frame and a frame on
//! which the greedy ensemble is promoted to the serving slot, so any change
//! to selection, serving, holdout scoring or conformal calibration that
//! moves one bit fails. `print_actuals` (ignored) prints the current hashes.

use autoai_ts_repro::core_ts::AutoAITS;
use autoai_ts_repro::datasets::{multivariate_catalog, univariate_catalog};
use autoai_ts_repro::tsdata::TimeSeriesFrame;

/// Forecast horizon of every read: the paper's default.
const HORIZON: usize = 12;

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
        for c in 0..f.n_series() {
            for v in f.series(c) {
                self.u64(v.to_bits());
            }
        }
    }
}

fn univariate(name: &str) -> TimeSeriesFrame {
    univariate_catalog()
        .into_iter()
        .find(|e| e.name == name)
        .expect("series is in the catalog")
        .generate(1)
}

/// `ozone`: 230 noisy monthly rows.
fn ozone() -> TimeSeriesFrame {
    univariate("ozone")
}

/// The first two series of walmart-sale: 143 weekly rows.
fn two_series() -> TimeSeriesFrame {
    let entry = multivariate_catalog()
        .into_iter()
        .find(|e| e.name == "walmart-sale")
        .expect("dataset is in the catalog");
    let full = entry.generate(1);
    TimeSeriesFrame::from_columns(vec![full.series(0).to_vec(), full.series(1).to_vec()])
        .with_names(full.names()[..2].to_vec())
}

/// `Births`: 365 daily rows on which the greedy ensemble serves.
fn births() -> TimeSeriesFrame {
    univariate("Births")
}

/// The hash of one zero-conf fit and its reads, plus the served name.
fn run_case(frame: &TimeSeriesFrame) -> (u64, String) {
    let mut sys = AutoAITS::new();
    sys.fit(frame).expect("zero-conf fit");
    let summary = sys.summary().expect("fitted");
    let mut fnv = Fnv::new();
    fnv.str(&summary.best_pipeline);
    fnv.u64(summary.lookback as u64);
    fnv.u64(summary.holdout_smape.to_bits());
    match &summary.ensemble {
        Some(sel) => {
            fnv.u64(sel.members.len() as u64);
            for m in &sel.members {
                fnv.str(&m.name);
                fnv.u64(m.weight.to_bits());
            }
        }
        None => fnv.str("no ensemble"),
    }
    fnv.frame(&sys.predict(HORIZON).expect("predict"));
    let iv = sys
        .predict_interval(HORIZON, &[0.8, 0.95])
        .expect("interval");
    fnv.frame(iv.point());
    for band in 0..iv.levels().len() {
        let (lo, hi) = iv.band(band).expect("band");
        fnv.frame(lo);
        fnv.frame(hi);
    }
    fnv.str(&iv.source().to_string());
    (fnv.0, summary.best_pipeline.clone())
}

#[test]
#[ignore = "prints current hashes for regenerating the golden constants"]
fn print_actuals() {
    for (case, frame) in [
        ("univariate", ozone()),
        ("two_series", two_series()),
        ("promoted", births()),
    ] {
        let (hash, best) = run_case(&frame);
        println!("{case:<12} = {hash:#018x}  ({best})");
    }
}

#[test]
fn univariate_fit_is_pinned() {
    let (hash, best) = run_case(&ozone());
    assert_eq!(hash, 0x8593_555b_55f5_7d32, "ozone ({best}): {hash:#018x}");
}

#[test]
fn two_series_fit_is_pinned() {
    let (hash, best) = run_case(&two_series());
    assert_eq!(
        hash, 0x5aeb_d6f9_17f0_695a,
        "walmart-sale[..2] ({best}): {hash:#018x}"
    );
}

#[test]
fn promoted_ensemble_fit_is_pinned() {
    let (hash, best) = run_case(&births());
    assert!(
        best.starts_with("Ensemble("),
        "ensemble not promoted: {best}"
    );
    assert_eq!(hash, 0x663b_c533_b8a2_ac64, "Births ({best}): {hash:#018x}");
}
