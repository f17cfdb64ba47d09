//! Time series data substrate for AutoAI-TS.
//!
//! The paper fixes the data semantics in §3: every pipeline, estimator and
//! transformer consumes and produces a **2-D array in which columns are
//! individual time series and rows are samples**; `predict` returns a 2-D
//! array whose rows are the `prediction_horizon` future values. This crate
//! provides that schema ([`TimeSeriesFrame`]), timestamp/frequency handling,
//! the input quality check that runs before anything else (§4), the SMAPE /
//! MAE / RMSE metric suite used in the evaluation (§5.3), temporal splits,
//! and the rank-aggregation helpers behind Figures 6–15.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod frame;
pub mod metrics;
pub mod quality;
pub mod ranking;
pub mod split;
pub mod timestamps;

pub use frame::{FrameFingerprint, GrowthKind, GrowthRecord, TimeSeriesFrame};
pub use metrics::{
    crps, interval_coverage, mae, mape, mse, normal_cdf, normal_pdf, normal_quantile, pinball_loss,
    r2_score, rmse, smape, Metric, MetricError,
};
pub use quality::{clean, quality_check, QualityIssue, QualityReport};
pub use ranking::{average_ranks, rank_histogram, rank_rows, RankSummary};
pub use split::holdout_split;
pub use timestamps::{infer_frequency, regular_step, Frequency};
