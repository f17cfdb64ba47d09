//! Automatic look-back window discovery (§4.1 of the paper).
//!
//! "AutoAI-TS does not assume prior knowledge about input data, hence we
//! propose and implement an automatic look-back window length discovery
//! mechanism, which for given input data computes most suitable look-back
//! window to be used by deep learning and ML models."
//!
//! The discovery combines three evidence sources, exactly as §4.1 lays out:
//!
//! 1. **Timestamp-index assessment** — infer the sampling frequency, then
//!    expand it to candidate seasonal periods with the Table 1 mapping.
//! 2. **Value-index assessment** — a zero-crossing estimate (average
//!    distance between mean-crossings) plus one spectral (periodogram)
//!    estimate per discovered seasonal period.
//! 3. **Influence ranking** — candidates are ordered by the average rank of
//!    three per-candidate quality measures computed on sampled windows:
//!    linear-regression F-statistic, binned mutual information, and
//!    random-forest MAE.
//!
//! Post-processing applies the paper's sanity rules (drop candidates longer
//! than the data, above `max_look_back`, or trivial 0/1; fall back to the
//! default of 8). Multivariate inputs take the preferred value per series
//! and cap/drop values that would blow up the flattened feature width.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod discover;
pub mod estimators;
pub mod influence;
pub mod seasonal;

pub use discover::{discover_multivariate, discover_univariate, LookbackConfig, MultivariateMode};
pub use estimators::{spectral_lookback, zero_crossing_lookback};
pub use influence::influence_order;
pub use seasonal::seasonal_periods;
