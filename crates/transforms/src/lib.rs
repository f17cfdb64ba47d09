//! Data transformations for AutoAI-TS pipelines.
//!
//! §3 of the paper: "input time series data is first transformed using
//! stateless transformer (transformers that do not remember the state of the
//! operation) such as log, fisher, box_cox, etc. Then, stateful
//! transformations are optionally performed, stateful transformations retain
//! the knowledge of the sequence of operation that are performed such as
//! Difference, Flatten, Localized Flatten and Normalized Flatten. … inverse
//! transformations are applied in the reverse order of application, i.e.,
//! the stateful inverse transformation followed by stateless inverse
//! transformation."
//!
//! This crate implements the part of that taxonomy the AutoAI-TS pipeline
//! pool runs: the stateless [`LogTransform`], the stateful
//! [`DifferenceTransform`], and the Flatten and Localized Flatten windowings
//! in [`window`], plus the [`TransformCache`] that shares their outputs
//! across T-Daub allocations and the [`ConformalScores`] behind calibrated
//! prediction intervals. Data checks (negative, missing, constant,
//! irregularly spaced values) live in `autoai_tsdata::quality_check`, which
//! `AutoAITS::fit` runs before any pipeline sees the data.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod conformal;
pub mod stateful;
pub mod stateless;
pub mod traits;
pub mod window;

pub use cache::{hit_mismatches, set_hit_verification, CacheStats, TransformCache};
pub use conformal::ConformalScores;
pub use stateful::DifferenceTransform;
pub use stateless::LogTransform;
pub use traits::Transform;
pub use window::{
    flatten_windows, latest_window, localized_flatten_windows, n_windows, WindowDataset,
};
