//! Forecasting pipelines: the sklearn-style estimator contract and the ten
//! pipelines AutoAI-TS ships (Table 6 of the paper).
//!
//! A pipeline "encapsulates all the complexities and performs all necessary
//! tasks internally, such as model parameter search and data reshaping"
//! (§3). Every pipeline implements the [`Forecaster`] trait — `fit` on a
//! 2-D frame, `predict(horizon)` returning a 2-D frame whose rows are the
//! future values — so T-Daub and the zero-conf orchestrator can treat
//! statistical, ML, hybrid, and neural pipelines uniformly.
//!
//! The ten pipelines, in the order of Figure 15 / Table 6:
//! `FlattenAutoEnsembler-log`, `WindowRandomForest`, `WindowSVR`,
//! `MT2RForecaster`, `bats`, `DifferenceFlattenAutoEnsembler-log`,
//! `LocalizedFlattenAutoEnsembler`, `Arima`, `HW-Additive`,
//! `HW-Multiplicative`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod caching;
pub mod ensemble;
pub mod interval;
pub mod registry;
pub mod stat_pipelines;
pub mod traits;
pub mod weighted_ensemble;
pub mod window_pipeline;

pub use caching::{cached_flatten, cached_frame_op, cached_localized_flatten};
pub use interval::{
    predict_interval_or_conformal, ConformalCalibration, IntervalForecast, IntervalSource,
    DEFAULT_LEVELS,
};
pub use registry::{
    default_pipelines, extended_pipelines, pipeline_by_name, PipelineContext, PIPELINE_NAMES,
};
pub use stat_pipelines::{
    ArPipeline, ArimaPipeline, BatsPipeline, GarchPipeline, HoltWintersPipeline,
    SeasonalNaivePipeline, ThetaPipeline, ZeroModelPipeline,
};
pub use traits::{score_forecast, Forecaster, PipelineError};
pub use weighted_ensemble::EnsembleForecaster;
pub use window_pipeline::WindowPipeline;
