//! Machine-learning regressors implemented from scratch.
//!
//! §3 of the paper: "We also include Machine Learning models (ML) such as
//! Random-Forest, XGBoost, Linear Regression, SGD Regression" — plus the
//! Support Vector Regression behind the WindowSVR pipeline. This crate
//! builds the ones the pipeline pool and the baseline simulators run, with
//! no external dependency: CART trees, bootstrap-aggregated random forests
//! (thread-parallel), second-order gradient-boosted trees in the XGBoost
//! style, OLS linear regression, RBF kernel ridge (the nonlinear SVR
//! stand-in, see DESIGN.md), and a k-NN regressor used by the AutoTS
//! simulator.
//!
//! Everything implements the [`Regressor`] trait and can be lifted to
//! multi-output problems (forecast horizons) with [`MultiOutputRegressor`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod api;
pub mod forest;
pub mod gbm;
pub mod knn;
pub mod linear;
pub mod svr;
pub mod tree;

pub use api::{MlError, MultiOutputRegressor, Regressor};
pub use forest::{RandomForestConfig, RandomForestRegressor};
pub use gbm::{GradientBoostingConfig, GradientBoostingRegressor};
pub use knn::KnnRegressor;
pub use linear::LinearRegression;
pub use svr::KernelRidgeSvr;
pub use tree::{DecisionTreeConfig, DecisionTreeRegressor, FeatureOrders};
