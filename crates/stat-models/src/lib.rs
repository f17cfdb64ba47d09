//! Classical statistical forecasting models, implemented from scratch.
//!
//! §3 of the paper: "AutoAI-TS encompasses the family of classical
//! statistical forecasting models including ARIMA, ARMA, Additive and
//! Multiplicative Triple Exponential Smoothing also known as Holt-winters
//! and BATS … that we implemented for efficient, parallel and automatic
//! search of corresponding model parameters."
//!
//! All models here operate on a single univariate series (`&[f64]`); the
//! pipelines crate adapts them to the 2-D frame API, fitting one model per
//! column for multivariate inputs. Every model follows the same shape:
//! a config struct, a `fit` entry point returning a fitted model, and a
//! `forecast(horizon)` method. "Statistical models in our system
//! automatically estimate coefficients and optimize parameters based on the
//! input training data" (§4) — ARIMA selects orders by AICc, Holt-Winters
//! and BATS optimize their smoothing constants with Nelder–Mead.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arima;
pub mod bats;
pub mod garch;
pub mod holtwinters;
pub mod incremental_ar;
pub mod simple;

pub use arima::{
    auto_arima, auto_arima_seeded_with_deadline, auto_arima_with_deadline, Arima, ArimaSpec,
};
pub use bats::{Bats, BatsConfig};
pub use garch::Garch;
pub use holtwinters::{HoltWinters, Seasonality};
pub use incremental_ar::{BlockedSum, IncrementalAr};
pub use simple::{SeasonalNaive, ThetaModel, ZeroModel};

/// Error produced when a model cannot be fitted to the given data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl FitError {
    /// Build an error from anything printable.
    pub fn new(msg: impl Into<String>) -> Self {
        Self {
            message: msg.into(),
        }
    }
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fit error: {}", self.message)
    }
}

impl std::error::Error for FitError {}
