//! Dense linear algebra, spectral analysis, and optimization primitives.
//!
//! This crate is the numerical substrate of the AutoAI-TS reproduction.
//! Everything is implemented from scratch on `Vec<f64>`-backed row-major
//! matrices: Cholesky and QR factorizations, least squares (ordinary and
//! ridge), a radix-2 FFT with zero-padding for arbitrary lengths, a
//! periodogram for spectral look-back discovery, and a Nelder–Mead simplex
//! optimizer used to fit exponential-smoothing and ARMA parameters.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod fft;
pub mod matrix;
pub mod optimize;
pub mod par;
pub mod rng;
pub mod solve;
pub mod stats;
pub mod sync;

pub use fft::{dominant_period, fft_complex, periodogram, Complex};
pub use matrix::{axpy, dot, Matrix};
pub use optimize::{golden_section_min, nelder_mead, NelderMeadOptions};
pub use par::{
    parallel_try_map_mut, parallel_try_map_range, supervised_try_map, SupervisedOutcome,
    WorkerPanic,
};
pub use rng::Rng64;
pub use solve::{
    cholesky, cholesky_solve, lstsq, lstsq_ridge, simple_linreg, solve_linear, SolveError,
};
pub use stats::{
    autocorrelation, autocovariance, levinson_durbin, mean, median, partial_autocorrelation,
    quantile, std_dev, variance, yule_walker, zero_crossings,
};
pub use sync::{inversion_count, set_abort_on_inversion, set_runtime_tracking, OrderedMutex};
