//! GARCH(1,1) volatility model — the paper's §6 future-work item "high
//! volatility models", implemented as an extension.
//!
//! The model is `r_t = μ + e_t`, `e_t = σ_t z_t`,
//! `σ²_t = ω + α e²_{t-1} + β σ²_{t-1}`. Parameters are estimated by
//! Gaussian quasi-maximum-likelihood with Nelder–Mead in a softplus/sigmoid
//! reparameterization that keeps `ω > 0`, `α, β ≥ 0`, `α + β < 1`
//! (covariance stationarity). The mean forecast is flat at `μ`; the value
//! of the model is the volatility path, used for prediction intervals.

use autoai_linalg::{nelder_mead, NelderMeadOptions};

use crate::FitError;

/// A fitted GARCH(1,1) model.
#[derive(Debug, Clone)]
pub struct Garch {
    /// Unconditional mean of the series.
    pub mu: f64,
    /// Constant variance term ω.
    pub omega: f64,
    /// ARCH coefficient α (reaction to shocks).
    pub alpha: f64,
    /// GARCH coefficient β (volatility persistence).
    pub beta: f64,
    /// Final conditional variance state.
    last_var: f64,
    /// Final squared residual.
    last_e2: f64,
    /// Conditional variance path over the training data.
    variance_path: Vec<f64>,
}

fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else {
        (1.0 + x.exp()).ln()
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl Garch {
    /// Fit by quasi-maximum likelihood. Requires at least 30 observations.
    pub fn fit(series: &[f64]) -> Result<Self, FitError> {
        let n = series.len();
        if n < 30 {
            return Err(FitError::new("GARCH needs at least 30 observations"));
        }
        if series.iter().any(|v| !v.is_finite()) {
            return Err(FitError::new("series contains non-finite values"));
        }
        let mu = autoai_linalg::mean(series);
        let resid: Vec<f64> = series.iter().map(|&v| v - mu).collect();
        let uncond = autoai_linalg::variance(&resid).max(1e-12);

        // raw = [log-ish omega, logit of alpha share, logit of persistence]
        // persistence p = sigmoid(r2) * 0.998; alpha = p * sigmoid(r1)
        let nll = |raw: &[f64]| -> f64 {
            let [r0, r1, r2] = raw else {
                return f64::INFINITY;
            };
            let persistence = sigmoid(*r2) * 0.998;
            let alpha = persistence * sigmoid(*r1);
            let beta = persistence - alpha;
            let omega = softplus(*r0) * uncond * 0.1 + 1e-12;
            let mut var = uncond;
            let mut nll_acc = 0.0;
            let mut prev_e2 = uncond;
            for &e in &resid {
                var = omega + alpha * prev_e2 + beta * var;
                if var <= 0.0 || !var.is_finite() {
                    return f64::INFINITY;
                }
                nll_acc += 0.5 * (var.ln() + e * e / var);
                prev_e2 = e * e;
            }
            nll_acc
        };
        let opts = NelderMeadOptions {
            max_evals: 3000,
            ..Default::default()
        };
        let (raw, _, _) = nelder_mead(nll, &[0.0, 0.0, 2.0], &opts);
        let [r0, r1, r2] = raw.as_slice() else {
            return Err(FitError::new("GARCH optimizer returned wrong arity"));
        };
        let persistence = sigmoid(*r2) * 0.998;
        let alpha = persistence * sigmoid(*r1);
        let beta = persistence - alpha;
        let omega = softplus(*r0) * uncond * 0.1 + 1e-12;

        // final pass for the variance path
        let mut variance_path = Vec::with_capacity(n);
        let mut var = uncond;
        let mut prev_e2 = uncond;
        for &e in &resid {
            var = omega + alpha * prev_e2 + beta * var;
            variance_path.push(var);
            prev_e2 = e * e;
        }
        Ok(Self {
            mu,
            omega,
            alpha,
            beta,
            last_var: variance_path.last().copied().unwrap_or(var),
            last_e2: prev_e2,
            variance_path,
        })
    }

    /// Forecast conditional variance `horizon` steps ahead.
    pub fn forecast_variance(&self, horizon: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(horizon);
        let mut var = self.omega + self.alpha * self.last_e2 + self.beta * self.last_var;
        for _ in 0..horizon {
            out.push(var);
            // E[e²] = var, so the recursion collapses to ω + (α+β)·var
            var = self.omega + (self.alpha + self.beta) * var;
        }
        out
    }

    /// Mean forecast (flat at μ) with ±z·σ prediction intervals.
    pub fn forecast_with_interval(&self, horizon: usize, z: f64) -> Vec<(f64, f64, f64)> {
        self.forecast_variance(horizon)
            .into_iter()
            .map(|v| {
                let sd = v.sqrt();
                (self.mu, self.mu - z * sd, self.mu + z * sd)
            })
            .collect()
    }

    /// In-sample conditional variance path.
    pub fn variance_path(&self) -> &[f64] {
        &self.variance_path
    }

    /// Unconditional (long-run) variance `ω / (1 - α - β)`.
    pub fn unconditional_variance(&self) -> f64 {
        self.omega / (1.0 - self.alpha - self.beta).max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulate a GARCH(1,1) path.
    fn simulate(omega: f64, alpha: f64, beta: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        let mut gauss = || {
            // sum of 12 uniforms - 6 ≈ N(0,1)
            let mut acc = 0.0;
            for _ in 0..12 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                acc += (s >> 33) as f64 / (1u64 << 31) as f64;
            }
            acc - 6.0
        };
        let mut var = omega / (1.0 - alpha - beta);
        let mut prev_e = 0.0;
        (0..n)
            .map(|_| {
                var = omega + alpha * prev_e * prev_e + beta * var;
                let e = var.sqrt() * gauss();
                prev_e = e;
                e
            })
            .collect()
    }

    #[test]
    fn recovers_persistence_on_simulated_data() {
        let x = simulate(0.1, 0.15, 0.8, 4000, 3);
        let m = Garch::fit(&x).unwrap();
        let persistence = m.alpha + m.beta;
        assert!((persistence - 0.95).abs() < 0.1, "α+β = {persistence}");
        assert!(m.alpha > 0.02, "alpha = {}", m.alpha);
    }

    #[test]
    fn volatility_clusters_are_tracked() {
        // calm first half, violent second half
        let mut x = simulate(0.05, 0.05, 0.6, 1000, 7);
        for v in x.iter_mut().skip(500) {
            *v *= 5.0;
        }
        let m = Garch::fit(&x).unwrap();
        let path = m.variance_path();
        let calm = autoai_linalg::mean(&path[100..500]);
        let wild = autoai_linalg::mean(&path[600..1000]);
        assert!(wild > 3.0 * calm, "calm {calm} vs wild {wild}");
    }

    #[test]
    fn variance_forecast_reverts_to_unconditional() {
        let x = simulate(0.2, 0.1, 0.7, 2000, 11);
        let m = Garch::fit(&x).unwrap();
        let f = m.forecast_variance(500);
        let long_run = m.unconditional_variance();
        assert!(
            (f[499] - long_run).abs() / long_run < 0.05,
            "far forecast {} vs long-run {long_run}",
            f[499]
        );
    }

    #[test]
    fn intervals_widen_with_volatility() {
        let x = simulate(0.1, 0.2, 0.75, 1500, 13);
        let m = Garch::fit(&x).unwrap();
        let iv = m.forecast_with_interval(5, 1.96);
        for (mid, lo, hi) in iv {
            assert!(lo < mid && mid < hi);
        }
    }

    #[test]
    fn constraints_hold() {
        let x = simulate(0.1, 0.1, 0.8, 1000, 17);
        let m = Garch::fit(&x).unwrap();
        assert!(m.omega > 0.0);
        assert!(m.alpha >= 0.0 && m.beta >= 0.0);
        assert!(
            m.alpha + m.beta < 1.0,
            "stationarity: {} + {}",
            m.alpha,
            m.beta
        );
    }

    #[test]
    fn short_series_rejected() {
        assert!(Garch::fit(&[1.0; 10]).is_err());
    }
}
