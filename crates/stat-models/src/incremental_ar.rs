//! A warm-startable Yule–Walker AR model for T-Daub's growing allocations.
//!
//! T-Daub refits every pipeline on a sequence of data allocations where each
//! allocation extends the previous one by prepending older samples (reverse,
//! most-recent-first order). A classical Yule–Walker fit is O(n·p) per
//! allocation; this model maintains its moment sums incrementally so a
//! refit after growth costs only O(added·p) — **and produces bit-identical
//! coefficients to a from-scratch fit**, which the executor's
//! cached-vs-uncached ranking guarantees require.
//!
//! Bit-exactness under floating point comes from *end-aligned blocked
//! summation* ([`BlockedSum`]): every moment is the ordered sum of fixed
//! 64-element block sums, where block boundaries are anchored to the end of
//! the summed range. Growth at the front leaves the trailing blocks'
//! element sets (and their internal summation order) untouched, so a warm
//! start recomputes only the frontmost blocks and folds the identical block
//! sequence a full fit would produce.

use autoai_linalg::levinson_durbin;

use crate::FitError;

/// Elements per summation block. Growth recomputes at most one existing
/// (partial) block plus the new blocks, so smaller blocks mean less
/// recomputation but more fold overhead; 64 keeps both negligible.
const BLOCK: usize = 64;

/// An incrementally extendable sum with end-aligned fixed-size blocks.
///
/// Conceptually sums `f(0) + f(1) + … + f(len-1)` where `f(j)` is the
/// element at offset `j` from the **end** of the summed range. The sum is
/// materialized as ordered block sums (`block b` covers offsets
/// `[b*64, (b+1)*64)`), folded in block order. [`BlockedSum::extend_to`]
/// grows the range at the front: provided `f` agrees with the previous
/// definition on all offsets `< len`, the extended total is bitwise equal
/// to `BlockedSum::compute(new_len, f).total()`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockedSum {
    len: usize,
    blocks: Vec<f64>,
}

impl BlockedSum {
    /// Sum `len` elements from scratch.
    pub fn compute(len: usize, f: impl Fn(usize) -> f64) -> Self {
        let mut s = Self::default();
        s.extend_to(len, f);
        s
    }

    /// Number of elements currently summed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements have been summed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grow the summed range to `new_len` elements. Only the previously
    /// partial frontmost block is recomputed; complete blocks are reused
    /// verbatim. Panics if asked to shrink.
    pub fn extend_to(&mut self, new_len: usize, f: impl Fn(usize) -> f64) {
        assert!(new_len >= self.len, "BlockedSum cannot shrink");
        // every block strictly before this index is complete and untouched
        let first_dirty = self.len / BLOCK;
        self.blocks.truncate(first_dirty);
        let mut lo = first_dirty.saturating_mul(BLOCK);
        while lo < new_len {
            let hi = lo.saturating_add(BLOCK).min(new_len);
            let mut acc = 0.0;
            for j in lo..hi {
                acc += f(j);
            }
            self.blocks.push(acc);
            lo = hi;
        }
        self.len = new_len;
    }

    /// Fold the block sums in block order (fixed regardless of how the sum
    /// was built — the bit-exactness invariant).
    pub fn total(&self) -> f64 {
        let mut t = 0.0;
        for b in &self.blocks {
            t += b;
        }
        t
    }
}

/// AR(p) via Yule–Walker with incrementally maintained moments.
///
/// `fit` estimates `x[t] = μ + Σ φ_j (x[t-j] − μ) + e[t]` from scratch;
/// [`IncrementalAr::fit_extended`] warm-starts from the previous fit when
/// the new series extends the old one *at the front* (the old series is the
/// trailing suffix of the new one — exactly T-Daub's reverse-allocation
/// growth), updating every moment in O(added · p) while staying
/// bit-identical to a from-scratch fit on the full series.
#[derive(Debug, Clone)]
pub struct IncrementalAr {
    order: usize,
    n: usize,
    /// Σ x[i]·x[i+k] for k = 0..=order, over end-aligned pair offsets.
    cross: Vec<BlockedSum>,
    /// Σ x[i] for i in `[0, n-k)` — the leading operand of lag-k pairs.
    lead: Vec<BlockedSum>,
    /// Σ x[i] for i in `[k, n)` — the trailing operand of lag-k pairs.
    trail: Vec<BlockedSum>,
    coeffs: Vec<f64>,
    mean: f64,
    /// Yule–Walker innovation variance `γ(0)·(1 − Σ φ_k ρ_k)`, the one-step
    /// forecast-error variance implied by the fitted coefficients.
    innovation_var: f64,
    /// Last `order` observations (oldest first), the forecast seed.
    tail: Vec<f64>,
}

impl IncrementalAr {
    /// New unfitted AR model of the given order (≥ 1).
    pub fn new(order: usize) -> Self {
        assert!(order >= 1, "AR order must be >= 1");
        Self {
            order,
            n: 0,
            cross: Vec::new(),
            lead: Vec::new(),
            trail: Vec::new(),
            coeffs: Vec::new(),
            mean: 0.0,
            innovation_var: 0.0,
            tail: Vec::new(),
        }
    }

    /// The configured AR order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of samples the current fit is based on (0 when unfitted).
    pub fn fitted_len(&self) -> usize {
        self.n
    }

    /// Fitted AR coefficients `φ_1..φ_p` (empty when unfitted).
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Fit from scratch. Requires at least `order + 2` samples.
    pub fn fit(&mut self, series: &[f64]) -> Result<(), FitError> {
        if series.len() < self.order.saturating_add(2) {
            return Err(FitError::new(format!(
                "series of length {} too short for AR({})",
                series.len(),
                self.order
            )));
        }
        self.n = 0;
        self.cross = vec![BlockedSum::default(); self.order.saturating_add(1)];
        self.lead = vec![BlockedSum::default(); self.order.saturating_add(1)];
        self.trail = vec![BlockedSum::default(); self.order.saturating_add(1)];
        self.update(series);
        Ok(())
    }

    /// Warm-started refit: `series` must extend the previously fitted data
    /// at the front, i.e. the trailing `previous` samples of `series` are
    /// bitwise the data of the last fit (`previous == fitted_len()`).
    /// Returns `Ok(false)` when the preconditions don't hold (caller should
    /// fall back to a full [`IncrementalAr::fit`]); on `Ok(true)` the model
    /// state is bit-identical to a from-scratch fit on `series`.
    pub fn fit_extended(&mut self, series: &[f64], previous: usize) -> Result<bool, FitError> {
        if self.n == 0 || previous != self.n || series.len() < self.n {
            return Ok(false);
        }
        if series.len() == self.n {
            return Ok(true);
        }
        self.update(series);
        Ok(true)
    }

    /// Recompute (or incrementally extend) every moment against `x`, then
    /// re-derive autocovariances and coefficients. Moments are indexed by
    /// offset-from-range-end, so when the previous data is the suffix of
    /// `x` the existing complete blocks are reused untouched.
    fn update(&mut self, x: &[f64]) {
        let n = x.len();
        let moments = self
            .cross
            .iter_mut()
            .zip(self.lead.iter_mut())
            .zip(self.trail.iter_mut());
        for (k, ((cross, lead), trail)) in moments.enumerate() {
            let m = n - k;
            cross.extend_to(m, |j| {
                let i = m - 1 - j;
                // tscheck:allow(strict-index): j < m, so i + k <= n - 1
                x[i] * x[i + k]
            });
            // tscheck:allow(strict-index): j < m = n - k, so both offsets < n
            lead.extend_to(m, |j| x[m - 1 - j]);
            // tscheck:allow(strict-index): j < m = n - k, so both offsets < n
            trail.extend_to(m, |j| x[n - 1 - j]);
        }
        self.n = n;
        let mean = self.trail.first().map_or(0.0, |t| t.total()) / n as f64;
        let mut cov = Vec::with_capacity(self.order.saturating_add(1));
        let totals = self.cross.iter().zip(&self.lead).zip(&self.trail);
        for (k, ((cross, lead), trail)) in totals.enumerate() {
            let pairs = (n - k) as f64;
            let centered =
                cross.total() - mean * (lead.total() + trail.total()) + pairs * mean * mean;
            cov.push(centered);
        }
        let c0 = cov.first().copied().unwrap_or(0.0);
        self.coeffs = if c0.abs() < 1e-12 || !c0.is_finite() {
            // (near-)constant or degenerate series: forecast the mean
            vec![0.0; self.order]
        } else {
            let rho: Vec<f64> = cov.iter().map(|c| c / c0).collect();
            levinson_durbin(&rho)
        };
        // Yule–Walker innovation variance: γ(0)·(1 − Σ φ_k ρ_k), where
        // γ(0) = c0/n (biased sample autocovariance). Degenerate fits keep
        // whatever (near-zero) variance γ(0) carries; clamp at zero so
        // numerical noise never yields a negative variance.
        let gamma0 = c0 / n as f64;
        let explained: f64 = self
            .coeffs
            .iter()
            .zip(cov.iter().skip(1))
            .map(|(phi, ck)| if c0.abs() < 1e-12 { 0.0 } else { phi * ck / c0 })
            .sum();
        self.innovation_var = (gamma0 * (1.0 - explained)).max(0.0);
        if !self.innovation_var.is_finite() {
            self.innovation_var = 0.0;
        }
        self.mean = mean;
        let tail_start = n.saturating_sub(self.order);
        self.tail = x.get(tail_start..).unwrap_or_default().to_vec();
    }

    /// Variance of the h-step-ahead forecast for `h = 1..=horizon` via the
    /// psi-weight (MA(∞)) representation: `ψ_0 = 1`,
    /// `ψ_j = Σ_i φ_i ψ_{j−i}`, and `var(h) = σ² Σ_{j<h} ψ_j²`.
    pub fn forecast_variance(&self, horizon: usize) -> Vec<f64> {
        assert!(self.n > 0, "IncrementalAr::forecast_variance before fit");
        let mut psi = vec![1.0f64];
        let mut cum = self.innovation_var;
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            out.push(cum);
            let mut next = 0.0;
            for (i, phi) in self.coeffs.iter().enumerate() {
                let lag = i + 1;
                if let Some(&prev) = psi.len().checked_sub(lag).and_then(|j| psi.get(j)) {
                    next += phi * prev;
                }
            }
            psi.push(next);
            cum += self.innovation_var * next * next;
        }
        out
    }

    /// Recursive multi-step forecast from the stored tail.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        assert!(self.n > 0, "IncrementalAr::forecast before fit");
        let mut hist = self.tail.clone();
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let mut v = self.mean;
            for (phi, &lagged) in self.coeffs.iter().zip(hist.iter().rev()) {
                v += phi * (lagged - self.mean);
            }
            out.push(v);
            hist.push(v);
            if hist.len() > 2 * self.order.max(1) {
                hist.drain(..self.order.max(1));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn blocked_sum_extension_is_bitwise_stable() {
        // pseudo-random but deterministic elements
        let f = |j: usize| ((j as f64 * 0.736).sin() * 1e3).fract() + j as f64 * 1e-3;
        for (a, b) in [(1, 2), (10, 64), (63, 65), (64, 128), (100, 333), (0, 7)] {
            let mut inc = BlockedSum::compute(a, f);
            inc.extend_to(b, f);
            let full = BlockedSum::compute(b, f);
            assert_eq!(
                inc.total().to_bits(),
                full.total().to_bits(),
                "extension {a}->{b} not bitwise stable"
            );
            assert_eq!(inc, full);
        }
    }

    fn ar2_series(n: usize) -> Vec<f64> {
        // deterministic AR(2) signal driven by LCG white noise
        let mut seed = 99u64;
        let mut x = vec![10.0, 10.5];
        for i in 2..n {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            let v = 10.0 + 0.6 * (x[i - 1] - 10.0) - 0.3 * (x[i - 2] - 10.0) + 0.3 * noise;
            x.push(v);
        }
        x
    }

    #[test]
    fn recovers_ar_structure() {
        let x = ar2_series(2000);
        let mut m = IncrementalAr::new(2);
        m.fit(&x).unwrap();
        let phi = m.coeffs();
        assert!((phi[0] - 0.6).abs() < 0.1, "phi1 {}", phi[0]);
        assert!((phi[1] + 0.3).abs() < 0.1, "phi2 {}", phi[1]);
        // matches the slice-based Yule-Walker estimate to numerical noise
        let reference = autoai_linalg::yule_walker(&x, 2);
        for (a, b) in phi.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn warm_start_is_bit_identical_to_full_fit() {
        let x = ar2_series(500);
        for order in [1, 2, 5] {
            // previous fit on the trailing 180 samples (reverse allocation)
            let mut warm = IncrementalAr::new(order);
            warm.fit(&x[320..]).unwrap();
            assert!(warm.fit_extended(&x[100..], 180).unwrap());
            assert!(warm.fit_extended(&x, 400).unwrap());

            let mut cold = IncrementalAr::new(order);
            cold.fit(&x).unwrap();

            assert_eq!(bits(warm.coeffs()), bits(cold.coeffs()), "order {order}");
            assert_eq!(warm.mean.to_bits(), cold.mean.to_bits());
            assert_eq!(bits(&warm.forecast(8)), bits(&cold.forecast(8)));
        }
    }

    #[test]
    fn warm_start_rejects_mismatched_previous_length() {
        let x = ar2_series(300);
        let mut m = IncrementalAr::new(2);
        m.fit(&x[200..]).unwrap();
        // claims the previous fit covered 50 rows, but it covered 100
        assert!(!m.fit_extended(&x, 50).unwrap());
        // shrinking is rejected too
        assert!(!m.fit_extended(&x[250..], 100).unwrap());
    }

    #[test]
    fn constant_series_forecasts_mean() {
        let mut m = IncrementalAr::new(3);
        m.fit(&[5.0; 40]).unwrap();
        let f = m.forecast(4);
        for v in f {
            assert!((v - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn too_short_series_rejected() {
        let mut m = IncrementalAr::new(4);
        assert!(m.fit(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn forecast_converges_to_mean_for_stationary_fit() {
        let x = ar2_series(800);
        let mut m = IncrementalAr::new(2);
        m.fit(&x).unwrap();
        let f = m.forecast(200);
        let last = f.last().copied().unwrap();
        assert!((last - m.mean).abs() < 0.5, "{last} vs mean {}", m.mean);
    }
}
