//! Online drift monitoring for the serving loop.
//!
//! [`super::service::ForecastService::observe`] grows a stored series one
//! tail at a time; this module watches whether the *deployed* winner is
//! still the right model for the data that keeps arriving. The monitor is
//! intentionally cheap and fully deterministic:
//!
//! - **Rolling one-step SMAPE, winner vs. baseline.** Every observed row
//!   yields two one-step losses: the live winner's forecast for that row
//!   (made before the row arrived) and the ZeroModel persistence baseline
//!   (the previous observed row). Both land in bounded rolling windows.
//! - **CUSUM-style change statistics.** Two one-sided cumulative sums:
//!   `excess` accumulates `winner_loss − baseline_loss − slack` (a *level
//!   shift* makes the adaptive persistence baseline far better than the
//!   stale winner, so the excess explodes), and `self_excess` accumulates
//!   `winner_loss − running_mean(winner_loss) − slack` (a *variance blowup*
//!   degrades the winner against its own history even while it still beats
//!   persistence). Both reset toward zero under stationary traffic.
//! - **Quality deltas.** Structural degradation reported by the growth
//!   path — [`QualityIssue::DroppedTimestamps`] and friends — bumps the
//!   change statistic directly: a series whose spacing is eroding deserves
//!   re-selection even before its losses do.
//!
//! The state is seed-free and replays bit-identically: the same sequence of
//! `observe_step`/`note_quality`/`reset` calls produces the same
//! [`DriftMonitor::state_bits`] on every run, which is what the property
//! suite in `tests/online_drift.rs` pins down. No wall clock, no RNG, no
//! hash iteration — just f64 arithmetic in call order.

use autoai_linalg::mean;
use autoai_tsdata::QualityIssue;

/// SMAPE is bounded to `[0, 200]`; losses are clamped into this range so a
/// single absurd step cannot saturate the change statistics forever.
const SMAPE_CEILING: f64 = 200.0;

/// Floor for the baseline rolling mean when forming the loss ratio, so a
/// perfectly-predicted stretch cannot divide by zero.
const RATIO_FLOOR: f64 = 1e-9;

/// Typed outcome of a monitor update: how worried the serving loop should
/// be about the deployed winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftVerdict {
    /// The winner tracks the data; keep serving.
    Stable,
    /// Early evidence of degradation (elevated loss ratio or a partially
    /// charged change statistic); keep serving but keep watching.
    Suspect,
    /// The change statistic crossed the drift threshold; the serving loop
    /// should schedule a warm re-selection.
    Drifted,
}

/// Tuning knobs for the drift monitor. Defaults are deliberately
/// conservative: stationary noise must never trigger a re-selection, while
/// a genuine level shift should charge the statistic within a couple of
/// observation batches.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Rolling window length (steps) for the one-step loss means.
    pub window: usize,
    /// Minimum recorded steps before any verdict other than `Stable`.
    pub min_observations: u64,
    /// Per-step slack subtracted inside both CUSUM recursions; losses
    /// within `slack` SMAPE points of the reference charge nothing.
    pub cusum_slack: f64,
    /// `Suspect` once either change statistic reaches this level.
    pub cusum_suspect: f64,
    /// `Drifted` once either change statistic reaches this level.
    pub cusum_drift: f64,
    /// `Suspect` once `rolling_mean(winner) / rolling_mean(baseline)`
    /// reaches this ratio.
    pub ratio_suspect: f64,
    /// Charge added to the change statistic per reported quality issue.
    pub quality_weight: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            window: 24,
            min_observations: 8,
            cusum_slack: 2.0,
            cusum_suspect: 10.0,
            cusum_drift: 25.0,
            ratio_suspect: 1.5,
            quality_weight: 5.0,
        }
    }
}

/// A copyable snapshot of the full monitor state, for bit-identity
/// assertions (serial and parallel observe schedules must produce the same
/// bits) and dashboards.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSnapshot {
    /// Steps recorded since the last reset.
    pub observations: u64,
    /// Quality issues charged since the last reset.
    pub quality_events: u64,
    /// Times the monitor has been reset (one per completed re-selection).
    pub resets: u64,
    /// Baseline-relative change statistic (level-shift detector).
    pub excess: f64,
    /// Self-relative change statistic (variance-blowup detector).
    pub self_excess: f64,
    /// Rolling mean of the winner's one-step SMAPE.
    pub winner_mean: f64,
    /// Rolling mean of the persistence baseline's one-step SMAPE.
    pub baseline_mean: f64,
    /// Current verdict.
    pub verdict: DriftVerdict,
}

/// Per-series drift state: rolling loss windows plus two one-sided CUSUM
/// statistics. Deterministic and seed-free; see the module docs.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    config: DriftConfig,
    winner_window: Vec<f64>,
    baseline_window: Vec<f64>,
    /// Sum of every winner loss since the last reset (running reference for
    /// the self-relative statistic).
    winner_loss_sum: f64,
    excess: f64,
    self_excess: f64,
    observations: u64,
    quality_events: u64,
    resets: u64,
}

impl Default for DriftMonitor {
    fn default() -> Self {
        Self::new(DriftConfig::default())
    }
}

impl DriftMonitor {
    /// Build a monitor with explicit tuning.
    pub fn new(config: DriftConfig) -> Self {
        Self {
            config,
            winner_window: Vec::new(),
            baseline_window: Vec::new(),
            winner_loss_sum: 0.0,
            excess: 0.0,
            self_excess: 0.0,
            observations: 0,
            quality_events: 0,
            resets: 0,
        }
    }

    /// Record one observed step: the winner's one-step SMAPE and the
    /// persistence baseline's one-step SMAPE for the same row. Returns the
    /// verdict after the update. A non-finite baseline loss discards the
    /// step (the row itself was unusable); a non-finite winner loss is
    /// charged at the SMAPE ceiling — a winner that cannot even produce a
    /// comparable forecast is maximal evidence of drift.
    pub fn observe_step(&mut self, winner_loss: f64, baseline_loss: f64) -> DriftVerdict {
        if !baseline_loss.is_finite() {
            return self.verdict();
        }
        let baseline = baseline_loss.clamp(0.0, SMAPE_CEILING);
        let winner = if winner_loss.is_finite() {
            winner_loss.clamp(0.0, SMAPE_CEILING)
        } else {
            SMAPE_CEILING
        };
        // self-relative reference is the running mean *before* this step
        let reference = if self.observations == 0 {
            winner
        } else {
            self.winner_loss_sum / self.observations as f64
        };
        push_window(&mut self.winner_window, winner, self.config.window);
        push_window(&mut self.baseline_window, baseline, self.config.window);
        self.winner_loss_sum += winner;
        self.observations = self.observations.saturating_add(1);
        self.excess = (self.excess + (winner - baseline) - self.config.cusum_slack).max(0.0);
        self.self_excess =
            (self.self_excess + (winner - reference) - self.config.cusum_slack).max(0.0);
        self.verdict()
    }

    /// Charge a quality-layer delta reported by the growth path. Every
    /// issue adds [`DriftConfig::quality_weight`] to the baseline-relative
    /// statistic; [`QualityIssue::DroppedTimestamps`] additionally counts
    /// the affected rows in [`DriftSnapshot::quality_events`].
    pub fn note_quality(&mut self, issue: &QualityIssue) -> DriftVerdict {
        let rows = match issue {
            QualityIssue::DroppedTimestamps(n) => (*n).max(1) as u64,
            _ => 1,
        };
        self.quality_events = self.quality_events.saturating_add(rows);
        self.excess += self.config.quality_weight;
        self.verdict()
    }

    /// Current verdict from the accumulated state. Pure read.
    pub fn verdict(&self) -> DriftVerdict {
        if self.observations < self.config.min_observations {
            return DriftVerdict::Stable;
        }
        let peak = if self.excess >= self.self_excess {
            self.excess
        } else {
            self.self_excess
        };
        if peak >= self.config.cusum_drift {
            return DriftVerdict::Drifted;
        }
        if peak >= self.config.cusum_suspect || self.loss_ratio() >= self.config.ratio_suspect {
            return DriftVerdict::Suspect;
        }
        DriftVerdict::Stable
    }

    /// `rolling_mean(winner) / rolling_mean(baseline)`, floored so the
    /// denominator can never be zero. `0.0` before any step is recorded.
    pub fn loss_ratio(&self) -> f64 {
        mean(&self.winner_window) / mean(&self.baseline_window).max(RATIO_FLOOR)
    }

    /// Forget the charged evidence after a completed re-selection: the new
    /// winner starts from a clean slate (and must re-earn
    /// [`DriftConfig::min_observations`] before it can be accused again).
    pub fn reset(&mut self) {
        self.winner_window.clear();
        self.baseline_window.clear();
        self.winner_loss_sum = 0.0;
        self.excess = 0.0;
        self.self_excess = 0.0;
        self.observations = 0;
        self.quality_events = 0;
        self.resets = self.resets.saturating_add(1);
    }

    /// Copyable snapshot of the full state.
    pub fn snapshot(&self) -> DriftSnapshot {
        DriftSnapshot {
            observations: self.observations,
            quality_events: self.quality_events,
            resets: self.resets,
            excess: self.excess,
            self_excess: self.self_excess,
            winner_mean: mean(&self.winner_window),
            baseline_mean: mean(&self.baseline_window),
            verdict: self.verdict(),
        }
    }

    /// The complete monitor state as raw bits, for bit-identity assertions:
    /// two runs fed the same update sequence must return equal vectors.
    pub fn state_bits(&self) -> Vec<u64> {
        let mut bits = vec![
            self.observations,
            self.quality_events,
            self.resets,
            self.excess.to_bits(),
            self.self_excess.to_bits(),
            self.winner_loss_sum.to_bits(),
        ];
        bits.extend(self.winner_window.iter().map(|v| v.to_bits()));
        bits.extend(self.baseline_window.iter().map(|v| v.to_bits()));
        bits
    }
}

/// Push into a bounded chronological window, evicting the oldest entry.
fn push_window(window: &mut Vec<f64>, value: f64, cap: usize) {
    if cap == 0 {
        return;
    }
    if window.len() >= cap {
        window.remove(0);
    }
    window.push(value);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> DriftConfig {
        DriftConfig {
            window: 8,
            min_observations: 4,
            cusum_slack: 1.0,
            cusum_suspect: 5.0,
            cusum_drift: 12.0,
            ratio_suspect: 2.0,
            quality_weight: 3.0,
        }
    }

    #[test]
    fn stationary_matched_losses_stay_stable() {
        let mut m = DriftMonitor::new(tight());
        for i in 0..200 {
            let wobble = 0.3 * ((i % 7) as f64 - 3.0);
            let v = m.observe_step(4.0 + wobble, 4.0 - wobble);
            assert_ne!(v, DriftVerdict::Drifted, "step {i}: {:?}", m.snapshot());
        }
        assert_eq!(m.verdict(), DriftVerdict::Stable);
    }

    #[test]
    fn persistent_excess_drifts() {
        let mut m = DriftMonitor::new(tight());
        let mut fired = None;
        for i in 0..40 {
            if m.observe_step(20.0, 3.0) == DriftVerdict::Drifted {
                fired = Some(i);
                break;
            }
        }
        let at = fired.expect("sustained 17-point excess never drifted");
        assert!(at < 10, "drift verdict took {at} steps");
    }

    #[test]
    fn variance_blowup_drifts_even_when_winner_beats_baseline() {
        let mut m = DriftMonitor::new(tight());
        // calm regime: winner slightly better than baseline
        for _ in 0..20 {
            assert_eq!(m.observe_step(2.0, 3.0), DriftVerdict::Stable);
        }
        // variance regime: both degrade, winner still beats baseline, but
        // the self-relative statistic sees the winner leave its own history
        let mut fired = false;
        for _ in 0..30 {
            if m.observe_step(30.0, 40.0) == DriftVerdict::Drifted {
                fired = true;
                break;
            }
        }
        assert!(
            fired,
            "self-relative statistic never fired: {:?}",
            m.snapshot()
        );
    }

    #[test]
    fn warmup_gate_blocks_early_verdicts() {
        let mut m = DriftMonitor::new(tight());
        for _ in 0..3 {
            assert_eq!(m.observe_step(200.0, 0.0), DriftVerdict::Stable);
        }
        assert_ne!(m.observe_step(200.0, 0.0), DriftVerdict::Stable);
    }

    #[test]
    fn quality_issues_charge_the_statistic() {
        let mut m = DriftMonitor::new(tight());
        for _ in 0..4 {
            m.observe_step(2.0, 2.0);
        }
        for _ in 0..4 {
            m.note_quality(&QualityIssue::DroppedTimestamps(2));
        }
        assert_eq!(m.verdict(), DriftVerdict::Drifted);
        assert_eq!(m.snapshot().quality_events, 8);
    }

    #[test]
    fn non_finite_losses_never_poison_state() {
        let mut m = DriftMonitor::new(tight());
        m.observe_step(f64::NAN, 2.0);
        m.observe_step(2.0, f64::NAN);
        m.observe_step(f64::INFINITY, f64::NEG_INFINITY);
        // the first three slots are the u64 counters; every later slot is
        // an f64 and must hold neither NaN nor ±inf
        for b in m.state_bits().into_iter().skip(3) {
            let v = f64::from_bits(b);
            assert!(v.is_finite(), "state bits hold {v}");
        }
        assert!(m.snapshot().excess.is_finite());
    }

    #[test]
    fn reset_clears_evidence_and_counts() {
        let mut m = DriftMonitor::new(tight());
        for _ in 0..20 {
            m.observe_step(50.0, 1.0);
        }
        assert_eq!(m.verdict(), DriftVerdict::Drifted);
        m.reset();
        assert_eq!(m.verdict(), DriftVerdict::Stable);
        let snap = m.snapshot();
        assert_eq!(snap.observations, 0);
        assert_eq!(snap.resets, 1);
        assert_eq!(snap.excess.to_bits(), 0.0f64.to_bits());
        assert_eq!(snap.winner_mean.to_bits(), 0.0f64.to_bits());
        assert_eq!(snap.baseline_mean.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn replay_is_bit_identical() {
        let feed: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let x = i as f64;
                (3.0 + (x * 0.37).sin(), 3.0 + (x * 0.53).cos())
            })
            .collect();
        let mut a = DriftMonitor::new(tight());
        let mut b = DriftMonitor::new(tight());
        for &(w, z) in &feed {
            a.observe_step(w, z);
        }
        for &(w, z) in &feed {
            b.observe_step(w, z);
        }
        assert_eq!(a.state_bits(), b.state_bits());
        assert_eq!(a.snapshot(), b.snapshot());
    }
}
