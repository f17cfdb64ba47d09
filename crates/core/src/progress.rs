//! Progress reporting.
//!
//! §4: "During T-Daub evaluation of pipelines, user is provided with the
//! overall progress and performance of the evaluated pipelines, such
//! progress is displayed on command line as well as on the web-UI." The
//! CLI/web surfaces are replaced by a [`Progress`] sink trait; the bench
//! harness and examples plug in [`LogProgress`] for stderr output.

use crate::orchestrator::DegradationLevel;

/// One step of the zero-conf process.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// Data quality check finished (number of issues found).
    QualityChecked {
        /// Number of quality issues detected.
        issues: usize,
    },
    /// The Zero Model baseline is trained and available.
    ZeroModelReady,
    /// Look-back discovery finished.
    LookbackDiscovered {
        /// The selected look-back window.
        lookback: usize,
        /// All discovered candidate periods, best first.
        seasonal_periods: Vec<usize>,
    },
    /// Pipeline pool instantiated.
    PipelinesGenerated {
        /// Number of pipelines in the pool.
        count: usize,
    },
    /// A pipeline was excluded from the pool by the execution engine
    /// (crash, persistent errors, time budget, or non-finite scores).
    PipelineExcluded {
        /// Name of the excluded pipeline.
        name: String,
        /// Human-readable failure description (the `FailureKind`).
        reason: String,
    },
    /// T-Daub finished ranking.
    TDaubFinished {
        /// Name of the winning pipeline.
        best: String,
        /// Total number of (pipeline, allocation) evaluations performed.
        evaluations: usize,
        /// Number of pipelines excluded by the execution engine.
        failures: usize,
    },
    /// Holdout evaluation of the T-Daub winner (of the ZeroModel when the
    /// whole pool failed).
    HoldoutScored {
        /// SMAPE on the held-out 20%.
        smape: f64,
    },
    /// `fit` climbed down the degradation ladder instead of failing: part
    /// or all of the pool was lost and the returned forecaster reflects the
    /// reported level. Emitted immediately before [`ProgressEvent::Ready`],
    /// and only when the level is not [`DegradationLevel::None`].
    Degraded {
        /// How far down the ladder the fit landed.
        level: DegradationLevel,
    },
    /// Final full-data retraining done; the system is ready to predict.
    Ready,
}

/// A sink for progress events.
pub trait Progress: Send + Sync {
    /// Receive one event.
    fn report(&self, event: &ProgressEvent);
}

/// Discards all events (the default).
pub struct NoProgress;

impl Progress for NoProgress {
    fn report(&self, _event: &ProgressEvent) {}
}

/// Writes events to stderr, one line each.
pub struct LogProgress;

impl Progress for LogProgress {
    fn report(&self, event: &ProgressEvent) {
        eprintln!("[autoai-ts] {event:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counter(AtomicUsize);

    impl Progress for Counter {
        fn report(&self, _: &ProgressEvent) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn sinks_receive_events() {
        let c = Counter(AtomicUsize::new(0));
        c.report(&ProgressEvent::ZeroModelReady);
        c.report(&ProgressEvent::Ready);
        assert_eq!(c.0.load(Ordering::Relaxed), 2);
        // the no-op sink must not panic
        NoProgress.report(&ProgressEvent::QualityChecked { issues: 0 });
    }
}
