//! Fault-isolated, budgeted execution engine for T-Daub.
//!
//! T-Daub's promise (§4.2) is that many heterogeneous pipelines can be
//! ranked cheaply **and safely**. The executor provides the safety half:
//! every pipeline `fit` + `score` on a data allocation runs as an isolated
//! unit of work with
//!
//! * **panic isolation** — a panic deep inside a model is caught
//!   (`catch_unwind`, plus a second net inside the parallel work queue),
//!   converted into the typed [`PipelineError::Crashed`], and the pipeline
//!   is quarantined instead of the whole run aborting;
//! * **a per-pipeline soft time budget** — a cooperative deadline over the
//!   pipeline's cumulative wall time, checked between allocations; a
//!   pipeline that blows its budget stops receiving data and is recorded as
//!   [`FailureKind::TimedOut`];
//! * **a per-unit hard deadline** — with a hard deadline set, every round
//!   runs through `autoai_linalg::supervised_try_map`: a monitor thread
//!   quarantines any unit that exceeds the deadline
//!   ([`FailureKind::HardTimeout`]), detaching its worker thread and
//!   retiring its transform-cache epoch so the abandoned zombie can neither
//!   stall the run nor corrupt shared state — `run_tdaub`'s wall time gets
//!   a provable upper bound even against `loop {}` in a pipeline;
//! * **typed failure accounting** — every pipeline's wall time, allocation
//!   count, and failure (if any) land in an [`ExecutionReport`] that the
//!   orchestrator surfaces through `core::Progress` and `FitSummary`.
//!
//! Every phase of T-Daub — the small-data round, the fixed-allocation
//! rounds, each acceleration step and each scoring finalist — runs through
//! the one entry point [`Executor::run_round`]. A round takes the
//! allocation slice and its fingerprint once, replays on the calling thread
//! every candidate that already scored that fingerprint, and moves every
//! other pipeline out as an owned work unit. One dispatch then runs the
//! units serially, on `autoai_linalg::parallel_try_map_mut` (a shared work
//! queue: one slow BATS fit no longer serializes a chunk of cheap
//! evaluations behind it), or under the watchdog when a hard deadline is
//! set. Outcomes come back in input order and are credited on the calling
//! thread, so serial, parallel and supervised rounds record the identical
//! per-pipeline sequence and rankings are reproducible.
//!
//! On top of the safety policy the executor carries the performance layer:
//! a shared [`TransformCache`] is re-attached to every pipeline before each
//! unit of work, so pipelines with the same look-back reuse flattened
//! design matrices within a fixed-allocation round; under reverse
//! allocations a candidate whose previous fit is a suffix of the next
//! allocation is offered a [`Forecaster::fit_incremental`] warm start; and
//! every fit is recorded per candidate, keyed by the allocation slice's
//! [`FrameFingerprint`] — re-evaluating a bitwise identical allocation that
//! scored finitely (the acceleration→scoring phase boundary, or a stalled
//! acceleration step) replays the recorded score instead of refitting. All
//! of it is instrumented (cache counters, warm-start count, fits avoided,
//! duplicate fits, bytes the zero-copy allocation views avoided) in the
//! [`ExecutionReport`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use autoai_linalg::{
    parallel_try_map_mut, simple_linreg, supervised_try_map, SupervisedOutcome, WorkerPanic,
};
use autoai_pipelines::{Forecaster, PipelineError};
use autoai_transforms::{CacheStats, TransformCache};
use autoai_tsdata::{FrameFingerprint, Metric, TimeSeriesFrame};

/// Why a pipeline was removed from the candidate pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The pipeline panicked; the payload message is preserved.
    Crashed(String),
    /// Every allocation ended in a typed error (last message preserved).
    Errored(String),
    /// The pipeline exceeded its per-pipeline soft time budget.
    TimedOut,
    /// One unit of work blew the per-unit **hard** deadline: the watchdog
    /// detached the worker thread and quarantined the pipeline (its state is
    /// owned by the abandoned zombie and is never touched again).
    HardTimeout,
    /// The pipeline ran but never produced a finite score (NaN/∞).
    NonFinite,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Crashed(m) => write!(f, "crashed: {m}"),
            FailureKind::Errored(m) => write!(f, "errored: {m}"),
            FailureKind::TimedOut => write!(f, "timed out"),
            FailureKind::HardTimeout => {
                write!(f, "exceeded the hard deadline and was quarantined")
            }
            FailureKind::NonFinite => write!(f, "produced no finite score"),
        }
    }
}

/// Execution accounting for one pipeline across the whole T-Daub run.
#[derive(Debug, Clone)]
pub struct PipelineExecution {
    /// Pipeline display name.
    pub name: String,
    /// Cumulative wall time spent in this pipeline's fit/score calls.
    pub wall_time: Duration,
    /// Number of allocations attempted (including failed ones).
    pub allocations: usize,
    /// Why the pipeline left the pool; `None` for survivors.
    pub failure: Option<FailureKind>,
}

/// Per-run execution report: one entry per pipeline in the original pool.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// Accounting entries, in original pool order.
    pub pipelines: Vec<PipelineExecution>,
    /// Shared transform-cache counters for the run (all zeros when the
    /// cache was disabled).
    pub cache: CacheStats,
    /// Successful `fit_incremental` warm starts across the pool.
    pub incremental_fits: u64,
    /// Fit+score units served from the per-candidate fingerprint memo
    /// instead of refitting bitwise-identical data (cross-round and across
    /// the acceleration→scoring phase boundary).
    pub fits_avoided: u64,
    /// Executed fits whose allocation fingerprint the same candidate had
    /// already fitted — zero unless a candidate is re-offered an allocation
    /// whose fit errored in scoring or scored non-finite (only finite
    /// scores replay); asserted zero by the bench smoke mode.
    pub duplicate_fits: u64,
    /// Bytes of frame data the zero-copy allocation views avoided copying
    /// (each unit of work used to materialize its allocation slice).
    pub slice_bytes_avoided: u64,
    /// Faults the deterministic chaos layer injected during this run
    /// (delta of `autoai_chaos::injected_count()` across the run; always
    /// zero when no fault plan is installed).
    pub injected_faults: u64,
    /// True when [`crate::TDaubConfig::run_hard_deadline`] expired before
    /// the run finished: later allocation rounds, acceleration steps, or
    /// scoring finalists were skipped and the ranking was built from the
    /// scores gathered up to that point. The orchestrator surfaces this as
    /// a typed `Survivors` degradation.
    pub run_deadline_hit: bool,
    /// Units of work re-run after a transient typed error
    /// ([`FailureKind::Errored`]) under [`crate::TDaubConfig::retry_transient`].
    /// Crashes and hard timeouts are never retried.
    pub retries: u64,
}

impl ExecutionReport {
    /// Entries for pipelines that failed (crashed/errored/timed out/NaN).
    pub fn failures(&self) -> impl Iterator<Item = &PipelineExecution> {
        self.pipelines.iter().filter(|p| p.failure.is_some())
    }

    /// Number of pipelines that survived to the final ranking.
    pub fn survivors(&self) -> usize {
        self.pipelines
            .iter()
            .filter(|p| p.failure.is_none())
            .count()
    }

    /// Total allocations attempted across the pool.
    pub fn total_allocations(&self) -> usize {
        self.pipelines.iter().map(|p| p.allocations).sum()
    }

    /// Entry for a pipeline by display name.
    pub fn find(&self, name: &str) -> Option<&PipelineExecution> {
        self.pipelines.iter().find(|p| p.name == name)
    }
}

/// Internal per-pipeline state during a T-Daub run.
pub(crate) struct Candidate {
    pub pipeline: Box<dyn Forecaster>,
    pub name: String,
    /// `(allocation length, score)` pairs; failed units record `+inf`.
    pub scores: Vec<(usize, f64)>,
    pub projected: f64,
    pub final_score: Option<f64>,
    pub train_time: Duration,
    pub allocations: usize,
    /// Why the executor removed this candidate; `None` while in the pool.
    pub failure: Option<FailureKind>,
    /// Most recent non-crash failure signal, for end-of-run classification.
    pub last_error: Option<FailureKind>,
    /// Rows of the last successful `fit` on this candidate's pipeline
    /// (0 = no valid fitted state). Drives the warm-start eligibility test:
    /// under reverse allocations the previous fit's slice is the trailing
    /// suffix of every later, larger allocation.
    pub last_fit_rows: usize,
    /// Per-run fit record: the fingerprint of every allocation this
    /// candidate's pipeline fitted, with its score when it also scored
    /// finitely. Equal fingerprints mean the same buffers and the same
    /// window — bitwise-identical input — so replaying a `Some` score is
    /// exact and stays on even in the uncached comparison modes. Refitting
    /// any listed fingerprint counts as a duplicate fit.
    pub fitted: Vec<(FrameFingerprint, Option<f64>)>,
}

impl Candidate {
    pub fn new(pipeline: Box<dyn Forecaster>) -> Self {
        Candidate {
            name: pipeline.name(),
            pipeline,
            scores: Vec::new(),
            projected: f64::INFINITY,
            final_score: None,
            train_time: Duration::ZERO,
            allocations: 0,
            failure: None,
            last_error: None,
            last_fit_rows: 0,
            fitted: Vec::new(),
        }
    }

    /// Still in the pool (not crashed / timed out / classified failed).
    pub fn alive(&self) -> bool {
        self.failure.is_none()
    }

    /// Largest allocation with a finite score, if any.
    pub fn best_finite_alloc(&self) -> Option<usize> {
        self.scores
            .iter()
            .filter(|(_, s)| s.is_finite())
            .map(|&(a, _)| a)
            .max()
    }

    /// Project the learning curve to `full_len` (linear regression on the
    /// finite partial scores, clamped at the metric's lower bound).
    pub fn project(&mut self, full_len: usize, use_projection: bool, metric: Metric) {
        let ok: Vec<(usize, f64)> = self
            .scores
            .iter()
            .filter(|(_, s)| s.is_finite())
            .copied()
            .collect();
        if ok.is_empty() {
            self.projected = f64::INFINITY;
            return;
        }
        // a full-length observation is ground truth; no projection needed
        if let Some(&(_, s)) = ok.iter().rev().find(|&&(alloc, _)| alloc >= full_len) {
            self.projected = s;
            return;
        }
        if !use_projection || ok.len() == 1 {
            // `ok` is non-empty: the is_empty branch above already returned
            self.projected = ok.last().map_or(f64::INFINITY, |&(_, s)| s);
            return;
        }
        let t: Vec<f64> = ok.iter().map(|(l, _)| *l as f64).collect();
        let y: Vec<f64> = ok.iter().map(|(_, s)| *s).collect();
        let (a, b) = simple_linreg(&t, &y);
        let mut projected = a + b * full_len as f64;
        // SMAPE/MAE/RMSE/MAPE are bounded below by 0 — an extrapolated
        // learning curve must not cross that floor, or a mediocre pipeline
        // with a steep partial-score slope outranks a near-perfect one
        if !metric.higher_is_better() {
            projected = projected.max(0.0);
        }
        self.projected = projected;
    }

    /// End-of-run classification: a candidate that is still nominally alive
    /// but never produced a finite score becomes a typed failure.
    pub fn finalize_failure(&mut self) {
        if self.failure.is_none() && self.best_finite_alloc().is_none() {
            self.failure = Some(match self.last_error.take() {
                Some(kind) => kind,
                None => FailureKind::Errored("produced no score on any allocation".into()),
            });
        }
    }

    fn execution_entry(&self) -> PipelineExecution {
        PipelineExecution {
            name: self.name.clone(),
            wall_time: self.train_time,
            allocations: self.allocations,
            failure: self.failure.clone(),
        }
    }
}

/// Build the per-run execution report from the final candidate states and
/// the executor's instrumentation counters.
pub(crate) fn execution_report(cands: &[Candidate], exec: &Executor<'_>) -> ExecutionReport {
    ExecutionReport {
        pipelines: cands.iter().map(Candidate::execution_entry).collect(),
        cache: exec.cache.as_ref().map(|c| c.stats()).unwrap_or_default(),
        incremental_fits: exec.incremental_fits,
        fits_avoided: exec.fits_avoided,
        duplicate_fits: exec.duplicate_fits,
        slice_bytes_avoided: exec.slice_bytes_avoided,
        injected_faults: autoai_chaos::injected_count().saturating_sub(exec.chaos_start),
        run_deadline_hit: false,
        retries: exec.retries,
    }
}

/// Outcome of one isolated fit+score unit.
struct EvalUnit {
    /// Finite score on success, `+inf` otherwise.
    score: f64,
    /// Wall time of the unit, retries included.
    elapsed: Duration,
    /// Failure signal, if the unit did not produce a finite score.
    error: Option<FailureKind>,
    /// Rows the pipeline is validly fitted on after this unit (`None` when
    /// the fit itself failed or panicked — state cannot be warm-started).
    fitted_rows: Option<usize>,
    /// The fit succeeded via a `fit_incremental` warm start.
    warm: bool,
    /// Bytes the zero-copy allocation view avoided copying for this unit.
    slice_bytes: u64,
    /// Transient-error retries consumed by this unit.
    retries: u8,
}

impl EvalUnit {
    /// A unit that never produced a fit at all: the queue-level panic net
    /// or a watchdog quarantine.
    fn failed(kind: FailureKind) -> Self {
        EvalUnit {
            score: f64::INFINITY,
            elapsed: Duration::ZERO,
            error: Some(kind),
            fitted_rows: None,
            warm: false,
            slice_bytes: 0,
            retries: 0,
        }
    }
}

/// One candidate's fit+score unit, moved out of the round: the pipeline
/// travels with it (a [`Tombstone`] holds the candidate's slot meanwhile)
/// together with everything the evaluation needs. All owned (the frames are
/// zero-copy `Arc`-backed views, the rest is cheap), so a unit can be
/// shipped to a supervised worker thread without borrowing the executor;
/// on a hard timeout it stays with the zombie worker forever.
struct WorkUnit {
    pipeline: Box<dyn Forecaster>,
    slice: TimeSeriesFrame,
    t2: TimeSeriesFrame,
    metric: Metric,
    warm_eligible: bool,
    previous_rows: usize,
    remaining: Option<Duration>,
    cache: Option<Arc<TransformCache>>,
    retry_transient: u8,
    /// Transform-cache work-unit epoch, stamped only under the watchdog
    /// (0 = outside any unit); retired on quarantine so the zombie's late
    /// cache writes are detected and discarded.
    epoch: u64,
}

/// Placeholder installed in a candidate's pipeline slot while the real
/// pipeline is out with its work unit. It becomes permanent when the
/// watchdog quarantines that unit: the real pipeline's state is then owned
/// by a detached zombie thread and must never be touched again, so the
/// tombstone answers every call with a typed error.
struct Tombstone {
    name: String,
}

impl Forecaster for Tombstone {
    fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
        Err(PipelineError::Crashed(
            "pipeline quarantined by the hard-deadline watchdog".into(),
        ))
    }
    fn predict(&self, _: usize) -> Result<TimeSeriesFrame, PipelineError> {
        Err(PipelineError::NotFitted)
    }
    fn name(&self) -> String {
        self.name.clone()
    }
    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Tombstone {
            name: self.name.clone(),
        })
    }
}

/// Chaos injection point for the executor itself: an installed
/// [`autoai_chaos::FaultPlan`] may stall a unit of work right here. Only
/// [`autoai_chaos::Fault::Delay`] is realized at this site — panics, typed
/// errors and NaN forecasts are exercised inside the pipelines, where they
/// have a real blast radius.
fn chaos_unit_delay(pipeline: &str, alloc_len: usize) {
    if !autoai_chaos::enabled() {
        return;
    }
    let k = autoai_chaos::key(pipeline) ^ (alloc_len as u64);
    if let Some(autoai_chaos::Fault::Delay(ms)) = autoai_chaos::inject("executor.unit", k) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Train a unit's pipeline on its allocation slice and score it on `t2`,
/// with panic isolation and a cooperative budget hint. When
/// `u.warm_eligible` the pipeline is offered a `fit_incremental` warm start
/// from `u.previous_rows`. An attempt that ends in a **typed error** only is
/// re-run up to `u.retry_transient` times; crashes and non-finite scores
/// are final on the first attempt, and the unit carries the cumulative wall
/// time, so budget accounting is unchanged. The retry decision depends only
/// on the outcome, so every dispatch arm retries identically. Free-standing
/// (no executor borrow) so the watchdog can run it on a detachable worker.
///
/// `AssertUnwindSafe` is sound because a crashed pipeline is quarantined by
/// the caller: its (possibly corrupt) state is never fitted or queried
/// again.
fn evaluate_unit(u: &mut WorkUnit) -> EvalUnit {
    let alloc_len = u.slice.len();
    // the O(1) view replaces what used to be a full row copy of the
    // allocation for every unit of work
    let slice_bytes = (alloc_len as u64)
        .saturating_mul(u.slice.n_series() as u64)
        .saturating_mul(8);
    let pipeline = &mut u.pipeline;
    let mut elapsed = Duration::ZERO;
    let mut retries: u8 = 0;
    loop {
        let start = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            chaos_unit_delay(&pipeline.name(), alloc_len);
            pipeline.set_time_budget(u.remaining);
            pipeline.set_transform_cache(u.cache.clone());
            let mut warm = false;
            let fitted = if u.warm_eligible {
                match pipeline.fit_incremental(&u.slice, u.previous_rows) {
                    Ok(true) => {
                        warm = true;
                        Ok(())
                    }
                    Ok(false) => pipeline.fit(&u.slice),
                    Err(e) => Err(e),
                }
            } else {
                pipeline.fit(&u.slice)
            };
            match fitted {
                Ok(()) => (true, warm, pipeline.score(&u.t2, u.metric)),
                Err(e) => (false, warm, Err(e)),
            }
        }));
        elapsed += start.elapsed();
        let (score, error, fitted_rows, warm) = match caught {
            Ok((fit_ok, warm, score)) => {
                let (score, error) = match score {
                    Ok(s) if s.is_finite() => (s, None),
                    Ok(_) => (f64::INFINITY, Some(FailureKind::NonFinite)),
                    Err(e) => (f64::INFINITY, Some(FailureKind::Errored(e.to_string()))),
                };
                (score, error, fit_ok.then_some(alloc_len), warm)
            }
            Err(payload) => {
                let kind = FailureKind::Crashed(payload_message(payload.as_ref()));
                (f64::INFINITY, Some(kind), None, false)
            }
        };
        if retries < u.retry_transient && matches!(error, Some(FailureKind::Errored(_))) {
            retries = retries.saturating_add(1);
            continue;
        }
        return EvalUnit {
            score,
            elapsed,
            error,
            fitted_rows,
            warm,
            slice_bytes,
            retries,
        };
    }
}

/// Render a caught panic payload as text (mirrors `WorkerPanic`).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The queue-level panic net, a second one behind the unit's own
/// `catch_unwind`: a panic that reached the work queue becomes a crash.
fn unit_or_crash(result: Result<EvalUnit, WorkerPanic>) -> EvalUnit {
    result.unwrap_or_else(|p| EvalUnit::failed(FailureKind::Crashed(p.message)))
}

/// The execution engine: shared evaluation context plus the isolation and
/// budget policy. One instance drives a whole `run_tdaub` call.
pub(crate) struct Executor<'a> {
    pub t1: &'a TimeSeriesFrame,
    pub t2: &'a TimeSeriesFrame,
    pub metric: Metric,
    pub reverse: bool,
    pub parallel: bool,
    /// Per-pipeline cumulative soft budget; `None` = unlimited.
    pub budget: Option<Duration>,
    /// Shared transform cache re-attached to every pipeline before each
    /// unit of work; `None` disables cross-pipeline memoization.
    pub cache: Option<Arc<TransformCache>>,
    /// Offer warm-started `fit_incremental` refits when a reverse
    /// allocation extends a candidate's previous successful fit.
    pub incremental: bool,
    /// Per-unit **hard** wall-clock deadline enforced by the supervised
    /// watchdog; `None` runs the cooperative-only arms (no watchdog).
    pub hard_deadline: Option<Duration>,
    /// Re-run a unit that ended in a typed error up to this many times
    /// (transient-failure tolerance; crashes and hard timeouts are final).
    pub retry_transient: u8,
    /// `autoai_chaos::injected_count()` snapshot at executor construction;
    /// the run's report carries the delta.
    pub chaos_start: u64,
    /// Bytes the O(1) allocation views avoided copying (one slice
    /// materialization per unit of work before zero-copy frames).
    pub slice_bytes_avoided: u64,
    /// Successful warm starts across the run.
    pub incremental_fits: u64,
    /// Units replayed from a candidate's fit record (no fit executed).
    pub fits_avoided: u64,
    /// Executed fits on an allocation the candidate had already fitted.
    pub duplicate_fits: u64,
    /// Transient-error retries consumed across the run.
    pub retries: u64,
}

impl Executor<'_> {
    /// The allocation slice of `t1` for one round (a zero-copy view).
    fn allocation_slice(&self, alloc_len: usize) -> TimeSeriesFrame {
        let l = self.t1.len();
        let alloc_len = alloc_len.min(l);
        if self.reverse {
            // most recent data: T1[L - alloc + 1 : L] in the paper's notation
            self.t1.slice(l - alloc_len, l)
        } else {
            // original DAUB: oldest data first — note the pipeline then
            // forecasts across a gap, which is why reverse wins on time series
            self.t1.slice(0, alloc_len)
        }
    }

    /// Evaluate every live candidate on one allocation. Every T-Daub phase
    /// runs through here: a round of the whole pool, or one candidate via
    /// `std::slice::from_mut`. A candidate that already scored this exact
    /// allocation finitely replays the score on the calling thread
    /// (bitwise-identical input ⇒ identical deterministic outcome); every
    /// other live candidate's pipeline goes out as one [`WorkUnit`], and
    /// the outcomes are credited in input order, identically in every
    /// dispatch arm.
    pub fn run_round(&mut self, cands: &mut [Candidate], alloc_len: usize) {
        let slice = self.allocation_slice(alloc_len);
        let fp = slice.fingerprint();
        let mut slots: Vec<usize> = Vec::new();
        let mut units: Vec<WorkUnit> = Vec::new();
        for (idx, c) in cands.iter_mut().enumerate().filter(|(_, c)| c.alive()) {
            let replay = c.fitted.iter().find(|(f, _)| *f == fp).and_then(|e| e.1);
            if let Some(score) = replay {
                // a replay leaves the pipeline's fitted state untouched —
                // no error, no time, nothing to record
                self.fits_avoided += 1;
                c.scores.push((alloc_len, score));
                c.allocations += 1;
                continue;
            }
            // warm starts are only sound in reverse mode: forward
            // allocations grow at the *end*, so the previous fit is a
            // prefix, not a suffix
            let warm_eligible = self.incremental
                && self.reverse
                && c.last_fit_rows > 0
                && c.last_fit_rows <= slice.len();
            let tombstone = Box::new(Tombstone {
                name: c.name.clone(),
            });
            units.push(WorkUnit {
                pipeline: std::mem::replace(&mut c.pipeline, tombstone),
                slice: slice.clone(),
                t2: self.t2.clone(),
                metric: self.metric,
                warm_eligible,
                previous_rows: c.last_fit_rows,
                remaining: self.budget.map(|b| b.saturating_sub(c.train_time)),
                cache: self.cache.clone(),
                retry_transient: self.retry_transient,
                epoch: 0,
            });
            slots.push(idx);
        }
        for (idx, (pipeline, unit)) in slots.into_iter().zip(self.dispatch(units)) {
            let Some(c) = cands.get_mut(idx) else {
                continue;
            };
            if let Some(pipeline) = pipeline {
                c.pipeline = pipeline;
            }
            self.apply(c, alloc_len, &fp, unit);
        }
    }

    /// Run the units and return each one's pipeline (`None` once the
    /// watchdog has quarantined it) and outcome, in input order. Serial
    /// mode runs them in a loop, parallel mode through the shared work
    /// queue; with a hard deadline both run under [`supervised_try_map`]
    /// (serial = one supervised worker), whose monitor abandons a unit past
    /// the deadline — its worker thread is detached, never joined, the
    /// pipeline stays with it, and its cache epoch is retired so late cache
    /// writes from the zombie are detected and discarded.
    fn dispatch(&self, mut units: Vec<WorkUnit>) -> Vec<(Option<Box<dyn Forecaster>>, EvalUnit)> {
        let Some(hard) = self.hard_deadline else {
            let results: Vec<Result<EvalUnit, WorkerPanic>> = if self.parallel {
                parallel_try_map_mut(&mut units, evaluate_unit)
            } else {
                units.iter_mut().map(|u| Ok(evaluate_unit(u))).collect()
            };
            return units
                .into_iter()
                .zip(results)
                .map(|(u, result)| (Some(u.pipeline), unit_or_crash(result)))
                .collect();
        };
        if let Some(cache) = self.cache.as_ref() {
            for u in units.iter_mut() {
                u.epoch = cache.begin_unit();
            }
        }
        let epochs: Vec<u64> = units.iter().map(|u| u.epoch).collect();
        let workers = if self.parallel {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        };
        let outcomes = supervised_try_map(units, hard, workers, |u: &mut WorkUnit| {
            // announce the unit's epoch so cache writes from this thread
            // can be discarded if the watchdog retires the unit mid-flight
            if let Some(cache) = u.cache.as_ref() {
                cache.enter_unit(u.epoch);
            }
            let unit = evaluate_unit(u);
            if let Some(cache) = u.cache.as_ref() {
                cache.exit_unit();
            }
            unit
        });
        outcomes
            .into_iter()
            .zip(epochs)
            .map(|(outcome, epoch)| match outcome {
                SupervisedOutcome::Completed { item, result } => {
                    (Some(item.pipeline), unit_or_crash(result))
                }
                SupervisedOutcome::HardTimeout => {
                    if let Some(cache) = self.cache.as_ref() {
                        cache.retire_unit(epoch);
                    }
                    // charge the full hard deadline: that is the wall time
                    // the run verifiably spent waiting on this unit
                    let mut unit = EvalUnit::failed(FailureKind::HardTimeout);
                    unit.elapsed = hard;
                    (None, unit)
                }
            })
            .collect()
    }

    /// Record one evaluated unit on a candidate and apply the isolation and
    /// budget policy. Runs on the calling thread for every dispatch arm, so
    /// a quarantined zombie's half-finished unit never reaches a counter.
    fn apply(
        &mut self,
        c: &mut Candidate,
        alloc_len: usize,
        fp: &FrameFingerprint,
        unit: EvalUnit,
    ) {
        self.slice_bytes_avoided += unit.slice_bytes;
        self.incremental_fits += u64::from(unit.warm);
        self.retries += u64::from(unit.retries);
        c.scores.push((alloc_len, unit.score));
        c.train_time += unit.elapsed;
        c.allocations += 1;
        c.last_fit_rows = unit.fitted_rows.unwrap_or(0);
        if unit.fitted_rows.is_some() {
            let score = unit.error.is_none().then_some(unit.score);
            match c.fitted.iter_mut().find(|(f, _)| f == fp) {
                Some(entry) => {
                    self.duplicate_fits += 1;
                    entry.1 = entry.1.or(score);
                }
                None => c.fitted.push((fp.clone(), score)),
            }
        }
        match unit.error {
            Some(FailureKind::Crashed(m)) => {
                // corrupt state: quarantine immediately
                c.failure = Some(FailureKind::Crashed(m));
                return;
            }
            Some(FailureKind::HardTimeout) => {
                // the zombie worker owns the pipeline's state now; the
                // candidate keeps a tombstone and leaves the pool for good
                c.failure = Some(FailureKind::HardTimeout);
                return;
            }
            Some(kind) => c.last_error = Some(kind),
            None => {}
        }
        if let Some(budget) = self.budget {
            if c.train_time > budget {
                c.failure = Some(FailureKind::TimedOut);
            }
        }
    }

    /// Refit a winner on the full training input, with the same panic
    /// isolation as every other unit of work.
    pub fn fit_full(
        &self,
        pipeline: &mut Box<dyn Forecaster>,
        train: &TimeSeriesFrame,
    ) -> Result<(), PipelineError> {
        let cache = self.cache.clone();
        match catch_unwind(AssertUnwindSafe(|| {
            pipeline.set_transform_cache(cache);
            pipeline.fit(train)
        })) {
            Ok(result) => result,
            Err(payload) => Err(PipelineError::Crashed(payload_message(payload.as_ref()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Always(f64);
    impl Forecaster for Always {
        fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
            Ok(())
        }
        fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
            Ok(TimeSeriesFrame::univariate(vec![self.0; horizon]))
        }
        fn name(&self) -> String {
            format!("Always({})", self.0)
        }
        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(Always(self.0))
        }
    }

    struct Panicky;
    impl Forecaster for Panicky {
        fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
            panic!("executor test crash")
        }
        fn predict(&self, _: usize) -> Result<TimeSeriesFrame, PipelineError> {
            Err(PipelineError::NotFitted)
        }
        fn name(&self) -> String {
            "Panicky".into()
        }
        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(Panicky)
        }
    }

    /// Errors with a typed error for the first `failures_left` fit calls,
    /// then behaves like `Always(value)` — a transient fault.
    struct FlakyOnce {
        failures_left: u8,
        value: f64,
    }
    impl Forecaster for FlakyOnce {
        fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
            if self.failures_left > 0 {
                self.failures_left = self.failures_left.saturating_sub(1);
                return Err(PipelineError::InvalidInput("transient hiccup".into()));
            }
            Ok(())
        }
        fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
            Ok(TimeSeriesFrame::univariate(vec![self.value; horizon]))
        }
        fn name(&self) -> String {
            "FlakyOnce".into()
        }
        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(FlakyOnce {
                failures_left: self.failures_left,
                value: self.value,
            })
        }
    }

    fn frames() -> (TimeSeriesFrame, TimeSeriesFrame) {
        let t1 = TimeSeriesFrame::univariate((0..80).map(|i| i as f64).collect());
        let t2 = TimeSeriesFrame::univariate((80..90).map(|i| i as f64).collect());
        (t1, t2)
    }

    fn executor<'a>(
        t1: &'a TimeSeriesFrame,
        t2: &'a TimeSeriesFrame,
        parallel: bool,
        budget: Option<Duration>,
    ) -> Executor<'a> {
        Executor {
            t1,
            t2,
            metric: Metric::Smape,
            reverse: true,
            parallel,
            budget,
            cache: None,
            incremental: false,
            hard_deadline: None,
            chaos_start: 0,
            retry_transient: 1,
            slice_bytes_avoided: 0,
            incremental_fits: 0,
            fits_avoided: 0,
            duplicate_fits: 0,
            retries: 0,
        }
    }

    #[test]
    fn crash_is_captured_as_typed_failure() {
        let (t1, t2) = frames();
        let mut exec = executor(&t1, &t2, false, None);
        let mut c = Candidate::new(Box::new(Panicky));
        exec.run_round(std::slice::from_mut(&mut c), 40);
        assert!(!c.alive());
        match &c.failure {
            Some(FailureKind::Crashed(m)) => assert!(m.contains("executor test crash")),
            other => panic!("expected crash, got {other:?}"),
        }
        assert_eq!(c.allocations, 1);
    }

    #[test]
    fn budget_marks_timeout_between_allocations() {
        let (t1, t2) = frames();
        let mut exec = executor(&t1, &t2, false, Some(Duration::ZERO));
        let mut c = Candidate::new(Box::new(Always(1.0)));
        exec.run_round(std::slice::from_mut(&mut c), 40);
        // the unit itself completes (soft budget), then the deadline fires
        assert_eq!(c.scores.len(), 1);
        assert_eq!(c.failure, Some(FailureKind::TimedOut));
        // a dead candidate receives no further allocations
        exec.run_round(std::slice::from_mut(&mut c), 80);
        assert_eq!(c.scores.len(), 1);
    }

    #[test]
    fn round_skips_dead_candidates_and_matches_serial() {
        let (t1, t2) = frames();
        let mk = |parallel| executor(&t1, &t2, parallel, None);
        let build = || {
            vec![
                Candidate::new(Box::new(Always(85.0))),
                Candidate::new(Box::new(Panicky)),
                Candidate::new(Box::new(Always(84.0))),
            ]
        };
        let mut serial = build();
        let mut parallel = build();
        for alloc in [20, 40, 80] {
            mk(false).run_round(&mut serial, alloc);
            mk(true).run_round(&mut parallel, alloc);
        }
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.scores, p.scores, "{}", s.name);
            assert_eq!(s.failure.is_some(), p.failure.is_some());
        }
        // the panicking candidate stopped after its first allocation
        assert_eq!(serial.get(1).map(|c| c.allocations), Some(1));
    }

    #[test]
    fn transient_error_is_retried_and_counted() {
        let (t1, t2) = frames();
        let mut exec = executor(&t1, &t2, false, None);
        let mut c = Candidate::new(Box::new(FlakyOnce {
            failures_left: 1,
            value: 85.0,
        }));
        exec.run_round(std::slice::from_mut(&mut c), 40);
        // one retry absorbed the transient error: the unit scored normally
        assert!(c.alive());
        assert_eq!(c.last_error, None);
        assert!(c.scores.last().is_some_and(|&(_, s)| s.is_finite()));
        assert_eq!(exec.retries, 1);
    }

    #[test]
    fn exhausted_retries_leave_the_typed_error() {
        let (t1, t2) = frames();
        let mut exec = executor(&t1, &t2, false, None);
        let mut c = Candidate::new(Box::new(FlakyOnce {
            failures_left: 5,
            value: 85.0,
        }));
        exec.run_round(std::slice::from_mut(&mut c), 40);
        // one retry was spent, the error stood — and only Errored retries
        assert!(matches!(c.last_error, Some(FailureKind::Errored(_))));
        assert_eq!(exec.retries, 1);
    }

    #[test]
    fn crashes_are_never_retried() {
        let (t1, t2) = frames();
        let mut exec = executor(&t1, &t2, false, None);
        let mut c = Candidate::new(Box::new(Panicky));
        exec.run_round(std::slice::from_mut(&mut c), 40);
        assert!(matches!(c.failure, Some(FailureKind::Crashed(_))));
        assert_eq!(exec.retries, 0);
        assert_eq!(c.allocations, 1);
    }

    #[test]
    fn retried_serial_round_matches_parallel() {
        let (t1, t2) = frames();
        let build = || {
            vec![
                Candidate::new(Box::new(Always(85.0))),
                Candidate::new(Box::new(FlakyOnce {
                    failures_left: 1,
                    value: 84.0,
                })),
                Candidate::new(Box::new(Always(83.0))),
            ]
        };
        let mut serial_exec = executor(&t1, &t2, false, None);
        let mut parallel_exec = executor(&t1, &t2, true, None);
        let mut serial = build();
        let mut parallel = build();
        for alloc in [20, 40, 80] {
            serial_exec.run_round(&mut serial, alloc);
            parallel_exec.run_round(&mut parallel, alloc);
        }
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.scores, p.scores, "{}", s.name);
            assert_eq!(s.last_error, p.last_error, "{}", s.name);
        }
        assert_eq!(serial_exec.retries, parallel_exec.retries);
        assert_eq!(serial_exec.retries, 1);
    }

    /// Scores like `Always` but counts how many times `fit` actually ran,
    /// observable from outside the boxed pipeline.
    struct CountingFits {
        value: f64,
        fits: Arc<AtomicU64>,
    }
    impl Forecaster for CountingFits {
        fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
            self.fits.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
            Ok(TimeSeriesFrame::univariate(vec![self.value; horizon]))
        }
        fn name(&self) -> String {
            "CountingFits".into()
        }
        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(CountingFits {
                value: self.value,
                fits: Arc::clone(&self.fits),
            })
        }
    }

    #[test]
    fn full_length_fit_is_replayed_not_repeated_across_the_phase_boundary() {
        let (t1, t2) = frames();
        let mut exec = executor(&t1, &t2, false, None);
        let fits = Arc::new(AtomicU64::new(0));
        let mut c = Candidate::new(Box::new(CountingFits {
            value: 85.0,
            fits: Arc::clone(&fits),
        }));
        let full = t1.len();
        // acceleration confirms the leader at full length…
        exec.run_round(std::slice::from_mut(&mut c), full);
        // …and the scoring phase re-requests the identical allocation
        exec.run_round(std::slice::from_mut(&mut c), full);
        assert_eq!(
            fits.load(Ordering::Relaxed),
            1,
            "the second unit must not refit"
        );
        assert_eq!(c.scores.len(), 2);
        assert_eq!(
            c.scores.first().map(|&(_, s)| s.to_bits()),
            c.scores.last().map(|&(_, s)| s.to_bits()),
            "a replay must be bit-identical to the recorded score"
        );
        assert_eq!(exec.fits_avoided, 1);
        assert_eq!(exec.duplicate_fits, 0);
    }

    #[test]
    fn memo_distinguishes_different_allocations() {
        let (t1, t2) = frames();
        let mut exec = executor(&t1, &t2, false, None);
        let fits = Arc::new(AtomicU64::new(0));
        let mut c = Candidate::new(Box::new(CountingFits {
            value: 85.0,
            fits: Arc::clone(&fits),
        }));
        exec.run_round(std::slice::from_mut(&mut c), 40);
        exec.run_round(std::slice::from_mut(&mut c), 60);
        exec.run_round(std::slice::from_mut(&mut c), 40); // only this one is a replay
        assert_eq!(fits.load(Ordering::Relaxed), 2);
        assert_eq!(exec.fits_avoided, 1);
        assert_eq!(c.scores.len(), 3);
    }

    /// Sleeps in `fit` far past any reasonable deadline, then scores like
    /// `Always` — the shape of a hung native solver.
    struct Sleeper(Duration);
    impl Forecaster for Sleeper {
        fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
            std::thread::sleep(self.0);
            Ok(())
        }
        fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
            Ok(TimeSeriesFrame::univariate(vec![85.0; horizon]))
        }
        fn name(&self) -> String {
            "Sleeper".into()
        }
        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(Sleeper(self.0))
        }
    }

    #[test]
    fn watchdog_quarantines_a_unit_past_the_hard_deadline() {
        let (t1, t2) = frames();
        let mut exec = executor(&t1, &t2, true, None);
        exec.hard_deadline = Some(Duration::from_millis(150));
        let mut cands = vec![
            Candidate::new(Box::new(Always(85.0))),
            Candidate::new(Box::new(Sleeper(Duration::from_secs(60)))),
        ];
        let start = Instant::now();
        exec.run_round(&mut cands, 40);
        // the round returns without waiting for the 60 s sleeper
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "watchdog failed to bound the round: {:?}",
            start.elapsed()
        );
        let (healthy, hung) = (&cands[0], &cands[1]);
        assert!(healthy.alive(), "{:?}", healthy.failure);
        assert_eq!(healthy.scores.len(), 1);
        assert!(healthy.scores[0].1.is_finite());
        assert_eq!(hung.failure, Some(FailureKind::HardTimeout));
        assert_eq!(hung.scores, vec![(40, f64::INFINITY)]);
        assert!(hung.train_time >= Duration::from_millis(150));
        // the quarantined slot holds a tombstone that fails typed
        let mut tomb = cands[1].pipeline.clone_unfitted();
        assert_eq!(tomb.name(), "Sleeper");
        assert!(matches!(tomb.fit(&t1), Err(PipelineError::Crashed(_))));
        assert!(matches!(tomb.predict(4), Err(PipelineError::NotFitted)));
    }

    #[test]
    fn supervised_round_matches_unsupervised_scores_for_survivors() {
        let (t1, t2) = frames();
        let build = || {
            vec![
                Candidate::new(Box::new(Always(85.0))),
                Candidate::new(Box::new(Always(84.0))),
            ]
        };
        let mut plain = build();
        let mut watched = build();
        for alloc in [20, 40, 80] {
            executor(&t1, &t2, true, None).run_round(&mut plain, alloc);
            let mut exec = executor(&t1, &t2, true, None);
            exec.hard_deadline = Some(Duration::from_secs(30));
            exec.run_round(&mut watched, alloc);
        }
        for (p, w) in plain.iter().zip(&watched) {
            let pb: Vec<(usize, u64)> = p.scores.iter().map(|&(a, s)| (a, s.to_bits())).collect();
            let wb: Vec<(usize, u64)> = w.scores.iter().map(|&(a, s)| (a, s.to_bits())).collect();
            assert_eq!(pb, wb, "{}", p.name);
        }
    }

    /// Accepts every warm start and scores like `Always`.
    struct Warm(f64);
    impl Forecaster for Warm {
        fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
            Ok(())
        }
        fn fit_incremental(
            &mut self,
            _: &TimeSeriesFrame,
            _: usize,
        ) -> Result<bool, PipelineError> {
            Ok(true)
        }
        fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
            Ok(TimeSeriesFrame::univariate(vec![self.0; horizon]))
        }
        fn name(&self) -> String {
            "Warm".into()
        }
        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(Warm(self.0))
        }
    }

    /// Forecasts NaN after its first fit of each allocation length and
    /// `value` after any refit of one.
    struct NanFirst {
        seen: Vec<usize>,
        nan: bool,
        value: f64,
    }
    impl Forecaster for NanFirst {
        fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
            self.nan = !self.seen.contains(&frame.len());
            if self.nan {
                self.seen.push(frame.len());
            }
            Ok(())
        }
        fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
            let v = if self.nan { f64::NAN } else { self.value };
            Ok(TimeSeriesFrame::univariate(vec![v; horizon]))
        }
        fn name(&self) -> String {
            "NanFirst".into()
        }
        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(NanFirst {
                seen: Vec::new(),
                nan: false,
                value: self.value,
            })
        }
    }

    #[test]
    fn every_dispatch_arm_records_the_same_outcomes_and_counters() {
        let (t1, t2) = frames();
        let build = || {
            vec![
                Candidate::new(Box::new(Warm(85.0))),
                Candidate::new(Box::new(FlakyOnce {
                    failures_left: 1,
                    value: 84.0,
                })),
                Candidate::new(Box::new(Panicky)),
                Candidate::new(Box::new(NanFirst {
                    seen: Vec::new(),
                    nan: false,
                    value: 83.0,
                })),
            ]
        };
        // serial, work queue, watchdog with 1 worker, watchdog with N
        let arms = [
            (false, None),
            (true, None),
            (false, Some(30)),
            (true, Some(30)),
        ];
        let runs: Vec<_> = arms
            .iter()
            .map(|&(parallel, hard)| {
                let mut exec = executor(&t1, &t2, parallel, None);
                exec.hard_deadline = hard.map(Duration::from_secs);
                exec.incremental = true;
                exec.cache = Some(Arc::new(TransformCache::new()));
                let mut cands = build();
                // 40 is re-requested: Warm and FlakyOnce replay it, while
                // NanFirst refits it (a duplicate fit) and now scores
                for alloc in [20, 40, 40, 80] {
                    exec.run_round(&mut cands, alloc);
                }
                let outcomes: Vec<_> = cands
                    .iter()
                    .map(|c| {
                        let bits: Vec<(usize, u64)> =
                            c.scores.iter().map(|&(a, s)| (a, s.to_bits())).collect();
                        (bits, c.failure.clone(), c.last_error.clone())
                    })
                    .collect();
                let counters = (
                    exec.fits_avoided,
                    exec.duplicate_fits,
                    exec.retries,
                    exec.incremental_fits,
                );
                (outcomes, counters)
            })
            .collect();
        let (outcomes, counters) = &runs[0];
        assert_eq!(*counters, (2, 1, 1, 2));
        let nan_first = &outcomes[3].0;
        assert!(f64::from_bits(nan_first[1].1).is_infinite());
        assert!(f64::from_bits(nan_first[2].1).is_finite());
        assert!(matches!(outcomes[2].1, Some(FailureKind::Crashed(_))));
        for (arm, run) in arms.iter().zip(&runs).skip(1) {
            assert_eq!(run, &runs[0], "arm {arm:?} diverged from serial");
        }
    }

    #[test]
    fn non_finite_scores_classify_as_nonfinite() {
        let (t1, t2) = frames();
        let mut exec = executor(&t1, &t2, false, None);
        let mut c = Candidate::new(Box::new(Always(f64::NAN)));
        exec.run_round(std::slice::from_mut(&mut c), 40);
        assert!(c.alive()); // not yet classified — might recover
        c.finalize_failure();
        assert_eq!(c.failure, Some(FailureKind::NonFinite));
    }
}
