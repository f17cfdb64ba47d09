//! The long-lived forecasting service core.
//!
//! [`AutoAITS::fit`] is a blocking, single-run entry point; production
//! traffic is many users hitting the *same* series repeatedly with a new
//! tail. This module lifts the per-run reuse machinery to cross-run scope:
//!
//! - a **series store** whose observe path grows frames through
//!   [`TimeSeriesFrame::append`]'s in-place branch, so the frame fingerprint
//!   after `observe` `extends_as_prefix` the fingerprint the previous fit
//!   ran on — the condition every tier of the reuse stack keys on;
//! - a **cross-run transform cache**: one [`TransformCache`] shared by every
//!   request, so flattened design matrices built by run *N* are reused by
//!   run *N+1* when the lineage extends (the cache affects wall time only,
//!   never a ranking). Each installed fit or re-selection prunes the
//!   series' entries to the newest view per windowing
//!   ([`TransformCache::prune_to_latest`]), so the cache grows with the
//!   series, not with the number of refits;
//! - a **model cache** keyed by [`FrameFingerprint`] + generation: a fit
//!   request whose frame fingerprints identically to an already-served fit
//!   replays the stored result without any work, and `predict` requests are
//!   served straight from the stored fitted system;
//! - **epoch invalidation** mirroring the executor's `retire_unit`
//!   generation-stamp scheme: [`ForecastService::invalidate`] bumps the
//!   generation, so in-flight fits that complete against a stale generation
//!   are dead on arrival instead of resurrecting flushed state;
//! - a **job-queue front end**: [`ForecastService::submit`] multiplexes a
//!   batch of fit/predict requests over the process-wide persistent worker
//!   pool with admission control (batch + in-flight caps); each request
//!   runs under the soft/hard T-Daub budgets of the service's template
//!   [`AutoAITSConfig`].
//!
//! # The online loop
//!
//! `observe` is more than an append: every batch of observed rows is scored
//! against the live winner's own forecast for those positions (one-step
//! SMAPE, winner vs. the persistence baseline) and charged to a per-series
//! [`DriftMonitor`]. A [`DriftVerdict::Drifted`] verdict triggers a **warm
//! re-selection**: the previous ranking becomes the restricted pool and the
//! T-Daub warm priors, the shared transform cache and the executor's
//! fingerprint memo carry the state, and the new winner is swapped in
//! atomically only when the whole attempt completes — the old forecaster
//! keeps serving throughout, and a failed attempt changes nothing. Entries
//! installed by a re-selection (or fitted under an active fault plan) are
//! `tainted`: a clean explicit `fit` never replays them, so its result is
//! bit-identical to a fit on an untouched service.
//!
//! Locking: the service locks are `linalg::sync` ordered locks with the
//! order classes `service.queue`, `service.state`, `service.models`, and
//! `service.drift`. They guard short metadata sections only — no fit ever
//! runs while one is held — and the first three nest exclusively *above*
//! the `cache.*` classes (a `predict` served under `service.models` may
//! touch the transform cache), keeping the workspace lock-order graph
//! acyclic. `service.drift` is a leaf: it is only ever taken with no other
//! lock held and nothing is acquired under it.
//!
//! Chaos sites: `service.submit` (keyed by the request's position in its
//! batch, so a seeded plan perturbs the same requests in serial and
//! parallel submissions), `observe.append` (keyed by series name; fires
//! before any lock or mutation, so a faulted observe leaves the stored
//! series untouched), `drift.update` (keyed by series name; a faulted
//! update skips one monitoring batch and nothing else), and
//! `reselect.swap` (keyed by series name and generation; a faulted swap
//! abandons the re-selection and the old winner keeps serving). A `Panic`
//! fault panics at the site (callers degrade it), a `TypedError` fault
//! returns a typed error, a `Delay` sleeps; NaN poisoning does not apply
//! to these control-plane sites.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use autoai_linalg::par::parallel_try_map_mut;
use autoai_linalg::sync::OrderedMutex;
use autoai_pipelines::{IntervalForecast, PipelineError};
use autoai_transforms::{CacheStats, TransformCache};
use autoai_tsdata::{smape, FrameFingerprint, GrowthRecord, QualityIssue, TimeSeriesFrame};

use crate::online::{DriftConfig, DriftMonitor, DriftSnapshot, DriftVerdict};
use crate::orchestrator::{AutoAITS, AutoAITSConfig, DegradationLevel};

/// Admission-control and cache-budget limits for a [`ForecastService`].
#[derive(Debug, Clone)]
pub struct ServiceLimits {
    /// Maximum requests accepted from a single [`ForecastService::submit`]
    /// batch; the excess is rejected with
    /// [`PipelineError::BudgetExceeded`].
    pub max_batch: usize,
    /// Maximum admitted-but-unfinished requests across concurrent batches.
    pub max_in_flight: usize,
    /// Byte budget for the cross-run caches (transform-cache resident bytes
    /// plus an estimate of the stored frames the model cache keeps alive).
    /// When exceeded, model-cache entries are evicted least-recently-touched
    /// first (oldest generation breaking ties) together with the
    /// transform-cache entries on their buffers; `None` = unbounded.
    pub max_cache_bytes: Option<u64>,
}

impl Default for ServiceLimits {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_in_flight: 256,
            max_cache_bytes: None,
        }
    }
}

/// One unit of service work.
#[derive(Debug, Clone)]
pub enum ServiceRequest {
    /// Run the full AutoAI-TS selection on the stored series.
    Fit {
        /// Name of an ingested series.
        series: String,
    },
    /// Forecast from the series' most recent fitted system.
    Predict {
        /// Name of an ingested series.
        series: String,
        /// Number of future rows to forecast.
        horizon: usize,
    },
}

/// Successful outcome of one [`ServiceRequest`].
#[derive(Debug, Clone)]
pub enum ServiceResponse {
    /// Outcome of a `Fit` request.
    Fit(ServiceFitReport),
    /// Point forecast answering a `Predict` request.
    Predict(TimeSeriesFrame),
}

/// What one fit request did and reused, for cross-run cache accounting.
#[derive(Debug, Clone)]
pub struct ServiceFitReport {
    /// The series this fit ran on.
    pub series: String,
    /// Name of the winning pipeline.
    pub best_pipeline: String,
    /// Final ranking: `(pipeline name, projected score)` best first. Scores
    /// are bit-exact reproducible for a fixed seed, so equality of
    /// `f64::to_bits` across requests is the intended comparison.
    pub ranking: Vec<(String, f64)>,
    /// SMAPE of the winner on the holdout split.
    pub holdout_smape: f64,
    /// How far down the degradation ladder the fit landed.
    pub degradation: DegradationLevel,
    /// Warm-started `fit_incremental` refits inside this run.
    pub incremental_fits: u64,
    /// Fit+score units served from the executor's fingerprint memo.
    pub fits_avoided: u64,
    /// Executed fits on data a candidate had already fitted — structurally
    /// zero while the memo is active.
    pub duplicate_fits: u64,
    /// Transform-cache hits during this request (cross-run hits included:
    /// the service cache outlives individual requests).
    pub cache_hits: u64,
    /// Transform-cache misses during this request.
    pub cache_misses: u64,
    /// Cache misses served by extending a previous run's matrix.
    pub cache_extensions: u64,
    /// True when this fit's frame `extends_as_prefix` the fingerprint of
    /// the previous fit stored for the series — the cross-run warm-lineage
    /// condition the in-place growth path exists to preserve.
    pub extends_previous_fit: bool,
    /// True when no work ran at all: the request's frame fingerprinted
    /// identically to an already-served fit of the current generation and
    /// the stored report was replayed.
    pub reused_model: bool,
    /// Quality issues the fit's assessment surfaced, including issues
    /// carried over from `observe` calls since the previous fit (e.g.
    /// timestamps dropped while appending live rows).
    pub quality_issues: Vec<QualityIssue>,
}

/// Aggregate service counters, for dashboards and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted by `submit`.
    pub admitted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Admitted requests that have completed (successfully or not).
    pub completed: u64,
    /// Admitted requests currently executing.
    pub in_flight: usize,
    /// Current invalidation generation (starts at 0).
    pub generation: u64,
    /// Number of ingested series.
    pub series: usize,
    /// Number of live model-cache entries.
    pub models: usize,
    /// Model-cache entries evicted by the [`ServiceLimits::max_cache_bytes`]
    /// budget (a final whole-cache flush counts once).
    pub evictions: u64,
    /// Rows whose timestamps `observe` had to drop because no regular
    /// spacing could be inferred — the silent-degradation signal the growth
    /// records used to keep to themselves.
    pub dropped_timestamps: u64,
    /// Completed drift-triggered warm re-selections.
    pub reselections: u64,
    /// Cross-run transform-cache counters.
    pub cache: CacheStats,
    /// Bytes of derived data the cross-run transform cache holds
    /// ([`TransformCache::resident_bytes`]).
    pub cache_resident_bytes: u64,
}

/// One stored series: the live frame and its pending quality issues.
struct SeriesState {
    name: String,
    frame: TimeSeriesFrame,
    /// Quality issues reported by `observe` since the last fit; the next
    /// fit drains them into its summary.
    pending_issues: Vec<QualityIssue>,
}

/// One cached fit: the whole fitted system plus the identity it was fit on.
struct ModelEntry {
    series: String,
    fingerprint: FrameFingerprint,
    generation: u64,
    model: AutoAITS,
    report: ServiceFitReport,
    /// Monotone recency stamp (eviction order under the byte budget).
    touched: u64,
    /// Fitted by a warm re-selection or under an active fault plan: serves
    /// forecasts normally, but a clean explicit fit never replays it.
    tainted: bool,
}

/// Per-series drift state behind the `service.drift` leaf lock.
struct SeriesMonitor {
    name: String,
    monitor: DriftMonitor,
}

/// Admission counters behind the `service.queue` lock.
#[derive(Default)]
struct QueueState {
    in_flight: usize,
    admitted: u64,
    rejected: u64,
    completed: u64,
}

/// Per-request routing decided by admission control and batch dedup.
enum Decision {
    /// Rejected by admission control.
    Rejected,
    /// Executes on the worker pool.
    Primary,
    /// Duplicate fit of the request at this batch position; replayed from
    /// the primary's result.
    DuplicateOf(usize),
}

/// A long-lived, concurrent front end over [`AutoAITS`]: ingest series once,
/// then serve repeated fit/predict requests with cross-run reuse.
pub struct ForecastService {
    config: AutoAITSConfig,
    limits: ServiceLimits,
    drift_config: DriftConfig,
    cache: Arc<TransformCache>,
    generation: AtomicU64,
    touch_clock: AtomicU64,
    evictions: AtomicU64,
    dropped_timestamps: AtomicU64,
    reselections: AtomicU64,
    service_queue: OrderedMutex<QueueState>,
    service_state: OrderedMutex<Vec<SeriesState>>,
    service_models: OrderedMutex<Vec<ModelEntry>>,
    service_drift: OrderedMutex<Vec<SeriesMonitor>>,
}

impl Default for ForecastService {
    fn default() -> Self {
        Self::new(AutoAITSConfig::default())
    }
}

impl ForecastService {
    /// Build a service whose fit requests use `config` as their template.
    pub fn new(config: AutoAITSConfig) -> Self {
        Self {
            config,
            limits: ServiceLimits::default(),
            drift_config: DriftConfig::default(),
            cache: Arc::new(TransformCache::new()),
            generation: AtomicU64::new(0),
            touch_clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            dropped_timestamps: AtomicU64::new(0),
            reselections: AtomicU64::new(0),
            service_queue: OrderedMutex::new("service.queue", QueueState::default()),
            service_state: OrderedMutex::new("service.state", Vec::new()),
            service_models: OrderedMutex::new("service.models", Vec::new()),
            service_drift: OrderedMutex::new("service.drift", Vec::new()),
        }
    }

    /// Replace the admission-control limits.
    pub fn with_limits(mut self, limits: ServiceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Replace the drift-monitor tuning used for every series.
    pub fn with_drift_config(mut self, drift: DriftConfig) -> Self {
        self.drift_config = drift;
        self
    }

    /// Store (or replace) a series under `name`. Returns the fingerprint
    /// the stored frame will present to the next fit request.
    pub fn ingest(
        &self,
        name: &str,
        frame: TimeSeriesFrame,
    ) -> Result<FrameFingerprint, PipelineError> {
        if frame.is_empty() || frame.n_series() == 0 {
            return Err(PipelineError::InvalidInput(format!(
                "ingest `{name}`: empty frame"
            )));
        }
        let fp = frame.fingerprint();
        {
            let mut state = lock_or_poisoned(&self.service_state)?;
            match state.iter_mut().find(|s| s.name == name) {
                Some(slot) => {
                    // the replaced frame's buffers are retired: free the
                    // cache entries on them (their IDs never come back)
                    let retired = slot.frame.fingerprint();
                    self.cache.purge_buffers(retired.buffers());
                    slot.frame = frame;
                    slot.pending_issues.clear();
                }
                None => state.push(SeriesState {
                    name: name.to_string(),
                    frame,
                    pending_issues: Vec::new(),
                }),
            }
        }
        // a replaced series' drift evidence described the old data; drop it
        // (leaf lock, taken with no other lock held)
        if let Ok(mut monitors) = self.service_drift.lock() {
            monitors.retain(|m| m.name != name);
        }
        Ok(fp)
    }

    /// Append `new_rows` (row-major) to the stored series. When the stored
    /// frame is the unique owner of its buffers — the steady state between
    /// requests, now that fitted models keep owned tails — the growth is in
    /// place and the returned record's fingerprints satisfy
    /// `grown.extends_as_prefix(&base)`, which is what lets the next fit
    /// request warm-start against the previous one. A forced re-base is
    /// surfaced in the record, never silent.
    ///
    /// This is also the online loop's heartbeat: the appended rows are
    /// scored against the live winner's own forecast for those positions
    /// and charged to the series' drift monitor; a `Drifted` verdict runs a
    /// warm re-selection before returning (the old winner keeps serving
    /// concurrent requests throughout, and a failed attempt changes
    /// nothing).
    pub fn observe(
        &self,
        name: &str,
        new_rows: &[Vec<f64>],
    ) -> Result<GrowthRecord, PipelineError> {
        // chaos site `observe.append` fires before any mutation: a
        // mid-observe fault must leave the stored series exactly as it was.
        // Keyed by (series, stored length) so successive observes of one
        // series draw independent faults under a fixed plan.
        let probe_len = {
            let state = lock_or_poisoned(&self.service_state)?;
            state
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.frame.len())
                .unwrap_or(0)
        };
        self.chaos_gate("observe.append", autoai_chaos::key(name) ^ probe_len as u64)?;
        let (record, pre_len, baseline_seed) = {
            let mut state = lock_or_poisoned(&self.service_state)?;
            let slot = state.iter_mut().find(|s| s.name == name).ok_or_else(|| {
                PipelineError::InvalidInput(format!("observe: unknown series `{name}`"))
            })?;
            let width = slot.frame.n_series();
            if new_rows.iter().any(|r| r.len() != width) {
                return Err(PipelineError::InvalidInput(format!(
                    "observe `{name}`: rows must have {width} values"
                )));
            }
            let pre_len = slot.frame.len();
            // seed for the persistence baseline: the last row already stored
            let baseline_seed = pre_len.checked_sub(1).map(|last| slot.frame.row(last));
            // take the frame out of the slot so the store itself is not a
            // co-owner; `extended` consumes it and detects unique ownership
            let frame =
                std::mem::replace(&mut slot.frame, TimeSeriesFrame::from_columns(Vec::new()));
            let (grown, record) = frame.extended(new_rows);
            if !record.identity_preserved() {
                // re-based: the old buffers are retired, so free the cache
                // entries on them
                self.cache.purge_buffers(record.base.buffers());
            }
            slot.frame = grown;
            if let Some(issue) = record.timestamp_issue.clone() {
                // dropped timestamps used to live only in the growth record:
                // count them in the stats and stash the issue for the next
                // fit's quality report
                if let QualityIssue::DroppedTimestamps(n) = &issue {
                    self.dropped_timestamps
                        .fetch_add(*n as u64, Ordering::SeqCst);
                }
                slot.pending_issues.push(issue);
            }
            (record, pre_len, baseline_seed)
        };
        // all locks released: score the batch and act on the verdict
        let verdict = self.monitor_observation(name, new_rows, pre_len, baseline_seed, &record);
        if verdict == DriftVerdict::Drifted {
            self.reselect_series(name);
        }
        Ok(record)
    }

    /// Fingerprint the stored series currently presents to a fit request.
    pub fn series_fingerprint(&self, name: &str) -> Option<FrameFingerprint> {
        self.stored_frame(name)
            .ok()
            .map(|frame| frame.fingerprint())
    }

    /// Submit a batch of requests; the reply vector is index-aligned with
    /// the batch. Admission control caps the batch size and the number of
    /// in-flight requests (rejections are
    /// [`PipelineError::BudgetExceeded`]); duplicate fit requests within
    /// the batch execute once and replay to the duplicates; everything
    /// admitted is multiplexed over the process-wide persistent worker
    /// pool.
    pub fn submit(
        &self,
        requests: &[ServiceRequest],
    ) -> Vec<Result<ServiceResponse, PipelineError>> {
        let n = requests.len();
        // ---- admission: batch cap + in-flight cap, under service.queue ----
        let allow = {
            match self.service_queue.lock() {
                Ok(mut q) => {
                    let room = self.limits.max_in_flight.saturating_sub(q.in_flight);
                    let allow = n.min(self.limits.max_batch).min(room);
                    q.in_flight = q.in_flight.saturating_add(allow);
                    q.admitted = q.admitted.saturating_add(allow as u64);
                    q.rejected = q.rejected.saturating_add((n - allow) as u64);
                    allow
                }
                Err(_) => 0,
            }
        };
        // ---- routing: the first `allow` requests are admitted; duplicate
        // fits of the same series collapse onto their first occurrence ----
        let mut decisions: Vec<Decision> = Vec::with_capacity(n);
        let mut fit_primaries: Vec<(usize, String)> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            if i >= allow {
                decisions.push(Decision::Rejected);
                continue;
            }
            match request {
                ServiceRequest::Fit { series } => {
                    match fit_primaries.iter().find(|(_, s)| s == series) {
                        Some(&(first, _)) => decisions.push(Decision::DuplicateOf(first)),
                        None => {
                            fit_primaries.push((i, series.clone()));
                            decisions.push(Decision::Primary);
                        }
                    }
                }
                ServiceRequest::Predict { .. } => decisions.push(Decision::Primary),
            }
        }
        // ---- execute primaries on the persistent pool ----
        let mut work: Vec<(usize, ServiceRequest)> = decisions
            .iter()
            .zip(requests.iter())
            .enumerate()
            .filter(|(_, (d, _))| matches!(d, Decision::Primary))
            .map(|(i, (_, r))| (i, r.clone()))
            .collect();
        let outcomes = parallel_try_map_mut(&mut work, |(i, request)| self.execute(*i, request));
        // ---- assemble index-aligned replies; replay duplicates ----
        let mut done = outcomes.into_iter();
        let mut responses: Vec<Result<ServiceResponse, PipelineError>> = Vec::with_capacity(n);
        for decision in &decisions {
            let reply = match decision {
                Decision::Rejected => Err(PipelineError::BudgetExceeded),
                Decision::Primary => match done.next() {
                    Some(Ok(result)) => result,
                    Some(Err(panic)) => Err(PipelineError::Crashed(format!(
                        "service worker panicked: {}",
                        panic.message
                    ))),
                    None => Err(PipelineError::Crashed(
                        "service worker result missing".into(),
                    )),
                },
                Decision::DuplicateOf(first) => match responses.get(*first) {
                    Some(Ok(ServiceResponse::Fit(report))) => {
                        let mut replay = report.clone();
                        replay.reused_model = true;
                        Ok(ServiceResponse::Fit(replay))
                    }
                    Some(Ok(other)) => Ok(other.clone()),
                    Some(Err(e)) => Err(e.clone()),
                    None => Err(PipelineError::Crashed(
                        "duplicate fit primary missing".into(),
                    )),
                },
            };
            responses.push(reply);
        }
        if let Ok(mut q) = self.service_queue.lock() {
            q.in_flight = q.in_flight.saturating_sub(allow);
            q.completed = q.completed.saturating_add(allow as u64);
        }
        responses
    }

    /// Convenience: submit a single fit request for `series`.
    pub fn fit(&self, series: &str) -> Result<ServiceFitReport, PipelineError> {
        match self.submit_one(ServiceRequest::Fit {
            series: series.to_string(),
        })? {
            ServiceResponse::Fit(report) => Ok(report),
            _ => Err(PipelineError::Crashed("fit answered with non-fit".into())),
        }
    }

    /// Convenience: submit a single predict request for `series`.
    pub fn predict(&self, series: &str, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        match self.submit_one(ServiceRequest::Predict {
            series: series.to_string(),
            horizon,
        })? {
            ServiceResponse::Predict(frame) => Ok(frame),
            _ => Err(PipelineError::Crashed(
                "predict answered with non-predict".into(),
            )),
        }
    }

    /// Submit a one-request batch and unwrap its one reply.
    fn submit_one(&self, request: ServiceRequest) -> Result<ServiceResponse, PipelineError> {
        self.submit(&[request])
            .pop()
            .unwrap_or_else(|| Err(PipelineError::Crashed("empty submit reply".into())))
    }

    /// Quantile-band forecast from the series' most recent fitted system.
    /// The interval ladder (native band → conformal wrap → ZeroModel
    /// baseline band) guarantees calibrated bands whenever a fit has
    /// completed, whatever faults the observe path absorbed since.
    pub fn predict_interval(
        &self,
        series: &str,
        horizon: usize,
        levels: &[f64],
    ) -> Result<IntervalForecast, PipelineError> {
        self.with_current_model(series, |model| model.predict_interval(horizon, levels))
    }

    /// Snapshot of the series' drift-monitor state; `None` until the first
    /// monitored observe.
    pub fn drift_snapshot(&self, series: &str) -> Option<DriftSnapshot> {
        self.service_drift.lock().ok().and_then(|monitors| {
            monitors
                .iter()
                .find(|m| m.name == series)
                .map(|m| m.monitor.snapshot())
        })
    }

    /// Raw state bits of the series' drift monitor, for bit-identity
    /// assertions across runs and schedules.
    pub fn drift_state_bits(&self, series: &str) -> Option<Vec<u64>> {
        self.service_drift.lock().ok().and_then(|monitors| {
            monitors
                .iter()
                .find(|m| m.name == series)
                .map(|m| m.monitor.state_bits())
        })
    }

    /// Flush all cross-run state: bumps the generation stamp (the epoch
    /// analogue of the executor's `retire_unit`), clears the transform
    /// cache, and drops model-cache entries of older generations. An
    /// in-flight fit that completes against a stale generation is dead on
    /// arrival — its entry is never stored — so flushed state cannot be
    /// resurrected by a straggler. Returns the new generation.
    pub fn invalidate(&self) -> u64 {
        let generation = self
            .generation
            .fetch_add(1, Ordering::SeqCst)
            .saturating_add(1);
        self.cache.clear();
        if let Ok(mut models) = self.service_models.lock() {
            models.retain(|e| e.generation >= generation);
        }
        // drift evidence always accuses a specific winner; the flush just
        // removed every winner, so the evidence goes with them
        if let Ok(mut monitors) = self.service_drift.lock() {
            monitors.clear();
        }
        generation
    }

    /// Aggregate counters (admission, generation, model/series counts, and
    /// the cross-run transform-cache stats).
    pub fn stats(&self) -> ServiceStats {
        let (admitted, rejected, completed, in_flight) = self
            .service_queue
            .lock()
            .map(|q| (q.admitted, q.rejected, q.completed, q.in_flight))
            .unwrap_or((0, 0, 0, 0));
        let series = self.service_state.lock().map(|s| s.len()).unwrap_or(0);
        let models = self.service_models.lock().map(|m| m.len()).unwrap_or(0);
        ServiceStats {
            admitted,
            rejected,
            completed,
            in_flight,
            generation: self.generation.load(Ordering::SeqCst),
            series,
            models,
            evictions: self.evictions.load(Ordering::SeqCst),
            dropped_timestamps: self.dropped_timestamps.load(Ordering::SeqCst),
            reselections: self.reselections.load(Ordering::SeqCst),
            cache: self.cache.stats(),
            cache_resident_bytes: self.cache.resident_bytes(),
        }
    }

    /// One worker's slice of a submitted batch.
    fn execute(
        &self,
        position: usize,
        request: &ServiceRequest,
    ) -> Result<ServiceResponse, PipelineError> {
        self.chaos_gate("service.submit", position as u64)?;
        match request {
            ServiceRequest::Fit { series } => self.fit_series(series).map(ServiceResponse::Fit),
            ServiceRequest::Predict { series, horizon } => self
                .predict_series(series, *horizon)
                .map(ServiceResponse::Predict),
        }
    }

    /// Shared chaos gate for the service's control-plane sites
    /// (`service.submit`, `observe.append`, `drift.update`,
    /// `reselect.swap`), keyed so a seeded plan perturbs the same calls in
    /// serial and parallel schedules.
    fn chaos_gate(&self, site: &str, k: u64) -> Result<(), PipelineError> {
        if autoai_chaos::enabled() {
            match autoai_chaos::inject(site, k) {
                Some(autoai_chaos::Fault::Panic) => {
                    // tscheck:allow(panic): deliberate chaos fault injection
                    panic!("chaos: injected fault at {site}")
                }
                Some(autoai_chaos::Fault::TypedError) => {
                    return Err(PipelineError::Crashed(format!(
                        "chaos: injected error at {site}"
                    )))
                }
                Some(autoai_chaos::Fault::Delay(ms)) => {
                    std::thread::sleep(Duration::from_millis(ms))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Best-effort drift accounting for one observe: any panic (including
    /// an injected `drift.update` fault) degrades monitoring to `Stable`
    /// without touching the observe result.
    fn monitor_observation(
        &self,
        name: &str,
        new_rows: &[Vec<f64>],
        pre_len: usize,
        baseline_seed: Option<Vec<f64>>,
        record: &GrowthRecord,
    ) -> DriftVerdict {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.update_drift(name, new_rows, pre_len, baseline_seed, record)
        }))
        .unwrap_or(DriftVerdict::Stable)
    }

    /// Charge the series' drift monitor with one observe batch: one-step
    /// SMAPE of the live winner's forecast vs. the persistence baseline for
    /// every appended row, plus any quality issue the growth reported.
    fn update_drift(
        &self,
        name: &str,
        new_rows: &[Vec<f64>],
        pre_len: usize,
        baseline_seed: Option<Vec<f64>>,
        record: &GrowthRecord,
    ) -> DriftVerdict {
        if self
            .chaos_gate("drift.update", autoai_chaos::key(name) ^ pre_len as u64)
            .is_err()
        {
            // monitoring is best-effort: a faulted update skips this batch
            return DriftVerdict::Stable;
        }
        // the winner's forecast for exactly these positions, taken *before*
        // the drift lock: the forecast path may touch `service.models` and
        // the transform cache, while `service.drift` stays a leaf
        let winner_rows = self.winner_tail_rows(name, pre_len, new_rows.len());
        let Ok(mut monitors) = self.service_drift.lock() else {
            return DriftVerdict::Stable;
        };
        let idx = match monitors.iter().position(|m| m.name == name) {
            Some(i) => i,
            None => {
                monitors.push(SeriesMonitor {
                    name: name.to_string(),
                    monitor: DriftMonitor::new(self.drift_config.clone()),
                });
                monitors.len().saturating_sub(1)
            }
        };
        let Some(slot) = monitors.get_mut(idx) else {
            return DriftVerdict::Stable;
        };
        let mut verdict = slot.monitor.verdict();
        let mut prev = baseline_seed;
        for (step, actual) in new_rows.iter().enumerate() {
            let baseline_loss = match prev.as_deref() {
                // persistence baseline: the previous row predicts this one
                Some(p) => smape(actual, p),
                // very first row of the series: nothing to compare against
                None => f64::NAN,
            };
            let winner_loss = match winner_rows.as_ref().and_then(|rows| rows.get(step)) {
                Some(w) => smape(actual, w),
                // no live winner (or an unusable span): no evidence either
                // way — charge the winner exactly the baseline's loss
                None => baseline_loss,
            };
            verdict = slot.monitor.observe_step(winner_loss, baseline_loss);
            prev = Some(actual.clone());
        }
        if let Some(issue) = record.timestamp_issue.as_ref() {
            verdict = slot.monitor.note_quality(issue);
        }
        verdict
    }

    /// The live winner's forecast for stored positions
    /// `pre_len .. pre_len + appended` — the rows `observe` is about to
    /// score. `None` when no current-generation model exists for the
    /// series, the span is degenerate or absurdly long, or the forecast
    /// itself fails; the monitor then runs on baseline parity alone.
    fn winner_tail_rows(
        &self,
        name: &str,
        pre_len: usize,
        appended: usize,
    ) -> Option<Vec<Vec<f64>>> {
        // longest forecast the monitor will request of a stale winner
        const MAX_SPAN: usize = 256;
        let generation = self.generation.load(Ordering::SeqCst);
        let models = self.service_models.lock().ok()?;
        let entry = models
            .iter()
            .find(|e| e.series == name && e.generation == generation)?;
        let offset = pre_len.checked_sub(entry.fingerprint.rows())?;
        let span = offset.checked_add(appended)?;
        if span == 0 || span > MAX_SPAN {
            return None;
        }
        // the guard is not dropped during a caught unwind, so a panicking
        // predictor cannot poison `service.models`
        let forecast =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| entry.model.predict(span)))
                .ok()?
                .ok()?;
        if forecast.len() < span {
            return None;
        }
        Some((offset..span).map(|r| forecast.row(r)).collect())
    }

    /// Drift response: re-run pipeline selection for `name`, warm-started
    /// from the previous result, and swap the new winner in atomically only
    /// when the whole attempt succeeds. The old forecaster keeps serving
    /// throughout (no lock is held across the fit); any failure — chaos
    /// fault, panic, fit error, raced invalidation — abandons the attempt
    /// and leaves every stored structure exactly as it was.
    fn reselect_series(&self, name: &str) {
        let generation = self.generation.load(Ordering::SeqCst);
        let swapped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.try_reselect(name, generation)
        }))
        .unwrap_or(false);
        if swapped {
            self.reselections.fetch_add(1, Ordering::SeqCst);
            // the accused winner is gone: the replacement starts from a
            // clean slate and must re-earn the warm-up gate
            if let Ok(mut monitors) = self.service_drift.lock() {
                if let Some(slot) = monitors.iter_mut().find(|m| m.name == name) {
                    slot.monitor.reset();
                }
            }
            self.enforce_cache_budget();
        }
    }

    /// One warm re-selection attempt; `true` only when a new winner was
    /// swapped in.
    fn try_reselect(&self, name: &str, generation: u64) -> bool {
        // chaos site `reselect.swap` fires before any state is read: a
        // fault abandons the attempt and the old winner keeps serving
        if self
            .chaos_gate("reselect.swap", autoai_chaos::key(name) ^ generation)
            .is_err()
        {
            return false;
        }
        // warm priors: the previous ranking, best first
        let priors: Vec<String> = {
            let Ok(models) = self.service_models.lock() else {
                return false;
            };
            match models
                .iter()
                .find(|e| e.series == name && e.generation == generation)
            {
                Some(entry) => entry
                    .report
                    .ranking
                    .iter()
                    .map(|(pipeline, _)| pipeline.clone())
                    .collect(),
                None => return false,
            }
        };
        if priors.is_empty() {
            return false;
        }
        let Ok(frame) = self.stored_frame(name) else {
            return false;
        };
        // restricted pool: the previous top ranks plus the ZeroModel anchor
        // — the warm search revisits proven contenders, not the whole table
        let mut pool: Vec<String> = priors.iter().take(3).cloned().collect();
        if !pool.iter().any(|p| p == "ZeroModel") {
            pool.push("ZeroModel".to_string());
        }
        let mut config = self.config.clone();
        config.pipeline_names = Some(pool);
        config.tdaub.warm_priors = Some(priors);
        let before = self.cache.stats();
        let mut model = AutoAITS::with_config(config).with_transform_cache(Arc::clone(&self.cache));
        if model.fit(&frame).is_err() {
            // the degradation ladder already absorbed pipeline failures
            // inside `fit`; an error here means even the ladder could not
            // produce a forecaster — the old winner keeps serving
            return false;
        }
        // atomic swap, tainted: the report comes from a restricted warm
        // pool, so a clean explicit fit must never replay it
        self.install(name, &frame, generation, model, before, true, true)
            .is_ok_and(|(_, installed)| installed)
    }

    /// Evict model-cache entries — least-recently-touched first, oldest
    /// generation breaking ties — until the resident cache estimate fits
    /// [`ServiceLimits::max_cache_bytes`]. Each eviction also purges the
    /// transform-cache state on the entry's buffers; when no entries remain
    /// and the transform cache alone still exceeds the budget, it is
    /// flushed outright (counted as one eviction).
    fn enforce_cache_budget(&self) {
        let Some(budget) = self.limits.max_cache_bytes else {
            return;
        };
        loop {
            let resident = self.cache.resident_bytes();
            let victim = {
                let Ok(models) = self.service_models.lock() else {
                    return;
                };
                let held: u64 = models.iter().map(entry_bytes).sum();
                if resident.saturating_add(held) <= budget {
                    return;
                }
                models
                    .iter()
                    .min_by_key(|e| (e.generation, e.touched))
                    .map(|e| (e.series.clone(), e.fingerprint.clone()))
            };
            match victim {
                Some((series, fingerprint)) => {
                    {
                        let Ok(mut models) = self.service_models.lock() else {
                            return;
                        };
                        let before = models.len();
                        models.retain(|e| !(e.series == series && e.fingerprint == fingerprint));
                        if models.len() == before {
                            // raced with a concurrent swap; don't spin
                            return;
                        }
                    }
                    self.cache.purge_buffers(fingerprint.buffers());
                    self.evictions.fetch_add(1, Ordering::SeqCst);
                }
                None => {
                    if resident > budget {
                        self.cache.clear();
                        self.evictions.fetch_add(1, Ordering::SeqCst);
                    }
                    return;
                }
            }
        }
    }

    /// Serve one fit request: replay on an exact fingerprint match (clean
    /// entries only), run the full selection against the shared cache
    /// otherwise.
    fn fit_series(&self, series: &str) -> Result<ServiceFitReport, PipelineError> {
        let frame = self.stored_frame(series)?;
        let generation = self.generation.load(Ordering::SeqCst);
        let fingerprint = frame.fingerprint();
        let extends_previous_fit = {
            let models = lock_or_poisoned(&self.service_models)?;
            if let Some(entry) = models.iter().find(|e| {
                e.series == series
                    && e.generation == generation
                    && e.fingerprint == fingerprint
                    && !e.tainted
            }) {
                // exact replay: same data, same generation → no work at all
                let mut report = entry.report.clone();
                report.reused_model = true;
                return Ok(report);
            }
            models
                .iter()
                .find(|e| e.series == series)
                .is_some_and(|e| fingerprint.extends_as_prefix(&e.fingerprint))
        };
        // this fit is going to run: drain the issues `observe` accumulated
        // so the summary surfaces each of them exactly once
        let carried = {
            let mut state = lock_or_poisoned(&self.service_state)?;
            state
                .iter_mut()
                .find(|s| s.name == series)
                .map(|s| std::mem::take(&mut s.pending_issues))
                .unwrap_or_default()
        };
        let before = self.cache.stats();
        let mut model = AutoAITS::with_config(self.config.clone())
            .with_transform_cache(Arc::clone(&self.cache))
            .with_carried_issues(carried.clone());
        if let Err(e) = model.fit(&frame) {
            // no summary was produced: restore the drained issues so the
            // next successful fit still surfaces them
            if !carried.is_empty() {
                if let Ok(mut state) = self.service_state.lock() {
                    if let Some(slot) = state.iter_mut().find(|s| s.name == series) {
                        slot.pending_issues.splice(0..0, carried);
                    }
                }
            }
            return Err(e);
        }
        // tainted when it ran under an active fault plan: it may carry a
        // degraded ranking, so it is never replayed for a clean request
        let (report, _) = self.install(
            series,
            &frame,
            generation,
            model,
            before,
            extends_previous_fit,
            autoai_chaos::enabled(),
        )?;
        self.enforce_cache_budget();
        Ok(report)
    }

    /// Serve one predict request from the stored fitted system.
    fn predict_series(
        &self,
        series: &str,
        horizon: usize,
    ) -> Result<TimeSeriesFrame, PipelineError> {
        self.with_current_model(series, |model| model.predict(horizon))
    }

    /// The stored frame of `series`. O(1): the clone shares the stored
    /// buffers, which is exactly what keys the cross-run caches.
    fn stored_frame(&self, series: &str) -> Result<TimeSeriesFrame, PipelineError> {
        let state = lock_or_poisoned(&self.service_state)?;
        state
            .iter()
            .find(|s| s.name == series)
            .map(|s| s.frame.clone())
            .ok_or_else(|| PipelineError::InvalidInput(format!("fit: unknown series `{series}`")))
    }

    /// Run `read` on the series' current-generation fitted system, marking
    /// its entry as just used (eviction order).
    fn with_current_model<T>(
        &self,
        series: &str,
        read: impl FnOnce(&AutoAITS) -> Result<T, PipelineError>,
    ) -> Result<T, PipelineError> {
        let generation = self.generation.load(Ordering::SeqCst);
        let mut models = lock_or_poisoned(&self.service_models)?;
        let entry = models
            .iter_mut()
            .find(|e| e.series == series && e.generation == generation)
            .ok_or(PipelineError::NotFitted)?;
        entry.touched = self.touch_clock.fetch_add(1, Ordering::SeqCst);
        read(&entry.model)
    }

    /// Store a finished fit as the series' model-cache entry, replacing its
    /// older entries, and prune the transform cache to the fitted buffers.
    /// The report carries the fit's summary plus the cache-counter deltas
    /// since `cache_before`. Returns it and whether the entry was stored: a
    /// fit that an invalidation raced is dead on arrival and leaves every
    /// entry as it was.
    #[allow(clippy::too_many_arguments)]
    fn install(
        &self,
        series: &str,
        frame: &TimeSeriesFrame,
        generation: u64,
        model: AutoAITS,
        cache_before: CacheStats,
        extends_previous_fit: bool,
        tainted: bool,
    ) -> Result<(ServiceFitReport, bool), PipelineError> {
        let summary = model.summary().ok_or(PipelineError::NotFitted)?;
        let after = self.cache.stats();
        let report = ServiceFitReport {
            series: series.to_string(),
            best_pipeline: summary.best_pipeline.clone(),
            ranking: summary
                .reports
                .iter()
                .map(|r| (r.name.clone(), r.projected_score))
                .collect(),
            holdout_smape: summary.holdout_smape,
            degradation: summary.degradation,
            incremental_fits: summary.execution.incremental_fits,
            fits_avoided: summary.execution.fits_avoided,
            duplicate_fits: summary.execution.duplicate_fits,
            cache_hits: after.hits.saturating_sub(cache_before.hits),
            cache_misses: after.misses.saturating_sub(cache_before.misses),
            cache_extensions: after.extensions.saturating_sub(cache_before.extensions),
            extends_previous_fit,
            reused_model: false,
            quality_issues: summary.quality.issues.clone(),
        };
        if self.generation.load(Ordering::SeqCst) != generation {
            return Ok((report, false));
        }
        let mut models = lock_or_poisoned(&self.service_models)?;
        models.retain(|e| e.series != series && e.generation == generation);
        models.push(ModelEntry {
            series: series.to_string(),
            fingerprint: frame.fingerprint(),
            generation,
            model,
            report: report.clone(),
            touched: self.touch_clock.fetch_add(1, Ordering::SeqCst),
            tainted,
        });
        drop(models);
        self.cache.prune_to_latest(frame.fingerprint().buffers());
        Ok((report, true))
    }
}

/// Bytes the model cache keeps alive for one entry: the fitted frame's
/// stored values (`rows x series x 8`). Fitted pipeline internals are not
/// counted — the frame dominates.
fn entry_bytes(entry: &ModelEntry) -> u64 {
    let rows = entry.fingerprint.rows() as u64;
    let cols = entry.fingerprint.buffers().len() as u64;
    rows.saturating_mul(cols).saturating_mul(8)
}

/// Poisoned service locks become a typed error, never a propagated panic.
fn lock_or_poisoned<'a, T>(
    lock: &'a OrderedMutex<T>,
) -> Result<autoai_linalg::sync::OrderedMutexGuard<'a, T>, PipelineError> {
    lock.lock()
        .map_err(|_| PipelineError::Crashed(format!("service lock `{}` poisoned", lock.name())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoai_tsdata::GrowthKind;

    fn seasonal_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin()])
            .collect()
    }

    fn fast_service() -> ForecastService {
        ForecastService::new(AutoAITSConfig {
            pipeline_names: Some(vec![
                "MT2RForecaster".into(),
                "HW-Additive".into(),
                "ZeroModel".into(),
            ]),
            ..Default::default()
        })
    }

    #[test]
    fn unknown_series_is_typed_invalid_input() {
        let svc = fast_service();
        assert!(matches!(
            svc.fit("nope"),
            Err(PipelineError::InvalidInput(_))
        ));
        assert!(matches!(
            svc.observe("nope", &[vec![1.0]]),
            Err(PipelineError::InvalidInput(_))
        ));
    }

    #[test]
    fn predict_before_fit_is_not_fitted() {
        let svc = fast_service();
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&seasonal_rows(300)))
            .unwrap();
        assert!(matches!(
            svc.predict("cpu", 4),
            Err(PipelineError::NotFitted)
        ));
    }

    #[test]
    fn fit_then_predict_roundtrip() {
        let svc = fast_service();
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&seasonal_rows(300)))
            .unwrap();
        let report = svc.fit("cpu").unwrap();
        assert!(!report.best_pipeline.is_empty());
        assert!(!report.reused_model);
        let f = svc.predict("cpu", 6).unwrap();
        assert_eq!(f.len(), 6);
        assert_eq!(f.n_series(), 1);
    }

    #[test]
    fn identical_fit_replays_from_the_model_cache() {
        let svc = fast_service();
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&seasonal_rows(300)))
            .unwrap();
        let cold = svc.fit("cpu").unwrap();
        let warm = svc.fit("cpu").unwrap();
        assert!(warm.reused_model, "identical request must replay");
        assert_eq!(cold.best_pipeline, warm.best_pipeline);
        // replay must be bit-identical, not merely close
        for ((an, a), (bn, b)) in cold.ranking.iter().zip(warm.ranking.iter()) {
            assert_eq!(an, bn);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn observe_grows_in_place_between_requests() {
        let svc = fast_service();
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&seasonal_rows(300)))
            .unwrap();
        svc.fit("cpu").unwrap();
        let record = svc.observe("cpu", &seasonal_rows(24)).unwrap();
        assert_eq!(
            record.kind,
            GrowthKind::InPlace,
            "stored series must grow without severing identity: {record:?}"
        );
        assert!(record.grown.extends_as_prefix(&record.base));
        // the grown frame is what the next fit sees
        assert_eq!(svc.series_fingerprint("cpu"), Some(record.grown.clone()));
    }

    #[test]
    fn duplicate_fits_in_one_batch_run_once() {
        let svc = fast_service();
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&seasonal_rows(300)))
            .unwrap();
        let replies = svc.submit(&[
            ServiceRequest::Fit {
                series: "cpu".into(),
            },
            ServiceRequest::Fit {
                series: "cpu".into(),
            },
        ]);
        assert_eq!(replies.len(), 2);
        let reports: Vec<&ServiceFitReport> = replies
            .iter()
            .map(|r| match r {
                Ok(ServiceResponse::Fit(rep)) => rep,
                other => panic!("unexpected reply {other:?}"),
            })
            .collect();
        assert!(!reports.first().unwrap().reused_model);
        assert!(reports.get(1).unwrap().reused_model);
    }

    #[test]
    fn admission_control_rejects_past_the_batch_cap() {
        let svc = fast_service().with_limits(ServiceLimits {
            max_batch: 1,
            ..Default::default()
        });
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&seasonal_rows(300)))
            .unwrap();
        let replies = svc.submit(&[
            ServiceRequest::Predict {
                series: "cpu".into(),
                horizon: 4,
            },
            ServiceRequest::Predict {
                series: "cpu".into(),
                horizon: 4,
            },
        ]);
        assert!(matches!(
            replies.get(1),
            Some(Err(PipelineError::BudgetExceeded))
        ));
        let stats = svc.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn invalidate_flushes_models_and_cache() {
        let svc = fast_service();
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&seasonal_rows(300)))
            .unwrap();
        svc.fit("cpu").unwrap();
        assert_eq!(svc.stats().models, 1);
        let generation = svc.invalidate();
        assert_eq!(generation, 1);
        let stats = svc.stats();
        assert_eq!(stats.models, 0);
        assert_eq!(stats.cache.hits + stats.cache.misses, 0);
        // predictions no longer served from the flushed generation
        assert!(matches!(
            svc.predict("cpu", 4),
            Err(PipelineError::NotFitted)
        ));
        // but a fresh fit under the new generation works
        let report = svc.fit("cpu").unwrap();
        assert!(!report.reused_model);
        assert!(svc.predict("cpu", 4).is_ok());
    }

    #[test]
    fn mixed_batch_serves_fit_and_predict() {
        let svc = fast_service();
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&seasonal_rows(300)))
            .unwrap();
        svc.fit("cpu").unwrap();
        let replies = svc.submit(&[
            ServiceRequest::Predict {
                series: "cpu".into(),
                horizon: 3,
            },
            ServiceRequest::Fit {
                series: "cpu".into(),
            },
        ]);
        assert!(matches!(
            replies.first(),
            Some(Ok(ServiceResponse::Predict(_)))
        ));
        assert!(matches!(replies.get(1), Some(Ok(ServiceResponse::Fit(_)))));
    }

    /// A drift config aggressive enough to fire within a couple of observe
    /// batches on a clear level shift, without tripping on seasonal noise.
    fn touchy_drift() -> DriftConfig {
        DriftConfig {
            window: 12,
            min_observations: 4,
            cusum_slack: 2.0,
            cusum_suspect: 8.0,
            cusum_drift: 20.0,
            ratio_suspect: 1.3,
            quality_weight: 5.0,
        }
    }

    #[test]
    fn stationary_observes_never_reselect() {
        let svc = fast_service().with_drift_config(touchy_drift());
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&seasonal_rows(300)))
            .unwrap();
        svc.fit("cpu").unwrap();
        for _ in 0..6 {
            svc.observe("cpu", &seasonal_rows(12)).unwrap();
        }
        assert_eq!(svc.stats().reselections, 0);
        let snap = svc.drift_snapshot("cpu").expect("monitor exists");
        assert_ne!(snap.verdict, DriftVerdict::Drifted);
    }

    #[test]
    fn level_shift_triggers_warm_reselection() {
        let svc = fast_service().with_drift_config(touchy_drift());
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&seasonal_rows(300)))
            .unwrap();
        svc.fit("cpu").unwrap();
        // a hard level shift: the fitted winner keeps forecasting the old
        // regime while the zero-model baseline adapts row by row
        let shifted: Vec<Vec<f64>> = (0..48).map(|_| vec![900.0]).collect();
        for batch in shifted.chunks(8) {
            svc.observe("cpu", batch).unwrap();
            if svc.stats().reselections > 0 {
                break;
            }
        }
        assert!(
            svc.stats().reselections >= 1,
            "level shift must trigger re-selection: {:?}",
            svc.drift_snapshot("cpu")
        );
        // the swapped winner serves immediately and forecasts finitely
        let f = svc.predict("cpu", 4).unwrap();
        assert!(f.row(0).iter().all(|v| v.is_finite()));
        // the monitor was reset by the swap
        let snap = svc.drift_snapshot("cpu").expect("monitor exists");
        assert_eq!(snap.observations, 0);
    }

    #[test]
    fn cache_budget_evicts_and_counts() {
        let svc = fast_service().with_limits(ServiceLimits {
            max_cache_bytes: Some(1),
            ..Default::default()
        });
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&seasonal_rows(300)))
            .unwrap();
        // the fit itself succeeds; the budget sweep then evicts the entry
        svc.fit("cpu").unwrap();
        let stats = svc.stats();
        assert!(stats.evictions >= 1, "budget of 1 byte must evict");
        assert_eq!(stats.models, 0);
        assert!(matches!(
            svc.predict("cpu", 4),
            Err(PipelineError::NotFitted)
        ));
        // refit works — eviction degrades capacity, never correctness
        assert!(svc.fit("cpu").is_ok());
    }

    #[test]
    fn generous_budget_keeps_models_resident() {
        let svc = fast_service().with_limits(ServiceLimits {
            max_cache_bytes: Some(64 * 1024 * 1024),
            ..Default::default()
        });
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&seasonal_rows(300)))
            .unwrap();
        svc.fit("cpu").unwrap();
        let stats = svc.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.models, 1);
    }

    #[test]
    fn dropped_timestamps_reach_stats_and_next_fit() {
        let svc = fast_service();
        // degenerate timestamps (no positive gap): no step can be inferred,
        // so untimestamped observes force the column to be dropped
        let rows = seasonal_rows(60);
        let ts: Vec<i64> = vec![100; 60];
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&rows).with_timestamps(ts))
            .unwrap();
        svc.fit("cpu").unwrap();
        let record = svc.observe("cpu", &seasonal_rows(3)).unwrap();
        assert_eq!(
            record.timestamp_issue,
            Some(QualityIssue::DroppedTimestamps(3))
        );
        assert_eq!(svc.stats().dropped_timestamps, 3);
        // the issue is carried into the next fit's quality report
        let report = svc.fit("cpu").unwrap();
        assert!(!report.reused_model);
        assert!(
            report
                .quality_issues
                .contains(&QualityIssue::DroppedTimestamps(3)),
            "carried issue missing from {:?}",
            report.quality_issues
        );
        // drained: the fit after that starts clean
        svc.observe("cpu", &seasonal_rows(1)).unwrap();
        let next = svc.fit("cpu").unwrap();
        assert_eq!(
            next.quality_issues
                .iter()
                .filter(|i| matches!(i, QualityIssue::DroppedTimestamps(3)))
                .count(),
            0
        );
    }

    #[test]
    fn interval_forecasts_served_from_the_winner() {
        let svc = fast_service();
        svc.ingest("cpu", TimeSeriesFrame::from_rows(&seasonal_rows(300)))
            .unwrap();
        svc.fit("cpu").unwrap();
        let interval = svc.predict_interval("cpu", 4, &[0.8]).unwrap();
        assert_eq!(interval.point().len(), 4);
        let (lower, upper) = interval.band(0).expect("one band requested");
        for r in 0..4 {
            let (lo, hi) = (lower.row(r), upper.row(r));
            for (l, h) in lo.iter().zip(&hi) {
                assert!(l.is_finite() && h.is_finite() && l <= h);
            }
        }
    }
}
