//! The T-Daub algorithm (Algorithm 1 of the paper), driven by the
//! fault-isolated, budgeted [`executor`](crate::executor).

use std::sync::Arc;
use std::time::{Duration, Instant};

use autoai_pipelines::{Forecaster, PipelineError};
use autoai_transforms::TransformCache;
use autoai_tsdata::{Metric, TimeSeriesFrame};

use crate::ensemble::{greedy_select, EnsembleSelection};
use crate::executor::{execution_report, Candidate, ExecutionReport, Executor};

/// T-Daub configuration; field names follow the paper's §4.2 definitions.
#[derive(Debug, Clone)]
pub struct TDaubConfig {
    /// The smallest data chunk provided to pipelines.
    pub min_allocation_size: usize,
    /// The increment to the allocation size (post-cutoff allocations are
    /// rounded to multiples of this).
    pub allocation_size: usize,
    /// Limit for fixed-size allocation; `None` = 5 × `allocation_size`
    /// (the paper's default).
    pub fixed_allocation_cutoff: Option<usize>,
    /// Geometric multiplier applied after the cutoff.
    pub geo_increment_size: f64,
    /// How many top pipelines run on all data in the scoring step.
    pub run_to_completion: usize,
    /// Scoring metric (paper: SMAPE).
    pub metric: Metric,
    /// Fraction of T reserved as the internal test split T2.
    pub test_fraction: f64,
    /// Evaluate pipelines in parallel within each fixed-allocation round.
    pub parallel: bool,
    /// Allocate most-recent-data-first (the T-Daub contribution). `false`
    /// reproduces the original DAUB's oldest-first allocation (ablation A3).
    pub reverse_allocation: bool,
    /// Rank by projected full-data score (`true`) or by the last observed
    /// allocation score (`false`, ablation).
    pub use_projection: bool,
    /// Per-pipeline soft wall-clock budget, cumulative across that
    /// pipeline's allocations. The deadline is cooperative — checked between
    /// allocations, never mid-fit — so a pipeline overshoots by at most one
    /// unit of work. A pipeline over budget stops receiving data, is
    /// excluded from the final ranking, and is reported as
    /// [`crate::FailureKind::TimedOut`]. `None` (default) = unlimited.
    pub pipeline_time_budget: Option<Duration>,
    /// Per-unit **hard** wall-clock deadline, enforced by a supervising
    /// watchdog rather than cooperatively: a fit+score unit still running
    /// when the deadline expires is abandoned on its (detached) worker
    /// thread and the pipeline is quarantined as
    /// [`crate::FailureKind::HardTimeout`]. This bounds `run_tdaub`'s wall
    /// time even against a pipeline that never returns. `None` (default)
    /// derives the deadline as 4× `pipeline_time_budget` when a soft budget
    /// is set, and disables the watchdog entirely otherwise.
    pub pipeline_hard_deadline: Option<Duration>,
    /// Whole-*run* hard wall-clock deadline for the selection process,
    /// measured from `run_tdaub` entry. Cooperative at phase granularity:
    /// checked before every fixed-allocation round (after the first, so
    /// every pipeline holds at least one score), every acceleration step,
    /// and every run-to-completion finalist. When it expires the remaining
    /// evaluation work is skipped and the survivors are ranked from the
    /// evidence gathered so far; [`ExecutionReport::run_deadline_hit`] is
    /// set and the orchestrator degrades the run to
    /// `DegradationLevel::Survivors`. `None` (default) = unlimited.
    pub run_hard_deadline: Option<Duration>,
    /// Share one [`TransformCache`] across the pool so pipelines with the
    /// same look-back reuse flattened design matrices within a round.
    /// `false` gives the uncached comparison mode used by benches and the
    /// isolation suite; rankings are identical either way.
    pub transform_cache: bool,
    /// Offer warm-started [`Forecaster::fit_incremental`] refits when a
    /// reverse allocation extends a candidate's previous fit. Cheap models
    /// (tier 1: ZeroModel, SeasonalNaive, AR, Theta) only accept when the
    /// warm state is bit-identical to a full fit. The heavy models (tier 2:
    /// Holt-Winters, ARIMA, BATS, the AutoEnsembler family) accept
    /// deterministic
    /// seeded restarts — verified against the previous fit's frame
    /// fingerprint, falling back to a cold fit whenever the data lineage
    /// does not extend the prior allocation. Disabling this (`false`)
    /// changes wall time, never the ranking order.
    pub incremental: bool,
    /// How many top-ranked survivors enter greedy forward ensemble
    /// selection after the final ranking. Selection uses the candidates'
    /// already-fitted states — holdout predictions only, zero additional
    /// fits — and never changes the single-winner ranking. `0` or `1`
    /// disables ensembling ([`TDaubResult::ensemble`] stays `None`).
    pub ensemble_top_k: usize,
    /// Maximum greedy selection rounds (picks with replacement). More
    /// rounds allow finer weights; the loop stops early at the first round
    /// without strict improvement.
    pub ensemble_rounds: usize,
    /// How many times a unit of work that ended in a **typed error**
    /// ([`crate::FailureKind::Errored`]) is re-run before the error stands —
    /// transient failures (a solver hiccup, an injected chaos error) get a
    /// second chance within the round's budget. Crashes and hard timeouts
    /// are never retried: their state is quarantined. Retries are counted in
    /// [`ExecutionReport::retries`]; serial and parallel runs retry
    /// identically, so determinism is preserved.
    pub retry_transient: u8,
    /// Warm-start priors from a previous run's ranking (best first):
    /// pipelines named here are evaluated first, in prior order, before the
    /// rest of the pool. Pure scheduling — per-pipeline scores and the final
    /// rank sort are unaffected. The service layer passes the previous
    /// [`crate::TDaubResult`] ranking here when a drift-triggered
    /// re-selection re-runs the search.
    pub warm_priors: Option<Vec<String>>,
}

impl Default for TDaubConfig {
    fn default() -> Self {
        Self {
            min_allocation_size: 50,
            allocation_size: 50,
            fixed_allocation_cutoff: None,
            geo_increment_size: 2.0,
            run_to_completion: 1,
            metric: Metric::Smape,
            test_fraction: 0.2,
            parallel: true,
            reverse_allocation: true,
            use_projection: true,
            pipeline_time_budget: None,
            pipeline_hard_deadline: None,
            run_hard_deadline: None,
            transform_cache: true,
            incremental: true,
            ensemble_top_k: 3,
            ensemble_rounds: 8,
            retry_transient: 1,
            warm_priors: None,
        }
    }
}

/// Evaluation record for one pipeline that survived to the final ranking.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Pipeline display name.
    pub name: String,
    /// `(allocation length, score)` pairs observed during allocation.
    pub scores: Vec<(usize, f64)>,
    /// Score projected to the full training length.
    pub projected_score: f64,
    /// Holdout score after full-data training (only for pipelines that ran
    /// to completion).
    pub final_score: Option<f64>,
    /// Wall-clock time spent fitting/scoring this pipeline.
    pub train_time: Duration,
    /// Final rank (1 = best).
    pub rank: usize,
}

/// Outcome of a T-Daub run.
pub struct TDaubResult {
    /// Per-pipeline evaluation reports for the **survivors**, ranked best
    /// first. Pipelines that crashed, errored out, timed out, or never
    /// produced a finite score are excluded — see [`TDaubResult::execution`]
    /// for their accounting.
    pub reports: Vec<PipelineReport>,
    /// The winning pipeline, retrained on the **entire** training input
    /// (the paper's final step: "the best pipelines(s) are trained on entire
    /// training dataset").
    pub best: Box<dyn Forecaster>,
    /// Total wall-clock time of the selection process.
    pub total_time: Duration,
    /// Per-pipeline execution accounting (wall time, allocations attempted,
    /// failure kind) for the whole pool, including excluded pipelines.
    pub execution: ExecutionReport,
    /// Greedy forward ensemble selection over the top
    /// [`TDaubConfig::ensemble_top_k`] survivors, when enabled and at least
    /// two survivors produced usable holdout forecasts. Purely additive:
    /// [`TDaubResult::best`] and the ranking are identical whether or not
    /// ensembling ran.
    pub ensemble: Option<EnsembleSelection>,
}

/// Run T-Daub over a pipeline pool (Algorithm 1).
///
/// `train` is the 80% training split of the user's data (the holdout for
/// final reporting is handled by the caller). Returns the ranked reports
/// and the winner refitted on all of `train`.
///
/// Execution is fault-isolated: a pipeline that panics, errors on every
/// allocation, exceeds `config.pipeline_time_budget`, or only ever yields
/// non-finite scores is removed from the pool and recorded in the returned
/// [`ExecutionReport`]; the survivors are still ranked. Only when *every*
/// pipeline fails does `run_tdaub` return an error.
pub fn run_tdaub(
    pipelines: Vec<Box<dyn Forecaster>>,
    train: &TimeSeriesFrame,
    config: &TDaubConfig,
) -> Result<TDaubResult, PipelineError> {
    run_tdaub_with_cache(pipelines, train, config, None)
}

/// [`run_tdaub`] with a caller-owned [`TransformCache`] shared **across**
/// runs. A long-lived service passes the same cache for every request on the
/// same series, so flattened design matrices built by one run are reused by
/// the next when the frame fingerprints extend (same buffers, grown tail).
/// `None` falls back to the per-run cache governed by
/// [`TDaubConfig::transform_cache`]. The cache affects wall time only —
/// rankings are identical with or without it.
pub fn run_tdaub_with_cache(
    pipelines: Vec<Box<dyn Forecaster>>,
    train: &TimeSeriesFrame,
    config: &TDaubConfig,
    shared_cache: Option<Arc<TransformCache>>,
) -> Result<TDaubResult, PipelineError> {
    if pipelines.is_empty() {
        return Err(PipelineError::InvalidInput(
            "run_tdaub requires at least one pipeline".into(),
        ));
    }
    let t_start = Instant::now();
    let n = train.len();

    let mut cands: Vec<Candidate> = pipelines.into_iter().map(Candidate::new).collect();

    // Warm priors: move pipelines ranked by a previous run to the front, in
    // prior order, so they hit the score memo / incremental tiers first.
    // Scheduling only — every candidate is still evaluated and the final
    // rank sort is by score.
    if let Some(priors) = &config.warm_priors {
        let mut prioritized: Vec<Candidate> = Vec::with_capacity(cands.len());
        for prior in priors {
            if let Some(pos) = cands.iter().position(|c| &c.name == prior) {
                prioritized.push(cands.remove(pos));
            }
        }
        prioritized.append(&mut cands);
        cands = prioritized;
    }

    // T-Daub executes only if the dataset is larger than min_allocation_size;
    // otherwise every pipeline is ranked on the full data directly (§4.2).
    let small_data = n <= config.min_allocation_size + 4;

    // split T into {T1, T2}
    let t2_len =
        ((n as f64 * config.test_fraction).round() as usize).clamp(1, n.saturating_sub(2).max(1));
    let t1 = train.slice(0, n - t2_len);
    let t2 = train.slice(n - t2_len, n);
    let l = t1.len();

    // an explicit hard deadline wins; otherwise derive one from the soft
    // budget (4× leaves cooperative early-exit room before the watchdog
    // fires) — no budget at all means no watchdog threads
    let hard_deadline = config.pipeline_hard_deadline.or(config
        .pipeline_time_budget
        .filter(|b| !b.is_zero())
        .map(|b| b * 4));

    // whole-run deadline: cooperative at phase granularity. `expired` is
    // re-sampled before each round / acceleration step / finalist; once it
    // fires, the remaining evaluation work is skipped and the survivors are
    // ranked from the evidence gathered so far.
    let run_deadline = config.run_hard_deadline.map(|d| t_start + d);
    let expired = || run_deadline.is_some_and(|d| Instant::now() >= d);
    let mut run_deadline_hit = false;

    let mut exec = Executor {
        t1: &t1,
        t2: &t2,
        metric: config.metric,
        reverse: config.reverse_allocation,
        parallel: config.parallel,
        budget: config.pipeline_time_budget,
        cache: shared_cache.or_else(|| {
            config
                .transform_cache
                .then(TransformCache::new)
                .map(Arc::new)
        }),
        incremental: config.incremental,
        retry_transient: config.retry_transient,
        hard_deadline,
        chaos_start: autoai_chaos::injected_count(),
        slice_bytes_avoided: 0,
        incremental_fits: 0,
        fits_avoided: 0,
        duplicate_fits: 0,
        retries: 0,
    };

    if small_data {
        exec.run_round(&mut cands, l);
        for c in cands.iter_mut().filter(|c| c.alive()) {
            if let Some(&(_, score)) = c.scores.last() {
                c.projected = score;
                c.final_score = Some(score);
            }
        }
    } else {
        // ---- 1. fixed allocation ----
        let cutoff = config
            .fixed_allocation_cutoff
            .unwrap_or(5 * config.allocation_size)
            .min(l);
        let num_fix_runs = (cutoff / config.min_allocation_size).max(1);
        for i in 1..=num_fix_runs {
            // the first round always runs so every pipeline holds at least
            // one score the ranking can use
            if i > 1 && expired() {
                run_deadline_hit = true;
                break;
            }
            let alloc = (config.min_allocation_size * i).min(l);
            exec.run_round(&mut cands, alloc);
            if alloc == l {
                break;
            }
        }
        for c in cands.iter_mut().filter(|c| c.alive()) {
            c.project(l, config.use_projection, config.metric);
        }

        // ---- 2. allocation acceleration ----
        // Only the (current) top pipeline gets more data; its allocation
        // grows geometrically from its own largest allocation so far,
        // rounded **up** to allocation_size multiples and floored at one
        // allocation_size above the previous step (lines 9–17) — rounding
        // down would let `geo_increment_size < 1 + allocation_size /
        // top_last` re-issue the same allocation forever. The priority
        // queue keeps re-ranking after every evaluation: the loop ends when
        // the projected-best pipeline has a *confirmed* full-data score —
        // stopping after the first full-length fit would crown a pipeline
        // whose optimistic projection the data then contradicts.
        let base_alloc = config.min_allocation_size * num_fix_runs;
        // generous budget: every pipeline could in principle climb the
        // geometric ladder to full length
        let max_accel_steps =
            cands.len() * (2 + (l / config.allocation_size.max(1)).max(1).ilog2() as usize + 1);
        for _ in 0..max_accel_steps {
            if run_deadline_hit || expired() {
                run_deadline_hit = true;
                break;
            }
            let top = cands
                .iter()
                .enumerate()
                .filter(|(_, c)| c.alive() && c.projected.is_finite())
                .min_by(|a, b| a.1.projected.total_cmp(&b.1.projected))
                .map(|(i, _)| i);
            let Some(top) = top else { break };
            let Some(c) = cands.get_mut(top) else { break };
            let top_last = c.best_finite_alloc().unwrap_or(base_alloc);
            if top_last >= l {
                // the current leader has proven itself on all the data
                break;
            }
            let grown = ((top_last.max(base_alloc) as f64 * config.geo_increment_size)
                / config.allocation_size.max(1) as f64)
                .ceil() as usize;
            let next = grown
                .max(1)
                .saturating_mul(config.allocation_size)
                .max(top_last.saturating_add(config.allocation_size));
            let alloc = next.min(l);
            exec.run_round(std::slice::from_mut(c), alloc);
            if !c.alive() {
                continue;
            }
            let last_finite = c.scores.last().is_some_and(|(_, s)| s.is_finite());
            if !last_finite && alloc >= l {
                // cannot even fit on the full data: out of the running
                c.projected = f64::INFINITY;
            } else {
                c.project(l, config.use_projection, config.metric);
            }
        }

        // ---- 3. T-Daub scoring ----
        // the top run_to_completion pipelines train on all of T1 and are
        // ranked by their true T2 score.
        let mut order: Vec<(f64, usize)> = cands
            .iter()
            .enumerate()
            .filter(|(_, c)| c.alive() && c.projected.is_finite())
            .map(|(i, c)| (c.projected, i))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, i) in order.iter().take(config.run_to_completion.max(1)) {
            if run_deadline_hit || expired() {
                run_deadline_hit = true;
                break;
            }
            let Some(c) = cands.get_mut(i) else { continue };
            // A finalist that already scored the full length during
            // acceleration replays the recorded score instead of refitting
            // identical data across the phase boundary.
            exec.run_round(std::slice::from_mut(c), l);
            c.final_score = c
                .alive()
                .then(|| c.scores.last().map_or(f64::INFINITY, |&(_, s)| s));
        }
    }

    // ---- 4. failure classification + final ranking ----
    // candidates still alive but without a single finite score become typed
    // failures; survivors are ranked — completed pipelines by final score,
    // then the rest by projected score.
    for c in cands.iter_mut() {
        c.finalize_failure();
    }
    let mut execution = execution_report(&cands, &exec);
    execution.run_deadline_hit = run_deadline_hit;

    let mut order: Vec<(bool, f64, usize)> = cands
        .iter()
        .enumerate()
        .filter(|(_, c)| c.alive())
        .map(|(i, c)| {
            (
                c.final_score.is_none(),
                c.final_score.unwrap_or(c.projected),
                i,
            )
        })
        .collect();
    order.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.total_cmp(&b.1)));

    let viable = order.first().is_some_and(|&(no_final, key, _)| {
        // the best survivor must carry a usable signal: either a confirmed
        // final score or a finite projection
        !no_final || key.is_finite()
    });
    if !viable {
        return Err(PipelineError::Fit(
            "every pipeline failed during T-Daub".into(),
        ));
    }

    // ---- 5. greedy ensemble selection over the top survivors ----
    // predictions from the candidates' already-fitted states only: zero
    // additional fits (`duplicate_fits == 0` holds) and no effect on the
    // ranking above. A panicking predict (aggressive chaos) just excludes
    // that candidate.
    let ensemble = if config.ensemble_top_k >= 2 {
        let mut entries: Vec<(String, TimeSeriesFrame)> = Vec::new();
        for &(_, _, i) in order.iter().take(config.ensemble_top_k) {
            let Some(c) = cands.get(i) else { continue };
            let pred = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.pipeline.predict(t2.len())
            }));
            if let Ok(Ok(pred)) = pred {
                entries.push((c.name.clone(), pred));
            }
        }
        if entries.len() >= 2 {
            greedy_select(&entries, &t2, config.metric, config.ensemble_rounds)
        } else {
            None
        }
    } else {
        None
    };

    // retrain the winner on the entire training input (isolated like every
    // other unit of work: a panic here is a typed Crashed error, not an
    // abort)
    let best_idx = order.first().map_or(0, |&(_, _, i)| i);
    let mut best = cands
        .get(best_idx)
        .map(|c| c.pipeline.clone_unfitted())
        .ok_or_else(|| PipelineError::Fit("winner index out of range".into()))?;
    let fit_start = Instant::now();
    exec.fit_full(&mut best, train)?;
    if let Some(c) = cands.get_mut(best_idx) {
        c.train_time += fit_start.elapsed();
    }

    let reports: Vec<PipelineReport> = order
        .iter()
        .enumerate()
        .filter_map(|(rank, &(_, _, i))| {
            cands.get(i).map(|c| PipelineReport {
                name: c.name.clone(),
                scores: c.scores.clone(),
                projected_score: c.projected,
                final_score: c.final_score,
                train_time: c.train_time,
                rank: rank + 1,
            })
        })
        .collect();

    Ok(TDaubResult {
        reports,
        best,
        total_time: t_start.elapsed(),
        execution,
        ensemble,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::FailureKind;
    use autoai_pipelines::{ThetaPipeline, WindowPipeline, ZeroModelPipeline};

    fn seasonal_frame(n: usize) -> TimeSeriesFrame {
        TimeSeriesFrame::univariate(
            (0..n)
                .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
                .collect(),
        )
    }

    fn pool() -> Vec<Box<dyn Forecaster>> {
        vec![
            Box::new(ZeroModelPipeline::new()),
            Box::new(WindowPipeline::mt2r(12, 6)),
            Box::new(ThetaPipeline::new()),
        ]
    }

    #[test]
    fn tdaub_picks_the_seasonal_model() {
        let frame = seasonal_frame(500);
        let cfg = TDaubConfig {
            parallel: false,
            ..Default::default()
        };
        let result = run_tdaub(pool(), &frame, &cfg).unwrap();
        // MT2R can model the seasonality; ZeroModel and Theta cannot
        assert_eq!(
            result.best.name(),
            "MT2RForecaster",
            "ranking: {:?}",
            result
                .reports
                .iter()
                .map(|r| (&r.name, r.final_score))
                .collect::<Vec<_>>()
        );
        assert_eq!(result.reports[0].rank, 1);
    }

    #[test]
    fn best_pipeline_is_refitted_and_predicts() {
        let frame = seasonal_frame(400);
        let result = run_tdaub(pool(), &frame, &TDaubConfig::default()).unwrap();
        let f = result.best.predict(12).unwrap();
        assert_eq!(f.len(), 12);
        assert!(f.series(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn small_dataset_bypasses_allocation() {
        // shorter than min_allocation_size → everything runs on full data
        let frame = seasonal_frame(40);
        let cfg = TDaubConfig {
            min_allocation_size: 50,
            parallel: false,
            ..Default::default()
        };
        let result = run_tdaub(pool(), &frame, &cfg).unwrap();
        for r in &result.reports {
            assert_eq!(r.scores.len(), 1, "{}: {:?}", r.name, r.scores);
            assert!(r.final_score.is_some());
        }
    }

    #[test]
    fn allocations_grow_and_stay_reverse() {
        let frame = seasonal_frame(600);
        let cfg = TDaubConfig {
            min_allocation_size: 50,
            allocation_size: 50,
            parallel: false,
            ..Default::default()
        };
        let result = run_tdaub(pool(), &frame, &cfg).unwrap();
        // fixed allocations 50, 100, ..., 250 present for every pipeline
        for r in &result.reports {
            let allocs: Vec<usize> = r.scores.iter().map(|(a, _)| *a).collect();
            assert!(
                allocs.windows(2).all(|w| w[1] >= w[0]),
                "{}: {allocs:?}",
                r.name
            );
            assert!(allocs[0] == 50, "{allocs:?}");
        }
    }

    #[test]
    fn small_geometric_increment_still_grows_every_acceleration_step() {
        // regression: with geo_increment_size < 1 + allocation_size/top_last
        // the old floor-based growth re-issued the leader's current
        // allocation forever. Ceiling growth plus the one-allocation_size
        // minimum step must make every acceleration allocation strictly
        // larger than the last.
        let frame = seasonal_frame(600);
        let cfg = TDaubConfig {
            min_allocation_size: 50,
            allocation_size: 50,
            geo_increment_size: 1.1,
            parallel: false,
            ..Default::default()
        };
        let result = run_tdaub(pool(), &frame, &cfg).unwrap();
        let l = 600 - (600.0_f64 * cfg.test_fraction).round() as usize;
        let mut reached_full = false;
        for r in &result.reports {
            let allocs: Vec<usize> = r.scores.iter().map(|(a, _)| *a).collect();
            // no allocation below full length may repeat; the full length
            // appears at most twice (acceleration confirm + the scoring
            // phase replaying it from the memo)
            let mut counts = std::collections::HashMap::new();
            for a in &allocs {
                *counts.entry(*a).or_insert(0usize) += 1;
            }
            for (a, k) in counts {
                let cap = if a == l { 2 } else { 1 };
                assert!(
                    k <= cap,
                    "{}: allocation {a} issued {k}x: {allocs:?}",
                    r.name
                );
            }
            reached_full |= allocs.contains(&l);
        }
        assert!(
            reached_full,
            "the acceleration ladder stalled before full length: {:?}",
            result
                .reports
                .iter()
                .map(|r| (&r.name, r.scores.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn failing_pipeline_is_excluded_and_reported_not_fatal() {
        /// A pipeline that always fails to fit.
        struct Broken;
        impl Forecaster for Broken {
            fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
                Err(PipelineError::Fit("always broken".into()))
            }
            fn predict(&self, _: usize) -> Result<TimeSeriesFrame, PipelineError> {
                Err(PipelineError::NotFitted)
            }
            fn name(&self) -> String {
                "Broken".into()
            }
            fn clone_unfitted(&self) -> Box<dyn Forecaster> {
                Box::new(Broken)
            }
        }
        let mut pipelines = pool();
        pipelines.push(Box::new(Broken));
        let frame = seasonal_frame(400);
        let result = run_tdaub(pipelines, &frame, &TDaubConfig::default()).unwrap();
        // excluded from the ranking, reported as a typed failure
        assert!(result.reports.iter().all(|r| r.name != "Broken"));
        assert_ne!(result.best.name(), "Broken");
        let entry = result.execution.find("Broken").unwrap();
        assert!(
            matches!(entry.failure, Some(FailureKind::Errored(_))),
            "{:?}",
            entry.failure
        );
        assert!(entry.allocations >= 1);
        assert_eq!(result.execution.survivors(), 3);
    }

    #[test]
    fn all_failing_is_an_error() {
        struct Broken;
        impl Forecaster for Broken {
            fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
                Err(PipelineError::Fit("nope".into()))
            }
            fn predict(&self, _: usize) -> Result<TimeSeriesFrame, PipelineError> {
                Err(PipelineError::NotFitted)
            }
            fn name(&self) -> String {
                "Broken".into()
            }
            fn clone_unfitted(&self) -> Box<dyn Forecaster> {
                Box::new(Broken)
            }
        }
        let frame = seasonal_frame(300);
        let r = run_tdaub(vec![Box::new(Broken)], &frame, &TDaubConfig::default());
        assert!(r.is_err());
    }

    #[test]
    fn forward_allocation_ablation_runs() {
        let frame = seasonal_frame(400);
        let cfg = TDaubConfig {
            reverse_allocation: false,
            parallel: false,
            ..Default::default()
        };
        let result = run_tdaub(pool(), &frame, &cfg).unwrap();
        assert!(!result.reports.is_empty());
    }

    #[test]
    fn last_score_ranking_ablation_runs() {
        let frame = seasonal_frame(400);
        let cfg = TDaubConfig {
            use_projection: false,
            parallel: false,
            ..Default::default()
        };
        let result = run_tdaub(pool(), &frame, &cfg).unwrap();
        assert!(result.reports[0].final_score.is_some());
    }

    #[test]
    fn parallel_and_serial_agree_on_winner() {
        let frame = seasonal_frame(500);
        let serial = run_tdaub(
            pool(),
            &frame,
            &TDaubConfig {
                parallel: false,
                ..Default::default()
            },
        )
        .unwrap();
        let par = run_tdaub(
            pool(),
            &frame,
            &TDaubConfig {
                parallel: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial.best.name(), par.best.name());
    }

    #[test]
    fn run_to_completion_runs_multiple_finalists() {
        let frame = seasonal_frame(500);
        let cfg = TDaubConfig {
            run_to_completion: 3,
            parallel: false,
            ..Default::default()
        };
        let result = run_tdaub(pool(), &frame, &cfg).unwrap();
        let finals = result
            .reports
            .iter()
            .filter(|r| r.final_score.is_some())
            .count();
        assert!(finals >= 3, "{finals} finalists");
    }

    #[test]
    fn execution_report_covers_every_pipeline() {
        let frame = seasonal_frame(400);
        let result = run_tdaub(pool(), &frame, &TDaubConfig::default()).unwrap();
        assert_eq!(result.execution.pipelines.len(), 3);
        assert_eq!(result.execution.survivors(), 3);
        assert!(result.execution.total_allocations() >= 3);
        for p in &result.execution.pipelines {
            assert!(p.failure.is_none(), "{}: {:?}", p.name, p.failure);
        }
    }

    #[test]
    fn ensemble_selection_runs_by_default_and_beats_no_single() {
        let frame = seasonal_frame(500);
        let cfg = TDaubConfig {
            parallel: false,
            ..Default::default()
        };
        let result = run_tdaub(pool(), &frame, &cfg).unwrap();
        let sel = result.ensemble.expect("default config must select");
        let total: f64 = sel.members.iter().map(|m| m.weight).sum();
        assert!((total - 1.0).abs() < 1e-12, "weights sum {total}");
        assert!(
            sel.score <= sel.best_single,
            "ensemble {} worse than best single {}",
            sel.score,
            sel.best_single
        );
        assert!(sel.rounds >= 1);
    }

    #[test]
    fn disabling_ensembling_leaves_ranking_bit_identical() {
        let frame = seasonal_frame(500);
        let on = run_tdaub(
            pool(),
            &frame,
            &TDaubConfig {
                parallel: false,
                ..Default::default()
            },
        )
        .unwrap();
        let off = run_tdaub(
            pool(),
            &frame,
            &TDaubConfig {
                parallel: false,
                ensemble_top_k: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(on.ensemble.is_some());
        assert!(off.ensemble.is_none());
        assert_eq!(on.best.name(), off.best.name());
        assert_eq!(on.reports.len(), off.reports.len());
        for (a, b) in on.reports.iter().zip(off.reports.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.rank, b.rank);
            assert_eq!(
                a.projected_score.to_bits(),
                b.projected_score.to_bits(),
                "{} projected diverged",
                a.name
            );
            assert_eq!(
                a.final_score.map(f64::to_bits),
                b.final_score.map(f64::to_bits),
                "{} final diverged",
                a.name
            );
        }
    }

    #[test]
    fn ensemble_selection_is_deterministic_across_runs() {
        let frame = seasonal_frame(500);
        let run = |parallel: bool| {
            run_tdaub(
                pool(),
                &frame,
                &TDaubConfig {
                    parallel,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let sig = |r: &TDaubResult| {
            r.ensemble.as_ref().map(|s| {
                (
                    s.score.to_bits(),
                    s.rounds,
                    s.members
                        .iter()
                        .map(|m| (m.name.clone(), m.picks, m.weight.to_bits()))
                        .collect::<Vec<_>>(),
                )
            })
        };
        let a = run(false);
        let b = run(false);
        let c = run(true);
        assert_eq!(sig(&a), sig(&b), "serial reruns diverged");
        assert_eq!(sig(&a), sig(&c), "serial vs parallel diverged");
        assert!(sig(&a).is_some());
    }

    #[test]
    fn run_hard_deadline_degrades_to_ranked_survivors() {
        let frame = seasonal_frame(500);
        let cfg = TDaubConfig {
            run_hard_deadline: Some(Duration::ZERO),
            parallel: false,
            ..Default::default()
        };
        // the deadline is already expired at entry, yet the first fixed
        // round always runs: every pipeline holds at least one score and the
        // run still returns ranked survivors instead of an error
        let result = run_tdaub(pool(), &frame, &cfg).unwrap();
        assert!(result.execution.run_deadline_hit, "flag not set");
        assert!(!result.reports.is_empty(), "no survivors ranked");
        assert_eq!(result.reports.first().map(|r| r.rank), Some(1));
        // the truncated run skipped the scoring phase entirely
        assert!(result.reports.iter().all(|r| r.final_score.is_none()));
    }

    #[test]
    fn generous_run_deadline_changes_nothing() {
        let frame = seasonal_frame(400);
        let base = run_tdaub(
            pool(),
            &frame,
            &TDaubConfig {
                parallel: false,
                ..Default::default()
            },
        )
        .unwrap();
        let timed = run_tdaub(
            pool(),
            &frame,
            &TDaubConfig {
                parallel: false,
                run_hard_deadline: Some(Duration::from_secs(3600)),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!timed.execution.run_deadline_hit);
        assert_eq!(base.best.name(), timed.best.name());
        assert_eq!(base.reports.len(), timed.reports.len());
        for (a, b) in base.reports.iter().zip(timed.reports.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.projected_score.to_bits(),
                b.projected_score.to_bits(),
                "{} projected diverged under a generous deadline",
                a.name
            );
        }
    }
}
