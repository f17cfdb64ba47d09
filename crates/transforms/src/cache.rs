//! Cross-pipeline transform cache for the T-Daub hot path.
//!
//! T-Daub evaluates every pipeline on the *same* sequence of data
//! allocations, and most window pipelines share identical look-back flatten
//! configurations — so within a fixed-allocation round the same flatten
//! design matrix is rebuilt once per pipeline, and across rounds each
//! allocation is a strict extension of the previous one. [`TransformCache`]
//! removes both redundancies:
//!
//! * **Sharing within a round** — datasets are memoized under a key of
//!   (frame fingerprint, look-back, horizon). Frame fingerprints are buffer
//!   IDs plus the view window (see [`autoai_tsdata::FrameFingerprint`]),
//!   which is exact because the zero-copy frame views produced by `slice()`
//!   share storage, and an ID is never reused, so a key cannot outlive the
//!   data it names. Entries hold no reference to a caller's buffers, so a
//!   caller that uniquely owns a frame can still grow it in place.
//! * **Extension across rounds** — when a requested view extends the
//!   previously cached view of the same buffers (a suffix for reverse,
//!   most-recent-first allocations; a prefix for forward allocations), only
//!   the window rows the growth adds are computed and the remaining rows
//!   are copied from the cached matrix.
//! * **Lineage-verified extension for derived frames** — a [`frame_op`]
//!   output (a log or difference pass) lives in fresh buffers every
//!   allocation, so buffer identity can never link one round's output to
//!   the next. The cache therefore records each output's *lineage* (root
//!   buffers plus the ordered tag chain) and, when a flatten request's
//!   lineage matches the previous round's entry, verifies bitwise that the
//!   overlapping rows are identical before extending. Transforms whose
//!   overlap is value-stable across allocations (differencing, a log with
//!   an unchanged offset) extend; anything else fails verification and
//!   falls back to a full build — soundness never rests on an assumption
//!   about the transform.
//!
//! [`frame_op`]: TransformCache::frame_op
//!
//! Population is panic-quarantined: if a compute panics, the entry is
//! poisoned to `None` and every caller falls back to computing directly,
//! reproducing the panic inside its own fault-isolation boundary (the
//! T-Daub executor's per-unit `catch_unwind`). The cache never panics and
//! never blocks while holding one of its internal locks, so a crashed
//! pipeline cannot wedge the others.
//!
//! Hit/miss accounting is deterministic: a miss is counted by whichever
//! caller first registers the key (exactly one per key, serialized by the
//! map lock) and every later caller counts a hit, so serial and parallel
//! executions report identical totals.
//!
//! **Zombie-write guard** — the hard-deadline watchdog in the T-Daub
//! executor quarantines a worker by *abandoning* its thread, which may still
//! be executing pipeline code that talks to this cache. Every work unit is
//! therefore stamped with a generation (an *epoch* from [`begin_unit`]) that
//! the executing thread carries in thread-local state
//! ([`enter_unit`]/[`exit_unit`]); when the watchdog quarantines the unit it
//! calls [`retire_unit`]. A thread whose current epoch is retired bypasses
//! the cache entirely — lookups compute privately and publications are
//! discarded — so a zombie can neither poison entries nor perturb the
//! deterministic hit/miss accounting. Epoch `0` (the default for threads
//! outside any supervised unit) is always live. Population uses
//! compute-then-publish rather than blocking `get_or_init` initialization,
//! so a worker wedged mid-build can never wedge the *other* workers behind
//! the same slot: racing builders each compute the (deterministic) value and
//! the first publication wins.
//!
//! [`begin_unit`]: TransformCache::begin_unit
//! [`retire_unit`]: TransformCache::retire_unit

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use autoai_linalg::sync::OrderedMutex;

use autoai_linalg::Matrix;
use autoai_tsdata::{FrameFingerprint, TimeSeriesFrame};

use crate::window::{fill_flatten_rows, flatten_windows, n_windows, WindowDataset};

/// Key for a memoized flatten design matrix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct DatasetKey {
    frame: FrameFingerprint,
    lookback: usize,
    horizon: usize,
}

/// Key for a memoized frame-to-frame operation (e.g. a log or difference
/// transform). The tag must uniquely determine the pure function applied.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FrameKey {
    frame: FrameFingerprint,
    tag: String,
}

/// Stable identity of a frame's computation chain: the root input buffers
/// plus the ordered [`TransformCache::frame_op`] tags applied to them. Two
/// rounds' derived outputs share a lineage even though each lives in fresh
/// buffers; raw views have an empty tag chain and degenerate to buffer
/// identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Lineage {
    buffers: Vec<u64>,
    tags: Vec<String>,
}

/// Grouping key for extension candidates: same lineage, same windowing.
type ExtensionKey = (Lineage, usize, usize);

#[derive(Clone)]
struct DatasetEntry {
    /// The flattened frame, kept only when it is a [`TransformCache::frame_op`]
    /// output: lineage-verified extension reads its rows, and the cache
    /// built those buffers itself. Caller-owned views are never held.
    input: Option<TimeSeriesFrame>,
    data: Arc<WindowDataset>,
}

/// A cache slot: `None` after a quarantined panic (callers fall back),
/// `Some` once populated. `OnceLock` guarantees exactly one computation per
/// key even under the parallel work queue.
type Slot<T> = Arc<OnceLock<Option<T>>>;

/// Snapshot of cache activity, surfaced in the T-Daub `ExecutionReport` and
/// the tdaub bench JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an existing entry.
    pub hits: u64,
    /// Lookups that had to register a new entry.
    pub misses: u64,
    /// Misses served by extending a previous allocation's matrix instead of
    /// rebuilding it from scratch.
    pub extensions: u64,
    /// Bytes of derived data returned without recomputation (hits plus the
    /// copied portion of extensions).
    pub bytes_saved: u64,
    /// Bytes of derived data actually materialized by cache population.
    pub bytes_built: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache, in `[0, 1]`; 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Memoizes flatten-family design matrices and frame-to-frame transform
/// outputs across pipelines and allocations. See the module docs for the
/// keying and fault-isolation contract. Shared by reference
/// (`Arc<TransformCache>`) between the T-Daub executor's workers.
pub struct TransformCache {
    datasets: OrderedMutex<HashMap<DatasetKey, Slot<DatasetEntry>>>,
    frames: OrderedMutex<HashMap<FrameKey, Slot<TimeSeriesFrame>>>,
    /// Newest successfully cached view per (lineage, lookback, horizon) —
    /// the extension candidate for the next allocation.
    latest: OrderedMutex<HashMap<ExtensionKey, FrameFingerprint>>,
    /// Lineage of every `frame_op` output, keyed by its fingerprint; raw
    /// views are absent (their lineage is their buffer list).
    lineages: OrderedMutex<HashMap<FrameFingerprint, Lineage>>,
    /// Next work-unit epoch handed out by [`TransformCache::begin_unit`]
    /// (epoch `0` is reserved for "outside any unit" and is always live).
    next_epoch: AtomicU64,
    /// Epochs of quarantined work units (see the zombie-write guard in the
    /// module docs).
    retired_units: OrderedMutex<HashSet<u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    extensions: AtomicU64,
    bytes_saved: AtomicU64,
    bytes_built: AtomicU64,
}

impl Default for TransformCache {
    fn default() -> Self {
        Self {
            datasets: OrderedMutex::new("cache.datasets", HashMap::new()),
            frames: OrderedMutex::new("cache.frames", HashMap::new()),
            latest: OrderedMutex::new("cache.latest", HashMap::new()),
            lineages: OrderedMutex::new("cache.lineages", HashMap::new()),
            next_epoch: AtomicU64::new(0),
            retired_units: OrderedMutex::new("cache.retired", HashSet::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            extensions: AtomicU64::new(0),
            bytes_saved: AtomicU64::new(0),
            bytes_built: AtomicU64::new(0),
        }
    }
}

thread_local! {
    /// Epoch of the supervised work unit the current thread is executing;
    /// `0` outside any unit.
    static UNIT_EPOCH: Cell<u64> = const { Cell::new(0) };
}

/// When enabled, every cache *hit* on a flatten dataset is re-derived from
/// scratch with a fault-free [`flatten_windows`] build and compared bitwise
/// against the cached entry; mismatches are counted process-wide. This is a
/// test-harness knob for the chaos gauntlet (the gauntlet's caches live
/// inside `run_tdaub` where tests cannot reach them) — it is off by default
/// and costs one relaxed atomic load per hit when disabled.
static VERIFY_HITS: AtomicBool = AtomicBool::new(false);
static HIT_MISMATCHES: AtomicU64 = AtomicU64::new(0);

/// Enable or disable process-wide cache-hit verification. Enabling resets
/// the mismatch counter.
pub fn set_hit_verification(on: bool) {
    if on {
        HIT_MISMATCHES.store(0, Ordering::SeqCst);
    }
    VERIFY_HITS.store(on, Ordering::SeqCst);
}

/// Number of verified cache hits whose bytes differed from a fault-free
/// rebuild since verification was last enabled. Any nonzero value is a bug.
pub fn hit_mismatches() -> u64 {
    HIT_MISMATCHES.load(Ordering::SeqCst)
}

/// Bitwise equality of two window datasets (`to_bits`, so NaNs compare like
/// any other payload).
fn datasets_bits_equal(a: &WindowDataset, b: &WindowDataset) -> bool {
    let matrix_eq = |m: &Matrix, n: &Matrix| {
        m.nrows() == n.nrows()
            && m.ncols() == n.ncols()
            && m.rows_iter()
                .zip(n.rows_iter())
                .all(|(x, y)| x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()))
    };
    matrix_eq(&a.x, &b.x) && matrix_eq(&a.y, &b.y)
}

fn frame_bytes(frame: &TimeSeriesFrame) -> u64 {
    (frame.len() as u64) * (frame.n_series() as u64) * 8
}

/// Bitwise equality of all of `old`'s rows against the same-length row range
/// of `new` starting at `offset` — the soundness gate for extending across
/// derived frames that live in fresh buffers each allocation. Bit equality
/// (not `==`) so NaN rows compare like any other data.
fn rows_match(new: &TimeSeriesFrame, old: &TimeSeriesFrame, offset: usize) -> bool {
    let len = old.len();
    if offset.saturating_add(len) > new.len() || new.n_series() != old.n_series() {
        return false;
    }
    (0..old.n_series()).all(|c| {
        let new_rows = new.series(c).get(offset..offset + len).unwrap_or(&[]);
        old.series(c)
            .iter()
            .zip(new_rows)
            .all(|(a, b)| a.to_bits() == b.to_bits())
            && new_rows.len() == len
    })
}

impl TransformCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh work-unit epoch. The executor stamps each supervised
    /// work unit with one before dispatch; the executing thread announces it
    /// via [`TransformCache::enter_unit`].
    pub fn begin_unit(&self) -> u64 {
        // start at 1: epoch 0 means "outside any unit" and is always live
        self.next_epoch
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(1)
    }

    /// Mark the current thread as executing the work unit with this epoch.
    pub fn enter_unit(&self, epoch: u64) {
        UNIT_EPOCH.with(|e| e.set(epoch));
    }

    /// Clear the current thread's work-unit epoch (back to always-live 0).
    pub fn exit_unit(&self) {
        UNIT_EPOCH.with(|e| e.set(0));
    }

    /// Quarantine a work unit: any thread still executing under this epoch
    /// (a watchdog-abandoned zombie) loses cache access — its lookups
    /// compute privately and its publications are discarded.
    pub fn retire_unit(&self, epoch: u64) {
        if epoch == 0 {
            return;
        }
        if let Ok(mut set) = self.retired_units.lock() {
            set.insert(epoch);
        }
    }

    /// Whether the calling thread's work unit is still live. Threads outside
    /// any unit (epoch 0) are always live; a poisoned retired-set lock is
    /// treated as "not live" so a zombie can never win by poisoning it.
    fn unit_live(&self) -> bool {
        let epoch = UNIT_EPOCH.with(|e| e.get());
        if epoch == 0 {
            return true;
        }
        match self.retired_units.lock() {
            Ok(set) => !set.contains(&epoch),
            Err(_) => false,
        }
    }

    /// Memoized [`flatten_windows`]. Returns `None` when the cache cannot
    /// serve the request (a quarantined panic or a poisoned lock); callers
    /// must then fall back to computing directly, which reproduces any
    /// panic inside their own fault-isolation boundary.
    pub fn flatten(
        &self,
        frame: &TimeSeriesFrame,
        lookback: usize,
        horizon: usize,
    ) -> Option<Arc<WindowDataset>> {
        if !self.unit_live() {
            // Watchdog-abandoned zombie: compute privately without touching
            // the maps or the deterministic hit/miss accounting.
            let built = catch_unwind(AssertUnwindSafe(|| {
                flatten_windows(frame, lookback, horizon)
            }))
            .ok()?;
            return Some(Arc::new(built));
        }
        let fp = frame.fingerprint();
        let key = DatasetKey {
            frame: fp.clone(),
            lookback,
            horizon,
        };
        let (slot, existed) = {
            let mut map = self.datasets.lock().ok()?;
            if let Some(s) = map.get(&key) {
                (Arc::clone(s), true)
            } else {
                let s: Slot<DatasetEntry> = Arc::new(OnceLock::new());
                map.insert(key, Arc::clone(&s));
                (s, false)
            }
        };
        if existed {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let entry = match slot.get() {
            Some(populated) => populated.clone()?,
            None => {
                // Compute outside the slot (never block other workers behind
                // a wedged builder), then publish first-writer-wins. Racing
                // duplicate builds produce identical deterministic entries.
                let computed = self.build_dataset(frame, lookback, horizon);
                if !self.unit_live() {
                    // retired mid-build: discard the publication, keep a
                    // private copy so the zombie's own doomed unit proceeds
                    return computed.map(|e| e.data);
                }
                let _ = slot.set(computed);
                slot.get()?.clone()?
            }
        };
        if existed {
            self.bytes_saved
                .fetch_add(entry.data.bytes(), Ordering::Relaxed);
            if VERIFY_HITS.load(Ordering::Relaxed) {
                // fault-free rebuild straight from the kernel (the chaos
                // injection site lives in build_dataset, not here)
                let rebuilt = flatten_windows(frame, lookback, horizon);
                if !datasets_bits_equal(&entry.data, &rebuilt) {
                    HIT_MISMATCHES.fetch_add(1, Ordering::SeqCst);
                }
            }
        } else {
            let lineage = self.lineage_of(&fp);
            if let Ok(mut latest) = self.latest.lock() {
                latest.insert((lineage, lookback, horizon), fp);
            }
        }
        Some(Arc::clone(&entry.data))
    }

    /// Memoized per-series flatten (the Localized Flatten building block):
    /// equivalent to `flatten_windows(&frame.select(series), ..)`. Because
    /// `select` is a zero-copy view, the key degenerates to the single
    /// column's buffer and per-series datasets are shared like any other.
    pub fn localized_flatten(
        &self,
        frame: &TimeSeriesFrame,
        series: usize,
        lookback: usize,
        horizon: usize,
    ) -> Option<Arc<WindowDataset>> {
        self.flatten(&frame.select(series), lookback, horizon)
    }

    /// Memoized frame-to-frame operation (e.g. a stateless log transform or
    /// a difference pass). `tag` must uniquely determine the pure function
    /// `compute` applies to the frame — two callers using the same tag for
    /// different functions would share each other's outputs. The returned
    /// frame shares buffers with the cached entry, so downstream flatten
    /// lookups on it fingerprint identically across pipelines. Returns
    /// `None` on a quarantined panic; callers fall back to direct compute.
    pub fn frame_op(
        &self,
        frame: &TimeSeriesFrame,
        tag: &str,
        compute: impl FnOnce() -> TimeSeriesFrame,
    ) -> Option<TimeSeriesFrame> {
        if !self.unit_live() {
            // Watchdog-abandoned zombie: compute privately without touching
            // the maps or the deterministic hit/miss accounting.
            return catch_unwind(AssertUnwindSafe(compute)).ok();
        }
        let key = FrameKey {
            frame: frame.fingerprint(),
            tag: tag.to_string(),
        };
        let (slot, existed) = {
            let mut map = self.frames.lock().ok()?;
            if let Some(s) = map.get(&key) {
                (Arc::clone(s), true)
            } else {
                let s: Slot<TimeSeriesFrame> = Arc::new(OnceLock::new());
                map.insert(key, Arc::clone(&s));
                (s, false)
            }
        };
        if existed {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let out = match slot.get() {
            Some(populated) => populated.clone()?,
            None => {
                let computed = catch_unwind(AssertUnwindSafe(|| {
                    let out = compute();
                    self.bytes_built
                        .fetch_add(frame_bytes(&out), Ordering::Relaxed);
                    out
                }))
                .ok();
                if !self.unit_live() {
                    // retired mid-build: discard the publication, keep a
                    // private copy so the zombie's own doomed unit proceeds
                    return computed;
                }
                let _ = slot.set(computed);
                slot.get()?.clone()?
            }
        };
        if existed {
            self.bytes_saved
                .fetch_add(frame_bytes(&out), Ordering::Relaxed);
        } else {
            // record the output's computation chain so a later flatten on it
            // can find the previous allocation's matrix despite fresh buffers
            let mut lineage = self.lineage_of(&frame.fingerprint());
            lineage.tags.push(tag.to_string());
            if let Ok(mut map) = self.lineages.lock() {
                map.insert(out.fingerprint(), lineage);
            }
        }
        Some(out)
    }

    /// The computation-chain identity of a view: its recorded `frame_op`
    /// lineage, or (for raw views) its buffer list with an empty tag chain.
    fn lineage_of(&self, fp: &FrameFingerprint) -> Lineage {
        if let Ok(map) = self.lineages.lock() {
            if let Some(l) = map.get(fp) {
                return l.clone();
            }
        }
        Lineage {
            buffers: fp.buffers().to_vec(),
            tags: Vec::new(),
        }
    }

    /// Drop every entry, extension candidate, and lineage record that
    /// references the given buffer IDs (see [`FrameFingerprint::buffers`]).
    /// This only frees memory: IDs are never reused, so a stale entry can
    /// never match new data. Callers use it when they retire buffers
    /// (replaced or re-based frames) or evict to a byte budget.
    pub fn purge_buffers(&self, buffers: &[u64]) {
        if buffers.is_empty() {
            return;
        }
        let shares = |ids: &[u64]| ids.iter().any(|b| buffers.contains(b));
        if let Ok(mut map) = self.datasets.lock() {
            map.retain(|key, _| !shares(key.frame.buffers()));
        }
        if let Ok(mut map) = self.frames.lock() {
            map.retain(|key, _| !shares(key.frame.buffers()));
        }
        if let Ok(mut map) = self.latest.lock() {
            map.retain(|(lineage, _, _), fp| !shares(fp.buffers()) && !shares(&lineage.buffers));
        }
        if let Ok(mut map) = self.lineages.lock() {
            map.retain(|fp, lineage| !shares(fp.buffers()) && !shares(&lineage.buffers));
        }
    }

    /// Drop the entries and lineage records that derive from the given
    /// buffer IDs, except each (lineage, look-back, horizon)'s newest view —
    /// the extension candidate the next allocation grows from. A caller
    /// that keeps refitting a series growing in place (its IDs never
    /// change, so [`purge_buffers`](Self::purge_buffers) never fires) calls
    /// this after each fit to hold the cache to one view per windowing
    /// instead of one per view any past fit built. Like `purge_buffers` it
    /// only frees memory: a dropped entry is rebuilt bit-identically on
    /// demand.
    pub fn prune_to_latest(&self, buffers: &[u64]) {
        if buffers.is_empty() {
            return;
        }
        // snapshots, so no cache lock is ever held while taking another
        let Ok(lineages) = self.lineages.lock().map(|m| m.clone()) else {
            return;
        };
        let Ok(latest) = self.latest.lock().map(|m| m.clone()) else {
            return;
        };
        let lineage_of = |fp: &FrameFingerprint| {
            lineages.get(fp).cloned().unwrap_or_else(|| Lineage {
                buffers: fp.buffers().to_vec(),
                tags: Vec::new(),
            })
        };
        let derives =
            |fp: &FrameFingerprint| lineage_of(fp).buffers.iter().any(|b| buffers.contains(b));
        // views still named by `latest`; their lineage records stay too, so
        // a later prune can still trace them to these buffers
        let mut kept = HashSet::new();
        if let Ok(mut map) = self.datasets.lock() {
            map.retain(|key, _| {
                if !derives(&key.frame) {
                    return true;
                }
                let newest = latest.get(&(lineage_of(&key.frame), key.lookback, key.horizon))
                    == Some(&key.frame);
                if newest {
                    kept.insert(key.frame.clone());
                }
                newest
            });
        }
        if let Ok(mut map) = self.frames.lock() {
            map.retain(|key, _| !derives(&key.frame));
        }
        if let Ok(mut map) = self.lineages.lock() {
            map.retain(|fp, _| !derives(fp) || kept.contains(fp));
        }
    }

    /// Snapshot the activity counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            extensions: self.extensions.load(Ordering::Relaxed),
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
            bytes_built: self.bytes_built.load(Ordering::Relaxed),
        }
    }

    /// Estimated bytes of derived data resident in populated entries: the
    /// flatten design matrices plus the frame-op output frames (entry keys
    /// and map overhead are not counted). The service layer's
    /// byte-budget eviction ([`ServiceLimits::max_cache_bytes`] in the core
    /// crate) polls this between requests; the sum is order-independent, so
    /// hash-map iteration here cannot perturb any ranking.
    pub fn resident_bytes(&self) -> u64 {
        let mut total: u64 = 0;
        if let Ok(map) = self.datasets.lock() {
            for slot in map.values() {
                if let Some(Some(entry)) = slot.get() {
                    total = total.saturating_add(entry.data.bytes());
                }
            }
        }
        if let Ok(map) = self.frames.lock() {
            for slot in map.values() {
                if let Some(Some(out)) = slot.get() {
                    total = total.saturating_add(frame_bytes(out));
                }
            }
        }
        total
    }

    /// Drop every entry and reset instrumentation. A per-run cache (the
    /// T-Daub runner builds one when no shared cache is given) dies with its
    /// run; the service clears its long-lived cache on invalidation and when
    /// its byte budget finds no model entry left to evict. Otherwise entries
    /// stay until [`purge_buffers`] or [`prune_to_latest`] drops them.
    ///
    /// [`purge_buffers`]: Self::purge_buffers
    /// [`prune_to_latest`]: Self::prune_to_latest
    pub fn clear(&self) {
        if let Ok(mut m) = self.datasets.lock() {
            m.clear();
        }
        if let Ok(mut m) = self.frames.lock() {
            m.clear();
        }
        if let Ok(mut m) = self.latest.lock() {
            m.clear();
        }
        if let Ok(mut m) = self.lineages.lock() {
            m.clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.extensions.store(0, Ordering::Relaxed);
        self.bytes_saved.store(0, Ordering::Relaxed);
        self.bytes_built.store(0, Ordering::Relaxed);
    }

    /// Panic-quarantined dataset population: try the incremental extension
    /// path, fall back to a full [`flatten_windows`] build. `None` records
    /// a quarantined panic.
    fn build_dataset(
        &self,
        frame: &TimeSeriesFrame,
        lookback: usize,
        horizon: usize,
    ) -> Option<DatasetEntry> {
        catch_unwind(AssertUnwindSafe(|| {
            if autoai_chaos::enabled() {
                let k = (lookback as u64) ^ ((horizon as u64) << 16) ^ ((frame.len() as u64) << 32);
                match autoai_chaos::inject("cache.flatten", k) {
                    Some(autoai_chaos::Fault::Panic | autoai_chaos::Fault::TypedError) => {
                        // this closure's catch_unwind quarantines the entry and
                        // callers fall back to a direct, bit-identical rebuild
                        // tscheck:allow(panic): deliberate chaos fault injection
                        panic!("chaos: injected cache build failure")
                    }
                    Some(autoai_chaos::Fault::Delay(ms)) => {
                        std::thread::sleep(std::time::Duration::from_millis(ms))
                    }
                    Some(autoai_chaos::Fault::NanForecast) | None => {}
                }
            }
            let lineage = self.lineage_of(&frame.fingerprint());
            let data = match self.extend_from_previous(frame, &lineage, lookback, horizon) {
                Some(extended) => extended,
                None => {
                    let built = flatten_windows(frame, lookback, horizon);
                    self.bytes_built.fetch_add(built.bytes(), Ordering::Relaxed);
                    built
                }
            };
            DatasetEntry {
                input: (!lineage.tags.is_empty()).then(|| frame.clone()),
                data: Arc::new(data),
            }
        }))
        .ok()
    }

    /// Incremental allocation growth: when `frame` extends the most
    /// recently cached view of the same lineage (suffix for reverse
    /// allocations, prefix for forward), build the new design matrix by
    /// computing only the added window rows and copying the rest from the
    /// cached matrix. Same-buffer views extend on buffer identity alone;
    /// derived frames (fresh buffers each round) extend only after a bitwise
    /// verification of the overlapping rows. Returns `None` whenever the
    /// preconditions don't hold; the result is bitwise identical to a full
    /// rebuild because the copied rows are exactly the windows the two views
    /// provably share.
    fn extend_from_previous(
        &self,
        frame: &TimeSeriesFrame,
        lineage: &Lineage,
        lookback: usize,
        horizon: usize,
    ) -> Option<WindowDataset> {
        let fp = frame.fingerprint();
        let old_fp = {
            let latest = self.latest.lock().ok()?;
            latest.get(&(lineage.clone(), lookback, horizon))?.clone()
        };
        if old_fp == fp {
            return None;
        }
        let slot = {
            let map = self.datasets.lock().ok()?;
            Arc::clone(map.get(&DatasetKey {
                frame: old_fp.clone(),
                lookback,
                horizon,
            })?)
        };
        // Use only fully initialized entries; never block on one mid-build.
        let old = slot.get()?.as_ref()?.clone();
        let old_count = old.data.len();
        if old_count == 0 {
            return None;
        }
        let grown = frame.len().checked_sub(old_fp.rows())?;
        if grown == 0 {
            return None;
        }
        let suffix = if fp.same_buffers(&old_fp) {
            if fp.extends_as_suffix(&old_fp) {
                true
            } else if fp.extends_as_prefix(&old_fp) {
                false
            } else {
                return None;
            }
        } else if rows_match(frame, old.input.as_ref()?, grown) {
            // previous output is the trailing rows → front (suffix) growth
            true
        } else if rows_match(frame, old.input.as_ref()?, 0) {
            // previous output is the leading rows → back (prefix) growth
            false
        } else {
            // overlap not value-stable across allocations (e.g. a transform
            // parameterized by the whole slice): rebuild from scratch
            return None;
        };
        let new_count = n_windows(frame.len(), lookback, horizon);
        if new_count != old_count.checked_add(grown)? {
            return None;
        }
        let xcols = old.data.x.ncols();
        let ycols = old.data.y.ncols();
        if xcols != lookback.saturating_mul(frame.n_series())
            || ycols != horizon.saturating_mul(frame.n_series())
        {
            return None;
        }
        let mut x = Matrix::zeros(new_count, xcols);
        let mut y = Matrix::zeros(new_count, ycols);
        if suffix {
            // Older rows were prepended: the cached windows are the trailing
            // `old_count` rows of the new matrix, shifted by `grown`.
            fill_flatten_rows(
                frame,
                lookback,
                horizon,
                0,
                x.rows_iter_mut().take(grown),
                y.rows_iter_mut().take(grown),
            );
            for (dst, src) in x.rows_iter_mut().skip(grown).zip(old.data.x.rows_iter()) {
                dst.copy_from_slice(src);
            }
            for (dst, src) in y.rows_iter_mut().skip(grown).zip(old.data.y.rows_iter()) {
                dst.copy_from_slice(src);
            }
        } else {
            // Newer rows were appended: the cached windows lead, fresh
            // windows follow.
            for (dst, src) in x.rows_iter_mut().zip(old.data.x.rows_iter()) {
                dst.copy_from_slice(src);
            }
            for (dst, src) in y.rows_iter_mut().zip(old.data.y.rows_iter()) {
                dst.copy_from_slice(src);
            }
            fill_flatten_rows(
                frame,
                lookback,
                horizon,
                old_count,
                x.rows_iter_mut().skip(old_count),
                y.rows_iter_mut().skip(old_count),
            );
        }
        self.extensions.fetch_add(1, Ordering::Relaxed);
        let row_bytes = ((xcols as u64) + (ycols as u64)) * 8;
        self.bytes_built
            .fetch_add((grown as u64) * row_bytes, Ordering::Relaxed);
        self.bytes_saved
            .fetch_add((old_count as u64) * row_bytes, Ordering::Relaxed);
        Some(WindowDataset { x, y })
    }
}

impl std::fmt::Debug for TransformCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransformCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> TimeSeriesFrame {
        TimeSeriesFrame::from_columns(vec![
            (0..n).map(|i| (i as f64).sin() + i as f64 * 0.1).collect(),
            (0..n).map(|i| (i as f64 * 0.7).cos() * 3.0).collect(),
        ])
    }

    #[test]
    fn second_lookup_hits_and_shares_the_dataset() {
        let cache = TransformCache::new();
        let f = frame(40);
        let view = f.slice(10, 40);
        let a = cache.flatten(&view, 4, 2).unwrap();
        let b = cache.flatten(&f.slice(10, 40), 4, 2).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.bytes_saved, a.bytes());
        assert_eq!(*a, flatten_windows(&view, 4, 2));
    }

    #[test]
    fn distinct_windows_or_configs_do_not_collide() {
        let cache = TransformCache::new();
        let f = frame(40);
        let a = cache.flatten(&f.slice(0, 30), 4, 2).unwrap();
        let b = cache.flatten(&f.slice(0, 30), 5, 2).unwrap();
        let c = cache.flatten(&f.slice(5, 30), 4, 2).unwrap();
        assert_eq!(cache.stats().misses, 3);
        assert_ne!(a.x.ncols(), b.x.ncols());
        assert_eq!(*c, flatten_windows(&f.slice(5, 30), 4, 2));
    }

    #[test]
    fn suffix_extension_is_bitwise_identical_to_full_rebuild() {
        let cache = TransformCache::new();
        let f = frame(100);
        // reverse-allocation growth: each view ends at the last row
        let small = f.slice(70, 100);
        let big = f.slice(40, 100);
        let _ = cache.flatten(&small, 6, 3).unwrap();
        let extended = cache.flatten(&big, 6, 3).unwrap();
        assert_eq!(cache.stats().extensions, 1);
        assert_eq!(*extended, flatten_windows(&big, 6, 3));
    }

    #[test]
    fn prefix_extension_is_bitwise_identical_to_full_rebuild() {
        let cache = TransformCache::new();
        let f = frame(100);
        let small = f.slice(0, 55);
        let big = f.slice(0, 90);
        let _ = cache.flatten(&small, 5, 2).unwrap();
        let extended = cache.flatten(&big, 5, 2).unwrap();
        assert_eq!(cache.stats().extensions, 1);
        assert_eq!(*extended, flatten_windows(&big, 5, 2));
    }

    #[test]
    fn extension_chain_accumulates_across_allocations() {
        let cache = TransformCache::new();
        let f = frame(200);
        for start in [150, 100, 50, 0] {
            let view = f.slice(start, 200);
            let got = cache.flatten(&view, 8, 2).unwrap();
            assert_eq!(*got, flatten_windows(&view, 8, 2));
        }
        assert_eq!(cache.stats().extensions, 3);
    }

    #[test]
    fn derived_frame_extension_verifies_by_value() {
        let cache = TransformCache::new();
        let f = frame(120);
        // reverse-allocation rounds of a cached elementwise frame op: each
        // round's output lives in fresh buffers, only the values overlap
        for start in [80, 40, 0] {
            let view = f.slice(start, 120);
            let derived = cache
                .frame_op(&view, "sq", || {
                    TimeSeriesFrame::from_columns(
                        (0..view.n_series())
                            .map(|c| view.series(c).iter().map(|v| v * v).collect())
                            .collect(),
                    )
                })
                .unwrap();
            let got = cache.flatten(&derived, 5, 2).unwrap();
            assert_eq!(*got, flatten_windows(&derived, 5, 2));
        }
        assert_eq!(cache.stats().extensions, 2);
    }

    #[test]
    fn unstable_derived_frames_fail_verification_and_rebuild() {
        let cache = TransformCache::new();
        let f = frame(120);
        // mean-centering depends on the whole slice, so the overlapping
        // rows differ between rounds: verification must reject extension
        // while the output stays correct
        for start in [60, 0] {
            let view = f.slice(start, 120);
            let derived = cache
                .frame_op(&view, "center", || {
                    TimeSeriesFrame::from_columns(
                        (0..view.n_series())
                            .map(|c| {
                                let s = view.series(c);
                                let mean = s.iter().sum::<f64>() / s.len() as f64;
                                s.iter().map(|v| v - mean).collect()
                            })
                            .collect(),
                    )
                })
                .unwrap();
            let got = cache.flatten(&derived, 5, 2).unwrap();
            assert_eq!(*got, flatten_windows(&derived, 5, 2));
        }
        assert_eq!(cache.stats().extensions, 0);
    }

    #[test]
    fn chained_frame_ops_extend_through_their_lineage() {
        let cache = TransformCache::new();
        let f = frame(150);
        // diff(plus1(x)) across three reverse rounds: the flatten input is
        // two frame ops away from the raw buffers
        for start in [100, 50, 0] {
            let view = f.slice(start, 150);
            let a = cache
                .frame_op(&view, "plus1", || {
                    TimeSeriesFrame::from_columns(
                        (0..view.n_series())
                            .map(|c| view.series(c).iter().map(|v| v + 1.0).collect())
                            .collect(),
                    )
                })
                .unwrap();
            let b = cache
                .frame_op(&a, "diff1", || {
                    TimeSeriesFrame::from_columns(
                        (0..a.n_series())
                            .map(|c| {
                                let s = a.series(c);
                                s.iter().zip(s.iter().skip(1)).map(|(p, n)| n - p).collect()
                            })
                            .collect(),
                    )
                })
                .unwrap();
            let got = cache.flatten(&b, 4, 1).unwrap();
            assert_eq!(*got, flatten_windows(&b, 4, 1));
        }
        assert_eq!(cache.stats().extensions, 2);
    }

    #[test]
    fn empty_previous_dataset_falls_back_to_full_build() {
        let cache = TransformCache::new();
        let f = frame(40);
        // too short for any window: cached dataset is empty
        let tiny = f.slice(36, 40);
        assert!(cache.flatten(&tiny, 6, 3).unwrap().is_empty());
        let big = f.slice(0, 40);
        let got = cache.flatten(&big, 6, 3).unwrap();
        assert_eq!(cache.stats().extensions, 0);
        assert_eq!(*got, flatten_windows(&big, 6, 3));
    }

    #[test]
    fn localized_flatten_shares_per_series_entries() {
        let cache = TransformCache::new();
        let f = frame(50);
        let view = f.slice(10, 50);
        for c in 0..2 {
            let got = cache.localized_flatten(&view, c, 4, 1).unwrap();
            assert_eq!(*got, flatten_windows(&view.select(c), 4, 1));
        }
        // same per-series requests from a "different pipeline" all hit
        for c in 0..2 {
            let _ = cache.localized_flatten(&f.slice(10, 50), c, 4, 1).unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
    }

    #[test]
    fn frame_op_memoizes_and_preserves_buffer_identity() {
        let cache = TransformCache::new();
        let f = frame(30);
        let view = f.slice(0, 30);
        let mut calls = 0;
        let mut op = || {
            calls += 1;
            TimeSeriesFrame::from_columns(vec![
                view.series(0).iter().map(|v| v + 1.0).collect(),
                view.series(1).iter().map(|v| v + 1.0).collect(),
            ])
        };
        let a = cache.frame_op(&view, "plus1", &mut op).unwrap();
        let b = cache.frame_op(&view, "plus1", &mut op).unwrap();
        assert_eq!(calls, 1);
        assert_eq!(a, b);
        // the two returned frames share storage, so flatten keys compose
        assert_eq!(a.fingerprint(), b.fingerprint());
        let d1 = cache.flatten(&a, 3, 1).unwrap();
        let d2 = cache.flatten(&b, 3, 1).unwrap();
        assert!(Arc::ptr_eq(&d1, &d2));
    }

    #[test]
    fn panicking_compute_is_quarantined() {
        let cache = TransformCache::new();
        let f = frame(30);
        let boom = cache.frame_op(&f, "boom", || panic!("kernel exploded"));
        assert!(boom.is_none());
        // the poisoned entry keeps answering None without re-panicking
        let again = cache.frame_op(&f, "boom", || f.clone());
        assert!(again.is_none());
        // other entries are unaffected
        assert!(cache.frame_op(&f, "fine", || f.clone()).is_some());
    }

    #[test]
    fn clear_resets_entries_and_stats() {
        let cache = TransformCache::new();
        let f = frame(30);
        let _ = cache.flatten(&f, 3, 1);
        let _ = cache.flatten(&f, 3, 1);
        assert!(cache.stats().hits > 0);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        let _ = cache.flatten(&f, 3, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn retired_unit_bypasses_the_cache_entirely() {
        let cache = TransformCache::new();
        let f = frame(60);
        let view = f.slice(0, 60);
        let epoch = cache.begin_unit();
        cache.enter_unit(epoch);
        cache.retire_unit(epoch);
        // zombie lookups still return correct data but leave no trace
        let got = cache.flatten(&view, 4, 2).unwrap();
        assert_eq!(*got, flatten_windows(&view, 4, 2));
        let op = cache
            .frame_op(&view, "plus1", || {
                TimeSeriesFrame::from_columns(
                    (0..view.n_series())
                        .map(|c| view.series(c).iter().map(|v| v + 1.0).collect())
                        .collect(),
                )
            })
            .unwrap();
        assert_eq!(op.len(), 60);
        assert_eq!(cache.stats(), CacheStats::default());
        cache.exit_unit();
        // the same thread outside the unit uses the cache normally again
        let _ = cache.flatten(&view, 4, 2).unwrap();
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn live_unit_uses_the_cache_normally() {
        let cache = TransformCache::new();
        let f = frame(60);
        let epoch = cache.begin_unit();
        cache.enter_unit(epoch);
        let a = cache.flatten(&f.slice(0, 60), 4, 2).unwrap();
        let b = cache.flatten(&f.slice(0, 60), 4, 2).unwrap();
        cache.exit_unit();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn retiring_one_unit_does_not_affect_another() {
        let cache = TransformCache::new();
        let f = frame(60);
        let dead = cache.begin_unit();
        let live = cache.begin_unit();
        cache.retire_unit(dead);
        cache.enter_unit(live);
        let _ = cache.flatten(&f.slice(0, 60), 4, 2).unwrap();
        cache.exit_unit();
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn hit_verification_accepts_honest_entries() {
        let cache = TransformCache::new();
        let f = frame(80);
        set_hit_verification(true);
        // plain hit plus an extension-produced entry, both must verify
        let _ = cache.flatten(&f.slice(40, 80), 5, 2).unwrap();
        let _ = cache.flatten(&f.slice(40, 80), 5, 2).unwrap();
        let _ = cache.flatten(&f.slice(0, 80), 5, 2).unwrap();
        let _ = cache.flatten(&f.slice(0, 80), 5, 2).unwrap();
        set_hit_verification(false);
        assert_eq!(cache.stats().extensions, 1);
        assert_eq!(hit_mismatches(), 0);
    }

    #[test]
    fn entries_never_block_in_place_growth_of_the_input() {
        let cache = TransformCache::new();
        let mut f = frame(60);
        let derived = cache
            .frame_op(&f, "plus1", || {
                TimeSeriesFrame::from_columns(
                    (0..f.n_series())
                        .map(|c| f.series(c).iter().map(|v| v + 1.0).collect())
                        .collect(),
                )
            })
            .unwrap();
        let _ = cache.flatten(&derived, 4, 2).unwrap();
        let _ = cache.flatten(&f.slice(0, 60), 4, 2).unwrap();
        drop(derived);
        // no entry holds the caller's buffers, so growth keeps their IDs
        let record = f.append(&frame(5));
        assert!(record.identity_preserved(), "{record:?}");
        // and the grown view still extends the entry built before growth
        let before = cache.stats();
        let _ = cache.flatten(&f.slice(0, 60), 4, 2).unwrap();
        let extended = cache.flatten(&f.slice(0, 65), 4, 2).unwrap();
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.extensions, before.extensions + 1);
        assert_eq!(*extended, flatten_windows(&f.slice(0, 65), 4, 2));
    }

    #[test]
    fn purge_buffers_drops_every_reference_to_the_retired_buffers() {
        let cache = TransformCache::new();
        let f = frame(60);
        let derived = cache
            .frame_op(&f, "plus1", || {
                TimeSeriesFrame::from_columns(
                    (0..f.n_series())
                        .map(|c| f.series(c).iter().map(|v| v + 1.0).collect())
                        .collect(),
                )
            })
            .unwrap();
        let _ = cache.flatten(&f.slice(0, 60), 4, 2).unwrap();
        let _ = cache.flatten(&derived, 4, 2).unwrap();
        cache.purge_buffers(f.fingerprint().buffers());
        // raw entry, frame-op entry, and the lineage-linked derived entry
        // are all gone: every lookup is a fresh miss
        let misses = cache.stats().misses;
        let _ = cache.flatten(&f.slice(0, 60), 4, 2).unwrap();
        let _ = cache.frame_op(&f, "plus1", || derived.clone()).unwrap();
        assert_eq!(cache.stats().misses, misses + 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn prune_to_latest_keeps_only_the_extension_candidates() {
        let cache = TransformCache::new();
        let f = frame(150);
        // one reverse round: a raw flatten plus a flatten two frame ops
        // (plus1 → diff1) away from the raw buffers
        let round = |start: usize| {
            let view = f.slice(start, 150);
            let a = cache
                .frame_op(&view, "plus1", || {
                    TimeSeriesFrame::from_columns(
                        (0..view.n_series())
                            .map(|c| view.series(c).iter().map(|v| v + 1.0).collect())
                            .collect(),
                    )
                })
                .unwrap();
            let b = cache
                .frame_op(&a, "diff1", || {
                    TimeSeriesFrame::from_columns(
                        (0..a.n_series())
                            .map(|c| {
                                let s = a.series(c);
                                s.iter().zip(s.iter().skip(1)).map(|(p, n)| n - p).collect()
                            })
                            .collect(),
                    )
                })
                .unwrap();
            let raw = cache.flatten(&view, 4, 1).unwrap();
            let derived = cache.flatten(&b, 4, 1).unwrap();
            assert_eq!(*raw, flatten_windows(&view, 4, 1));
            assert_eq!(*derived, flatten_windows(&b, 4, 1));
            raw.bytes() + derived.bytes()
        };
        round(100);
        let newest = round(50);
        let before = cache.resident_bytes();
        cache.prune_to_latest(f.fingerprint().buffers());
        // only the two newest design matrices survive; frame-op outputs go
        assert_eq!(cache.resident_bytes(), newest);
        assert!(newest < before);

        // the next round still extends both chains from what was kept
        let extensions = cache.stats().extensions;
        let newest = round(0);
        assert_eq!(cache.stats().extensions, extensions + 2);
        cache.prune_to_latest(f.fingerprint().buffers());
        assert_eq!(cache.resident_bytes(), newest);

        // a pruned view is rebuilt on demand; other buffers are untouched
        let g = frame(40);
        let _ = cache.flatten(&g, 4, 1).unwrap();
        let misses = cache.stats().misses;
        let _ = cache.flatten(&f.slice(100, 150), 4, 1).unwrap();
        assert_eq!(cache.stats().misses, misses + 1);
        cache.prune_to_latest(f.fingerprint().buffers());
        let _ = cache.flatten(&g, 4, 1).unwrap();
        assert_eq!(cache.stats().misses, misses + 1);
    }

    #[test]
    fn parallel_lookups_count_like_serial_ones() {
        use std::thread;
        let cache = Arc::new(TransformCache::new());
        let f = frame(120);
        let view = f.slice(20, 120);
        thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let view = view.clone();
                s.spawn(move || {
                    let got = cache.flatten(&view, 6, 2).unwrap();
                    assert_eq!(got.len(), n_windows(100, 6, 2));
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }
}
