//! Lockstep multi-replica simulation with shared row computations and
//! parallel replica advancement.
//!
//! Every Monte Carlo experiment in this workspace (hitting times, phase
//! durations, bias sweeps) averages over independent replicas of the same
//! protocol and initial configuration.  Run one at a time, each replica
//! re-derives the per-counts data its skip-ahead engine needs — the
//! productive row table of a [`BatchedEngine`], the activation law of a
//! sampling dynamic — even though those tables are pure functions of the
//! count vector and the replicas walk heavily overlapping regions of the
//! count space.  [`EnsembleEngine`] removes that waste by advancing `R`
//! replicas in *lockstep rounds*:
//!
//! 1. **Shared row computations.** Between state-changing events a replica's
//!    counts are frozen, so the per-counts tables are exact to share: the
//!    ensemble keeps a counts-keyed cache of [`EnsembleReplica::Shared`]
//!    values, computes each table once, and hands the cached copy to every
//!    replica that currently sits at (or later revisits) the same counts.
//!    All replicas start from the identical configuration, and events move
//!    single agents, so the walks revisit cached counts constantly —
//!    especially in effectively low-dimensional workloads (two opinions, no
//!    undecided pool) where [`EnsembleRunResult::shared_reuse_fraction`]
//!    typically exceeds 90%.  Sharing only pays when the table costs more
//!    than the map traffic, so the cache is *adaptive* by default
//!    ([`SharedCacheMode`]): windows with too little measured reuse turn
//!    the map dormant and recompute into per-replica scratch instead.
//! 2. **Parallel replica advancement.** Rounds are scheduled in *windows*
//!    of [`LOCKSTEP_WINDOW_ROUNDS`] rounds.  At each window boundary the
//!    counts-keyed table map is *frozen*; within the window the live
//!    replicas are partitioned into contiguous chunks over the worker
//!    threads of the shared [`crate::parallel`] layer, and every worker
//!    advances its chunk round by round — reading the frozen map
//!    immutably, computing tables the map lacks into a worker-local
//!    overlay, and drawing each replica's geometric skip and event from
//!    that replica's own RNG.  At the window's end the workers' freshly
//!    computed tables are merged back into the map (in worker order) and
//!    the next window begins.  Freezing per window rather than per round
//!    is what makes the pool affordable: scoped worker threads cost tens
//!    of microseconds to fork/join, which a window of
//!    `R × LOCKSTEP_WINDOW_ROUNDS` events amortizes and a single round of
//!    `R` events would not.
//!
//! # Exactness
//!
//! The ensemble is *bit-exact*, not merely exact in distribution — at every
//! thread count: replica `i` produces the same trajectory, interaction
//! counter and [`RunResult`] as a standalone engine constructed with the
//! same seed (conventionally `master.child(i)`, see
//! [`EnsembleChoice::seeds`]).  The argument has three parts:
//!
//! * the shared tables consume no randomness and are pure functions of the
//!   count vector, so dedup, caching, and *where* a table was computed
//!   (map, overlay, or scratch) cannot alter any replica's draws,
//! * each replica owns its RNG stream, and [`EnsembleReplica`] splits the
//!   standalone `advance` into the same sequence of draws (skip first, then
//!   the event) the standalone path performs — interleaving replicas never
//!   reorders draws *within* one stream, and
//! * the worker partition is deterministic (contiguous chunks in replica
//!   order — see the [`crate::parallel`] determinism contract) and workers
//!   share no mutable state, so thread count and scheduling affect only
//!   which core advances a replica, never what it computes.
//!
//! `tests/ensemble_equivalence.rs` pins this claim for the USD and for all
//! five sampling dynamics, including `threads = 1` vs `threads = T`
//! bit-equality.  Cache statistics ([`EnsembleRunResult::shared_hits`] and
//! friends) are *reported* bookkeeping and do depend on the thread count
//! (each worker counts its own probes); per-replica results never do.
//!
//! # Example
//!
//! ```
//! use pp_core::ensemble::{EnsembleChoice, EnsembleEngine};
//! use pp_core::prelude::*;
//!
//! struct TinyUsd;
//! impl OpinionProtocol for TinyUsd {
//!     fn num_opinions(&self) -> usize { 2 }
//!     fn respond(&self, r: AgentState, i: AgentState) -> AgentState {
//!         match (r, i) {
//!             (AgentState::Decided(a), AgentState::Decided(b)) if a != b => AgentState::Undecided,
//!             (AgentState::Undecided, AgentState::Decided(b)) => AgentState::Decided(b),
//!             _ => r,
//!         }
//!     }
//! }
//!
//! let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
//! let choice = EnsembleChoice::new(8);
//! let replicas: Vec<_> = choice
//!     .seeds(SimSeed::from_u64(7))
//!     .into_iter()
//!     .map(|seed| BatchedEngine::new(TinyUsd, config.clone(), seed))
//!     .collect();
//! let mut ensemble = EnsembleEngine::try_new(replicas)
//!     .unwrap()
//!     .with_parallelism(choice.parallelism());
//! let outcome = ensemble.run(StopCondition::consensus().or_max_interactions(10_000_000));
//! assert!(outcome.all_reached_goal());
//! assert_eq!(outcome.len(), 8);
//! ```

use crate::checkpoint::{
    Checkpoint, EngineCheckpoint, EngineState, EnsembleSnapshot, ReplicaCheckpoint,
};
use crate::config::Configuration;
use crate::engine::{geometric_skip, Advance, BatchedEngine, EngineChoice, StepEngine};
use crate::error::PpError;
use crate::parallel::{self, Parallelism};
use crate::protocol::OpinionProtocol;
use crate::recorder::{NullRecorder, Recorder};
use crate::rng::SimSeed;
use crate::run::{MaintenanceStats, RunOutcome, RunResult};
use crate::stopping::StopCondition;
use crate::telemetry::{MetricsSnapshot, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Default bound on the number of counts-keyed shared tables the ensemble
/// keeps alive (the cache is cleared wholesale when the bound is hit; see
/// [`EnsembleEngine::with_cache_capacity`]).
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

/// Lockstep rounds per scheduling window: the table map freezes at every
/// window boundary, workers advance their replica chunks for this many
/// rounds against the frozen map, and freshly computed tables merge back at
/// the window's end.  Large enough that a window of `R × 64` events
/// amortizes the worker fork/join, small enough that newly discovered
/// count regions become visible to every worker quickly.
pub const LOCKSTEP_WINDOW_ROUNDS: u64 = 64;

/// Workers are only forked when every worker gets at least this many live
/// replicas: below that the per-window fork/join costs more than the
/// advancement it parallelizes.
const MIN_REPLICAS_PER_WORKER: usize = 2;

/// A replica engine that can be advanced in lockstep with its siblings.
///
/// The trait decomposes a skip-ahead `advance` into the pieces the ensemble
/// schedules separately: a per-counts [`Shared`](EnsembleReplica::Shared)
/// table that consumes no randomness (and is therefore exact to dedup across
/// replicas whose counts coincide), the geometric skip draw, and the event
/// draw.  Implementations must consume their RNG in *exactly* the order the
/// standalone [`StepEngine::advance`] does — skip first, then the event —
/// so that a lockstep replica stays bit-identical to a standalone run with
/// the same seed.
pub trait EnsembleReplica: StepEngine {
    /// The per-counts data shared between replicas at the same counts: the
    /// productive row table for [`BatchedEngine`], the activation law for a
    /// sampling dynamic.  Must be a pure function of the count vector.
    /// Shared tables cross worker threads behind [`Arc`]s, so parallel runs
    /// additionally need `Shared: Send + Sync` (every shipped table type
    /// is plain data).
    type Shared;

    /// Computes the shared table for the current counts.  Consumes no RNG.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::UnsupportedEngine`] when the replica cannot
    /// provide a shared skip-ahead table (e.g. a sampling dynamic without
    /// closed-form hooks); [`EnsembleEngine::try_new`] surfaces this as a
    /// construction-time diagnostic.
    fn compute_shared(&self) -> Result<Self::Shared, PpError>;

    /// Derives the shared table for this replica's *current* counts from a
    /// table previously computed at the counts in `prev_key` (cache-key
    /// layout: supports then undecided), by replaying the count delta —
    /// `O(k · changed categories)` instead of a full rebuild.  Consumes no
    /// RNG.  Must be **bit-identical** to
    /// [`compute_shared`](EnsembleReplica::compute_shared); the default
    /// returns `None` (no derivation; the ensemble computes fresh).
    fn derive_shared(&self, prev: &Self::Shared, prev_key: &[u64]) -> Option<Self::Shared> {
        let _ = (prev, prev_key);
        None
    }

    /// The probability that one interaction changes the state, read from the
    /// shared table.  Must equal the value the standalone `advance` derives.
    fn event_probability(&self, shared: &Self::Shared) -> f64;

    /// Draws the geometric number of null interactions preceding the next
    /// event from this replica's own RNG (`None` = the skip provably
    /// overshoots `headroom`; memorylessness makes re-sampling later exact).
    fn draw_skip(&mut self, p: f64, headroom: u64) -> Option<u64>;

    /// Records `skip` null interactions plus the event interaction, then
    /// draws the state-changing event from the shared table (using this
    /// replica's own RNG) and applies it.
    fn apply_event(&mut self, shared: &Self::Shared, skip: u64);

    /// Forwards the interaction counter to `limit` without an event (the
    /// skip overshot, or the configuration is absorbing).
    fn forward_to_limit(&mut self, limit: u64);
}

impl<P: OpinionProtocol> EnsembleReplica for BatchedEngine<P> {
    type Shared = RowTable;

    fn compute_shared(&self) -> Result<RowTable, PpError> {
        Ok(self.row_table())
    }

    fn derive_shared(&self, prev: &RowTable, prev_key: &[u64]) -> Option<RowTable> {
        let matrix = self.productivity_matrix_ref()?;
        let config = StepEngine::configuration(self);
        let k = config.num_opinions();
        if prev_key.len() != k + 1 {
            return None;
        }
        // Replay the count delta onto the productive initiator sums, then
        // re-derive `row = c_cat · S_cat` — exact integers throughout, so
        // the result is bit-identical to `compute_shared` at these counts.
        let mut sums = prev.sums.clone();
        for i in 0..=k {
            let old = prev_key[i];
            let new = config.category_count(i);
            if old == new {
                continue;
            }
            for (cat, sum) in sums.iter_mut().enumerate() {
                if matrix[cat * (k + 1) + i] {
                    if new >= old {
                        *sum += new - old;
                    } else {
                        *sum -= old - new;
                    }
                }
            }
        }
        let mut rows = vec![0u128; k + 1];
        let mut total = 0u128;
        for (cat, row_slot) in rows.iter_mut().enumerate() {
            let row = u128::from(config.category_count(cat)) * u128::from(sums[cat]);
            *row_slot = row;
            total += row;
        }
        let derived = RowTable { rows, total, sums };
        #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
        {
            let fresh = self
                .compute_shared()
                .expect("batched replicas always provide row tables");
            assert_eq!(
                derived, fresh,
                "neighbor-delta derivation diverged from a fresh table at {}",
                config
            );
        }
        Some(derived)
    }

    fn event_probability(&self, shared: &RowTable) -> f64 {
        let n = StepEngine::configuration(self).population() as f64;
        shared.total as f64 / (n * n)
    }

    fn draw_skip(&mut self, p: f64, headroom: u64) -> Option<u64> {
        geometric_skip(self.rng_mut(), p, headroom)
    }

    fn apply_event(&mut self, shared: &RowTable, skip: u64) {
        self.record_event_interactions(skip);
        self.draw_and_apply_event(&shared.rows, &shared.sums, shared.total);
    }

    fn forward_to_limit(&mut self, limit: u64) {
        self.forward_to(limit);
    }
}

/// The shared per-counts table of a [`BatchedEngine`] replica: productive
/// weight per responder category plus their sum (`W`; the event probability
/// is `W/n²`), and the per-category productive initiator sums `S_cat` that
/// let a neighbor's table be derived by replaying a count delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowTable {
    /// Productive weight per responder category (`k + 1` entries, undecided
    /// last), matching the standalone engine's scratch rows bit for bit.
    pub rows: Vec<u128>,
    /// Sum of the rows.
    pub total: u128,
    /// Per-category productive initiator sums (`row_cat = c_cat · S_cat`,
    /// `S_cat ≤ n`), which the event draw reads.  When the protocol opted
    /// out of the delta rule they are derived as `row_cat / c_cat`, and
    /// neighbor-delta derivation is disabled: misses compute fresh.
    pub sums: Vec<u64>,
}

/// An `EngineChoice`-adjacent selector for ensemble runs: how many lockstep
/// replicas to advance, which per-replica backend drives each of them, and
/// how many worker threads spread the replicas.
///
/// Only the batched backend is a valid base — the lockstep engine exists to
/// share skip-ahead tables, which the exact backend does not use, the
/// sharded backend manages per-shard (and spawns threads of its own), and
/// the mean-field backend replaces with a deterministic ODE.  Those
/// combinations are rejected by [`EnsembleChoice::validate`] with an
/// [`PpError::UnsupportedEngine`] naming the offending nesting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnsembleChoice {
    replicas: usize,
    base: EngineChoice,
    /// Defaulted so pre-knob serialized choices keep deserializing once the
    /// real serde is swapped back in (the vendored derive is a no-op).
    #[serde(default)]
    parallelism: Parallelism,
}

impl EnsembleChoice {
    /// An ensemble of `replicas` lockstep copies on the batched base
    /// backend, with automatic worker parallelism (thread count never
    /// affects results — see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    #[must_use]
    pub fn new(replicas: usize) -> Self {
        assert!(replicas >= 1, "an ensemble needs at least one replica");
        EnsembleChoice {
            replicas,
            base: EngineChoice::Batched,
            parallelism: Parallelism::auto(),
        }
    }

    /// Overrides the per-replica base backend (validation will reject
    /// everything but [`EngineChoice::Batched`]; the setter exists so
    /// callers can funnel a user-selected engine through
    /// [`EnsembleChoice::validate`] and get the precise diagnostic).
    #[must_use]
    pub fn with_base(mut self, base: EngineChoice) -> Self {
        self.base = base;
        self
    }

    /// Selects the worker-thread knob (default [`Parallelism::auto`]).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Caps the worker threads at `threads` (shorthand for
    /// [`EnsembleChoice::with_parallelism`] with [`Parallelism::fixed`]).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn threads(self, threads: usize) -> Self {
        self.with_parallelism(Parallelism::fixed(threads))
    }

    /// Number of lockstep replicas.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The per-replica base backend.
    #[must_use]
    pub fn base(&self) -> EngineChoice {
        self.base
    }

    /// The worker-thread knob.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Checks that the base backend can run inside the lockstep ensemble.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::UnsupportedEngine`] for every base but
    /// [`EngineChoice::Batched`] (`"exact-inside-ensemble"`,
    /// `"sharded-inside-ensemble"`, `"mean-field-inside-ensemble"`,
    /// `"hybrid-inside-ensemble"`).
    pub fn validate(&self) -> Result<(), PpError> {
        match self.base {
            EngineChoice::Batched => Ok(()),
            EngineChoice::Exact => Err(PpError::UnsupportedEngine {
                requested: "exact-inside-ensemble",
            }),
            EngineChoice::Sharded => Err(PpError::UnsupportedEngine {
                requested: "sharded-inside-ensemble",
            }),
            EngineChoice::MeanField => Err(PpError::UnsupportedEngine {
                requested: "mean-field-inside-ensemble",
            }),
            EngineChoice::Hybrid => Err(PpError::UnsupportedEngine {
                requested: "hybrid-inside-ensemble",
            }),
        }
    }

    /// The per-replica seeds of an ensemble run: replica `i` gets
    /// `master.child(i)`.  This is the workspace-wide convention the
    /// bit-exactness guarantee is stated against — a standalone engine
    /// seeded with `master.child(i)` reproduces ensemble replica `i`
    /// exactly.
    #[must_use]
    pub fn seeds(&self, master: SimSeed) -> Vec<SimSeed> {
        (0..self.replicas as u64).map(|i| master.child(i)).collect()
    }
}

/// The aggregate outcome of one [`EnsembleEngine::run`]: every replica's
/// [`RunResult`] (index-aligned with the construction order) plus the
/// lockstep bookkeeping the throughput experiments report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleRunResult {
    results: Vec<RunResult>,
    rounds: u64,
    shared_hits: u64,
    shared_misses: u64,
    #[serde(default)]
    shared_derived: u64,
    cache_evictions: u64,
    workers: u64,
    /// Events advanced by dormant scheduling windows (a subset of
    /// `shared_misses` — the adaptive cache books dormant events as misses).
    #[serde(default)]
    dormant_events: u64,
}

impl EnsembleRunResult {
    /// Per-replica results, in construction order (replica `i` matches a
    /// standalone run with seed `master.child(i)`).
    #[must_use]
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// The result of replica `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn replica(&self, i: usize) -> &RunResult {
        &self.results[i]
    }

    /// Number of replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the ensemble held no replicas (never true for results
    /// produced by [`EnsembleEngine::run`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Lockstep rounds the run took (per scheduling window, the longest
    /// worker's round count).
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The largest worker-thread count any scheduling window resolved to
    /// (the count shrinks toward one as replicas finish and the live set
    /// no longer feeds every worker).
    #[must_use]
    pub fn workers(&self) -> u64 {
        self.workers
    }

    /// Shared-table lookups answered from the counts-keyed cache (the
    /// frozen map or a worker's same-window overlay).
    #[must_use]
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits
    }

    /// Shared-table lookups that had to compute a fresh table.
    #[must_use]
    pub fn shared_misses(&self) -> u64 {
        self.shared_misses
    }

    /// Counts-key misses answered by *neighbor-delta derivation*: the table
    /// was derived from the replica's previously used table by replaying
    /// the count delta ([`EnsembleReplica::derive_shared`]) instead of
    /// being rebuilt from the full counts.  Derivations are counted as
    /// misses by the adaptive cache policy (they bypass the map), so
    /// `shared_misses − shared_derived` is the number of full rebuilds.
    #[must_use]
    pub fn shared_derived(&self) -> u64 {
        self.shared_derived
    }

    /// How often the cache was cleared because it hit its capacity bound.
    #[must_use]
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions
    }

    /// Events advanced through dormant scheduling windows (the adaptive
    /// cache's standalone fallback; always 0 under [`SharedCacheMode::Always`]).
    #[must_use]
    pub fn dormant_events(&self) -> u64 {
        self.dormant_events
    }

    /// The run's lockstep bookkeeping and the replicas' engine counters as
    /// one flat [`MetricsSnapshot`] under the canonical metric names — the
    /// surface `usd_run` serializes and the summary printers read, replacing
    /// per-caller aggregation over the bespoke accessors.
    ///
    /// Per-replica counters (`batched.*`, `maintenance.*`,
    /// `engine.rejection_misses`) are summed across replicas; the
    /// `maintenance.*_fraction` gauges are recomputed from the aggregated
    /// counters rather than absorbed (a gauge absorb is last-write-wins).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let mut agg = MaintenanceStats::default();
        for result in &self.results {
            if let Some(t) = result.telemetry() {
                snap.absorb(t);
            } else {
                if let Some(misses) = result.rejection_misses() {
                    snap.add_counter("engine.rejection_misses", misses);
                }
                if let Some(stats) = result.maintenance() {
                    snap.absorb_maintenance(&stats);
                }
            }
            if let Some(stats) = result.maintenance() {
                agg.absorb(stats);
            }
        }
        if let Some(f) = agg.rows_patched_fraction() {
            snap.set_gauge("maintenance.rows_patched_fraction", f);
        }
        if let Some(f) = agg.law_patched_fraction() {
            snap.set_gauge("maintenance.law_patched_fraction", f);
        }
        snap.add_counter("ensemble.rounds", self.rounds);
        snap.add_counter("ensemble.shared_hits", self.shared_hits);
        snap.add_counter("ensemble.shared_misses", self.shared_misses);
        snap.add_counter("ensemble.shared_derived", self.shared_derived);
        snap.add_counter("ensemble.cache_evictions", self.cache_evictions);
        snap.add_counter("ensemble.dormant_events", self.dormant_events);
        snap.set_gauge("ensemble.replicas", self.results.len() as f64);
        snap.set_gauge("ensemble.workers", self.workers as f64);
        snap.set_gauge(
            "ensemble.shared_reuse_fraction",
            self.shared_reuse_fraction(),
        );
        snap
    }

    /// Fraction of shared-table lookups served without recomputation — the
    /// dedup win the lockstep design buys (0 when nothing was looked up).
    #[must_use]
    pub fn shared_reuse_fraction(&self) -> f64 {
        let lookups = self.shared_hits + self.shared_misses;
        if lookups == 0 {
            0.0
        } else {
            self.shared_hits as f64 / lookups as f64
        }
    }

    /// Total interactions advanced across all replicas (the numerator of
    /// the aggregate interactions/sec metric).
    #[must_use]
    pub fn total_interactions(&self) -> u128 {
        self.results
            .iter()
            .map(|r| u128::from(r.interactions()))
            .sum()
    }

    /// Whether every replica reached its structural goal (consensus or
    /// settlement) rather than running out of budget.
    #[must_use]
    pub fn all_reached_goal(&self) -> bool {
        self.results.iter().all(|r| r.outcome().is_goal())
    }
}

/// How the ensemble shares per-counts tables across replicas.
///
/// Sharing is only a win when the table is dearer than the map traffic that
/// caches it: a hit saves one table computation but costs a hash lookup, a
/// miss additionally pays an insert and two allocations.  For the j-Majority
/// family (an `O(k²j³)` dynamic program per table, reuse above 90% in the
/// two-opinion regime) the cache is the whole point; for the USD (an `O(k)`
/// integer table) it can cost an order of magnitude more than it saves.
/// The mode never affects *results* — only wall-clock — because shared
/// tables are pure functions of the counts and consume no randomness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SharedCacheMode {
    /// Windowed self-tuning (the default): cache while the measured reuse
    /// rate clears [`SharedCacheMode::ADAPTIVE_MIN_HIT`], go dormant when
    /// it does not — dormant scheduling windows advance each replica
    /// through its own standalone `advance` in chunks, at standalone cost —
    /// and re-probe after a dormancy period that backs off exponentially
    /// while probes keep failing.
    #[default]
    Adaptive,
    /// Cache unconditionally.
    Always,
    /// Never cache: every scheduling window advances the replicas through
    /// their own standalone `advance` (the ensemble then costs what the
    /// replica loop costs, interleaved at chunk granularity — and still
    /// parallelizes over the worker pool).
    Never,
}

impl SharedCacheMode {
    /// The window hit rate below which [`SharedCacheMode::Adaptive`] turns
    /// the map dormant.
    pub const ADAPTIVE_MIN_HIT: f64 = 0.75;
    /// Lookups per adaptivity window.
    pub const WINDOW: u64 = 4096;
    /// Dormant scheduling windows after the first failed probe; doubled per
    /// consecutive failure up to `<< MAX_BACKOFF`.
    pub const DORMANT_ROUNDS: u64 = 8;
    /// Cap on the exponential dormancy backoff.
    pub const MAX_BACKOFF: u32 = 6;
    /// Events each live replica advances per dormant scheduling window
    /// (chunking keeps the replica's state hot and the scheduling overhead
    /// negligible).
    pub const DORMANT_CHUNK_EVENTS: u32 = 256;
}

/// Counts-keyed cache of shared per-counts tables.  Keys are the full
/// category count vector (supports then undecided); values are refcounted
/// behind [`Arc`]s so a hit costs one pointer clone and tables flow to
/// worker threads without copying.  The map is only ever *read* while
/// workers run (it freezes per scheduling window) and only ever *written*
/// between windows, on the coordinating thread.
#[derive(Debug)]
struct SharedCache<S> {
    map: HashMap<Box<[u64]>, Arc<S>>,
    capacity: usize,
    mode: SharedCacheMode,
    hits: u64,
    misses: u64,
    derived: u64,
    evictions: u64,
    window_lookups: u64,
    window_hits: u64,
    dormant_windows: u64,
    backoff: u32,
}

impl<S> SharedCache<S> {
    fn new(capacity: usize, mode: SharedCacheMode) -> Self {
        SharedCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            mode,
            hits: 0,
            misses: 0,
            derived: 0,
            evictions: 0,
            window_lookups: 0,
            window_hits: 0,
            dormant_windows: 0,
            backoff: 0,
        }
    }

    /// Whether the coming scheduling window should resolve tables through
    /// the (frozen) map.  A `false` window is dormant: the replicas advance
    /// through their standalone paths (in chunks) at standalone cost.
    fn window_uses_map(&mut self) -> bool {
        match self.mode {
            SharedCacheMode::Always => true,
            SharedCacheMode::Never => false,
            SharedCacheMode::Adaptive => {
                if self.dormant_windows > 0 {
                    self.dormant_windows -= 1;
                    false
                } else {
                    true
                }
            }
        }
    }

    /// Accounts the events a dormant window advanced without any table
    /// sharing (they enter the reuse statistics as misses).
    fn note_dormant_events(&mut self, events: u64) {
        self.misses += events;
    }

    /// Merges one scheduling window's worker outputs back into the cache:
    /// lookup statistics fold in worker order, freshly computed tables are
    /// inserted in each worker's computation order (when the map is full it
    /// is cleared wholesale: the replicas cluster around the current
    /// stretch of their drifting trajectories, so dropping the
    /// long-departed tail costs a brief warm-up, not a sustained miss
    /// rate), and the adaptivity window advances.
    fn merge_window(&mut self, outputs: Vec<WindowOutput<S>>) -> u64 {
        let mut rounds = 0;
        for output in outputs {
            rounds = rounds.max(output.rounds);
            self.hits += output.hits;
            self.misses += output.misses;
            self.derived += output.derived;
            self.window_hits += output.hits;
            self.window_lookups += output.hits + output.misses;
            for (key, table) in output.tables {
                if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
                    self.map.clear();
                    self.evictions += 1;
                }
                self.map.insert(key, table);
            }
        }
        if self.window_lookups >= SharedCacheMode::WINDOW {
            // End of an adaptivity window: a reuse rate that no longer pays
            // for the map traffic turns the map dormant until the next
            // probe, with exponentially backed-off dormancy while probes
            // keep failing (entries are kept — probes start warm).
            let rate = self.window_hits as f64 / self.window_lookups as f64;
            if self.mode == SharedCacheMode::Adaptive {
                if rate < SharedCacheMode::ADAPTIVE_MIN_HIT {
                    self.dormant_windows = SharedCacheMode::DORMANT_ROUNDS << self.backoff;
                    self.backoff = (self.backoff + 1).min(SharedCacheMode::MAX_BACKOFF);
                } else {
                    self.backoff = 0;
                }
            }
            self.window_lookups = 0;
            self.window_hits = 0;
        }
        rounds
    }
}

/// A replica's most recently used shared table together with the counts key
/// it was computed at — the *neighbor* that counts-key misses derive from.
type PrevShared<S> = Option<(Box<[u64]>, Arc<S>)>;

/// One worker's mutable view of a replica: the engine, the slot its
/// finished [`RunResult`] lands in (index-aligned with construction order
/// through the deterministic partition), the replica's neighbor table
/// for delta derivation, and the replica's recorder (fed the same
/// event-by-event observation stream [`StepEngine::run_engine_recorded`]
/// produces; [`NullRecorder`]s on the plain [`EnsembleEngine::run`] path).
struct ReplicaSlot<'a, E: EnsembleReplica, R: Recorder> {
    replica: &'a mut E,
    result: &'a mut Option<RunResult>,
    prev: &'a mut PrevShared<E::Shared>,
    recorder: &'a mut R,
}

/// What one worker brings back from a scheduling window: the tables it had
/// to compute (in computation order), its lookup statistics, and how many
/// rounds it actually ran (workers stop early once their chunk finishes).
struct WindowOutput<S> {
    tables: Vec<(Box<[u64]>, Arc<S>)>,
    hits: u64,
    misses: u64,
    derived: u64,
    rounds: u64,
    events: u64,
}

/// Builds the counts key of a configuration into `key` (supports then
/// undecided — the same layout `SharedCache` stores).
fn counts_key(config: &Configuration, key: &mut Vec<u64>) {
    key.clear();
    key.extend_from_slice(config.supports());
    key.push(config.undecided());
}

/// Finishes a replica whose stop condition is met, mirroring the standalone
/// driver's goal-before-budget order.  Returns `false` when the replica
/// stays live.
fn try_finish<E: EnsembleReplica, R: Recorder>(
    slot: &mut ReplicaSlot<'_, E, R>,
    stop: &StopCondition,
) -> bool {
    let replica = &*slot.replica;
    if stop.goal_met(replica.configuration()) {
        let outcome = if replica.configuration().is_consensus() {
            RunOutcome::Consensus
        } else {
            RunOutcome::OpinionSettled
        };
        *slot.result = Some(finish(replica, outcome));
        return true;
    }
    if stop
        .max_interactions()
        .is_some_and(|b| replica.interactions() >= b)
    {
        *slot.result = Some(finish(replica, RunOutcome::BudgetExhausted));
        return true;
    }
    false
}

/// Advances one worker's chunk through a mapped scheduling window: up to
/// [`LOCKSTEP_WINDOW_ROUNDS`] lockstep rounds against the frozen `map`,
/// with misses computed into a worker-local overlay that the coordinator
/// merges afterwards.
fn advance_window_mapped<E: EnsembleReplica, R: Recorder>(
    slots: &mut [ReplicaSlot<'_, E, R>],
    map: &HashMap<Box<[u64]>, Arc<E::Shared>>,
    stop: &StopCondition,
    limit: u64,
) -> WindowOutput<E::Shared> {
    let mut out = WindowOutput {
        tables: Vec::new(),
        hits: 0,
        misses: 0,
        derived: 0,
        rounds: 0,
        events: 0,
    };
    let mut overlay: HashMap<Box<[u64]>, Arc<E::Shared>> = HashMap::new();
    let mut key: Vec<u64> = Vec::new();
    for _ in 0..LOCKSTEP_WINDOW_ROUNDS {
        let mut advanced_any = false;
        for slot in slots.iter_mut() {
            if slot.result.is_some() || try_finish(slot, stop) {
                continue;
            }
            advanced_any = true;
            let replica = &mut *slot.replica;
            // Resolve the shared table: frozen global map first, then this
            // window's worker-local overlay, then derive from the replica's
            // previously used table by replaying the count delta, then
            // compute fresh.  All four paths yield bit-identical tables
            // (pure functions of the counts).
            counts_key(replica.configuration(), &mut key);
            let shared = if let Some(table) = map.get(key.as_slice()) {
                out.hits += 1;
                Arc::clone(table)
            } else if let Some(table) = overlay.get(key.as_slice()) {
                out.hits += 1;
                Arc::clone(table)
            } else {
                out.misses += 1;
                let derived = slot
                    .prev
                    .as_ref()
                    .and_then(|(prev_key, prev)| replica.derive_shared(prev, prev_key));
                let table = match derived {
                    Some(table) => {
                        out.derived += 1;
                        Arc::new(table)
                    }
                    None => Arc::new(
                        replica
                            .compute_shared()
                            .expect("replica stopped providing shared tables mid-run"),
                    ),
                };
                let boxed = key.clone().into_boxed_slice();
                overlay.insert(boxed.clone(), Arc::clone(&table));
                *slot.prev = Some((boxed.clone(), Arc::clone(&table)));
                out.tables.push((boxed, Arc::clone(&table)));
                table
            };
            let p = replica.event_probability(&shared);
            if p <= 0.0 {
                replica.forward_to_limit(limit);
                assert!(
                    stop.max_interactions().is_some() || stop.goal_met(replica.configuration()),
                    "absorbing configuration {} can never meet the stop condition",
                    replica.configuration()
                );
                continue;
            }
            let headroom = limit - replica.interactions();
            match replica.draw_skip(p, headroom) {
                Some(skip) => {
                    replica.apply_event(&shared, skip);
                    out.events += 1;
                    slot.recorder
                        .record(replica.interactions(), replica.configuration());
                }
                None => replica.forward_to_limit(limit),
            }
        }
        if !advanced_any {
            break;
        }
        out.rounds += 1;
    }
    out
}

/// Advances one worker's chunk through a dormant scheduling window (cache
/// policy decided the map does not pay): every live replica advances
/// through its own standalone `advance`, a chunk of events at a time —
/// bit-identical draws at standalone cost and locality, no table
/// resolution, no refcount traffic.  Returns the events advanced.
fn advance_window_dormant<E: EnsembleReplica, R: Recorder>(
    slots: &mut [ReplicaSlot<'_, E, R>],
    stop: &StopCondition,
    limit: u64,
) -> u64 {
    let mut events = 0u64;
    for slot in slots.iter_mut() {
        if slot.result.is_some() || try_finish(slot, stop) {
            continue;
        }
        let replica = &mut *slot.replica;
        for _ in 0..SharedCacheMode::DORMANT_CHUNK_EVENTS {
            if stop.goal_met(replica.configuration())
                || stop
                    .max_interactions()
                    .is_some_and(|b| replica.interactions() >= b)
            {
                break;
            }
            match StepEngine::advance(replica, limit) {
                Advance::Event => {
                    events += 1;
                    slot.recorder
                        .record(replica.interactions(), replica.configuration());
                }
                Advance::LimitReached => break,
                Advance::Absorbed => {
                    assert!(
                        stop.max_interactions().is_some() || stop.goal_met(replica.configuration()),
                        "absorbing configuration {} can never meet the stop condition",
                        replica.configuration()
                    );
                    break;
                }
            }
        }
    }
    events
}

/// Advances `R` replicas of one protocol/configuration in lockstep rounds
/// with counts-deduplicated shared tables and worker-parallel replica
/// advancement (module docs have the full design and exactness argument).
///
/// Worker threads come from the shared [`crate::parallel`] layer; select
/// the count with [`EnsembleEngine::with_parallelism`].  Thread count never
/// affects results, only wall-clock.
#[derive(Debug)]
pub struct EnsembleEngine<E: EnsembleReplica>
where
    E::Shared: std::fmt::Debug,
{
    replicas: Vec<E>,
    cache: SharedCache<E::Shared>,
    parallelism: Parallelism,
    rounds: u64,
    dormant_events: u64,
    tel: Telemetry,
}

impl<E: EnsembleReplica> EnsembleEngine<E>
where
    E::Shared: std::fmt::Debug,
{
    /// Builds a lockstep ensemble over the given replicas (conventionally
    /// all constructed from one configuration with seeds
    /// [`EnsembleChoice::seeds`]).
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Config`] (empty population) when `replicas` is
    /// empty, [`PpError::OpinionCountMismatch`] when the replicas disagree
    /// on the opinion count, and propagates the first replica's
    /// [`EnsembleReplica::compute_shared`] error when the backend cannot
    /// provide shared tables (e.g. a sampling dynamic without skip-ahead
    /// hooks).
    pub fn try_new(replicas: Vec<E>) -> Result<Self, PpError> {
        let Some(first) = replicas.first() else {
            return Err(PpError::Config(crate::error::ConfigError::EmptyPopulation));
        };
        let k = first.configuration().num_opinions();
        for replica in &replicas {
            if replica.configuration().num_opinions() != k {
                return Err(PpError::OpinionCountMismatch {
                    protocol: k,
                    configuration: replica.configuration().num_opinions(),
                });
            }
        }
        // Surface "this backend cannot share tables" at construction, not
        // mid-run: the shipped dynamics support every configuration, so a
        // failure here is the caller requesting an unsupported combination.
        first.compute_shared()?;
        Ok(EnsembleEngine {
            replicas,
            cache: SharedCache::new(DEFAULT_CACHE_CAPACITY, SharedCacheMode::default()),
            parallelism: Parallelism::auto(),
            rounds: 0,
            dormant_events: 0,
            tel: Telemetry::disabled(),
        })
    }

    /// Attaches a telemetry handle: scheduling windows open
    /// `ensemble.window` spans, worker chunks open `ensemble.mapped` /
    /// `ensemble.dormant` spans on their worker track, and each run folds
    /// its lockstep counters (`ensemble.*`) into the registry.  Telemetry
    /// never consumes randomness, so attaching a handle cannot change any
    /// replica's trajectory (see [`crate::telemetry`]).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Bounds the number of cached shared tables (default
    /// [`DEFAULT_CACHE_CAPACITY`]).  Smaller caches trade recomputation for
    /// memory; the cache is cleared wholesale when the bound is hit.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = SharedCache::new(capacity, self.cache.mode);
        self
    }

    /// Selects the shared-table caching policy (default
    /// [`SharedCacheMode::Adaptive`]).  Never affects results, only
    /// wall-clock — see [`SharedCacheMode`].
    #[must_use]
    pub fn with_cache_mode(mut self, mode: SharedCacheMode) -> Self {
        self.cache = SharedCache::new(self.cache.capacity, mode);
        self
    }

    /// Selects the worker-thread knob (default [`Parallelism::auto`]).
    /// Never affects results, only wall-clock — see the module docs.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The worker-thread knob this engine runs with.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The replicas, in construction order.
    #[must_use]
    pub fn replicas(&self) -> &[E] {
        &self.replicas
    }

    /// Number of replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the ensemble holds no replicas (construction rejects this).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Runs every replica until it meets the stop condition, advancing the
    /// live replicas in worker-parallel lockstep windows, and returns the
    /// index-aligned per-replica results.  Each replica's result is
    /// identical to what the standalone `run_engine` would return for the
    /// same seed, at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the stop condition is unbounded, if a replica reaches an
    /// absorbing configuration that cannot meet a budget-less stop
    /// condition (the same loud-failure contract as
    /// [`StepEngine::run_engine_recorded`]), or if a replica stops
    /// providing shared tables mid-run (impossible for the shipped
    /// backends).
    pub fn run(&mut self, stop: StopCondition) -> EnsembleRunResult
    where
        E: Send,
        E::Shared: Send + Sync,
    {
        let mut recorders = vec![NullRecorder; self.replicas.len()];
        self.run_recorded(stop, &mut recorders)
    }

    /// Runs every replica like [`EnsembleEngine::run`], feeding replica
    /// `i`'s initial and every changed configuration to `recorders[i]` —
    /// the same observation stream [`StepEngine::run_engine_recorded`]
    /// produces for a standalone same-seed run: one `record` call with the
    /// starting configuration, then one per state-changing event (skipped
    /// null interactions are not observed; budget-exhausted forwarding
    /// records nothing, exactly like the standalone skip-ahead path).
    ///
    /// Recorders run on the worker threads (hence `R: Send`) but only ever
    /// observe their own replica, in that replica's event order.
    ///
    /// # Panics
    ///
    /// Panics if `recorders.len() != self.len()`, plus everything
    /// [`EnsembleEngine::run`] panics on.
    pub fn run_recorded<R>(&mut self, stop: StopCondition, recorders: &mut [R]) -> EnsembleRunResult
    where
        E: Send,
        E::Shared: Send + Sync,
        R: Recorder + Send,
    {
        self.run_windows_recorded(stop, recorders, u64::MAX)
            .expect("an unbounded window budget can never pause")
    }

    /// Runs at most `max_windows` scheduling windows toward the stop
    /// condition, recording nothing.  Returns `None` when the window budget
    /// ran out with live replicas remaining — the *pause* point the
    /// checkpoint layer captures at (see [`crate::checkpoint`]): call
    /// [`Checkpoint::capture`] on the paused engine, and resume (here or in
    /// a restored engine) by calling this again **with the same `stop`**.
    /// Pausing discards the paused leg's partial bookkeeping; the
    /// completing call recomputes every replica's [`RunResult`] purely from
    /// replica state, so per-replica results are bit-identical to an
    /// uninterrupted [`EnsembleEngine::run`].
    ///
    /// # Panics
    ///
    /// Everything [`EnsembleEngine::run`] panics on.
    pub fn run_windows(
        &mut self,
        stop: StopCondition,
        max_windows: u64,
    ) -> Option<EnsembleRunResult>
    where
        E: Send,
        E::Shared: Send + Sync,
    {
        let mut recorders = vec![NullRecorder; self.replicas.len()];
        self.run_windows_recorded(stop, &mut recorders, max_windows)
    }

    /// Recorded counterpart of [`EnsembleEngine::run_windows`].  Every call
    /// re-records each replica's current configuration first (the same
    /// leading snapshot [`StepEngine::run_engine_recorded`] emits), so a
    /// resumed run's stream starts with a duplicate of the pause-point
    /// entry; splice streams accordingly.
    ///
    /// # Panics
    ///
    /// Everything [`EnsembleEngine::run_recorded`] panics on.
    pub fn run_windows_recorded<R>(
        &mut self,
        stop: StopCondition,
        recorders: &mut [R],
        max_windows: u64,
    ) -> Option<EnsembleRunResult>
    where
        E: Send,
        E::Shared: Send + Sync,
        R: Recorder + Send,
    {
        assert!(
            stop.is_bounded(),
            "stop condition can never terminate the run"
        );
        assert_eq!(
            recorders.len(),
            self.replicas.len(),
            "one recorder per replica"
        );
        for (replica, recorder) in self.replicas.iter().zip(recorders.iter_mut()) {
            recorder.record(replica.interactions(), replica.configuration());
        }
        let rounds_before = self.rounds;
        let dormant_before = self.dormant_events;
        // Events observed by the recorders this run (one `record` call per
        // event, plus the initial snapshot) — drained into the registry as
        // `ensemble.recorded_events` when telemetry is attached.
        let mut events_observed = 0u64;
        let hits_before = self.cache.hits;
        let misses_before = self.cache.misses;
        let derived_before = self.cache.derived;
        let evictions_before = self.cache.evictions;
        let replica_count = self.replicas.len();
        let mut results: Vec<Option<RunResult>> = vec![None; replica_count];
        // Per-replica neighbor tables for delta derivation; scoped to one
        // run (stale tables from a previous run would still derive
        // correctly, but the counts jump at re-initialization makes a
        // fresh start cheaper).
        let mut prevs: Vec<PrevShared<E::Shared>> = (0..replica_count).map(|_| None).collect();
        let limit = stop.max_interactions().unwrap_or(u64::MAX);
        let mut workers_used = 1u64;
        let mut windows_run = 0u64;

        loop {
            // Per-window live view: exclusive access to every unfinished
            // replica, its result slot and its recorder, in construction
            // order, ready for the deterministic contiguous partition.
            let mut slots: Vec<ReplicaSlot<'_, E, R>> = self
                .replicas
                .iter_mut()
                .zip(results.iter_mut())
                .zip(prevs.iter_mut())
                .zip(recorders.iter_mut())
                .filter(|(((_, result), _), _)| result.is_none())
                .map(|(((replica, result), prev), recorder)| ReplicaSlot {
                    replica,
                    result,
                    prev,
                    recorder,
                })
                .collect();
            if slots.is_empty() {
                break;
            }
            if windows_run >= max_windows {
                // Pause: live replicas remain but the window budget is
                // spent.  Partial results and neighbor tables are dropped —
                // the completing call recomputes both, bit-identically.
                return None;
            }
            // Re-resolved per window so tail windows (most replicas
            // finished) fall back to inline execution instead of forking
            // workers for a handful of live replicas.
            let workers = self
                .parallelism
                .resolve(slots.len() / MIN_REPLICAS_PER_WORKER)
                .max(1);
            workers_used = workers_used.max(workers as u64);
            let _window = self.tel.span("ensemble.window");
            if self.cache.window_uses_map() {
                // Freeze the map for the window: workers read it immutably
                // and compute anything it lacks into their own overlays.
                let map = &self.cache.map;
                let outputs = parallel::map_chunks_traced(
                    workers,
                    &self.tel,
                    "ensemble.mapped",
                    &mut slots,
                    |_, chunk| advance_window_mapped(chunk, map, &stop, limit),
                );
                drop(slots);
                events_observed += outputs.iter().map(|o| o.events).sum::<u64>();
                self.rounds += self.cache.merge_window(outputs);
            } else {
                let events = parallel::map_chunks_traced(
                    workers,
                    &self.tel,
                    "ensemble.dormant",
                    &mut slots,
                    |_, chunk| advance_window_dormant(chunk, &stop, limit),
                );
                drop(slots);
                self.rounds += 1;
                let events: u64 = events.into_iter().sum();
                events_observed += events;
                self.dormant_events += events;
                self.cache.note_dormant_events(events);
            }
            windows_run += 1;
        }

        let result = EnsembleRunResult {
            results: results
                .into_iter()
                .map(|r| r.expect("every replica finished"))
                .collect(),
            rounds: self.rounds - rounds_before,
            shared_hits: self.cache.hits - hits_before,
            shared_misses: self.cache.misses - misses_before,
            shared_derived: self.cache.derived - derived_before,
            cache_evictions: self.cache.evictions - evictions_before,
            workers: workers_used,
            dormant_events: self.dormant_events - dormant_before,
        };
        if self.tel.is_enabled() {
            self.tel.counter("ensemble.rounds").add(result.rounds);
            self.tel
                .counter("ensemble.shared_hits")
                .add(result.shared_hits);
            self.tel
                .counter("ensemble.shared_misses")
                .add(result.shared_misses);
            self.tel
                .counter("ensemble.shared_derived")
                .add(result.shared_derived);
            self.tel
                .counter("ensemble.cache_evictions")
                .add(result.cache_evictions);
            self.tel
                .counter("ensemble.dormant_events")
                .add(result.dormant_events);
            self.tel
                .counter("ensemble.recorded_events")
                .add(events_observed);
            self.tel
                .gauge("ensemble.replicas")
                .set(result.results.len() as f64);
            self.tel
                .gauge("ensemble.workers")
                .set(result.workers as f64);
        }
        Some(result)
    }

    /// Snapshots the ensemble's trajectory-relevant state for
    /// [`Checkpoint::capture`]: every replica's [`EngineSnapshot`] (in
    /// construction order) plus the cumulative `rounds` / `dormant_events`
    /// bookkeeping.  Capture only at a *pause* point — between
    /// [`EnsembleEngine::run_windows`] calls — never mid-window.  The
    /// shared-table cache, neighbor tables and adaptivity statistics are
    /// *not* captured: tables are pure functions of the counts, so a
    /// restored ensemble recomputes them bit-identically (a cold cache
    /// costs wall-clock, never a diverged draw).
    pub fn capture_state(&self) -> EnsembleSnapshot
    where
        E: ReplicaCheckpoint,
    {
        EnsembleSnapshot {
            replicas: self
                .replicas
                .iter()
                .map(ReplicaCheckpoint::capture_replica)
                .collect(),
            rounds: self.rounds,
            dormant_events: self.dormant_events,
        }
    }

    /// Restores an ensemble from a checkpoint captured by
    /// [`Checkpoint::capture`] on an [`EnsembleEngine`].  Resuming with
    /// [`EnsembleEngine::run_windows`] **under the same stop condition** the
    /// interrupted run used produces per-replica results bit-identical to
    /// the uninterrupted run, at every thread count (parallelism, cache
    /// mode/capacity and telemetry are construction-time knobs — reapply
    /// them with the usual builders; none of them affects results).
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the checkpoint holds a
    /// different engine kind, and propagates replica-restore and
    /// [`EnsembleEngine::try_new`] validation errors.
    pub fn restore(ctx: &E::Context, checkpoint: &Checkpoint) -> Result<Self, PpError>
    where
        E: ReplicaCheckpoint,
    {
        match checkpoint.engine() {
            EngineState::Ensemble(snapshot) => Self::restore_snapshot(ctx, snapshot),
            _ => Err(checkpoint.kind_mismatch("ensemble")),
        }
    }

    /// Restores an ensemble directly from an [`EnsembleSnapshot`] (the
    /// payload [`EnsembleEngine::restore`] unwraps).
    ///
    /// # Errors
    ///
    /// Propagates per-replica restore errors and
    /// [`EnsembleEngine::try_new`] validation errors.
    pub fn restore_snapshot(ctx: &E::Context, snapshot: &EnsembleSnapshot) -> Result<Self, PpError>
    where
        E: ReplicaCheckpoint,
    {
        let replicas = snapshot
            .replicas
            .iter()
            .map(|s| E::restore_replica(ctx, s))
            .collect::<Result<Vec<_>, _>>()?;
        let mut engine = Self::try_new(replicas)?;
        engine.rounds = snapshot.rounds;
        engine.dormant_events = snapshot.dormant_events;
        Ok(engine)
    }
}

impl<E> EngineCheckpoint for EnsembleEngine<E>
where
    E: EnsembleReplica + ReplicaCheckpoint,
    E::Shared: std::fmt::Debug,
{
    fn capture_engine(&self) -> EngineState {
        EngineState::Ensemble(self.capture_state())
    }
}

/// A finished replica's result, carrying the same metadata the standalone
/// `run_engine` records.
fn finish<E: StepEngine>(replica: &E, outcome: RunOutcome) -> RunResult {
    RunResult::new(
        outcome,
        replica.interactions(),
        replica.configuration().clone(),
    )
    .with_scheduler(replica.scheduler_name())
    .with_rejection_misses(replica.rejection_misses())
    .with_maintenance(replica.maintenance())
    .with_telemetry(replica.telemetry())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opinion::AgentState;

    /// The 2-opinion USD with closed-form batching hooks.
    #[derive(Debug, Clone)]
    struct Usd2;

    impl OpinionProtocol for Usd2 {
        fn num_opinions(&self) -> usize {
            2
        }
        fn respond(&self, r: AgentState, i: AgentState) -> AgentState {
            match (r, i) {
                (AgentState::Decided(a), AgentState::Decided(b)) if a != b => AgentState::Undecided,
                (AgentState::Undecided, AgentState::Decided(b)) => AgentState::Decided(b),
                _ => r,
            }
        }
        fn name(&self) -> &str {
            "usd-2"
        }
    }

    fn ensemble(
        counts: Vec<u64>,
        undecided: u64,
        replicas: usize,
    ) -> EnsembleEngine<BatchedEngine<Usd2>> {
        let config = Configuration::from_counts(counts, undecided).unwrap();
        let members = EnsembleChoice::new(replicas)
            .seeds(SimSeed::from_u64(99))
            .into_iter()
            .map(|seed| BatchedEngine::new(Usd2, config.clone(), seed))
            .collect();
        EnsembleEngine::try_new(members).unwrap()
    }

    #[test]
    fn replicas_match_standalone_runs_bit_for_bit() {
        let config = Configuration::from_counts(vec![400, 100], 0).unwrap();
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let mut ens = ensemble(vec![400, 100], 0, 6);
        let outcome = ens.run(stop);
        for (i, seed) in EnsembleChoice::new(6)
            .seeds(SimSeed::from_u64(99))
            .into_iter()
            .enumerate()
        {
            let mut standalone = BatchedEngine::new(Usd2, config.clone(), seed);
            let expected = standalone.run_engine(stop);
            assert_eq!(outcome.replica(i), &expected, "replica {i} diverged");
        }
        assert!(outcome.all_reached_goal());
        assert!(outcome.rounds() > 0);
        assert!(outcome.workers() >= 1);
    }

    #[test]
    fn every_thread_count_produces_identical_results() {
        // The worker partition is deterministic and workers share no
        // mutable state, so the thread knob trades wall-clock only.
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let reference = ensemble(vec![400, 150], 50, 7)
            .with_parallelism(Parallelism::single())
            .run(stop);
        for threads in [2usize, 3, 8] {
            let outcome = ensemble(vec![400, 150], 50, 7)
                .with_parallelism(Parallelism::fixed(threads))
                .run(stop);
            assert_eq!(
                outcome.results(),
                reference.results(),
                "threads = {threads} diverged"
            );
        }
        let auto = ensemble(vec![400, 150], 50, 7)
            .with_parallelism(Parallelism::auto())
            .run(stop);
        assert_eq!(auto.results(), reference.results(), "auto diverged");
    }

    #[test]
    fn shared_tables_are_deduplicated_across_identical_replicas() {
        // All replicas start at identical counts, so the first rounds
        // compute one table per worker at most: misses stay far below
        // lookups.
        let mut ens = ensemble(vec![900, 100], 0, 16).with_cache_mode(SharedCacheMode::Always);
        let outcome = ens.run(StopCondition::consensus().or_max_interactions(5_000_000));
        assert!(outcome.shared_hits() > 0);
        assert!(
            outcome.shared_reuse_fraction() > 0.3,
            "reuse fraction {} too low",
            outcome.shared_reuse_fraction()
        );
        assert_eq!(outcome.cache_evictions(), 0);
        assert!(outcome.total_interactions() > 0);
    }

    #[test]
    fn every_cache_mode_produces_identical_results() {
        // The caching policy trades wall-clock only: all three modes must
        // return bit-identical per-replica results.
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let reference = ensemble(vec![500, 150], 50, 5)
            .with_cache_mode(SharedCacheMode::Always)
            .run(stop);
        for mode in [SharedCacheMode::Adaptive, SharedCacheMode::Never] {
            let outcome = ensemble(vec![500, 150], 50, 5)
                .with_cache_mode(mode)
                .run(stop);
            assert_eq!(outcome.results(), reference.results(), "{mode:?} diverged");
        }
        // The uncached mode never touches the map.
        let never = ensemble(vec![500, 150], 50, 5)
            .with_cache_mode(SharedCacheMode::Never)
            .run(stop);
        assert_eq!(never.shared_hits(), 0);
        assert!(never.shared_misses() > 0);
    }

    #[test]
    fn tiny_cache_capacity_still_produces_exact_results() {
        let config = Configuration::from_counts(vec![300, 100], 0).unwrap();
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let mut ens = ensemble(vec![300, 100], 0, 4)
            .with_cache_capacity(2)
            .with_cache_mode(SharedCacheMode::Always);
        let outcome = ens.run(stop);
        assert!(outcome.cache_evictions() > 0, "capacity 2 must evict");
        for (i, seed) in EnsembleChoice::new(4)
            .seeds(SimSeed::from_u64(99))
            .into_iter()
            .enumerate()
        {
            let mut standalone = BatchedEngine::new(Usd2, config.clone(), seed);
            assert_eq!(outcome.replica(i), &standalone.run_engine(stop));
        }
    }

    #[test]
    fn budget_exhaustion_matches_standalone_accounting() {
        let stop = StopCondition::consensus().or_max_interactions(200);
        let mut ens = ensemble(vec![500, 500], 0, 3);
        let outcome = ens.run(stop);
        for result in outcome.results() {
            if result.outcome() == RunOutcome::BudgetExhausted {
                assert_eq!(result.interactions(), 200);
            } else {
                assert!(result.interactions() <= 200);
            }
        }
    }

    #[test]
    fn absorbed_replicas_exhaust_the_budget() {
        // Every agent undecided: the USD can never change anything.
        let mut ens = ensemble(vec![0, 0], 64, 3);
        let outcome = ens.run(StopCondition::consensus().or_max_interactions(10_000));
        for result in outcome.results() {
            assert_eq!(result.outcome(), RunOutcome::BudgetExhausted);
            assert_eq!(result.interactions(), 10_000);
        }
    }

    #[test]
    fn empty_ensembles_are_rejected() {
        let err = EnsembleEngine::<BatchedEngine<Usd2>>::try_new(Vec::new()).unwrap_err();
        assert!(matches!(err, PpError::Config(_)));
    }

    #[test]
    fn ensemble_choice_validates_bases_and_derives_seeds() {
        let choice = EnsembleChoice::new(4);
        assert_eq!(choice.replicas(), 4);
        assert_eq!(choice.base(), EngineChoice::Batched);
        assert_eq!(choice.parallelism(), Parallelism::auto());
        assert!(choice.validate().is_ok());
        let seeds = choice.seeds(SimSeed::from_u64(5));
        assert_eq!(seeds.len(), 4);
        assert_eq!(seeds[2], SimSeed::from_u64(5).child(2));
        for (base, name) in [
            (EngineChoice::Exact, "exact-inside-ensemble"),
            (EngineChoice::Sharded, "sharded-inside-ensemble"),
            (EngineChoice::MeanField, "mean-field-inside-ensemble"),
            (EngineChoice::Hybrid, "hybrid-inside-ensemble"),
        ] {
            let err = choice.with_base(base).validate().unwrap_err();
            assert_eq!(err, PpError::UnsupportedEngine { requested: name });
        }
        // The thread knob rides along without affecting validation.
        let threaded = choice.threads(3);
        assert_eq!(threaded.parallelism(), Parallelism::fixed(3));
        assert!(threaded.validate().is_ok());
        assert_eq!(threaded.replicas(), 4);
    }

    #[test]
    fn run_result_aggregates_are_consistent() {
        let mut ens = ensemble(vec![190, 10], 0, 5);
        let outcome = ens.run(StopCondition::consensus().or_max_interactions(2_000_000));
        assert_eq!(outcome.len(), 5);
        assert!(!outcome.is_empty());
        let total: u128 = outcome
            .results()
            .iter()
            .map(|r| u128::from(r.interactions()))
            .sum();
        assert_eq!(outcome.total_interactions(), total);
        let lookups = outcome.shared_hits() + outcome.shared_misses();
        assert!(lookups > 0);
        assert!(outcome.shared_reuse_fraction() <= 1.0);
    }

    /// A recorder that keeps the full observation stream, for comparing the
    /// ensemble's per-replica callbacks against the standalone driver's.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    struct Log(Vec<(u64, Vec<u64>, u64)>);

    impl Recorder for Log {
        fn record(&mut self, interactions: u64, config: &Configuration) {
            self.0
                .push((interactions, config.supports().to_vec(), config.undecided()));
        }
    }

    #[test]
    fn recorder_streams_match_standalone_runs() {
        let config = Configuration::from_counts(vec![300, 100], 20).unwrap();
        let stop = StopCondition::consensus().or_max_interactions(2_000_000);
        let expected: Vec<Log> = EnsembleChoice::new(5)
            .seeds(SimSeed::from_u64(99))
            .into_iter()
            .map(|seed| {
                let mut log = Log::default();
                BatchedEngine::new(Usd2, config.clone(), seed).run_engine_recorded(stop, &mut log);
                log
            })
            .collect();
        assert!(expected.iter().all(|log| log.0.len() > 1));
        // Mapped windows (Always), dormant windows (Never) and the mix
        // (Adaptive) must all produce the standalone observation stream,
        // at any thread count.
        for mode in [
            SharedCacheMode::Always,
            SharedCacheMode::Never,
            SharedCacheMode::Adaptive,
        ] {
            for threads in [1usize, 3] {
                let mut ens = ensemble(vec![300, 100], 20, 5)
                    .with_cache_mode(mode)
                    .with_parallelism(Parallelism::fixed(threads));
                let mut recorders = vec![Log::default(); 5];
                let outcome = ens.run_recorded(stop, &mut recorders);
                assert!(outcome.all_reached_goal());
                assert_eq!(
                    recorders, expected,
                    "{mode:?} at {threads} threads diverged"
                );
            }
        }
    }

    #[test]
    fn recorder_count_must_match_replica_count() {
        let mut ens = ensemble(vec![50, 50], 0, 3);
        let mut recorders = vec![Log::default(); 2];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ens.run_recorded(
                StopCondition::consensus().or_max_interactions(100),
                &mut recorders,
            )
        }));
        assert!(result.is_err());
    }

    #[test]
    fn telemetry_records_window_spans_without_changing_results() {
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let silent = ensemble(vec![400, 100], 30, 6)
            .with_parallelism(Parallelism::fixed(2))
            .run(stop);
        let tel = Telemetry::enabled();
        let mut ens = ensemble(vec![400, 100], 30, 6).with_parallelism(Parallelism::fixed(2));
        ens.set_telemetry(tel.clone());
        let traced = ens.run(stop);
        // Attaching telemetry must not perturb a single replica.
        assert_eq!(silent.results(), traced.results());
        let spans = tel.spans();
        assert!(spans.iter().any(|s| s.name == "ensemble.window"));
        assert!(spans.iter().any(|s| s.name == "ensemble.mapped.forkjoin"));
        assert!(spans
            .iter()
            .any(|s| s.name == "ensemble.mapped" && s.tid >= 1));
        crate::telemetry::check_span_nesting(&spans).expect("window spans must nest");
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter("ensemble.shared_hits"),
            Some(traced.shared_hits())
        );
        assert_eq!(snap.counter("ensemble.rounds"), Some(traced.rounds()));
        assert!(snap.counter("ensemble.recorded_events").unwrap() > 0);
        assert_eq!(snap.gauge("ensemble.replicas"), Some(6.0));
    }

    #[test]
    fn metrics_snapshot_aggregates_replica_counters() {
        let mut ens = ensemble(vec![500, 100], 0, 4).with_cache_mode(SharedCacheMode::Always);
        let outcome = ens.run(StopCondition::consensus().or_max_interactions(5_000_000));
        let snap = outcome.metrics_snapshot();
        assert_eq!(
            snap.counter("ensemble.shared_hits"),
            Some(outcome.shared_hits())
        );
        assert_eq!(snap.counter("ensemble.dormant_events"), Some(0));
        assert_eq!(snap.gauge("ensemble.replicas"), Some(4.0));
        // Replica engine counters fold in under the canonical names.
        let drawn = snap.counter("batched.events_drawn").unwrap();
        assert!(drawn > 0);
        let total_events: u64 = outcome
            .results()
            .iter()
            .map(|r| {
                r.telemetry()
                    .unwrap()
                    .counter("batched.events_drawn")
                    .unwrap()
            })
            .sum();
        assert_eq!(drawn, total_events);
        // Fraction gauges are recomputed from the aggregate, not absorbed.
        let agg: MaintenanceStats =
            outcome
                .results()
                .iter()
                .fold(MaintenanceStats::default(), |mut acc, r| {
                    acc.absorb(r.maintenance().unwrap());
                    acc
                });
        assert_eq!(
            snap.gauge("maintenance.rows_patched_fraction"),
            agg.rows_patched_fraction()
        );
    }

    #[test]
    fn checkpoint_restores_the_identical_trajectory_tail_at_any_thread_count() {
        // Uninterrupted reference run.
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let expected = ensemble(vec![400, 100], 30, 6).run(stop);

        for threads in [1usize, 3] {
            // Interrupted run: spend a few scheduling windows, pause with
            // live replicas, capture, and throw the engine away.
            let mut paused =
                ensemble(vec![400, 100], 30, 6).with_parallelism(Parallelism::fixed(threads));
            assert!(
                paused.run_windows(stop, 2).is_none(),
                "two windows must not finish six replicas"
            );
            let json = Checkpoint::capture(&paused).to_json();
            drop(paused);

            // Restore from the serialized checkpoint and finish under the
            // same stop condition.
            let checkpoint = Checkpoint::from_json(&json).unwrap();
            let mut restored = EnsembleEngine::<BatchedEngine<Usd2>>::restore(&Usd2, &checkpoint)
                .unwrap()
                .with_parallelism(Parallelism::fixed(threads));
            let resumed = restored
                .run_windows(stop, u64::MAX)
                .expect("an unbounded window budget always finishes");
            assert_eq!(
                resumed.results(),
                expected.results(),
                "restored tail diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn pause_and_resume_in_place_matches_the_uninterrupted_run() {
        // Pausing the *same* engine (no serialization round-trip) and
        // resuming must also be invisible to the per-replica results.
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let expected = ensemble(vec![300, 100], 20, 5).run(stop);
        let mut ens = ensemble(vec![300, 100], 20, 5);
        let mut outcome = ens.run_windows(stop, 1);
        let mut pauses = 0u32;
        while outcome.is_none() {
            pauses += 1;
            assert!(pauses < 1_000_000, "run never completed");
            outcome = ens.run_windows(stop, 1);
        }
        assert!(pauses > 0, "a one-window budget must pause at least once");
        assert_eq!(outcome.unwrap().results(), expected.results());
    }

    #[test]
    fn restore_rejects_foreign_kinds() {
        let ens = ensemble(vec![50, 50], 0, 2);
        let replica_only = Checkpoint::capture(&ens.replicas()[0]);
        let err = EnsembleEngine::<BatchedEngine<Usd2>>::restore(&Usd2, &replica_only).unwrap_err();
        match err {
            PpError::Checkpoint { reason } => {
                assert!(reason.contains("batched"), "{reason}");
                assert!(reason.contains("ensemble"), "{reason}");
            }
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn ensemble_engines_and_shared_tables_cross_threads() {
        // The parallel path moves replicas to workers and shares tables
        // behind Arcs: pin the auto-trait obligations so a regression (an
        // Rc or RefCell sneaking back into the shared state) fails here,
        // not in a consumer crate.
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send::<BatchedEngine<Usd2>>();
        assert_send_sync::<RowTable>();
        assert_send_sync::<Parallelism>();
        assert_send_sync::<EnsembleChoice>();
    }
}
