//! The unified step-engine layer.
//!
//! Every count-based simulation in this workspace advances the same Markov
//! chain over [`Configuration`]s; what differs is *how* the chain is driven.
//! This module abstracts the driving strategy behind one trait so every
//! consumer (USD runs, baseline dynamics, gossip variants, experiments,
//! benches) can switch strategy without touching its own logic:
//!
//! * [`ExactEngine`] (= [`CountSimulator`]) — the canonical per-interaction
//!   Fenwick sampler: one category pair per step, `O(log k)` each.
//! * [`BatchedEngine`] — exact-in-distribution skip-ahead.  From the current
//!   counts it computes the probability `p` that an interaction changes the
//!   state, samples the geometrically distributed number of *null*
//!   interactions (pairs that provably leave the counts unchanged, e.g.
//!   decided-meets-same-opinion in the USD), jumps straight over them, and
//!   then draws the category pair of the next state-changing event from the
//!   exact conditional distribution.  One unit of work per *event* instead of
//!   per *interaction*: in the long null-dominated stretches of a run (the
//!   coupon-collector endgame of Phase 5, deep-bias regimes) this is orders
//!   of magnitude faster, and the induced distribution over recorded
//!   trajectories is the same as the exact engine's.
//! * [`crate::shard::ShardedEngine`] — the count vector split into shards,
//!   each advanced by its own batched engine in parallel, with cross-shard
//!   interactions reconciled by multinomial epoch allocation (tunably
//!   approximate; built for `n ≥ 10⁹`).
//! * `MeanFieldEngine` (in `usd-core`) — the deterministic ODE limit lifted
//!   behind the same trait for instant large-`n` approximation.
//!
//! Protocols opt into fast batching by overriding
//! [`OpinionProtocol::null_interaction_weight`] and
//! [`OpinionProtocol::productive_responder_weight`]; without the overrides
//! the batched engine falls back to exact `O(k²)`-per-event enumeration, so
//! the refactor is incremental per protocol.
//!
//! # Incremental row maintenance
//!
//! On top of the hooks, [`BatchedEngine`] maintains its row table *across*
//! events instead of recomputing it before each one.  The invariants:
//!
//! * Productivity is a pure function of the (responder, initiator) category
//!   pair ([`OpinionProtocol::productivity_matrix`]), so each row factors as
//!   `row_cat = c_cat · S_cat` with `S_cat` the count-weighted sum of
//!   productive initiator categories.
//! * A state-changing event moves exactly one agent `from → to`; every
//!   `S_cat` shifts by `[matrix[cat][to]] − [matrix[cat][from]]`, and the
//!   table is re-derived as `c_cat · S_cat` — `O(k)` exact integer adds per
//!   event, no protocol calls.
//! * All weights are exact integers, so the patched table is
//!   **bit-identical** to a full rebuild: trajectories do not depend on
//!   whether maintenance was on.  `S_cat` is a `u64` (it counts agents, so
//!   `S_cat ≤ n`), while rows and their total are `u128` (each is at most
//!   `n²`): a patch costs one 64×64→128-bit widening multiply per row.
//! * The event draw reads `S_r` of the drawn responder category from the
//!   table instead of dividing `row_r` by `c_r`, and reduces its target
//!   modulo `S_r` in 64 bits; only populations beyond 2³² agents, whose
//!   weights outgrow `u64`, take the 128-bit bounded draw and remainder.
//!
//! The engine falls back to a full rebuild when the protocol opts out of the
//! matrix, when maintenance is disabled via
//! [`BatchedEngine::set_incremental_rows`] (the benchmark baseline), and
//! after external count edits (the shard reconciler's cross-shard updates
//! invalidate the maintained state).  Patch/rebuild counts are reported
//! through [`StepEngine::maintenance`] into [`RunResult`].  Debug builds
//! cross-check a sample (every 64th refresh) of tables against direct
//! enumeration; the `exhaustive-checks` feature checks every refresh.
//!
//! # Example
//!
//! ```
//! use pp_core::engine::{BatchedEngine, StepEngine};
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
//! let mut engine = BatchedEngine::new(TinyUsd, config, SimSeed::from_u64(7));
//! let result = engine.run_engine(StopCondition::consensus().or_max_interactions(10_000_000));
//! assert!(result.reached_consensus());
//! ```

use crate::checkpoint::{
    Checkpoint, EngineCheckpoint, EngineSnapshot, EngineState, ReplicaCheckpoint,
};
use crate::config::Configuration;
use crate::count_sim::CountSimulator;
use crate::ensemble::RowTable;
use crate::error::PpError;
use crate::opinion::AgentState;
use crate::protocol::OpinionProtocol;
use crate::recorder::Recorder;
use crate::rng::SimSeed;
use crate::run::{MaintenanceStats, RunOutcome, RunResult};
use crate::stopping::StopCondition;
use crate::telemetry::MetricsSnapshot;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Which stepping backend a consumer wants.
///
/// `Exact` and `Batched` induce the same distribution over trajectories;
/// `MeanField` replaces the stochastic process by its deterministic fluid
/// limit (only available for protocols that provide one, currently the USD).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineChoice {
    /// Per-interaction Fenwick sampling (the ground-truth backend).
    #[default]
    Exact,
    /// Geometric skip-ahead over null interactions plus conditional event
    /// draws; exact in distribution, much faster when nulls dominate.
    Batched,
    /// Parallel per-shard batched stepping with multinomial reconciliation
    /// epochs (documented-approximate; see [`crate::shard`]).
    Sharded,
    /// The deterministic ODE limit (approximation; `usd-core` only).
    MeanField,
    /// Adaptive multi-fidelity switching between the mean-field ODE and the
    /// batched stochastic backend under an online fluctuation detector
    /// (approximation; `usd-core` only — see [`crate::hybrid`]).
    Hybrid,
}

impl EngineChoice {
    /// The stable identifier used in reports and on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineChoice::Exact => "exact",
            EngineChoice::Batched => "batched",
            EngineChoice::Sharded => "sharded",
            EngineChoice::MeanField => "mean-field",
            EngineChoice::Hybrid => "hybrid",
        }
    }

    /// All selectable backends.
    pub const ALL: [EngineChoice; 5] = [
        EngineChoice::Exact,
        EngineChoice::Batched,
        EngineChoice::Sharded,
        EngineChoice::MeanField,
        EngineChoice::Hybrid,
    ];
}

impl fmt::Display for EngineChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EngineChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(EngineChoice::Exact),
            "batched" => Ok(EngineChoice::Batched),
            "sharded" => Ok(EngineChoice::Sharded),
            "mean-field" | "meanfield" => Ok(EngineChoice::MeanField),
            "hybrid" => Ok(EngineChoice::Hybrid),
            other => Err(format!(
                "unknown engine {other:?} (expected exact, batched, sharded, mean-field, or \
                 hybrid)"
            )),
        }
    }
}

/// What [`StepEngine::advance`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// A state-changing event occurred; the configuration and interaction
    /// counter reflect it.
    Event,
    /// The interaction limit was reached before the next state change; the
    /// counter equals the limit and the configuration is unchanged.
    LimitReached,
    /// No state change is possible from the current configuration, ever.
    /// The counter was advanced to the limit (when one is finite).
    Absorbed,
}

/// A strategy for advancing a count-vector Markov chain.
///
/// The narrow waist is [`advance`](StepEngine::advance): move the simulation
/// forward to the *next state-changing event*, but never past `limit` total
/// interactions.  The provided `run_engine*` drivers build every stopping
/// behaviour the workspace needs on top of it, so exact, batched and
/// mean-field backends stay interchangeable in every consumer.
pub trait StepEngine {
    /// The current configuration.
    fn configuration(&self) -> &Configuration;

    /// Interactions elapsed so far (null interactions included).
    fn interactions(&self) -> u64;

    /// The stable backend identifier ("exact", "batched", "mean-field").
    fn engine_name(&self) -> &'static str;

    /// The name of the interaction scheduler this engine realizes, recorded
    /// into every [`RunResult`] the provided drivers produce.
    fn scheduler_name(&self) -> &'static str {
        UNIFORM_PAIR_SCHEDULER_NAME
    }

    /// The number of unproductive draws this engine has discarded in
    /// rejection-sampling fallbacks so far, if it uses any (see
    /// `SamplingDynamics::sample_productive_move` in `consensus-dynamics`).
    /// Engines without a rejection path report `None`; the provided drivers
    /// record a `Some` value into the [`RunResult`].  Every shipped sampling
    /// dynamic now provides a closed-form conditional sampler, so a non-zero
    /// value only ever comes from a third-party dynamic that opted into
    /// skip-ahead without one — the conformance suite pins the shipped
    /// dynamics to exactly `Some(0)`.
    fn rejection_misses(&self) -> Option<u64> {
        None
    }

    /// How this engine kept its sampling laws in sync with the counts so far
    /// (tables patched in `O(delta)` vs rebuilt from scratch), if it
    /// maintains any.  Engines without a maintained law report `None`; the
    /// provided drivers record a `Some` value into the [`RunResult`].
    fn maintenance(&self) -> Option<MaintenanceStats> {
        None
    }

    /// The engine's unified observability surface: one flat
    /// [`MetricsSnapshot`] covering everything the bespoke accessors
    /// ([`rejection_misses`](StepEngine::rejection_misses),
    /// [`maintenance`](StepEngine::maintenance), the ensemble's shared-table
    /// counters) expose, under the canonical registry names
    /// (`engine.rejection_misses`, `maintenance.rows_patched`, …).  The
    /// provided drivers record it into every [`RunResult`]; engines with
    /// richer instrumentation (batched skip/draw counts, shard epochs)
    /// override the default, which assembles the snapshot from the legacy
    /// accessors.
    fn telemetry(&self) -> Option<MetricsSnapshot> {
        let mut snap = MetricsSnapshot::new();
        if let Some(misses) = self.rejection_misses() {
            snap.add_counter("engine.rejection_misses", misses);
        }
        if let Some(stats) = self.maintenance() {
            snap.absorb_maintenance(&stats);
        }
        (!snap.is_empty()).then_some(snap)
    }

    /// Advances to the next state-changing event, or to `limit` interactions,
    /// whichever comes first.
    fn advance(&mut self, limit: u64) -> Advance;

    /// Runs until the stop condition is met, recording nothing.
    fn run_engine(&mut self, stop: StopCondition) -> RunResult
    where
        Self: Sized,
    {
        self.run_engine_recorded(stop, &mut crate::recorder::NullRecorder)
    }

    /// Runs until the stop condition is met, feeding the initial and every
    /// changed configuration to the recorder (the same observable sequence
    /// the exact per-interaction loop produces).
    ///
    /// # Panics
    ///
    /// Panics if the stop condition is unbounded, or if the chain reaches an
    /// absorbing configuration that cannot meet a budget-less stop condition
    /// (the exact loop would spin forever; the engine layer fails loudly).
    fn run_engine_recorded<R: Recorder>(
        &mut self,
        stop: StopCondition,
        recorder: &mut R,
    ) -> RunResult
    where
        Self: Sized,
    {
        assert!(
            stop.is_bounded(),
            "stop condition can never terminate the run"
        );
        recorder.record(self.interactions(), self.configuration());
        loop {
            if stop.goal_met(self.configuration()) {
                let outcome = if self.configuration().is_consensus() {
                    RunOutcome::Consensus
                } else {
                    RunOutcome::OpinionSettled
                };
                return RunResult::new(outcome, self.interactions(), self.configuration().clone())
                    .with_scheduler(self.scheduler_name())
                    .with_rejection_misses(self.rejection_misses())
                    .with_maintenance(self.maintenance())
                    .with_telemetry(self.telemetry());
            }
            let limit = match stop.max_interactions() {
                Some(budget) if self.interactions() >= budget => {
                    return RunResult::new(
                        RunOutcome::BudgetExhausted,
                        self.interactions(),
                        self.configuration().clone(),
                    )
                    .with_scheduler(self.scheduler_name())
                    .with_rejection_misses(self.rejection_misses())
                    .with_maintenance(self.maintenance())
                    .with_telemetry(self.telemetry());
                }
                Some(budget) => budget,
                None => u64::MAX,
            };
            match self.advance(limit) {
                Advance::Event => recorder.record(self.interactions(), self.configuration()),
                Advance::LimitReached => {}
                Advance::Absorbed => {
                    assert!(
                        stop.max_interactions().is_some() || stop.goal_met(self.configuration()),
                        "absorbing configuration {} can never meet the stop condition",
                        self.configuration()
                    );
                }
            }
        }
    }
}

/// The scheduler every count-based engine realizes implicitly: both category
/// draws correspond to independent uniform agent indices.
pub const UNIFORM_PAIR_SCHEDULER_NAME: &str = "uniform ordered pairs (self-interactions allowed)";

/// The canonical per-interaction backend, as a named alias of
/// [`CountSimulator`].
pub type ExactEngine<P> = CountSimulator<P>;

impl<P: OpinionProtocol> StepEngine for CountSimulator<P> {
    fn configuration(&self) -> &Configuration {
        CountSimulator::configuration(self)
    }

    fn interactions(&self) -> u64 {
        CountSimulator::interactions(self)
    }

    fn engine_name(&self) -> &'static str {
        "exact"
    }

    fn advance(&mut self, limit: u64) -> Advance {
        // Periodic absorption check: every `CHECK_MASK + 1` consecutive null
        // steps, test whether any state change is still possible.  Amortized
        // free on live configurations, and it upholds the trait contract —
        // an absorbing configuration yields `Absorbed` instead of spinning
        // until the heat death of the budget (or forever without one).
        const CHECK_MASK: u64 = (1 << 20) - 1;
        let mut nulls = 0u64;
        while CountSimulator::interactions(self) < limit {
            if self.step() {
                return Advance::Event;
            }
            nulls += 1;
            if nulls & CHECK_MASK == 0 && self.productive_probability() == 0.0 {
                self.skip_to(limit);
                return Advance::Absorbed;
            }
        }
        Advance::LimitReached
    }
}

/// Draws a uniform `u128` below `bound` (exactly uniform in both paths).
/// Count-pair weights exceed `u64` only for populations beyond ~4·10⁹, so
/// the common case takes a cheap 64-bit Lemire widening-multiply; larger
/// bounds fall back to 128-bit rejection.
///
/// # Panics
///
/// Panics in debug builds if `bound == 0`.
pub fn uniform_u128_below<R: Rng + ?Sized>(rng: &mut R, bound: u128) -> u128 {
    debug_assert!(bound > 0);
    if let Ok(b) = u64::try_from(bound) {
        // Lemire's multiply-shift with rejection of the biased overhang.
        let mut m = u128::from(rng.next_u64()) * u128::from(b);
        if (m as u64) < b {
            let t = b.wrapping_neg() % b;
            while (m as u64) < t {
                m = u128::from(rng.next_u64()) * u128::from(b);
            }
        }
        return m >> 64;
    }
    // 2^128 mod bound: values below this threshold are the biased overhang.
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let x = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
        if x >= threshold {
            return x % bound;
        }
    }
}

/// Samples the geometrically distributed number of null interactions
/// preceding the next state-changing event, given per-interaction event
/// probability `p`.  Returns `None` when the skip provably overshoots
/// `max_skip` — memorylessness makes re-sampling on a later call exact, so
/// callers can treat `None` as "the limit arrives first".
///
/// Shared by every skip-ahead engine ([`BatchedEngine`], the sequential
/// sampler in `consensus-dynamics`), so the edge-case handling — `p ≥ 1`,
/// `p` rounding toward 0, overshoot — lives in exactly one place.
pub fn geometric_skip<R: Rng + ?Sized>(rng: &mut R, p: f64, max_skip: u64) -> Option<u64> {
    debug_assert!(p > 0.0, "event probability must be positive");
    if p >= 1.0 {
        return Some(0);
    }
    // Inversion: floor(ln U / ln(1-p)), U uniform in (0, 1).
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let skip = u.ln() / (-p).ln_1p();
    if !skip.is_finite() || skip >= max_skip as f64 {
        None
    } else {
        Some(skip as u64)
    }
}

/// Exact-in-distribution skip-ahead engine.
///
/// Instead of simulating interactions one by one, the engine works on the
/// *embedded jump chain* of state-changing events: from the current counts it
/// computes the total weight `W` of productive ordered category pairs,
/// samples the geometric number of null interactions preceding the next
/// event (success probability `W/n²`), and then draws the event's category
/// pair with probability proportional to `c_r · c_i` restricted to
/// productive pairs.  Both draws use the exact conditional distributions of
/// the underlying chain, so trajectories (configurations indexed by
/// interaction count) have the same law as under [`ExactEngine`] — this is
/// verified statistically in the test suite.
///
/// Cost: `O(k)` exact integer adds per state-changing event while the
/// incremental delta rule holds (see the module docs) — with *no* protocol
/// calls on the hot path; `O(k)` hook calls or `O(k²)` enumeration per
/// rebuild otherwise — but never proportional to the number of skipped null
/// interactions.
#[derive(Debug)]
pub struct BatchedEngine<P> {
    protocol: P,
    config: Configuration,
    interactions: u64,
    rng: SmallRng,
    /// Productive weight per responder category (`row_cat = c_cat · S_cat`),
    /// maintained across events while `rows_valid`.
    rows: Vec<u128>,
    /// The per-category productive initiator sums `S_cat` behind `rows`
    /// (`S_cat ≤ n`, so `u64`); meaningful only while `rows_valid`.
    sums: Vec<u64>,
    /// Cached `Σ rows`, meaningful only while `rows_valid`.
    total: u128,
    /// Whether `rows`/`sums`/`total` describe the current counts.
    rows_valid: bool,
    /// Flat `(k+1)²` productivity table (`None`: protocol opted out of the
    /// delta rule, every event rebuilds).
    matrix: Option<Vec<bool>>,
    /// Runtime switch for the delta rule (off = the benchmark baseline).
    incremental: bool,
    /// Refreshes served so far, for the sampled debug cross-check.
    refreshes: u64,
    stats: MaintenanceStats,
    /// State-changing events drawn so far (standalone and lockstep paths).
    events_drawn: u64,
    /// Null interactions jumped over by geometric skips (and limit
    /// forwarding) so far.
    nulls_skipped: u64,
}

impl<P: OpinionProtocol> BatchedEngine<P> {
    /// Creates a batched engine for `protocol` starting from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the protocol's `num_opinions()` differs from the
    /// configuration's.
    #[must_use]
    pub fn new(protocol: P, config: Configuration, seed: SimSeed) -> Self {
        Self::try_new(protocol, config, seed)
            .expect("protocol/configuration opinion count mismatch")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::OpinionCountMismatch`] if the protocol and the
    /// configuration disagree on `k`.
    pub fn try_new(protocol: P, config: Configuration, seed: SimSeed) -> Result<Self, PpError> {
        if protocol.num_opinions() != config.num_opinions() {
            return Err(PpError::OpinionCountMismatch {
                protocol: protocol.num_opinions(),
                configuration: config.num_opinions(),
            });
        }
        let k = config.num_opinions();
        let matrix = protocol.productivity_matrix();
        if let Some(m) = &matrix {
            assert_eq!(
                m.len(),
                (k + 1) * (k + 1),
                "productivity_matrix must be a flat (k+1)² table"
            );
        }
        Ok(BatchedEngine {
            protocol,
            config,
            interactions: 0,
            rng: seed.rng(),
            rows: vec![0; k + 1],
            sums: vec![0; k + 1],
            total: 0,
            rows_valid: false,
            matrix,
            incremental: true,
            refreshes: 0,
            stats: MaintenanceStats::default(),
            events_drawn: 0,
            nulls_skipped: 0,
        })
    }

    /// Enables or disables incremental row maintenance at runtime.  Disabled,
    /// the engine rebuilds the full row table before every event — exactly
    /// the pre-incremental behaviour, used as the measured baseline by
    /// `engine_microbench`.  Trajectories are bit-identical either way.
    pub fn set_incremental_rows(&mut self, enabled: bool) {
        self.incremental = enabled;
        if !enabled {
            self.rows_valid = false;
        }
    }

    /// The engine's patch/rebuild counters so far.
    #[must_use]
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.stats
    }

    /// The protocol driving this engine.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Consumes the engine and returns the final configuration.
    #[must_use]
    pub fn into_configuration(self) -> Configuration {
        self.config
    }

    /// Simultaneous access to the protocol and the mutable configuration —
    /// the shard reconciler applies cross-shard responder updates directly to
    /// a shard's counts (without advancing the local interaction counter).
    /// Handing out the mutable configuration invalidates the maintained row
    /// table: the next event rebuilds from the edited counts.
    pub(crate) fn parts_mut(&mut self) -> (&P, &mut Configuration) {
        self.rows_valid = false;
        (&self.protocol, &mut self.config)
    }

    /// Productive weight of responder category `cat` by direct enumeration:
    /// `c_cat · Σ_{i : productive} c_i`.
    fn enumerated_row(&self, cat: usize) -> u128 {
        // The single-population weight is the cross-shard weight with the
        // responder and initiator sides drawn from the same configuration;
        // sharing the enumeration keeps this engine and the shard
        // reconciler exactly in sync.
        crate::shard::reconcile::productive_row(&self.protocol, &self.config, &self.config, cat)
    }

    /// Fills `rows` with the per-category productive weights and `sums`
    /// with the productive initiator sums `S_cat` for the current counts,
    /// and returns the row total.  A pure function of the configuration —
    /// the standalone engine fills its maintained table with it, and the
    /// ensemble layer fills cache-shared [`RowTable`]s, so both paths see
    /// bit-identical weights.
    fn fill_table(&self, rows: &mut Vec<u128>, sums: &mut Vec<u64>) -> u128 {
        let k = self.config.num_opinions();
        rows.clear();
        sums.clear();
        let mut total: u128 = 0;
        for cat in 0..=k {
            let row = self
                .protocol
                .productive_responder_weight(&self.config, cat)
                .unwrap_or_else(|| self.enumerated_row(cat));
            let sum = match &self.matrix {
                Some(matrix) => (0..=k)
                    .filter(|&i| matrix[cat * (k + 1) + i])
                    .map(|i| self.config.category_count(i))
                    .sum(),
                // Without the matrix, `row = c_cat · S_cat` is the only
                // source of `S_cat`; an empty category's row is 0 and is
                // never drawn.
                None => match u128::from(self.config.category_count(cat)) {
                    0 => 0,
                    c => u64::try_from(row / c).expect("S_cat counts agents, so it fits u64"),
                },
            };
            rows.push(row);
            sums.push(sum);
            total += row;
        }
        #[cfg(feature = "exhaustive-checks")]
        self.cross_check_rows(rows, total);
        total
    }

    /// Asserts `rows`/`total` for the current counts against direct
    /// enumeration — the ground truth for both the closed-form hooks and the
    /// incremental patch.  `O(k²)`: debug builds run it on a sample of
    /// refreshes (every 64th); the `exhaustive-checks` feature on every one.
    #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
    fn cross_check_rows(&self, rows: &[u128], total: u128) {
        if let Some(null) = self.protocol.null_interaction_weight(&self.config) {
            let n = u128::from(self.config.population());
            assert_eq!(
                total + null,
                n * n,
                "null_interaction_weight override disagrees with enumeration at {}",
                self.config
            );
        }
        let mut enumerated_total = 0u128;
        for (cat, &row) in rows.iter().enumerate() {
            let enumerated = self.enumerated_row(cat);
            assert_eq!(
                row, enumerated,
                "row weight disagrees with enumeration for category {cat} at {}",
                self.config
            );
            enumerated_total += enumerated;
        }
        assert_eq!(
            total, enumerated_total,
            "row total disagrees with enumeration at {}",
            self.config
        );
    }

    /// Whether this refresh is one of the sampled debug cross-checks.
    #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
    fn should_cross_check(&self) -> bool {
        cfg!(feature = "exhaustive-checks") || self.refreshes.is_multiple_of(64)
    }

    /// Rebuilds `rows`, `sums` and `total` from the full counts.
    fn rebuild_rows(&mut self) -> u128 {
        let mut rows = std::mem::take(&mut self.rows);
        let mut sums = std::mem::take(&mut self.sums);
        let total = self.fill_table(&mut rows, &mut sums);
        self.rows = rows;
        self.sums = sums;
        self.total = total;
        self.rows_valid = true;
        self.refreshes += 1;
        self.stats.rows_rebuilt += 1;
        #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
        if self.should_cross_check() {
            let rows = std::mem::take(&mut self.rows);
            self.cross_check_rows(&rows, total);
            self.rows = rows;
        }
        total
    }

    /// The row total for the current counts, from the maintained table when
    /// it is valid and from a full rebuild otherwise.
    fn ensure_rows(&mut self) -> u128 {
        if self.rows_valid {
            self.total
        } else {
            self.rebuild_rows()
        }
    }

    /// Patches `sums`, `rows` and `total` across an applied `from → to` move
    /// (the delta rule; see the module docs), or invalidates the table when
    /// the protocol opted out or maintenance is disabled.
    fn apply_row_delta(&mut self, from: AgentState, to: AgentState) {
        let Some(matrix) = &self.matrix else {
            self.rows_valid = false;
            return;
        };
        if !self.incremental {
            self.rows_valid = false;
            return;
        }
        let k = self.config.num_opinions();
        let from_cat = from.category(k);
        let to_cat = to.category(k);
        let mut total = 0u128;
        for cat in 0..=k {
            let base = cat * (k + 1);
            let mut s = self.sums[cat];
            if matrix[base + to_cat] {
                s += 1;
            }
            if matrix[base + from_cat] {
                debug_assert!(s > 0, "productive initiator sum underflow");
                s -= 1;
            }
            self.sums[cat] = s;
            let row = u128::from(self.config.category_count(cat)) * u128::from(s);
            self.rows[cat] = row;
            total += row;
        }
        self.total = total;
        self.rows_valid = true;
        self.refreshes += 1;
        self.stats.rows_patched += 1;
        #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
        if self.should_cross_check() {
            let rows = std::mem::take(&mut self.rows);
            self.cross_check_rows(&rows, total);
            self.rows = rows;
        }
    }

    /// A freshly allocated row table for the current counts (the ensemble
    /// layer caches these per counts key).
    pub(crate) fn row_table(&self) -> RowTable {
        let (mut rows, mut sums) = (Vec::new(), Vec::new());
        let total = self.fill_table(&mut rows, &mut sums);
        RowTable { rows, total, sums }
    }

    /// The protocol's productivity table, when it opted into the delta rule.
    pub(crate) fn productivity_matrix_ref(&self) -> Option<&[bool]> {
        self.matrix.as_deref()
    }

    /// The engine's RNG (the ensemble layer draws skips from it so lockstep
    /// replicas consume randomness exactly as standalone runs do).
    pub(crate) fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Records `skip` null interactions plus the event interaction itself.
    pub(crate) fn record_event_interactions(&mut self, skip: u64) {
        self.interactions += skip + 1;
        self.nulls_skipped += skip;
        self.events_drawn += 1;
    }

    /// Forwards the interaction counter to `limit` without an event.
    pub(crate) fn forward_to(&mut self, limit: u64) {
        self.nulls_skipped += limit.saturating_sub(self.interactions);
        self.interactions = limit;
    }

    /// Draws the category pair of the next state-changing event from the
    /// given row table and applies it — the shared tail of the standalone
    /// and lockstep advance paths.  One draw picks the whole event: a unit
    /// below `total` decomposes as (responder category, responder identity
    /// within the category, initiator unit); the row scan finds the
    /// category, and because `row = c_r · S_r` factors into independent
    /// responder-identity and initiator-weight parts, the remainder modulo
    /// `S_r` (read from `sums`) is an exact uniform draw of the initiator
    /// unit.
    ///
    /// Returns the applied `(from, to)` responder move and invalidates the
    /// maintained row table (callers on the incremental path re-validate it
    /// by patching).
    pub(crate) fn draw_and_apply_event(
        &mut self,
        rows: &[u128],
        sums: &[u64],
        total: u128,
    ) -> (AgentState, AgentState) {
        let k = self.config.num_opinions();
        let mut target = uniform_u128_below(&mut self.rng, total);
        let mut responder_cat = k;
        for (cat, &row) in rows.iter().enumerate() {
            if target < row {
                responder_cat = cat;
                break;
            }
            target -= row;
        }
        let responder = AgentState::from_category(responder_cat, k);
        debug_assert!(self.config.category_count(responder_cat) > 0);
        let initiator_total = sums[responder_cat];
        // The 64-bit remainder serves every population up to ~4·10⁹, whose
        // weights fit u64; the remainder is below `S_r`, so it fits u64.
        let mut itarget = match u64::try_from(target) {
            Ok(t) => t % initiator_total,
            Err(_) => (target % u128::from(initiator_total)) as u64,
        };

        // Resolve the initiator unit to a category, restricted to categories
        // whose interaction with this responder is productive.
        let mut initiator = AgentState::Undecided;
        for i in 0..=k {
            let c_i = self.config.category_count(i);
            if c_i == 0 {
                continue;
            }
            let candidate = AgentState::from_category(i, k);
            if self.protocol.respond(responder, candidate) == responder {
                continue;
            }
            if itarget < c_i {
                initiator = candidate;
                break;
            }
            itarget -= c_i;
        }

        let new_responder = self.protocol.respond(responder, initiator);
        debug_assert_ne!(new_responder, responder, "sampled event must be productive");
        self.config
            .apply_move(responder, new_responder)
            .expect("transition produced an inconsistent move");
        self.rows_valid = false;
        (responder, new_responder)
    }

    /// Captures this engine's resumable state.  The maintained row table is
    /// *not* captured: it is a pure function of the counts and the first
    /// event after restore rebuilds it bit-identically (showing up as one
    /// extra `rows_rebuilt` in the restored run's maintenance counters).
    /// Call between `advance` calls — see [`crate::checkpoint`].
    #[must_use]
    pub fn capture_state(&self) -> EngineSnapshot {
        EngineSnapshot {
            supports: self.config.supports().to_vec(),
            undecided: self.config.undecided(),
            interactions: self.interactions,
            rng: self.rng.state(),
            counters: vec![
                ("events_drawn".to_string(), self.events_drawn),
                ("nulls_skipped".to_string(), self.nulls_skipped),
                ("refreshes".to_string(), self.refreshes),
                ("rows_patched".to_string(), self.stats.rows_patched),
                ("rows_rebuilt".to_string(), self.stats.rows_rebuilt),
                ("law_patches".to_string(), self.stats.law_patches),
                ("law_rebuilds".to_string(), self.stats.law_rebuilds),
                (
                    "law_fallback_rebuilds".to_string(),
                    self.stats.law_fallback_rebuilds,
                ),
                ("incremental".to_string(), u64::from(self.incremental)),
            ],
        }
    }

    /// Rebuilds an engine from a checkpoint captured by
    /// [`BatchedEngine::capture_state`].  The restored engine walks the
    /// identical trajectory tail the interrupted run would have.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the checkpoint holds a
    /// different engine kind or invalid counts, and
    /// [`PpError::OpinionCountMismatch`] when the protocol disagrees with
    /// the captured counts on `k`.
    pub fn restore(protocol: P, checkpoint: &Checkpoint) -> Result<Self, PpError> {
        let snapshot = checkpoint.expect_single("batched")?;
        Self::restore_snapshot(protocol, snapshot)
    }

    /// Snapshot-level counterpart of [`BatchedEngine::restore`].
    ///
    /// # Errors
    ///
    /// Same as [`BatchedEngine::restore`], minus the kind check.
    pub fn restore_snapshot(protocol: P, snapshot: &EngineSnapshot) -> Result<Self, PpError> {
        let config = snapshot.configuration()?;
        let mut engine = Self::try_new(protocol, config, SimSeed::from_u64(0))?;
        engine.rng = SmallRng::from_state(snapshot.rng);
        engine.interactions = snapshot.interactions;
        engine.incremental = snapshot.counter("incremental") != Some(0);
        engine.refreshes = snapshot.counter("refreshes").unwrap_or(0);
        engine.stats = MaintenanceStats {
            rows_patched: snapshot.counter("rows_patched").unwrap_or(0),
            rows_rebuilt: snapshot.counter("rows_rebuilt").unwrap_or(0),
            law_patches: snapshot.counter("law_patches").unwrap_or(0),
            law_rebuilds: snapshot.counter("law_rebuilds").unwrap_or(0),
            law_fallback_rebuilds: snapshot.counter("law_fallback_rebuilds").unwrap_or(0),
        };
        engine.events_drawn = snapshot.counter("events_drawn").unwrap_or(0);
        engine.nulls_skipped = snapshot.counter("nulls_skipped").unwrap_or(0);
        Ok(engine)
    }

    /// The probability that the next interaction changes the state, computed
    /// from the current counts (used by tests and diagnostics).
    #[must_use]
    pub fn productive_probability(&mut self) -> f64 {
        let n = self.config.population() as f64;
        let total = self.ensure_rows();
        total as f64 / (n * n)
    }
}

impl<P: OpinionProtocol> StepEngine for BatchedEngine<P> {
    fn configuration(&self) -> &Configuration {
        &self.config
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn engine_name(&self) -> &'static str {
        "batched"
    }

    fn maintenance(&self) -> Option<MaintenanceStats> {
        Some(self.stats)
    }

    fn telemetry(&self) -> Option<MetricsSnapshot> {
        let mut snap = MetricsSnapshot::new();
        snap.add_counter("batched.events_drawn", self.events_drawn);
        snap.add_counter("batched.nulls_skipped", self.nulls_skipped);
        snap.add_counter("batched.table_refreshes", self.refreshes);
        snap.absorb_maintenance(&self.stats);
        Some(snap)
    }

    fn advance(&mut self, limit: u64) -> Advance {
        if self.interactions >= limit {
            return Advance::LimitReached;
        }
        let total = self.ensure_rows();
        if total == 0 {
            self.forward_to(limit);
            return Advance::Absorbed;
        }
        let n = self.config.population() as f64;
        let p = total as f64 / (n * n);

        // How many interactions may still elapse before the limit; the event
        // itself occupies one, so the skip must stay strictly below this.
        let headroom = limit - self.interactions;
        let Some(skip) = geometric_skip(&mut self.rng, p, headroom) else {
            self.forward_to(limit);
            return Advance::LimitReached;
        };
        self.record_event_interactions(skip);
        let rows = std::mem::take(&mut self.rows);
        let sums = std::mem::take(&mut self.sums);
        let (from, to) = self.draw_and_apply_event(&rows, &sums, total);
        self.rows = rows;
        self.sums = sums;
        self.apply_row_delta(from, to);
        Advance::Event
    }
}

impl<P: OpinionProtocol> EngineCheckpoint for BatchedEngine<P> {
    fn capture_engine(&self) -> EngineState {
        EngineState::Batched(self.capture_state())
    }
}

impl<P: OpinionProtocol + Clone> ReplicaCheckpoint for BatchedEngine<P> {
    type Context = P;

    fn capture_replica(&self) -> EngineSnapshot {
        self.capture_state()
    }

    fn restore_replica(ctx: &P, snapshot: &EngineSnapshot) -> Result<Self, PpError> {
        Self::restore_snapshot(ctx.clone(), snapshot)
    }
}

/// A runtime-selectable count-based engine (exact or batched) over one
/// protocol — the concrete type consumers hold when the backend is a run
/// parameter rather than a compile-time choice.
#[derive(Debug)]
pub enum CountEngine<P> {
    /// Per-interaction stepping.
    Exact(ExactEngine<P>),
    /// Skip-ahead stepping.
    Batched(BatchedEngine<P>),
}

impl<P: OpinionProtocol> CountEngine<P> {
    /// Creates the engine selected by `choice`.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::OpinionCountMismatch`] on a protocol/configuration
    /// mismatch and [`PpError::UnsupportedEngine`] for
    /// [`EngineChoice::MeanField`] and [`EngineChoice::Hybrid`] (the ODE
    /// limit and the fidelity controller built on it are protocol-specific;
    /// see `usd-core`) and [`EngineChoice::Sharded`] (the sharded engine
    /// needs a [`crate::shard::ShardPlan`] and `Clone + Send` protocols —
    /// construct [`crate::shard::ShardedEngine`] directly).
    pub fn try_new(
        protocol: P,
        config: Configuration,
        seed: SimSeed,
        choice: EngineChoice,
    ) -> Result<Self, PpError> {
        match choice {
            EngineChoice::Exact => Ok(CountEngine::Exact(CountSimulator::try_new(
                protocol, config, seed,
            )?)),
            EngineChoice::Batched => Ok(CountEngine::Batched(BatchedEngine::try_new(
                protocol, config, seed,
            )?)),
            EngineChoice::Sharded => Err(PpError::UnsupportedEngine {
                requested: "sharded",
            }),
            EngineChoice::MeanField => Err(PpError::UnsupportedEngine {
                requested: "mean-field",
            }),
            EngineChoice::Hybrid => Err(PpError::UnsupportedEngine {
                requested: "hybrid",
            }),
        }
    }

    /// Panicking counterpart of [`CountEngine::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on mismatch or unsupported choice.
    #[must_use]
    pub fn new(protocol: P, config: Configuration, seed: SimSeed, choice: EngineChoice) -> Self {
        Self::try_new(protocol, config, seed, choice).expect("failed to construct engine")
    }
}

impl<P: OpinionProtocol> StepEngine for CountEngine<P> {
    fn configuration(&self) -> &Configuration {
        match self {
            CountEngine::Exact(e) => StepEngine::configuration(e),
            CountEngine::Batched(e) => StepEngine::configuration(e),
        }
    }

    fn interactions(&self) -> u64 {
        match self {
            CountEngine::Exact(e) => StepEngine::interactions(e),
            CountEngine::Batched(e) => StepEngine::interactions(e),
        }
    }

    fn engine_name(&self) -> &'static str {
        match self {
            CountEngine::Exact(e) => e.engine_name(),
            CountEngine::Batched(e) => e.engine_name(),
        }
    }

    fn maintenance(&self) -> Option<MaintenanceStats> {
        match self {
            CountEngine::Exact(e) => e.maintenance(),
            CountEngine::Batched(e) => e.maintenance(),
        }
    }

    fn rejection_misses(&self) -> Option<u64> {
        match self {
            CountEngine::Exact(e) => e.rejection_misses(),
            CountEngine::Batched(e) => e.rejection_misses(),
        }
    }

    fn telemetry(&self) -> Option<MetricsSnapshot> {
        match self {
            CountEngine::Exact(e) => e.telemetry(),
            CountEngine::Batched(e) => e.telemetry(),
        }
    }

    fn advance(&mut self, limit: u64) -> Advance {
        match self {
            CountEngine::Exact(e) => e.advance(limit),
            CountEngine::Batched(e) => e.advance(limit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 2-opinion USD without batching hooks (exercises the enumeration
    /// fallback).
    #[derive(Debug)]
    struct Usd2Plain;

    impl OpinionProtocol for Usd2Plain {
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

    /// The same protocol with closed-form batching hooks (exercises the
    /// debug cross-check against enumeration).
    #[derive(Debug)]
    struct Usd2Hooked;

    impl OpinionProtocol for Usd2Hooked {
        fn num_opinions(&self) -> usize {
            2
        }
        fn respond(&self, r: AgentState, i: AgentState) -> AgentState {
            Usd2Plain.respond(r, i)
        }
        fn name(&self) -> &str {
            "usd-2-hooked"
        }
        fn null_interaction_weight(&self, config: &Configuration) -> Option<u128> {
            let n = u128::from(config.population());
            let d = u128::from(config.decided());
            let u = u128::from(config.undecided());
            let discordant = d * d - config.sum_of_squares();
            Some(n * n - discordant - u * d)
        }
        fn productive_responder_weight(&self, config: &Configuration, cat: usize) -> Option<u128> {
            let d = u128::from(config.decided());
            Some(if cat == config.num_opinions() {
                u128::from(config.undecided()) * d
            } else {
                let x = u128::from(config.support(cat));
                x * (d - x)
            })
        }
    }

    /// `Usd2Plain` with the delta rule disabled (exercises the
    /// rebuild-every-event fallback for protocols that opt out).
    #[derive(Debug)]
    struct Usd2NoDelta;

    impl OpinionProtocol for Usd2NoDelta {
        fn num_opinions(&self) -> usize {
            2
        }
        fn respond(&self, r: AgentState, i: AgentState) -> AgentState {
            Usd2Plain.respond(r, i)
        }
        fn productivity_matrix(&self) -> Option<Vec<bool>> {
            None
        }
    }

    #[test]
    fn incremental_rows_produce_the_same_trajectory_as_rebuilds() {
        // Same seed, maintenance on vs off vs opted out: the three engines
        // must walk bit-identical trajectories (the rows are exact integers
        // either way), differing only in their maintenance counters.
        let config = Configuration::from_counts(vec![600, 300], 100).unwrap();
        let mut patched = BatchedEngine::new(Usd2Plain, config.clone(), SimSeed::from_u64(21));
        let mut rebuilt = BatchedEngine::new(Usd2Plain, config.clone(), SimSeed::from_u64(21));
        rebuilt.set_incremental_rows(false);
        let mut opted_out = BatchedEngine::new(Usd2NoDelta, config, SimSeed::from_u64(21));
        let mut events = 0u64;
        loop {
            let a = patched.advance(u64::MAX);
            let b = rebuilt.advance(u64::MAX);
            let c = opted_out.advance(u64::MAX);
            assert_eq!(a, b);
            assert_eq!(a, c);
            assert_eq!(patched.configuration(), rebuilt.configuration());
            assert_eq!(patched.configuration(), opted_out.configuration());
            assert_eq!(patched.interactions(), rebuilt.interactions());
            if a != Advance::Event {
                break;
            }
            events += 1;
        }
        assert!(events > 10, "run too short to exercise the patch path");
        let stats = patched.maintenance_stats();
        assert_eq!(stats.rows_rebuilt, 1, "only the first refresh rebuilds");
        assert_eq!(stats.rows_patched, events);
        let baseline = rebuilt.maintenance_stats();
        assert_eq!(baseline.rows_patched, 0);
        assert_eq!(baseline.rows_rebuilt, events + 1);
        let fallback = opted_out.maintenance_stats();
        assert_eq!(fallback.rows_patched, 0);
        assert!(fallback.rows_rebuilt >= events);
    }

    #[test]
    fn maintenance_counters_flow_into_run_results() {
        let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(5));
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(5_000_000));
        let stats = result.maintenance().expect("batched engine counts");
        assert_eq!(stats.rows_rebuilt, 1);
        assert!(stats.rows_patched > 0);
        assert_eq!(stats.law_patches, 0);
        assert_eq!(stats.law_rebuilds, 0);
    }

    #[test]
    fn batched_telemetry_counts_skips_draws_and_patches() {
        let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(5));
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(5_000_000));
        let snap = result
            .telemetry()
            .expect("batched engine reports telemetry");
        let events = snap.counter("batched.events_drawn").unwrap();
        assert!(events > 0);
        // Every interaction is either a drawn event or a skipped null.
        assert_eq!(
            events + snap.counter("batched.nulls_skipped").unwrap(),
            result.interactions()
        );
        // The snapshot carries the maintenance counters under canonical names.
        let stats = result.maintenance().unwrap();
        assert_eq!(
            snap.counter("maintenance.rows_patched"),
            Some(stats.rows_patched)
        );
        assert_eq!(
            snap.counter("maintenance.rows_rebuilt"),
            Some(stats.rows_rebuilt)
        );
    }

    #[test]
    fn default_telemetry_reflects_bespoke_accessors() {
        // The exact engine has no counters of its own: its default
        // `telemetry()` surfaces nothing beyond what the legacy accessors
        // say (no maintenance, no rejection path → no snapshot).
        let config = Configuration::from_counts(vec![9, 1], 0).unwrap();
        let engine = CountSimulator::new(Usd2Plain, config, SimSeed::from_u64(5));
        assert!(StepEngine::telemetry(&engine).is_none());
    }

    #[test]
    fn engine_choice_round_trips_through_strings() {
        for choice in EngineChoice::ALL {
            assert_eq!(choice.name().parse::<EngineChoice>().unwrap(), choice);
        }
        assert!("nope".parse::<EngineChoice>().is_err());
        assert_eq!(EngineChoice::default(), EngineChoice::Exact);
    }

    #[test]
    fn batched_engine_reaches_consensus_with_plain_protocol() {
        let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(5));
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(5_000_000));
        assert!(result.reached_consensus());
        assert_eq!(result.winner().unwrap().index(), 0);
        assert_eq!(result.scheduler(), Some(UNIFORM_PAIR_SCHEDULER_NAME));
    }

    #[test]
    fn hooked_protocol_passes_the_debug_cross_check() {
        let config = Configuration::from_counts(vec![600, 300], 100).unwrap();
        let mut engine = BatchedEngine::new(Usd2Hooked, config, SimSeed::from_u64(6));
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(5_000_000));
        assert!(result.reached_consensus());
    }

    #[test]
    fn batched_population_is_conserved_across_events() {
        let config = Configuration::from_counts(vec![40, 60], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(11));
        for _ in 0..200 {
            match engine.advance(u64::MAX) {
                Advance::Event => {
                    assert!(engine.configuration().is_consistent());
                    assert_eq!(engine.configuration().population(), 100);
                }
                _ => break,
            }
        }
        assert!(engine.interactions() > 0);
    }

    #[test]
    fn batched_budget_is_respected_exactly() {
        let config = Configuration::from_counts(vec![500, 500], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(3));
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(10_000));
        if result.outcome() == RunOutcome::BudgetExhausted {
            assert_eq!(result.interactions(), 10_000);
        } else {
            assert!(result.interactions() <= 10_000);
        }
    }

    #[test]
    fn absorbed_configuration_exhausts_budget_without_spinning() {
        // A frozen non-consensus state: every agent undecided (the USD can
        // never change it).
        let config = Configuration::from_counts(vec![0, 0], 100).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(8));
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(1_000_000));
        assert_eq!(result.outcome(), RunOutcome::BudgetExhausted);
        assert_eq!(result.interactions(), 1_000_000);
    }

    #[test]
    fn exact_engine_detects_absorption_instead_of_spinning() {
        // Frozen non-consensus state: the absorption check must fire after a
        // bounded number of null steps even with no (finite) limit.
        let config = Configuration::from_counts(vec![0, 0], 100).unwrap();
        let mut engine = CountSimulator::new(Usd2Plain, config, SimSeed::from_u64(1));
        assert_eq!(
            StepEngine::advance(&mut engine, u64::MAX),
            Advance::Absorbed
        );
    }

    #[test]
    #[should_panic(expected = "can never meet the stop condition")]
    fn exact_engine_fails_loudly_on_absorbing_goal_only_runs() {
        // Same loud-failure contract as the batched backend: a goal-only
        // stop on an absorbing configuration panics instead of hanging.
        let config = Configuration::from_counts(vec![0, 0], 100).unwrap();
        let mut engine = CountSimulator::new(Usd2Plain, config, SimSeed::from_u64(1));
        let _ = engine.run_engine(StopCondition::consensus());
    }

    #[test]
    fn geometric_skip_matches_the_distribution_mean() {
        let mut rng = SimSeed::from_u64(42).rng();
        let p = 0.2f64;
        let trials = 50_000;
        let total: u64 = (0..trials)
            .map(|_| geometric_skip(&mut rng, p, u64::MAX).expect("no overshoot"))
            .sum();
        let mean = total as f64 / trials as f64;
        let expected = (1.0 - p) / p;
        assert!((mean - expected).abs() < 0.1, "mean {mean} vs {expected}");
        // p = 1 means the event is immediate, and overshoots report None.
        assert_eq!(geometric_skip(&mut rng, 1.0, 10), Some(0));
        assert_eq!(geometric_skip(&mut rng, 1e-18, 1), None);
    }

    #[test]
    fn exact_engine_advance_matches_stepwise_semantics() {
        let config = Configuration::from_counts(vec![80, 20], 0).unwrap();
        let mut engine = CountSimulator::new(Usd2Plain, config, SimSeed::from_u64(2));
        let adv = StepEngine::advance(&mut engine, 1_000_000);
        assert_eq!(adv, Advance::Event);
        assert!(StepEngine::interactions(&engine) >= 1);
        let now = StepEngine::interactions(&engine);
        let adv = StepEngine::advance(&mut engine, now);
        assert_eq!(adv, Advance::LimitReached);
    }

    #[test]
    fn count_engine_dispatches_both_backends() {
        for choice in [EngineChoice::Exact, EngineChoice::Batched] {
            let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
            let mut engine = CountEngine::new(Usd2Plain, config, SimSeed::from_u64(4), choice);
            let result =
                engine.run_engine(StopCondition::consensus().or_max_interactions(5_000_000));
            assert!(result.reached_consensus(), "{choice} failed to converge");
            assert_eq!(engine.engine_name(), choice.name());
        }
        let config = Configuration::from_counts(vec![10, 10], 0).unwrap();
        let err = CountEngine::try_new(
            Usd2Plain,
            config,
            SimSeed::from_u64(0),
            EngineChoice::MeanField,
        )
        .unwrap_err();
        assert!(matches!(err, PpError::UnsupportedEngine { .. }));
    }

    #[test]
    fn productive_probability_matches_closed_form() {
        // x = (300, 700), u = 0: p = 2·300·700/1000² = 0.42.
        let config = Configuration::from_counts(vec![300, 700], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(77));
        assert!((engine.productive_probability() - 0.42).abs() < 1e-12);
    }

    #[test]
    fn gen_u128_below_stays_in_range_and_covers_small_bounds() {
        let mut rng = SimSeed::from_u64(1).rng();
        let mut seen = [false; 5];
        for _ in 0..2_000 {
            let x = uniform_u128_below(&mut rng, 5);
            assert!(x < 5);
            seen[x as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "some residues never sampled: {seen:?}"
        );
    }

    #[test]
    fn batched_checkpoint_restores_the_identical_trajectory_tail() {
        let config = Configuration::from_counts(vec![600, 300], 100).unwrap();
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let limit = stop.max_interactions().unwrap();
        let mut reference = BatchedEngine::new(Usd2Plain, config.clone(), SimSeed::from_u64(77));
        let mut interrupted = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(77));
        // Interrupt between `advance` calls, against the same final limit —
        // the two rules the checkpoint contract requires.
        for _ in 0..40 {
            assert_eq!(reference.advance(limit), interrupted.advance(limit));
        }
        let checkpoint = Checkpoint::capture(&interrupted);
        assert_eq!(checkpoint.kind(), "batched");
        drop(interrupted);
        let mut restored = BatchedEngine::restore(Usd2Plain, &checkpoint).unwrap();
        assert_eq!(
            StepEngine::configuration(&restored),
            StepEngine::configuration(&reference)
        );
        // The bookkeeping counters continue where the interrupted run left
        // off (a checkpoint after 40 events carries 40 draws).
        assert_eq!(
            restored.capture_state().counter("events_drawn"),
            Some(reference.events_drawn)
        );
        let expected = reference.run_engine(stop);
        let resumed = restored.run_engine(stop);
        // RunResult equality covers outcome, interactions, the final
        // configuration, the scheduler and rejection misses; maintenance
        // counters legitimately differ by the restore's one warm-up rebuild.
        assert_eq!(resumed, expected);
        let warm = expected.maintenance().unwrap();
        let cold = resumed.maintenance().unwrap();
        assert_eq!(cold.rows_rebuilt, warm.rows_rebuilt + 1);
        assert_eq!(cold.rows_patched, warm.rows_patched);
    }

    #[test]
    fn recorder_sees_initial_and_event_configurations() {
        let config = Configuration::from_counts(vec![90, 10], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(9));
        let mut times: Vec<u64> = Vec::new();
        let mut rec = |t: u64, _c: &Configuration| times.push(t);
        engine.run_engine_recorded(
            StopCondition::consensus().or_max_interactions(1_000_000),
            &mut rec,
        );
        assert_eq!(times[0], 0);
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "event times must increase"
        );
    }
}
