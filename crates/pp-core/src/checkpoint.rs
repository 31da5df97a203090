//! Deterministic checkpoint/restore for every count-based engine.
//!
//! A [`Checkpoint`] is a versioned, self-describing snapshot of a running
//! engine's *complete* resumable state: the count vector, the interaction
//! counter, the position of every RNG stream the engine owns, and the
//! bookkeeping counters that flow into [`RunResult`](crate::RunResult)s.
//! Capture one with [`Checkpoint::capture`] (any engine implementing
//! [`EngineCheckpoint`]), serialize it with [`Checkpoint::to_json`] /
//! [`Checkpoint::save`], and hand it back to the matching engine's
//! `restore` constructor ([`CountSimulator::restore`],
//! [`BatchedEngine::restore`], [`ShardedEngine::restore`],
//! [`EnsembleEngine::restore`]).
//!
//! # The bit-exactness contract
//!
//! A run interrupted at a capture point and restored from the checkpoint
//! produces the **identical trajectory tail** — every configuration, every
//! interaction count, every final [`RunResult`](crate::RunResult) — as the
//! uninterrupted run, at every thread count.  Two rules make this hold:
//!
//! 1. **Capture between `advance` calls only.**  Every engine's RNG streams
//!    are consumed in whole-`advance` units; a checkpoint taken between two
//!    `advance` calls records every stream at a draw boundary.  (The
//!    `UsdSimulator` drive loop in `usd-core` captures exactly there.)
//! 2. **Resume against the same final limit.**  A skip-ahead engine's
//!    geometric draw near a budget boundary depends on the remaining
//!    headroom; both legs must run toward the same
//!    [`StopCondition`](crate::StopCondition) budget.  Memorylessness makes
//!    the overshoot re-sample exact, but only when the limit agrees.
//!
//! # What is captured — and what deliberately is not
//!
//! Captured: category counts, interaction counters, the xoshiro256++ state
//! words of every owned RNG stream (per-shard engine and cross RNGs, the
//! sharded allocator RNG, every ensemble replica's RNG), the incremental
//! maintenance switch, and the maintenance/throughput counters
//! (patches, rebuilds, skips, draws) so a restored run's reports continue
//! where the interrupted run left off.  The mean-field engine holds no RNG
//! at all; its [`MeanFieldSnapshot`] instead stores the exact IEEE-754 bit
//! patterns of its `f64` ODE state, so even the deterministic backend
//! resumes bit-identically.
//!
//! Not captured, because each is a pure function of the captured state and
//! is rebuilt deterministically on restore:
//!
//! * the batched engine's maintained row state (the closed-form running
//!   sums, or the row table) — rebuilt from the counts at the first event
//!   after restore, bit-identical to the maintained state (the restored run
//!   may therefore report **one extra `rows_rebuilt`** per engine than the
//!   uninterrupted run; result equality ignores maintenance bookkeeping),
//! * the exact engine's Fenwick tree (rebuilt from the counts),
//! * the sharded engine's merged configuration, pair weights, and per-epoch
//!   quota/scratch buffers (dead between `advance` calls — captures land on
//!   epoch boundaries),
//! * the ensemble's shared-table cache and adaptive-cache statistics —
//!   performance state only; shared tables are pure functions of counts
//!   and consume no randomness, so a cold cache cannot change any
//!   replica's draws (cache hit/round *statistics* may differ between
//!   legs; per-replica results never do),
//! * thread-local activation-law memos in `consensus-dynamics` — restored
//!   samplers announce a fresh run generation, so the first refresh is a
//!   cold rebuild with bit-identical values.
//!
//! # Format
//!
//! Checkpoints serialize through the shared [`crate::json`] codec as
//! `{"format": 1, "kind": "<engine>", "engine": {…}}`, plus an
//! optional `"meta": {…}` object of named `u64` values that wrappers above
//! the engine layer (the `usd-core` simulator) use to stamp their own
//! resumable state — seed, consumed interactions, initial counts — onto an
//! engine checkpoint without a second file format.
//! [`CHECKPOINT_FORMAT_VERSION`] is bumped on any incompatible layout
//! change; [`Checkpoint::from_json`] rejects unknown versions with a named
//! [`PpError::Checkpoint`] diagnostic instead of misreading newer state.
//!
//! [`CountSimulator::restore`]: crate::CountSimulator::restore
//! [`BatchedEngine::restore`]: crate::BatchedEngine::restore
//! [`ShardedEngine::restore`]: crate::ShardedEngine::restore
//! [`EnsembleEngine::restore`]: crate::EnsembleEngine::restore

use crate::config::Configuration;
use crate::error::PpError;
use crate::json::{Json, ObjBuilder};
use std::path::Path;

/// The current checkpoint layout version.  Bumped on any incompatible
/// change; loaders reject versions they do not understand.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// Snapshot of one single-stream count engine: an exact simulator, a
/// standalone batched engine, one shard's engine, or one ensemble replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Per-opinion decided counts (length `k`).
    pub supports: Vec<u64>,
    /// Undecided-agent count.
    pub undecided: u64,
    /// Interactions elapsed (null interactions included).
    pub interactions: u64,
    /// The engine RNG's xoshiro256++ state words.
    pub rng: [u64; 4],
    /// Engine-specific bookkeeping counters (maintenance, skip/draw counts,
    /// runtime switches), stored by name so each engine round-trips only
    /// what it has.  Missing counters restore as their defaults — they are
    /// reporting state, never trajectory state.
    pub counters: Vec<(String, u64)>,
}

impl EngineSnapshot {
    /// The named bookkeeping counter, if the snapshot carries it.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Rebuilds the configuration from the captured counts.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the counts are not a valid
    /// configuration (e.g. an all-zero population from a corrupt file).
    pub fn configuration(&self) -> Result<Configuration, PpError> {
        Configuration::from_counts(self.supports.clone(), self.undecided).map_err(|e| {
            PpError::Checkpoint {
                reason: format!("snapshot counts do not form a valid configuration: {e}"),
            }
        })
    }
}

/// Snapshot of one shard of a [`ShardedEngine`](crate::ShardedEngine): the
/// shard's batched engine plus its cross-block reconciliation RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// The shard's local batched engine.
    pub engine: EngineSnapshot,
    /// The shard's cross-reconciliation RNG state words.
    pub cross_rng: [u64; 4],
}

/// Snapshot of a [`ShardedEngine`](crate::ShardedEngine).  Self-contained:
/// the epoch length, thread count and re-balance cadence ride along, so
/// restore needs no [`ShardPlan`](crate::ShardPlan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedSnapshot {
    /// Per-shard state, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// The multinomial epoch allocator's RNG state words.
    pub alloc_rng: [u64; 4],
    /// Merged interactions elapsed.
    pub interactions: u64,
    /// Reconciliation epochs completed.
    pub epochs: u64,
    /// Epoch length in interactions.
    pub epoch_len: u64,
    /// Worker-thread cap (wall-clock only; never affects the trajectory).
    pub threads: u64,
    /// Re-balance cadence in epochs (`None` = never).
    pub rebalance_every: Option<u64>,
}

/// Snapshot of an [`EnsembleEngine`](crate::EnsembleEngine): every replica
/// plus the lifetime lockstep counters.  The shared-table cache is *not*
/// captured (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleSnapshot {
    /// Per-replica state, in construction order.
    pub replicas: Vec<EngineSnapshot>,
    /// Lifetime lockstep rounds.
    pub rounds: u64,
    /// Lifetime dormant-window events.
    pub dormant_events: u64,
}

/// Snapshot of a mean-field (fluid-limit) engine.  The ODE state is `f64`,
/// which a decimal rendering cannot carry exactly, so every float is
/// stored as its exact IEEE-754 bit pattern
/// ([`f64::to_bits`]) — the round trip is bit-exact, never a decimal
/// approximation.  The quantized configuration rides along as plain counts
/// (largest-remainder rounding of the exact fractions could disagree with
/// the captured configuration by one agent under floating-point re-derive,
/// so it is state, not a pure function).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeanFieldSnapshot {
    /// Bit patterns of the per-opinion fractions `a_1..a_k`.
    pub fraction_bits: Vec<u64>,
    /// Bit pattern of the undecided fraction `w`.
    pub undecided_bits: u64,
    /// Per-opinion decided counts of the quantized configuration.
    pub supports: Vec<u64>,
    /// Undecided count of the quantized configuration.
    pub undecided: u64,
    /// Population size `n`.
    pub population: u64,
    /// Interactions elapsed (parallel time × `n`).
    pub interactions: u64,
    /// Bit pattern of the RK4 step size `dt`.
    pub dt_bits: u64,
}

/// The engine-specific payload of a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineState {
    /// An exact per-interaction simulator.
    Exact(EngineSnapshot),
    /// A standalone batched skip-ahead engine.
    Batched(EngineSnapshot),
    /// A sharded parallel engine.
    Sharded(ShardedSnapshot),
    /// A lockstep replica ensemble.
    Ensemble(EnsembleSnapshot),
    /// A mean-field (fluid-limit) ODE engine.
    MeanField(MeanFieldSnapshot),
}

impl EngineState {
    /// The stable engine identifier stored in the `kind` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            EngineState::Exact(_) => "exact",
            EngineState::Batched(_) => "batched",
            EngineState::Sharded(_) => "sharded",
            EngineState::Ensemble(_) => "ensemble",
            EngineState::MeanField(_) => "mean-field",
        }
    }
}

/// An engine that can capture its complete resumable state (the capture
/// half of the checkpoint contract; restore goes through each engine's
/// `restore` constructor because it needs the protocol or dynamics value,
/// which checkpoints deliberately do not serialize).
pub trait EngineCheckpoint {
    /// Captures the engine's state.  Must be called between `advance`
    /// calls — see the module docs for the exactness rules.
    fn capture_engine(&self) -> EngineState;
}

/// A replica engine that can be captured and rebuilt inside a generic
/// [`EnsembleEngine`](crate::EnsembleEngine) checkpoint.
pub trait ReplicaCheckpoint: Sized {
    /// What a restored replica needs besides its snapshot (the protocol
    /// for a batched engine, the dynamics for a sequential sampler).
    type Context;

    /// Captures this replica's resumable state.
    fn capture_replica(&self) -> EngineSnapshot;

    /// Rebuilds a replica from `snapshot`.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] (or the context's own construction
    /// error) when the snapshot does not fit the context.
    fn restore_replica(ctx: &Self::Context, snapshot: &EngineSnapshot) -> Result<Self, PpError>;
}

/// A versioned engine checkpoint (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    version: u32,
    engine: EngineState,
    /// Named `u64` metadata stamped by wrappers above the engine layer
    /// (empty for bare engine checkpoints; never read by engine restores).
    meta: Vec<(String, u64)>,
}

impl Checkpoint {
    /// Wraps an engine state at the current format version.
    #[must_use]
    pub fn new(engine: EngineState) -> Self {
        Checkpoint {
            version: CHECKPOINT_FORMAT_VERSION,
            engine,
            meta: Vec::new(),
        }
    }

    /// Captures `engine` between `advance` calls.
    #[must_use]
    pub fn capture<E: EngineCheckpoint + ?Sized>(engine: &E) -> Self {
        Checkpoint::new(engine.capture_engine())
    }

    /// The format version this checkpoint was written at.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The engine payload.
    #[must_use]
    pub fn engine(&self) -> &EngineState {
        &self.engine
    }

    /// The stable engine identifier (`"exact"`, `"batched"`, `"sharded"`,
    /// `"ensemble"`, `"mean-field"`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.engine.kind()
    }

    /// Adds (or replaces) a named metadata value.  Metadata is wrapper
    /// state — the `usd-core` simulator stamps its seed, consumed
    /// interactions and initial counts here — and is never read by the
    /// engine-level restore constructors.
    #[must_use]
    pub fn with_meta(mut self, name: &str, value: u64) -> Self {
        if let Some(slot) = self.meta.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.meta.push((name.to_string(), value));
        }
        self
    }

    /// The named metadata value, if present.
    #[must_use]
    pub fn meta(&self, name: &str) -> Option<u64> {
        self.meta.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Serializes the checkpoint to its JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let engine = match &self.engine {
            EngineState::Exact(s) | EngineState::Batched(s) => snapshot_json(s),
            EngineState::Sharded(s) => sharded_json(s),
            EngineState::Ensemble(s) => ensemble_json(s),
            EngineState::MeanField(s) => mean_field_json(s),
        };
        ObjBuilder::new()
            .field("format", Json::U64(u64::from(self.version)))
            .field("kind", Json::Str(self.kind().to_string()))
            .field("engine", engine)
            .opt(
                "meta",
                (!self.meta.is_empty()).then(|| u64_object(&self.meta)),
            )
            .build()
            .to_json()
    }

    /// Parses a checkpoint from its JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] on malformed JSON, a missing or
    /// misshaped field, an unknown `kind`, or a format version this build
    /// does not understand.
    pub fn from_json(text: &str) -> Result<Self, PpError> {
        let value =
            Json::parse(text).map_err(|e| bad(&format!("malformed checkpoint document: {e}")))?;
        let root = as_object(&value, "checkpoint root")?;
        let version = as_u64(get(root, "format")?, "format")?;
        let version = u32::try_from(version).map_err(|_| bad("format version out of range"))?;
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(bad(&format!(
                "unsupported checkpoint format version {version} \
                 (this build reads version {CHECKPOINT_FORMAT_VERSION})"
            )));
        }
        let kind = as_str(get(root, "kind")?, "kind")?;
        let payload = get(root, "engine")?;
        let engine = match kind {
            "exact" => EngineState::Exact(read_snapshot(payload)?),
            "batched" => EngineState::Batched(read_snapshot(payload)?),
            "sharded" => EngineState::Sharded(read_sharded(payload)?),
            "ensemble" => EngineState::Ensemble(read_ensemble(payload)?),
            "mean-field" => EngineState::MeanField(read_mean_field(payload)?),
            other => return Err(bad(&format!("unknown engine kind {other:?}"))),
        };
        let meta = match value.get("meta") {
            Some(v) => read_u64_object(v, "meta")?,
            None => Vec::new(),
        };
        Ok(Checkpoint {
            version,
            engine,
            meta,
        })
    }

    /// Writes the JSON document to `path` (atomically, see
    /// [`write_atomic`]) and returns the bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] wrapping the I/O failure.
    pub fn save(&self, path: &Path) -> Result<u64, PpError> {
        let json = self.to_json();
        write_atomic(path, json.as_bytes()).map_err(|e| {
            bad(&format!(
                "failed to write checkpoint {}: {e}",
                path.display()
            ))
        })?;
        Ok(json.len() as u64)
    }

    /// Reads and parses a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] on I/O failure or any
    /// [`Checkpoint::from_json`] diagnostic.
    pub fn load(path: &Path) -> Result<Self, PpError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            bad(&format!(
                "failed to read checkpoint {}: {e}",
                path.display()
            ))
        })?;
        Self::from_json(&text)
    }

    /// Unwraps a single-engine snapshot of the expected `kind`, with a
    /// named diagnostic on mismatch (the restore constructors' shared
    /// validation path).
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the checkpoint holds a
    /// different engine kind.
    pub fn expect_single(&self, kind: &'static str) -> Result<&EngineSnapshot, PpError> {
        match (&self.engine, kind) {
            (EngineState::Exact(s), "exact") | (EngineState::Batched(s), "batched") => Ok(s),
            _ => Err(self.kind_mismatch(kind)),
        }
    }

    /// The standard kind-mismatch diagnostic.
    pub(crate) fn kind_mismatch(&self, expected: &'static str) -> PpError {
        bad(&format!(
            "checkpoint holds {:?} engine state, expected {expected:?}",
            self.kind()
        ))
    }
}

/// Replaces `path` with `contents` all at once: the bytes go to a sibling
/// temporary file, which is then renamed over the target.  A process killed
/// mid-write leaves either the old file or the new one, never a truncated
/// one (the temporary file may survive such a kill; it is never read).
///
/// # Errors
///
/// Returns the I/O error of the write or the rename; the temporary file is
/// removed on either failure.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(name);
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Shorthand for a named checkpoint diagnostic.
fn bad(reason: &str) -> PpError {
    PpError::Checkpoint {
        reason: reason.to_string(),
    }
}

// --- JSON writer ----------------------------------------------------------

fn u64_array(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::U64(v)).collect())
}

fn u64_object(pairs: &[(String, u64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(name, v)| (name.clone(), Json::U64(*v)))
            .collect(),
    )
}

fn snapshot_json(s: &EngineSnapshot) -> Json {
    ObjBuilder::new()
        .field("supports", u64_array(&s.supports))
        .field("undecided", Json::U64(s.undecided))
        .field("interactions", Json::U64(s.interactions))
        .field("rng", u64_array(&s.rng))
        .field("counters", u64_object(&s.counters))
        .build()
}

fn sharded_json(s: &ShardedSnapshot) -> Json {
    let shards = s
        .shards
        .iter()
        .map(|shard| {
            ObjBuilder::new()
                .field("engine", snapshot_json(&shard.engine))
                .field("cross_rng", u64_array(&shard.cross_rng))
                .build()
        })
        .collect();
    ObjBuilder::new()
        .field("shards", Json::Arr(shards))
        .field("alloc_rng", u64_array(&s.alloc_rng))
        .field("interactions", Json::U64(s.interactions))
        .field("epochs", Json::U64(s.epochs))
        .field("epoch_len", Json::U64(s.epoch_len))
        .field("threads", Json::U64(s.threads))
        .field(
            "rebalance_every",
            s.rebalance_every.map_or(Json::Null, Json::U64),
        )
        .build()
}

fn ensemble_json(s: &EnsembleSnapshot) -> Json {
    ObjBuilder::new()
        .field(
            "replicas",
            Json::Arr(s.replicas.iter().map(snapshot_json).collect()),
        )
        .field("rounds", Json::U64(s.rounds))
        .field("dormant_events", Json::U64(s.dormant_events))
        .build()
}

fn mean_field_json(s: &MeanFieldSnapshot) -> Json {
    ObjBuilder::new()
        .field("fraction_bits", u64_array(&s.fraction_bits))
        .field("undecided_bits", Json::U64(s.undecided_bits))
        .field("supports", u64_array(&s.supports))
        .field("undecided", Json::U64(s.undecided))
        .field("population", Json::U64(s.population))
        .field("interactions", Json::U64(s.interactions))
        .field("dt_bits", Json::U64(s.dt_bits))
        .build()
}

// --- JSON reader ----------------------------------------------------------
//
// Typed accessors over the shared value, each failing with a diagnostic
// that names the checkpoint field.

fn as_u64(value: &Json, what: &str) -> Result<u64, PpError> {
    value
        .as_u64()
        .ok_or_else(|| bad(&format!("field {what:?} is not an unsigned integer")))
}

fn as_str<'a>(value: &'a Json, what: &str) -> Result<&'a str, PpError> {
    value
        .as_str()
        .ok_or_else(|| bad(&format!("field {what:?} is not a string")))
}

fn as_array<'a>(value: &'a Json, what: &str) -> Result<&'a [Json], PpError> {
    value
        .as_array()
        .ok_or_else(|| bad(&format!("field {what:?} is not an array")))
}

fn as_object<'a>(value: &'a Json, what: &str) -> Result<&'a [(String, Json)], PpError> {
    value
        .as_object()
        .ok_or_else(|| bad(&format!("field {what:?} is not an object")))
}

fn get<'a>(obj: &'a [(String, Json)], name: &str) -> Result<&'a Json, PpError> {
    obj.iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .ok_or_else(|| bad(&format!("missing checkpoint field {name:?}")))
}

fn read_u64_array(value: &Json, what: &str) -> Result<Vec<u64>, PpError> {
    as_array(value, what)?
        .iter()
        .map(|v| as_u64(v, what))
        .collect()
}

fn read_u64_object(value: &Json, what: &str) -> Result<Vec<(String, u64)>, PpError> {
    as_object(value, what)?
        .iter()
        .map(|(name, v)| Ok((name.clone(), as_u64(v, name)?)))
        .collect()
}

fn read_rng(value: &Json, what: &str) -> Result<[u64; 4], PpError> {
    let words = read_u64_array(value, what)?;
    <[u64; 4]>::try_from(words)
        .map_err(|w| bad(&format!("field {what:?} has {} words, expected 4", w.len())))
}

fn read_snapshot(value: &Json) -> Result<EngineSnapshot, PpError> {
    let obj = as_object(value, "engine snapshot")?;
    Ok(EngineSnapshot {
        supports: read_u64_array(get(obj, "supports")?, "supports")?,
        undecided: as_u64(get(obj, "undecided")?, "undecided")?,
        interactions: as_u64(get(obj, "interactions")?, "interactions")?,
        rng: read_rng(get(obj, "rng")?, "rng")?,
        counters: read_u64_object(get(obj, "counters")?, "counters")?,
    })
}

fn read_sharded(value: &Json) -> Result<ShardedSnapshot, PpError> {
    let obj = as_object(value, "sharded state")?;
    let shards = as_array(get(obj, "shards")?, "shards")?
        .iter()
        .map(|shard| {
            let s = as_object(shard, "shard")?;
            Ok(ShardSnapshot {
                engine: read_snapshot(get(s, "engine")?)?,
                cross_rng: read_rng(get(s, "cross_rng")?, "cross_rng")?,
            })
        })
        .collect::<Result<Vec<_>, PpError>>()?;
    let rebalance_every = match get(obj, "rebalance_every")? {
        Json::Null => None,
        v => Some(as_u64(v, "rebalance_every")?),
    };
    Ok(ShardedSnapshot {
        shards,
        alloc_rng: read_rng(get(obj, "alloc_rng")?, "alloc_rng")?,
        interactions: as_u64(get(obj, "interactions")?, "interactions")?,
        epochs: as_u64(get(obj, "epochs")?, "epochs")?,
        epoch_len: as_u64(get(obj, "epoch_len")?, "epoch_len")?,
        threads: as_u64(get(obj, "threads")?, "threads")?,
        rebalance_every,
    })
}

fn read_ensemble(value: &Json) -> Result<EnsembleSnapshot, PpError> {
    let obj = as_object(value, "ensemble state")?;
    Ok(EnsembleSnapshot {
        replicas: as_array(get(obj, "replicas")?, "replicas")?
            .iter()
            .map(read_snapshot)
            .collect::<Result<Vec<_>, PpError>>()?,
        rounds: as_u64(get(obj, "rounds")?, "rounds")?,
        dormant_events: as_u64(get(obj, "dormant_events")?, "dormant_events")?,
    })
}

fn read_mean_field(value: &Json) -> Result<MeanFieldSnapshot, PpError> {
    let obj = as_object(value, "mean-field state")?;
    Ok(MeanFieldSnapshot {
        fraction_bits: read_u64_array(get(obj, "fraction_bits")?, "fraction_bits")?,
        undecided_bits: as_u64(get(obj, "undecided_bits")?, "undecided_bits")?,
        supports: read_u64_array(get(obj, "supports")?, "supports")?,
        undecided: as_u64(get(obj, "undecided")?, "undecided")?,
        population: as_u64(get(obj, "population")?, "population")?,
        interactions: as_u64(get(obj, "interactions")?, "interactions")?,
        dt_bits: as_u64(get(obj, "dt_bits")?, "dt_bits")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> EngineSnapshot {
        EngineSnapshot {
            supports: vec![12, 0, 7],
            undecided: 3,
            interactions: 123_456,
            rng: [1, u64::MAX, 0, 42],
            counters: vec![
                ("events_drawn".to_string(), 99),
                ("incremental".to_string(), 1),
            ],
        }
    }

    #[test]
    fn every_engine_state_round_trips_through_json() {
        let states = [
            EngineState::Exact(sample_snapshot()),
            EngineState::Batched(sample_snapshot()),
            EngineState::Sharded(ShardedSnapshot {
                shards: vec![
                    ShardSnapshot {
                        engine: sample_snapshot(),
                        cross_rng: [5, 6, 7, 8],
                    },
                    ShardSnapshot {
                        engine: sample_snapshot(),
                        cross_rng: [9, 10, 11, 12],
                    },
                ],
                alloc_rng: [13, 14, 15, 16],
                interactions: 999,
                epochs: 31,
                epoch_len: 32,
                threads: 4,
                rebalance_every: Some(64),
            }),
            EngineState::Ensemble(EnsembleSnapshot {
                replicas: vec![sample_snapshot(); 3],
                rounds: 17,
                dormant_events: 5,
            }),
            EngineState::MeanField(MeanFieldSnapshot {
                fraction_bits: vec![
                    0.5f64.to_bits(),
                    (1.0f64 / 3.0).to_bits(),
                    f64::MIN_POSITIVE.to_bits(),
                ],
                undecided_bits: 0.2f64.to_bits(),
                supports: vec![500, 333, 0],
                undecided: 167,
                population: 1_000,
                interactions: 4_200,
                dt_bits: 0.01f64.to_bits(),
            }),
        ];
        for state in states {
            let checkpoint = Checkpoint::new(state);
            let json = checkpoint.to_json();
            let parsed =
                Checkpoint::from_json(&json).unwrap_or_else(|e| panic!("{e} while parsing {json}"));
            assert_eq!(parsed, checkpoint);
            assert_eq!(parsed.version(), CHECKPOINT_FORMAT_VERSION);
        }
    }

    #[test]
    fn none_rebalance_round_trips_as_null() {
        let checkpoint = Checkpoint::new(EngineState::Sharded(ShardedSnapshot {
            shards: vec![ShardSnapshot {
                engine: sample_snapshot(),
                cross_rng: [0, 1, 2, 3],
            }],
            alloc_rng: [4, 5, 6, 7],
            interactions: 1,
            epochs: 0,
            epoch_len: 10,
            threads: 1,
            rebalance_every: None,
        }));
        let json = checkpoint.to_json();
        assert!(json.contains("\"rebalance_every\":null"));
        assert_eq!(Checkpoint::from_json(&json).unwrap(), checkpoint);
    }

    #[test]
    fn unknown_format_versions_are_rejected_by_name() {
        let json = Checkpoint::new(EngineState::Exact(sample_snapshot()))
            .to_json()
            .replace("\"format\":1", "\"format\":9999");
        let err = Checkpoint::from_json(&json).unwrap_err();
        let PpError::Checkpoint { reason } = &err else {
            panic!("expected a checkpoint error, got {err:?}");
        };
        assert!(
            reason.contains("unsupported checkpoint format version 9999"),
            "diagnostic must name the version: {reason}"
        );
    }

    #[test]
    fn malformed_documents_fail_with_named_diagnostics() {
        for (doc, needle) in [
            ("", "unexpected end"),
            ("{\"format\":1}", "missing checkpoint field \"kind\""),
            ("[1,2,3]", "is not an object"),
            (
                "{\"format\":1,\"kind\":\"warp\",\"engine\":{}}",
                "unknown engine kind",
            ),
            ("{\"format\":1} trailing", "trailing garbage"),
        ] {
            let err = Checkpoint::from_json(doc).unwrap_err();
            let PpError::Checkpoint { reason } = &err else {
                panic!("expected a checkpoint error for {doc:?}, got {err:?}");
            };
            assert!(reason.contains(needle), "{doc:?} gave {reason:?}");
        }
    }

    #[test]
    fn counter_names_with_escapes_survive_the_round_trip() {
        let mut snap = sample_snapshot();
        snap.counters
            .push(("weird\"name\\with\nescapes".to_string(), 7));
        let checkpoint = Checkpoint::new(EngineState::Batched(snap));
        let parsed = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(parsed, checkpoint);
        let EngineState::Batched(s) = parsed.engine() else {
            panic!("kind changed in flight");
        };
        assert_eq!(s.counter("weird\"name\\with\nescapes"), Some(7));
    }

    #[test]
    fn control_characters_read_in_both_escape_forms() {
        // Older writers spelled a newline in a name as `\u000a`; the shared
        // codec writes `\n`.  Both must restore the same name.
        let mut snap = sample_snapshot();
        snap.counters.push(("line\nbreak".to_string(), 3));
        let checkpoint = Checkpoint::new(EngineState::Exact(snap));
        let json = checkpoint.to_json();
        assert!(json.contains("line\\nbreak"), "{json}");
        let legacy = json.replace("line\\nbreak", "line\\u000abreak");
        assert_eq!(Checkpoint::from_json(&legacy).unwrap(), checkpoint);
    }

    #[test]
    fn wrapper_metadata_rides_along_and_round_trips() {
        let bare = Checkpoint::new(EngineState::Exact(sample_snapshot()));
        assert!(!bare.to_json().contains("\"meta\""));
        assert_eq!(bare.meta("sim.seed"), None);
        let stamped = bare
            .clone()
            .with_meta("sim.seed", 42)
            .with_meta("sim.consumed", 7)
            .with_meta("sim.seed", 43); // replaces, never duplicates
        assert_eq!(stamped.meta("sim.seed"), Some(43));
        assert_eq!(stamped.meta("sim.consumed"), Some(7));
        let parsed = Checkpoint::from_json(&stamped.to_json()).unwrap();
        assert_eq!(parsed, stamped);
        // Bare documents (no meta object) still parse.
        assert_eq!(Checkpoint::from_json(&bare.to_json()).unwrap(), bare);
    }

    #[test]
    fn mean_field_bit_patterns_round_trip_exactly() {
        // Values with no finite decimal representation must survive the
        // round trip bit-for-bit — the whole point of the bits encoding.
        let awkward = [1.0f64 / 3.0, 0.1 + 0.2, f64::MIN_POSITIVE, 1.0 - 1e-16];
        let state = EngineState::MeanField(MeanFieldSnapshot {
            fraction_bits: awkward.iter().map(|f| f.to_bits()).collect(),
            undecided_bits: (1.0f64 / 7.0).to_bits(),
            supports: vec![1, 2, 3, 4],
            undecided: 10,
            population: 20,
            interactions: 7,
            dt_bits: 0.001f64.to_bits(),
        });
        let parsed = Checkpoint::from_json(&Checkpoint::new(state.clone()).to_json()).unwrap();
        let EngineState::MeanField(s) = parsed.engine() else {
            panic!("kind changed in flight");
        };
        for (bits, original) in s.fraction_bits.iter().zip(awkward) {
            assert_eq!(f64::from_bits(*bits).to_bits(), original.to_bits());
        }
        assert_eq!(parsed, Checkpoint::new(state));
    }

    #[test]
    fn snapshot_rejects_invalid_counts() {
        let snap = EngineSnapshot {
            supports: vec![],
            undecided: 0,
            interactions: 0,
            rng: [0; 4],
            counters: Vec::new(),
        };
        assert!(matches!(
            snap.configuration(),
            Err(PpError::Checkpoint { .. })
        ));
    }

    #[test]
    fn expect_single_names_the_kind_mismatch() {
        let checkpoint = Checkpoint::new(EngineState::Exact(sample_snapshot()));
        assert!(checkpoint.expect_single("exact").is_ok());
        let err = checkpoint.expect_single("batched").unwrap_err();
        let PpError::Checkpoint { reason } = err else {
            panic!("expected a checkpoint error");
        };
        assert!(reason.contains("\"exact\"") && reason.contains("\"batched\""));
    }

    /// Byte goldens for every engine kind with wrapper metadata, recorded
    /// before the checkpoint writer moved onto the shared JSON codec: the
    /// on-disk format must not drift.
    #[test]
    fn checkpoint_documents_keep_their_bytes() {
        let states = [
            EngineState::Exact(sample_snapshot()),
            EngineState::Batched(sample_snapshot()),
            EngineState::Sharded(ShardedSnapshot {
                shards: vec![ShardSnapshot {
                    engine: sample_snapshot(),
                    cross_rng: [5, 6, 7, 8],
                }],
                alloc_rng: [13, 14, 15, 16],
                interactions: 999,
                epochs: 31,
                epoch_len: 32,
                threads: 4,
                rebalance_every: None,
            }),
            EngineState::Ensemble(EnsembleSnapshot {
                replicas: vec![sample_snapshot(); 2],
                rounds: 17,
                dormant_events: 5,
            }),
            EngineState::MeanField(MeanFieldSnapshot {
                fraction_bits: vec![0.5f64.to_bits(), 0.25f64.to_bits()],
                undecided_bits: 0.25f64.to_bits(),
                supports: vec![500, 250],
                undecided: 250,
                population: 1_000,
                interactions: 4_200,
                dt_bits: 0.01f64.to_bits(),
            }),
        ];
        let docs: Vec<String> = states
            .into_iter()
            .map(|state| {
                Checkpoint::new(state)
                    .with_meta("sim.seed", 42)
                    .with_meta("sim.consumed", u64::MAX)
                    .to_json()
            })
            .collect();
        assert_eq!(
            docs,
            [
                r#"{"format":1,"kind":"exact","engine":{"supports":[12,0,7],"undecided":3,"interactions":123456,"rng":[1,18446744073709551615,0,42],"counters":{"events_drawn":99,"incremental":1}},"meta":{"sim.seed":42,"sim.consumed":18446744073709551615}}"#,
                r#"{"format":1,"kind":"batched","engine":{"supports":[12,0,7],"undecided":3,"interactions":123456,"rng":[1,18446744073709551615,0,42],"counters":{"events_drawn":99,"incremental":1}},"meta":{"sim.seed":42,"sim.consumed":18446744073709551615}}"#,
                r#"{"format":1,"kind":"sharded","engine":{"shards":[{"engine":{"supports":[12,0,7],"undecided":3,"interactions":123456,"rng":[1,18446744073709551615,0,42],"counters":{"events_drawn":99,"incremental":1}},"cross_rng":[5,6,7,8]}],"alloc_rng":[13,14,15,16],"interactions":999,"epochs":31,"epoch_len":32,"threads":4,"rebalance_every":null},"meta":{"sim.seed":42,"sim.consumed":18446744073709551615}}"#,
                r#"{"format":1,"kind":"ensemble","engine":{"replicas":[{"supports":[12,0,7],"undecided":3,"interactions":123456,"rng":[1,18446744073709551615,0,42],"counters":{"events_drawn":99,"incremental":1}},{"supports":[12,0,7],"undecided":3,"interactions":123456,"rng":[1,18446744073709551615,0,42],"counters":{"events_drawn":99,"incremental":1}}],"rounds":17,"dormant_events":5},"meta":{"sim.seed":42,"sim.consumed":18446744073709551615}}"#,
                r#"{"format":1,"kind":"mean-field","engine":{"fraction_bits":[4602678819172646912,4598175219545276416],"undecided_bits":4598175219545276416,"supports":[500,250],"undecided":250,"population":1000,"interactions":4200,"dt_bits":4576918229304087675},"meta":{"sim.seed":42,"sim.consumed":18446744073709551615}}"#,
            ]
        );
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let checkpoint = Checkpoint::new(EngineState::Exact(sample_snapshot()));
        let dir = std::env::temp_dir().join("pp_core_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt.json");
        let bytes = checkpoint.save(&path).unwrap();
        assert!(bytes > 0);
        assert_eq!(Checkpoint::load(&path).unwrap(), checkpoint);
        let missing = dir.join("does-not-exist.ckpt.json");
        assert!(matches!(
            Checkpoint::load(&missing),
            Err(PpError::Checkpoint { .. })
        ));
        let _ = std::fs::remove_file(path);
    }

    #[cfg(unix)]
    #[test]
    fn save_replaces_an_existing_file_by_rename() {
        use std::os::unix::fs::MetadataExt;
        let dir = std::env::temp_dir().join(format!("pp_core_atomic_save_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let first = Checkpoint::new(EngineState::Exact(sample_snapshot()));
        first.save(&path).unwrap();
        let inode = std::fs::metadata(&path).unwrap().ino();
        let second = first.clone().with_meta("sim.seed", 7);
        second.save(&path).unwrap();
        // A rename puts a new inode at the path; an in-place overwrite
        // (truncate, then write — an empty file if killed in between)
        // would keep the old one.
        assert_ne!(std::fs::metadata(&path).unwrap().ino(), inode);
        assert_eq!(Checkpoint::load(&path).unwrap(), second);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["ckpt.json"], "no temporary file is left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
