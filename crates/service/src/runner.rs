//! The one place a [`ScenarioConfig`] turns into a running simulation.
//!
//! Every front-end calls [`run_scenario`]: `pp_serve`'s worker threads,
//! `usd_run --scenario FILE`, and `usd_run` with ordinary flags — the CLI
//! *is* a scenario front-end that parses its flags into a
//! [`ScenarioConfig`] and adds only its output sinks (a trajectory
//! recorder and a telemetry handle, both [`RunControl`] hooks).  "Submit a
//! job", "run a scenario file" and "type the flags" are one code path, so
//! they accept, reject and compute alike by construction, and the
//! determinism contract (same scenario + seed ⇒ bit-identical result,
//! regardless of queueing, concurrency, pauses or crash/resume cycles)
//! reduces to the engine-layer contracts pinned in `pp_core`/`usd_core`.
//!
//! ## Derivations
//!
//! Configurations come from [`ScenarioConfig::to_initial_config`], the run
//! seed is `SimSeed::from_u64(seed).child(1)` on every path, the replica
//! ensemble seeds replica `i` with `master.child(i)`, and the stop
//! condition is consensus-or-[`ScenarioConfig::interaction_budget`].
//! Recorders, telemetry, checkpoints and pause hooks consume no randomness,
//! so none of them can move a trajectory.
//!
//! ## Pauses and interrupts
//!
//! Without an interrupt hook or a progress sink a run is driven in one
//! call, so an ensemble's `rounds` and shared-cache statistics cover the
//! whole run.  With either hook, single USD runs pause cooperatively
//! between `advance` calls (the checkpoint-exact boundary) via
//! `UsdSimulator::run_interruptible`; replica ensembles pause between
//! lockstep windows via `UsdEnsemble::run_windows`; single sampling-dynamic
//! runs pause between activations (exact stepping) or between skip-ahead
//! `advance` calls (batched) via `SequentialSampler::run_interruptible` /
//! `run_engine_interruptible` — and also at the checkpoint cadence, since
//! the sampler has no in-engine checkpoint sink.  All three resume
//! bit-exactly — in place or from a persisted [`Checkpoint`] in a fresh
//! process.  Sampler checkpoints carry the replica snapshot in the `exact`
//! engine slot, stamped with `sampler.format`/`sampler.dynamic`/
//! `sampler.engine` meta so feeding one to a USD scenario (or vice versa,
//! or to the wrong dynamic) fails loudly instead of silently diverging.
//! Sampling *ensembles* remain the one seam-free path: they run to
//! completion and re-run from scratch after a crash (determinism makes the
//! re-run's result identical — it just costs wall time).
//!
//! ## Resume guards
//!
//! A checkpoint resumes only under the scenario it was captured from.  The
//! interaction budget derives from `n` and `k`, and resuming toward a
//! different budget breaks bit-exactness, so a capture whose population or
//! opinion count differs from the scenario's is a named error, on every
//! resume path.  So is an explicit `engine` that differs from the backend
//! the checkpoint holds ([`checkpoint_engine`]); an unset `engine` resumes
//! on the checkpoint's backend.

use crate::scenario::{Dynamic, ScenarioConfig};
use consensus_dynamics::{
    sampler_ensemble, JMajority, MedianRule, SamplingDynamics, SequentialSampler, ThreeMajority,
    TwoChoices, Voter,
};
use pp_core::checkpoint::{EngineState, ReplicaCheckpoint};
use pp_core::engine::StepEngine;
use pp_core::ensemble::{EnsembleChoice, EnsembleRunResult};
use pp_core::{
    Checkpoint, Configuration, EngineChoice, MetricsSnapshot, NullRecorder, Recorder, RunOutcome,
    RunResult, SimSeed, StopCondition, Telemetry,
};
use std::path::Path;
use usd_core::{HybridEngine, UsdEnsemble, UsdSimulator};

/// How many lockstep windows a replica ensemble advances between interrupt
/// polls and progress events.
const ENSEMBLE_WINDOWS_PER_SLICE: u64 = 4;

/// The deterministic outcome of a scenario run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutcome {
    /// A single trajectory (`replicas == 1`).
    Single(RunResult),
    /// A lockstep replica ensemble (`replicas > 1`).
    Ensemble(EnsembleRunResult),
}

/// Why a run stopped before reaching its stop condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The job was cancelled; it will not resume.
    Cancelled,
    /// The server is going down; the job stays resumable (checkpointed
    /// when a sink is configured).
    Halted,
}

/// What [`run_scenario`] produced.
// One verdict exists per (milliseconds-to-minutes) run, so the size gap
// between the outcome-carrying and marker variants costs nothing; boxing
// would only complicate every matcher.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RunVerdict {
    /// The stop condition was reached; the outcome is canonical.
    Finished(ScenarioOutcome),
    /// An interrupt stopped the run first.
    Interrupted(Interrupt),
}

/// A streamed progress snapshot, taken at a pause boundary (so it is also
/// always a valid capture point).
#[derive(Debug, Clone)]
pub struct ProgressEvent {
    /// Interactions consumed so far (`None` where the backend exposes no
    /// mid-run counter, e.g. the replica ensemble between windows).
    pub interactions: Option<u64>,
    /// Per-opinion support counts at the pause point.
    pub supports: Option<Vec<u64>>,
    /// Undecided count at the pause point.
    pub undecided: Option<u64>,
    /// Cumulative metrics registry snapshot (diff consecutive events for
    /// deltas); `None` when empty.
    pub metrics: Option<MetricsSnapshot>,
}

/// Hooks a front-end threads through a run.  `RunControl::default()` runs
/// to completion in one call, silently and without telemetry.
#[derive(Default)]
pub struct RunControl<'a> {
    /// Progress event sink.
    pub progress: Option<&'a mut dyn FnMut(ProgressEvent)>,
    /// Interactions between progress events (`0` = one parallel-time unit,
    /// i.e. `n`).
    pub progress_every: u64,
    /// Polled at pause boundaries; returning `Some` stops the run.
    pub interrupt: Option<&'a dyn Fn() -> Option<Interrupt>>,
    /// Periodic checkpoint sink `(path, cadence)`; also captured once on a
    /// `Halted` interrupt so the resume point is never stale.
    pub checkpoint: Option<(&'a Path, u64)>,
    /// Resume from this capture instead of building the initial state
    /// (single USD, USD-ensemble, and single sampling-dynamic
    /// checkpoints).
    pub resume: Option<&'a Checkpoint>,
    /// Observes a single run (`replicas == 1`): the starting configuration
    /// once, then every state change.  Ensembles ignore it.  Without one
    /// the event loop stays statically dispatched to [`NullRecorder`].
    pub recorder: Option<&'a mut dyn Recorder>,
    /// The telemetry handle attached to the engines (disabled by default);
    /// progress events snapshot its registry.
    pub telemetry: Telemetry,
}

impl std::fmt::Debug for RunControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("progress", &self.progress.is_some())
            .field("progress_every", &self.progress_every)
            .field("interrupt", &self.interrupt.is_some())
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume.map(Checkpoint::kind))
            .field("recorder", &self.recorder.is_some())
            .field("telemetry", &self.telemetry.is_enabled())
            .finish()
    }
}

impl RunControl<'_> {
    fn poll(&self) -> Option<Interrupt> {
        self.interrupt.and_then(|f| f())
    }

    /// Whether the run stops at pause boundaries: only to poll an
    /// interrupt hook or to emit progress.
    fn pauses(&self) -> bool {
        self.interrupt.is_some() || self.progress.is_some()
    }

    /// The progress cadence for a population of `n` agents.
    fn progress_cadence(&self, n: u64) -> u64 {
        if self.progress_every == 0 {
            n.max(1)
        } else {
            self.progress_every
        }
    }
}

/// Binds `$dynamics` to the scenario's sampling dynamic and evaluates
/// `$body` with it.
macro_rules! with_sampling_dynamic {
    ($scenario:expr, $dynamics:ident => $body:expr) => {{
        let k = $scenario.opinions;
        match $scenario.dynamic {
            Dynamic::Voter => {
                let $dynamics = Voter::new(k);
                $body
            }
            Dynamic::TwoChoices => {
                let $dynamics = TwoChoices::new(k);
                $body
            }
            Dynamic::ThreeMajority => {
                let $dynamics = ThreeMajority::new(k);
                $body
            }
            Dynamic::JMajority => {
                let $dynamics = JMajority::new(k, $scenario.majority_samples);
                $body
            }
            Dynamic::Median => {
                let $dynamics = MedianRule::new(k);
                $body
            }
            Dynamic::Usd => unreachable!("the USD is not a sampling dynamic"),
        }
    }};
}

/// Runs a scenario to its stop condition (or first interrupt) — see the
/// module docs for the derivations and the pause rule.
///
/// # Errors
///
/// Returns [`ScenarioConfig::validate`]'s diagnostics for invalid
/// scenarios, and named diagnostics for impossible configurations,
/// unsupported engine/dynamic combinations, and broken or mismatched
/// resume checkpoints.
pub fn run_scenario(
    scenario: &ScenarioConfig,
    mut control: RunControl<'_>,
) -> Result<RunVerdict, String> {
    scenario.validate()?;
    if let Some(checkpoint) = control.resume {
        check_resumed_engine(scenario, checkpoint)?;
    }
    let seed = SimSeed::from_u64(scenario.seed);
    let stop = StopCondition::consensus().or_max_interactions(scenario.interaction_budget());
    match (scenario.replicas > 1, scenario.dynamic) {
        (true, Dynamic::Usd) => run_usd_ensemble(scenario, seed, stop, &mut control),
        (true, _) => {
            let config = scenario.initial_configuration()?;
            let choice = scenario.ensemble_choice();
            let outcome = with_sampling_dynamic!(scenario, dynamics => run_sampling_ensemble(
                dynamics,
                &config,
                seed.child(1),
                choice,
                stop,
                &control.telemetry,
            ))?;
            Ok(RunVerdict::Finished(ScenarioOutcome::Ensemble(outcome)))
        }
        (false, Dynamic::Usd) => run_single_usd(scenario, seed, stop, &mut control),
        (false, dynamic) => with_sampling_dynamic!(scenario, dynamics => run_sampling_dynamic(
            dynamics,
            dynamic,
            scenario,
            seed,
            stop,
            &mut control,
        )),
    }
}

/// The backend a checkpoint resumes on: the stamped engine of a sampler
/// capture, `hybrid` for a hybrid capture (whichever backend was active
/// when it was taken), `batched` for a replica ensemble, and the engine
/// kind otherwise.  `None` for sampler captures without an engine stamp.
#[must_use]
pub fn checkpoint_engine(checkpoint: &Checkpoint) -> Option<EngineChoice> {
    if checkpoint.meta(SAMPLER_FORMAT_META).is_some() {
        return checkpoint
            .meta(SAMPLER_ENGINE_META)
            .and_then(|i| usize::try_from(i).ok())
            .and_then(|i| SAMPLER_ENGINES.get(i))
            .copied();
    }
    if HybridEngine::is_hybrid_checkpoint(checkpoint) {
        return Some(EngineChoice::Hybrid);
    }
    match checkpoint.engine() {
        EngineState::Ensemble(_) => Some(EngineChoice::Batched),
        _ => checkpoint.kind().parse().ok(),
    }
}

/// Rejects resuming under an explicit engine other than the checkpoint's.
fn check_resumed_engine(scenario: &ScenarioConfig, checkpoint: &Checkpoint) -> Result<(), String> {
    match (scenario.engine, checkpoint_engine(checkpoint)) {
        (Some(asked), Some(held)) if asked != held => Err(format!(
            "cannot resume: the checkpoint holds {held} engine state but --engine says \
             {asked}: the backend rides in the checkpoint, so drop the flag or pass the \
             matching one"
        )),
        _ => Ok(()),
    }
}

/// Rejects a checkpoint captured from a run over `n` agents and `k`
/// opinions when the scenario says otherwise.
fn check_captured_shape(scenario: &ScenarioConfig, n: u64, k: usize) -> Result<(), String> {
    if n == scenario.population && k == scenario.opinions {
        return Ok(());
    }
    Err(format!(
        "cannot resume: the checkpoint was captured from a run with n={n}, k={k}, but the \
         scenario says n={}, k={}: the interaction budget derives from n and k, and resuming \
         toward a different budget breaks bit-exactness — pass the original values",
        scenario.population, scenario.opinions
    ))
}

/// A USD replica ensemble: one `run` call, or lockstep windows between
/// pauses when the control pauses.
fn run_usd_ensemble(
    scenario: &ScenarioConfig,
    seed: SimSeed,
    stop: StopCondition,
    control: &mut RunControl<'_>,
) -> Result<RunVerdict, String> {
    let choice = scenario.ensemble_choice();
    let mut ensemble = match control.resume {
        Some(checkpoint) => {
            if let EngineState::Ensemble(snapshot) = checkpoint.engine() {
                if let Some(replica) = snapshot.replicas.first() {
                    let n = replica.supports.iter().sum::<u64>() + replica.undecided;
                    check_captured_shape(scenario, n, replica.supports.len())?;
                }
            }
            UsdEnsemble::restore(checkpoint, choice).map_err(|e| format!("cannot resume: {e}"))?
        }
        None => UsdEnsemble::try_new(scenario.initial_configuration()?, seed.child(1), choice)
            .map_err(|e| e.to_string())?,
    };
    ensemble.set_telemetry(control.telemetry.clone());
    if !control.pauses() {
        return Ok(RunVerdict::Finished(ScenarioOutcome::Ensemble(
            ensemble.run(stop),
        )));
    }
    loop {
        if let Some(outcome) = ensemble.run_windows(stop, ENSEMBLE_WINDOWS_PER_SLICE) {
            return Ok(RunVerdict::Finished(ScenarioOutcome::Ensemble(outcome)));
        }
        if let Some(kind) = control.poll() {
            if kind == Interrupt::Halted {
                if let Some((path, _)) = control.checkpoint {
                    ensemble
                        .capture()
                        .save(path)
                        .map_err(|e| format!("cannot checkpoint: {e}"))?;
                }
            }
            return Ok(RunVerdict::Interrupted(kind));
        }
        emit(&mut control.progress, &control.telemetry, None, None);
    }
}

/// A single USD run, restored from the resume checkpoint or built fresh.
fn run_single_usd(
    scenario: &ScenarioConfig,
    seed: SimSeed,
    stop: StopCondition,
    control: &mut RunControl<'_>,
) -> Result<RunVerdict, String> {
    let plan = scenario.shard_plan();
    let mut sim = match control.resume {
        Some(checkpoint) => {
            if checkpoint.meta(SAMPLER_FORMAT_META).is_some() {
                return Err(
                    "cannot resume: the checkpoint was captured from a sampling-dynamic run, \
                     not a USD run"
                        .to_string(),
                );
            }
            let sim = UsdSimulator::restore(checkpoint, plan)
                .map_err(|e| format!("cannot resume: {e}"))?;
            let initial = sim.initial_configuration();
            check_captured_shape(scenario, initial.population(), initial.num_opinions())?;
            sim
        }
        None => UsdSimulator::with_engine_fidelity(
            scenario.initial_configuration()?,
            seed.child(1),
            scenario.effective_engine(),
            plan,
            scenario.effective_fidelity(),
        ),
    };
    sim.set_telemetry(control.telemetry.clone());
    if let Some((path, every)) = control.checkpoint {
        sim.set_checkpoint_sink(path, every);
    }
    let n = scenario.population;
    match control.recorder.take() {
        Some(recorder) => {
            let mut forward = |i: u64, c: &Configuration| recorder.record(i, c);
            drive_usd(&mut sim, stop, &mut forward, control, n)
        }
        None => drive_usd(&mut sim, stop, &mut NullRecorder, control, n),
    }
}

/// Drives a single USD run in one call, or — when the control pauses —
/// through the cooperative pause seam, recording the starting
/// configuration once either way.
fn drive_usd<R: Recorder>(
    sim: &mut UsdSimulator,
    stop: StopCondition,
    recorder: &mut R,
    control: &mut RunControl<'_>,
    n: u64,
) -> Result<RunVerdict, String> {
    if !control.pauses() {
        let result = sim.run_recorded(stop, recorder);
        return Ok(RunVerdict::Finished(ScenarioOutcome::Single(result)));
    }
    recorder.record(sim.interactions(), sim.configuration());
    let progress_every = control.progress_cadence(n);
    let mut next_progress = sim.interactions().saturating_add(progress_every);
    loop {
        // The hook polls the interrupt exactly once per pause boundary and
        // parks the verdict, so one-shot interrupt closures are honoured.
        // Pausing consumes no RNG.
        let want_interrupt = control.interrupt;
        let mut pending: Option<Interrupt> = None;
        let result = sim.run_interruptible(stop, recorder, &mut |i| {
            if let Some(kind) = want_interrupt.and_then(|f| f()) {
                pending = Some(kind);
                return true;
            }
            i >= next_progress
        });
        if let Some(result) = result {
            return Ok(RunVerdict::Finished(ScenarioOutcome::Single(result)));
        }
        if let Some(kind) = pending {
            if kind == Interrupt::Halted {
                if let Some((path, _)) = control.checkpoint {
                    sim.capture()
                        .map_err(|e| format!("cannot checkpoint: {e}"))?
                        .save(path)
                        .map_err(|e| format!("cannot checkpoint: {e}"))?;
                }
            }
            return Ok(RunVerdict::Interrupted(kind));
        }
        emit(
            &mut control.progress,
            &control.telemetry,
            Some(sim.interactions()),
            Some(sim.configuration()),
        );
        next_progress = sim.interactions().saturating_add(progress_every);
    }
}

/// Sends one progress event, snapshotting the metrics registry (empty
/// snapshots collapse to `None`).
fn emit(
    progress: &mut Option<&mut dyn FnMut(ProgressEvent)>,
    tel: &Telemetry,
    interactions: Option<u64>,
    config: Option<&Configuration>,
) {
    let Some(callback) = progress else { return };
    let metrics = tel.snapshot();
    callback(ProgressEvent {
        interactions,
        supports: config.map(|c| c.supports().to_vec()),
        undecided: config.map(Configuration::undecided),
        metrics: (!metrics.is_empty()).then_some(metrics),
    });
}

/// The meta stamp marking a checkpoint as a sampling-dynamic capture (the
/// snapshot itself rides in the `exact` engine slot — the sampler *is* a
/// per-activation engine).
const SAMPLER_FORMAT_META: &str = "sampler.format";
/// The meta stamp naming which dynamic captured the checkpoint (an index
/// into [`Dynamic::ALL`]), so resuming under a different dynamic fails
/// loudly instead of silently diverging.
const SAMPLER_DYNAMIC_META: &str = "sampler.dynamic";
/// The meta stamp naming the stepping the sampler ran with (an index into
/// [`SAMPLER_ENGINES`]): per-activation and skip-ahead stepping draw
/// differently, so a resume continues on the captured one.
const SAMPLER_ENGINE_META: &str = "sampler.engine";
/// The backends a sampling dynamic runs on, in stamp order.
const SAMPLER_ENGINES: [EngineChoice; 2] = [EngineChoice::Exact, EngineChoice::Batched];

fn dynamic_index(dynamic: Dynamic) -> u64 {
    Dynamic::ALL
        .iter()
        .position(|&d| d == dynamic)
        .expect("every dynamic is listed in Dynamic::ALL") as u64
}

fn capture_sampler<D: SamplingDynamics + Clone>(
    sim: &SequentialSampler<D>,
    dynamic: Dynamic,
    engine: EngineChoice,
) -> Checkpoint {
    let engine_index = SAMPLER_ENGINES
        .iter()
        .position(|&e| e == engine)
        .expect("samplers run on the exact or batched engine") as u64;
    Checkpoint::new(EngineState::Exact(sim.capture_replica()))
        .with_meta(SAMPLER_FORMAT_META, 1)
        .with_meta(SAMPLER_DYNAMIC_META, dynamic_index(dynamic))
        .with_meta(SAMPLER_ENGINE_META, engine_index)
}

fn restore_sampler<D: SamplingDynamics + Clone>(
    dynamics: &D,
    dynamic: Dynamic,
    checkpoint: &Checkpoint,
) -> Result<SequentialSampler<D>, String> {
    match checkpoint.meta(SAMPLER_FORMAT_META) {
        Some(1) => {}
        Some(version) => {
            return Err(format!(
                "cannot resume: sampler checkpoint format {version} is not supported \
                 (this build reads format 1)"
            ))
        }
        None => {
            return Err(format!(
                "cannot resume: the {} checkpoint was not captured from a sampling-dynamic \
                 run (missing the \"sampler.format\" stamp)",
                checkpoint.kind()
            ))
        }
    }
    let stamped = checkpoint.meta(SAMPLER_DYNAMIC_META);
    if stamped != Some(dynamic_index(dynamic)) {
        let stamped_name = stamped
            .and_then(|i| usize::try_from(i).ok())
            .and_then(|i| Dynamic::ALL.get(i))
            .map_or("an unknown dynamic", |d| d.name());
        return Err(format!(
            "cannot resume: the checkpoint was captured from {stamped_name}, not {dynamic}"
        ));
    }
    let snapshot = checkpoint
        .expect_single("exact")
        .map_err(|e| format!("cannot resume: {e}"))?;
    SequentialSampler::restore_replica(dynamics, snapshot)
        .map_err(|e| format!("cannot resume: {e}"))
}

/// A single sampling-dynamic run on the exact (per-activation) or batched
/// (skip-ahead) engine, restored from the resume checkpoint or built fresh.
fn run_sampling_dynamic<D: SamplingDynamics + Clone>(
    dynamics: D,
    dynamic: Dynamic,
    scenario: &ScenarioConfig,
    seed: SimSeed,
    stop: StopCondition,
    control: &mut RunControl<'_>,
) -> Result<RunVerdict, String> {
    let name = dynamics.name().to_string();
    let (mut sim, engine) = match control.resume {
        Some(checkpoint) => {
            let sim = restore_sampler(&dynamics, dynamic, checkpoint)?;
            let captured = sim.configuration();
            check_captured_shape(scenario, captured.population(), captured.num_opinions())?;
            let engine =
                checkpoint_engine(checkpoint).unwrap_or_else(|| scenario.effective_engine());
            (sim, engine)
        }
        None => (
            SequentialSampler::try_new(dynamics, scenario.initial_configuration()?, seed.child(1))
                .map_err(|e| e.to_string())?,
            scenario.effective_engine(),
        ),
    };
    if engine == EngineChoice::Batched {
        sim.require_skip_ahead().map_err(|e| {
            format!(
                "{e}: the {name} dynamic provides no closed-form skip-ahead hooks \
                 — use --engine exact"
            )
        })?;
    }
    match control.recorder.take() {
        Some(recorder) => {
            let mut forward = |i: u64, c: &Configuration| recorder.record(i, c);
            drive_sampler(&mut sim, dynamic, engine, stop, &mut forward, control)
        }
        None => drive_sampler(&mut sim, dynamic, engine, stop, &mut NullRecorder, control),
    }
}

/// Drives a sampler in one call, or — when the control pauses or
/// checkpoints — through [`SequentialSampler::run_interruptible`] (exact)
/// or [`SequentialSampler::run_engine_interruptible`] (batched):
/// interrupts, progress events and checkpoint captures all happen at
/// activation or `advance`-call boundaries, where the replica snapshot is
/// exact.  The starting configuration is recorded once either way.
fn drive_sampler<D: SamplingDynamics + Clone, R: Recorder>(
    sim: &mut SequentialSampler<D>,
    dynamic: Dynamic,
    engine: EngineChoice,
    stop: StopCondition,
    recorder: &mut R,
    control: &mut RunControl<'_>,
) -> Result<RunVerdict, String> {
    if !control.pauses() && control.checkpoint.is_none() {
        let result = match engine {
            EngineChoice::Exact => sim.run_recorded(stop, recorder),
            EngineChoice::Batched => sim.run_engine_recorded(stop, recorder),
            other => unreachable!("validate rejects {other} for sampling dynamics"),
        };
        return Ok(RunVerdict::Finished(ScenarioOutcome::Single(result)));
    }
    recorder.record(sim.steps(), sim.configuration());
    let n = sim.configuration().population();
    let every = control.progress_cadence(n);
    let checkpoint_every = control
        .checkpoint
        .map(|(_, cadence)| if cadence == 0 { n.max(1) } else { cadence })
        .unwrap_or(u64::MAX);
    let mut next_progress = sim.steps().saturating_add(every);
    let mut next_checkpoint = sim.steps().saturating_add(checkpoint_every);
    loop {
        // Same one-shot interrupt contract as the USD seam: poll once per
        // pause boundary and park the verdict.  Pausing consumes no RNG.
        let want_interrupt = control.interrupt;
        let mut pending: Option<Interrupt> = None;
        let pause_at = next_progress.min(next_checkpoint);
        let mut pause = |i: u64| {
            if let Some(kind) = want_interrupt.and_then(|f| f()) {
                pending = Some(kind);
                return true;
            }
            i >= pause_at
        };
        let result = match engine {
            EngineChoice::Exact => sim.run_interruptible(stop, recorder, &mut pause),
            EngineChoice::Batched => sim.run_engine_interruptible(stop, recorder, &mut pause),
            other => unreachable!("validate rejects {other} for sampling dynamics"),
        };
        if let Some(result) = result {
            return Ok(RunVerdict::Finished(ScenarioOutcome::Single(result)));
        }
        let save = |sim: &SequentialSampler<D>, path: &Path| {
            capture_sampler(sim, dynamic, engine)
                .save(path)
                .map_err(|e| format!("cannot checkpoint: {e}"))
        };
        if let Some(kind) = pending {
            if let (Interrupt::Halted, Some((path, _))) = (kind, control.checkpoint) {
                save(sim, path)?;
            }
            return Ok(RunVerdict::Interrupted(kind));
        }
        if sim.steps() >= next_checkpoint {
            if let Some((path, _)) = control.checkpoint {
                save(sim, path)?;
            }
            next_checkpoint = sim.steps().saturating_add(checkpoint_every);
        }
        if sim.steps() >= next_progress {
            emit(
                &mut control.progress,
                &control.telemetry,
                Some(sim.steps()),
                Some(sim.configuration()),
            );
            next_progress = sim.steps().saturating_add(every);
        }
    }
}

/// A sampling-dynamic replica ensemble, run to completion in one call.
fn run_sampling_ensemble<D: SamplingDynamics + Clone + Send>(
    dynamics: D,
    config: &Configuration,
    seed: SimSeed,
    choice: EnsembleChoice,
    stop: StopCondition,
    tel: &Telemetry,
) -> Result<EnsembleRunResult, String> {
    let name = dynamics.name().to_string();
    let mut ensemble = sampler_ensemble(&dynamics, config, seed, choice).map_err(|e| {
        format!(
            "{e}: the {name} dynamic cannot run under the replica ensemble \
             (it provides no closed-form skip-ahead hooks)"
        )
    })?;
    ensemble.set_telemetry(tel.clone());
    Ok(ensemble.run(stop))
}

/// Renders a finished outcome as the service's canonical result JSON: only
/// fields the determinism contract covers (no wall-clock times, no worker
/// counts, no lockstep round counts — those depend on where a resumed run
/// was halted), so the same scenario always yields the same bytes — the payload
/// `pp_serve` stores and `usd_run --scenario` prints are compared verbatim
/// in `tests/service_equivalence.rs`.
#[must_use]
pub fn result_json(outcome: &ScenarioOutcome) -> String {
    use pp_core::json::{Json, ObjBuilder};
    fn outcome_name(outcome: RunOutcome) -> &'static str {
        match outcome {
            RunOutcome::Consensus => "consensus",
            RunOutcome::OpinionSettled => "opinion-settled",
            RunOutcome::BudgetExhausted => "budget-exhausted",
        }
    }
    fn run_json(result: &RunResult) -> Json {
        ObjBuilder::new()
            .field(
                "outcome",
                Json::Str(outcome_name(result.outcome()).to_string()),
            )
            .field("interactions", Json::U64(result.interactions()))
            .field("parallel_time", Json::F64(result.parallel_time()))
            .field(
                "winner",
                result
                    .winner()
                    .map_or(Json::Null, |w| Json::U64(w.index() as u64)),
            )
            .field(
                "scheduler",
                result
                    .scheduler()
                    .map_or(Json::Null, |s| Json::Str(s.to_string())),
            )
            .field(
                "rejection_misses",
                result.rejection_misses().map_or(Json::Null, Json::U64),
            )
            .field(
                "final",
                ObjBuilder::new()
                    .field(
                        "supports",
                        Json::Arr(
                            result
                                .final_configuration()
                                .supports()
                                .iter()
                                .map(|&s| Json::U64(s))
                                .collect(),
                        ),
                    )
                    .field(
                        "undecided",
                        Json::U64(result.final_configuration().undecided()),
                    )
                    .build(),
            )
            .build()
    }
    let doc = match outcome {
        ScenarioOutcome::Single(result) => ObjBuilder::new()
            .field("result", Json::U64(1))
            .field("mode", Json::Str("single".to_string()))
            .field("run", run_json(result))
            .build(),
        ScenarioOutcome::Ensemble(outcome) => ObjBuilder::new()
            .field("result", Json::U64(1))
            .field("mode", Json::Str("ensemble".to_string()))
            .field("replicas", Json::U64(outcome.len() as u64))
            .field(
                "total_interactions",
                // u128 in-core; a real total always fits u64 (budgets are u64
                // per replica and replica counts are small).
                Json::U64(u64::try_from(outcome.total_interactions()).unwrap_or(u64::MAX)),
            )
            .field(
                "results",
                Json::Arr(outcome.results().iter().map(run_json).collect()),
            )
            .build(),
    };
    doc.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScenarioConfig {
        ScenarioConfig::new(600, 3).with_seed(5)
    }

    #[test]
    fn plain_run_finishes_with_consensus() {
        let verdict = run_scenario(&small(), RunControl::default()).unwrap();
        let RunVerdict::Finished(ScenarioOutcome::Single(result)) = verdict else {
            panic!("uninterrupted run must finish: {verdict:?}");
        };
        assert!(result.reached_consensus());
    }

    #[test]
    fn progress_and_interrupt_hooks_never_move_the_trajectory() {
        let RunVerdict::Finished(reference) =
            run_scenario(&small(), RunControl::default()).unwrap()
        else {
            panic!("reference run must finish");
        };
        let mut events = Vec::new();
        let mut on_progress = |event: ProgressEvent| events.push(event);
        let control = RunControl {
            progress: Some(&mut on_progress),
            progress_every: 100,
            interrupt: Some(&|| None),
            ..RunControl::default()
        };
        let RunVerdict::Finished(observed) = run_scenario(&small(), control).unwrap() else {
            panic!("hooked run must finish");
        };
        assert_eq!(observed, reference, "hooks perturbed the trajectory");
        assert!(!events.is_empty(), "progress cadence 100 must fire");
        let event = &events[0];
        assert!(event.interactions.is_some());
        assert_eq!(
            event.supports.as_ref().map(Vec::len),
            Some(3),
            "progress snapshots carry per-opinion counts"
        );
    }

    #[test]
    fn cancelled_runs_report_the_interrupt() {
        let verdict = run_scenario(
            &small(),
            RunControl {
                interrupt: Some(&|| Some(Interrupt::Cancelled)),
                ..RunControl::default()
            },
        )
        .unwrap();
        assert_eq!(verdict, RunVerdict::Interrupted(Interrupt::Cancelled));
    }

    #[test]
    fn halt_checkpoint_resume_is_bit_exact() {
        let dir = std::env::temp_dir().join("pp_service_runner_halt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("halt.ckpt.json");
        let RunVerdict::Finished(reference) =
            run_scenario(&small(), RunControl::default()).unwrap()
        else {
            panic!("reference run must finish");
        };
        // Halt after the first pause boundary, checkpointing on the way
        // out; a "fresh process" resumes from the file and must finish on
        // the reference trajectory.
        use std::sync::atomic::{AtomicBool, Ordering};
        let fired = AtomicBool::new(false);
        let halt = move || {
            if fired.swap(true, Ordering::Relaxed) {
                None
            } else {
                Some(Interrupt::Halted)
            }
        };
        let verdict = run_scenario(
            &small(),
            RunControl {
                interrupt: Some(&halt),
                checkpoint: Some((&path, u64::MAX)),
                progress_every: 50,
                ..RunControl::default()
            },
        )
        .unwrap();
        assert_eq!(verdict, RunVerdict::Interrupted(Interrupt::Halted));
        let checkpoint = Checkpoint::load(&path).unwrap();
        let resumed = run_scenario(
            &small(),
            RunControl {
                resume: Some(&checkpoint),
                ..RunControl::default()
            },
        )
        .unwrap();
        assert_eq!(resumed, RunVerdict::Finished(reference));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn sampler_halt_checkpoint_resume_is_bit_exact() {
        let scenario = ScenarioConfig::new(600, 3)
            .with_seed(5)
            .with_dynamic(Dynamic::Voter)
            .with_engine(EngineChoice::Batched);
        let dir = std::env::temp_dir().join("pp_service_runner_sampler_halt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("halt.ckpt.json");
        let RunVerdict::Finished(reference) =
            run_scenario(&scenario, RunControl::default()).unwrap()
        else {
            panic!("reference run must finish");
        };
        use std::sync::atomic::{AtomicBool, Ordering};
        let fired = AtomicBool::new(false);
        let halt = move || {
            if fired.swap(true, Ordering::Relaxed) {
                None
            } else {
                Some(Interrupt::Halted)
            }
        };
        let verdict = run_scenario(
            &scenario,
            RunControl {
                interrupt: Some(&halt),
                checkpoint: Some((&path, u64::MAX)),
                progress_every: 50,
                ..RunControl::default()
            },
        )
        .unwrap();
        assert_eq!(verdict, RunVerdict::Interrupted(Interrupt::Halted));
        let checkpoint = Checkpoint::load(&path).unwrap();
        assert_eq!(checkpoint.meta(SAMPLER_FORMAT_META), Some(1));
        let resumed = run_scenario(
            &scenario,
            RunControl {
                resume: Some(&checkpoint),
                ..RunControl::default()
            },
        )
        .unwrap();
        assert_eq!(resumed, RunVerdict::Finished(reference));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn sampler_hooks_never_move_the_trajectory() {
        let scenario = ScenarioConfig::new(500, 3)
            .with_seed(11)
            .with_dynamic(Dynamic::ThreeMajority);
        let RunVerdict::Finished(reference) =
            run_scenario(&scenario, RunControl::default()).unwrap()
        else {
            panic!("reference run must finish");
        };
        let mut events = Vec::new();
        let mut on_progress = |event: ProgressEvent| events.push(event);
        let control = RunControl {
            progress: Some(&mut on_progress),
            progress_every: 75,
            interrupt: Some(&|| None),
            ..RunControl::default()
        };
        let RunVerdict::Finished(observed) = run_scenario(&scenario, control).unwrap() else {
            panic!("hooked run must finish");
        };
        assert_eq!(observed, reference, "hooks perturbed the trajectory");
        assert!(!events.is_empty(), "progress cadence 75 must fire");
        assert_eq!(events[0].supports.as_ref().map(Vec::len), Some(3));
    }

    #[test]
    fn cross_restores_between_usd_and_sampler_checkpoints_fail_loudly() {
        let dir = std::env::temp_dir().join("pp_service_runner_cross_restore_test");
        std::fs::create_dir_all(&dir).unwrap();
        use std::sync::atomic::{AtomicBool, Ordering};
        let capture = |scenario: &ScenarioConfig, file: &str| -> Checkpoint {
            let path = dir.join(file);
            let fired = AtomicBool::new(false);
            let halt = move || {
                if fired.swap(true, Ordering::Relaxed) {
                    None
                } else {
                    Some(Interrupt::Halted)
                }
            };
            let verdict = run_scenario(
                scenario,
                RunControl {
                    interrupt: Some(&halt),
                    checkpoint: Some((&path, u64::MAX)),
                    ..RunControl::default()
                },
            )
            .unwrap();
            assert_eq!(verdict, RunVerdict::Interrupted(Interrupt::Halted));
            let checkpoint = Checkpoint::load(&path).unwrap();
            let _ = std::fs::remove_file(path);
            checkpoint
        };
        let usd = small();
        let voter = small().with_dynamic(Dynamic::Voter);
        let usd_ckpt = capture(&usd, "usd.ckpt.json");
        let voter_ckpt = capture(&voter, "voter.ckpt.json");
        // USD checkpoint into a sampler scenario: missing sampler stamp.
        let err = run_scenario(
            &voter,
            RunControl {
                resume: Some(&usd_ckpt),
                ..RunControl::default()
            },
        )
        .unwrap_err();
        assert!(
            err.contains("not captured from a sampling-dynamic run"),
            "diagnostic must name the mismatch: {err}"
        );
        // Sampler checkpoint into a USD scenario: rejected by the stamp.
        let err = run_scenario(
            &usd,
            RunControl {
                resume: Some(&voter_ckpt),
                ..RunControl::default()
            },
        )
        .unwrap_err();
        assert!(
            err.contains("captured from a sampling-dynamic run, not a USD run"),
            "diagnostic must name the mismatch: {err}"
        );
        // Sampler checkpoint into the wrong dynamic: rejected by name.
        let err = run_scenario(
            &small().with_dynamic(Dynamic::Median),
            RunControl {
                resume: Some(&voter_ckpt),
                ..RunControl::default()
            },
        )
        .unwrap_err();
        assert!(
            err.contains("captured from voter, not median"),
            "diagnostic must name both dynamics: {err}"
        );
    }

    #[test]
    fn result_json_is_deterministic_and_parseable() {
        let RunVerdict::Finished(outcome) = run_scenario(&small(), RunControl::default()).unwrap()
        else {
            panic!("run must finish");
        };
        let a = result_json(&outcome);
        let b = result_json(&outcome);
        assert_eq!(a, b);
        let doc = pp_core::json::Json::parse(&a).unwrap();
        assert_eq!(
            doc.get("mode").and_then(pp_core::json::Json::as_str),
            Some("single")
        );
        assert!(doc.get("run").is_some());
    }

    #[test]
    fn ensemble_scenarios_run_and_serialize() {
        let scenario = ScenarioConfig::new(400, 3).with_seed(9).with_replicas(3);
        let RunVerdict::Finished(outcome) = run_scenario(&scenario, RunControl::default()).unwrap()
        else {
            panic!("ensemble run must finish");
        };
        let ScenarioOutcome::Ensemble(ref ensemble) = outcome else {
            panic!("replicas > 1 must produce an ensemble outcome");
        };
        assert_eq!(ensemble.len(), 3);
        let doc = pp_core::json::Json::parse(&result_json(&outcome)).unwrap();
        assert_eq!(
            doc.get("replicas").and_then(pp_core::json::Json::as_u64),
            Some(3)
        );
        assert_eq!(
            doc.get("results")
                .and_then(pp_core::json::Json::as_array)
                .map(<[_]>::len),
            Some(3)
        );
    }

    /// Runs `scenario` until its first pause boundary, halts it there with
    /// a checkpoint, and returns the capture.
    fn halted_capture(scenario: &ScenarioConfig, file: &str) -> Checkpoint {
        let dir = std::env::temp_dir().join(format!("pp_service_runner_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file);
        let control = RunControl {
            interrupt: Some(&|| Some(Interrupt::Halted)),
            checkpoint: Some((&path, u64::MAX)),
            ..RunControl::default()
        };
        let verdict = run_scenario(scenario, control).unwrap();
        assert_eq!(verdict, RunVerdict::Interrupted(Interrupt::Halted));
        let checkpoint = Checkpoint::load(&path).unwrap();
        let _ = std::fs::remove_file(path);
        checkpoint
    }

    fn resume(scenario: &ScenarioConfig, checkpoint: &Checkpoint) -> Result<RunVerdict, String> {
        let control = RunControl {
            resume: Some(checkpoint),
            ..RunControl::default()
        };
        run_scenario(scenario, control)
    }

    #[test]
    fn mismatched_resumes_fail_naming_both_values() {
        let usd = ScenarioConfig::new(2_000, 3)
            .with_seed(5)
            .with_engine(EngineChoice::Batched);
        let voter = usd.with_dynamic(Dynamic::Voter);
        for (scenario, file) in [
            (usd, "usd"),
            (usd.with_replicas(2), "ensemble"),
            (voter, "voter"),
        ] {
            let checkpoint = halted_capture(&scenario, file);
            let mut other = scenario;
            other.population = 2_001;
            let err = resume(&other, &checkpoint).unwrap_err();
            assert!(
                err.contains("n=2000, k=3") && err.contains("n=2001, k=3"),
                "{file}: {err}"
            );
            if scenario.replicas > 1 {
                continue;
            }
            let exact = scenario.with_engine(EngineChoice::Exact);
            let err = resume(&exact, &checkpoint).unwrap_err();
            assert!(
                err.contains("holds batched engine state but --engine says exact"),
                "{file}: {err}"
            );
            // Without an explicit engine the run resumes on the captured one.
            let mut unset = scenario;
            unset.engine = None;
            let reference = run_scenario(&scenario, RunControl::default());
            assert_eq!(resume(&unset, &checkpoint), reference, "{file}");
        }
    }

    #[test]
    fn the_recorder_sees_the_start_once_whether_or_not_the_run_pauses() {
        for scenario in [small(), small().with_dynamic(Dynamic::ThreeMajority)] {
            let record = |pausing: bool| {
                let mut seen: Vec<(u64, Vec<u64>)> = Vec::new();
                let mut recorder =
                    |i: u64, c: &Configuration| seen.push((i, c.supports().to_vec()));
                let mut on_progress = |_: ProgressEvent| {};
                let control = RunControl {
                    recorder: Some(&mut recorder),
                    progress: pausing.then_some(&mut on_progress as &mut dyn FnMut(_)),
                    progress_every: 50,
                    ..RunControl::default()
                };
                let verdict = run_scenario(&scenario, control).unwrap();
                (verdict, seen)
            };
            let (plain, plain_seen) = record(false);
            let (paused, paused_seen) = record(true);
            assert_eq!(plain, paused, "pausing moved the trajectory");
            assert_eq!(
                plain_seen, paused_seen,
                "pausing changed the recorded stream"
            );
            assert_eq!(plain_seen.iter().filter(|(i, _)| *i == 0).count(), 1);
        }
    }

    #[test]
    fn an_attached_telemetry_handle_sees_the_run() {
        let tel = Telemetry::enabled();
        let control = RunControl {
            telemetry: tel.clone(),
            ..RunControl::default()
        };
        let reference = run_scenario(&small(), RunControl::default());
        assert_eq!(run_scenario(&small(), control), reference);
        assert!(tel.chrome_trace_json().contains("usd.run"));
    }
}
