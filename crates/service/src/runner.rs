//! The one place a [`ScenarioConfig`] turns into a running simulation.
//!
//! Both front-ends call [`run_scenario`] — `pp_serve`'s worker threads and
//! `usd_run --scenario` — so "submit a job" and "run it by hand" are the
//! same code path, and the determinism contract (same scenario + seed ⇒
//! bit-identical result, regardless of queueing, concurrency, pauses or
//! crash/resume cycles) reduces to the engine-layer contracts already
//! pinned in `pp_core`/`usd_core`.
//!
//! ## Equivalence with `usd_run`
//!
//! The runner reproduces the CLI's exact derivations: configurations come
//! from the same [`InitialConfig`](pp_workloads::InitialConfig) builder
//! calls, the run seed is `SimSeed::from_u64(seed).child(1)` on every path,
//! the replica ensemble seeds replica `i` with `master.child(i)`, and the
//! stop condition is consensus-or-budget with the CLI's budget formula.
//! Attaching recorders, telemetry, checkpoints or pause hooks consumes no
//! randomness, so none of the service machinery can move a trajectory.
//!
//! ## Interrupts
//!
//! Single USD runs pause cooperatively between `advance` calls (the
//! checkpoint-exact boundary) via `UsdSimulator::run_interruptible`;
//! replica ensembles pause between lockstep windows via
//! `UsdEnsemble::run_windows`; single sampling-dynamic runs pause between
//! activations (exact stepping) or between skip-ahead `advance` calls
//! (batched) via `SequentialSampler::run_interruptible` /
//! `run_engine_interruptible`.  All three resume bit-exactly — in place or
//! from a persisted [`Checkpoint`] in a fresh process.  Sampler
//! checkpoints carry the replica snapshot in the `exact` engine slot,
//! stamped with `sampler.format`/`sampler.dynamic` meta so feeding one to
//! a USD scenario (or vice versa, or to the wrong dynamic) fails loudly
//! instead of silently diverging.  Sampling *ensembles* remain the one
//! seam-free path: they run to completion and re-run from scratch after a
//! crash (determinism makes the re-run's result identical — it just costs
//! wall time).

use crate::scenario::{Dynamic, ScenarioConfig};
use consensus_dynamics::{
    sampler_ensemble, JMajority, MedianRule, SamplingDynamics, SequentialSampler, ThreeMajority,
    TwoChoices, Voter,
};
use pp_core::checkpoint::ReplicaCheckpoint;
use pp_core::ensemble::EnsembleRunResult;
use pp_core::{
    Checkpoint, Configuration, EngineChoice, MetricsSnapshot, RunOutcome, RunResult, SimSeed,
    StopCondition, Telemetry,
};
use std::path::Path;

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

/// Hooks the service layer threads through a run.  `RunControl::default()`
/// runs to completion silently — exactly what `usd_run --scenario` wants.
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
}

impl std::fmt::Debug for RunControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("progress", &self.progress.is_some())
            .field("progress_every", &self.progress_every)
            .field("interrupt", &self.interrupt.is_some())
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume.map(Checkpoint::kind))
            .finish()
    }
}

impl RunControl<'_> {
    fn poll(&self) -> Option<Interrupt> {
        self.interrupt.and_then(|f| f())
    }
}

/// Runs a scenario to its stop condition (or first interrupt), mirroring
/// `usd_run` exactly — see the module docs for the equivalence argument.
///
/// # Errors
///
/// Returns the CLI's diagnostics for invalid scenarios, impossible
/// configurations, unsupported engine/dynamic combinations and broken
/// resume checkpoints.
pub fn run_scenario(
    scenario: &ScenarioConfig,
    mut control: RunControl<'_>,
) -> Result<RunVerdict, String> {
    scenario.validate()?;
    let spec = scenario.to_initial_config();
    let seed = SimSeed::from_u64(scenario.seed);
    let budget = scenario.interaction_budget();
    let stop = StopCondition::consensus().or_max_interactions(budget);
    let tel = if control.progress.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    if scenario.replicas > 1 {
        let (config, choice) = spec.build_ensemble(seed).map_err(|e| e.to_string())?;
        let run_seed = seed.child(1);
        if scenario.dynamic == Dynamic::Usd {
            let mut ensemble = match control.resume {
                Some(checkpoint) => usd_core::UsdEnsemble::restore(checkpoint, choice)
                    .map_err(|e| format!("cannot resume: {e}"))?,
                None => usd_core::UsdEnsemble::try_new(config, run_seed, choice)
                    .map_err(|e| e.to_string())?,
            };
            ensemble.set_telemetry(tel.clone());
            loop {
                match ensemble.run_windows(stop, ENSEMBLE_WINDOWS_PER_SLICE) {
                    Some(outcome) => {
                        return Ok(RunVerdict::Finished(ScenarioOutcome::Ensemble(outcome)))
                    }
                    None => {
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
                        emit(&mut control.progress, &tel, None, None);
                    }
                }
            }
        }
        let outcome = match scenario.dynamic {
            Dynamic::Voter => run_sampling_ensemble(
                Voter::new(scenario.opinions),
                config,
                run_seed,
                choice,
                stop,
                &tel,
            ),
            Dynamic::TwoChoices => run_sampling_ensemble(
                TwoChoices::new(scenario.opinions),
                config,
                run_seed,
                choice,
                stop,
                &tel,
            ),
            Dynamic::ThreeMajority => run_sampling_ensemble(
                ThreeMajority::new(scenario.opinions),
                config,
                run_seed,
                choice,
                stop,
                &tel,
            ),
            Dynamic::JMajority => run_sampling_ensemble(
                JMajority::new(scenario.opinions, scenario.majority_samples),
                config,
                run_seed,
                choice,
                stop,
                &tel,
            ),
            Dynamic::Median => run_sampling_ensemble(
                MedianRule::new(scenario.opinions),
                config,
                run_seed,
                choice,
                stop,
                &tel,
            ),
            Dynamic::Usd => unreachable!("handled above"),
        }?;
        return Ok(RunVerdict::Finished(ScenarioOutcome::Ensemble(outcome)));
    }

    if scenario.dynamic == Dynamic::Usd {
        return run_single_usd(scenario, &spec, seed, stop, &tel, &mut control);
    }

    // Single sampling dynamic: pauses between activations (exact) or
    // skip-ahead `advance` calls (batched) — the capture-exact boundaries.
    let config = match control.resume {
        // A resumed run takes its counts from the checkpoint.
        Some(_) => None,
        None => Some(
            spec.build(seed)
                .map_err(|e| format!("invalid configuration: {e}"))?,
        ),
    };
    let run_seed = seed.child(1);
    let engine = scenario.effective_engine();
    match scenario.dynamic {
        Dynamic::Voter => run_sampling_dynamic(
            Voter::new(scenario.opinions),
            Dynamic::Voter,
            config,
            run_seed,
            engine,
            stop,
            &mut control,
        ),
        Dynamic::TwoChoices => run_sampling_dynamic(
            TwoChoices::new(scenario.opinions),
            Dynamic::TwoChoices,
            config,
            run_seed,
            engine,
            stop,
            &mut control,
        ),
        Dynamic::ThreeMajority => run_sampling_dynamic(
            ThreeMajority::new(scenario.opinions),
            Dynamic::ThreeMajority,
            config,
            run_seed,
            engine,
            stop,
            &mut control,
        ),
        Dynamic::JMajority => run_sampling_dynamic(
            JMajority::new(scenario.opinions, scenario.majority_samples),
            Dynamic::JMajority,
            config,
            run_seed,
            engine,
            stop,
            &mut control,
        ),
        Dynamic::Median => run_sampling_dynamic(
            MedianRule::new(scenario.opinions),
            Dynamic::Median,
            config,
            run_seed,
            engine,
            stop,
            &mut control,
        ),
        Dynamic::Usd => unreachable!("handled above"),
    }
}

/// A single USD run through the cooperative pause seam.
fn run_single_usd(
    scenario: &ScenarioConfig,
    spec: &pp_workloads::InitialConfig,
    seed: SimSeed,
    stop: StopCondition,
    tel: &Telemetry,
    control: &mut RunControl<'_>,
) -> Result<RunVerdict, String> {
    let mut plan = spec.shard_plan();
    if let Some(epoch) = scenario.epoch {
        plan = plan.epoch_interactions(epoch);
    }
    let mut sim = match control.resume {
        Some(checkpoint) => {
            if checkpoint.meta(SAMPLER_FORMAT_META).is_some() {
                return Err(
                    "cannot resume: the checkpoint was captured from a sampling-dynamic run, \
                     not a USD run"
                        .to_string(),
                );
            }
            usd_core::UsdSimulator::restore(checkpoint, plan)
                .map_err(|e| format!("cannot resume: {e}"))?
        }
        None => {
            let config = spec
                .build(seed)
                .map_err(|e| format!("invalid configuration: {e}"))?;
            usd_core::UsdSimulator::with_engine_fidelity(
                config,
                seed.child(1),
                spec.engine_choice(),
                plan,
                spec.fidelity_config(),
            )
        }
    };
    sim.set_telemetry(tel.clone());
    if let Some((path, every)) = control.checkpoint {
        sim.set_checkpoint_sink(path, every);
    }
    let progress_every = if control.progress_every == 0 {
        scenario.population.max(1)
    } else {
        control.progress_every
    };
    let mut recorder = pp_core::NullRecorder;
    let mut next_progress = sim.interactions().saturating_add(progress_every);
    loop {
        // The hook polls the interrupt exactly once per pause boundary and
        // parks the verdict, so one-shot interrupt closures are honoured.
        // Pausing consumes no RNG.
        let want_interrupt = control.interrupt;
        let mut pending: Option<Interrupt> = None;
        let result = sim.run_interruptible(stop, &mut recorder, &mut |i| {
            if let Some(kind) = want_interrupt.and_then(|f| f()) {
                pending = Some(kind);
                return true;
            }
            i >= next_progress
        });
        match result {
            Some(result) => return Ok(RunVerdict::Finished(ScenarioOutcome::Single(result))),
            None => {
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
                    tel,
                    Some(sim.interactions()),
                    Some(sim.configuration()),
                );
                next_progress = sim.interactions().saturating_add(progress_every);
            }
        }
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

fn dynamic_index(dynamic: Dynamic) -> u64 {
    Dynamic::ALL
        .iter()
        .position(|&d| d == dynamic)
        .expect("every dynamic is listed in Dynamic::ALL") as u64
}

fn capture_sampler<D: SamplingDynamics + Clone>(
    sim: &SequentialSampler<D>,
    dynamic: Dynamic,
) -> Checkpoint {
    Checkpoint::new(pp_core::checkpoint::EngineState::Exact(
        sim.capture_replica(),
    ))
    .with_meta(SAMPLER_FORMAT_META, 1)
    .with_meta(SAMPLER_DYNAMIC_META, dynamic_index(dynamic))
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

/// Mirrors `usd_run`'s single sampling-dynamic path (same engine gating
/// and diagnostics), threading the cooperative pause seam through
/// [`SequentialSampler::run_interruptible`] (exact) or
/// [`SequentialSampler::run_engine_interruptible`] (batched): interrupts,
/// progress events and checkpoint captures all happen at activation or
/// `advance`-call boundaries, where the replica snapshot is exact.
fn run_sampling_dynamic<D: SamplingDynamics + Clone>(
    dynamics: D,
    dynamic: Dynamic,
    config: Option<Configuration>,
    seed: SimSeed,
    engine: EngineChoice,
    stop: StopCondition,
    control: &mut RunControl<'_>,
) -> Result<RunVerdict, String> {
    let name = dynamics.name().to_string();
    let mut sim = match (control.resume, config) {
        (Some(checkpoint), _) => restore_sampler(&dynamics, dynamic, checkpoint)?,
        (None, Some(config)) => {
            SequentialSampler::try_new(dynamics, config, seed).map_err(|e| e.to_string())?
        }
        (None, None) => unreachable!("run_scenario builds a configuration when not resuming"),
    };
    if engine == EngineChoice::Batched {
        sim.require_skip_ahead().map_err(|e| {
            format!(
                "{e}: the {name} dynamic provides no closed-form skip-ahead hooks \
                 — use --engine exact"
            )
        })?;
    }
    let every = if control.progress_every == 0 {
        sim.configuration().population().max(1)
    } else {
        control.progress_every
    };
    let checkpoint_every = control
        .checkpoint
        .map(|(_, cadence)| {
            if cadence == 0 {
                sim.configuration().population().max(1)
            } else {
                cadence
            }
        })
        .unwrap_or(u64::MAX);
    let tel = Telemetry::disabled();
    let mut recorder = pp_core::NullRecorder;
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
            EngineChoice::Exact => sim.run_interruptible(stop, &mut recorder, &mut pause),
            EngineChoice::Batched => sim.run_engine_interruptible(stop, &mut recorder, &mut pause),
            other => unreachable!("validate rejects {other} for sampling dynamics"),
        };
        match result {
            Some(result) => return Ok(RunVerdict::Finished(ScenarioOutcome::Single(result))),
            None => {
                if let Some(kind) = pending {
                    if kind == Interrupt::Halted {
                        if let Some((path, _)) = control.checkpoint {
                            capture_sampler(&sim, dynamic)
                                .save(path)
                                .map_err(|e| format!("cannot checkpoint: {e}"))?;
                        }
                    }
                    return Ok(RunVerdict::Interrupted(kind));
                }
                if sim.steps() >= next_checkpoint {
                    if let Some((path, _)) = control.checkpoint {
                        capture_sampler(&sim, dynamic)
                            .save(path)
                            .map_err(|e| format!("cannot checkpoint: {e}"))?;
                    }
                    next_checkpoint = sim.steps().saturating_add(checkpoint_every);
                }
                if sim.steps() >= next_progress {
                    emit(
                        &mut control.progress,
                        &tel,
                        Some(sim.steps()),
                        Some(sim.configuration()),
                    );
                    next_progress = sim.steps().saturating_add(every);
                }
            }
        }
    }
}

/// Mirrors `usd_run`'s sampling-ensemble path (same diagnostics).
fn run_sampling_ensemble<D: SamplingDynamics + Clone + Send>(
    dynamics: D,
    config: Configuration,
    seed: SimSeed,
    choice: pp_core::ensemble::EnsembleChoice,
    stop: StopCondition,
    tel: &Telemetry,
) -> Result<EnsembleRunResult, String> {
    let name = dynamics.name().to_string();
    let mut ensemble = sampler_ensemble(&dynamics, &config, seed, choice).map_err(|e| {
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
}
