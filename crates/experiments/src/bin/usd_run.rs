//! A small command-line tool for running a single simulation and dumping
//! its trajectory as CSV — handy for plotting individual runs.
//!
//! ```text
//! usd_run --n 100000 --k 10 --bias-mult 2.0 [--mult-bias 1.5] [--undecided 0.2]
//!         [--dynamic usd|voter|two-choices|3-majority|j-majority|median]
//!         [--j 5] [--engine exact|batched|sharded|mean-field|hybrid] [--shards 8]
//!         [--epoch 1000000] [--fidelity-promote 8 --fidelity-demote 1.5]
//!         [--fidelity-mass-floor 0.25 --fidelity-dwell 100000]
//!         [--replicas 32] [--threads 4] [--seed 7]
//!         [--samples 500] [--output trajectory.csv]
//! ```
//!
//! The tool is a front-end over `pp_service`: its flags parse into a
//! [`ScenarioConfig`] (flag and scenario-field names map 1:1) that runs
//! through [`run_scenario`], the same runner `pp_serve` jobs and
//! `--scenario` files use.  A flag line is therefore accepted, rejected
//! (with [`ScenarioConfig::validate`]'s sentence) and computed exactly like
//! the equivalent scenario document.  The tool itself only adds its sinks —
//! the trajectory CSV, the stderr summaries, `--output`, `--metrics`,
//! `--trace`, `--checkpoint` and `--resume` — and the rules about them.
//!
//! Exactly one of `--bias-mult` (additive bias in `sqrt(n ln n)` units) or
//! `--mult-bias` (multiplicative factor) may be given; with neither the run
//! starts from the uniform configuration.
//!
//! `--dynamic` selects the process: the USD (default, all five engines) or
//! one of the baseline sampling dynamics, which run through the sequential
//! sampler with `--engine exact` (per-activation stepping) or
//! `--engine batched` (geometric skip-ahead over null activations).  The
//! sharded, mean-field, and hybrid backends are USD-only: sampling dynamics
//! touch `j` agents per activation, so the pairwise cross-shard
//! reconciliation and the USD's ODE limit do not apply.
//!
//! `--engine hybrid` runs the multi-fidelity engine: an online fluctuation
//! detector switches between the batched stochastic backend and the
//! mean-field ODE at pause boundaries (`usd_core::hybrid::HybridEngine`).
//! The `--fidelity-*` flags tune its thresholds (promote/demote drift-to-
//! noise ratios, the `√n`-scaled minimum-mass floor, and the post-switch
//! dwell in interactions; dwell 0 means one parallel-time unit `n`).
//!
//! `--replicas R` (with `R > 1`) runs a lockstep ensemble instead of a
//! single trajectory: `R` batched replicas advance together sharing their
//! per-counts tables across `--threads T` worker threads (default: the
//! machine's available parallelism; results are bit-identical at every
//! thread count), and the tool prints a streaming summary
//! (mean/variance/CI of the hitting time, aggregate interactions/sec)
//! instead of a trajectory CSV.  With `--output path` the summary — plus
//! the per-replica hitting times — is additionally written as a JSON
//! document.  Works for the USD and every baseline dynamic; only the
//! batched engine runs inside the ensemble.  `--threads` also caps the
//! sharded engine's shard workers.
//!
//! Observability (`pp_core::telemetry`; enabling it never changes a
//! trajectory):
//!
//! * `--trace out.json` writes a chrome-trace JSON of the run's timing
//!   spans (load in Perfetto or `chrome://tracing`): shard epochs and
//!   per-worker reconcile tracks for `--engine sharded`, lockstep windows
//!   and per-worker advancement tracks for `--replicas R`.
//! * `--metrics` prints the run's flat metrics snapshot as a one-line
//!   `{"metrics":{...}}` JSON object on stdout — the same object the
//!   ensemble `--output` document embeds under `"metrics"` (skip/draw
//!   counts, law-maintenance patch rates, shared-table cache statistics).
//!   Human-readable summaries go to stderr in both modes, so stdout stays
//!   machine-parseable.
//!
//! Crash recovery (`pp_core::checkpoint`; single runs only):
//!
//! * `--checkpoint ckpt.json [--checkpoint-every N]` writes a resumable
//!   snapshot of the complete engine state to `ckpt.json` every `N`
//!   interactions (default: `n`, one parallel-time unit), and for the USD
//!   at every phase boundary of phase-aware runs.  Each write replaces the
//!   file atomically; captures never perturb the trajectory.
//! * `--resume ckpt.json` restores the snapshot and drives it to the
//!   run's usual stop condition.  Pass the original `--n`/`--k` (and
//!   `--dynamic`) — the interaction budget derives from them, so a
//!   mismatch against the checkpoint is a hard error, as is an `--engine`
//!   other than the checkpoint's.  The resumed trajectory tail is
//!   bit-identical to the uninterrupted run's.  Replica ensembles
//!   checkpoint through the job server (`pp_serve --state-dir`), not these
//!   flags.
//!
//! Scenario files:
//!
//! * `--scenario run.json` (alone — it *is* the whole command line) loads
//!   a versioned scenario document, runs it, and prints the canonical
//!   result JSON on stdout — the bytes a `pp_serve` job server stores for
//!   the same document.

use pp_analysis::streaming::summarize_ensemble;
use pp_core::ensemble::EnsembleRunResult;
use pp_core::json::{Json, ObjBuilder};
use pp_core::recorder::PairRecorder;
use pp_core::{
    Checkpoint, Configuration, EngineChoice, FidelityConfig, MetricsSnapshot, Recorder, RunResult,
    Telemetry,
};
use pp_service::runner::{
    checkpoint_engine, result_json, run_scenario, RunControl, RunVerdict, ScenarioOutcome,
};
use pp_service::scenario::{Dynamic, ScenarioConfig};
use pp_workloads::{BiasSpec, UndecidedSpec};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use usd_core::{Phase, PhaseTracker, Trajectory};

/// Where a flag-line run sends its output: the CLI-only half of the
/// command line, next to the [`ScenarioConfig`] it runs.  None of these can
/// change a result.
#[derive(Debug, Default)]
struct Sinks {
    output: Option<String>,
    trace: Option<String>,
    metrics: bool,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    resume: Option<String>,
}

const USAGE: &str = "usage: usd_run --scenario <scenario json> | \
     usd_run --n <agents> --k <opinions> [--bias-mult <x> | --mult-bias <f>] \
         [--undecided <fraction>] \
         [--dynamic usd|voter|two-choices|3-majority|j-majority|median] [--j <samples>] \
         [--engine exact|batched|sharded|mean-field|hybrid] \
         [--shards <count>] [--epoch <interactions>] \
         [--fidelity-promote <ratio>] [--fidelity-demote <ratio>] \
         [--fidelity-mass-floor <x>] [--fidelity-dwell <interactions>] \
         [--replicas <count>] \
         [--threads <count>] [--seed <u64>] [--samples <count>] \
         [--output <csv, or json with --replicas>] \
         [--trace <chrome-trace json>] [--metrics] \
         [--checkpoint <path> [--checkpoint-every <interactions>]] \
         [--resume <path>]";

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses the command line into the scenario it runs and the sinks it
/// writes, applying the scenario's rules ([`ScenarioConfig::validate`])
/// and then the sinks' own.
fn parse_args(args: &[String]) -> Result<(ScenarioConfig, Sinks), String> {
    let mut scenario = ScenarioConfig::default();
    let mut sinks = Sinks::default();
    let mut additive_mult: Option<f64> = None;
    let mut mult_bias: Option<f64> = None;
    let mut undecided = 0.0_f64;
    let mut j_given = false;
    // Each `--fidelity-*` flag overrides one default threshold.
    fn fidelity(s: &mut ScenarioConfig) -> &mut FidelityConfig {
        s.fidelity.get_or_insert_with(FidelityConfig::default)
    }
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || -> Result<&str, String> {
            i += 1;
            args.get(i)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--n" => scenario.population = parse_value(flag, value()?)?,
            "--k" => scenario.opinions = parse_value(flag, value()?)?,
            "--bias-mult" => additive_mult = Some(parse_value(flag, value()?)?),
            "--mult-bias" => mult_bias = Some(parse_value(flag, value()?)?),
            "--undecided" => undecided = parse_value(flag, value()?)?,
            "--dynamic" => scenario.dynamic = Dynamic::parse(value()?)?,
            "--j" => {
                j_given = true;
                scenario.majority_samples = parse_value(flag, value()?)?;
            }
            "--engine" => scenario.engine = Some(parse_value(flag, value()?)?),
            "--shards" => scenario.shards = Some(parse_value(flag, value()?)?),
            "--epoch" => scenario.epoch = Some(parse_value(flag, value()?)?),
            "--replicas" => scenario.replicas = parse_value(flag, value()?)?,
            "--threads" => scenario.threads = Some(parse_value(flag, value()?)?),
            "--seed" => scenario.seed = parse_value(flag, value()?)?,
            "--samples" => scenario.samples = parse_value(flag, value()?)?,
            "--fidelity-promote" => {
                fidelity(&mut scenario).promote_ratio = parse_value(flag, value()?)?;
            }
            "--fidelity-demote" => {
                fidelity(&mut scenario).demote_ratio = parse_value(flag, value()?)?;
            }
            "--fidelity-mass-floor" => {
                fidelity(&mut scenario).mass_floor = parse_value(flag, value()?)?;
            }
            "--fidelity-dwell" => {
                fidelity(&mut scenario).min_dwell = parse_value(flag, value()?)?;
            }
            "--output" => sinks.output = Some(value()?.to_string()),
            "--trace" => sinks.trace = Some(value()?.to_string()),
            "--metrics" => sinks.metrics = true,
            "--checkpoint" => sinks.checkpoint = Some(value()?.to_string()),
            "--checkpoint-every" => sinks.checkpoint_every = Some(parse_value(flag, value()?)?),
            "--resume" => sinks.resume = Some(value()?.to_string()),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    scenario.bias = match (additive_mult, mult_bias) {
        (Some(_), Some(_)) => {
            return Err("give at most one of --bias-mult and --mult-bias".to_string())
        }
        (Some(mult), None) => BiasSpec::AdditiveInSqrtNLogN(mult),
        (None, Some(factor)) => BiasSpec::Multiplicative(factor),
        (None, None) => BiasSpec::None,
    };
    if undecided > 0.0 {
        scenario.undecided = UndecidedSpec::Fraction(undecided);
    }
    if j_given {
        scenario.dynamic.accept_j()?;
    }
    scenario.validate()?;
    check_sinks(&scenario, &sinks)?;
    Ok((scenario, sinks))
}

/// The rules about the CLI's own sinks.
fn check_sinks(scenario: &ScenarioConfig, sinks: &Sinks) -> Result<(), String> {
    if sinks.checkpoint_every == Some(0) {
        return Err("--checkpoint-every must be positive".to_string());
    }
    if sinks.checkpoint_every.is_some() && sinks.checkpoint.is_none() {
        return Err(
            "--checkpoint-every sets the cadence of --checkpoint; give --checkpoint <path> too"
                .to_string(),
        );
    }
    if (sinks.checkpoint.is_some() || sinks.resume.is_some()) && scenario.replicas > 1 {
        return Err(
            "--checkpoint/--resume cover single runs; the replica ensemble checkpoints \
             through the job server (pp_serve --state-dir), not the CLI"
                .to_string(),
        );
    }
    if sinks.resume.is_none() {
        return Ok(());
    }
    if scenario.bias != BiasSpec::None || scenario.undecided != UndecidedSpec::None {
        return Err(
            "--bias-mult/--mult-bias/--undecided shape the initial configuration, which \
             --resume takes from the checkpoint — drop them"
                .to_string(),
        );
    }
    if scenario.fidelity.is_some() {
        return Err(
            "--fidelity-* configure a fresh fidelity controller, which --resume restores \
             from the checkpoint (thresholds ride in the snapshot) — drop them"
                .to_string(),
        );
    }
    if sinks.output.is_some() {
        return Err(
            "--output records the trajectory from the start of the run, but a resumed run \
             cannot reconstruct the pre-checkpoint samples — drop --output (use --metrics \
             or --trace for resumed-leg observability)"
                .to_string(),
        );
    }
    Ok(())
}

/// The stderr line naming the backend a fresh run steps with.
fn engine_line(scenario: &ScenarioConfig) -> String {
    let n = scenario.population;
    let step = if scenario.replicas > 1 {
        format!(
            "lockstep ensemble of {} batched replicas",
            scenario.replicas
        )
    } else {
        match scenario.effective_engine() {
            EngineChoice::Sharded => {
                let plan = scenario.shard_plan();
                format!(
                    "sharded ({} shards, epoch {} interactions, {} threads)",
                    plan.shards(),
                    plan.epoch_for(n),
                    plan.resolved_threads(),
                )
            }
            EngineChoice::Hybrid => {
                let f = scenario.effective_fidelity();
                format!(
                    "hybrid (promote ratio {}, demote ratio {}, mass floor {}, dwell {} \
                     interactions)",
                    f.promote_ratio,
                    f.demote_ratio,
                    f.mass_floor,
                    f.resolved_dwell(n),
                )
            }
            engine => engine.to_string(),
        }
    };
    match scenario.dynamic {
        Dynamic::Usd => format!("step engine: {step}"),
        dynamic => format!("dynamic: {dynamic}; step engine: {step}"),
    }
}

/// Renders the ensemble outcome as a JSON document — the `--output` form of
/// the streaming summary, plus the per-replica hitting times the printed
/// summary aggregates away.  Engine counters live in the embedded
/// `"metrics"` object (same names as `--metrics` and the printed
/// summaries).
fn ensemble_summary_json(
    outcome: &EnsembleRunResult,
    elapsed: f64,
    scenario: &ScenarioConfig,
) -> String {
    let summary = summarize_ensemble(outcome);
    let (goal, wilson_lo, wilson_hi) = summary.goal_proportion();
    let replicas = outcome.results().iter().enumerate().map(|(i, result)| {
        let outcome_name = match result.outcome() {
            pp_core::RunOutcome::Consensus => "consensus",
            pp_core::RunOutcome::OpinionSettled => "opinion-settled",
            pp_core::RunOutcome::BudgetExhausted => "budget-exhausted",
        };
        ObjBuilder::new()
            .field("replica", Json::U64(i as u64))
            .field("outcome", Json::Str(outcome_name.to_string()))
            .field("interactions", Json::U64(result.interactions()))
            .field("parallel_time", Json::F64(result.parallel_time()))
            .field(
                "winner",
                result
                    .winner()
                    .map_or(Json::Null, |w| Json::U64(w.index() as u64)),
            )
            .field(
                "rejection_misses",
                result.rejection_misses().map_or(Json::Null, Json::U64),
            )
            .build()
    });
    let hitting = &summary.hitting_time;
    let hitting_json = if hitting.count() > 0 {
        let (ci_lo, ci_hi) = hitting.mean_confidence_interval(1.96);
        ObjBuilder::new()
            .field("count", Json::U64(hitting.count()))
            .field("mean", Json::F64(hitting.mean()))
            .field("ci95", Json::Arr(vec![Json::F64(ci_lo), Json::F64(ci_hi)]))
            .field("std_dev", Json::F64(hitting.std_dev()))
            .field("median", hitting.median().map_or(Json::Null, Json::F64))
            .field("min", Json::F64(hitting.min()))
            .field("max", Json::F64(hitting.max()))
            .build()
    } else {
        Json::Null
    };
    let total = outcome.total_interactions();
    ObjBuilder::new()
        .field("tool", Json::Str("usd_run".to_string()))
        .field("mode", Json::Str("ensemble".to_string()))
        .field("n", Json::U64(scenario.population))
        .field("k", Json::U64(scenario.opinions as u64))
        .field("seed", Json::U64(scenario.seed))
        .field("replicas", Json::U64(outcome.len() as u64))
        .field("workers", Json::U64(outcome.workers()))
        .field("rounds", Json::U64(outcome.rounds()))
        .field("metrics", outcome.metrics_snapshot().to_json_value())
        .field(
            "consensus",
            ObjBuilder::new()
                .field("reached", Json::U64(summary.goal_reached))
                .field("proportion", Json::F64(goal))
                .field(
                    "wilson95",
                    Json::Arr(vec![Json::F64(wilson_lo), Json::F64(wilson_hi)]),
                )
                .build(),
        )
        .field("hitting_time", hitting_json)
        .field(
            "total_interactions",
            Json::U64(u64::try_from(total).unwrap_or(u64::MAX)),
        )
        .field("seconds", Json::F64(elapsed))
        .field(
            "interactions_per_sec",
            Json::F64(total as f64 / elapsed.max(1e-9)),
        )
        .field("results", Json::Arr(replicas.collect()))
        .build()
        .to_json()
}

/// Prints the engine-counter lines shared by the single-run and ensemble
/// summaries, reading the canonical metric names of the unified snapshot so
/// both modes report the same fields in the same shape (on stderr, like the
/// rest of the human-readable summary).
fn print_engine_metrics(snap: &MetricsSnapshot) {
    if let Some(misses) = snap.counter("engine.rejection_misses") {
        eprintln!("rejection misses: {misses}");
    }
    let rows_patched = snap.counter("maintenance.rows_patched").unwrap_or(0);
    let rows_rebuilt = snap.counter("maintenance.rows_rebuilt").unwrap_or(0);
    let law_patches = snap.counter("maintenance.law_patches").unwrap_or(0);
    let law_rebuilds = snap.counter("maintenance.law_rebuilds").unwrap_or(0);
    if rows_patched + rows_rebuilt + law_patches + law_rebuilds > 0 {
        let pct = |gauge: Option<f64>| {
            gauge.map_or_else(|| "n/a".to_string(), |f| format!("{:.1}%", 100.0 * f))
        };
        eprintln!(
            "law maintenance: rows {rows_patched} patched / {rows_rebuilt} rebuilt \
             ({} incremental), laws {law_patches} patched / {law_rebuilds} rebuilt \
             ({} incremental)",
            pct(snap.gauge("maintenance.rows_patched_fraction")),
            pct(snap.gauge("maintenance.law_patched_fraction")),
        );
        // Rebuild provenance: guardrail fallbacks are rebuilds the
        // incremental path *should* have avoided, so they get their own
        // line instead of hiding inside the rebuild total.
        let law_fallbacks = snap
            .counter("maintenance.law_fallback_rebuilds")
            .unwrap_or(0);
        if law_rebuilds > 0 {
            eprintln!(
                "law rebuild causes: {law_fallbacks} guardrail fallbacks / {} scheduled or cold",
                law_rebuilds.saturating_sub(law_fallbacks),
            );
        }
    }
    if let Some(captures) = snap.counter("checkpoint.captures") {
        eprintln!(
            "checkpoints: {captures} captured ({} bytes written)",
            snap.counter("checkpoint.bytes").unwrap_or(0),
        );
    }
}

/// The run's canonical metrics snapshot: the one the engine attached, or —
/// for backends predating the registry — one reconstructed from the legacy
/// per-run accessors, so every code path reports the same field names.
fn run_metrics_snapshot(result: &RunResult) -> MetricsSnapshot {
    result.telemetry().cloned().unwrap_or_else(|| {
        let mut snap = MetricsSnapshot::new();
        if let Some(misses) = result.rejection_misses() {
            snap.add_counter("engine.rejection_misses", misses);
        }
        if let Some(stats) = result.maintenance() {
            snap.absorb_maintenance(&stats);
        }
        snap
    })
}

/// Writes the chrome trace (`--trace`) and prints the run's metrics
/// snapshot (`--metrics`) once the run is over.  The metrics line is the
/// only thing `--metrics` puts on stdout, so it stays machine-parseable.
fn emit_telemetry(tel: &Telemetry, sinks: &Sinks, snap: &MetricsSnapshot) -> Result<(), String> {
    if let Some(path) = &sinks.trace {
        std::fs::write(path, tel.chrome_trace_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("chrome trace written to {path} (load in Perfetto or chrome://tracing)");
    }
    if sinks.metrics {
        let doc = ObjBuilder::new()
            .field("metrics", snap.to_json_value())
            .build();
        println!("{}", doc.to_json());
    }
    Ok(())
}

/// Prints the streaming ensemble summary (satisfies `--replicas`): hitting
/// time statistics, goal proportion, shared-table reuse (when the replicas
/// looked tables up) and aggregate throughput.  Everything goes to stderr,
/// matching the single-run summary, so stdout carries machine output
/// (`--metrics`) only.
fn print_ensemble_summary(outcome: &EnsembleRunResult, elapsed: f64) {
    let summary = summarize_ensemble(outcome);
    let (goal, lo, hi) = summary.goal_proportion();
    eprintln!(
        "ensemble: {} replicas over {} worker threads, {} scheduling rounds",
        summary.replicas,
        outcome.workers(),
        outcome.rounds(),
    );
    if outcome.shared_hits() + outcome.shared_misses() > 0 {
        eprintln!(
            "shared-table reuse {:.1}% ({} hits / {} misses)",
            100.0 * outcome.shared_reuse_fraction(),
            outcome.shared_hits(),
            outcome.shared_misses(),
        );
    }
    eprintln!(
        "consensus: {}/{} replicas ({:.1}%, Wilson 95% [{:.3}, {:.3}])",
        summary.goal_reached,
        summary.replicas,
        100.0 * goal,
        lo,
        hi
    );
    // Hitting-time statistics cover goal-reaching replicas only —
    // budget-exhausted replicas stop at the censoring cap, which is not a
    // hitting time.
    if summary.hitting_time.count() > 0 {
        let (ci_lo, ci_hi) = summary.hitting_time.mean_confidence_interval(1.96);
        eprintln!(
            "hitting time (interactions, {} converged replicas): mean {:.0} \
             (95% CI [{:.0}, {:.0}]), std-dev {:.0}, median ~{:.0}, min {:.0}, max {:.0}",
            summary.hitting_time.count(),
            summary.hitting_time.mean(),
            ci_lo,
            ci_hi,
            summary.hitting_time.std_dev(),
            summary.hitting_time.median().unwrap_or(f64::NAN),
            summary.hitting_time.min(),
            summary.hitting_time.max(),
        );
    } else {
        eprintln!("hitting time: no replica reached the goal within the budget");
    }
    if summary.goal_reached < summary.replicas {
        eprintln!(
            "interactions at stop (all replicas, incl. {} budget-capped): mean {:.0}",
            summary.replicas - summary.goal_reached,
            summary.interactions.mean(),
        );
    }
    eprintln!(
        "parallel time: mean {:.2}, std-dev {:.2}",
        summary.parallel_time.mean(),
        summary.parallel_time.std_dev()
    );
    let total = outcome.total_interactions();
    eprintln!(
        "aggregate throughput: {:.3e} interactions/sec ({} interactions across all replicas \
         in {:.3} s)",
        total as f64 / elapsed.max(1e-9),
        total,
        elapsed
    );
    print_engine_metrics(&outcome.metrics_snapshot());
}

/// Runs a `--scenario FILE` document through the service layer's shared
/// runner and prints the canonical result JSON on stdout (bit-identical to
/// submitting the same file to a `pp_serve` job server).
fn run_scenario_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let scenario = match ScenarioConfig::from_json(&text) {
        Ok(scenario) => scenario,
        Err(message) => {
            eprintln!("{path}: {message}");
            return ExitCode::from(2);
        }
    };
    match run_scenario(&scenario, RunControl::default()) {
        Ok(RunVerdict::Finished(outcome)) => {
            println!("{}", result_json(&outcome));
            ExitCode::SUCCESS
        }
        Ok(RunVerdict::Interrupted(_)) => {
            unreachable!("a default RunControl carries no interrupt hook")
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Runs a flag line: prints the pre-run stderr lines, runs the scenario
/// with the CLI's recorder and telemetry attached, then prints the
/// summaries and writes the sinks.
fn run_flags(scenario: &ScenarioConfig, sinks: &Sinks) -> ExitCode {
    // One registry for the whole run: enabled only when an export sink was
    // requested, so the default path keeps the disabled (no-clock) handle.
    // Telemetry never consumes RNG either way — the trajectory is identical.
    let tel = if sinks.trace.is_some() || sinks.metrics {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let resume = match &sinks.resume {
        Some(path) => match Checkpoint::load(Path::new(path)) {
            Ok(checkpoint) => Some((path, checkpoint)),
            Err(e) => {
                eprintln!("cannot resume from {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let every = sinks.checkpoint_every.unwrap_or(scenario.population.max(1));
    if resume.is_none() {
        match scenario.initial_configuration() {
            Ok(config) => eprintln!("initial configuration: {config}"),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
        if let Some(path) = &sinks.checkpoint {
            eprintln!("checkpointing to {path} every {every} interactions");
        }
        eprintln!("{}", engine_line(scenario));
    }

    let mut trajectory = PairRecorder::new(
        Trajectory::sampled_every(scenario.sample_period(), 1.0),
        PhaseTracker::new(1.0),
    );
    // A resumed run records no trajectory (its pre-checkpoint samples are
    // gone); the runner's one record of the starting state announces it.
    let mut announced = false;
    let mut announce = |interactions: u64, _: &Configuration| {
        if let (false, Some((path, checkpoint))) = (announced, &resume) {
            announced = true;
            let engine = checkpoint_engine(checkpoint).unwrap_or(scenario.effective_engine());
            eprintln!(
                "resumed from {path}: engine {engine}, {interactions} interactions already \
                 consumed"
            );
        }
    };
    let recorder: Option<&mut dyn Recorder> = if resume.is_some() {
        Some(&mut announce)
    } else if scenario.replicas == 1 {
        Some(&mut trajectory)
    } else {
        None
    };
    let control = RunControl {
        checkpoint: sinks.checkpoint.as_deref().map(|p| (Path::new(p), every)),
        resume: resume.as_ref().map(|(_, checkpoint)| checkpoint),
        recorder,
        telemetry: tel.clone(),
        ..RunControl::default()
    };
    let start = Instant::now();
    let verdict = run_scenario(scenario, control);
    let elapsed = start.elapsed().as_secs_f64();
    let outcome = match verdict {
        Ok(RunVerdict::Finished(outcome)) => outcome,
        Ok(RunVerdict::Interrupted(_)) => unreachable!("the CLI attaches no interrupt hook"),
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    let result = match outcome {
        ScenarioOutcome::Ensemble(outcome) => {
            print_ensemble_summary(&outcome, elapsed);
            if let Some(path) = &sinks.output {
                let json = ensemble_summary_json(&outcome, elapsed, scenario);
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("ensemble summary written to {path}");
            }
            return match emit_telemetry(&tel, sinks, &outcome.metrics_snapshot()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            };
        }
        ScenarioOutcome::Single(result) => result,
    };
    eprintln!(
        "finished after {} interactions (parallel time {:.1}); consensus: {}",
        result.interactions(),
        result.parallel_time(),
        result.reached_consensus()
    );
    if let Some(winner) = result.winner() {
        eprintln!("winner: {winner}");
    }
    let fresh = resume.is_none();
    if fresh && scenario.dynamic == Dynamic::Usd {
        for phase in Phase::ALL {
            if let Some(t) = trajectory.second.times().hitting_time(phase) {
                eprintln!("T{} = {t}", phase.number());
            }
        }
    }
    let snap = run_metrics_snapshot(&result);
    print_engine_metrics(&snap);
    if let Err(e) = emit_telemetry(&tel, sinks, &snap) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if !fresh {
        return ExitCode::SUCCESS;
    }
    let csv = trajectory.first.to_csv();
    match &sinks.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, csv) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("trajectory written to {path}");
        }
        None => print!("{csv}"),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|flag| flag == "--scenario") {
        // The scenario document *is* the command line; mixing it with
        // flags would create two sources of truth for one run.
        if args.len() != 2 || args[0] != "--scenario" {
            eprintln!("--scenario takes exactly one file and no other flags");
            return ExitCode::from(2);
        }
        return run_scenario_file(&args[1]);
    }
    match parse_args(&args) {
        Ok((scenario, sinks)) => run_flags(&scenario, &sinks),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
