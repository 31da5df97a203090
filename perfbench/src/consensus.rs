//! `consensus-k8`: the paper's "regardless of bias" regime.  USD, k = 8,
//! uniform split, no undecided agents, n = 10⁵; batched engine; single runs
//! to consensus, one after another through `run_scenario` with
//! `RunControl::default()`.

use crate::trace::{self, Tracer};
use crate::{
    check_replay, check_result_text, check_run, drive_windows, guarded, population_of,
    repeat_setup, scenario_engine, single, Ctx, EngineTally, Report, SETUP_REPS,
};
use pp_core::{Configuration, EngineChoice, SimSeed};
use pp_service::{result_json, run_scenario, RunControl, ScenarioConfig, ScenarioOutcome};
use std::time::Instant;

const N: u64 = 100_000;
const TOY_N: u64 = 3_000;
const K: usize = 8;
/// Runs per measured second at this population (about 0.15 s per run on
/// one AMD EPYC core).
const RUNS_PER_SECOND: f64 = 6.5;

fn population(ctx: &Ctx) -> u64 {
    if ctx.toy {
        TOY_N
    } else {
        N
    }
}

/// Generates `count` seeded scenarios, sends each through its JSON text and
/// builds its initial configuration.
fn setup(ctx: &Ctx, count: usize) -> Result<Vec<(ScenarioConfig, Configuration)>, String> {
    let n = population(ctx);
    let mut rng = ctx.rng(1);
    (0..count)
        .map(|_| {
            let scenario = ScenarioConfig::new(n, K)
                .with_seed(rng.next_u64())
                .with_engine(EngineChoice::Batched);
            let parsed = ScenarioConfig::from_json(&scenario.to_json())?;
            parsed.validate()?;
            if parsed != scenario {
                return Err("scenario changed through its JSON text".to_string());
            }
            let config = parsed
                .to_initial_config()
                .build(SimSeed::from_u64(parsed.seed))
                .map_err(|e| e.to_string())?;
            if population_of(&config) != n {
                return Err("initial configuration does not hold n agents".to_string());
            }
            Ok((parsed, config))
        })
        .collect()
}

fn run_count(ctx: &Ctx) -> usize {
    if ctx.toy {
        4
    } else {
        ctx.scaled(RUNS_PER_SECOND, 20)
    }
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// Propagates set-up errors.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let n = population(ctx);
    let (inputs, setup_s) = repeat_setup(SETUP_REPS, || setup(ctx, run_count(ctx)))?;
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(inputs.len());
    let mut interactions = 0_u128;
    for (i, (scenario, _)) in inputs.iter().enumerate() {
        let t = Instant::now();
        let result = guarded(|| single(run_scenario(scenario, RunControl::default())));
        latencies.push(t.elapsed().as_secs_f64());
        let checked = result.and_then(|r| {
            interactions += u128::from(r.interactions());
            check_run(&r, n)?;
            check_result_text(&result_json(&ScenarioOutcome::Single(r)), n)
        });
        report.check(&format!("run {i}"), checked);
    }
    let wall = start.elapsed().as_secs_f64();
    report.end_to_end(setup_s, wall, inputs.len(), interactions, &latencies);
    Ok(())
}

/// One pass of the traced work: per seed, build the configuration, run the
/// scenario, then replay the same trajectory through the engine in windows
/// of n interactions.  Returns each run's result bytes.
fn pass(
    tracer: &Tracer,
    inputs: &[(ScenarioConfig, Configuration)],
    n: u64,
    report: &mut Report,
    tally: &mut EngineTally,
) -> Vec<String> {
    let mut bytes = Vec::with_capacity(inputs.len());
    for (i, (scenario, _)) in inputs.iter().enumerate() {
        let run = i as u64;
        tracer.scope("bench.run", run, || {
            let config = tracer.scope("workloads.build", run, || {
                scenario
                    .to_initial_config()
                    .build(SimSeed::from_u64(scenario.seed))
            });
            let result = tracer.scope("runner.run_scenario", run, || {
                guarded(|| single(run_scenario(scenario, RunControl::default())))
            });
            let checked = config.map_err(|e| e.to_string()).and_then(|config| {
                let result = result?;
                check_run(&result, n)?;
                let text = result_json(&ScenarioOutcome::Single(result.clone()));
                bytes.push(text);
                let mut engine = scenario_engine(scenario, config);
                drive_windows(tracer, run, scenario, &mut engine, |_| "engine.window");
                tally.absorb(&engine);
                check_replay(&engine, &result)
            });
            report.check(&format!("traced run {i}"), checked);
        });
    }
    bytes
}

/// The traced run: per-layer metrics for the workloads, runner and engine
/// layers.
///
/// # Errors
///
/// Propagates set-up errors.
pub fn run_traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let n = population(ctx);
    // Two passes, each running every seed twice.
    let count = if ctx.toy {
        3
    } else {
        ctx.scaled(RUNS_PER_SECOND / 4.0, 8)
    };
    let inputs = setup(ctx, count)?;

    let untraced = Tracer::new(false);
    let t = Instant::now();
    let plain = pass(&untraced, &inputs, n, report, &mut EngineTally::default());
    let wall_untraced = t.elapsed().as_nanos() as u64;

    let tracer = Tracer::new(true);
    let mut tally = EngineTally::default();
    let t = Instant::now();
    let traced = pass(&tracer, &inputs, n, report, &mut tally);
    let wall_traced = t.elapsed().as_nanos() as u64;
    report.check(
        "traced and untraced result bytes",
        if plain == traced {
            Ok(())
        } else {
            Err("result_json differs between the traced and the untraced pass".to_string())
        },
    );

    let spans = tracer.spans();
    layer_metrics(report, &spans, &tally);
    crate::finish_trace(
        ctx,
        "consensus-k8",
        report,
        &spans,
        wall_untraced,
        wall_traced,
    );
    Ok(())
}

/// Per-layer metrics from the spans and engine counters of single-run
/// passes (shared with the threshold workload's loop arm).
pub fn layer_metrics(report: &mut Report, spans: &[trace::SpanRec], tally: &EngineTally) {
    let busy = trace::total_ns(spans, "engine.window");
    report.metric(
        "workloads.build_ns",
        trace::total_ns(spans, "workloads.build") as f64,
    );
    report.metric(
        "workloads.builds",
        trace::count(spans, "workloads.build") as f64,
    );
    report.metric("engine.busy_ns", busy as f64);
    report.metric("engine.events", tally.events as f64);
    report.metric("engine.interactions", tally.interactions as f64);
    report.metric(
        "engine.event_frac",
        tally.events as f64 / tally.interactions.max(1) as f64,
    );
    report.metric(
        "engine.ns_per_event",
        busy as f64 / tally.events.max(1) as f64,
    );
    report.metric("engine.rows_patched", tally.rows_patched as f64);
    report.metric("engine.rows_rebuilt", tally.rows_rebuilt as f64);
    report.metric("engine.nulls_skipped", tally.nulls_skipped as f64);
    let runner = trace::total_ns(spans, "runner.run_scenario");
    if runner > 0 {
        report.metric("runner.self_ns", runner as f64 - busy as f64);
        report.metric(
            "runner.calls",
            trace::count(spans, "runner.run_scenario") as f64,
        );
    }
}
