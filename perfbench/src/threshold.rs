//! `threshold`: the bias theorem at its threshold.  USD, k = 2,
//! n = 2.5·10⁵, additive bias 0.15·√(n ln n), where the plurality wins with
//! probability strictly inside (0, 1).  Three arms share the inputs: the
//! batched lockstep ensemble (the Monte Carlo path and the accuracy
//! reference), and single hybrid and sharded runs over one seed set.

use crate::stats::{self, Proportion, WinErr};
use crate::trace::{self, Tracer};
use crate::{
    check_replay, check_result_text, check_run, drive_windows, guarded, obj, population_of,
    repeat_setup, result_runs, scenario_engine, single, Ctx, EngineTally, Report, SETUP_REPS,
};
use pp_core::{
    Configuration, EngineChoice, Fidelity, Parallelism, RunResult, SimSeed, StepEngine,
    StopCondition,
};
use pp_service::json::Json;
use pp_service::{result_json, run_scenario, RunControl, ScenarioConfig, ScenarioOutcome};
use pp_workloads::BiasSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use usd_core::{UsdEngine, UsdEnsemble};

const N: u64 = 250_000;
const TOY_N: u64 = 4_000;
const K: usize = 2;
/// The additive bias in units of √(n ln n).
const BIAS_MULT: f64 = 0.15;
/// Replicas of the batched reference ensemble.
const REPLICAS: usize = 128;
/// Seeds of the hybrid and sharded arms.
const ARM_SEEDS: usize = 64;
const SHARDS: usize = 4;
/// Seeds (and sub-ensemble replicas) re-run at one thread to check that
/// results do not depend on parallelism.
const CROSS_SEEDS: usize = 2;
const CROSS_REPLICAS: usize = 8;
/// The batched winner probability must stay inside this range, or the
/// accuracy check could not fail.
const P_RANGE: (f64, f64) = (0.2, 0.9);

/// The generated inputs.
struct Inputs {
    n: u64,
    plurality: usize,
    ensemble: ScenarioConfig,
    hybrid: Vec<ScenarioConfig>,
    sharded: Vec<ScenarioConfig>,
}

fn base(n: u64) -> ScenarioConfig {
    ScenarioConfig::new(n, K).with_bias(BiasSpec::AdditiveInSqrtNLogN(BIAS_MULT))
}

fn through_json(scenario: ScenarioConfig) -> Result<ScenarioConfig, String> {
    let parsed = ScenarioConfig::from_json(&scenario.to_json())?;
    parsed.validate()?;
    if parsed != scenario {
        return Err("scenario changed through its JSON text".to_string());
    }
    Ok(parsed)
}

fn build(scenario: &ScenarioConfig) -> Result<Configuration, String> {
    scenario
        .to_initial_config()
        .build(SimSeed::from_u64(scenario.seed))
        .map_err(|e| e.to_string())
}

fn setup(ctx: &Ctx) -> Result<Inputs, String> {
    let (n, replicas, seeds) = if ctx.toy {
        (TOY_N, 8, 6)
    } else {
        (N, REPLICAS, ARM_SEEDS)
    };
    let mut rng = ctx.rng(2);
    let ensemble = through_json(
        base(n)
            .with_engine(EngineChoice::Batched)
            .with_replicas(replicas)
            .with_threads(ctx.threads)
            .with_seed(rng.next_u64()),
    )?;
    let config = build(&ensemble)?;
    let mut hybrid = Vec::with_capacity(seeds);
    let mut sharded = Vec::with_capacity(seeds);
    for _ in 0..seeds {
        let seed = rng.next_u64();
        let h = through_json(base(n).with_engine(EngineChoice::Hybrid).with_seed(seed))?;
        let s = through_json(
            base(n)
                .with_engine(EngineChoice::Sharded)
                .with_shards(SHARDS)
                .with_threads(ctx.threads)
                .with_seed(seed),
        )?;
        for scenario in [&h, &s] {
            if build(scenario)? != config {
                return Err("arms start from different configurations".to_string());
            }
        }
        hybrid.push(h);
        sharded.push(s);
    }
    if population_of(&config) != n {
        return Err("initial configuration does not hold n agents".to_string());
    }
    let supports = config.supports();
    let plurality = (0..supports.len())
        .max_by_key(|&i| supports[i])
        .ok_or("no opinions")?;
    Ok(Inputs {
        n,
        plurality,
        ensemble,
        hybrid,
        sharded,
    })
}

/// Runs `f(0..items)` on `threads` workers pulling indices in order.
fn pool<T: Send>(threads: usize, items: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<T>>> = Mutex::new((0..items).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, items.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items {
                    break;
                }
                let value = f(i);
                out.lock().expect("pool results")[i] = Some(value);
            });
        }
    });
    out.into_inner()
        .expect("pool results")
        .into_iter()
        .map(|v| v.expect("every index ran"))
        .collect()
}

/// A timed single run: its result (or error), result bytes and latency.
type Timed = (Result<(RunResult, String), String>, f64);

fn timed_single(scenario: &ScenarioConfig) -> Timed {
    let t = Instant::now();
    let result = guarded(|| single(run_scenario(scenario, RunControl::default()))).map(|r| {
        let text = result_json(&ScenarioOutcome::Single(r.clone()));
        (r, text)
    });
    (result, t.elapsed().as_secs_f64())
}

/// What the accuracy panel measured.
#[derive(Default)]
struct Panel {
    runs: usize,
    interactions: u128,
    latencies: Vec<f64>,
    batched: Option<Proportion>,
    hybrid: Option<Proportion>,
    sharded: Option<Proportion>,
    hybrid_results: Vec<Option<RunResult>>,
    sharded_results: Vec<Option<RunResult>>,
}

fn won(result: &RunResult, plurality: usize) -> bool {
    result.winner().is_some_and(|w| w.index() == plurality)
}

fn proportion(wins: u64, trials: u64) -> Option<Proportion> {
    (trials > 0).then(|| stats::wilson(wins, trials))
}

/// Checks one arm's single runs; returns the result bytes, the results and
/// the winner proportion.
fn tally_arm(
    arm: &str,
    timed: Vec<Timed>,
    inputs: &Inputs,
    panel: &mut Panel,
    report: &mut Report,
) -> (
    Vec<Option<String>>,
    Vec<Option<RunResult>>,
    Option<Proportion>,
) {
    let mut wins = 0;
    let mut trials = 0;
    let mut bytes = Vec::with_capacity(timed.len());
    let mut results = Vec::with_capacity(timed.len());
    for (i, (result, _)) in timed.into_iter().enumerate() {
        panel.runs += 1;
        let checked = result.and_then(|(r, text)| {
            panel.interactions += u128::from(r.interactions());
            check_run(&r, inputs.n)?;
            check_result_text(&text, inputs.n)?;
            trials += 1;
            wins += u64::from(won(&r, inputs.plurality));
            bytes.push(Some(text));
            results.push(Some(r));
            Ok(())
        });
        if checked.is_err() {
            bytes.resize(i + 1, None);
            results.resize(i + 1, None);
        }
        report.check(&format!("{arm} run {i}"), checked);
    }
    (bytes, results, proportion(wins, trials))
}

fn same_bytes(what: &str, a: &[Option<String>], b: &[Option<String>]) -> Result<(), String> {
    if a.iter().zip(b).all(|(x, y)| x.is_some() && x == y) && a.len() == b.len() {
        Ok(())
    } else {
        Err(format!("{what}: result bytes differ"))
    }
}

/// Runs the three arms and the parallelism cross-checks.
fn panel(ctx: &Ctx, inputs: &Inputs, report: &mut Report) -> Panel {
    let mut panel = Panel::default();
    let n = inputs.n;

    // (a) The batched reference: the lockstep ensemble on every core.
    let ensemble = guarded(
        || match run_scenario(&inputs.ensemble, RunControl::default())? {
            pp_service::RunVerdict::Finished(ScenarioOutcome::Ensemble(e)) => Ok(e),
            other => Err(format!("expected a finished ensemble, got {other:?}")),
        },
    );
    let mut ensemble_runs = Vec::new();
    match ensemble {
        Ok(outcome) => {
            panel.interactions += outcome.total_interactions();
            let text = result_json(&ScenarioOutcome::Ensemble(outcome.clone()));
            report.check("ensemble result document", check_result_text(&text, n));
            ensemble_runs = result_runs(&text);
            let mut wins = 0;
            let mut trials = 0;
            for (i, r) in outcome.results().iter().enumerate() {
                panel.runs += 1;
                let checked = check_run(r, n);
                if checked.is_ok() {
                    trials += 1;
                    wins += u64::from(won(r, inputs.plurality));
                }
                report.check(&format!("ensemble replica {i}"), checked);
            }
            panel.batched = proportion(wins, trials);
        }
        Err(e) => report.check("ensemble", Err(e)),
    }

    // (b) Hybrid single runs, one at a time on one core; run_s.* reads
    // them.  Run two at a time, their median latency moved by 15% between
    // processes on a 2-vCPU host; the sharded runs' latency hangs on
    // fork/join across both cores and moved as much.
    let timed: Vec<Timed> = inputs.hybrid.iter().map(timed_single).collect();
    panel.latencies = timed.iter().map(|(_, latency)| *latency).collect();
    let (hybrid_bytes, hybrid_results, p) = tally_arm("hybrid", timed, inputs, &mut panel, report);
    panel.hybrid = p;
    panel.hybrid_results = hybrid_results;

    // (c) Sharded single runs, each parallel across its shards.
    let timed = inputs.sharded.iter().map(timed_single).collect();
    let (sharded_bytes, sharded_results, p) =
        tally_arm("sharded", timed, inputs, &mut panel, report);
    panel.sharded = p;
    panel.sharded_results = sharded_results;

    // Parallelism never changes results: replicas of a one-thread
    // sub-ensemble equal the full ensemble's first replicas, hybrid seeds
    // re-run side by side on all threads and sharded seeds re-run on one
    // thread give the same bytes.
    let cross = CROSS_SEEDS.min(inputs.hybrid.len());
    let sub = inputs
        .ensemble
        .with_replicas(CROSS_REPLICAS.min(inputs.ensemble.replicas))
        .with_threads(1);
    let sub_runs = guarded(|| match run_scenario(&sub, RunControl::default())? {
        pp_service::RunVerdict::Finished(outcome) => Ok(result_runs(&result_json(&outcome))),
        other => Err(format!("expected a finished ensemble, got {other:?}")),
    });
    panel.runs += sub.replicas;
    report.check(
        "ensemble at 1 thread vs all threads",
        sub_runs.and_then(|runs| {
            if !runs.is_empty() && ensemble_runs.get(..runs.len()) == Some(&runs[..]) {
                Ok(())
            } else {
                Err("replica results differ".to_string())
            }
        }),
    );
    let concurrent: Vec<Option<String>> = pool(ctx.threads, cross, |i| {
        timed_single(&inputs.hybrid[i]).0.ok().map(|(_, t)| t)
    });
    panel.runs += cross;
    report.check(
        "hybrid alone vs on all threads at once",
        same_bytes("hybrid", &concurrent, &hybrid_bytes[..cross]),
    );
    let serial: Vec<Option<String>> = inputs.sharded[..cross]
        .iter()
        .map(|s| timed_single(&s.with_threads(1)).0.ok().map(|(_, t)| t))
        .collect();
    panel.runs += cross;
    report.check(
        "sharded at 1 thread vs all threads",
        same_bytes("sharded", &serial, &sharded_bytes[..cross]),
    );
    panel
}

fn proportion_json(p: Option<&Proportion>) -> Json {
    p.map_or(Json::Null, |p| {
        obj(vec![
            ("wins", Json::U64(p.successes)),
            ("runs", Json::U64(p.trials)),
            ("p", Json::F64(p.p)),
            (
                "wilson95",
                Json::Arr(vec![Json::F64(p.lo), Json::F64(p.hi)]),
            ),
        ])
    })
}

fn win_err_json(e: Option<&WinErr>) -> Json {
    e.map_or(Json::Null, |e| {
        obj(vec![
            ("win_err", Json::F64(e.err)),
            ("sampling_err", Json::F64(e.sampling_err)),
            (
                "diff95",
                Json::Arr(vec![Json::F64(e.diff_lo), Json::F64(e.diff_hi)]),
            ),
            ("above_sampling_err", Json::Bool(e.resolved())),
        ])
    })
}

/// Records p̂ per arm with Wilson intervals and the two win errors; checks
/// that the reference p̂ sits strictly inside the threshold regime.
fn accuracy(panel: &Panel, report: &mut Report) -> (Option<WinErr>, Option<WinErr>) {
    let against = |arm: Option<&Proportion>| {
        arm.zip(panel.batched.as_ref())
            .map(|(a, b)| stats::win_err(a, b))
    };
    let hybrid = against(panel.hybrid.as_ref());
    let sharded = against(panel.sharded.as_ref());
    report.note(
        "accuracy",
        obj(vec![
            ("p_batched", proportion_json(panel.batched.as_ref())),
            ("p_hybrid", proportion_json(panel.hybrid.as_ref())),
            ("p_sharded", proportion_json(panel.sharded.as_ref())),
            ("win_err.hybrid", win_err_json(hybrid.as_ref())),
            ("win_err.sharded", win_err_json(sharded.as_ref())),
        ]),
    );
    report.check(
        "batched winner probability inside the threshold regime",
        match &panel.batched {
            Some(p) if p.p >= P_RANGE.0 && p.p <= P_RANGE.1 => Ok(()),
            Some(p) => Err(format!(
                "p̂ = {:.3} left [{}, {}]: the accuracy check could not fail",
                p.p, P_RANGE.0, P_RANGE.1
            )),
            None => Err("no batched replica finished".to_string()),
        },
    );
    (hybrid, sharded)
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// Propagates set-up errors.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let (inputs, setup_s) = repeat_setup(SETUP_REPS, || setup(ctx))?;
    let start = Instant::now();
    let panel = panel(ctx, &inputs, report);
    accuracy(&panel, report);
    let wall = start.elapsed().as_secs_f64();
    report.end_to_end(
        setup_s,
        wall,
        panel.runs,
        panel.interactions,
        &panel.latencies,
    );
    Ok(())
}

/// Replicas, hybrid seeds and sharded seeds of the traced layer passes.
fn layer_sizes(ctx: &Ctx) -> (usize, usize, usize) {
    if ctx.toy {
        (4, 2, 2)
    } else {
        (16, 4, 3)
    }
}

/// Counters the layer passes collect beside the spans.
#[derive(Default)]
struct LayerTally {
    loop_engines: EngineTally,
    shard_engines: EngineTally,
    hybrid_engines: EngineTally,
    mean_field_frac: Vec<f64>,
    windows: u64,
    rounds: u64,
    shared_hits: u64,
    shared_lookups: u64,
}

/// One pass of the traced layer work; returns every result's bytes.
fn layer_pass(
    ctx: &Ctx,
    tracer: &Tracer,
    inputs: &Inputs,
    panel: &Panel,
    report: &mut Report,
    tally: &mut LayerTally,
) -> Vec<String> {
    let (replicas, hybrid_seeds, shard_seeds) = layer_sizes(ctx);
    let n = inputs.n;
    let mut bytes = Vec::new();
    let budget = inputs.ensemble.interaction_budget();
    let stop = StopCondition::consensus().or_max_interactions(budget);

    // Ensemble: lockstep windows on all threads, then the same ensemble on
    // one thread, then its replicas as standalone engines.
    let scenario = inputs.ensemble.with_replicas(replicas);
    let seed = SimSeed::from_u64(scenario.seed);
    tracer.scope("bench.run", 0, || {
        let built = tracer.scope("workloads.build", 0, || {
            scenario.to_initial_config().build_ensemble(seed)
        });
        let checked = built
            .map_err(|e| e.to_string())
            .and_then(|(config, choice)| {
                let make = |threads: usize| {
                    UsdEnsemble::try_new(config.clone(), seed.child(1), choice)
                        .map(|e| e.with_parallelism(Parallelism::fixed(threads)))
                        .map_err(|e| e.to_string())
                };
                let mut ensemble = make(ctx.threads)?;
                let outcome = loop {
                    let step = tracer.scope("ensemble.window", 0, || ensemble.run_windows(stop, 1));
                    tally.windows += 1;
                    if let Some(outcome) = step {
                        break outcome;
                    }
                };
                let mut serial = make(1)?;
                let serial_outcome =
                    tracer.scope("parallel.serial_ensemble", 0, || serial.run(stop));
                // A result's rounds and cache counters cover one
                // `run_windows` call only, so read them from the one-call run.
                tally.rounds += serial_outcome.rounds();
                tally.shared_hits += serial_outcome.shared_hits();
                tally.shared_lookups +=
                    serial_outcome.shared_hits() + serial_outcome.shared_misses();
                let text = result_json(&ScenarioOutcome::Ensemble(outcome.clone()));
                check_result_text(&text, n)?;
                if result_runs(&text)
                    != result_runs(&result_json(&ScenarioOutcome::Ensemble(serial_outcome)))
                {
                    return Err("ensemble replicas differ between 1 and all threads".to_string());
                }
                bytes.push(text);
                for (i, replica_seed) in choice.seeds(seed.child(1)).into_iter().enumerate() {
                    let mut engine = UsdEngine::new(
                        config.clone(),
                        replica_seed,
                        EngineChoice::Batched,
                        &pp_core::ShardPlan::default(),
                        &pp_core::FidelityConfig::default(),
                    );
                    drive_windows(tracer, 0, &scenario, &mut engine, |_| "engine.window");
                    tally.loop_engines.absorb(&engine);
                    check_replay(&engine, &outcome.results()[i])
                        .map_err(|e| format!("standalone replica {i}: {e}"))?;
                }
                Ok(())
            });
        report.check("traced ensemble", checked);
    });

    // Hybrid: windows split by the fidelity at window start.
    for (i, scenario) in inputs.hybrid.iter().take(hybrid_seeds).enumerate() {
        let run = 1 + i as u64;
        tracer.scope("bench.run", run, || {
            let config = tracer.scope("workloads.build", run, || build(scenario));
            let checked = config.and_then(|config| {
                let mut engine = scenario_engine(scenario, config);
                drive_windows(tracer, run, scenario, &mut engine, |e| match e {
                    UsdEngine::Hybrid(h) if h.fidelity() == Fidelity::MeanField => {
                        "hybrid.mean_field"
                    }
                    _ => "hybrid.stochastic",
                });
                tally.hybrid_engines.absorb(&engine);
                if let UsdEngine::Hybrid(h) = &engine {
                    tally.mean_field_frac.push(h.mean_field_fraction());
                }
                bytes.push(format!("{:?}", engine.configuration()));
                match panel.hybrid_results.get(i).and_then(Option::as_ref) {
                    Some(r) => check_replay(&engine, r),
                    None => Err("no panel result to compare with".to_string()),
                }
            });
            report.check(&format!("traced hybrid {i}"), checked);
        });
    }

    // Sharded: windows on all threads, then the same run on one thread.
    for (i, scenario) in inputs.sharded.iter().take(shard_seeds).enumerate() {
        let run = 100 + i as u64;
        tracer.scope("bench.run", run, || {
            let config = tracer.scope("workloads.build", run, || build(scenario));
            let checked = config.and_then(|config| {
                let mut engine = scenario_engine(scenario, config.clone());
                drive_windows(tracer, run, scenario, &mut engine, |_| "shard.window");
                tally.shard_engines.absorb(&engine);
                let one = scenario.with_threads(1);
                let mut serial = scenario_engine(&one, config);
                tracer.scope("parallel.serial_shard", run, || {
                    drive_windows(&Tracer::new(false), run, &one, &mut serial, |_| "");
                });
                bytes.push(format!("{:?}", engine.configuration()));
                if serial.configuration() != engine.configuration()
                    || serial.interactions() != engine.interactions()
                {
                    return Err("sharded run differs between 1 and all threads".to_string());
                }
                match panel.sharded_results.get(i).and_then(Option::as_ref) {
                    Some(r) => check_replay(&engine, r),
                    None => Err("no panel result to compare with".to_string()),
                }
            });
            report.check(&format!("traced sharded {i}"), checked);
        });
    }
    bytes
}

/// The traced run: the accuracy panel (for the win errors), then two passes
/// of the layer work, untraced and traced.
///
/// # Errors
///
/// Propagates set-up errors.
pub fn run_traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let inputs = setup(ctx)?;
    let panel = panel(ctx, &inputs, report);
    let (hybrid, sharded) = accuracy(&panel, report);
    for (name, err) in [("hybrid", hybrid), ("sharded", sharded)] {
        if let Some(e) = err {
            let (value, sampling) = match name {
                "hybrid" => ("win_err.hybrid", "win_err.hybrid.sampling_err"),
                _ => ("win_err.sharded", "win_err.sharded.sampling_err"),
            };
            report.metric(value, e.err);
            report.metric(sampling, e.sampling_err);
        }
    }

    let t = Instant::now();
    let plain = layer_pass(
        ctx,
        &Tracer::new(false),
        &inputs,
        &panel,
        report,
        &mut LayerTally::default(),
    );
    let wall_untraced = t.elapsed().as_nanos() as u64;
    let tracer = Tracer::new(true);
    let mut tally = LayerTally::default();
    let t = Instant::now();
    let traced = layer_pass(ctx, &tracer, &inputs, &panel, report, &mut tally);
    let wall_traced = t.elapsed().as_nanos() as u64;
    report.check(
        "traced and untraced result bytes",
        if plain == traced {
            Ok(())
        } else {
            Err("results differ between the traced and the untraced pass".to_string())
        },
    );

    let spans = tracer.spans();
    crate::consensus::layer_metrics(report, &spans, &tally.loop_engines);
    let ensemble_ns = trace::total_ns(&spans, "ensemble.window");
    let serial_ensemble = trace::total_ns(&spans, "parallel.serial_ensemble");
    report.metric("ensemble.busy_ns", ensemble_ns as f64);
    report.metric("ensemble.windows", tally.windows as f64);
    report.metric("ensemble.rounds", tally.rounds as f64);
    report.metric(
        "ensemble.shared_hit_frac",
        tally.shared_hits as f64 / tally.shared_lookups.max(1) as f64,
    );
    report.metric(
        "ensemble.loop_ratio",
        trace::total_ns(&spans, "engine.window") as f64 / serial_ensemble.max(1) as f64,
    );
    let shard_ns = trace::total_ns(&spans, "shard.window");
    let speedup_ensemble = serial_ensemble as f64 / ensemble_ns.max(1) as f64;
    let speedup_shard =
        trace::total_ns(&spans, "parallel.serial_shard") as f64 / shard_ns.max(1) as f64;
    report.metric("parallel.speedup.ensemble", speedup_ensemble);
    report.metric("parallel.speedup.shard", speedup_shard);
    report.metric(
        "parallel.efficiency",
        (speedup_ensemble + speedup_shard) / 2.0 / ctx.threads as f64,
    );
    report.metric("shard.busy_ns", shard_ns as f64);
    report.metric("shard.epochs", tally.shard_engines.epochs as f64);
    report.metric(
        "shard.ns_per_epoch",
        shard_ns as f64 / tally.shard_engines.epochs.max(1) as f64,
    );
    report.metric(
        "hybrid.stochastic_ns",
        trace::total_ns(&spans, "hybrid.stochastic") as f64,
    );
    report.metric(
        "hybrid.mean_field_ns",
        trace::total_ns(&spans, "hybrid.mean_field") as f64,
    );
    report.metric("hybrid.switches", tally.hybrid_engines.switches as f64);
    report.metric(
        "hybrid.mean_field_frac",
        stats::median(&tally.mean_field_frac).unwrap_or(0.0),
    );
    crate::finish_trace(ctx, "threshold", report, &spans, wall_untraced, wall_traced);
    Ok(())
}
