//! `service-mix`: the job service under a closed loop.  One generator
//! thread keeps 2 × workers jobs outstanding on an in-process, in-memory
//! `Server` (workers = available parallelism − 1, one progress event per
//! parallel-time unit, priorities 0 and 1).  Jobs are seeded scenarios that
//! pass through their JSON text.  The traced run adds the checkpoint,
//! telemetry and dynamics probes.
//!
//! `service-restart` is the crash-recovery path: one job of four kinds on
//! a server with a state directory, killed once a job is mid-run and
//! reopened on the same directory, so the in-flight jobs resume from their
//! checkpoints; each resumed result must equal a standalone
//! `run_scenario` byte for byte.  It is not part of `BENCHMARK.json`: its
//! time is the disk's (every job-record rewrite and checkpoint save
//! overwrites a file, which ext4's `auto_da_alloc` flushes on close, about
//! 65 ms each on a shared virtio disk), and a resumed ensemble reports a
//! different `rounds` than an uninterrupted one, so its check fails.

use crate::trace::{self, Tracer};
use crate::{
    check_result_text, guarded, obj, population_of, repeat_setup, single, stats, Ctx, Report,
    SETUP_REPS,
};
use pp_core::{
    Checkpoint, EngineChoice, NullRecorder, SimSeed, SplitMix64, StopCondition, Telemetry,
};
use pp_service::json::Json;
use pp_service::{
    check_progress_line, result_json, run_scenario, Dynamic, JobId, JobState, RunControl,
    ScenarioConfig, ScenarioOutcome, Server, ServerConfig,
};
use pp_workloads::BiasSpec;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use usd_core::UsdSimulator;

/// Jobs per measured second (about 33 ms of worker time per job, one
/// worker on a 2-vCPU AMD EPYC host).
const JOBS_PER_SECOND: f64 = 28.0;
const N_RANGE: (f64, f64) = (1.0e4, 2.0e5);
const TOY_N_RANGE: (f64, f64) = (400.0, 1500.0);
const K_RANGE: (usize, usize) = (2, 8);
const POLL: Duration = Duration::from_micros(200);
/// Interactions between job checkpoints in the restart phase (a few saves
/// per job; one per parallel-time unit would be dozens of disk flushes).
const CHECKPOINT_EVERY: u64 = 2_000_000;
/// The templates whose first job the restart phase re-submits: a batched
/// single run, an ensemble, a sampling dynamic and a hybrid run.
const RESTART_TEMPLATES: [usize; 4] = [1, 6, 7, 4];
/// Scenarios the traced run's checkpoint and telemetry probes replay.
const PROBE_JOBS: usize = 3;
/// Sampling-dynamics scenarios the traced run re-runs standalone.
const DYNAMICS_JOBS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Bias {
    /// Multiplicative 8×: the plurality dominates, so most interactions
    /// are null.
    Deep,
    /// Additive 2·√(n ln n).
    Additive,
    /// Two tied leaders.
    Tie,
}

/// One job shape of the mix.
#[derive(Debug, Clone, Copy)]
struct Template {
    dynamic: Dynamic,
    engine: EngineChoice,
    bias: Bias,
    replicas: usize,
}

const fn usd(engine: EngineChoice, bias: Bias) -> Template {
    Template {
        dynamic: Dynamic::Usd,
        engine,
        bias,
        replicas: 1,
    }
}

/// The mix, cycled in order.  The mean-field and hybrid backends only get
/// biased inputs: the fluid limit cannot break an exact tie.  3-majority
/// gets the deep bias: from a tie or a √(n ln n) lead at n ≈ 10⁵ it takes
/// seconds per job, so those jobs would be most of the workload's time and
/// most of its run-to-run spread.
const TEMPLATES: [Template; 12] = [
    usd(EngineChoice::Exact, Bias::Deep),
    usd(EngineChoice::Batched, Bias::Additive),
    usd(EngineChoice::Batched, Bias::Tie),
    usd(EngineChoice::MeanField, Bias::Deep),
    usd(EngineChoice::Hybrid, Bias::Additive),
    usd(EngineChoice::Sharded, Bias::Tie),
    Template {
        replicas: 8,
        ..usd(EngineChoice::Batched, Bias::Deep)
    },
    Template {
        dynamic: Dynamic::ThreeMajority,
        ..usd(EngineChoice::Batched, Bias::Deep)
    },
    usd(EngineChoice::Batched, Bias::Deep),
    Template {
        dynamic: Dynamic::Median,
        ..usd(EngineChoice::Batched, Bias::Additive)
    },
    usd(EngineChoice::Hybrid, Bias::Deep),
    usd(EngineChoice::Sharded, Bias::Additive),
];

/// A generated job: the scenario, its JSON text and its priority.
#[derive(Debug, Clone)]
struct JobInput {
    scenario: ScenarioConfig,
    text: String,
    priority: i64,
}

fn bias_spec(bias: Bias, k: usize) -> BiasSpec {
    match bias {
        Bias::Deep => BiasSpec::Multiplicative(8.0),
        Bias::Additive => BiasSpec::AdditiveInSqrtNLogN(2.0),
        Bias::Tie => BiasSpec::TwoWayTie(if k == 2 { 1.0 } else { 0.6 }),
    }
}

/// A random permutation of `0..m`.
fn permutation(rng: &mut SplitMix64, m: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..m).collect();
    for i in (1..m).rev() {
        p.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    p
}

/// Generates `count` jobs.  Each template's n (log-uniform) and k
/// (uniform) are drawn stratified over that template's jobs, so every run
/// sees the same spread of sizes and only the draws within the strata move
/// with the seed.
fn generate(ctx: &Ctx, count: usize) -> Vec<JobInput> {
    let mut rng = ctx.rng(3);
    let (lo, hi) = if ctx.toy { TOY_N_RANGE } else { N_RANGE };
    let k_values = K_RANGE.1 - K_RANGE.0 + 1;
    let mut draws: Vec<Vec<(u64, usize)>> = TEMPLATES
        .iter()
        .enumerate()
        .map(|(t, _)| {
            let m = (count + TEMPLATES.len() - 1 - t) / TEMPLATES.len();
            let pn = permutation(&mut rng, m);
            let pk = permutation(&mut rng, m);
            (0..m)
                .map(|j| {
                    let u = (pn[j] as f64 + rng.next_f64()) / m as f64;
                    let n = (lo.ln() + u * (hi / lo).ln()).exp().round() as u64;
                    let v = (pk[j] as f64 + rng.next_f64()) / m as f64;
                    let k = K_RANGE.0 + ((v * k_values as f64) as usize).min(k_values - 1);
                    (n, k)
                })
                .rev()
                .collect()
        })
        .collect();
    (0..count)
        .map(|i| {
            let t = TEMPLATES[i % TEMPLATES.len()];
            let (n, k) = draws[i % TEMPLATES.len()]
                .pop()
                .expect("one draw per job of the template");
            let mut scenario = ScenarioConfig::new(n, k)
                .with_seed(rng.next_u64())
                .with_dynamic(t.dynamic)
                .with_bias(bias_spec(t.bias, k))
                .with_engine(t.engine)
                .with_replicas(t.replicas);
            if t.engine == EngineChoice::Sharded {
                // The workers are the parallelism; shards run on one thread.
                scenario = scenario.with_shards(4).with_threads(1);
            }
            if t.replicas > 1 {
                scenario = scenario.with_threads(1);
            }
            JobInput {
                text: scenario.to_json(),
                scenario,
                priority: (rng.next_u64() % 2) as i64,
            }
        })
        .collect()
}

/// Server workers: one core fewer than the machine has, so the generator
/// thread, which polls, has a core of its own.  With the generator sharing
/// the workers' cores, the wall time's quartile spread over ten seeds on a
/// 2-vCPU host reached 18%.
fn workers(ctx: &Ctx) -> usize {
    ctx.threads.saturating_sub(1).max(1)
}

/// The server configuration: in memory, or persisting to `dir`.
fn server_config(ctx: &Ctx, dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        workers: Some(workers(ctx)),
        state_dir: dir.map(Path::to_path_buf),
        progress_every: 0,
        checkpoint_every: CHECKPOINT_EVERY,
    }
}

/// A fresh state directory under the output directory.
fn state_dir(ctx: &Ctx, tag: &str) -> PathBuf {
    ctx.out_dir.join(format!(
        "service-state-{}-{}-{tag}",
        ctx.seed,
        std::process::id()
    ))
}

/// A server that shuts down gracefully when dropped.  Dropping a bare
/// `Server` kills it, and `Server::kill` sets its flag without the state
/// lock, so a worker between its kill check and its wait misses the wake-up
/// and the join hangs: the set-up, which opens and drops hundreds of idle
/// servers, met that within seconds.
struct Graceful(Option<Server>);

impl Graceful {
    fn take(mut self) -> Server {
        self.0.take().expect("the server is taken once")
    }
}

impl Drop for Graceful {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

/// Set-up: generate the jobs, check each survives its JSON text and builds
/// a configuration of n agents, and open the in-memory server.
fn setup(ctx: &Ctx, count: usize) -> Result<(Vec<JobInput>, Graceful), String> {
    let jobs = generate(ctx, count);
    for job in &jobs {
        let parsed = ScenarioConfig::from_json(&job.text)?;
        parsed.validate()?;
        if parsed != job.scenario {
            return Err("scenario changed through its JSON text".to_string());
        }
        let config = parsed
            .to_initial_config()
            .build(SimSeed::from_u64(parsed.seed))
            .map_err(|e| e.to_string())?;
        if population_of(&config) != parsed.population {
            return Err("initial configuration does not hold n agents".to_string());
        }
    }
    let server = Server::open(server_config(ctx, None))?;
    Ok((jobs, Graceful(Some(server))))
}

fn job_count(ctx: &Ctx, seconds_share: f64) -> usize {
    if ctx.toy {
        24
    } else {
        ((JOBS_PER_SECOND * ctx.seconds * seconds_share).round() as usize).max(24)
    }
}

/// What the closed loop observed.
#[derive(Debug, Default)]
struct LoopOut {
    latencies: Vec<f64>,
    queue_waits_ns: Vec<f64>,
    interactions: u128,
    events: u64,
    result_bytes: u64,
    /// Each job's result text (None when it did not finish).
    results: Vec<Option<String>>,
    resumed: usize,
}

struct Flight {
    idx: usize,
    id: JobId,
    submitted: Instant,
    running_at: Option<Instant>,
    resumed: bool,
}

/// Interactions in a result document (Σ over its runs).
fn result_interactions(text: &str) -> u128 {
    Json::parse(text).map_or(0, |doc| {
        crate::runs_of(&doc)
            .iter()
            .filter_map(|run| run.get("interactions").and_then(Json::as_u64))
            .map(u128::from)
            .sum()
    })
}

/// Drives the closed loop over `jobs`.  With `restart`, the server is
/// killed once every job is submitted and one is mid-run, then reopened on
/// that directory; the jobs in flight must resume to their standalone
/// results.
fn closed_loop(
    ctx: &Ctx,
    tracer: &Tracer,
    jobs: &[JobInput],
    server: Server,
    restart: Option<&Path>,
    report: &mut Report,
) -> Result<LoopOut, String> {
    let mut server = Some(server);
    let outstanding_max = 2 * workers(ctx);
    let mut restart = restart;
    let mut out = LoopOut {
        results: vec![None; jobs.len()],
        ..LoopOut::default()
    };
    let mut next = 0;
    let mut flights: Vec<Flight> = Vec::new();
    tracer.scope("bench.run", 0, || -> Result<(), String> {
        while next < jobs.len() || !flights.is_empty() {
            while flights.len() < outstanding_max && next < jobs.len() {
                let job = &jobs[next];
                let parsed = tracer.scope("service.parse", next as u64, || {
                    ScenarioConfig::from_json(&job.text).and_then(|s| s.validate().map(|()| s))
                });
                let srv = server.as_ref().expect("server is open");
                let submitted = Instant::now();
                let id = tracer.scope("service.submit", next as u64, || {
                    parsed.and_then(|s| srv.submit(s, job.priority))
                });
                match id {
                    Ok(id) => flights.push(Flight {
                        idx: next,
                        id,
                        submitted,
                        running_at: None,
                        resumed: false,
                    }),
                    Err(e) => report.check(&format!("job {next} submit"), Err(e)),
                }
                next += 1;
            }
            if let Some(dir) = restart.filter(|_| next == jobs.len()) {
                let srv = server.as_ref().expect("server is open");
                tracer.scope("service.wait", 0, || {
                    while !flights.iter().any(|f| {
                        srv.status(f.id)
                            .is_some_and(|s| s.events > 0 || s.state.is_terminal())
                    }) {
                        std::thread::sleep(POLL);
                    }
                });
                tracer.scope("service.restart", 0, || -> Result<(), String> {
                    server.take().expect("server is open").kill();
                    server = Some(Server::open(server_config(ctx, Some(dir)))?);
                    Ok(())
                })?;
                for f in &mut flights {
                    f.resumed = true;
                }
                restart = None;
            }
            let srv = server.as_ref().expect("server is open");
            let done: Vec<(usize, pp_service::JobStatus)> =
                tracer.scope("service.wait", 0, || loop {
                    let now = Instant::now();
                    let mut done = Vec::new();
                    for (i, f) in flights.iter_mut().enumerate() {
                        let Some(status) = srv.status(f.id) else {
                            continue;
                        };
                        if status.state != JobState::Queued && f.running_at.is_none() {
                            f.running_at = Some(now);
                        }
                        if status.state.is_terminal() {
                            done.push((i, status));
                        }
                    }
                    if !done.is_empty() {
                        break done;
                    }
                    std::thread::sleep(POLL);
                });
            let finished_at = Instant::now();
            for (i, status) in done.into_iter().rev() {
                let f = flights.swap_remove(i);
                let job = &jobs[f.idx];
                out.latencies
                    .push(finished_at.duration_since(f.submitted).as_secs_f64());
                if let Some(r) = f.running_at {
                    out.queue_waits_ns
                        .push(r.duration_since(f.submitted).as_nanos() as f64);
                }
                let events = tracer.scope("service.result", f.idx as u64, || srv.events(f.id, 0));
                let checked = check_job(job, &status, events, !f.resumed, &mut out);
                if checked.is_ok() {
                    out.results[f.idx] = status.result.clone();
                }
                if f.resumed {
                    out.resumed += 1;
                    let text = status.result.unwrap_or_default();
                    report.check(
                        &format!("job {} resumed vs standalone", f.idx),
                        tracer.scope("runner.standalone", f.idx as u64, || {
                            standalone_matches(&job.scenario, &text)
                        }),
                    );
                }
                report.check(&format!("job {}", f.idx), checked);
            }
        }
        Ok(())
    })?;
    if let Some(server) = server {
        server.shutdown();
    }
    Ok(out)
}

/// The restart phase: the [`RESTART_TEMPLATES`] jobs on a server with a
/// fresh state directory, killed and reopened mid-run.
fn restart_phase(
    ctx: &Ctx,
    tracer: &Tracer,
    jobs: &[JobInput],
    tag: &str,
    report: &mut Report,
) -> Result<LoopOut, String> {
    let picked: Vec<JobInput> = RESTART_TEMPLATES
        .iter()
        .filter_map(|&t| jobs.get(t).cloned())
        .collect();
    let dir = state_dir(ctx, tag);
    let _ = std::fs::remove_dir_all(&dir);
    let out = Server::open(server_config(ctx, Some(&dir)))
        .and_then(|server| closed_loop(ctx, tracer, &picked, server, Some(&dir), report));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The job finished Done, its result and every event line pass the
/// protocol checks, and each run conserved n and reached consensus.  Events
/// live in memory, so a job that finished before a restart streams none;
/// `done_event` says whether the stream must end with a done event.
fn check_job(
    job: &JobInput,
    status: &pp_service::JobStatus,
    events: Result<(Vec<String>, bool), String>,
    done_event: bool,
    out: &mut LoopOut,
) -> Result<(), String> {
    if status.state != JobState::Done {
        return Err(format!(
            "job ended {} ({})",
            status.state.name(),
            status.error.clone().unwrap_or_default()
        ));
    }
    let text = status.result.as_deref().ok_or("done job has no result")?;
    check_result_text(text, job.scenario.population)?;
    out.interactions += result_interactions(text);
    out.result_bytes += text.len() as u64;
    let (lines, terminal) = events?;
    if !terminal || (done_event && lines.is_empty()) {
        return Err("event stream did not end with a done event".to_string());
    }
    for line in &lines {
        check_progress_line(line)?;
    }
    out.events += lines.len() as u64;
    Ok(())
}

/// A standalone `run_scenario` of the same scenario gives the same bytes.
fn standalone_matches(scenario: &ScenarioConfig, text: &str) -> Result<(), String> {
    let verdict = guarded(|| run_scenario(scenario, RunControl::default()))?;
    match verdict {
        pp_service::RunVerdict::Finished(outcome) if result_json(&outcome) == text => Ok(()),
        pp_service::RunVerdict::Finished(outcome) => Err(format!(
            "result differs from a standalone run_scenario of {}: server {text}, standalone {}",
            scenario.to_json(),
            result_json(&outcome)
        )),
        other => Err(format!("standalone run did not finish: {other:?}")),
    }
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// Propagates set-up and server errors.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let count = job_count(ctx, 1.0);
    let ((jobs, server), setup_s) = repeat_setup(SETUP_REPS, || setup(ctx, count))?;
    let start = Instant::now();
    let out = closed_loop(ctx, &Tracer::new(false), &jobs, server.take(), None, report)?;
    let wall = start.elapsed().as_secs_f64();
    report.end_to_end(setup_s, wall, jobs.len(), out.interactions, &out.latencies);
    Ok(())
}

/// The crash-recovery run (`service-restart`): end-to-end metrics of the
/// restart phase alone.
///
/// # Errors
///
/// Propagates set-up and server errors.
pub fn run_restart(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let (jobs, setup_s) = repeat_setup(SETUP_REPS, || {
        setup(ctx, TEMPLATES.len()).map(|(jobs, _)| jobs)
    })?;
    let start = Instant::now();
    let out = restart_phase(ctx, &Tracer::new(false), &jobs, "restart", report)?;
    let wall = start.elapsed().as_secs_f64();
    report.end_to_end(
        setup_s,
        wall,
        out.latencies.len(),
        out.interactions,
        &out.latencies,
    );
    report.note("resumed_jobs", Json::U64(out.resumed as u64));
    Ok(())
}

/// Checkpoint and telemetry probes: replays a few single USD jobs through
/// `UsdSimulator`, once capturing, encoding, saving, loading, decoding and
/// restoring a checkpoint at every pause of [`simulate`] (and continuing
/// from the restored simulator), and once each with telemetry on and off.
fn probes(
    tracer: &Tracer,
    jobs: &[JobInput],
    results: &[Option<String>],
    dir: &Path,
    report: &mut Report,
    tally: &mut ProbeTally,
) {
    let picks: Vec<usize> = (0..jobs.len())
        .filter(|&i| {
            let s = &jobs[i].scenario;
            s.dynamic == Dynamic::Usd
                && s.replicas == 1
                && matches!(s.engine, Some(EngineChoice::Batched | EngineChoice::Exact))
        })
        .take(PROBE_JOBS)
        .collect();
    let _ = std::fs::create_dir_all(dir);
    for &i in &picks {
        let run = 1000 + i as u64;
        let scenario = &jobs[i].scenario;
        let expected = results[i].clone().unwrap_or_default();
        tracer.scope("bench.run", run, || {
            let checked = checkpoint_probe(tracer, run, scenario, &dir.join("probe.json"), tally)
                .and_then(|text| {
                    if text == expected {
                        Ok(())
                    } else {
                        Err("resumed-every-n result differs from the server's".to_string())
                    }
                });
            report.check(&format!("checkpoint probe {i}"), checked);
            let mut texts = Vec::new();
            for (name, tel) in [
                ("telemetry.on", Telemetry::enabled()),
                ("telemetry.off", Telemetry::disabled()),
            ] {
                let text = tracer.scope(name, run, || {
                    simulate(scenario, tel, (&Tracer::new(false), run), |_| Ok(()))
                });
                texts.push(text);
            }
            report.check(
                &format!("telemetry probe {i}"),
                match (&texts[0], &texts[1]) {
                    (Ok(a), Ok(b)) if a == b && *a == expected => Ok(()),
                    (Err(e), _) | (_, Err(e)) => Err(e.clone()),
                    _ => Err("telemetry changed the result".to_string()),
                },
            );
        });
    }
}

/// What the checkpoint probe counted (its timings are spans).
#[derive(Debug, Default)]
struct ProbeTally {
    ops: u64,
    bytes: u64,
}

/// Runs a single USD scenario as `run_scenario` does, pausing every
/// min(2·10⁶, 10 n) interactions (the restart cadence) for `at_pause`, which
/// may replace the simulator.  Returns the result bytes.
fn simulate(
    scenario: &ScenarioConfig,
    tel: Telemetry,
    segments: (&Tracer, u64),
    mut at_pause: impl FnMut(&mut UsdSimulator) -> Result<(), String>,
) -> Result<String, String> {
    let spec = scenario.to_initial_config();
    let seed = SimSeed::from_u64(scenario.seed);
    let config = spec.build(seed).map_err(|e| e.to_string())?;
    let mut sim = UsdSimulator::with_engine_fidelity(
        config,
        seed.child(1),
        spec.engine_choice(),
        spec.shard_plan(),
        spec.fidelity_config(),
    );
    sim.set_telemetry(tel);
    let stop = StopCondition::consensus().or_max_interactions(scenario.interaction_budget());
    let every = CHECKPOINT_EVERY.min(10 * scenario.population.max(1));
    let mut next = every;
    loop {
        let (tracer, run) = segments;
        let result = tracer.scope("engine.segment", run, || {
            sim.run_interruptible(stop, &mut NullRecorder, &mut |i| i >= next)
        });
        if let Some(result) = result {
            return Ok(result_json(&ScenarioOutcome::Single(result)));
        }
        at_pause(&mut sim)?;
        next = sim.interactions().saturating_add(every);
    }
}

fn checkpoint_probe(
    tracer: &Tracer,
    run: u64,
    scenario: &ScenarioConfig,
    path: &Path,
    tally: &mut ProbeTally,
) -> Result<String, String> {
    let plan = scenario.to_initial_config().shard_plan();
    simulate(scenario, Telemetry::disabled(), (tracer, run), |sim| {
        let ck = tracer
            .scope("checkpoint.capture", run, || sim.capture())
            .map_err(|e| e.to_string())?;
        let text = tracer.scope("checkpoint.encode", run, || ck.to_json());
        let bytes = tracer
            .scope("checkpoint.save", run, || ck.save(path))
            .map_err(|e| e.to_string())?;
        let loaded = tracer
            .scope("checkpoint.load", run, || Checkpoint::load(path))
            .map_err(|e| e.to_string())?;
        let decoded = tracer
            .scope("checkpoint.decode", run, || Checkpoint::from_json(&text))
            .map_err(|e| e.to_string())?;
        if decoded.to_json() != loaded.to_json() {
            return Err("loaded and decoded checkpoints differ".to_string());
        }
        tally.ops += 1;
        tally.bytes += bytes;
        *sim = tracer
            .scope("checkpoint.restore", run, || {
                UsdSimulator::restore(&loaded, plan)
            })
            .map_err(|e| e.to_string())?;
        Ok(())
    })
}

/// Re-runs the sampling-dynamics jobs standalone; each must match the
/// server's bytes.
fn dynamics_probe(
    tracer: &Tracer,
    jobs: &[JobInput],
    results: &[Option<String>],
    report: &mut Report,
) {
    let picks = (0..jobs.len())
        .filter(|&i| jobs[i].scenario.dynamic != Dynamic::Usd)
        .take(DYNAMICS_JOBS);
    for i in picks {
        let run = 2000 + i as u64;
        tracer.scope("bench.run", run, || {
            let text = tracer.scope("dynamics.run", run, || {
                guarded(|| single(run_scenario(&jobs[i].scenario, RunControl::default())))
            });
            report.check(
                &format!("dynamics job {i} standalone"),
                text.and_then(|r| {
                    let text = result_json(&ScenarioOutcome::Single(r));
                    if Some(&text) == results[i].as_ref() {
                        Ok(())
                    } else {
                        Err("result differs from the server's".to_string())
                    }
                }),
            );
        });
    }
}

/// One traced-run pass: the closed loop, then the probes.
fn pass(
    ctx: &Ctx,
    tracer: &Tracer,
    jobs: &[JobInput],
    tag: &str,
    report: &mut Report,
    tally: &mut ProbeTally,
) -> Result<(LoopOut, u64), String> {
    let server = Server::open(server_config(ctx, None))?;
    let t = Instant::now();
    let out = closed_loop(ctx, tracer, jobs, server, None, report)?;
    let dir = state_dir(ctx, &format!("{tag}-probe"));
    probes(tracer, jobs, &out.results, &dir, report, tally);
    dynamics_probe(tracer, jobs, &out.results, report);
    let wall = t.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    Ok((out, wall))
}

/// The traced run: two passes (untraced, traced) of a shorter closed loop
/// plus the checkpoint, telemetry and dynamics probes.
///
/// # Errors
///
/// Propagates server errors.
pub fn run_traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let jobs = generate(ctx, job_count(ctx, 0.4));
    let (plain, wall_untraced) = pass(
        ctx,
        &Tracer::new(false),
        &jobs,
        "untraced",
        report,
        &mut ProbeTally::default(),
    )?;
    let tracer = Tracer::new(true);
    let mut tally = ProbeTally::default();
    let (out, wall_traced) = pass(ctx, &tracer, &jobs, "traced", report, &mut tally)?;
    report.check(
        "traced and untraced result bytes",
        if plain.results == out.results {
            Ok(())
        } else {
            Err("job results differ between the traced and the untraced pass".to_string())
        },
    );

    let spans = tracer.spans();
    let per_job = |name: &str| {
        trace::total_ns(&spans, name) as f64 / trace::count(&spans, name).max(1) as f64
    };
    let finished = out.latencies.len().max(1) as f64;
    report.metric("service.parse_ns", per_job("service.parse"));
    report.metric("service.submit_ns", per_job("service.submit"));
    report.metric("service.result_ns", per_job("service.result"));
    report.metric("service.result_bytes", out.result_bytes as f64 / finished);
    report.metric("service.events_per_job", out.events as f64 / finished);
    report.metric(
        "service.queue_wait_ns.p50",
        stats::median(&out.queue_waits_ns).unwrap_or(0.0),
    );
    let tail = stats::tail(&out.queue_waits_ns);
    report.metric(
        "service.queue_wait_ns.tail",
        tail.map_or_else(
            || out.queue_waits_ns.iter().copied().fold(0.0, f64::max),
            |t| t.value,
        ),
    );
    report.note(
        "service.queue_wait_ns.tail",
        obj(vec![
            (
                "percentile",
                tail.map_or(Json::Null, |t| Json::F64(t.percentile)),
            ),
            ("samples", Json::U64(out.queue_waits_ns.len() as u64)),
        ]),
    );
    for (metric, span) in [
        ("checkpoint.capture_ns", "checkpoint.capture"),
        ("checkpoint.encode_ns", "checkpoint.encode"),
        ("checkpoint.save_ns", "checkpoint.save"),
        ("checkpoint.load_ns", "checkpoint.load"),
        ("checkpoint.decode_ns", "checkpoint.decode"),
        ("checkpoint.restore_ns", "checkpoint.restore"),
    ] {
        report.metric(metric, per_job(span));
    }
    report.metric("checkpoint.ops", tally.ops as f64);
    report.metric(
        "checkpoint.bytes",
        tally.bytes as f64 / tally.ops.max(1) as f64,
    );
    report.metric(
        "telemetry.overhead_frac",
        trace::total_ns(&spans, "telemetry.on") as f64
            / trace::total_ns(&spans, "telemetry.off").max(1) as f64
            - 1.0,
    );
    report.metric(
        "dynamics.busy_ns",
        trace::total_ns(&spans, "dynamics.run") as f64,
    );
    report.metric("dynamics.runs", trace::count(&spans, "dynamics.run") as f64);
    crate::finish_trace(
        ctx,
        "service-mix",
        report,
        &spans,
        wall_untraced,
        wall_traced,
    );
    Ok(())
}
