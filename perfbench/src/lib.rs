//! The repo benchmark for the k-opinion USD reproduction.
//!
//! Three workloads (`consensus-k8`, `threshold`, `service-mix`) drive the
//! public API of the workspace crates with inputs generated from a workload
//! seed, check every output, and report end-to-end metrics (untraced) or
//! per-layer metrics (traced: spans around each call into a layer, recorded
//! by this crate only).  See `README.md` beside this crate.

pub mod consensus;
pub mod service_mix;
pub mod stamp;
pub mod stats;
pub mod threshold;
pub mod trace;

use pp_core::{
    Advance, Configuration, RunOutcome, RunResult, SimSeed, SplitMix64, StepEngine, StopCondition,
};
use pp_service::json::Json;
use pp_service::{ScenarioConfig, ScenarioOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use usd_core::UsdEngine;

/// The workloads, in documentation order.  `service-restart` runs
/// untraced only and is not part of `BENCHMARK.json` (see
/// [`service_mix`]).
pub const WORKLOADS: [&str; 4] = [
    "consensus-k8",
    "threshold",
    "service-mix",
    "service-restart",
];

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("runs_per_s", "1/s"),
    ("interactions_per_s", "1/s"),
    ("run_s.p50", "s"),
    ("run_s.tail", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run prints, with their units.  A
/// layer a workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("workloads.build_ns", "ns"),
    ("workloads.builds", "count"),
    ("engine.busy_ns", "ns"),
    ("engine.events", "count"),
    ("engine.interactions", "count"),
    ("engine.event_frac", "ratio"),
    ("engine.ns_per_event", "ns"),
    ("engine.rows_patched", "count"),
    ("engine.rows_rebuilt", "count"),
    ("engine.nulls_skipped", "count"),
    ("runner.self_ns", "ns"),
    ("runner.calls", "count"),
    ("hybrid.stochastic_ns", "ns"),
    ("hybrid.mean_field_ns", "ns"),
    ("hybrid.switches", "count"),
    ("hybrid.mean_field_frac", "ratio"),
    ("shard.busy_ns", "ns"),
    ("shard.epochs", "count"),
    ("shard.ns_per_epoch", "ns"),
    ("ensemble.busy_ns", "ns"),
    ("ensemble.windows", "count"),
    ("ensemble.rounds", "count"),
    ("ensemble.shared_hit_frac", "ratio"),
    ("ensemble.loop_ratio", "ratio"),
    ("parallel.speedup.ensemble", "ratio"),
    ("parallel.speedup.shard", "ratio"),
    ("parallel.efficiency", "ratio"),
    ("checkpoint.capture_ns", "ns"),
    ("checkpoint.encode_ns", "ns"),
    ("checkpoint.save_ns", "ns"),
    ("checkpoint.load_ns", "ns"),
    ("checkpoint.decode_ns", "ns"),
    ("checkpoint.restore_ns", "ns"),
    ("checkpoint.ops", "count"),
    ("checkpoint.bytes", "bytes"),
    ("service.parse_ns", "ns"),
    ("service.submit_ns", "ns"),
    ("service.queue_wait_ns.p50", "ns"),
    ("service.queue_wait_ns.tail", "ns"),
    ("service.result_ns", "ns"),
    ("service.result_bytes", "bytes"),
    ("service.events_per_job", "count"),
    ("telemetry.overhead_frac", "ratio"),
    ("dynamics.busy_ns", "ns"),
    ("dynamics.runs", "count"),
    ("win_err.hybrid", "probability"),
    ("win_err.sharded", "probability"),
    ("win_err.hybrid.sampling_err", "probability"),
    ("win_err.sharded.sampling_err", "probability"),
    ("trace.overhead_frac", "ratio"),
    ("trace.closure_frac", "ratio"),
];

/// The fewest timed set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// How long set-up repeats untimed, and then at least how long timed.
pub const SETUP_SPAN: std::time::Duration = std::time::Duration::from_millis(200);

/// What a benchmark invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed every input is generated from.
    pub seed: u64,
    /// The measuring time the workload sizes its work for.
    pub seconds: f64,
    /// Toy sizes (tests): tiny populations and few runs.
    pub toy: bool,
    /// Worker threads the parallel arms use (`available_parallelism`).
    pub threads: usize,
    /// Where records, traces and state directories go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// `per_second · seconds` work items, at least `min`.
    #[must_use]
    pub fn scaled(&self, per_second: f64, min: usize) -> usize {
        ((per_second * self.seconds).round() as usize).max(min)
    }

    /// An input stream derived from the workload seed and a per-use salt.
    #[must_use]
    pub fn rng(&self, salt: u64) -> SplitMix64 {
        SplitMix64::new(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Checks, metrics and record fields collected by one invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Runs and cross-checks attempted.
    pub attempted: u64,
    /// Runs and cross-checks that failed.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra fields for the output record.
    pub record: Vec<(String, Json)>,
}

impl Report {
    /// Counts one attempted run or cross-check.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    /// Sets a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Adds a record field.
    pub fn note(&mut self, key: &str, value: Json) {
        self.record.push((key.to_string(), value));
    }

    /// The metric's value, if set.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Records the end-to-end metrics shared by every workload.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        wall_s: f64,
        runs: usize,
        interactions: u128,
        latencies: &[f64],
    ) {
        self.metric("setup_s", setup_s);
        self.metric("wall_s", wall_s);
        self.metric("runs_per_s", runs as f64 / wall_s);
        self.metric("interactions_per_s", interactions as f64 / wall_s);
        self.metric("run_s.p50", stats::median(latencies).unwrap_or(0.0));
        let (tail, percentile, beyond) = match stats::tail(latencies) {
            Some(t) => (t.value, Json::F64(t.percentile), t.beyond),
            // Too few samples for a tail: report the maximum and say so.
            None => (
                latencies.iter().copied().fold(0.0, f64::max),
                Json::Str("max (fewer than 20 samples)".to_string()),
                0,
            ),
        };
        self.metric("run_s.tail", tail);
        self.note(
            "run_s.tail",
            obj(vec![
                ("percentile", percentile),
                ("samples", Json::U64(latencies.len() as u64)),
                ("beyond", Json::U64(beyond as u64)),
            ]),
        );
        self.note("runs", Json::U64(runs as u64));
    }
}

/// A JSON object from `(key, value)` pairs.
#[must_use]
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(format!(
            "panic: {}",
            payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string payload)")
        )),
    }
}

/// Runs the set-up untimed for [`SETUP_SPAN`], then timed at least `reps`
/// times and for at least [`SETUP_SPAN`]; returns the last product and the
/// median timed set-up in seconds.  A set-up takes well under a
/// millisecond, so a median over a few back-to-back repetitions is
/// bimodal across processes (about 0.14 ms or 0.25 ms for `consensus-k8`):
/// the first milliseconds of a process run at a lower clock, and a burst
/// of load on the host covers them all.
///
/// # Errors
///
/// Propagates the first set-up error.
pub fn repeat_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let warmup = Instant::now();
    while warmup.elapsed() < SETUP_SPAN {
        f()?;
    }
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let timed = Instant::now();
    while times.len() < reps.max(1) || timed.elapsed() < SETUP_SPAN {
        let t = Instant::now();
        let value = f()?;
        times.push(t.elapsed().as_secs_f64());
        // The previous product is dropped outside the timed region.
        last = Some(value);
    }
    Ok((
        last.expect("at least one set-up ran"),
        stats::median(&times).unwrap_or(0.0),
    ))
}

/// The single-run result of a finished scenario.
///
/// # Errors
///
/// Names an interrupted run or an unexpected ensemble outcome.
pub fn single(verdict: Result<pp_service::RunVerdict, String>) -> Result<RunResult, String> {
    match verdict? {
        pp_service::RunVerdict::Finished(ScenarioOutcome::Single(r)) => Ok(r),
        other => Err(format!("expected a finished single run, got {other:?}")),
    }
}

/// Σ supports + undecided.
#[must_use]
pub fn population_of(config: &Configuration) -> u64 {
    config.supports().iter().sum::<u64>() + config.undecided()
}

/// A finished run reached consensus and conserved the population.
///
/// # Errors
///
/// Names the violated check.
pub fn check_run(result: &RunResult, n: u64) -> Result<(), String> {
    if result.outcome() != RunOutcome::Consensus {
        return Err(format!(
            "outcome {:?} after {} interactions",
            result.outcome(),
            result.interactions()
        ));
    }
    let total = population_of(result.final_configuration());
    if total != n {
        return Err(format!("supports + undecided = {total}, expected {n}"));
    }
    Ok(())
}

/// The run documents of a canonical result (one for a single run, one per
/// replica for an ensemble).
#[must_use]
pub fn runs_of(doc: &Json) -> Vec<&Json> {
    match doc.get("mode").and_then(Json::as_str) {
        Some("single") => doc.get("run").into_iter().collect(),
        _ => doc
            .get("results")
            .and_then(Json::as_array)
            .map(|a| a.iter().collect())
            .unwrap_or_default(),
    }
}

/// A canonical result document passes the protocol schema check, and every
/// run in it reached consensus with its population conserved.
///
/// # Errors
///
/// Names the first violated check.
pub fn check_result_text(text: &str, n: u64) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("result is not JSON: {e}"))?;
    pp_service::check_result_doc(&doc)?;
    let runs = runs_of(&doc);
    if runs.is_empty() {
        return Err("result holds no runs".to_string());
    }
    for run in runs {
        let outcome = run.get("outcome").and_then(Json::as_str);
        if outcome != Some("consensus") {
            return Err(format!("run outcome {outcome:?}, expected \"consensus\""));
        }
        let fin = run.get("final").ok_or("run has no final configuration")?;
        let supports: u64 = fin
            .get("supports")
            .and_then(Json::as_array)
            .ok_or("final has no supports")?
            .iter()
            .filter_map(Json::as_u64)
            .sum();
        let undecided = fin.get("undecided").and_then(Json::as_u64).unwrap_or(0);
        if supports + undecided != n {
            return Err(format!(
                "supports + undecided = {}, expected {n}",
                supports + undecided
            ));
        }
    }
    Ok(())
}

/// The run documents of a canonical result text, each re-serialized.
#[must_use]
pub fn result_runs(text: &str) -> Vec<String> {
    Json::parse(text)
        .map(|doc| runs_of(&doc).into_iter().map(Json::to_json).collect())
        .unwrap_or_default()
}

/// Builds the engine `run_scenario` would build for a single USD scenario.
#[must_use]
pub fn scenario_engine(scenario: &ScenarioConfig, config: Configuration) -> UsdEngine {
    let spec = scenario.to_initial_config();
    let mut plan = spec.shard_plan();
    if let Some(epoch) = scenario.epoch {
        plan = plan.epoch_interactions(epoch);
    }
    UsdEngine::new(
        config,
        SimSeed::from_u64(scenario.seed).child(1),
        spec.engine_choice(),
        &plan,
        &spec.fidelity_config(),
    )
}

/// Drives `engine` to the scenario's stop condition through
/// `StepEngine::advance`, one span per window of `n` interactions.  The
/// window boundaries only decide where spans start and end: every
/// `advance` call gets the same limit `run_scenario` gives it, so the
/// trajectory is the one `run_scenario` produces for the same scenario.
/// Returns the number of windows.
pub fn drive_windows(
    tracer: &Tracer,
    run: u64,
    scenario: &ScenarioConfig,
    engine: &mut UsdEngine,
    span_of: impl Fn(&UsdEngine) -> &'static str,
) -> u64 {
    let budget = scenario.interaction_budget();
    let stop = StopCondition::consensus().or_max_interactions(budget);
    let n = scenario.population.max(1);
    let mut windows = 0;
    while !stop.goal_met(engine.configuration()) && engine.interactions() < budget {
        let end = engine.interactions().saturating_add(n);
        tracer.scope(span_of(engine), run, || loop {
            if stop.goal_met(engine.configuration())
                || engine.interactions() >= end.min(budget)
                || engine.advance(budget) == Advance::Absorbed
            {
                break;
            }
        });
        windows += 1;
    }
    windows
}

/// The windowed replay reached the state `run_scenario` reported.
///
/// # Errors
///
/// Names the first difference.
pub fn check_replay(engine: &UsdEngine, result: &RunResult) -> Result<(), String> {
    if engine.interactions() != result.interactions() {
        return Err(format!(
            "replay ended after {} interactions, run_scenario after {}",
            engine.interactions(),
            result.interactions()
        ));
    }
    if engine.configuration() != result.final_configuration() {
        return Err("replay and run_scenario end in different configurations".to_string());
    }
    Ok(())
}

/// Engine counters summed over runs (from `StepEngine::telemetry`).
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTally {
    /// Interactions.
    pub interactions: u64,
    /// Events drawn.
    pub events: u64,
    /// Null interactions skipped.
    pub nulls_skipped: u64,
    /// Row-table rows patched in O(delta).
    pub rows_patched: u64,
    /// Row-table rows rebuilt from scratch.
    pub rows_rebuilt: u64,
    /// Hybrid fidelity switches.
    pub switches: u64,
    /// Shard reconciliation epochs.
    pub epochs: u64,
}

impl EngineTally {
    /// Adds one finished engine's counters.
    pub fn absorb(&mut self, engine: &UsdEngine) {
        self.interactions += engine.interactions();
        if let Some(snap) = engine.telemetry() {
            let c = |name: &str| snap.counter(name).unwrap_or(0);
            self.events += c("batched.events_drawn");
            self.nulls_skipped += c("batched.nulls_skipped");
            self.rows_patched += c("maintenance.rows_patched");
            self.rows_rebuilt += c("maintenance.rows_rebuilt");
            self.switches += c("hybrid.switches");
            self.epochs += c("shard.epochs");
        }
    }
}

/// Peak resident set size (VmHWM) in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload, end-to-end (`trace == false`) or traced.
///
/// # Errors
///
/// Names an unknown workload or a traced run the workload does not have.
pub fn run_workload(name: &str, ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let run: fn(&Ctx, &mut Report) -> Result<(), String> = match (name, trace) {
        ("consensus-k8", false) => consensus::run,
        ("consensus-k8", true) => consensus::run_traced,
        ("threshold", false) => threshold::run,
        ("threshold", true) => threshold::run_traced,
        ("service-mix", false) => service_mix::run,
        ("service-mix", true) => service_mix::run_traced,
        ("service-restart", false) => service_mix::run_restart,
        ("service-restart", true) => return Err("service-restart has no traced run".to_string()),
        _ => {
            return Err(format!(
                "unknown workload {name:?} (expected one of {WORKLOADS:?})"
            ))
        }
    };
    let mut report = Report::default();
    if let Err(e) = guarded(|| run(ctx, &mut report)) {
        report.check("workload", Err(e));
    }
    if !trace {
        report.metric("peak_rss_mb", peak_rss_mb());
    }
    Ok(report)
}

/// Shared tail of the traced runs: the overhead of tracing (traced ÷
/// untraced wall − 1), the closure fraction, and the chrome trace file.
pub fn finish_trace(
    ctx: &Ctx,
    workload: &str,
    report: &mut Report,
    spans: &[trace::SpanRec],
    wall_untraced_ns: u64,
    wall_traced_ns: u64,
) {
    report.metric(
        "trace.overhead_frac",
        wall_traced_ns as f64 / wall_untraced_ns.max(1) as f64 - 1.0,
    );
    let closure = trace::closure_frac(spans, wall_traced_ns);
    report.metric("trace.closure_frac", closure);
    let layers = trace::layer_self_ns(spans)
        .into_iter()
        .map(|(layer, ns)| (layer.to_string(), Json::U64(ns)))
        .collect();
    report.note("layer_self_ns", Json::Obj(layers));
    report.note(
        "closure_in_range",
        Json::Bool((0.9..=1.1).contains(&closure)),
    );
    let path = ctx
        .out_dir
        .join(format!("{workload}-seed{}.trace.json", ctx.seed));
    if std::fs::create_dir_all(&ctx.out_dir).is_ok()
        && std::fs::write(&path, trace::chrome_json(spans)).is_ok()
    {
        report.note("chrome_trace", Json::Str(path.display().to_string()));
    }
}
