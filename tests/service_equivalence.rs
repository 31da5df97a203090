//! The service-layer determinism contract (issue acceptance): a scenario
//! submitted to a `pp_serve`-style job server produces a result
//! **bit-identical** to running it standalone — with at least four jobs in
//! flight at once and across a kill → reopen resume cycle.  The socket
//! transport is pinned by `crates/service/tests/socket_roundtrip.rs` and
//! the `usd_run --scenario` front-end by
//! `crates/experiments/tests/scenario_cli.rs`, both against the same
//! canonical result bytes.

use k_opinion_usd::service::runner::{result_json, run_scenario, RunControl, RunVerdict};
use k_opinion_usd::service::scenario::{Dynamic, ScenarioConfig};
use k_opinion_usd::service::server::{Server, ServerConfig};
use k_opinion_usd::service::{protocol, JobState};

fn standalone_json(scenario: &ScenarioConfig) -> String {
    let RunVerdict::Finished(outcome) =
        run_scenario(scenario, RunControl::default()).expect("standalone scenario run failed")
    else {
        panic!("a default RunControl cannot be interrupted");
    };
    result_json(&outcome)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("svc_equiv_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Four concurrent jobs on a two-worker pool — mixed engines and dynamics —
/// each bit-identical to its standalone run, regardless of scheduling.
#[test]
fn four_concurrent_jobs_match_standalone_bit_for_bit() {
    let scenarios = [
        ScenarioConfig::new(800, 3).with_seed(41),
        ScenarioConfig::new(700, 4)
            .with_seed(42)
            .with_engine(k_opinion_usd::core::EngineChoice::Batched),
        ScenarioConfig::new(600, 3).with_seed(43).with_replicas(3),
        ScenarioConfig::new(900, 2)
            .with_seed(44)
            .with_dynamic(Dynamic::Voter),
    ];
    let expected: Vec<String> = scenarios.iter().map(standalone_json).collect();

    let server = Server::open(ServerConfig {
        workers: Some(2),
        ..ServerConfig::default()
    })
    .expect("open in-memory server");
    let ids: Vec<_> = scenarios
        .iter()
        .map(|s| server.submit(*s, 0).expect("submit"))
        .collect();
    for (id, want) in ids.iter().zip(&expected) {
        let status = server.wait(*id).expect("wait");
        assert_eq!(status.state, JobState::Done, "job {id}: {:?}", status.error);
        assert_eq!(
            status.result.as_deref(),
            Some(want.as_str()),
            "job {id} diverged from its standalone run"
        );
    }
    // Submission order reversed, priorities shuffled: still bit-identical.
    let server2 = Server::open(ServerConfig {
        workers: Some(4),
        ..ServerConfig::default()
    })
    .expect("open second server");
    let ids2: Vec<_> = scenarios
        .iter()
        .rev()
        .enumerate()
        .map(|(i, s)| server2.submit(*s, i as i64 - 2).expect("submit"))
        .collect();
    for (id, want) in ids2.iter().zip(expected.iter().rev()) {
        let status = server2.wait(*id).expect("wait");
        assert_eq!(status.result.as_deref(), Some(want.as_str()));
    }
    server2.shutdown();
    server.shutdown();
}

/// Kill the server mid-job (checkpoint on disk, record left `running`),
/// reopen the state directory, and demand the resumed job finish on the
/// bit-identical result — the crash-recovery half of the contract.
#[test]
fn kill_and_reopen_resumes_jobs_bit_identically() {
    let scenario = ScenarioConfig::new(1_200, 3).with_seed(77);
    let expected = standalone_json(&scenario);
    let dir = temp_dir("kill");
    let cfg = || ServerConfig {
        workers: Some(1),
        state_dir: Some(dir.clone()),
        progress_every: 60,
        checkpoint_every: 60,
    };

    let server = Server::open(cfg()).expect("open server");
    let id = server.submit(scenario, 0).expect("submit");
    // Wait for the first progress event so the kill lands mid-run, then
    // pull the plug; workers halt at the next pause boundary with a final
    // checkpoint.
    let (events, _) = server.wait_events(id, 0).expect("first events");
    assert!(!events.is_empty());
    for line in &events {
        protocol::check_progress_line(line).expect("streamed line violates the schema");
    }
    server.kill();

    let reopened = Server::open(cfg()).expect("reopen state dir");
    let status = reopened.wait(id).expect("wait resumed job");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    assert_eq!(
        status.result.as_deref(),
        Some(expected.as_str()),
        "resumed job diverged from the uninterrupted run"
    );
    // The stored result file replays byte-for-byte on yet another open.
    reopened.shutdown();
    let third = Server::open(cfg()).expect("third open");
    let status = third.status(id).expect("job persisted");
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.result.as_deref(), Some(expected.as_str()));
    third.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancellation and failure surfaces stay deterministic too: a queued job
/// cancels to a terminal record, an invalid scenario never enters the
/// queue, and neither disturbs the jobs around them.
#[test]
fn cancellation_and_rejection_leave_neighbours_bit_identical() {
    let keeper = ScenarioConfig::new(640, 3).with_seed(13);
    let expected = standalone_json(&keeper);

    let server = Server::open(ServerConfig {
        workers: Some(1),
        ..ServerConfig::default()
    })
    .expect("open server");
    // A big decoy keeps the single worker busy so the victim stays queued.
    let decoy = server
        .submit(ScenarioConfig::new(30_000, 3).with_seed(1), 0)
        .expect("submit decoy");
    let victim = server
        .submit(ScenarioConfig::new(5_000, 3).with_seed(2), -1)
        .expect("submit victim");
    let kept = server.submit(keeper, 3).expect("submit keeper");

    let bad = ScenarioConfig::new(100, 3).with_samples(0);
    let err = server
        .submit(bad, 0)
        .expect_err("invalid scenario must be rejected");
    assert_eq!(err, "--samples must be positive");

    server.cancel(victim).expect("cancel queued job");
    let status = server.wait(victim).expect("wait cancelled job");
    assert_eq!(status.state, JobState::Cancelled);
    assert!(status.result.is_none());

    let status = server.wait(kept).expect("wait keeper");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    assert_eq!(status.result.as_deref(), Some(expected.as_str()));
    let status = server.wait(decoy).expect("wait decoy");
    assert_eq!(status.state, JobState::Done);
    server.shutdown();
}

/// A replica ensemble halted at its first pause boundary and resumed from
/// the sunk checkpoint finishes on the uninterrupted run's canonical result
/// bytes, seed after seed.  Scheduling statistics (lockstep rounds, cache
/// hits) depend on where the halt fell and on the adaptive cache state a
/// checkpoint deliberately omits, so the canonical result leaves them out.
#[test]
fn halted_ensembles_resume_to_identical_result_bytes() {
    use k_opinion_usd::core::Checkpoint;
    use k_opinion_usd::service::runner::Interrupt;
    use std::sync::atomic::{AtomicBool, Ordering};

    let dir = temp_dir("ensemble_halt");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for seed in 1..=8 {
        let scenario = ScenarioConfig::new(4_000, 3)
            .with_seed(seed)
            .with_replicas(4);
        let expected = standalone_json(&scenario);
        let path = dir.join(format!("seed-{seed}.ckpt.json"));
        let fired = AtomicBool::new(false);
        let halt = || (!fired.swap(true, Ordering::Relaxed)).then_some(Interrupt::Halted);
        let verdict = run_scenario(
            &scenario,
            RunControl {
                interrupt: Some(&halt),
                checkpoint: Some((&path, u64::MAX)),
                ..RunControl::default()
            },
        )
        .expect("halted leg");
        assert_eq!(
            verdict,
            RunVerdict::Interrupted(Interrupt::Halted),
            "seed {seed}"
        );
        let checkpoint = Checkpoint::load(&path).expect("load the halt checkpoint");
        let RunVerdict::Finished(outcome) = run_scenario(
            &scenario,
            RunControl {
                resume: Some(&checkpoint),
                ..RunControl::default()
            },
        )
        .expect("resumed leg") else {
            panic!("a resumed leg without interrupts must finish");
        };
        assert_eq!(result_json(&outcome), expected, "seed {seed}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
