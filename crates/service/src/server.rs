//! The job queue, scheduler and worker pool.
//!
//! A [`Server`] owns a priority FIFO of jobs and a bounded pool of worker
//! threads (sized through [`pp_core::Parallelism`]).  Workers multiplex
//! concurrent jobs — each job's simulation state is self-contained (own
//! engines, own RNG streams derived from its scenario seed), so scheduling
//! order, pool size and neighbouring jobs can never move a trajectory:
//! submitting the same scenario twice, alone or among twenty rivals,
//! yields bit-identical results (pinned by `tests/service_equivalence.rs`).
//!
//! ## Lifecycle and crash recovery
//!
//! Jobs move `Queued → Running → {Done, Failed, Cancelled}`.  With a state
//! directory configured, every transition persists (see [`crate::job`]),
//! running USD jobs checkpoint periodically, and [`Server::kill`] halts
//! workers at the next pause boundary with a final checkpoint — so a
//! killed (or crashed) server reopened on the same directory re-queues
//! in-flight jobs and resumes them from their captures, finishing on the
//! bit-identical trajectory.  Jobs without a pause seam (the sampling
//! dynamics) restart from scratch instead; determinism makes the re-run's
//! result equal, it just repays the wall time.
//!
//! ## Streaming progress
//!
//! Workers append JSON progress events (sequence-numbered, see
//! [`crate::protocol`]) to each job; [`Server::events`] reads them by
//! sequence range and [`Server::wait_events`] blocks for more — the
//! primitive the front-ends' `watch` op streams from.

use crate::job::{JobId, JobRecord, JobState};
use crate::protocol;
use crate::runner::{self, Interrupt, RunControl, RunVerdict};
use crate::scenario::ScenarioConfig;
use pp_core::checkpoint::write_atomic;
use pp_core::{Checkpoint, Parallelism, Telemetry};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Server construction knobs.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Worker pool size; `None` resolves like the parallel engines
    /// (machine parallelism).
    pub workers: Option<usize>,
    /// Persistence root; `None` keeps everything in memory (no crash
    /// recovery, no checkpoints).
    pub state_dir: Option<PathBuf>,
    /// Interactions between progress events (`0` = one parallel-time
    /// unit, i.e. the job's `n`).
    pub progress_every: u64,
    /// Interactions between periodic job checkpoints (`0` = the job's
    /// `n`) — meaningful only with a state directory.
    pub checkpoint_every: u64,
}

/// A point-in-time public view of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job's identifier.
    pub id: JobId,
    /// Scheduling priority.
    pub priority: i64,
    /// Lifecycle state.
    pub state: JobState,
    /// Progress events emitted so far.
    pub events: u64,
    /// The failure message, for failed jobs.
    pub error: Option<String>,
    /// The canonical result document, for done jobs.
    pub result: Option<String>,
}

struct Job {
    record: JobRecord,
    result: Option<String>,
    events: Vec<String>,
    cancel: Arc<AtomicBool>,
    resume: bool,
}

struct ServerState {
    next_id: u64,
    jobs: BTreeMap<u64, Job>,
    /// Pending job ids; [`pop_next`] picks highest priority, then lowest
    /// id (submission order).
    queue: Vec<u64>,
    shutdown: bool,
}

struct ServerInner {
    cfg: ServerConfig,
    state: Mutex<ServerState>,
    /// Wakes workers (new job, shutdown, kill).
    work_cv: Condvar,
    /// Wakes watchers (new event, state change).
    watch_cv: Condvar,
    /// Cooperative crash switch: workers halt at the next pause boundary,
    /// leaving running jobs resumable on disk.
    kill: AtomicBool,
}

/// The job server.  Dropping it without [`Server::shutdown`] or
/// [`Server::kill`] kills it (workers are halted, not detached).
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.len())
            .field("cfg", &self.inner.cfg)
            .finish()
    }
}

impl Server {
    /// Opens a server: restores persisted jobs from the state directory
    /// (if any), re-queues unfinished ones, and starts the worker pool.
    ///
    /// # Errors
    ///
    /// Returns a named diagnostic when the state directory cannot be
    /// created or scanned, or holds a corrupt job record.
    pub fn open(cfg: ServerConfig) -> Result<Self, String> {
        let mut state = ServerState {
            next_id: 1,
            jobs: BTreeMap::new(),
            queue: Vec::new(),
            shutdown: false,
        };
        if let Some(dir) = &cfg.state_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create state directory {}: {e}", dir.display()))?;
            let mut records = Vec::new();
            let entries = std::fs::read_dir(dir)
                .map_err(|e| format!("cannot scan state directory {}: {e}", dir.display()))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("cannot scan state directory: {e}"))?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if !name.starts_with("job-") || !name.ends_with(".json") {
                    continue;
                }
                let text = std::fs::read_to_string(entry.path())
                    .map_err(|e| format!("cannot read {name}: {e}"))?;
                let record =
                    JobRecord::from_json(&text).map_err(|e| format!("corrupt {name}: {e}"))?;
                records.push(record);
            }
            records.sort_by_key(|r| r.id);
            for mut record in records {
                let id = record.id;
                state.next_id = state.next_id.max(id.0 + 1);
                let result_path = JobRecord::result_path_in(dir, id);
                let result = std::fs::read_to_string(&result_path).ok();
                let resume = JobRecord::checkpoint_path_in(dir, id).exists();
                let requeue = !record.state.is_terminal();
                if requeue {
                    // A `running` job was interrupted by a kill or crash;
                    // it goes back on the queue (resuming from its
                    // checkpoint when one exists).
                    record.state = JobState::Queued;
                }
                let job = Job {
                    record,
                    result,
                    events: Vec::new(),
                    cancel: Arc::new(AtomicBool::new(false)),
                    resume,
                };
                state.jobs.insert(id.0, job);
                if requeue {
                    state.queue.push(id.0);
                }
            }
        }
        let workers = cfg
            .workers
            .map_or_else(Parallelism::auto, Parallelism::fixed)
            .resolve(usize::MAX)
            .max(1);
        let inner = Arc::new(ServerInner {
            cfg,
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            watch_cv: Condvar::new(),
            kill: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(Server {
            inner,
            workers: handles,
        })
    }

    /// Submits a scenario with a priority (higher runs first; ties run in
    /// submission order).  The scenario is validated up front so a broken
    /// config fails the submit, not the worker.
    ///
    /// # Errors
    ///
    /// Returns the scenario's own validation diagnostic.
    pub fn submit(&self, scenario: ScenarioConfig, priority: i64) -> Result<JobId, String> {
        scenario.validate()?;
        let mut state = self.inner.lock();
        if state.shutdown {
            return Err("the server is shutting down".to_string());
        }
        let id = JobId(state.next_id);
        state.next_id += 1;
        let record = JobRecord {
            id,
            priority,
            state: JobState::Queued,
            scenario,
            error: None,
        };
        self.inner.persist_record(&record);
        state.jobs.insert(
            id.0,
            Job {
                record,
                result: None,
                events: Vec::new(),
                cancel: Arc::new(AtomicBool::new(false)),
                resume: false,
            },
        );
        state.queue.push(id.0);
        drop(state);
        self.inner.work_cv.notify_one();
        Ok(id)
    }

    /// A snapshot of one job.
    #[must_use]
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let state = self.inner.lock();
        state.jobs.get(&id.0).map(snapshot)
    }

    /// Snapshots of every job, in id (= submission) order.
    #[must_use]
    pub fn list(&self) -> Vec<JobStatus> {
        let state = self.inner.lock();
        state.jobs.values().map(snapshot).collect()
    }

    /// Requests cancellation.  Queued jobs cancel immediately; running
    /// jobs cancel at their next pause boundary (sampling-dynamic jobs
    /// have none and finish anyway — see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a named diagnostic for unknown or already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> Result<(), String> {
        let mut state = self.inner.lock();
        let dir = self.inner.cfg.state_dir.clone();
        let job = state
            .jobs
            .get_mut(&id.0)
            .ok_or_else(|| format!("no such job: {id}"))?;
        match job.record.state {
            JobState::Queued => {
                job.record.state = JobState::Cancelled;
                let record = job.record.clone();
                push_terminal_event(job, &record, None);
                if let Some(dir) = &dir {
                    let _ = std::fs::remove_file(JobRecord::checkpoint_path_in(dir, id));
                }
                self.inner.persist_record(&record);
                state.queue.retain(|&q| q != id.0);
                drop(state);
                self.inner.watch_cv.notify_all();
                Ok(())
            }
            JobState::Running => {
                job.cancel.store(true, Ordering::Relaxed);
                Ok(())
            }
            terminal => Err(format!("job {id} is already {terminal}")),
        }
    }

    /// Copies events `[from, ..)` for a job, plus whether its state is
    /// terminal (the stream is complete once both the copy drains and the
    /// job is terminal).
    ///
    /// # Errors
    ///
    /// Returns a named diagnostic for unknown jobs.
    pub fn events(&self, id: JobId, from: u64) -> Result<(Vec<String>, bool), String> {
        let state = self.inner.lock();
        let job = state
            .jobs
            .get(&id.0)
            .ok_or_else(|| format!("no such job: {id}"))?;
        let from = (from as usize).min(job.events.len());
        Ok((job.events[from..].to_vec(), job.record.state.is_terminal()))
    }

    /// Blocks until the job has events past `from` or reaches a terminal
    /// state, then behaves like [`Server::events`].
    ///
    /// # Errors
    ///
    /// Returns a named diagnostic for unknown jobs.
    pub fn wait_events(&self, id: JobId, from: u64) -> Result<(Vec<String>, bool), String> {
        let mut state = self.inner.lock();
        loop {
            let job = state
                .jobs
                .get(&id.0)
                .ok_or_else(|| format!("no such job: {id}"))?;
            let terminal = job.record.state.is_terminal();
            if job.events.len() > from as usize || terminal {
                let from = (from as usize).min(job.events.len());
                return Ok((job.events[from..].to_vec(), terminal));
            }
            state = self
                .inner
                .watch_cv
                .wait(state)
                .map_err(|e| format!("server state poisoned: {e}"))?;
        }
    }

    /// Blocks until the job reaches a terminal state and returns its final
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Returns a named diagnostic for unknown jobs.
    pub fn wait(&self, id: JobId) -> Result<JobStatus, String> {
        let mut state = self.inner.lock();
        loop {
            let job = state
                .jobs
                .get(&id.0)
                .ok_or_else(|| format!("no such job: {id}"))?;
            if job.record.state.is_terminal() {
                return Ok(snapshot(job));
            }
            state = self
                .inner
                .watch_cv
                .wait(state)
                .map_err(|e| format!("server state poisoned: {e}"))?;
        }
    }

    /// Graceful shutdown: stops accepting submissions, lets running jobs
    /// finish, leaves queued jobs persisted for the next open.
    pub fn shutdown(mut self) {
        {
            let mut state = self.inner.lock();
            state.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        self.join();
    }

    /// Simulated crash: halts workers at their next pause boundary.
    /// Running USD jobs write a final checkpoint and stay `running` on
    /// disk, so a later [`Server::open`] on the same state directory
    /// resumes them bit-exactly.
    pub fn kill(mut self) {
        self.halt();
    }

    /// Raises the kill switch and joins the workers.  The switch is set
    /// under the state lock: a worker checks it and then waits on
    /// `work_cv` while holding that lock, so it either sees the switch or
    /// is already waiting when the notify arrives — never in between.
    fn halt(&mut self) {
        {
            let _state = self.inner.lock();
            self.inner.kill.store(true, Ordering::SeqCst);
        }
        self.inner.work_cv.notify_all();
        self.join();
    }

    fn join(&mut self) {
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.halt();
        }
    }
}

fn snapshot(job: &Job) -> JobStatus {
    JobStatus {
        id: job.record.id,
        priority: job.record.priority,
        state: job.record.state,
        events: job.events.len() as u64,
        error: job.record.error.clone(),
        result: job.result.clone(),
    }
}

impl ServerInner {
    fn lock(&self) -> std::sync::MutexGuard<'_, ServerState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Best-effort persistence; an unwritable state directory degrades to
    /// in-memory operation rather than failing the job.
    fn persist_record(&self, record: &JobRecord) {
        if let Some(dir) = &self.cfg.state_dir {
            let _ = write_atomic(
                &JobRecord::path_in(dir, record.id),
                record.to_json().as_bytes(),
            );
        }
    }

    fn persist_result(&self, id: JobId, result: &str) {
        if let Some(dir) = &self.cfg.state_dir {
            let _ = write_atomic(&JobRecord::result_path_in(dir, id), result.as_bytes());
            let _ = std::fs::remove_file(JobRecord::checkpoint_path_in(dir, id));
        }
    }
}

/// Appends the terminal `done` event for a job (the watcher streams end on
/// it).  Caller persists the record and notifies `watch_cv`.
fn push_terminal_event(job: &mut Job, record: &JobRecord, result: Option<&str>) {
    let seq = job.events.len() as u64;
    job.events.push(protocol::done_event(record, seq, result));
}

/// Picks the next runnable job: highest priority first, submission order
/// within a priority.
fn pop_next(state: &mut ServerState) -> Option<u64> {
    let best = state.queue.iter().copied().min_by_key(|id| {
        let priority = state.jobs[id].record.priority;
        (std::cmp::Reverse(priority), *id)
    })?;
    state.queue.retain(|&q| q != best);
    Some(best)
}

fn worker_loop(inner: &ServerInner) {
    loop {
        let claimed = {
            let mut state = inner.lock();
            loop {
                if inner.kill.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = pop_next(&mut state) {
                    let job = state.jobs.get_mut(&id).expect("queued job exists");
                    job.record.state = JobState::Running;
                    let record = job.record.clone();
                    inner.persist_record(&record);
                    break Some((id, record, Arc::clone(&job.cancel), job.resume));
                }
                if state.shutdown {
                    return;
                }
                state = inner
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let Some((id, record, cancel, resume)) = claimed else {
            return;
        };
        run_job(inner, id, &record, &cancel, resume);
    }
}

/// Drives one job through the shared scenario runner, wiring the server's
/// interrupt, progress and checkpoint hooks.
fn run_job(inner: &ServerInner, id: u64, record: &JobRecord, cancel: &AtomicBool, resume: bool) {
    let job_id = JobId(id);
    let scenario = record.scenario;
    let checkpoint_path = inner
        .cfg
        .state_dir
        .as_ref()
        .map(|dir| JobRecord::checkpoint_path_in(dir, job_id));
    let checkpoint_every = if inner.cfg.checkpoint_every == 0 {
        scenario.population.max(1)
    } else {
        inner.cfg.checkpoint_every
    };
    let resume_checkpoint = if resume {
        checkpoint_path
            .as_ref()
            .and_then(|path| Checkpoint::load(path).ok())
    } else {
        None
    };
    let interrupt = || {
        if inner.kill.load(Ordering::SeqCst) {
            Some(Interrupt::Halted)
        } else if cancel.load(Ordering::Relaxed) {
            Some(Interrupt::Cancelled)
        } else {
            None
        }
    };
    let mut seq = 0_u64;
    let mut on_progress = |event: runner::ProgressEvent| {
        let line = protocol::progress_event(job_id, seq, &event);
        seq += 1;
        let mut state = inner.lock();
        if let Some(job) = state.jobs.get_mut(&id) {
            job.events.push(line);
        }
        drop(state);
        inner.watch_cv.notify_all();
    };
    let control = RunControl {
        progress: Some(&mut on_progress),
        progress_every: inner.cfg.progress_every,
        interrupt: Some(&interrupt),
        checkpoint: checkpoint_path
            .as_deref()
            .map(|path| (path, checkpoint_every)),
        resume: resume_checkpoint.as_ref(),
        recorder: None,
        // Progress events carry the engines' metrics snapshots.
        telemetry: Telemetry::enabled(),
    };
    let verdict = runner::run_scenario(&scenario, control);

    let mut state = inner.lock();
    let Some(job) = state.jobs.get_mut(&id) else {
        return;
    };
    match verdict {
        Ok(RunVerdict::Finished(outcome)) => {
            let result = runner::result_json(&outcome);
            job.record.state = JobState::Done;
            job.result = Some(result.clone());
            job.resume = false;
            let record = job.record.clone();
            push_terminal_event(job, &record, Some(&result));
            inner.persist_record(&record);
            inner.persist_result(job_id, &result);
        }
        Ok(RunVerdict::Interrupted(Interrupt::Cancelled)) => {
            job.record.state = JobState::Cancelled;
            job.resume = false;
            let record = job.record.clone();
            push_terminal_event(job, &record, None);
            inner.persist_record(&record);
            if let Some(dir) = &inner.cfg.state_dir {
                let _ = std::fs::remove_file(JobRecord::checkpoint_path_in(dir, job_id));
            }
        }
        Ok(RunVerdict::Interrupted(Interrupt::Halted)) => {
            // The server is going down; the job stays `running` on disk
            // (with its checkpoint) so the next open re-queues it.  In
            // memory nothing more to do — the process is exiting.
            job.resume = true;
        }
        Err(message) => {
            job.record.state = JobState::Failed;
            job.record.error = Some(message);
            job.resume = false;
            let record = job.record.clone();
            push_terminal_event(job, &record, None);
            inner.persist_record(&record);
        }
    }
    drop(state);
    inner.watch_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario;

    fn scenario(seed: u64) -> ScenarioConfig {
        ScenarioConfig::new(500, 3).with_seed(seed)
    }

    fn standalone_json(config: &ScenarioConfig) -> String {
        let RunVerdict::Finished(outcome) = run_scenario(config, RunControl::default()).unwrap()
        else {
            panic!("standalone run must finish");
        };
        runner::result_json(&outcome)
    }

    #[test]
    fn jobs_finish_with_standalone_identical_results() {
        let server = Server::open(ServerConfig {
            workers: Some(2),
            ..ServerConfig::default()
        })
        .unwrap();
        let ids: Vec<_> = (0..4)
            .map(|i| server.submit(scenario(100 + i), 0).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            let status = server.wait(*id).unwrap();
            assert_eq!(status.state, JobState::Done);
            assert_eq!(
                status.result.as_deref(),
                Some(standalone_json(&scenario(100 + i as u64)).as_str()),
                "job {id} diverged from its standalone run"
            );
        }
        server.shutdown();
    }

    #[test]
    fn priorities_order_the_queue_and_cancel_works() {
        // One worker, and a long-running decoy submitted first so the
        // queue holds the contested jobs while we reorder them.
        let server = Server::open(ServerConfig {
            workers: Some(1),
            ..ServerConfig::default()
        })
        .unwrap();
        let decoy = server
            .submit(ScenarioConfig::new(20_000, 8).with_seed(1), 0)
            .unwrap();
        let low = server.submit(scenario(1), -1).unwrap();
        let high = server.submit(scenario(2), 5).unwrap();
        server.cancel(low).unwrap();
        let status = server.wait(low).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        let status = server.wait(high).unwrap();
        assert_eq!(status.state, JobState::Done);
        let _ = server.cancel(decoy);
        let listed = server.list();
        assert_eq!(listed.len(), 3);
        assert!(
            listed.windows(2).all(|w| w[0].id < w[1].id),
            "list is id-ordered"
        );
        server.shutdown();
    }

    #[test]
    fn invalid_scenarios_fail_at_submit_with_cli_diagnostics() {
        let server = Server::open(ServerConfig::default()).unwrap();
        let err = server.submit(scenario(1).with_shards(4), 0).unwrap_err();
        assert_eq!(err, "--shards/--epoch require --engine sharded");
        server.shutdown();
    }

    /// `kill` used to raise its switch without the state lock, so a worker
    /// between its kill check and its condvar wait could miss the wake-up
    /// and hang the join forever.
    #[test]
    fn repeated_kills_never_hang() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for seed in 0..200 {
                let server = Server::open(ServerConfig {
                    workers: Some(2),
                    ..ServerConfig::default()
                })
                .unwrap();
                server.submit(scenario(seed), 0).unwrap();
                server.kill();
            }
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("open -> submit -> kill hung or panicked within 10 s");
    }

    #[test]
    fn kill_and_reopen_resumes_to_identical_results() {
        let dir = std::env::temp_dir().join(format!(
            "pp_service_server_kill_test_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let expected = standalone_json(&scenario(7));
        let cfg = || ServerConfig {
            workers: Some(1),
            state_dir: Some(dir.clone()),
            progress_every: 50,
            checkpoint_every: 50,
        };
        let server = Server::open(cfg()).unwrap();
        let id = server.submit(scenario(7), 0).unwrap();
        // Let the job actually start before pulling the plug, so the kill
        // path (checkpoint + `running` on disk) is what we exercise.
        let (_events, _) = server.wait_events(id, 0).unwrap();
        server.kill();

        let reopened = Server::open(cfg()).unwrap();
        let status = reopened.wait(id).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(status.result.as_deref(), Some(expected.as_str()));
        reopened.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
