//! Job identity, lifecycle states and on-disk persistence records.
//!
//! A job is one queued [`ScenarioConfig`] with a priority.  Its lifecycle
//! is strictly `Queued → Running → {Done, Failed, Cancelled}`; a server
//! kill can park a `Running` job back on disk (with a checkpoint) so the
//! next [`crate::server::Server::open`] re-queues it — that re-queue is
//! invisible in the result, which is pinned bit-identical either way.
//!
//! Persistence layout (inside the server's state directory):
//!
//! * `job-<id>.json` — the [`JobRecord`]: version, id, priority, state,
//!   scenario, and the failure message for failed jobs.
//! * `result-<id>.json` — the canonical result document
//!   ([`crate::runner::result_json`] bytes, stored verbatim so replaying a
//!   `result` request after a restart returns the identical bytes).
//! * `ckpt-<id>.json` — a [`pp_core::Checkpoint`] for a job halted
//!   mid-run, removed when the job reaches a terminal state.

use crate::scenario::ScenarioConfig;
use pp_core::json::{Json, ObjBuilder};
use std::path::{Path, PathBuf};

/// The job-record format version.
pub const JOB_FORMAT_VERSION: u32 = 1;

/// A queue-unique job identifier (dense, starting at 1, in submission
/// order — ids double as FIFO sequence numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// A worker is driving it.
    Running,
    /// Finished; the canonical result is available.
    Done,
    /// The scenario was rejected or the run errored; see the message.
    Failed,
    /// Cancelled before completion; it will not resume.
    Cancelled,
}

impl JobState {
    /// The canonical lowercase name (protocol and persistence spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a state name.
    ///
    /// # Errors
    ///
    /// Names the unknown state.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed),
            "cancelled" => Ok(JobState::Cancelled),
            other => Err(format!(
                "unknown job state {other:?} (expected queued, running, done, failed, or \
                 cancelled)"
            )),
        }
    }

    /// Whether the state is terminal (no further transitions).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The persisted job description.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job's identifier.
    pub id: JobId,
    /// Scheduling priority (higher first; ties run in submission order).
    pub priority: i64,
    /// Lifecycle state at the last persist.
    pub state: JobState,
    /// The scenario to run.
    pub scenario: ScenarioConfig,
    /// The failure message, for failed jobs.
    pub error: Option<String>,
}

impl JobRecord {
    /// Serializes the record as its version-1 JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        ObjBuilder::new()
            .field("job", Json::U64(u64::from(JOB_FORMAT_VERSION)))
            .field("id", Json::U64(self.id.0))
            .field("priority", priority_json(self.priority))
            .field("state", Json::Str(self.state.name().to_string()))
            .field("scenario", self.scenario.to_json_value())
            .opt("error", self.error.clone().map(Json::Str))
            .build()
            .to_json()
    }

    /// Parses a version-1 job record.
    ///
    /// # Errors
    ///
    /// Returns a named diagnostic for malformed or wrong-version records.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("malformed job record: {e}"))?;
        let version = doc
            .get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| "missing \"job\" version field".to_string())?;
        if version != u64::from(JOB_FORMAT_VERSION) {
            return Err(format!(
                "unsupported job record version {version} (this build reads version 1)"
            ));
        }
        let id = doc
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| "\"id\" must be an unsigned integer".to_string())?;
        let priority = match doc.get("priority") {
            None => 0,
            Some(Json::U64(v)) => {
                i64::try_from(*v).map_err(|_| "\"priority\" does not fit an i64".to_string())?
            }
            Some(Json::I64(v)) => *v,
            Some(_) => return Err("\"priority\" must be an integer".to_string()),
        };
        let state = JobState::parse(
            doc.get("state")
                .and_then(Json::as_str)
                .ok_or_else(|| "\"state\" must be a string".to_string())?,
        )?;
        let scenario = ScenarioConfig::from_json_value(
            doc.get("scenario")
                .ok_or_else(|| "missing \"scenario\" object".to_string())?,
        )?;
        let error = doc.get("error").and_then(Json::as_str).map(str::to_string);
        Ok(JobRecord {
            id: JobId(id),
            priority,
            state,
            scenario,
            error,
        })
    }

    /// The record's file name inside a state directory.
    #[must_use]
    pub fn path_in(dir: &Path, id: JobId) -> PathBuf {
        dir.join(format!("job-{}.json", id.0))
    }

    /// The canonical-result file for a job.
    #[must_use]
    pub fn result_path_in(dir: &Path, id: JobId) -> PathBuf {
        dir.join(format!("result-{}.json", id.0))
    }

    /// The resume-checkpoint file for a job.
    #[must_use]
    pub fn checkpoint_path_in(dir: &Path, id: JobId) -> PathBuf {
        dir.join(format!("ckpt-{}.json", id.0))
    }
}

/// Priorities serialize through the exact-integer JSON variants.
fn priority_json(priority: i64) -> Json {
    if priority >= 0 {
        Json::U64(priority as u64)
    } else {
        Json::I64(priority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let record = JobRecord {
            id: JobId(7),
            priority: -3,
            state: JobState::Failed,
            scenario: ScenarioConfig::new(1_000, 4).with_seed(2),
            error: Some("invalid configuration: boom".to_string()),
        };
        let json = record.to_json();
        let back = JobRecord::from_json(&json).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn states_round_trip_by_name() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(state.name()), Ok(state));
        }
        assert!(JobState::parse("paused").is_err());
    }
}
