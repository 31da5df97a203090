//! The NDJSON wire protocol and event-line formats.
//!
//! Every message — request, response, streamed event — is one JSON object
//! per line.  The same protocol runs over `pp_serve`'s stdin/stdout and its
//! Unix domain socket.
//!
//! ## Requests
//!
//! | op         | fields                         | effect                              |
//! |------------|--------------------------------|-------------------------------------|
//! | `submit`   | `scenario` (object), `priority`| queue a job, reply `{"ok":true,"job":N}` |
//! | `status`   | `job`                          | one job's state snapshot            |
//! | `result`   | `job`                          | the canonical result document       |
//! | `cancel`   | `job`                          | request cancellation                |
//! | `list`     | —                              | all jobs, id order                  |
//! | `watch`    | `job`, optional `from`         | stream events until terminal        |
//! | `wait`     | `job`                          | block until terminal, reply status  |
//! | `shutdown` | —                              | graceful server stop                |
//!
//! ## Responses and events
//!
//! Replies carry `"ok": true` (plus op-specific fields) or
//! `{"ok":false,"error":"..."}`.  `watch` streams sequence-numbered lines:
//! `{"event":"progress","job":N,"seq":K,...}` snapshots and one terminal
//! `{"event":"done","job":N,"seq":K,"state":"done",...}` line — the
//! [`check_progress_line`] / [`check_result_doc`] validators pin both
//! schemas (CI runs them over live streams via `service_check`).

use crate::job::{JobId, JobRecord, JobState};
use crate::runner::ProgressEvent;
use crate::scenario::ScenarioConfig;
use pp_core::json::{Json, ObjBuilder};
use pp_core::MetricsSnapshot;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Queue a scenario.
    Submit {
        /// The scenario to run.
        scenario: ScenarioConfig,
        /// Scheduling priority (default 0).
        priority: i64,
    },
    /// One job's state snapshot.
    Status(JobId),
    /// One job's canonical result document.
    Result(JobId),
    /// Request cancellation.
    Cancel(JobId),
    /// Every job, in id order.
    List,
    /// Stream a job's events from a sequence number until it is terminal.
    Watch(JobId, u64),
    /// Block until a job is terminal, then reply with its status.
    Wait(JobId),
    /// Graceful server stop.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a named diagnostic for malformed JSON, unknown ops and missing
/// or mistyped fields.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string \"op\" field".to_string())?;
    let job = |doc: &Json| -> Result<JobId, String> {
        doc.get("job")
            .and_then(Json::as_u64)
            .map(JobId)
            .ok_or_else(|| format!("op {op:?} needs an unsigned integer \"job\" field"))
    };
    match op {
        "submit" => {
            let scenario = doc
                .get("scenario")
                .ok_or_else(|| "op \"submit\" needs a \"scenario\" object".to_string())?;
            let scenario = ScenarioConfig::from_json_value(scenario)?;
            let priority = match doc.get("priority") {
                None => 0,
                Some(Json::U64(v)) => {
                    i64::try_from(*v).map_err(|_| "\"priority\" does not fit an i64".to_string())?
                }
                Some(Json::I64(v)) => *v,
                Some(_) => return Err("\"priority\" must be an integer".to_string()),
            };
            Ok(Request::Submit { scenario, priority })
        }
        "status" => Ok(Request::Status(job(&doc)?)),
        "result" => Ok(Request::Result(job(&doc)?)),
        "cancel" => Ok(Request::Cancel(job(&doc)?)),
        "list" => Ok(Request::List),
        "watch" => {
            let from = match doc.get("from") {
                None => 0,
                Some(value) => value
                    .as_u64()
                    .ok_or_else(|| "\"from\" must be an unsigned integer".to_string())?,
            };
            Ok(Request::Watch(job(&doc)?, from))
        }
        "wait" => Ok(Request::Wait(job(&doc)?)),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op {other:?} (expected submit, status, result, cancel, list, watch, wait, \
             or shutdown)"
        )),
    }
}

/// Builds the error reply line (no trailing newline).
#[must_use]
pub fn error_reply(message: &str) -> String {
    ObjBuilder::new()
        .field("ok", Json::Bool(false))
        .field("error", Json::Str(message.to_string()))
        .build()
        .to_json()
}

/// Builds an `{"ok":true,...}` reply from extra fields.
#[must_use]
pub fn ok_reply(fields: Vec<(String, Json)>) -> String {
    let mut builder = ObjBuilder::new().field("ok", Json::Bool(true));
    for (key, value) in fields {
        builder = builder.field(&key, value);
    }
    builder.build().to_json()
}

/// Serializes a metrics snapshot as nested objects (counter/gauge/histogram
/// maps keyed by metric name).
#[must_use]
pub fn metrics_json(metrics: &MetricsSnapshot) -> Json {
    let counters = metrics
        .counters()
        .iter()
        .map(|(name, v)| (name.clone(), Json::U64(*v)))
        .collect();
    let gauges = metrics
        .gauges()
        .iter()
        .map(|(name, v)| (name.clone(), Json::F64(*v)))
        .collect();
    let histograms = metrics
        .histograms()
        .iter()
        .map(|(name, h)| {
            (
                name.clone(),
                ObjBuilder::new()
                    .field("count", Json::U64(h.count))
                    .field("sum", Json::U64(h.sum))
                    .build(),
            )
        })
        .collect();
    ObjBuilder::new()
        .field("counters", Json::Obj(counters))
        .field("gauges", Json::Obj(gauges))
        .field("histograms", Json::Obj(histograms))
        .build()
}

/// Renders one streamed progress line (no trailing newline).
#[must_use]
pub fn progress_event(id: JobId, seq: u64, event: &ProgressEvent) -> String {
    ObjBuilder::new()
        .field("event", Json::Str("progress".to_string()))
        .field("job", Json::U64(id.0))
        .field("seq", Json::U64(seq))
        .opt("interactions", event.interactions.map(Json::U64))
        .opt(
            "supports",
            event
                .supports
                .as_ref()
                .map(|s| Json::Arr(s.iter().map(|&v| Json::U64(v)).collect())),
        )
        .opt("undecided", event.undecided.map(Json::U64))
        .opt("metrics", event.metrics.as_ref().map(metrics_json))
        .build()
        .to_json()
}

/// Renders the terminal event line for a job (no trailing newline).  Done
/// jobs embed their canonical result document; failed jobs their error.
#[must_use]
pub fn done_event(record: &JobRecord, seq: u64, result: Option<&str>) -> String {
    ObjBuilder::new()
        .field("event", Json::Str("done".to_string()))
        .field("job", Json::U64(record.id.0))
        .field("seq", Json::U64(seq))
        .field("state", Json::Str(record.state.name().to_string()))
        .opt("error", record.error.clone().map(Json::Str))
        .opt("result", result.and_then(|text| Json::parse(text).ok()))
        .build()
        .to_json()
}

/// Validates one streamed event line against the protocol schema.
///
/// # Errors
///
/// Names the first schema violation.
pub fn check_progress_line(line: &str) -> Result<(), String> {
    let doc = Json::parse(line).map_err(|e| format!("event line is not JSON: {e}"))?;
    let event = doc
        .get("event")
        .and_then(Json::as_str)
        .ok_or_else(|| "event line needs a string \"event\" field".to_string())?;
    doc.get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| "event line needs an unsigned integer \"job\" field".to_string())?;
    doc.get("seq")
        .and_then(Json::as_u64)
        .ok_or_else(|| "event line needs an unsigned integer \"seq\" field".to_string())?;
    match event {
        "progress" => {
            if let Some(supports) = doc.get("supports") {
                let supports = supports
                    .as_array()
                    .ok_or_else(|| "\"supports\" must be an array".to_string())?;
                if !supports.iter().all(|v| v.as_u64().is_some()) {
                    return Err("\"supports\" entries must be unsigned integers".to_string());
                }
            }
            if let Some(undecided) = doc.get("undecided") {
                undecided
                    .as_u64()
                    .ok_or_else(|| "\"undecided\" must be an unsigned integer".to_string())?;
            }
            if let Some(metrics) = doc.get("metrics") {
                for section in ["counters", "gauges", "histograms"] {
                    metrics
                        .get(section)
                        .and_then(Json::as_object)
                        .ok_or_else(|| format!("\"metrics\" needs a {section:?} object"))?;
                }
            }
            Ok(())
        }
        "done" => {
            let state = JobState::parse(
                doc.get("state")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "\"done\" event needs a string \"state\" field".to_string())?,
            )?;
            if !state.is_terminal() {
                return Err(format!("\"done\" event carries non-terminal state {state}"));
            }
            match state {
                JobState::Done => check_result_doc(
                    doc.get("result")
                        .ok_or_else(|| "done jobs must embed their \"result\"".to_string())?,
                ),
                JobState::Failed => doc
                    .get("error")
                    .and_then(Json::as_str)
                    .map(|_| ())
                    .ok_or_else(|| "failed jobs must carry a string \"error\"".to_string()),
                _ => Ok(()),
            }
        }
        other => Err(format!(
            "unknown event kind {other:?} (expected progress or done)"
        )),
    }
}

/// Validates a canonical result document (the payload of `result` replies,
/// `result-<id>.json` files, `done` events and `usd_run --scenario` output).
///
/// # Errors
///
/// Names the first schema violation.
pub fn check_result_doc(doc: &Json) -> Result<(), String> {
    fn check_run(run: &Json) -> Result<(), String> {
        let outcome = run
            .get("outcome")
            .and_then(Json::as_str)
            .ok_or_else(|| "run needs a string \"outcome\"".to_string())?;
        if !matches!(
            outcome,
            "consensus" | "opinion-settled" | "budget-exhausted"
        ) {
            return Err(format!("unknown run outcome {outcome:?}"));
        }
        run.get("interactions")
            .and_then(Json::as_u64)
            .ok_or_else(|| "run needs an unsigned integer \"interactions\"".to_string())?;
        run.get("parallel_time")
            .and_then(Json::as_f64)
            .ok_or_else(|| "run needs a numeric \"parallel_time\"".to_string())?;
        let fin = run
            .get("final")
            .ok_or_else(|| "run needs a \"final\" object".to_string())?;
        let supports = fin
            .get("supports")
            .and_then(Json::as_array)
            .ok_or_else(|| "\"final\" needs a \"supports\" array".to_string())?;
        if supports.is_empty() || !supports.iter().all(|v| v.as_u64().is_some()) {
            return Err(
                "\"final.supports\" must be a non-empty unsigned-integer array".to_string(),
            );
        }
        fin.get("undecided")
            .and_then(Json::as_u64)
            .ok_or_else(|| "\"final\" needs an unsigned integer \"undecided\"".to_string())?;
        Ok(())
    }
    if doc.get("result").and_then(Json::as_u64) != Some(1) {
        return Err("result document must carry \"result\": 1".to_string());
    }
    match doc.get("mode").and_then(Json::as_str) {
        Some("single") => check_run(
            doc.get("run")
                .ok_or_else(|| "single results need a \"run\" object".to_string())?,
        ),
        Some("ensemble") => {
            let replicas = doc
                .get("replicas")
                .and_then(Json::as_u64)
                .ok_or_else(|| "ensemble results need a \"replicas\" count".to_string())?;
            let results = doc
                .get("results")
                .and_then(Json::as_array)
                .ok_or_else(|| "ensemble results need a \"results\" array".to_string())?;
            if results.len() as u64 != replicas {
                return Err(format!(
                    "\"results\" holds {} runs but \"replicas\" says {replicas}",
                    results.len()
                ));
            }
            results.iter().try_for_each(check_run)
        }
        _ => Err("result document needs \"mode\": \"single\" or \"ensemble\"".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_with_named_diagnostics() {
        let submit = parse_request(
            r#"{"op":"submit","scenario":{"scenario":1,"seed":3,"n":500,"k":3,"dynamic":"usd","replicas":1,"samples":400},"priority":2}"#,
        )
        .unwrap();
        let Request::Submit { scenario, priority } = submit else {
            panic!("expected a submit request");
        };
        assert_eq!(priority, 2);
        assert_eq!(scenario.seed, 3);
        assert_eq!(scenario.population, 500);

        assert_eq!(
            parse_request(r#"{"op":"status","job":4}"#).unwrap(),
            Request::Status(JobId(4))
        );
        assert_eq!(
            parse_request(r#"{"op":"watch","job":4,"from":10}"#).unwrap(),
            Request::Watch(JobId(4), 10)
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert!(parse_request(r#"{"op":"status"}"#)
            .unwrap_err()
            .contains("\"job\""));
        assert!(parse_request(r#"{"op":"poke"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(parse_request("not json")
            .unwrap_err()
            .contains("malformed request"));
    }

    #[test]
    fn event_lines_satisfy_their_own_validator() {
        let progress = progress_event(
            JobId(3),
            0,
            &ProgressEvent {
                interactions: Some(500),
                supports: Some(vec![10, 20]),
                undecided: Some(5),
                metrics: None,
            },
        );
        check_progress_line(&progress).unwrap();

        let record = JobRecord {
            id: JobId(3),
            priority: 0,
            state: JobState::Failed,
            scenario: ScenarioConfig::new(100, 2),
            error: Some("boom".to_string()),
        };
        check_progress_line(&done_event(&record, 1, None)).unwrap();
        assert!(check_progress_line(r#"{"event":"progress","job":1}"#).is_err());
        assert!(
            check_progress_line(r#"{"event":"done","job":1,"seq":0,"state":"queued"}"#).is_err()
        );
    }

    #[test]
    fn result_docs_validate_by_schema() {
        let good = r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":10,"parallel_time":0.5,"winner":0,"scheduler":null,"rejection_misses":null,"final":{"supports":[100,0],"undecided":0}}}"#;
        check_result_doc(&Json::parse(good).unwrap()).unwrap();
        let bad = r#"{"result":1,"mode":"ensemble","replicas":2,"results":[]}"#;
        assert!(check_result_doc(&Json::parse(bad).unwrap())
            .unwrap_err()
            .contains("replicas"));
    }
}
