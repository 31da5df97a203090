//! `usd_run` is a front-end over `pp_service::run_scenario`, both for a
//! `--scenario FILE` and for ordinary flags, which parse into a
//! `ScenarioConfig`:
//!
//! * `--scenario` prints the in-process runner's canonical result bytes;
//! * every flag line prints the summary lines the runner's `result_json`
//!   implies, and the summary lines, trajectory CSVs and ensemble
//!   `--output` documents recorded in `tests/golden/` (the CLI's output
//!   before it was ported onto the runner);
//! * every rejection `ScenarioConfig::validate` makes comes out of the
//!   equivalent flag line with exit code 2 and exactly `validate()`'s
//!   sentence, and scenario files fail with the same named sentences.

use pp_core::json::Json;
use pp_service::runner::{result_json, run_scenario, RunControl, RunVerdict};
use pp_service::scenario::ScenarioConfig;
use std::process::{Command, Output};

fn standalone_json(scenario: &ScenarioConfig) -> String {
    let RunVerdict::Finished(outcome) =
        run_scenario(scenario, RunControl::default()).expect("standalone scenario run failed")
    else {
        panic!("a default RunControl cannot be interrupted");
    };
    result_json(&outcome)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("usd_run_scenario_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn scenario_flag_matches_standalone_bytes() {
    let scenario = ScenarioConfig::new(640, 3).with_seed(13);
    let expected = standalone_json(&scenario);
    let dir = temp_dir("ok");
    let file = dir.join("scenario.json");
    std::fs::write(&file, scenario.to_json()).expect("write scenario");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_usd_run"))
        .args(["--scenario", file.to_str().unwrap()])
        .output()
        .expect("run usd_run --scenario");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&output.stdout).trim(),
        expected,
        "usd_run --scenario diverged from the in-process runner"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_flag_rejects_invalid_files_with_named_diagnostics() {
    let dir = temp_dir("bad");
    let file = dir.join("scenario.json");
    // An invalid cross-field combination must fail with the CLI's sentence.
    let mut bad = ScenarioConfig::new(100, 3);
    bad.samples = 0;
    std::fs::write(&file, bad.to_json()).expect("write scenario");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_usd_run"))
        .args(["--scenario", file.to_str().unwrap()])
        .output()
        .expect("run usd_run --scenario");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--samples must be positive"),
        "unexpected diagnostic: {stderr}"
    );
    // Mixing --scenario with other flags is refused outright.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_usd_run"))
        .args(["--scenario", file.to_str().unwrap(), "--n", "100"])
        .output()
        .expect("run usd_run with mixed flags");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr)
        .contains("--scenario takes exactly one file and no other flags"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `usd_run` on a whitespace-separated flag line.
fn usd_run(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_usd_run"))
        .args(args.split_whitespace())
        .output()
        .expect("run usd_run")
}

/// The scenario document with the given fields, as the runner sees it.
fn scenario(fields: &str) -> Result<ScenarioConfig, String> {
    let scenario = ScenarioConfig::from_json(&format!("{{\"scenario\":1,{fields}}}"))?;
    scenario.validate().map(|()| scenario)
}

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::read_to_string(path.join(name)).expect("golden file")
}

fn stderr_lines(output: &Output, prefixes: &[&str]) -> String {
    String::from_utf8_lossy(&output.stderr)
        .lines()
        .filter(|line| prefixes.iter().any(|p| line.starts_with(p)))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// The `finished after …` / `winner: …` lines a single run's result
/// document implies.
fn result_lines(run: &Json) -> String {
    let field = |key| run.get(key).expect("result field");
    let mut lines = format!(
        "finished after {} interactions (parallel time {:.1}); consensus: {}\n",
        field("interactions").as_u64().unwrap(),
        field("parallel_time").as_f64().unwrap(),
        field("outcome").as_str() == Some("consensus"),
    );
    if let Some(winner) = field("winner").as_u64() {
        lines += &format!("winner: opinion {}\n", winner + 1);
    }
    lines
}

#[test]
fn single_run_flag_lines_match_the_runner_and_the_goldens() {
    let goldens = golden("single_run_summaries.golden");
    let blocks: Vec<&str> = goldens.split("\n\n").skip(1).collect();
    assert_eq!(blocks.len(), 8, "one block per flag line");
    for block in blocks {
        let (head, summary) = block.split_once('\n').unwrap();
        let mut head = head.split(" | ");
        let (flags, fields, csv) = (head.next().unwrap(), head.next().unwrap(), head.next());
        let args = format!("--k 3 --seed 5 {flags}");
        let output = usd_run(&args);
        assert!(output.status.success(), "{args}: {output:?}");
        let expected = scenario(&format!(r#""k":3,"seed":5,{fields}"#)).unwrap();
        let result = Json::parse(&standalone_json(&expected)).unwrap();
        assert_eq!(
            stderr_lines(&output, &["finished", "winner"]),
            result_lines(result.get("run").unwrap()),
            "{args}: CLI and runner disagree"
        );
        let printed = stderr_lines(&output, &["finished", "winner", "T"]);
        assert_eq!(
            printed.trim_end(),
            summary.trim_end(),
            "{args}: drifted from the golden"
        );
        if let Some(name) = csv {
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert_eq!(stdout, golden(name), "{args}: CSV drifted from {name}");
            let first_row = stdout.lines().nth(1).unwrap_or_default();
            assert!(first_row.starts_with("0,"), "{args}: no t=0 row");
        }
    }
}

#[test]
fn ensemble_flag_lines_match_the_runner_and_the_goldens() {
    let dir = temp_dir("ensemble");
    let cases = [
        ("--n 3000", r#""n":3000"#, "usd_replicas3_summary.json"),
        (
            "--n 500 --dynamic voter",
            r#""n":500,"dynamic":"voter""#,
            "voter_replicas3_summary.json",
        ),
    ];
    // Wall-clock fields differ run to run (the summaries carry no
    // timing-valued metrics: telemetry is off).
    let untimed = |doc: &Json| match doc {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(key, _)| !matches!(key.as_str(), "seconds" | "interactions_per_sec"))
                .cloned()
                .collect(),
        )
        .to_json(),
        other => other.to_json(),
    };
    for (flags, fields, name) in cases {
        let path = dir.join(name);
        let tail = "--k 3 --seed 5 --replicas 3 --threads 2 --output";
        let args = format!("{flags} {tail} {}", path.display());
        let output = usd_run(&args);
        assert!(output.status.success(), "{args}: {output:?}");
        let written = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let expected = Json::parse(&golden(name)).unwrap();
        assert_eq!(
            untimed(&written),
            untimed(&expected),
            "{args}: drifted from {name}"
        );
        let fields = format!(r#""k":3,"seed":5,"replicas":3,"threads":2,{fields}"#);
        let result = Json::parse(&standalone_json(&scenario(&fields).unwrap())).unwrap();
        let runs = |doc: &Json| {
            doc.get("results")
                .and_then(Json::as_array)
                .unwrap()
                .to_vec()
        };
        assert_eq!(runs(&written).len(), runs(&result).len());
        for (cli, runner) in runs(&written).iter().zip(runs(&result)) {
            for key in ["outcome", "interactions", "parallel_time", "winner"] {
                let value = |doc: &Json| doc.get(key).map(Json::to_json);
                assert_eq!(value(cli), value(&runner), "{args}: replica {key} differs");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_validate_rejection_reads_the_same_from_the_cli() {
    // Flags after `--n 1000 --k 3` | the equivalent scenario fields.
    let cases = [
        r#"--shards 4 | "shards":4"#,
        r#"--epoch 100 | "epoch":100"#,
        r#"--dynamic voter --engine sharded | "dynamic":"voter","engine":"sharded""#,
        r#"--dynamic median --engine mean-field | "dynamic":"median","engine":"mean-field""#,
        r#"--dynamic 3-majority --engine hybrid | "dynamic":"3-majority","engine":"hybrid""#,
        r#"--fidelity-promote 9 | "fidelity":{"promote":9.0}"#,
        r#"--engine hybrid --fidelity-promote 2 --fidelity-demote 4 | "engine":"hybrid","fidelity":{"promote":2.0,"demote":4.0}"#,
        r#"--samples 0 | "samples":0"#,
        r#"--dynamic j-majority --j 0 | "dynamic":"j-majority","j":0"#,
        r#"--engine sharded --shards 0 | "engine":"sharded","shards":0"#,
        r#"--engine sharded --epoch 0 | "engine":"sharded","epoch":0"#,
        r#"--replicas 0 | "replicas":0"#,
        r#"--threads 0 | "threads":0"#,
        r#"--threads 2 | "threads":2"#,
        r#"--replicas 3 --engine exact | "replicas":3,"engine":"exact""#,
        r#"--replicas 3 --engine sharded | "replicas":3,"engine":"sharded""#,
        // The scenario parser's rule rather than validate()'s.
        r#"--dynamic voter --j 5 | "dynamic":"voter","j":5"#,
    ];
    for case in cases {
        let (flags, fields) = case.split_once(" | ").unwrap();
        let expected = scenario(&format!(r#""n":1000,"k":3,{fields}"#)).unwrap_err();
        let output = usd_run(&format!("--n 1000 --k 3 {flags}"));
        assert_eq!(output.status.code(), Some(2), "{flags}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(stderr.trim_end(), expected, "{flags}: another sentence");
    }
}
