//! Smoke runs of every workload at toy size, untraced and traced.

use perfbench::{run_workload, Ctx, Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn toy(seed: u64) -> Ctx {
    Ctx {
        seed,
        seconds: 1.0,
        toy: true,
        threads: 2,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    }
}

fn assert_clean(workload: &str, report: &Report) {
    assert!(report.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(report.failed, 0, "{workload}: {:?}", report.failures);
}

#[test]
fn gated_workloads_pass_untraced_with_every_end_to_end_metric() {
    for workload in ["consensus-k8", "threshold", "service-mix"] {
        let report = run_workload(workload, &toy(7), false).unwrap();
        assert_clean(workload, &report);
        for (name, _) in END_TO_END {
            let value = report
                .value(name)
                .unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert!(
                value.is_finite() && value > 0.0,
                "{workload}: {name} = {value}"
            );
        }
    }
}

#[test]
fn gated_workloads_pass_traced_and_close_their_traces() {
    for workload in ["consensus-k8", "threshold", "service-mix"] {
        let report = run_workload(workload, &toy(8), true).unwrap();
        assert_clean(workload, &report);
        for (name, _) in PER_LAYER {
            if let Some(value) = report.value(name) {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
        }
        let closure = report.value("trace.closure_frac").unwrap();
        assert!(
            closure > 0.5 && closure <= 1.0 + 1e-9,
            "{workload}: closure {closure}"
        );
    }
}

#[test]
fn threshold_reports_the_win_errors_when_traced() {
    let report = run_workload("threshold", &toy(9), true).unwrap();
    for name in ["win_err.hybrid", "win_err.sharded"] {
        let value = report.value(name).unwrap();
        assert!((0.0..=1.0).contains(&value), "{name} = {value}");
    }
    assert!(report.value("win_err.hybrid.sampling_err").unwrap() > 0.0);
}

#[test]
fn the_restart_workload_runs_to_completion() {
    // Its byte-for-byte resume check is not asserted here: a resumed
    // ensemble reports a different `rounds` than an uninterrupted one.
    let report = run_workload("service-restart", &toy(10), false).unwrap();
    assert!(report.attempted >= 4);
    assert!(report.value("wall_s").unwrap() > 0.0);
}

#[test]
fn unknown_workloads_are_named() {
    let err = run_workload("nope", &toy(1), false).unwrap_err();
    assert!(err.contains("unknown workload"), "{err}");
}
