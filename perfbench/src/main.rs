//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one record line (stamp, tail percentiles, accuracy, failures) and
//! then, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`.  The record also goes
//! to `.bench_out/`.  Exits 1 when any output check failed and 2 on bad
//! arguments.

use perfbench::{obj, run_workload, stamp, Ctx, END_TO_END, PER_LAYER};
use pp_service::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        toy: false,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        out_dir: PathBuf::from(".bench_out"),
    };
    let report = match run_workload(&args.workload, &ctx, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            let value = report.value(name).unwrap_or(0.0);
            (
                name.to_string(),
                obj(vec![
                    ("value", Json::F64(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let correct = report.failed == 0 && report.attempted > 0;
    let mut record = vec![
        (
            "stamp".to_string(),
            stamp::stamp(&ctx, &args.workload, args.trace),
        ),
        (
            "failed_frac".to_string(),
            Json::F64(report.failed as f64 / report.attempted.max(1) as f64),
        ),
        (
            "failures".to_string(),
            Json::Arr(report.failures.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    record.extend(report.record.iter().cloned());
    let record_line = obj(vec![("record", Json::Obj(record))]).to_json();
    println!("{record_line}");
    let _ = std::fs::create_dir_all(&ctx.out_dir);
    let _ = std::fs::write(
        ctx.out_dir.join(format!(
            "{}-seed{}-trace{}.record.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        )),
        format!("{record_line}\n"),
    );
    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(report.attempted.max(1))),
        ("failed", Json::U64(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
