//! The machine and build stamp written into every output record.

use crate::{obj, Ctx};
use pp_service::json::Json;

/// The CPU model name from `/proc/cpuinfo`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The data/unified cache sizes of cpu0, keyed `L1d`, `L2`, `L3`, … as read
/// from `/sys/devices/system/cpu/cpu0/cache`.
#[must_use]
pub fn caches() -> Vec<(String, String)> {
    let root = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &std::path::Path, f: &str| {
        std::fs::read_to_string(dir.join(f))
            .map(|s| s.trim().to_string())
            .ok()
    };
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = root.join(format!("index{i}"));
        let (Some(level), Some(kind), Some(size)) =
            (read(&dir, "level"), read(&dir, "type"), read(&dir, "size"))
        else {
            continue;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push((format!("L{level}{suffix}"), size));
    }
    out
}

fn env_or_unknown(key: &str) -> Json {
    Json::Str(std::env::var(key).unwrap_or_else(|_| "unknown".to_string()))
}

/// The stamp: parallelism, CPU, caches, toolchain, source identity and the
/// invocation's arguments.  `rustc -V`, the git commit and a digest of the
/// sources are passed in by `run.py` (`PERFBENCH_RUSTC`,
/// `PERFBENCH_COMMIT`, `PERFBENCH_SOURCE_DIGEST`).
#[must_use]
pub fn stamp(ctx: &Ctx, workload: &str, trace: bool) -> Json {
    obj(vec![
        (
            "available_parallelism",
            Json::U64(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64,
            ),
        ),
        ("threads_used", Json::U64(ctx.threads as u64)),
        ("cpu_model", Json::Str(cpu_model())),
        (
            "caches",
            Json::Obj(
                caches()
                    .into_iter()
                    .map(|(k, v)| (k, Json::Str(v)))
                    .collect(),
            ),
        ),
        ("rustc", env_or_unknown("PERFBENCH_RUSTC")),
        ("git_commit", env_or_unknown("PERFBENCH_COMMIT")),
        ("source_digest", env_or_unknown("PERFBENCH_SOURCE_DIGEST")),
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::U64(ctx.seed)),
        ("seconds", Json::F64(ctx.seconds)),
        ("trace", Json::Bool(trace)),
    ])
}
