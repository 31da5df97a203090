#!/usr/bin/env python3
"""Build the repo benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload consensus-k8 --seed 1 --seconds 20 --trace 0

The benchmark binary is built with cargo (release, offline) into
$CARGO_TARGET_DIR, default `.bench_build`.  Build output goes to stderr; the
binary's stdout is passed through, so its last line is the result object.
Records and chrome traces land in `.bench_out/`.  Exit codes: the binary's
(0 ok, 1 a check failed, 2 bad arguments), 2 when the repository sources are
missing, 3 when the build fails.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# The crates the benchmark builds against; without them there is nothing
# to measure.
REQUIRED = [
    "Cargo.toml",
    "crates/pp-core/Cargo.toml",
    "crates/core/Cargo.toml",
    "crates/workloads/Cargo.toml",
    "crates/service/Cargo.toml",
    "crates/dynamics/Cargo.toml",
    "crates/analysis/Cargo.toml",
    "vendor/rand/Cargo.toml",
    "vendor/serde/Cargo.toml",
]
DIGEST_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/src", "perfbench/Cargo.toml"]


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    files = []
    for name in DIGEST_ROOTS:
        p = ROOT / name
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            files.extend(f for f in p.rglob("*") if f.is_file())
    for f in sorted(files):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_commit():
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or pathlib.Path(top).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return command_output(["git", "rev-parse", "HEAD"]) or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print("perfbench: repository sources missing: " + ", ".join(missing), file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "-V"]) or "unknown"
    env["PERFBENCH_COMMIT"] = git_commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
