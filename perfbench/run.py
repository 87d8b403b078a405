#!/usr/bin/env python3
"""Benchmark entry point: builds the harness and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  It builds the `perfbench` package
(release, offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), runs
the harness, checks its result against `BENCHMARK.json`, and prints two
lines: a record (build and host fingerprint, noise diagnostics, every
sample) and, last, the result object
`{"correct", "attempted", "failed", "metrics"}`.  Any failure to build,
run or validate exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Source trees whose content the digest in each record covers.
SOURCE_DIRS = ("crates", "src", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", ".cargo/config.toml")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_fingerprint():
    """The commit when the checkout is a git work tree, and a digest of the
    source files either way, so results from a tree without git still say
    which code they measured."""
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if len(top) == 2 and Path(top[0]).resolve() == ROOT:
            commit = top[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    paths = [ROOT / f for f in SOURCE_FILES if (ROOT / f).is_file()]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(ROOT / d):
            dirnames[:] = sorted(n for n in dirnames if not n.startswith(".") and n != "target")
            paths.extend(Path(dirpath) / n for n in filenames)
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    try:
        # Cargo's output goes to stderr so stdout stays the result channel.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def validate(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("nothing attempted")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        fail(f"metrics {sorted(set(metrics) ^ set(wanted))} differ from BENCHMARK.json")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != wanted[name]:
            fail(f"metric {name} is {m}, expected unit {wanted[name]}")
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} has value {value!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail("the repository's crates are missing: nothing to benchmark")
    if not 0 <= args.seed < 2**64:
        fail("seed must fit in 64 bits")

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build(env)

    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json")]
    env["PERFBENCH_SOURCE"] = json.dumps(source_fingerprint())
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"harness did not finish: {e}")
    if done.returncode != 0:
        fail(f"harness exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("harness printed no result")
    try:
        record = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except ValueError as e:
        fail(f"harness output is not JSON: {e}")
    validate(result, spec, args.trace)
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")), flush=True)


if __name__ == "__main__":
    main()
