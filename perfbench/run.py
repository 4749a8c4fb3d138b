#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload lu_goodwin --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. It configures perfbench/ (a CMake package
that builds the rapid libraries from src/ in Release) into .bench_build/,
runs the perfbench binary, echoes its table, and prints as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end list of BENCHMARK.json, with --trace 1 the
per_layer list. A per-layer metric that a workload does not exercise is
printed as 0.

Exit codes: 0 clean; 1 a correctness finding (the result line says
"correct": false); 2 the benchmark could not build or run (no result line).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no rapid sources under {ROOT / 'src'}; run from a checkout")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:3])} exited {done.returncode}")
    return BUILD / "perfbench"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["lu_goodwin", "chol_bcsstk24", "svc_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    binary = build()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = BUILD / f"report-{tag}.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--report={report_path}",
           f"--source_id={source_id()}"]
    if args.trace:
        cmd.append(f"--spans={BUILD / f'spans-{tag}.json'}")
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"perfbench binary did not finish: {e}")
    if done.returncode not in (0, 1):
        fail(f"perfbench binary exited {done.returncode}")
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read the binary's report: {e}")

    measured = {m["name"]: m for m in report["metrics"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = done.returncode == 0 and not report["findings"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {name} was not measured")
            value = 0.0  # the layer is not exercised by this workload
        else:
            if got["unit"] != unit:
                fail(f"{name}: the binary reports {got['unit']}, "
                     f"BENCHMARK.json says {unit}")
            value = float(got["value"])
        if not math.isfinite(value):
            # Only failed requests make a latency infinite: they miss any
            # limit, so the run is not correct.
            print(f"perfbench: {name} is {value}", file=sys.stderr)
            correct = False
            value = sys.float_info.max
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
