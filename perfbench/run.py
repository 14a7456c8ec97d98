#!/usr/bin/env python3
"""Build and run the NCS benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, default seed, 10 s each

Builds the library from ../src and the benchmark driver with CMake into
$CARGO_TARGET_DIR (default .bench_build, relative to the working directory),
runs one workload and passes its output through. The last stdout line is the
result object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list; the names are checked against BENCHMARK.json. Exits non-zero
without printing a result when the sources are missing, the build fails, the
run fails or times out, or the metric set does not match.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["wan_ring_p1024", "lan_p2p_mix", "paper_apps", "wan_lossy_coll"]
DEFAULT_SEED = 1995
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 170  # per workload run, after the build


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else Path.cwd() / d


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"NCS sources not found next to {HERE.name}/ (need ../CMakeLists.txt and ../src)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "ncs_perfbench", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    exe = out / "ncs_perfbench"
    if not exe.is_file():
        fail("build produced no ncs_perfbench binary")
    return exe


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    with open(spec) as f:
        doc = json.load(f)
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def run(exe, out, workload, seed, seconds, trace):
    (out / "out").mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", str(out / "out")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: run timed out")
    lines = r.stdout.rstrip("\n").splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail(f"{workload}: benchmark exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(r.stdout)
        fail(f"{workload}: last output line is not a JSON result")
    want = expected_metrics(trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        sys.stderr.write(r.stdout)
        fail(f"{workload}: metrics differ from BENCHMARK.json")
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    if args.workload is not None:
        lines, _ = run(exe, out, args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        return

    ok = True
    for w in WORKLOADS:
        lines, result = run(exe, out, w, args.seed, args.seconds, args.trace)
        print(f"== {w}")
        print("\n".join(lines[:-1]))
        ok = ok and result["correct"] and result["failed"] == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
