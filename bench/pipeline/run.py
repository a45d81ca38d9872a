#!/usr/bin/env python3
"""Build bench_pipeline, run it on one workload, print one JSON result line.

Usage, from the repository root:

    python3 bench/pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is built from source with CMake into
$CARGO_TARGET_DIR/pipeline (default .bench_build/pipeline, relative to the
repository root). The binary's report goes to stderr; the last line of
stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0 and its
per-layer metrics with --trace 1. When the build or the run fails, the
script exits 1; it prints a result line only when the benchmark produced
one, with "correct": false if a correctness check failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j4", "--target",
                    "bench_pipeline"], check=True, stdout=sys.stderr)


def run_bench(cmd, timeout):
    """Run in its own process group so a timeout also stops forked reps."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: benchmark exceeded {timeout} s", file=sys.stderr)
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "pipeline"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    out = build_dir / "runs" / f"{args.workload}-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    code = run_bench([str(build_dir / "bench_pipeline"),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--out", str(out),
                      "--trace-out", str(out.with_suffix(".trace.json")),
                      "--work-dir", str(build_dir / "work" / args.workload)],
                     timeout=3 * args.seconds + 90)
    if code not in (0, 1) or not out.exists():
        return 1

    result = json.loads(out.read_text())
    w = result["workloads"][args.workload]
    if args.trace:
        section, wanted = w["per_layer"], spec["per_layer"]
    else:
        section, wanted = w["end_to_end"], spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = section[m["name"]]
        if got["unit"] != m["unit"]:
            print(f"run.py: {m['name']} is in {got['unit']}, BENCHMARK.json says "
                  f"{m['unit']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": int(w["attempted"]),
                      "failed": int(w["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
