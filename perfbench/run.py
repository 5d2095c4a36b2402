#!/usr/bin/env python3
"""Build and run one POLARIS benchmark workload.

    python3 perfbench/run.py --workload suite_audit --seed 1 --seconds 20 --trace 0

Builds the perfbench binary (and libpolaris from this checkout's sources) into
.bench_build/ - or $CARGO_TARGET_DIR when set - then runs the workload in a
fresh scratch directory there. Every line it prints is echoed; the last line
printed is the result, shaped to BENCHMARK.json: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1 (a layer the workload
does not exercise reads 0). Exits 0 only when the build, the run and every
output check succeeded.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no POLARIS sources in {ROOT}")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def shape(result, spec, trace):
    """The binary's result line restricted to BENCHMARK.json's metrics."""
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    unknown = sorted(set(result["metrics"]) - known)
    if unknown:
        fail(f"benchmark reported metrics BENCHMARK.json does not list: {unknown}")
    metrics = {}
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not trace:
                fail(f"benchmark did not report end-to-end metric {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} but BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    out_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(out_root / "perfbench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        fail(f"build failed: {error}")

    run_dir = out_root / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        completed = subprocess.run(command, cwd=run_dir, stdout=subprocess.PIPE,
                                   text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = completed.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {completed.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"benchmark's last line is not JSON: {lines[-1]!r}")
    print(json.dumps({"raw": result}))
    correct = bool(result["correct"]) and completed.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": shape(result, spec, args.trace),
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
