#!/usr/bin/env python3
"""Entry point of the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the driver from source into
.bench_build (configured once; later runs only re-check it), runs one
workload, checks that the metrics it printed are exactly the ones
BENCHMARK.json declares for the mode, compares its exact counts with
pinned.json, and forwards its output.  The last line of stdout is the
result JSON.  A failed build, run or check exits non-zero without a result.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench_driver"
BUILD_TIMEOUT_S = 840  # configure + build, within a first run's 900 s
RUN_MARGIN_S = 120  # set-up and the last request's overshoot, beyond --seconds


class BenchError(Exception):
    pass


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(targets=("perfbench_driver",)):
    """Configure (once) and build the given targets; output goes to stderr."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (BUILD / "CMakeFiles" / "Makefile.cmake").exists():  # generated
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, deadline)
    jobs = str(min(os.cpu_count() or 1, 4))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
               *targets], deadline)


def run_quiet(cmd, deadline):
    # A session of its own, so a timeout also stops the compilers it spawned.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"failed ({proc.returncode}): {' '.join(cmd)}")


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, spec, trace):
    """The result line's shape, and names and units as BENCHMARK.json has them."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise BenchError(f"attempted = {result['attempted']!r}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(spec, trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}"
                         f" extra {extra} wrong units {units}")


def pin_lines(workload, seed, counts):
    """Exact counts against pinned.json: any drift is a behaviour change."""
    with open(HERE / "pinned.json") as f:
        pinned = json.load(f).get(workload, {}).get(str(seed))
    if pinned is None:
        return [f"counts: seed {seed} of {workload} is not pinned"]
    drift = [f"behaviour change: {workload} seed {seed} {name} pinned "
             f"{pinned[name]} now {counts.get(name)}"
             for name in sorted(pinned) if counts.get(name) != pinned[name]]
    return drift or [f"counts: match pinned.json for {workload} seed {seed}"]


def run(workload, seed, seconds, trace):
    """Runs one workload; returns (driver stdout lines, parsed last line)."""
    spec = load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload!r}")
    build()
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver timed out: {' '.join(cmd)}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"driver failed ({proc.returncode}): {' '.join(cmd)}")
    result = json.loads(lines[-1])
    check_result(result, spec, trace)
    return lines, result


def parse_prefixed(lines, prefix):
    for line in lines:
        if line.startswith(prefix + " "):
            return json.loads(line[len(prefix) + 1:])
    raise BenchError(f"driver printed no '{prefix}' line")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        lines, _ = run(args.workload, args.seed, args.seconds, args.trace)
        extra = pin_lines(args.workload, args.seed,
                          parse_prefixed(lines, "counts"))
    except (BenchError, OSError, ValueError) as e:
        log(e)
        return 1
    for line in lines[:-1] + extra + lines[-1:]:
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
