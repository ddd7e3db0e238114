#!/usr/bin/env python3
"""Self-test of the repository benchmark (see README.md).

    python3 perfbench/selftest.py

1. Builds and runs perfbench_selftest: the colouring verdict accepts real
   Algorithm 4 colourings and rejects hand-made improper, out-of-palette
   and incomplete ones.
2. Checks that run.py's result check rejects a renamed metric and a wrong
   unit.
3. Runs every workload for one second in both modes and checks that the
   metrics printed carry exactly the names and units of BENCHMARK.json,
   that no request failed, and that the exact counts agree between modes.
Exits 0 iff every check holds.
"""
import copy
import subprocess
import sys

import run as bench


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    return ok


def rejects(result, spec, trace):
    try:
        bench.check_result(result, spec, trace)
    except bench.BenchError:
        return True
    return False


def main():
    spec = bench.load_spec()
    bench.build(("perfbench_driver", "perfbench_selftest"))
    good = expect(subprocess.run([str(bench.BUILD / "perfbench_selftest")])
                  .returncode == 0, "perfbench_selftest")

    counts = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            what = f"{workload} trace={trace}"
            try:
                lines, result = bench.run(workload, 1, 1, trace)
            except bench.BenchError as e:
                good &= expect(False, f"{what}: {e}")
                continue
            good &= expect(True, f"{what}: names and units match BENCHMARK.json")
            good &= expect(result["correct"] and result["failed"] == 0,
                           f"{what}: {result['attempted']} requests, "
                           f"{result['failed']} failed")
            counts.setdefault(workload, []).append(
                bench.parse_prefixed(lines, "counts"))
            if workload == "mc" and trace == 0:
                renamed = copy.deepcopy(result)
                renamed["metrics"]["p50ms"] = renamed["metrics"].pop("p50_ms")
                good &= expect(rejects(renamed, spec, 0),
                               "result check rejects a renamed metric")
                wrong_unit = copy.deepcopy(result)
                wrong_unit["metrics"]["setup_s"]["unit"] = "ms"
                good &= expect(rejects(wrong_unit, spec, 0),
                               "result check rejects a wrong unit")
                good &= expect(rejects(result, spec, 1),
                               "end-to-end metrics are not the per-layer set")
        pair = counts.get(workload, [])
        good &= expect(len(pair) == 2 and pair[0] == pair[1],
                       f"{workload}: exact counts agree between modes")

    print("selftest passed" if good else "selftest FAILED")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
