#!/usr/bin/env python3
"""Interleaved A/A steadiness check of the repository benchmark (README.md).

    python3 perfbench/aa.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                            [--write-pins]

Runs every workload once per seed on each of two sides, A and B, with the
same code on both, interleaving workloads and alternating which side goes
first.  For each workload and metric it prints, per side, the run count,
median and quartiles (statistics.quantiles(n=4)) and the quartile spread as
a share of the median, then how far side B's median moved from side A's,
against the metric's bound in BENCHMARK.json.  Every run's os.nivcsw and
os.steal_ms are listed so a disturbed run is visible.  Exact counts must
repeat for a seed across runs; --write-pins records them in pinned.json.
"""
import argparse
import json
import statistics
import sys

import run as bench


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = bench.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    runs = []  # (workload, seed, side, metrics, diag, counts)
    for i, seed in enumerate(args.seeds):
        sides = "AB" if i % 2 == 0 else "BA"
        for workload in workloads:
            for side in sides:
                try:
                    lines, result = bench.run(workload, seed, args.seconds, 0)
                    diag = bench.parse_prefixed(lines, "diag")
                    counts = bench.parse_prefixed(lines, "counts")
                except bench.BenchError as e:
                    sys.exit(f"aa: {workload} seed {seed}: {e}")
                metrics = {k: m["value"] for k, m in result["metrics"].items()}
                runs.append((workload, seed, side, metrics, diag, counts))
                print(f"run {workload:12} seed {seed:3} side {side} "
                      f"failed {result['failed']}/{result['attempted']} "
                      f"nivcsw {diag['os.nivcsw']:6.0f} "
                      f"steal_ms {diag['os.steal_ms']:6.0f}  " +
                      " ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                      flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in workloads:
        print(f"\n{workload}: metric, side n median q1 q3 spread, "
              "B vs A, bound")
        mine = [r for r in runs if r[0] == workload]
        for name in mine[0][3]:
            cells, medians = [], {}
            for side in "AB":
                vals = [r[3][name] for r in mine if r[2] == side]
                med, q1, q3, spread = summarize(vals)
                medians[side] = med
                bound = bounds[name]
                flag = ""
                if name != "setup_s" and spread > bound / 3:
                    flag, steady = " SPREAD>bound/3", False
                cells.append(f"{side} {len(vals)} {med:.6g} {q1:.6g} "
                             f"{q3:.6g} {spread:.3f}{flag}")
            shift = (medians["B"] - medians["A"]) / medians["A"]
            print(f"  {name:30} " + " | ".join(cells) + f" | B-A {shift:+.3f}" +
                  f" | bound {bounds[name]}")

    # Exact counts must repeat for a seed, on every side.
    repeat = True
    pins = {}
    for workload, seed, _, _, _, counts in runs:
        seen = pins.setdefault(workload, {}).setdefault(str(seed), counts)
        if seen != counts:
            print(f"counts differ for {workload} seed {seed}: {seen} vs "
                  f"{counts}")
            repeat = False
    if args.write_pins and repeat:
        path = bench.HERE / "pinned.json"
        merged = json.loads(path.read_text())
        for workload, by_seed in pins.items():
            merged.setdefault(workload, {}).update(by_seed)
        path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
        print(f"pinned counts written to {path}")
    return 0 if steady and repeat else 1


if __name__ == "__main__":
    sys.exit(main())
