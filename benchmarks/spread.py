"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --workloads fit grid --seeds 1-10

Runs benchmarks/run.py once per (workload, seed), one run at a time, and
prints for each metric the median, the quartiles and the spread: the
distance between the first and third quartile as a share of the median,
next to a third of the metric's bound from BENCHMARK.json, and the
failed / attempted share of every run, which must not vary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+",
                    default=["fit", "grid", "duality", "cli"])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for wl in args.workloads:
        values = {}
        fail_ratios = set()
        for seed in args.seeds:
            res = subprocess.run(
                [sys.executable, "benchmarks/run.py", "--workload", wl,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if res.returncode != 0:
                sys.exit(f"{wl} seed {seed} failed:\n{res.stderr[-2000:]}")
            result = json.loads(res.stdout.strip().splitlines()[-1])
            fail_ratios.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in result["metrics"].items()), flush=True)
        # Whole rounds fail the same share of ops at every seed; a share
        # that varies means two sets of runs can disagree on failures.
        print(f"  {wl:<8} fail_ratio {sorted(fail_ratios)}"
              + ("" if len(fail_ratios) == 1 else "  VARIES"), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 or name == "setup_s" else "  WIDE"
            print(f"  {wl:<8} {name:<14} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} (bound/3 "
                  f"{bounds[name] / 3:.4f}){flag}", flush=True)


if __name__ == "__main__":
    main()
