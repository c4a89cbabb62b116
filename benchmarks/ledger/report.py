#!/usr/bin/env python3
"""Run every workload and print the whole ledger, or measure its noise.

    python3 benchmarks/ledger/report.py               # every metric, once
    python3 benchmarks/ledger/report.py --aa 3        # A/A: same commit x3
    python3 benchmarks/ledger/report.py --aa 10 --vary-seed

Without ``--aa`` each workload runs untraced and traced and every declared
metric is printed with its unit.  With ``--aa N`` (N >= 3) each workload
runs untraced N times on this commit; per end-to-end metric the table shows
the spread ``(max - min) / median`` and the interquartile spread
``(q3 - q1) / median`` beside the metric's bound, and the exit status is 1
when a spread exceeds its bound (``setup_s`` is reported, not gated: its
bound guards the median).  Each run is its own process, so peak memory and
caches do not leak from one to the next.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` process; returns its last-line object."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_ledger(spec: dict, seed: int, seconds: float) -> int:
    failed = 0
    for wl in spec["workloads"]:
        name = wl["name"]
        print(f"\n== {name}: {wl['why']}")
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            line = run_once(name, seed, seconds, trace)
            failed += line["failed"]
            print(f"-- {kind}: attempted {line['attempted']}, "
                  f"failed {line['failed']}, correct {line['correct']}")
            for metric, m in line["metrics"].items():
                if trace and m["value"] == 0.0:
                    continue        # layer not exercised by this workload
                print(f"   {metric:34s} {m['value']:14.6g} {m['unit']}")
    return 1 if failed else 0


def aa(spec: dict, runs: int, seed: int, seconds: float,
       vary_seed: bool) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    over = []
    seeds = f"seeds {seed}..{seed + runs - 1}" if vary_seed else f"seed {seed}"
    print(f"A/A: {runs} untraced runs per workload, {seeds}, "
          f"{seconds:g} s each")
    print(f"{'workload':16s} {'metric':20s} {'median':>12s} "
          f"{'(max-min)/med':>14s} {'IQR/med':>9s} {'bound':>6s}")
    for wl in spec["workloads"]:
        name = wl["name"]
        lines = [run_once(name, seed + i if vary_seed else seed, seconds, 0)
                 for i in range(runs)]
        if any(not ln["correct"] for ln in lines):
            over.append(f"{name}: a run was not correct")
        for metric, bound in bounds.items():
            vals = [ln["metrics"][metric]["value"] for ln in lines]
            med = statistics.median(vals)
            spread = (max(vals) - min(vals)) / med
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med
            flag = ""
            if metric != "setup_s" and spread > bound:
                flag = "  EXCEEDS"
                over.append(f"{name}.{metric}: spread {spread:.3f} > {bound}")
            print(f"{name:16s} {metric:20s} {med:12.5g} {spread:14.3f} "
                  f"{iqr:9.3f} {bound:6.2f}{flag}", flush=True)
    for line in over:
        print(f"FAIL {line}")
    return 1 if over else 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--aa", type=int, metavar="N", default=0,
                    help="A/A mode: N >= 3 untraced runs per workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--vary-seed", action="store_true",
                    help="A/A: run i uses seed + i, as the PR driver does")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    if args.aa:
        if args.aa < 3:
            ap.error("--aa needs at least 3 runs")
        return aa(spec, args.aa, args.seed, args.seconds, args.vary_seed)
    return print_ledger(spec, args.seed, args.seconds)


if __name__ == "__main__":
    raise SystemExit(main())
