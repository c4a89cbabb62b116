#!/usr/bin/env python3
"""The performance ledger: run one workload, print its metrics.

    python3 benchmarks/ledger/run.py --workload quake_serial --seed 0 \
        --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Everything else goes to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_T_START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger.env import bootstrap, stop_children  # noqa: E402

bootstrap()     # thread caps and sys.path, before numpy or repro load

from ledger.driver import run_workload  # noqa: E402
from ledger.workloads import NAMES, SIZES  # noqa: E402

#: numpy + the program's packages, loaded once per process: part of setup_s
IMPORT_S = time.perf_counter() - _T_START


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=0,
                    help="the only source of randomness in the inputs")
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="how long the run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics")
    ap.add_argument("--sizing", choices=sorted(SIZES), default="full",
                    help="'tiny' only exercises code paths (self-tests)")
    ap.add_argument("--out", help="also write the full result document")
    args = ap.parse_args(argv)

    try:
        doc = run_workload(args.workload, seed=args.seed,
                           seconds=args.seconds, trace=bool(args.trace),
                           sizing=args.sizing, import_s=IMPORT_S)
    finally:
        # every path out: no worker, no multiprocessing helper left running
        stop_children()
    line = doc["line"]
    err = sys.stderr
    print(f"{args.workload} seed={args.seed} sizing={args.sizing} "
          f"trace={args.trace}: attempted {line['attempted']}, "
          f"failed {line['failed']}", file=err)
    for why in doc["failures"]:
        print(f"  FAILED {why}", file=err)
    for key, s in doc["detail"].items():
        if isinstance(s, dict) and "median" in s:
            print(f"  {key}: median {s['median']:.4g} "
                  f"[{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}", file=err)
    for name, m in line["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}", file=err)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
