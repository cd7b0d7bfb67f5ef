#!/usr/bin/env python3
"""Compare two checkouts on the benchmark's end-to-end metrics.

    python3 perfbench/compare.py --base PARENT --change CHANGE [--workload W ...]

PARENT and CHANGE are checkout roots.  Both sides run this benchmark's own
run.py and BENCHMARK.json, so code and settings are identical.  Each
workload gets 10 pairs of runs of `run_seconds` each; pair i runs both
sides at seed 1000 + i, alternating which side goes first.

For each workload and metric it prints each side's median and quartiles,
the spread (interquartile range over median) and a verdict:

* improved: the change wins at least 9 of the 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
* worse: the change's median is worse than the parent's by more than the
  metric's bound;
* unresolved: either side's spread exceeds the bound, unless every run of
  the change reads better than every run of the parent;
* unchanged: otherwise.

Comparing a checkout with itself (`--base . --change .`) is the
benchmark's own stability check: every verdict should read unchanged with
spreads below the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
PAIRS = 10
SEED0 = 1000


def _bench() -> Dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(root: str, workload: str, seed: int, seconds: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": proc.stderr.strip()[-2000:]}
    return json.loads(lines[-1])


def _quartiles(values: List[float]):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base: List[float], change: List[float], bound: float, lower_better: bool) -> str:
    sign = 1.0 if lower_better else -1.0
    mb, q1b, q3b = _quartiles(base)
    mc, q1c, q3c = _quartiles(change)
    if (q3b - q1b) / mb > bound or (q3c - q1c) / mc > bound:
        if max(sign * c for c in change) < min(sign * b for b in base):
            return "improved"
        return "unresolved"
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    if wins >= 9 and abs(mc - mb) > q3b - q1b:
        return "improved"
    if sign * (mc - mb) / mb > bound:
        return "worse"
    return "unchanged"


def report(runs: List[Dict]) -> int:
    """Print the table; returns the number of failed runs."""
    bench = _bench()
    failed = [r for r in runs if not r["result"]["correct"]]
    for r in failed:
        print(f"FAILED run: {r['side']} {r['workload']} seed {r['seed']}: "
              f"{r['result'].get('error', '')}")
    for workload in dict.fromkeys(r["workload"] for r in runs):
        print(f"\n{workload}")
        for m in bench["end_to_end"]:
            name = m["name"]
            vals = {}
            for side in ("base", "change"):
                rs = sorted((r for r in runs if r["side"] == side and r["workload"] == workload
                             and name in r["result"]["metrics"]), key=lambda r: r["pair"])
                vals[side] = [r["result"]["metrics"][name]["value"] for r in rs]
            cells = []
            for side, values in vals.items():
                if not values:
                    cells.append(f"{side}: no data")
                    continue
                med, q1, q3 = _quartiles(values)
                cells.append(f"{side} {med:.4g} [{q1:.4g}, {q3:.4g}] spread {(q3 - q1) / med:.3f}"
                             f" n={len(values)}")
            line = f"  {name:<12} " + " | ".join(cells)
            if len(vals["base"]) == len(vals["change"]) == PAIRS:
                line += "  -> " + verdict(vals["base"], vals["change"], m["bound"],
                                          m["better"] == "lower")
            else:
                line += "  -> unresolved (runs failed)"
            print(line + f"  (bound {m['bound']})")
    return len(failed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="parent checkout root")
    ap.add_argument("--change", required=True, help="changed checkout root")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args()

    bench = _bench()
    sides = [("base", os.path.abspath(args.base)), ("change", os.path.abspath(args.change))]
    runs = []
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        for i in range(PAIRS):
            order = sides if i % 2 == 0 else sides[::-1]
            for side, root in order:
                rec = {"side": side, "workload": workload, "pair": i, "seed": SEED0 + i,
                       "result": run_once(root, workload, SEED0 + i, bench["run_seconds"])}
                runs.append(rec)
                print(f"{workload} pair {i} {side}: "
                      + json.dumps({k: v["value"] for k, v in rec["result"]["metrics"].items()}),
                      flush=True)
    return 1 if report(runs) else 0


if __name__ == "__main__":
    sys.exit(main())
