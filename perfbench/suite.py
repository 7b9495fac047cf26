"""Run every workload of BENCHMARK.json through ``run.py`` and print each
metric with its unit.

usage: python3 perfbench/suite.py [--baseline PATH]

Each workload runs RUNS times untraced, with seeds 1..RUNS, at the
``run_seconds`` of BENCHMARK.json, and once traced (seed 1).  The summary
gives, per workload, the median and quartiles over the runs of every
end-to-end metric, ``fail_frac`` over all jobs attempted, and the traced
per-layer table.  ``--baseline PATH`` also writes that summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import WHY

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run; returns (result line, per-layer table printed before it)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    table = {}
    for line in lines:
        if line.startswith("layer "):
            _, name, value, unit = line.split()
            table[name] = {"value": float(value), "unit": unit}
    return json.loads(lines[-1]), table


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "n": len(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", help="write the summary to this JSON file")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    summary = {"python": platform.python_version(), "machine": platform.machine(),
               "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        e2e, attempted, failed = {}, 0, 0
        for seed in range(1, RUNS + 1):
            result, _ = run_once(workload, seed, seconds, 0)
            print(f"   {workload} seed {seed}: " + "  ".join(
                f"{k} {m['value']:.4f}" for k, m in result["metrics"].items()), flush=True)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                e2e.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        result, table = run_once(workload, 1, seconds, 1)
        entry = {"why": WHY[workload], "fail_frac": failed / attempted,
                 "jobs_attempted": attempted, "end_to_end": {}, "per_layer": table}
        print(f"== {workload}: fail_frac {failed / attempted} ratio ({failed} of {attempted} jobs)")
        for name, m in e2e.items():
            stats = summarize(m["values"])
            entry["end_to_end"][name] = dict(stats, unit=m["unit"], values=m["values"])
            print(f"   {name} {stats['median']:.4f} {m['unit']}  (median of {stats['n']})  "
                  f"q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  spread {stats['spread']:.4f}")
        for name in sorted(table):
            print(f"   {name} {table[name]['value']!r} {table[name]['unit']}")
        summary["workloads"][workload] = entry
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
