"""hopfkit benchmark: one run of one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hopfkit is imported from ``src/``.  Each
run measures set-up time (fresh interpreter to ``hopfkit.cli`` imported,
median of several imports, half before and half after the workload), times
a fixed ``Fraction`` loop before and after the workload (``host.calib_ms``,
reported but never used to rescale), and runs the workload in a fresh
worker process (``worker.py``).  The end-to-end times are given at the
nominal host speed of ``hostspeed.py``, from reference samples taken beside
each timed import and every 0.1 s during the workload; the raw wall times
are printed beside them.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``norm_wall_s``, ``peak_rss_mb``, ``setup_s``); with
``--trace 1`` they are the per-layer ones listed in ``BENCHMARK.json``.
The lines before it print every metric by name with its unit, the full
per-layer table of a traced run, and ``fail_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from hostspeed import normalised, reference_loop
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 20       # timed imports, half before the workload and half after
SETUP_REFS = 2            # reference samples before and after each timed import
CALIB_REPEATS = 3
RUN_LIMIT_S = 170.0       # a run must end within 180 s

CALIB_ITERS = 20000
END_TO_END = {"norm_wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_names() -> list[str]:
    """Per-layer metric names, as listed in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def unit_of(name: str) -> str:
    """Unit of a per-layer table entry, read from its name."""
    if name.endswith("_ns") or "_ns." in name:
        return "ns"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def calib_ms() -> float:
    """Median time of a fixed stdlib Fraction loop, in ms."""
    samples = []
    for _ in range(CALIB_REPEATS):
        t0 = perf_counter()
        acc = reference_loop(CALIB_ITERS)
        samples.append((perf_counter() - t0) * 1e3)
    if acc <= 0:
        raise AssertionError("calibration loop miscomputed")
    return statistics.median(samples)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# a fresh interpreter that takes reference samples before and after importing
# hopfkit.cli and prints their times; ``hostspeed`` imports only stdlib modules
# that hopfkit.cli imports too
SETUP_SCRIPT = f"""
import sys
sys.path.insert(0, {HERE!r})
from hostspeed import reference_sample
refs = [reference_sample() for _ in range({SETUP_REFS})]
import hopfkit.cli
refs += [reference_sample() for _ in range({SETUP_REFS})]
print(*refs)
"""


def setup_samples(env, n: int) -> list[tuple[float, float]]:
    """``n`` times from a fresh interpreter to ``hopfkit.cli`` imported, each as
    (wall, at nominal host speed), both without the reference samples' time."""
    cmd = [sys.executable, "-c", SETUP_SCRIPT]
    samples = []
    for _ in range(n):
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                              text=True)
        wall = perf_counter() - t0
        refs = [float(x) for x in proc.stdout.split()]
        wall -= sum(refs)
        samples.append((wall, normalised(wall, refs)))
    return samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hopfkit benchmark: one run of one workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hopfkit", "cli.py")):
        print(f"error: hopfkit sources not found under {SRC}", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = perf_counter()
    env = child_env()
    calib_before = calib_ms()
    setup = []
    if not args.trace:
        setup_samples(env, 1)             # not timed: it may compile bytecode
        setup = setup_samples(env, SETUP_REPEATS // 2)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S - (perf_counter() - started))
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        setup += setup_samples(env, SETUP_REPEATS - len(setup))
    calib_after = calib_ms()

    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failures = [k for p in passes for k in p["failures"]]
    probe_errors = result.get("probe_errors", [])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}")
    print(f"fail_frac {len(failures) / attempted:.4f} ratio  ({len(failures)} of {attempted} jobs)")
    for key in sorted(set(failures)):
        print(f"  golden mismatch: {key}")
    for err in probe_errors:
        print(f"  probe error: {err}")
    print(f"host.calib_ms {calib_before:.3f} ms before, {calib_after:.3f} ms after")

    if args.trace:
        table = result["table"]
        table["host.calib_ms"] = statistics.median([calib_before, calib_after])
        for name in sorted(table):
            print(f"layer {name} {table[name]!r} {unit_of(name)}")
        metrics = {name: {"value": table.get(name, 0), "unit": unit_of(name)}
                   for name in per_layer_names()}
    else:
        norms = [p["norm_wall_s"] for p in passes]
        q1, med, q3 = quartiles(norms)
        print(f"norm_wall_s {med!r} s  (median of {len(norms)} passes; q1 {q1!r}, q3 {q3!r})")
        print("  passes: " + " ".join(f"{w:.3f}" for w in norms))
        print("  raw wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in passes)
              + "  reference ms: " + " ".join(f"{p['ref_ms']:.3f}" for p in passes))
        print(f"cpu_s {statistics.median(p['cpu_s'] for p in passes)!r} s")
        print(f"peak_rss_mb {result['peak_rss_mb']!r} MB")
        setup_s = statistics.median(norm for _, norm in setup)
        print(f"setup_s {setup_s!r} s  (median of {len(setup)}; raw wall median "
              f"{statistics.median(wall for wall, _ in setup)!r} s)")
        values = {"norm_wall_s": med, "peak_rss_mb": result["peak_rss_mb"],
                  "setup_s": setup_s}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failures and not probe_errors, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
