"""Runs one workload in this process and prints one JSON result line.

Started by ``run.py`` in a fresh interpreter per run, so the peak RSS it
reports belongs to this workload alone.  Every job calls the public CLI
entry ``hopfkit.cli.main(argv)`` with stdout and stderr captured, inside
an emptied working directory, so the relative paths in ``wrote <path>``
messages stay stable.  A job fails when its exit code, the sha256 of its
stdout, or the sha256 of a file it writes differs from ``golden.json``.

Untraced (``--trace 0``): passes repeat while the next one is expected to
end within ``--seconds``; at least one pass runs.  Traced (``--trace 1``): the
cyclotomic probe, then the same jobs untraced and under the tracer; the
traced time over the untraced time is the tracing overhead.

Throughout, a ``hostspeed.Sampler`` times a reference loop every 0.1 s of
wall time.  Each pass reports its wall time with the samples' time taken
out (``wall_s``) and that time at the nominal host speed (``norm_wall_s``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter, process_time

from hostspeed import Sampler, normalised
from probe import run_probe
from tracer import Tracer
from workloads import job_key, pass_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_PATH = os.path.join(HERE, "golden.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(cli, job: dict, sampler: Sampler) -> tuple[dict, float, float]:
    """Run one job in the current directory; returns (record, wall, cpu),
    with the time of the sampler's reference loops taken out of both."""
    out, err = io.StringIO(), io.StringIO()
    spent = sampler.spent
    c0 = process_time()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(job["argv"])
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 2)
        except Exception:           # a crashing job is a failed job, not a crashed run
            code = "exception: " + traceback.format_exc().strip().splitlines()[-1]
    wall, cpu = perf_counter() - t0, process_time() - c0
    spent = sampler.spent - spent
    wall, cpu = wall - spent, cpu - spent
    files = {}
    for name in job["outputs"]:
        try:
            with open(name, "rb") as fh:
                files[name] = sha256(fh.read())
        except OSError:
            files[name] = "missing"
    record = {"exit": code, "stdout": sha256(out.getvalue().encode()), "files": files}
    return record, wall, cpu


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def run_pass(cli, jobs: list[dict], golden: dict, workdir: str, sampler: Sampler) -> dict:
    """One pass through ``jobs``; its wall time is the sum of the jobs', and
    the reference samples taken during it give that time at nominal speed."""
    reset_dir(workdir)
    os.chdir(workdir)
    sampler.sample()                 # at least one sample lies in every pass
    first = len(sampler.samples)
    try:
        wall = cpu = 0.0
        failures = []
        for job in jobs:
            record, w, c = run_job(cli, job, sampler)
            wall += w
            cpu += c
            if golden.get(job_key(job)) != record:
                failures.append(job_key(job))
    finally:
        os.chdir(ROOT)
    samples = sampler.samples[first - 1:]
    return {"wall_s": wall, "norm_wall_s": normalised(wall, samples), "cpu_s": cpu,
            "ref_ms": statistics.median(samples) * 1e3, "attempted": len(jobs),
            "failures": failures}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # kB on Linux


def untraced_run(cli, workload, rng, seconds, golden, workdir, sampler) -> dict:
    start = perf_counter()
    passes = []
    while True:
        passes.append(run_pass(cli, pass_jobs(workload, rng), golden, workdir, sampler))
        typical = statistics.median(p["wall_s"] for p in passes)
        if perf_counter() - start + typical > seconds:
            break
    return {"passes": passes}


def traced_run(cli, workload, rng, seed, golden, workdir, sampler) -> dict:
    """The probe, then one pass plain and the same jobs traced.  The overhead
    divides the traced time by the plain time, both at nominal host speed,
    so that host drift is taken out.  A first pass is not measurably slower
    than later ones, so the plain pass needs no warm-up pass before it."""
    sampler.stop()                   # the probe times ns-scale batches: no samples in them
    try:
        probe, probe_errors = run_probe(seed)
    finally:
        sampler.start()
    jobs = pass_jobs(workload, rng)
    plain = run_pass(cli, jobs, golden, workdir, sampler)
    traced, table = traced_pass(cli, jobs, golden, workdir, sampler)
    table.update(probe)
    table["trace.plain_norm_wall_s"] = plain["norm_wall_s"]
    table["trace.overhead_frac"] = traced["norm_wall_s"] / plain["norm_wall_s"] - 1.0
    table["cpu_s"] = plain["cpu_s"]
    table["host.ref_ms"] = (plain["ref_ms"] + traced["ref_ms"]) / 2
    return {"passes": [plain, traced], "table": table, "probe_errors": probe_errors}


def traced_pass(cli, jobs, golden, workdir, sampler) -> tuple[dict, dict]:
    """One pass under the tracer; returns (pass, per-layer table)."""
    tracer = Tracer()
    tracer.install()
    sampler.listener = tracer.exclude
    try:
        traced = run_pass(cli, jobs, golden, workdir, sampler)
    finally:
        sampler.listener = None
        tracer.uninstall()
    table = tracer.table()
    table["trace.wall_s"] = traced["wall_s"]
    table["trace.norm_wall_s"] = traced["norm_wall_s"]
    table["trace.harness_s"] = traced["wall_s"] - sum(tracer.self_s.values()) - tracer.hook_s
    return traced, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hopfkit.cli as cli

    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    rng = random.Random(args.seed)
    workdir = os.path.abspath(args.workdir)
    sampler = Sampler()
    sampler.start()
    try:
        if args.trace:
            result = traced_run(cli, args.workload, rng, args.seed, golden, workdir, sampler)
        else:
            result = untraced_run(cli, args.workload, rng, args.seconds, golden, workdir,
                                  sampler)
    finally:
        sampler.stop()
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
