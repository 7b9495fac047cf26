"""The benchmark's own tests.

usage: python3 -m pytest perfbench -q      (from the repository root)

The smoke test runs one pass of every workload (about 75 s in all).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import probe  # noqa: E402
from run import unit_of  # noqa: E402
from workloads import WHY, WORKLOADS, all_jobs, job_key, pass_jobs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(HERE, "golden.json")) as _fh:
    GOLDEN = json.load(_fh)

# cheap jobs that reach every traced layer: catalog, certify, io, dual,
# bosonize, nichols up to degree 4
TRACE_JOBS = [
    {"argv": ["certify", "taft", "--n", "3"], "outputs": []},
    {"argv": ["build", "taft", "--n", "3", "--out", "t.json"],
     "outputs": ["t.json", "t.sidecar.json"]},
    {"argv": ["dual", "t.json", "--out", "d.json"], "outputs": ["d.json"]},
    {"argv": ["verify", "d.json"], "outputs": []},
    {"argv": ["bosonize", "--datum", "c2", "--out", "b.json"], "outputs": ["b.json"]},
    {"argv": ["nichols", "--qline", "5:2"], "outputs": []},
    {"argv": ["nichols", "--p", "5", "--class", "y:1", "--rep", "psi:1", "--cutoff", "2"],
     "outputs": []},
]

_TRACE_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import hopfkit.cli as cli
from hostspeed import Sampler
from worker import traced_pass
jobs = json.loads(sys.argv[1])
sampler = Sampler()
sampler.start()
try:
    _, table = traced_pass(cli, jobs, {{}}, sys.argv[2], sampler)
finally:
    sampler.stop()
print(json.dumps(table))
"""


def _traced_table(tmp_path, name):
    script = _TRACE_SCRIPT.format(src=os.path.join(ROOT, "src"), here=HERE)
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(TRACE_JOBS),
                           str(tmp_path / name)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def test_counts_repeat_exactly_across_processes(tmp_path):
    a = _traced_table(tmp_path, "a")
    b = _traced_table(tmp_path, "b")
    counted = [k for k in a if k.endswith(".calls")] + [
        "linalg.echelon.rows", "linalg.input_nnz", "linalg.input_cells",
        "ydnichols.symmetrizer.nnz.deg4", "io.bytes_read", "io.bytes_written"]
    assert a["ydnichols.symmetrizer.nnz.deg4"] > 0
    assert a["io.bytes_read"] > 0
    assert {k: a[k] for k in counted} == {k: b[k] for k in counted}


def test_traced_self_times_account_for_wall(tmp_path):
    table = _traced_table(tmp_path, "a")
    layers = sum(v for k, v in table.items() if k.count(".") == 1 and k.endswith(".self_s"))
    covered = layers + table["trace.hook_s"] + table["trace.harness_s"]
    assert covered == pytest.approx(table["trace.wall_s"], rel=1e-9)
    assert 0 <= table["trace.harness_s"] < 0.05 * table["trace.wall_s"]


def test_traced_run_overhead_is_relative_to_the_plain_pass(monkeypatch, tmp_path):
    import hopfkit.cli as cli
    import worker

    monkeypatch.setattr(worker, "pass_jobs", lambda workload, rng: TRACE_JOBS[:1])
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        result = worker.traced_run(cli, "h8p-deep", random.Random(1), 1, {},
                                   str(tmp_path / "w"), sampler)
    finally:
        sampler.stop()
    plain, traced = (p["norm_wall_s"] for p in result["passes"])
    table = result["table"]
    assert table["trace.plain_norm_wall_s"] == plain
    assert table["trace.overhead_frac"] == pytest.approx(traced / plain - 1.0)
    assert result["probe_errors"] == []


def test_normalised_gives_time_at_nominal_speed():
    nominal = hostspeed.REF_NOMINAL_S
    assert hostspeed.normalised(3.0, [nominal, nominal]) == pytest.approx(3.0)
    # a host at half speed throughout did half the work in the same time
    assert hostspeed.normalised(3.0, [2 * nominal] * 4) == pytest.approx(1.5)
    # half the time at full speed, half at half speed
    assert hostspeed.normalised(2.0, [nominal, 2 * nominal]) == pytest.approx(1.5)


def test_sampler_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 5 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert sampler.spent >= sum(sampler.samples)
    assert signal.getsignal(signal.SIGALRM) == before


def test_tracer_restores_every_wrapped_attribute():
    import hopfkit.cli as cli
    from hopfkit import cyclotomic, linalg
    from tracer import Tracer

    before = (cli.main, linalg.nullspace, vars(cyclotomic.CycNumber)["__mul__"])
    tracer = Tracer()
    tracer.install()
    assert linalg.nullspace is not before[1]
    tracer.uninstall()
    assert (cli.main, linalg.nullspace, vars(cyclotomic.CycNumber)["__mul__"]) == before


def test_probe_oracle_agrees_with_hopfkit():
    metrics, errors = probe.run_probe(seed=7)
    assert errors == []
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"] if m["unit"] == "ns"}
    assert probe.phi_poly(12) == [1, 0, -1, 0, 1]


def test_probe_catches_a_wrong_kernel(monkeypatch):
    from hopfkit.cyclotomic import CycNumber

    right = CycNumber.__mul__

    def wrong(self, other):
        out = right(self, other)
        if isinstance(other, CycNumber) and out.conductor == 20:
            return out + CycNumber.from_rational(20, Fraction(1, 3))
        return out

    monkeypatch.setattr(CycNumber, "__mul__", wrong)
    _, errors = probe.run_probe(seed=7)
    assert any(e.startswith("mul N=20") for e in errors)


def test_every_seeded_job_has_a_golden_record():
    for workload in WORKLOADS:
        keys = {job_key(j) for j in all_jobs(workload)}
        assert keys <= set(GOLDEN), workload
        for seed in range(20):
            rng = random.Random(seed)
            for _ in range(3):
                assert {job_key(j) for j in pass_jobs(workload, rng)} <= keys


def test_seed_fixes_the_inputs():
    for workload in WORKLOADS:
        a = [pass_jobs(workload, random.Random(5)) for _ in range(2)]
        assert a[0] == a[1]


def test_benchmark_json_lists_what_the_runs_report():
    for w in SPEC["workloads"]:
        assert w["why"] == WHY[w["name"]]
    for m in SPEC["per_layer"]:
        assert unit_of(m["name"]) == m["unit"], m["name"]


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "h8p-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_matches_golden(workload):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           workload, "--seed", "3", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
