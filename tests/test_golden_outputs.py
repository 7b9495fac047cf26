"""Byte-identity of the command-line outputs, as a standing check.

`tests/golden_outputs.json` holds, for each command below, the sha256 of its
stdout and stderr, its exit code and the sha256 of every file it writes.  The
commands run in-process through `cli.main`, in a scratch directory and with
relative file names, so no path reaches the outputs.  A change that is meant
to alter an output re-records the file with

    PYTHONPATH=src python tests/test_golden_outputs.py

and says so in its change notes.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from hopfkit import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")

# every test_certify_sweep member, as command-line family arguments
SWEEP = [
    "c_n --n 2", "product --ns 2,2", "dihedral --n 3", "dicyclic --n 2", "q8",
    "gamma4p --p 5", "taft --n 2", "b8",
    "a-m10 --p 3", "a-m10-dual --p 3", "a-m11 --p 3", "h4xcp --p 3", "a4p --p 3",
    "b4p --p 3", "fun-dic --p 3", "h8p --p 3",
    "dual-group --group cyclic --n 2", "dual-group --group product --ns 2,2",
    "dual-group --group dihedral --n 3", "dual-group --group dicyclic --n 2",
    "dual-group --group q8", "dual-group --group gamma4p --p 5",
    # both parity branches of the dihedral and dicyclic irreps
    "dihedral --n 4", "dicyclic --n 3",
    "dual-group --group dihedral --n 4", "dual-group --group dicyclic --n 3",
]
DATA = ["fun-dic", "a4p-chi2", "a4p-chi3", "c2"]
MODULES = ["y:1 psi:1", "x:1 chi:1", "trivial:0 beta:1", "trivial:0 alpha:1"]


def _family_jobs(family):
    return [f"build {family} --out h.json",
            f"certify {family} --json cert.json",
            "invariants h.json --expect h.sidecar.json --json inv.json",
            "simples h.json h.sidecar.json",
            "dual h.json --out d.json",
            "verify d.json"]


def _datum_jobs(datum):
    return [f"bosonize --datum {datum} --p 3 --out b.json",
            f"yd-verify --datum {datum} --p 3"]


def _module_jobs(module):
    cls, rep = module.split()
    return [f"yd-verify --p 5 --class {cls} --rep {rep}",
            f"nichols --p 5 --class {cls} --rep {rep} --cutoff 3"]


# Gamma_52 and its Yetter-Drinfeld modules: at p = 13 the twist l = 5 is not (p - 1)/2
GAMMA13 = ["certify gamma4p --p 13 --json cert.json",
           "yd-verify --p 13 --class y:1 --rep psi:1",
           "nichols --p 13 --class y:1 --rep psi:1 --cutoff 3",
           "yd-verify --p 13 --class x:1 --rep chi:1"]

# degree 4 of two x-classes: the ranks that change most when the rank runs on a column basis
NICHOLS4 = ["nichols --p 5 --class x:1 --rep chi:3 --cutoff 4",
            "nichols --p 5 --class x:2 --rep chi:1 --cutoff 4"]

# degree 5 of a y-class, where the memory guard stops the sweep before degree 6
NICHOLS5 = ["nichols --p 5 --class y:1 --rep psi:1 --cutoff 6"]

# group name -> the commands run in order in one scratch directory
GROUPS = {**{f: _family_jobs(f) for f in SWEEP},
          **{f"datum {d}": _datum_jobs(d) for d in DATA},
          **{f"module {m}": _module_jobs(m) for m in MODULES},
          "gamma4p --p 13": GAMMA13,
          "nichols degree 4": NICHOLS4,
          "nichols degree 5": NICHOLS5}


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _snapshot(directory) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = _sha(f.read())
    return out


def run_group(jobs, directory) -> dict:
    """{command: {stdout, stderr, code, files}} for the commands run in order in `directory`."""
    here = os.getcwd()
    os.chdir(directory)
    try:
        record = {}
        for job in jobs:
            before = _snapshot(".")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(job.split())
            after = _snapshot(".")
            record[job] = {"stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue()),
                           "code": code,
                           "files": {k: v for k, v in after.items() if before.get(k) != v}}
        return record
    finally:
        os.chdir(here)


def _golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("group", list(GROUPS))
def test_outputs_match_golden(group, tmp_path, monkeypatch):
    for name in cli.GUARDS:
        monkeypatch.delenv(name, raising=False)
    assert run_group(GROUPS[group], tmp_path) == _golden()[group]


def test_golden_file_covers_every_group():
    assert sorted(_golden()) == sorted(GROUPS)


if __name__ == "__main__":
    for name in cli.GUARDS:
        os.environ.pop(name, None)
    recorded = {}
    for group, jobs in GROUPS.items():
        with tempfile.TemporaryDirectory() as d:
            recorded[group] = run_group(jobs, d)
    with open(GOLDEN, "w") as f:
        json.dump(recorded, f, indent=1, sort_keys=True)
        f.write("\n")
    sys.exit(0)
