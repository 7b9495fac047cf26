"""Workload definitions: the CLI jobs each workload runs, and how the seed
picks their order and equal-cost parameter variants.

A job is ``{"argv": [...], "outputs": [...]}``: the arguments passed to
``hopfkit.cli.main`` and the relative paths of the files it writes.  Its
golden key is ``" ".join(argv)``.  Every workload is a closed loop with one
client: the next job starts when the previous one returns.  The seed never
changes the size of a job.
"""

from __future__ import annotations

import random

WORKLOADS = ("h8p-deep", "nichols-y4", "file-pipeline")

# Why each workload was chosen.  Together they give every planned
# optimisation a workload where it is heavy and one where it barely runs.
WHY = {
    "h8p-deep": "certify h8p --p 5 (dim 40, N = 20): full-width field products and 1600x40 "
                "eliminations, 6 jacobson_radical calls; the integer cyclotomic kernel and "
                "compute-once target job",
    "nichols-y4": "Nichols ranks to degree 4 of a rank-4 YD module at p = 5: kron, dense "
                  "products and a 256x256 elimination; sparse echelon and Hurwitz blocks "
                  "show only here",
    "file-pipeline": "build, dual, bosonize and verify through JSON files: the only workload "
                     "that parses num/den strings; small algebras, little elimination",
}

_NICHOLS_QLINES = [["--qline", "3"], ["--qline", "4"], ["--qline", "5:2"]]
_NICHOLS_K = [1, 2, 3, 4]                 # class y:k
_NICHOLS_S = [1, 2, 3, 4]                 # rep psi:s


def _job(argv, outputs=()):
    return {"argv": list(argv), "outputs": list(outputs)}


def _nichols_y(k, s):
    return _job(["nichols", "--p", "5", "--class", f"y:{k}", "--rep", f"psi:{s}",
                 "--cutoff", "4"])


def _file_chains():
    """Each chain runs in order in one directory; chains are independent."""
    chains = []
    for stem, build in (("taft5", ["taft", "--n", "5"]), ("a4p3", ["a4p", "--p", "3"])):
        chains.append([
            _job(["build"] + build + ["--out", f"{stem}.json"],
                 [f"{stem}.json", f"{stem}.sidecar.json"]),
            _job(["verify", f"{stem}.json"]),
            _job(["dual", f"{stem}.json", "--out", f"{stem}-dual.json"],
                 [f"{stem}-dual.json"]),
            _job(["verify", f"{stem}-dual.json"]),
        ])
    for datum in ("fun-dic", "a4p-chi2", "a4p-chi3"):
        out = f"{datum}-boson.json"
        chains.append([
            _job(["bosonize", "--datum", datum, "--p", "3", "--out", out], [out]),
            _job(["verify", out]),
        ])
    return chains


def pass_jobs(workload: str, rng: random.Random) -> list[dict]:
    """The jobs of one pass, in the order the seeded ``rng`` picks."""
    if workload == "h8p-deep":
        return [_job(["certify", "h8p", "--p", "5"])]
    if workload == "nichols-y4":
        jobs = [_nichols_y(rng.choice(_NICHOLS_K), rng.choice(_NICHOLS_S))]
        jobs += [_job(["nichols"] + q) for q in _NICHOLS_QLINES]
        rng.shuffle(jobs)
        return jobs
    if workload == "file-pipeline":
        chains = _file_chains()
        rng.shuffle(chains)
        return [job for chain in chains for job in chain]
    raise ValueError(f"unknown workload {workload!r}")


def all_jobs(workload: str) -> list[dict]:
    """Every job any seed can pick for ``workload``, in a fixed order."""
    if workload == "nichols-y4":
        jobs = [_nichols_y(k, s) for k in _NICHOLS_K for s in _NICHOLS_S]
        return jobs + [_job(["nichols"] + q) for q in _NICHOLS_QLINES]
    if workload == "file-pipeline":
        return [job for chain in _file_chains() for job in chain]
    return pass_jobs(workload, random.Random(0))


def job_key(job: dict) -> str:
    return " ".join(job["argv"])
