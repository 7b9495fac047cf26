"""Record golden.json: exit code and sha256 digests of stdout and of every
written file, for every job any seed can pick.  Run it only on a commit
whose outputs are trusted; later commits are checked against it.

usage: python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from hostspeed import Sampler
from worker import GOLDEN_PATH, reset_dir, run_job
from workloads import WORKLOADS, all_jobs, job_key

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hopfkit.cli as cli

    golden = {}
    sampler = Sampler()              # never started: no time is taken out of the jobs
    workdir = os.path.join(ROOT, ".perfbench_work", "golden")
    for workload in WORKLOADS:
        reset_dir(workdir)
        os.chdir(workdir)
        try:
            for job in all_jobs(workload):
                record, wall, _ = run_job(cli, job, sampler)
                golden[job_key(job)] = record
                print(f"{wall:8.2f} s  exit {record['exit']}  {job_key(job)}", flush=True)
        finally:
            os.chdir(ROOT)
    shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
