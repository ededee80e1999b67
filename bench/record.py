"""Record the reference output of every job a workload can send.

    python3 bench/record.py [workload ...]

Runs each job once, on the commit checked out, and writes
``bench/refs/<workload>.json``. Benchmark runs compare every job with these
references, so re-recording redefines what "correct" means: it belongs only
in a change that redefines the benchmark, never in one that claims a gain.
A job that fails while recording stops the recording, unless it is one of
the known-defect jobs in ``jobs.KNOWN_DEFECTS``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

# Same BLAS pinning as benchmark runs, before numpy loads.
_NPROC = str(len(os.sched_getaffinity(0)))
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = _NPROC

from jobs import KNOWN_DEFECTS, WORKLOADS, all_jobs  # noqa: E402
from worker import BENCH, import_program, provenance, run_job  # noqa: E402


def record(workload: str) -> None:
    import_program()
    from dunklqm import cli
    scratch = BENCH.parent / ".bench_build" / "record-out.txt"
    scratch.parent.mkdir(exist_ok=True)
    refs = {}
    for job in all_jobs(workload):
        r = run_job(cli, job, scratch)
        if (r["rc"] != 0 or r["raised"]) and job not in KNOWN_DEFECTS:
            raise SystemExit(f"job failed while recording: {job} -> "
                             f"rc={r['rc']} raised={r['raised']}")
        refs[job] = {k: r[k] for k in ("rc", "raised", "stdout", "out")}
        print(f"{r['seconds']:8.3f}s rc={r['rc']} {job}", flush=True)
    path = BENCH / "refs" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"provenance": provenance(), "jobs": refs},
                               indent=1) + "\n")


if __name__ == "__main__":
    for w in sys.argv[1:] or WORKLOADS:
        record(w)
