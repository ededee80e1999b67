"""The benchmark's correctness gate, run as a test.

Each ``verify-errata`` job, each ``grid-spectra`` job on its smallest
ladder, and every ``grid-spectra`` Gegenbauer job runs through
``bench/worker.py``'s ``run_job`` and must agree with its recorded reference
in ``bench/refs/<workload>.json`` under ``bench/refcheck.py``'s rule: the
exact skeleton of every output byte for byte, every float to 1e-12 relative.
The Gegenbauer jobs are the top ladder, which sets the workload's peak
memory, and the known-defect default, which must keep its recorded exit 1
and values. Other jobs listed as known defects are left out, as the
benchmark counts them apart. The bench modules load by path, as
``tests/test_tracer.py`` loads the tracer.
"""

import json
from pathlib import Path

import pytest
from load_path import load_path

from dunklqm import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


worker, refcheck, jobs = (load_path(f"bench_{name}", BENCH / f"{name}.py")
                          for name in ("worker", "refcheck", "jobs"))
REFS = {w: json.loads((BENCH / "refs" / f"{w}.json").read_text())["jobs"]
        for w in ("verify-errata", "grid-spectra")}


def _gated(workload):
    chosen = [job for job in jobs.JobStream(workload, seed=0,
                                            smoke=True).next_round()
              if job not in jobs.KNOWN_DEFECTS]
    if workload == "grid-spectra":
        chosen += [job for job in jobs.all_jobs(workload)
                   if "--system gegenbauer" in job and job not in chosen]
    return sorted(chosen)


GATED = [pytest.param(w, job, id=job) for w in REFS for job in _gated(w)]


@pytest.mark.parametrize("workload, job", GATED)
def test_benchmark_job_matches_its_reference(workload, job, tmp_path):
    result = worker.run_job(cli, job, tmp_path / "out.txt")
    assert refcheck.differences(result, REFS[workload][job]) == []
