"""Time this checkout against another one, round for round, in-process.

Usage, from the repository root:

    python tests/ab_rounds.py OTHER_CHECKOUT --workload W --rounds R

Starts one persistent worker process per checkout, each with ``PYTHONPATH``
set to that checkout's ``src``, so each imports ``dunklqm`` once. Every
round is one round of ``bench/jobs.py``'s ``JobStream`` (loaded by path,
read-only) for workload W; both workers run the same round, one after the
other, with the order flipped each round so that a slow phase of the
machine falls on both sides alike. Each job is ``dunklqm.cli.main(argv)``
with its output discarded. Prints the median and quartiles of the ratio of
round times, this checkout over the other, the same for each job's time,
and each job that raised, with the side it raised on.

It also cuts the rounds into runs of ``rounds_for(W, 40)`` rounds, the
rounds of a 40-second ``bench/run.py`` run (fewer rounds make one short
run; a short last run is dropped), and prints for each side the median
and quartiles over those runs of ``jobs_per_s``, ``job_p50_s`` and
``job_tail_s``, each computed as ``bench/run.py`` computes it from one
run's job times, with the number of runs in which this checkout's value
is the better one. It states no bound.
Both workers run under the same environment, so a BLAS thread-count
setting applies to both alike. Both also run with
``OPENBLAS_THREAD_TIMEOUT=4``, OpenBLAS's shortest spin before an idle BLAS
thread sleeps: the two workers are alive at once, so after a BLAS-threaded
job (the Gegenbauer ladders) the idle worker's threads would otherwise keep
spinning on a core that the other worker, and its forked child, needs.
``bench/run.py`` runs one worker with OpenBLAS's default spin, so a claim on
its metrics is shown with its own runs, not with this tool. Read a per-job
ratio against that job's quartiles from a run of this checkout against
itself (A/A), on the same workload and rounds: a ratio inside them is not a
difference.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
from load_path import load_path

ROOT = Path(__file__).resolve().parents[1]

# Reads one JSON list of command lines per stdin line, runs them, and
# answers with one JSON list of [wall seconds, name of the exception the job
# raised or null].
WORKER = r"""
import contextlib, io, json, os, shlex, sys, tempfile, time
from dunklqm import cli
with tempfile.TemporaryDirectory() as work:
    out = os.path.join(work, "out.txt")
    for line in sys.stdin:
        results = []
        for job in json.loads(line):
            sink, raised = io.StringIO(), None
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                try:
                    cli.main(shlex.split(job) + ["--out", out])
                except Exception as exc:    # timed, and reported by the caller
                    raised = type(exc).__name__
                results.append([time.perf_counter() - t0, raised])
        print(json.dumps(results), flush=True)
"""


def _jobs_module():
    return load_path("bench_jobs", ROOT / "bench" / "jobs.py")


# the metrics that ``bench/run.py`` computes from one run's job times, and
# whether higher is better
HIGHER_IS_BETTER = {"jobs_per_s": True, "job_p50_s": False,
                    "job_tail_s": False}


class Worker:
    """One persistent ``python -c WORKER`` process on a checkout's ``src``."""

    def __init__(self, checkout: Path):
        env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"),
                   PYTHONDONTWRITEBYTECODE="1", OPENBLAS_THREAD_TIMEOUT="4")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, jobs: list[str]) -> list[list]:
        self.proc.stdin.write(json.dumps(jobs) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def ab_rounds(this: Path, other: Path, workload: str,
              rounds: int, seed: int = 0) -> tuple[list, dict, set, list]:
    """(round-time ratios this/other, {job: [per-round time ratios]},
    {(side, job, exception name) of each job that raised}, [per round, the
    (this, other) lists of job times])."""
    stream = _jobs_module().JobStream(workload, seed)
    workers = [Worker(this), Worker(other)]
    ratios, per_job, raised, times = [], {}, set(), []
    try:
        for r in range(rounds):
            jobs = stream.next_round()
            order = workers if r % 2 == 0 else workers[::-1]
            results = {w: w.run(jobs) for w in order}
            a, b = ([t for t, _ in results[w]] for w in workers)
            times.append((a, b))
            ratios.append(sum(a) / sum(b))
            for job, x, y in zip(jobs, a, b):
                per_job.setdefault(job, []).append(x / y)
            raised |= {(side, job, name)
                       for side, w in zip(("this", "other"), workers)
                       for job, (_, name) in zip(jobs, results[w]) if name}
    finally:
        for w in workers:
            w.close()
    return ratios, per_job, raised, times


def run_metrics(times: list, size: int) -> dict:
    """{metric: (this checkout's values, the other's)}, one value per run
    of ``size`` consecutive rounds of ``times`` (``ab_rounds``' last
    item); with fewer rounds, all of them make one run."""
    tail = load_path("bench_run", ROOT / "bench" / "run.py").tail
    runs = [times[i:i + size] for i in range(0, len(times) - size + 1, size)]
    runs = runs or [times]
    sides = [[[t for rnd in run for t in rnd[side]] for run in runs]
             for side in (0, 1)]
    metrics = {"jobs_per_s": lambda t: len(t) / sum(t),
               "job_p50_s": statistics.median,
               "job_tail_s": lambda t: tail(t)[0]}
    return {name: tuple([f(t) for t in side] for side in sides)
            for name, f in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the other checkout's root")
    parser.add_argument("--workload", required=True,
                        choices=_jobs_module().WORKLOADS)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    ratios, per_job, raised, times = ab_rounds(ROOT, args.other,
                                               args.workload, args.rounds)
    q25, q50, q75 = np.percentile(ratios, [25, 50, 75])
    print(f"round-time ratio this/other over {len(ratios)} rounds: "
          f"median {q50:.3f} [q25 {q25:.3f}, q75 {q75:.3f}]")
    for job, rs in per_job.items():
        j25, j50, j75 = np.percentile(rs, [25, 50, 75])
        print(f"  {j50:.3f} [q25 {j25:.3f}, q75 {j75:.3f}]  {job}")
    size = _jobs_module().rounds_for(args.workload, 40)
    for name, (mine, theirs) in run_metrics(times, size).items():
        wins = sum((x > y) if HIGHER_IS_BETTER[name] else (x < y)
                   for x, y in zip(mine, theirs))
        this_q, other_q = (np.percentile(v, [25, 50, 75])
                           for v in (mine, theirs))
        print(f"{name} over {len(mine)} runs of up to {size} rounds: "
              f"this {this_q[1]:.4g} [q25 {this_q[0]:.4g}, q75 "
              f"{this_q[2]:.4g}], other {other_q[1]:.4g} [q25 "
              f"{other_q[0]:.4g}, q75 {other_q[2]:.4g}]; this better in "
              f"{wins} of {len(mine)}")
    for side, job, name in sorted(raised):
        print(f"raised {name} in {side}: {job}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
