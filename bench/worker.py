"""Benchmark worker: one closed-loop client running dunklqm jobs in-process.

Started by ``run.py`` with the BLAS thread count pinned in its environment.
Each job is ``dunklqm.cli.main(argv)``: stdout and stderr go to an in-memory
sink and ``--out`` to a scratch file. Results, with per-job wall times and
canonical outputs, are written as JSON to ``--result``.

    python3 bench/worker.py --probe
        prints the seconds a fresh process takes to import dunklqm.cli and
        the modules its commands import lazily.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shlex
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from refcheck import canonical  # noqa: E402


def import_program() -> float:
    """Seconds to import what every CLI call pays for, in this process."""
    t0 = time.perf_counter()
    import dunklqm.cli  # noqa: F401
    import dunklqm.errata  # noqa: F401
    import dunklqm.grid  # noqa: F401
    import dunklqm.spectra  # noqa: F401
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    return time.perf_counter() - t0


def run_job(cli, job: str, scratch: Path) -> dict:
    argv = shlex.split(job) + ["--out", str(scratch)]
    sink = io.StringIO()
    raised = rc = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a job that raises is a failed job
            raised = type(exc).__name__
        seconds = time.perf_counter() - t0
    out = scratch.read_text() if scratch.exists() else None
    if out is not None:
        scratch.unlink()
    return {"job": job, "seconds": seconds, "rc": rc, "raised": raised,
            "stdout": canonical(sink.getvalue()), "out": canonical(out)}


def provenance() -> dict:
    import platform

    import numpy
    import scipy

    import dunklqm
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                               "openblas configuration")},
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "dunklqm": dunklqm.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round of each slot's smallest job")
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    setup = import_program()
    if args.probe:
        print(json.dumps({"setup_s": setup}))
        return 0

    from dunklqm import cli
    from jobs import JobStream, rounds_for
    work = Path(args.result).parent
    scratch = work / f"out-{os.getpid()}.txt"
    stream = JobStream(args.workload, args.seed, smoke=args.smoke)

    rounds, results = [], []
    for r in range(1 if args.smoke else rounds_for(args.workload, args.seconds)):
        rounds.append(stream.next_round())
        results += [dict(run_job(cli, job, scratch), round=r) for job in rounds[-1]]
    record = {"provenance": provenance(), "setup_s": setup,
              "rounds": len(rounds), "jobs": results,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    if args.trace:
        # Replay the first round traced; outputs must equal the untraced ones.
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            for i, job in enumerate(rounds[0]):
                tracer.job_id = i
                traced.append(run_job(cli, job, scratch))
        finally:
            tracer.uninstall()
        record["traced"] = {"jobs": traced, "metrics": tracer.metrics(),
                            "spans": tracer.next_id}
        tracer.write(str(work / f"spans-{args.workload}-{args.seed}.json"))

    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
