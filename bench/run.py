"""Run one dunklqm benchmark workload and print its metrics.

    python3 bench/run.py --workload grid-spectra --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds ``src/dunklqm``. The launcher
pins the BLAS thread count to the number of usable cores, times the import
set-up in fresh processes, runs the workload's closed loop in one worker
process, checks every job against the references in ``bench/refs`` and
prints one line per metric, then one JSON object as the last line. With
``--trace 1`` the worker also replays its first round with the per-layer
tracer installed, and the JSON holds the per-layer metrics that
``BENCHMARK.json`` declares. Files a run
leaves behind go to ``.bench_build/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from jobs import KNOWN_DEFECTS, WORKLOADS  # noqa: E402
from refcheck import differences  # noqa: E402
from tracer import metric_units  # noqa: E402

SETUP_SAMPLES = 3      # fresh-process imports timed before and again after
                       # the worker; one more, first, only warms the caches
RUN_LIMIT_S = 175      # the whole run, set-up included, ends within this

END_TO_END = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_s": "s",
              "job_tail_s": "s", "peak_rss_mb": "MB"}
TRACE_EXTRA = {"trace.jobs_per_s": "jobs/s",
               "trace.untraced_jobs_per_s": "jobs/s",
               "trace.overhead_ratio": "ratio", "trace.spans": "count"}


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 jobs beyond it.

    Below 20 jobs that percentile would not reach the median, so the slowest
    job (percentile 100) is reported instead.
    """
    s = sorted(times)
    if len(s) < 20:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def run_worker(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def probe_setup(env: dict, deadline: float) -> float:
    """Seconds a fresh worker process takes to import the program."""
    probe = run_worker(["--probe"], env, deadline)
    if probe.returncode != 0:
        raise RuntimeError(f"failed:\n{probe.stderr}")
    return json.loads(probe.stdout.splitlines()[-1])["setup_s"]


def check_jobs(jobs: list[dict], refs: dict) -> tuple[int, int, list[str]]:
    """(unexpected failures, known-defect failures, messages)."""
    unexpected = known = 0
    notes = []
    for r in jobs:
        ref = refs.get(r["job"])
        why = ["no reference recorded"] if ref is None else differences(r, ref)
        if r["job"] in KNOWN_DEFECTS:
            known += 1
            if why:
                notes.append(f"known-defect job changed behaviour ({'; '.join(why)}): "
                             f"{r['job']}; re-record references in a benchmark change")
        elif why:
            unexpected += 1
            notes.append(f"FAILED {r['job']}: {'; '.join(why)}")
    return unexpected, known, notes


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round of each slot's smallest job (self-tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dunklqm" / "cli.py").is_file():
        return fail(f"no dunklqm sources under {ROOT / 'src'}")
    ref_path = BENCH / "refs" / f"{args.workload}.json"
    if not ref_path.is_file():
        return fail(f"missing references {ref_path}")
    refs = json.loads(ref_path.read_text())["jobs"]
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    declared = [m["name"] for m in json.loads(spec_path.read_text())["per_layer"]]

    # BLAS threads are pinned before numpy loads in any worker.
    nproc = len(os.sched_getaffinity(0))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(nproc),
           "OMP_NUM_THREADS": str(nproc)}
    work = ROOT / ".bench_build"
    work.mkdir(exist_ok=True)

    # Half the set-up samples are taken before the worker and half after, so
    # that they do not all fall in one phase of the machine's speed.
    try:
        probe_setup(env, deadline)
        setups = [probe_setup(env, deadline) for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(f"set-up probe: {exc}")

    result_path = work / f"result-{args.workload}-{args.seed}-t{args.trace}.json"
    result_path.unlink(missing_ok=True)
    wargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", str(result_path)] + (["--smoke"] if args.smoke else [])
    try:
        worker = run_worker(wargs, env, deadline)
    except subprocess.TimeoutExpired:
        return fail("worker did not finish within the run limit")
    if worker.returncode != 0 or not result_path.is_file():
        return fail(f"worker failed:\n{worker.stderr}")
    try:
        setups += [probe_setup(env, deadline) for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(f"set-up probe: {exc}")
    record = json.loads(result_path.read_text())

    jobs = record["jobs"]
    unexpected, known, notes = check_jobs(jobs, refs)
    times = [j["seconds"] for j in jobs]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(jobs) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "peak_rss_mb": record["peak_rss_mb"],
    }
    failed_frac = (unexpected + known) / len(jobs)
    units = dict(END_TO_END)

    attempted, failed, layer = len(jobs), unexpected, {}
    if args.trace:
        traced = record["traced"]
        mismatched = [t["job"] for t, u in zip(traced["jobs"], jobs)
                      if t["job"] != u["job"] or differences(t, u)]
        notes += [f"FAILED traced output differs from untraced: {j}"
                  for j in mismatched]
        attempted += len(traced["jobs"])
        failed += len(mismatched)
        trace_rate = len(traced["jobs"]) / sum(t["seconds"] for t in traced["jobs"])
        layer = dict(traced["metrics"])
        layer.update({"trace.jobs_per_s": trace_rate,
                      "trace.untraced_jobs_per_s": metrics["jobs_per_s"],
                      "trace.overhead_ratio": metrics["jobs_per_s"] / trace_rate,
                      "trace.spans": traced["spans"]})
        units.update(metric_units(), **TRACE_EXTRA)

    prov = dict(record["provenance"], git_commit=git_commit(),
                src_sha256=source_digest())
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": record["rounds"], "provenance": prov,
              "setup_samples_s": setups, "failed_frac": failed_frac,
              "known_defect_failures": known, "unexpected_failures": unexpected,
              "notes": notes, "end_to_end": metrics, "per_layer": layer}
    result_path.write_text(json.dumps(dict(record, report=report), indent=1))

    for n in notes:
        print(n)
    print(f"workload {args.workload} seed {args.seed}: {record['rounds']} rounds, "
          f"{len(jobs)} jobs, closed loop, 1 client")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"setup_s samples {['%.4f' % s for s in setups]}")
    print(f"failed_frac {failed_frac:.6g} ratio ({unexpected} unexpected, "
          f"{known} known-defect of {len(jobs)} jobs)")
    print(f"job_tail_s is p{tail_pct:.1f} of {len(jobs)} jobs; "
          f"job_p50_s is the median of {len(jobs)} jobs")
    for name, value in {**metrics, **layer}.items():
        print(f"{name} {value:.6g} {units[name]}")
    # A traced run's JSON holds the per-layer metrics BENCHMARK.json declares;
    # the lines above also show the self times that are 0 on some workload.
    shown = {k: layer[k] for k in declared} if args.trace else metrics
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
