"""Repeat benchmark runs over several seeds and summarize their spread.

    python3 bench/repeat.py --workload grid-spectra --seeds 1-10 [--out FILE]

Runs ``bench/run.py`` once per seed with the run length from BENCHMARK.json
and prints, for each end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (interquartile distance
over the median) and the bound. ``--out`` writes the same summary, with
every run's values and the last run's provenance, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs, failed_frac = [], []
    for seed in args.seeds:
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        failed_frac.append(float(next(
            ln for ln in proc.stdout.splitlines()
            if ln.startswith("failed_frac ")).split()[1]))
        provenance = json.loads(next(
            ln for ln in proc.stdout.splitlines()
            if ln.startswith("provenance "))[len("provenance "):])
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()),
              flush=True)

    summary = {}
    for m in spec["end_to_end"]:
        values = [r[m["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "bound": m["bound"],
                              "values": values}
        print(f"{m['name']:12s} median {med:.5g} {m['unit']:7s} quartiles "
              f"[{q1:.5g}, {q3:.5g}] spread {(q3 - q1) / med:.4f} "
              f"(bound {m['bound']})")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "run_seconds": spec["run_seconds"], "provenance": provenance,
             "metrics": summary, "failed_frac": failed_frac}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
