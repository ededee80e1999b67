"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

The smoke tests run every workload at its smallest size, traced and twice,
through the same launcher the benchmark command uses (about two minutes in
all).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from jobs import KNOWN_DEFECTS, WORKLOADS, JobStream, all_jobs  # noqa: E402
from refcheck import canonical, differences  # noqa: E402
from run import END_TO_END, TRACE_EXTRA, tail  # noqa: E402
from tracer import metric_units  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# The per-layer metrics the benchmark is specified to report.
NAMED_LAYER_METRICS = """
grid.assembly.calls grid.assembly.self_s grid.dense_bytes spectra.compute.calls
spectra.compute.self_s grid.banding.self_s grid.lapack.calls grid.lapack.self_s
grid.lapack.eigvec_calls grid.lapack.eigs_requested grid.filter.self_s
grid.filter.scanned grid.filter.discarded grid.filter.kept_ratio
grid.extrapolate.self_s grid.quadrature.calls grid.quadrature.self_s
grid.stencil.self_s refcalc.self_s susyqm.relations.self_s susyqm.maps.self_s
susyqm.oscillator.self_s errata.self_s cli.self_s jacobi.gram.calls
jacobi.gram.self_s jacobi.inner.calls jacobi.inner.self_s gegenbauer.gram.calls
gegenbauer.gram.self_s gegenbauer.inner.calls gegenbauer.inner.self_s
jacobi.verify.self_s gegenbauer.verify.self_s opalg.matrix.calls
opalg.matrix.self_s opalg.solve.calls opalg.solve.self_s opalg.apply.calls
opalg.apply.self_s jacobi.oracle.calls jacobi.oracle.self_s
gegenbauer.oracle.calls gegenbauer.oracle.self_s exact.pochhammer.calls
exact.pochhammer.self_s exact.hyp.self_s jacobi.explicit.self_s
jacobi.norms.self_s gegenbauer.potentials.self_s cli.errors spectra.errors
grid.errors errata.errors susyqm.errors refcalc.errors jacobi.errors
gegenbauer.errors opalg.errors exact.errors
""".split()


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_valid_and_declared():
    spec = bench_json()
    layer = {**metric_units(), **TRACE_EXTRA}
    assert {m["name"] for m in spec["end_to_end"]} == set(END_TO_END)
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared <= set(layer)
    # Only self times may be left out of the JSON (see test_traced_smoke_run).
    assert {n for n, u in layer.items() if u != "s"} <= declared
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert m["unit"] == {**END_TO_END, **layer}[m["name"]]
    assert set(NAMED_LAYER_METRICS) <= set(layer)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def _rounds(workload, seed, n=3):
    stream = JobStream(workload, seed)
    return [stream.next_round() for _ in range(n)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_job_list(workload):
    assert _rounds(workload, 7) == _rounds(workload, 7)
    a, b = _rounds(workload, 7), _rounds(workload, 8)
    assert a != b
    if workload == "exact-oracles":
        # Only parameters and order change: the (kind, degree) slots stay.
        slot = re.compile(r"--(alpha|beta|mu) \S+ ")
        assert ([sorted(slot.sub("", j) for j in r) for r in a]
                == [sorted(slot.sub("", j) for j in r) for r in b])
        assert [sorted(r) for r in a] != [sorted(r) for r in b]
    else:
        assert [sorted(r) for r in a] == [sorted(r) for r in b]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_references_cover_every_job(workload):
    refs = json.loads((BENCH / "refs" / f"{workload}.json").read_text())["jobs"]
    assert set(all_jobs(workload)) <= set(refs)
    for job in all_jobs(workload):
        failing = refs[job]["rc"] != 0 or refs[job]["raised"] is not None
        assert failing == (job in KNOWN_DEFECTS), job


def test_reference_rule():
    ref = {"rc": 0, "raised": None, "out": None,
           "stdout": canonical('{"n": 3, "p": "1/2*y", "e": 2.5}')}

    def got(text):
        return dict(ref, stdout=canonical(text))

    assert differences(got('{"n": 3, "p": "1/2*y", "e": 2.5000000000001}'), ref) == []
    assert differences(got('{"n": 3, "p": "1/2*y", "e": 2.50001}'), ref)
    assert differences(got('{"n": 3, "p": "1/3*y", "e": 2.5}'), ref)
    assert differences(dict(ref, rc=1), ref)
    text = canonical("level 0: extrapolated 1.125 abs_error 2.0e-09 at n=12 3/4")
    assert text["floats"] == [1.125, 2.0e-09]


def test_tail_percentile():
    assert tail([1.0] * 5 + [9.0]) == (9.0, 100.0)
    times = [float(i) for i in range(40)]
    assert tail(times) == (29.0, 75.0)   # ten jobs beyond the 75th percentile


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def _smoke(workload):
    """Last-line JSON and full report of a traced smoke run."""
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    for name, unit in END_TO_END.items():
        assert any(re.fullmatch(rf"{name} \S+ {re.escape(unit)}", ln)
                   for ln in lines), name
    assert any(ln.startswith("failed_frac ") for ln in lines)
    record = json.loads(
        (ROOT / ".bench_build" / f"result-{workload}-3-t1.json").read_text())
    return json.loads(lines[-1]), record["report"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run(workload):
    result, report = _smoke(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["notes"]
    assert set(report["per_layer"]) == set(metric_units()) | set(TRACE_EXTRA)
    spec = bench_json()
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    if workload in {w["name"] for w in spec["workloads"]}:
        # A declared self time must be measured, never a constant 0, on every
        # declared workload.
        for name, m in result["metrics"].items():
            assert m["unit"] != "s" or m["value"] > 0, name

    # Counts and computed bytes repeat exactly in a second traced run.
    _, again = _smoke(workload)
    units = metric_units()
    counts = {n for n, u in units.items() if u != "s"} | {"trace.spans"}
    assert ({n: report["per_layer"][n] for n in counts}
            == {n: again["per_layer"][n] for n in counts})


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "verify-errata", "--seed", "1", "--seconds", "1"],
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
