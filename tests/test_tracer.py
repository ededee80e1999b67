"""Contract between the package and the benchmark's outside-in tracer.

``bench/tracer.py`` rebinds, by name and with no fallback, the public
functions of every module, four class methods and ``grid``'s bindings of the
LAPACK drivers. A traced run must give the untraced output, ``uninstall``
must restore every binding, and a per-layer group that ``BENCHMARK.json``
declares must not lose its last live member unnoticed.
"""

import importlib
import json
from pathlib import Path

from load_path import load_path

from dunklqm import opalg, refcalc
from dunklqm.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "bench" / "tracer.py"
COMMANDS = (
    ["verify", "--suite", "oscillator"],
    ["spectrum", "--system", "oscillator", "--grids", "64,128,256"],
    ["spectrum", "--system", "gegenbauer", "--mu", "1/2", "--alpha", "1",
     "--grids", "128,256,512"],
    # composes and applies refcalc operators on a grid ladder
    ["verify", "--suite", "relations"],
    # the one command that runs the oscillator's float evaluators and
    # quadrature
    ["errata"],
)


def _bindings(tracer):
    owners = [importlib.import_module(f"dunklqm.{m}") for m in tracer.MODULES]
    owners += [importlib.import_module("dunklqm"), opalg.ReflOp,
               refcalc.FirstOrderRefOp, refcalc.SecondOrderRefOp]
    return {(owner, attr): value
            for owner in owners for attr, value in vars(owner).items()}


def _run_all(capsys):
    out = []
    for argv in COMMANDS:
        code = main(argv)
        out.append((code, *capsys.readouterr()))
    return out


def test_traced_run_matches_untraced_and_uninstall_restores(capsys):
    tracer_mod = load_path("bench_tracer", TRACER_PATH)
    untraced = _run_all(capsys)
    before = _bindings(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        traced = _run_all(capsys)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.calls["grid.lapack"] > 0
    # the oscillator's and the Gegenbauer ladder's top rungs and errata's
    # one Gegenbauer grid: each ladder's two lower rungs are solved in a
    # forked child, which the tracer cannot see (traced == untraced shows
    # that they ran)
    assert tracer.calls["spectra.compute"] == 3
    assert tracer.calls["refcalc"] > 0
    after = _bindings(tracer_mod)
    changed = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for (owner, attr), value in before.items()
               if after[(owner, attr)] is not value]
    assert changed == []


# Declared groups that no live function feeds, so that their metrics read 0
# on every run: the constructors and Gram and inner-product functions they
# name were deleted or made private. ROADMAP item 15 revives them; until
# then this set may only shrink.
DEAD_GROUPS = {"spectra.problem", "opalg.solve", "jacobi.gram", "jacobi.inner",
               "gegenbauer.gram", "gegenbauer.inner"}


def test_only_the_known_declared_groups_have_no_live_member():
    tracer_mod = load_path("bench_tracer", TRACER_PATH)
    declared = {m["name"].rsplit(".", 1)[0] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]
        if m["name"].endswith((".self_s", ".calls"))}
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    fed = set(tracer.groups)
    # install wraps each spectra function so that the Problem it returns
    # has a traced compute
    if any(group.startswith("spectra.") for group in fed):
        fed.add(tracer_mod.COMPUTE_GROUP)
    assert declared - fed == DEAD_GROUPS
