"""Contract between the package and the benchmark's outside-in tracer.

``bench/tracer.py`` rebinds, by name and with no fallback, the public
functions of every module, four class methods and ``grid``'s bindings of the
LAPACK drivers. A traced run must give the untraced output, and
``uninstall`` must restore every binding.
"""

import importlib
import importlib.util
from pathlib import Path

from dunklqm import opalg, refcalc
from dunklqm.cli import main

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
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


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    tracer_mod = _load_tracer()
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
    # the three Gegenbauer composite rungs, the oscillator's top rung and
    # errata's one Gegenbauer grid: the oscillator's two lower rungs run in
    # a forked child, which the tracer cannot see (traced == untraced shows
    # that they ran)
    assert tracer.calls["spectra.compute"] == 5
    assert tracer.calls["refcalc"] > 0
    after = _bindings(tracer_mod)
    changed = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for (owner, attr), value in before.items()
               if after[(owner, attr)] is not value]
    assert changed == []
