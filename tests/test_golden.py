"""Byte-for-byte regression of exact CLI outputs against recorded files.

The files under ``tests/golden`` hold the outputs of ``family --format json``
(two parameter sets per kind at degree 10, one per kind at degree 20 or 24,
jacobi-m1 (1/2, 3/2) at degree 60, and gegenbauer (1/3, 2) at degree 40,
a symmetric family whose odd moments and coefficients vanish),
of ``verify --out`` for the jacobi, intertwiners, gegenbauer and relations
suites and for all suites at once (relations pins every residual and fd
order as printed; the full run also pins the exact and oscillator lines
byte for byte), of ``errata``
(which runs the lowering and raising maps), and of ``spectrum`` for five
grid systems on the 256,512,1024 ladder, plus Gegenbauer (1/2, 1) on the CLI's
default 1024,2048,4096 ladder. Any change to the exact layer must leave them
identical. Spectrum files print each level's order estimate at full
precision, so they also pin the grid layer's eigenvalues to the last bit.

``relations-fd.json`` holds the finite-difference side of both operator
relation sets (those of ``verify --suite relations`` and of ``errata``):
every ``fd_norms`` ladder and the full-precision ``order``, as
``verify_operator_relations`` returned them. Norms of 1e-10 and above must
agree to 1e-9 relative; orders must print the same to two decimals, which is
how noise-level norms (rounding only) are checked.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from dunklqm.cli import main
from dunklqm.susyqm import ScarfParams, verify_operator_relations

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "family-jacobi-m1-a1_2-b3_2.json":
        ["family", "--kind", "jacobi-m1", "--alpha", "1/2", "--beta", "3/2",
         "--degree", "10", "--format", "json"],
    "family-jacobi-m1-a2-b1_5.json":
        ["family", "--kind", "jacobi-m1", "--alpha", "2", "--beta", "1/5",
         "--degree", "10", "--format", "json"],
    "family-gegenbauer-mu1_2-a1.json":
        ["family", "--kind", "gegenbauer", "--mu", "1/2", "--alpha", "1",
         "--degree", "10", "--format", "json"],
    "family-gegenbauer-mu3_2-a1_5.json":
        ["family", "--kind", "gegenbauer", "--mu", "3/2", "--alpha", "1/5",
         "--degree", "10", "--format", "json"],
    "family-jacobi-m1-a1_3-b2-d24.json":
        ["family", "--kind", "jacobi-m1", "--alpha", "1/3", "--beta", "2",
         "--degree", "24", "--format", "json"],
    "family-jacobi-m1-a1_2-b3_2-d60.json":
        ["family", "--kind", "jacobi-m1", "--alpha", "1/2", "--beta", "3/2",
         "--degree", "60", "--format", "json"],
    "family-gegenbauer-mu1-a1_2-d20.json":
        ["family", "--kind", "gegenbauer", "--mu", "1", "--alpha", "1/2",
         "--degree", "20", "--format", "json"],
    "family-gegenbauer-mu1_3-a2-d40.json":
        ["family", "--kind", "gegenbauer", "--mu", "1/3", "--alpha", "2",
         "--degree", "40", "--format", "json"],
    "errata.json": ["errata"],
    "verify-jacobi-d10.txt": ["verify", "--suite", "jacobi", "--degree", "10"],
    "verify-intertwiners.txt": ["verify", "--suite", "intertwiners"],
    "verify-gegenbauer.txt": ["verify", "--suite", "gegenbauer"],
    "verify-relations.txt": ["verify", "--suite", "relations"],
    "verify-all.txt": ["verify"],
}

LADDER = ["--grids", "256,512,1024"]
SPECTRUM_CASES = {
    "spectrum-scarf-a0-b2.json":
        (["--system", "scarf", "--alpha", "0", "--beta", "2"], 0),
    "spectrum-scarf-a1-b3.json":
        (["--system", "scarf", "--alpha", "1", "--beta", "3"], 0),
    # error ~ h^(2 alpha) = h: this ladder misses 1e-6, a method limit
    "spectrum-scarf-a1_2-b3_2.json":
        (["--system", "scarf", "--alpha", "1/2", "--beta", "3/2"], 1),
    "spectrum-oscillator.json": (["--system", "oscillator"], 0),
    "spectrum-gegenbauer-mu1_2-a1.json":
        (["--system", "gegenbauer", "--mu", "1/2", "--alpha", "1"], 0),
    "spectrum-scarf-a1-b3.csv":
        (["--system", "scarf", "--alpha", "1", "--beta", "3",
          "--format", "csv"], 0),
    # the CLI's default ladder: the one golden that solves above N = 2048
    "spectrum-gegenbauer-mu1_2-a1-n4096.json":
        (["--system", "gegenbauer", "--mu", "1/2", "--alpha", "1",
          "--grids", "1024,2048,4096"], 0),
}


def spectrum_argv(argv: list) -> list:
    """The ``spectrum`` command of a ``SPECTRUM_CASES`` entry: on ``LADDER``
    unless the entry carries its own ``--grids``."""
    return ["spectrum"] + argv + ([] if "--grids" in argv else LADDER)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(SPECTRUM_CASES))
def test_spectrum_matches_golden(name, tmp_path, capsys):
    argv, code = SPECTRUM_CASES[name]
    out = tmp_path / name
    assert main(spectrum_argv(argv) + ["--out", str(out)]) == code
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


FD_GOLDEN = "relations-fd.json"
FD_SETS = {"verify": (ScarfParams(F(0), F(1)), (512, 1024, 2048)),
           "errata": (ScarfParams(F(1), F(1, 2)), (256, 512, 1024))}


@pytest.mark.parametrize("name", sorted(FD_SETS))
def test_relation_fd_norms_match_golden(name):
    golden = json.loads((GOLDEN / FD_GOLDEN).read_text())[name]
    params, grids = FD_SETS[name]
    assert (golden["params"], golden["grids"]) == (params.label(), list(grids))
    report = verify_operator_relations(params, grids=grids)
    assert ([(r["relation"], r["variant"]) for r in report]
            == [(g["relation"], g["variant"]) for g in golden["relations"]])
    for r, g in zip(report, golden["relations"]):
        assert f"{r['order']:.2f}" == f"{g['order']:.2f}", r["relation"]
        assert len(r["fd_norms"]) == len(g["fd_norms"])
        for new, old in zip(r["fd_norms"], g["fd_norms"]):
            if old >= 1e-10:
                assert new == pytest.approx(old, rel=1e-9, abs=0), r["relation"]


def test_every_golden_file_is_checked():
    assert (sorted(p.name for p in GOLDEN.iterdir())
            == sorted([*CASES, *SPECTRUM_CASES, FD_GOLDEN]))
