"""The mutation matrix: each row perturbs one formula that the paper states,
by a small rational, everywhere the package reads it, and lists the commands
that must then fail. Each command is chosen from what its oracle compares,
not by recording a run, and each passes on the unmutated package. A mutant
that no command kills goes in ``GAPS``, naming the ROADMAP item that closes
it; that item's change moves the row into ``MUTANTS``.

Every command runs in-process through ``cli.main``, on cheap ladders.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from dunklqm import cli, errata, gegenbauer, jacobi, susyqm
from dunklqm.gegenbauer import GegParams
from dunklqm.jacobi import Jacobi1Params
from dunklqm.susyqm import SusySystem

EPS = Fraction(1, 100)


def _moments_scaled(family):
    """The moments c_2, c_3, ... of ``family`` scaled by 1001/1000."""
    real = family.next_moment

    def next_moment(self, lower):
        return real(self, lower) * (Fraction(1001, 1000) if len(lower) >= 2
                                    else 1)
    return lambda mp: mp.setattr(family, "next_moment", next_moment)


def _shifted(name, *modules):
    """The function ``name`` plus 1/100, in every module that binds it."""
    real = getattr(modules[0], name)

    def patch(mp):
        for module in modules:
            mp.setattr(module, name, lambda *args: real(*args) + EPS)
    return patch


def _scarf_record(field, wrap):
    """``SusySystem.scarf`` with its ``field`` replaced by ``wrap(field)``."""
    real = SusySystem.scarf

    def scarf(cls, params):
        system = real(params)
        return dataclasses.replace(
            system, **{field: wrap(getattr(system, field))})
    return lambda mp: mp.setattr(SusySystem, "scarf", classmethod(scarf))


MUTANTS = [
    # The family battery builds each P_n from the operator and again by Gram
    # elimination on the moments, and checks orthogonality and the closed-form
    # norms against the moments: wrong moments fail `verify` and `family`'s
    # own battery alike.
    pytest.param(_moments_scaled(Jacobi1Params), (
        "verify --suite jacobi --degree 6",
        "family --kind jacobi-m1 --alpha 1/2 --beta 3/2 --degree 6"),
        id="jacobi-moments"),
    pytest.param(_moments_scaled(GegParams), (
        "verify --suite gegenbauer --degree 6",
        "family --kind gegenbauer --mu 1/2 --alpha 1 --degree 6"),
        id="gegenbauer-moments"),
    # The exact suite checks 2 H P_n = 2 E_n P_n with E_n from this map, and
    # the spectrum's targets are this map, 1e-2 away from levels that the
    # grid resolves to 1e-6.
    pytest.param(_shifted("oscillator_energy", gegenbauer, susyqm, cli), (
        "verify --suite oscillator",
        "spectrum --system oscillator --grids 256,512,1024"),
        id="oscillator-energy"),
    # The lowering map's images are compared exactly with [n]_a P_{n-1}, and
    # the corrected raising scalar b - 1 + [n+1]_a reads it too.
    pytest.param(_shifted("bracket_n", jacobi, errata), (
        "verify --suite intertwiners",), id="bracket-n"),
    # The spectrum's targets are the record's energy map.
    pytest.param(_scarf_record(
        "energy_map", lambda energy: lambda n, lam: energy(n, lam) + EPS), (
        "spectrum --system scarf --alpha 1 --beta 3 --grids 256,512,1024",),
        id="scarf-energy"),
]

GAPS = [
    # cos^(b/2) x -> cos^(b/2 + 1/100) x in the ground factor. Only the
    # relations suite's eigenfunction probe and errata's evidence read it:
    # the operator identities hold on any probe, and errata's verdicts are
    # typed by hand. Closed by ROADMAP items 9 (eigenfunctions on the grid)
    # and 11 (computed errata verdicts).
    pytest.param(_scarf_record(
        "ground", lambda g: lambda x: g(x) * np.cos(x) ** float(EPS)),
        ("verify", "errata"), id="scarf-ground-exponent"),
]


def _exit_code(command, capsys):
    code = cli.main(command.split())
    capsys.readouterr()
    return code


@pytest.mark.parametrize("command", sorted(
    {c for row in MUTANTS + GAPS for c in row.values[1]}))
def test_each_command_passes_unmutated(command, capsys):
    assert _exit_code(command, capsys) == cli.EXIT_OK


@pytest.mark.parametrize("patch, commands", MUTANTS)
def test_each_mutant_fails_every_command_listed(patch, commands, monkeypatch,
                                                capsys):
    patch(monkeypatch)
    codes = {c: _exit_code(c, capsys) for c in commands}
    assert codes == dict.fromkeys(commands, cli.EXIT_VERIFY_FAILED)


@pytest.mark.parametrize("patch, commands", GAPS)
def test_each_gap_is_still_unkilled(patch, commands, monkeypatch, capsys):
    # when a command starts to fail here, move the row into MUTANTS
    patch(monkeypatch)
    codes = {c: _exit_code(c, capsys) for c in commands}
    assert codes == dict.fromkeys(commands, cli.EXIT_OK)
