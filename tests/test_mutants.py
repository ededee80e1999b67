"""The mutation matrix: each row perturbs one formula that the paper states,
by a small rational, everywhere the package reads it, and lists the commands
that must then fail. Each command is chosen from what its oracle compares,
not by recording a run, and each passes on the unmutated package. A mutant
that no command kills goes in ``GAPS``, naming the ROADMAP item that closes
it; that item's change moves the row into ``MUTANTS``.

Every command runs in-process through ``cli.main``, on cheap ladders. Run as
a script (``PYTHONPATH=src python tests/test_mutants.py``), this file prints,
for each command, the ``MUTANTS`` rows that no other command kills; it reads
the table and runs nothing.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from dunklqm import cli, errata, gegenbauer, jacobi, susyqm
from dunklqm.gegenbauer import GegParams
from dunklqm.jacobi import Jacobi1Params
from dunklqm.opalg import ReflOp
from dunklqm.refcalc import CoeffFn, FirstOrderRefOp
from dunklqm.susyqm import SusySystem

EPS = Fraction(1, 100)


def _moments_scaled(family):
    """The moments c_2, c_3, ... of ``family`` scaled by 1001/1000."""
    real = family.next_moment

    def next_moment(self, lower):
        return real(self, lower) * (Fraction(1001, 1000) if len(lower) >= 2
                                    else 1)
    return lambda mp: mp.setattr(family, "next_moment", next_moment)


def _wrapped(name, wrap, *modules):
    """The function ``name`` with its result replaced by ``wrap(result,
    *args)``, in every module that binds it."""
    real = getattr(modules[0], name)

    def patch(mp):
        for module in modules:
            mp.setattr(module, name, lambda *args: wrap(real(*args), *args))
    return patch


def _shifted(name, *modules):
    """The function ``name`` plus 1/100, in every module that binds it."""
    return _wrapped(name, lambda value, *args: value + EPS, *modules)


def _record(name, field, wrap):
    """``SusySystem``'s record ``name`` with its ``field`` replaced by
    ``wrap(field)``."""
    real = getattr(SusySystem, name)

    def record(cls, *params):
        system = real(*params)
        return dataclasses.replace(
            system, **{field: wrap(getattr(system, field))})
    return lambda mp: mp.setattr(SusySystem, name, classmethod(record))


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
    # The battery solves each P_n from the operator at lambda_n, which must be
    # the operator's diagonal entry at degree n; the lowering and raising
    # maps are checked on those P_n. A wrong eigenvalue formula leaves no
    # P_n to solve for, an oracle failure that every command raising it
    # exits 1 on; `verify` runs the Jacobi and Gegenbauer batteries, errata's
    # raising-map evidence solves its P_n the same way, and its Gegenbauer
    # sign entry solves P_0..P_2 at the lambda_n that it prints. The
    # relations suite's eigenfunction probe solves P_2 at lambda_2 too, and
    # the Scarf targets square ``supercharge_eigenvalue_scaled``, which reads
    # lambda_n (next row).
    pytest.param(_shifted("eigenvalue", jacobi), (
        "verify --suite jacobi --degree 6",
        "family --kind jacobi-m1 --alpha 1/2 --beta 3/2 --degree 6",
        "verify --suite intertwiners", "errata", "verify --suite relations",
        "verify",
        "spectrum --system scarf --alpha 1 --beta 3 --grids 256,512,1024"),
        id="jacobi-eigenvalue"),
    pytest.param(_shifted("eigenvalue_geg", gegenbauer, errata), (
        "verify --suite gegenbauer --degree 6",
        "family --kind gegenbauer --mu 1/2 --alpha 1 --degree 6", "errata",
        "verify"),
        id="gegenbauer-eigenvalue"),
    # The Scarf targets are q_n^2 = s_n^2/8, s_n = lambda_n - (a+b+1) =
    # ``supercharge_eigenvalue_scaled``, so each moves by about |s_n|/400,
    # far above the 1e-6 tolerance. `verify` and `errata` do not read it.
    pytest.param(_shifted("supercharge_eigenvalue_scaled", jacobi, susyqm), (
        "spectrum --system scarf --alpha 1 --beta 3 --grids 256,512,1024",),
        id="supercharge-eigenvalue"),
    # The battery compares each closed-form norm with inner(P_n, P_n) summed
    # from the moments.
    pytest.param(_wrapped("norm_sq_closed", lambda norm, n, params: norm * (
        Fraction(1001, 1000) if n >= 2 else 1), jacobi), (
        "verify --suite jacobi --degree 6",
        "family --kind jacobi-m1 --alpha 1/2 --beta 3/2 --degree 6"),
        id="jacobi-closed-norm"),
    # The battery's `consistent` compares the displayed normalization
    # constant's rearrangement with the closed-form norm exactly, so either
    # one moved fails the battery.
    pytest.param(_wrapped("norm_sq_from_normalization", lambda norm, n, params:
                          norm * (Fraction(1001, 1000) if n >= 2 else 1),
                          jacobi), (
        "verify --suite jacobi --degree 6",
        "family --kind jacobi-m1 --alpha 1/2 --beta 3/2 --degree 6"),
        id="jacobi-normalization"),
    # The exact suite checks 2 H P_n = 2 E_n P_n with E_n from this map, and
    # the spectrum's targets are this map, 1e-2 away from levels that the
    # grid resolves to 1e-6.
    pytest.param(_shifted("oscillator_energy", gegenbauer, susyqm, cli), (
        "verify --suite oscillator",
        "spectrum --system oscillator --grids 256,512,1024"),
        id="oscillator-energy"),
    # The exact suite checks (sqrt(2) Qtilde)^2 = 2 Htilde and 2 Htilde P_n =
    # 2 E_n P_n on P_0..P_12: Htilde + I/100 fails both.
    pytest.param(_wrapped("osc_gauged_hamiltonian", lambda h: h + ReflOp(
        [(EPS, ())]), gegenbauer), (
        "verify --suite oscillator",), id="oscillator-hamiltonian"),
    # The lowering map's images are compared exactly with [n]_a P_{n-1}, and
    # the corrected raising scalar b - 1 + [n+1]_a reads it too.
    pytest.param(_shifted("bracket_n", jacobi, errata), (
        "verify --suite intertwiners",), id="bracket-n"),
    # H is Q^2 from the same U, so Q^2 = H still holds; the corrected
    # intertwining relations, with X and Y typed from b, fail (residual 0.4).
    # The grid levels of Q^2 move by 4e-2 to 7e-2 from targets that U does
    # not enter.
    pytest.param(_wrapped("scarf_potential", lambda pot, params:
                          dataclasses.replace(pot, u=pot.u.scale(1.01)),
                          susyqm), (
        "verify --suite relations", "verify",
        "spectrum --system scarf --alpha 1 --beta 3 --grids 256,512,1024"),
        id="scarf-u"),
    # H is Q^2 from the same V, so Q^2 = H still holds. The relations suite
    # runs at (a, b) = (0, 1), where V = -a/(2 sin x) and every a-term of X,
    # Y and the product relation vanish, so no `verify` exit reads V. The
    # grid levels of Q^2 at (1, 3) move by 1.3e-2 to 2.3e-2 from targets that
    # V does not enter.
    pytest.param(_wrapped("scarf_potential", lambda pot, params:
                          dataclasses.replace(pot, v=pot.v.scale(1.01)),
                          susyqm), (
        "spectrum --system scarf --alpha 1 --beta 3 --grids 256,512,1024",),
        id="scarf-v"),
    # The relations suite checks the corrected X and Y as identities at
    # (0, 1): an added 0.01 tan x leaves residuals of 1.3 on X's
    # intertwining relation, 0.1 on Y's and 0.14 on the product relation.
    pytest.param(_wrapped("intertwiner", lambda op, params, which,
                          variant="corrected": op if variant == "printed" else
                          FirstOrderRefOp({**op.words, (0, 0): op.words[0, 0]
                                           + CoeffFn.tan().scale(0.01)}),
                          susyqm), (
        "verify --suite relations", "verify"), id="intertwiner-tangent"),
    # Y X = 2H + sqrt(2) a Q + (a+b+1)(a-b-1)/4 is an expected identity at
    # (0, 1) in two placements, the repaired one of the corrected maps and
    # the typeset one of the printed maps, so a constant moved by 1/100
    # fails the relations suite twice. errata prints these residuals, but
    # its verdicts are typed by hand (ROADMAP item 11).
    pytest.param(_wrapped("_product", lambda rel, *args: dataclasses.replace(
        rel, rhs=(*rel.rhs[:-1], dataclasses.replace(
            rel.rhs[-1], scale=rel.rhs[-1].scale + float(EPS)))), susyqm), (
        "verify --suite relations", "verify"), id="product-constant"),
    # The composite path adds the corrections to 2 Q^2 to form -D^2 + U0 +
    # U1 R, whose levels are the targets -lambda_n: a constant 1/100 in the
    # scalar term moves every level by 1/100, against a tolerance of 1e-5.
    pytest.param(_wrapped("_gegenbauer_corrections", lambda parts, params, x:
                          (parts[0] + float(EPS), parts[1]), susyqm), (
        "spectrum --system gegenbauer --mu 1/2 --alpha 1 --grids 256,512,1024",),
        id="gegenbauer-corrections"),
    # The spectrum's targets are the record's energy map.
    pytest.param(_record("scarf", "energy_map", lambda energy:
                         lambda n, lam: energy(n, lam) + EPS), (
        "spectrum --system scarf --alpha 1 --beta 3 --grids 256,512,1024",),
        id="scarf-energy"),
]

GAPS = [
    # cos^(b/2) x -> cos^(b/2 + 1/100) x in the ground factor. Only the
    # relations suite's eigenfunction probe and errata's evidence read it:
    # the operator identities hold on any probe, and errata's verdicts are
    # typed by hand. Closed by ROADMAP items 26 (the row re-expressed on the
    # stated exponent) and 28b (the exact gauge check).
    pytest.param(_record(
        "scarf", "ground", lambda g: lambda x: g(x) * np.cos(x) ** float(EPS)),
        ("verify", "errata"), id="scarf-ground-exponent"),
    # The same factor cos^(1/100) x on the Gegenbauer ground state: no
    # command evaluates that record's ground factor, and its spectrum reads
    # only the potential, the corrections and the targets. Closed by ROADMAP
    # items 26 (the ground state checked against its indicial roots) and 28b
    # (the exact gauge check), with item 9 (eigenfunctions) on the grid.
    pytest.param(_record(
        "gegenbauer", "ground",
        lambda g: lambda x: g(x) * np.cos(x) ** float(EPS)),
        ("verify", "errata",
         "spectrum --system gegenbauer --mu 1/2 --alpha 1 --grids 256,512,1024"),
        id="gegenbauer-ground"),
    # e^(-x^2/2) -> e^(-x^2/2 - x^2/100) in the oscillator's ground factor:
    # only errata's evidence reads it, and its verdicts are typed by hand.
    # Closed by ROADMAP items 26 and 28b, with item 9 on the grid.
    pytest.param(_record(
        "oscillator", "ground",
        lambda g: lambda x: g(x) * np.exp(-x * x * float(EPS))),
        ("verify", "errata",
         "spectrum --system oscillator --grids 256,512,1024"),
        id="oscillator-ground"),
    # N_0^2 times 101/100 scales the Scarf ground state: the relations probe
    # is left unnormalized and the spectrum does not read it, so only
    # errata's evidence moves (its oracle value and quadrature norm), and its
    # verdicts are typed by hand. Closed by ROADMAP item 11.
    pytest.param(_wrapped("ground_state_norm_sq", lambda norm, params:
                          norm * float(Fraction(101, 100)), susyqm, errata),
                 ("verify", "errata",
                  "spectrum --system scarf --alpha 1 --beta 3 "
                  "--grids 256,512,1024"),
                 id="scarf-ground-norm"),
    # The derived U0 plus 1/100: only errata's printed-minus-derived
    # evidence reads `geg_potentials`, and the grid reads the record's
    # corrections instead. Closed by ROADMAP items 28b (the derived constants
    # read from the exact ring) and 27.
    pytest.param(_wrapped("geg_potentials", lambda u, params, x, variant:
                          (u[0] + float(EPS), u[1]) if variant == "derived"
                          else u, gegenbauer, errata),
                 ("verify", "errata",
                  "spectrum --system gegenbauer --mu 1/2 --alpha 1 "
                  "--grids 256,512,1024"),
                 id="gegenbauer-derived-constants"),
    # The corrected odd kappa plus 1/100: the corrected explicit form stops
    # matching the oracle's P_n, which the battery and errata report as a
    # finding, not an oracle failure. Closed by ROADMAP item 11.
    pytest.param(_wrapped("_kappa", lambda kappa, n, params, variant:
                          kappa + EPS if n % 2 and variant == "corrected"
                          else kappa, jacobi),
                 ("verify --suite jacobi --degree 6",
                  "family --kind jacobi-m1 --alpha 1/2 --beta 3/2 --degree 6",
                  "errata"),
                 id="jacobi-corrected-kappa"),
]


def unique_kills() -> dict:
    """Each command that ``MUTANTS`` lists -> the ids of the rows that list
    no other command."""
    kills = {c: [] for row in MUTANTS for c in row.values[1]}
    for row in MUTANTS:
        if len(row.values[1]) == 1:
            kills[row.values[1][0]].append(row.id)
    return kills


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


def test_unique_kills_name_every_command_once():
    kills = unique_kills()
    assert set(kills) == {c for row in MUTANTS for c in row.values[1]}
    assert kills["verify --suite intertwiners"] == ["bracket-n"]
    assert kills["verify"] == []


if __name__ == "__main__":
    for command, ids in sorted(unique_kills().items()):
        print(f"{command}: {', '.join(ids) if ids else 'kills nothing unique'}")
