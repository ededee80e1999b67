"""The grid oracle's one spectrum problem constructor, for every
``susyqm.SusySystem``: targets, tolerance and schedule come from the record,
and the solver path from its grid data, as one pair of an operator builder
and a ``grid`` solver, the ``Problem``'s build (N -> the operator on the
record's N-point grid) and its per-rung solve (the operator -> its k lowest
levels). With no reflection core (the oscillator, alpha = 0 Scarf) H's
coefficients are assembled directly (``eigen_lowest``); with one (alpha > 0
Scarf) the discrete supercharge from U and V is squared
(``susy_squared_spectrum``; see the grid notes on the fall-to-center
artifact of the sampled potential). With ``corrections`` (Gegenbauer) 2 Q^2
plus those terms is banded straight from row blocks of the BLAS product
(``GridOperator.composite``: each block times only the columns of Q that its
band reads; O(N^2) work, O(N) memory, bit for bit), and checkerboard
filtered (``composite_spectrum``). A convergence study builds every rung
here before it forks a child for the lower rungs' solves, so every path's
ladder splits by one rule (see ``grid``).
"""

from __future__ import annotations

import dataclasses
from functools import partial

from . import grid as gridmod
from .refcalc import Grid
from .susyqm import SusySystem

__all__ = ["spectrum_problem"]


def _composite(system: SusySystem, g: Grid) -> gridmod.GridOperator:
    """The band of 2 Q^2 + corrections on ``g``."""
    pot = system.potential
    q = gridmod.supercharge_matrix(pot.u.f, pot.v.f, g)
    return gridmod.GridOperator.composite(q, *system.corrections(g.nodes))


def spectrum_problem(system: SusySystem, k: int) -> gridmod.Problem:
    """The k lowest levels of ``system`` against its targets."""
    # V's reflection core c/sin x has c of the sign of the family's first
    # parameter (a for Scarf, mu otherwise), which the grid paths need >= 0
    core = dataclasses.fields(system.family)[0].name
    if getattr(system.family, core) < 0:
        raise ValueError(f"grid spectra are restricted to {core} >= 0")
    targets = system.targets(k)
    pot = system.potential
    if system.corrections is not None:
        build, solve = partial(_composite, system), gridmod.composite_spectrum
    elif getattr(system.family, core) == 0:
        h = pot.hamiltonian()
        build = partial(gridmod.assemble, h[0, 0].f, h[0, 1].f)
        solve = gridmod.eigen_lowest
    else:
        build = partial(gridmod.supercharge_matrix, pot.u.f, pot.v.f)
        solve = gridmod.susy_squared_spectrum

    def build_rung(n):
        return build(Grid(n, system.halfwidth))

    def compute(op):
        return solve(op, k)

    return gridmod.Problem(name=system.name, params=system.params,
                           targets=targets, build=build_rung, compute=compute,
                           tolerance=system.tolerance,
                           exponents=system.exponents)
