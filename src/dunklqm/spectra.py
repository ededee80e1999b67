"""The grid oracle's one spectrum problem constructor, for every
``susyqm.SusySystem``: targets, tolerance and schedule come from the record,
and the solver path from its grid data, as one pair of an operator builder
and a ``grid`` solver: compute(N) = solve(build(grid), k). With no reflection
core (the oscillator, alpha = 0 Scarf) H's coefficients are assembled
directly (``eigen_lowest``); with one (alpha > 0 Scarf) the discrete
supercharge from U and V is squared (``susy_squared_spectrum``; see the grid
notes on the fall-to-center artifact of the sampled potential). With
``corrections`` (Gegenbauer) 2 Q^2 plus those terms is banded from row blocks
of the BLAS product, each block times only the columns of Q that its band
reads (O(N^2) work, O(N) memory, bit for bit), and checkerboard filtered
(``composite_spectrum``). The two banded paths run on one core, so their
problems are marked ``single_core``: a convergence study solves their lower
rungs in a forked child (see ``grid``). The composite path's BLAS product
already keeps both cores busy.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np

from . import grid as gridmod
from .refcalc import Grid
from .susyqm import SusySystem

__all__ = ["spectrum_problem"]


def _composite(system: SusySystem, g: Grid) -> gridmod.GridOperator:
    """The band of 2 Q^2 + corrections on ``g``."""
    pot, n = system.potential, g.n
    q = gridmod.supercharge_matrix(pot.u.f, pot.v.f, g)
    diag, refl = system.corrections(g.nodes)

    def rows(r0, r1):
        # rows of the dense BLAS product 2 Q @ Q (a banded Q^2 moves the
        # levels by ~1e-10). The rows of mirror pairs lo .. hi - 1 read
        # only Q's rows of pairs lo - 2 .. hi + 1 (pair bandwidth 3), and
        # the band keeps only those pairs' columns: the block is
        # Q[r0:r1] @ O[:, cols], O those rows of Q and zeros elsewhere,
        # so the inner dimension stays N and a zero factor adds nothing.
        # The window keeps node order and grows to a multiple of 4 pairs
        # where N allows, which kept OpenBLAS's bits at every N tried
        # (README)
        lo, hi = min(r0, n - r1), min(r1, n - r0, n // 2)
        p0, p1 = max(lo - 2, 0), min(hi + 2, n // 2)
        p1 = min(p1 + (p0 - p1) % 4, n // 2)
        p0 = max(p0 - (p0 - p1) % 4, 0)
        p = np.arange(p0, p1)
        cols = np.concatenate([p, n - 1 - p[::-1]])
        o = np.zeros((n, len(cols)))
        o[cols] = q.gather_rows(cols)[:, cols]
        prod = q.gather_rows(np.arange(r0, r1)) @ o
        h = np.zeros((r1 - r0, n))
        h[:, cols] = 2.0 * prod
        i = np.arange(r0, r1)
        h[i - r0, i] += diag[i]
        h[i - r0, n - 1 - i] += refl[i]
        return h

    # Q^2 has pair bandwidth 4
    return gridmod.GridOperator.from_rows(rows, g, 4)


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

    def compute(n):
        return solve(build(Grid(n, system.halfwidth)), k)

    return gridmod.Problem(name=system.name, params=system.params,
                           targets=targets, compute=compute,
                           tolerance=system.tolerance,
                           exponents=system.exponents,
                           single_core=system.corrections is None)
