"""Spectrum problems for the grid oracle: the extended Scarf I system, the
supersymmetric oscillator, and the generalized Gegenbauer Hamiltonian.

Each system's operators come from its one ``SusyPotential``. The oscillator
and alpha = 0 Scarf (no reflection core) assemble the coefficients of that
potential's ``hamiltonian`` directly. Scarf spectra at alpha > 0 and the
Gegenbauer composite are computed through the squared discrete supercharge
built from U and V (see grid module notes on the fall-to-center artifact of
the directly sampled potential). The Gegenbauer 2 Q^2 is banded from row
blocks of the BLAS product, each block multiplied only by the columns of Q
that its band reads, in O(N^2) work and O(N) memory, bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import grid as gridmod
from .gegenbauer import GegParams, eigenvalue_geg
from .refcalc import SecondOrderRefOp
from .susyqm import (ScarfParams, oscillator_potential, osc_energy,
                     scarf_energy, scarf_potential)

__all__ = [
    "scarf_problem",
    "oscillator_problem",
    "gegenbauer_problem",
]


def _assembled(h: SecondOrderRefOp, halfwidth: float, k: int):
    """N -> lowest k levels of H = -1/2 D^2 + c0 + d0 R, assembled directly."""
    def compute(n):
        g = gridmod.Grid(n, halfwidth)
        return gridmod.eigen_lowest(gridmod.assemble(h[0, 0].f, h[0, 1].f, g), k)

    return compute


def scarf_problem(params: ScarfParams, k: int) -> gridmod.Problem:
    """Lowest-k Scarf levels against (2n+a+b+1)^2/8."""
    if params.alpha < 0:
        raise ValueError("grid spectra are restricted to alpha >= 0")
    pot = scarf_potential(params)
    targets = tuple(float(scarf_energy(n, params)) for n in range(k))

    if params.alpha == 0:
        compute = _assembled(pot.hamiltonian(), math.pi / 2, k)
    else:
        def compute(n):
            g = gridmod.Grid(n, math.pi / 2)
            return gridmod.susy_squared_spectrum(pot.u.f, pot.v.f, g, k)

    # leading eigenvalue-error power: the even-reflection sector behaves as
    # |x|^(alpha/2) at the origin, which adds an h^(2 alpha) term to the
    # smooth h^2 one. The schedule clamps 2 alpha to [1, 2], so for
    # alpha < 1/2 the true exponent 2 alpha < 1 is not eliminated (ROADMAP
    # item 2).
    lead = min(2.0, max(1.0, 2.0 * float(params.alpha)))
    return gridmod.Problem(
        name="scarf",
        params=params.params_json(),
        targets=targets,
        compute=compute,
        tolerance=1e-6,
        exponents=(lead, 2.0),
    )


def oscillator_problem(k: int) -> gridmod.Problem:
    """Lowest-k oscillator-with-reflection levels: 0, 2, 2, 4, 4, ..., on the
    box [-10, 10]."""
    targets = tuple(sorted(float(osc_energy(n)) for n in range(k + 2))[:k])
    return gridmod.Problem(
        name="oscillator",
        params={},
        targets=targets,
        compute=_assembled(oscillator_potential().hamiltonian(), 10.0, k),
        tolerance=1e-6,
        exponents=(2.0, 2.0),
    )


def _gegenbauer_corrections(params: GegParams, x: np.ndarray):
    """(scalar, reflection) coefficients that turn 2 H at Scarf (2 mu, 0)
    into the generalized Gegenbauer Hamiltonian -D^2 + U0 + U1 R with the
    derived potentials: U0 - 2 c0 and U1 - 2 d0, both bounded at x = 0."""
    mu, al = float(params.mu), float(params.alpha)
    return ((al**2 - 0.25) / np.cos(x) ** 2
            - (mu + al + 0.5) ** 2 + (2 * al + 1) * mu,
            -mu * (1.0 / (1.0 + np.cos(x)) + (2 * al + 1)))


def gegenbauer_problem(params: GegParams, k: int) -> gridmod.Problem:
    """Lowest-k generalized Gegenbauer energies, -lambda_n in increasing order.

    Assembled as 2 Q^2 at Scarf parameters (2 mu, 0) plus the bounded exact
    corrections, with checkerboard filtering; this realizes the derived
    potentials U0, U1 (H F0 = 0) without sampling the singular core.
    """
    if params.mu < 0:
        raise ValueError("grid spectra are restricted to mu >= 0")
    # -lambda_n rises with n within each parity (alpha > -1, mu >= 0), so
    # the k lowest levels have n < 2k
    targets = tuple(sorted(-float(eigenvalue_geg(n, params)) + 0.0
                           for n in range(2 * k))[:k])
    pot = scarf_potential(ScarfParams(2 * params.mu, Fraction(0)))

    def compute(n):
        g = gridmod.Grid(n, math.pi / 2)
        q = gridmod.supercharge_matrix(pot.u.f, pot.v.f, g)
        diag, refl = _gegenbauer_corrections(params, g.nodes)

        def rows(r0, r1):
            # rows of the dense BLAS product 2 Q @ Q: a banded Q^2 rounds
            # differently and moves the levels by ~1e-10. The block and its
            # mirror hold the rows of mirror pairs lo .. hi - 1; as Q has
            # pair bandwidth 3 they read only the rows of Q of pairs
            # lo - 2 .. hi + 1, and the band of Q^2 keeps only the columns
            # of those pairs. So the block is Q[r0:r1] @ O[:, cols], with O
            # holding those rows of Q and zeros elsewhere: a term whose
            # factor is 0 adds exactly nothing, and the inner dimension
            # stays N. OpenBLAS's small-matrix and edge kernels round
            # differently from its full-width one, so the window keeps node
            # order and grows to a multiple of 4 pairs where N allows: with
            # blocks of 64 rows or more this kept the bits of the whole
            # product at every N tried (README)
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
        op = gridmod.GridOperator.from_rows(rows, g, 4)
        return gridmod.composite_spectrum(op, k)

    return gridmod.Problem(
        name="gegenbauer",
        params=params.params_json(),
        targets=targets,
        compute=compute,
        tolerance=1e-5,
        exponents=(2.0, 2.0),
    )
