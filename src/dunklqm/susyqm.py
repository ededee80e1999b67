"""Supersymmetric quantum mechanics with reflection supercharges, in x:
the extended Scarf I system, its intertwining maps, the supersymmetric
oscillator and the generalized Gegenbauer Hamiltonian, as float code. The
exact statements live with their families, so the exact suites load no
numpy: the gauged Scarf supercharge and maps in ``jacobi``, the gauged
oscillator and its energy map in ``gegenbauer``.

The paper builds each system alike: a first-order supercharge Q with
reflections, H = Q^2, and eigenfunctions a ground-state factor times an
orthogonal family. Each system is one ``SusySystem`` record (``.scarf``,
``.oscillator``, ``.gegenbauer``), the one home of its ground factor, from
which the targets, the one wavefunction evaluator ``wavefunction(n)`` and
``spectra.spectrum_problem`` derive. Its grid data is a ``SusyPotential``,
even U and odd V with their derivatives, whose ``supercharge``
Q = [(d/dx + U) R + V]/sqrt(2) and ``hamiltonian`` H = Q^2 are the only
statements of Q and H. ``ScarfParams`` is ``jacobi.Jacobi1Params``: the
Scarf eigenfunctions at (a, b) are the little -1 Jacobi polynomials at
(a, b). ``osc_wavefunction`` is the oscillator's printed Laguerre form.

Each operator identity (Q^2 = H, parity conjugations, intertwining and
product relations) is one refcalc Relation between chains of Q, H, X and Y,
listed with its expected verdict by ``scarf_relations``, and evaluated
exactly (``exact_residual``) and as finite-difference stencils on refcalc's
midpoint ``Grid`` over a doubling ladder; nothing evaluated outlives the
call. So this module loads numpy but not scipy, which only grid's solvers
need. The corrected X (tangent coefficient (b+1)/2, printed b/2) and Y
((b-1)/2) are, in the gauge, ``jacobi``'s contiguity maps; the printed X at
b+1 IS the corrected X at b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

import numpy as np

from . import refcalc as refc
from .exact import DomainError, beta_num, pochhammer
from .gegenbauer import GegParams, HermiteParams, oscillator_energy
from .jacobi import Jacobi1Params, supercharge_eigenvalue_scaled
from .opalg import (
    OrthogonalFamily,
    check_degree,
    construct_eigen,
    recurrence_coefficients,
    unchecked,
)

__all__ = [
    "ScarfParams",
    "SusyPotential",
    "SusySystem",
    "scarf_potential",
    "oscillator_potential",
    "scarf_H_parts_explicit",
    "ground_state_norm_sq",
    "intertwiner",
    "scarf_relations",
    "exact_residual",
    "verify_operator_relations",
    "osc_wavefunction",
]


# one parameter object for the system and its eigenfunction family
ScarfParams = Jacobi1Params


@dataclass(frozen=True)
class SusyPotential:
    """Even U and odd V, each with its derivative: one system, from which
    the supercharge Q and the Hamiltonian H = Q^2 derive."""

    u: refc.CoeffFn
    v: refc.CoeffFn

    def supercharge(self) -> refc.FirstOrderRefOp:
        """Q = [(d/dx + U) R + V]/sqrt(2) in canonical first-order form."""
        c = 1 / math.sqrt(2.0)
        return refc.FirstOrderRefOp.build(q=self.v.scale(c), r=self.u.scale(c),
                                          s=refc.CoeffFn.const(c))

    def hamiltonian(self) -> refc.SecondOrderRefOp:
        """H = Q^2 = -1/2 D^2 + 1/2(U^2+V^2) + 1/2 U' - 1/2 V' R."""
        u, v = self.u, self.v
        c0 = (u * u + v * v).scale(0.5) + u.df_coeff().scale(0.5)
        d0 = v.df_coeff().scale(-0.5)
        return refc.SecondOrderRefOp({(2, 0): refc.CoeffFn.const(-0.5),
                                      (0, 0): c0, (0, 1): d0})


def scarf_potential(params: ScarfParams) -> SusyPotential:
    """U = -b/(2 cos x), V = -a/(2 sin x) on (-pi/2, pi/2)."""
    a, b = float(params.alpha), float(params.beta)
    return SusyPotential(
        u=refc.CoeffFn(lambda x: -b / (2 * np.cos(x)),
                       lambda x: -b * np.sin(x) / (2 * np.cos(x) ** 2)),
        v=refc.CoeffFn(lambda x: -a / (2 * np.sin(x)),
                       lambda x: a * np.cos(x) / (2 * np.sin(x) ** 2)))


def oscillator_potential() -> SusyPotential:
    """U = 0, V = x: the supersymmetric oscillator on the line."""
    return SusyPotential(u=refc.CoeffFn.zero(),
                         v=refc.CoeffFn(lambda x: x, lambda x: 1.0 + 0.0 * x))


def _gegenbauer_corrections(params: GegParams, x: np.ndarray):
    """(scalar, reflection) coefficients that turn 2 H at Scarf (2 mu, 0)
    into the generalized Gegenbauer Hamiltonian -D^2 + U0 + U1 R with the
    derived potentials: U0 - 2 c0 and U1 - 2 d0, both bounded at x = 0."""
    mu, al = float(params.mu), float(params.alpha)
    return ((al**2 - 0.25) / np.cos(x) ** 2
            - (mu + al + 0.5) ** 2 + (2 * al + 1) * mu,
            -mu * (1.0 / (1.0 + np.cos(x)) + (2 * al + 1)))


@dataclass(frozen=True)
class SusySystem:
    """One system: psi_n = g(x) P_n(y(x)) / sqrt(||g||^2 ||P_n||^2) on
    (-halfwidth, halfwidth), P_n the monic ``family`` in the ``gauge`` y
    with ||P_n||^2 its norm for moments normalized to m_0 = 1, g the
    ``ground`` factor and ||g||^2 its integral of g^2. ``energy_map(n,
    lambda_n)`` is E_n, rising with n in each parity. The grid solvers read
    ``potential`` and, if set, ``corrections(x)``, the bounded (scalar,
    reflection) terms added to 2 H; a spectrum reads ``name``, ``params``,
    ``tolerance`` and ``exponents`` (its Richardson schedule)."""

    name: str
    params: dict
    family: OrthogonalFamily
    gauge: Callable
    halfwidth: float
    ground: Callable
    ground_norm_sq: float
    energy_map: Callable
    potential: SusyPotential
    corrections: Callable | None
    tolerance: float
    exponents: tuple

    @classmethod
    def scarf(cls, params: ScarfParams) -> SusySystem:
        """y = sin x, g = Psi_0 = N_0 |sin x|^(a/2) cos^(b/2) x (1 + sin x)^(1/2)
        and E_n = q_n^2 = ``supercharge_eigenvalue_scaled``(n)^2/8."""
        a, b = float(params.alpha), float(params.beta)
        # N_0 once, at the first call (none at a + b <= -2: levels collide)
        n0 = cache(lambda: math.sqrt(ground_state_norm_sq(params)))

        def ground(x):
            s = np.sin(x)
            return (n0() * np.abs(s) ** (a / 2) * np.cos(x) ** (b / 2)
                    * np.sqrt(1 + s))

        # the even sector's |x|^(a/2) adds an h^(2a) error term to h^2; the
        # clamp to [1, 2] leaves 2a < 1 uneliminated (ROADMAP item 2)
        lead = min(2.0, max(1.0, 2.0 * a))
        return cls("scarf", params.params_json(), params, np.sin, math.pi / 2,
                   ground, 1.0,
                   lambda n, _: supercharge_eigenvalue_scaled(n, params) ** 2 / 8,
                   scarf_potential(params), None, 1e-6, (lead, 2.0))

    @classmethod
    def oscillator(cls) -> SusySystem:
        """y = x on [-10, 10], g = e^(-x^2/2) with ||g||^2 = sqrt(pi), and
        E_n = ``oscillator_energy``(n, lambda_n) = 0, 2, 2, 4, 4, ..."""
        return cls("oscillator", {}, HermiteParams(0), lambda x: x, 10.0,
                   lambda x: np.exp(-x * x / 2), math.sqrt(math.pi),
                   oscillator_energy, oscillator_potential(), None, 1e-6,
                   (2.0, 2.0))

    @classmethod
    def gegenbauer(cls, params: GegParams) -> SusySystem:
        """y = sin x, g = F0/||F0||, F0 = |sin x|^mu cos^(alpha+1/2) x with
        ||F0||^2 = B(mu + 1/2, alpha + 1), and E_n = -lambda_n; on the grid
        2 H at Scarf (2 mu, 0) plus ``_gegenbauer_corrections``."""
        mu, al = float(params.mu), float(params.alpha)
        norm = cache(lambda: math.sqrt(beta_num(mu + 0.5, al + 1)))

        def ground(x):
            return np.abs(np.sin(x)) ** mu * np.cos(x) ** (al + 0.5) / norm()

        return cls("gegenbauer", params.params_json(), params, np.sin,
                   math.pi / 2, ground, 1.0, lambda n, lam: -lam,
                   scarf_potential(ScarfParams(2 * params.mu, 0)),
                   lambda x: _gegenbauer_corrections(params, x), 1e-5, (2.0, 2.0))

    def energy(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("level must be nonnegative")
        return self.energy_map(n, self.family.eigenvalue(n))

    def targets(self, k: int) -> tuple:
        """The k lowest energies, through Fraction -> float; they have n < 2k."""
        return tuple(sorted(float(self.energy(n)) + 0.0
                            for n in range(2 * k))[:k])

    def polynomials(self, m: int) -> tuple[Callable, Fraction]:
        """(x -> [P_0, ..., P_m] at y(x) for array-like x, ||P_m||^2) at a
        degree ``check_degree`` accepts, from the exact recurrence that
        ``recurrence_coefficients`` reads off the moments:
        ||P_m||^2 = b_1 ... b_m."""
        check_degree(m, self.family)
        coeffs = recurrence_coefficients(self.family.moments(2 * m + 3), m + 1)
        norm_sq = math.prod((b for _, b in coeffs[1:]), start=Fraction(1))
        return (lambda x: _recurrence_values(
            coeffs[:m], self.gauge(np.asarray(x, dtype=float)))), norm_sq

    def wavefunction(self, n: int) -> Callable:
        """Vectorized psi_n as (c_n g(x)) P_n(y(x)), c_n = 1/sqrt(||g||^2
        ||P_n||^2), with no domain check on x; n = 0 gives c_0 g bit for bit.
        Where ||g||^2 ||P_n||^2 is not a normal float (at high n: subnormal,
        zero or beyond float range) it raises DomainError."""
        values, norm_sq = self.polynomials(n)
        try:
            norm = self.ground_norm_sq * float(norm_sq)
        except OverflowError:
            norm = math.inf
        if not np.finfo(float).tiny <= norm < math.inf:
            record = " ".join([self.name, *(f"{k}={v}" for k, v
                                            in self.params.items())])
            raise DomainError(f"{record}: psi_{n}'s norm ||g||^2 ||P_{n}||^2 "
                              "is not a normal float")
        scale = 1.0 / math.sqrt(norm)
        return lambda x: scale * self.ground(np.asarray(x, dtype=float)) \
            * values(x)[n]


def scarf_H_parts_explicit(params: ScarfParams):
    """The bracketed potential form: a/4 (a/2 - cos x R)/sin^2 + b/4 (b/2 - sin x)/cos^2."""
    a, b = float(params.alpha), float(params.beta)

    def scalar(x):
        return (a / 4) * (a / 2) / np.sin(x) ** 2 \
            + (b / 4) * (b / 2 - np.sin(x)) / np.cos(x) ** 2

    def refl(x):
        return -(a / 4) * np.cos(x) / np.sin(x) ** 2

    return scalar, refl


def ground_state_norm_sq(params: ScarfParams) -> float:
    """N_0^2 = 1 / B((a+1)/2, (b+1)/2), from the Beta integral directly."""
    return 1.0 / beta_num((float(params.alpha) + 1) / 2,
                          (float(params.beta) + 1) / 2)


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------

def intertwiner(params: ScarfParams, which: str,
                variant: str = "corrected") -> refc.FirstOrderRefOp:
    """The analytic X (b -> b+2) or Y (b -> b-2) map in the requested variant:

        sign d/dx + t tan x - sec x / 2 - (a/2)(1 + sign csc x) R,

    with sign +1 for X and -1 for Y, and t = b/2 printed, (b + sign)/2
    corrected. In the gauged picture the corrected X is ``dunkl(a/2)`` and
    the corrected Y is ``jacobi.gauged_y_corrected``; the printed variants'
    gauged forms leave the polynomial ring.
    """
    if which not in ("X", "Y"):
        raise ValueError("which must be 'X' or 'Y'")
    if variant not in ("printed", "corrected"):
        raise ValueError("variant must be 'printed' or 'corrected'")
    sign = 1 if which == "X" else -1
    b = params.beta
    tan_coeff = b / 2 if variant == "printed" else (b + sign) / 2
    refl = refc.CoeffFn.const(1.0) + refc.CoeffFn.csc().scale(float(sign))
    return refc.FirstOrderRefOp.build(
        p=refc.CoeffFn.const(sign),
        q=refc.CoeffFn.tan().scale(float(tan_coeff))
        - refc.CoeffFn.sec().scale(0.5),
        r=refl.scale(-float(params.alpha) / 2))

# ---------------------------------------------------------------------------
# analytic-form relations on the grid
# ---------------------------------------------------------------------------

_TEST_FNS = {
    "gauss-poly": refc.ProbeFn(
        lambda x: np.exp(-x**2) * (1 + x + x**2 / 3),
        lambda x: np.exp(-x**2) * ((1 + 2 * x / 3) - 2 * x * (1 + x + x**2 / 3)),
        lambda x: np.exp(-x**2) * (2 / 3 - 4 * x * (1 + 2 * x / 3)
                                   + (4 * x**2 - 2) * (1 + x + x**2 / 3)),
    ),
    "trig-mix": refc.ProbeFn(
        lambda x: np.cos(x)**2 * (1 + 0.5 * np.sin(3 * x)),
        lambda x: (-np.sin(2 * x) * (1 + 0.5 * np.sin(3 * x))
                   + 1.5 * np.cos(x)**2 * np.cos(3 * x)),
        lambda x: (-2 * np.cos(2 * x) * (1 + 0.5 * np.sin(3 * x))
                   - 3 * np.sin(2 * x) * np.cos(3 * x)
                   - 4.5 * np.cos(x)**2 * np.sin(3 * x)),
    ),
}


def _test_functions(params: ScarfParams) -> dict:
    """The probes of the finite-difference checks: the analytic test
    functions, and an eigenfunction of the system itself (smooth on the open
    interval), left unnormalized: Psi_0 times P_2(sin x), with Psi_0 and P_2
    built once here for every grid the caller evaluates it on."""
    psi0 = SusySystem.scarf(params).wavefunction(0)
    p2 = construct_eigen(2, params)
    return {**{name: u.f for name, u in _TEST_FNS.items()},
            "eigenfunction-2": lambda x: psi0(x) * p2(np.sin(x))}


def _interior_mask(g: refc.Grid) -> np.ndarray:
    x = g.nodes
    return (np.abs(x) > 0.06) & (np.abs(np.abs(x) - g.halfwidth) > 0.06)


def _probes(params: ScarfParams, grids: list, operators: dict) -> list:
    """(grid, interior mask, test function values, operator stencils) per N."""
    fns, probes = _test_functions(params), []
    for g in (refc.Grid(n, math.pi / 2) for n in grids):
        x = g.nodes
        probes.append((g, _interior_mask(g),
                       {name: f(x) for name, f in fns.items()},
                       {op: op.stencil(g) for op in operators}))
    return probes


def _residual_norms(relation: refc.Relation, probes: list) -> list:
    norms = []
    for _, mask, fns, stencils in probes:
        residual = relation.stencil(stencils)
        worst = 0.0
        for f in fns.values():
            worst = max(worst, float(np.abs(residual(f)[mask]).max()))
        norms.append(worst)
    return norms


def _fd_order(norms: list) -> float:
    """Convergence order of a residual-norm ladder over a doubling grid
    ladder: ``refcalc.estimate_order`` clamped to [0.25, 6], nan where it has
    none."""
    p = refc.estimate_order(norms)
    return p if math.isnan(p) else min(max(p, 0.25), 6.0)


def exact_residual(relations: list, g: refc.Grid) -> list:
    """For each of ``relations``, the max |residual u| over the analytic
    test functions and the nodes of ``g`` 0.06 away from the core and the
    walls: composed exactly, it is the true defect plus rounding. The test
    functions' word values are evaluated once for the list and each
    residual's coefficients once, bit for bit ``residual().apply``."""
    ops = [relation.residual() for relation in relations]
    x = g.nodes[_interior_mask(g)]
    words = dict.fromkeys(w for op in ops for w in op.words)
    values = [u.word_values(x, words) for u in _TEST_FNS.values()]
    residuals = []
    for op in ops:
        coefficients = op.coefficient_arrays(x)
        worst = 0.0
        for word_values in values:
            worst = max(worst, float(np.abs(op.evaluate(coefficients, word_values,
                                                        x)).max()))
        residuals.append(worst)
    return residuals


def _chain(scale: float, *ops) -> refc.Chain:
    return refc.Chain(scale, ops, False)


def _anticommutator(op: refc.FirstOrderRefOp, q_target: refc.FirstOrderRefOp,
                    q_source: refc.FirstOrderRefOp) -> refc.Relation:
    """Q_target op = -op Q_source: ``op`` intertwines the two supercharges."""
    return refc.Relation((_chain(1, q_target, op),), (_chain(-1, op, q_source),))


def _product(y: refc.FirstOrderRefOp, x: refc.FirstOrderRefOp,
             q: refc.FirstOrderRefOp, h: refc.SecondOrderRefOp,
             params: ScarfParams) -> refc.Relation:
    """Y X = 2H + sqrt(2) a Q + (a+b+1)(a-b-1)/4, with Q and H at ``params``."""
    const = float((params.alpha + params.beta + 1)
                  * (params.alpha - params.beta - 1)) / 4.0
    return refc.Relation((_chain(1, y, x),),
                         (_chain(2, h),
                          _chain(math.sqrt(2) * float(params.alpha), q),
                          _chain(const)))


def scarf_relations(params: ScarfParams) -> list:
    """The Scarf operator identities at ``params``, each stated once, as
    (name, variant, expected verdict, ``refcalc.Relation``): Q^2 = H and the
    parity conjugations R Q R = -Q, R H R = H at -b (variant "n/a"), then per
    variant the X and Y intertwining relations and the product relation at
    the repaired and the typeset placement, with Q and H, also at the
    mirrored and shifted b, of ``scarf_potential``. The corrected maps
    satisfy the intertwining relations and Y_{a,b+2} X_{a,b}; the printed
    ones fail those and satisfy Y_{a,b+1} X_{a,b+1}, since the printed X at
    b+1 IS the corrected X at b (an off-by-one in b)."""
    # the reflected and shifted parameters may leave the b > -1 sector
    def shifted(beta):
        return unchecked(ScarfParams, params.alpha, beta)

    pot, mirrored = scarf_potential(params), scarf_potential(shifted(-params.beta))
    q, h = pot.supercharge(), pot.hamiltonian()
    relations = [
        ("q_squared_equals_h", "n/a", "identity",
         refc.Relation((_chain(1, q, q),), (_chain(1, h),))),
        ("reflection_conjugation_Q", "n/a", "identity",
         refc.Relation((refc.Chain(1, (q,), True),),
                       (_chain(-1, mirrored.supercharge()),))),
        ("reflection_conjugation_H", "n/a", "identity",
         refc.Relation((refc.Chain(1, (h,), True),),
                       (_chain(1, mirrored.hamiltonian()),))),
    ]
    b1, b2 = shifted(params.beta + 1), shifted(params.beta + 2)
    q_up = scarf_potential(b2).supercharge()
    q_down = scarf_potential(shifted(params.beta - 2)).supercharge()
    for variant in ("corrected", "printed"):
        holds, fails = (("identity", "defect") if variant == "corrected"
                        else ("defect", "identity"))
        x, y = (intertwiner(params, which, variant) for which in "XY")
        relations += [
            ("intertwine_X", variant, holds, _anticommutator(x, q_up, q)),
            ("intertwine_Y", variant, holds, _anticommutator(y, q_down, q)),
            ("product_repaired_indices", variant, holds,
             _product(intertwiner(b2, "Y", variant), x, q, h, params)),
            ("product_typeset_indices", variant, fails,
             _product(intertwiner(b1, "Y", variant),
                      intertwiner(b1, "X", variant), q, h, params)),
        ]
    return relations


def verify_operator_relations(params: ScarfParams, grids: tuple) -> list:
    """Residuals of the ``scarf_relations`` identities, two ways:
    ``residual``, the ``exact_residual`` on the finest grid, and
    ``fd_norms``/``order``, the chains as finite-difference stencils over the
    doubling ladder ``grids``, whose norms shrink at second order when the
    identity holds (``_fd_order``). ``verdict`` is "identity" for a residual
    below 1e-8, else "defect"; ``expected`` is the predicted verdict. Each
    stencil is built once per grid and the probe's Psi_0 and P_2 once."""
    grids = refc.check_doubling_ladder(grids)
    relations = scarf_relations(params)
    operators = dict.fromkeys(op for *_, rel in relations
                              for chain in rel.lhs + rel.rhs for op in chain.ops)
    probes = _probes(params, grids, operators)
    residuals = exact_residual([relation for *_, relation in relations],
                               probes[-1][0])
    results = []
    for (name, variant, expected, relation), resid in zip(relations, residuals):
        norms = _residual_norms(relation, probes)
        results.append({
            "relation": name, "variant": variant, "fd_norms": norms,
            "order": _fd_order(norms), "residual": resid,
            "verdict": "identity" if resid < 1e-8 else "defect",
            "expected": expected,
        })
    return results


# ---------------------------------------------------------------------------
# supersymmetric oscillator
# ---------------------------------------------------------------------------

def _recurrence_values(coeffs: list, x) -> list:
    """[P_0(x), ..., P_m(x)] by P_{k+1} = (x - a_k) P_k - b_k P_{k-1} on
    ``coeffs`` = [(a_0, b_0), ..., (a_{m-1}, b_{m-1})], an array bit for bit
    as its floats one by one: P_22 of ``HermiteParams(0)`` to 3e-15 of its
    size on |x| < 8, the little -1 Jacobi P_40 to 2e-14 of max |P_40| on
    (-1, 1), where the monomial form cancels to 3e-12 and 1e-2."""
    values = [0.0 * x, 1.0 + 0.0 * x]
    for a, b in coeffs:
        values.append((x - float(a)) * values[-1] - float(b) * values[-2])
    return values[1:]


def osc_wavefunction(n: int, eps: int, variant: str = "printed") -> Callable:
    """Vectorized coordinate form of |n, eps> through the printed Laguerre
    expression, with relative block weight (n+1) (``printed``) or sqrt(n+1)
    (``corrected``, the Hermite superposition times 2^(1/2 - n) under
    eps -> -eps). The blocks are the oscillator record's P_m (DLMF
    18.7.19-20): x L_n^(1/2)(x^2) = (-1)^n P_(2n+1)(x)/n! and
    L_(n+1)^(-1/2)(x^2) = (-1)^(n+1) P_(2n+2)(x)/(n+1)!. Any array-like x
    is evaluated as a float array, bit for bit as its floats one by one."""
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    if eps not in (+1, -1):
        raise ValueError("eps must be +-1")
    if variant not in ("printed", "corrected"):
        raise ValueError("variant must be 'printed' or 'corrected'")
    values = SusySystem.oscillator().polynomials(2 * n + 2)[0]
    # (-1)^n pi^(-1/4) sqrt(n! / (n+1)_(n+1)), from the exact ratio
    pref = (-1) ** n / math.pi ** 0.25 * math.sqrt(
        float(Fraction(math.factorial(n)) / pochhammer(n + 1, n + 1)))
    weight = float(n + 1) if variant == "printed" else math.sqrt(n + 1.0)
    odd = (-1) ** n / math.factorial(n)
    even = (-1) ** (n + 1) / math.factorial(n + 1)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        p = values(x)
        gauss = np.array([math.exp(-v * v / 2)
                          for v in x.ravel().tolist()]).reshape(x.shape)
        return pref * gauss * (odd * p[2 * n + 1]
                               + eps * weight * (even * p[2 * n + 2]))
    return evaluate
