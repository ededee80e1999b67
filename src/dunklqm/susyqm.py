"""Supersymmetric quantum mechanics with reflection supercharges: the
extended Scarf I system, its gauged polynomial picture, intertwining maps,
and the supersymmetric oscillator.

Each system is stated once, as a ``SusyPotential``: an even U and an odd V,
each a refcalc coefficient function carrying its derivative. Its
``supercharge`` Q = [(d/dx + U) R + V]/sqrt(2) and ``hamiltonian`` H = Q^2
are the only statements of Q and H; the operator relations compose them,
and the grid spectra assemble H's coefficients or discretize Q from U and V.

The Scarf system's parameters are its family's parameter object:
``ScarfParams`` is ``jacobi.Jacobi1Params``, since the eigenfunctions at
(a, b) are the little -1 Jacobi polynomials at the same (a, b), just as the
generalized Gegenbauer system takes ``gegenbauer.GegParams``.

Exact checks run in the gauged picture y = sin x, where the supercharge is
the family's defining operator L (``jacobi.lop``) less a constant,

    2 sqrt(2) Qtilde = L - (a+b+1) = 2(1-y) d/dy R - (a/y)(1-R) - (a+b+1) R,

so its eigenvalues on the little -1 Jacobi polynomials are the family's
lambda_n - (a+b+1): -(2n+a+b+1) for even n, +(2n+a+b+1) for odd n. Energies
are their squares over eight. ``wavefunction_fn(n)`` is the one evaluator of
the eigenfunctions (n = 0 gives Psi_0) and takes P_n and N_n/N_0 from the
family too, with P_n built by ``construct_eigen`` on each call: no value is
cached between calls.
Analytic-form identities (parity conjugations, intertwining and product
relations, Q^2 = H) have one representation and two evaluations. Q, H, X and
Y are each held once as a refcalc operator, and each identity is one refcalc
Relation between chains of them, listed once by ``scarf_relations`` with its
expected verdict, for both variants of the maps. Its exact symbolic
composition gives a pointwise residual (``exact_residual``) that measures
the true defect of the identity down to rounding; the same chains run as
finite-difference stencils give residual norms that must vanish at second
order in the grid spacing. ``verify_operator_relations`` evaluates both; the
errata report reads the exact residuals of the product relations from the
same list.

The X and Y intertwiners come in a ``printed`` and a ``corrected`` variant.
The corrected X (tangent coefficient (b+1)/2 instead of b/2) is exactly the
Dunkl derivative T_{a/2} in the gauged picture and annihilates the ground
state; the corrected Y (coefficient (b-1)/2) maps P_n to P_{n+1} of the
b-2 family with scalar b-1+[n+1]_a. The printed variants fail these maps
but satisfy the product relation at the typeset parameter placement: the
printed X at b+1 IS the corrected X at b, an off-by-one in b that the
verification quantifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from numpy.polynomial import hermite as nph

from . import grid as gridmod
from . import refcalc as refc
from .exact import DomainError, beta_num, pochhammer, rat
from .jacobi import Jacobi1Params, eigenvalue, lop, norm_sq_closed
from .opalg import (
    DegenerateSpectrumError,
    Diff,
    MulPoly,
    OddOverY,
    Poly,
    Reflect,
    ReflOp,
    construct_eigen,
    dunkl,
    eigen_sequence,
    unchecked,
)

__all__ = [
    "ScarfParams",
    "SusyPotential",
    "scarf_potential",
    "oscillator_potential",
    "scarf_H_parts_explicit",
    "gauged_supercharge",
    "supercharge_eigenvalue_scaled",
    "scarf_energy",
    "ground_state_norm_sq",
    "ground_state",
    "wavefunction_fn",
    "bracket_n",
    "intertwiner",
    "gauged_y_corrected",
    "verify_lowering",
    "verify_raising",
    "scarf_relations",
    "exact_residual",
    "verify_operator_relations",
    "FockVector",
    "osc_q_apply",
    "osc_h_apply",
    "osc_r_apply",
    "osc_energy",
    "osc_mixed_state",
    "osc_wavefunction",
    "hermite_superposition",
]


# one parameter object for the system and its eigenfunction family
ScarfParams = Jacobi1Params


@dataclass(frozen=True)
class SusyPotential:
    """Even U and odd V, each with its derivative: one system, from which
    the supercharge Q and the Hamiltonian H = Q^2 derive."""

    u: refc.CoeffFn
    v: refc.CoeffFn

    def check_parity(self, xs) -> float:
        xs = np.asarray(xs, dtype=float)
        du = np.abs(self.u.f(xs) - self.u.f(-xs)).max()
        dv = np.abs(self.v.f(xs) + self.v.f(-xs)).max()
        return float(max(du, dv))

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


def scarf_H_parts_explicit(params: ScarfParams):
    """The bracketed potential form: a/4 (a/2 - cos x R)/sin^2 + b/4 (b/2 - sin x)/cos^2."""
    a, b = float(params.alpha), float(params.beta)

    def scalar(x):
        return (a / 4) * (a / 2) / np.sin(x) ** 2 \
            + (b / 4) * (b / 2 - np.sin(x)) / np.cos(x) ** 2

    def refl(x):
        return -(a / 4) * np.cos(x) / np.sin(x) ** 2

    return scalar, refl


def gauged_supercharge(params: ScarfParams) -> ReflOp:
    """2 sqrt(2) Qtilde = L - (a+b+1) in the y = sin x picture, L = ``lop``."""
    return lop(params) + ReflOp([(-(params.alpha + params.beta + 1), ())])


def supercharge_eigenvalue_scaled(n: int, params: ScarfParams) -> Fraction:
    """lambda_n - (a+b+1) on P_n: -(2n+a+b+1) for even n, + for odd n."""
    return eigenvalue(n, params) - (params.alpha + params.beta + 1)


def scarf_energy(n: int, params: ScarfParams) -> Fraction:
    """(2n+a+b+1)^2 / 8: the 2 sqrt(2) Qtilde eigenvalue squared over 8."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    return supercharge_eigenvalue_scaled(n, params) ** 2 / 8


def ground_state_norm_sq(params: ScarfParams) -> float:
    """N_0^2 = 1 / B((a+1)/2, (b+1)/2), from the Beta integral directly."""
    return 1.0 / beta_num((float(params.alpha) + 1) / 2,
                          (float(params.beta) + 1) / 2)


def ground_state(x: float, params: ScarfParams) -> float:
    """Psi_0 at one point of (-pi/2, pi/2), refused outside it."""
    if not -math.pi / 2 < x < math.pi / 2:
        raise DomainError(f"x={x} outside (-pi/2, pi/2)")
    return float(wavefunction_fn(0, params)(x))


def wavefunction_fn(n: int, params: ScarfParams) -> Callable:
    """Vectorized n-th wavefunction (N_n/N_0) Psi_0(x) P_n(sin x), no domain
    check: P_n and N_0^2/N_n^2 from the family, and Psi_0 = N_0 |sin x|^(a/2)
    cos^(b/2) x (1 + sin x)^(1/2), which n = 0 gives bit for bit (both
    factors are then exactly 1.0)."""
    pn = construct_eigen(n, params)
    ratio = 1.0 / math.sqrt(float(norm_sq_closed(n, params)))
    a, b = float(params.alpha), float(params.beta)
    n0 = math.sqrt(ground_state_norm_sq(params))

    def f(x):
        x = np.asarray(x, dtype=float)
        s = np.sin(x)
        psi0 = n0 * np.abs(s) ** (a / 2) * np.cos(x) ** (b / 2) * np.sqrt(1 + s)
        return ratio * psi0 * pn(s)

    return f


def bracket_n(n: int, alpha) -> Fraction:
    """[n]_a = n + (a/2)(1 - (-1)^n)."""
    alpha = rat(alpha)
    return n + (alpha / 2) * (1 - Fraction(-1) ** n)


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------

def intertwiner(params: ScarfParams, which: str,
                variant: str = "corrected") -> refc.FirstOrderRefOp:
    """The analytic X (b -> b+2) or Y (b -> b-2) map in the requested variant:

        sign d/dx + t tan x - sec x / 2 - (a/2)(1 + sign csc x) R,

    with sign +1 for X and -1 for Y, and t = b/2 printed, (b + sign)/2
    corrected. In the gauged picture the corrected X is ``dunkl(a/2)`` and
    the corrected Y is ``gauged_y_corrected``; the printed variants' gauged
    forms leave the polynomial ring.
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


def gauged_y_corrected(params: ScarfParams) -> ReflOp:
    """The corrected Y in the gauged picture, P_n^{(a,b)} -> P_{n+1}^{(a,b-2)}:
    -(1-y^2) d/dy - (a/2) y^-1(1-R) + ((a/2+b) y - 1) + ((a/2) y - a) R."""
    a, b = params.alpha, params.beta
    return ReflOp([
        (-1, (MulPoly(Poly((1, 0, -1))), Diff)),
        (-a / 2, (OddOverY,)),
        (1, (MulPoly(Poly((-1, a / 2 + b))),)),
        (1, (MulPoly(Poly((-a, a / 2))), Reflect)),
    ])


def _nondegenerate_sequence(family: Jacobi1Params, degree: int) -> list:
    """``eigen_sequence`` of a family whose every member must exist."""
    seq = eigen_sequence(family, degree)
    if None in seq:
        raise DegenerateSpectrumError(
            f"degree {seq.index(None)} is degenerate at {family.label()}")
    return seq


def verify_lowering(params: ScarfParams, max_n: int) -> list:
    """Exact check of T_{a/2} P_n^{(a,b)} = [n]_a P_{n-1}^{(a,b+2)}.

    Returns per-n booleans; all True for every valid parameter pair.
    """
    a, b = params.alpha, params.beta
    ps = _nondegenerate_sequence(params, max_n)
    targets = _nondegenerate_sequence(unchecked(Jacobi1Params, a, b + 2),
                                      max_n - 1)
    t = dunkl(a / 2)
    out = []
    for n in range(max_n + 1):
        target = targets[n - 1].scale(bracket_n(n, a)) if n else Poly.zero()
        out.append(t.apply(ps[n]) == target)
    return out


def verify_raising(params: ScarfParams, max_n: int) -> tuple[list, list]:
    """Exact check of the gauged corrected Y against its mapping rule.

    Returns per-n verdicts for the corrected scalar (b - 1 + [n+1]_a) and
    for the printed one (b - 1 + [n]_a), which fails already at n = 0
    (actual scalar a + b), from one pass over the same images. Degenerate
    target families (possible since the map lands at b - 2) are reported as
    skips (None) in both lists.
    """
    a, b = params.alpha, params.beta
    ps = _nondegenerate_sequence(params, max_n)
    targets = eigen_sequence(unchecked(Jacobi1Params, a, b - 2), max_n + 1)
    y = gauged_y_corrected(params)
    corrected, printed = [], []
    for n in range(max_n + 1):
        target = targets[n + 1]
        if target is None:
            corrected.append(None)
            printed.append(None)
            continue
        image = y.apply(ps[n])
        corrected.append(image == target.scale(b - 1 + bracket_n(n + 1, a)))
        printed.append(image == target.scale(b - 1 + bracket_n(n, a)))
    return corrected, printed


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


def _test_functions(params: ScarfParams, g: gridmod.Grid) -> dict:
    x = g.nodes
    fns = {name: u.f(x) for name, u in _TEST_FNS.items()}
    # an eigenfunction of the system itself (smooth on the open interval),
    # left unnormalized: Psi_0 times P_2(sin x)
    fns["eigenfunction-2"] = (wavefunction_fn(0, params)(x)
                              * construct_eigen(2, params)(np.sin(x)))
    return fns


def _interior_mask(g: gridmod.Grid) -> np.ndarray:
    x = g.nodes
    return (np.abs(x) > 0.06) & (np.abs(np.abs(x) - g.halfwidth) > 0.06)


def _probes(params: ScarfParams, grids: tuple, operators: dict) -> list:
    """(grid, interior mask, test functions, operator stencils) per N."""
    return [(g, _interior_mask(g), _test_functions(params, g),
             {op: op.stencil(g) for op in operators})
            for g in (gridmod.Grid(n, math.pi / 2) for n in grids)]


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
    """Convergence order of a residual-norm ladder: ``grid.estimate_order``
    clamped to [0.25, 6], nan where it has none."""
    p = gridmod.estimate_order(norms)
    return p if math.isnan(p) else min(max(p, 0.25), 6.0)


def exact_residual(relation: refc.Relation, g: gridmod.Grid) -> float:
    """Max |residual u| of ``relation`` over the interior nodes of ``g`` (0.06
    away from the core and the walls), over the analytic test functions.

    The residual is composed exactly, so the value measures the true defect
    of the identity (plus rounding), not discretization error.
    """
    op, x = relation.residual(), g.nodes[_interior_mask(g)]
    worst = 0.0
    for u in _TEST_FNS.values():
        worst = max(worst, float(np.abs(op.apply(u, x)).max()))
    return worst


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
    (name, variant, expected verdict, ``refcalc.Relation``).

    First Q^2 = H and the parity conjugations R Q R = -Q and R H R = H at -b
    (variant "n/a"), then for the corrected and then the printed variant the
    X and Y intertwining relations and the product relation at the repaired
    and at the typeset parameter placement. Q and H, also at the mirrored
    and shifted b, are those of ``scarf_potential``. The expected verdict
    ("identity" or "defect") is the one the analysis predicts: the corrected
    maps satisfy the intertwining relations and the product relation at the
    repaired placement Y_{a,b+2} X_{a,b}; the printed maps fail those and
    satisfy the product relation at the typeset placement Y_{a,b+1}
    X_{a,b+1} (the printed X at b+1 IS the corrected X at b — an off-by-one
    in b).
    """
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
    """Residuals of the ``scarf_relations`` identities, two ways.

    ``residual``: the ``exact_residual`` on the finest grid (zero up to
    rounding for true identities). ``fd_norms``/``order``: the same chains
    run as finite-difference stencils over the grid ladder, whose norms must
    shrink at second order when the identity holds (``_fd_order``).
    ``verdict`` is "identity" for a residual below 1e-8, else "defect";
    ``expected`` is the verdict the analysis predicts.
    """
    relations = scarf_relations(params)
    operators = dict.fromkeys(op for *_, rel in relations
                              for chain in rel.lhs + rel.rhs for op in chain.ops)
    probes = _probes(params, grids, operators)
    finest = max(probes, key=lambda probe: probe[0].n)[0]
    results = []
    for name, variant, expected, relation in relations:
        norms = _residual_norms(relation, probes)
        resid = exact_residual(relation, finest)
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

class FockVector:
    """Finite superposition of number states, float amplitudes."""

    __slots__ = ("amps",)

    def __init__(self, amps: dict | None = None):
        self.amps = {int(n): float(c) for n, c in (amps or {}).items()
                     if c != 0.0}
        if any(n < 0 for n in self.amps):
            raise ValueError("negative occupation number")

    @staticmethod
    def basis(n: int) -> "FockVector":
        return FockVector({n: 1.0})

    def scale(self, c: float) -> "FockVector":
        return FockVector({n: c * v for n, v in self.amps.items()})

    def __add__(self, other: "FockVector") -> "FockVector":
        out = dict(self.amps)
        for n, v in other.amps.items():
            out[n] = out.get(n, 0.0) + v
        return FockVector(out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1.0)

    def inner(self, other: "FockVector") -> float:
        return sum(v * other.amps.get(n, 0.0) for n, v in self.amps.items())

    def norm(self) -> float:
        return math.sqrt(self.inner(self))

    def distance(self, other: "FockVector") -> float:
        return (self - other).norm()


def _a_apply(v: FockVector) -> FockVector:
    return FockVector({n - 1: math.sqrt(n) * c
                       for n, c in v.amps.items() if n >= 1})


def _adag_apply(v: FockVector) -> FockVector:
    return FockVector({n + 1: math.sqrt(n + 1) * c for n, c in v.amps.items()})


def osc_r_apply(v: FockVector) -> FockVector:
    return FockVector({n: (c if n % 2 == 0 else -c) for n, c in v.amps.items()})


def osc_q_apply(v: FockVector) -> FockVector:
    """Q = [(a - a^dag) R + a + a^dag] / 2."""
    rv = osc_r_apply(v)
    out = _a_apply(rv) - _adag_apply(rv) + _a_apply(v) + _adag_apply(v)
    return out.scale(0.5)


def osc_h_apply(v: FockVector) -> FockVector:
    """H = a^dag a + (1 - R)/2."""
    return _adag_apply(_a_apply(v)) + (v - osc_r_apply(v)).scale(0.5)


def osc_energy(n: int) -> int:
    """n + (1 - (-1)^n)/2: even numbers, doubly degenerate above zero."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    return n + (1 - (-1) ** n) // 2


def osc_mixed_state(n: int, eps: int) -> FockVector:
    """(|2n+1> + eps |2n+2>)/2: Q-eigenvector with eigenvalue eps sqrt(2n+2).

    Kept with the 1/2 prefactor as displayed; its norm is 1/sqrt(2), which
    the oscillator report records rather than silently renormalizing.
    """
    if eps not in (+1, -1):
        raise ValueError("eps must be +-1")
    return FockVector({2 * n + 1: 0.5, 2 * n + 2: 0.5 * eps})


_HALF = Fraction(1, 2)


def _laguerre(n: int, alpha: Fraction, t):
    """Generalized Laguerre polynomial L_n^(alpha)(t) at a float or a float
    array t.

    With p_k = L_k / C(k+alpha, k) and d_k = p_k - p_(k-1), the three-term
    recurrence becomes d_1 = -t/(alpha+1), p_1 = d_1 + 1 and, for k >= 1,

        d_(k+1) = -t/(k+alpha+1) p_k + k/(k+alpha+1) d_k,
        p_(k+1) = p_k + d_(k+1),

    and L_n = C(n+alpha, n) p_n. These are the float operations, in the same
    order, of ``scipy.special.eval_genlaguerre`` at an integer degree. The
    binomial is the exact (alpha+1)_n / n!, rounded once; for n <= 19 and
    alpha = +-1/2 it is the float scipy multiplies out, so the values agree
    bit for bit. scipy takes a beta function from n = 20 on, and the two
    differ there by a few units in the last place.
    """
    if n < 0:
        raise ValueError("Laguerre degree must be nonnegative")
    a = float(alpha)
    if n == 0:
        return np.ones_like(t, dtype=float)[()]
    if n == 1:
        return -t + a + 1
    d = -t / (a + 1)
    p = d + 1
    for k in map(float, range(1, n)):
        d = -t / (k + a + 1) * p + (k / (k + a + 1)) * d
        p = p + d
    return float(pochhammer(alpha + 1, n) / math.factorial(n)) * p


def osc_wavefunction(n: int, eps: int, x: float,
                     variant: str = "printed") -> float:
    """Coordinate form of |n, eps> through the Laguerre expression.

    ``printed`` uses the displayed relative weight (n+1) between the two
    Laguerre blocks; ``corrected`` uses sqrt(n+1), which is the weight that
    actually matches the Hermite superposition (exactly, with global factor
    2^(1/2 - n) under the epsilon pairing recorded by the oscillator report).

    The blocks are L_n^(1/2)(x^2) and L_(n+1)^(-1/2)(x^2), from ``_laguerre``
    (bit for bit ``scipy.special.eval_genlaguerre`` up to n = 18).

    ``x`` is a float or a float array. An array is evaluated bit for bit as
    the floats one by one: the Laguerre polynomials take the whole array,
    and the Gaussian stays ``math.exp`` per point.
    """
    if eps not in (+1, -1):
        raise ValueError("eps must be +-1")
    if variant not in ("printed", "corrected"):
        raise ValueError("variant must be 'printed' or 'corrected'")
    # (-1)^n pi^(-1/4) sqrt(n! / (n+1)_(n+1)), from the exact ratio
    pref = (-1) ** n / math.pi ** 0.25 * math.sqrt(
        float(Fraction(math.factorial(n)) / pochhammer(n + 1, n + 1)))
    weight = float(n + 1) if variant == "printed" else math.sqrt(n + 1.0)
    t = x * x
    gauss = (np.array([math.exp(-v / 2) for v in t.tolist()]) if np.ndim(t)
             else math.exp(-t / 2))
    return pref * gauss * (
        x * _laguerre(n, _HALF, t) + eps * weight * _laguerre(n + 1, -_HALF, t))


def _hermite_psi(m: int, x: float) -> float:
    hm = nph.hermval(x, [0.0] * m + [1.0])
    log_norm = 0.5 * (m * math.log(2.0) + math.lgamma(m + 1) + 0.5 * math.log(math.pi))
    return hm * math.exp(-x * x / 2 - log_norm)


def hermite_superposition(n: int, eps: int, x: float) -> float:
    """(psi_{2n+1}(x) + eps psi_{2n+2}(x))/2 with orthonormal Hermite states."""
    return 0.5 * (_hermite_psi(2 * n + 1, x) + eps * _hermite_psi(2 * n + 2, x))
