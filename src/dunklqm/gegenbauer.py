"""Generalized Gegenbauer polynomials and the associated Schroedinger operator
with a reflection term.

The family consists of the symmetric polynomials orthogonal for the weight
|y|^(2 mu) (1-y^2)^alpha on [-1, 1]; they solve

    L P_n = lambda_n P_n,    L = (1 - y^2) T_mu^2 - 2 (alpha + 1) y T_mu,

with T_mu the Dunkl operator. Conjugating -L by the ground-state factor
F0 = |sin x|^mu cos^(alpha+1/2) x (after y = sin x) gives the Hamiltonian
-d^2/dx^2 + U0(x) + U1(x) R of ``susyqm.SusySystem.gegenbauer``, whose
``ground`` alone states F0, with energies -lambda_n >= 0. The printed U0
and U1 carry constants inconsistent with H F0 = 0 (U0 by -mu^2 - 1/4, U1's
with the opposite sign); the ``derived`` variant fixes them and reproduces
the Poeschl-Teller (mu = 0) and two-particle Calogero-Sutherland-Moser
(alpha = -1/2) cases exactly. Both stay, so the discrepancy is measured.

``GegParams`` supplies the family's math to ``opalg``'s generic battery
(with parity, being symmetric). ``HermiteParams`` is the other symmetric
family on T_mu: the generalized Hermite polynomials of the Bose-like
oscillator (Rosenblum, Oper. Theory Adv. Appl. 73, 1994), orthogonal for
|y|^(2 mu) e^(-y^2); at mu = 0, H_n/2^n, the oscillator's polynomials.
There the supersymmetric oscillator of ``susyqm.SusySystem.oscillator`` is
checked exactly in the gauge psi = e^(-x^2/2) p, where its Q and H are
``ReflOp``s (``osc_gauged_supercharge``, ``osc_gauged_hamiltonian``,
``verify_oscillator``) and E_n = ``oscillator_energy``(n, lambda_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import DomainError, rat
from .opalg import (
    Diff,
    MulPoly,
    OrthogonalFamily,
    Poly,
    Reflect,
    ReflOp,
    compose,
    dunkl,
    gram_sequence,
)

__all__ = [
    "GegParams",
    "HermiteParams",
    "oscillator_energy",
    "osc_gauged_supercharge",
    "osc_gauged_hamiltonian",
    "verify_oscillator",
    "lop_geg",
    "eigenvalue_geg",
    "geg_potentials",
    "csm_two_particle_check",
    "GEG_FUZZ_PARAMS",
]

_Y = ReflOp.from_primitive(MulPoly(Poly((0, 1))))

GEG_FUZZ_PARAMS = (
    (Fraction(1, 2), Fraction(1)),
    (Fraction(1), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(2)),
    (Fraction(3, 2), Fraction(1, 5)),
)


@dataclass(frozen=True)
class GegParams(OrthogonalFamily):
    mu: Fraction
    alpha: Fraction

    family_name = "generalized-gegenbauer"
    symmetric = True

    def __post_init__(self):
        object.__setattr__(self, "mu", rat(self.mu))
        object.__setattr__(self, "alpha", rat(self.alpha))
        if self.mu <= Fraction(-1, 2) or self.alpha <= -1:
            raise ValueError("integrable weight requires mu > -1/2, alpha > -1")

    def operator(self) -> ReflOp:
        return lop_geg(self)

    def eigenvalue(self, n: int) -> Fraction:
        return eigenvalue_geg(n, self)

    def next_moment(self, lower: list) -> Fraction:
        """Moments of |y|^(2mu) (1-y^2)^alpha, normalized to m_0 = 1.

        Odd moments vanish by symmetry; the even ones follow the
        Beta-integral recursion m_{2n}/m_{2n-2} =
        (mu + n - 1/2)/(mu + n + alpha + 1/2).
        """
        if len(lower) % 2 == 1:
            return Fraction(0)
        n = len(lower) // 2
        ratio = ((self.mu + n - Fraction(1, 2))
                 / (self.mu + n + self.alpha + Fraction(1, 2)))
        return lower[-2] * ratio


@dataclass(frozen=True)
class HermiteParams(OrthogonalFamily):
    """L = T_mu^2 - 2y T_mu. As T_mu y^n = (n + 2 mu [n odd]) y^(n-1), L
    keeps the degree, with eigenvalue -2n for even n and -2(n + 2 mu) for
    odd n: at a half-odd-integer mu the even degree n + 2 mu collides with
    the odd degree n."""

    mu: Fraction

    family_name = "generalized-hermite"
    symmetric = True

    def __post_init__(self):
        object.__setattr__(self, "mu", rat(self.mu))
        if self.mu <= Fraction(-1, 2):
            raise ValueError("integrable weight requires mu > -1/2")

    def operator(self) -> ReflOp:
        t = dunkl(self.mu)
        return compose(t, t) - compose(_Y, t).scale(2)

    def eigenvalue(self, n: int) -> Fraction:
        return Fraction(-2 * n) if n % 2 == 0 else -2 * (n + 2 * self.mu)

    def next_moment(self, lower: list) -> Fraction:
        """Moments of the weight, normalized to m_0 = 1: odd ones vanish,
        and m_{2k}/m_{2k-2} = mu + k - 1/2."""
        if len(lower) % 2 == 1:
            return Fraction(0)
        return lower[-2] * (self.mu + len(lower) // 2 - Fraction(1, 2))

    def recurrence(self, k: int) -> Fraction:
        """b_k = k/2 + mu [k odd] of P_(k+1) = y P_k - b_k P_(k-1) (a_k = 0),
        which ``recurrence_coefficients`` reads off the moments."""
        return Fraction(k, 2) + (self.mu if k % 2 else 0)


# ---------------------------------------------------------------------------
# supersymmetric oscillator, gauged
# ---------------------------------------------------------------------------

_D, _R = ReflOp.from_primitive(Diff), ReflOp.from_primitive(Reflect)
_OSC_DEGREE = 12


def oscillator_energy(n: int, lam: Fraction) -> Fraction:
    """E_n = (-lambda_n + 1 - (-1)^n)/2 = 0, 2, 2, 4, 4, ... of the
    oscillator, from lambda_n of ``HermiteParams(0)``."""
    return (-lam + 1 - (-1) ** n) / 2


def osc_gauged_supercharge() -> ReflOp:
    """sqrt(2) Qtilde = D R + y(1 - R), D = d/dy: the supercharge
    Q = [(a - a^dag) R + a + a^dag]/2 = (d/dx R + x)/sqrt(2) in the gauge
    psi = e^(-x^2/2) p, as R commutes with the Gaussian and
    e^(x^2/2) d/dx e^(-x^2/2) = D - y."""
    return compose(_D, _R) + _Y - compose(_Y, _R)


def osc_gauged_hamiltonian() -> ReflOp:
    """2 Htilde = 2y D - D^2 + (1 - R): 2H = 2 a^dag a + 1 - R =
    -d^2/dx^2 + x^2 - R in the same gauge, where d^2/dx^2 becomes
    (D - y)^2 = D^2 - 2y D + y^2 - 1. On y^n it is 2 E_n plus lower
    degrees, E_n = n + (1 - (-1)^n)/2 = ``oscillator_energy``."""
    return (compose(_Y, _D).scale(2) - compose(_D, _D) + ReflOp([(1, ())])
            - _R)


def verify_oscillator() -> dict:
    """Exact verdicts on e^(-x^2/2) P_n, with P_0..P_12 (spanning 1..y^12)
    and ||P_n||^2 from ``gram_sequence`` on the moments of
    ``HermiteParams(0)``.
    ``q_squared_equals_h``: (sqrt(2) Qtilde)^2 = 2 Htilde on them.
    ``spectrum``: 2 Htilde P_n = 2 E_n P_n, E_n = ``oscillator_energy``.
    ``mixed_state_blocks``: for n <= 5, sqrt(2) Qtilde maps P_(2n+1) to
    2 P_(2n+2) and P_(2n+2) to 2(n+1) P_(2n+1), both squared normalized
    elements are 2n+2, so Q is [[0, s], [s, 0]], s = sqrt(2n+2), and
    (|2n+1> + eps |2n+2>)/2 has eigenvalue eps s."""
    q, h = osc_gauged_supercharge(), osc_gauged_hamiltonian()
    family = HermiteParams(0)
    gram = gram_sequence(family.moments(2 * _OSC_DEGREE + 1), _OSC_DEGREE)
    qp = [q.apply(p) for p, _ in gram]
    hp = [h.apply(p) for p, _ in gram]

    def block(n: int) -> bool:
        (odd, odd_sq), (even, even_sq) = gram[2 * n + 1], gram[2 * n + 2]
        up, down = 2, 2 * (n + 1)
        return (qp[2 * n + 1] == even.scale(up)
                and qp[2 * n + 2] == odd.scale(down)
                and up * up * even_sq / (2 * odd_sq) == 2 * n + 2
                and down * down * odd_sq / (2 * even_sq) == 2 * n + 2)

    return {
        "q_squared_equals_h": all(q.apply(qn) == hn for qn, hn in zip(qp, hp)),
        "spectrum": all(
            hn == p.scale(2 * oscillator_energy(n, family.eigenvalue(n)))
            for n, ((p, _), hn) in enumerate(zip(gram, hp))),
        "mixed_state_blocks": all(block(n) for n in range(6)),
    }


def lop_geg(params: GegParams) -> ReflOp:
    """L = (1-y^2) T_mu^2 - 2(alpha+1) y T_mu, degree preserving."""
    t = dunkl(params.mu)
    first = compose(ReflOp.from_primitive(MulPoly(Poly((1, 0, -1)))), compose(t, t))
    return first + compose(_Y, t).scale(-2 * (params.alpha + 1))


def eigenvalue_geg(n: int, params: GegParams) -> Fraction:
    """-n(n+1+2 alpha+2 mu) for even n, -(2 mu+n)(2 alpha+n+1) for odd n."""
    mu, al = params.mu, params.alpha
    if n % 2 == 0:
        return Fraction(-n) * (n + 1 + 2 * al + 2 * mu)
    return -(2 * mu + n) * (2 * al + n + 1)


# ---------------------------------------------------------------------------
# Schroedinger form
# ---------------------------------------------------------------------------

def geg_potentials(params: GegParams, x: float,
                   variant: str = "printed") -> tuple[float, float]:
    """(U0(x), U1(x)) for the reflection Schroedinger operator; its ground
    factor F0 is ``susyqm.SusySystem.gegenbauer``'s ``ground``.

    ``printed`` evaluates the commonly typeset rational-trig expressions;
    ``derived`` the forms consistent with H = -F0 L F0^{-1} (which differ
    only in constants: U0 by mu^2 + 1/4, U1's constant by sign).
    """
    if variant not in ("printed", "derived"):
        raise ValueError(f"unknown variant {variant!r}")
    if x == 0.0 or abs(x) >= math.pi / 2:
        raise DomainError(f"potentials singular at x={x}")
    mu, al = float(params.mu), float(params.alpha)
    c2, s2 = math.cos(x) ** 2, math.sin(x) ** 2
    if variant == "printed":
        u0 = (al**2 * c2**2 + (mu**2 - 2 * al**2 + 0.25) * c2 + al**2 - 0.25) \
            / (c2 * s2) - al
        u1 = (2 * al + 1) * mu - mu / s2
    else:
        u0 = mu**2 / s2 + (al**2 - 0.25) / c2 - (mu + al + 0.5) ** 2 \
            + (2 * al + 1) * mu
        u1 = -mu / s2 - (2 * al + 1) * mu
    return u0, u1


def csm_two_particle_check(mu, x1: float, x2: float) -> float:
    """Residual of the two-particle Calogero-Sutherland reduction.

    The two-body Hamiltonian with exchange term, at coupling beta = 2 mu and
    gamma = 2^{-1/2}, reduces in the relative coordinate x = (x1-x2)/sqrt(2)
    to mu^2/sin^2 x - (mu/sin^2 x) S12. Returns the larger of the two
    coefficient mismatches (scalar and exchange) against that target.
    """
    mu = float(rat(mu)) if not isinstance(mu, float) else mu
    if x1 == x2:
        raise DomainError("coincident particles")
    gamma = 2 ** -0.5
    s = math.sin(gamma * (x1 - x2))
    if s == 0.0:
        raise DomainError("sin(gamma (x1 - x2)) vanishes")
    beta = 2 * mu
    # pair term of the exchange Hamiltonian: beta gamma^2 (beta/2 - S12)/sin^2
    scalar_pair = beta * gamma**2 * (beta / 2) / s**2
    exchange_pair = -beta * gamma**2 / s**2
    x = (x1 - x2) / math.sqrt(2.0)
    scalar_rel = mu**2 / math.sin(x) ** 2
    exchange_rel = -mu / math.sin(x) ** 2
    return max(abs(scalar_pair - scalar_rel), abs(exchange_pair - exchange_rel))
