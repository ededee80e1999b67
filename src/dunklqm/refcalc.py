"""Pointwise calculus for first-order differential-reflection operators.

Operators of the form  p(x) D + q(x) + r(x) R + s(x) DR  (D = d/dx, R the
reflection) are composed symbolically into second-order canonical form

    c2 D^2 + c1 D + c0 + (d2 D^2 + d1 D + d0) R,

using RD = -DR, R^2 = I, R f = fbar R and the product rule. Coefficients
carry their own derivatives, so composition is exact; applying a composed
operator to a test function with known derivatives costs only rounding.
This is what lets operator identities be verified to 1e-10 on a grid where
raw finite-difference compositions are O(h^2).

One representation, two evaluations: ``apply`` evaluates an operator
exactly on a test function, ``stencil`` by finite differences on a midpoint
grid (R is index reversal). An identity is one ``Relation`` between sums of
operator ``Chain``s, composed exactly by ``residual`` and run operator by
operator on grid values by ``stencil``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable

import numpy as np

__all__ = ["CoeffFn", "FirstOrderRefOp", "SecondOrderRefOp", "ProbeFn", "Chain",
           "Relation"]


@dataclass(frozen=True)
class CoeffFn:
    """A coefficient function bundled with its derivative."""

    f: Callable
    df: Callable

    @staticmethod
    def const(c: float) -> "CoeffFn":
        c = float(c)
        return CoeffFn(lambda x: c + 0.0 * x, lambda x: 0.0 * x)

    @staticmethod
    def zero() -> "CoeffFn":
        return CoeffFn.const(0.0)

    @staticmethod
    def tan() -> "CoeffFn":
        return CoeffFn(np.tan, lambda x: 1.0 / np.cos(x) ** 2)

    @staticmethod
    def sec() -> "CoeffFn":
        return CoeffFn(lambda x: 1.0 / np.cos(x),
                       lambda x: np.sin(x) / np.cos(x) ** 2)

    @staticmethod
    def csc() -> "CoeffFn":
        return CoeffFn(lambda x: 1.0 / np.sin(x),
                       lambda x: -np.cos(x) / np.sin(x) ** 2)

    def df_coeff(self) -> "CoeffFn":
        """Derivative as a CoeffFn; second derivatives are never needed, so the
        derivative-of-derivative slot evaluates to an error guard."""

        def poison(x):
            raise RuntimeError("second derivative of a coefficient requested")

        return CoeffFn(self.df, poison)

    def reflected(self) -> "CoeffFn":
        """x -> f(-x), with derivative -f'(-x)."""
        return CoeffFn(lambda x: self.f(-x), lambda x: -self.df(-x))

    def __add__(self, other: "CoeffFn") -> "CoeffFn":
        return CoeffFn(lambda x: self.f(x) + other.f(x),
                       lambda x: self.df(x) + other.df(x))

    def __neg__(self) -> "CoeffFn":
        return CoeffFn(lambda x: -self.f(x), lambda x: -self.df(x))

    def __sub__(self, other: "CoeffFn") -> "CoeffFn":
        return self + (-other)

    def __mul__(self, other: "CoeffFn") -> "CoeffFn":
        return CoeffFn(lambda x: self.f(x) * other.f(x),
                       lambda x: self.df(x) * other.f(x) + self.f(x) * other.df(x))

    def scale(self, c: float) -> "CoeffFn":
        c = float(c)
        return CoeffFn(lambda x: c * self.f(x), lambda x: c * self.df(x))


@dataclass(frozen=True)
class ProbeFn:
    f: Callable
    d1: Callable
    d2: Callable


@dataclass(frozen=True)
class FirstOrderRefOp:
    """p D + q + r R + s DR with CoeffFn coefficients."""

    p: CoeffFn
    q: CoeffFn
    r: CoeffFn
    s: CoeffFn

    @staticmethod
    def build(p=None, q=None, r=None, s=None) -> "FirstOrderRefOp":
        z = CoeffFn.zero()
        return FirstOrderRefOp(p or z, q or z, r or z, s or z)

    def compose(self, other: "FirstOrderRefOp") -> "SecondOrderRefOp":
        """self о other in canonical second-order form (other applied first)."""
        pB, qB, rB, sB = self.p, self.q, self.r, self.s
        pA, qA, rA, sA = other.p, other.q, other.r, other.s
        pa_, qa_, ra_, sa_ = (c.reflected() for c in (pA, qA, rA, sA))
        z = CoeffFn.zero()
        c2, c1, c0 = z, z, z
        d2, d1, d0 = z, z, z
        # (pB D) о A
        c2 = c2 + pB * pA
        c1 = c1 + pB * pA.df_coeff() + pB * qA
        c0 = c0 + pB * qA.df_coeff()
        d2 = d2 + pB * sA
        d1 = d1 + pB * (rA + sA.df_coeff())
        d0 = d0 + pB * rA.df_coeff()
        # qB о A
        c1 = c1 + qB * pA
        c0 = c0 + qB * qA
        d1 = d1 + qB * sA
        d0 = d0 + qB * rA
        # (rB R) о A:   R(pA D) = -pa DR;  R qA = qa R;  R(rA R) = ra;
        #               R(sA DR) = -sa D
        d1 = d1 - rB * pa_
        d0 = d0 + rB * qa_
        c0 = c0 + rB * ra_
        c1 = c1 - rB * sa_
        # (sB DR) о A:  DR(pA D) = -(pa' DR + pa D^2 R) ... derived via
        #               D о (R о A): R о A = -pa DR + qa R + ra + sa(-D)
        #   D о (-pa DR) = -(pa' DR + pa D^2 R)
        #   D о (qa R)   = qa' R + qa DR
        #   D о (ra)     = ra' + ra D
        #   D о (-sa D)  = -(sa' D + sa D^2)
        d2 = d2 - sB * pa_
        d1 = d1 + sB * (qa_ - pa_.df_coeff())
        d0 = d0 + sB * qa_.df_coeff()
        c0 = c0 + sB * ra_.df_coeff()
        c1 = c1 + sB * (ra_ - sa_.df_coeff())
        c2 = c2 - sB * sa_
        return SecondOrderRefOp(c2, c1, c0, d2, d1, d0)

    def as_second_order(self) -> "SecondOrderRefOp":
        z = CoeffFn.zero()
        # the apply() convention below already encodes (DR u)(x) = -u'(-x),
        # so s DR lands in the d1 slot unchanged
        return SecondOrderRefOp(z, self.p, self.q, z, self.s, self.r)

    def conjugated_by_reflection(self) -> "FirstOrderRefOp":
        """R o self o R = -pbar D + qbar + rbar R - sbar DR."""
        return FirstOrderRefOp(-self.p.reflected(), self.q.reflected(),
                               self.r.reflected(), -self.s.reflected())

    def apply(self, u: ProbeFn, x: np.ndarray) -> np.ndarray:
        return self.as_second_order().apply(u, x)

    def stencil(self, grid) -> Callable[[np.ndarray], np.ndarray]:
        return self.as_second_order().stencil(grid)


@dataclass(frozen=True)
class SecondOrderRefOp:
    """c2 D^2 + c1 D + c0 + (d2 D^2 + d1 D + d0) R."""

    c2: CoeffFn
    c1: CoeffFn
    c0: CoeffFn
    d2: CoeffFn
    d1: CoeffFn
    d0: CoeffFn

    def __add__(self, other: "SecondOrderRefOp") -> "SecondOrderRefOp":
        return SecondOrderRefOp(self.c2 + other.c2, self.c1 + other.c1,
                                self.c0 + other.c0, self.d2 + other.d2,
                                self.d1 + other.d1, self.d0 + other.d0)

    def __sub__(self, other: "SecondOrderRefOp") -> "SecondOrderRefOp":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "SecondOrderRefOp":
        return SecondOrderRefOp(self.c2.scale(c), self.c1.scale(c),
                                self.c0.scale(c), self.d2.scale(c),
                                self.d1.scale(c), self.d0.scale(c))

    def conjugated_by_reflection(self) -> "SecondOrderRefOp":
        """R o self o R: even-derivative coefficients reflect, odd ones flip."""
        return SecondOrderRefOp(self.c2.reflected(), -self.c1.reflected(),
                                self.c0.reflected(), self.d2.reflected(),
                                -self.d1.reflected(), self.d0.reflected())

    def apply(self, u: ProbeFn, x: np.ndarray) -> np.ndarray:
        """Evaluate on a test function with known derivatives.

        (D^2 R u)(x) = u''(-x), (D R u)(x) = -u'(-x), (R u)(x) = u(-x).
        """
        direct = self.c2.f(x) * u.d2(x) + self.c1.f(x) * u.d1(x) \
            + self.c0.f(x) * u.f(x)
        refl = self.d2.f(x) * u.d2(-x) - self.d1.f(x) * u.d1(-x) \
            + self.d0.f(x) * u.f(-x)
        return direct + refl

    def as_second_order(self) -> "SecondOrderRefOp":
        return self

    def stencil(self, grid) -> Callable[[np.ndarray], np.ndarray]:
        """Evaluate by central differences and the 3-point Laplacian on
        ``grid``; edge rows (one-sided, or copied from the neighbour) are
        only meaningful away from the walls. Coefficient arrays are taken
        once, here; terms are added in the order D^2, D, 1, R, DR, D^2 R,
        leaving out those whose coefficient vanishes on every node."""
        x, h = grid.nodes, grid.h
        terms = [(c.f(x), term) for c, term in (
            (self.c2, lambda u: _second_difference(u, h)),
            (self.c1, lambda u: _first_difference(u, h)),
            (self.c0, lambda u: u),
            (self.d0, lambda u: u[::-1]),
            (self.d1, lambda u: _first_difference(u[::-1], h)),
            (self.d2, lambda u: _second_difference(u[::-1], h)))]
        terms = [(c, term) for c, term in terms if c.any()]
        return lambda u: sum((c * term(u) for c, term in terms), np.zeros_like(u))


def _first_difference(w: np.ndarray, h: float) -> np.ndarray:
    dw = np.empty_like(w)
    dw[1:-1] = (w[2:] - w[:-2]) / (2*h)
    dw[0] = (w[1] - w[0]) / h
    dw[-1] = (w[-1] - w[-2]) / h
    return dw


def _second_difference(w: np.ndarray, h: float) -> np.ndarray:
    lap = np.empty_like(w)
    lap[1:-1] = (w[2:] - 2*w[1:-1] + w[:-2]) / h**2
    lap[0] = lap[1]
    lap[-1] = lap[-2]
    return lap


@dataclass(frozen=True)
class Chain:
    """``scale`` times the product of ``ops`` (the last acts first; none is
    the identity, two are first order), conjugated by R if ``by_reflection``."""

    scale: float
    ops: tuple
    by_reflection: bool

    def composed(self) -> SecondOrderRefOp:
        """The chain in canonical second-order form, by exact composition;
        R (A B) R is composed as (R A R)(R B R)."""
        ops = ([op.conjugated_by_reflection() for op in self.ops]
               if self.by_reflection else self.ops)
        first, *rest = ops or (FirstOrderRefOp.build(q=CoeffFn.const(1.0)),)
        op = first.compose(*rest) if rest else first.as_second_order()
        return op if self.scale == 1 else op.scale(self.scale)

    def stencil(self, stencils: dict) -> Callable[[np.ndarray], np.ndarray]:
        """The chain run one operator at a time on grid values; ``stencils``
        maps each operator to its ``stencil`` on that grid."""
        flip = [lambda u: u[::-1]] if self.by_reflection else []
        steps = flip + [stencils[op] for op in reversed(self.ops)] + flip

        def apply(u: np.ndarray) -> np.ndarray:
            for step in steps:
                u = step(u)
            return u if self.scale == 1 else self.scale * u

        return apply


@dataclass(frozen=True)
class Relation:
    """The operator identity sum(lhs) = sum(rhs) between tuples of chains."""

    lhs: tuple
    rhs: tuple

    def residual(self) -> SecondOrderRefOp:
        """sum(lhs) - sum(rhs) composed exactly: zero iff the identity holds."""
        def total(side):
            return reduce(add, (chain.composed() for chain in side))

        return total(self.lhs) - total(self.rhs)

    def stencil(self, stencils: dict) -> Callable[[np.ndarray], np.ndarray]:
        """sum(lhs) - sum(rhs) by finite differences (see ``Chain.stencil``):
        O(h^2) on smooth functions where the identity holds."""
        lhs = [chain.stencil(stencils) for chain in self.lhs]
        rhs = [chain.stencil(stencils) for chain in self.rhs]
        return lambda u: sum(s(u) for s in lhs) - sum(s(u) for s in rhs)
