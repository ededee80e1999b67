"""Pointwise calculus for first-order differential-reflection operators.

An operator is held as a map of words: each word is c(x) D^k R^j (D = d/dx,
R the reflection), keyed (k, j). A first-order operator is

    p D + q + r R + s DR,

a second-order one  c2 D^2 + c1 D + c0 + (d2 D^2 + d1 D + d0) R.  The whole
calculus follows from four rules,

    R f = fbar R,   R D = -D R,   R^2 = 1,   D f = f' + f D,

(fbar(x) = f(-x)), applied word by word: composition moves the R of each
left word to the right, R (c D^k R^j) R = (-1)^k cbar D^k R^j conjugates,
and sums and scalings act on the coefficient of each word. A word that is
absent is zero and is never evaluated. Coefficients carry their own
derivatives, so composition is exact; applying a composed operator to a
test function with known derivatives costs only rounding. This is what lets
operator identities be verified to 1e-10 on a grid where raw
finite-difference compositions are O(h^2).

One representation, two evaluations: ``apply`` evaluates an operator
exactly on a test function, ``stencil`` by finite differences on a midpoint
grid (R is index reversal). An identity is one ``Relation`` between sums of
operator ``Chain``s, composed exactly by ``residual`` and run operator by
operator on grid values by ``stencil``.

The midpoint ``Grid`` lives here, with the doubling-ladder helpers
(``check_doubling_ladder``, ``estimate_order``) that the stencil checks and
grid's convergence studies share. Its nodes are uniform with a half-cell
offset, so that none falls on x = 0 or on the endpoints; reflection is then
the exact index reversal i -> N-1-i. None of this loads scipy.

``apply`` is two steps that a caller may also take apart: the operator's
``coefficient_arrays`` at the points, and the test function's
``word_values`` (its derivatives at +-x) for the words present. ``evaluate``
sums their products. A caller that checks many operators on the same test
functions and points (``susyqm.exact_residual``) takes each operator's
arrays once and each test function's values once, over the union of the
operators' words; the result is ``apply``'s bit for bit. Nothing is kept
beyond the call that made it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Sequence

import numpy as np

__all__ = ["Grid", "CoeffFn", "FirstOrderRefOp", "SecondOrderRefOp", "ProbeFn",
           "Chain", "Relation"]


def check_halfwidth(c: float) -> None:
    """ValueError unless ``c``, the halfwidth of a grid or of a quadrature
    interval, is positive and finite."""
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"halfwidth must be positive and finite, got {c!r}")


@dataclass(frozen=True)
class Grid:
    """Symmetric midpoint grid: x_i = -b + (i + 1/2) h, h = 2b/N."""

    n: int
    halfwidth: float

    def __post_init__(self):
        if self.n <= 0 or self.n % 2:
            raise ValueError("grid size must be even and positive")
        check_halfwidth(self.halfwidth)

    @property
    def h(self) -> float:
        return 2.0 * self.halfwidth / self.n

    @property
    def nodes(self) -> np.ndarray:
        return -self.halfwidth + (np.arange(self.n) + 0.5) * self.h


def estimate_order(values: Sequence[float]) -> float:
    """Convergence order from the last three values of a doubling ladder."""
    v = [float(x) for x in values]
    if len(v) < 3:
        return float("nan")
    d1, d2 = v[-3] - v[-2], v[-2] - v[-1]
    if d2 == 0.0 or abs(d2) < 1e-14 * max(1.0, abs(v[-1])) or d1 / d2 <= 0:
        return float("nan")
    return math.log2(d1 / d2)


def check_doubling_ladder(n_list: Sequence[int]) -> list:
    """``n_list`` as a list if it is a doubling ladder N, 2N, 4N, ... of at
    least three even positive grid sizes, else ValueError: the Richardson
    steps and the order estimates assume a ratio of 2 and need three values."""
    n_list = list(n_list)
    if any(n <= 0 or n % 2 for n in n_list):
        raise ValueError("grid sizes must be even and positive")
    if len(n_list) < 3:
        raise ValueError("need at least three grid sizes")
    if any(b != 2 * a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("grid list must double (N, 2N, 4N, ...): the "
                         "extrapolation assumes a ratio of 2")
    return n_list


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
    """A test function with its first and second derivatives."""

    f: Callable
    d1: Callable
    d2: Callable

    def word_values(self, x: np.ndarray, words) -> dict:
        """{(k, j): (D^k R^j u)(x) = (-1)^(jk) u^(k)((-1)^j x)} for each word
        (k, j) in ``words``: one call per derivative and sign that a word
        reads, none for a word that is absent."""
        derivatives, points = (self.f, self.d1, self.d2), (x, -x)
        return {(k, j): -derivatives[k](points[j]) if j * k == 1
                else derivatives[k](points[j]) for k, j in words}


# The words D^k R^j, keyed (k, j), in the order in which the terms of a
# product and of a stencil are summed: D^2, D, 1, R, DR, D^2 R.
_WORDS = ((2, 0), (1, 0), (0, 0), (0, 1), (1, 1), (2, 1))


def _summed(terms) -> dict:
    """{word: the sum of its coefficients in ``terms``, in the order given}."""
    out = {}
    for word, c in terms:
        out[word] = out[word] + c if word in out else c
    return out


@dataclass(frozen=True, eq=False)
class _WordOp:
    """The sum of c D^k R^j over ``words``, a {(k, j): c} map. Operators
    compare and hash by identity."""

    words: dict

    def __getitem__(self, word: tuple) -> CoeffFn:
        """The coefficient of D^k R^j for ``word`` = (k, j); zero if absent."""
        return self.words.get(word, CoeffFn.zero())

    def _present(self) -> list:
        """(word, coefficient) of each present word, in ``_WORDS`` order."""
        return [(w, self.words[w]) for w in _WORDS if w in self.words]

    def scale(self, c: float):
        return type(self)({w: coeff.scale(c) for w, coeff in self._present()})

    def conjugated_by_reflection(self):
        """R o self o R, word by word: R (c D^k R^j) R = (-1)^k cbar D^k R^j."""
        return type(self)({(k, j): -c.reflected() if k % 2 else c.reflected()
                           for (k, j), c in self._present()})

    def stencil(self, grid) -> Callable[[np.ndarray], np.ndarray]:
        """Evaluate by central differences and the 3-point Laplacian on
        ``grid``; edge rows (one-sided, or copied from the neighbour) are
        only meaningful away from the walls. Coefficient arrays are taken
        once, here; terms are added in ``_WORDS`` order, leaving out those
        whose coefficient vanishes on every node."""
        x, h = grid.nodes, grid.h
        differences = (lambda w: w, lambda w: _first_difference(w, h),
                       lambda w: _second_difference(w, h))
        terms = [(c.f(x), differences[k], j) for (k, j), c in self._present()]
        terms = [(c, diff, j) for c, diff, j in terms if c.any()]
        return lambda u: sum((c * diff(u[::-1] if j else u) for c, diff, j in terms),
                             np.zeros_like(u))


class FirstOrderRefOp(_WordOp):
    """p D + q + r R + s DR: the words (1, 0), (0, 0), (0, 1), (1, 1)."""

    @staticmethod
    def build(p=None, q=None, r=None, s=None) -> "FirstOrderRefOp":
        """The operator with the given coefficients; one left out is absent."""
        return FirstOrderRefOp({w: c for w, c in zip(_WORDS[1:5], (p, q, r, s))
                                if c is not None})

    def compose(self, other: "FirstOrderRefOp") -> "SecondOrderRefOp":
        """self o other in canonical second-order form (other applied first).

        Each pair of words multiplies as
            b D^i R^j o a D^k R^l = (-1)^(jk) b D^i abar D^k R^(j xor l),
        abar the reflected a if j = 1, and D a = a' + a D expands D^i.
        """
        def products():
            for (i, j), b in self._present():
                for (k, l), a in other._present():
                    if j:
                        a = -a.reflected() if k else a.reflected()
                    if i:
                        yield (k, j ^ l), b * a.df_coeff()
                    yield (k + i, j ^ l), b * a

        return SecondOrderRefOp(_summed(products()))

    def as_second_order(self) -> "SecondOrderRefOp":
        return SecondOrderRefOp(self.words)

    def apply(self, u: ProbeFn, x: np.ndarray) -> np.ndarray:
        return self.as_second_order().apply(u, x)


class SecondOrderRefOp(_WordOp):
    """c2 D^2 + c1 D + c0 + (d2 D^2 + d1 D + d0) R."""

    def __add__(self, other: "SecondOrderRefOp") -> "SecondOrderRefOp":
        return SecondOrderRefOp(_summed([*self._present(), *other._present()]))

    def __sub__(self, other: "SecondOrderRefOp") -> "SecondOrderRefOp":
        return self + other.scale(-1.0)

    def apply(self, u: ProbeFn, x: np.ndarray) -> np.ndarray:
        """Evaluate on a test function with known derivatives: ``evaluate``
        of this operator's coefficient arrays and ``u``'s word values."""
        return self.evaluate(self.coefficient_arrays(x),
                             u.word_values(x, self.words), x)

    def coefficient_arrays(self, x: np.ndarray) -> dict:
        """{word: its coefficient at ``x``}, one evaluation per present word."""
        return {w: c.f(x) for w, c in self.words.items()}

    @staticmethod
    def evaluate(coefficients: dict, values: dict, x: np.ndarray) -> np.ndarray:
        """The sum of c (D^k R^j u)(x) over the words of ``coefficients``
        (from ``coefficient_arrays``), each word's value read from ``values``
        (``ProbeFn.word_values`` over at least those words). The direct and
        the reflected words are each summed from D^2 down, then added."""
        sides = []
        for j in (0, 1):
            terms = [coefficients[k, j] * values[k, j]
                     for k in (2, 1, 0) if (k, j) in coefficients]
            sides += [reduce(add, terms)] if terms else []
        return reduce(add, sides) if sides else np.zeros_like(x)

    def as_second_order(self) -> "SecondOrderRefOp":
        return self


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
