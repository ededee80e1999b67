"""Exact rational arithmetic helpers: Pochhammer symbols, terminating
(generalized) hypergeometric series, and a float Beta function.

A series is one call, ``hyp_terms(numerator_params, denominator_params,
z)``, which lists its terms; ``hyp2f1`` and ``hyp3f2`` sum them.

Everything rational is an exact ``fractions.Fraction``; no rounding happens
anywhere in this module except in :func:`beta_num`, which is deliberately a
float routine built on log-gamma and Stirling's series, with a stated
relative-error bound. Inside the loops the arithmetic is on Python ints: a
Pochhammer symbol is one integer product over one power of its
denominator, and a hypergeometric term is an integer ratio. A ``Fraction``
is built only for a value that leaves a function: the symbol and each
series term. A ``PochhammerTable`` keeps the integer prefix products of one
base for a caller that reads many symbols of it; it belongs to that caller.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

__all__ = [
    "DomainError",
    "NonTerminatingError",
    "SeriesDivisionByZero",
    "rat",
    "pochhammer",
    "PochhammerTable",
    "hyp_terms",
    "hyp2f1",
    "hyp3f2",
    "beta_num",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


class NonTerminatingError(ValueError):
    """Hypergeometric series does not terminate."""


class SeriesDivisionByZero(ZeroDivisionError):
    """A denominator Pochhammer vanishes inside the summation range."""


def rat(value) -> Fraction:
    """Coerce ints, "p/q" strings and Fractions to an exact Fraction.

    Floats are rejected: every rational entering the exact layer must be
    specified exactly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), exactly.

    (a)_0 = 1 for every a (empty product).
    """
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    a = rat(a)
    p, q = a.numerator, a.denominator
    # (a)_n = prod(p + k q) / q^n
    return Fraction(math.prod(range(p, p + n*q, q)), q**n)


class PochhammerTable:
    """The rising factorials (x)_0, (x)_1, ... of one rational base x = p/q
    as integer prefix products: (x)_m = ``num(m)``/q^m, with num(0) = 1 and
    num(m + 1) = num(m) (p + m q).

    Grown on demand and owned by its caller: no table is shared between
    callers or kept after its owner is gone. Since num(j) divides num(m)
    for j <= m, a caller can put (x)_0..(x)_m over the one denominator
    num(m) q^m.
    """

    __slots__ = ("p", "q", "_nums")

    def __init__(self, x):
        x = rat(x)
        self.p, self.q = x.numerator, x.denominator
        self._nums = [1]

    def num(self, m: int) -> int:
        """The integer numerator of (x)_m over q^m."""
        nums = self._nums
        if m >= len(nums):
            p, q = self.p, self.q
            for k in range(len(nums) - 1, m):
                nums.append(nums[k] * (p + k*q))
        return nums[m]


def hyp_terms(numerator_params, denominator_params, z) -> list:
    """The exact terms t_0 .. t_stop of the terminating hypergeometric series
    rFs(a_1..a_r; b_1..b_s; z), t_0 = 1 and
    t_(n+1) = t_n z prod(a_i + n) / ((n + 1) prod(b_j + n)). The series
    stops at the least -a over the numerator parameters a that are
    nonpositive integers.

    Raises NonTerminatingError when no numerator parameter is a nonpositive
    integer, and SeriesDivisionByZero when a denominator Pochhammer vanishes
    before the series has terminated.
    """
    numerator_params = [rat(a) for a in numerator_params]
    denominator_params = [rat(b) for b in denominator_params]
    z = rat(z)
    stops = [-a.numerator for a in numerator_params
             if a.denominator == 1 and a.numerator <= 0]
    if not stops:
        raise NonTerminatingError(
            "series does not terminate: no numerator parameter is a "
            "nonpositive integer")

    # a + n = (p + n q)/q: the ratio t_(n+1)/t_n is an integer ratio whose
    # fixed part collects z and the parameters' denominators
    nums = [(a.numerator, a.denominator) for a in numerator_params]
    dens = [(b.numerator, b.denominator) for b in denominator_params]
    fixed_num = z.numerator * math.prod(q for _, q in dens)
    fixed_den = z.denominator * math.prod(q for _, q in nums)
    terms = [Fraction(1)]
    num = den = 1                   # t_n = num/den, reduced
    for n in range(min(stops)):
        for b in denominator_params:
            if b.numerator + n*b.denominator == 0:
                raise SeriesDivisionByZero(
                    f"denominator parameter {b} vanishes at term {n+1}")
        num *= fixed_num * math.prod(p + n*q for p, q in nums)
        den *= fixed_den * (n + 1) * math.prod(p + n*q for p, q in dens)
        term = Fraction(num, den)
        num, den = term.numerator, term.denominator
        terms.append(term)
    return terms


def hyp2f1(a, b, c, z) -> Fraction:
    """Terminating Gauss 2F1(a, b; c; z), exact: the sum of its
    ``hyp_terms``."""
    return sum(hyp_terms((a, b), (c,), z), Fraction(0))


def hyp3f2(a1, a2, a3, b1, b2, z) -> Fraction:
    """Terminating 3F2(a1, a2, a3; b1, b2; z), exact: the sum of its
    ``hyp_terms``."""
    return sum(hyp_terms((a1, a2, a3), (b1, b2), z), Fraction(0))


_HALF_LOG_2PI = 0.5*math.log(2*math.pi)


def _stirling_tail(z: float) -> float:
    """lgamma(z) - [(z - 1/2) log z - z + log(2 pi)/2] for z > 20, as the
    first four terms of Stirling's series, 1/(12z) - 1/(360z^3) +
    1/(1260z^5) - 1/(1680z^7): the series is enveloping, so the error is
    below the first omitted term, 1/(1188 z^9) < 2e-15."""
    w = 1/(z*z)
    return (1/12 - w*(1/360 - w*(1/1260 - w/1680)))/z


def beta_num(x: float, y: float) -> float:
    """Beta function B(x, y) for positive arguments, to a relative error
    below 1e-12 wherever B(x, y) is a normal float.

    For max(x, y) <= 20 it is exp(lgamma(x) + lgamma(y) - lgamma(x + y)):
    each log-gamma there is below 745 in size, so the sum is off by a few
    times 1e-13 at most. Above 20 that sum cancels catastrophically (B(1e10,
    2) would be off by 5e-6), so with x >= y and s = x + y the log is taken
    as Stirling differences of terms that all share one sign:
    lgamma(x) - lgamma(s) = -(x - 1/2) log1p(y/x) - y log s + y plus the
    tails of x and s, with lgamma(y) added for y <= 20; for y > 20,
    log B = -(x - 1/2) log1p(y/x) - (y - 1/2) log1p(x/y) - log(s)/2 +
    log(2 pi)/2 plus the three tails. Every term is then correct to a few
    ulps of itself and at most |log B| + 80 in size, and |log B| < 710 for
    a normal B, so the log is off by less than 4e-13 and the tails by 6e-15.

    Raises DomainError for a nonpositive argument, and for a B(x, y) that
    overflows or falls below the normal range, where no float meets the
    bound.
    """
    if x <= 0 or y <= 0:
        raise DomainError(f"beta_num requires positive arguments, got ({x}, {y})")
    if max(x, y) <= 20:
        log_b = math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)
    else:
        x, y = max(x, y), min(x, y)
        s = x + y
        log_b = (-(x - 0.5)*math.log1p(y/x) + _stirling_tail(x)
                 - _stirling_tail(s))
        if y <= 20:
            log_b += math.lgamma(y) - y*math.log(s) + y
        else:
            log_b += (-(y - 0.5)*math.log1p(x/y) - 0.5*math.log(s)
                      + _HALF_LOG_2PI + _stirling_tail(y))
    try:
        b = math.exp(log_b)
    except OverflowError:
        b = math.inf
    if not sys.float_info.min <= b < math.inf:
        raise DomainError(f"B({x}, {y}) = exp({log_b}) is outside the normal "
                          "float range")
    return b
