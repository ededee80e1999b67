"""Exact rational arithmetic helpers: Pochhammer symbols, terminating
(generalized) hypergeometric series, and a float Beta function.

A series is one call, ``hyp_terms(numerator_params, denominator_params,
z)``, which lists its terms; ``hyp2f1`` and ``hyp3f2`` sum them.

Everything rational is an exact ``fractions.Fraction``; no rounding happens
anywhere in this module except in :func:`beta_num`, which is deliberately a
float routine built on log-gamma. Inside the loops the arithmetic is on
Python ints: a Pochhammer symbol is one integer product over one power of
its denominator, and a hypergeometric term is an integer ratio. A
``Fraction`` is built only for a value that leaves a function: the symbol
and each series term.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "DomainError",
    "NonTerminatingError",
    "SeriesDivisionByZero",
    "rat",
    "pochhammer",
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


def beta_num(x: float, y: float) -> float:
    """Beta function B(x, y) for positive arguments via log-gamma.

    Accurate to better than twelve significant figures over the parameter
    ranges used here.
    """
    if x <= 0 or y <= 0:
        raise DomainError(f"beta_num requires positive arguments, got ({x}, {y})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
