"""Tests for exact rational arithmetic, Pochhammer and hypergeometric sums."""

from fractions import Fraction as F

import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from dunklqm.exact import (
    DomainError,
    NonTerminatingError,
    SeriesDivisionByZero,
    beta_num,
    hyp2f1,
    hyp3f2,
    hyp_terms,
    pochhammer,
    rat,
)


def test_rat_parsing():
    assert rat("3/7") == F(3, 7)
    assert rat(5) == F(5)
    assert rat(F(-2, 9)) == F(-2, 9)
    with pytest.raises(TypeError):
        rat(0.5)


def test_pochhammer_values():
    assert pochhammer(3, 4) == 360
    assert pochhammer(F(7, 3), 0) == 1
    assert pochhammer(F(1, 2), 2) == F(3, 4)
    with pytest.raises(ValueError):
        pochhammer(1, -1)


rationals = st.fractions(min_value=F(-6), max_value=F(6), max_denominator=8)


@settings(max_examples=100, derandomize=True)
@given(rationals, st.integers(0, 8), st.integers(0, 8))
def test_pochhammer_splitting(a, m, k):
    # (a)_{m+k} = (a)_k (a+k)_m
    assert pochhammer(a, m + k) == pochhammer(a, k) * pochhammer(a + k, m)


def test_hyp2f1_one_term():
    assert hyp2f1(-1, F(1, 2), 2, 1) == F(3, 4)


def test_hyp2f1_chu_vandermonde_example():
    # direct summation against (c-b)_n / (c)_n
    val = hyp2f1(-3, F(1, 2), 2, 1)
    assert val == pochhammer(F(3, 2), 3) / pochhammer(2, 3)
    assert val == F(35, 64)


def test_hyp3f2_example():
    # 3F2(1-k, b, c+k; b+1, c; 1) at k=2, b=1, c=3 against its finite-sum form
    k, b, c = 2, F(1), F(3)
    lhs = hyp3f2(1 - k, b, c + k, b + 1, c, 1)
    rhs = (pochhammer(1, k - 1) / pochhammer(b + 1, k - 1)) * sum(
        pochhammer(b, l) / math.factorial(l) * hyp2f1(-l, c + k, c, 1)
        for l in range(k)
    )
    assert lhs == rhs == F(1, 6)


def test_hyp_nonterminating_rejected():
    with pytest.raises(NonTerminatingError):
        hyp_terms((F(1, 2), F(1, 3)), (F(5, 2),), 1)
    with pytest.raises(NonTerminatingError):
        hyp2f1(F(1, 2), F(1, 3), F(5, 2), 1)


def test_hyp_denominator_pole_detected():
    with pytest.raises(SeriesDivisionByZero):
        hyp2f1(-3, 1, -1, 1)
    # but termination before the pole is fine
    assert hyp2f1(-1, 1, -1, 1) == 2


nq = st.fractions(min_value=F(-5), max_value=F(5), max_denominator=6)


@settings(max_examples=64, derandomize=True)
@given(st.integers(0, 12), nq, nq)
def test_chu_vandermonde_property(n, b, c):
    # (c)_n must not vanish: skip c hitting nonpositive integers in range
    if c.denominator == 1 and -n < c <= 0:
        return
    assert hyp2f1(-n, b, c, 1) == pochhammer(c - b, n) / pochhammer(c, n)


@settings(max_examples=64, derandomize=True)
@given(st.integers(1, 8), nq, nq)
def test_3f2_summation_property(k, b, c):
    # both sides evaluated independently; avoid poles of either side
    if b.denominator == 1 and -k < b <= 0:
        return
    if c.denominator == 1 and -(2 * k) < c <= 0:
        return
    if (b + 1).denominator == 1 and -(k - 1) < b + 1 <= 0:
        return
    lhs = hyp3f2(1 - k, b, c + k, b + 1, c, 1)
    rhs = (pochhammer(1, k - 1) / pochhammer(b + 1, k - 1)) * sum(
        pochhammer(b, l) / math.factorial(l) * hyp2f1(-l, c + k, c, 1)
        for l in range(k)
    )
    assert lhs == rhs


def test_beta_classic_values():
    assert abs(beta_num(0.5, 0.5) - math.pi) < 1e-12
    assert abs(beta_num(1, 1) - 1) < 1e-15
    assert abs(beta_num(1.5, 1.5) - math.pi / 8) < 1e-13


def test_beta_domain():
    with pytest.raises(DomainError):
        beta_num(0.0, 1.0)
    with pytest.raises(DomainError):
        beta_num(1.0, -2.0)


@pytest.mark.parametrize("x", [0.5, 1.0, 1.75, 3.0, 5.0])
@pytest.mark.parametrize("y", [0.5, 1.25, 2.5, 5.0])
def test_beta_against_quadrature(x, y):
    # integrate 2 sin^{2x-1} cos^{2y-1} over (0, pi/2): bounded for x,y >= 1/2
    val, err = quad(
        lambda t: 2.0 * math.sin(t) ** (2 * x - 1) * math.cos(t) ** (2 * y - 1),
        0.0,
        math.pi / 2,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    assert abs(beta_num(x, y) - val) < 1e-10


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction kernels they replaced
# ---------------------------------------------------------------------------

def _fraction_pochhammer(a, n):
    """``pochhammer`` as a product of Fractions, the reference."""
    out = F(1)
    for k in range(n):
        out *= a + k
    return out


def _fraction_hyp_terms(numerator_params, denominator_params, z):
    """``hyp_terms`` as a Fraction recurrence, the reference."""
    stops = [-a for a in numerator_params if a.denominator == 1 and a <= 0]
    if not stops:
        raise NonTerminatingError("series does not terminate")
    terms = [F(1)]
    for n in range(int(min(stops))):
        for b in denominator_params:
            if b + n == 0:
                raise SeriesDivisionByZero(
                    f"denominator parameter {b} vanishes at term {n+1}")
        num = F(1)
        for a in numerator_params:
            num *= a + n
        den = F(n + 1)
        for b in denominator_params:
            den *= b + n
        terms.append(terms[-1] * num * z / den)
    return terms


def assert_same_fractions(new, old):
    """Equal values, each a reduced Fraction, so their text is the same."""
    assert all(type(x) is F for x in new)
    assert [str(x) for x in new] == [str(x) for x in old]


# negative and zero values, denominators sharing factors, and denominators
# given negative (Fraction moves the sign to the numerator)
exact_q = st.builds(F, st.integers(-40, 40),
                    st.sampled_from([1, 2, 3, 4, 6, 9, 12, -1, -2, -6, -8]))
# the terminating parameter, or a denominator parameter that may vanish
nonpositive = st.integers(-8, 0).map(F)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(exact_q, st.integers(0, 14))
@example(F(-3), 5)
@example(F(0), 0)
def test_pochhammer_matches_fraction_product(a, n):
    assert_same_fractions([pochhammer(a, n)], [_fraction_pochhammer(a, n)])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NonTerminatingError, SeriesDivisionByZero) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.one_of(exact_q, nonpositive), min_size=1, max_size=3),
       st.lists(st.one_of(exact_q, nonpositive), max_size=2),
       exact_q)
@example([F(-4), F(1, 2)], [F(-2)], F(1))          # pole at term 3
@example([F(1, 2), F(2, 3)], [F(5, 2)], F(1))      # does not terminate
@example([F(-3), F(-7, 2)], [F(-9, 4)], F(0))      # zero argument
def test_hyp_terms_match_fraction_recurrence(num, den, z):
    new = _outcome(hyp_terms, num, den, z)
    old = _outcome(_fraction_hyp_terms, num, den, z)
    # the series of this shape that a named function sums, if any
    summed = {(2, 1): hyp2f1, (3, 2): hyp3f2}.get((len(num), len(den)))
    if isinstance(old, tuple):
        assert new[0] is old[0]
        if old[0] is SeriesDivisionByZero:
            assert new[1] == old[1]
        if summed is not None:
            with pytest.raises(old[0]):
                summed(*num, *den, z)
    else:
        assert_same_fractions(new, old)
        if summed is not None:
            assert_same_fractions([summed(*num, *den, z)], [sum(old, F(0))])


# ---------------------------------------------------------------------------
# beta_num's accuracy contract, against exact references
# ---------------------------------------------------------------------------

BETA_BOUND = 1e-12      # the relative error beta_num's docstring states


def _assert_beta_within_bound(x, y, ref):
    """beta_num(x, y) and beta_num(y, x) within BETA_BOUND of the positive
    reference ``ref`` (a Fraction, or a float with error far below the
    bound), or refused where ``ref`` is not a normal float; within 1e-9 of
    either end of that range, both outcomes are allowed."""
    lo, hi = sys.float_info.min, sys.float_info.max
    for args in ((x, y), (y, x)):
        if lo*(1 + 1e-9) < ref < hi*(1 - 1e-9):
            got = beta_num(*args)
            assert abs(F(got) - F(ref)) <= BETA_BOUND*F(ref), (args, got, ref)
        elif not lo*(1 - 1e-9) < ref < hi*(1 + 1e-9):
            with pytest.raises(DomainError):
                beta_num(*args)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.floats(min_value=5e-324, max_value=1e300), st.integers(1, 40))
@example(1e10, 2)           # 5e-6 off through lgamma differences
@example(1e15, 2)           # the Scarf N_0^2 at alpha = 1e15
@example(1e17, 2)
@example(20.0, 3)           # the last point of the lgamma formula
@example(20.000000000000004, 3)
@example(5e-324, 1)         # overflows
def test_beta_num_against_integer_second_argument(x, n):
    # B(x, n) = (n - 1)!/(x)_n, exactly, at the float x's exact value
    _assert_beta_within_bound(x, float(n), math.factorial(n - 1)
                              / pochhammer(F(x), n))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 700), st.integers(0, 700))
@example(0, 0)
@example(19, 400)           # one argument at most 20, the other above
@example(25, 25)            # both above 20
@example(600, 600)          # below the normal range
def test_beta_num_against_half_integer_pairs(j, k):
    # B(1/2 + j, 1/2 + k) = pi (1/2)_j (1/2)_k / (j + k)!
    ref = pochhammer(F(1, 2), j)*pochhammer(F(1, 2), k)/math.factorial(j + k)
    _assert_beta_within_bound(0.5 + j, 0.5 + k, float(ref)*math.pi)


def test_scarf_ground_norm_at_a_large_alpha():
    # N_0^2 = 1/B((a+1)/2, 2) = x (x + 1) at b = 3, x = (a+1)/2 as the
    # float that ground_state_norm_sq passes
    from dunklqm.susyqm import ScarfParams, ground_state_norm_sq

    for a in (10**10, 10**15, 10**17):
        x = F((float(a) + 1)/2)
        norm = ground_state_norm_sq(ScarfParams(a, 3))
        assert abs(F(norm) - x*(x + 1)) <= 2*BETA_BOUND*x*(x + 1)
