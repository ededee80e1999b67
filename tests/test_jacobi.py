"""Tests for the little -1 Jacobi family: oracles, explicit forms, norms."""

from fractions import Fraction as F

import pytest

from dunklqm.exact import pochhammer
from dunklqm.gegenbauer import GegParams
from dunklqm.jacobi import (
    FUZZ_PARAMS,
    Jacobi1Params,
    construct_explicit,
    eigenvalue,
    lop,
    norm_sq_closed,
    norm_sq_from_normalization,
)
from dunklqm.opalg import (
    DegenerateSpectrumError,
    Poly,
    construct_eigen,
    gram_sequence,
    eigen_sequence,
    inner,
    unchecked,
    verify_family,
)


def params(a, b):
    return Jacobi1Params(F(a), F(b))


def test_params_invariant():
    with pytest.raises(ValueError):
        params(-2, 0)
    with pytest.raises(ValueError):
        params(0, -1)


def test_moments_parity_and_values():
    m = params(0, 0).moments(5)
    assert m[0] == 1
    assert m[1] == m[2] == F(1, 2)
    assert m[3] == m[4] == F(3, 8)
    m11 = params(1, 1).moments(20)
    for n in range(1, 10):
        assert m11[2*n] == m11[2*n - 1]


def test_lop_on_constants_and_linear():
    op = lop(params(0, 0))
    assert op.apply(Poly.one()) == Poly.zero()
    # (y - 1/2) is the first eigenvector with eigenvalue 4
    p1 = Poly((F(-1, 2), 1))
    assert op.apply(p1) == p1.scale(4)


def test_lop_closure_degree():
    op = lop(params(1, 1))
    img = op.apply(Poly((0, 0, 1)))
    assert img.degree <= 2


def test_eigenvalues():
    assert eigenvalue(2, params(1, 5)) == -4
    assert eigenvalue(0, params(1, 2)) == 0
    assert eigenvalue(1, params(0, 0)) == 4


def test_oracle_small_cases():
    assert construct_eigen(0, params(0, 0)) == Poly.one()
    assert construct_eigen(1, params(0, 0)) == Poly((F(-1, 2), 1))
    assert construct_eigen(2, params(0, 0)) == Poly((F(-1, 4), F(-1, 2), 1))


def test_gram_agrees_with_oracle():
    for a, b in FUZZ_PARAMS:
        pr = Jacobi1Params(a, b)
        gram = gram_sequence(pr.moments(17), 8)
        for n in range(9):
            assert gram[n][0] == construct_eigen(n, pr)


def test_explicit_even_matches():
    pr = params(1, 1)
    assert construct_explicit(2, pr, "printed") == Poly((F(-1, 3), F(-1, 3), 1))
    assert construct_explicit(2, pr, "printed") == construct_eigen(2, pr)
    assert construct_explicit(0, pr, "printed") == Poly.one()


def test_explicit_odd_printed_discrepancy():
    # printed odd closed form disagrees with the oracle already at n=1:
    # monic-normalized printed constant term is -(a+1)/(a+b+1) vs oracle -1/2
    pr = params(0, 0)
    printed = construct_explicit(1, pr, "printed")
    oracle = construct_eigen(1, pr)
    assert printed != oracle
    lead = printed.coeffs[-1]
    monicized = printed.scale(1/lead)
    assert monicized.coeff(0) == F(-1)  # -(a+1)/(a+b+1) = -1 here
    assert oracle.coeff(0) == F(-1, 2)


def test_explicit_corrected_matches_oracle():
    for a, b in FUZZ_PARAMS:
        pr = Jacobi1Params(a, b)
        for n in range(11):
            assert construct_explicit(n, pr, "corrected") == construct_eigen(n, pr)


def test_inner_examples():
    pr = params(0, 0)
    m = pr.moments(5)
    assert inner(Poly.one(), Poly.one(), m) == 1
    p1 = construct_eigen(1, pr)
    assert inner(p1, Poly.one(), m) == 0
    p2 = construct_eigen(2, pr)
    assert inner(p2, p2, m) == F(1, 16)


def test_norm_closed_examples():
    pr = params(0, 0)
    assert norm_sq_closed(2, pr) == F(1, 16)
    assert norm_sq_closed(1, pr) == F(1, 4)
    assert norm_sq_closed(0, pr) == 1


def test_norm_closed_consistency_with_normalization_form():
    for a, b in FUZZ_PARAMS:
        pr = Jacobi1Params(a, b)
        for n in range(21):
            assert norm_sq_from_normalization(n, pr) == norm_sq_closed(n, pr)


def test_eigen_residual_zero_to_degree_30():
    for a, b in FUZZ_PARAMS:
        pr = Jacobi1Params(a, b)
        op = lop(pr)
        for n in range(31):
            p = construct_eigen(n, pr)
            assert op.apply(p) == p.scale(eigenvalue(n, pr))


def test_orthogonality_and_norms_to_20():
    for a, b in FUZZ_PARAMS:
        pr = Jacobi1Params(a, b)
        m = pr.moments(41)
        ps = [construct_eigen(n, pr) for n in range(21)]
        for n in range(21):
            assert inner(ps[n], ps[n], m) == norm_sq_closed(n, pr)
            for k in range(n):
                assert inner(ps[k], ps[n], m) == 0


def test_degenerate_spectrum_detected():
    # collisions cannot happen for alpha, beta > -1 (odd eigenvalues positive,
    # even ones nonpositive), but the analytically-continued families reached
    # by the beta -> beta-2 raising map can degenerate: at (0, -2) the first
    # odd eigenvalue collides with lambda_0 = 0.
    with pytest.raises(DegenerateSpectrumError):
        construct_eigen(1, unchecked(Jacobi1Params, 0, -2))
    # the sequence marks the collision and solves every other degree
    family = unchecked(Jacobi1Params, 0, -2)
    seq = eigen_sequence(family, 4)
    assert seq[1] is None
    assert [seq[0], *seq[2:]] == [construct_eigen(n, family) for n in (0, 2, 3, 4)]
    # nearby nondegenerate continuation still constructs fine
    p = construct_eigen(1, unchecked(Jacobi1Params, 0, F(-1, 2)))
    assert p.degree == 1


def test_verify_family_reports():
    rep = verify_family(params("1/2", "3/2"), 10)
    assert rep.all_oracle_checks_passed
    assert all(r.results["eigen_residual_zero"] for r in rep.records)
    assert all(r.results["explicit_matches"]["corrected"] for r in rep.records)
    odd_printed = [r.results["explicit_matches"]["printed"]
                   for r in rep.records if r.n % 2]
    assert not any(odd_printed)
    even_printed = [r.results["explicit_matches"]["printed"]
                    for r in rep.records if not r.n % 2]
    assert all(even_printed)
    assert rep.discrepancy_count() > 0


def test_report_json_roundtrip():
    import json

    rep = verify_family(params(0, 0), 4)
    blob = rep.to_json()
    back = json.loads(blob)
    assert back == rep.as_json_dict()
    assert back["family"] == "little-m1-jacobi"
    assert back["params"] == {"alpha": "0", "beta": "0"}


def test_kappa_even_spec_value():
    # kappa_2 at (1,1) is -(a+1)/(a+b+4) = -1/3; probe through the assembly
    pr = params(1, 1)
    p = construct_explicit(2, pr)
    assert p.coeffs[-1] == 1  # monic because kappa matches the leading factor
    assert pochhammer(F(1), 1) == 1


@pytest.mark.parametrize("a", [-1, -3, -5])
def test_explicit_form_refuses_a_nonpositive_integer_denominator(a):
    # (a+1)/2 a nonpositive integer: construct_explicit refuses it, and the
    # family battery never reaches the explicit form, since its Gram
    # recurrence divides by zero first
    family = unchecked(Jacobi1Params, a, 0)
    with pytest.raises(ValueError, match="nonpositive integer"):
        construct_explicit(1, family)
    with pytest.raises(ZeroDivisionError):
        verify_family(family, 6)


def test_errata_explicit_entry_reads_the_oracle_without_a_family_battery(
        monkeypatch):
    from dunklqm import errata, opalg

    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = opalg.gram_sequence
    monkeypatch.setattr(opalg, "gram_sequence", counted)
    errata.build_errata()
    assert calls == []


def _christoffel_misses(a, b, geg_moments: list, degree: int = 20) -> list:
    """Degrees n <= degree at which (1 + y) P_n = C_(n+1) - u_n C_n or
    norm_sq_closed(n) = -u_n ||C_n||^2 fails, u_n = C_(n+1)(-1)/C_n(-1),
    with P_n and C_n from ``gram_sequence`` on each family's moments."""
    p = Jacobi1Params(a, b)
    ps = gram_sequence(p.moments(2 * degree + 1), degree)
    cs = gram_sequence(geg_moments, degree + 1)
    misses = []
    for n in range(degree + 1):
        (pn, _), (cn, cn_sq), (cn1, _) = ps[n], cs[n], cs[n + 1]
        u = cn1(F(-1)) / cn(F(-1))
        if (Poly((1, 1)) * pn != cn1 - cn.scale(u)
                or norm_sq_closed(n, p) != -u * cn_sq):
            misses.append(n)
    return misses


@pytest.mark.parametrize("a, b", FUZZ_PARAMS)
def test_family_is_the_christoffel_transform_of_gegenbauer(a, b):
    # the functional is (1 + y) times the Gegenbauer one at (a/2, (b-1)/2)
    geg = GegParams(a / 2, (b - 1) / 2)
    assert _christoffel_misses(a, b, geg.moments(2 * 21 + 1)) == []


@pytest.mark.parametrize("a, b", FUZZ_PARAMS)
def test_christoffel_identity_fails_on_a_perturbed_gegenbauer_moment(a, b):
    moments = GegParams(a / 2, (b - 1) / 2).moments(2 * 21 + 1)
    moments[6] *= F(1001, 1000)
    assert _christoffel_misses(a, b, moments) != []
