"""Tests for the little -1 Jacobi family: oracles, explicit forms, norms."""

from fractions import Fraction as F

import pytest

from dunklqm import jacobi
from dunklqm.exact import hyp_terms, pochhammer
from dunklqm.gegenbauer import GegParams
from dunklqm.jacobi import (
    FUZZ_PARAMS,
    Jacobi1Params,
    bracket_n,
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


# ---------------------------------------------------------------------------
# the closed forms from integer Pochhammer tables, against the per-call
# Fraction formulas they replaced
# ---------------------------------------------------------------------------

def _ref_kappa(n, params, variant):
    a, b = params.alpha, params.beta
    if n % 2 == 0:
        k = n // 2
        return (F(-1)**k * pochhammer((a + 1)/2, k)
                / pochhammer(F(n, 2) + a/2 + b/2 + 1, k))
    k = (n + 1) // 2
    if variant == "printed":
        base = F(n + 1, 2) + a/2 + b/2 + 1
    else:
        base = F(n - 1, 2) + a/2 + b/2 + 1
    return F(-1)**k * pochhammer((a + 1)/2, k) / pochhammer(base, k)


def _ref_hyp_poly_in_ysq(num, den):
    coeffs = []
    for term in hyp_terms(num, den, 1):
        coeffs += [term, 0]
    return Poly(coeffs)


def _ref_explicit(n, params, variant):
    a, b = params.alpha, params.beta
    if n % 2 == 0:
        k = n // 2
        bracket = _ref_hyp_poly_in_ysq((F(-k), (n + a + b + 2)/F(2)),
                                       ((a + 1)/2,))
        if n:
            blk2 = _ref_hyp_poly_in_ysq((F(1 - k), (n + a + b + 2)/F(2)),
                                        ((a + 3)/2,))
            bracket += (Poly.monomial(1) * blk2).scale(F(n, 1)/(a + 1))
    else:
        blk1 = _ref_hyp_poly_in_ysq(((1 - n)/F(2), (n + a + b + 1)/F(2)),
                                    ((a + 1)/2,))
        blk2 = _ref_hyp_poly_in_ysq(((1 - n)/F(2), (n + a + b + 3)/F(2)),
                                    ((a + 3)/2,))
        pref = (a + b + 1) if variant == "printed" else (n + a + b + 1)
        bracket = blk1 - (Poly.monomial(1) * blk2).scale(pref/(a + 1))
    return bracket.scale(_ref_kappa(n, params, variant))


def _ref_norm_sq_closed(n, params):
    a, b = params.alpha, params.beta
    if n == 0:
        return F(1)
    if n % 2 == 0:
        k = n // 2
        num = (pochhammer(1, k) * pochhammer(a/2 + F(1, 2), k)
               * pochhammer(b/2 + F(1, 2), k) * pochhammer(a/2 + b/2 + 1, k))
        return num / pochhammer(a/2 + b/2 + 1, 2*k)**2
    k = (n + 1) // 2
    num = (pochhammer(1, k - 1) * pochhammer(a/2 + F(1, 2), k)
           * pochhammer(b/2 + F(1, 2), k) * pochhammer(a/2 + b/2 + 1, k - 1))
    return num / pochhammer(a/2 + b/2 + 1, 2*k - 1)**2


def _ref_norm_sq_from_normalization(n, params):
    a, b = params.alpha, params.beta
    if n % 2 == 0:
        k = n // 2
        den = (pochhammer(1, k) * pochhammer(a/2 + b/2 + 1, k)
               * pochhammer(a/2 + F(1, 2), k) * pochhammer(b/2 + F(1, 2), k))
    else:
        k = (n - 1) // 2
        den = (pochhammer(1, k) * pochhammer(a/2 + b/2 + 1, k)
               * pochhammer(a/2 + F(1, 2), k + 1)
               * pochhammer(b/2 + F(1, 2), k + 1))
    return den / pochhammer(a/2 + b/2 + 1, n)**2


def _ref_moment(params, m):
    a, b = params.alpha, params.beta
    return pochhammer(a/2 + F(1, 2), m) / pochhammer(a/2 + b/2 + 1, m)


# the five fuzz pairs, a negative pair inside the domain and a pair whose
# bases share denominators with the degrees
TABLE_FAMILIES = [*FUZZ_PARAMS, (F(-1, 2), F(-2, 3)), (F(7, 3), F(5, 6))]


def _same(new, old):
    """Equal reduced rationals of the same type, so the text is the same."""
    assert type(new) is type(old)
    assert str(new) == str(old) if isinstance(old, F) else new == old


@pytest.mark.parametrize("a, b", TABLE_FAMILIES)
def test_closed_forms_equal_the_per_call_fraction_formulas(a, b):
    # each closed form on a fresh instance (tables built for the one call)
    # and on the battery's copy (one set of tables for every degree)
    fresh = Jacobi1Params(a, b)
    for family in (fresh, fresh.for_battery()):
        for n in range(25):
            for variant in ("printed", "corrected"):
                _same(jacobi._kappa(n, family, variant),
                      _ref_kappa(n, fresh, variant))
                _same(construct_explicit(n, family, variant),
                      _ref_explicit(n, fresh, variant))
            _same(norm_sq_closed(n, family), _ref_norm_sq_closed(n, fresh))
            _same(norm_sq_from_normalization(n, family),
                  _ref_norm_sq_from_normalization(n, fresh))
        moments = family.moments(49)
        assert [str(c) for c in moments] == [
            str(_ref_moment(fresh, (j + 1)//2)) for j in range(49)]


@pytest.mark.parametrize("a, b", TABLE_FAMILIES)
def test_each_table_entry_is_its_pochhammer_symbol(a, b):
    t = jacobi._Pochhammers(Jacobi1Params(a, b))
    bases = {t.a1: (a + 1)/2, t.a3: (a + 3)/2, t.b1: (b + 1)/2,
             t.c: a/2 + b/2 + 1, t.one: F(1)}
    for table, x in bases.items():
        # read out of order, so each entry is grown and then read back
        for m in (7, 0, 3, 25, 12):
            assert F(table.num(m), table.q**m) == pochhammer(x, m)


def test_the_battery_leaves_no_table_behind():
    # the tables live on the battery's own copy: the caller's instance, and
    # an instance that a later command builds, carry none
    family = Jacobi1Params(F(1, 2), F(3, 2))
    verify_family(family, 8)
    norm_sq_closed(5, family)
    construct_explicit(5, family)
    assert not hasattr(family, "_pochhammers")
    assert family.for_battery() == family
    assert not hasattr(Jacobi1Params(F(1, 2), F(3, 2)), "_pochhammers")


@pytest.mark.parametrize("a", [F(0), F(1), F(1, 2), F(-1, 3), F(7, 4)])
def test_bracket_n_is_n_plus_a_at_odd_n(a):
    for n in range(21):
        _same(bracket_n(n, a), n + (a/2)*(1 - F(-1)**n))
