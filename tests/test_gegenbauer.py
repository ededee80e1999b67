"""Tests for the generalized Gegenbauer family and its Schroedinger form."""

import math
from fractions import Fraction as F

import pytest

from dunklqm.exact import DomainError, beta_num
from dunklqm.gegenbauer import (
    GEG_FUZZ_PARAMS,
    GegParams,
    HermiteParams,
    csm_two_particle_check,
    eigenvalue_geg,
    geg_potentials,
    lop_geg,
)
from dunklqm.opalg import (
    Poly,
    Reflect,
    ReflOp,
    construct_eigen,
    gram_sequence,
    inner,
    recurrence_coefficients,
    verify_family,
)
from dunklqm.susyqm import SusySystem


def params(mu, al):
    return GegParams(F(mu), F(al))


def test_params_invariant():
    with pytest.raises(ValueError):
        params("-1/2", 0)
    with pytest.raises(ValueError):
        params(1, -1)


def test_moment_ratio_against_beta_integral():
    # m_{2n}/m_{2n-2} = (mu+n-1/2)/(mu+n+alpha+1/2), confirmed once against
    # the numeric Beta function (the ratio equals B(mu+n+1/2, alpha+1) /
    # B(mu+n-1/2, alpha+1))
    pr = params("1/2", 1)
    m = pr.moments(11)
    mu, al = float(pr.mu), float(pr.alpha)
    for n in range(1, 6):
        num = beta_num(mu + n + 0.5, al + 1)
        den = beta_num(mu + n - 0.5, al + 1)
        assert abs(float(m[2 * n] / m[2 * n - 2]) - num / den) < 1e-12
    assert m[3] == 0


def test_lop_examples():
    pr = params("1/2", 1)
    op = lop_geg(pr)
    assert op.apply(Poly.one()) == Poly.zero()
    # on y: -2(alpha+1)(2 mu + 1) y
    img = op.apply(Poly.monomial(1))
    assert img == Poly.monomial(1).scale(-2 * (pr.alpha + 1) * (2 * pr.mu + 1))
    assert img == Poly.monomial(1).scale(eigenvalue_geg(1, pr))
    # closure at degree 2
    assert op.apply(Poly.monomial(2)).degree <= 2


def test_eigenvalues():
    pr = params("1/2", 1)
    assert eigenvalue_geg(0, pr) == 0
    assert eigenvalue_geg(1, pr) == -8
    assert eigenvalue_geg(2, pr) == -12


def test_construct_small():
    pr = params("1/2", 1)
    assert construct_eigen(0, pr) == Poly.one()
    assert construct_eigen(1, pr) == Poly.monomial(1)
    assert construct_eigen(2, pr) == Poly((F(-1, 3), 0, 1))


def test_oracle_agreement_and_parity():
    reflect = ReflOp.from_primitive(Reflect)
    for mu, al in GEG_FUZZ_PARAMS:
        pr = GegParams(mu, al)
        gram = gram_sequence(pr.moments(25), 12)
        for n in range(13):
            p = construct_eigen(n, pr)
            assert gram[n][0] == p
            assert reflect.apply(p) == (p if n % 2 == 0 else p.scale(-1))


def test_exact_eigen_residuals_to_24():
    for mu, al in GEG_FUZZ_PARAMS:
        pr = GegParams(mu, al)
        op = lop_geg(pr)
        for n in range(25):
            p = construct_eigen(n, pr)
            assert op.apply(p) == p.scale(eigenvalue_geg(n, pr))


def test_orthogonality_to_16():
    for mu, al in GEG_FUZZ_PARAMS:
        pr = GegParams(mu, al)
        m = pr.moments(33)
        ps = [construct_eigen(n, pr) for n in range(17)]
        for n in range(17):
            for k in range(n):
                assert inner(ps[k], ps[n], m) == 0


def test_potentials_mu_zero_poschl_teller():
    # mu = 0: U1 vanishes and U0 matches the Poeschl-Teller sec^2 profile up
    # to a constant (printed constant is off by 1/4; derived matches exactly)
    pr = params(0, 1)
    al = float(pr.alpha)
    for x in (0.3, 0.7, 1.2):
        u0p, u1p = geg_potentials(pr, x, "printed")
        u0d, u1d = geg_potentials(pr, x, "derived")
        assert u1p == 0.0 and u1d == 0.0
        pt = (al**2 - 0.25) / math.cos(x) ** 2 - (2 * al + 1) ** 2 / 4
        assert abs(u0d - pt) < 1e-12
        assert abs((u0p - pt) - 0.25) < 1e-12  # constant offset of the printed form


def test_potentials_alpha_minus_half_csm():
    # alpha = -1/2: derived forms reduce to mu^2/sin^2 - mu^2 - (mu/sin^2) R
    pr = params("3/4", "-1/2")
    mu = float(pr.mu)
    for x in (0.4, 0.9, 1.3):
        u0, u1 = geg_potentials(pr, x, "derived")
        assert abs(u0 - (mu**2 / math.sin(x) ** 2 - mu**2)) < 1e-12
        assert abs(u1 - (-mu / math.sin(x) ** 2)) < 1e-12
        # at alpha = -1/2 the printed and derived U1 coincide ((2a+1) mu = 0)
        u0p, u1p = geg_potentials(pr, x, "printed")
        assert abs(u1p - u1) < 1e-12


def test_potentials_variant_offsets():
    # the two variants differ by the derived constants only
    pr = params("1/2", 1)
    mu, al = float(pr.mu), float(pr.alpha)
    for x in (0.5, -0.8):
        u0p, u1p = geg_potentials(pr, x, "printed")
        u0d, u1d = geg_potentials(pr, x, "derived")
        assert abs((u0p - u0d) - (mu**2 + 0.25)) < 1e-11
        assert abs((u1p - u1d) - 2 * (2 * al + 1) * mu) < 1e-11


def test_ground_factor_value():
    # F0(pi/4) = 2^(-1/4) 2^(-3/4) at (1/2, 1): ||F0|| = B(1, 2)^(1/2) times
    # the record's factor, the one statement of F0
    pr = params("1/2", 1)
    ground = SusySystem.gegenbauer(pr).ground(math.pi / 4)
    assert abs(ground * math.sqrt(beta_num(1.0, 2.0)) - 0.5) < 1e-14
    assert len(geg_potentials(pr, math.pi / 4)) == 2
    with pytest.raises(DomainError):
        geg_potentials(pr, 2.0)


def test_potentials_domain():
    pr = params("1/2", 1)
    with pytest.raises(DomainError):
        geg_potentials(pr, 0.0)
    with pytest.raises(DomainError):
        geg_potentials(pr, math.pi / 2)


def test_csm_check():
    assert csm_two_particle_check(F(1), 0.9, 0.1) < 1e-12
    assert csm_two_particle_check(F(1, 2), 1.0, -0.3) < 1e-12
    with pytest.raises(DomainError):
        csm_two_particle_check(F(1), 0.5, 0.5)


def test_verify_family_report():
    rep = verify_family(params("1/2", 1), 10)
    assert rep.all_oracle_checks_passed
    assert len(rep.records) == 11
    blob = rep.to_json()
    assert "generalized-gegenbauer" in blob


@pytest.mark.parametrize("mu", [F(0), F(1, 3), F(1, 2), F(2)],
                         ids=["0", "1_3", "1_2", "2"])
def test_hermite_family_battery_to_degree_40(mu):
    # eigen and Gram constructions, parity and orthogonality through degree
    # 40; at a half-odd-integer mu the even degree n + 2 mu shares the
    # eigenvalue -2(n + 2 mu) of the odd degree n, so at mu = 1/2 every even
    # degree from 2 on is skipped
    rep = verify_family(HermiteParams(mu), 40)
    assert rep.all_oracle_checks_passed
    assert rep.family == "generalized-hermite"
    assert rep.skipped_degenerate == (list(range(2, 41, 2)) if mu == F(1, 2)
                                      else [])
    assert all(r.results["parity_ok"] for r in rep.records)


def test_hermite_family_at_mu_zero_is_monic_hermite():
    # P_(n+1) = y P_n - (n/2) P_(n-1), ||P_n||^2 = n!/2^n, eigenvalue -2n
    hp = HermiteParams(0)
    gram = gram_sequence(hp.moments(2 * 14 + 1), 14)
    ps = [Poly.one(), Poly.monomial(1)]
    for n in range(1, 14):
        ps.append(Poly.monomial(1) * ps[n] - ps[n - 1].scale(F(n, 2)))
    assert [p for p, _ in gram] == ps
    assert [sq for _, sq in gram] == [F(math.factorial(n), 2 ** n)
                                      for n in range(15)]
    assert all(hp.eigenvalue(n) == -2 * n for n in range(15))


@pytest.mark.parametrize("mu", [F(0), F(1, 3), F(1, 2), F(2)],
                         ids=["0", "1_3", "1_2", "2"])
def test_hermite_recurrence_builds_the_gram_sequence(mu):
    # P_(k+1) = y P_k - b_k P_(k-1) and ||P_k||^2 = b_1 ... b_k, exactly,
    # through degree 30, also at the degrees the battery skips at mu = 1/2;
    # the closed-form b_k are the recurrence read off the moments
    hp = HermiteParams(mu)
    gram = gram_sequence(hp.moments(2 * 30 + 1), 30)
    ps = [Poly.zero(), Poly.one()]
    for k in range(30):
        ps.append(Poly.monomial(1) * ps[-1] - ps[-2].scale(hp.recurrence(k)))
    assert [p for p, _ in gram] == ps[1:]
    assert [sq for _, sq in gram] == [
        math.prod((hp.recurrence(k) for k in range(1, n + 1)), start=F(1))
        for n in range(31)]
    assert recurrence_coefficients(hp.moments(2 * 30 + 1), 30) == [
        (0, hp.recurrence(k)) for k in range(30)]


def test_hermite_moments_against_the_gamma_function():
    # m_2k = Gamma(mu + k + 1/2)/Gamma(mu + 1/2), odd moments 0
    for mu in (F(0), F(1, 3), F(2)):
        m = HermiteParams(mu).moments(13)
        assert all(m[k] == 0 for k in range(1, 13, 2))
        for k in range(7):
            ref = math.gamma(mu + k + 0.5) / math.gamma(mu + 0.5)
            assert abs(float(m[2 * k]) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("mu", [F(-1, 2), F(-1), F(-3, 4)])
def test_hermite_params_refuse_a_nonintegrable_weight(mu):
    with pytest.raises(ValueError, match="mu > -1/2"):
        HermiteParams(mu)
