"""Tests for the polynomial / reflection-operator algebra."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from dunklqm import opalg
from dunklqm.gegenbauer import GEG_FUZZ_PARAMS, GegParams
from dunklqm.jacobi import FUZZ_PARAMS, Jacobi1Params
from dunklqm.opalg import (
    DegenerateSpectrumError,
    DegreeOverflowError,
    Diff,
    MulPoly,
    OddOverY,
    OrthogonalFamily,
    Poly,
    Reflect,
    ReflOp,
    compose,
    construct_eigen,
    dunkl,
    eigen_sequence,
    gram_sequence,
    inner,
    matrix_on_basis,
    solve_monic_eigenvector,
    verify_family,
)
from dunklqm.susyqm import ScarfParams, verify_lowering, verify_raising


def P(*coeffs):
    return Poly(coeffs)


def test_poly_basics():
    p = P(1, 0, 2)           # 1 + 2y^2
    q = P(0, 1)              # y
    assert (p * q).coeffs == (0, 1, 0, 2)
    assert (p + q).coeffs == (1, 1, 2)
    assert p.deriv().coeffs == (0, 4)
    assert Poly.zero().degree == -math.inf
    assert P(3).degree == 0
    assert p(F(1, 2)) == F(3, 2)


def test_reflect_parity():
    p = P(0, 1, 1)           # y + y^2
    assert p.reflect().coeffs == (0, -1, 1)


def test_odd_over_y_examples():
    # (p(y) - p(-y))/y for p = y^3 + 3y^2 + y is 2y^2 + 2
    p = P(0, 1, 3, 1)
    assert p.odd_over_y() == P(2, 0, 2)
    # even polynomials are annihilated
    assert P(4, 0, 5).odd_over_y() == Poly.zero()


def test_apply_primitives():
    refl = ReflOp.from_primitive(Reflect)
    assert refl.apply(P(0, 1, 1)) == P(0, -1, 1)
    diff = ReflOp.from_primitive(Diff)
    assert diff.apply(P(0, 0, 0, 1)) == P(0, 0, 3)
    # zero coefficients inside and at the ends of the list
    assert diff.apply(P(5, 0, F(1, 2), 0, -1)) == P(0, 1, 0, -4)
    assert diff.apply(P(7)) == Poly.zero()
    odd = ReflOp.from_primitive(OddOverY)
    assert odd.apply(P(1, 0, 0, F(3, 2), 2)) == P(0, 0, 3)
    assert odd.apply(Poly.zero()) == Poly.zero()
    mul = ReflOp.from_primitive(MulPoly(P(0, 0, 1)))
    assert mul.apply(P(1, 0, -1)) == P(0, 0, 1, 0, -1)
    assert ReflOp.from_primitive(MulPoly(Poly.zero())).apply(P(1, 1)) == (
        Poly.zero())
    # an empty chain is the identity; cancelling terms leave the zero Poly
    ident = ReflOp([(F(2, 3), ())])
    assert ident.apply(P(3, 0, 6)) == P(2, 0, 4)
    assert (ident - ident).apply(P(1, 2, 3)) == Poly.zero()
    # 3y^2 R + d/dy on 1 - y + y^3: 3y^2(1 + y - y^3) + (-1 + 3y^2)
    op = ReflOp([(3, (MulPoly(P(0, 0, 1)), Reflect)), (1, (Diff,))])
    assert op.apply(P(1, -1, 0, 1)) == P(-1, 0, 6, 3, 0, -3)


def test_compose_order():
    # chains act right-to-left: compose(Diff, Reflect) reflects first
    dr = compose(ReflOp.from_primitive(Diff), ReflOp.from_primitive(Reflect))
    rd = compose(ReflOp.from_primitive(Reflect), ReflOp.from_primitive(Diff))
    ysq = P(0, 0, 1)
    assert dr.apply(ysq) == P(0, 2)
    assert rd.apply(ysq) == P(0, -2)
    my = ReflOp.from_primitive(MulPoly(P(0, 1)))
    moy = compose(my, ReflOp.from_primitive(OddOverY))
    assert moy.apply(P(0, 1)) == P(0, 2)


def test_dunkl_examples():
    t = dunkl(F(1, 2))
    assert t.apply(Poly.one()) == Poly.zero()
    assert t.apply(P(0, 1)) == P(2)          # 1 + 2 mu
    assert t.apply(P(0, 0, 1)) == P(0, 2)    # even part drops


def test_matrix_on_basis_examples():
    d = matrix_on_basis(ReflOp.from_primitive(Diff), 2)
    assert d == [[F(0), F(1), F(0)], [F(0), F(0), F(2)], [F(0), F(0), F(0)]]
    r = matrix_on_basis(ReflOp.from_primitive(Reflect), 2)
    assert r == [[F(1), F(0), F(0)], [F(0), F(-1), F(0)], [F(0), F(0), F(1)]]
    t = matrix_on_basis(dunkl(F(1, 2)), 1)
    assert t == [[F(0), F(2)], [F(0), F(0)]]


def test_matrix_degree_overflow():
    my = ReflOp.from_primitive(MulPoly(P(0, 1)))
    with pytest.raises(DegreeOverflowError):
        matrix_on_basis(my, 3)


def _random_poly(rng, deg):
    return Poly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)])


def _random_chain(rng):
    prims = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randint(0, 3)
        if kind == 0:
            prims.append(MulPoly(_random_poly(rng, rng.randint(0, 2))))
        elif kind == 1:
            prims.append(Diff)
        elif kind == 2:
            prims.append(Reflect)
        else:
            prims.append(OddOverY)
    return ReflOp([(F(rng.randint(-5, 5), rng.randint(1, 3)), tuple(prims))])


def test_closure_random_chains():
    # a long randomized closure check: result is always a Poly, never a quotient
    rng = random.Random(20260810)
    for _ in range(1000):
        op = _random_chain(rng)
        p = _random_poly(rng, rng.randint(0, 10))
        out = op.apply(p)
        assert isinstance(out, Poly)


def test_linearity_and_involution():
    rng = random.Random(7)
    for _ in range(50):
        op = _random_chain(rng)
        p = _random_poly(rng, 8)
        q = _random_poly(rng, 8)
        a, b = F(3, 2), F(-5, 7)
        lhs = op.apply(p.scale(a) + q.scale(b))
        rhs = op.apply(p).scale(a) + op.apply(q).scale(b)
        assert lhs == rhs
    refl = ReflOp.from_primitive(Reflect)
    rr = compose(refl, refl)
    for n in range(21):
        assert rr.apply(Poly.monomial(n)) == Poly.monomial(n)


def test_reflect_diff_anticommute():
    rd = compose(ReflOp.from_primitive(Reflect), ReflOp.from_primitive(Diff))
    dr = compose(ReflOp.from_primitive(Diff), ReflOp.from_primitive(Reflect))
    for n in range(21):
        m = Poly.monomial(n)
        assert rd.apply(m) == dr.apply(m).scale(-1)


def test_matrix_functoriality():
    rng = random.Random(99)
    for _ in range(20):
        a = _random_chain(rng)
        b = _random_chain(rng)
        # guard: only compare when both sides stay within the bound
        bound = 14
        try:
            ma = matrix_on_basis(a, bound)
            mb = matrix_on_basis(b, bound)
            mab = matrix_on_basis(compose(a, b), bound)
        except DegreeOverflowError:
            continue
        # functoriality holds when b's images stay within the bound (they do,
        # since mb existed) and a is evaluated on that range
        assert mab == _mat_mul(ma, mb)


def _mat_mul(a, b):
    """Exact product of two square Fraction matrices (lists of rows)."""
    n = len(a)
    return [[sum(a[i][k]*b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _apply_by_power_dicts(op, p):
    """ReflOp.apply written independently of opalg's coefficient-list
    kernels: each image is a {power: coefficient} dict, and every primitive
    acts term by term on it. The reference for the coefficient-list pass."""
    out = {}
    for s, chain in op.terms:
        q = {k: c for k, c in enumerate(p.coeffs) if c}
        for prim in reversed(chain):
            nxt = {}
            if isinstance(prim, MulPoly):
                for i, a in enumerate(prim.poly.coeffs):
                    for k, c in q.items():
                        nxt[i + k] = nxt.get(i + k, 0) + a*c
            elif prim is Diff:
                nxt = {k - 1: k*c for k, c in q.items() if k}
            elif prim is Reflect:
                nxt = {k: (-1)**k*c for k, c in q.items()}
            else:                           # OddOverY keeps the odd powers
                nxt = {k - 1: 2*c for k, c in q.items() if k % 2}
            q = nxt
        for k, c in q.items():
            out[k] = out.get(k, 0) + s*c
    return Poly([out.get(k, 0) for k in range(max(out, default=-1) + 1)])


def test_apply_matches_poly_level_chains():
    rng = random.Random(31)
    for _ in range(200):
        op = _random_chain(rng) + _random_chain(rng)
        p = _random_poly(rng, rng.randint(0, 10))
        assert op.apply(p) == _apply_by_power_dicts(op, p)
    for family in FAMILIES:
        op = family.operator()
        for j in range(13):
            y_j = Poly.monomial(j)
            assert op.apply(y_j) == _apply_by_power_dicts(op, y_j)


def test_pretty_printer():
    op = ReflOp([(2, (MulPoly(P(1, -1)), Diff, Reflect)), (F(-1, 3), (OddOverY,))])
    text = op.pretty()
    assert "d/dy" in text and "R" in text and "y^-1(1-R)" in text


# ---------------------------------------------------------------------------
# the triangular eigen oracle
# ---------------------------------------------------------------------------

EULER = ReflOp([(1, (MulPoly(P(0, 1)), Diff))])     # y d/dy: y^j -> j y^j


class _StubFamily(OrthogonalFamily):
    """Operator y d/dy (+ ``extra``) with a prescribed eigenvalue list."""

    def __init__(self, eigenvalues, extra=ReflOp()):
        self.eigenvalues = [F(v) for v in eigenvalues]
        self.extra = extra

    def operator(self):
        return EULER + self.extra

    def eigenvalue(self, n):
        return self.eigenvalues[n]


FAMILIES = ([Jacobi1Params(a, b) for a, b in FUZZ_PARAMS]
            + [GegParams(mu, al) for mu, al in GEG_FUZZ_PARAMS])


@pytest.mark.parametrize("family", FAMILIES)
def test_eigen_sequence_matches_construct_eigen(family):
    assert eigen_sequence(family, 16) == [construct_eigen(n, family)
                                          for n in range(17)]


def test_eigen_sequence_marks_collisions_with_none():
    # eigenvalues 0, 1, 1, 3: degree 2 collides with degree 1
    assert eigen_sequence(_StubFamily([0, 1, 1, 3]), 3) == [
        Poly.one(), Poly.monomial(1), None, Poly.monomial(3)]


def test_eigenvalue_formula_disagreeing_with_diagonal_is_refused():
    # y d/dy has eigenvalue 1 on y, not 2
    with pytest.raises(DegenerateSpectrumError, match="inconsistent"):
        eigen_sequence(_StubFamily([0, 2]), 1)
    # 1 is the diagonal entry at degree 1: no monic eigenvector of degree 2
    with pytest.raises(DegenerateSpectrumError, match="degenerate below degree 2"):
        solve_monic_eigenvector(matrix_on_basis(EULER, 2), 1, 2)


def test_degree_raising_operator_is_refused():
    # y^2 y^-1(1-R) maps odd y^j to 2 y^(j+1), inside the bound
    raising = ReflOp([(1, (MulPoly(P(0, 0, 1)), OddOverY))])
    stub = _StubFamily(range(5), raising)
    mat = matrix_on_basis(stub.operator(), 4)
    assert solve_monic_eigenvector(mat, 0, 0) == Poly.one()
    with pytest.raises(DegreeOverflowError):
        solve_monic_eigenvector(mat, 1, 1)
    with pytest.raises(DegreeOverflowError):
        eigen_sequence(stub, 4)
    with pytest.raises(DegreeOverflowError):
        construct_eigen(2, stub)


def test_operator_matrix_built_once_per_family(monkeypatch):
    calls = []

    def counting(op, bound):
        calls.append(bound)
        return matrix_on_basis(op, bound)

    monkeypatch.setattr(opalg, "matrix_on_basis", counting)
    verify_family(Jacobi1Params(F(1, 2), F(3, 2)), 12)
    assert calls == [12]
    calls.clear()
    verify_lowering(ScarfParams(F(1, 2), F(3, 2)), 12)
    assert calls == [12, 11]
    calls.clear()
    verify_raising(ScarfParams(F(1, 2), F(3, 2)), 12)
    assert calls == [12, 13]


# ---------------------------------------------------------------------------
# the moment side: Chebyshev recurrence and Hankel orthogonality
# ---------------------------------------------------------------------------

def _gram_elimination(c, degree):
    """Gram elimination, the construction ``gram_sequence`` replaced: each
    P_k is y^k minus its projections on P_0..P_{k-1}."""
    seq = []
    for k in range(degree + 1):
        p = Poly.monomial(k)
        for q, qq in seq:
            p = p - q.scale(inner(p, q, c) / qq)
        seq.append((p, inner(p, p, c)))
    return seq


@pytest.mark.parametrize("family", FAMILIES)
def test_gram_sequence_matches_gram_elimination(family):
    c = family.moments(49)
    assert gram_sequence(c, 24) == _gram_elimination(c, 24)


@dataclass(frozen=True)
class _PerturbedJacobi(Jacobi1Params):
    """Little -1 Jacobi with the moment c_7 off by one."""

    def next_moment(self, lower):
        c = super().next_moment(lower)
        return c + 1 if len(lower) == 7 else c


def _count_calls(monkeypatch, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _fn=getattr(opalg, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(opalg, name, counting)
    return counts


def _orthogonal_by_members(report, family):
    """The per-member check: each P_n against every lower reported member."""
    c = family.moments(2*report.max_degree + 1)
    return [all(inner(r.polynomial, q.polynomial, c) == 0
                for q in report.records[:k])
            for k, r in enumerate(report.records)]


def test_perturbed_moment_breaks_hankel_orthogonality(monkeypatch):
    counts = _count_calls(monkeypatch, "inner")
    family = _PerturbedJacobi(F(1, 2), F(3, 2))
    report = verify_family(family, 7)
    assert counts["inner"] == 0 and not report.skipped_degenerate
    # h_{7-n} of P_n reads c_7 through the monic coefficient once 7 - n < n
    orthogonal = [r.results["orthogonal"] for r in report.records]
    assert orthogonal == [True]*4 + [False]*4
    assert orthogonal == _orthogonal_by_members(report, family)
    assert not report.all_oracle_checks_passed


@dataclass(frozen=True)
class _PerturbedGegenbauer(GegParams):
    """Gegenbauer with the moment c_8 off by one."""

    def next_moment(self, lower):
        c = super().next_moment(lower)
        return c + 1 if len(lower) == 8 else c


def test_orthogonality_above_a_skipped_degree(monkeypatch):
    counts = _count_calls(monkeypatch, "inner")
    family = GegParams(1, 2)          # lambda_1 = lambda_2
    report = verify_family(family, 12)
    assert report.skipped_degenerate == [2]
    assert counts["inner"] == 0
    c = family.moments(25)
    above = [r for r in report.records if r.n > 2]
    assert len(above) == 10
    assert all(r.results["orthogonal"] for r in above)
    assert all(r.norm_sq == inner(r.polynomial, r.polynomial, c)
               for r in report.records)


def test_perturbed_moment_above_a_skipped_degree():
    family = _PerturbedGegenbauer(1, 2)
    report = verify_family(family, 12)
    assert report.skipped_degenerate == [2]
    orthogonal = [r.results["orthogonal"] for r in report.records]
    assert orthogonal == _orthogonal_by_members(report, family)
    assert not all(orthogonal[2:]) and all(orthogonal[:2])


def test_verify_family_without_inner_calls(monkeypatch):
    counts = _count_calls(monkeypatch, "inner", "matrix_on_basis")
    report = verify_family(Jacobi1Params(F(1, 2), F(3, 2)), 24)
    assert report.all_oracle_checks_passed
    assert counts == {"inner": 0, "matrix_on_basis": 1}
