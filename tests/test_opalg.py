"""Tests for the polynomial / reflection-operator algebra."""

import math
import random
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
    mat_mul,
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
        assert mab == mat_mul(ma, mb)


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


@pytest.mark.parametrize("family", [Jacobi1Params(a, b) for a, b in FUZZ_PARAMS]
                         + [GegParams(mu, al) for mu, al in GEG_FUZZ_PARAMS])
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
