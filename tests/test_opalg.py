"""Tests for the polynomial / reflection-operator algebra."""

import ast
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dunklqm import opalg
from dunklqm.exact import rat
from dunklqm.gegenbauer import GEG_FUZZ_PARAMS, GegParams
from dunklqm.jacobi import (
    FUZZ_PARAMS,
    Jacobi1Params,
    verify_lowering,
    verify_raising,
)
from dunklqm.opalg import (
    DegenerateSpectrumError,
    DegreeOverflowError,
    Diff,
    EigenvalueFormulaError,
    MulPoly,
    OddOverY,
    OrthogonalFamily,
    Poly,
    Reflect,
    ReflOp,
    check_degree,
    compose,
    construct_eigen,
    dunkl,
    eigen_sequence,
    gram_sequence,
    inner,
    matrix_on_basis,
    unchecked,
    verify_family,
)


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


def test_poly_call_keeps_the_argument_type():
    t = np.linspace(-1.3, 1.3, 27)
    zero = Poly.zero()(t)
    assert isinstance(zero, np.ndarray) and zero.shape == t.shape
    assert not zero.any()
    assert type(Poly.zero()(F(1, 3))) is F and Poly.zero()(F(1, 3)) == 0
    # Horner in np.polyval's order: bit for bit its value
    for p in (P(3), P(1, 0, 2), P(F(-1, 3), F(2, 7), 0, F(5, 4)),
              construct_eigen(7, Jacobi1Params(F(1, 2), F(3, 2)))):
        ref = np.polyval([float(c) for c in reversed(p.coeffs)], t)
        assert p(t).tobytes() == ref.tobytes()


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


def _fractions(matrix):
    """The Fraction matrix of ``matrix_on_basis``'s integer rows."""
    rows, _ = matrix
    return [[F(x, den) for x in row] for row, den in rows]


def test_matrix_on_basis_examples():
    d = matrix_on_basis(ReflOp.from_primitive(Diff), 2)
    assert d == ([([0, 1, 0], 1), ([0, 0, 2], 1), ([0, 0, 0], 1)], 3)
    r = matrix_on_basis(ReflOp.from_primitive(Reflect), 2)
    assert _fractions(r) == [[F(1), F(0), F(0)], [F(0), F(-1), F(0)],
                             [F(0), F(0), F(1)]]
    t = matrix_on_basis(dunkl(F(1, 2)), 1)
    assert _fractions(t) == [[F(0), F(2)], [F(0), F(0)]]
    # each row over the lcm of its entries' reduced denominators
    half = ReflOp([(F(1, 2), ()), (F(1, 3), (Diff,)), (F(3, 4), (Diff, Diff))])
    assert matrix_on_basis(half, 2) == ([([3, 2, 9], 6), ([0, 3, 4], 6),
                                         ([0, 0, 1], 2)], 3)
    # y^2 y^-1(1-R) takes y to 2 y^2: column 1 is the lowest to leave the
    # triangle
    raising = ReflOp([(1, (MulPoly(P(0, 0, 1)), OddOverY))])
    assert matrix_on_basis(raising, 4)[1] == 1


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
        assert _fractions(mab) == _mat_mul(_fractions(ma), _fractions(mb))


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
    # one typesetting rule for both: a unit coefficient is left out, a
    # constant prints its magnitude, a later negative term joins with " - ",
    # no terms print "0"; an operator keeps its zero-scalar terms
    cases = [
        (P(), "0"),
        (ReflOp([]), "0"),
        (P(1), "1"),
        (P(-1), "-1"),
        (P(F(-3, 2)), "-3/2"),
        (P(0, -1), "-y"),
        (P(F(1, 2), 0, -3), "-3*y^2 + 1/2"),
        (ReflOp([(1, ())]), "I"),
        (ReflOp([(-1, ())]), "-I"),
        (ReflOp([(F(-3, 2), ())]), "-3/2*I"),
        (ReflOp([(0, (Diff,))]), "0*d/dy"),
        (dunkl(0), "d/dy + 0*y^-1(1-R)"),
        (ReflOp([(2, (MulPoly(P(1, -1)), Diff, Reflect)),
                 (F(-1, 3), (OddOverY,))]),
         "2*(-y + 1)*d/dy*R - 1/3*y^-1(1-R)"),
    ]
    assert [obj.pretty() for obj, _ in cases] == [text for _, text in cases]


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


def test_construct_eigen_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="nonnegative"):
        construct_eigen(-1, Jacobi1Params(1, 3))
    # the empty sequence stays: verify_lowering(p, 0) reads it for b+2
    assert eigen_sequence(Jacobi1Params(1, 3), -1) == []


def test_check_degree_alone_refuses_a_collision():
    # at (0, -2) lambda_1 = lambda_0 = 0: P_1 is not uniquely defined, a
    # refusal rather than a failed formula, whichever caller asks
    family = unchecked(Jacobi1Params, 0, -2)
    message = ("^degenerate spectrum at alpha=0, beta=-2: degrees 0 and 1 "
               "share the eigenvalue 0, so P_1 is not uniquely defined$")
    for call in (check_degree, construct_eigen):
        with pytest.raises(DegenerateSpectrumError, match=message) as refused:
            call(1, family)
        assert not isinstance(refused.value, EigenvalueFormulaError)


def test_each_exact_layer_error_has_one_raiser():
    raisers = {}
    for path in Path(opalg.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Raise)
                            and isinstance(node.exc, ast.Call)
                            and isinstance(node.exc.func, ast.Name)):
                        raisers.setdefault(node.exc.func.id, set()).add(
                            fn.name)
    assert raisers["DegenerateSpectrumError"] == {"check_degree"}
    assert raisers["EigenvalueFormulaError"] == {"_back_substitute"}


def test_eigenvalue_formula_disagreeing_with_diagonal_is_refused():
    # y d/dy has eigenvalue 1 on y, not 2
    with pytest.raises(EigenvalueFormulaError,
                       match=r"^no monic degree-1 eigenvector at lambda_1 = 2 "
                       r"\(inconsistent system\)$"):
        eigen_sequence(_StubFamily([0, 2]), 1)
    # 1 is the diagonal entry at degree 1: no monic eigenvector of degree 2
    with pytest.raises(EigenvalueFormulaError, match="degenerate below degree 2"):
        construct_eigen(2, _StubFamily([0, 5, 1]))
    # the battery raises the same error, and makes no report
    class OddShifted(Jacobi1Params):
        def eigenvalue(self, n):
            return super().eigenvalue(n) + F(n % 2, 100)

    with pytest.raises(EigenvalueFormulaError,
                       match="^no monic degree-1 eigenvector at "
                       "lambda_1 = 801/100 "):
        verify_family(OddShifted(F(1, 2), F(3, 2)), 4)


def test_degree_raising_operator_is_refused():
    # y^2 y^-1(1-R) maps odd y^j to 2 y^(j+1), inside the bound
    raising = ReflOp([(1, (MulPoly(P(0, 0, 1)), OddOverY))])
    stub = _StubFamily(range(5), raising)
    assert matrix_on_basis(stub.operator(), 4)[1] == 1
    assert construct_eigen(0, stub) == Poly.one()
    with pytest.raises(DegreeOverflowError):
        construct_eigen(1, stub)
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
    verify_lowering(Jacobi1Params(F(1, 2), F(3, 2)), 12)
    assert calls == [12, 11]
    calls.clear()
    verify_raising(Jacobi1Params(F(1, 2), F(3, 2)), 12)
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


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction kernels they replaced
# ---------------------------------------------------------------------------

def _fraction_mul(a, b):
    if not a or not b:
        return []
    out = [F(0)]*(len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            out[i+j] += x*z
    return out


def _fraction_step(prim, cs):
    """One primitive on a list of Fractions, as the Fraction kernels did it."""
    if isinstance(prim, MulPoly):
        return _fraction_mul(prim.poly.coeffs, cs)
    if prim is Diff:
        return [k*c for k, c in enumerate(cs)][1:]
    if prim is Reflect:
        return [-c if k % 2 else c for k, c in enumerate(cs)]
    out = [F(0)]*max(len(cs) - 1, 0)        # OddOverY
    for k in range(1, len(cs), 2):
        out[k-1] = 2*cs[k]
    return out


def _fraction_apply(op, p):
    out = []
    for s, chain in op.terms:
        q = list(p.coeffs)
        for prim in reversed(chain):
            q = _fraction_step(prim, q)
        out += [F(0)]*(len(q) - len(out))
        for k, c in enumerate(q):
            out[k] += s*c
    return Poly(out)


def _fraction_matrix(op, bound):
    """The Fraction matrix of ``op`` on 1, y, ..., y^bound, column j from
    the Fraction kernels' image of y^j."""
    cols = [_fraction_apply(op, Poly.monomial(j)).coeffs
            for j in range(bound + 1)]
    return [[col[i] if i < len(col) else F(0) for col in cols]
            for i in range(bound + 1)]


class _MatrixOp:
    """The operator with a given square Fraction matrix on the monomial
    basis: the ``op`` that ``matrix_on_basis`` reads it back from."""

    def __init__(self, mat):
        self.mat = mat

    def apply(self, p):
        return Poly([sum(row[j]*c for j, c in enumerate(p.coeffs))
                     for row in self.mat])


def _solve(mat, lam, n):
    """The back-substitution on the integer rows of a Fraction matrix."""
    return opalg._back_substitute(
        matrix_on_basis(_MatrixOp(mat), len(mat) - 1), lam, n)


def _fraction_solve(mat, lam, n):
    lam = rat(lam)
    if any(mat[i][j] for j in range(n + 1) for i in range(j + 1, len(mat))):
        raise DegreeOverflowError(f"operator raises the degree of y^0..y^{n}")
    if any(mat[k][k] == lam for k in range(n)):
        raise EigenvalueFormulaError(
            f"eigenvalue {lam} is degenerate below degree {n}")
    if mat[n][n] != lam:
        raise EigenvalueFormulaError(
            f"no monic degree-{n} eigenvector at lambda_{n} = {lam} "
            "(inconsistent system)")
    coeffs = [F(0)]*n + [F(1)]
    for k in range(n - 1, -1, -1):
        row = mat[k]
        acc = sum(row[j]*coeffs[j] for j in range(k + 1, n + 1) if row[j])
        coeffs[k] = -acc / (row[k] - lam)
    return Poly(coeffs)


def _fraction_gram(c, degree):
    sigma = c[:2*degree + 1]
    prev_sigma = [F(0)]*len(sigma)
    prev_p, p = [], [F(1)]
    prev_ratio = F(0)
    seq = [(Poly(p), sigma[0])]
    for k in range(degree):
        ratio = sigma[k+1] / sigma[k]
        a = ratio - prev_ratio
        b = sigma[k] / prev_sigma[k-1] if k else F(0)
        nxt = [F(0)]*len(sigma)
        for m in range(k + 1, 2*degree - k):
            nxt[m] = sigma[m+1] - a*sigma[m] - b*prev_sigma[m]
        new_p = [F(0)] + p
        for i, x in enumerate(p):
            new_p[i] -= a*x
        for i, x in enumerate(prev_p):
            new_p[i] -= b*x
        prev_sigma, sigma, prev_ratio = sigma, nxt, ratio
        prev_p, p = p, new_p
        seq.append((Poly(p), sigma[k+1]))
    return seq


def _fraction_hankel(pn, c):
    """(h_0..h_n, inner(P_n, P_n)) as the Fraction battery summed them."""
    n = len(pn.coeffs) - 1
    terms = [(i, a) for i, a in enumerate(pn.coeffs) if a]
    h = [sum(a*c[m+i] for i, a in terms) for m in range(n + 1)]
    return h, sum(a*h[i] for i, a in terms)


def assert_canonical(p):
    """Integer numerators over a positive denominator, in lowest terms and
    trimmed; the zero Poly is ((), 1)."""
    assert all(type(x) is int for x in p.nums) and type(p.den) is int
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert p.nums[-1] if p.nums else p.den == 1


def assert_same_poly(new, old):
    """Equal coefficients, each a reduced Fraction, so the text is the same;
    the new Poly in canonical form."""
    assert_canonical(new)
    assert all(type(c) is F for c in new.coeffs)
    assert [str(c) for c in new.coeffs] == [str(c) for c in old.coeffs]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DegreeOverflowError, EigenvalueFormulaError,
            ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _same_outcome(new, old):
    if isinstance(old, tuple):
        assert new == old
    else:
        assert_same_poly(new, old)


# negative and zero values, denominators sharing factors, and denominators
# given negative (Fraction moves the sign to the numerator)
exact_q = st.builds(F, st.integers(-40, 40),
                    st.sampled_from([1, 2, 3, 4, 6, 9, 12, -1, -2, -6, -8]))
polys = st.lists(exact_q, max_size=7).map(Poly)
primitives = st.one_of(st.sampled_from([Diff, Reflect, OddOverY]),
                       polys.map(MulPoly))
operators = st.lists(st.tuples(exact_q, st.lists(primitives, max_size=4)),
                     max_size=4).map(ReflOp)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(operators, polys)
@example(ReflOp([(1, (Diff,))]), Poly.zero())
@example(ReflOp([(1, (MulPoly(Poly.zero()), Reflect))]), P(1, -1))
@example(ReflOp(), P(1, 2))
@example(ReflOp([(F(1, 2), (MulPoly(P(F(-1, 6), 0, F(5, 4))), OddOverY)),
                 (F(-1, 2), (MulPoly(P(F(-1, 6), 0, F(5, 4))), OddOverY))]),
         P(F(1, 3), F(3, 4), 0, F(-7, 6)))           # images cancel to zero
def test_apply_matches_fraction_kernels(op, p):
    assert_same_poly(op.apply(p), _fraction_apply(op, p))


def _fraction_poly(cs):
    """A list of Fractions, trimmed: the old ``Poly.coeffs``."""
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _fraction_combine(a, b, sign):
    n = max(len(a), len(b))
    pad = lambda cs: list(cs) + [F(0)]*(n - len(cs))
    return [x + sign*z for x, z in zip(pad(a), pad(b))]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(exact_q, max_size=7), st.lists(exact_q, max_size=7), exact_q)
@example([F(1, 2), F(0)], [F(2, 4)], F(0))             # equal after trimming
@example([F(3, 4), F(-1, 6)], [F(3, 4), F(-1, 6), F(0), F(0)], F(-2, 3))
def test_poly_arithmetic_matches_fraction_lists(a, b, s):
    p, q = Poly(a), Poly(b)
    a, b = _fraction_poly(a), _fraction_poly(b)
    for poly, ref in ((p, a), (q, b)):
        assert_canonical(poly)
        assert poly.coeffs == ref
        assert poly.degree == (len(ref) - 1 if ref else -math.inf)
        assert poly.coeff(len(ref)) == 0
    assert (p == q) == (a == b)
    assert p == Poly(a + (F(0),)*3)
    assert hash(p) == hash(Poly(a + (F(0),))) and (p != q or hash(p) == hash(q))
    odd = [F(0)]*max(len(a) - 1, 0)
    odd[::2] = [2*c for c in a[1::2]]
    cases = [(p + q, _fraction_combine(a, b, 1)),
             (p - q, _fraction_combine(a, b, -1)),
             (-p, [-c for c in a]),
             (p * q, _fraction_mul(a, b)),
             (p.scale(s), [s*c for c in a]),
             (p.deriv(), [k*c for k, c in enumerate(a)][1:]),
             (p.reflect(), [-c if k % 2 else c for k, c in enumerate(a)]),
             (p.odd_over_y(), odd)]
    for new, ref in cases:
        assert_canonical(new)
        assert new.coeffs == _fraction_poly(ref)


def test_kernels_build_no_fraction(monkeypatch):
    """ReflOp.apply, Poly's arithmetic, the operator rows and the
    back-substitution run on integers: on prebuilt inputs they construct no
    Fraction."""
    family = Jacobi1Params(F(1, 2), F(3, 2))
    op, lam = family.operator(), family.eigenvalue(8)
    p, q, s = construct_eigen(7, family), P(F(1, 3), F(-2, 5), 1), F(-3, 7)
    built = []
    real = F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *args, **kw: built.append(
        args) or real(cls, *args, **kw))
    assert F(1, 2) and built == [(1, 2)]
    built.clear()
    mat = matrix_on_basis(op, 8)
    results = [op.apply(p), p * q, p.scale(s), p + q, p - q, -p, p.deriv(),
               p.reflect(), p.odd_over_y(),
               opalg._back_substitute(mat, lam, 8)]
    assert built == []
    assert all(r.nums for r in results)


def _triangular(entries, size, below=None):
    """A size x size upper-triangular matrix read from ``entries``, with
    fresh Fraction and int zeros (not one shared zero), and optionally one
    nonzero entry below the diagonal."""
    it = iter(entries)
    mat = [[F(0) if (i + j) % 2 else 0 for j in range(size)]
           for i in range(size)]
    for i in range(size):
        for j in range(i, size):
            mat[i][j] = next(it, F(0))
    if below is not None:
        i, j = below
        mat[i][j] = F(1, 3)
    return mat


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(exact_q, min_size=36, max_size=36), st.integers(1, 8),
       st.one_of(st.none(), st.tuples(st.integers(1, 7), st.integers(0, 6))))
@example([F(k) for k in range(1, 37)], 3, (2, 1))   # DegreeOverflowError
def test_solve_matches_fraction_back_substitution(entries, size, below):
    if below is not None and not below[1] < below[0] < size:
        below = None
    mat = _triangular(entries, size, below)
    for n in range(size):
        for lam in {mat[n][n], mat[0][0], F(7, 3)}:
            _same_outcome(_outcome(_solve, mat, lam, n),
                          _outcome(_fraction_solve, mat, lam, n))


def _drawn_family(kind, x, y):
    if kind == "jacobi":
        return Jacobi1Params(abs(x) - F(9, 10), abs(y) - F(9, 10))
    return GegParams(abs(x) - F(2, 5), abs(y) - F(9, 10))


families = st.builds(_drawn_family, st.sampled_from(["jacobi", "gegenbauer"]),
                     exact_q, exact_q)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(families, st.integers(2, 14))
def test_family_kernels_match_fraction_kernels(family, degree):
    matrix = matrix_on_basis(family.operator(), degree)
    mat = _fraction_matrix(family.operator(), degree)
    assert _fractions(matrix) == mat
    for n in range(degree + 1):
        lam = family.eigenvalue(n)
        _same_outcome(_outcome(opalg._back_substitute, matrix, lam, n),
                      _outcome(_fraction_solve, mat, lam, n))
    c = family.moments(2*degree + 1)
    new, old = gram_sequence(c, degree), _fraction_gram(c, degree)
    for (p_new, s_new), (p_old, s_old) in zip(new, old, strict=True):
        assert_same_poly(p_new, p_old)
        assert type(s_new) is F and str(s_new) == str(s_old)
    report = verify_family(family, degree)
    for k, r in enumerate(report.records):
        h, norm_sq = _fraction_hankel(r.polynomial, c)
        assert type(r.norm_sq) is F and str(r.norm_sq) == str(norm_sq)
        nonzero = [(j, x) for j, x in enumerate(h[:r.n]) if x]
        assert r.results["orthogonal"] == all(
            sum(q.polynomial.coeff(j)*x for j, x in nonzero) == 0
            for q in report.records[:k])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(exact_q, min_size=12, max_size=12))
@example([F(0)]*12)                     # s_{1,1} = 0: both divide by zero
def test_gram_sequence_on_arbitrary_moments(c):
    c = [F(1)] + c
    new = _outcome(gram_sequence, c, 6)
    old = _outcome(_fraction_gram, c, 6)
    if isinstance(old, tuple):
        assert new[0] is old[0] is ZeroDivisionError
    else:
        for (p_new, s_new), (p_old, s_old) in zip(new, old, strict=True):
            assert_same_poly(p_new, p_old)
            assert type(s_new) is F and str(s_new) == str(s_old)
