"""Dense univariate polynomials over exact rationals and a reflection-closed
operator algebra on them.

Operators are linear combinations of chains of four primitives, each of which
maps polynomials to polynomials:

    MulPoly(p)   multiplication by a polynomial p(y)
    Diff         d/dy
    Reflect      p(y) -> p(-y)
    OddOverY     p(y) -> (p(y) - p(-y)) / y

OddOverY is the closure trick: the quotient is always polynomial because the
numerator is odd, so operators like (1/y)(1 - R) never leave the polynomial
ring. Chains are stored explicitly (not as closures) so operators can be
composed, printed, and converted to matrices on the monomial basis.

On top of the algebra sits the one verification battery shared by every
orthogonal family. A family (``OrthogonalFamily``) supplies only its own
math: validated parameters, its operator and eigenvalue formula, and its
moment formula. The generic code builds the monic family twice, from the
eigenvalue equation (``eigen_sequence``: one upper-triangular operator
matrix, one back-substitution per degree) and by Gram elimination against
the moments (``gram_sequence``), and ``verify_family`` checks that the two
constructions agree.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import rat

__all__ = [
    "Poly",
    "ReflOp",
    "MulPoly",
    "Diff",
    "Reflect",
    "OddOverY",
    "DegreeOverflowError",
    "dunkl",
    "matrix_on_basis",
    "mat_mul",
    "solve_monic_eigenvector",
    "DegenerateSpectrumError",
    "OrthogonalFamily",
    "unchecked",
    "Moments",
    "inner",
    "gram_sequence",
    "construct_gram",
    "eigenvalue_collision",
    "construct_eigen",
    "eigen_sequence",
    "FamilyRecord",
    "FamilyReport",
    "verify_family",
]


class DegreeOverflowError(ValueError):
    """Operator image exceeded the caller-supplied degree bound."""


class DegenerateSpectrumError(ValueError):
    """Requested eigenvalue collides with a lower one; construction refused."""


class Poly:
    """Dense polynomial in y with Fraction coefficients, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def monomial(n: int) -> "Poly":
        return Poly((0,)*n + (1,))

    @property
    def degree(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def scale(self, s) -> "Poly":
        s = rat(s)
        return Poly([s*c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        out = [Fraction(0)]*(len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i+j] += a*b
        return Poly(out)

    def deriv(self) -> "Poly":
        return Poly([k*c for k, c in enumerate(self.coeffs)][1:])

    def reflect(self) -> "Poly":
        """p(y) -> p(-y)."""
        return Poly([c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)])

    def odd_over_y(self) -> "Poly":
        """(p(y) - p(-y)) / y: twice the odd part, divided by y. Always exact."""
        out = [Fraction(0)]*max(len(self.coeffs) - 1, 0)
        for k in range(1, len(self.coeffs), 2):
            out[k-1] = 2*self.coeffs[k]
        return Poly(out)

    def __call__(self, t):
        """Evaluate at t (Fraction stays exact, float goes numeric)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc*t + (c if isinstance(t, Fraction) else float(c))
        return acc

    def as_float_coeffs(self):
        return [float(c) for c in self.coeffs]

    def __repr__(self):
        return f"Poly({self.pretty()})"

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                yk = "y" if k == 1 else f"y^{k}"
                body = yk if mag == 1 else f"{mag}*{yk}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


# ---------------------------------------------------------------------------
# primitives and operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MulPoly:
    poly: Poly

    def apply(self, p: Poly) -> Poly:
        return self.poly * p

    def symbol(self) -> str:
        return f"({self.poly.pretty()})"


class _Diff:
    def apply(self, p: Poly) -> Poly:
        return p.deriv()

    def symbol(self) -> str:
        return "d/dy"

    def __repr__(self):
        return "Diff"


class _Reflect:
    def apply(self, p: Poly) -> Poly:
        return p.reflect()

    def symbol(self) -> str:
        return "R"

    def __repr__(self):
        return "Reflect"


class _OddOverY:
    def apply(self, p: Poly) -> Poly:
        return p.odd_over_y()

    def symbol(self) -> str:
        return "y^-1(1-R)"

    def __repr__(self):
        return "OddOverY"


Diff = _Diff()
Reflect = _Reflect()
OddOverY = _OddOverY()


class ReflOp:
    """Linear operator on Poly: a sum of scalar-weighted primitive chains.

    A chain (s, (P1, P2, ..., Pk)) acts as s * P1(P2(...Pk(p))): the rightmost
    primitive is applied first, matching operator-product notation.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = tuple((rat(s), tuple(chain)) for s, chain in terms)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_primitive(prim) -> "ReflOp":
        return ReflOp([(1, (prim,))])

    # -- algebra -------------------------------------------------------------
    def __add__(self, other: "ReflOp") -> "ReflOp":
        return ReflOp(self.terms + other.terms)

    def __sub__(self, other: "ReflOp") -> "ReflOp":
        return self + other.scale(-1)

    def scale(self, s) -> "ReflOp":
        s = rat(s)
        return ReflOp([(s*c, chain) for c, chain in self.terms])

    def apply(self, p: Poly) -> Poly:
        out = Poly.zero()
        for s, chain in self.terms:
            q = p
            for prim in reversed(chain):
                q = prim.apply(q)
            out = out + q.scale(s)
        return out

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for s, chain in self.terms:
            body = "*".join(prim.symbol() for prim in chain) if chain else "I"
            if s == 1:
                parts.append(body)
            elif s == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{s}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"ReflOp[{self.pretty()}]"


def compose(a: ReflOp, b: ReflOp) -> ReflOp:
    """Operator product a∘b (b applied first)."""
    terms = []
    for sa, ca in a.terms:
        for sb, cb in b.terms:
            terms.append((sa*sb, ca + cb))
    return ReflOp(terms)


def dunkl(mu) -> ReflOp:
    """Dunkl operator T_mu = d/dy + mu * y^-1 (1 - R)."""
    return ReflOp([(1, (Diff,)), (rat(mu), (OddOverY,))])


def matrix_on_basis(op: ReflOp, degree_bound: int):
    """(D+1)x(D+1) Fraction matrix of op on the monomial basis 1, y, ..., y^D.

    Column j holds the coefficients of op(y^j). Raises DegreeOverflowError if
    some image exceeds the bound.
    """
    size = degree_bound + 1
    mat = [[Fraction(0)]*size for _ in range(size)]
    for j in range(size):
        img = op.apply(Poly.monomial(j))
        if img.degree > degree_bound:
            raise DegreeOverflowError(
                f"op(y^{j}) has degree {img.degree} > bound {degree_bound}")
        for i, c in enumerate(img.coeffs):
            mat[i][j] = c
    return mat


def mat_mul(a, b):
    """Exact product of two square Fraction matrices (lists of rows)."""
    n = len(a)
    return [[sum(a[i][k]*b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def solve_monic_eigenvector(mat, lam, n: int) -> Poly:
    """Monic degree-n polynomial P with (M - lam) P = 0, solved exactly.

    ``mat`` is an operator matrix on 1..y^D, D >= n. A degree-preserving
    operator makes it upper triangular, so P is a back-substitution from
    c_n = 1 over the leading (n+1) block. Raises DegreeOverflowError if some
    y^j, j <= n, maps above degree j, and DegenerateSpectrumError if lam is
    a diagonal entry below degree n (collision) or not the one at degree n.
    """
    lam = rat(lam)
    if any(mat[i][j] for j in range(n + 1) for i in range(j + 1, len(mat))):
        raise DegreeOverflowError(f"operator raises the degree of y^0..y^{n}")
    if any(mat[k][k] == lam for k in range(n)):
        raise DegenerateSpectrumError(
            f"eigenvalue {lam} is degenerate below degree {n}")
    if mat[n][n] != lam:
        raise DegenerateSpectrumError(
            f"no monic eigenvector at eigenvalue {lam} (inconsistent system)")
    coeffs = [Fraction(0)]*n + [Fraction(1)]
    for k in range(n - 1, -1, -1):
        row = mat[k]
        acc = sum(row[j]*coeffs[j] for j in range(k + 1, n + 1) if row[j])
        coeffs[k] = -acc / (row[k] - lam)
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# orthogonal families and their verification battery
# ---------------------------------------------------------------------------

class OrthogonalFamily:
    """Validated parameters of a monic orthogonal family P_0, P_1, ...

    Subclasses are frozen dataclasses whose fields are the parameters. They
    supply the family's own math; everything else here is generic.
    """

    family_name = ""     # the "family" label of the report
    symmetric = False    # even weight: P_n has the parity of n

    def operator(self) -> ReflOp:
        """The degree-preserving operator with L P_n = eigenvalue(n) P_n."""
        raise NotImplementedError

    def eigenvalue(self, n: int) -> Fraction:
        raise NotImplementedError

    def next_moment(self, lower: list) -> Fraction:
        """Moment c_n for n = len(lower), given c_0 = 1, ..., c_{n-1}."""
        raise NotImplementedError

    def family_checks(self, n: int, pn: Poly,
                      norm_sq: Fraction) -> tuple[dict, bool]:
        """Extra report fields for P_n, and whether its extra oracle checks
        passed. Printed closed forms that disagree are fields, not failures."""
        return {}, True

    def params_json(self) -> dict:
        return {f.name: str(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    def label(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.params_json().items())


def unchecked(cls, *values):
    """``cls(*values)`` with the values made exact, skipping validation.

    For the analytic continuation of a family in its parameters past the
    domain where its weight is integrable, e.g. the beta - 2 targets of the
    Scarf raising map.
    """
    obj = object.__new__(cls)
    for f, v in zip(dataclasses.fields(cls), values, strict=True):
        object.__setattr__(obj, f.name, rat(v))
    return obj


class Moments:
    """Normalized moments c_0 = 1, c_1, ... of a family's functional, cached."""

    def __init__(self, family: OrthogonalFamily):
        self.family = family
        self._cache = [Fraction(1)]

    def moment(self, n: int) -> Fraction:
        while len(self._cache) <= n:
            self._cache.append(self.family.next_moment(self._cache))
        return self._cache[n]


def inner(p: Poly, q: Poly, moments: Moments) -> Fraction:
    """Exact bilinear form sum_ij p_i q_j c_{i+j}."""
    total = Fraction(0)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            if b == 0:
                continue
            total += a*b*moments.moment(i + j)
    return total


def gram_sequence(moments: Moments, degree: int) -> list:
    """[(P_k, inner(P_k, P_k)) for k = 0..degree] by Gram elimination.

    Each P_k is y^k minus its projections on P_0..P_{k-1}, built once and
    incrementally. Independent of the eigenvalue equation; the two
    constructions agreeing is one of the battery's checks.
    """
    seq: list[tuple[Poly, Fraction]] = []
    for k in range(degree + 1):
        p = Poly.monomial(k)
        for q, qq in seq:
            p = p - q.scale(inner(p, q, moments) / qq)
        seq.append((p, inner(p, p, moments)))
    return seq


def construct_gram(n: int, moments: Moments) -> Poly:
    """Monic degree-n polynomial from Gram elimination over the moments."""
    return gram_sequence(moments, n)[n][0]


def eigenvalue_collision(n: int, family: OrthogonalFamily) -> int | None:
    """Lowest degree m < n with lambda_m = lambda_n, or None."""
    lam = family.eigenvalue(n)
    return next((m for m in range(n) if family.eigenvalue(m) == lam), None)


def construct_eigen(n: int, family: OrthogonalFamily) -> Poly:
    """Monic degree-n eigenvector of the family's operator, by exact
    linear algebra.

    Refuses degenerate spectra: if lambda_n collides with a lower eigenvalue
    the family member is not uniquely defined and we report rather than pick.
    """
    lam = family.eigenvalue(n)
    m = eigenvalue_collision(n, family)
    if m is not None:
        raise DegenerateSpectrumError(
            f"lambda_{n} = lambda_{m} = {lam} at {family.label()}")
    mat = matrix_on_basis(family.operator(), n)
    return solve_monic_eigenvector(mat, lam, n)


def eigen_sequence(family: OrthogonalFamily, degree: int) -> list:
    """[P_0, ..., P_degree] by back-substitution over one operator matrix,
    with None at degrees whose eigenvalue collides with a lower one. The
    sibling of ``gram_sequence``."""
    mat = matrix_on_basis(family.operator(), degree)
    lams = [family.eigenvalue(n) for n in range(degree + 1)]
    return [None if lam in lams[:n] else solve_monic_eigenvector(mat, lam, n)
            for n, lam in enumerate(lams)]


@dataclass
class FamilyRecord:
    """One degree of the battery: P_n from the eigenvalue equation, its
    squared norm, and the report fields (checks, then findings) in order."""

    n: int
    eigenvalue: Fraction
    polynomial: Poly
    norm_sq: Fraction
    results: dict

    def as_json_dict(self) -> dict:
        return {"n": self.n, "eigenvalue": str(self.eigenvalue), **self.results}


@dataclass
class FamilyReport:
    family: str
    params: dict
    max_degree: int
    records: list
    all_oracle_checks_passed: bool
    skipped_degenerate: list = field(default_factory=list)

    def as_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "max_degree": self.max_degree,
            "all_oracle_checks_passed": self.all_oracle_checks_passed,
            "skipped_degenerate": list(self.skipped_degenerate),
            "records": [r.as_json_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_json_dict(), indent=2)

    def discrepancy_count(self) -> int:
        return sum(len(r.results.get("discrepancies", ())) for r in self.records)


def verify_family(family: OrthogonalFamily, max_degree: int) -> FamilyReport:
    """Run the exact verification battery up to the given degree.

    Per degree: zero residual in the eigenvalue equation, agreement with
    Gram elimination, parity (symmetric families), orthogonality against
    all lower members, then the family's own checks. Degrees whose
    eigenvalue collides with a lower one are skipped and listed. Only
    internal oracle inconsistencies mark the report failed.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    moments = Moments(family)
    operator = family.operator()
    gram = gram_sequence(moments, max_degree)
    records: list[FamilyRecord] = []
    skipped: list[int] = []
    oracle_ok = True
    for n, pn in enumerate(eigen_sequence(family, max_degree)):
        if pn is None:
            skipped.append(n)
            continue
        lam = family.eigenvalue(n)
        norm_sq = inner(pn, pn, moments)
        results = {"eigen_residual_zero": operator.apply(pn) == pn.scale(lam),
                   "gram_matches_eigen": gram[n][0] == pn}
        if family.symmetric:
            results["parity_ok"] = pn.reflect() == pn.scale((-1)**n)
        results["orthogonal"] = all(inner(pn, r.polynomial, moments) == 0
                                    for r in records)
        extra, extra_ok = family.family_checks(n, pn, norm_sq)
        oracle_ok = oracle_ok and all(results.values()) and extra_ok
        records.append(FamilyRecord(n, lam, pn, norm_sq, {**results, **extra}))
    return FamilyReport(
        family=family.family_name,
        params=family.params_json(),
        max_degree=max_degree,
        records=records,
        all_oracle_checks_passed=oracle_ok,
        skipped_degenerate=skipped,
    )
