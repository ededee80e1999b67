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
ring. Diff, Reflect and OddOverY, three instances of one primitive class,
each a fixed step on a coefficient list, are the one home of these steps: a
``Poly`` is a ring element (arithmetic, evaluation and printing only), and
d/dy, R or y^-1(1-R) reaches it only through ``ReflOp.apply``. Chains are
stored explicitly (not as closures) so operators can be composed, printed,
and converted to matrices on the monomial basis.

On top of the algebra sits the one verification battery shared by every
orthogonal family. A family (``OrthogonalFamily``) supplies only its own
math: validated parameters, its operator and eigenvalue formula, and its
moment formula. The generic code builds the monic family twice, from the
eigenvalue equation (one builder, ``matrix_on_basis``, runs each chain's
primitive steps on every monomial y^j and sums the images as integers over
the one denominator of all chain weights; one driver, ``eigen_sequence``,
evaluates each eigenvalue once, finds collisions in a set and
back-substitutes each other degree over those rows, and ``construct_eigen``
one degree) and from the moments alone (``gram_sequence``: the three-term
recurrence by the Chebyshev algorithm), and ``verify_family`` checks that
the two constructions agree. A family may hand the battery a copy of itself
(``for_battery``) that carries values its moments and closed forms share
for that one call, such as ``jacobi``'s Pochhammer tables; nothing in this
module or a family keeps a computed value past the call that made it. Only
the back-substitution finds an eigenvalue formula that the operator
contradicts (EigenvalueFormulaError: CLI exit 1); only ``check_degree``
refuses a degree whose eigenvalue collides with a lower one
(DegenerateSpectrumError: exit 2). No caller in the package catches them.

A ``Poly`` holds its coefficients as integer numerators over one positive
denominator, in lowest terms, and every kernel reads and returns that form:
``ReflOp.apply``, ``Poly``'s arithmetic, the operator rows and their
back-substitution, the recurrence rows of ``gram_sequence`` and the Hankel
sums of ``verify_family``. Fractions are built only for readers: a Poly's
``coeffs`` and ``coeff``, a moment, a norm or a report field, each the same
reduced rational, with the same text, as exact Fraction arithmetic gives.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from operator import mul

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
    "compose",
    "matrix_on_basis",
    "DegenerateSpectrumError",
    "EigenvalueFormulaError",
    "OrthogonalFamily",
    "unchecked",
    "inner",
    "gram_sequence",
    "recurrence_coefficients",
    "check_degree",
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


class EigenvalueFormulaError(ValueError):
    """The operator contradicts the eigenvalue formula: no monic P_n at it."""


# Coefficient-list kernels (index k holds the y^k coefficient; trailing zeros
# allowed), on integer numerators over one common denominator: the operator
# primitives' steps and ``Poly``'s product. The product skips zero
# coefficients, which fill the monomial columns of ``matrix_on_basis``.

_ZERO = Fraction(0)


def _scaled(cs) -> tuple[list, int]:
    """(integer numerators, denominator) of rationals ``cs``, over the lcm
    of their denominators."""
    den = math.lcm(*[c.denominator for c in cs])
    return [c.numerator*(den // c.denominator) for c in cs], den


def _mul_coeffs(a, b) -> list:
    if not a or not b:
        return []
    out = [0]*(len(a) + len(b) - 1)
    terms = [(j, z) for j, z in enumerate(b) if z]
    for i, x in enumerate(a):
        if x:
            for j, z in terms:
                out[i+j] += x*z
    return out


def _deriv_coeffs(cs) -> list:
    return [k*c for k, c in enumerate(cs)][1:]


def _reflect_coeffs(cs) -> list:
    out = list(cs)
    out[1::2] = [-c for c in cs[1::2]]
    return out


def _odd_over_y_coeffs(cs) -> list:
    out = [0]*max(len(cs) - 1, 0)
    out[::2] = [2*c for c in cs[1::2]]
    return out


class Poly:
    """Dense polynomial in y with rational coefficients nums[k]/den, in one
    canonical form: den > 0, gcd(den, *nums) = 1, trailing zeros trimmed,
    and the zero polynomial is ((), 1)."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        self._reduce(*_scaled([rat(c) for c in coeffs]))

    @classmethod
    def _of(cls, nums: list, den: int = 1) -> "Poly":
        """The Poly nums[k]/den, for an integer list that it may trim in
        place and a nonzero den."""
        p = object.__new__(cls)
        p._reduce(nums, den)
        return p

    def _reduce(self, nums: list, den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        self.nums = tuple([x // g for x in nums]) if g != 1 else tuple(nums)
        self.den = den // g

    @staticmethod
    def zero() -> "Poly":
        return Poly._of([])

    @staticmethod
    def one() -> "Poly":
        return Poly._of([1])

    @staticmethod
    def monomial(n: int) -> "Poly":
        return Poly._of([0]*n + [1])

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions, built on each read."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def degree(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else -math.inf

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return _ZERO

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other over the lcm of the two denominators."""
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign*(den // other.den)
        return Poly._of([fa*x + fb*z for x, z in
                         zip_longest(self.nums, other.nums, fillvalue=0)], den)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._of([-x for x in self.nums], self.den)

    def scale(self, s) -> "Poly":
        s = rat(s)
        return Poly._of([s.numerator*x for x in self.nums], s.denominator*self.den)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly._of(_mul_coeffs(self.nums, other.nums), self.den*other.den)

    def __call__(self, t):
        """Evaluate at t (Fraction stays exact, float or array goes numeric)."""
        acc = 0 * t
        for c in reversed(self.coeffs):
            acc = acc*t + (c if isinstance(t, Fraction) else float(c))
        return acc

    def __repr__(self):
        return f"Poly({self.pretty()})"

    def pretty(self) -> str:
        den, terms = self.den, []
        for k in range(len(self.nums) - 1, -1, -1):
            if x := self.nums[k]:
                g = math.gcd(x, den)
                terms.append((x // g, den // g,
                              "y" if k == 1 else f"y^{k}" if k else ""))
        return _signed_sum(terms)


def _signed_sum(terms) -> str:
    """The sum of (p, q, body text) terms as (p/q)*body, each p/q reduced
    with q > 0: a unit p/q is left out, an empty body (a constant) prints
    |p/q|, each later negative term joins with " - ", and no terms print
    "0". |p/q| prints as the Fraction does: "p", or "p/q" for q > 1."""
    text = ""
    for p, q, body in terms:
        mag = f"{abs(p)}/{q}" if q != 1 else str(abs(p))
        term = (f"{mag}*{body}" if mag != "1" else body) if body else mag
        if text:
            text += f" - {term}" if p < 0 else f" + {term}"
        else:
            text = f"-{term}" if p < 0 else term
    return text or "0"


# ---------------------------------------------------------------------------
# primitives and operators
# ---------------------------------------------------------------------------

# Each primitive maps integer numerators to integer numerators (``step``);
# the values are those numerators over the input's denominator times the
# primitive's ``_den``, which is 1 except for MulPoly.

@dataclass(frozen=True)
class MulPoly:
    poly: Poly

    def __post_init__(self):
        object.__setattr__(self, "_den", self.poly.den)

    def step(self, cs) -> list:
        return _mul_coeffs(self.poly.nums, cs)

    def symbol(self) -> str:
        return f"({self.poly.pretty()})"


class _Primitive:
    """d/dy, R or y^-1(1-R): one fixed ``step`` on the numerators."""

    _den = 1

    def __init__(self, name: str, symbol: str, step):
        self._name, self._symbol, self.step = name, symbol, step

    def symbol(self) -> str:
        return self._symbol

    def __repr__(self):
        return self._name


Diff = _Primitive("Diff", "d/dy", _deriv_coeffs)
Reflect = _Primitive("Reflect", "R", _reflect_coeffs)
OddOverY = _Primitive("OddOverY", "y^-1(1-R)", _odd_over_y_coeffs)


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

    def _weighted_steps(self) -> tuple[int, list]:
        """(den, [(w, steps)]): each chain with a nonzero scalar as an
        integer weight w over the one denominator den of all the chains'
        scalars times their MulPoly denominators, and the steps of its
        primitives in the order they run."""
        dens = [s.denominator*math.prod(prim._den for prim in chain)
                for s, chain in self.terms]
        den = math.lcm(*dens)
        return den, [(s.numerator*(den // d),
                      [prim.step for prim in reversed(chain)])
                     for (s, chain), d in zip(self.terms, dens) if s]

    def apply(self, p: Poly) -> Poly:
        """Each chain runs on p's integer numerators, one list step per
        primitive; the weighted images are summed over one denominator into
        a single Poly."""
        den, chains = self._weighted_steps()
        return Poly._of(_image(chains, p.nums), den*p.den)

    def pretty(self) -> str:
        return _signed_sum(
            (s.numerator, s.denominator,
             "*".join(prim.symbol() for prim in chain) if chain else "I")
            for s, chain in self.terms)

    def __repr__(self):
        return f"ReflOp[{self.pretty()}]"


def _image(chains: list, nums) -> list:
    """The sum over ``ReflOp._weighted_steps`` chains of w times the
    chain's steps run on the integer list ``nums``, untrimmed."""
    out = []
    for w, steps in chains:
        q = nums
        for step in steps:
            q = step(q)
        out += [0]*(len(q) - len(out))
        for k, x in enumerate(q):
            if x:
                out[k] += w*x
    return out


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


# R on a polynomial, for verify_family's parity check R P_n = (-1)^n P_n
_REFLECT = ReflOp.from_primitive(Reflect)


def matrix_on_basis(op: ReflOp, degree_bound: int) -> tuple:
    """The rows of op on the monomial basis 1, y, ..., y^D (D the bound),
    and the lowest j with op(y^j) above degree j (D + 1 if none).

    Entry j of row i is the y^i coefficient of op(y^j), read from the
    image's numerators and denominator; each row is (integer numerators,
    denominator) over the lcm of its entries' reduced denominators. Raises
    DegreeOverflowError if some image exceeds the bound."""
    size = degree_bound + 1
    # each column op(y^j) as integers over the chains' one denominator
    den, chains = op._weighted_steps()
    cols = []
    for j in range(size):
        col = _image(chains, [0]*j + [1])
        while col and not col[-1]:
            col.pop()
        if len(col) > size:
            raise DegreeOverflowError(
                f"op(y^{j}) has degree {len(col) - 1} > bound {degree_bound}")
        cols.append(col)
    rows = []
    for i in range(size):
        row = [col[i] if i < len(col) else 0 for col in cols]
        g = math.gcd(den, *row)
        rows.append(([x // g for x in row], den // g))
    return rows, next((j for j, col in enumerate(cols) if len(col) > j + 1),
                      size)


def _back_substitute(matrix, lam, n: int) -> Poly:
    """Monic degree-n P with (M - lam) P = 0 on ``matrix``, the
    ``matrix_on_basis`` of an operator M to degree >= n: upper triangular
    if M keeps degrees, so a back-substitution from c_n = 1. Raises
    DegreeOverflowError if some y^j, j <= n, maps above degree j, and
    EigenvalueFormulaError if lam is a diagonal entry below degree n or not
    the one at degree n: either way the eigenvalue formula is wrong.
    """
    lam = rat(lam)
    rows, raised = matrix
    if raised <= n:
        raise DegreeOverflowError(f"operator raises the degree of y^0..y^{n}")
    # row k's diagonal entry minus lam is diag[k]/(row_den lam.denominator)
    ln, ld = lam.numerator, lam.denominator
    diag = [row[k]*ld - ln*row_den
            for k, (row, row_den) in enumerate(rows[:n + 1])]
    if 0 in diag[:n]:
        raise EigenvalueFormulaError(
            f"eigenvalue {lam} is degenerate below degree {n}")
    if diag[n]:
        raise EigenvalueFormulaError(
            f"no monic degree-{n} eigenvector at lambda_{n} = {lam} "
            "(inconsistent system)")
    # c_j = nums[j]/dens[j], c_n = 1. Step k multiplies the running
    # denominator by its own factor and records it as dens[k], so dens[j]
    # divides dens[k] for j > k and no step rescales the numerators before
    # it; they meet over the last denominator at the end.
    nums = [0]*n + [1]
    dens = [1]*(n + 1)
    den = 1
    for k in range(n - 1, -1, -1):
        row = rows[k][0]
        # sum_j row[j] c_j = acc/(row_den den), so the row_den cancels in
        # c_k = -(acc/(row_den den)) / (diag[k]/(row_den ld))
        acc = 0
        for j in range(k + 1, n + 1):
            if row[j] and nums[j]:
                acc += row[j]*nums[j]*(den // dens[j])
        if acc:
            den *= diag[k]
            nums[k] = -acc*ld
        dens[k] = den
    return Poly._of([x*(den // d) for x, d in zip(nums, dens)], den)


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

    def moments(self, count: int) -> list:
        """The normalized moments [c_0 = 1, c_1, ..., c_{count-1}]."""
        c = [Fraction(1)]
        while len(c) < count:
            c.append(self.next_moment(c))
        return c[:count]

    def family_checks(self, n: int, pn: Poly,
                      norm_sq: Fraction) -> tuple[dict, bool]:
        """Extra report fields for P_n, and whether its extra oracle checks
        passed. Printed closed forms that disagree are fields, not failures."""
        return {}, True

    def for_battery(self) -> "OrthogonalFamily":
        """The instance that one ``verify_family`` call reads: the family
        itself, or a copy that carries values its moments and checks share
        for that call only."""
        return self

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


def inner(p: Poly, q: Poly, c: list) -> Fraction:
    """Exact bilinear form sum_ij p_i q_j c_{i+j} on the moments ``c``."""
    total = Fraction(0)
    for i, a in enumerate(p.nums):
        if a == 0:
            continue
        for j, b in enumerate(q.nums):
            if b == 0:
                continue
            total += a*b*c[i + j]
    return total / (p.den*q.den)


def _chebyshev(c: list, degree: int):
    """(a_k, b_k, s_{k+1,k+1}) for k = 0..degree-1 from the moments
    c_0..c_{2 degree}: see ``gram_sequence``."""
    # rows s_{k,.} as (integer row, denominator), each reduced
    sigma = _scaled(c[:2*degree + 1])
    prev_sigma = ([0]*len(sigma[0]), 1)       # s_{-1,l} = 0
    prev_ratio = _ZERO                # s_{k-1,k}/s_{k-1,k-1}
    for k in range(degree):
        (s, s_den), (t, t_den) = sigma, prev_sigma
        ratio = Fraction(s[k+1], s[k])
        a, prev_ratio = ratio - prev_ratio, ratio
        b = Fraction(s[k]*t_den, s_den*t[k-1]) if k else _ZERO
        # s_{k+1,m} = s_{k,m+1} - a s_{k,m} - b s_{k-1,m}, k < m < 2 degree - k
        top = 2*degree - k
        row, den = _three_term(s[k+2:top+1], (s[k+1:top], s_den),
                               (t[k+1:top], t_den), a, b)
        prev_sigma, sigma = sigma, ([0]*(k + 1) + row + [0]*(k + 1), den)
        yield a, b, Fraction(row[0], den)


def recurrence_coefficients(c: list, degree: int) -> list:
    """[(a_k, b_k) for k = 0..degree-1] of the three-term recurrence
    P_{k+1} = (y - a_k) P_k - b_k P_{k-1} (b_0 = 0) of the monic family
    orthogonal for the moments c_0..c_{2 degree}, by the Chebyshev algorithm
    of ``gram_sequence``."""
    return [(a, b) for a, b, _ in _chebyshev(c, degree)]


def gram_sequence(c: list, degree: int) -> list:
    """[(P_k, inner(P_k, P_k)) for k = 0..degree] from the moments
    c_0..c_{2 degree} alone.

    The Chebyshev algorithm (Gautschi, *Orthogonal Polynomials: Computation
    and Approximation*, 2004, sec. 2.1.7) reads the three-term recurrence
    P_{k+1} = (y - a_k) P_k - b_k P_{k-1} off the mixed moments
    s_{k,l} = inner(P_k, y^l), which obey the same recurrence in k:
    a_k = s_{k,k+1}/s_{k,k} - s_{k-1,k}/s_{k-1,k-1},
    b_k = s_{k,k}/s_{k-1,k-1}, and inner(P_k, P_k) = s_{k,k} = b_0...b_k.
    O(degree^2) exact operations on c_0..c_{2 degree}. Independent of the
    eigenvalue equation; the two constructions agreeing is one of the
    battery's checks.
    """
    # P_k as (integer row, denominator), reduced
    p, prev_p = ([1], 1), ([], 1)             # P_0 = 1, P_{-1} = 0
    seq = [(Poly.one(), c[0])]
    for a, b, norm in _chebyshev(c, degree):
        # P_{k+1} = y P_k - a P_k - b P_{k-1}
        (pk, pk_den) = p
        prev_p, p = p, _three_term([0] + pk, (pk + [0], pk_den),
                                   (prev_p[0] + [0, 0], prev_p[1]), a, b)
        seq.append((Poly._of(p[0][:], p[1]), norm))
    return seq


def _three_term(shifted, row, prev, a, b) -> tuple[list, int]:
    """shifted - a row - b prev, entry by entry, as one reduced (integer
    list, denominator). ``row`` and ``prev`` are (integer list, denominator)
    pairs, and ``shifted`` is an integer list over row's denominator; the
    three lists are aligned."""
    (r, r_den), (q, q_den) = row, prev
    den = math.lcm(r_den*a.denominator, q_den*b.denominator)
    f = den // r_den
    fa = a.numerator*(den // (r_den*a.denominator))
    fb = b.numerator*(den // (q_den*b.denominator))
    out = [f*x - fa*y - fb*z for x, y, z in zip(shifted, r, q)]
    g = math.gcd(den, *out)
    return [x // g for x in out], den // g


def check_degree(n: int, family: OrthogonalFamily) -> None:
    """Refuse a degree at which P_n is not defined: a negative one
    (ValueError), or one whose eigenvalue collides with a lower one
    (DegenerateSpectrumError), where the family member is not uniquely
    defined and we report rather than pick."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    lam = family.eigenvalue(n)
    m = next((m for m in range(n) if family.eigenvalue(m) == lam), None)
    if m is not None:
        raise DegenerateSpectrumError(
            f"degenerate spectrum at {family.label()}: degrees {m} and {n} "
            f"share the eigenvalue {lam}, so P_{n} is not uniquely defined")


def construct_eigen(n: int, family: OrthogonalFamily) -> Poly:
    """Monic degree-n eigenvector of the family's operator, by exact
    linear algebra, at a degree that ``check_degree`` accepts."""
    check_degree(n, family)
    return _back_substitute(matrix_on_basis(family.operator(), n),
                            family.eigenvalue(n), n)


def eigen_sequence(family: OrthogonalFamily, degree: int) -> list:
    """[P_0, ..., P_degree] by back-substitution over one operator matrix,
    with None at degrees whose eigenvalue collides with a lower one. The
    sibling of ``gram_sequence``."""
    matrix = matrix_on_basis(family.operator(), degree)
    lams = [rat(family.eigenvalue(n)) for n in range(degree + 1)]
    seq, seen = [], set()
    for n, lam in enumerate(lams):
        key = lam.numerator, lam.denominator
        seq.append(None if key in seen else _back_substitute(matrix, lam, n))
        seen.add(key)
    return seq


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
    the moment-side recurrence, parity R P_n = (-1)^n P_n (symmetric
    families), orthogonality against all lower members, then the family's
    own checks, on each P_n of ``eigen_sequence``, whose None entries (an
    eigenvalue that collides with a lower one) are skipped and listed. Only
    internal oracle inconsistencies mark the report failed; an eigenvalue
    formula that the operator contradicts raises from the sequence, and
    makes no report.

    Orthogonality and the norm come from one Hankel vector per degree,
    h_m = sum_i p_i c_{m+i} = inner(P_n, y^m), m <= n: a lower member r has
    degree < n, so inner(P_n, r) = sum_j r_j h_j, and inner(P_n, P_n) =
    sum_j p_j h_j, each summed on integer numerators. Without a skipped
    degree the monic P_0..P_{n-1} span every polynomial of degree < n, so
    P_n passes exactly when h_0..h_{n-1} all vanish, and then the check
    does no arithmetic.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    family = family.for_battery()
    c = family.moments(2*max_degree + 1)
    c_nums, c_den = _scaled(c)
    operator = family.operator()
    gram = gram_sequence(c, max_degree)
    records, skipped, oracle_ok = [], [], True
    for n, pn in enumerate(eigen_sequence(family, max_degree)):
        if pn is None:
            skipped.append(n)
            continue
        image = operator.apply(pn)
        lam = image.coeff(n)    # the diagonal entry, matched to lambda_n
        # Hankel vector h_m = inner(P_n, y^m), m <= n, in one pass, as
        # integer numerators over the positive c_den p_den
        p_nums, p_den = pn.nums, pn.den
        h = [sum(map(mul, p_nums, c_nums[m:m+n+1])) for m in range(n + 1)]
        norm_sq = Fraction(sum(map(mul, p_nums, h)), c_den*p_den*p_den)
        results = {"eigen_residual_zero": image == pn.scale(lam),
                   "gram_matches_eigen": gram[n][0] == pn}
        if family.symmetric:
            results["parity_ok"] = _REFLECT.apply(pn) == pn.scale((-1)**n)
        lower = h[:n]
        results["orthogonal"] = not any(lower) or all(
            not sum(map(mul, r.polynomial.nums, lower)) for r in records)
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
