"""Little -1 Jacobi polynomials: defining eigenvalue equation, moment
functional, explicit hypergeometric forms, orthogonality and norms.

The ground truth here is deliberately redundant. Two independent oracles
construct the monic family:

* the first-order Dunkl-type eigenvalue equation
      [2(1-y) d/dy R + (a+b+1 - a/y)(1-R)] P_n = lambda_n P_n,
  solved degree by degree in exact arithmetic, and
* Gram elimination against the moment functional with
      c_0 = 1,  c_{2n} = c_{2n-1} = (a/2+1/2)_n / (a/2+b/2+1)_n.

The explicit closed forms that are commonly printed for this family are
treated as claims and compared against the oracles; the odd-degree printed
variant is known to disagree (wrong second-block prefactor and kappa base),
so both a ``printed`` and a ``corrected`` assembly are provided and the
difference is reported, never silently patched.

The closed forms (the moments, kappa, both norms and the 2F1 blocks of the
explicit forms) are products of Pochhammer symbols over five bases,
(a+1)/2, (a+3)/2, (b+1)/2, c = a/2+b/2+1 and 1, and read them from one set
of integer prefix tables (``exact.PochhammerTable``): each value is one
integer product, made a ``Fraction`` or a ``Poly`` once, with the same
reduced rationals as Fraction arithmetic. The tables are never a memo: the
battery's ``verify_family`` call builds them on its own copy of the family
(``for_battery``) and drops them with it, and any other call builds fresh
ones that end with it, so no command reads a value an earlier one made.
The eigen route (``lop`` and the back-substitution) reads no table, so the
battery's eigen-against-Gram and Hankel-against-closed-form checks stay
independent.

``Jacobi1Params`` supplies this family's math to the generic battery of
``opalg``; its extra checks are the closed-form norms and explicit forms.
It is also the parameter object of the extended Scarf I system
(``susyqm.ScarfParams``), whose eigenfunctions at (a, b) are this family at
the same (a, b). Its functional is (1 + y) times that of the generalized
Gegenbauer family C_n at (mu, alpha) = (a/2, (b-1)/2), so by Christoffel's
theorem (Szego, Orthogonal Polynomials, Thm 2.5) (1 + y) P_n = C_{n+1} -
u_n C_n with u_n = C_{n+1}(-1)/C_n(-1), and ``norm_sq_closed(n)`` is
-u_n ||C_n||^2 (tested exactly through degree 20).

In the gauge y = sin x the Scarf supercharge is L less a constant,
2 sqrt(2) Qtilde = L - (a+b+1) (``gauged_supercharge``), with eigenvalues
-+(2n+a+b+1) for even/odd n, and the Scarf intertwiners are contiguity maps
in b: T_{a/2} P_n^{(a,b)} = [n]_a P_{n-1}^{(a,b+2)} (``verify_lowering``),
and the corrected Y maps P_n^{(a,b)} to (b-1+[n+1]_a) P_{n+1}^{(a,b-2)}
(``verify_raising``), with [n]_a = n + (a/2)(1 - (-1)^n).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .exact import PochhammerTable, rat
from .opalg import (
    Diff,
    MulPoly,
    OddOverY,
    OrthogonalFamily,
    Poly,
    Reflect,
    ReflOp,
    check_degree,
    dunkl,
    eigen_sequence,
    unchecked,
)

__all__ = [
    "Jacobi1Params",
    "lop",
    "eigenvalue",
    "construct_explicit",
    "norm_sq_closed",
    "norm_sq_from_normalization",
    "gauged_supercharge",
    "supercharge_eigenvalue_scaled",
    "bracket_n",
    "gauged_y_corrected",
    "verify_lowering",
    "verify_raising",
    "FUZZ_PARAMS",
]

# parameter pairs used by the randomized "for all alpha, beta" suites
FUZZ_PARAMS = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(1, 2), Fraction(3, 2)),
    (Fraction(1, 3), Fraction(2)),
    (Fraction(2), Fraction(1, 5)),
)


@dataclass(frozen=True)
class Jacobi1Params(OrthogonalFamily):
    alpha: Fraction
    beta: Fraction

    family_name = "little-m1-jacobi"

    def __post_init__(self):
        object.__setattr__(self, "alpha", rat(self.alpha))
        object.__setattr__(self, "beta", rat(self.beta))
        if self.alpha <= -1 or self.beta <= -1:
            raise ValueError("little -1 Jacobi and extended Scarf I parameters "
                             "require alpha, beta > -1")

    def operator(self) -> ReflOp:
        return lop(self)

    def eigenvalue(self, n: int) -> Fraction:
        return eigenvalue(n, self)

    def next_moment(self, lower: list) -> Fraction:
        """c_{2m} = c_{2m-1} = ((a+1)/2)_m / (a/2+b/2+1)_m."""
        m = (len(lower) + 1) // 2
        t = _tables(self)
        a1, c = t.a1, t.c
        return Fraction(a1.num(m) * c.q**m, a1.q**m * c.num(m))

    def for_battery(self) -> "Jacobi1Params":
        """A copy carrying one set of Pochhammer tables, which the battery's
        moments, closed-form norms and explicit forms share for this call."""
        twin = copy.copy(self)
        object.__setattr__(twin, "_pochhammers", _Pochhammers(self))
        return twin

    def family_checks(self, n: int, pn: Poly,
                      norm_sq: Fraction) -> tuple[dict, bool]:
        """Closed-form norm (an oracle check), and the printed and corrected
        explicit assemblies compared to the oracle (findings)."""
        closed = norm_sq_closed(n, self)
        norm_ok = norm_sq == closed
        explicit_matches = {}
        discrepancies = []
        blocks = _explicit_blocks(n, self)
        for variant in ("printed", "corrected"):
            ex = _assemble_explicit(n, self, variant, blocks)
            explicit_matches[variant] = ex == pn
            if not explicit_matches[variant]:
                discrepancies.append(
                    f"explicit[{variant}] = {ex.pretty()} differs from oracle "
                    f"{pn.pretty()}")
        consistent = norm_sq_from_normalization(n, self) == closed
        if not consistent:
            discrepancies.append("normalization-constant rearrangement mismatch")
        fields = {"norm_matches_closed": norm_ok,
                  "explicit_matches": explicit_matches,
                  "discrepancies": discrepancies}
        return fields, norm_ok and consistent


def lop(params: Jacobi1Params) -> ReflOp:
    """The defining first-order Dunkl-type operator.

    2(1-y) d/dy R + (a+b+1)(1-R) - a y^-1 (1-R), with the singular part
    realized through the polynomial-closed OddOverY primitive.
    """
    a, b = params.alpha, params.beta
    s = a + b + 1
    return ReflOp([
        (1, (MulPoly(Poly((2, -2))), Diff, Reflect)),
        (s, ()),
        (-s, (Reflect,)),
        (-a, (OddOverY,)),
    ])


def eigenvalue(n: int, params: Jacobi1Params) -> Fraction:
    """-2n for even degree, 2(n+a+b+1) for odd degree."""
    if n % 2 == 0:
        return Fraction(-2*n)
    a, b = params.alpha, params.beta
    q = a.denominator*b.denominator
    return Fraction(2*((n + 1)*q + a.numerator*b.denominator
                       + b.numerator*a.denominator), q)


class _Pochhammers:
    """One family's integer Pochhammer prefix tables, over the bases
    (a+1)/2, (a+3)/2, (b+1)/2, c = a/2+b/2+1 and 1: every closed form of
    this module is a product of their entries."""

    __slots__ = ("a1", "a3", "b1", "c", "one")

    def __init__(self, params: Jacobi1Params):
        a, b = params.alpha, params.beta
        self.a1 = PochhammerTable((a + 1)/2)
        self.a3 = PochhammerTable((a + 3)/2)
        self.b1 = PochhammerTable((b + 1)/2)
        self.c = PochhammerTable(a/2 + b/2 + 1)
        self.one = PochhammerTable(1)


def _tables(params: Jacobi1Params) -> _Pochhammers:
    """The tables of the battery's copy (``for_battery``), or fresh ones
    that end with the calling function."""
    return getattr(params, "_pochhammers", None) or _Pochhammers(params)


def _kappa(n: int, params: Jacobi1Params, variant: str) -> Fraction:
    """(-1)^k ((a+1)/2)_k / (base)_k, k = ceil(n/2), with base n/2 + c for
    even n, and (n+1)/2 + c (printed) or (n-1)/2 + c (corrected) for odd n:
    base = lo + c, so (base)_k = (c)_(lo+k) / (c)_lo."""
    t = _tables(params)
    a1, c = t.a1, t.c
    k = (n + 1) // 2
    lo = k - 1 if n % 2 and variant != "printed" else k
    num = a1.num(k) * c.num(lo) * c.q**k
    return Fraction(-num if k % 2 else num, a1.q**k * c.num(lo + k))


def _hyp_block(t: _Pochhammers, m: int, s: int, d: PochhammerTable,
               shift: int) -> tuple[list, int]:
    """y^shift 2F1(-m, s + c; d; y^2) as (integer numerators, denominator):
    its y^(shift+2j) coefficient is (-1)^j C(m, j) (c)_(s+j) / ((c)_s
    (d)_j), all over the table numerators' one denominator
    c.num(s) c.q^m d.num(m)."""
    c, dm = t.c, d.num(m)
    nums = [0]*(shift + 2*m + 1)
    for j in range(m + 1):
        x = (math.comb(m, j) * c.num(s + j) * d.q**j * c.q**(m - j)
             * (dm // d.num(j)))
        nums[shift + 2*j] = -x if j % 2 else x
    return nums, c.num(s) * c.q**m * dm


def _add_scaled(first: tuple, ratio: tuple,
                second: tuple) -> tuple[list, int]:
    """first + (p/q) second, for (integer numerators, denominator) pairs
    ``first`` and ``second`` and the integer pair ``ratio`` = (p, q)."""
    (x, xd), (p, q), (z, zd) = first, ratio, second
    fx, fz = zd*q, p*xd
    return ([fx*u + fz*v for u, v in zip_longest(x, z, fillvalue=0)],
            xd*zd*q)


def construct_explicit(n: int, params: Jacobi1Params,
                       variant: str = "corrected") -> Poly:
    """Assemble the explicit two-block hypergeometric closed form.

    ``printed`` uses the commonly typeset odd-degree coefficients
    ((a+b+1)/(a+1) second-block prefactor, kappa base (n+1)/2+a/2+b/2+1);
    ``corrected`` uses the variants forced by the oracles
    ((n+a+b+1)/(a+1) and base (n-1)/2+a/2+b/2+1). Even degrees agree.
    """
    if variant not in ("printed", "corrected"):
        raise ValueError(f"unknown variant {variant!r}")
    return _assemble_explicit(n, params, variant, _explicit_blocks(n, params))


def _explicit_blocks(n: int, params: Jacobi1Params) -> tuple:
    """The 2F1 blocks of the explicit form, which no variant changes: the
    whole bracket for even n, (blk1, y blk2) for odd n, each as (integer
    numerators, denominator)."""
    a = params.alpha
    if ((a + 1)/2).denominator == 1 and (a + 1)/2 <= 0:
        raise ValueError("denominator parameter (a+1)/2 is a nonpositive integer")
    t = _tables(params)
    if n % 2 == 0:
        k = n // 2
        bracket = _hyp_block(t, k, k, t.a1, 0)
        if n:   # at n = 0 the second block does not terminate, and has weight 0
            # plus n/(a+1) y 2F1(1-k, k+c; (a+3)/2; y^2)
            ratio = (n*a.denominator, a.numerator + a.denominator)
            bracket = _add_scaled(bracket, ratio,
                                  _hyp_block(t, k - 1, k, t.a3, 1))
        return (bracket,)
    m = (n - 1) // 2
    return _hyp_block(t, m, m, t.a1, 0), _hyp_block(t, m, m + 1, t.a3, 1)


def _assemble_explicit(n: int, params: Jacobi1Params, variant: str,
                       blocks: tuple) -> Poly:
    """The explicit form of ``variant`` from ``_explicit_blocks``: kappa times
    the bracket, which for odd n is blk1 - pref/(a+1) y blk2."""
    if n % 2 == 0:
        (nums, den), = blocks
    else:
        # pref/(a+1) = (s + a + b)/(a + 1), s = 1 (printed) or n + 1
        (pa, qa), (pb, qb) = ((x.numerator, x.denominator)
                              for x in (params.alpha, params.beta))
        s = 1 if variant == "printed" else n + 1
        ratio = (-(s*qa*qb + pa*qb + pb*qa), (pa + qa)*qb)
        nums, den = _add_scaled(blocks[0], ratio, blocks[1])
    kappa = _kappa(n, params, variant)
    return Poly._of([kappa.numerator*x for x in nums], kappa.denominator*den)


def norm_sq_closed(n: int, params: Jacobi1Params) -> Fraction:
    """Closed form for inner(P_n, P_n) (the squared-norm ratio N_0^2/N_n^2):
    (1)_k ((a+1)/2)_k ((b+1)/2)_k (c)_k / (c)_2k^2 for n = 2k, and
    (1)_(k-1) ((a+1)/2)_k ((b+1)/2)_k (c)_(k-1) / (c)_(2k-1)^2 for
    n = 2k - 1, c = a/2+b/2+1."""
    t = _tables(params)
    a1, b1, c = t.a1, t.b1, t.c
    k = (n + 1) // 2
    j = k if n % 2 == 0 else k - 1
    num = t.one.num(j) * a1.num(k) * b1.num(k) * c.num(j) * c.q**(2*n - j)
    return Fraction(num, (a1.q*b1.q)**k * c.num(n)**2)


def norm_sq_from_normalization(n: int, params: Jacobi1Params) -> Fraction:
    """N_0^2/N_n^2 read off the displayed normalization-constant formula,
    (1)_k (c)_k ((a+1)/2)_(n-k) ((b+1)/2)_(n-k) / (c)_n^2, k = floor(n/2).

    Algebraic rearrangement of the same content as norm_sq_closed; the two
    agreeing exactly is one of the consistency checks.
    """
    t = _tables(params)
    a1, b1, c = t.a1, t.b1, t.c
    k = n // 2
    num = (t.one.num(k) * c.num(k) * a1.num(n - k) * b1.num(n - k)
           * c.q**(2*n - k))
    return Fraction(num, (a1.q*b1.q)**(n - k) * c.num(n)**2)


def gauged_supercharge(params: Jacobi1Params) -> ReflOp:
    """2 sqrt(2) Qtilde = L - (a+b+1) in the y = sin x picture, L = ``lop``."""
    return lop(params) + ReflOp([(-(params.alpha + params.beta + 1), ())])


def supercharge_eigenvalue_scaled(n: int, params: Jacobi1Params) -> Fraction:
    """lambda_n - (a+b+1) on P_n: -(2n+a+b+1) for even n, + for odd n."""
    return eigenvalue(n, params) - (params.alpha + params.beta + 1)


def bracket_n(n: int, alpha) -> Fraction:
    """[n]_a = n + (a/2)(1 - (-1)^n): n + a for odd n, n for even n."""
    return n + rat(alpha) if n % 2 else Fraction(n)


def gauged_y_corrected(params: Jacobi1Params) -> ReflOp:
    """The corrected Y in the gauged picture, P_n^{(a,b)} -> P_{n+1}^{(a,b-2)}:
    -(1-y^2) d/dy - (a/2) y^-1(1-R) + ((a/2+b) y - 1) + ((a/2) y - a) R."""
    a, b = params.alpha, params.beta
    return ReflOp([
        (-1, (MulPoly(Poly((1, 0, -1))), Diff)),
        (-a / 2, (OddOverY,)),
        (1, (MulPoly(Poly((-1, a / 2 + b))),)),
        (1, (MulPoly(Poly((-a, a / 2))), Reflect)),
    ])


def _nondegenerate_sequence(family: Jacobi1Params, degree: int,
                            seq: list | None = None) -> list:
    """P_0..P_degree of a family whose every member must exist, read from
    ``seq`` (its ``eigen_sequence`` to at least ``degree``) when given."""
    seq = (seq or eigen_sequence(family, degree))[:degree + 1]
    if None in seq:
        check_degree(seq.index(None), family)
    return seq


def verify_lowering(params: Jacobi1Params, max_n: int, ps=None) -> list:
    """Exact check of T_{a/2} P_n^{(a,b)} = [n]_a P_{n-1}^{(a,b+2)}, on
    ``ps`` (``eigen_sequence(params, m)``, m >= max_n) when given.

    Returns per-n booleans; all True for every valid parameter pair.
    """
    check_degree(max_n, params)
    a, b = params.alpha, params.beta
    ps = _nondegenerate_sequence(params, max_n, ps)
    targets = _nondegenerate_sequence(unchecked(Jacobi1Params, a, b + 2),
                                      max_n - 1)
    t = dunkl(a / 2)
    out = []
    for n in range(max_n + 1):
        target = targets[n - 1].scale(bracket_n(n, a)) if n else Poly.zero()
        out.append(t.apply(ps[n]) == target)
    return out


def verify_raising(params: Jacobi1Params, max_n: int,
                   ps=None) -> tuple[list, list]:
    """Exact check of the gauged corrected Y against its mapping rule, on
    ``ps`` as in ``verify_lowering``.

    Returns per-n verdicts for the corrected scalar (b - 1 + [n+1]_a) and
    for the printed one (b - 1 + [n]_a), which fails already at n = 0
    (actual scalar a + b), from one pass over the same images. Degenerate
    target families (possible since the map lands at b - 2) are reported as
    skips (None) in both lists.
    """
    check_degree(max_n, params)
    a, b = params.alpha, params.beta
    ps = _nondegenerate_sequence(params, max_n, ps)
    targets = eigen_sequence(unchecked(Jacobi1Params, a, b - 2), max_n + 1)
    y = gauged_y_corrected(params)
    shift = b - 1
    corrected, printed = [], []
    for n in range(max_n + 1):
        target = targets[n + 1]
        if target is None:
            corrected.append(None)
            printed.append(None)
            continue
        # the target is monic: image = s target only for s the image's
        # y^(n+1) coefficient
        image = y.apply(ps[n])
        s = image.coeff(n + 1)
        mapped = image == target.scale(s)
        corrected.append(mapped and s == shift + bracket_n(n + 1, a))
        printed.append(mapped and s == shift + bracket_n(n, a))
    return corrected, printed
