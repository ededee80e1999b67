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

from dataclasses import dataclass
from fractions import Fraction

from .exact import hyp_terms, pochhammer, rat
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
        """c_{2m} = c_{2m-1} = (a/2+1/2)_m / (a/2+b/2+1)_m."""
        m = (len(lower) + 1) // 2
        a, b = self.alpha, self.beta
        return pochhammer(a/2 + Fraction(1, 2), m) / pochhammer(a/2 + b/2 + 1, m)

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
    return 2*(n + params.alpha + params.beta + 1)


def _kappa(n: int, params: Jacobi1Params, variant: str) -> Fraction:
    a, b = params.alpha, params.beta
    if n % 2 == 0:
        k = n // 2
        return (Fraction(-1)**k * pochhammer((a + 1)/2, k)
                / pochhammer(Fraction(n, 2) + a/2 + b/2 + 1, k))
    k = (n + 1) // 2
    if variant == "printed":
        base = Fraction(n + 1, 2) + a/2 + b/2 + 1
    else:
        base = Fraction(n - 1, 2) + a/2 + b/2 + 1
    return Fraction(-1)**k * pochhammer((a + 1)/2, k) / pochhammer(base, k)


def _hyp_poly_in_ysq(num, den) -> Poly:
    """Terminating 2F1(num; den; y^2) expanded as an exact Poly in y."""
    coeffs = []
    for term in hyp_terms(num, den, 1):
        coeffs += [term, 0]
    return Poly(coeffs)


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
    whole bracket for even n, (blk1, y blk2) for odd n."""
    a, b = params.alpha, params.beta
    if ((a + 1)/2).denominator == 1 and (a + 1)/2 <= 0:
        raise ValueError("denominator parameter (a+1)/2 is a nonpositive integer")
    if n % 2 == 0:
        k = n // 2
        bracket = _hyp_poly_in_ysq((Fraction(-k), (n + a + b + 2)/Fraction(2)),
                                   ((a + 1)/2,))
        if n:   # at n = 0 the second block does not terminate, and has weight 0
            blk2 = _hyp_poly_in_ysq((Fraction(1 - k), (n + a + b + 2)/Fraction(2)),
                                    ((a + 3)/2,))
            bracket += (Poly.monomial(1) * blk2).scale(Fraction(n, 1)/(a + 1))
        return (bracket,)
    blk1 = _hyp_poly_in_ysq(((1 - n)/Fraction(2), (n + a + b + 1)/Fraction(2)),
                            ((a + 1)/2,))
    blk2 = _hyp_poly_in_ysq(((1 - n)/Fraction(2), (n + a + b + 3)/Fraction(2)),
                            ((a + 3)/2,))
    return blk1, Poly.monomial(1) * blk2


def _assemble_explicit(n: int, params: Jacobi1Params, variant: str,
                       blocks: tuple) -> Poly:
    """The explicit form of ``variant`` from ``_explicit_blocks``: kappa times
    the bracket, which for odd n is blk1 - pref/(a+1) y blk2."""
    if n % 2 == 0:
        bracket, = blocks
    else:
        a, b = params.alpha, params.beta
        blk1, y_blk2 = blocks
        pref = (a + b + 1) if variant == "printed" else (n + a + b + 1)
        bracket = blk1 - y_blk2.scale(pref/(a + 1))
    return bracket.scale(_kappa(n, params, variant))


def norm_sq_closed(n: int, params: Jacobi1Params) -> Fraction:
    """Closed form for inner(P_n, P_n) (the squared-norm ratio N_0^2/N_n^2)."""
    a, b = params.alpha, params.beta
    if n == 0:
        return Fraction(1)
    if n % 2 == 0:
        k = n // 2
        num = (pochhammer(1, k) * pochhammer(a/2 + Fraction(1, 2), k)
               * pochhammer(b/2 + Fraction(1, 2), k) * pochhammer(a/2 + b/2 + 1, k))
        return num / pochhammer(a/2 + b/2 + 1, 2*k)**2
    k = (n + 1) // 2
    num = (pochhammer(1, k - 1) * pochhammer(a/2 + Fraction(1, 2), k)
           * pochhammer(b/2 + Fraction(1, 2), k) * pochhammer(a/2 + b/2 + 1, k - 1))
    return num / pochhammer(a/2 + b/2 + 1, 2*k - 1)**2


def norm_sq_from_normalization(n: int, params: Jacobi1Params) -> Fraction:
    """N_0^2/N_n^2 read off the displayed normalization-constant formula.

    Algebraic rearrangement of the same content as norm_sq_closed; the two
    agreeing exactly is one of the consistency checks.
    """
    a, b = params.alpha, params.beta
    if n % 2 == 0:
        k = n // 2
        den = (pochhammer(1, k) * pochhammer(a/2 + b/2 + 1, k)
               * pochhammer(a/2 + Fraction(1, 2), k)
               * pochhammer(b/2 + Fraction(1, 2), k))
    else:
        k = (n - 1) // 2
        den = (pochhammer(1, k) * pochhammer(a/2 + b/2 + 1, k)
               * pochhammer(a/2 + Fraction(1, 2), k + 1)
               * pochhammer(b/2 + Fraction(1, 2), k + 1))
    return den / pochhammer(a/2 + b/2 + 1, n)**2


def gauged_supercharge(params: Jacobi1Params) -> ReflOp:
    """2 sqrt(2) Qtilde = L - (a+b+1) in the y = sin x picture, L = ``lop``."""
    return lop(params) + ReflOp([(-(params.alpha + params.beta + 1), ())])


def supercharge_eigenvalue_scaled(n: int, params: Jacobi1Params) -> Fraction:
    """lambda_n - (a+b+1) on P_n: -(2n+a+b+1) for even n, + for odd n."""
    return eigenvalue(n, params) - (params.alpha + params.beta + 1)


def bracket_n(n: int, alpha) -> Fraction:
    """[n]_a = n + (a/2)(1 - (-1)^n)."""
    alpha = rat(alpha)
    return n + (alpha / 2) * (1 - Fraction(-1) ** n)


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
    corrected, printed = [], []
    for n in range(max_n + 1):
        target = targets[n + 1]
        if target is None:
            corrected.append(None)
            printed.append(None)
            continue
        image = y.apply(ps[n])
        corrected.append(image == target.scale(b - 1 + bracket_n(n + 1, a)))
        printed.append(image == target.scale(b - 1 + bracket_n(n, a)))
    return corrected, printed
