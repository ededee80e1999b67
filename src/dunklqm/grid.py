"""Finite-difference backend: discretization of Hamiltonians with a
reflection term, symmetric eigensolvers, quadrature and convergence studies.

Grids are uniform with a half-cell offset so that no node falls on x = 0 or
on the endpoints; reflection is then the exact index reversal i -> N-1-i.
Dirichlet walls are imposed through ghost values u(ghost) = -u(edge), which
places the hard wall exactly at the domain boundary. In the mirror-pair
ordering 0, N-1, 1, N-2, ... the reflection couples adjacent unknowns, so
every grid operator is held once, in O(N) memory, as LAPACK banded storage in
that ordering; a dense view is built only on request.

Operators whose scalar potential carries an attractive ~ -c/x^2 core (the
reflection families at alpha > 0) cannot be diagonalized from the directly
sampled potential: the discrete operator develops spurious states at -C/h^2
("fall to the center") that also pollute the physical levels. Spectra for
those systems are computed from the square of the discrete symmetric
supercharge (positive semidefinite by construction); see
:func:`susy_squared_spectrum` and :func:`composite_spectrum`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.linalg import eig_banded, eigh, eigh_tridiagonal, solve_banded

__all__ = [
    "Grid",
    "GridOperator",
    "SingularPotentialError",
    "ConvergenceFailureError",
    "MethodLimitError",
    "assemble",
    "supercharge_matrix",
    "eigen_lowest",
    "susy_squared_spectrum",
    "composite_spectrum",
    "checkerboard_fraction",
    "quadrature",
    "extrapolate_sequence",
    "SpectrumReport",
    "Problem",
    "convergence_study",
]


class SingularPotentialError(ValueError):
    """A potential evaluated non-finite on a grid node."""


class ConvergenceFailureError(RuntimeError):
    """The underlying eigensolver reported non-convergence."""


class MethodLimitError(ValueError):
    """The grid method cannot deliver the requested levels at this size."""


def _check_halfwidth(c: float) -> None:
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"halfwidth must be positive and finite, got {c!r}")


@dataclass(frozen=True)
class Grid:
    """Symmetric midpoint grid: x_i = -b + (i + 1/2) h, h = 2b/N."""

    n: int
    halfwidth: float

    def __post_init__(self):
        if self.n <= 0 or self.n % 2:
            raise ValueError("grid size must be even and positive")
        _check_halfwidth(self.halfwidth)

    @property
    def h(self) -> float:
        return 2.0 * self.halfwidth / self.n

    @property
    def nodes(self) -> np.ndarray:
        return -self.halfwidth + (np.arange(self.n) + 0.5) * self.h


def _pair_permutation(n: int) -> np.ndarray:
    """Ordering 0, N-1, 1, N-2, ...: mirror pairs become adjacent."""
    i = np.arange(n)
    p = np.minimum(i, n - 1 - i)
    pos = 2 * p + (i >= n // 2)
    perm = np.empty(n, dtype=int)
    perm[pos] = i
    return perm


def _pair_band(entry: Callable, n: int, bandwidth: int) -> np.ndarray:
    """Upper-banded storage, in pair ordering, of the matrix whose element at
    nodes (i, j) is ``entry(i, j)`` (index arrays in, values out).

    Every element outside pair bandwidth ``bandwidth`` must be zero. Leading
    superdiagonals that are entirely zero are dropped, so the storage has the
    operator's true bandwidth.
    """
    perm = _pair_permutation(n)
    bw = min(bandwidth, n - 1)
    band = np.zeros((bw + 1, n))
    for d in range(bw + 1):
        band[bw - d, d:] = entry(perm[:n - d], perm[d:])
    top = 0
    while top < bw and not band[top].any():
        top += 1
    return band[top:]


@dataclass(frozen=True)
class GridOperator:
    """Real symmetric grid operator, held once as LAPACK upper-banded storage
    in the mirror-pair ordering 0, N-1, 1, N-2, ...

    With reflection as index reversal, a mirror pair is two adjacent
    unknowns, so stencil operators with reflection terms are narrow-banded:
    ``band[bw - d, j]`` is the (j - d, j) element in pair ordering.
    """

    band: np.ndarray
    grid: Grid

    @classmethod
    def from_dense(cls, m: np.ndarray, grid: Grid, bandwidth: int) -> "GridOperator":
        """Symmetric part (M + M^T)/2 of a dense node-ordered matrix whose
        pair-ordered bandwidth is at most ``bandwidth``."""
        return cls(_pair_band(lambda i, j: 0.5 * (m[i, j] + m[j, i]),
                              grid.n, bandwidth), grid)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def matrix(self) -> np.ndarray:
        """Dense N x N view in node ordering, built on each access."""
        n, bw = self.n, self.band.shape[0] - 1
        perm = _pair_permutation(n)
        m = np.zeros((n, n))
        for d in range(bw + 1):
            rows, cols = perm[:n - d], perm[d:]
            m[rows, cols] = self.band[bw - d, d:]
            m[cols, rows] = self.band[bw - d, d:]
        return m


def _checked(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise SingularPotentialError(f"{what} evaluated non-finite on the grid")
    return values


def assemble(scalar: Callable, refl_coeff: Callable, grid: Grid) -> GridOperator:
    """-1/2 d^2/dx^2 + scalar(x) + refl_coeff(x) R with Dirichlet walls."""
    x, h, n = grid.nodes, grid.h, grid.n
    s = _checked(np.asarray(scalar(x), dtype=float) + np.zeros(n), "scalar potential")
    r = _checked(np.asarray(refl_coeff(x), dtype=float) + np.zeros(n),
                 "reflection coefficient")
    diag = 1.0 / h**2 + s
    diag[0] += 0.5 / h**2
    diag[-1] += 0.5 / h**2

    def entry(i, j):
        stencil = np.where(i == j, diag[i], np.where(np.abs(i - j) == 1,
                                                     -0.5 / h**2, 0.0))
        return np.where(i + j == n - 1, stencil + r[i], stencil)

    band = _pair_band(entry, n, 2)
    # only the antidiagonal R term can break symmetry
    idx = np.arange(n)
    anti = entry(idx, idx[::-1])
    scale = max(1.0, float(np.abs(band).max()), float(np.abs(anti).max()))
    if np.abs(anti - anti[::-1]).max() > 1e-12 * scale:
        raise ValueError("assembled operator is not symmetric; "
                         "reflection coefficient must be even")
    return GridOperator(band, grid)


def supercharge_matrix(u_fn: Callable, v_fn: Callable, grid: Grid) -> GridOperator:
    """Symmetric discretization of Q = [(d/dx + U) R + V] / sqrt(2).

    The derivative is central, with Dirichlet ghost cells u(ghost) = -u(edge)
    at the walls. The raw corner entries from the ghost cells break symmetry
    at the walls by O(1/h) on two matrix elements; the operator is
    symmetrized, which perturbs only the wall cells where bound states
    vanish. Each element is computed with the floating-point operations of
    the dense product ((D + diag U) R + diag V) / sqrt(2), symmetrized.
    """
    x, n = grid.nodes, grid.n
    u = _checked(np.asarray(u_fn(x), dtype=float) + np.zeros(n), "U")
    v = _checked(np.asarray(v_fn(x), dtype=float) + np.zeros(n), "V")
    c = 1.0 / (2 * grid.h)

    def d_plus_u(i, k):
        d = np.where(k == i + 1, c, np.where(k == i - 1, -c, 0.0))
        d = np.where((i == k) & (i == 0), c,
                     np.where((i == k) & (i == n - 1), -c, d))
        return d + np.where(i == k, u[i], 0.0)

    def raw(i, j):
        return ((d_plus_u(i, n - 1 - j) + np.where(i == j, v[i], 0.0))
                / math.sqrt(2.0))

    return GridOperator(_pair_band(lambda i, j: 0.5 * (raw(i, j) + raw(j, i)),
                                   n, 3), grid)


# ---------------------------------------------------------------------------
# eigen solvers (pair-ordered banded storage)
# ---------------------------------------------------------------------------

def _node_tridiagonal(op: GridOperator):
    """(diagonal, superdiagonal) in node ordering if the operator is
    tridiagonal there (no reflection term off the center pair), else None."""
    n, bw = op.n, op.band.shape[0] - 1
    perm = _pair_permutation(n)
    diag = np.empty(n)
    diag[perm] = op.band[bw]
    sup = np.zeros(n - 1)
    for d in range(1, bw + 1):
        i, j, vals = perm[:n - d], perm[d:], op.band[bw - d, d:]
        gap = np.abs(i - j)
        if np.any(vals[gap > 1]):
            return None
        sup[np.minimum(i, j)[gap == 1]] = vals[gap == 1]
    return diag, sup


def eigen_lowest(op: GridOperator | np.ndarray, k: int) -> np.ndarray:
    """k smallest eigenvalues of a symmetric operator, deterministic.

    A grid operator that is tridiagonal in node ordering takes the
    tridiagonal LAPACK path, any other the banded one on its pair-ordered
    storage. A plain array is solved dense.
    """
    n = op.n if isinstance(op, GridOperator) else len(op)
    if k > n:
        raise MethodLimitError(f"method limit: {k} levels requested from an "
                               f"operator of dimension {n}")
    try:
        if not isinstance(op, GridOperator):
            return eigh(np.asarray(op, dtype=float), eigvals_only=True,
                        subset_by_index=(0, k - 1))
        tri = _node_tridiagonal(op)
        if tri is None:
            return eig_banded(op.band, lower=False, eigvals_only=True,
                              select="i", select_range=(0, k - 1))
        return eigh_tridiagonal(*tri, select="i",
                                select_range=(0, k - 1), eigvals_only=True)
    except Exception as exc:
        if "converge" in str(exc).lower() or isinstance(exc, np.linalg.LinAlgError):
            raise ConvergenceFailureError(
                f"symmetric eigensolver failed on {n}x{n} matrix: {exc}") from exc
        raise


def susy_squared_spectrum(u_fn: Callable, v_fn: Callable, grid: Grid,
                          k: int) -> np.ndarray:
    """Lowest k energies of H = Q^2 via the discrete supercharge.

    The symmetric centered Q anticommutes exactly with R (-1)^i, so its
    spectrum comes in exact +-q pairs; squares are deduplicated pairwise,
    which leaves N/2 levels.
    """
    if 2 * k > grid.n:
        raise MethodLimitError(
            f"method limit: the squared supercharge on N={grid.n} points "
            f"has {grid.n // 2} distinct levels, {k} requested")
    q = supercharge_matrix(u_fn, v_fn, grid)
    w = eig_banded(q.band, lower=False, eigvals_only=True)
    e = np.sort(w * w)
    return e[0:2*k:2]


def checkerboard_fraction(v: np.ndarray) -> float:
    """Fraction of a vector living at the grid Nyquist frequency.

    ~1 for alternating-sign artifacts, O(h^2) for smooth eigenvectors.
    """
    av = np.empty_like(v)
    av[1:-1] = 0.5 * (v[2:] + v[:-2])
    av[0] = 0.5 * v[1]
    av[-1] = 0.5 * v[-2]
    return float(np.linalg.norm(v - av) / (2.0 * np.linalg.norm(v)))


def _inverse_iteration(band: np.ndarray,
                       w: np.ndarray) -> Iterator[np.ndarray]:
    """Eigenvectors (pair ordering) of an upper-banded symmetric matrix for
    its ascending eigenvalues ``w``, accurate as LAPACK returns them, one at
    a time and in order.

    Each vector takes three banded solves with (A - w_j I) from one fixed
    start vector. As in LAPACK's dstein, eigenvalues closer than
    1e-3 ||A||_1 form a cluster, and every iterate is orthogonalized against
    the cluster's earlier vectors, so (near-)degenerate levels get
    independent vectors. A vector depends only on the ones before it, so a
    caller that stops early has the same vectors as a full run.
    """
    bw, n = band.shape[0] - 1, band.shape[1]
    full = np.zeros((2 * bw + 1, n))
    full[:bw + 1] = band
    for d in range(1, bw + 1):
        full[bw + d, :n - d] = band[bw - d, d:]
    ortol = 1e-3 * np.abs(full).sum(axis=0).max()
    start = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    vecs = np.empty((n, len(w)))
    first = 0
    for j, lam in enumerate(w):
        if j and w[j] - w[j - 1] > ortol:
            first = j
        shifted = full.copy()
        shifted[bw] -= lam
        x = start
        for _ in range(3):
            x = solve_banded((bw, bw), shifted, x)
            cluster = vecs[:, first:j]
            x -= cluster @ (cluster.T @ x)
            x /= np.linalg.norm(x)
        vecs[:, j] = x
        yield x


def composite_spectrum(op: GridOperator, k: int) -> np.ndarray:
    """Lowest k smooth eigenvalues, discarding checkerboard artifacts.

    Scans up to the lowest 4k+8 eigenvalues, in ascending order, and keeps
    those whose eigenvectors are grid-smooth, stopping at the k-th. LAPACK
    computes eigenvalues only; the vectors come from banded inverse
    iteration, one per scanned level, since LAPACK's banded eigenvector path
    forms a dense N x N transformation at O(N^3) cost.
    """
    n_scan = 4 * k + 8
    n = op.n
    w = eig_banded(op.band, lower=False, eigvals_only=True,
                   select="i", select_range=(0, min(n_scan, n) - 1))
    perm = _pair_permutation(n)
    vec = np.empty(n)
    out = []
    for lam, vec_p in zip(w, _inverse_iteration(op.band, w)):
        vec[perm] = vec_p  # back to node ordering
        if checkerboard_fraction(vec) < 0.5:
            out.append(float(lam))
            if len(out) == k:
                break
    if len(out) < k:
        raise MethodLimitError(
            f"method limit: only {len(out)} of the lowest {len(w)} "
            f"eigenvalues on N={n} have grid-smooth eigenvectors, "
            f"{k} requested")
    return np.asarray(out[:k])


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# tanh-sinh truncation: at |t| = 3.2 the weight dx/dt is below 1e-15 c, and
# the node at the outer end lies within rounding of c
_TS_BOUND = 3.2
_TS_LEVELS = 8  # the finest step is 3.2/1024: at most 4098 integrand points
_TS_TOL = 1e-14


def _tanh_sinh_half(t: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in (0, c) and weights dx/dt of x = c / (1 + exp(-pi sinh t)).

    A node that rounds onto c moves to the largest float below it, so the
    endpoint is never sampled.
    """
    s = math.pi * np.sinh(t)
    e = np.exp(-np.abs(s))
    x = c * np.where(s >= 0, 1.0, e) / (1.0 + e)
    w = c * math.pi * np.cosh(t) * e / (1.0 + e) ** 2
    return np.minimum(x, np.nextafter(c, 0.0)), w


def quadrature(f: Callable, halfwidth: float) -> float:
    """Integral of f over [-c, c], c = ``halfwidth``:
    tanh-sinh, split at the reflection point, stops when two levels agree;
    typed error otherwise.

    [0, c] is mapped by x = c / (1 + exp(-pi sinh t)) and [-c, 0] by its
    mirror image. An integrable |x|^a cusp at the origin (the fixed point of
    the reflection, where every interior cusp of these systems sits) or an
    integrable power at an end then becomes a double-exponentially decaying
    integrand in t, which the trapezoidal rule on |t| <= 3.2 resolves
    without knowing the exponent.
    Neither 0 nor +-c is sampled; c must be positive and finite (ValueError).
    Each level halves the step in t and calls ``f`` once, vectorized, on the
    new nodes of both halves.

    Raises MethodLimitError if two successive levels do not agree to
    1e-14 max(1, |I|) within the level cap, if a weighted value is not
    finite, or if the part of the integral beyond |t| = 3.2 is not
    negligible by the same measure (an endpoint too singular to integrate in
    double precision).
    """
    _check_halfwidth(halfwidth)
    c = halfwidth
    value, points = 0.0, 0
    for level in range(_TS_LEVELS):
        m = 8 << level  # nodes t = j * 3.2 / m, |j| <= m
        h = _TS_BOUND / m
        j = np.arange(-m, m + 1) if level == 0 else np.arange(1 - m, m, 2)
        x, w = _tanh_sinh_half(j * h, c)
        xs = np.concatenate([-x, x])
        points += xs.size
        terms = np.concatenate([w, w]) * np.asarray(f(xs), dtype=float)
        if not np.all(np.isfinite(terms)):
            raise MethodLimitError(
                "method limit: quadrature integrand is not finite at a node "
                f"inside (-{c:g}, {c:g})")
        if level == 0:
            # the part of each half beyond |t| = 3.2: the integrand in t
            # there over its decay rate, i.e. f times the unsampled width
            tail = float(np.abs(terms[[0, 2 * m, 2 * m + 1, -1]]).max()
                         / (math.pi * math.cosh(_TS_BOUND)))
            value = h * float(np.sum(terms))
            continue
        prev, value = value, 0.5 * value + h * float(np.sum(terms))
        scale = _TS_TOL * max(1.0, abs(value))
        if abs(value - prev) <= scale:
            if tail > scale:
                raise MethodLimitError(
                    f"method limit: the quadrature tail beyond the truncation "
                    f"bound |t| = {_TS_BOUND} is {tail:.3e}; an endpoint is "
                    "too singular to integrate in double precision")
            return value
    raise MethodLimitError(
        f"method limit: quadrature levels still differ by "
        f"{abs(value - prev):.3e} after {points} points (value {value:.17g})")


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def _richardson_step(values: Sequence[float], p: float) -> list:
    """Eliminate the error power h^p from a doubling ladder: one value fewer."""
    f = 2.0 ** float(p)
    return [(f * values[i + 1] - values[i]) / (f - 1.0)
            for i in range(len(values) - 1)]


def estimate_order(values: Sequence[float]) -> float:
    """Convergence order from the last three values of a doubling ladder."""
    v = [float(x) for x in values]
    if len(v) < 3:
        return float("nan")
    d1, d2 = v[-3] - v[-2], v[-2] - v[-1]
    if d2 == 0.0 or abs(d2) < 1e-14 * max(1.0, abs(v[-1])) or d1 / d2 <= 0:
        return float("nan")
    return math.log2(d1 / d2)


def extrapolate_sequence(values: Sequence[float],
                         exponents: Sequence[float]) -> tuple[float, float]:
    """(limit, estimated order) from eigenvalues on a doubling N ladder.

    Richardson eliminates the error powers ``exponents`` in order; the
    schedule is known from the eigenfunction's behavior at the coordinate
    singularities. The order is estimated from the data for the report only.
    """
    cur = [float(x) for x in values]
    for p in exponents:
        if len(cur) < 2:
            break
        cur = _richardson_step(cur, p)
    return cur[-1], estimate_order(values)


@dataclass(frozen=True)
class Problem:
    """A spectrum computation: grid size -> its lowest levels, one per target.

    ``tolerance``: the largest accepted error of an extrapolated level.
    ``exponents``: known error-power schedule for Richardson elimination.
    """

    name: str
    params: dict
    targets: tuple
    compute: Callable  # N -> np.ndarray of the len(targets) lowest levels
    tolerance: float
    exponents: tuple


@dataclass
class SpectrumReport:
    system: str
    params: dict
    grids: list
    levels: list = field(default_factory=list)
    # each level: {level, values, extrapolated, target, abs_error, order,
    #              converged}

    def as_json_dict(self) -> dict:
        return {
            "system": self.system,
            "params": self.params,
            "grids": list(self.grids),
            "levels": [dict(lv) for lv in self.levels],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_json_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        header = ["level"] + [f"N{n}" for n in self.grids] + [
            "extrapolated", "target", "abs_error", "order"]
        w.writerow(header)
        for lv in self.levels:
            w.writerow([lv["level"]]
                       + [f"{v:.17g}" for v in lv["values"]]
                       + [f"{lv['extrapolated']:.17g}", f"{lv['target']:.17g}",
                          f"{lv['abs_error']:.3e}",
                          "" if math.isnan(lv["order"]) else f"{lv['order']:.3f}"])
        return buf.getvalue()

    def all_within_tolerance(self, tol: float) -> bool:
        return all(lv["abs_error"] <= tol for lv in self.levels)

    def max_error(self) -> float:
        return max(lv["abs_error"] for lv in self.levels)


def convergence_study(problem: Problem, n_list: Sequence[int]) -> SpectrumReport:
    """Eigenvalue ladder over doubling grids N, 2N, 4N, ..., one level per
    closed-form target, extrapolated and compared against the targets. Order
    estimates outside [1, 3] flag a level as non-convergent (extrapolation
    still reported); a level whose order cannot be estimated (e.g. a
    non-monotone ladder) has ``converged`` None, unknown."""
    n_list = list(n_list)
    if len(n_list) < 3:
        raise ValueError("need at least three grid sizes")
    if any(b != 2 * a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("grid list must double (N, 2N, 4N, ...): the "
                         "extrapolation assumes a ratio of 2")
    values = np.asarray([problem.compute(n) for n in n_list])
    report = SpectrumReport(system=problem.name, params=dict(problem.params),
                            grids=n_list)
    for lv in range(len(problem.targets)):
        seq = values[:, lv]
        limit, order = extrapolate_sequence(seq, problem.exponents)
        target = float(problem.targets[lv])
        report.levels.append({
            "level": lv,
            "values": [float(s) for s in seq],
            "extrapolated": limit,
            "target": target,
            "abs_error": abs(limit - target),
            "order": order,
            "converged": (1.0 <= order <= 3.0) if math.isfinite(order) else None,
        })
    return report
