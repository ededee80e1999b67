"""Finite-difference backend: discretization of Hamiltonians with a
reflection term, parity reduction, symmetric eigensolvers, quadrature and
convergence studies.

Grids are uniform with a half-cell offset so that no node falls on x = 0 or
on the endpoints; reflection is then the exact index reversal i -> N-1-i.
Dirichlet walls are imposed through ghost values u(ghost) = -u(edge), which
places the hard wall exactly at the domain boundary.

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
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eig_banded, eigh, eigh_tridiagonal

__all__ = [
    "Grid",
    "GridOperator",
    "SingularPotentialError",
    "ConvergenceFailureError",
    "assemble",
    "reflection_matrix",
    "first_derivative_matrix",
    "supercharge_matrix",
    "parity_blocks",
    "eigen_lowest",
    "eigvals_all",
    "susy_squared_spectrum",
    "composite_spectrum",
    "checkerboard_fraction",
    "quadrature",
    "extrapolate_sequence",
    "SpectrumReport",
    "Problem",
    "convergence_study",
    "apply_first_order",
    "apply_hamiltonian",
]


class SingularPotentialError(ValueError):
    """A potential evaluated non-finite on a grid node."""


class ConvergenceFailureError(RuntimeError):
    """The underlying eigensolver reported non-convergence."""


@dataclass(frozen=True)
class Grid:
    """Symmetric midpoint grid: x_i = -b + (i + 1/2) h, h = 2b/N."""

    n: int
    halfwidth: float

    def __post_init__(self):
        if self.n <= 0 or self.n % 2:
            raise ValueError("grid size must be even and positive")

    @property
    def h(self) -> float:
        return 2.0 * self.halfwidth / self.n

    @property
    def nodes(self) -> np.ndarray:
        return -self.halfwidth + (np.arange(self.n) + 0.5) * self.h


@dataclass(frozen=True)
class GridOperator:
    """Dense real symmetric matrix tied to its grid."""

    matrix: np.ndarray
    grid: Grid

    @property
    def n(self) -> int:
        return self.grid.n

    def symmetry_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.T).max())


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
    m = np.zeros((n, n))
    idx = np.arange(n)
    m[idx, idx] = 1.0 / h**2 + s
    m[0, 0] += 0.5 / h**2
    m[-1, -1] += 0.5 / h**2
    m[idx[:-1], idx[:-1] + 1] = -0.5 / h**2
    m[idx[:-1] + 1, idx[:-1]] = -0.5 / h**2
    m[idx, n - 1 - idx] += r
    op = GridOperator(m, grid)
    if op.symmetry_defect() > 1e-12 * max(1.0, np.abs(m).max()):
        raise ValueError("assembled operator is not symmetric; "
                         "reflection coefficient must be even")
    return op


def reflection_matrix(n: int) -> np.ndarray:
    return np.eye(n)[::-1].copy()


def first_derivative_matrix(grid: Grid) -> np.ndarray:
    """Central first derivative with Dirichlet ghost cells at the walls."""
    n, h = grid.n, grid.h
    d = np.zeros((n, n))
    idx = np.arange(n - 1)
    d[idx, idx + 1] = 1.0 / (2*h)
    d[idx + 1, idx] = -1.0 / (2*h)
    d[0, 0] += 1.0 / (2*h)      # ghost u_{-1} = -u_0
    d[-1, -1] -= 1.0 / (2*h)    # ghost u_N = -u_{N-1}
    return d


def supercharge_matrix(u_fn: Callable, v_fn: Callable, grid: Grid) -> GridOperator:
    """Symmetric discretization of Q = [(d/dx + U) R + V] / sqrt(2).

    The raw corner entries from the ghost cells break symmetry at the walls
    by O(1/h) on two matrix elements; the operator is symmetrized, which
    perturbs only the wall cells where bound states vanish.
    """
    x, n = grid.nodes, grid.n
    u = _checked(np.asarray(u_fn(x), dtype=float) + np.zeros(n), "U")
    v = _checked(np.asarray(v_fn(x), dtype=float) + np.zeros(n), "V")
    d = first_derivative_matrix(grid)
    r = reflection_matrix(n)
    q = ((d + np.diag(u)) @ r + np.diag(v)) / math.sqrt(2.0)
    q = 0.5 * (q + q.T)
    return GridOperator(q, grid)


# ---------------------------------------------------------------------------
# eigen solvers (pair-reordered banded fast path)
# ---------------------------------------------------------------------------

def _pair_permutation(n: int) -> np.ndarray:
    """Ordering 0, N-1, 1, N-2, ...: mirror pairs become adjacent."""
    i = np.arange(n)
    p = np.minimum(i, n - 1 - i)
    pos = 2 * p + (i >= n // 2)
    perm = np.empty(n, dtype=int)
    perm[pos] = i
    return perm


def _to_banded(m: np.ndarray, max_bw: int = 8):
    """Upper-banded storage if the bandwidth is small, else None."""
    n = m.shape[0]
    nz = np.nonzero(m)
    if len(nz[0]) == 0:
        return np.zeros((1, n)), 0
    bw = int(np.abs(nz[0] - nz[1]).max())
    if bw > max_bw:
        return None
    a = np.zeros((bw + 1, n))
    for d in range(bw + 1):
        a[bw - d, d:] = np.diagonal(m, offset=d)
    return a, bw


def _reorder(m: np.ndarray) -> np.ndarray:
    perm = _pair_permutation(m.shape[0])
    return m[np.ix_(perm, perm)]


def eigen_lowest(op: GridOperator | np.ndarray, k: int) -> np.ndarray:
    """k smallest eigenvalues of a symmetric operator, deterministic.

    Uses tridiagonal or banded LAPACK paths when the (possibly pair-reordered)
    matrix is narrow-banded, otherwise a dense solve.
    """
    m = op.matrix if isinstance(op, GridOperator) else np.asarray(op, dtype=float)
    n = m.shape[0]
    if k > n:
        raise ValueError("k exceeds matrix dimension")
    try:
        banded = _to_banded(m)
        if banded is not None and banded[1] <= 1:
            if banded[1] == 0:
                return np.sort(np.diagonal(m))[:k]
            return eigh_tridiagonal(np.diagonal(m).copy(),
                                    np.diagonal(m, offset=1).copy(),
                                    select="i", select_range=(0, k - 1),
                                    eigvals_only=True)
        m2 = _reorder(m)
        banded = _to_banded(m2)
        if banded is not None:
            return eig_banded(banded[0], lower=False, eigvals_only=True,
                              select="i", select_range=(0, k - 1))
        return eigh(m, eigvals_only=True, subset_by_index=(0, k - 1))
    except Exception as exc:
        if "converge" in str(exc).lower() or isinstance(exc, np.linalg.LinAlgError):
            raise ConvergenceFailureError(
                f"symmetric eigensolver failed on {n}x{n} matrix: {exc}") from exc
        raise


def eigvals_all(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, using the banded path if possible."""
    m2 = _reorder(np.asarray(m, dtype=float))
    banded = _to_banded(m2)
    if banded is not None:
        return eig_banded(banded[0], lower=False, eigvals_only=True)
    return np.linalg.eigvalsh(m)


def parity_blocks(op: GridOperator) -> tuple[np.ndarray, np.ndarray]:
    """Even/odd half-grid blocks of a reflection-commuting operator.

    Requires [H, R] = 0 on the grid (mirror symmetry of the matrix); raised
    otherwise, since the blocks would silently drop the parity coupling.
    """
    m, n = op.matrix, op.n
    mirrored = m[::-1, ::-1]
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - mirrored).max() > 1e-12 * scale:
        raise ValueError("operator does not commute with reflection; "
                         "parity blocks are not defined")
    half = n // 2
    tl = m[:half, :half]
    tr = m[:half, half:][:, ::-1]
    return tl + tr, tl - tr


def susy_squared_spectrum(u_fn: Callable, v_fn: Callable, grid: Grid,
                          k: int) -> np.ndarray:
    """Lowest k energies of H = Q^2 via the discrete supercharge.

    The symmetric centered Q anticommutes exactly with R (-1)^i, so its
    spectrum comes in exact +-q pairs; squares are deduplicated pairwise.
    """
    q = supercharge_matrix(u_fn, v_fn, grid)
    w = eigvals_all(q.matrix)
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


def composite_spectrum(matrix: np.ndarray, k: int, n_scan: int = 0) -> np.ndarray:
    """Lowest k smooth eigenvalues, discarding checkerboard artifacts.

    Scans the lowest ``n_scan`` (default 4k+8) eigenpairs and keeps those
    whose eigenvectors are grid-smooth.
    """
    n_scan = n_scan or (4 * k + 8)
    n = matrix.shape[0]
    perm = _pair_permutation(n)
    m2 = matrix[np.ix_(perm, perm)]
    banded = _to_banded(m2)
    if banded is not None:
        w, vecs_p = eig_banded(banded[0], lower=False,
                               select="i", select_range=(0, min(n_scan, n) - 1))
        vecs = np.empty_like(vecs_p)
        vecs[perm, :] = vecs_p  # back to spatial node ordering
    else:
        w, vecs = eigh(matrix, subset_by_index=(0, min(n_scan, n) - 1))
    out = [float(w[j]) for j in range(len(w))
           if checkerboard_fraction(np.ascontiguousarray(vecs[:, j])) < 0.5]
    if len(out) < k:
        raise RuntimeError("not enough smooth eigenvalues found; raise n_scan")
    return np.asarray(out[:k])


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def quadrature(f: Callable, grid: Grid, max_levels: int = 15,
               rtol: float = 1e-12) -> float:
    """Integral of f over the grid domain: midpoint ladder, Richardson-refined.

    The midpoint family is refined by doubling from the grid's resolution and
    accelerated with iterated Richardson extrapolation whose orders are
    estimated from the data, so endpoint or |x|^a cusps (integrable) are
    handled without knowing their exponents in advance.
    """
    a, b = -grid.halfwidth, grid.halfwidth
    n0 = min(grid.n, 1024)
    vals = []
    n = n0
    for _ in range(max_levels):
        h = (b - a) / n
        x = a + (np.arange(n) + 0.5) * h
        vals.append(h * float(np.sum(f(x))))
        if len(vals) >= 4 and abs(vals[-1] - vals[-2]) < rtol * max(1.0, abs(vals[-1])):
            break
        n *= 2
        if n > (1 << 21):
            break
    cur = vals
    for _ in range(6):
        if len(cur) < 3:
            break
        d = np.diff(cur)
        if np.all(np.abs(d) < 1e-15):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            ps = np.log2(np.abs(d[:-1] / d[1:]))
        ps = ps[np.isfinite(ps)]
        if len(ps) == 0:
            break
        p = float(np.median(ps[-3:]))
        if not (0.5 <= p <= 8.0):
            break
        fac = 2.0 ** p
        cur = [(fac * cur[i+1] - cur[i]) / (fac - 1.0) for i in range(len(cur) - 1)]
    return float(cur[-1])


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

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
                         exponents: Sequence[float] | None = None
                         ) -> tuple[float, float]:
    """(limit, estimated order) from eigenvalues on a doubling N ladder.

    With ``exponents`` given, Richardson eliminates those error powers in
    order (the right schedule is usually known from the eigenfunction's
    behavior at the coordinate singularities). Otherwise the first order is
    estimated from the data and a second elimination at max(2, p+1) removes
    the next correction; that heuristic is only reliable when the error is
    dominated by a single power.
    """
    v = [float(x) for x in values]
    p_est = estimate_order(v)
    if len(v) < 2:
        return v[-1], p_est
    if len(v) == 2:
        return (4*v[1] - v[0]) / 3.0, p_est
    if math.isnan(p_est) and exponents is None:
        return v[-1], p_est
    if exponents is not None:
        cur = v
        for p in exponents:
            if len(cur) < 2:
                break
            f = 2.0 ** float(p)
            cur = [(f*cur[i+1] - cur[i]) / (f - 1.0) for i in range(len(cur) - 1)]
        return cur[-1], p_est
    p_used = min(max(p_est, 0.25), 6.0)
    f1 = 2.0 ** p_used
    r = [(f1*v[i+1] - v[i]) / (f1 - 1.0) for i in range(len(v) - 1)]
    f2 = 2.0 ** max(2.0, p_used + 1.0)
    r2 = [(f2*r[i+1] - r[i]) / (f2 - 1.0) for i in range(len(r) - 1)]
    return r2[-1], p_est


@dataclass(frozen=True)
class Problem:
    """A spectrum computation: grids -> lowest-k levels, with targets.

    ``exponents``: known error-power schedule for Richardson elimination
    (None lets the order be estimated from the data).
    """

    name: str
    params: dict
    halfwidth: float
    targets: tuple
    compute: Callable  # (N, k) -> np.ndarray of k lowest levels
    tolerance: float
    exponents: tuple | None = None


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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_json_dict(), indent=indent)

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


def convergence_study(problem: Problem, n_list: Sequence[int],
                      k: int) -> SpectrumReport:
    """Eigenvalue ladder over ascending grids, extrapolated and compared
    against closed-form targets. Order estimates outside [1, 3] flag a level
    as non-convergent (extrapolation still reported); a level whose order
    cannot be estimated (e.g. a non-monotone ladder) has ``converged`` None,
    unknown."""
    n_list = list(n_list)
    if len(n_list) < 3:
        raise ValueError("need at least three grid sizes")
    if sorted(n_list) != n_list:
        raise ValueError("grid list must be ascending")
    values = np.asarray([problem.compute(n, k) for n in n_list])
    report = SpectrumReport(system=problem.name, params=dict(problem.params),
                            grids=n_list)
    for lv in range(k):
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


# ---------------------------------------------------------------------------
# pointwise stencil application (for operator-relation residuals)
# ---------------------------------------------------------------------------

def apply_first_order(u: np.ndarray, grid: Grid, d_coeff=None, s_coeff=None,
                      r_coeff=None, dr_coeff=None) -> np.ndarray:
    """Apply a*u' + s*u + r*(Ru) + c*(Ru)' with central differences.

    Edge rows use one-sided differences and are only meaningful away from
    the walls; callers restrict norms to the interior.
    """
    h = grid.h
    out = np.zeros_like(u)

    def deriv(w):
        dw = np.empty_like(w)
        dw[1:-1] = (w[2:] - w[:-2]) / (2*h)
        dw[0] = (w[1] - w[0]) / h
        dw[-1] = (w[-1] - w[-2]) / h
        return dw

    if d_coeff is not None:
        out += d_coeff * deriv(u)
    if s_coeff is not None:
        out += s_coeff * u
    ru = u[::-1]
    if r_coeff is not None:
        out += r_coeff * ru
    if dr_coeff is not None:
        out += dr_coeff * deriv(ru)
    return out


def apply_hamiltonian(u: np.ndarray, grid: Grid, scalar: np.ndarray,
                      refl: np.ndarray) -> np.ndarray:
    """Apply -1/2 u'' + scalar*u + refl*(Ru) with the 3-point Laplacian."""
    h = grid.h
    lap = np.zeros_like(u)
    lap[1:-1] = (u[2:] - 2*u[1:-1] + u[:-2]) / h**2
    lap[0] = lap[1]
    lap[-1] = lap[-2]
    return -0.5*lap + scalar*u + refl*u[::-1]
