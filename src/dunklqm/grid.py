"""Finite-difference backend: discretization of Hamiltonians with a
reflection term, symmetric eigensolvers, quadrature and convergence studies.
The only module that loads scipy (its LAPACK drivers, bound here by name).

Operators live on ``refcalc.Grid``, the midpoint grid on which reflection is
the exact index reversal i -> N-1-i; the doubling ladders of a convergence
study are checked and their orders estimated by refcalc's helpers too.
Dirichlet walls are imposed through ghost values u(ghost) = -u(edge), which
places the hard wall exactly at the domain boundary. In the mirror-pair
ordering 0, N-1, 1, N-2, ... the reflection couples adjacent unknowns, so
every grid operator is held once, in O(N) memory, as LAPACK banded storage in
that ordering, which one pair of maps alone states (``_pair_position``, node
-> position, and its inverse ``_pair_node``); dense rows are gathered from the
band only on request (:meth:`GridOperator.gather_rows`). A stencil operator is
a list of terms, each a node shift, whether it acts after R, and a coefficient
array, banded by one constructor that sums each element's terms in the listed
order: that order keeps the bits of a dense construction. The Gegenbauer
operator 2 Q @ Q + corrections, defined by a BLAS product, is banded straight
from that product's blocks of rows (:meth:`GridOperator.composite`), 64 to 192
rows each, in mirror pairs, so the N x N product is never held whole.

Operators whose scalar potential carries an attractive ~ -c/x^2 core (the
reflection families at alpha > 0) cannot be diagonalized from the directly
sampled potential: the discrete operator develops spurious states at -C/h^2
("fall to the center") that also pollute the physical levels. Spectra for
those systems come from the square of the discrete symmetric supercharge
(positive semidefinite by construction). Every solver takes an operator and
a level count: :func:`eigen_lowest`, :func:`susy_squared_spectrum` (of the
Q of :func:`supercharge_matrix`) and :func:`composite_spectrum`.

A convergence study's rungs are independent, and the rungs below the top of
a doubling ladder are about a quarter of its work (a rung costs about four
times the one below it). scipy's banded drivers hold the GIL, so threads
cannot overlap two solves; for a :class:`Problem` marked ``single_core``,
one forked child solves the lower rungs, in order, while this process
solves the top rung, and pickles their values back through a pipe. The
child runs the same code on the same inputs, so every value keeps its bits.
The top rung stays here, so this process's peak RSS and any tracer still
see the dominant solve; a tracer sees none of the child's rungs. A path
whose BLAS products already run threads on every core (``spectra``'s
composite path) is left unmarked: splitting it slowed its ladders.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np
# grid calls no eigh: it stays bound only because bench/tracer.py rebinds
# grid.eigh by name, with no fallback (ROADMAP item 15 lifts that pin)
from scipy.linalg import eig_banded, eigh, eigh_tridiagonal, solve_banded

from .refcalc import Grid, check_doubling_ladder, check_halfwidth, estimate_order

__all__ = [
    "GridOperator",
    "SingularPotentialError",
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


class MethodLimitError(ValueError):
    """The grid method cannot deliver the requested levels at this size."""


def _pair_position(nodes, n: int) -> np.ndarray:
    """Positions of ``nodes`` in the mirror-pair order 0, N-1, 1, N-2, ..."""
    return 2 * np.minimum(nodes, n - 1 - nodes) + (nodes >= n // 2)


def _pair_node(positions, n: int) -> np.ndarray:
    """The nodes at ``positions`` of the mirror-pair ordering."""
    return np.where(positions % 2, n - 1 - positions // 2, positions // 2)


def _pair_band(entry: Callable, n: int, bandwidth: int) -> np.ndarray:
    """Upper-banded storage, in pair ordering, of the matrix whose element at
    nodes (i, j) is ``entry(i, j)`` (index arrays in, values out).

    Every element outside pair bandwidth ``bandwidth`` must be zero. Leading
    superdiagonals that are entirely zero are dropped, so the storage has the
    operator's true bandwidth.
    """
    nodes = _pair_node(np.arange(n), n)
    bw = min(bandwidth, n - 1)
    band = np.zeros((bw + 1, n))
    for d in range(bw + 1):
        band[bw - d, d:] = entry(nodes[:n - d], nodes[d:])
    top = 0
    while top < bw and not band[top].any():
        top += 1
    return band[top:]


# rows per block of GridOperator.composite's product; smaller blocks
# broke the bits of the Gegenbauer product
_BLOCK_ROWS = 64


def _row_blocks(n: int) -> list:
    """Row blocks [(r0, r1), ...] of an N-row matrix, in mirror pairs.

    Each block [r0, r1) of the lower half, ``_BLOCK_ROWS`` rows, is followed
    by its mirror [N - r1, N - r0); once at most three blocks' worth of rows
    is left in the middle, it forms a last block [r0, N - r0), its own
    mirror. So every block but a whole N <= 192 has 64 to 192 rows.
    """
    blocks, r0 = [], 0
    while n - 2 * r0 > 3 * _BLOCK_ROWS:
        r1 = r0 + _BLOCK_ROWS
        blocks += [(r0, r1), (n - r1, n - r0)]
        r0 = r1
    return blocks + [(r0, n - r0)]


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
    def composite(cls, q: "GridOperator", diag: np.ndarray,
                  refl: np.ndarray) -> "GridOperator":
        """Symmetric part (M + M^T)/2 of M = 2 Q @ Q + diag + refl R, with
        Q @ Q the BLAS product of the node-ordered supercharge ``q`` (a
        banded Q^2 moves the levels by ~1e-10); M has pair bandwidth 4.

        M is formed one block of rows at a time (``_row_blocks``), and only
        each row's 9 entries within the pair bandwidth are kept. The rows of
        mirror pairs lo .. hi - 1 read only Q's rows of pairs lo - 2 ..
        hi + 1 (pair bandwidth 3), and their band entries lie in those
        pairs' columns: the block is Q[r0:r1] @ O, O those rows and columns
        of Q and zeros in the other rows, so the inner dimension stays N and
        a zero factor adds nothing. The window keeps node order and grows
        to a multiple of 4 pairs where N allows, which kept OpenBLAS's bits
        at every N tried (README). Each entry is 2.0 times its product,
        plus diag[i] at column i, then plus refl[i] at column N - 1 - i.
        """
        n = q.n
        pos = _pair_position(np.arange(n), n)
        bw = min(4, n - 1)
        offsets = np.arange(-bw, bw + 1)
        # near[i, bw + d] = M[i, node at pos[i] + d], zero past either end
        near = np.zeros((n, 2 * bw + 1))
        for r0, r1 in _row_blocks(n):
            lo, hi = min(r0, n - r1), min(r1, n - r0, n // 2)
            p0, p1 = max(lo - 2, 0), min(hi + 2, n // 2)
            p1 = min(p1 + (p0 - p1) % 4, n // 2)
            p0 = max(p0 - (p0 - p1) % 4, 0)
            p = np.arange(p0, p1)
            cols = np.concatenate([p, n - 1 - p[::-1]])
            o = np.zeros((n, len(cols)))
            o[cols] = q.gather_rows(cols)[:, cols]
            i = np.arange(r0, r1)
            prod = q.gather_rows(i) @ o
            # column of prod holding each node of the window
            win = np.zeros(n, dtype=int)
            win[cols] = np.arange(len(cols))
            at = pos[i, None] + offsets
            inside = (at >= 0) & (at < n)
            node = _pair_node(np.where(inside, at, 0), n)
            near[i] = np.where(inside, 2.0 * np.take_along_axis(
                prod, win[node], axis=1), 0.0)
            near[i, bw] += diag[i]
            # the mirror N - 1 - i is after i in the lower half, else before
            near[i, bw + np.where(i < n // 2, 1, -1)] += refl[i]

        def entry(i, j):
            d = pos[j] - pos[i]
            return 0.5 * (near[i, bw + d] + near[j, bw - d])

        return cls(_pair_band(entry, n, 4), q.grid)

    @property
    def n(self) -> int:
        return self.grid.n

    def gather_rows(self, nodes: np.ndarray) -> np.ndarray:
        """Rows ``nodes`` of the node-ordered N x N matrix, as a
        (len(nodes), N) array read straight from the band: the entries
        within the pair bandwidth hold the band's values bit for bit, every
        other entry is +0."""
        n, bw = self.n, self.band.shape[0] - 1
        nodes = np.asarray(nodes)
        p = _pair_position(nodes, n)[:, None]
        at = p + np.arange(-bw, bw + 1)
        inside = (at >= 0) & (at < n)
        row = np.nonzero(inside)[0]
        p, at = np.broadcast_to(p, at.shape)[inside], at[inside]
        out = np.zeros((len(nodes), n))
        # (p, at) in pair ordering is the upper-stored (min, max) element
        out[row, _pair_node(at, n)] = \
            self.band[bw - np.abs(at - p), np.maximum(p, at)]
        return out


def _checked(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise SingularPotentialError(f"{what} evaluated non-finite on the grid")
    return values


def _stencil_band(terms: list, n: int, scale: float = 1.0,
                  symmetrize: bool = False) -> np.ndarray:
    """``_pair_band`` storage of M / scale, or of (M + M^T) / (2 scale) if
    ``symmetrize``, for the node-ordered M, the sum of the ``terms`` (s,
    reflected, c): row i of a term reads node i + s of f, or of R f, times
    c[i], so c[i] sits in column i + s, or N - 1 - i - s. Each element sums,
    from 0.0, its terms' c[i] and 0.0 for every other term, in the listed
    order. A term's pair bandwidth is 2|s|, plus one if reflected."""
    def raw(i, j):
        total = 0.0
        for shift, reflected, coeff in terms:
            k = n - 1 - j if reflected else j
            total = total + np.where(k == i + shift, coeff[i], 0.0)
        return total / scale

    entry = (lambda i, j: 0.5 * (raw(i, j) + raw(j, i))) if symmetrize else raw
    return _pair_band(entry, n, max(2 * abs(s) + r for s, r, _ in terms))


def assemble(scalar: Callable, refl_coeff: Callable, grid: Grid) -> GridOperator:
    """-1/2 d^2/dx^2 + scalar(x) + refl_coeff(x) R with Dirichlet walls."""
    x, h, n = grid.nodes, grid.h, grid.n
    s = _checked(np.asarray(scalar(x), dtype=float) + np.zeros(n), "scalar potential")
    r = _checked(np.asarray(refl_coeff(x), dtype=float) + np.zeros(n),
                 "reflection coefficient")
    diag = 1.0 / h**2 + s
    diag[0] += 0.5 / h**2
    diag[-1] += 0.5 / h**2
    off = np.full(n, -0.5 / h**2)
    band = _stencil_band([(0, False, diag), (1, False, off), (-1, False, off),
                          (0, True, r)], n)
    # only the R term can break symmetry: r R is symmetric iff r is even
    scale = max(1.0, float(np.abs(band).max()))
    if np.abs(r - r[::-1]).max() > 1e-12 * scale:
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
    # D's ghost-wall entries u(ghost) = -u(edge) sit on U's diagonal
    wall = np.r_[c, np.zeros(n - 2), -c]
    terms = [(1, True, np.full(n, c)), (-1, True, np.full(n, -c)),
             (0, True, wall + u), (0, False, v)]
    return GridOperator(_stencil_band(terms, n, math.sqrt(2.0), True), grid)


# ---------------------------------------------------------------------------
# eigen solvers (pair-ordered banded storage)
# ---------------------------------------------------------------------------

def _node_tridiagonal(op: GridOperator):
    """(diagonal, superdiagonal) in node ordering if the operator is
    tridiagonal there (no reflection term off the center pair), else None."""
    n, bw = op.n, op.band.shape[0] - 1
    nodes = _pair_node(np.arange(n), n)
    diag = np.empty(n)
    diag[nodes] = op.band[bw]
    sup = np.zeros(n - 1)
    for d in range(1, bw + 1):
        i, j, vals = nodes[:n - d], nodes[d:], op.band[bw - d, d:]
        gap = np.abs(i - j)
        if np.any(vals[gap > 1]):
            return None
        sup[np.minimum(i, j)[gap == 1]] = vals[gap == 1]
    return diag, sup


def eigen_lowest(op: GridOperator, k: int) -> np.ndarray:
    """k smallest eigenvalues of a symmetric grid operator, deterministic.

    An operator that is tridiagonal in node ordering takes the tridiagonal
    LAPACK path, any other the banded one on its pair-ordered storage. A
    LAPACK failure raises ``np.linalg.LinAlgError``, a ValueError.
    """
    if k > op.n:
        raise MethodLimitError(f"method limit: {k} levels requested from an "
                               f"operator of dimension {op.n}")
    tri = _node_tridiagonal(op)
    if tri is None:
        return eig_banded(op.band, lower=False, eigvals_only=True,
                          select="i", select_range=(0, k - 1))
    return eigh_tridiagonal(*tri, select="i",
                            select_range=(0, k - 1), eigvals_only=True)


def susy_squared_spectrum(q: GridOperator, k: int) -> np.ndarray:
    """Lowest k energies of H = Q^2 from the discrete supercharge ``q``
    (:func:`supercharge_matrix`).

    The symmetric centered Q anticommutes exactly with R (-1)^i, so its
    spectrum comes in exact +-q pairs; squares are deduplicated pairwise,
    which leaves N/2 levels.
    """
    if 2 * k > q.n:
        raise MethodLimitError(
            f"method limit: the squared supercharge on N={q.n} points "
            f"has {q.n // 2} distinct levels, {k} requested")
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
    forms a dense N x N transformation at O(N^3) cost. A shift that makes
    the banded solve exactly singular (seen on N = 2) is a method limit.
    """
    n_scan = 4 * k + 8
    n = op.n
    w = eig_banded(op.band, lower=False, eigvals_only=True,
                   select="i", select_range=(0, min(n_scan, n) - 1))
    nodes = _pair_node(np.arange(n), n)
    vec = np.empty(n)
    out = []
    try:
        for lam, vec_p in zip(w, _inverse_iteration(op.band, w)):
            vec[nodes] = vec_p  # back to node ordering
            if checkerboard_fraction(vec) < 0.5:
                out.append(float(lam))
                if len(out) == k:
                    break
    except np.linalg.LinAlgError as exc:
        raise MethodLimitError(
            f"method limit: inverse iteration on N={n} met an exactly "
            f"singular shift ({exc})") from exc
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
    check_halfwidth(halfwidth)
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
    ``single_core``: ``compute`` is a pure function of N that keeps one core
    busy, so :func:`convergence_study` may solve the lower rungs in a forked
    child. Left False, every rung runs here, side effects included;
    ``spectra`` sets it for its banded paths, not for the composite path,
    whose BLAS product already runs threads on every core.
    """

    name: str
    params: dict
    targets: tuple
    compute: Callable  # N -> np.ndarray of the len(targets) lowest levels
    tolerance: float
    exponents: tuple
    single_core: bool = False

    def __post_init__(self):
        if not self.targets:
            raise ValueError(f"{self.name}: a spectrum needs at least one level")


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


def _solve_ladder(problem: Problem, n_list: list) -> list:
    """``[problem.compute(n) for n in n_list]``: its values and its
    exception, split as :func:`convergence_study` describes."""
    *lower, top = n_list
    if not (problem.single_core and lower):
        return [problem.compute(n) for n in n_list]
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return [problem.compute(n) for n in n_list]
    pid = payload = None
    try:
        try:
            pid = os.fork()
        except OSError:
            pass  # no child: the empty payload below solves the lower rungs
        if pid == 0:
            try:
                os.close(read_fd)
                try:
                    result = [problem.compute(n) for n in lower]
                except BaseException as exc:
                    result = exc
                data = memoryview(pickle.dumps(result))
                while data:
                    data = data[os.write(write_fd, data):]
            finally:
                os._exit(0)
        os.close(write_fd)
        write_fd = None
        try:
            top_value = problem.compute(top)
        except Exception as exc:
            top_value = exc
        payload = b"".join(iter(lambda: os.read(read_fd, 1 << 16), b""))
    finally:
        os.close(read_fd)
        if write_fd is not None:
            os.close(write_fd)
        if pid:
            if payload is None:  # interrupted: the lower rungs are not wanted
                os.kill(pid, signal.SIGKILL)  # unreaped, so the pid is its own
            os.waitpid(pid, 0)
    try:
        values = pickle.loads(payload)
    except Exception:  # the child sent nothing, or what it sent is broken
        values = [problem.compute(n) for n in lower]
    if isinstance(values, BaseException):
        raise values
    if isinstance(top_value, Exception):
        raise top_value
    return values + [top_value]


def convergence_study(problem: Problem, n_list: Sequence[int]) -> SpectrumReport:
    """Eigenvalue ladder over doubling grids N, 2N, 4N, ..., one level per
    closed-form target, extrapolated and compared against the targets. Order
    estimates outside [1, 3] flag a level as non-convergent (extrapolation
    still reported); a level whose order cannot be estimated (e.g. a
    non-monotone ladder) has ``converged`` None, unknown.

    The rungs run in this process unless ``problem.single_core``; then the
    top rung runs here and the lower ones, in order, in one forked child
    (module docstring), with the values and the exceptions of the sequential
    loop. The child sends back its values, or the exception of its first
    failing rung, which is raised before this process's own. If the child
    cannot start, dies, or cannot pickle what it has, this process solves
    the lower rungs itself. The child leaves by ``os._exit``, so no atexit
    handler runs and no stdio buffer is flushed twice; it inherits the
    floating-point error state, is killed if this process is interrupted,
    and is reaped on every path."""
    n_list = check_doubling_ladder(n_list)
    values = np.asarray(_solve_ladder(problem, n_list))
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
