"""Tests for the finite-difference backend."""

import json
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.linalg import eig_banded

from dunklqm import errata
from dunklqm import grid as gridmod
from dunklqm.grid import (
    Grid,
    MethodLimitError,
    SingularPotentialError,
    assemble,
    convergence_study,
    eigen_lowest,
    extrapolate_sequence,
    quadrature,
    supercharge_matrix,
)
from dunklqm.gegenbauer import GegParams, eigenvalue_geg, geg_potentials
from dunklqm.spectra import (_gegenbauer_corrections, gegenbauer_problem,
                             oscillator_problem, scarf_problem)
from dunklqm.susyqm import (ScarfParams, oscillator_potential,
                            scarf_potential, wavefunction_fn)


def test_grid_nodes_symmetric():
    g = Grid(8, 1.0)
    x = g.nodes
    assert np.allclose(x, -x[::-1])
    assert 0.0 not in x
    assert np.all(np.abs(x) < 1.0)
    with pytest.raises(ValueError):
        Grid(7, 1.0)


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
def test_nonpositive_or_nonfinite_halfwidth_is_refused(c):
    # h = 2c/N and the tanh-sinh nodes scale with c: a halfwidth that is not
    # a positive finite number gives descending, NaN or zero-width samples
    with pytest.raises(ValueError, match="halfwidth"):
        Grid(4, c)
    with pytest.raises(ValueError, match="halfwidth"):
        quadrature(lambda x: np.ones_like(x), c)
    small = 1e-3
    assert np.all(np.diff(Grid(4, small).nodes) > 0)
    assert quadrature(lambda x: np.ones_like(x), small) == pytest.approx(2 * small)


def test_assemble_free_particle_box():
    g = Grid(512, math.pi / 2)
    op = assemble(lambda x: 0.0 * x, lambda x: 0.0 * x, g)
    w = eigen_lowest(op, 3)
    # particle in a box of width pi: E_k = k^2/2
    assert abs(w[0] - 0.5) < 1e-4
    assert abs(w[1] - 2.0) < 1e-3


def test_assemble_oscillator_raw_and_extrapolated():
    vals = []
    for n in (1000, 2000, 4000):
        g = Grid(n, 10.0)
        op = assemble(lambda x: 0.5 * x**2, lambda x: -0.5 + 0.0 * x, g)
        vals.append(eigen_lowest(op, 5))
    targets = np.array([0.0, 2.0, 2.0, 4.0, 4.0])
    # raw second-order values at N=2000 are 1e-3-accurate; extrapolation
    # reaches the 1e-6 regime
    assert np.abs(vals[1] - targets).max() < 1e-3
    for lv in range(5):
        limit, order = extrapolate_sequence([v[lv] for v in vals], (2.0, 2.0))
        assert abs(limit - targets[lv]) < 1e-6


def test_assemble_singular_potential_rejected():
    g = Grid(16, 1.0)
    with np.errstate(divide="ignore"), pytest.raises(SingularPotentialError):
        assemble(lambda x: 1.0 / (x - x[0]), lambda x: 0.0 * x, g)


def test_oscillator_parity_sectors():
    # the reflection term splits the levels by parity: each eigenvector is
    # even or odd under x -> -x, the sign of v . Rv
    g = Grid(600, 10.0)
    op = assemble(lambda x: 0.5 * x**2, lambda x: -0.5 + 0.0 * x, g)
    w, v = np.linalg.eigh(op.matrix)
    parity = np.einsum("ij,ij->j", v, v[::-1])
    assert np.abs(np.abs(parity) - 1.0).max() < 1e-10
    # lowest even level 0, lowest odd level 2
    assert abs(w[parity > 0][0] - 0.0) < 1e-4
    assert abs(w[parity < 0][0] - 2.0) < 1e-3


def test_scarf_alpha0_equals_scalar_hamiltonian():
    # the reflection construction at alpha = 0 is the scalar Scarf operator
    pars = ScarfParams(F(0), F(2))
    h = scarf_potential(pars).hamiltonian()
    g = Grid(64, math.pi / 2)
    via_susy = assemble(h[0, 0].f, h[0, 1].f, g)
    b = 2.0
    scalar = assemble(lambda x: b * (b / 2 - np.sin(x)) / (4 * np.cos(x) ** 2),
                      lambda x: 0.0 * x, g)
    assert np.abs(via_susy.matrix - scalar.matrix).max() < 1e-12


def test_mirror_symmetry_beta_flip():
    # R H_{a,b} R = H_{a,-b} as an exact matrix identity on the grid
    g = Grid(64, math.pi / 2)

    def h_matrix(beta):
        h = scarf_potential(ScarfParams(F(1), beta)).hamiltonian()
        return assemble(h[0, 0].f, h[0, 1].f, g).matrix

    h, hm = h_matrix(F(1, 2)), h_matrix(F(-1, 2))
    r = np.eye(64)[::-1]
    assert np.abs(r @ h @ r - hm).max() < 1e-12 * max(1, np.abs(h).max())


def test_eigen_lowest_small_cases():
    assert np.allclose(eigen_lowest(np.diag([1.0, 2.0, 3.0]), 2), [1.0, 2.0])
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(eigen_lowest(m, 2), [-1.0, 1.0])
    with pytest.raises(ValueError):
        eigen_lowest(m, 3)


def test_eigen_lowest_banded_matches_dense():
    pars = ScarfParams(F(1, 2), F(3, 2))
    pot = scarf_potential(pars)
    g = Grid(128, math.pi / 2)
    q = supercharge_matrix(pot.u.f, pot.v.f, g)
    dense = np.sort(np.linalg.eigvalsh(q.matrix))
    banded = np.sort(eig_banded(q.band, lower=False, eigvals_only=True))
    assert np.abs(dense - banded).max() < 1e-9 * max(1, np.abs(dense).max())
    low = eigen_lowest(q, 4)
    assert np.abs(low - dense[:4]).max() < 1e-9 * max(1, np.abs(dense).max())


def test_direct_sampling_collapses_for_positive_alpha():
    # documented artifact: the attractive ~ -c/x^2 core sampled at midpoints
    # produces spurious states at -C/h^2; the supercharge-squared route is
    # clean and positive
    pars = ScarfParams(F(1), F(3))
    pot = scarf_potential(pars)
    h = pot.hamiltonian()
    for n in (256, 512):
        g = Grid(n, math.pi / 2)
        direct = eigen_lowest(assemble(h[0, 0].f, h[0, 1].f, g), 1)[0]
        assert direct < -100.0  # collapse grows like -C/h^2
    g = Grid(512, math.pi / 2)
    susy = gridmod.susy_squared_spectrum(pot.u.f, pot.v.f, g, 1)[0]
    assert susy > 0.0
    assert abs(susy - 25.0 / 8.0) < 1e-2


def test_supercharge_spectrum_exact_pairing():
    # the centered symmetric Q anticommutes with R(-1)^i exactly, so its
    # spectrum comes in exact +-q pairs; the squared spectrum is doubly
    # degenerate and deduplication is lossless
    pars = ScarfParams(F(1), F(3))
    pot = scarf_potential(pars)
    g = Grid(256, math.pi / 2)
    q = supercharge_matrix(pot.u.f, pot.v.f, g)
    w = np.sort(eig_banded(q.band, lower=False, eigvals_only=True))
    scale = np.abs(w).max()
    assert np.abs(np.sort(w) + np.sort(-w)[::-1]).max() < 1e-11 * scale
    e = np.sort(w * w)
    assert np.abs(e[0:12:2] - e[1:12:2]).max() < 1e-9 * scale**2


def test_quadrature_cos_squared():
    val = quadrature(lambda x: np.cos(x) ** 2, math.pi / 2)
    assert abs(val - math.pi / 2) < 1e-10


@pytest.mark.parametrize("a_b", [("0", "0"), ("1", "1"), ("1/2", "3/2"),
                                 ("1/3", "2"), ("2", "1/5")])
def test_quadrature_ground_state_normalization(a_b):
    a, b = (F(v) for v in a_b)
    pars = ScarfParams(a, b)
    psi0 = wavefunction_fn(0, pars)
    val = quadrature(lambda x: psi0(x) ** 2, math.pi / 2)
    assert abs(val - 1.0) < 1e-8


def test_quadrature_excited_norm_and_orthogonality():
    pars = ScarfParams(F(1, 2), F(3, 2))
    psi1 = wavefunction_fn(1, pars)
    n1 = quadrature(lambda x: psi1(x) ** 2, math.pi / 2)
    assert abs(n1 - 1.0) < 1e-8
    psi2 = wavefunction_fn(2, pars)
    psi0 = wavefunction_fn(0, pars)
    cross = quadrature(lambda x: psi2(x) * psi0(x), math.pi / 2)
    assert abs(cross) < 1e-8


@pytest.mark.parametrize("a, b", [(-0.1, 0.5), (1 / 3, 2.0), (1.0, 0.0),
                                  (2.5, -0.1)])
def test_quadrature_cusps_without_their_exponents(a, b):
    # |x|^a (1 - x^2)^b over [-1, 1] is the Beta integral B((a + 1)/2, b + 1)
    exact = (math.gamma((a + 1) / 2) * math.gamma(b + 1)
             / math.gamma((a + 1) / 2 + b + 1))
    val = quadrature(lambda x: np.abs(x) ** a * (1 - x**2) ** b, 1.0)
    assert abs(val - exact) <= 1e-14 * exact


def test_errata_quadrature_converges_within_point_budget(monkeypatch):
    # entry -> its quadrature calls: two per moment ratio, one norm, three
    # oscillator norms
    entries = {errata._weight_exponent: 4,
               errata._ground_state_normalization: 1,
               errata._oscillator_laguerre_weight: 3}
    real = gridmod.quadrature
    points = []

    def counted(f, halfwidth):
        sizes = []

        def g(x):
            sizes.append(np.size(x))
            return f(x)

        value = real(g, halfwidth)
        points.append(sum(sizes))
        return value

    monkeypatch.setattr(gridmod, "quadrature", counted)
    for entry, calls in entries.items():
        del points[:]
        entry()
        assert len(points) == calls, entry.__name__
        assert max(points) <= 4096, (entry.__name__, points)


def test_errata_quadrature_evidence_matches_closed_forms():
    moments = errata._weight_exponent()["evidence"]
    assert abs(moments["printed_exponent_first_moment"] - 1 / 3) <= 1e-15
    assert abs(moments["derived_exponent_first_moment"] - 1 / 2) <= 1e-15
    norm = errata._ground_state_normalization()["evidence"]
    assert abs(norm["quadrature_norm_with_oracle"] - 1.0) <= 1e-15
    osc = errata._oscillator_laguerre_weight()["evidence"]
    for n, val in enumerate(osc["measured_norm_of_printed_form"]):
        assert abs(val - (n + 2) / 2.0 ** (2 * n + 1)) <= 1e-15


@pytest.mark.parametrize("f", [
    lambda x: 1.0 / np.abs(x),                # not integrable at the origin
    lambda x: np.full_like(x, np.nan),
    lambda x: np.abs(x) ** -0.5,              # levels never agree to 1e-14
    lambda x: np.abs(x) ** -0.2,              # unsampled sliver holds 4e-14
], ids=["inverse-abs", "nan", "inverse-sqrt", "tail"])
def test_quadrature_refuses_with_method_limit(f):
    with pytest.raises(MethodLimitError):
        quadrature(f, 1.0)


def test_convergence_study_reports():
    prob = oscillator_problem(5)
    rep = convergence_study(prob, [512, 1024, 2048])
    errs = [lv["abs_error"] for lv in rep.levels]
    assert max(errs) < 1e-6
    # errors decrease monotonically with N for every level
    for lv in rep.levels:
        diffs = np.abs(np.asarray(lv["values"]) - lv["target"])
        assert diffs[0] > diffs[1] > diffs[2]
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == \
        "level,N512,N1024,N2048,extrapolated,target,abs_error,order"
    blob = rep.as_json_dict()
    assert blob["system"] == "oscillator"


@pytest.mark.parametrize("ladder, order, converged", [
    ((1.0, 1.25, 1.3125), 2.0, True),
    ((1.0, 1.5, 1.515625), 5.0, False),
    ((1.0, 1.1, 1.05), None, None),     # non-monotone: order unknown
])
def test_convergence_flag_true_false_or_unknown(ladder, order, converged):
    values = dict(zip((8, 16, 32), ladder))
    prob = gridmod.Problem(name="stub", params={}, targets=(ladder[-1],),
                           compute=lambda n: np.array([values[n]]),
                           tolerance=1e-6, exponents=(2.0, 2.0))
    rep = convergence_study(prob, [8, 16, 32])
    level = rep.levels[0]
    if order is None:
        assert math.isnan(level["order"])
    else:
        assert level["order"] == pytest.approx(order)
    assert level["converged"] is converged
    assert json.loads(rep.to_json())["levels"][0]["converged"] is converged


@pytest.mark.parametrize("ladder", [(256, 768, 2304), (100, 300, 900),
                                    (8, 16, 64), (32, 16, 8)])
def test_convergence_study_refuses_non_doubling_ladder(ladder):
    prob = gridmod.Problem(name="stub", params={}, targets=(1.0,),
                           compute=lambda n: np.array([1.0]),
                           tolerance=1e-6, exponents=(2.0, 2.0))
    with pytest.raises(ValueError, match="double"):
        convergence_study(prob, ladder)


def test_scarf_convergence_smooth_order_window():
    prob = scarf_problem(ScarfParams(F(0), F(2)), 3)
    rep = convergence_study(prob, [512, 1024, 2048])
    assert rep.all_within_tolerance(1e-6)
    for lv in rep.levels:
        assert 1.7 <= lv["order"] <= 2.3


def test_gegenbauer_composite_checkerboard_filtered():
    vals = gegenbauer_problem(GegParams(F(1, 2), F(1)), 6).compute(512)
    # all six smooth levels are physical: -lambda_n sorted
    targets = sorted(-float(v) for v in
                     [0, -8, -12, -24, -32, -48])[:6]
    assert np.abs(np.asarray(vals) - np.asarray(sorted(targets))).max() < 0.1


@pytest.mark.parametrize("mu, alpha", [(F(1, 2), F(1)), (F(1), F(1, 4)),
                                       (F(3, 2), F(2))])
def test_gegenbauer_corrections_give_derived_potentials(mu, alpha):
    # 2 H at Scarf (2 mu, 0) plus the corrections is -D^2 + U0 + U1 R
    params = GegParams(mu, alpha)
    h = scarf_potential(ScarfParams(2 * mu, F(0))).hamiltonian()
    x = np.linspace(0.05, 1.5, 29) * np.resize([1.0, -1.0], 29)
    scalar, refl = _gegenbauer_corrections(params, x)
    derived = np.array([geg_potentials(params, t, "derived")[:2]
                        for t in x.tolist()])
    np.testing.assert_allclose(2 * h[0, 0].f(x) + scalar, derived[:, 0],
                               rtol=1e-13, atol=0)
    np.testing.assert_allclose(2 * h[0, 1].f(x) + refl, derived[:, 1],
                               rtol=1e-13, atol=0)


def test_gegenbauer_targets_at_mu_alpha_20_include_n_14_and_16():
    # the ten lowest levels run to n = 17; the grid finds 1329.95 and
    # 1551.92 on 256-1024
    targets = gegenbauer_problem(GegParams(F(20), F(20)), 10).targets
    assert targets[7:] == (1330.0, 1552.0, 1722.0)


@pytest.mark.parametrize("mu, alpha, k", [
    (F(20), F(20), 10), (F(10), F(10), 5), (F(30), F(5), 5), (F(8), F(20), 7),
    (F(0), F(0), 7), (F(1, 2), F(-1, 2), 8), (F(3), F(-9, 10), 12)])
def test_gegenbauer_targets_are_the_k_lowest_levels(mu, alpha, k):
    params = GegParams(mu, alpha)
    levels = sorted(-float(eigenvalue_geg(n, params)) for n in range(4 * k))
    assert gegenbauer_problem(params, k).targets == tuple(levels[:k])


# ---------------------------------------------------------------------------
# banded storage against the dense constructions it replaces
# ---------------------------------------------------------------------------

def _dense_assemble(scalar, refl, g):
    """The three-point stencil with ghost walls, plus refl(x) on the
    antidiagonal, built as a dense matrix."""
    x, h, n = g.nodes, g.h, g.n
    m = np.zeros((n, n))
    idx = np.arange(n)
    m[idx, idx] = 1.0 / h**2 + (np.asarray(scalar(x), dtype=float) + np.zeros(n))
    m[0, 0] += 0.5 / h**2
    m[-1, -1] += 0.5 / h**2
    m[idx[:-1], idx[:-1] + 1] = -0.5 / h**2
    m[idx[:-1] + 1, idx[:-1]] = -0.5 / h**2
    m[idx, n - 1 - idx] += np.asarray(refl(x), dtype=float) + np.zeros(n)
    return m


def _dense_supercharge(pot, g):
    """((D + diag U) R + diag V) / sqrt(2), symmetrized, built densely."""
    x, h, n = g.nodes, g.h, g.n
    d = np.zeros((n, n))
    idx = np.arange(n - 1)
    d[idx, idx + 1] = 1.0 / (2*h)
    d[idx + 1, idx] = -1.0 / (2*h)
    d[0, 0] += 1.0 / (2*h)
    d[-1, -1] -= 1.0 / (2*h)
    r = np.eye(n)[::-1].copy()
    q = ((d + np.diag(pot.u.f(x) + np.zeros(n))) @ r
         + np.diag(pot.v.f(x) + np.zeros(n))) / math.sqrt(2.0)
    return 0.5 * (q + q.T)


def _dense_band(m):
    """Upper-banded storage of m in the ordering 0, N-1, 1, N-2, ..., at the
    bandwidth of its nonzero elements."""
    n = len(m)
    order = [i for p in range(n // 2) for i in (p, n - 1 - p)]
    m2 = m[np.ix_(order, order)]
    bw = max(d for d in range(n) if np.any(np.diagonal(m2, d)))
    band = np.zeros((bw + 1, n))
    for d in range(bw + 1):
        band[bw - d, d:] = np.diagonal(m2, d)
    return band


def _oscillator_parts():
    return lambda x: 0.5 * x**2, lambda x: -0.5 + 0.0 * x


def _scarf_scalar_parts(pot):
    return (lambda x: 0.5 * pot.u.f(x) ** 2 + 0.5 * pot.u.df(x),
            lambda x: 0.0 * x)


def _scarf_direct_parts(pot):
    return (lambda x: 0.5 * (pot.u.f(x) ** 2 + pot.v.f(x) ** 2) + 0.5 * pot.u.df(x),
            lambda x: -0.5 * pot.v.df(x))


SCARF_SETS = [(F(1), F(3)), (F(1, 2), F(3, 2)), (F(1, 4), F(2)), (F(1), F(1, 2))]


@pytest.mark.parametrize("n", [4, 64, 256])
@pytest.mark.parametrize("system", ["oscillator", "scarf-0-2"])
def test_assemble_equals_dense_stencil(system, n):
    if system == "oscillator":
        g, parts = Grid(n, 10.0), _oscillator_parts()
    else:
        g = Grid(n, math.pi / 2)
        parts = _scarf_scalar_parts(scarf_potential(ScarfParams(F(0), F(2))))
    op = assemble(*parts, g)
    dense = _dense_assemble(*parts, g)
    assert np.array_equal(op.matrix, dense)
    assert np.array_equal(op.band, _dense_band(dense))


@pytest.mark.parametrize("n", [4, 64, 256])
@pytest.mark.parametrize("ab", SCARF_SETS)
def test_supercharge_equals_dense_product(ab, n):
    pot = scarf_potential(ScarfParams(*ab))
    g = Grid(n, math.pi / 2)
    q = supercharge_matrix(pot.u.f, pot.v.f, g)
    dense = _dense_supercharge(pot, g)
    assert np.array_equal(q.matrix, dense)
    assert np.array_equal(q.band, _dense_band(dense))
    # direct sampling: R-term mirror images may differ in the last bit, and
    # the band keeps the pair-ordered upper triangle
    op = assemble(*_scarf_direct_parts(pot), g)
    assert np.array_equal(op.band, _dense_band(
        _dense_assemble(*_scarf_direct_parts(pot), g)))


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("system", ["oscillator", *(
    f"scarf {a} {b}" for a, b in [(0, 2), (0, "1/5"), (0, 3), *SCARF_SETS])])
def test_hamiltonian_band_equals_hand_typed(system, n):
    # the spectra assemble the potential's hamiltonian(); its band is the one
    # the hand-typed parts give, byte for byte (at alpha = 0, V V is +0)
    if system == "oscillator":
        pot, g, parts = oscillator_potential(), Grid(n, 10.0), _oscillator_parts()
    else:
        a, b = (F(t) for t in system.split()[1:])
        pot, g = scarf_potential(ScarfParams(a, b)), Grid(n, math.pi / 2)
        parts = (_scarf_scalar_parts if a == 0 else _scarf_direct_parts)(pot)
    h = pot.hamiltonian()
    assert (assemble(h[0, 0].f, h[0, 1].f, g).band.tobytes()
            == assemble(*parts, g).band.tobytes())


def _gegenbauer_operator(monkeypatch, mu, alpha, n, k):
    """The operator gegenbauer_problem hands to composite_spectrum."""
    seen = []
    real = gridmod.composite_spectrum
    monkeypatch.setattr(gridmod, "composite_spectrum",
                        lambda op, kk: seen.append(op) or real(op, kk))
    gegenbauer_problem(GegParams(mu, alpha), k).compute(n)
    monkeypatch.setattr(gridmod, "composite_spectrum", real)
    return seen[0]


def test_gegenbauer_band_equals_dense_construction(monkeypatch):
    mu, al, n = F(1, 2), F(1), 256
    op = _gegenbauer_operator(monkeypatch, mu, al, n, 3)
    g = Grid(n, math.pi / 2)
    q = _dense_supercharge(scarf_potential(ScarfParams(2 * mu, F(0))), g)
    x, m, a = g.nodes, float(mu), float(al)
    h = 2.0 * (q @ q)
    h += np.diag((a**2 - 0.25) / np.cos(x) ** 2 - (m + a + 0.5) ** 2
                 + (2 * a + 1) * m)
    coeff = -m * (1.0 / (1.0 + np.cos(x)) + (2 * a + 1))
    h += coeff[:, None] * np.eye(n)[::-1]
    assert np.array_equal(op.band, _dense_band(0.5 * (h + h.T)))


@pytest.mark.parametrize("mu, alpha", [(F(1, 2), F(1)), (F(1), F(1, 4)),
                                       (F(3, 2), F(2))])
def test_composite_filter_matches_dense_eigenvectors(mu, alpha, monkeypatch):
    k = 6
    op = _gegenbauer_operator(monkeypatch, mu, alpha, 512, k)
    fractions = []
    real = gridmod.checkerboard_fraction
    monkeypatch.setattr(gridmod, "checkerboard_fraction",
                        lambda v: fractions.append(real(v)) or fractions[-1])
    vals = gridmod.composite_spectrum(op, k)
    n_scan = 4 * k + 8
    _, vecs = np.linalg.eigh(op.matrix)
    dense = np.asarray([real(vecs[:, j]) for j in range(n_scan)])
    # the scan stops right after the k-th smooth dense vector
    last = np.flatnonzero(dense < 0.5)[k - 1]
    assert len(fractions) == last + 1 < n_scan
    assert [f < 0.5 for f in fractions] == list(dense[:last + 1] < 0.5)
    assert np.abs(np.asarray(fractions) - dense[:last + 1]).max() < 1e-8
    w, _ = eig_banded(op.band, lower=False, select="i",
                      select_range=(0, n_scan - 1))
    assert np.array_equal(vals, w[dense < 0.5][:k])


def test_non_gegenbauer_paths_hold_no_dense_matrix():
    # one 8192 x 8192 float64 matrix is 512 MB
    tracemalloc.start()
    try:
        g = Grid(8192, 10.0)
        osc = eigen_lowest(assemble(*_oscillator_parts(), g), 5)
        pot = scarf_potential(ScarfParams(F(1), F(3)))
        scarf = gridmod.susy_squared_spectrum(pot.u.f, pot.v.f,
                                              Grid(8192, math.pi / 2), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.abs(osc - [0.0, 2.0, 2.0, 4.0, 4.0]).max() < 1e-4
    assert np.abs(scarf - [25 / 8, 49 / 8, 81 / 8]).max() < 1e-4


def test_extrapolate_two_values_applies_exponents():
    # error c*h: the first-order elimination recovers the limit exactly
    limit, _ = extrapolate_sequence([1.5, 1.25], (1.0,))
    assert limit == 1.0
