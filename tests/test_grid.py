"""Tests for the finite-difference backend."""

import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eig_banded

from dunklqm import errata, spectra
from dunklqm import grid as gridmod
from dunklqm.grid import (
    GridOperator,
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
from dunklqm.refcalc import CoeffFn, FirstOrderRefOp, Grid
from dunklqm.spectra import spectrum_problem
from dunklqm.susyqm import (ScarfParams, SusySystem, oscillator_potential,
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
    w, v = np.linalg.eigh(op.gather_rows(np.arange(op.n)))
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
    nodes = np.arange(g.n)
    assert np.abs(via_susy.gather_rows(nodes)
                  - scalar.gather_rows(nodes)).max() < 1e-12


def test_mirror_symmetry_beta_flip():
    # R H_{a,b} R = H_{a,-b} as an exact matrix identity on the grid
    g = Grid(64, math.pi / 2)

    def h_matrix(beta):
        h = scarf_potential(ScarfParams(F(1), beta)).hamiltonian()
        return assemble(h[0, 0].f, h[0, 1].f, g).gather_rows(np.arange(g.n))

    h, hm = h_matrix(F(1, 2)), h_matrix(F(-1, 2))
    r = np.eye(64)[::-1]
    assert np.abs(r @ h @ r - hm).max() < 1e-12 * max(1, np.abs(h).max())


def test_eigen_lowest_small_cases():
    # a 4-node diagonal band: its sorted entries
    diag = GridOperator(np.array([[3.0, 1.0, 4.0, 2.0]]), Grid(4, 1.0))
    assert np.allclose(eigen_lowest(diag, 4), [1.0, 2.0, 3.0, 4.0])
    # a 2-node band with off-diagonal 1: the swap matrix, levels -1 and 1
    swap = GridOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), Grid(2, 1.0))
    assert np.allclose(eigen_lowest(swap, 2), [-1.0, 1.0])
    with pytest.raises(MethodLimitError):
        eigen_lowest(swap, 3)


def test_eigen_lowest_banded_matches_dense():
    pars = ScarfParams(F(1, 2), F(3, 2))
    pot = scarf_potential(pars)
    g = Grid(128, math.pi / 2)
    q = supercharge_matrix(pot.u.f, pot.v.f, g)
    dense = np.sort(np.linalg.eigvalsh(q.gather_rows(np.arange(q.n))))
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
    susy = gridmod.susy_squared_spectrum(
        supercharge_matrix(pot.u.f, pot.v.f, g), 1)[0]
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
    prob = spectrum_problem(SusySystem.oscillator(), 5)
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


SPLIT_SYSTEMS = {
    "scarf-1-3": (SusySystem.scarf(ScarfParams(F(1), F(3))), 3),
    "scarf-0-2": (SusySystem.scarf(ScarfParams(F(0), F(2))), 3),
    "oscillator": (SusySystem.oscillator(), 5),
}


@pytest.fixture
def no_leftovers():
    """Fails the test if it leaves a child unreaped or a descriptor open."""
    fds = len(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


def _stub(compute, single_core=True):
    return gridmod.Problem(name="stub", params={}, targets=(0.0,),
                           compute=compute, tolerance=1.0,
                           exponents=(2.0, 2.0), single_core=single_core)


@pytest.mark.parametrize("name", SPLIT_SYSTEMS)
def test_split_ladder_keeps_every_bit(name, no_leftovers):
    system, k = SPLIT_SYSTEMS[name]
    prob = spectrum_problem(system, k)
    ladder = [256, 512, 1024]
    rep = convergence_study(prob, ladder)
    values = np.asarray([lv["values"] for lv in rep.levels]).T
    assert prob.single_core
    assert values.tobytes() == \
        np.asarray([prob.compute(n) for n in ladder]).tobytes()


@pytest.mark.parametrize("single_core", [True, False])
def test_only_the_top_rung_of_a_split_ladder_runs_here(single_core,
                                                       no_leftovers):
    prob = _stub(lambda n: np.array([float(os.getpid())]), single_core)
    pids = gridmod._solve_ladder(prob, [8, 16, 32])
    here = [float(pid[0]) == os.getpid() for pid in pids]
    assert here == ([False, False, True] if single_core else [True] * 3)


def test_composite_ladder_runs_every_rung_here():
    # its BLAS product already keeps every core busy
    geg = SusySystem.gegenbauer(GegParams(F(1, 2), F(1)))
    assert not spectrum_problem(geg, 3).single_core


def _raise_at(rungs, exc_type=ValueError):
    def compute(n):
        if n in rungs:
            raise exc_type(f"rung {n}")
        return np.array([float(n)])
    return compute


@pytest.mark.parametrize("rungs, raised", [
    ({8, 32}, "rung 8"),      # the lower rung's exception, as in order
    ({16, 32}, "rung 16"),
    ({32}, "rung 32"),        # only the top rung fails
])
def test_split_ladder_raises_what_the_sequential_loop_raises(rungs, raised,
                                                             no_leftovers):
    with pytest.raises(ValueError, match=f"^{raised}$"):
        convergence_study(_stub(_raise_at(rungs)), [8, 16, 32])


def test_unpicklable_lower_rung_exception_is_raised_here(no_leftovers):
    class Local(Exception):   # pickle cannot find a class local to a test
        pass

    with pytest.raises(Local, match="^rung 16$"):
        convergence_study(_stub(_raise_at({16}, Local)), [8, 16, 32])


def test_split_ladder_survives_a_dead_child(no_leftovers):
    caller = os.getpid()

    def compute(n):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return np.array([float(n)])

    assert gridmod._solve_ladder(_stub(compute), [8, 16, 32]) == \
        [np.array([8.0]), np.array([16.0]), np.array([32.0])]


def test_child_inherits_the_floating_point_error_state(no_leftovers):
    def compute(n):
        return np.array([np.float64(1e308) * n])

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        gridmod._solve_ladder(_stub(compute), [8, 16, 32])


def test_interrupted_top_rung_kills_and_reaps_the_child(no_leftovers):
    caller = os.getpid()

    def compute(n):
        if os.getpid() != caller:
            time.sleep(60)
        raise KeyboardInterrupt

    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        gridmod._solve_ladder(_stub(compute), [8, 16, 32])
    assert time.monotonic() - t0 < 30


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("build", [
    lambda k: spectrum_problem(SusySystem.scarf(ScarfParams(1, 3)), k),
    lambda k: spectrum_problem(SusySystem.scarf(ScarfParams(0, 2)), k),
    lambda k: spectrum_problem(SusySystem.oscillator(), k),
    lambda k: spectrum_problem(SusySystem.gegenbauer(GegParams(F(1, 2), 1)), k),
], ids=["scarf-1-3", "scarf-0-2", "oscillator", "gegenbauer"])
def test_problem_without_levels_is_refused(build, k):
    # an empty report would pass all_within_tolerance; scipy and numpy
    # would otherwise refuse some of these with their own messages
    with pytest.raises(ValueError, match="at least one level"):
        build(k)


@pytest.mark.parametrize("name", spectra.__all__)
@pytest.mark.parametrize("system", [
    SusySystem.scarf(ScarfParams(1, 3)), SusySystem.scarf(ScarfParams(0, 2)),
    SusySystem.oscillator(), SusySystem.gegenbauer(GegParams(F(1, 2), 1))],
    ids=["scarf-1-3", "scarf-0-2", "oscillator", "gegenbauer"])
def test_every_spectra_name_returns_a_problem(name, system):
    # bench/tracer.py wraps each name of spectra.__all__ and replaces the
    # compute of the Problem it returns; the record constructors live in
    # susyqm, outside that list
    prob = getattr(spectra, name)(system, 2)
    assert type(prob) is gridmod.Problem
    assert callable(prob.compute) and len(prob.targets) == 2


def _supercharge_of(system, g):
    pot = system.potential
    return supercharge_matrix(pot.u.f, pot.v.f, g)


def _hamiltonian_of(system, g):
    h = system.potential.hamiltonian()
    return assemble(h[0, 0].f, h[0, 1].f, g)


@pytest.mark.parametrize("system, build, solve", [
    (SusySystem.scarf(ScarfParams(1, 3)), _supercharge_of,
     "susy_squared_spectrum"),
    (SusySystem.scarf(ScarfParams(0, 2)), _hamiltonian_of, "eigen_lowest"),
    (SusySystem.oscillator(), _hamiltonian_of, "eigen_lowest"),
    (SusySystem.gegenbauer(GegParams(F(1, 2), 1)), spectra._composite,
     "composite_spectrum")],
    ids=["scarf-1-3", "scarf-0-2", "oscillator", "gegenbauer"])
def test_each_spectrum_path_solves_what_it_builds(system, build, solve,
                                                  monkeypatch):
    # every path is one grid solver of (operator, k), handed the operator
    # that its builder makes on the problem's grid
    n, k, seen = 64, 3, []
    real = getattr(gridmod, solve)
    monkeypatch.setattr(gridmod, solve,
                        lambda op, kk: seen.append(op) or real(op, kk))
    values = spectrum_problem(system, k).compute(n)
    op = build(system, Grid(n, system.halfwidth))
    assert [s.band.tobytes() for s in seen] == [op.band.tobytes()]
    assert values.tobytes() == real(op, k).tobytes()


@pytest.mark.parametrize("ladder", [(256, 768, 2304), (100, 300, 900),
                                    (8, 16, 64), (32, 16, 8)])
def test_convergence_study_refuses_non_doubling_ladder(ladder):
    prob = gridmod.Problem(name="stub", params={}, targets=(1.0,),
                           compute=lambda n: np.array([1.0]),
                           tolerance=1e-6, exponents=(2.0, 2.0))
    with pytest.raises(ValueError, match="double"):
        convergence_study(prob, ladder)


def test_scarf_convergence_smooth_order_window():
    prob = spectrum_problem(SusySystem.scarf(ScarfParams(F(0), F(2))), 3)
    rep = convergence_study(prob, [512, 1024, 2048])
    assert rep.all_within_tolerance(1e-6)
    for lv in rep.levels:
        assert 1.7 <= lv["order"] <= 2.3


def test_gegenbauer_composite_checkerboard_filtered():
    system = SusySystem.gegenbauer(GegParams(F(1, 2), F(1)))
    vals = spectrum_problem(system, 6).compute(512)
    # all six smooth levels are physical: -lambda_n sorted
    targets = sorted(-float(v) for v in
                     [0, -8, -12, -24, -32, -48])[:6]
    assert np.abs(np.asarray(vals) - np.asarray(sorted(targets))).max() < 0.1


@pytest.mark.parametrize("mu, alpha", [(F(1, 2), F(1)), (F(1), F(1, 4)),
                                       (F(3, 2), F(2))])
def test_gegenbauer_corrections_give_derived_potentials(mu, alpha):
    # the Gegenbauer record's grid data: 2 H at Scarf (2 mu, 0) plus the
    # corrections is -D^2 + U0 + U1 R
    params = GegParams(mu, alpha)
    system = SusySystem.gegenbauer(params)
    assert system.potential.v.f(0.7) == scarf_potential(
        ScarfParams(2 * mu, F(0))).v.f(0.7)
    h = system.potential.hamiltonian()
    x = np.linspace(0.05, 1.5, 29) * np.resize([1.0, -1.0], 29)
    scalar, refl = system.corrections(x)
    derived = np.array([geg_potentials(params, t, "derived")[:2]
                        for t in x.tolist()])
    np.testing.assert_allclose(2 * h[0, 0].f(x) + scalar, derived[:, 0],
                               rtol=1e-13, atol=0)
    np.testing.assert_allclose(2 * h[0, 1].f(x) + refl, derived[:, 1],
                               rtol=1e-13, atol=0)


def test_gegenbauer_targets_at_mu_alpha_20_include_n_14_and_16():
    # the ten lowest levels run to n = 17; the grid finds 1329.95 and
    # 1551.92 on 256-1024
    targets = SusySystem.gegenbauer(GegParams(F(20), F(20))).targets(10)
    assert targets[7:] == (1330.0, 1552.0, 1722.0)


@pytest.mark.parametrize("mu, alpha, k", [
    (F(20), F(20), 10), (F(10), F(10), 5), (F(30), F(5), 5), (F(8), F(20), 7),
    (F(0), F(0), 7), (F(1, 2), F(-1, 2), 8), (F(3), F(-9, 10), 12)])
def test_gegenbauer_targets_are_the_k_lowest_levels(mu, alpha, k):
    params = GegParams(mu, alpha)
    levels = sorted(-float(eigenvalue_geg(n, params)) for n in range(4 * k))
    problem = spectrum_problem(SusySystem.gegenbauer(params), k)
    assert problem.targets == tuple(levels[:k])


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
    assert np.array_equal(op.gather_rows(np.arange(op.n)), dense)
    assert np.array_equal(op.band, _dense_band(dense))


@pytest.mark.parametrize("n", [4, 64, 256])
@pytest.mark.parametrize("ab", SCARF_SETS)
def test_supercharge_equals_dense_product(ab, n):
    pot = scarf_potential(ScarfParams(*ab))
    g = Grid(n, math.pi / 2)
    q = supercharge_matrix(pot.u.f, pot.v.f, g)
    dense = _dense_supercharge(pot, g)
    assert np.array_equal(q.gather_rows(np.arange(q.n)), dense)
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


@pytest.mark.parametrize("n", [2, 4, 64])
def test_assemble_refuses_an_odd_reflection_coefficient(n):
    # r R is symmetric iff r is even; the refusal compares r with its mirror
    # image to 1e-12 of max(1, the largest band entry)
    g, zero = Grid(n, 1.0), (lambda x: 0.0 * x)
    with pytest.raises(ValueError, match="reflection coefficient must be even"):
        assemble(zero, lambda x: x, g)
    odd_by_1e_13 = assemble(zero, lambda x: 1.0 + 1e-13 * x, g)
    assert np.abs(odd_by_1e_13.band).max() > 1.0


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("which", ["U", "V"])
def test_supercharge_refuses_a_non_finite_potential(which, bad):
    g = Grid(8, 1.0)
    fns = {"U": lambda x: 1.0 + 0.0 * x, "V": lambda x: x,
           which: lambda x: np.where(x > 0.5, bad, 1.0)}
    with pytest.raises(SingularPotentialError,
                       match=f"^{which} evaluated non-finite"):
        supercharge_matrix(fns["U"], fns["V"], g)


# The Gegenbauer supercharge: A = D + (alpha + 1/2) tan x - mu cot x R, with
# A^dagger = -D + (alpha + 1/2) tan x + mu cot x R, since cot is odd and so
# (cot x R)^dagger = R cot x = -cot x R. A annihilates |sin x|^mu
# cos^(alpha + 1/2) x, and A^dagger A = -D^2 + U0 + U1 R with the derived
# U0, U1 of geg_potentials. On the grid D is the central difference with
# ghost walls and P = diag((-1)^i); then P A P = A^T, so S = A P is
# symmetric, with pair bandwidth 2 (ROADMAP item 1b solves S).

GEG_A_SETS = [(F(1, 2), F(1)), (F(1), F(1, 4)), (F(0), F(1)), (F(3, 2), F(2))]


def _gegenbauer_a_terms(mu, alpha, g):
    """A's terms on ``g``, in the order grid._stencil_band sums them: D's two
    shifts, the scalar with D's ghost-wall entries, the R term."""
    x, n, c = g.nodes, g.n, 1.0 / (2 * g.h)
    scalar = np.r_[c, np.zeros(n - 2), -c] + (float(alpha) + 0.5) * np.tan(x)
    return [(1, False, np.full(n, c)), (-1, False, np.full(n, -c)),
            (0, False, scalar), (0, True, -(float(mu) / np.tan(x)))]


def _signed(terms, n, by_column):
    """The terms of (sum of terms) P if ``by_column``, else of P (sum of
    terms): each row's coefficient times (-1)^j, j its column (or row)."""
    i, out = np.arange(n), []
    for s, r, c in terms:
        j = (n - 1 - i - s if r else i + s) if by_column else i
        out.append((s, r, np.where(j % 2, -c, c)))
    return out


def _dense_gegenbauer_a(mu, alpha, g):
    """A as a dense node-ordered matrix: D, plus diag of the scalar, minus
    diag(mu cot x) R."""
    x, n, c = g.nodes, g.n, 1.0 / (2 * g.h)
    d = np.zeros((n, n))
    idx = np.arange(n - 1)
    d[idx, idx + 1] = c
    d[idx + 1, idx] = -c
    d[0, 0] += c
    d[-1, -1] -= c
    return ((d + np.diag((float(alpha) + 0.5) * np.tan(x)))
            - np.diag(float(mu) / np.tan(x))[:, ::-1])


@pytest.mark.parametrize("n", [2, 4, 64, 256])
@pytest.mark.parametrize("mu, alpha", GEG_A_SETS)
def test_gegenbauer_s_band_equals_dense_a_times_p(mu, alpha, n):
    g = Grid(n, math.pi / 2)
    band = gridmod._stencil_band(
        _signed(_gegenbauer_a_terms(mu, alpha, g), n, by_column=True), n)
    # P flips whole columns; + 0.0 turns a structural zero's -0.0 into the
    # band's +0.0
    dense = _dense_gegenbauer_a(mu, alpha, g) * np.resize([1.0, -1.0], n) + 0.0
    assert band.shape[0] == min(3, n)  # pair bandwidth 2
    assert band.tobytes() == _dense_band(dense).tobytes()


@pytest.mark.parametrize("n", [4, 64, 2048])
@pytest.mark.parametrize("mu, alpha", GEG_A_SETS[:3])
def test_gegenbauer_a_pairs_with_its_transpose(mu, alpha, n):
    # P A P = A^T iff A P = P A^T; both bands are built from terms, and the
    # upper band of A P decides its symmetry. D^T swaps D's shifts, and row i
    # of A^T's R term is row N-1-i of A's: -mu cot x at the mirrored node,
    # equal to +mu cot x up to the rounding of the mirrored nodes.
    g = Grid(n, math.pi / 2)
    a = _gegenbauer_a_terms(mu, alpha, g)
    (_, _, c), (_, _, minus_c), scalar, (_, _, refl) = a
    a_t = [(1, False, minus_c), (-1, False, c), scalar, (0, True, refl[::-1])]

    def bands(terms, by_column):
        """The bands of the D and scalar terms and of the R term, signed."""
        return [gridmod._stencil_band(_signed(part, n, by_column), n)
                for part in (terms[:3], terms[3:])]

    (ap_local, ap_refl), (pat_local, pat_refl) = bands(a, True), bands(a_t, False)
    assert ap_local.tobytes() == pat_local.tobytes()
    scale = np.abs(gridmod._stencil_band(a, n)).max()
    assert np.abs(ap_refl - pat_refl).max() <= np.finfo(float).eps * scale


@pytest.mark.parametrize("mu, alpha", GEG_A_SETS)
def test_gegenbauer_a_dagger_a_is_the_derived_hamiltonian(mu, alpha):
    tan = CoeffFn.tan().scale(float(alpha) + 0.5)
    cot = CoeffFn(lambda x: 1.0 / np.tan(x), lambda x: -1.0 / np.sin(x) ** 2)
    a = FirstOrderRefOp.build(p=CoeffFn.const(1.0), q=tan,
                              r=cot.scale(-float(mu)))
    a_dagger = FirstOrderRefOp.build(p=CoeffFn.const(-1.0), q=tan,
                                     r=cot.scale(float(mu)))
    x = np.linspace(0.05, 1.5, 29) * np.resize([1.0, -1.0], 29)
    words = a_dagger.compose(a).coefficient_arrays(x)
    derived = np.array([geg_potentials(GegParams(mu, alpha), t, "derived")[:2]
                        for t in x.tolist()])
    assert not any(words.pop(w).any() for w in [(1, 0), (1, 1)] if w in words)
    assert set(words) == {(2, 0), (0, 0), (0, 1)}
    assert np.all(words[2, 0] == -1.0)
    np.testing.assert_allclose(words[0, 0], derived[:, 0], rtol=1e-13, atol=0)
    np.testing.assert_allclose(words[0, 1], derived[:, 1], rtol=1e-13, atol=0)


def _gegenbauer_operator(mu, alpha, n, k):
    """The operator the Gegenbauer problem hands to composite_spectrum, which
    is not run."""
    seen = []
    real = gridmod.composite_spectrum
    gridmod.composite_spectrum = lambda op, kk: seen.append(op) or np.zeros(kk)
    try:
        spectrum_problem(SusySystem.gegenbauer(GegParams(mu, alpha)), k).compute(n)
    finally:
        gridmod.composite_spectrum = real
    return seen[0]


def _band_and_dense_reference(mu, al, n):
    """(the Gegenbauer band, the band of the whole 2 Q @ Q formed at once
    with the corrections added on the two diagonals only)"""
    op = _gegenbauer_operator(mu, al, n, 1)
    g = Grid(n, math.pi / 2)
    q = _dense_supercharge(scarf_potential(ScarfParams(2 * mu, F(0))), g)
    x, m, a = g.nodes, float(mu), float(al)
    h = 2.0 * (q @ q)
    i = np.arange(n)
    h[i, i] += ((a**2 - 0.25) / np.cos(x) ** 2 - (m + a + 0.5) ** 2
                + (2 * a + 1) * m)
    h[i, n - 1 - i] += -m * (1.0 / (1.0 + np.cos(x)) + (2 * a + 1))
    return op.band, _dense_band(0.5 * (h + h.T))


GEG_BAND_SETS = [(F(1, 2), F(1)), (F(1, 2), F(0)), (F(20), F(20)),
                 (F(1, 3), F(-1, 2))]


def _fresh_python(script, **env):
    """Run ``script`` in a new interpreter that imports this checkout's
    package; returns its stdout."""
    src = str(Path(gridmod.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the sizes where other block heights, block orders or column counts broke
# the bits: 128 and 130 are one whole block, 514 and 600 end in a middle
# block of 130 and 88 rows
@pytest.mark.parametrize("n", [2, 128, 130, 256, 514, 600, 1024, 2048])
@pytest.mark.parametrize("mu, al", GEG_BAND_SETS)
def test_gegenbauer_band_equals_dense_construction(mu, al, n):
    # each row block multiplies only the columns of its pair window; the
    # bytes compare the signs of zeros too
    band, ref = _band_and_dense_reference(mu, al, n)
    assert band.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [600, 2048])
def test_gegenbauer_band_equals_dense_construction_on_one_blas_thread(n):
    # OpenBLAS splits a product between its threads, so the bits are
    # checked again on one thread, band and reference in the same process
    out = _fresh_python(f"""
        import sys
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        from test_grid import GEG_BAND_SETS, _band_and_dense_reference

        for mu, al in GEG_BAND_SETS:
            band, ref = _band_and_dense_reference(mu, al, {n})
            print(band.tobytes() == ref.tobytes())
        """, OPENBLAS_NUM_THREADS="1")
    assert out.split() == ["True"] * len(GEG_BAND_SETS)


@pytest.mark.parametrize("n, height, blocks", [
    pytest.param(64, None, [(0, 64)], id="64"),
    # up to three blocks' worth of rows is one whole block
    pytest.param(130, None, [(0, 130)], id="130"),
    pytest.param(192, None, [(0, 192)], id="192"),
    # one pair of 64-row blocks, then a 66-row middle block, its own mirror
    pytest.param(194, None, [(0, 64), (130, 194), (64, 130)], id="194"),
    pytest.param(600, None, [b for r in range(0, 256, 64)
                             for b in ((r, r + 64), (536 - r, 600 - r))]
                 + [(256, 344)], id="600"),
    pytest.param(1024, None, [b for r in range(0, 448, 64)
                              for b in ((r, r + 64), (960 - r, 1024 - r))]
                 + [(448, 576)], id="1024"),
    pytest.param(2048, None, [b for r in range(0, 960, 64)
                              for b in ((r, r + 64), (1984 - r, 2048 - r))]
                 + [(960, 1088)], id="2048"),
    # other heights: single rows, then a 2-row middle
    pytest.param(6, 1, [(0, 1), (5, 6), (1, 2), (4, 5), (2, 4)],
                 id="6-single-rows"),
    # five-row blocks in mirror pairs, then a 14-row middle block
    pytest.param(64, 5, [b for r in range(0, 25, 5)
                         for b in ((r, r + 5), (59 - r, 64 - r))]
                 + [(25, 39)], id="64-five-rows"),
])
def test_row_blocks_come_in_mirror_pairs(n, height, blocks, monkeypatch):
    # the block layout that keeps the bits of the Gegenbauer product: every
    # row once, each lower-half block right before its mirror image
    if height is not None:
        monkeypatch.setattr(gridmod, "_BLOCK_ROWS", height)
    assert gridmod._row_blocks(n) == blocks


@pytest.mark.parametrize("n", [2, 6, 64, 600])
def test_gather_rows_holds_only_the_band_entries_of_those_rows(n):
    g = Grid(n, math.pi / 2)
    pot = scarf_potential(ScarfParams(F(1), F(3)))
    q = supercharge_matrix(pot.u.f, pot.v.f, g)
    dense = _dense_supercharge(pot, g)
    nodes = np.array(sorted({0, n // 2, n - 1}))
    pos = np.argsort([i for p in range(n // 2) for i in (p, n - 1 - p)])
    near = np.abs(pos[nodes][:, None] - pos) <= q.band.shape[0] - 1
    out = q.gather_rows(nodes)
    assert out.shape == (len(nodes), n)
    assert out[near].tobytes() == dense[nodes][near].tobytes()
    # every entry off the band is +0
    assert out[~near].tobytes() == bytes(8 * int((~near).sum()))
    assert q.gather_rows(nodes[::-1]).tobytes() == out[::-1].tobytes()


def test_gegenbauer_compute_never_holds_the_product():
    # one block's operands are O(64 N) floats; forming 2 Q @ Q whole, or a
    # block of its rows times an N x N operand, reached 8 N^2 bytes or more
    n = 4096
    tracemalloc.start()
    try:
        system = SusySystem.gegenbauer(GegParams(F(1, 2), F(1)))
        spectrum_problem(system, 3).compute(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 8 * n


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmHWM from /proc/self/status")
def test_gegenbauer_compute_resident_growth():
    # after a warm-up at N = 256, the solve at N = 2048 raises the process's
    # peak RSS by less than a quarter of one dense Q; an N x N operand that
    # held only the rows of Q a block reads raised it by ~21 MiB, a dense
    # one by ~40 MiB. The peak is VmHWM, the high-water mark of the fresh
    # process's own memory map: its ru_maxrss would start at the peak RSS
    # of the process that spawned it.
    n = 2048
    out = _fresh_python(f"""
        from fractions import Fraction
        from dunklqm.gegenbauer import GegParams
        from dunklqm.spectra import spectrum_problem
        from dunklqm.susyqm import SusySystem

        def peak():
            with open("/proc/self/status") as status:
                line = next(s for s in status if s.startswith("VmHWM:"))
            return int(line.split()[1]) * 1024

        compute = spectrum_problem(SusySystem.gegenbauer(
            GegParams(Fraction(1, 2), Fraction(1))), 3).compute
        compute(256)
        before = peak()
        compute({n})
        print(peak() - before)
        """)
    assert int(out) < 2 * n * n


@pytest.mark.parametrize("mu, alpha", [(F(1, 2), F(1)), (F(1), F(1, 4)),
                                       (F(3, 2), F(2))])
def test_composite_filter_matches_dense_eigenvectors(mu, alpha, monkeypatch):
    k = 6
    op = _gegenbauer_operator(mu, alpha, 512, k)
    fractions = []
    real = gridmod.checkerboard_fraction
    monkeypatch.setattr(gridmod, "checkerboard_fraction",
                        lambda v: fractions.append(real(v)) or fractions[-1])
    vals = gridmod.composite_spectrum(op, k)
    n_scan = 4 * k + 8
    _, vecs = np.linalg.eigh(op.gather_rows(np.arange(op.n)))
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
        scarf = gridmod.susy_squared_spectrum(
            supercharge_matrix(pot.u.f, pot.v.f, Grid(8192, math.pi / 2)), 3)
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
