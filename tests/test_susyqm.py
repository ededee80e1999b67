"""Tests for the SUSY QM layer: gauged supercharge, Scarf wavefunctions,
intertwiners, operator relations, and the oscillator."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from dunklqm import grid as gridmod
from dunklqm import refcalc as refc
from dunklqm.exact import DomainError
from dunklqm.jacobi import (
    FUZZ_PARAMS,
    eigenvalue,
)
from dunklqm.opalg import (
    DegenerateSpectrumError,
    Poly,
    construct_eigen,
    matrix_on_basis,
    unchecked,
)
from dunklqm.susyqm import (
    FockVector,
    ScarfParams,
    SusyPotential,
    _TEST_FNS,
    _laguerre,
    bracket_n,
    gauged_supercharge,
    gauged_y_corrected,
    ground_state,
    ground_state_norm_sq,
    hermite_superposition,
    intertwiner,
    osc_energy,
    osc_h_apply,
    osc_mixed_state,
    osc_q_apply,
    osc_r_apply,
    osc_wavefunction,
    oscillator_potential,
    scarf_H_parts_explicit,
    scarf_energy,
    scarf_potential,
    scarf_relations,
    supercharge_eigenvalue_scaled,
    verify_lowering,
    verify_operator_relations,
    verify_raising,
    wavefunction_fn,
)
from dunklqm.opalg import dunkl


def pars(a, b):
    return ScarfParams(F(a), F(b))


# -- generic construction ----------------------------------------------------

def test_generic_h_parts_oscillator():
    h = oscillator_potential().hamiltonian()
    x = np.linspace(-1, 1, 11)
    assert np.allclose(h[0, 0].f(x), 0.5 * x**2)
    assert np.allclose(h[0, 1].f(x), -0.5)


def test_generic_h_parts_constant_u():
    p = SusyPotential(u=refc.CoeffFn.const(3.0), v=refc.CoeffFn.zero())
    h = p.hamiltonian()
    x = np.linspace(-1, 1, 5)
    assert np.allclose(h[0, 0].f(x), 4.5)
    assert np.allclose(h[0, 1].f(x), 0.0)


def test_generic_h_parts_match_bracketed_scarf_form():
    p = pars(1, 2)
    h = scarf_potential(p).hamiltonian()
    scalar_e, refl_e = scarf_H_parts_explicit(p)
    x = np.array([0.5, -0.9, 1.2])
    assert np.allclose(h[0, 0].f(x), scalar_e(x), atol=1e-13)
    assert np.allclose(h[0, 1].f(x), refl_e(x), atol=1e-13)


@pytest.mark.parametrize("probe", sorted(_TEST_FNS))
def test_oscillator_q_squared_equals_h_exactly(probe):
    # Q = (DR + x)/sqrt(2) squares to H = -D^2/2 + x^2/2 - R/2 by exact
    # composition, so the residual is rounding only
    pot = oscillator_potential()
    q = pot.supercharge()
    relation = refc.Relation((refc.Chain(1, (q, q), False),),
                             (refc.Chain(1, (pot.hamiltonian(),), False),))
    x = np.linspace(-5, 5, 401)
    assert np.abs(relation.residual().apply(_TEST_FNS[probe], x)).max() < 1e-12


def test_susy_potential_parity():
    p = scarf_potential(pars("1/2", "3/2"))
    xs = np.linspace(0.1, 1.4, 7)
    assert p.check_parity(xs) < 1e-12


# -- gauged supercharge -------------------------------------------------------

def test_gauged_supercharge_spectrum_exact():
    for a, b in FUZZ_PARAMS:
        p = ScarfParams(a, b)
        q = gauged_supercharge(p)
        for n in range(21):
            pn = construct_eigen(n, p)
            s = supercharge_eigenvalue_scaled(n, p)
            assert q.apply(pn) == pn.scale(s)
            assert s * s / 8 == scarf_energy(n, p)


def test_supercharge_consistency_with_eigenvalue_equation():
    # lambda_n = s_n + (a+b+1), with s_n the scaled supercharge eigenvalue
    for a, b in FUZZ_PARAMS:
        p = ScarfParams(a, b)
        for n in range(21):
            assert eigenvalue(n, p) == \
                supercharge_eigenvalue_scaled(n, p) + (a + b + 1)


def test_gauged_supercharge_ground_state_scale():
    q = gauged_supercharge(pars(0, 0))
    assert q.apply(Poly.one()) == Poly((-1,))


def test_scarf_energy_values():
    assert scarf_energy(0, pars(0, 0)) == F(1, 8)
    assert scarf_energy(1, pars(0, 2)) == F(25, 8)
    assert scarf_energy(2, pars(1, 3)) == F(81, 8)
    with pytest.raises(ValueError):
        scarf_energy(-1, pars(0, 0))


# -- wavefunctions ------------------------------------------------------------

def test_ground_state_norm_constants():
    assert abs(ground_state_norm_sq(pars(0, 0)) - 1 / math.pi) < 1e-13
    assert abs(ground_state_norm_sq(pars(1, 1)) - 1.0) < 1e-13


def test_ground_state_values_and_domain():
    p = pars(1, 1)
    assert ground_state(0.0, p) == 0.0
    with pytest.raises(DomainError):
        ground_state(2.0, p)
    g0 = wavefunction_fn(0, p)
    assert abs(g0(np.array([0.7]))[0] - ground_state(0.7, p)) < 1e-14


def test_wavefunction_zero_is_ground_state():
    p = pars("1/2", "3/2")
    for x in (0.3, -0.8):
        assert abs(wavefunction_fn(0, p)(x) - ground_state(x, p)) < 1e-14


@pytest.mark.parametrize("a, b", [(0, 0), (1, 1), ("1/2", "3/2"), (2, "1/5"),
                                  ("-1/2", "3")])
def test_wavefunction_zero_is_the_ground_state_expression_bitwise(a, b):
    # N_0 |sin x|^(a/2) cos^(b/2) x (1 + sin x)^(1/2), in this float order:
    # n = 0 multiplies it by exactly 1.0 twice
    p = pars(a, b)
    x = gridmod.Grid(512, math.pi / 2).nodes
    af, bf = float(p.alpha), float(p.beta)
    n0 = math.sqrt(ground_state_norm_sq(p))
    ref = n0 * np.abs(np.sin(x)) ** (af / 2) * np.cos(x) ** (bf / 2) \
        * np.sqrt(1 + np.sin(x))
    assert wavefunction_fn(0, p)(x).tobytes() == ref.tobytes()


# -- intertwiners -------------------------------------------------------------

def _unnormalized_ground(x, a, b):
    """|sin x|^(a/2) cos^(b/2) x (1 + sin x)^(1/2): the ground state at (a, b)
    up to its norm."""
    return np.abs(np.sin(x)) ** (a / 2) * np.cos(x) ** (b / 2) * np.sqrt(1 + np.sin(x))


def _gauged_on_monomials(op, params, shift, degree, x):
    """The analytic ``op``, a map from b to b + ``shift``, in the polynomial
    picture y = sin x: Psi_{b+shift}^-1 op (Psi_b y^k) at the nodes ``x``,
    one row per k <= ``degree``, applied exactly through known derivatives."""
    a, b = float(params.alpha), float(params.beta)

    def unused(t):
        raise AssertionError("a first-order map reads no second derivative")

    def log_derivative(t):
        s, c = np.sin(t), np.cos(t)
        return (a / 2) * c / s - (b / 2) * s / c + c / (2 * (1 + s))

    rows = []
    for k in range(degree + 1):
        u = refc.ProbeFn(
            lambda t, k=k: _unnormalized_ground(t, a, b) * np.sin(t) ** k,
            lambda t, k=k: _unnormalized_ground(t, a, b) * (
                log_derivative(t) * np.sin(t) ** k
                + k * np.cos(t) * np.sin(t) ** (k - 1)),
            unused)
        rows.append(op.apply(u, x) / _unnormalized_ground(x, a, b + shift))
    return np.array(rows)


GAUGE_NODES = np.linspace(-1.3, 1.3, 26)


def test_corrected_x_is_dunkl_on_polynomials():
    # the analytic corrected X, conjugated by the ground states of b and
    # b + 2, acts on y^k as T_{a/2} does, through degree 20
    y = np.sin(GAUGE_NODES)
    for a, b in [(F(0), F(0)), (F(1, 2), F(3, 2)), (F(1), F(1))]:
        p = ScarfParams(a, b)
        lhs = _gauged_on_monomials(intertwiner(p, "X", "corrected"), p, 2, 20,
                                   GAUGE_NODES)
        rhs = np.array(matrix_on_basis(dunkl(a / 2), 20), dtype=float).T \
            @ np.vander(y, 21, increasing=True).T
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_corrected_y_is_its_gauged_form_on_polynomials():
    # likewise the analytic corrected Y (b -> b - 2) and gauged_y_corrected
    y = np.sin(GAUGE_NODES)
    for a, b in [(F(0), F(0)), (F(1, 2), F(3, 2)), (F(1), F(1))]:
        p = ScarfParams(a, b)
        lhs = _gauged_on_monomials(intertwiner(p, "Y", "corrected"), p, -2, 20,
                                   GAUGE_NODES)
        gauged = gauged_y_corrected(p)
        rhs = np.array([gauged.apply(Poly.monomial(k))(y) for k in range(21)])
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_lowering_map_exact():
    for a, b in FUZZ_PARAMS:
        res = verify_lowering(ScarfParams(a, b), 20)
        assert all(res)


def test_bracket_values():
    assert bracket_n(0, F(1)) == 0
    assert bracket_n(1, F(0)) == 1
    assert bracket_n(3, F(1, 2)) == F(7, 2)
    assert bracket_n(4, F(1, 2)) == 4


def test_raising_map_corrected_scalar():
    for a, b in FUZZ_PARAMS:
        res, _ = verify_raising(ScarfParams(a, b), 12)
        checked = [r for r in res if r is not None]
        assert checked and all(checked)


def test_maps_refuse_a_degenerate_source_family():
    # at (0, -2) lambda_1 = lambda_0 = 0, so P_1 of the source is undefined
    p = unchecked(ScarfParams, 0, -2)
    with pytest.raises(DegenerateSpectrumError, match="degree 1 "):
        verify_lowering(p, 4)
    with pytest.raises(DegenerateSpectrumError, match="degree 1 "):
        verify_raising(p, 4)


def test_unchecked_scarf_params_continue_the_family_past_its_domain():
    # the b - 2 targets of the raising map leave beta > -1; the unchecked
    # object is the family's own, with its operator and eigenvalues
    with pytest.raises(ValueError, match="alpha, beta > -1"):
        ScarfParams(0, -2)
    p = unchecked(ScarfParams, 1, F(-3, 2))
    assert type(p) is ScarfParams
    assert (p.alpha, p.beta) == (F(1), F(-3, 2))
    assert p.label() == "alpha=1, beta=-3/2"
    for n in range(8):
        pn = construct_eigen(n, p)
        assert pn.degree == n
        assert p.operator().apply(pn) == pn.scale(eigenvalue(n, p))
    res, _ = verify_raising(pars(1, "1/2"), 6)
    assert all(res)


def test_raising_map_printed_scalar_fails():
    _, res = verify_raising(pars("1/2", "3/2"), 4)
    checked = [r for r in res if r is not None]
    assert not any(checked)


def test_raising_map_runs_once_per_parameter_set(monkeypatch):
    from dunklqm import cli, errata, susyqm

    calls = []

    def counting(params, max_n):
        calls.append((params.alpha, params.beta, max_n))
        return verify_raising(params, max_n)

    monkeypatch.setattr(susyqm, "verify_raising", counting)
    assert cli._suite_intertwiners(lambda msg: None, 12) == (True, 31)
    assert calls == [(a, b, 12) for a, b in FUZZ_PARAMS]
    calls.clear()
    monkeypatch.setattr(errata, "verify_raising", counting)
    errata.build_errata()
    assert calls == [(F(1, 2), F(3, 2), 12)]


def test_printed_x_fails_to_annihilate_ground_state():
    # grid application of the printed X on Psi_0 equals -(1/2) tan(x) Psi_0
    p = pars(1, 1)
    g = gridmod.Grid(2048, math.pi / 2)
    psi0 = wavefunction_fn(0, p)(g.nodes)
    out_p = intertwiner(p, "X", "printed").stencil(g)(psi0)
    out_c = intertwiner(p, "X", "corrected").stencil(g)(psi0)
    mask = (np.abs(g.nodes) > 0.1) & (np.abs(np.abs(g.nodes) - g.halfwidth) > 0.1)
    target = -0.5 * np.tan(g.nodes) * psi0
    # finite-difference application: tolerances at the O(h^2) stencil level
    assert np.abs(out_p[mask] - target[mask]).max() < 1e-3
    assert np.abs(out_c[mask]).max() < 1e-3
    assert np.abs(out_p[mask]).max() > 0.05


def _reference_intertwiner_grid(u, g, which, variant, params):
    """The intertwiner by central differences, written out from its printed
    coefficients: sign u' + (t tan x - sec x/2) u - (a/2)(1 + sign csc x) Ru,
    added in that order onto zeros."""
    sign = 1 if which == "X" else -1
    b = params.beta
    t = float(b / 2 if variant == "printed" else (b + sign) / 2)
    x, h = g.nodes, g.h
    du = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2*h)
    du[0] = (u[1] - u[0]) / h
    du[-1] = (u[-1] - u[-2]) / h
    out = np.zeros_like(u)
    out += sign * np.ones_like(x) * du
    out += (t * np.tan(x) - 0.5 / np.cos(x)) * u
    out += -(float(params.alpha) / 2) * (1 + sign / np.sin(x)) * u[::-1]
    return out


@pytest.mark.parametrize("a, b", [(1, 1), (0, 1), ("1/2", "3/2"), (2, "1/5")])
def test_intertwiner_stencil_matches_reference_bitwise(a, b):
    p = pars(a, b)
    for n in (1024, 2048):
        g = gridmod.Grid(n, math.pi / 2)
        for u in (wavefunction_fn(0, p)(g.nodes), np.exp(-g.nodes**2) * (1 + g.nodes)):
            for which in "XY":
                for variant in ("printed", "corrected"):
                    out = intertwiner(p, which, variant).stencil(g)(u)
                    ref = _reference_intertwiner_grid(u, g, which, variant, p)
                    assert out.tobytes() == ref.tobytes(), (which, variant, n)


def test_intertwiner_variant_validation():
    with pytest.raises(ValueError):
        intertwiner(pars(0, 0), "Z")
    with pytest.raises(ValueError):
        intertwiner(pars(0, 0), "X", "fixed")


# -- operator relations on the grid -------------------------------------------

@pytest.fixture(scope="module")
def relations_report():
    return verify_operator_relations(pars(0, 1), grids=(512, 1024, 2048))


def _pick(report, relation, variant):
    for r in report:
        if r["relation"] == relation and r["variant"] == variant:
            return r
    raise KeyError((relation, variant))


def test_relations_corrected_all_pass(relations_report):
    for rel in ("q_squared_equals_h", "reflection_conjugation_Q",
                "reflection_conjugation_H"):
        assert _pick(relations_report, rel, "n/a")["residual"] < 1e-8
    for rel in ("intertwine_X", "intertwine_Y", "product_repaired_indices"):
        assert _pick(relations_report, rel, "corrected")["residual"] < 1e-8


def test_relations_verdicts_are_the_expected_ones(relations_report):
    assert [(r["relation"], r["variant"]) for r in relations_report
            if r["verdict"] != r["expected"]] == []
    assert {r["expected"] for r in relations_report} == {"identity", "defect"}


def test_relations_fd_convergence_order(relations_report):
    r = _pick(relations_report, "q_squared_equals_h", "n/a")
    assert r["order"] >= 1.7
    assert _pick(relations_report, "intertwine_X", "corrected")["order"] >= 1.7


def test_relation_rows_hold_only_the_fields_read(relations_report):
    assert len(relations_report) == 11
    for r in relations_report:
        assert set(r) == {"relation", "variant", "fd_norms", "order",
                          "residual", "verdict", "expected"}


def test_relations_printed_defects_recorded(relations_report):
    assert _pick(relations_report, "intertwine_X", "printed")["residual"] > 1e-3
    assert _pick(relations_report, "intertwine_Y", "printed")["residual"] > 1e-3
    # the typeset-index product relation is satisfied by the printed maps
    assert _pick(relations_report, "product_typeset_indices",
                 "printed")["residual"] < 1e-8
    assert _pick(relations_report, "product_typeset_indices",
                 "corrected")["residual"] > 1e-3
    assert _pick(relations_report, "product_repaired_indices",
                 "printed")["residual"] > 1e-3


def test_residual_extrapolation_on_synthetic_ladders():
    from dunklqm.susyqm import _fd_order

    # ratio-4 geometric ladder onto 1/4: order 2
    assert _fd_order([0.75, 0.375, 0.28125]) == 2.0
    # non-monotone and flat ladders: no order
    for norms in ([0.1, 0.05, 0.07], [0.1, 0.1, 0.05], [1e-3, 1e-3, 1e-3],
                  [0.1, 0.05, 0.05 - 5e-15], [0.3, 0.2, 0.2 + 5e-15]):
        assert math.isnan(_fd_order(norms))
    # orders below 0.25 and above 6 are clamped (reported as a clamp, not a
    # measurement, only once the report can say "unknown")
    for ratio, clamped in ((2.0 ** 0.1, 0.25), (2.0 ** 8, 6.0)):
        r3, d2 = 0.5, 1e-4
        assert _fd_order([r3 + d2 + ratio * d2, r3 + d2, r3]) == clamped
    assert _fd_order([1.0, 0.5, 0.1]) == pytest.approx(math.log2(1.25),
                                                        rel=1e-12)


def test_parity_conjugation_pointwise_example():
    # R Q_{a,b} R + Q_{a,-b} annihilates a generic smooth function on the grid
    p = pars(1, "1/2")
    rep = verify_operator_relations(p, grids=(256, 512, 1024))
    assert _pick(rep, "reflection_conjugation_Q", "n/a")["residual"] < 1e-10


def test_errata_product_residuals_are_the_relation_report_residuals():
    # errata evaluates only the product relations, on the finest grid of the
    # ladder it reports; each value is the report's, float for float
    from dunklqm import errata

    report = verify_operator_relations(pars(1, "1/2"), grids=(256, 512, 1024))
    evidence = errata._product_relation_placement()["evidence"]
    keys = {"typeset_placement_printed_ops_residual":
            ("product_typeset_indices", "printed"),
            "typeset_placement_corrected_ops_residual":
            ("product_typeset_indices", "corrected"),
            "repaired_placement_corrected_ops_residual":
            ("product_repaired_indices", "corrected"),
            "repaired_placement_printed_ops_residual":
            ("product_repaired_indices", "printed")}
    assert sorted(k for k in evidence if k.endswith("_ops_residual")) == sorted(keys)
    for key, (relation, variant) in keys.items():
        assert (evidence[key].hex()
                == _pick(report, relation, variant)["residual"].hex()), key


def test_scarf_relations_list_each_identity_once_in_report_order():
    from pathlib import Path

    golden = (Path(__file__).parent / "golden" / "verify-relations.txt")
    printed_order = [line.split(": ")[1] for line in
                     golden.read_text().splitlines()]
    listed = [f"{name}[{variant}]"
              for name, variant, *_ in scarf_relations(pars(0, 1))]
    assert listed == printed_order
    shared = ["q_squared_equals_h", "reflection_conjugation_Q",
              "reflection_conjugation_H"]
    per_variant = ["intertwine_X", "intertwine_Y", "product_repaired_indices",
                   "product_typeset_indices"]
    pairs = [(name, variant)
             for name, variant, *_ in scarf_relations(pars(0, 1))]
    assert pairs == ([(name, "n/a") for name in shared]
                     + [(name, v) for v in ("corrected", "printed")
                        for name in per_variant])


def test_eigenfunction_probe_is_ground_state_times_p2():
    from dunklqm.susyqm import _test_functions
    for p in (pars("1/2", "3/2"), pars(2, "1/5")):
        g = gridmod.Grid(256, math.pi / 2)
        ref = (wavefunction_fn(0, p)(g.nodes)
               * construct_eigen(2, p)(np.sin(g.nodes)))
        probe = _test_functions(p, g)["eigenfunction-2"]
        assert probe.tobytes() == ref.tobytes()


def _qq_vs_h_orders(pot, halfwidth, grids):
    hamiltonian = pot.hamiltonian()
    errs = []
    for n in grids:
        g = gridmod.Grid(n, halfwidth)
        q = gridmod.supercharge_matrix(pot.u.f, pot.v.f, g)
        h = gridmod.assemble(hamiltonian[0, 0].f, hamiltonian[0, 1].f, g)
        f = np.exp(-g.nodes**2) * np.cos(g.nodes * math.pi / (2 * halfwidth)) ** 2
        mask = (np.abs(g.nodes) > 0.06) \
            & (np.abs(np.abs(g.nodes) - g.halfwidth) > 0.06 * halfwidth)
        res = (q.matrix @ (q.matrix @ f) - h.matrix @ f)
        errs.append(np.abs(res[mask]).max())
    return np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])


def test_q_matrix_squared_matches_h_matrix_order():
    # matrix product Q.Q approaches the assembled H at second order on
    # smooth test vectors, for both the Scarf and oscillator systems
    order = _qq_vs_h_orders(scarf_potential(pars(0, 2)), math.pi / 2,
                            (256, 512, 1024))
    assert min(order) >= 1.7
    order = _qq_vs_h_orders(oscillator_potential(), 10.0, (256, 512, 1024))
    assert min(order) >= 1.7


# -- oscillator ---------------------------------------------------------------

def test_osc_q_action_matches_closed_form():
    for n in range(13):
        v = FockVector.basis(n)
        img = osc_q_apply(v)
        if n % 2 == 0:
            expected = FockVector({n - 1: math.sqrt(n)}) if n else FockVector()
        else:
            expected = FockVector({n + 1: math.sqrt(n + 1)})
        assert img.distance(expected) < 1e-12


def test_osc_energy_values():
    assert [osc_energy(n) for n in range(5)] == [0, 2, 2, 4, 4]
    with pytest.raises(ValueError):
        osc_energy(-2)


def test_osc_h_reproduces_energies_and_q_squared():
    for n in range(13):
        v = FockVector.basis(n)
        hv = osc_h_apply(v)
        assert hv.distance(v.scale(osc_energy(n))) < 1e-12
        qqv = osc_q_apply(osc_q_apply(v))
        assert qqv.distance(hv) < 1e-12


def test_osc_mixed_states():
    for n in range(6):
        for eps in (+1, -1):
            st = osc_mixed_state(n, eps)
            assert abs(st.norm() - 1 / math.sqrt(2)) < 1e-14
            qs = osc_q_apply(st)
            assert qs.distance(st.scale(eps * math.sqrt(2 * n + 2))) < 1e-12
            assert osc_r_apply(st).distance(
                osc_mixed_state(n, -eps).scale(-1)) < 1e-14
    with pytest.raises(ValueError):
        osc_mixed_state(0, 2)


def test_osc_wavefunction_vs_hermite_n0():
    # printed Laguerre form at n=0 equals sqrt(2) times the Hermite
    # superposition under the epsilon pairing eps -> -eps
    for eps in (+1, -1):
        for x in (0.5, -0.7, 1.3):
            ratio = osc_wavefunction(0, eps, x) / hermite_superposition(0, -eps, x)
            assert abs(ratio - math.sqrt(2)) < 1e-10


def test_osc_wavefunction_corrected_weight_constant():
    # with relative weight sqrt(n+1) the ratio is exactly 2^(1/2 - n)
    for n in range(4):
        for eps in (+1, -1):
            for x in (0.4, -0.9):
                r = osc_wavefunction(n, eps, x, "corrected") \
                    / hermite_superposition(n, -eps, x)
                assert abs(r - 2.0 ** (0.5 - n)) < 1e-10


def test_osc_wavefunction_printed_weight_breaks_for_n_ge_1():
    vals = [osc_wavefunction(1, 1, x) / hermite_superposition(1, -1, x)
            for x in (0.4, 0.9)]
    assert abs(vals[0] - vals[1]) > 1e-3


def test_osc_wavefunction_array_matches_scalar_calls():
    xs = gridmod.Grid(512, 10.0).nodes
    for n in range(3):
        for eps in (1, -1):
            for variant in ("printed", "corrected"):
                ref = np.array([osc_wavefunction(n, eps, t, variant)
                                for t in xs.tolist()])
                got = osc_wavefunction(n, eps, xs, variant)
                assert got.tobytes() == ref.tobytes()


def test_laguerre_matches_scipy_bit_for_bit():
    # scipy.special is imported here only; the package evaluates its own
    from scipy.special import eval_genlaguerre
    rng = np.random.default_rng(7)
    ts = np.concatenate([[0.0, 0.4**2, 0.7**2, 0.9**2],
                         rng.uniform(0.0, 1.0, 200),
                         rng.uniform(0.0, 100.0, 200)])
    for alpha in (F(1, 2), F(-1, 2)):
        for n in range(26):
            ref = eval_genlaguerre(n, float(alpha), ts)
            got = _laguerre(n, alpha, ts)
            if n <= 19:
                assert got.tobytes() == ref.tobytes(), (alpha, n)
                for t in (0.4, 0.7, 0.9, float(ts[-1])):
                    one = _laguerre(n, alpha, t * t)
                    assert np.float64(one).tobytes() == eval_genlaguerre(
                        n, float(alpha), t * t).tobytes(), (alpha, n, t)
            else:
                # scipy's binomial is a beta function from n = 20 on
                assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), \
                    (alpha, n)


def test_laguerre_refuses_negative_degree():
    with pytest.raises(ValueError, match="nonnegative"):
        _laguerre(-1, F(1, 2), 0.5)
    with pytest.raises(ValueError):
        osc_wavefunction(-1, 1, 0.5)


def test_osc_wavefunction_refuses_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        osc_wavefunction(1, 1, 0.7, "typo")


def test_osc_wavefunction_measured_norm():
    # quadrature norm of the printed form: (n+2)/2^(2n+1), recorded not assumed
    for n in range(3):
        val = gridmod.quadrature(
            lambda x: np.asarray([osc_wavefunction(n, 1, float(t)) for t in
                                  np.atleast_1d(x)]) ** 2, 10.0)
        assert abs(val - (n + 2) / 2.0 ** (2 * n + 1)) < 1e-8
