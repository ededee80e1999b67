"""Tests for the SUSY QM layer: gauged supercharge, Scarf wavefunctions,
intertwiners, operator relations, and the oscillator."""

import math
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from operator import add

import numpy as np
import pytest

from dunklqm import grid as gridmod
from dunklqm import refcalc as refc
from dunklqm.exact import DomainError, hyp_terms, pochhammer
from dunklqm.gegenbauer import (
    GegParams,
    HermiteParams,
    osc_gauged_hamiltonian,
    osc_gauged_supercharge,
)
from dunklqm.jacobi import (
    FUZZ_PARAMS,
    bracket_n,
    eigenvalue,
    gauged_supercharge,
    gauged_y_corrected,
    norm_sq_closed,
    supercharge_eigenvalue_scaled,
    verify_lowering,
    verify_raising,
)
from dunklqm.opalg import (
    DegenerateSpectrumError,
    Diff,
    Poly,
    Reflect,
    ReflOp,
    compose,
    construct_eigen,
    gram_sequence,
    matrix_on_basis,
    unchecked,
)
from dunklqm.susyqm import (
    ScarfParams,
    SusyPotential,
    SusySystem,
    _TEST_FNS,
    ground_state_norm_sq,
    intertwiner,
    osc_wavefunction,
    oscillator_potential,
    scarf_H_parts_explicit,
    scarf_potential,
    scarf_relations,
    verify_operator_relations,
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
    # U even and V odd
    p = scarf_potential(pars("1/2", "3/2"))
    xs = np.linspace(0.1, 1.4, 7)
    assert np.abs(p.u.f(xs) - p.u.f(-xs)).max() < 1e-12
    assert np.abs(p.v.f(xs) + p.v.f(-xs)).max() < 1e-12


# -- gauged supercharge -------------------------------------------------------

def test_gauged_supercharge_spectrum_exact():
    for a, b in FUZZ_PARAMS:
        p = ScarfParams(a, b)
        q = gauged_supercharge(p)
        for n in range(21):
            pn = construct_eigen(n, p)
            s = supercharge_eigenvalue_scaled(n, p)
            assert q.apply(pn) == pn.scale(s)
            assert s * s / 8 == SusySystem.scarf(p).energy(n)


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
    # the Scarf record's energy map on the family eigenvalues
    assert SusySystem.scarf(pars(0, 0)).energy(0) == F(1, 8)
    assert SusySystem.scarf(pars(0, 2)).energy(1) == F(25, 8)
    assert SusySystem.scarf(pars(1, 3)).energy(2) == F(81, 8)
    with pytest.raises(ValueError):
        SusySystem.scarf(pars(0, 0)).energy(-1)


# -- wavefunctions ------------------------------------------------------------

def test_ground_state_norm_constants():
    assert abs(ground_state_norm_sq(pars(0, 0)) - 1 / math.pi) < 1e-13
    assert abs(ground_state_norm_sq(pars(1, 1)) - 1.0) < 1e-13


def test_ground_state_values_and_domain():
    p = pars(1, 1)
    psi0 = SusySystem.scarf(p).wavefunction(0)
    assert psi0(0.0) == 0.0
    ground = SusySystem.scarf(p).ground
    assert abs(ground(np.array([0.7]))[0] - psi0(0.7)) < 1e-14


@pytest.mark.parametrize("a, b", [(0, 0), (1, 1), ("1/2", "3/2"), (2, "1/5"),
                                  ("-1/2", "3")])
def test_wavefunction_zero_is_the_ground_state_expression_bitwise(a, b):
    # N_0 |sin x|^(a/2) cos^(b/2) x (1 + sin x)^(1/2), in this float order:
    # n = 0 multiplies it by exactly 1.0 twice
    p = pars(a, b)
    x = refc.Grid(512, math.pi / 2).nodes
    af, bf = float(p.alpha), float(p.beta)
    n0 = math.sqrt(ground_state_norm_sq(p))
    ref = n0 * np.abs(np.sin(x)) ** (af / 2) * np.cos(x) ** (bf / 2) \
        * np.sqrt(1 + np.sin(x))
    assert SusySystem.scarf(p).wavefunction(0)(x).tobytes() == ref.tobytes()


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
        rows, _ = matrix_on_basis(dunkl(a / 2), 20)
        rhs = np.array([[x / den for x in row] for row, den in rows]).T \
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
    with pytest.raises(DegenerateSpectrumError, match="degrees 0 and 1 "):
        verify_lowering(p, 4)
    with pytest.raises(DegenerateSpectrumError, match="degrees 0 and 1 "):
        verify_raising(p, 4)


def test_lowering_check_refuses_a_negative_degree():
    # an empty verdict list would read as a pass under all()
    with pytest.raises(ValueError, match="nonnegative"):
        verify_lowering(pars(1, 3), -1)
    assert verify_lowering(pars(1, 3), 0) == [True]


def test_raising_check_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="nonnegative"):
        verify_raising(pars(1, 3), -1)


def test_wavefunction_refuses_a_negative_level():
    with pytest.raises(ValueError, match="nonnegative"):
        SusySystem.scarf(pars(1, 3)).wavefunction(-1)


def test_wavefunction_refuses_a_colliding_level():
    # at a + b = -2, lambda_1 = 2 (1 + a + b + 1) = 0 = lambda_0
    with pytest.raises(DegenerateSpectrumError, match="degrees 0 and 1 share "
                       "the eigenvalue 0, so P_1 is not uniquely defined"):
        SusySystem.scarf(unchecked(ScarfParams, 0, -2)).wavefunction(1)


@pytest.mark.parametrize("n", [30, 40])
@pytest.mark.parametrize("a, b", [(0, 0), ("1/2", "3/2"), (2, "1/5")])
def test_wavefunction_high_level_matches_exact_polynomial(a, b, n):
    # P_n(sin x) against its exact value at the same float sin x; evaluated
    # in the monomial basis it was off by up to 1e-2 of max |P_n| at n = 40
    p = pars(a, b)
    x = np.linspace(-1.5, 1.5, 41) + 0.013   # psi_0 vanishes at x = 0
    pn = construct_eigen(n, p)
    exact = np.array([float(pn(F(s))) for s in np.sin(x)])
    ratio = 1.0 / math.sqrt(float(norm_sq_closed(n, p)))
    system = SusySystem.scarf(p)
    got = system.wavefunction(n)(x) / (ratio * system.wavefunction(0)(x))
    assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()


_HIGH_LEVEL_SYSTEMS = {
    "scarf alpha=1 beta=3": lambda: SusySystem.scarf(pars(1, 3)),
    "oscillator": SusySystem.oscillator,
}


@pytest.mark.parametrize("record, n", [("scarf alpha=1 beta=3", 520),
                                       ("scarf alpha=1 beta=3", 540),
                                       ("oscillator", 197)])
def test_wavefunction_refuses_a_norm_outside_the_normal_floats(record, n):
    # ||P_n||^2 at Scarf (1, 3) is subnormal at n = 511-536 (3.35e-314 at
    # 520, off by 6e-11 relative) and 0.0 from 537 on; the oscillator's
    # leaves float range at n = 197
    with pytest.raises(DomainError, match=f"^{record}: psi_{n}'s norm "):
        _HIGH_LEVEL_SYSTEMS[record]().wavefunction(n)


@pytest.mark.parametrize("record, n", [("scarf alpha=1 beta=3", 510),
                                       ("oscillator", 196)])
def test_wavefunction_keeps_its_bits_at_the_last_normal_norm(record, n):
    system = _HIGH_LEVEL_SYSTEMS[record]()
    values, norm_sq = system.polynomials(n)
    scale = 1.0 / math.sqrt(system.ground_norm_sq * float(norm_sq))
    x = np.linspace(-1.5, 1.5, 41) + 0.013
    ref = scale * system.ground(x) * values(x)[n]
    assert np.isfinite(ref).all() and ref.any()
    assert system.wavefunction(n)(x).tobytes() == ref.tobytes()


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
    from dunklqm import cli, errata

    calls = []

    def counting(params, max_n, *ps):
        calls.append((params.alpha, params.beta, max_n))
        return verify_raising(params, max_n, *ps)

    monkeypatch.setattr(cli, "verify_raising", counting)
    assert cli._suite_intertwiners(lambda msg: None, 12) == (True, 31)
    assert calls == [(a, b, 12) for a, b in FUZZ_PARAMS]
    calls.clear()
    monkeypatch.setattr(errata, "verify_raising", counting)
    errata.build_errata()
    assert calls == [(F(1, 2), F(3, 2), 12)]


def test_printed_x_fails_to_annihilate_ground_state():
    # grid application of the printed X on Psi_0 equals -(1/2) tan(x) Psi_0
    p = pars(1, 1)
    g = refc.Grid(2048, math.pi / 2)
    psi0 = SusySystem.scarf(p).wavefunction(0)(g.nodes)
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
    psi0 = SusySystem.scarf(p).wavefunction(0)
    for n in (1024, 2048):
        g = refc.Grid(n, math.pi / 2)
        for u in (psi0(g.nodes), np.exp(-g.nodes**2) * (1 + g.nodes)):
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


# the errata evidence key of each product relation's residual
_PRODUCT_EVIDENCE = {"typeset_placement_printed_ops_residual":
                     ("product_typeset_indices", "printed"),
                     "typeset_placement_corrected_ops_residual":
                     ("product_typeset_indices", "corrected"),
                     "repaired_placement_corrected_ops_residual":
                     ("product_repaired_indices", "corrected"),
                     "repaired_placement_printed_ops_residual":
                     ("product_repaired_indices", "printed")}


def test_errata_product_residuals_are_the_relation_report_residuals():
    # errata evaluates only the product relations, on the finest grid of the
    # ladder it reports; each value is the report's, float for float
    from dunklqm import errata

    report = verify_operator_relations(pars(1, "1/2"), grids=(256, 512, 1024))
    evidence = errata._product_relation_placement()["evidence"]
    keys = _PRODUCT_EVIDENCE
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
    # the probe is built once per ladder and evaluated on each of its grids
    from dunklqm.susyqm import _probes
    for p in (pars("1/2", "3/2"), pars(2, "1/5")):
        for g, _, fns, _ in _probes(p, [256, 512], {}):
            ref = (SusySystem.scarf(p).wavefunction(0)(g.nodes)
                   * construct_eigen(2, p)(np.sin(g.nodes)))
            assert fns["eigenfunction-2"].tobytes() == ref.tobytes()


# -- the relation checks share their loop-invariant work ----------------------

def _interior_mask(g):
    return (np.abs(g.nodes) > 0.06) & (np.abs(np.abs(g.nodes) - g.halfwidth) > 0.06)


def _per_probe_apply(op, u, x):
    """One operator on one test function, each coefficient and derivative
    evaluated in place: the evaluation before it was split in two."""
    derivatives = (u.f, u.d1, u.d2)
    sides = []
    for j, y in ((0, x), (1, -x)):
        terms = [op.words[k, j].f(x) * (-derivatives[k](y) if j * k == 1
                                        else derivatives[k](y))
                 for k in (2, 1, 0) if (k, j) in op.words]
        sides += [reduce(add, terms)] if terms else []
    return reduce(add, sides) if sides else np.zeros_like(x)


def _per_relation_residual(relation, g):
    op, x = relation.residual(), g.nodes[_interior_mask(g)]
    worst = 0.0
    for u in _TEST_FNS.values():
        worst = max(worst, float(np.abs(_per_probe_apply(op, u, x)).max()))
    return worst


def _per_grid_fd_norms(params, relation, grids):
    """The finite-difference norms with the probes built on each grid anew."""
    norms = []
    for n in grids:
        g = refc.Grid(n, math.pi / 2)
        x = g.nodes
        fns = [u.f(x) for u in _TEST_FNS.values()]
        fns.append(SusySystem.scarf(params).wavefunction(0)(x)
                   * construct_eigen(2, params)(np.sin(x)))
        stencils = {op: op.stencil(g) for chain in relation.lhs + relation.rhs
                    for op in chain.ops}
        residual = relation.stencil(stencils)
        worst = 0.0
        for f in fns:
            worst = max(worst, float(np.abs(residual(f)[_interior_mask(g)]).max()))
        norms.append(worst)
    return norms


@pytest.mark.parametrize("ab, grids", [((F(0), F(1)), (512, 1024, 2048))]
                         + [(ab, (256, 512, 1024)) for ab in FUZZ_PARAMS],
                         ids=lambda v: ",".join(map(str, v)))
def test_relation_report_is_the_per_relation_loop_bitwise(ab, grids):
    params = ScarfParams(*ab)
    report = verify_operator_relations(params, grids=grids)
    finest = refc.Grid(grids[-1], math.pi / 2)
    relations = scarf_relations(params)
    assert len(report) == len(relations) == 11
    for row, (name, variant, _, relation) in zip(report, relations):
        assert (row["relation"], row["variant"]) == (name, variant)
        assert row["residual"].hex() == _per_relation_residual(relation, finest).hex()
        norms = _per_grid_fd_norms(params, relation, grids)
        assert [v.hex() for v in row["fd_norms"]] == [v.hex() for v in norms]
        order = refc.estimate_order(norms)
        if not math.isnan(order):
            order = min(max(order, 0.25), 6.0)
        assert row["order"].hex() == order.hex()


def test_errata_product_residuals_are_the_per_relation_loop_bitwise():
    from dunklqm import errata

    evidence = errata._product_relation_placement()["evidence"]
    g = refc.Grid(1024, math.pi / 2)
    relations = {(name, variant): relation for name, variant, _, relation
                 in scarf_relations(pars(1, "1/2"))}
    for key, name_variant in _PRODUCT_EVIDENCE.items():
        assert (evidence[key].hex()
                == _per_relation_residual(relations[name_variant], g).hex()), key


def test_relation_checks_evaluate_each_probe_once_and_build_p2_once(monkeypatch):
    # every derivative of a test function is called at most once per array
    # of points: once per grid for the finite differences, once per sign on
    # the finest grid's interior for the exact residuals, however many
    # relations there are; Psi_0 P_2 is built once for the whole ladder
    from dunklqm import susyqm

    calls, built = Counter(), Counter()

    def counted(key, fn):
        def wrapped(x):
            calls[key, np.asarray(x).tobytes()] += 1
            return fn(x)
        return wrapped

    monkeypatch.setattr(susyqm, "_TEST_FNS", {
        name: refc.ProbeFn(*(counted((name, d), getattr(u, d))
                             for d in ("f", "d1", "d2")))
        for name, u in _TEST_FNS.items()})
    real_construct, real_relations = susyqm.construct_eigen, susyqm.scarf_relations

    def construct(n, family):
        built[n] += 1
        return real_construct(n, family)

    monkeypatch.setattr(susyqm, "construct_eigen", construct)
    monkeypatch.setattr(susyqm, "scarf_relations",
                        lambda params: real_relations(params) * 2)
    report = verify_operator_relations(pars(0, 1), grids=(128, 256, 512))
    assert len(report) == 22
    assert built[2] == 1
    assert max(calls.values()) == 1
    g = refc.Grid(512, math.pi / 2)
    x = g.nodes[_interior_mask(g)]
    exact = Counter((name, d) for (name, d), points in calls
                    if points in (x.tobytes(), (-x).tobytes()))
    # f, d1 and d2 at +x and at -x: Q^2 = H and R H R = H have every word
    assert exact == {(name, d): 2 for name in _TEST_FNS
                     for d in ("f", "d1", "d2")}


def test_exact_residual_evaluates_only_the_words_present(monkeypatch):
    # R Q R = -Q at b and -b is first order: no second derivative is read
    from dunklqm import susyqm

    def unused(x):
        raise AssertionError("no first-order relation reads a second derivative")

    monkeypatch.setattr(susyqm, "_TEST_FNS", {
        name: refc.ProbeFn(u.f, u.d1, unused) for name, u in _TEST_FNS.items()})
    relation, = [rel for name, _, _, rel in scarf_relations(pars(1, 1))
                 if name == "reflection_conjugation_Q"]
    residuals = susyqm.exact_residual([relation, relation],
                                      refc.Grid(256, math.pi / 2))
    assert residuals[0] == residuals[1] < 1e-10


@pytest.mark.parametrize("ladder", [(512, 1000, 2048), (2048, 1024, 512),
                                    (256, 768, 2304), (1024, 2048)])
def test_relation_checks_refuse_the_ladders_convergence_study_refuses(ladder):
    # the finite-difference order assumes N, 2N, 4N, ...; on (512, 1000,
    # 2048) or (2048, 1024, 512) it would be a wrong number, not nan
    prob = gridmod.Problem(name="stub", params={}, targets=(1.0,),
                           compute=lambda n: np.array([1.0]),
                           tolerance=1e-6, exponents=(2.0, 2.0))
    with pytest.raises(ValueError) as study:
        gridmod.convergence_study(prob, ladder)
    with pytest.raises(ValueError) as relations:
        verify_operator_relations(pars(0, 1), grids=ladder)
    assert str(relations.value) == str(study.value)


def _qq_vs_h_orders(pot, halfwidth, grids):
    hamiltonian = pot.hamiltonian()
    errs = []
    for n in grids:
        g = refc.Grid(n, halfwidth)
        q = gridmod.supercharge_matrix(pot.u.f, pot.v.f, g)
        h = gridmod.assemble(hamiltonian[0, 0].f, hamiltonian[0, 1].f, g)
        f = np.exp(-g.nodes**2) * np.cos(g.nodes * math.pi / (2 * halfwidth)) ** 2
        mask = (np.abs(g.nodes) > 0.06) \
            & (np.abs(np.abs(g.nodes) - g.halfwidth) > 0.06 * halfwidth)
        qm, hm = (op.gather_rows(np.arange(n)) for op in (q, h))
        res = qm @ (qm @ f) - hm @ f
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

def _monic_hermite(degree):
    """[(P_n, ||P_n||^2)] for n <= degree: the monic polynomials orthogonal
    for e^(-y^2) from P_(n+1) = y P_n - (n/2) P_(n-1), and their squared
    norms n!/2^n for the weight of unit mass."""
    y, ps = Poly((0, 1)), [Poly.one(), Poly((0, 1))]
    while len(ps) <= degree:
        n = len(ps) - 1
        ps.append(y * ps[n] - ps[n - 1].scale(F(n, 2)))
    return [(p, F(math.factorial(n), 2 ** n)) for n, p in enumerate(ps)]


def test_osc_q_action_matches_closed_form():
    # sqrt(2) Qtilde: P_0 -> 0, P_(2n+1) -> 2 P_(2n+2), P_(2n+2) -> 2(n+1) P_(2n+1)
    q = osc_gauged_supercharge()
    ps = [p for p, _ in _monic_hermite(15)]
    assert q.apply(ps[0]) == Poly.zero()
    for m in range(1, 15):
        expected = ps[m + 1].scale(2) if m % 2 else ps[m - 1].scale(m)
        assert q.apply(ps[m]) == expected


def test_osc_energy_values():
    # the oscillator record's energy map on HermiteParams(0)'s eigenvalues
    energy = SusySystem.oscillator().energy
    assert [energy(n) for n in range(5)] == [0, 2, 2, 4, 4]
    with pytest.raises(ValueError):
        energy(-2)


def test_osc_h_reproduces_energies_and_q_squared():
    q, h = osc_gauged_supercharge(), osc_gauged_hamiltonian()
    for n, (p, _) in enumerate(_monic_hermite(13)):
        hp = h.apply(p)
        assert hp == p.scale(2 * SusySystem.oscillator().energy(n))
        assert q.apply(q.apply(p)) == hp
    # the same identity as operators on 1, y, ..., y^12
    assert matrix_on_basis(compose(q, q), 12) == matrix_on_basis(h, 12)


def test_osc_mixed_states():
    # On the normalized pair |2n+1>, |2n+2> (the Gaussian times
    # P_m / ||P_m||), Qtilde has the matrix [[0, s], [s', 0]]; s = s' > 0
    # with s^2 = 2n+2 makes (|2n+1> + eps |2n+2>)/2 an eigenvector with
    # eigenvalue eps sqrt(2n+2).
    q, hermite = osc_gauged_supercharge(), _monic_hermite(14)
    reflect = ReflOp.from_primitive(Reflect)
    for n in range(7):
        (odd, odd_sq), (even, even_sq) = hermite[2 * n + 1], hermite[2 * n + 2]
        up = q.apply(odd).coeff(2 * n + 2)     # sqrt(2) Qtilde P_odd = up P_even
        down = q.apply(even).coeff(2 * n + 1)  # sqrt(2) Qtilde P_even = down P_odd
        assert q.apply(odd) == even.scale(up) and up > 0
        assert q.apply(even) == odd.scale(down) and down > 0
        assert up ** 2 * even_sq / (2 * odd_sq) == 2 * n + 2
        assert down ** 2 * odd_sq / (2 * even_sq) == 2 * n + 2
        # R (|2n+1> + eps |2n+2>) = -(|2n+1> - eps |2n+2>): the Gaussian is
        # even, so R acts on the polynomial part
        for eps in (+1, -1):
            assert (reflect.apply(odd + even.scale(eps))
                    == -(odd + even.scale(-eps)))


def test_osc_gauged_operators_match_the_potential():
    # e^(-x^2/2) (sqrt(2) Qtilde p) / sqrt(2) = Q psi and
    # e^(-x^2/2) (2 Htilde p) / 2 = H psi for psi = e^(-x^2/2) p, with Q and H
    # those of oscillator_potential
    pot = oscillator_potential()
    q, h = osc_gauged_supercharge(), osc_gauged_hamiltonian()
    diff = ReflOp.from_primitive(Diff)
    x = np.linspace(-3.0, 3.0, 61)
    g = np.exp(-x ** 2 / 2)
    for p, _ in _monic_hermite(6):
        d1 = diff.apply(p)
        d2 = diff.apply(d1)
        u = refc.ProbeFn(lambda t, p=p: np.exp(-t ** 2 / 2) * p(t),
                         lambda t, p=p, d1=d1: np.exp(-t ** 2 / 2)
                         * (d1(t) - t * p(t)),
                         lambda t, p=p, d1=d1, d2=d2: np.exp(-t ** 2 / 2)
                         * (d2(t) - 2 * t * d1(t) + (t ** 2 - 1) * p(t)))
        np.testing.assert_allclose(pot.supercharge().apply(u, x),
                                   g * q.apply(p)(x) / math.sqrt(2),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(pot.hamiltonian().apply(u, x),
                                   g * h.apply(p)(x) / 2, rtol=1e-12, atol=1e-12)


def _superposition(n, eps, x):
    """(psi_(2n+1) + eps psi_(2n+2))/2 over the orthonormal states."""
    psi = SusySystem.oscillator().wavefunction
    return (psi(2 * n + 1)(x) + eps * psi(2 * n + 2)(x)) / 2


def test_oscillator_wavefunction_matches_normalized_hermite_functions():
    # psi_m = H_m e^(-x^2/2) / sqrt(2^m m! sqrt(pi)), with H_m from numpy's
    # physicists' Hermite series, here only
    from numpy.polynomial import hermite
    x = np.linspace(-6.0, 6.0, 241)
    for m in range(13):
        ref = hermite.hermval(x, [0.0] * m + [1.0]) * np.exp(
            -x * x / 2 - 0.5 * (m * math.log(2.0) + math.lgamma(m + 1)
                                + 0.5 * math.log(math.pi)))
        np.testing.assert_allclose(SusySystem.oscillator().wavefunction(m)(x),
                                   ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())


def test_osc_states_are_orthonormal():
    psi = SusySystem.oscillator().wavefunction
    for m in range(6):
        for k in range(m + 1):
            val = gridmod.quadrature(lambda x: psi(m)(x) * psi(k)(x), 10.0)
            assert abs(val - (m == k)) <= 1e-13, (m, k)


def _laguerre_poly(n, alpha):
    """L_n^(alpha)(y^2) as a Poly in y: (alpha+1)_n/n! 1F1(-n; alpha+1; t),
    whose series terms at z = 1 are the coefficients of t^k."""
    lead = pochhammer(alpha + 1, n) / math.factorial(n)
    coeffs = [0] * (2 * n + 1)
    for k, term in enumerate(hyp_terms((-n,), (alpha + 1,), 1)):
        coeffs[2 * k] = lead * term
    return Poly(coeffs)


def test_laguerre_blocks_are_hermite_family_members():
    # x L_n^(1/2)(x^2) = (-1)^n P_(2n+1)/n! and
    # L_(n+1)^(-1/2)(x^2) = (-1)^(n+1) P_(2n+2)/(n+1)!, exactly, n <= 12
    gram = gram_sequence(HermiteParams(0).moments(2 * 26 + 1), 26)
    for n in range(13):
        odd = Poly.monomial(1) * _laguerre_poly(n, F(1, 2))
        even = _laguerre_poly(n + 1, F(-1, 2))
        assert odd == gram[2 * n + 1][0].scale(F((-1) ** n, math.factorial(n)))
        assert even == gram[2 * n + 2][0].scale(
            F((-1) ** (n + 1), math.factorial(n + 1)))


def test_osc_wavefunction_vs_hermite_n0():
    # printed Laguerre form at n=0 equals sqrt(2) times the Hermite
    # superposition under the epsilon pairing eps -> -eps
    for eps in (+1, -1):
        for x in (0.5, -0.7, 1.3):
            ratio = osc_wavefunction(0, eps)(x) / _superposition(0, -eps, x)
            assert abs(ratio - math.sqrt(2)) < 1e-10


def test_osc_wavefunction_corrected_weight_constant():
    # with relative weight sqrt(n+1) the ratio is exactly 2^(1/2 - n)
    for n in range(4):
        for eps in (+1, -1):
            for x in (0.4, -0.9):
                r = osc_wavefunction(n, eps, "corrected")(x) \
                    / _superposition(n, -eps, x)
                assert abs(r - 2.0 ** (0.5 - n)) < 1e-10


def test_osc_wavefunction_printed_weight_breaks_for_n_ge_1():
    vals = [osc_wavefunction(1, 1)(x) / _superposition(1, -1, x)
            for x in (0.4, 0.9)]
    assert abs(vals[0] - vals[1]) > 1e-3


def test_osc_wavefunction_takes_a_list_and_keeps_its_bits():
    # a list was refused with a bare TypeError from the recurrence; it now
    # equals the ndarray bitwise, and array and scalar values keep the bits
    # they had before the evaluators were merged
    xs = [0.3, 0.5]
    got = osc_wavefunction(1, 1)(xs)
    assert got.tobytes() == osc_wavefunction(1, 1)(np.array(xs)).tobytes()
    assert [v.hex() for v in got.tolist()] == ["-0x1.1180601008d08p-2",
                                               "-0x1.7d063cf85aa54p-3"]
    for args, x, bits in [((1, 1), 0.3, "-0x1.1180601008d08p-2"),
                          ((2, -1, "corrected"), -0.7, "0x1.61da21c08128ap-9"),
                          ((0, 1), 1.3, "0x1.22bf6ad397ddcp-5")]:
        assert float(osc_wavefunction(*args)(x)).hex() == bits
    psi2 = SusySystem.oscillator().wavefunction(2)
    assert [v.hex() for v in psi2(xs).tolist()] == ["-0x1.aa5a0ef3ba8d5p-2",
                                                    "-0x1.dff75abe02fccp-3"]
    assert float(psi2(0.3)).hex() == "-0x1.aa5a0ef3ba8d5p-2"
    p = pars("1/2", "3/2")
    psi2 = SusySystem.scarf(p).wavefunction(2)
    assert psi2(xs).tobytes() == psi2(np.array(xs)).tobytes()


def test_record_targets_are_the_hand_typed_energy_rules():
    # the rules the records replace, through the same Fraction -> float path
    osc = SusySystem.oscillator()
    for k in (1, 2, 5, 40):
        assert osc.targets(k) == tuple(sorted(
            float(n + (1 - (-1) ** n) // 2) for n in range(k + 2))[:k])
    for a, b in FUZZ_PARAMS:
        p = ScarfParams(a, b)
        assert SusySystem.scarf(p).targets(7) == tuple(
            float(F(2 * n + a + b + 1) ** 2 / 8) for n in range(7))


@pytest.mark.parametrize("system", [
    SusySystem.scarf(ScarfParams(F(1, 2), F(3, 2))), SusySystem.oscillator(),
    SusySystem.gegenbauer(GegParams(F(1, 2), F(1))),
    SusySystem.gegenbauer(GegParams(F(1, 3), F(2)))],
    ids=["scarf", "oscillator", "gegenbauer-1_2-1", "gegenbauer-1_3-2"])
def test_record_wavefunctions_are_orthonormal(system):
    psi = [system.wavefunction(n) for n in range(5)]
    for m in range(5):
        for k in range(m + 1):
            val = gridmod.quadrature(lambda x: psi[m](x) * psi[k](x),
                                     system.halfwidth)
            assert abs(val - (m == k)) <= 1e-9, (m, k)


def test_osc_wavefunction_array_matches_scalar_calls():
    xs = refc.Grid(512, 10.0).nodes
    for n in range(3):
        for eps in (1, -1):
            for variant in ("printed", "corrected"):
                psi = osc_wavefunction(n, eps, variant)
                ref = np.array([psi(t) for t in xs.tolist()])
                got = psi(xs)
                assert got.tobytes() == ref.tobytes()


def test_osc_wavefunction_matches_scipy_laguerre_form():
    # the printed form with scipy's Laguerre polynomials, here only:
    # (-1)^n pi^(-1/4) sqrt(n!/(n+1)_(n+1)) e^(-x^2/2)
    # (x L_n^(1/2)(x^2) + eps w L_(n+1)^(-1/2)(x^2))
    from scipy.special import eval_genlaguerre
    x = np.concatenate([[0.0, 0.4, 0.7, 0.9], np.linspace(-8.0, 8.0, 401)])
    for n in range(11):
        pref = (-1) ** n / math.pi ** 0.25 * math.sqrt(
            math.factorial(n) / float(pochhammer(n + 1, n + 1)))
        odd = x * eval_genlaguerre(n, 0.5, x * x)
        even = eval_genlaguerre(n + 1, -0.5, x * x)
        for variant, w in (("printed", n + 1.0), ("corrected",
                                                  math.sqrt(n + 1.0))):
            for eps in (1, -1):
                ref = pref * np.exp(-x * x / 2) * (odd + eps * w * even)
                got = osc_wavefunction(n, eps, variant)(x)
                scale = np.abs(ref).max()
                assert np.abs(got - ref).max() <= 1e-13 * scale, (n, variant)


def test_laguerre_refuses_negative_degree():
    # a negative level is refused before any Gram entry is read by index
    with pytest.raises(ValueError, match="nonnegative"):
        osc_wavefunction(-1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        SusySystem.oscillator().wavefunction(-1)
    with pytest.raises(ValueError, match="mu > -1/2"):
        HermiteParams(F(-1, 2))


def test_osc_wavefunction_refuses_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        osc_wavefunction(1, 1, "typo")


def test_osc_wavefunction_measured_norm():
    # quadrature norm of the printed form: (n+2)/2^(2n+1), recorded not assumed
    for n in range(3):
        psi = osc_wavefunction(n, 1)
        val = gridmod.quadrature(
            lambda x: np.asarray([psi(float(t)) for t in
                                  np.atleast_1d(x)]) ** 2, 10.0)
        assert abs(val - (n + 2) / 2.0 ** (2 * n + 1)) < 1e-8


def test_errata_builds_each_oscillator_evaluator_once(monkeypatch):
    # the recurrence was rebuilt from the moments on every point evaluation:
    # 32 calls per report, 30 of them for the oscillator entry; the Scarf
    # (1, 1) ground state is built once for its two entries
    from dunklqm import errata

    calls = []
    real = SusySystem.polynomials

    def counting(self, m):
        calls.append((self.name, m))
        return real(self, m)

    monkeypatch.setattr(SusySystem, "polynomials", counting)
    errata.build_errata()
    assert Counter(name for name, _ in calls) == {"oscillator": 12, "scarf": 1}
