"""Tests for the exact composition calculus of reflection operators and its
finite-difference evaluation."""

import math
from fractions import Fraction as F
from functools import reduce

import numpy as np
import pytest

from dunklqm import susyqm
from dunklqm.opalg import unchecked
from dunklqm.refcalc import (Chain, CoeffFn, FirstOrderRefOp, Grid, ProbeFn,
                             check_doubling_ladder)
from dunklqm.susyqm import _TEST_FNS, ScarfParams, intertwiner, scarf_potential

U = ProbeFn(
    lambda x: np.exp(-x**2) * (1 + x),
    lambda x: np.exp(-x**2) * (1 - 2 * x * (1 + x)),
    lambda x: np.exp(-x**2) * (-2 * (1 + x) - 2 * x - 2 * x * (1 - 2 * x * (1 + x))),
)

X = np.linspace(-1.2, 1.2, 41)


def num_apply(op, u, x, h=1e-6):
    """First-order op applied by high-order numerical differentiation."""

    def du(t):
        return (u.f(t + h) - u.f(t - h)) / (2 * h)

    return (op[1, 0].f(x) * du(x) + op[0, 0].f(x) * u.f(x) + op[0, 1].f(x) * u.f(-x)
            - op[1, 1].f(x) * du(-x))


def test_first_order_apply_matches_numerics():
    op = FirstOrderRefOp.build(
        p=CoeffFn.const(2.0),
        q=CoeffFn.tan().scale(0.5),
        r=CoeffFn.const(-1.5),
        s=CoeffFn.const(0.7),
    )
    exact = op.apply(U, X)
    approx = num_apply(op, U, X)
    assert np.abs(exact - approx).max() < 1e-8


def _assert_matches_nested_numerics(b, a):
    """b o a applied exactly against b applied, with tight central
    differences, to the exact values of a u."""
    h = 1e-5
    xs = np.linspace(-1.0, 1.0, 21)

    def a_of(t):
        return a.apply(U, np.atleast_1d(t))[0]

    def da_of(t):
        return (a_of(t + h) - a_of(t - h)) / (2 * h)

    vals = [b[1, 0].f(x) * da_of(x) + b[0, 0].f(x) * a_of(x)
            + b[0, 1].f(x) * a_of(-x) - b[1, 1].f(x) * da_of(-x) for x in xs]
    exact = b.compose(a).apply(U, xs)
    assert np.abs(exact - np.asarray(vals)).max() < 1e-7


def test_composition_matches_nested_numerics():
    a = FirstOrderRefOp.build(p=CoeffFn.const(1.0),
                              q=CoeffFn.sec().scale(-0.3),
                              r=CoeffFn.tan().scale(0.4))
    b = FirstOrderRefOp.build(q=CoeffFn.const(0.2),
                              r=CoeffFn.const(1.1),
                              s=CoeffFn.const(-0.6))
    _assert_matches_nested_numerics(b, a)


def test_composition_of_all_eight_words_matches_nested_numerics():
    # every word of both factors present and none constant, so every
    # derivative term of the product counts
    a = FirstOrderRefOp.build(p=CoeffFn.sec().scale(0.8),
                              q=CoeffFn.tan().scale(-0.3),
                              r=CoeffFn.sec().scale(0.4),
                              s=CoeffFn.tan().scale(0.5))
    b = FirstOrderRefOp.build(p=CoeffFn.tan().scale(0.7),
                              q=CoeffFn.sec().scale(0.2),
                              r=CoeffFn.tan().scale(-1.1),
                              s=CoeffFn.sec().scale(-0.6))
    _assert_matches_nested_numerics(b, a)


def _conjugation_rule_sides(op, xs):
    """R A R applied to u, and (A (Ru)) reflected; the two should agree."""
    conj = op.conjugated_by_reflection()
    assert type(conj) is type(op)
    lhs = conj.apply(U, xs)
    ru = ProbeFn(lambda x: U.f(-x), lambda x: -U.d1(-x), lambda x: U.d2(-x))
    return lhs, op.apply(ru, -xs)


def test_reflection_conjugation_rule():
    op = FirstOrderRefOp.build(p=CoeffFn.tan(), q=CoeffFn.const(0.3),
                               r=CoeffFn.sec(), s=CoeffFn.const(0.5))
    lhs, rhs = _conjugation_rule_sides(op, X)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_second_order_reflection_conjugation_rule():
    # the Scarf H is singular at 0, which X contains, and large near it, so
    # the bound is relative to the largest value
    lhs, rhs = _conjugation_rule_sides(scarf_potential(SCARF).hamiltonian(),
                                       np.linspace(-1.2, 1.2, 40))
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_coeff_reflection_derivative():
    c = CoeffFn.tan()
    cref = c.reflected()
    xs = np.linspace(-0.9, 0.9, 11)
    assert np.allclose(cref.f(xs), np.tan(-xs))
    assert np.allclose(cref.df(xs), -1.0 / np.cos(xs) ** 2)


# -- finite-difference evaluation on a grid -----------------------------------

LADDER = (256, 512, 1024)
SCARF = ScarfParams(F(1), F(3))


def _fd_orders(op, u, halfwidth, keep):
    """Observed orders of max |stencil - exact apply| over the kept nodes."""
    errs = []
    for n in LADDER:
        g = Grid(n, halfwidth)
        x = g.nodes
        mask = keep(x, g)
        errs.append(np.abs(op.stencil(g)(u.f(x)) - op.apply(u, x))[mask].max())
    return [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


def _all_but_edges(x, g):
    keep = np.ones(g.n, dtype=bool)
    keep[[0, -1]] = False
    return keep


def _away_from_singularities(x, g):
    return (np.abs(x) > 0.06) & (np.abs(np.abs(x) - g.halfwidth) > 0.06)


@pytest.mark.parametrize("probe", sorted(_TEST_FNS))
def test_first_order_stencil_converges_to_apply(probe):
    op = FirstOrderRefOp.build(p=CoeffFn.const(2.0), q=CoeffFn.tan().scale(0.5),
                               r=CoeffFn.sec().scale(-1.5), s=CoeffFn.const(0.7))
    assert min(_fd_orders(op, _TEST_FNS[probe], 1.2, _all_but_edges)) >= 1.7


@pytest.mark.parametrize("probe", sorted(_TEST_FNS))
def test_scarf_hamiltonian_stencil_converges_to_apply(probe):
    h = scarf_potential(SCARF).hamiltonian()
    orders = _fd_orders(h, _TEST_FNS[probe], math.pi / 2, _away_from_singularities)
    assert min(orders) >= 1.7


def test_reflected_chain_stencil_reverses_input_and_output():
    a = FirstOrderRefOp.build(p=CoeffFn.const(1.0), q=CoeffFn.sec().scale(-0.3),
                              r=CoeffFn.tan().scale(0.4), s=CoeffFn.const(0.2))
    h = scarf_potential(SCARF).hamiltonian()
    g = Grid(512, math.pi / 2)
    stencils = {op: op.stencil(g) for op in (a, h)}
    u = _TEST_FNS["trig-mix"].f(g.nodes)
    for scale, ops in ((1, (a,)), (1, (h,)), (-2.5, (a, a))):
        plain = Chain(scale, ops, False).stencil(stencils)
        reflected = Chain(scale, ops, True).stencil(stencils)
        assert reflected(u).tobytes() == plain(u[::-1])[::-1].tobytes()


# -- the word map against the hand-expanded product table it replaced --------
#
# The reference below is the earlier hand-written calculus: the 16-case
# product of p D + q + r R + s DR operators, the two conjugation formulas and
# slot-by-slot sums, over the slots (c2, c1, c0, d2, d1, d0) of
# c2 D^2 + c1 D + c0 + (d2 D^2 + d1 D + d0) R. The word map must reproduce
# it bit for bit on the production operators, none of which has both a D and
# a DR word (where the table groups p_B (r_A + s_A') as one product).

_SLOTS = ((2, 0), (1, 0), (0, 0), (2, 1), (1, 1), (0, 1))
_PQRS = ((1, 0), (0, 0), (0, 1), (1, 1))


_TABLE_SETS = [(F(0), F(1)), (F(1), F(1, 2)), (F(1, 2), F(3, 2))]
_TABLE_IDS = [f"{a},{b}" for a, b in _TABLE_SETS]


def _ref_compose(op_b, op_a):
    pB, qB, rB, sB = op_b
    pA, qA, rA, sA = op_a
    pa_, qa_, ra_, sa_ = (c.reflected() for c in (pA, qA, rA, sA))
    z = CoeffFn.zero()
    c2, c1, c0 = z, z, z
    d2, d1, d0 = z, z, z
    c2 = c2 + pB * pA
    c1 = c1 + pB * pA.df_coeff() + pB * qA
    c0 = c0 + pB * qA.df_coeff()
    d2 = d2 + pB * sA
    d1 = d1 + pB * (rA + sA.df_coeff())
    d0 = d0 + pB * rA.df_coeff()
    c1 = c1 + qB * pA
    c0 = c0 + qB * qA
    d1 = d1 + qB * sA
    d0 = d0 + qB * rA
    d1 = d1 - rB * pa_
    d0 = d0 + rB * qa_
    c0 = c0 + rB * ra_
    c1 = c1 - rB * sa_
    d2 = d2 - sB * pa_
    d1 = d1 + sB * (qa_ - pa_.df_coeff())
    d0 = d0 + sB * qa_.df_coeff()
    c0 = c0 + sB * ra_.df_coeff()
    c1 = c1 + sB * (ra_ - sa_.df_coeff())
    c2 = c2 - sB * sa_
    return (c2, c1, c0, d2, d1, d0)


def _ref_slots(op):
    """First-order ops as (p, q, r, s), second-order ones as six slots."""
    order = _PQRS if isinstance(op, FirstOrderRefOp) else _SLOTS
    return tuple(op[w] for w in order)


def _ref_conjugated(slots):
    if len(slots) == 4:
        p, q, r, s = slots
        return (-p.reflected(), q.reflected(), r.reflected(), -s.reflected())
    c2, c1, c0, d2, d1, d0 = slots
    return (c2.reflected(), -c1.reflected(), c0.reflected(), d2.reflected(),
            -d1.reflected(), d0.reflected())


def _ref_second(slots):
    if len(slots) == 6:
        return slots
    p, q, r, s = slots
    z = CoeffFn.zero()
    return (z, p, q, z, s, r)


def _ref_residual(relation):
    def composed(chain):
        ops = [_ref_slots(op) for op in chain.ops]
        if chain.by_reflection:
            ops = [_ref_conjugated(op) for op in ops]
        ops = ops or [(CoeffFn.zero(), CoeffFn.const(1.0), CoeffFn.zero(),
                       CoeffFn.zero())]
        slots = _ref_compose(*ops) if len(ops) == 2 else _ref_second(ops[0])
        return slots if chain.scale == 1 else tuple(c.scale(chain.scale)
                                                    for c in slots)

    def total(side):
        return reduce(lambda s, t: tuple(x + y for x, y in zip(s, t)),
                      (composed(chain) for chain in side))

    lhs, rhs = total(relation.lhs), total(relation.rhs)
    return tuple(x + y.scale(-1.0) for x, y in zip(lhs, rhs))


def _ref_apply(slots, u, x):
    c2, c1, c0, d2, d1, d0 = (c.f(x) for c in slots)
    direct = c2 * u.d2(x) + c1 * u.d1(x) + c0 * u.f(x)
    refl = d2 * u.d2(-x) - d1 * u.d1(-x) + d0 * u.f(-x)
    return direct + refl


def _assert_bitwise(op, slots, x):
    """Each word equals its slot bit for bit up to the sign of zero (adding
    +0.0 maps -0.0 to +0.0 and nothing else): the table summed onto a zero
    start and multiplied absent words, the word map does neither."""
    for word, ref in zip(_PQRS if len(slots) == 4 else _SLOTS, slots):
        assert ((op[word].f(x) + 0.0).tobytes()
                == (ref.f(x) + 0.0).tobytes()), word


@pytest.mark.parametrize("ab", _TABLE_SETS, ids=_TABLE_IDS)
def test_products_and_conjugations_match_hand_expanded_table_bitwise(ab):
    a, b = ab
    x = Grid(1024, math.pi / 2).nodes
    ops = [scarf_potential(unchecked(ScarfParams, a, beta)).supercharge()
           for beta in (b, -b, b + 2, b - 2)]
    ops += [intertwiner(ScarfParams(a, beta), which, variant)
            for beta in (b, b + 1, b + 2) for which in "XY"
            for variant in ("printed", "corrected")]
    for op in ops:
        _assert_bitwise(op.conjugated_by_reflection(),
                        _ref_conjugated(_ref_slots(op)), x)
        for other in ops:
            _assert_bitwise(op.compose(other),
                            _ref_compose(_ref_slots(op), _ref_slots(other)), x)


@pytest.mark.parametrize("ab", _TABLE_SETS, ids=_TABLE_IDS)
def test_relation_residuals_match_hand_expanded_table_bitwise(ab, monkeypatch):
    relations = []
    real = susyqm._residual_norms

    def recorded(relation, probes):
        relations.append(relation)
        return real(relation, probes)

    monkeypatch.setattr(susyqm, "_residual_norms", recorded)
    susyqm.verify_operator_relations(ScarfParams(*ab), grids=(64, 128, 256))
    assert len(relations) == 11
    x = Grid(1024, math.pi / 2).nodes
    for relation in relations:
        residual, ref = relation.residual(), _ref_residual(relation)
        _assert_bitwise(residual, ref, x)
        for u in _TEST_FNS.values():
            assert ((residual.apply(u, x) + 0.0).tobytes()
                    == (_ref_apply(ref, u, x) + 0.0).tobytes())


@pytest.mark.parametrize("grids", [[63, 126, 252], [0, 0, 0], [-8, -16, -32]])
def test_ladder_check_refuses_an_odd_or_nonpositive_size_before_any_grid(grids):
    # each is a doubling ladder; the size rule refuses it first, in the
    # ladder's words rather than a Grid's ("grid size must ...")
    from dunklqm.grid import convergence_study
    from dunklqm.spectra import spectrum_problem

    problem = spectrum_problem(susyqm.SusySystem.oscillator(), 1)
    for check in (check_doubling_ladder, lambda g: convergence_study(problem, g),
                  lambda g: susyqm.verify_operator_relations(
                      ScarfParams(F(0), F(1)), g)):
        with pytest.raises(ValueError,
                           match="^grid sizes must be even and positive$"):
            check(grids)
