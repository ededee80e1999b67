"""Tests for the exact composition calculus of reflection operators and its
finite-difference evaluation."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from dunklqm.grid import Grid
from dunklqm.refcalc import Chain, CoeffFn, FirstOrderRefOp, ProbeFn
from dunklqm.susyqm import _TEST_FNS, ScarfParams, scarf_potential

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

    return (op.p.f(x) * du(x) + op.q.f(x) * u.f(x) + op.r.f(x) * u.f(-x)
            - op.s.f(x) * du(-x))


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


def test_composition_matches_nested_numerics():
    a = FirstOrderRefOp.build(p=CoeffFn.const(1.0),
                              q=CoeffFn.sec().scale(-0.3),
                              r=CoeffFn.tan().scale(0.4))
    b = FirstOrderRefOp.build(q=CoeffFn.const(0.2),
                              r=CoeffFn.const(1.1),
                              s=CoeffFn.const(-0.6))
    comp = b.compose(a)
    # nested application with tight central differences on the inner result
    h = 1e-5
    xs = np.linspace(-1.0, 1.0, 21)

    def a_of(t):
        return a.apply(U, np.atleast_1d(t))[0]

    vals = []
    for x in xs:
        v = b.q.f(x) * a_of(x) + b.r.f(x) * a_of(-x) \
            - b.s.f(x) * (a_of(-x + h) - a_of(-x - h)) / (2 * h)
        vals.append(v)
    exact = comp.apply(U, xs)
    assert np.abs(exact - np.asarray(vals)).max() < 1e-7


def test_reflection_conjugation_rule():
    op = FirstOrderRefOp.build(p=CoeffFn.tan(), q=CoeffFn.const(0.3),
                               r=CoeffFn.sec(), s=CoeffFn.const(0.5))
    conj = op.conjugated_by_reflection()
    # R A R applied to u equals (A (Ru)) reflected
    lhs = conj.apply(U, X)
    ru = ProbeFn(lambda x: U.f(-x), lambda x: -U.d1(-x), lambda x: U.d2(-x))
    rhs = op.apply(ru, -X)
    assert np.abs(lhs - rhs).max() < 1e-12


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
