"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add -s to see the lines).
"""

import math
import random
import time
from fractions import Fraction as F

from dunklqm import grid as gridmod
from dunklqm.exact import hyp2f1, hyp3f2, pochhammer
from dunklqm.gegenbauer import GegParams
from dunklqm.jacobi import (
    FUZZ_PARAMS,
    Jacobi1Params,
    eigenvalue,
    lop,
    norm_sq_closed,
    norm_sq_from_normalization,
)
from dunklqm.opalg import construct_eigen, inner
from dunklqm.spectra import gegenbauer_problem, oscillator_problem, scarf_problem
from dunklqm.susyqm import (
    FockVector,
    ScarfParams,
    gauged_supercharge,
    hermite_superposition,
    osc_h_apply,
    osc_mixed_state,
    osc_q_apply,
    osc_wavefunction,
    scarf_energy,
    supercharge_eigenvalue_scaled,
    verify_lowering,
    verify_operator_relations,
    verify_raising,
    wavefunction_fn,
)
from dunklqm.errata import build_errata


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_exact_eigen_equation_suite():
    t0 = time.time()
    for a, b in FUZZ_PARAMS:
        p = Jacobi1Params(a, b)
        op = lop(p)
        for n in range(21):
            pn = construct_eigen(n, p)
            residual = op.apply(pn) - pn.scale(eigenvalue(n, p))
            assert not residual, (a, b, n)
    dt = time.time() - t0
    _report(1, dt < 30.0,
            f"zero residual for 5 parameter pairs, n<=20, in {dt:.1f}s (<30s)")


def test_criterion_2_orthogonality_and_norms():
    worst = True
    for a, b in FUZZ_PARAMS:
        p = Jacobi1Params(a, b)
        m = p.moments(41)
        ps = [construct_eigen(n, p) for n in range(21)]
        for n in range(21):
            if inner(ps[n], ps[n], m) != norm_sq_closed(n, p):
                worst = False
            if norm_sq_from_normalization(n, p) != norm_sq_closed(n, p):
                worst = False
            for k in range(n):
                if inner(ps[k], ps[n], m) != 0:
                    worst = False
    _report(2, worst, "exact orthogonality, closed-form norms, and "
                      "normalization-constant consistency for n<=20, 5 pairs")


def test_criterion_3_supercharge_spectrum():
    ok = True
    for a, b in FUZZ_PARAMS:
        p = ScarfParams(a, b)
        q = gauged_supercharge(p)
        for n in range(21):
            pn = construct_eigen(n, p)
            s = supercharge_eigenvalue_scaled(n, p)
            if q.apply(pn) != pn.scale(s):
                ok = False
            if s * s / 8 != scarf_energy(n, p):
                ok = False
    _report(3, ok, "scaled supercharge eigenvalues exact (sign and magnitude) "
                   "and squares/8 equal the energy closed form, n<=20, 5 pairs")


def test_criterion_4_dunkl_lowering_and_corrected_raising():
    ok = True
    printed_failures = 0
    for a, b in FUZZ_PARAMS:
        p = ScarfParams(a, b)
        if not all(verify_lowering(p, 20)):
            ok = False
        raised, printed = verify_raising(p, 12)
        corrected = [r for r in raised if r is not None]
        if not (corrected and all(corrected)):
            ok = False
        printed_failures += sum(1 for r in printed[:7] if r is False)
    # printed failures are recorded findings, not assertions of correctness
    ok = ok and printed_failures > 0
    _report(4, ok, f"Dunkl lowering exact n<=20 and corrected raising exact "
                   f"n<=12 on all pairs; {printed_failures} printed-scalar "
                   f"failures recorded")


def test_criterion_5_grid_spectra():
    t0 = time.time()
    ok = True
    details = []
    for a, b in [(F(0), F(2)), (F(1), F(3)), (F(1, 2), F(3, 2))]:
        prob = scarf_problem(ScarfParams(a, b), 3)
        rep = gridmod.convergence_study(prob, [1024, 2048, 4096])
        err = rep.max_error()
        details.append(f"scarf({a},{b}) {err:.1e}")
        ok = ok and err < 1e-6
    scarf_dt = time.time() - t0
    ok = ok and scarf_dt < 120.0
    rep = gridmod.convergence_study(oscillator_problem(5), [1024, 2048, 4096])
    details.append(f"osc {rep.max_error():.1e}")
    ok = ok and rep.max_error() < 1e-6
    rep = gridmod.convergence_study(gegenbauer_problem(GegParams(F(1, 2), F(1)), 3),
                                    [1024, 2048, 4096])
    details.append(f"geg {rep.max_error():.1e}")
    ok = ok and rep.max_error() < 1e-5
    _report(5, ok, f"{'; '.join(details)}; scarf block {scarf_dt:.0f}s (<120s)")


def test_criterion_6_operator_relation_residuals():
    rep = verify_operator_relations(ScarfParams(F(0), F(1)),
                                    grids=(512, 1024, 2048))
    ok = True
    details = []
    must_hold = {("q_squared_equals_h", "n/a"),
                 ("reflection_conjugation_Q", "n/a"),
                 ("reflection_conjugation_H", "n/a"),
                 ("intertwine_X", "corrected"),
                 ("intertwine_Y", "corrected"),
                 ("product_repaired_indices", "corrected")}
    order_checked = 0
    for r in rep:
        key = (r["relation"], r["variant"])
        if key in must_hold:
            if r["residual"] > 1e-8:
                ok = False
            details.append(f"{r['relation']}[{r['variant']}] {r['residual']:.1e}")
            # convergence order of the FD route, where the ladder resolves it
            if r["fd_norms"][0] > 1e-10 and math.isfinite(r["order"]):
                order_checked += 1
                if r["order"] < 1.7:
                    ok = False
    ok = ok and order_checked >= 3
    _report(6, ok, f"corrected-variant residuals < 1e-8 at N=2048 "
                   f"({order_checked} relations converging at order >= 1.7): "
                   + "; ".join(details))


def test_criterion_7_normalization_oracle():
    ok = True
    for a, b in FUZZ_PARAMS:
        p = ScarfParams(a, b)
        psi0 = wavefunction_fn(0, p)
        val = gridmod.quadrature(lambda x: psi0(x) ** 2, math.pi / 2)
        if abs(val - 1.0) > 1e-8:
            ok = False
    entries = {e["id"]: e for e in build_errata()}
    ev = entries["scarf-ground-state-normalization"]["evidence"]
    ok = ok and abs(ev["form_a_value"] - 4 / math.pi) < 1e-12
    ok = ok and abs(ev["form_b_value"] - math.sqrt(math.pi) / 2) < 1e-12
    ok = ok and abs(ev["oracle_value"] - 1.0) < 1e-12
    ok = ok and abs(ev["quadrature_norm_with_oracle"] - 1.0) < 1e-8
    _report(7, ok, "ground-state quadrature norm 1 +- 1e-8 on 5 pairs; errata "
                   "holds the three-way normalization comparison "
                   "{4/pi, sqrt(pi)/2, 1} at alpha=beta=1")


def test_criterion_8_hypergeometric_identities():
    rng = random.Random(1234)
    cv_cases = 0
    while cv_cases < 50:
        n = rng.randint(0, 12)
        b = F(rng.randint(-12, 12), rng.randint(1, 6))
        c = F(rng.randint(-12, 12), rng.randint(1, 6))
        if c.denominator == 1 and -n < c <= 0:
            continue
        assert hyp2f1(-n, b, c, 1) == pochhammer(c - b, n) / pochhammer(c, n)
        cv_cases += 1
    f32_cases = 0
    while f32_cases < 50:
        k = rng.randint(1, 8)
        b = F(rng.randint(-10, 10), rng.randint(1, 5))
        c = F(rng.randint(-10, 10), rng.randint(1, 5))
        if (b.denominator == 1 and -k < b <= 0) or \
           (c.denominator == 1 and -(2 * k) < c <= 0) or \
           ((b + 1).denominator == 1 and -(k - 1) < b + 1 <= 0):
            continue
        lhs = hyp3f2(1 - k, b, c + k, b + 1, c, 1)
        rhs = (pochhammer(1, k - 1) / pochhammer(b + 1, k - 1)) * sum(
            pochhammer(b, l) / math.factorial(l) * hyp2f1(-l, c + k, c, 1)
            for l in range(k))
        assert lhs == rhs
        f32_cases += 1
    _report(8, True, f"Chu-Vandermonde ({cv_cases} cases, n<=12) and the 3F2 "
                     f"summation ({f32_cases} cases, k<=8) hold exactly")


def test_criterion_9_oscillator_algebra():
    ok = True
    for n in range(13):
        v = FockVector.basis(n)
        if osc_q_apply(osc_q_apply(v)).distance(osc_h_apply(v)) > 1e-12:
            ok = False
    for n in range(7):
        for eps in (+1, -1):
            st = osc_mixed_state(n, eps)
            if osc_q_apply(st).distance(
                    st.scale(eps * math.sqrt(2 * n + 2))) > 1e-12:
                ok = False
    # pointwise agreement with the Hermite superposition at n=0 up to one
    # global constant (recorded: sqrt(2), under the epsilon pairing -eps)
    const = osc_wavefunction(0, 1, 0.5) / hermite_superposition(0, -1, 0.5)
    for eps in (+1, -1):
        for x in (0.3, 0.5, -0.8, 1.4):
            lhs = osc_wavefunction(0, eps, x)
            rhs = const * hermite_superposition(0, -eps, x)
            if abs(lhs - rhs) > 1e-10:
                ok = False
    _report(9, ok, f"Q^2 = H to 1e-12 (n<=12); mixed states are eigenvectors "
                   f"with eigenvalue eps*sqrt(2n+2); Laguerre form matches the "
                   f"Hermite superposition at n=0 with recorded constant "
                   f"{const:.12f}")
