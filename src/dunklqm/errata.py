"""Consolidated errata report: every commonly printed closed form that the
oracles contradict, with the printed form, the oracle form, and computed
evidence. Findings are informational; the verification suites treat the
oracle-based checks as authoritative and these discrepancies as data.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as F

import numpy as np

from . import grid as gridmod
from .gegenbauer import GegParams, eigenvalue_geg, geg_potentials
from .jacobi import Jacobi1Params, construct_explicit
from .opalg import dunkl, verify_family
from .spectra import gegenbauer_problem
from .susyqm import (
    ScarfParams,
    bracket_n,
    exact_residual,
    ground_state_norm_sq,
    hermite_superposition,
    intertwiner,
    osc_mixed_state,
    osc_wavefunction,
    scarf_relations,
    verify_lowering,
    verify_raising,
    wavefunction_fn,
)

__all__ = ["build_errata", "errata_json"]

# parameter sets shared by two entries each, whose oracle runs once per report
_RAISING_PARAMS = ScarfParams(F(1, 2), F(3, 2))
_GEG_PARAMS = GegParams(F(1, 2), F(1))


def _entry(eid, label, printed, oracle, evidence, verdict) -> dict:
    return {
        "id": eid,
        "equation_label": label,
        "printed": printed,
        "oracle": oracle,
        "evidence": evidence,
        "verdict": verdict,
    }


def _odd_explicit_prefactor() -> dict:
    """Verdicts of the family battery's explicit-form comparison, odd n <= 9."""
    fuzz = [(F(0), F(0)), (F(1, 2), F(3, 2)), (F(1), F(1))]
    records = {ab: verify_family(Jacobi1Params(*ab), 9).records for ab in fuzz}
    mismatches = []
    for (a, b), recs in records.items():
        odd = [(r.n, r.results["explicit_matches"]) for r in recs if r.n % 2]
        mismatches.append({
            "params": f"({a},{b})",
            "printed_fails_at": [n for n, ok in odd if not ok["printed"]],
            "corrected_matches_at": [n for n, ok in odd if ok["corrected"]]})
    oracle = records[fuzz[0]][1].polynomial
    printed = construct_explicit(1, Jacobi1Params(*fuzz[0]), "printed")
    monicized = printed.scale(1 / printed.coeffs[-1])
    return _entry(
        "jacobi-odd-explicit-prefactor",
        "little-m1-jacobi/odd-degree-explicit-form/second-block-prefactor",
        "(alpha+beta+1)/(alpha+1)",
        "(n+alpha+beta+1)/(alpha+1)",
        {
            "example_params": "alpha=0, beta=0, n=1",
            "printed_monicized": monicized.pretty(),
            "oracle": oracle.pretty(),
            "fuzz": mismatches,
        },
        "printed form incorrect for odd degrees; corrected form matches both oracles",
    )


def _odd_kappa_base() -> dict:
    p = Jacobi1Params(F(1, 2), F(3, 2))
    printed = construct_explicit(3, p, "printed")
    corrected = construct_explicit(3, p, "corrected")
    return _entry(
        "jacobi-odd-kappa-base",
        "little-m1-jacobi/odd-degree-monic-prefactor/denominator-pochhammer-base",
        "(n+1)/2 + alpha/2 + beta/2 + 1",
        "(n-1)/2 + alpha/2 + beta/2 + 1",
        {
            "example_params": "alpha=1/2, beta=3/2, n=3",
            "printed_leading_coefficient": str(printed.coeffs[-1]),
            "corrected_leading_coefficient": str(corrected.coeffs[-1]),
        },
        "printed base breaks monicity; corrected base forced by the leading term",
    )


def _weight_exponent() -> dict:
    a, b = F(1), F(1)
    af, bf = float(a), float(b)

    def moment_with_exponent(expo: float, n: int) -> float:
        w = lambda y: np.abs(y) ** af * (1 - y**2) ** expo * (1 + y)
        total = gridmod.quadrature(w, 1.0)
        mom = gridmod.quadrature(lambda y: w(y) * y**n, 1.0)
        return mom / total

    exact_c1 = Jacobi1Params(a, b).moments(2)[1]
    printed_c1 = moment_with_exponent((bf + 1) / 2, 1)
    derived_c1 = moment_with_exponent((bf - 1) / 2, 1)
    return _entry(
        "jacobi-weight-exponent",
        "little-m1-jacobi/orthogonality-weight/one-minus-y-squared-exponent",
        "(beta+1)/2",
        "(beta-1)/2",
        {
            "example_params": "alpha=1, beta=1",
            "exact_first_moment": str(exact_c1),
            "printed_exponent_first_moment": printed_c1,
            "derived_exponent_first_moment": derived_c1,
        },
        "moments force exponent (beta-1)/2 (substitution y = sin x); "
        "printed exponent is off by one",
    )


def _ground_state_normalization() -> dict:
    p = ScarfParams(F(1), F(1))
    af, bf = float(p.alpha), float(p.beta)
    form_a = math.gamma(af / 2 + bf / 2 + 1) / (
        math.gamma(af / 2 + 1) * math.gamma(bf / 2 + 1))
    form_b = math.gamma(af / 2 + bf / 2 + 0.5) / (
        math.gamma(af / 2 + 0.5) * math.gamma(bf / 2 + 0.5))
    oracle = ground_state_norm_sq(p)
    psi0 = wavefunction_fn(0, p)
    norm = gridmod.quadrature(lambda x: psi0(x) ** 2, math.pi / 2)
    return _entry(
        "scarf-ground-state-normalization",
        "extended-scarf/ground-state-normalization-constant",
        "form A: Gamma(a/2+b/2+1)/(Gamma(a/2+1) Gamma(b/2+1)); "
        "form B: Gamma(a/2+b/2+1/2)/(Gamma(a/2+1/2) Gamma(b/2+1/2))",
        "1/B((a+1)/2, (b+1)/2) = Gamma(a/2+b/2+1)/(Gamma(a/2+1/2) Gamma(b/2+1/2))",
        {
            "example_params": "alpha=1, beta=1",
            "form_a_value": form_a,
            "form_b_value": form_b,
            "oracle_value": oracle,
            "quadrature_norm_with_oracle": norm,
            "note": "form A = 4/pi, form B = sqrt(pi)/2, oracle = 1",
        },
        "both displayed forms disagree with the beta-integral oracle; the "
        "oracle normalizes the ground state to 1 by quadrature",
    )


def _x_tangent_coefficient() -> dict:
    p = ScarfParams(F(1), F(1))
    g = gridmod.Grid(1024, math.pi / 2)
    psi0 = wavefunction_fn(0, p)(g.nodes)
    mask = (np.abs(g.nodes) > 0.1) & (np.abs(np.abs(g.nodes) - g.halfwidth) > 0.1)
    out_p = intertwiner(p, "X", "printed").stencil(g)(psi0)
    out_c = intertwiner(p, "X", "corrected").stencil(g)(psi0)
    tan_match = np.abs(out_p + 0.5 * np.tan(g.nodes) * psi0)[mask].max()
    lowering = verify_lowering(p, 12)
    gauged_text = dunkl(p.alpha / 2).pretty()
    return _entry(
        "scarf-x-intertwiner-tangent-coefficient",
        "extended-scarf/lowering-intertwiner/tangent-coefficient",
        "beta/2",
        "(beta+1)/2",
        {
            "example_params": "alpha=1, beta=1",
            "printed_X_on_ground_state_max": float(np.abs(out_p[mask]).max()),
            "printed_X_equals_minus_half_tan_times_psi0_residual": float(tan_match),
            "corrected_X_on_ground_state_max": float(np.abs(out_c[mask]).max()),
            "corrected_gauged_X_is_dunkl_lowering_n_le_12": all(lowering),
            "corrected_gauged_operator": gauged_text,
        },
        "printed X fails to annihilate the ground state; corrected X is the "
        "Dunkl lowering map exactly",
    )


def _y_tangent_coefficient(raised: list) -> dict:
    """``raised``: corrected-scalar verdicts of the raising map, n <= 12."""
    return _entry(
        "scarf-y-intertwiner-tangent-coefficient",
        "extended-scarf/raising-intertwiner/tangent-coefficient",
        "beta/2",
        "(beta-1)/2",
        {
            "example_params": "alpha=1/2, beta=3/2",
            "corrected_mapping_exact_n": [i for i, r in enumerate(raised) if r],
            "skipped_degenerate_targets": [i for i, r in enumerate(raised)
                                           if r is None],
        },
        "coefficient fixed by requiring the raising map at n=0; re-verified "
        "exactly for n <= 12",
    )


def _y_mapping_scalar(corrected: list, printed: list) -> dict:
    """Raising-map verdicts with the corrected and the printed scalar."""
    a, b = _RAISING_PARAMS.alpha, _RAISING_PARAMS.beta
    printed_n0 = b - 1 + bracket_n(0, a)
    actual_n0 = a + b
    ok_corrected = [r for r in corrected[:9] if r is not None]
    ok_printed = [r for r in printed[:9] if r is not None]
    return _entry(
        "scarf-y-mapping-scalar",
        "extended-scarf/raising-intertwiner/mapping-scalar",
        "beta - 1 + [n]_alpha",
        "beta - 1 + [n+1]_alpha",
        {
            "example_params": "alpha=1/2, beta=3/2",
            "printed_scalar_at_n0": str(printed_n0),
            "actual_scalar_at_n0": str(actual_n0),
            "corrected_scalar_exact_through_n8": all(ok_corrected),
            "printed_scalar_any_match_through_n8": any(ok_printed),
        },
        "the gauged raising map scales by beta-1+[n+1]_alpha; the printed "
        "index is shifted by one",
    )


def _product_relation_placement() -> dict:
    g = gridmod.Grid(1024, math.pi / 2)
    residual = {(name, variant): exact_residual(relation, g)
                for name, variant, _, relation
                in scarf_relations(ScarfParams(F(1), F(1, 2)))
                if name.startswith("product_")}
    return _entry(
        "scarf-product-relation-placement",
        "extended-scarf/product-relation/parameter-placement",
        "Y_{a,b+1} X_{a,b+1} = 2H + sqrt(2) a Q + (a+b+1)(a-b-1)/4, with the "
        "printed X, Y coefficient set",
        "same right side with the map-consistent (corrected) X, Y requires "
        "placement Y_{a,b+2} X_{a,b}",
        {
            "example_params": "alpha=1, beta=1/2",
            "typeset_placement_printed_ops_residual": residual[
                "product_typeset_indices", "printed"],
            "typeset_placement_corrected_ops_residual": residual[
                "product_typeset_indices", "corrected"],
            "repaired_placement_corrected_ops_residual": residual[
                "product_repaired_indices", "corrected"],
            "repaired_placement_printed_ops_residual": residual[
                "product_repaired_indices", "printed"],
        },
        "self-consistent as typeset (printed ops pass it) but inconsistent "
        "with the eigenfunction maps: the printed X at b+1 equals the "
        "corrected X at b",
    )


def _gegenbauer_potential_constants(derived_spec: list, targets: list) -> dict:
    """``derived_spec``, ``targets``: lowest three grid energies with the
    derived potentials (the production route) and that problem's -lambda_n."""
    p = _GEG_PARAMS
    muf, alf = float(p.mu), float(p.alpha)
    shift = muf**2 + 4 * alf * muf + 2 * muf + 0.25
    # printed potentials sampled away from the core: constant offsets
    x0 = 0.8
    u0p, u1p, _ = geg_potentials(p, x0, "printed")
    u0d, u1d, _ = geg_potentials(p, x0, "derived")
    return _entry(
        "gegenbauer-potential-constants",
        "gegenbauer-hamiltonian/scalar-and-reflection-potential-constants",
        "U0 ends in '- alpha'; U1 = (2 alpha + 1) mu - mu/sin^2 x",
        "U0 ends in '- (mu+alpha+1/2)^2 + (2 alpha+1) mu'; "
        "U1 = -mu/sin^2 x - (2 alpha + 1) mu",
        {
            "example_params": "mu=1/2, alpha=1",
            "U0_printed_minus_derived_at_x0.8": u0p - u0d,
            "U1_printed_minus_derived_at_x0.8": u1p - u1d,
            "predicted_ground_level_shift_of_printed": shift,
            "derived_potentials_lowest3": derived_spec,
            "targets_minus_lambda": targets,
            "special_cases": "mu=0 Poeschl-Teller and alpha=-1/2 "
            "Calogero-Sutherland forms match the derived constants exactly",
        },
        "printed constants violate H F0 = 0 (U0 by mu^2+1/4, U1 constant by "
        "sign); derived forms reproduce the displayed special cases",
    )


def _gegenbauer_eigenvalue_sign(spec: list) -> dict:
    lam = [str(eigenvalue_geg(n, _GEG_PARAMS)) for n in range(3)]
    return _entry(
        "gegenbauer-eigenvalue-sign",
        "gegenbauer-hamiltonian/eigenvalue-sign-convention",
        "H psi_n = lambda_n psi_n (with lambda_n <= 0)",
        "H psi_n = -lambda_n psi_n (bound-state energies -lambda_n >= 0, "
        "consistent with H = -F0 L F0^{-1})",
        {
            "example_params": "mu=1/2, alpha=1",
            "lambda_n": lam,
            "grid_energies_lowest3": spec,
        },
        "grid oracle resolves the sign: energies equal -lambda_n",
    )


def _oscillator_laguerre_weight() -> dict:
    ratios_printed = [float(osc_wavefunction(1, 1, x)
                            / hermite_superposition(1, -1, x)) for x in (0.4, 0.9)]
    ratios_corr = [float(osc_wavefunction(n, 1, 0.7, "corrected")
                         / hermite_superposition(n, -1, 0.7)) for n in range(3)]
    norms = [gridmod.quadrature(lambda x: osc_wavefunction(n, 1, x) ** 2, 10.0)
             for n in range(3)]
    return _entry(
        "oscillator-laguerre-weight",
        "oscillator/mixed-state-coordinate-form/relative-block-weight",
        "(n+1) between the two Laguerre blocks",
        "sqrt(n+1) (then the form equals 2^(1/2-n) times the Hermite "
        "superposition under the epsilon pairing eps -> -eps)",
        {
            "printed_ratio_vs_hermite_at_n1_two_points": ratios_printed,
            "corrected_ratio_constants": ratios_corr,
            "expected_constants": [2.0 ** (0.5 - n) for n in range(3)],
            "measured_norm_of_printed_form": norms,
            "norm_formula": "(n+2)/2^(2n+1)",
        },
        "printed weight breaks the eigenvector property for n >= 1; at n = 0 "
        "the forms agree up to the recorded constant sqrt(2)",
    )


def _oscillator_hermite_normalization() -> dict:
    return _entry(
        "oscillator-hermite-normalization",
        "oscillator/number-state-coordinate-form/normalization",
        "1/(pi^(1/4) 2^(n/2) sqrt(n))",
        "1/(pi^(1/4) 2^(n/2) sqrt(n!))",
        {
            "note": "the printed denominator vanishes at n=0; with sqrt(n!) "
            "the states are orthonormal",
        },
        "typo: n should read n!",
    )


def _mixed_state_prefactor() -> dict:
    st = osc_mixed_state(0, +1)
    return _entry(
        "oscillator-mixed-state-prefactor",
        "oscillator/mixed-state-prefactor",
        "1/2 (giving norm 1/sqrt(2))",
        "1/sqrt(2) would normalize; the displayed coordinate form is "
        "separately normalized to (n+2)/2^(2n+1)",
        {
            "measured_norm_of_half_prefactor_state": st.norm(),
        },
        "recorded: prefactor and coordinate form use different normalizations",
    )


def build_errata() -> list:
    """Compute all errata entries with live evidence."""
    corrected, printed = verify_raising(_RAISING_PARAMS, 12)
    geg = gegenbauer_problem(_GEG_PARAMS, 3)
    geg_spectrum = [float(v) for v in geg.compute(1024)]
    return [
        _odd_explicit_prefactor(),
        _odd_kappa_base(),
        _weight_exponent(),
        _ground_state_normalization(),
        _x_tangent_coefficient(),
        _y_tangent_coefficient(corrected),
        _y_mapping_scalar(corrected, printed),
        _product_relation_placement(),
        _gegenbauer_potential_constants(geg_spectrum, list(geg.targets)),
        _gegenbauer_eigenvalue_sign(geg_spectrum),
        _oscillator_laguerre_weight(),
        _oscillator_hermite_normalization(),
        _mixed_state_prefactor(),
    ]


def errata_json() -> str:
    return json.dumps(build_errata(), indent=2)
