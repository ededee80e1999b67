"""Command-line interface: family tables, verification suites, grid spectra,
and the errata report.

Exit codes: 0 success, 1 verification failure, 2 usage error. Rational
parameters are passed as exact "p/q" strings, negative ones too ("--alpha
-1/2"). All output is deterministic for a fixed invocation; floats print at
17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
import tempfile
from fractions import Fraction

from .exact import hyp2f1, hyp3f2, pochhammer

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _grid_list(text: str) -> list:
    try:
        out = [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid list: {text!r}")
    if len(out) < 3 or any(b <= a for a, b in zip(out, out[1:])):
        raise argparse.ArgumentTypeError(
            "need >= 3 strictly ascending grid sizes")
    if any(n <= 0 or n % 2 for n in out):
        raise argparse.ArgumentTypeError("grid sizes must be even and positive")
    if any(b != 2 * a for a, b in zip(out, out[1:])):
        raise argparse.ArgumentTypeError(
            "grid sizes must double (N, 2N, 4N, ...): the extrapolation "
            "assumes a ratio of 2")
    return out


def _positive_finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a positive finite number")
    return value


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return parse


def _out_path(text: str) -> str:
    """An --out path whose directory exists and that is not a directory, so
    that a command never finishes its work and then fails to write it. The
    directory is the path's own, as written: "dir/missing/" names the
    directory "dir/missing", and "file/x" the directory "file"."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not os.path.isdir(os.path.dirname(text) or os.curdir):
        raise argparse.ArgumentTypeError(f"no directory to write {text!r} into")
    return text


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-dunklqm-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# The parameters each family kind, spectrum system and verify suite reads,
# with their defaults. A parameter given to a choice that does not read it is
# refused: the answer would be to a different question than the one asked.
_FAMILY_PARAMS = {
    "jacobi-m1": {"alpha": Fraction(0), "beta": Fraction(0)},
    "gegenbauer": {"mu": Fraction(1, 2), "alpha": Fraction(0)},
}
_SPECTRUM_PARAMS = {
    "scarf": {"alpha": Fraction(0), "beta": Fraction(2)},
    "oscillator": {},
    "gegenbauer": {"mu": Fraction(1, 2), "alpha": Fraction(0)},
}
_VERIFY_PARAMS = {
    "all": {"degree": 12},
    "exact": {},
    "jacobi": {"degree": 12},
    "gegenbauer": {"degree": 12},
    "oscillator": {},
    "intertwiners": {"degree": 12},
    "relations": {},
}


def _refuse_unread(args, option: str, reads: dict) -> bool:
    """Fill in the defaults of the parameters that the chosen kind, system or
    suite reads; for a given parameter that it does not read, print an error
    and return True."""
    choice = getattr(args, option)
    for name in dict.fromkeys(n for params in reads.values() for n in params):
        if name in reads[choice]:
            if getattr(args, name) is None:
                setattr(args, name, reads[choice][name])
        elif getattr(args, name) is not None:
            print(f"error: --{option} {choice} does not read --{name}",
                  file=sys.stderr)
            return True
    return False


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------

def cmd_family(args) -> int:
    from .gegenbauer import GegParams
    from .jacobi import Jacobi1Params
    from .opalg import eigenvalue_collision, verify_family

    if _refuse_unread(args, "kind", _FAMILY_PARAMS):
        return EXIT_USAGE
    try:
        if args.kind == "jacobi-m1":
            params = Jacobi1Params(args.alpha, args.beta)
        else:
            params = GegParams(args.mu, args.alpha)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    result = verify_family(params, max(args.degree, 2))
    degenerate = [n for n in result.skipped_degenerate if n <= args.degree]
    if degenerate:
        n = degenerate[0]
        m = eigenvalue_collision(n, params)
        print(f"error: degenerate spectrum at {params.label()}: degrees {m} "
              f"and {n} share the eigenvalue {params.eigenvalue(n)}, so P_{n} "
              f"is not uniquely defined", file=sys.stderr)
        return EXIT_USAGE
    rows = [(r.n, r.polynomial.pretty(), str(r.eigenvalue), str(r.norm_sq))
            for r in result.records[:args.degree + 1]]
    report = result.as_json_dict()

    if args.format == "json":
        payload = {"kind": args.kind, "params": report["params"],
                   "table": [{"n": n, "polynomial": poly, "eigenvalue": ev,
                              "norm_sq": nn} for n, poly, ev, nn in rows],
                   "report": report}
        _emit(json.dumps(payload, indent=2), args.out)
    elif args.format == "csv":
        lines = ["n,polynomial,eigenvalue,norm_sq"]
        lines += [f'{n},"{poly}",{ev},{nn}' for n, poly, ev, nn in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"{args.kind} family, {report['params']}"]
        for n, poly, ev, nn in rows:
            lines.append(f"  n={n:<3d} eigenvalue={ev:<12s} norm^2={nn:<16s} "
                         f"P_{n} = {poly}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_exact(log) -> tuple[bool, int]:
    rng = random.Random(20260810)
    for _ in range(60):
        n = rng.randint(0, 12)
        b = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        c = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        if c.denominator == 1 and -n < c <= 0:
            continue
        if hyp2f1(-n, b, c, 1) != pochhammer(c - b, n) / pochhammer(c, n):
            log("exact: Chu-Vandermonde FAILED at "
                f"n={n}, b={b}, c={c}")
            return False, 0
        m, k = rng.randint(0, 6), rng.randint(0, 6)
        if pochhammer(b, m + k) != pochhammer(b, k) * pochhammer(b + k, m):
            log("exact: Pochhammer splitting FAILED")
            return False, 0
    for _ in range(60):
        k = rng.randint(1, 8)
        b = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
        c = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
        if (b.denominator == 1 and -k < b <= 0) or \
           (c.denominator == 1 and -(2 * k) < c <= 0) or \
           ((b + 1).denominator == 1 and -(k - 1) < b + 1 <= 0):
            continue
        lhs = hyp3f2(1 - k, b, c + k, b + 1, c, 1)
        rhs = (pochhammer(1, k - 1) / pochhammer(b + 1, k - 1)) * sum(
            pochhammer(b, l) / math.factorial(l) * hyp2f1(-l, c + k, c, 1)
            for l in range(k))
        if lhs != rhs:
            log(f"exact: 3F2 summation FAILED at k={k}, b={b}, c={c}")
            return False, 0
    log("exact: hypergeometric identities pass (randomized, exact)")
    return True, 0


def _suite_family(log, kind: str, degree: int) -> tuple[bool, int]:
    """The exact battery on each fuzz parameter pair of one family."""
    from .opalg import verify_family

    if kind == "jacobi":
        from .jacobi import FUZZ_PARAMS as fuzz, Jacobi1Params as family
    else:
        from .gegenbauer import GEG_FUZZ_PARAMS as fuzz, GegParams as family
    ok, findings = True, 0
    for a, b in fuzz:
        rep = verify_family(family(a, b), degree)
        ok = ok and rep.all_oracle_checks_passed
        findings += rep.discrepancy_count()
        line = (f"{kind} ({a},{b}): oracle checks "
                f"{'pass' if rep.all_oracle_checks_passed else 'FAIL'}")
        if kind == "jacobi":    # the family with printed closed forms
            line += f", {rep.discrepancy_count()} printed-form discrepancies"
        log(line)
    return ok, findings


def _suite_csm(log) -> bool:
    from .gegenbauer import csm_two_particle_check

    res = max(csm_two_particle_check(Fraction(1), 0.9, 0.1),
              csm_two_particle_check(Fraction(1, 2), 1.0, -0.3))
    log(f"gegenbauer: two-particle CSM reduction residual {res:.3e}")
    return res < 1e-12


def _suite_oscillator(log) -> tuple[bool, int]:
    from .susyqm import (FockVector, osc_energy, osc_h_apply, osc_mixed_state,
                         osc_q_apply)

    ok = True
    for n in range(13):
        v = FockVector.basis(n)
        if osc_q_apply(osc_q_apply(v)).distance(osc_h_apply(v)) > 1e-12:
            ok = False
        if osc_h_apply(v).distance(v.scale(osc_energy(n))) > 1e-12:
            ok = False
    log(f"oscillator: Q^2 = H and spectrum {[osc_energy(n) for n in range(6)]} "
        f"on number states n<=12: {'pass' if ok else 'FAIL'}")
    for n in range(6):
        for eps in (1, -1):
            st = osc_mixed_state(n, eps)
            if osc_q_apply(st).distance(
                    st.scale(eps * math.sqrt(2 * n + 2))) > 1e-12:
                ok = False
    log("oscillator: mixed states are Q-eigenvectors with eigenvalue "
        "eps sqrt(2n+2): " + ("pass" if ok else "FAIL"))
    return ok, 0


def _suite_intertwiners(log, degree: int) -> tuple[bool, int]:
    """The exact lowering and raising maps up to ``degree`` on each fuzz
    pair; the printed-scalar findings are counted over n <= 6."""
    from .jacobi import FUZZ_PARAMS
    from .susyqm import ScarfParams, verify_lowering, verify_raising

    ok, findings = True, 0
    for a, b in FUZZ_PARAMS:
        p = ScarfParams(a, b)
        low = verify_lowering(p, degree)
        ok = ok and all(low)
        corrected, printed = verify_raising(p, degree)
        ok = ok and all(r for r in corrected if r is not None)
        findings += sum(r is False for r in printed[:7])
    log(f"intertwiners: corrected lowering/raising maps exact on all pairs: "
        f"{'pass' if ok else 'FAIL'}; printed-scalar mismatches recorded: "
        f"{findings}")
    return ok, findings


def _suite_relations(log) -> tuple[bool, int]:
    from .susyqm import ScarfParams, verify_operator_relations

    rep = verify_operator_relations(ScarfParams(Fraction(0), Fraction(1)),
                                    grids=(512, 1024, 2048))
    ok, findings = True, 0
    for r in rep:
        tag = f"{r['relation']}[{r['variant']}]"
        log(f"relations: {tag}: residual {r['residual']:.3e}, "
            f"fd order {r['order']:.2f}")
        if r["verdict"] == "defect" and r["expected"] == "identity":
            ok = False
        findings += r["verdict"] == r["expected"] == "defect"
    return ok, findings


VERIFY_SUITES = ("exact", "jacobi", "gegenbauer", "oscillator", "intertwiners",
                 "relations")


def cmd_verify(args) -> int:
    if _refuse_unread(args, "suite", _VERIFY_PARAMS):
        return EXIT_USAGE
    lines = []

    def log(msg):
        lines.append(msg)
        print(msg)

    suites = VERIFY_SUITES if args.suite == "all" else (args.suite,)
    all_ok, findings = True, 0
    for s in suites:
        if s == "exact":
            ok, f = _suite_exact(log)
        elif s == "jacobi":
            ok, f = _suite_family(log, s, args.degree)
        elif s == "gegenbauer":
            ok, f = _suite_family(log, s, args.degree)
            ok = _suite_csm(log) and ok
        elif s == "oscillator":
            ok, f = _suite_oscillator(log)
        elif s == "intertwiners":
            ok, f = _suite_intertwiners(log, args.degree)
        else:
            ok, f = _suite_relations(log)
        all_ok, findings = all_ok and ok, findings + f
    print(f"oracle checks: {'pass' if all_ok else 'FAIL'}; "
          f"printed-formula discrepancies: {findings} found")
    if args.out is not None:
        _write_atomic(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    import numpy as np

    from . import grid as gridmod
    from .spectra import gegenbauer_problem, oscillator_problem, scarf_problem

    if _refuse_unread(args, "system", _SPECTRUM_PARAMS):
        return EXIT_USAGE
    # no method returns more levels than grid points; refused before the
    # problem builds one closed-form target per level
    if args.levels > args.grids[0]:
        print(f"error: method limit: {args.levels} levels requested, the "
              f"coarsest grid has {args.grids[0]} points", file=sys.stderr)
        return EXIT_USAGE
    # parameters the problem refuses, method limits, and values that leave
    # float range in the targets or on the grid all exit 2
    try:
        with np.errstate(over="raise"):
            if args.system == "scarf":
                from .susyqm import ScarfParams
                prob = scarf_problem(ScarfParams(args.alpha, args.beta),
                                     args.levels)
            elif args.system == "oscillator":
                prob = oscillator_problem(args.levels)
            else:
                from .gegenbauer import GegParams
                prob = gegenbauer_problem(GegParams(args.mu, args.alpha),
                                          args.levels)
            rep = gridmod.convergence_study(prob, args.grids)
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: parameters beyond float range ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    tol = args.tol if args.tol is not None else prob.tolerance
    for lv in rep.levels:
        print(f"level {lv['level']}: extrapolated {lv['extrapolated']:.12g} "
              f"target {lv['target']:.12g} abs_error {lv['abs_error']:.3e}")
    if args.format == "csv":
        _emit(rep.to_csv(), args.out)
    else:
        _emit(rep.to_json(), args.out)
    if not rep.all_within_tolerance(tol):
        print(f"spectrum check FAILED tolerance {tol:g}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# errata
# ---------------------------------------------------------------------------

def cmd_errata(args) -> int:
    from .errata import errata_json

    _emit(errata_json(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dunklqm",
        description="Exact and numerical verification toolkit for 1D "
                    "supersymmetric quantum mechanics with reflections.")
    sub = ap.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="print an orthogonal family table")
    fam.add_argument("--kind", choices=["jacobi-m1", "gegenbauer"],
                     required=True)
    for name in ("--alpha", "--beta", "--mu"):
        fam.add_argument(name, type=_rat)
    fam.add_argument("--degree", type=_int_at_least(0), default=6)
    fam.add_argument("--format", choices=["text", "json", "csv"],
                     default="text")
    fam.add_argument("--out", type=_out_path)
    fam.set_defaults(fn=cmd_family)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite", default="all",
                     choices=["all", *VERIFY_SUITES])
    ver.add_argument("--degree", type=_int_at_least(2))
    ver.add_argument("--out", type=_out_path)
    ver.set_defaults(fn=cmd_verify)

    spec = sub.add_parser("spectrum", help="grid spectra vs closed forms")
    spec.add_argument("--system", choices=["scarf", "oscillator", "gegenbauer"],
                      required=True)
    for name in ("--alpha", "--beta", "--mu"):
        spec.add_argument(name, type=_rat)
    spec.add_argument("--levels", type=_int_at_least(1), default=3)
    spec.add_argument("--grids", type=_grid_list, default=[1024, 2048, 4096])
    spec.add_argument("--tol", type=_positive_finite, default=None)
    spec.add_argument("--format", choices=["json", "csv"], default="json")
    spec.add_argument("--out", type=_out_path)
    spec.set_defaults(fn=cmd_spectrum)

    err = sub.add_parser("errata", help="emit the consolidated errata report")
    err.add_argument("--out", type=_out_path)
    err.set_defaults(fn=cmd_errata)
    return ap


def _attach_negative_values(argv: list) -> list:
    """argparse takes a token such as "-1/2" or "-1e300" for an option name,
    so "--alpha -1/2" would lack its value; attach each such token to the
    option before it, as "--alpha=-1/2"."""
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and re.match(r"-\.?\d", tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
