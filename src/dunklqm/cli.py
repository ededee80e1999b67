"""Command-line interface: family tables, verification suites, grid spectra,
and the errata report.

Each choice of `family --kind`, `spectrum --system` and `verify --suite` is
one row of its command's table, read by the parser, the dispatch and `main`'s
one refusal of a parameter that the choice does not read (the answer would be
to another question; exit 2, before any work).

Exit codes: 0 success, 1 verification failure, 2 usage error. A command
returns whether its checks passed (a failed oracle check of `verify` or
`family`'s battery, or a `spectrum` tolerance miss, exits 1), and `main` maps
an error raised from any command through one table to one "error: ..." line:
EigenvalueFormulaError (a wrong eigenvalue formula, raised by the one exact
eigen-solve and caught by no command) exits 1; OverflowError,
FloatingPointError (beyond float range), MemoryError and every other
ValueError (each refusal, a DegenerateSpectrumError's colliding degree,
method limits and LinAlgError included) exit 2.
Rational parameters are passed as exact "p/q" strings, negative ones too
("--alpha -1/2"). All output is deterministic for a fixed invocation; floats
print at 17 significant digits. Without --out the report is the whole
stdout, so `spectrum` then prints its per-level summary to stderr. A closed
stdout (`dunklqm verify | head -1`) exits 1 with no traceback. Any other
failure to write the output (a full disk under stdout or --out) prints one
"error: cannot write output: ..." line and exits 1, with no traceback. --out
names a regular file or a new one, a symlink counting as its target; it is
replaced whole, keeping its mode (a new file gets 0o666 less the umask), and
anything else there (a directory, a FIFO, a device) is refused with exit 2
before any work.

The exact layer (exact, opalg, jacobi, gegenbauer) is imported here, with
every exact suite, and each command imports the float layers it uses. So
`family` and `verify --suite exact|jacobi|gegenbauer|intertwiners|oscillator`
load neither numpy nor scipy; `verify --suite relations` and plain `verify`
add refcalc and susyqm, with numpy but not scipy. Only the commands that run
a grid solver load grid and with it scipy: `spectrum` adds grid and spectra,
and `errata` loads every layer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import stat
import sys
import tempfile
from fractions import Fraction
from functools import partial
from typing import Callable

from .exact import hyp2f1, hyp3f2, pochhammer
from .gegenbauer import (
    GEG_FUZZ_PARAMS,
    GegParams,
    HermiteParams,
    csm_two_particle_check,
    oscillator_energy,
    verify_oscillator,
)
from .jacobi import FUZZ_PARAMS, Jacobi1Params, verify_lowering, verify_raising
from .opalg import (
    EigenvalueFormulaError,
    check_degree,
    eigen_sequence,
    verify_family,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _grid_list(text: str) -> list:
    from .refcalc import check_doubling_ladder

    try:
        out = [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid list: {text!r}")
    try:
        return check_doubling_ladder(out)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


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
    """An --out path whose directory exists and that names a regular file or
    nothing yet, a symlink counting as its target, so that a command never
    finishes its work and then fails to write it, nor replaces a FIFO or a
    device with a file. The directory is the path's own, as written:
    "dir/missing/" names the directory "dir/missing", and "file/x" the
    directory "file"; a symlink's target needs one too. The path is checked
    by ``os.stat``, never opened: opening a FIFO blocks."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not (os.path.isdir(os.path.dirname(text) or os.curdir)
            and os.path.isdir(os.path.dirname(os.path.realpath(text)))):
        raise argparse.ArgumentTypeError(f"no directory to write {text!r} into")
    try:
        mode = os.stat(text).st_mode
    except FileNotFoundError:
        return text
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot write {text!r} ({exc})")
    if not stat.S_ISREG(mode):
        raise argparse.ArgumentTypeError(f"{text!r} is not a regular file")
    return text


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` whole or not at all: into a temporary file beside the
    target, renamed over it. The target is a symlink's own target, and the
    file gets the mode that ``open`` would give it: the old file's, or 0o666
    less the umask for a new one."""
    path = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-dunklqm-")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, mode)
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


class _Choice:
    """What a choice builds or runs (a family kind's parameter class; a
    spectrum system's family parameter class or None, for the `SusySystem`
    constructor of the system's name; a verify suite's runner) and the
    parameters it reads, with defaults, in make's order."""

    def __init__(self, make: Callable | None, **reads):
        self.make = make
        self.reads = reads

    def values(self, args) -> list:
        return [getattr(args, name) for name in self.reads]


_KINDS = {
    "jacobi-m1": _Choice(Jacobi1Params, alpha=Fraction(0), beta=Fraction(0)),
    "gegenbauer": _Choice(GegParams, mu=Fraction(1, 2), alpha=Fraction(0)),
}
_SYSTEMS = {
    "scarf": _Choice(Jacobi1Params, alpha=Fraction(0), beta=Fraction(2)),
    "oscillator": _Choice(None),
    "gegenbauer": _Choice(GegParams, mu=Fraction(1, 2), alpha=Fraction(0)),
}


def _refuse_unread(args) -> None:
    """Fill in the defaults of the parameters that the chosen kind, system or
    suite reads; refuse (ValueError) a given parameter that it does not read.
    A command with no such choice (errata) reads none."""
    option, table, names = getattr(args, "choice_of", (None, {}, ()))
    for name in names:
        choice = getattr(args, option)
        if name in table[choice].reads:
            if getattr(args, name) is None:
                setattr(args, name, table[choice].reads[name])
        elif getattr(args, name) is not None:
            raise ValueError(f"--{option} {choice} does not read --{name}")


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------

def cmd_family(args) -> bool:
    kind = _KINDS[args.kind]
    params = kind.make(*kind.values(args))
    # refuse before any work; check_degree runs where an eigenvalue repeats
    lams = [params.eigenvalue(n) for n in range(args.degree + 1)]
    for n, lam in enumerate(lams):
        if lams.index(lam) < n:
            check_degree(n, params)
    result = verify_family(params, max(args.degree, 2))
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
    if not result.all_oracle_checks_passed:
        print("family oracle checks FAILED", file=sys.stderr)
    return result.all_oracle_checks_passed


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


def _suite_family(kind: str, log, degree: int) -> tuple[bool, int]:
    """The exact battery on each fuzz parameter pair of one family."""
    if kind == "jacobi":
        fuzz, family = FUZZ_PARAMS, Jacobi1Params
    else:
        fuzz, family = GEG_FUZZ_PARAMS, GegParams
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


def _suite_gegenbauer(log, degree: int) -> tuple[bool, int]:
    ok, findings = _suite_family("gegenbauer", log, degree)
    res = max(csm_two_particle_check(Fraction(1), 0.9, 0.1),
              csm_two_particle_check(Fraction(1, 2), 1.0, -0.3))
    log(f"gegenbauer: two-particle CSM reduction residual {res:.3e}")
    return res < 1e-12 and ok, findings


def _suite_oscillator(log) -> tuple[bool, int]:
    checks = verify_oscillator()
    spectrum = checks["q_squared_equals_h"] and checks["spectrum"]
    energies = [int(oscillator_energy(n, HermiteParams(0).eigenvalue(n)))
                for n in range(6)]
    log(f"oscillator: Q^2 = H and spectrum {energies} "
        f"on number states n<=12: {'pass' if spectrum else 'FAIL'}")
    log("oscillator: mixed states are Q-eigenvectors with eigenvalue "
        "eps sqrt(2n+2): " + ("pass" if checks["mixed_state_blocks"] else "FAIL"))
    return all(checks.values()), 0


def _suite_intertwiners(log, degree: int) -> tuple[bool, int]:
    """The exact lowering and raising maps up to ``degree`` on each fuzz
    pair, both on one P_n sequence; the printed-scalar findings are counted
    over n <= 6 at every degree."""
    ok, findings = True, 0
    for a, b in FUZZ_PARAMS:
        p = Jacobi1Params(a, b)
        ps = eigen_sequence(p, max(degree, 6))
        low = verify_lowering(p, degree, ps)
        corrected, printed = verify_raising(p, max(degree, 6), ps)
        ok = ok and all(low) and all(r for r in corrected if r is not None)
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


_SUITES = {
    "all": _Choice(None, degree=12),
    "exact": _Choice(_suite_exact),
    "jacobi": _Choice(partial(_suite_family, "jacobi"), degree=12),
    "gegenbauer": _Choice(_suite_gegenbauer, degree=12),
    "oscillator": _Choice(_suite_oscillator),
    "intertwiners": _Choice(_suite_intertwiners, degree=12),
    "relations": _Choice(_suite_relations),
}


def cmd_verify(args) -> bool:
    lines = []

    def log(msg):
        lines.append(msg)
        print(msg)

    all_ok, findings = True, 0
    for name, suite in _SUITES.items():     # "all" runs every other row
        if suite.make and args.suite in ("all", name):
            ok, f = suite.make(log, *suite.values(args))
            all_ok, findings = all_ok and ok, findings + f
    print(f"oracle checks: {'pass' if all_ok else 'FAIL'}; "
          f"printed-formula discrepancies: {findings} found")
    if args.out is not None:
        _write_atomic(args.out, "\n".join(lines) + "\n")
    return all_ok


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> bool:
    import numpy as np

    from .grid import convergence_study
    from .spectra import spectrum_problem
    from .susyqm import SusySystem

    # no method returns more levels than grid points; refused before the
    # problem builds one closed-form target per level
    if args.levels > args.grids[0]:
        raise ValueError(f"method limit: {args.levels} levels requested, the "
                         f"coarsest grid has {args.grids[0]} points")
    # a value that leaves float range in the targets or on the grid raises,
    # whether it overflows or first turns into an inf or a nan
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        row, make = _SYSTEMS[args.system], getattr(SusySystem, args.system)
        system = make(row.make(*row.values(args))) if row.make else make()
        prob = spectrum_problem(system, args.levels)
        rep = convergence_study(prob, args.grids)
    tol = args.tol if args.tol is not None else prob.tolerance
    summary = sys.stdout if args.out is not None else sys.stderr
    for lv in rep.levels:
        print(f"level {lv['level']}: extrapolated {lv['extrapolated']:.12g} "
              f"target {lv['target']:.12g} abs_error {lv['abs_error']:.3e}",
              file=summary)
    _emit(rep.to_csv() if args.format == "csv" else rep.to_json(), args.out)
    passed = rep.all_within_tolerance(tol)
    if not passed:
        print(f"spectrum check FAILED tolerance {tol:g}", file=sys.stderr)
    return passed


# ---------------------------------------------------------------------------
# errata
# ---------------------------------------------------------------------------

def cmd_errata(args) -> bool:
    from .errata import errata_json

    _emit(errata_json(), args.out)
    return True


# ---------------------------------------------------------------------------

def _add_choice(parser, option: str, table: dict, value_type, **kw) -> None:
    """--option, one choice per row of ``table``, then each parameter read."""
    parser.add_argument(f"--{option}", choices=list(table), **kw)
    names = dict.fromkeys(n for row in table.values() for n in row.reads)
    for name in names:
        parser.add_argument(f"--{name}", type=value_type)
    parser.set_defaults(choice_of=(option, table, names))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dunklqm",
        description="Exact and numerical verification toolkit for 1D "
                    "supersymmetric quantum mechanics with reflections.")
    sub = ap.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="print an orthogonal family table")
    _add_choice(fam, "kind", _KINDS, _rat, required=True)
    fam.add_argument("--degree", type=_int_at_least(0), default=6)
    fam.add_argument("--format", choices=["text", "json", "csv"],
                     default="text")
    fam.add_argument("--out", type=_out_path)
    fam.set_defaults(fn=cmd_family)

    ver = sub.add_parser("verify", help="run verification suites")
    _add_choice(ver, "suite", _SUITES, _int_at_least(2), default="all")
    ver.add_argument("--out", type=_out_path)
    ver.set_defaults(fn=cmd_verify)

    spec = sub.add_parser("spectrum", help="grid spectra vs closed forms")
    _add_choice(spec, "system", _SYSTEMS, _rat, required=True)
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


# An error raised from a command -> (exit code, message), first match first:
# EigenvalueFormulaError, a failed oracle, precedes its base ValueError.
_ERRORS = {
    EigenvalueFormulaError: (EXIT_VERIFY_FAILED,
                             "an eigenvalue formula fails: {}"),
    **dict.fromkeys((OverflowError, FloatingPointError),
                    (EXIT_USAGE, "parameters beyond float range ({})")),
    MemoryError: (EXIT_USAGE, "out of memory ({})"),
    ValueError: (EXIT_USAGE, "{}"),
}


def main(argv=None) -> int:
    ap = build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        _refuse_unread(args)
        code = EXIT_OK if args.fn(args) else EXIT_VERIFY_FAILED
        sys.stdout.flush()
        return code
    except tuple(_ERRORS) as exc:
        code, form = next(_ERRORS[k] for k in _ERRORS if isinstance(exc, k))
        print("error: " + form.format(exc), file=sys.stderr)
        return code
    except OSError as exc:
        # a reader that left (broken pipe) exits silently; any other failed
        # write, such as a full disk under stdout or --out, says so
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:     # stdout itself failed: keep the exit flush quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
