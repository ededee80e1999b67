"""CLI contract tests: exit codes, formats, determinism, errata schema."""

import ast
import csv
import errno
import io
import json
import os
import re
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dunklqm
from dunklqm import gegenbauer, jacobi
from dunklqm.cli import main
from dunklqm.gegenbauer import GEG_FUZZ_PARAMS
from dunklqm.grid import MethodLimitError
from dunklqm.opalg import (
    DegenerateSpectrumError,
    Diff,
    EigenvalueFormulaError,
    MulPoly,
    Poly,
    Reflect,
    ReflOp,
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_jacobi_table(capsys):
    code, out, _ = run(["family", "--kind", "jacobi-m1", "--alpha", "0",
                        "--beta", "0", "--degree", "2"], capsys)
    assert code == 0
    assert "y^2 - 1/2*y - 1/4" in out


def test_family_gegenbauer_table(capsys):
    code, out, _ = run(["family", "--kind", "gegenbauer", "--mu", "1/2",
                        "--alpha", "1", "--degree", "2"], capsys)
    assert code == 0
    assert "y^2 - 1/3" in out


def test_family_invalid_params_usage_error(capsys):
    code, _, err = run(["family", "--kind", "jacobi-m1", "--alpha", "-2",
                        "--beta", "0"], capsys)
    assert code == 2


def test_family_degenerate_spectrum_usage_error(capsys):
    # lambda_1 = lambda_2 = -18 at (mu, alpha) = (1, 2)
    code, out, err = run(["family", "--kind", "gegenbauer", "--mu", "1",
                          "--alpha", "2", "--degree", "12"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "degrees 1 and 2" in err
    assert "Traceback" not in err


def test_family_degenerate_spectrum_refused_before_the_battery(
        monkeypatch, capsys):
    from dunklqm import cli

    def no_work(*args):
        raise AssertionError("battery run for a refused degree")

    monkeypatch.setattr(cli, "verify_family", no_work)
    code, out, err = run(["family", "--kind", "gegenbauer", "--mu", "1",
                          "--alpha", "2", "--degree", "12"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: degenerate spectrum at mu=1, alpha=2: degrees 1 "
                   "and 2 share the eigenvalue -18, so P_2 is not uniquely "
                   "defined\n")


def test_family_degeneracy_above_table_degree_is_reported(capsys):
    # the table stops below the collision; the report lists it as skipped
    code, out, _ = run(["family", "--kind", "gegenbauer", "--mu", "1",
                        "--alpha", "2", "--degree", "1", "--format", "json"],
                       capsys)
    assert code == 0
    data = json.loads(out)
    assert [row["n"] for row in data["table"]] == [0, 1]
    assert data["report"]["skipped_degenerate"] == [2]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "exact", "--degree", "1"],
    ["verify", "--suite", "jacobi", "--degree", "-1"],
    ["verify", "--degree", "two"],
    ["family", "--kind", "jacobi-m1", "--degree", "-3"],
    ["family", "--kind", "gegenbauer", "--degree", "1.5"],
])
def test_bad_degree_usage_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "--degree" in err


def test_family_bad_rational_usage_error(capsys):
    code, _, _ = run(["family", "--kind", "jacobi-m1", "--alpha", "x/y"],
                     capsys)
    assert code == 2


def test_family_json_roundtrip_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "fam1.json"
    out2 = tmp_path / "fam2.json"
    args = ["family", "--kind", "jacobi-m1", "--alpha", "1/2", "--beta", "3/2",
            "--degree", "4", "--format", "json"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    blob1, blob2 = out1.read_text(), out2.read_text()
    assert blob1 == blob2
    data = json.loads(blob1)
    assert json.loads(json.dumps(data)) == data
    assert data["report"]["all_oracle_checks_passed"] is True
    capsys.readouterr()


def test_family_exits_1_when_its_oracle_battery_fails(monkeypatch, capsys):
    # moments c_2, c_3, ... off by 1/1000: the moment side of the battery no
    # longer matches the operator side
    from dunklqm.jacobi import Jacobi1Params

    real = Jacobi1Params.next_moment
    monkeypatch.setattr(
        Jacobi1Params, "next_moment", lambda self, lower: real(self, lower)
        * (Fraction(1001, 1000) if len(lower) >= 2 else 1))
    code, out, err = run(["family", "--kind", "jacobi-m1", "--alpha", "1/2",
                          "--beta", "3/2", "--degree", "6", "--format", "json"],
                         capsys)
    # the table is still written, as spectrum writes its report on a miss
    assert json.loads(out)["report"]["all_oracle_checks_passed"] is False
    assert (code, err) == (1, "family oracle checks FAILED\n")


@pytest.mark.parametrize("module, name, params, commands", [
    (jacobi, "eigenvalue", jacobi.Jacobi1Params(Fraction(1, 2), Fraction(3, 2)),
     ("family --kind jacobi-m1 --alpha 1/2 --beta 3/2 --degree 6",
      "verify --suite jacobi --degree 6", "verify --suite intertwiners",
      "errata")),
    (gegenbauer, "eigenvalue_geg",
     gegenbauer.GegParams(Fraction(1, 2), Fraction(1)),
     ("family --kind gegenbauer --mu 1/2 --alpha 1 --degree 6",
      "verify --suite gegenbauer --degree 6", "errata"))])
def test_an_inconsistent_eigenvalue_formula_fails_the_oracles(
        module, name, params, commands, monkeypatch, capsys):
    # lambda_n + 1/100 at odd n: the operator's diagonal entry at degree 1 is
    # the unshifted lambda_1, so no monic P_1 exists at the shifted one, and
    # every command that solves for it fails with the same one line
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda n, p: real(n, p) + Fraction(n % 2, 100))
    line = re.compile(r"error: an eigenvalue formula fails: no monic degree-1 "
                      r"eigenvector at lambda_1 = (\S+) \(inconsistent "
                      r"system\)\n")
    results = [run(command.split(), capsys) for command in commands]
    for command, (code, out, err) in zip(commands, results):
        assert (code, out, bool(line.fullmatch(err))) == (1, "", True), (
            command, err)
    # `family` solves at the parameters it was given
    lam_1 = line.fullmatch(results[0][2])[1]
    assert Fraction(lam_1) == real(1, params) + Fraction(1, 100)


def test_errata_fails_on_an_inconsistent_eigenvalue_formula(monkeypatch,
                                                             capsys):
    # lambda_n + 1/100 at odd n: errata's first oracle, the raising map at
    # (a, b) = (1/2, 3/2), solves P_1 at the shifted lambda_1 and finds none
    real = jacobi.eigenvalue
    lam_1 = real(1, jacobi.Jacobi1Params(Fraction(1, 2), Fraction(3, 2)))
    monkeypatch.setattr(jacobi, "eigenvalue",
                        lambda n, p: real(n, p) + Fraction(n % 2, 100))
    assert run(["errata"], capsys) == (
        1, "", "error: an eigenvalue formula fails: no monic degree-1 "
        f"eigenvector at lambda_1 = {lam_1 + Fraction(1, 100)} (inconsistent "
        "system)\n")


def test_verify_exact_suite(capsys):
    code, out, _ = run(["verify", "--suite", "exact"], capsys)
    assert code == 0
    assert "oracle checks: pass" in out


def test_verify_oscillator_suite(capsys):
    code, out, _ = run(["verify", "--suite", "oscillator"], capsys)
    assert code == 0
    assert "Q^2 = H" in out


_Y = MulPoly(Poly((0, 1)))


@pytest.mark.parametrize("name, mutant", [
    # 2 Htilde without its (1 - R) term
    ("osc_gauged_hamiltonian",
     ReflOp([(2, (_Y, Diff)), (-1, (Diff, Diff))])),
    # sqrt(2) Qtilde without y(1 - R)
    ("osc_gauged_supercharge", ReflOp([(1, (Diff, Reflect))])),
], ids=["hamiltonian-without-1-R", "supercharge-without-y-1-R"])
def test_verify_oscillator_suite_fails_on_a_mutated_operator(
        name, mutant, monkeypatch, capsys):
    from dunklqm import gegenbauer

    monkeypatch.setattr(gegenbauer, name, lambda: mutant)
    code, out, _ = run(["verify", "--suite", "oscillator"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_verify_jacobi_counts_discrepancies(capsys):
    code, out, _ = run(["verify", "--suite", "jacobi", "--degree", "6"],
                       capsys)
    # printed-formula discrepancies are findings, not failures
    assert code == 0
    assert "printed-formula discrepancies" in out
    assert "discrepancies: 0 found" not in out


def test_verify_gegenbauer_suite_runs_at_the_requested_degree(monkeypatch,
                                                             capsys):
    from dunklqm import cli

    degrees = []

    def counted(params, degree):
        degrees.append(degree)
        return real(params, degree)

    real = cli.verify_family
    monkeypatch.setattr(cli, "verify_family", counted)
    code, out, _ = run(["verify", "--suite", "gegenbauer", "--degree", "20"],
                       capsys)
    assert code == 0
    assert "oracle checks: pass" in out
    assert degrees == [20] * len(GEG_FUZZ_PARAMS)


def test_verify_intertwiners_suite_runs_at_the_requested_degree(monkeypatch,
                                                               capsys):
    from dunklqm import cli, jacobi
    from dunklqm.jacobi import FUZZ_PARAMS

    degrees = []

    def counted(real):
        def run_map(params, max_n, *ps):
            degrees.append((real.__name__, max_n))
            return real(params, max_n, *ps)
        return run_map

    for name in ("verify_lowering", "verify_raising"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    built = []

    def counted_sequence(real):
        def sequence(family, degree):
            built.append(family)
            return real(family, degree)
        return sequence

    for module in (cli, jacobi):
        monkeypatch.setattr(module, "eigen_sequence",
                            counted_sequence(module.eigen_sequence))
    code, out, _ = run(["verify", "--suite", "intertwiners", "--degree", "20"],
                       capsys)
    assert code == 0
    assert "oracle checks: pass" in out
    assert degrees == [("verify_lowering", 20), ("verify_raising", 20)] \
        * len(FUZZ_PARAMS)
    # P_n^(a,b) once per pair, shared by both maps, and each map's targets
    assert len(built) == 3 * len(FUZZ_PARAMS)


@pytest.mark.parametrize("degree", [[], ["--degree", "2"]], ids=["12", "2"])
def test_verify_intertwiners_counts_printed_scalars_over_n_le_6(degree,
                                                                capsys):
    # the count read 13 at --degree 2, 17 at 3 and 26 at 5
    code, out, _ = run(["verify", "--suite", "intertwiners", *degree], capsys)
    assert code == 0
    assert "printed-scalar mismatches recorded: 31\n" in out


@pytest.mark.parametrize("suite", ["exact", "oscillator", "relations"])
def test_verify_degree_refused_by_a_suite_that_does_not_read_it(
        suite, monkeypatch, capsys):
    from dunklqm import cli

    def no_work(*args):
        raise AssertionError("work done for a refused command")

    for row in cli._SUITES.values():
        if row.make:
            monkeypatch.setattr(row, "make", no_work)
    code, out, err = run(["verify", "--suite", suite, "--degree", "12"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: --suite {suite} does not read --degree\n"


def test_verify_variant_option_refused(capsys):
    code, out, err = run(["verify", "--variant", "printed"], capsys)
    assert code == 2
    assert out == ""
    assert "--variant" in err


def test_spectrum_oscillator(tmp_path, capsys):
    out = tmp_path / "osc.csv"
    code, text, _ = run(["spectrum", "--system", "oscillator", "--levels", "5",
                         "--grids", "512,1024,2048", "--format", "csv",
                         "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "level,N512,N1024,N2048,extrapolated,target,abs_error,order"
    assert len(lines) == 6


def test_spectrum_without_out_prints_only_its_report_to_stdout(capsys):
    # the per-level summary goes to stderr, so stdout parses in its format
    # whether or not the coarse ladder meets the tolerance
    argv = ["spectrum", "--system", "oscillator", "--grids", "64,128,256"]
    _, out, err = run(argv, capsys)
    report = json.loads(out)
    summary = [line for line in err.splitlines() if line.startswith("level ")]
    assert len(summary) == len(report["levels"]) > 0
    _, out, _ = run(argv + ["--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == ["level", "N64"]
    assert len(rows) == 1 + len(report["levels"])


def test_spectrum_tolerance_failure_exit_code(tmp_path, capsys):
    code, _, err = run(["spectrum", "--system", "oscillator", "--levels", "3",
                        "--grids", "512,1024,2048", "--tol", "1e-15",
                        "--out", str(tmp_path / "x.json")], capsys)
    assert code == 1


def test_spectrum_usage_error_on_bad_grids(capsys):
    code, _, _ = run(["spectrum", "--system", "oscillator", "--grids", "512"],
                     capsys)
    assert code == 2


@pytest.mark.parametrize("flags, named", [
    (["--levels", "0"], "--levels"),
    (["--levels", "-1"], "--levels"),
    (["--grids", "63,128,256"], "even"),
    (["--grids", "0,64,128"], "positive"),
    (["--grids=-64,64,128"], "positive"),
    (["--grids", "64,64,128"], "must double"),
    (["--tol", "-1"], "--tol"),
    (["--tol", "0"], "--tol"),
    (["--tol", "nan"], "--tol"),
    (["--tol", "inf"], "--tol"),
    (["--grids", "256,768,2304"], "must double"),
    (["--grids", "100,300,900"], "must double"),
    (["--grids", "64,128,512"], "must double"),
])
def test_spectrum_bad_levels_or_grids_usage_error(flags, named, capsys):
    code, out, err = run(["spectrum", "--system", "oscillator",
                          "--grids", "64,128,256", *flags], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err and named in err


@pytest.mark.parametrize("grids", ["512", "64,64,128", "64,128,512",
                                   "63,126,252", "0,0,0"])
def test_grid_ladder_refused_with_the_library_message(grids, capsys):
    from dunklqm.refcalc import check_doubling_ladder

    with pytest.raises(ValueError) as refused:
        check_doubling_ladder([int(n) for n in grids.split(",")])
    code, out, err = run(["spectrum", "--system", "oscillator",
                          "--grids", grids], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (f"dunklqm spectrum: error: argument "
                                    f"--grids: {refused.value}")


@pytest.mark.parametrize("argv, driver", [
    (["--system", "scarf", "--alpha", "0", "--beta", "2"], "eigh_tridiagonal"),
    (["--system", "oscillator"], "eig_banded"),
    (["--system", "scarf", "--alpha", "1", "--beta", "3"], "eig_banded"),
    (["--system", "gegenbauer", "--mu", "1/2", "--alpha", "1"], "eig_banded"),
])
def test_spectrum_lapack_failure_is_a_usage_error(argv, driver, monkeypatch,
                                                  capsys):
    # each solver path: the tridiagonal driver, the banded driver with a
    # selected range, all banded eigenvalues, and the composite scan
    import numpy as np

    from dunklqm import grid

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(grid, driver, fail)
    code, out, err = run(["spectrum", *argv, "--grids", "64,128,256"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: eigenvalues did not converge\n"


@pytest.mark.parametrize("argv", [
    ["--system", "scarf", "--alpha", "1", "--beta", "3"],
    ["--system", "gegenbauer", "--mu", "1/2", "--alpha", "1"],
])
def test_spectrum_out_of_memory_is_a_usage_error(argv, monkeypatch, capsys):
    # both paths that build the supercharge; no large array is allocated
    from dunklqm import grid

    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 512. MiB for an array")

    monkeypatch.setattr(grid, "supercharge_matrix", fail)
    code, out, err = run(["spectrum", *argv, "--grids", "64,128,256"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: out of memory (Unable to allocate 512. MiB for an "
                   "array)\n")


@pytest.mark.parametrize("argv", [
    # the pairwise-deduplicated Q spectrum has N/2 levels
    ["--system", "scarf", "--alpha", "1", "--beta", "3", "--levels", "200"],
    # fewer grid-smooth eigenvectors than requested levels
    ["--system", "gegenbauer", "--mu", "1/2", "--alpha", "1",
     "--levels", "40"],
    ["--system", "oscillator", "--levels", "100"],
])
def test_spectrum_method_limit_usage_error(argv, capsys):
    code, out, err = run(["spectrum", *argv, "--grids", "64,128,256"], capsys)
    assert code == 2
    assert out == ""
    assert "error: method limit" in err


@pytest.mark.parametrize("argv", [
    ["--system", "scarf", "--alpha", "1", "--beta", "3"],
    ["--system", "gegenbauer", "--mu", "1/2", "--alpha", "1"],
    ["--system", "oscillator"],
])
def test_spectrum_levels_beyond_coarsest_grid_refused_first(argv, monkeypatch,
                                                            capsys):
    # each problem builds its closed-form targets from the system's energies,
    # so a level count no grid can deliver is refused before any is built
    from dunklqm.susyqm import SusySystem

    calls = []

    def counted(*args, real=SusySystem.energy):
        calls.append(args)
        assert len(calls) <= 100, "targets built for a refused level count"
        return real(*args)
    monkeypatch.setattr(SusySystem, "energy", counted)
    code, out, err = run(["spectrum", *argv, "--levels", "100000",
                          "--grids", "8,16,32"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: method limit: 100000 levels requested, the "
                   "coarsest grid has 8 points\n")


def test_spectrum_squared_supercharge_limit_below_grid_size(capsys):
    # 40 levels fit 64 grid points, but the squared supercharge has 32
    code, out, err = run(["spectrum", "--system", "scarf", "--alpha", "1",
                          "--beta", "3", "--levels", "40",
                          "--grids", "64,128,256"], capsys)
    assert code == 2
    assert out == ""
    assert "error: method limit: the squared supercharge on N=64" in err


@pytest.mark.parametrize("mu, alpha", [("1/2", "1"), ("0", "0"),
                                       ("1", "1/2")])
def test_spectrum_gegenbauer_on_two_points_is_a_method_limit(mu, alpha,
                                                             capsys):
    # the inverse iteration's shift makes the 2 x 2 banded solve exactly
    # singular
    code, out, err = run(["spectrum", "--system", "gegenbauer", "--mu", mu,
                          "--alpha", alpha, "--grids", "2,4,8",
                          "--levels", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: method limit: inverse iteration on N=2 ")


def test_relations_suite_fails_only_on_an_expected_identity(monkeypatch,
                                                           capsys):
    from dunklqm import cli, susyqm

    real = susyqm.verify_operator_relations
    code, out, err = run(["verify", "--suite", "relations"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == ("oracle checks: pass; printed-formula "
                                    "discrepancies: 4 found")

    def flipped(name, variant):
        def report(params, grids):
            rep = real(params, grids)
            for r in rep:
                if (r["relation"], r["variant"]) == (name, variant):
                    r["verdict"] = {"identity": "defect",
                                    "defect": "identity"}[r["verdict"]]
            return rep
        return report

    monkeypatch.setattr(susyqm, "verify_operator_relations",
                        flipped("q_squared_equals_h", "n/a"))
    assert cli._suite_relations(lambda msg: None) == (False, 4)
    monkeypatch.setattr(susyqm, "verify_operator_relations",
                        flipped("intertwine_X", "printed"))
    assert cli._suite_relations(lambda msg: None) == (True, 3)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--system", "oscillator", "--alpha", "3"],
    ["spectrum", "--system", "oscillator", "--beta", "1"],
    ["spectrum", "--system", "oscillator", "--mu", "1/2"],
    ["spectrum", "--system", "scarf", "--mu", "2"],
    ["spectrum", "--system", "gegenbauer", "--beta", "1"],
    ["family", "--kind", "jacobi-m1", "--mu", "2"],
    ["family", "--kind", "gegenbauer", "--beta", "1"],
])
def test_parameter_the_system_does_not_read_refused(argv, monkeypatch,
                                                    capsys):
    # refused before any problem or family is built, even at a value that
    # equals a default the choice does not read
    from dunklqm import cli, spectra

    def no_work(*args):
        raise AssertionError("work done for a refused command")

    monkeypatch.setattr(cli, "verify_family", no_work)
    monkeypatch.setattr(spectra, "spectrum_problem", no_work)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[1]} {argv[2]} does not read {argv[3]}\n"


def test_spectrum_scarf_negative_alpha_rejected(capsys):
    # ScarfParams accepts alpha > -1; spectrum_problem refuses alpha < 0
    code, out, err = run(["spectrum", "--system", "scarf", "--alpha", "-1/2",
                          "--beta", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: grid spectra are restricted to alpha >= 0\n"


@pytest.mark.parametrize("alpha, beta", [("-1", "2"), ("1", "-1"),
                                         ("-3/2", "0")])
def test_scarf_and_jacobi_refuse_the_same_parameters_alike(alpha, beta, capsys):
    """One parameter object for the Scarf system and its family: the same
    refusal, exit 2, from both commands."""
    params = ["--alpha", alpha, "--beta", beta]
    spectrum = run(["spectrum", "--system", "scarf", *params,
                    "--grids", "64,128,256"], capsys)
    family = run(["family", "--kind", "jacobi-m1", *params], capsys)
    assert spectrum == family
    assert spectrum == (2, "", "error: little -1 Jacobi and extended Scarf I "
                               "parameters require alpha, beta > -1\n")


def test_spectrum_gegenbauer_negative_mu_rejected(capsys):
    # GegParams accepts mu > -1/2; spectrum_problem refuses mu < 0
    code, out, err = run(["spectrum", "--system", "gegenbauer", "--mu", "-1/4",
                          "--alpha", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: grid spectra are restricted to mu >= 0\n"


def test_negative_rational_as_separate_or_attached_value(capsys):
    argv = ["family", "--kind", "jacobi-m1", "--beta", "0", "--degree", "3"]
    separate = run(argv + ["--alpha", "-1/2"], capsys)
    attached = run(argv + ["--alpha=-1/2"], capsys)
    assert separate == attached
    assert separate[0] == 0
    assert "'alpha': '-1/2'" in separate[1]


@pytest.mark.parametrize("params", [
    ["--system", "scarf", "--alpha", "1e300", "--beta", "2"],
    ["--system", "scarf", "--alpha", "1", "--beta", "1e300"],
    ["--system", "gegenbauer", "--mu", "1e300", "--alpha", "1"],
    ["--system", "gegenbauer", "--mu", "1/2", "--alpha", "1e300"],
    # a float, but squared on the grid it overflows (FloatingPointError)
    ["--system", "scarf", "--alpha", "1e154", "--beta", "3"],
    # floats whose grid operator leaves float range in the inverse iteration,
    # a division by an infinite norm rather than an overflow
    ["--system", "gegenbauer", "--mu", "1e100", "--alpha", "1"],
    ["--system", "gegenbauer", "--mu", "1/2", "--alpha", "1e100"],
])
def test_spectrum_parameters_beyond_float_range_usage_error(params, capsys,
                                                           recwarn):
    code, out, err = run(["spectrum", *params, "--grids", "64,128,256"],
                         capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parameters beyond float range")
    assert err.count("\n") == 1
    assert "Warning" not in err and not recwarn.list


@pytest.mark.parametrize("argv, error, code, message", [
    # a colliding degree is a refusal, a contradicted formula a failed oracle
    pytest.param(["errata"], DegenerateSpectrumError, 2, "{}",
                 id="degenerate"),
    pytest.param(["errata"], EigenvalueFormulaError, 1,
                 "an eigenvalue formula fails: {}", id="eigenvalue-formula"),
    pytest.param(["verify", "--suite", "exact"], OverflowError, 2,
                 "parameters beyond float range ({})", id="overflow"),
    pytest.param(["errata"], FloatingPointError, 2,
                 "parameters beyond float range ({})", id="floating-point"),
    pytest.param(["verify", "--suite", "exact"], MemoryError, 2,
                 "out of memory ({})", id="memory"),
    pytest.param(["verify", "--suite", "exact"], ValueError, 2, "{}",
                 id="value"),
    pytest.param(["errata"], MethodLimitError, 2, "{}",
                 id="errata-method-limit"),
])
def test_a_raised_error_exits_through_its_table_row(argv, error, code,
                                                     message, monkeypatch,
                                                     capsys):
    # each row of the exit table, raised where a command does its work: one
    # "error:" line, no traceback, and nothing on stdout
    from dunklqm import cli, errata

    def fail(*args):
        raise error("the cause")

    monkeypatch.setattr(errata, "errata_json", fail)
    monkeypatch.setattr(cli._SUITES["exact"], "make", fail)
    assert run(argv, capsys) == (
        code, "", "error: " + message.format("the cause") + "\n")


def test_commands_return_pass_or_fail_and_only_main_picks_an_exit_code():
    from dunklqm import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            assert ast.unparse(node.returns) == "bool", node.name
            assert not any(isinstance(n, ast.Try) for n in ast.walk(node))
        reads = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                 and isinstance(n.ctx, ast.Load)}
        if reads & {"EXIT_USAGE", "EXIT_VERIFY_FAILED"}:
            assert getattr(node, "name", None) == "main" or [
                t.id for t in getattr(node, "targets", ())] == ["_ERRORS"]


@pytest.mark.parametrize("command, passed", [
    ("family --kind jacobi-m1 --degree 2", True),
    ("verify --suite exact", True),
    ("spectrum --system oscillator --levels 1 --grids 256,512,1024", True),
    ("spectrum --system oscillator --levels 1 --grids 256,512,1024 "
     "--tol 1e-300", False),
    ("errata", True),
])
def test_each_command_returns_a_bool(command, passed, monkeypatch, capsys):
    from dunklqm import cli, errata

    monkeypatch.setattr(errata, "errata_json", lambda: "{}")
    args = cli.build_parser().parse_args(command.split())
    cli._refuse_unread(args)
    assert args.fn(args) is passed
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["family", "--kind", "jacobi-m1"],
    ["verify", "--suite", "exact"],
    ["spectrum", "--system", "oscillator", "--grids", "64,128,256"],
    ["errata"],
])
def test_out_into_missing_directory_or_onto_directory_usage_error(
        argv, tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run([*argv, "--out", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert "argument --out: " in err
        assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["family", "--kind", "jacobi-m1"],
    ["verify", "--suite", "exact"],
    ["spectrum", "--system", "oscillator", "--grids", "64,128,256"],
    ["errata"],
])
@pytest.mark.parametrize("target", ["", "missing/", "existing-file/x"])
def test_out_path_that_cannot_be_written_is_refused_before_work(
        argv, target, tmp_path, capsys, monkeypatch):
    from dunklqm import cli, errata, grid

    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before its --out was refused")

    for owner, name in ((cli, "verify_family"), (cli, "_suite_exact"),
                        (grid, "convergence_study"), (errata, "errata_json")):
        monkeypatch.setattr(owner, name, no_work)
    (tmp_path / "existing-file").write_text("")
    path = "" if not target else str(tmp_path) + os.sep + target
    code, out, err = run([*argv, "--out", path], capsys)
    assert code == 2
    assert out == ""
    assert "argument --out: " in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing-file"]


@pytest.mark.parametrize("name, points_to, refusal", [
    ("fifo", None, "{!r} is not a regular file"),
    ("link", "fifo", "{!r} is not a regular file"),
    ("link", "missing/x", "no directory to write {!r} into"),
    ("link", "link", "cannot write {!r} ("),
])
def test_out_onto_a_non_regular_file_is_refused_before_work(
        name, points_to, refusal, tmp_path, capsys):
    # opening a FIFO to look at it would block; replacing it would destroy
    # it. A symlink is judged by its target, which may be missing or a loop
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    target = tmp_path / name
    if points_to:
        target.symlink_to(tmp_path / points_to)
    code, out, err = run(["verify", "--suite", "jacobi", "--out", str(target)],
                         capsys)
    assert (code, out) == (2, "")
    assert ("argument --out: " + refusal.format(str(target))) in err
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"fifo", name})


def test_out_through_a_symlink_replaces_its_target_keeping_its_mode(
        tmp_path, capsys):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old\n")
    target.chmod(0o604)
    link.symlink_to(target)
    assert main(["verify", "--suite", "jacobi", "--out", str(link)]) == 0
    assert os.readlink(link) == str(target)
    assert target.read_text().startswith("jacobi (0,0): oracle checks pass")
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o604
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt",
                                                          "target.txt"]
    capsys.readouterr()


def test_out_new_file_gets_the_mode_open_gives(tmp_path, capsys):
    umask = os.umask(0o027)
    try:
        assert main(["verify", "--suite", "jacobi",
                     "--out", str(tmp_path / "new.txt")]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(os.stat(tmp_path / "new.txt").st_mode) == 0o640
    capsys.readouterr()


class _FullDevice:
    """A stdout on a full device: each write and flush fails with ENOSPC.
    Its descriptor is a file of the test's own."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, *text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    flush = write

    def fileno(self):
        return self.fd


def test_stdout_on_a_full_device_is_one_error_line(tmp_path, monkeypatch,
                                                   capsys):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _FullDevice(fh.fileno()))
        code = main(["verify", "--suite", "jacobi"])
        monkeypatch.undo()
        # the exit flush goes to the null device, not to the full one
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    _, err = capsys.readouterr()
    assert code == 1
    assert err == "error: cannot write output: [Errno 28] No space left on device\n"


def test_out_on_a_full_device_is_one_error_line(tmp_path, monkeypatch, capsys):
    def no_space(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    (tmp_path / "e.json").write_text("old\n")
    monkeypatch.setattr(os, "replace", no_space)
    code, out, err = run(["errata", "--out", str(tmp_path / "e.json")], capsys)
    assert (code, out) == (1, "")
    assert err == "error: cannot write output: [Errno 28] No space left on device\n"
    # the old file stands and the temporary one is gone
    assert [p.name for p in tmp_path.iterdir()] == ["e.json"]
    assert (tmp_path / "e.json").read_text() == "old\n"


def test_errata_schema_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "e1.json"
    out2 = tmp_path / "e2.json"
    assert main(["errata", "--out", str(out1)]) == 0
    assert main(["errata", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    data = json.loads(out1.read_text())
    assert len(data) >= 10
    for entry in data:
        assert set(entry) == {"id", "equation_label", "printed", "oracle",
                              "evidence", "verdict"}
    ids = [e["id"] for e in data]
    assert "jacobi-odd-explicit-prefactor" in ids
    assert "scarf-ground-state-normalization" in ids
    assert "gegenbauer-potential-constants" in ids
    capsys.readouterr()


def _fresh_env():
    """The environment of a new process that imports this dunklqm."""
    src = str(Path(dunklqm.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _fresh_python(*args):
    """Run ``python *args`` in a new process that imports this dunklqm."""
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=_fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _spectrum_on_1_and_2_blas_threads(tmp_path, *flags):
    """The --out files of ``dunklqm spectrum *flags``, each run in a fresh
    process, on 1 and on 2 OpenBLAS threads."""
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "dunklqm", "spectrum", *flags,
             "--out", str(out)], capture_output=True, text=True, timeout=120,
            env={**_fresh_env(), "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        written.append(out.read_bytes())
    return written


def test_split_ladder_report_does_not_depend_on_blas_threads(tmp_path):
    # the forked child and this process each run OpenBLAS
    one, two = _spectrum_on_1_and_2_blas_threads(
        tmp_path, "--system", "scarf", "--alpha", "1", "--beta", "3",
        "--grids", "256,512,1024")
    assert one == two


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1b: the BLAS product 2 Q @ Q rounds some band elements "
    "differently on 1 and on 2 threads at N = 600; 1b's first-order band "
    "drops the product, and its change removes this marker"))
def test_gegenbauer_report_does_not_depend_on_blas_threads(tmp_path):
    one, two = _spectrum_on_1_and_2_blas_threads(
        tmp_path, "--system", "gegenbauer", "--mu", "1/2", "--alpha", "1",
        "--grids", "300,600,1200")
    assert one == two


def test_python_m_dunklqm_runs_the_cli():
    out = _fresh_python("-m", "dunklqm", "verify", "--suite", "exact")
    assert "oracle checks: pass" in out


def test_closed_stdout_exits_1_with_no_traceback():
    # the reader is gone before the command writes: `... | true`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dunklqm", "verify", "--suite", "jacobi"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=_fresh_env(), timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_cli_never_imports_scipy_special():
    # the modules the benchmark's set-up probe imports, then the two commands
    # that evaluate the oscillator's Laguerre wavefunctions
    script = """
import io, sys, contextlib
import dunklqm.cli, dunklqm.errata, dunklqm.grid, dunklqm.spectra
import numpy, scipy.linalg
with contextlib.redirect_stdout(io.StringIO()):
    codes = [dunklqm.cli.main(["verify", "--suite", "oscillator"]),
             dunklqm.cli.main(["errata"])]
print(codes, "scipy.special" in sys.modules)
"""
    assert _fresh_python("-c", script).split() == ["[0,", "0]", "False"]


def _main_quietly(*argv):
    return ("import contextlib, io\nfrom dunklqm.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({list(argv)!r}) == 0")


@pytest.mark.parametrize("statement", [
    "import dunklqm",
    "from dunklqm import Poly, Jacobi1Params, verify_family",
    "from dunklqm import cli",
    _main_quietly("family", "--kind", "jacobi-m1"),
    _main_quietly("verify", "--suite", "exact"),
    _main_quietly("verify", "--suite", "jacobi"),
    _main_quietly("verify", "--suite", "gegenbauer"),
    _main_quietly("verify", "--suite", "intertwiners"),
    _main_quietly("verify", "--suite", "oscillator"),
], ids=["package", "exact-names", "cli", "family", "verify-exact",
        "verify-jacobi", "verify-gegenbauer", "verify-intertwiners",
        "verify-oscillator"])
def test_exact_work_never_imports_numpy_or_scipy(statement):
    # the exact layer is rational arithmetic only; the package and the CLI
    # load the float layers only for the names and commands that use them
    assert _float_layers_loaded(statement) == []


@pytest.mark.parametrize("statement", [
    "import dunklqm.susyqm",
    "from dunklqm import SusySystem",
    _main_quietly("verify"),
    _main_quietly("verify", "--suite", "relations"),
], ids=["susyqm", "susyqm-names", "verify", "verify-relations"])
def test_relations_work_imports_numpy_but_not_scipy(statement):
    # the operator identities are checked exactly and by stencils on
    # refcalc's midpoint grid; only grid's solvers need scipy
    assert _float_layers_loaded(statement) == ["dunklqm.refcalc", "numpy"]


def _float_layers_loaded(statement):
    """Which of numpy, scipy, refcalc and grid a new process has loaded
    after running ``statement``."""
    script = (statement + "\nimport sys\nprint(sorted({'numpy', 'scipy', "
              "'dunklqm.refcalc', 'dunklqm.grid'} & set(sys.modules)))")
    return ast.literal_eval(_fresh_python("-c", script))


def test_parser_shape():
    # option strings per subcommand and the order of each choice set, as the
    # usage and "invalid choice" messages show them
    import argparse

    from dunklqm.cli import build_parser

    sub, = [a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    options = {name: [s for a in p._actions for s in a.option_strings]
               for name, p in sub.choices.items()}
    assert options == {
        "family": ["-h", "--help", "--kind", "--alpha", "--beta", "--mu",
                   "--degree", "--format", "--out"],
        "verify": ["-h", "--help", "--suite", "--degree", "--out"],
        "spectrum": ["-h", "--help", "--system", "--alpha", "--beta", "--mu",
                     "--levels", "--grids", "--tol", "--format", "--out"],
        "errata": ["-h", "--help", "--out"],
    }
    choices = {(name, a.dest): list(a.choices)
               for name, p in sub.choices.items() for a in p._actions
               if a.dest in ("kind", "system", "suite")}
    assert choices == {
        ("family", "kind"): ["jacobi-m1", "gegenbauer"],
        ("verify", "suite"): ["all", "exact", "jacobi", "gegenbauer",
                              "oscillator", "intertwiners", "relations"],
        ("spectrum", "system"): ["scarf", "oscillator", "gegenbauer"],
    }
