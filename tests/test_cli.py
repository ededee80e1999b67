"""CLI contract tests: exit codes, formats, determinism, errata schema."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dunklqm
from dunklqm.cli import main


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


def test_verify_exact_suite(capsys):
    code, out, _ = run(["verify", "--suite", "exact"], capsys)
    assert code == 0
    assert "oracle checks: pass" in out


def test_verify_oscillator_suite(capsys):
    code, out, _ = run(["verify", "--suite", "oscillator"], capsys)
    assert code == 0
    assert "Q^2 = H" in out


def test_verify_jacobi_counts_discrepancies(capsys):
    code, out, _ = run(["verify", "--suite", "jacobi", "--degree", "6"],
                       capsys)
    # printed-formula discrepancies are findings, not failures
    assert code == 0
    assert "printed-formula discrepancies" in out
    assert "discrepancies: 0 found" not in out


def test_verify_intertwiners_printed_variant(capsys):
    code, out, _ = run(["verify", "--suite", "intertwiners", "--variant",
                        "printed"], capsys)
    assert code == 0
    assert "recorded" in out


def test_spectrum_oscillator(tmp_path, capsys):
    out = tmp_path / "osc.csv"
    code, text, _ = run(["spectrum", "--system", "oscillator", "--levels", "5",
                         "--grids", "512,1024,2048", "--format", "csv",
                         "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "level,N512,N1024,N2048,extrapolated,target,abs_error,order"
    assert len(lines) == 6


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
    (["--grids", "64,64,128"], "strictly ascending"),
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
    # each problem builds one closed-form target per level, so a level count
    # no grid can deliver is refused before any target is built
    from dunklqm import spectra

    calls = []
    for name in ("scarf_energy", "osc_energy", "eigenvalue_geg"):
        def counted(*args, real=getattr(spectra, name)):
            calls.append(args)
            assert len(calls) <= 100, "targets built for a refused level count"
            return real(*args)
        monkeypatch.setattr(spectra, name, counted)
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


def test_relations_suite_fails_only_on_an_expected_identity(monkeypatch):
    from dunklqm import cli, susyqm

    real = susyqm.verify_operator_relations
    assert cli._suite_relations(lambda msg: None, "both") == (True, 4)

    def flipped(name, variant):
        def report(params, grids, variants):
            rep = real(params, grids, variants)
            for r in rep:
                if (r["relation"], r["variant"]) == (name, variant):
                    r["verdict"] = {"identity": "defect",
                                    "defect": "identity"}[r["verdict"]]
            return rep
        return report

    monkeypatch.setattr(susyqm, "verify_operator_relations",
                        flipped("q_squared_equals_h", "n/a"))
    assert cli._suite_relations(lambda msg: None, "both") == (False, 4)
    monkeypatch.setattr(susyqm, "verify_operator_relations",
                        flipped("intertwine_X", "printed"))
    assert cli._suite_relations(lambda msg: None, "both") == (True, 3)


def test_relations_suite_prints_one_variant_as_a_slice_of_both(capsys):
    # each variant prints the shared [n/a] lines and its own lines of
    # --variant both, in the same order; findings are the verdicts' defects
    both = run(["verify", "--suite", "relations", "--variant", "both"], capsys)
    assert both[0] == 0
    *lines, summary = both[1].splitlines()
    assert summary == ("oracle checks: pass; printed-formula discrepancies: "
                       "4 found")
    for variant, findings in (("printed", 3), ("corrected", 1)):
        code, out, err = run(["verify", "--suite", "relations", "--variant",
                              variant], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            line for line in lines if "[n/a]" in line or f"[{variant}]" in line
        ] + [f"oracle checks: pass; printed-formula discrepancies: "
             f"{findings} found"]


def test_spectrum_scarf_negative_alpha_rejected(capsys):
    # ScarfParams accepts alpha > -1; scarf_problem refuses alpha < 0
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
    # GegParams accepts mu > -1/2; gegenbauer_problem refuses mu < 0
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
])
def test_spectrum_parameters_beyond_float_range_usage_error(params, capsys):
    code, out, err = run(["spectrum", *params, "--grids", "64,128,256"],
                         capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parameters beyond float range")
    assert err.count("\n") == 1


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
    from dunklqm import cli, errata, grid, opalg

    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before its --out was refused")

    for module, name in ((opalg, "verify_family"), (cli, "_suite_exact"),
                         (grid, "convergence_study"), (errata, "errata_json")):
        monkeypatch.setattr(module, name, no_work)
    (tmp_path / "existing-file").write_text("")
    path = "" if not target else str(tmp_path) + os.sep + target
    code, out, err = run([*argv, "--out", path], capsys)
    assert code == 2
    assert out == ""
    assert "argument --out: " in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing-file"]


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


def test_python_m_dunklqm_runs_the_cli():
    src = str(Path(dunklqm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "dunklqm", "verify", "--suite", "exact"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "oracle checks: pass" in proc.stdout


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
    src = str(Path(dunklqm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0]", "False"]
