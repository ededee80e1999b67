"""Self-tests of ``tests/compare_outputs.py``, loaded by path."""

from pathlib import Path

from load_path import load_path

TESTS = Path(__file__).resolve().parent
compare_outputs = load_path("compare_outputs", TESTS / "compare_outputs.py")

CHEAP = ["family --kind jacobi-m1 --alpha 1/2 --beta 3/2 --degree 4",
         "verify --suite jacobi --degree 4"]


def test_commands_are_every_job_and_the_ladders():
    cmds = compare_outputs.commands()
    assert len(cmds) == len(set(cmds)) == 168
    assert cmds[-26:] == [*compare_outputs.LADDERS, *compare_outputs.USAGE,
                          *compare_outputs.EDGES, *compare_outputs.ERRORS]


def test_checkout_compared_with_itself_is_identical():
    assert compare_outputs.compare(TESTS.parent, TESTS.parent, CHEAP) == []


def test_a_checkout_that_prints_otherwise_is_reported(tmp_path):
    package = tmp_path / "src" / "dunklqm"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text("print('other')\nraise SystemExit(3)\n")
    assert compare_outputs.compare(TESTS.parent, tmp_path, CHEAP[:1]) == [
        (CHEAP[0], ["exit code", "stdout", "--out"])]
