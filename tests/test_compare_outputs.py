"""Self-tests of ``tests/compare_outputs.py``, loaded by path."""

import argparse
import shlex
from pathlib import Path

from load_path import load_path

from dunklqm import cli

TESTS = Path(__file__).resolve().parent
compare_outputs = load_path("compare_outputs", TESTS / "compare_outputs.py")

CHEAP = ["family --kind jacobi-m1 --alpha 1/2 --beta 3/2 --degree 4",
         "verify --suite jacobi --degree 4"]


def test_commands_are_every_job_and_the_ladders():
    cmds = compare_outputs.commands()
    assert len(cmds) == len(set(cmds)) == 174
    assert cmds[-32:] == [*compare_outputs.LADDERS, *compare_outputs.USAGE,
                          *compare_outputs.EDGES, *compare_outputs.ERRORS,
                          *compare_outputs.OPTIONS]


def test_commands_pass_every_option_and_choice():
    # each option of a subcommand, in one of its spellings, is in some
    # command of that subcommand, and each of its choices is passed
    # explicitly; --out is on every command, since run() appends it
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    argvs = [shlex.split(c) for c in compare_outputs.commands()]
    missing = []
    for name, parser in sub.choices.items():
        pairs = {pair for argv in argvs if argv[0] == name
                 for pair in zip(argv[1:], argv[2:] + [None])}
        passed = {option for option, _ in pairs} | {"--out"}
        for action in parser._actions:
            spellings = action.option_strings
            if not passed & set(spellings):
                missing.append(f"{name} {spellings[-1]}")
            missing += [f"{name} {spellings[-1]} {choice}"
                        for choice in action.choices or ()
                        if not any((o, choice) in pairs for o in spellings)]
    assert missing == []


def test_checkout_compared_with_itself_is_identical():
    assert compare_outputs.compare(TESTS.parent, TESTS.parent, CHEAP) == []


def test_a_checkout_that_prints_otherwise_is_reported(tmp_path):
    package = tmp_path / "src" / "dunklqm"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text("print('other')\nraise SystemExit(3)\n")
    assert compare_outputs.compare(TESTS.parent, tmp_path, CHEAP[:1]) == [
        (CHEAP[0], ["exit code", "stdout", "--out"])]
