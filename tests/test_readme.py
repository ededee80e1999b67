"""README's examples stay true: its Python example runs, every ``dunklqm …``
command line it shows is accepted by the command's parser and exits 0, and
its "reads / defaults" table lists every family kind and spectrum system as
the CLI tables state them."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from dunklqm import cli

README = (Path(__file__).parent.parent / "README.md").read_text()


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("line", [
    line for line in README.splitlines() if line.startswith("dunklqm ")])
def test_readme_command_line_parses(line, tmp_path, monkeypatch, capsys):
    # README's comments promise exit 0 for each line, which a usage error or
    # a parameter left unread (exit 2) breaks; --out lands in tmp_path
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == cli.EXIT_OK


def test_readme_reads_table_matches_the_cli_tables():
    # every family kind and spectrum system, with the parameters it reads and
    # their defaults, so a new choice cannot land undocumented
    rows = re.findall(r"^\| `(\w+) --\w+ ([\w-]+)` \|(.*?)\|(.*?)\|$",
                      README, re.M)
    documented = {(command, choice): (
        re.findall(r"`--(\w+)`", reads),
        [Fraction(d.replace("½", "1/2"))
         for d in defaults.replace(",", " ").split()])
                  for command, choice, reads, defaults in rows}
    tables = {"family": cli._KINDS, "spectrum": cli._SYSTEMS}
    assert documented == {
        (command, choice): (list(row.reads), list(row.reads.values()))
        for command, table in tables.items() for choice, row in table.items()}
