"""README's examples stay true: its Python example runs, and every
``dunklqm …`` command line it shows is accepted by the command's parser."""

import re
import shlex
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
def test_readme_command_line_parses(line, capsys):
    argv = cli._attach_negative_values(shlex.split(line)[1:])
    args = cli.build_parser().parse_args(argv)
    reads = {"family": ("kind", cli._FAMILY_PARAMS),
             "spectrum": ("system", cli._SPECTRUM_PARAMS),
             "verify": ("suite", cli._VERIFY_PARAMS)}.get(args.command)
    assert reads is None or not cli._refuse_unread(args, *reads)
