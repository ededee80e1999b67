"""Re-record named golden files and report what moved.

Usage, from the repository root:

    PYTHONPATH=src python tests/record_golden.py NAME [NAME ...]

Each NAME must be a file of ``tests/test_golden.py``'s ``CASES`` or
``SPECTRUM_CASES``; any other name is refused before anything is written.
The recorder runs that file's command through ``dunklqm.cli.main``, as the
golden test does, and rewrites only the named files. A command whose exit
code is not the one the test expects is refused and leaves its file as it
was. For each file it prints whether the bytes changed, whether the exact
skeleton changed, how many floats moved, and the largest absolute and
relative move, splitting each output as ``bench/refcheck.py``'s
``canonical`` does (loaded by path, read-only).
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from load_path import load_path

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"


def commands() -> dict:
    """{file name: (argv, expected exit code)} for every recordable file."""
    cases = load_path("golden_cases", TESTS / "test_golden.py")
    out = {name: (argv, 0) for name, argv in cases.CASES.items()}
    for name, (argv, code) in cases.SPECTRUM_CASES.items():
        out[name] = (cases.spectrum_argv(argv), code)
    return out


def compare(old: str, new: str) -> str:
    """One line on what moved between two outputs of the same command."""
    if old == new:
        return "unchanged (byte-identical)"
    canonical = load_path("bench_refcheck",
                      TESTS.parent / "bench" / "refcheck.py").canonical
    a, b = canonical(old), canonical(new)
    if a["sha256"] != b["sha256"]:
        return "exact skeleton CHANGED (floats not compared)"
    moves = [(abs(y - x), abs(y - x) / abs(x) if x else float("inf"))
             for x, y in zip(a["floats"], b["floats"]) if repr(x) != repr(y)]
    if not moves:
        return ("exact skeleton unchanged; no float moved in value (their "
                "text differs)")
    return (f"exact skeleton unchanged; {len(moves)} of {len(a['floats'])} "
            f"floats moved; largest move {max(m[0] for m in moves):.3g} "
            f"absolute, {max(m[1] for m in moves):.3g} relative")


def record(names: list, golden: Path = GOLDEN) -> list:
    """Re-record ``names`` under ``golden``; return one report line each.

    Raises ``ValueError`` naming any file that is not a golden case, before
    anything runs, and for a command whose exit code is not the expected one.
    """
    from dunklqm.cli import main

    table = commands()
    unknown = [n for n in names if n not in table]
    if unknown:
        raise ValueError(f"not a CASES or SPECTRUM_CASES file: {unknown}")
    lines = []
    for name in names:
        argv, expected = table[name]
        path = golden / name
        fd, tmp = tempfile.mkstemp(dir=golden, prefix=".record-")
        os.close(fd)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", tmp])
            if code != expected:
                raise ValueError(f"{name}: exit code {code}, the golden test "
                                 f"expects {expected}; file left as it was")
            new = Path(tmp).read_bytes()
            old = path.read_bytes() if path.exists() else None
            path.write_bytes(new)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        report = ("new file" if old is None
                  else compare(old.decode(), new.decode()))
        lines.append(f"{name}: exit {code}; {report}")
    return lines


def main(argv: list) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        for line in record(argv):
            print(line)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
