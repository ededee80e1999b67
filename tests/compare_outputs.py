"""Compare the command outputs of this checkout with another one.

Usage, from the repository root:

    python tests/compare_outputs.py OTHER_CHECKOUT

Runs every command of ``bench/jobs.py``'s ``all_jobs`` (loaded by path,
read-only), plus the Gegenbauer (1/2, 1) 1024-4096, 2048-8192 and 300-1200
ladders (at N = 600 the product's bits differ between 1 and 2 BLAS threads,
and no golden covers that ladder), a fixed set of usage commands (each
subcommand's help, the refusals of an unread parameter, a bad choice and a
bad rational, and one accepted negative parameter), one spectrum per grid
path on its smallest grids, the error paths of the CLI's exit table that
an input reaches (every row but the wrong eigenvalue formula and out of
memory) and a command for each option and choice that no other one passes
(``test_compare_outputs`` checks that every one is passed), in both
checkouts: each in a fresh ``python -m dunklqm`` process
whose ``PYTHONPATH`` is that checkout's ``src``, with ``--out`` to a
temporary file, two processes at a time. Prints each command whose exit
code, stdout, stderr or ``--out`` differs, and exits 1 if one does, else 0.
Both sides run under the same environment, so a thread-count setting
applies to both alike.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from load_path import load_path

ROOT = Path(__file__).resolve().parents[1]
LADDERS = tuple(f"spectrum --system gegenbauer --mu 1/2 --alpha 1 --grids {g}"
                for g in ("1024,2048,4096", "2048,4096,8192",
                          "300,600,1200"))
USAGE = ("family --help", "verify --help", "spectrum --help", "errata --help",
         "family --kind jacobi-m1 --mu 2",
         "spectrum --system oscillator --alpha 3",
         "verify --suite relations --degree 30",
         "verify --suite nosuch",
         "family --kind jacobi-m1 --alpha 1/0",
         "spectrum --system scarf --alpha -1/2")
# the smallest grids, where a stencil's shifts meet its mirror image (at
# N = 2 both nodes are the centre pair)
EDGES = ("spectrum --system scarf --alpha 1 --beta 3 --levels 1 --grids 2,4,8",
         "spectrum --system oscillator --levels 1 --grids 2,4,8",
         "spectrum --system scarf --alpha 0 --beta 2 --levels 1 --grids 6,12,24",
         "spectrum --system gegenbauer --mu 1/2 --alpha 1 --levels 1 "
         "--grids 4,8,16")
# the error paths: OverflowError (in the targets, then on the grid),
# FloatingPointError (an overflow, then two divisions by an infinite norm),
# the levels refusal, MethodLimitError on two paths and a refused family
# parameter
ERRORS = ("spectrum --system scarf --alpha 1e300 --beta 3 --grids 64,128,256",
          "spectrum --system gegenbauer --mu 1e300 --alpha 1 "
          "--grids 64,128,256",
          "spectrum --system scarf --alpha 1e154 --beta 3 --grids 64,128,256",
          "spectrum --system gegenbauer --mu 1e100 --alpha 1 "
          "--grids 64,128,256",
          "spectrum --system gegenbauer --mu 1/2 --alpha 1e100 "
          "--grids 64,128,256",
          "spectrum --system oscillator --levels 70 --grids 64,128,256",
          "spectrum --system scarf --alpha 1 --beta 3 --levels 65 "
          "--grids 128,256,512",
          "spectrum --system gegenbauer --mu 1/2 --alpha 1 --levels 40 "
          "--grids 64,128,256",
          "family --kind jacobi-m1 --alpha -1")

# each option and choice that no command above passes: the family tables as
# text and csv (each P_n typeset; the symmetric Gegenbauer family skips its
# zero coefficients), a spectrum's csv under a tolerance, and an explicit
# default format and suite
OPTIONS = ("family --kind jacobi-m1 --alpha 1/2 --beta 3/2 --degree 8 "
           "--format text",
           "family --kind jacobi-m1 --alpha 1/2 --beta 3/2 --degree 8 "
           "--format csv",
           "family --kind gegenbauer --mu 1/3 --alpha 2 --degree 8 "
           "--format csv",
           "spectrum --system scarf --alpha 1 --beta 3 --grids 64,128,256 "
           "--format csv --tol 1e-3",
           "spectrum --system oscillator --grids 64,128,256 --format json",
           "verify --suite all")


def commands() -> list[str]:
    """The 142 ``all_jobs`` command lines of every workload, then the three
    Gegenbauer ladders, the usage commands, the edge-size spectra, the error
    paths and the remaining options."""
    jobs = load_path("bench_jobs", ROOT / "bench" / "jobs.py")
    return ([j for w in jobs.WORKLOADS for j in jobs.all_jobs(w)]
            + list(LADDERS) + list(USAGE) + list(EDGES) + list(ERRORS)
            + list(OPTIONS))


def run(checkout: Path, command: str) -> tuple:
    """(exit code, stdout, stderr, --out text or None) of one fresh process,
    run in an empty temporary directory."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "dunklqm", *shlex.split(command),
             "--out", str(out)],
            cwd=work, env=env, capture_output=True, text=True)
        return (proc.returncode, proc.stdout, proc.stderr,
                out.read_text() if out.exists() else None)


def compare(this: Path, other: Path, cmds: list[str]) -> list:
    """The commands whose outputs differ, each with the fields that do."""
    names = ("exit code", "stdout", "stderr", "--out")
    with ThreadPoolExecutor(2) as pool:
        a = list(pool.map(lambda c: run(this, c), cmds))
        b = list(pool.map(lambda c: run(other, c), cmds))
    return [(cmd, [n for n, x, y in zip(names, ra, rb) if x != y])
            for cmd, ra, rb in zip(cmds, a, b) if ra != rb]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the other checkout's root")
    args = parser.parse_args(argv)
    cmds = commands()
    diffs = compare(ROOT, args.other, cmds)
    for cmd, fields in diffs:
        print(f"DIFFERS ({', '.join(fields)}): {cmd}")
    print(f"{len(cmds) - len(diffs)} of {len(cmds)} commands identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
