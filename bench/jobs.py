"""Workload definitions: the dunklqm command lines each benchmark run sends.

A run is a closed loop of rounds. A round sends every job of the workload
once, in an order drawn from the run's seed. The number of rounds depends
only on the requested seconds, so both sides of a comparison time the same
jobs, and the median and tail sit at the same ranks. Rounds repeat the same
command lines, except in ``exact-oracles``, where each round draws fresh
parameters for every (kind, degree) slot from that slot's recorded pool.

This module imports nothing from dunklqm, so the launcher can build job lists
before any worker process starts.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("grid-spectra", "exact-oracles", "verify-errata")

# Jobs whose failure is a known defect of the program (ROADMAP item 2 and the
# roadmap's rule that bad parameters get a typed error, CLI exit 2).
# They count in failed_frac and never in the run's unexpected failures.
KNOWN_DEFECTS = (
    # CLI default alpha = 0 is outside the method's domain: exits 1.
    "spectrum --system gegenbauer --grids 256,512,1024",
    # Degenerate eigenvalues: an uncaught DegenerateSpectrumError traceback.
    "family --kind gegenbauer --mu 1 --alpha 2 --degree 12 --format json",
)


def _ladders(tops):
    """Doubling three-rung grid ladders ending at each of ``tops``."""
    return [f"{t // 4},{t // 2},{t}" for t in tops]


def _grid_spectra_round(smoke: bool = False) -> list[str]:
    jobs = []
    systems = [
        ("--system scarf --alpha 0 --beta 2", (1024, 2048, 4096)),
        ("--system scarf --alpha 1 --beta 3", (1024, 2048, 4096)),
        # Error ~ h^(2 alpha) = h here: the 1024-top ladder misses 1e-6.
        ("--system scarf --alpha 1/2 --beta 3/2", (2048,)),
        ("--system oscillator", (1024, 2048, 4096)),
        # The 4096 rung of this ladder alone costs ~25 s, so it stops at 2048;
        # below 1024 the ladder is outside the method's tolerance.
        ("--system gegenbauer --mu 1/2 --alpha 1", (1024, 2048)),
    ]
    for system, tops in systems:
        jobs += [f"spectrum {system} --grids {g}"
                 for g in _ladders(tops[:1] if smoke else tops)]
    jobs.append("spectrum --system gegenbauer --grids 256,512,1024")
    return jobs


# Each suite alone, then `verify` with its default (all suites) and `errata`.
# The four cheap and four dear jobs put the median between two groups, so it
# does not flip with the share of a run that falls in a slow machine phase.
VERIFY_ERRATA_ROUND = [f"verify --suite {s}" for s in (
    "exact", "jacobi", "gegenbauer", "oscillator", "intertwiners",
    "relations")] + ["verify", "errata"]

# Every degree from 6 to 20: job times then form a continuum, and the median
# and tail move smoothly with machine speed instead of jumping between slots.
EXACT_DEGREES = tuple(range(6, 21))
EXACT_KINDS = ("jacobi-m1", "gegenbauer")
POOL_SIZE = 4      # recorded parameter sets per (kind, degree) slot
POOL_SEED = 20261017

# Wall seconds of one round at the seed commit on a 2-core Xeon; a run of
# S seconds sends round(S / ROUND_SECONDS) rounds, at least one.
ROUND_SECONDS = {"grid-spectra": 12.0, "exact-oracles": 11.0,
                 "verify-errata": 6.5}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _draw_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 9), rng.randint(1, 4))


def _geg_degenerate(mu: Fraction, alpha: Fraction, degree: int) -> bool:
    """Two eigenvalues coincide up to ``degree`` (the eigen solve would fail).

    Mirrors dunklqm.gegenbauer.eigenvalue_geg without importing it.
    """
    def lam(n):
        if n % 2 == 0:
            return -n * (n + 1 + 2 * alpha + 2 * mu)
        return -(2 * mu + n) * (2 * alpha + n + 1)
    values = [lam(n) for n in range(degree + 1)]
    return len(set(values)) < len(values)


def family_job(kind: str, degree: int, a: Fraction, b: Fraction) -> str:
    names = ("--alpha", "--beta") if kind == "jacobi-m1" else ("--mu", "--alpha")
    return (f"family --kind {kind} {names[0]} {a} {names[1]} {b} "
            f"--degree {degree} --format json")


def exact_pool() -> dict[tuple[str, int], list[str]]:
    """Candidate parameter draws for each (kind, degree) slot.

    Drawn once from POOL_SEED: rationals p/q with 0 <= p <= 9, 1 <= q <= 4,
    skipping eigenvalue-degenerate Gegenbauer parameters. References are
    recorded for exactly these command lines.
    """
    rng = random.Random(POOL_SEED)
    pool = {}
    for kind in EXACT_KINDS:
        for degree in EXACT_DEGREES:
            seen = []
            while len(seen) < POOL_SIZE:
                a, b = _draw_rational(rng), _draw_rational(rng)
                if kind == "gegenbauer" and _geg_degenerate(a, b, degree):
                    continue
                job = family_job(kind, degree, a, b)
                if job not in seen:
                    seen.append(job)
            pool[(kind, degree)] = seen
    return pool


def all_jobs(workload: str) -> list[str]:
    """Every command line the workload can send (the set references cover)."""
    if workload == "grid-spectra":
        return _grid_spectra_round()
    if workload == "verify-errata":
        return list(VERIFY_ERRATA_ROUND)
    if workload == "exact-oracles":
        jobs = [j for slot in exact_pool().values() for j in slot]
        return jobs + [j for j in KNOWN_DEFECTS if j.startswith("family")]
    raise ValueError(f"unknown workload {workload!r}")


class JobStream:
    """Rounds of jobs for one run, all drawn from the run's seed.

    ``smoke`` keeps each system's or slot's smallest job, for self-tests.
    """

    def __init__(self, workload: str, seed: int, smoke: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.rng = random.Random(f"{workload}:{seed}")
        self.rounds = 0
        if workload == "exact-oracles":
            pool = exact_pool()
            if smoke:
                pool = {s: jobs for s, jobs in pool.items()
                        if s[1] == EXACT_DEGREES[0]}
            self.picks = [self.rng.sample(jobs, len(jobs))
                          for jobs in pool.values()]
            self.fixed = [j for j in KNOWN_DEFECTS if j.startswith("family")]
        else:
            self.picks = []
            self.fixed = (_grid_spectra_round(smoke) if workload == "grid-spectra"
                          else list(VERIFY_ERRATA_ROUND))

    def next_round(self) -> list[str]:
        jobs = [p[self.rounds % len(p)] for p in self.picks] + self.fixed
        self.rounds += 1
        self.rng.shuffle(jobs)
        return jobs
