"""Self-test of ``tests/ab_rounds.py``, loaded by path."""

from pathlib import Path

from load_path import load_path

TESTS = Path(__file__).resolve().parent
ab_rounds = load_path("ab_rounds", TESTS / "ab_rounds.py")


def test_one_round_against_this_checkout(capsys):
    assert ab_rounds.main([str(TESTS.parent), "--workload", "verify-errata",
                           "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    jobs = ab_rounds._jobs_module().VERIFY_ERRATA_ROUND
    assert lines[0].startswith("round-time ratio this/other over 1 rounds: ")
    assert sorted(line.split(None, 1)[1] for line in lines[1:]) == sorted(jobs)
    assert all(float(line.split()[0]) > 0 for line in lines[1:])
