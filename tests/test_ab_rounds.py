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
    per_job, metrics = lines[1:1 + len(jobs)], lines[1 + len(jobs):]
    # "  median [q25 ..., q75 ...]  job", the ratios this/other
    assert sorted(line.split("]  ", 1)[1] for line in per_job) == sorted(jobs)
    assert all(float(line.split()[0]) > 0 and line.split()[1] == "[q25"
               for line in per_job)
    # one short run of the one round, each metric for both sides
    assert [line.split()[0] for line in metrics] == [
        "jobs_per_s", "job_p50_s", "job_tail_s"]
    assert all(" over 1 runs of up to 6 rounds: this " in line
               and ", other " in line and line.endswith(" of 1")
               for line in metrics)


def test_run_metrics_follow_the_benchmark_rules():
    # three rounds of two jobs a side, in runs of two rounds: the short
    # last round is dropped
    times = [([1.0, 3.0], [2.0, 2.0]), ([2.0, 2.0], [1.0, 1.0]),
             ([9.0, 9.0], [9.0, 9.0])]
    metrics = ab_rounds.run_metrics(times, 2)
    assert metrics == {"jobs_per_s": ([0.5], [4 / 6]),
                       "job_p50_s": ([2.0], [1.5]),
                       "job_tail_s": ([3.0], [2.0])}
    # fewer rounds than one run: all of them make the one run
    assert ab_rounds.run_metrics(times[:1], 6)["job_tail_s"] == ([3.0], [2.0])
    # 20 or more jobs: the highest percentile with ten jobs beyond it
    times = [([float(i) for i in range(40)], [1.0]*40)]
    assert ab_rounds.run_metrics(times, 1)["job_tail_s"] == ([29.0], [1.0])
