"""Self-tests of ``tests/record_golden.py``, the scoped golden recorder: a
re-record of one file rewrites that file only, and names outside the golden
cases are refused before anything runs."""

import json
import shutil
from pathlib import Path

import pytest
from load_path import load_path

TESTS = Path(__file__).resolve().parent
record_golden = load_path("record_golden", TESTS / "record_golden.py")


def _snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_rerecording_errata_leaves_every_golden_byte_identical(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(record_golden.GOLDEN, golden)
    lines = record_golden.record(["errata.json"], golden)
    assert lines == ["errata.json: exit 0; unchanged (byte-identical)"]
    assert _snapshot(golden) == _snapshot(record_golden.GOLDEN)


@pytest.mark.parametrize("name", ["relations-fd.json", "no-such-file.txt"])
def test_a_name_outside_the_golden_cases_is_refused(tmp_path, name):
    golden = tmp_path / "golden"
    shutil.copytree(record_golden.GOLDEN, golden)
    with pytest.raises(ValueError, match="not a CASES or SPECTRUM_CASES"):
        record_golden.record(["errata.json", name], golden)
    assert _snapshot(golden) == _snapshot(record_golden.GOLDEN)
    assert record_golden.main([name]) == 2


def test_an_unexpected_exit_code_leaves_the_file(tmp_path, monkeypatch):
    golden = tmp_path / "golden"
    golden.mkdir()
    (golden / "x.txt").write_text("old\n")
    monkeypatch.setattr(record_golden, "commands",
                        lambda: {"x.txt": (["verify", "--suite", "exact"], 1)})
    with pytest.raises(ValueError, match="exit code 0"):
        record_golden.record(["x.txt"], golden)
    assert _snapshot(golden) == {"x.txt": b"old\n"}


def test_every_golden_case_is_recordable():
    cases = record_golden.commands()
    recorded = {p.name for p in record_golden.GOLDEN.iterdir()}
    assert set(cases) == recorded - {"relations-fd.json"}


def test_compare_reports_skeleton_and_float_moves():
    old = json.dumps({"id": "a", "v": [1.0, 2.0, 0.5]})
    moved = json.dumps({"id": "a", "v": [1.0, 2.0 + 4e-15, 0.5 - 1e-16]})
    assert record_golden.compare(old, old) == "unchanged (byte-identical)"
    assert record_golden.compare(old, moved) == (
        "exact skeleton unchanged; 2 of 3 floats moved; largest move "
        "4e-15 absolute, 2e-15 relative")
    assert record_golden.compare(old, json.dumps({"id": "b", "v": [1.0]})) \
        == "exact skeleton CHANGED (floats not compared)"
    assert record_golden.compare("x 1.0\n", "x 1.00\n") == (
        "exact skeleton unchanged; no float moved in value (their text "
        "differs)")
