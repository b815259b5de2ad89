"""The pairing loop of ``tools/pair.py``, driven by fake runners."""

from __future__ import annotations

import importlib.util
import json
import sys
import tarfile
from pathlib import Path

import pytest

PAIR_PATH = Path(__file__).resolve().parent.parent / "tools" / "pair.py"


@pytest.fixture(scope="module")
def pair():
    spec = importlib.util.spec_from_file_location("pair_tool", PAIR_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeRunner:
    """Stands in for a tree's ``perfbench/run.py``; crashes on chosen calls.

    ``calls`` is shared between the two sides, so it records the order in
    which the loop ran them, as (side, workload) pairs.
    """

    def __init__(self, side: str, calls: list, crash_on: set[int], value: float):
        self.side, self.calls, self.crash_on, self.value = side, calls, crash_on, value

    def run_child(self, workload: str, seed: int, seconds: float, trace: int) -> dict:
        self.calls.append((self.side, workload))
        if len(self.calls) in self.crash_on:
            # what perfbench's run_child does with a failed child process
            sys.stderr.write("Traceback (most recent call last):\n"
                             "RuntimeError: no speed samples were taken\n")
            raise RuntimeError(f"{workload} seed {seed}: exit code 1")
        value = self.value + len(self.calls)
        return {
            "metrics": {
                name: {"value": value, "unit": ""}
                for name in ("events_per_s", "peak_rss_mb", "setup_s")
            },
            "meta": {"machine": {"nproc": 1}, "failed_ratio": 0.0},
        }


def sides(crash_on: set[int]) -> tuple[dict, list]:
    calls: list = []
    return {
        "parent": FakeRunner("parent", calls, crash_on, 100.0),
        "change": FakeRunner("change", calls, crash_on, 200.0),
    }, calls


def test_no_crash_alternates_sides(pair):
    runners, calls = sides(set())
    measured = pair.run_pairs(runners, "score-hourly", 3, 1, 0.1)
    assert measured["complete"] and measured["crashed"] == []
    assert measured["order"] == ["parent first", "change first", "parent first"]
    assert [side for side, _ in calls] == [
        "parent", "change", "change", "parent", "parent", "change",
    ]
    assert len(measured["runs"]["parent"]) == len(measured["runs"]["change"]) == 3


def test_crashed_run_is_recorded_and_its_pair_rerun(pair, capsys):
    # call 4 is pair 2's second side (parent, since pair 2 runs change first)
    runners, calls = sides({4})
    measured = pair.run_pairs(runners, "score-hourly", 3, 1, 0.1)
    assert measured["complete"]
    assert measured["crashed"] == [{
        "side": "parent", "pair": 2, "attempt": 1, "exit_code": 1,
        "stderr": "RuntimeError: no speed samples were taken",
    }]
    # pair 2 runs again from its first side, in the same order
    assert [side for side, _ in calls] == [
        "parent", "change", "change", "parent", "change", "parent", "parent", "change",
    ]
    assert measured["order"] == ["parent first", "change first", "parent first"]
    # the crashed attempt's change run is dropped: calls 3 (dropped), 5 (kept)
    assert [r["metrics"]["events_per_s"]["value"] for r in measured["runs"]["change"]] == [
        202.0, 205.0, 208.0,
    ]
    assert "no speed samples were taken" in capsys.readouterr().err


def test_pair_failing_every_attempt_stops_the_workload(pair):
    # pair 2 crashes on its first side in all three attempts (calls 3, 4, 5)
    runners, calls = sides({3, 4, 5})
    measured = pair.run_pairs(runners, "score-hourly", 4, 1, 0.1)
    assert not measured["complete"]
    assert [(c["pair"], c["attempt"], c["side"]) for c in measured["crashed"]] == [
        (2, 1, "change"), (2, 2, "change"), (2, 3, "change"),
    ]
    assert len(calls) == 5
    assert len(measured["runs"]["parent"]) == len(measured["runs"]["change"]) == 1
    assert measured["order"] == ["parent first"]


def fake_git(*args: str, cwd=None) -> str:
    """Answers ``tools/pair.py``'s git calls without a repository."""
    if args[0] == "archive":
        with tarfile.open(args[args.index("--output") + 1], "w"):
            pass
    return "0" * 40 if args[0] == "rev-parse" else ""


def test_main_writes_the_measured_pairs_and_fails(pair, tmp_path, monkeypatch):
    runners, _ = sides({3, 4, 5})
    loaded = iter([runners["parent"], runners["change"]])
    monkeypatch.setattr(pair, "load_runner", lambda tree: next(loaded))
    monkeypatch.setattr(pair, "_git", fake_git)
    out = tmp_path / "bench.json"
    code = pair.main(["--parent", "HEAD", "--pairs", "3", "--workload", "score-hourly",
                      "--seconds", "0.1", "--out", str(out)])
    assert code == 1
    written = json.loads(out.read_text(encoding="utf-8"))
    workload = written["workloads"]["score-hourly"]
    assert workload["pairs"] == 1
    assert workload["metrics"]["events_per_s"]["parent"] == [101.0]
    assert len(workload["crashed"]) == 3
    assert written["machine"] == {"nproc": 1}
