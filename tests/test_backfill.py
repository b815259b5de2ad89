"""Tests for a ``score`` call split over CPUs (``loginwatch.backfill``).

Each test forces the CPU count and, where it says so, lowers the size
threshold, so that a small input is cut into ranges and forked workers
parse them. Every split call must give what a one-CPU call gives.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import shutil
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loginwatch import backfill, workers
from loginwatch.cli import main
from loginwatch.pipeline import PipelineConfig, run_train_workflow
from loginwatch.registry import EntryStatus, ModelRegistry

from test_model import assert_no_child_left, raise_
from test_pipeline import crafted_events

CONFIG = {"min_events": 100, "seed": 3, "train": {"epochs": 2}}
START = datetime(2023, 3, 1, tzinfo=timezone.utc)
# an id that cannot name a directory, one too long for a file name, and
# one with no file name form
HOSTILE = ("../escape", "x" * 300, "\ud800")


@pytest.fixture(scope="module")
def setup(tmp_path_factory) -> tuple[Path, Path]:
    """A config file and a registry: u1 and u2 trained under the config, u3
    under another one (so scoring it warns of config drift), u4 with a
    corrupt newest document. u9 and the hostile ids have no model."""
    root = tmp_path_factory.mktemp("backfill")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    registry = ModelRegistry(root / "registry")
    config = PipelineConfig.from_dict(CONFIG)
    events = [e for actor in ("u1", "u2", "u4") for e in crafted_events(actor, 120)]
    run_train_workflow(events, config, registry)
    other = PipelineConfig.from_dict({**CONFIG, "seed": 4})
    run_train_workflow(crafted_events("u3", 120), other, registry)
    newest = registry.entry_paths("u4")[-1]
    corrupt = newest.with_name("99990101T000000.000000Z.model")
    data = bytearray(newest.read_bytes())
    data[40] ^= 1
    corrupt.write_bytes(bytes(data))
    return config_path, registry.root


def login(actor: str, i: int, raw: bool) -> str:
    """Login ``i`` of ``actor`` as a JSON line, in the raw or the flat shape."""
    (event,) = crafted_events(actor, 1, start=START + timedelta(minutes=37 * i))
    if not raw:
        return event.to_json_line()
    return json.dumps({
        "actor": {"id": actor},
        "eventType": event.event_type,
        "published": event.timestamp.isoformat(),
        "outcome": {"result": "SUCCESS" if i % 4 else "FAILURE"},
        "client": {
            "userAgent": {"os": "Linux"},
            "device": "Computer",
            "geographicalContext": {
                "geolocation": {"lat": event.latitude + i % 7, "lon": event.longitude},
            },
        },
        "target": [{"type": "AppInstance", "id": f"app-{i % 3}"}],
    })


ACTORS = ("u1", "u2", "u3", "u4", "u9") + HOSTILE
REJECTED = (
    '{"eventType": "user.authentication.sso"}',  # no actor.id
    "[1, 2]",  # not an object
    '{"actor_id": 5, "event_type": "x", "timestamp": "2023-01-01T00:00:00Z"}',
)
BLANK = ("", "  \t")
POISON = {"malformed": b'{"actor": ', "undecodable": b'{"actor": {"id": "\xff"}}'}


@st.composite
def inputs(draw) -> tuple[bytes, bool]:
    """A JSONL input: logins of every actor in both shapes, rejected records
    and blank lines, ended by LF, CRLF or a lone CR, the last line perhaps
    with no end; at times a malformed or an undecodable line among them.
    Returns the bytes and whether such a line is among them."""
    lines = []
    for i in range(draw(st.integers(1, 50))):
        kind = draw(st.sampled_from(["login"] * 6 + ["rejected", "blank"]))
        if kind == "login":
            line = login(draw(st.sampled_from(ACTORS)), i, draw(st.booleans()))
        else:
            line = draw(st.sampled_from(REJECTED if kind == "rejected" else BLANK))
        lines.append(line.encode("utf-8"))
    poison = draw(st.sampled_from([None] * 4 + sorted(POISON)))
    if poison is not None:
        lines.insert(draw(st.integers(0, len(lines))), POISON[poison])
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = b""
    return b"".join(line + end for line, end in zip(lines, ends)), poison is not None


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[tuple[str, str, str]] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append((record.name, record.levelname, record.getMessage()))


@contextlib.contextmanager
def forced(cpus: int, threshold: int = 0):
    """Force ``cpus`` CPUs and a size threshold; yields a list that grows by
    one per fork that this process makes."""
    forks, fork, parent = [], os.fork, os.getpid()

    def counted_fork():
        if os.getpid() == parent:
            forks.append(1)
        return fork()

    with (
        mock.patch.object(workers, "cpu_count", lambda: cpus),
        mock.patch.object(backfill, "SPLIT_MIN_BYTES", threshold),
        mock.patch.object(os, "fork", counted_fork),
    ):
        yield forks


def score(setup, live: Path, out_dir: Path, cpus: int, threshold: int = 0):
    """Everything a ``score`` CLI call gives, with ``cpus`` CPUs forced, and
    how it ran: (forks made, whether the split path gave the result)."""
    config_path, registry = setup
    out_dir.mkdir()
    out, summary = out_dir / "out.jsonl", out_dir / "summary.json"
    argv = ["score", "--input", str(live), "--config", str(config_path),
            "--registry", str(registry), "--out", str(out), "--summary", str(summary)]
    records, stdout, stderr = _Records(), io.StringIO(), io.StringIO()
    results, score_file = [], backfill.score_file

    def spied(*args):
        results.append(score_file(*args))
        return results[-1]

    logger = logging.getLogger("loginwatch")
    logger.addHandler(records)
    try:
        with (
            forced(cpus, threshold) as forks,
            mock.patch("loginwatch.cli.score_file", spied),
            contextlib.redirect_stdout(stdout),
            contextlib.redirect_stderr(stderr),
        ):
            code = main(argv)
    finally:
        logger.removeHandler(records)
    outputs = {
        "code": code,
        "out": out.read_bytes() if out.exists() else None,
        "summary": summary.read_bytes() if summary.exists() else None,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "warnings": records.messages,
    }
    return outputs, (len(forks), any(result is not None for result in results))


@settings(max_examples=60)
@given(drawn=inputs(), cpus=st.integers(1, 4))
def test_any_split_scores_as_one_process(setup, drawn, cpus):
    data, poisoned = drawn
    with tempfile.TemporaryDirectory() as scratch:
        live = Path(scratch) / "live.jsonl"
        live.write_bytes(data)
        one, (forks, split_used) = score(setup, live, Path(scratch) / "one", cpus=1)
        assert (forks, split_used) == (0, False)
        split, (forks, split_used) = score(setup, live, Path(scratch) / "split", cpus=cpus)
    assert forks <= cpus - 1
    # no actor has enough logins to retrain, so only a poisoned line falls back
    assert split_used == (forks > 0 and not poisoned)
    assert split == one


def test_the_cases_that_the_drawn_inputs_must_reach(setup, tmp_path):
    # one split call that scores, warns of every kind and counts rejected
    # records, and one that falls back on a malformed line, each as above
    lines = [login(ACTORS[i % len(ACTORS)], i, raw=i % 2 == 0) for i in range(40)]
    lines[17:17] = REJECTED
    live = tmp_path / "live.jsonl"
    live.write_text("\r\n".join(lines))
    split, how = score(setup, live, tmp_path / "split", cpus=3)
    assert how == (2, True)
    summary = json.loads(split["summary"])
    assert sorted(summary["actors"]) == ["u1", "u2", "u3"]
    assert summary["unscorable"] == sorted(["u4", "u9", *HOSTILE])
    messages = [message for _, _, message in split["warnings"]]
    assert [m.split(":")[0] for m in messages] == [
        "rejected record at line 18", "rejected record at line 19",
        "rejected record at line 20", "config drift for u3", "cannot score u4",
        "3 records were rejected during ingest",
    ]
    assert split == score(setup, live, tmp_path / "one", cpus=1)[0]

    live.write_bytes(live.read_bytes() + b"\n" + POISON["malformed"] + b"\n")
    split, how = score(setup, live, tmp_path / "split-malformed", cpus=3)
    assert how == (2, False)
    assert split == score(setup, live, tmp_path / "one-malformed", cpus=1)[0]
    assert split["code"] == 1 and "line 44: invalid JSON" in split["stderr"]
    # the rejected records before the malformed line are logged once
    assert [m for _, _, m in split["warnings"]] == messages[:3]


def test_more_rejected_lines_than_a_range_can_record(setup, tmp_path):
    # a rejected line can be far shorter than a login: a range records as
    # many as it could hold logins, and logs the rest by parsing again
    lines = [login("u1", i, raw=True) for i in range(30)]
    lines[10:10] = ["[]"] * 400
    live = tmp_path / "live.jsonl"
    live.write_text("\n".join(lines) + "\n")
    split, how = score(setup, live, tmp_path / "split", cpus=2)
    assert how == (1, True)
    assert split == score(setup, live, tmp_path / "one", cpus=1)[0]
    assert len(split["warnings"]) == 401


def test_an_actor_due_for_retraining_falls_back_to_one_process(setup, tmp_path):
    config_path, registry = setup
    copy = tmp_path / "registry"
    shutil.copytree(registry, copy)
    store = ModelRegistry(copy)
    entry = store.load("u1")
    entry.status = EntryStatus.NEEDS_RETRAIN
    store.save(entry)
    live = tmp_path / "live.jsonl"
    live.write_text("".join(login("u1", i, raw=True) + "\n" for i in range(100)))
    result, how = score((config_path, copy), live, tmp_path / "split", cpus=2)
    assert how == (1, False)
    assert json.loads(result["summary"])["retrained"] == ["u1"]
    assert len(store.entry_paths("u1")) == 3  # trained, flagged, retrained


def test_a_save_during_the_call_falls_back_to_one_process(setup, tmp_path):
    config_path, registry = setup
    copy = tmp_path / "registry"
    shutil.copytree(registry, copy)
    # u2 only in the last quarter, inside the second range, which a worker parses
    lines = [login("u1", i, raw=True) for i in range(30)] + [
        login("u2", i, raw=True) for i in range(10)
    ]
    live = tmp_path / "live.jsonl"
    live.write_text("\n".join(lines) + "\n")
    parent, scan = os.getpid(), backfill._scan

    def scan_then_save(*args):
        part = scan(*args)
        if os.getpid() != parent:  # a newer copy of u2's document lands
            newest = ModelRegistry(copy).entry_paths("u2")[-1]
            shutil.copy(newest, newest.with_name("99990101T000000.000000Z.model"))
        return part

    with mock.patch.object(backfill, "_scan", scan_then_save):
        result, how = score((config_path, copy), live, tmp_path / "split", cpus=2)
    assert how == (1, False)
    assert result == score((config_path, copy), live, tmp_path / "one", cpus=1)[0]


def test_failed_worker_names_itself_and_leaves_no_child(setup, tmp_path):
    config_path, registry = setup
    live = tmp_path / "live.jsonl"
    live.write_text("".join(login("u1", i, raw=True) + "\n" for i in range(40)))
    parent, scan = os.getpid(), backfill._scan

    def failing_scan(*args):
        if os.getpid() != parent:
            raise ValueError("boom")
        return scan(*args)

    config = PipelineConfig.from_dict(CONFIG)
    with forced(2) as forks, mock.patch.object(backfill, "_scan", failing_scan):
        with pytest.raises(
            RuntimeError, match=r"^scoring worker \d+ exited with status 1: ValueError: boom$"
        ):
            backfill.score_file(live, config, ModelRegistry(registry))
    assert forks == [1]
    assert_no_child_left()


def test_an_hourly_batch_never_forks(setup, tmp_path):
    # the largest hour of the score-hourly benchmark: 155 logins, 55 KB
    live = tmp_path / "hour.jsonl"
    live.write_text("".join(login(f"u{1 + i % 4}", i, raw=True) + "\n" for i in range(155)))
    assert 50_000 < live.stat().st_size < backfill.SPLIT_MIN_BYTES
    with mock.patch.object(os, "fork", lambda: raise_(AssertionError("forked"))):
        result, how = score(setup, live, tmp_path / "out", cpus=4,
                            threshold=backfill.SPLIT_MIN_BYTES)
    assert result["code"] == 0, result["stderr"]
    assert how == (0, False)
    assert sorted(json.loads(result["summary"])["actors"]) == ["u1", "u2", "u3"]


@pytest.mark.parametrize("cpus", [2, 3, 5])
def test_cuts_follow_line_ends(tmp_path, cpus):
    path = tmp_path / "live.jsonl"
    data = b"a\nbb\r\n\n" + b"x" * 300 + b"\rlast"
    path.write_bytes(data)
    cuts = backfill._cuts(path, len(data), cpus)
    assert len(cuts) == cpus + 1 and cuts[0] == 0 and cuts[-1] == len(data)
    assert cuts == sorted(cuts)
    for cut in cuts[1:-1]:
        assert cut == len(data) or data[cut - 1:cut] == b"\n"


def shared_rss_kb() -> int:
    """This process's resident shared memory, in kB."""
    status = Path("/proc/self/status").read_text()
    return int(status.split("RssShmem:")[1].split()[0])


def test_released_shared_pages_keep_what_a_worker_wrote():
    rows = workers.shared_zeros((3000, 8), np.int64)  # 47 pages
    expected = np.arange(rows.size).reshape(rows.shape)

    def fill():
        rows[...] = expected

    workers.run([lambda: None, fill], "test")
    assert np.array_equal(rows, expected)  # maps every page here
    before = shared_rss_kb()
    workers.release(rows[100:2500])
    assert before - shared_rss_kb() >= 36 * 4  # the whole pages under rows 100-2499
    assert np.array_equal(rows, expected)
