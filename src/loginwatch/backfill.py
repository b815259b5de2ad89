"""Score a large input on every CPU.

A ``score`` call over a regular file of at least ``SPLIT_MIN_BYTES`` bytes,
in a process that may run on more than one CPU, cuts the file into
line-aligned byte ranges, one per CPU of the affinity mask (``taskset``
limits them). This process parses, filters and encodes range 0, and one
forked worker does the same for each other range (``workers.run``). Each
process streams its own range from the file and loads the newest model of
each actor it meets. A worker writes every kept login's index row, grouped
by actor, into shared memory sized from its range's bytes before the fork.

This process then joins each actor's rows in range order and scores them
in one ``score_events`` call per actor, as a one-process call does: a
loss's last bits depend on which rows share its forward pass. Workers never
log. This process logs after reaping them, in a one-process call's order,
and returns what that call returns. In three cases ``score_file`` returns
``None`` instead, having logged nothing, and the caller runs the
one-process path, which gives its own result or error:

- a line in some range is not valid JSON or not UTF-8;
- an actor stored ``NEEDS_RETRAIN`` has at least ``min_events`` logins in
  the call, so it is retrained on all of them;
- the newest document of an actor differs between processes, because a
  save landed during the call.
"""

from __future__ import annotations

import hashlib
import os
import stat
from dataclasses import dataclass, field
from itertools import pairwise
from pathlib import Path
from typing import NamedTuple

import numpy as np

from loginwatch import workers
from loginwatch.detect import DetectionReport
from loginwatch.encoding import FEATURE_ORDER
from loginwatch.events import IngestStats, MalformedLineError, filter_entry_events, load_range
from loginwatch.pipeline import (
    PipelineConfig,
    ScoreWorkflowResult,
    _encode_actor_events,
    _group_by_actor,
    load_for_scoring,
    needs_retrain,
    score_entry,
    warn_unscorable,
)
from loginwatch.registry import ModelRegistry, RegistryEntry

# Inputs below this many bytes are scored in one process: the fork, the
# reap and the worker's registry loads cost more than its parse saves.
# Median CLI call on the first bytes of a 60-actor backfill (2 vCPUs,
# Python 3.11, numpy 2.4), one process against split: 64 KB 36 ms and 77
# ms, 256 KB 50 and 57, 512 KB 64 and 61, 1 MB 110 and 91, 2 MB 174 and
# 135. The largest hourly batch of that fixture is 55 KB.
SPLIT_MIN_BYTES = 1 << 20

# No line that gives a login is shorter. The shortest ones, without
# whitespace, a one-character actor id and event type and the 7-character
# instant "2023W01", take 58 bytes in the raw shape,
# {"actor":{"id":"a"},"eventType":"b","published":"2023W01"}, and 73 in the
# flat one. A range of n bytes thus holds at most n // MIN_LOGIN_BYTES + 1.
MIN_LOGIN_BYTES = 48

_WIDTH = len(FEATURE_ORDER)
# A worker's counts: lines, records, parsed, rejected, malformed, actors,
# and the offset and line of its first rejected line past those it recorded.
_HEAD = 8


class _Rows(NamedTuple):
    """One actor's encoded logins in one range, and the document that encoded them."""

    document: int | None  # digest of the newest document's name; None: not loaded
    rows: np.ndarray


@dataclass
class _Part:
    """What one process found in its range.

    ``rejected`` holds up to ``capacity`` rejected lines as (byte offset,
    byte length, line number in the range); ``resume`` is the (offset,
    line) of the first rejected line past them, from which this process
    parses the range again to log the rest. ``actors`` is sorted by id.
    """

    capacity: int
    lines: int = 0
    stats: IngestStats = field(default_factory=IngestStats)
    malformed: bool = False
    rejected: list[tuple[int, int, int]] = field(default_factory=list)
    resume: tuple[int, int] | None = None
    actors: dict[str, _Rows] = field(default_factory=dict)

    def reject(self, offset: int, length: int, line: int, exc: Exception) -> None:
        if len(self.rejected) < self.capacity:
            self.rejected.append((offset, length, line))
        elif self.resume is None:
            self.resume = (offset, line)


def _capacity(size: int) -> int:
    return size // MIN_LOGIN_BYTES + 1


def _digest(entry: RegistryEntry) -> int:
    name = entry.source.encode("utf-8", "surrogateescape")
    return int.from_bytes(hashlib.blake2b(name, digest_size=8).digest(), "little", signed=True)


def _scan(
    path: Path | str,
    start: int,
    end: int,
    config: PipelineConfig,
    registry: ModelRegistry,
    entries: dict,
) -> _Part:
    """Parse, filter and encode the range ``[start, end)`` of ``path``.

    ``entries`` maps each actor met to its load outcome (an entry, or the
    error that makes it unscorable); an actor missing from it is loaded.
    """
    part = _Part(_capacity(end - start))
    try:
        events, part.stats, part.lines = load_range(path, start, end, rejected=part.reject)
    except MalformedLineError:
        part.malformed = True
        return part
    groups = _group_by_actor(filter_entry_events(events, config.filter_mode))
    del events
    for actor_id in sorted(groups):
        if actor_id not in entries:
            entries[actor_id] = load_for_scoring(registry, actor_id)
        entry = entries[actor_id]
        if isinstance(entry, RegistryEntry):
            rows = _encode_actor_events(groups[actor_id], entry.encoder)
            part.actors[actor_id] = _Rows(_digest(entry), rows)
        else:
            part.actors[actor_id] = _Rows(None, np.empty((0, _WIDTH), np.int64))
    return part


class _Shared:
    """A worker's ``_Part`` in shared memory, sized from its range's bytes.

    ``rows`` holds each actor's index rows, one actor after another, and
    ``names`` their ids' UTF-8 bytes: an id is no longer than the line that
    holds it. Row ``k`` of ``actors`` is (end of actor ``k``'s id in
    ``names``, its row count, 1 if it was loaded, its document digest).
    """

    def __init__(self, size: int):
        capacity = _capacity(size)
        self.head = workers.shared_zeros(_HEAD, np.int64)
        self.rows = workers.shared_zeros((capacity, _WIDTH), np.int64)
        self.actors = workers.shared_zeros((capacity, 4), np.int64)
        self.names = workers.shared_zeros(size, np.uint8)
        self.rejected = workers.shared_zeros((capacity, 3), np.int64)

    def put(self, part: _Part) -> None:
        """Store ``part``; a worker's last step."""
        ids = [actor_id.encode("utf-8", "surrogatepass") for actor_id in part.actors]
        blob = b"".join(ids)
        self.names[: len(blob)] = np.frombuffer(blob, np.uint8)
        name_end = row = 0
        for k, (name, (document, rows)) in enumerate(zip(ids, part.actors.values())):
            name_end += len(name)
            self.rows[row : row + len(rows)] = rows
            row += len(rows)
            self.actors[k] = (name_end, len(rows), document is not None, document or 0)
        self.rejected[: len(part.rejected)] = np.array(part.rejected, np.int64).reshape(-1, 3)
        stats = part.stats
        self.head[:6] = (
            part.lines, stats.lines, stats.parsed, stats.rejected, part.malformed,
            len(part.actors),
        )
        self.head[6:] = part.resume or (-1, -1)

    def get(self) -> _Part:
        """The stored ``_Part``, its rows views into shared memory."""
        lines, records, parsed, rejected, malformed, count, *resume = self.head.tolist()
        part = _Part(len(self.rejected), lines, IngestStats(records, parsed, rejected))
        part.malformed = bool(malformed)
        part.rejected = [tuple(r) for r in self.rejected[: min(rejected, part.capacity)].tolist()]
        part.resume = tuple(resume) if resume[0] >= 0 else None
        name_start = row = 0
        for name_end, size, loaded, document in self.actors[:count].tolist():
            actor_id = self.names[name_start:name_end].tobytes().decode("utf-8", "surrogatepass")
            rows = self.rows[row : row + size]
            part.actors[actor_id] = _Rows(document if loaded else None, rows)
            name_start, row = name_end, row + size
        return part


def _cuts(path: Path | str, size: int, parts: int) -> list[int]:
    """``parts + 1`` offsets from 0 to ``size``, each inner one just after a
    ``"\\n"`` (or at ``size``), near ``k * size / parts``, never decreasing."""
    cuts = [0]
    with open(path, "rb") as handle:
        for k in range(1, parts):
            at = max(size * k // parts, cuts[-1])
            if at > 0:
                handle.seek(at - 1)
                while True:
                    data = handle.read(1 << 16)
                    newline = data.find(b"\n")
                    if newline >= 0 or not data:
                        at = handle.tell() - len(data) + newline + 1 if newline >= 0 else size
                        break
            cuts.append(min(at, size))
    return cuts + [size]


def score_file(
    path: Path | str, config: PipelineConfig, registry: ModelRegistry
) -> tuple[ScoreWorkflowResult, IngestStats] | None:
    """Score the logins of a JSONL file on every CPU this process may use.

    Returns what ``load_events`` and ``run_score_workflow`` give for the
    file, having logged what they log, or ``None`` where the file is below
    ``SPLIT_MIN_BYTES``, is not a regular file that this process can read,
    or would go to one process, and in the three cases of the module
    docstring.

    Raises:
        RuntimeError: a worker raised, exited with a non-zero status or was
            killed by a signal.
    """
    cpus = workers.cpu_count()
    try:
        info = os.stat(path)
        if not stat.S_ISREG(info.st_mode) or info.st_size < SPLIT_MIN_BYTES or cpus < 2:
            return None
        bounds = [(a, b) for a, b in pairwise(_cuts(path, info.st_size, cpus)) if a < b]
    except (OSError, ValueError):  # ValueError: a path with a NUL
        return None
    if len(bounds) < 2:
        return None

    entries: dict = {}
    shelves = [_Shared(end - start) for start, end in bounds[1:]]
    parts: list[_Part] = []

    def scan_first() -> None:
        parts.append(_scan(path, *bounds[0], config, registry, entries))

    def scan_other(k: int):
        return lambda: shelves[k - 1].put(_scan(path, *bounds[k], config, registry, {}))

    workers.run([scan_first] + [scan_other(k) for k in range(1, len(bounds))], "scoring")
    parts += [shelf.get() for shelf in shelves]
    if any(part.malformed for part in parts):
        return None

    actors = sorted(set().union(*(part.actors for part in parts)))
    for actor_id in actors:
        if actor_id not in entries:
            entries[actor_id] = load_for_scoring(registry, actor_id)
        entry = entries[actor_id]
        if not isinstance(entry, RegistryEntry):
            continue
        found = [part.actors[actor_id] for part in parts if actor_id in part.actors]
        if any(rows.document != _digest(entry) for rows in found):
            return None
        if needs_retrain(entry, sum(len(rows.rows) for rows in found), config):
            return None

    # From here on, the call logs and scores as one process would.
    first = 1
    for (start, end), part in zip(bounds, parts):
        for offset, length, line in part.rejected:
            load_range(path, offset, offset + length, first + line - 1)
        if part.resume is not None:
            offset, line = part.resume
            load_range(path, offset, end, first + line - 1)
        first += part.lines
    config_hash = config.config_hash()
    reports: dict[str, DetectionReport] = {}
    unscorable: list[str] = []
    for actor_id in actors:
        entry = entries.pop(actor_id)
        found = [(k, part.actors.pop(actor_id).rows)
                 for k, part in enumerate(parts) if actor_id in part.actors]
        if not isinstance(entry, RegistryEntry):
            warn_unscorable(actor_id, entry)
            unscorable.append(actor_id)
            continue
        rows = np.concatenate([rows for _, rows in found])
        reports[actor_id] = score_entry(entry, rows, config_hash)
        # a worker's rows are stored, and read here, in actor order
        for k, shared in found:
            if k > 0:
                workers.release(shared)
    stats = IngestStats(
        lines=sum(part.stats.lines for part in parts),
        parsed=sum(part.stats.parsed for part in parts),
        rejected=sum(part.stats.rejected for part in parts),
    )
    return ScoreWorkflowResult(reports=reports, unscorable=unscorable, retrained=[]), stats
