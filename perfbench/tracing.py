"""Span tracing around the program's layers, installed from outside the program.

The program binds its callees with ``from x import y``, so each wrapper is
installed on the name where the caller looks it up (for example
``loginwatch.pipeline.train``, not ``loginwatch.model.train``). Methods are
wrapped on their class. A target the program no longer has fails the traced
run, so that a renamed function cannot make its counters read 0 and its time
move silently into its caller's self time.

A span's self time is its duration minus the durations of its child spans,
so the self times of all spans under one CLI call sum to that call's wall
time. Spans are kept in memory; calls made per event (geohash, encode, app
lookup) are aggregated into per-operation totals instead of one record each,
which keeps the memory and the overhead of the traced run bounded.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import pathlib
from collections import Counter
from time import perf_counter
from typing import Callable

LAYERS = (
    "cli", "pipeline", "events", "geo", "apps", "encoding",
    "inject", "model", "detect", "registry",
)

# (span name, module, attribute or Class.method, one record per call?)
TARGETS = (
    ("events.load", "loginwatch.cli", "load_events", True),
    ("pipeline.train_workflow", "loginwatch.cli", "run_train_workflow", True),
    ("pipeline.score_workflow", "loginwatch.cli", "run_score_workflow", True),
    ("events.filter", "loginwatch.pipeline", "filter_entry_events", True),
    ("pipeline.train_actor", "loginwatch.pipeline", "_train_single_actor", True),
    ("pipeline.sample", "loginwatch.pipeline", "stratified_sample", True),
    ("encoding.build_indices", "loginwatch.pipeline", "build_event_indices", True),
    ("encoding.observed_hours", "loginwatch.pipeline", "observed_hours", True),
    ("apps.frequencies", "loginwatch.pipeline", "login_frequencies", True),
    ("apps.superset", "loginwatch.pipeline", "build_superset", True),
    ("inject.inject", "loginwatch.pipeline", "inject", True),
    ("model.train", "loginwatch.pipeline", "train", True),
    ("detect.sweep", "loginwatch.pipeline", "sweep_threshold", True),
    ("detect.score", "loginwatch.pipeline", "score_events", True),
    ("model.losses", "loginwatch.model", "Autoencoder.losses", True),
    ("registry.save", "loginwatch.registry", "ModelRegistry.save", True),
    ("registry.load", "loginwatch.registry", "ModelRegistry.load", True),
    ("encoding.encode", "loginwatch.pipeline", "encode_event", False),
    ("apps.known_app", "loginwatch.apps", "AppSuperset.known_app", False),
    ("geo.geohash", "loginwatch.encoding", "geohash_encode", False),
    ("geo.geohash", "loginwatch.inject", "geohash_encode", False),
)


class Tracer:
    """Spans, per-operation totals and counts for one traced run."""

    def __init__(self):
        self.records: list[tuple] = []  # (id, name, parent id, call, start, end, self)
        self.ops: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.durations: dict[str, list[float]] = {}  # name -> per-call seconds
        self.counts: Counter = Counter()
        self.call: int | None = None
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._ids = itertools.count(1)
        self._seen: dict[int, object] = {}

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0, next(self._ids)]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, keep: bool) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        own = duration - child
        if self._stack:
            self._stack[-1][2] += duration
        op = self.ops.get(name)
        if op is None:
            op = self.ops[name] = [0, 0.0, 0.0]
        op[0] += 1
        op[1] += duration
        op[2] += own
        if keep:
            parent = self._stack[-1][3] if self._stack else None
            self.records.append((span_id, name, parent, self.call, start, end, own))
            self.durations.setdefault(name, []).append(duration)

    def run_call(self, call: int, fn: Callable, *args):
        """Run one workload call under a root ``cli.main`` span."""
        self.call = call
        self._seen = {}
        frame = self._enter("cli.main")
        try:
            return fn(*args)
        finally:
            self._exit(frame, True)
            self.counts["encoding.unique_events"] += len(self._seen)
            self._seen = {}

    def wrap(self, name: str, fn: Callable, keep: bool) -> Callable:
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, keep)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    # -- installation --------------------------------------------------------

    def install(self) -> Callable[[], None]:
        """Wrap every target; return a function that unwraps them.

        Raises ``AttributeError`` if the program no longer has a target.
        """
        undo: list[tuple[object, str, object]] = []
        for name, module_name, attr, keep in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            undo.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original, keep))

        # Count what the registry reads and writes, wherever it does so.
        original_read = pathlib.Path.read_bytes
        tracer = self

        def read_bytes(path):
            data = original_read(path)
            top = tracer.current()
            if top in ("registry.save", "registry.load"):
                tracer.counts[f"{top}.reads"] += 1
                tracer.counts[f"{top}.bytes_read"] += len(data)
            return data

        undo.append((pathlib.Path, "read_bytes", original_read))
        pathlib.Path.read_bytes = read_bytes
        registry = importlib.import_module("loginwatch.registry")
        original_write = registry._atomic_write

        def atomic_write(path, payload):
            tracer.counts["registry.bytes_written"] += len(payload)
            return original_write(path, payload)

        undo.append((registry, "_atomic_write", original_write))
        registry._atomic_write = atomic_write

        def uninstall() -> None:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

        return uninstall

    # -- results -------------------------------------------------------------

    def self_seconds(self, layer: str) -> float:
        return sum(op[2] for name, op in self.ops.items() if name.split(".")[0] == layer)

    def op(self, name: str) -> tuple[int, float, float]:
        calls, inclusive, own = self.ops.get(name, (0, 0.0, 0.0))
        return calls, inclusive, own

    def to_json(self) -> dict:
        return {
            "fields": ["id", "name", "parent", "call", "start", "end", "self"],
            "spans": self.records,
            "ops": {name: {"calls": op[0], "seconds": op[1], "self_seconds": op[2]}
                    for name, op in sorted(self.ops.items())},
            "counts": dict(sorted(self.counts.items())),
        }


def _count_load(tracer: Tracer, args, result) -> None:
    _, stats = result
    tracer.counts["events.parsed"] += stats.parsed
    tracer.counts["events.rejected"] += stats.rejected


def _count_filter(tracer: Tracer, args, result) -> None:
    tracer.counts["events.filtered"] += len(result)


def _count_encode(tracer: Tracer, args, result) -> None:
    event = args[0]
    tracer._seen[id(event)] = event  # holding the event keeps its id unique


def _count_sample(tracer: Tracer, args, result) -> None:
    tracer.counts["pipeline.sample_rows"] += len(result)


def _count_inject(tracer: Tracer, args, result) -> None:
    _, labels = result
    tracer.counts["inject.injected"] += sum(1 for label in labels if label.value == "INJECTED")


def _count_train(tracer: Tracer, args, result) -> None:
    dataset, config = args[0], args[1]
    tracer.counts["model.steps"] += config.epochs * math.ceil(len(dataset) / config.batch_size)


def _count_losses(tracer: Tracer, args, result) -> None:
    tracer.counts["model.loss_rows"] += len(args[1])


_HOOKS = {
    "events.load": _count_load,
    "events.filter": _count_filter,
    "encoding.encode": _count_encode,
    "pipeline.sample": _count_sample,
    "inject.inject": _count_inject,
    "model.train": _count_train,
    "model.losses": _count_losses,
}
