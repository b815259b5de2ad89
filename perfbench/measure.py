"""The measured phase: replay a fixture's CLI calls in a closed loop.

Each call goes through ``loginwatch.cli.main`` in this process, with argv as
a user would type it; the next call starts when the previous one returns.
Only the ``main`` call itself is timed. Preparing a call (a fresh copy of the
seeded registry for train-deep) and checking its output happen between calls.

The calls are replayed in whole passes over the fixture's list, and a run
stops only at the end of a pass: every run, on every commit, times the same
multiset of calls, however fast the program is. Untraced calls are timed with
``speed.SpeedSampler``, which corrects each call's time for the machine's
changing speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from loginwatch import cli

import checks
from speed import SpeedSampler
from tracing import Tracer


@dataclass
class Outcome:
    durations: list[float] = field(default_factory=list)  # untraced calls, corrected
    wall: list[float] = field(default_factory=list)  # untraced calls, raw
    traced: list[float] = field(default_factory=list)  # traced calls, raw
    passes: int = 0
    events: int = 0  # input events of the untraced calls
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    summary_sha256: set = field(default_factory=set)
    val_f1: list[float] = field(default_factory=list)


def _invoke(argv: list[str]) -> int | str:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        return f"exit {exc.code}"
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed call
        return f"raised {type(exc).__name__}: {exc}"


class Workload:
    """The calls of one fixture, how to prepare them and how to check them."""

    def __init__(self, manifest: dict, work: Path):
        self.manifest = manifest
        self.work = work
        self.calls = manifest["calls"]
        self.summary = work / "summary.json"
        self.training = manifest["workload"] == "train-deep"
        if self.training:
            self.registry = work / "registry"
        else:
            self.registry = Path(manifest["registry"])
            self.out = work / "scores.jsonl"
            self.thresholds = checks.stored_thresholds(self.registry)

    def prepare(self, call: dict) -> list[str]:
        for stale in (self.summary, self.work / "scores.jsonl"):
            stale.unlink(missing_ok=True)
        argv = [
            "train" if self.training else "score",
            "--input", call["input"],
            "--config", self.manifest["config"],
            "--registry", str(self.registry),
            "--summary", str(self.summary),
        ]
        if self.training:
            # Every call starts from the same month of seeded history.
            shutil.rmtree(self.registry, ignore_errors=True)
            shutil.copytree(self.manifest["registry_template"], self.registry)
        else:
            argv += ["--out", str(self.out)]
        return argv

    def check(self, number: int, call: dict, code: int | str, outcome: Outcome) -> None:
        expected = call["events"]
        try:
            if code != 0:
                problems = [f"call {number}: exit code {code}"]
            elif self.training:
                problems, summary = checks.check_train_call(
                    self.summary, self.registry, expected, self.manifest["history_names"]
                )
                outcome.summary_sha256.add(hashlib.sha256(self.summary.read_bytes()).hexdigest())
                outcome.val_f1.extend(a["best_f1"] for a in summary["actors"].values())
            else:
                problems = checks.check_score_call(self.out, self.summary, expected, self.thresholds)
        except Exception as exc:  # noqa: BLE001 - output too broken to check
            problems = [f"call {number}: checking raised {type(exc).__name__}: {exc}"]
        outcome.attempted += 1
        if problems:
            outcome.failed += 1
            outcome.problems.extend(problems[: checks.MAX_PROBLEMS - len(outcome.problems)])

    def run(self, seconds: float, tracer: Tracer | None = None) -> Outcome:
        """Replay whole passes until ``seconds`` have passed (at least one).

        Without a tracer every call is timed under a ``SpeedSampler``. With
        one, each call runs once untraced and once traced, alternating which
        goes first, and both are timed raw.
        """
        outcome = Outcome()
        number = 0
        with contextlib.ExitStack() as stack:
            sink = stack.enter_context(open(os.devnull, "w", encoding="utf-8"))
            stack.enter_context(contextlib.redirect_stdout(sink))
            speed = None if tracer else stack.enter_context(SpeedSampler())
            deadline = perf_counter() + seconds
            while True:
                for call in self.calls:
                    order = (False, True) if number % 2 == 0 else (True, False)
                    for traced in order if tracer else (False,):
                        argv = self.prepare(call)
                        if traced:
                            uninstall = tracer.install()
                            try:
                                t0 = perf_counter()
                                code = tracer.run_call(number, _invoke, argv)
                                outcome.traced.append(perf_counter() - t0)
                            finally:
                                uninstall()
                        else:
                            t0 = perf_counter()
                            code = _invoke(argv)
                            t1 = perf_counter()
                            if speed:
                                outcome.durations.append(speed.corrected(t0, t1))
                                outcome.wall.append(speed.raw(t0, t1))
                            else:
                                outcome.wall.append(t1 - t0)
                            outcome.events += sum(call["events"].values())
                        self.check(number, call, code, outcome)
                    number += 1
                outcome.passes += 1
                if perf_counter() >= deadline:
                    break
        return outcome


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]
