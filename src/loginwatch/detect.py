"""Anomaly thresholding and evaluation.

An event is anomalous when its reconstruction loss exceeds mu + n * sigma,
where mu and sigma summarize the model's training losses and n is chosen by
sweeping a fixed grid and keeping the best F1 against injected ground truth.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from loginwatch.model import Autoencoder

# n runs 0.0 .. 10.0 in steps of 0.1, inclusive.
SWEEP_GRID = tuple(i / 10 for i in range(101))


class Classification(str, Enum):
    NORMAL = "NORMAL"
    ANOMALY = "ANOMALY"


class UndefinedMetricError(ValueError):
    """F1 requested for an empty confusion (tp = fp = fn = 0)."""


class DegenerateValidationError(ValueError):
    """The sweep needs at least one injected and one normal event."""


@dataclass(frozen=True)
class LossStats:
    """Mean and population standard deviation of a loss sample."""

    mu: float
    sigma: float
    count: int


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class SweepResult:
    """Outcome of the threshold sweep on one validation set."""

    best_n: float
    best_f1: float
    confusion: Confusion
    f1_curve: tuple[float, ...]  # one value per grid point

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "f1_curve": list(self.f1_curve)}


@dataclass
class DetectionReport:
    """Scoring output for one actor's event batch: its loss vector and threshold.

    ``losses`` holds one reconstruction loss per scored row, in input order;
    ``flagged`` marks the rows whose loss is strictly above
    mu + threshold_n * sigma.
    """

    actor_id: str
    threshold_n: float
    mu: float
    sigma: float
    losses: np.ndarray
    flagged: np.ndarray

    @property
    def anomaly_count(self) -> int:
        return int(self.flagged.sum())

    @property
    def anomaly_rate(self) -> float:
        return self.anomaly_count / len(self.losses) if len(self.losses) else 0.0

    def to_jsonl(self) -> str:
        """The report's ``score --out`` lines: one JSON object per row.

        Rows run loss descending, equal losses in input order. Each line is
        the bytes ``json.dumps(record, sort_keys=True)`` gives for the record
        ``{"actor_id", "classification", "label", "loss", "position"}``; the
        actor id is escaped once per report, not once per row.
        """
        # "label" is always null; kept so that ``score --out`` keeps its byte form.
        head = '{"actor_id": %s, "classification": "' % json.dumps(self.actor_id)
        names = (Classification.NORMAL.value, Classification.ANOMALY.value)
        losses = self.losses.tolist()
        flagged = self.flagged.tolist()
        return "".join(
            f'{head}{names[flagged[i]]}", "label": null, '
            f'"loss": {_json_float(losses[i])}, "position": {i}}}\n'
            for i in np.argsort(-self.losses, kind="stable").tolist()
        )


def _json_float(value: float) -> str:
    """A float as ``json.dumps`` writes it: ``repr``, or NaN/Infinity/-Infinity."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def loss_stats(losses: Sequence[float]) -> LossStats:
    """Mean and population (1/N) standard deviation of training losses."""
    arr = np.asarray(losses, dtype=float)
    if arr.size == 0:
        raise ValueError("losses must be non-empty")
    return LossStats(mu=float(arr.mean()), sigma=float(arr.std()), count=arr.size)


def classify(loss: float, stats: LossStats, n: float) -> Classification:
    """ANOMALY when the loss sits strictly above mu + n * sigma.

    With sigma = 0 the rule degenerates to a strict comparison against mu.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    threshold = stats.mu + n * stats.sigma
    return Classification.ANOMALY if loss > threshold else Classification.NORMAL


def f1_score(tp: int, fp: int, fn: int) -> float:
    """F1 from confusion counts: 2*tp / (2*tp + fp + fn).

    Zero when nothing was detected but positives existed; undefined (error)
    when tp = fp = fn = 0.
    """
    if min(tp, fp, fn) < 0:
        raise ValueError("counts must be >= 0")
    if tp == 0:
        if fp == 0 and fn == 0:
            raise UndefinedMetricError("f1 undefined for an empty confusion")
        return 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def check_injected(injected: np.ndarray, count: int) -> None:
    """Refuse an ``injected`` vector that a sweep over ``count`` losses cannot use.

    Raises:
        ValueError: ``injected`` is not a bool array of ``count`` entries.
        DegenerateValidationError: the set is empty, or lacks injected or
            normal events, so no threshold sweep can run on it.
    """
    if not isinstance(injected, np.ndarray) or injected.dtype != bool or injected.ndim != 1:
        got = getattr(injected, "dtype", type(injected).__name__)
        raise ValueError(f"injected must be a 1-d numpy bool array, got {got}")
    if len(injected) != count:
        raise ValueError(f"{count} losses but {len(injected)} injected flags")
    if not count:
        raise DegenerateValidationError("validation set is empty")
    if not injected.any() or injected.all():
        raise DegenerateValidationError(
            "sweep needs at least one injected and one normal event"
        )


def sweep_threshold(
    losses: Sequence[float], injected: np.ndarray, stats: LossStats
) -> SweepResult:
    """Grid-search n over 0.0..10.0 (step 0.1) for the best F1, all points at once.

    Args:
        losses: loss of every event of a labelled validation set.
        injected: bool vector, True where that event was injected.
        stats: training-loss statistics supplying mu and sigma.

    Returns:
        SweepResult with the winning n (ties resolved toward the largest n),
        its F1 and confusion, and the full F1 curve over the grid.

    Raises:
        ValueError: ``injected`` is not a bool array as long as ``losses``.
        DegenerateValidationError: the set lacks injected or normal events.
    """
    losses = np.asarray(losses, dtype=float)
    check_injected(injected, len(losses))
    flagged = losses > (stats.mu + np.array(SWEEP_GRID) * stats.sigma)[:, None]
    positives = int(np.count_nonzero(injected))
    tp = np.count_nonzero(flagged[:, injected], axis=1)
    fp = np.count_nonzero(flagged, axis=1) - tp
    fn = positives - tp
    tn = len(losses) - positives - fp
    # F1 as f1_score gives it, and 0.0 where nothing injected was flagged
    f1 = np.divide(2 * tp, 2 * tp + fp + fn, out=np.zeros(len(SWEEP_GRID)), where=tp > 0)
    best = len(SWEEP_GRID) - 1 - int(np.argmax(f1[::-1]))  # ties go to the largest n
    return SweepResult(
        best_n=SWEEP_GRID[best],
        best_f1=float(f1[best]),
        confusion=Confusion(*(int(count[best]) for count in (tp, fp, fn, tn))),
        f1_curve=tuple(f1.tolist()),
    )


def score_events(model: Autoencoder, rows) -> DetectionReport:
    """Score index rows with a trained model and its stored threshold.

    Each row is classified as ``classify`` would with the model's stored
    ``chosen_n``: ANOMALY when its loss is strictly above
    mu + chosen_n * sigma.

    A row's loss can differ in its last bits between calls that pass it
    with different rows, since a forward pass over more rows can round
    differently. On the seed-1 ``score-backfill`` input, scoring each
    actor's rows in chunks instead of in one call changed 15,078 of 19,926
    losses with chunks of 1 row, and 2-19 with chunks of 2-33 rows. So an
    hourly run and a backfill can write different ``loss`` bytes for one
    login; a split ``score`` call passes each actor's rows in one call.

    Args:
        model: trained autoencoder carrying train_mu, train_sigma and
            chosen_n.
        rows: ``(N, 8)`` integer index matrix of the events to score.

    Returns:
        DetectionReport with the rows' losses and flags in input order.
    """
    if model.train_mu is None or model.train_sigma is None:
        raise ValueError("model has no training statistics")
    threshold_n = model.chosen_n
    if threshold_n is None:
        raise ValueError("no threshold multiplier: train sweep not run")
    if threshold_n < 0:
        raise ValueError(f"n must be >= 0, got {threshold_n}")
    losses = model.losses(rows)
    return DetectionReport(
        actor_id=model.actor_id,
        threshold_n=float(threshold_n),
        mu=model.train_mu,
        sigma=model.train_sigma,
        losses=losses,
        flagged=losses > model.train_mu + threshold_n * model.train_sigma,
    )
