"""Per-actor application usage profiles.

For each (actor, app) pair we count successful logins against the actor's
total login volume and summarize the success proportion with a Wilson score
interval. Apps whose interval mean clears a threshold form the actor's
"known app" superset; logins to anything else carry an unknown-app indicator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from loginwatch.events import LogEvent, Outcome

DEFAULT_Z = 1.96
DEFAULT_SUPERSET_THRESHOLD = 0.1


@dataclass(frozen=True)
class AppFrequency:
    """Wilson-summarized login frequency of one app for one actor."""

    actor_id: str
    app_id: str
    successes: int
    total: int
    interval_low: float
    interval_high: float
    interval_mean: float


def wilson_interval(successes: int, total: int, z: float = DEFAULT_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Args:
        successes: number of successes, 0 <= successes <= total.
        total: number of trials, > 0.
        z: normal critical value, > 0.

    Returns:
        (low, high) bounds, each in [0, 1]. The midpoint of the bounds equals
        the Wilson center (p_hat + z^2/2n) / (1 + z^2/n).
    """
    if total <= 0:
        raise ValueError(f"total must be > 0, got {total}")
    if not 0 <= successes <= total:
        raise ValueError(f"successes must be in [0, {total}], got {successes}")
    if z <= 0:
        raise ValueError(f"z must be > 0, got {z}")

    p_hat = successes / total
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p_hat + z2 / (2 * total)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / total + z2 / (4 * total * total)) / denom
    low = max(0.0, center - half)
    high = min(1.0, center + half)
    return low, high


def interval_mean(low: float, high: float) -> float:
    return (low + high) / 2


def login_frequencies(
    events: Iterable[LogEvent], z: float = DEFAULT_Z
) -> list[AppFrequency]:
    """Summarize per-(actor, app) success frequencies over a stream.

    ``successes`` counts SUCCESS logins to the app; ``total`` is the actor's
    total event count across every app and outcome, so frequencies of one
    actor's apps are proportions of the same denominator. Events with an
    empty app id contribute to the denominator only.

    Returns rows sorted by (actor_id, app_id).
    """
    totals: dict[str, int] = {}
    successes: dict[tuple[str, str], int] = {}
    apps_seen: set[tuple[str, str]] = set()
    for event in events:
        totals[event.actor_id] = totals.get(event.actor_id, 0) + 1
        if not event.app_id:
            continue
        key = (event.actor_id, event.app_id)
        apps_seen.add(key)
        if event.outcome is Outcome.SUCCESS:
            successes[key] = successes.get(key, 0) + 1

    rows: list[AppFrequency] = []
    for actor_id, app_id in sorted(apps_seen):
        k = successes.get((actor_id, app_id), 0)
        n = totals[actor_id]
        low, high = wilson_interval(k, n, z)
        rows.append(
            AppFrequency(
                actor_id=actor_id,
                app_id=app_id,
                successes=k,
                total=n,
                interval_low=low,
                interval_high=high,
                interval_mean=interval_mean(low, high),
            )
        )
    return rows


class AppSuperset:
    """Per-actor sets of known apps, queryable for the unknown-app indicator."""

    def __init__(self, apps_by_actor: Mapping[str, Iterable[str]]):
        self._apps = {actor: frozenset(apps) for actor, apps in apps_by_actor.items()}

    def apps_for(self, actor_id: str) -> frozenset[str]:
        return self._apps.get(actor_id, frozenset())

    def actors(self) -> list[str]:
        return sorted(self._apps)

    def known_app(self, actor_id: str, app_id: str) -> int:
        """0 when the app is in the actor's superset, 1 otherwise.

        An actor without a profile gets 1 for every app.
        """
        return 0 if app_id in self._apps.get(actor_id, frozenset()) else 1

    def to_jsonl(self, path: Path | str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for actor_id in self.actors():
                row = {"actor_id": actor_id, "apps": sorted(self._apps[actor_id])}
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def build_superset(
    frequencies: Iterable[AppFrequency],
    threshold: float = DEFAULT_SUPERSET_THRESHOLD,
) -> AppSuperset:
    """Build per-actor known-app supersets from frequency rows.

    An app enters an actor's superset when its interval mean is >= threshold.
    Actors whose every app falls below the threshold still get an (empty)
    profile, so they are distinguishable from actors never seen at all.
    """
    apps: dict[str, set[str]] = {}
    for row in frequencies:
        apps.setdefault(row.actor_id, set())
        if row.interval_mean >= threshold:
            apps[row.actor_id].add(row.app_id)
    return AppSuperset(apps)
