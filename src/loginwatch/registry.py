"""File-based model registry.

One directory per actor; each save drops a self-contained, versioned
``<created_at>.model`` JSON document (model parameters, vocabularies, the
app superset, threshold statistics, validation metrics) plus a small
``metrics.json`` summary. Writes go through a temp file and an atomic
rename, and every document carries a checksum that is verified on load.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from loginwatch.apps import AppSuperset
from loginwatch.encoding import StringIndex, TimeMode
from loginwatch.model import Autoencoder

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1
MODEL_SUFFIX = ".model"
METRICS_FILENAME = "metrics.json"


class EntryStatus(str, Enum):
    ACTIVE = "ACTIVE"
    NEEDS_RETRAIN = "NEEDS_RETRAIN"


class RegistryNotFoundError(LookupError):
    """No saved model exists for the requested actor."""


class RegistryIntegrityError(RuntimeError):
    """A stored document failed its checksum or version check."""


class UnsafeActorIdError(ValueError):
    """An actor id cannot serve as a directory or file name."""


def check_actor_id(actor_id: str) -> str:
    """Return ``actor_id`` if it is one plain path component.

    Registry directories and report file names are built from actor ids,
    which come from the logs. An id that is empty, ``.`` or ``..``, or that
    contains ``/``, ``\\`` or NUL would name a path outside the directory it
    is joined onto (or no path at all).

    Raises:
        UnsafeActorIdError: the id is not one plain path component.
    """
    if actor_id in ("", ".", "..") or any(c in actor_id for c in "/\\\0"):
        raise UnsafeActorIdError(
            f"actor id {actor_id!r} is not usable as a directory name"
        )
    return actor_id


@dataclass
class EncoderState:
    """Everything needed to encode live events exactly as during training."""

    geohash_precision: int
    time_mode: TimeMode
    active_hours: frozenset[int]
    indices: dict[str, StringIndex]
    superset: AppSuperset

    def to_dict(self) -> dict:
        return {
            "geohash_precision": self.geohash_precision,
            "time_mode": self.time_mode.value,
            "active_hours": sorted(self.active_hours),
            "indices": {
                name: list(index.values) for name, index in self.indices.items()
            },
            "superset": {
                actor: sorted(self.superset.apps_for(actor))
                for actor in self.superset.actors()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EncoderState":
        return cls(
            geohash_precision=int(data["geohash_precision"]),
            time_mode=TimeMode(data["time_mode"]),
            active_hours=frozenset(data["active_hours"]),
            indices={
                name: StringIndex(feature_name=name, values=tuple(values))
                for name, values in data["indices"].items()
            },
            superset=AppSuperset(data["superset"]),
        )


@dataclass
class RegistryEntry:
    """One saved model with its encoder state and validation metrics."""

    actor_id: str
    model: Autoencoder
    encoder: EncoderState
    status: EntryStatus
    metrics: dict
    metadata: dict = field(default_factory=dict)
    created_at: str = ""

    def to_document(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "actor_id": self.actor_id,
            "created_at": self.created_at,
            "status": self.status.value,
            "encoder": self.encoder.to_dict(),
            "model": self.model.to_state(),
            "metrics": self.metrics,
            "metadata": self.metadata,
        }

    @classmethod
    def from_document(cls, document: dict) -> "RegistryEntry":
        if document.get("version") != FORMAT_VERSION:
            raise RegistryIntegrityError(
                f"unsupported format version {document.get('version')!r}"
            )
        return cls(
            actor_id=document["actor_id"],
            model=Autoencoder.from_state(document["model"]),
            encoder=EncoderState.from_dict(document["encoder"]),
            status=EntryStatus(document["status"]),
            metrics=document["metrics"],
            metadata=document.get("metadata", {}),
            created_at=document["created_at"],
        )


def _canonical(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(document: dict) -> str:
    return hashlib.sha256(_canonical(document)).hexdigest()


def _atomic_write(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class ModelRegistry:
    """Per-actor model store rooted at one directory."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _actor_dir(self, actor_id: str) -> Path:
        return self.root / check_actor_id(actor_id)

    def save(self, entry: RegistryEntry) -> Path:
        """Persist an entry atomically; returns the written model path."""
        actor_dir = self._actor_dir(entry.actor_id)
        actor_dir.mkdir(parents=True, exist_ok=True)
        created = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
        path = actor_dir / f"{created}{MODEL_SUFFIX}"
        bump = 0
        while path.exists():
            bump += 1
            path = actor_dir / f"{created}-{bump:02d}{MODEL_SUFFIX}"
        entry.created_at = path.stem

        document = entry.to_document()
        document["checksum"] = _checksum(
            {key: value for key, value in document.items() if key != "checksum"}
        )
        _atomic_write(path, json.dumps(document, sort_keys=True).encode("utf-8"))
        self._rewrite_metrics(entry.actor_id)
        logger.info("saved model for %s at %s", entry.actor_id, path.name)
        return path

    def _rewrite_metrics(self, actor_id: str) -> None:
        rows = []
        for path in sorted(self._actor_dir(actor_id).glob(f"*{MODEL_SUFFIX}")):
            document = json.loads(path.read_bytes())
            rows.append(
                {
                    "created_at": document["created_at"],
                    "status": document["status"],
                    "best_f1": document["metrics"].get("best_f1"),
                    "best_n": document["metrics"].get("best_n"),
                }
            )
        payload = json.dumps({"actor_id": actor_id, "entries": rows}, sort_keys=True, indent=2)
        _atomic_write(self._actor_dir(actor_id) / METRICS_FILENAME, payload.encode("utf-8"))

    def entry_paths(self, actor_id: str) -> list[Path]:
        actor_dir = self._actor_dir(actor_id)
        if not actor_dir.is_dir():
            return []
        return sorted(actor_dir.glob(f"*{MODEL_SUFFIX}"))

    def load(self, actor_id: str) -> RegistryEntry:
        """Load the newest entry for an actor, verifying its checksum.

        Raises:
            RegistryNotFoundError: no saved model for the actor.
            RegistryIntegrityError: the newest document is corrupt.
        """
        paths = self.entry_paths(actor_id)
        if not paths:
            raise RegistryNotFoundError(f"no model saved for actor {actor_id!r}")
        path = paths[-1]  # names sort chronologically
        document = json.loads(path.read_bytes())
        stored = document.pop("checksum", None)
        if stored is None or stored != _checksum(document):
            raise RegistryIntegrityError(f"checksum mismatch in {path}")
        return RegistryEntry.from_document(document)

    def actors(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            child.name
            for child in self.root.iterdir()
            if child.is_dir() and any(child.glob(f"*{MODEL_SUFFIX}"))
        )
