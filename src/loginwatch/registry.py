"""File-based model registry.

One directory per actor; each save writes one self-contained, versioned
``<created_at>.model`` document (model parameters, the encoder that feeds
them as ``encoding.EncoderState.to_dict`` writes it, threshold statistics,
validation metrics), and an actor's history is its set of ``.model`` files.
A document is sealed: compact sorted-key JSON whose last member,
``"checksum":"<64 hex>"``, is the sha256 of every byte before it, so
``load`` checks the stored bytes and then parses them once. Model
parameters sit in it as one ``theta`` string, lowercase hex of their
little-endian float32 bytes: every model holds float32 values, so this is
lossless, and ``Autoencoder.to_state`` refuses a model for which it would
not be, so ``save`` writes nothing. The validation metrics hold each sweep
result once, under ``per_kind``, and name the primary kind; the model has no
``loss_mode`` member. The encoder keeps the actor's own known apps as one
sorted ``known_apps`` list (format version 6). A file that fails the check,
cannot be read, or carries another version is refused: the spaced version-1
layout, the per-key version-2 layout, the base64 ``theta`` of version 3, the
float64 ``theta`` of version 4 and the actor-keyed ``superset`` object of
version 5 have no reader, and retraining the actor replaces its file. An
actor's versions are the ``*.model`` names in its directory, listed with one
``os.scandir`` and sorted as strings, which sorts them by creation time.
The checksum is not a signature, so a resealed file whose content could not score is refused the
same way: a malformed model or encoder member, a ``theta`` value, feature
weight or threshold statistic that is not finite, or an encoder that can give an
index past its model's sizes (``RegistryEntry.from_document``). Writes go through a temp file, an
``fsync`` and an atomic rename, and a document that holds a NaN or an
infinity is not written at all.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from functools import cached_property
from pathlib import Path

from loginwatch.encoding import EncoderState, json_object
from loginwatch.model import Autoencoder

logger = logging.getLogger(__name__)

FORMAT_VERSION = 6
MODEL_SUFFIX = ".model"
_CHECKSUM_MEMBER = b',"checksum":"'
_TRAILER_LENGTH = len(_CHECKSUM_MEMBER) + 64 + len(b'"}')


class EntryStatus(str, Enum):
    ACTIVE = "ACTIVE"
    NEEDS_RETRAIN = "NEEDS_RETRAIN"


class RegistryNotFoundError(LookupError):
    """No saved model exists for the requested actor."""


class RegistryIntegrityError(RuntimeError):
    """A stored document failed its checksum or version check, or its content does not fit."""


class UnsafeActorIdError(ValueError):
    """An actor id cannot serve as a directory or file name."""


# The longest file name, in bytes, where a file system cannot be
# asked (Linux's NAME_MAX).
DEFAULT_NAME_MAX = 255


def check_actor_id(actor_id: str, name_max: int = DEFAULT_NAME_MAX) -> str:
    """Return ``actor_id`` if it is one plain path component.

    Registry directories and report file names are built from actor ids,
    which come from the logs. An id that is empty, ``.`` or ``..``, or that
    contains ``/``, ``\\`` or NUL would name a path outside the directory it
    is joined onto (or no path at all). An id with no file name form (a
    lone surrogate, which ``os.fsencode`` refuses), or whose form is longer
    than ``name_max`` bytes, names no directory the file system can make.

    Raises:
        UnsafeActorIdError: the id is not one plain path component.
    """
    if actor_id in ("", ".", "..") or any(c in actor_id for c in "/\\\0"):
        raise UnsafeActorIdError(
            f"actor id {actor_id!r} is not usable as a directory name"
        )
    try:
        size = len(os.fsencode(actor_id))
    except UnicodeEncodeError:
        raise UnsafeActorIdError(f"actor id {actor_id!r} has no file name form") from None
    if size > name_max:
        raise UnsafeActorIdError(
            f"actor id of {size} bytes is longer than the {name_max}-byte file name limit"
        )
    return actor_id


def name_max(directory: Path | str) -> int:
    """The longest file name, in bytes, that ``directory``'s file system
    takes: ``os.pathconf``'s ``PC_NAME_MAX``, or ``DEFAULT_NAME_MAX`` where
    that cannot be asked (no such directory yet, or no ``pathconf``)."""
    try:
        return os.pathconf(directory, "PC_NAME_MAX")
    except (OSError, ValueError, AttributeError):
        return DEFAULT_NAME_MAX


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
    # the name of the file ``ModelRegistry.load`` read, "" for an entry made in memory
    source: str = field(default="", compare=False)

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
        """Rebuild an entry that can score, from ``to_document`` output.

        Raises:
            KeyError, TypeError, ValueError: a member is missing or of the
                wrong type, the model does not rebuild or lacks its threshold
                statistics, a statistic is not finite (``json`` reads
                ``NaN`` and ``Infinity``, and either would turn detection
                off for the actor), or the encoder cannot feed it.
        """
        model = Autoencoder.from_state(document["model"])
        for name in ("train_mu", "train_sigma", "chosen_n"):
            value = getattr(model, name)
            if not isinstance(value, float):
                raise TypeError(f"model {name} must be a float, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"model {name} must be finite, got {value}")
        if model.chosen_n < 0:
            raise ValueError(f"model chosen_n must be >= 0, got {model.chosen_n}")
        encoder = EncoderState.from_dict(document["encoder"])
        # a model with more levels than the encoder only keeps rows no event reads
        for name, size in encoder.feature_sizes().items():
            if size > model.feature_sizes[name]:
                raise ValueError(
                    f"the encoder gives {name} indices up to {size}, "
                    f"the model holds {model.feature_sizes[name]}"
                )
        return cls(
            actor_id=document["actor_id"],
            model=model,
            encoder=encoder,
            status=EntryStatus(document["status"]),
            metrics=json_object(document, "metrics"),
            metadata=json_object(document, "metadata") if "metadata" in document else {},
            created_at=document["created_at"],
        )


def _trailer(head: bytes) -> bytes:
    return _CHECKSUM_MEMBER + hashlib.sha256(head).hexdigest().encode("ascii") + b'"}'


def _seal(document: dict) -> bytes:
    """The stored bytes of ``document``: compact sorted JSON, checksum last.

    Raises:
        ValueError: the document holds a NaN or an infinity, which JSON has
            no number for and which ``load`` would refuse.
    """
    body = json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    head = body[:-1]  # without the closing brace, which the trailer restores
    return head + _trailer(head)


def _unseal(path: Path) -> dict:
    """Parse a stored document after checking its checksum over the raw bytes.

    Raises:
        RegistryIntegrityError: the file cannot be read (a directory or an
            unreadable file under a ``.model`` name), fails the checksum,
            does not parse, or has a format version other than
            ``FORMAT_VERSION``.
    """
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise RegistryIntegrityError(
            f"{path} cannot be read ({exc}); retrain the actor to replace it"
        ) from exc
    head = payload[:-_TRAILER_LENGTH]
    try:
        document = json.loads(payload) if payload[len(head):] == _trailer(head) else None
    except ValueError:  # a matching trailer after bytes that are not JSON
        document = None
    if document is None or document.get("version") != FORMAT_VERSION:
        raise RegistryIntegrityError(
            f"{path} failed its checksum or format version {FORMAT_VERSION} check; "
            f"retrain the actor to replace it"
        )
    return document


def _model_names(directory: Path) -> list[str]:
    """Sorted ``*.model`` names in ``directory``, ``[]`` if it cannot be listed.

    A name matches as it would match ``Path.glob("*.model")``: case
    sensitive, dotfiles included. Names of one directory sort as strings in
    the order their paths sort in, and ``created_at`` names sort
    chronologically.
    """
    try:
        with os.scandir(directory) as entries:
            names = [entry.name for entry in entries if entry.name.endswith(MODEL_SUFFIX)]
    except OSError:  # missing, not a directory, or unreadable
        return []
    names.sort()
    return names


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

    @cached_property
    def name_max(self) -> int:
        """The longest actor id, in bytes, that can name a directory under the root."""
        return name_max(self.root)

    def _actor_dir(self, actor_id: str) -> Path:
        return self.root / check_actor_id(actor_id, self.name_max)

    def save(self, entry: RegistryEntry) -> Path:
        """Persist an entry atomically; returns the written model path.

        Raises:
            ValueError: the entry holds a NaN or an infinity outside
                ``theta``, or a ``theta`` value that is not a float32 value;
                nothing is written, not even the actor's directory.
        """
        actor_dir = self._actor_dir(entry.actor_id)
        created = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
        path = actor_dir / f"{created}{MODEL_SUFFIX}"
        bump = 0
        while path.exists():
            bump += 1
            path = actor_dir / f"{created}-{bump:02d}{MODEL_SUFFIX}"
        entry.created_at = path.stem

        payload = _seal(entry.to_document())
        actor_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, payload)
        logger.info("saved model for %s at %s", entry.actor_id, path.name)
        return path

    def entry_paths(self, actor_id: str) -> list[Path]:
        """The actor's ``.model`` paths, oldest first."""
        actor_dir = self._actor_dir(actor_id)
        return [actor_dir / name for name in _model_names(actor_dir)]

    def load(self, actor_id: str) -> RegistryEntry:
        """Load the newest entry for an actor, verifying its checksum.

        Raises:
            RegistryNotFoundError: no saved model for the actor.
            RegistryIntegrityError: the newest document is corrupt, or its
                sealed content does not rebuild an entry that can score (a
                missing member, a ``theta`` of the wrong length, an encoder
                that cannot feed its model), or it names another actor.
        """
        paths = self.entry_paths(actor_id)
        if not paths:
            raise RegistryNotFoundError(f"no model saved for actor {actor_id!r}")
        newest = paths[-1]  # names sort chronologically
        document = _unseal(newest)
        try:
            entry = RegistryEntry.from_document(document)
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryIntegrityError(
                f"{newest} passed its checksum but does not hold a valid model "
                f"({type(exc).__name__}: {exc}); retrain the actor to replace it"
            ) from exc
        # the checksum does not cover the path: a file copied from another actor passes it
        if entry.actor_id != actor_id or entry.model.actor_id != actor_id:
            raise RegistryIntegrityError(
                f"{newest} names actor {entry.actor_id!r} (model {entry.model.actor_id!r}), "
                f"not {actor_id!r}; retrain the actor to replace it"
            )
        entry.source = newest.name
        return entry

    def actors(self) -> list[str]:
        """Every actor with at least one ``.model`` name, sorted."""
        try:
            with os.scandir(self.root) as children:
                names = [child.name for child in children if child.is_dir()]
        except (FileNotFoundError, NotADirectoryError):
            return []
        return sorted(name for name in names if _model_names(self.root / name))
