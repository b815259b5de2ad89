"""Per-actor under-complete autoencoder over entity embeddings.

Each categorical feature of a login event owns a trainable embedding table.
An event is the concatenation of its feature embeddings; a small tanh
encoder compresses it to a code narrower than the input, and a decoder ends
in one reconstruction head per feature. Training minimizes a weighted
combination of per-feature dice dissimilarities between the (sigmoid
squashed) input embedding and its reconstruction, with gradients derived by
hand and applied by plain mini-batch SGD to the network weights and the
embedding rows alike.

Every parameter lives in one float64 vector, ``Autoencoder.theta``, laid out
as ``w1 b1 w2 b2 w3 b3 head head_bias`` followed by one embedding table per
feature in ``FEATURE_ORDER``. The per-feature heads are row blocks of the
single ``(input_dim, hidden_dim)`` head matrix, and the named arrays are
views into ``theta``. The gradient has the same layout, so an SGD step is one
vector update, and a batch step has no Python loop over features: the input
is one gather from ``theta``, the per-feature dice sums are products with a
fixed 0/1 ``(input_dim, features)`` segment matrix, and the embedding
gradient is one ``np.bincount`` over the gather positions.

There is one forward and one backward pass, written for a stack of actors
(``_Stack``): every array carries a leading actor axis, so one matmul,
sigmoid or ``bincount`` covers all of them. A model scores through a stack
of one over its own ``theta``. ``train`` fits every job of a call in one
such stack, the bank, whose narrower actors are padded to the widest
``input_dim`` with columns that read a zero slot and belong to no feature,
so their parameters stay exactly 0 and each actor's fit equals its fit
alone up to float64 roundoff.

A stored model keeps ``theta`` whole, as base64 of its little-endian float64
bytes, beside the scalars that fix its layout (``feature_sizes``,
``hidden_dim``, ``code_dim``); loading checks the blob's length against that
layout and copies it back bit-exact.

The loss of an event doubles as its anomaly score: events built from
patterns the model never learned reconstruct poorly and score high.
"""

from __future__ import annotations

import base64
import itertools
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from loginwatch.encoding import FEATURE_ORDER, embedding_dim

logger = logging.getLogger(__name__)

_EPS = 1e-12
_DENSE_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3", "head", "head_bias")


class LossMode(str, Enum):
    """How per-feature dissimilarities combine into one event loss."""

    SUM = "SUM"
    PRODUCT = "PRODUCT"


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig:
    """Hyperparameters for one training run."""

    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 0.01
    hidden_dim: int = 16
    code_dim: int = 8
    loss_mode: LossMode = LossMode.SUM
    feature_weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        self.loss_mode = LossMode(self.loss_mode)
        for name, weight in self.feature_weights.items():
            if weight < 0:
                raise ValueError(f"feature weight {name} must be >= 0, got {weight}")


def dice_coefficient(p: np.ndarray, g: np.ndarray) -> float:
    """Dice similarity 2*sum(p*g) / (sum(p^2) + sum(g^2)).

    Equals 1 for identical vectors, 0 for orthogonal ones, and by convention
    1.0 when both vectors are all zero. Symmetric, but sensitive to scale:
    comparing a vector against twice itself gives 4/5, not 1.
    """
    p = np.asarray(p, dtype=float)
    g = np.asarray(g, dtype=float)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    denom = float(np.dot(p, p) + np.dot(g, g))
    if denom == 0.0:
        return 1.0
    return float(2.0 * np.dot(p, g) / denom)


def _check_rows(rows) -> np.ndarray:
    """``rows`` as int64; anything but a 2-D integer array with 8 columns is refused."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != len(FEATURE_ORDER) or rows.dtype.kind not in "iu":
        raise ValueError(
            f"rows must be a 2-D integer array with {len(FEATURE_ORDER)} columns, "
            f"got shape {rows.shape} and dtype {rows.dtype}"
        )
    return rows.astype(np.int64, copy=False)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only, so neither branch overflows
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _dense_shapes(hidden_dim: int, code_dim: int, width: int) -> list[tuple[int, ...]]:
    """Shapes of one actor's ``w1 b1 w2 b2 w3 b3 head head_bias``."""
    return [
        (hidden_dim, width), (hidden_dim,),
        (code_dim, hidden_dim), (code_dim,),
        (hidden_dim, code_dim), (hidden_dim,),
        (width, hidden_dim), (width,),
    ]


def _transposed(m: np.ndarray) -> np.ndarray:
    return m.transpose(0, 2, 1)


class _Stack:
    """The dense parameters of several autoencoders as stacked views of one vector.

    ``flat`` starts with one block per dense parameter, in ``_DENSE_KEYS``
    order; a block holds that parameter of actor 0, then actor 1, and so on,
    each ``width`` columns wide. Embedding tables follow, wherever the
    gather positions say. A stack of one is exactly a model's ``theta``.

    ``params`` holds the blocks as ``(actors, *shape)`` views and ``spans``
    where each sits in ``flat``; ``segments`` is ``(actors, width,
    features)``, 1 where a column belongs to a feature; ``weights`` holds
    the feature weights.
    """

    def __init__(
        self,
        flat: np.ndarray,
        params: tuple[np.ndarray, ...],
        spans: tuple[slice, ...],
        segments: np.ndarray,
        weights: np.ndarray,
        loss_mode: LossMode,
    ):
        self.flat = flat
        self.params = params
        self.spans = spans
        self.segments = segments
        self.weights = weights
        self.loss_mode = loss_mode
        w1, b1, w2, b2, w3, b3, head, head_bias = params
        # each layer's weights as the forward pass multiplies by them, and
        # its bias broadcast over rows
        self._layers = (
            (_transposed(w1), b1[:, None]),
            (_transposed(w2), b2[:, None]),
            (_transposed(w3), b3[:, None]),
            (_transposed(head), head_bias[:, None]),
        )

    @classmethod
    def over(
        cls,
        flat: np.ndarray,
        actors: int,
        hidden_dim: int,
        code_dim: int,
        segments: np.ndarray,
        weights: np.ndarray,
        loss_mode: LossMode,
    ) -> "_Stack":
        """The stack of ``actors`` whose dense blocks start ``flat``."""
        params, spans, offset = [], [], 0
        for shape in _dense_shapes(hidden_dim, code_dim, segments.shape[1]):
            size = actors * math.prod(shape)
            params.append(flat[offset : offset + size].reshape(actors, *shape))
            spans.append(slice(offset, offset + size))
            offset += size
        return cls(flat, tuple(params), tuple(spans), segments, weights, loss_mode)

    def lead(self, actors: int) -> "_Stack":
        """The first ``actors`` actors, as views; each block's share is a prefix of it."""
        total = self.segments.shape[0]
        return _Stack(
            self.flat,
            tuple(p[:actors] for p in self.params),
            tuple(
                slice(s.start, s.start + (s.stop - s.start) // total * actors)
                for s in self.spans
            ),
            self.segments[:actors],
            self.weights,
            self.loss_mode,
        )

    def forward(self, pos: np.ndarray) -> dict:
        """Run ``(actors, rows, width)`` gather positions through the network.

        Returns the cache the backward pass reads; ``losses`` is
        ``(actors, rows)``.
        """
        (w1, b1), (w2, b2), (w3, b3), (head, head_bias) = self._layers
        x = self.flat[pos]

        a1 = np.tanh(x @ w1 + b1)
        h = np.tanh(a1 @ w2 + b2)
        a3 = np.tanh(h @ w3 + b3)
        rec = a3 @ head + head_bias

        p = _sigmoid(rec)
        g = _sigmoid(x)
        overlap = (p * g) @ self.segments
        denom = (p * p + g * g) @ self.segments
        dissim = 1.0 - 2.0 * overlap / denom

        if self.loss_mode is LossMode.PRODUCT:
            safe = np.maximum(dissim, _EPS)
            losses = np.exp((np.log(safe) * self.weights).sum(axis=-1))
        else:
            losses = dissim @ self.weights

        return {
            "pos": pos,
            "x": x,
            "a1": a1,
            "h": h,
            "a3": a3,
            "rec": rec,
            "p": p,
            "g": g,
            "overlap": overlap,
            "denom": denom,
            "dissim": dissim,
            "losses": losses,
        }

    def gradient(self, cache: dict, row_weight: np.ndarray) -> np.ndarray:
        """Gradient of ``sum(row_weight * losses)``, in the layout of ``flat``.

        ``row_weight`` is ``(actors, rows)``: 1 / batch size for an actor's
        rows gives the gradient of each actor's mean batch loss, and 0 drops
        a padding row. Entries of ``flat`` that no actor of the stack reads
        get 0.
        """
        w1, b1, w2, b2, w3, b3, head, head_bias = self.params
        dissim = cache["dissim"]

        # d(weighted loss)/d(dissim_f) per event
        if self.loss_mode is LossMode.PRODUCT:
            # the PRODUCT loss is prod(safe ** w), so d/d(safe_f) = w_f * loss / safe_f
            safe = np.maximum(dissim, _EPS)
            coef = self.weights * (cache["losses"] * row_weight)[..., None] / safe
        else:
            coef = row_weight[..., None] * self.weights

        # d(1 - dice)/dp = a*p - b*g and d(1 - dice)/dg = a*g - b*p for
        # dice = 2*overlap/denom, with a and b per feature, spread to columns
        # (a padded column belongs to no feature and gets 0)
        overlap, denom = cache["overlap"], cache["denom"]
        scale = coef / (denom * denom)
        spread = _transposed(self.segments)
        a = (4.0 * overlap * scale) @ spread
        b = (2.0 * denom * scale) @ spread
        p, g = cache["p"], cache["g"]
        d_r = (a * p - b * g) * p * (1.0 - p)
        d_emb_target = (a * g - b * p) * g * (1.0 - g)

        x, a3, h, a1 = cache["x"], cache["a3"], cache["h"], cache["a1"]
        d_z3 = (d_r @ head) * (1.0 - a3 * a3)
        d_z2 = (d_z3 @ w3) * (1.0 - h * h)
        d_z1 = (d_z2 @ w2) * (1.0 - a1 * a1)
        d_x = d_z1 @ w1

        # Both embedding routes (input and reconstruction target) land on the
        # entries the batch gathered; bincount sums repeated ones.
        grad = np.bincount(
            cache["pos"].ravel(),
            weights=(d_x + d_emb_target).ravel(),
            minlength=self.flat.size,
        )
        dense = (  # w1 b1 w2 b2 w3 b3 head head_bias, in layout order
            _transposed(d_z1) @ x, d_z1.sum(axis=1),
            _transposed(d_z2) @ a1, d_z2.sum(axis=1),
            _transposed(d_z3) @ h, d_z3.sum(axis=1),
            _transposed(d_r) @ a3, d_r.sum(axis=1),
        )
        for span, part in zip(self.spans, dense):
            grad[span] = part.ravel()
        return grad


class Autoencoder:
    """Under-complete autoencoder for one actor's index rows.

    Layer stack, for an input x built by concatenating per-feature embedding
    rows (total width ``input_dim``):

        a1 = tanh(W1 x + b1)          encoder hidden
        h  = tanh(W2 a1 + b2)         code, code_dim < input_dim
        a3 = tanh(W3 h + b3)          decoder hidden
        r_f = H_f a3 + c_f            linear head per feature, width dim(f)

    The event loss compares sigmoid(r_f) against sigmoid(e_f) per feature
    with the dice dissimilarity and combines features per ``loss_mode``.

    ``theta`` holds every parameter; ``w1`` to ``b3``, ``head`` (the H_f
    stacked in feature order) and ``head_bias`` (the c_f) are views into it,
    and ``_views(theta)[name]`` is feature ``name``'s embedding table: m + 1
    rows, row 0 for out-of-vocabulary values. Write parameters in place
    (``view[...] = values``); rebinding an attribute detaches it.
    """

    def __init__(
        self,
        actor_id: str,
        feature_sizes: Mapping[str, int],
        *,
        hidden_dim: int = 16,
        code_dim: int = 8,
        seed: int = 0,
        loss_mode: LossMode = LossMode.SUM,
        feature_weights: Mapping[str, float] | None = None,
    ):
        self._allocate(
            actor_id, feature_sizes, hidden_dim, code_dim, loss_mode, feature_weights
        )

        # Initial values: one generator per embedding table (entries uniform
        # in [-0.05, 0.05]), then one for w1, w2, w3 and the heads in feature
        # order. Trained models and the acceptance figures depend on this
        # order; keep it.
        seeds = np.random.SeedSequence(seed).generate_state(len(FEATURE_ORDER) + 1)
        views = self._views(self.theta)
        for name, child_seed in zip(FEATURE_ORDER, seeds):
            table = views[name]
            table[...] = np.random.default_rng(int(child_seed)).uniform(
                -0.05, 0.05, size=table.shape
            )

        rng = np.random.default_rng(int(seeds[-1]))

        def glorot(fan_out: int, fan_in: int) -> np.ndarray:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_out, fan_in))

        self.w1[...] = glorot(hidden_dim, self.input_dim)
        self.w2[...] = glorot(code_dim, hidden_dim)
        self.w3[...] = glorot(hidden_dim, code_dim)
        for _, cols in self._feature_columns():
            self.head[cols] = glorot(cols.stop - cols.start, hidden_dim)

    def _allocate(
        self,
        actor_id: str,
        feature_sizes: Mapping[str, int],
        hidden_dim: int,
        code_dim: int,
        loss_mode: LossMode,
        feature_weights: Mapping[str, float] | None,
    ) -> None:
        """Validate the configuration and lay out a zero ``theta``."""
        missing = [name for name in FEATURE_ORDER if name not in feature_sizes]
        if missing:
            raise ValueError(f"feature_sizes missing {missing}")
        if hidden_dim < 1 or code_dim < 1:
            raise ValueError("hidden_dim and code_dim must be >= 1")

        self.actor_id = actor_id
        self.loss_mode = LossMode(loss_mode)
        self.feature_sizes = {name: int(feature_sizes[name]) for name in FEATURE_ORDER}
        weights = dict(feature_weights or {})
        self.feature_weights = {
            name: float(weights.get(name, 1.0)) for name in FEATURE_ORDER
        }
        self._w_vec = np.array(
            [self.feature_weights[name] for name in FEATURE_ORDER], dtype=float
        )

        sizes = [self.feature_sizes[name] for name in FEATURE_ORDER]
        small = [name for name, m in zip(FEATURE_ORDER, sizes) if m < 1]
        if small:
            name = small[0]
            raise ValueError(
                f"feature_sizes[{name!r}] must be >= 1, got {self.feature_sizes[name]}"
            )
        dims = [embedding_dim(m) for m in sizes]
        self.input_dim = sum(dims)
        if not code_dim < self.input_dim:
            raise ValueError(
                f"code_dim {code_dim} must be < input_dim {self.input_dim}"
            )
        self.hidden_dim = hidden_dim
        self.code_dim = code_dim

        shapes = list(zip(_DENSE_KEYS, _dense_shapes(hidden_dim, code_dim, self.input_dim)))
        shapes += [(name, (m + 1, dim)) for name, m, dim in zip(FEATURE_ORDER, sizes, dims)]
        self._layout: list[tuple[str, slice, tuple[int, ...]]] = []
        offset = 0
        for key, shape in shapes:
            size = math.prod(shape)
            self._layout.append((key, slice(offset, offset + size), shape))
            offset += size
        self.theta = np.zeros(offset)
        dense = self._layout[: len(_DENSE_KEYS)]
        self._table_start = self._layout[len(_DENSE_KEYS)][1].start

        # Column maps: column j of x is feature _col_feature[j]; an event with
        # index row idx reads it from theta[idx[f] * _col_dim[j] + _col_base[j]].
        self._col_start = [0, *itertools.accumulate(dims)]
        self._col_feature = np.repeat(np.arange(len(FEATURE_ORDER)), dims)
        self._col_dim = np.repeat(dims, dims)
        table_start = np.array([span.start for _, span, _ in self._layout[-len(dims):]])
        self._col_base = (
            table_start[self._col_feature]
            + np.arange(self.input_dim)
            - np.array(self._col_start)[self._col_feature]
        )
        self._segments = np.zeros((self.input_dim, len(FEATURE_ORDER)))
        self._segments[np.arange(self.input_dim), self._col_feature] = 1.0
        self._max_index = np.array(sizes, dtype=np.int64)

        views = [self.theta[span].reshape(shape) for _, span, shape in dense]
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3, self.head, self.head_bias = views
        self._stack = _Stack(
            self.theta,
            tuple(view[None] for view in views),
            tuple(span for _, span, _ in dense),
            self._segments[None],
            self._w_vec,
            self.loss_mode,
        )

        self.train_mu: float | None = None
        self.train_sigma: float | None = None
        self.chosen_n: float | None = None
        self.epoch_losses: list[float] = []

    def _views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of a parameter-layout vector (``theta`` or a gradient).

        Keys are ``w1`` to ``b3``, ``head``, ``head_bias`` and each feature
        name for its embedding table.
        """
        return {key: vector[span].reshape(shape) for key, span, shape in self._layout}

    def _feature_columns(self) -> Iterator[tuple[str, slice]]:
        """Each feature's columns in x, in the reconstruction and in ``head``."""
        for f, name in enumerate(FEATURE_ORDER):
            yield name, slice(self._col_start[f], self._col_start[f + 1])

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    def _indices(self, rows) -> np.ndarray:
        rows = _check_rows(rows)
        bad = (rows < 0) | (rows > self._max_index)
        if bad.any():
            f, row = np.argwhere(bad.T)[0]  # first feature with a bad index
            name = FEATURE_ORDER[f]
            raise ValueError(
                f"{name}: index {rows[row, f]} outside "
                f"[0, {self.feature_sizes[name]}]"
            )
        return rows

    def _positions(self, idx: np.ndarray) -> np.ndarray:
        """Where in ``theta`` each column of each checked index row reads from."""
        return idx[:, self._col_feature] * self._col_dim + self._col_base

    def _run(self, rows) -> dict:
        """The forward cache of ``rows`` through this model's stack of one."""
        return self._stack.forward(self._positions(self._indices(rows))[None])

    def forward(self, row) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Per-feature reconstructions and the input embeddings they target.

        Returns:
            (reconstructions, inputs): raw linear head outputs and the
            embedding rows the event looked up, both keyed by feature name
            with matching widths.
        """
        cache = self._run(np.asarray(row)[None])
        rec = {name: cache["rec"][0, 0, cols].copy() for name, cols in self._feature_columns()}
        emb = {name: cache["x"][0, 0, cols].copy() for name, cols in self._feature_columns()}
        return rec, emb

    def losses(self, rows) -> np.ndarray:
        """Loss of every index row, in input order."""
        return self._run(rows)["losses"][0]

    def event_loss(self, row) -> float:
        """Combined weighted dice dissimilarity of one index row."""
        return float(self.losses(np.asarray(row)[None])[0])

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-type snapshot of every parameter and training statistic.

        ``theta`` is stored whole as base64 of its little-endian float64
        bytes; the layout scalars beside it say how to read it back.
        """
        return {
            "actor_id": self.actor_id,
            "feature_sizes": dict(self.feature_sizes),
            "feature_weights": dict(self.feature_weights),
            "hidden_dim": self.hidden_dim,
            "code_dim": self.code_dim,
            "loss_mode": self.loss_mode.value,
            "theta": base64.b64encode(
                self.theta.astype("<f8", copy=False).tobytes()
            ).decode("ascii"),
            "train_mu": self.train_mu,
            "train_sigma": self.train_sigma,
            "chosen_n": self.chosen_n,
            "epoch_losses": list(self.epoch_losses),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Autoencoder":
        """Rebuild a model from ``to_state`` output.

        Raises:
            ValueError: ``theta`` is not base64, or its length differs from
                the one that ``feature_sizes``, ``hidden_dim`` and
                ``code_dim`` imply.
        """
        model = cls.__new__(cls)
        model._allocate(
            state["actor_id"],
            state["feature_sizes"],
            state["hidden_dim"],
            state["code_dim"],
            LossMode(state["loss_mode"]),
            state["feature_weights"],
        )
        try:
            blob = base64.b64decode(state["theta"], validate=True)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"theta is not base64: {exc}") from None
        if len(blob) != 8 * model.theta.size:
            raise ValueError(
                f"theta length mismatch: stored {len(blob)} bytes, expected "
                f"{model.theta.size} float64 values ({8 * model.theta.size} bytes)"
            )
        model.theta[...] = np.frombuffer(blob, "<f8")
        model.train_mu = state.get("train_mu")
        model.train_sigma = state.get("train_sigma")
        model.chosen_n = state.get("chosen_n")
        model.epoch_losses = list(state.get("epoch_losses", []))
        return model


def _corner(param: np.ndarray) -> tuple[slice, ...]:
    """Where ``param`` sits in its zero-padded, wider copy."""
    return tuple(slice(0, n) for n in param.shape)


class _Bank:
    """The parameters of several models, stacked for one training loop.

    ``stack.flat`` holds the dense blocks of every model, padded to the
    widest ``input_dim`` with zeros, then each model's embedding tables in
    turn, then one zero slot. A narrower model's padded columns gather the
    zero slot and belong to no feature, so their gradient is exactly 0 and
    the padding never moves.
    """

    def __init__(self, models: Sequence[Autoencoder]):
        self.models = list(models)
        first = self.models[0]
        width = max(model.input_dim for model in self.models)
        segments = np.zeros((len(self.models), width, len(FEATURE_ORDER)))
        for k, model in enumerate(self.models):
            segments[k, : model.input_dim] = model._segments
        dense = sum(
            len(self.models) * math.prod(shape)
            for shape in _dense_shapes(first.hidden_dim, first.code_dim, width)
        )
        self._tables: list[slice] = []
        offset = dense
        for model in self.models:
            size = model.theta.size - model._table_start
            self._tables.append(slice(offset, offset + size))
            offset += size
        self.zero = offset
        self.stack = _Stack.over(
            np.zeros(offset + 1), len(self.models), first.hidden_dim, first.code_dim,
            segments, first._w_vec, first.loss_mode,
        )
        for k, model in enumerate(self.models):
            for stacked, own in zip(self.stack.params, model._stack.params):
                stacked[k][_corner(own[0])] = own[0]
            self.stack.flat[self._tables[k]] = model.theta[model._table_start :]

    def positions(self, k: int, idx: np.ndarray) -> np.ndarray:
        """Gather positions in ``stack.flat`` of model ``k``'s checked index rows."""
        model = self.models[k]
        pos = np.full((idx.shape[0], self.stack.segments.shape[1]), self.zero)
        shift = self._tables[k].start - model._table_start
        pos[:, : model.input_dim] = model._positions(idx) + shift
        return pos

    def clear(self, k: int) -> None:
        """Set every parameter of model ``k`` to 0."""
        for stacked in self.stack.params:
            stacked[k] = 0.0
        self.stack.flat[self._tables[k]] = 0.0

    def store(self) -> None:
        """Copy the stacked parameters back into each model's ``theta``."""
        for k, model in enumerate(self.models):
            for stacked, own in zip(self.stack.params, model._stack.params):
                own[0] = stacked[k][_corner(own[0])]
            model.theta[model._table_start :] = self.stack.flat[self._tables[k]]


@dataclass(frozen=True)
class TrainJob:
    """One actor's share of a ``train`` call.

    ``rows`` is the actor's ``(N, 8)`` index matrix. ``feature_sizes`` is
    the largest valid index per feature. ``seed`` fixes the initial
    parameters and the order of the batches.
    """

    actor_id: str
    rows: np.ndarray
    feature_sizes: Mapping[str, int]
    seed: int


def train(
    jobs: Sequence[TrainJob], config: TrainConfig
) -> list[Autoencoder | TrainingDivergedError]:
    """Fit one autoencoder per job by mini-batch SGD, all jobs in one loop.

    Every job gets the model, seed, per-epoch permutation stream, batch
    count and per-batch mean loss it would get alone, so its fit equals a
    one-job ``train`` up to float64 roundoff; the jobs only share the
    numpy calls. Jobs are stacked by row count, most first, so batch ``b``
    of an epoch runs on a leading slice of the stack: only the jobs that
    still have rows. A batch that is short for some of them pads their
    rows with weight 0.

    Embedding rows are parameters: each step updates them together with the
    layer weights. After the last epoch a model's ``train_mu`` and
    ``train_sigma`` are the mean and population standard deviation of its
    final per-event losses over its whole dataset, and ``epoch_losses``
    holds one mean loss per epoch.

    Returns:
        One result per job, in job order: the trained model, or a
        ``TrainingDivergedError`` naming the epoch in which that job's batch
        loss went non-finite. A diverged job's parameters and row weights
        are set to 0 for the rest of the loop, and the other jobs carry on.

    Raises:
        ValueError: a job's rows are not a 2-D integer array with 8 columns,
            are empty, or hold an index outside its feature's size.
    """
    models, indices = [], []
    for job in jobs:
        rows = _check_rows(job.rows)
        if rows.shape[0] == 0:
            raise ValueError(f"dataset of {job.actor_id!r} is empty")
        model = Autoencoder(
            job.actor_id,
            job.feature_sizes,
            hidden_dim=config.hidden_dim,
            code_dim=config.code_dim,
            seed=job.seed,
            loss_mode=config.loss_mode,
            feature_weights=config.feature_weights,
        )
        models.append(model)
        indices.append(model._indices(rows))
    if not models:
        return []

    # From here on, k counts actors in stack order: most rows, so most batches, first.
    size = config.batch_size
    order = sorted(range(len(models)), key=lambda j: -len(indices[j]))
    bank = _Bank([models[j] for j in order])
    counts = np.array([len(indices[j]) for j in order])
    batches = -(-counts // size)
    rngs = [
        np.random.default_rng(np.random.SeedSequence([jobs[j].seed, len(indices[j])]))
        for j in order
    ]

    # Every actor's gather positions, then one padding row of zero slots.
    table = np.concatenate(
        [bank.positions(k, indices[j]) for k, j in enumerate(order)]
        + [np.full((1, bank.stack.segments.shape[1]), bank.zero)]
    )
    first_row = np.concatenate([[0], np.cumsum(counts)])
    # epoch_rows[k] is actor k's epoch: its permuted table rows, then the
    # padding row; batch b is a slice of its columns.
    epoch_rows = np.full((len(order), batches[0] * size), len(table) - 1)

    # per batch: the stack's leading slice, columns, row weights, 0/1 real-row mask
    steps = []
    for b in range(batches[0]):
        live = np.clip(counts - b * size, 0, size)[: np.count_nonzero(batches > b), None]
        real = (np.arange(live.max()) < live).astype(float)
        columns = slice(b * size, b * size + real.shape[1])
        steps.append((bank.stack.lead(len(live)), columns, real / live, real))

    errors: dict[int, TrainingDivergedError] = {}
    loss_sums = np.zeros((config.epochs, len(order)))
    flat = bank.stack.flat
    for epoch in range(config.epochs):
        for k, rng in enumerate(rngs):
            epoch_rows[k, : counts[k]] = first_row[k] + rng.permutation(counts[k])
        for stack, columns, weight, real in steps:
            pos = table[epoch_rows[: real.shape[0], columns]]
            cache = stack.forward(pos)
            sums = (cache["losses"] * real).sum(axis=1)
            if not np.isfinite(sums).all():
                # Zero the diverged actors, so that no NaN reaches a gradient
                # (a weight of 0 would not do: 0 * NaN is NaN), and rerun.
                for k in np.flatnonzero(~np.isfinite(sums)).tolist():
                    errors[k] = TrainingDivergedError(f"non-finite loss in epoch {epoch + 1}")
                    bank.clear(k)
                    for _, _, w, r in steps[: batches[k]]:
                        w[k] = 0.0
                        r[k] = 0.0
                cache = stack.forward(pos)
                sums = (cache["losses"] * real).sum(axis=1)
            loss_sums[epoch, : len(sums)] += sums
            flat -= config.learning_rate * stack.gradient(cache, weight)

    bank.store()
    results: dict[int, Autoencoder | TrainingDivergedError] = {}
    for k, j in enumerate(order):
        if k in errors:
            results[j] = errors[k]
            continue
        model = models[j]
        model.epoch_losses = (loss_sums[:, k] / counts[k]).tolist()
        final_losses = model.losses(indices[j])
        model.train_mu = float(final_losses.mean())
        model.train_sigma = float(final_losses.std())
        results[j] = model
    return [results[j] for j in range(len(models))]


def _finite_differences(
    stack: _Stack, pos: np.ndarray, row_weight: np.ndarray, epsilon: float = 1e-5
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic and central-difference gradients of ``sum(row_weight * losses)``.

    Every entry of ``stack.flat`` is perturbed by +/- epsilon.
    """
    analytic = stack.gradient(stack.forward(pos), row_weight)
    flat = stack.flat

    def loss() -> float:
        return float((stack.forward(pos)["losses"] * row_weight).sum())

    numeric = np.empty(flat.size)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        up = loss()
        flat[i] = original - epsilon
        down = loss()
        flat[i] = original
        numeric[i] = (up - down) / (2.0 * epsilon)
    return analytic, numeric


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """|analytic - numeric| / max(|analytic| + |numeric|, 1e-6), entry by entry."""
    return np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)


def gradient_check(model: Autoencoder, row, epsilon: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    The loss is that of the one index row ``row``. Every entry of
    ``model.theta`` is perturbed by +/- epsilon, including every embedding
    row (used or not). Returns the maximum relative error
    |analytic - numeric| / max(|analytic| + |numeric|, 1e-6); the floor
    keeps float64 roundoff in the difference quotient (about 1e-11 at
    the default epsilon) from dominating near-zero gradient entries.
    """
    pos = model._positions(model._indices(np.asarray(row)[None]))[None]
    analytic, numeric = _finite_differences(model._stack, pos, np.ones((1, 1)), epsilon)
    return float(_relative_error(analytic, numeric).max())
