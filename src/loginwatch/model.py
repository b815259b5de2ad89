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
from typing import Iterator, Mapping

import numpy as np

from loginwatch.encoding import FEATURE_ORDER, embedding_dim

logger = logging.getLogger(__name__)

_EPS = 1e-12


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
    seed: int = 0
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

        shapes = [
            ("w1", (hidden_dim, self.input_dim)),
            ("b1", (hidden_dim,)),
            ("w2", (code_dim, hidden_dim)),
            ("b2", (code_dim,)),
            ("w3", (hidden_dim, code_dim)),
            ("b3", (hidden_dim,)),
            ("head", (self.input_dim, hidden_dim)),
            ("head_bias", (self.input_dim,)),
        ]
        shapes += [(name, (m + 1, dim)) for name, m, dim in zip(FEATURE_ORDER, sizes, dims)]
        self._layout: list[tuple[str, slice, tuple[int, ...]]] = []
        offset = 0
        for key, shape in shapes:
            self._layout.append((key, slice(offset, offset + math.prod(shape)), shape))
            offset += math.prod(shape)
        self.theta = np.zeros(offset)
        views = self._views(self.theta)
        self.w1, self.b1 = views["w1"], views["b1"]
        self.w2, self.b2 = views["w2"], views["b2"]
        self.w3, self.b3 = views["w3"], views["b3"]
        self.head, self.head_bias = views["head"], views["head_bias"]

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

    def _forward(self, idx: np.ndarray) -> dict:
        """Run a batch of index rows through the network, keeping the cache."""
        pos = idx[:, self._col_feature] * self._col_dim + self._col_base
        x = self.theta[pos]

        a1 = np.tanh(x @ self.w1.T + self.b1)
        h = np.tanh(a1 @ self.w2.T + self.b2)
        a3 = np.tanh(h @ self.w3.T + self.b3)
        rec = a3 @ self.head.T + self.head_bias

        p = _sigmoid(rec)
        g = _sigmoid(x)
        overlap = (p * g) @ self._segments
        denom = (p * p + g * g) @ self._segments
        dissim = 1.0 - 2.0 * overlap / denom

        if self.loss_mode is LossMode.SUM:
            losses = dissim @ self._w_vec
        else:
            safe = np.maximum(dissim, _EPS)
            losses = np.exp((np.log(safe) * self._w_vec).sum(axis=1))

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

    def forward(self, row) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Per-feature reconstructions and the input embeddings they target.

        Returns:
            (reconstructions, inputs): raw linear head outputs and the
            embedding rows the event looked up, both keyed by feature name
            with matching widths.
        """
        cache = self._forward(self._indices(np.asarray(row)[None]))
        rec = {name: cache["rec"][0, cols].copy() for name, cols in self._feature_columns()}
        emb = {name: cache["x"][0, cols].copy() for name, cols in self._feature_columns()}
        return rec, emb

    def losses(self, rows) -> np.ndarray:
        """Loss of every index row, in input order."""
        return self._forward(self._indices(rows))["losses"].copy()

    def event_loss(self, row) -> float:
        """Combined weighted dice dissimilarity of one index row."""
        return float(self.losses(np.asarray(row)[None])[0])

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------

    def _backward(self, cache: dict) -> np.ndarray:
        """Gradient of the mean batch loss, in the layout of ``theta``."""
        x = cache["x"]
        batch = x.shape[0]
        dissim = cache["dissim"]

        # d(mean loss)/d(dissim_f) per event
        if self.loss_mode is LossMode.SUM:
            coef = self._w_vec / batch
        else:
            # the PRODUCT loss is prod(safe ** w), so d/d(safe_f) = w_f * loss / safe_f
            safe = np.maximum(dissim, _EPS)
            coef = self._w_vec * cache["losses"][:, None] / safe / batch

        # d(1 - dice)/dp = a*p - b*g and d(1 - dice)/dg = a*g - b*p for
        # dice = 2*overlap/denom, with a and b per feature, spread to columns
        overlap, denom = cache["overlap"], cache["denom"]
        scale = coef / (denom * denom)
        a = (4.0 * overlap * scale)[:, self._col_feature]
        b = (2.0 * denom * scale)[:, self._col_feature]
        p, g = cache["p"], cache["g"]
        d_r = (a * p - b * g) * p * (1.0 - p)
        d_emb_target = (a * g - b * p) * g * (1.0 - g)

        a3, h, a1 = cache["a3"], cache["h"], cache["a1"]
        d_z3 = (d_r @ self.head) * (1.0 - a3 * a3)
        d_z2 = (d_z3 @ self.w3) * (1.0 - h * h)
        d_z1 = (d_z2 @ self.w2) * (1.0 - a1 * a1)
        d_x = d_z1 @ self.w1

        # Both embedding routes (input and reconstruction target) land on the
        # rows the batch gathered; bincount sums repeated rows.
        grad = np.bincount(
            cache["pos"].ravel(),
            weights=(d_x + d_emb_target).ravel(),
            minlength=self.theta.size,
        )
        dense = (  # w1 b1 w2 b2 w3 b3 head head_bias, in layout order
            d_z1.T @ x, d_z1.sum(axis=0),
            d_z2.T @ a1, d_z2.sum(axis=0),
            d_z3.T @ h, d_z3.sum(axis=0),
            d_r.T @ a3, d_r.sum(axis=0),
        )
        for (_, span, _), part in zip(self._layout, dense):
            grad[span] = part.ravel()
        return grad

    def _apply(self, grad: np.ndarray, learning_rate: float) -> None:
        self.theta -= learning_rate * grad

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


def train(
    rows,
    config: TrainConfig,
    feature_sizes: Mapping[str, int] | None = None,
    *,
    actor_id: str,
) -> Autoencoder:
    """Fit an autoencoder to one actor's index rows by mini-batch SGD.

    Embedding rows are parameters: each step updates them together with the
    layer weights. After the last epoch the model's ``train_mu`` and
    ``train_sigma`` are set to the mean and population standard deviation of
    the final per-event losses over the whole dataset.

    Args:
        rows: ``(N, 8)`` integer index matrix of a single actor's events.
        config: hyperparameters.
        feature_sizes: largest valid index per feature. When omitted it is
            each column's maximum (at least 1), which is only safe if the
            rows cover every index the model will ever see.
        actor_id: the actor the model belongs to.

    Returns:
        The trained model, with ``epoch_losses`` holding one mean loss per
        epoch.

    Raises:
        ValueError: rows that are not a 2-D integer array with 8 columns,
            no rows at all, or an index outside its feature's size.
        TrainingDivergedError: a non-finite loss appeared.
    """
    rows = _check_rows(rows)
    if rows.shape[0] == 0:
        raise ValueError("dataset is empty")

    if feature_sizes:
        sizes = dict(feature_sizes)
    else:
        sizes = dict(zip(FEATURE_ORDER, np.maximum(rows.max(axis=0), 1).tolist()))
    model = Autoencoder(
        actor_id,
        sizes,
        hidden_dim=config.hidden_dim,
        code_dim=config.code_dim,
        seed=config.seed,
        loss_mode=config.loss_mode,
        feature_weights=config.feature_weights,
    )
    idx_all = model._indices(rows)
    count = idx_all.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, count]))

    for epoch in range(config.epochs):
        order = rng.permutation(count)
        loss_sum = 0.0
        for start in range(0, count, config.batch_size):
            batch_idx = idx_all[order[start : start + config.batch_size]]
            cache = model._forward(batch_idx)
            batch_losses = cache["losses"]
            if not np.all(np.isfinite(batch_losses)):
                raise TrainingDivergedError(
                    f"non-finite loss in epoch {epoch + 1}"
                )
            loss_sum += float(batch_losses.sum())
            model._apply(model._backward(cache), config.learning_rate)
        model.epoch_losses.append(loss_sum / count)

    final_losses = model.losses(idx_all)
    model.train_mu = float(final_losses.mean())
    model.train_sigma = float(final_losses.std())
    return model


def gradient_check(model: Autoencoder, row, epsilon: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    The loss is that of the one index row ``row``. Every entry of
    ``model.theta`` is perturbed by +/- epsilon, including every embedding
    row (used or not). Returns the maximum relative error
    |analytic - numeric| / max(|analytic| + |numeric|, 1e-6); the floor
    keeps float64 roundoff in the difference quotient (about 1e-11 at
    the default epsilon) from dominating near-zero gradient entries.
    """
    idx = model._indices(np.asarray(row)[None])
    grad = model._backward(model._forward(idx))
    theta = model.theta

    def loss() -> float:
        return float(model._forward(idx)["losses"][0])

    worst = 0.0
    for i in range(theta.size):
        original = theta[i]
        theta[i] = original + epsilon
        up = loss()
        theta[i] = original - epsilon
        down = loss()
        theta[i] = original
        numeric = (up - down) / (2.0 * epsilon)
        a = float(grad[i])
        err = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-6)
        worst = max(worst, err)
    return worst
