"""Per-actor under-complete autoencoder over entity embeddings.

Each categorical feature of a login event owns a trainable embedding table.
An event is the concatenation of its feature embeddings; a small tanh
encoder compresses it to a code narrower than the input, and a decoder ends
in one reconstruction head per feature. Training minimizes the weighted
sum of per-feature dice dissimilarities between the (sigmoid squashed)
input embedding and its reconstruction, with gradients derived by hand and
applied by plain mini-batch SGD to the network weights and the embedding
rows alike.

A model keeps every parameter in one float64 vector, ``Autoencoder.theta``,
laid out as ``w1 b1 w2 b2 w3 b3 head head_bias`` followed by one embedding
table per feature in ``FEATURE_ORDER``. The per-feature heads are row blocks
of the single ``(input_dim, hidden_dim)`` head matrix, and the named arrays
are views into ``theta``. The gradient has the same layout, so an SGD step is
one vector update, and a batch step has no Python loop over features: the
input is one gather from ``theta``, the per-feature dice sums are products
with a fixed 0/1 ``(input_dim, features)`` segment matrix, the bias gradients
are products with a row of ones, and the embedding gradient is one
``np.bincount`` over the gather positions. A step's time is mostly
elementwise arithmetic on its ``(actors, rows, width)`` arrays, so the step
keeps the passes over them few: one exp per sigmoid, and each sigmoid's
derivative read from the squares that the dice denominator already needs.

There is one forward and one backward pass, written for a stack of actors
(``_Stack``): every array carries a leading actor axis, so one matmul,
sigmoid or ``bincount`` covers all of them. The stack is also the one
parameter layout: built from each actor's feature sizes, it places the
dense blocks, each actor's embedding tables and one zero slot, and gives
each actor its gather positions and own-shape named views of any vector in
its layout. A model is a stack of one, whose ``flat`` without the zero slot
is its ``theta``. ``train`` fits a call's jobs in stacks of many, the
banks, whose narrower actors are padded to the call's widest ``input_dim``
with columns that read the zero slot and belong to no feature, so their
parameters stay exactly 0 and each actor's fit equals its fit alone up to
float32 roundoff.

``train`` splits its jobs into one group per CPU that the process may run
on (its affinity mask; one group where the platform does not say), at most
one group per job, balanced by row count. Each group has its own bank. The
parent process fits group 0 and one forked worker fits each other group in
place: a bank's ``flat``, its jobs' summed batch losses and the epochs in
which any of them diverged are shared memory, read only after reaping.
Every bank is padded to the same width, and every batch to the row count
it has in a one-process fit, so each job's arrays have the same shapes in
any split and its model comes out bit-identical to a one-process fit. The
parent builds every model before it forks, and copies every model out of
its bank afterwards. A one-job call never forks.

The banks are the only float32 stacks: a step is mostly elementwise
arithmetic, so half-width floats make it cheaper. Everything else is
float64 through the same code: a model's ``theta``, its losses and so its
scores and ``train_mu``/``train_sigma``, and ``gradient_check``. A model's
``theta`` holds float32 values all the same: its initial values are
rounded to float32, and a trained model is its bank's float32 values,
widened exactly when it is copied out.

A stored model keeps ``theta`` whole, as lowercase hex of its little-endian
float32 bytes (registry format versions 5 and 6; version 4 stored float64
bytes, version 3 base64), beside the scalars that fix its layout
(``feature_sizes``, ``hidden_dim``, ``code_dim``). Since every value is a
float32 value, the narrowing is lossless, and ``to_state`` refuses a
``theta`` for which it would not be. Loading decodes it with the strict
``binascii.unhexlify``, checks the decoded length against that layout and
widens it back to the same float64 bits.

The loss of an event doubles as its anomaly score: events built from
patterns the model never learned reconstruct poorly and score high.
"""

from __future__ import annotations

import binascii
import copy
import logging
import math
import mmap
import os
import signal
from dataclasses import dataclass, field
from typing import Mapping, NoReturn, Sequence

import numpy as np

from loginwatch.encoding import FEATURE_ORDER, embedding_dim

logger = logging.getLogger(__name__)

_DENSE_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3", "head", "head_bias")
# Row f is the segment row of a column of feature f; the last row, all 0, is
# that of a padded column.
_SEGMENT_ROWS = np.eye(len(FEATURE_ORDER) + 1, len(FEATURE_ORDER))


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
    feature_weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.code_dim < 1:
            raise ValueError(f"code_dim must be >= 1, got {self.code_dim}")
        checked_weights(self.feature_weights)


def checked_weights(feature_weights: Mapping[str, float] | None) -> dict[str, float]:
    """Every feature's weight in ``FEATURE_ORDER``, 1.0 where none is given.

    Raises:
        ValueError: a weight names no feature, is not a number, or is not a
            finite value >= 0 (a NaN weight makes every loss NaN, so nothing
            is ever flagged).
    """
    weights = dict(feature_weights or {})
    for name, weight in weights.items():
        if name not in FEATURE_ORDER:
            raise ValueError(f"feature weight {name!r:.40} names no feature of {FEATURE_ORDER}")
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ValueError(f"feature weight {name} must be a number, got {weight!r:.40}")
        if not 0 <= weight < math.inf:
            raise ValueError(f"feature weight {name} must be finite and >= 0, got {weight}")
    return {name: float(weights.get(name, 1.0)) for name in FEATURE_ORDER}


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


def is_number_list(value) -> bool:
    """Whether a decoded JSON value is a list of numbers (``true`` is not one)."""
    return isinstance(value, list) and all(type(v) in (int, float) for v in value)


def _check_finite_theta(theta: np.ndarray) -> None:
    """Refuse a NaN or infinite parameter: every loss of the model would be
    NaN or infinite, never above a threshold, so it would flag no login."""
    finite = np.isfinite(theta)
    if not finite.all():
        at = int(np.argmin(finite))
        raise ValueError(f"theta[{at}] = {theta[at]!r} is not finite")


def _check_rows(rows) -> np.ndarray:
    """``rows`` as int64; anything but a 2-D integer array with 8 columns is refused."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != len(FEATURE_ORDER) or rows.dtype.kind not in "iu":
        raise ValueError(
            f"rows must be a 2-D integer array with {len(FEATURE_ORDER)} columns, "
            f"got shape {rows.shape} and dtype {rows.dtype}"
        )
    return rows.astype(np.int64, copy=False)


# Where _sigmoid clamps its input, per dtype: exp of the negated floor stays
# finite (exp(700) is about 1e304, exp(80) about 6e34; float32 overflows
# above 88.7), and so does 1 / (1 + exp) stay > 0.
_SIGMOID_FLOOR = {np.dtype(np.float64): -700.0, np.dtype(np.float32): -80.0}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # One exp and one division, in x's dtype; for x >= 0 these are the
    # textbook steps. The clamp keeps exp finite, so nothing overflows and
    # the result stays > 0 down to the floor. (0.5 + 0.5*tanh(x/2) reaches
    # 0 near x = -38, and a feature whose columns all did would get a 0/0 dice.)
    return 1.0 / (1.0 + np.exp(-np.maximum(x, _SIGMOID_FLOOR[x.dtype])))


def _checked_sizes(feature_sizes: Mapping[str, int]) -> dict[str, int]:
    """One actor's largest index per feature, in ``FEATURE_ORDER``; each must
    be an integer >= 1 (a stored ``Infinity`` is not one)."""
    missing = [name for name in FEATURE_ORDER if name not in feature_sizes]
    if missing:
        raise ValueError(f"feature_sizes missing {missing}")
    sizes = {}
    for name in FEATURE_ORDER:
        m = feature_sizes[name]
        if not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError(f"feature_sizes[{name!r}] must be an integer >= 1, got {m!r:.40}")
        sizes[name] = int(m)
    return sizes


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
    """The parameters of one or more autoencoders, laid out in one vector.

    It is built from each actor's ``feature_sizes`` and the shared
    ``hidden_dim``, ``code_dim`` and feature weights, and it is the only
    code that works out where a parameter sits. ``flat`` starts with one
    block per dense parameter, in ``_DENSE_KEYS`` order; a block holds that
    parameter of actor 0, then actor 1, and so on, each padded to
    ``width`` (default: the widest ``input_dim``). Each actor's embedding
    tables follow in turn, then one zero slot. A stack of one at its own
    width has no padding, so its ``flat`` without the zero slot is exactly
    a model's ``theta``.

    Column ``j`` of actor ``k``'s input reads
    ``flat[idx[f] * dim + base]`` through that column's feature ``f``,
    ``dim`` and ``base``. A padded column has dim 0 and the zero slot as its
    base, and belongs to no feature, so it reads 0, its gradient is exactly
    0 and it never moves.

    ``params`` holds the dense blocks as ``(actors, *shape)`` views and
    ``spans`` where each sits in ``flat``; ``segments`` is ``(actors,
    width, features)``, 1 where a column belongs to a feature; ``weights``
    holds the feature weights. ``flat``, ``segments`` and ``weights`` are
    in ``dtype``, and so is every array that ``forward`` and ``gradient``
    make from them: float64, except for ``train``'s bank, which is float32.
    ``stored_bytes``, when given, is the length of a stored ``theta`` for a
    stack of one; a layout of any other size is refused before ``flat`` is
    allocated.
    """

    def __init__(
        self,
        feature_sizes: Sequence[Mapping[str, int]],
        hidden_dim: int,
        code_dim: int,
        feature_weights: Mapping[str, float] | None = None,
        stored_bytes: int | None = None,
        dtype: type = np.float64,
        width: int | None = None,
    ):
        self.feature_sizes = [_checked_sizes(sizes) for sizes in feature_sizes]
        if hidden_dim < 1 or code_dim < 1:
            raise ValueError("hidden_dim and code_dim must be >= 1")
        dims = [[embedding_dim(m) for m in sizes.values()] for sizes in self.feature_sizes]
        self.input_dims = [sum(actor_dims) for actor_dims in dims]
        for input_dim in self.input_dims:
            if not code_dim < input_dim:
                raise ValueError(f"code_dim {code_dim} must be < input_dim {input_dim}")
        self.hidden_dim = hidden_dim
        self.code_dim = code_dim
        self.feature_weights = checked_weights(feature_weights)
        self.weights = np.array(list(self.feature_weights.values()), dtype=dtype)

        actors = len(dims)
        if width is None:
            width = max(self.input_dims)
        elif width < max(self.input_dims):
            raise ValueError(f"width {width} is below input_dim {max(self.input_dims)}")
        # (start, shape, size) of each dense block, shape and size per actor
        self._blocks: list[tuple[int, tuple[int, ...], int]] = []
        offset = 0
        for shape in _dense_shapes(hidden_dim, code_dim, width):
            size = math.prod(shape)
            self._blocks.append((offset, shape, size))
            offset += actors * size
        self._tables: list[list[tuple[int, int, int]]] = []  # per actor: (start, rows, dim)
        for sizes, actor_dims in zip(self.feature_sizes, dims):
            tables = []
            for m, dim in zip(sizes.values(), actor_dims):
                tables.append((offset, m + 1, dim))
                offset += (m + 1) * dim
            self._tables.append(tables)
        # a stored size can be far too large to allocate, so compare first
        if stored_bytes is not None and stored_bytes != 4 * offset:
            raise ValueError(
                f"theta length mismatch: stored {stored_bytes} bytes, expected "
                f"{offset} float32 values ({4 * offset} bytes)"
            )
        self.zero = offset
        self.flat = np.zeros(offset + 1, dtype=dtype)

        # Column maps, one row per actor: each column's feature, dim and base,
        # and the row of _SEGMENT_ROWS that says which feature it belongs to
        # (a padded column: the last row, all 0).
        feature, dim, base, segment = [], [], [], []
        for tables, input_dim in zip(self._tables, self.input_dims):
            for f, (start, _, d) in enumerate(tables):
                feature += [f] * d
                dim += [d] * d
                base += range(start, start + d)
                segment += [f] * d
            pad = width - input_dim
            feature += [0] * pad
            dim += [0] * pad
            base += [self.zero] * pad
            segment += [len(FEATURE_ORDER)] * pad
        maps = np.array(feature + dim + base + segment).reshape(4, actors, width)
        self._col_feature, self._col_dim, self._col_base = maps[:3]
        self.segments = _SEGMENT_ROWS.astype(dtype, copy=False)[maps[3]]
        self._max_index = np.array([list(sizes.values()) for sizes in self.feature_sizes])
        self._bind(actors)

    def _bind(self, actors: int) -> None:
        """Point ``params``, ``spans`` and the layers at the first ``actors`` actors."""
        spans, params = [], []
        for start, shape, size in self._blocks:
            spans.append(slice(start, start + actors * size))
            params.append(self.flat[spans[-1]].reshape(actors, *shape))
        self.spans, self.params = tuple(spans), tuple(params)
        w1, b1, w2, b2, w3, b3, head, head_bias = self.params
        # each layer's weights as the forward pass multiplies by them, and
        # its bias broadcast over rows
        self._layers = (
            (_transposed(w1), b1[:, None]),
            (_transposed(w2), b2[:, None]),
            (_transposed(w3), b3[:, None]),
            (_transposed(head), head_bias[:, None]),
        )

    def lead(self, actors: int) -> "_Stack":
        """The first ``actors`` actors, as views; each block's share is a prefix of it."""
        lead = copy.copy(self)
        lead.segments = self.segments[:actors]
        lead._bind(actors)
        return lead

    def views(self, k: int, vector: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Actor ``k``'s parameters in their own shapes, as views of a layout vector.

        ``vector`` is ``flat`` (the default), a model's ``theta`` or a
        gradient. Keys are ``w1`` to ``b3``, ``head`` (every feature's head,
        in feature order), ``head_bias`` and each feature name for its
        embedding table: m + 1 rows, row 0 for out-of-vocabulary values.
        Writing into a view writes the vector.
        """
        vector = self.flat if vector is None else vector
        actors = len(self.feature_sizes)
        own = _dense_shapes(self.hidden_dim, self.code_dim, self.input_dims[k])
        views = {}
        for key, (start, shape, size), own_shape in zip(_DENSE_KEYS, self._blocks, own):
            block = vector[start : start + actors * size].reshape(actors, *shape)
            views[key] = block[k][tuple(map(slice, own_shape))]
        for name, (start, rows, dim) in zip(FEATURE_ORDER, self._tables[k]):
            views[name] = vector[start : start + rows * dim].reshape(rows, dim)
        return views

    def clear(self, k: int) -> None:
        """Set every parameter of actor ``k`` to 0."""
        for view in self.views(k).values():
            view[...] = 0.0

    def positions(self, k: int, rows) -> np.ndarray:
        """Where in ``flat`` each column of actor ``k``'s index rows reads from.

        Raises:
            ValueError: ``rows`` is not a 2-D integer array with 8 columns,
                or holds an index outside its feature's size.
        """
        idx = _check_rows(rows)
        bad = (idx < 0) | (idx > self._max_index[k])
        if bad.any():
            f, row = np.argwhere(bad.T)[0]  # first feature with a bad index
            name = FEATURE_ORDER[f]
            raise ValueError(
                f"{name}: index {idx[row, f]} outside [0, {self.feature_sizes[k][name]}]"
            )
        return idx[:, self._col_feature[k]] * self._col_dim[k] + self._col_base[k]

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
        pp, gg = p * p, g * g
        denom = (pp + gg) @ self.segments
        dice = 2.0 * ((p * g) @ self.segments) / denom
        dissim = 1.0 - dice
        losses = dissim @ self.weights

        return {
            "pos": pos,
            "x": x,
            "a1": a1,
            "h": h,
            "a3": a3,
            "p": p,
            "g": g,
            "pp": pp,
            "gg": gg,
            "denom": denom,
            "dice": dice,
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
        # d(weighted loss)/d(dissim_f) per event
        coef = row_weight[..., None] * self.weights

        # d(1 - dice)/dp = a*p - b*g and d(1 - dice)/dg = a*g - b*p for
        # dice = 2*overlap/denom, with b = 2/denom and a = b*dice per feature,
        # scaled by coef and spread to columns (a padded column belongs to no
        # feature and gets 0); a sigmoid s has derivative s - s*s
        per_feature = 2.0 * coef / cache["denom"]
        spread = _transposed(self.segments)
        a = (per_feature * cache["dice"]) @ spread
        b = per_feature @ spread
        p, g = cache["p"], cache["g"]
        d_r = (a * p - b * g) * (p - cache["pp"])
        d_emb = (a * g - b * p) * (g - cache["gg"])

        x, a3, h, a1 = cache["x"], cache["a3"], cache["h"], cache["a1"]
        d_z3 = (d_r @ head) * (1.0 - a3 * a3)
        d_z2 = (d_z3 @ w3) * (1.0 - h * h)
        d_z1 = (d_z2 @ w2) * (1.0 - a1 * a1)
        # Both embedding routes, the reconstruction target and the input,
        # land on the entries the batch gathered; bincount sums repeated ones.
        d_emb += d_z1 @ w1
        # bincount sums in float64 whatever its weights' dtype
        grad = np.bincount(
            cache["pos"].ravel(), weights=d_emb.ravel(), minlength=self.flat.size
        ).astype(self.flat.dtype, copy=False)
        # bias gradients sum over rows, as a matmul
        ones = np.ones((1, x.shape[1]), dtype=self.flat.dtype)
        dense = (  # w1 b1 w2 b2 w3 b3 head head_bias, in layout order
            _transposed(d_z1) @ x, ones @ d_z1,
            _transposed(d_z2) @ a1, ones @ d_z2,
            _transposed(d_z3) @ h, ones @ d_z3,
            _transposed(d_r) @ a3, ones @ d_r,
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
    with the dice dissimilarity and sums the features' dissimilarities,
    each times its weight in ``feature_weights`` (1.0 when not given).

    A model is a stack of one: ``theta`` holds every parameter, as the
    stack's ``flat`` without its zero slot, and ``_stack.views(0)`` names
    them (``w1`` to ``b3``, ``head`` with the H_f stacked in feature order,
    ``head_bias`` with the c_f, and one embedding table per feature). Write
    parameters in place (``view[...] = values``).
    """

    def __init__(
        self,
        actor_id: str,
        feature_sizes: Mapping[str, int],
        *,
        hidden_dim: int = 16,
        code_dim: int = 8,
        seed: int = 0,
        feature_weights: Mapping[str, float] | None = None,
    ):
        self._adopt(
            actor_id,
            _Stack([feature_sizes], hidden_dim, code_dim, feature_weights),
        )

        # Initial values: one generator per embedding table (entries uniform
        # in [-0.05, 0.05]), then one for w1, w2, w3 and the heads in feature
        # order. Trained models and the acceptance figures depend on this
        # order; keep it.
        seeds = np.random.SeedSequence(seed).generate_state(len(FEATURE_ORDER) + 1)
        views = self._stack.views(0)
        for name, child_seed in zip(FEATURE_ORDER, seeds):
            table = views[name]
            table[...] = np.random.default_rng(int(child_seed)).uniform(
                -0.05, 0.05, size=table.shape
            )

        rng = np.random.default_rng(int(seeds[-1]))

        def glorot(weights: np.ndarray) -> None:
            fan_out, fan_in = weights.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights[...] = rng.uniform(-limit, limit, size=weights.shape)

        glorot(views["w1"])
        glorot(views["w2"])
        glorot(views["w3"])
        start = 0
        for name in FEATURE_ORDER:
            width = views[name].shape[1]
            glorot(views["head"][start : start + width])
            start += width
        # a model holds float32 values, as training and storage keep them
        self.theta[...] = self.theta.astype(np.float32)

    def _adopt(self, actor_id: str, stack: _Stack) -> None:
        """Take ``stack``, a stack of one, as this model's parameters."""
        self.actor_id = actor_id
        self._stack = stack
        self.theta = stack.flat[: stack.zero]
        self.feature_sizes = stack.feature_sizes[0]
        self.feature_weights = stack.feature_weights
        self.hidden_dim = stack.hidden_dim
        self.code_dim = stack.code_dim
        self.input_dim = stack.input_dims[0]
        self.train_mu: float | None = None
        self.train_sigma: float | None = None
        self.chosen_n: float | None = None
        self.epoch_losses: list[float] = []

    def losses(self, rows) -> np.ndarray:
        """Loss of every index row, in input order."""
        return self._stack.forward(self._stack.positions(0, rows)[None])["losses"][0]

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-type snapshot of every parameter and training statistic.

        ``theta`` is stored whole as lowercase hex of its little-endian
        float32 bytes; the layout scalars beside it say how to read it back.
        Every model holds float32 values widened to float64 (its initial
        values are rounded to float32, and ``train`` copies its result out
        of the float32 bank), so the narrowing loses nothing: each value
        widens back to the same 64 bits.

        Raises:
            ValueError: a value of ``theta`` is NaN or infinite, or does not
                survive that round trip (``np.pi`` as float64, a float64
                subnormal), so a stored model would differ from this one.
        """
        _check_finite_theta(self.theta)
        with np.errstate(over="ignore"):  # refused just below
            narrow = self.theta.astype("<f4")
        widened = narrow.astype(np.float64)
        changed = widened.view(np.uint64) != self.theta.view(np.uint64)
        if changed.any():
            at = int(np.argmax(changed))
            raise ValueError(
                f"theta[{at}] = {self.theta[at]!r} is not a float32 value; "
                f"a stored model holds float32 parameters"
            )
        return {
            "actor_id": self.actor_id,
            "feature_sizes": dict(self.feature_sizes),
            "feature_weights": dict(self.feature_weights),
            "hidden_dim": self.hidden_dim,
            "code_dim": self.code_dim,
            "theta": narrow.tobytes().hex(),
            "train_mu": self.train_mu,
            "train_sigma": self.train_sigma,
            "chosen_n": self.chosen_n,
            "epoch_losses": list(self.epoch_losses),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Autoencoder":
        """Rebuild a model from ``to_state`` output.

        ``theta`` is read as little-endian float32 and widened exactly, so
        the model's ``theta`` is float64 in memory and holds the values
        ``to_state`` narrowed.

        Raises:
            ValueError: ``theta`` is not a hex string (``binascii.unhexlify``
                refuses whitespace, an odd length and a non-hex digit), or
                its byte length differs from the one that ``feature_sizes``,
                ``hidden_dim`` and ``code_dim`` imply (checked before the
                layout is allocated, so a huge stored size costs nothing),
                or a value of ``theta`` is NaN or infinite, or a feature
                weight names no feature or is not a finite number >= 0, or
                ``epoch_losses`` is not a list of numbers.
        """
        try:
            blob = binascii.unhexlify(state["theta"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"theta is not hex: {exc}") from None
        model = cls.__new__(cls)
        model._adopt(
            state["actor_id"],
            _Stack(
                [state["feature_sizes"]],
                state["hidden_dim"],
                state["code_dim"],
                state["feature_weights"],
                stored_bytes=len(blob),
            ),
        )
        stored = np.frombuffer(blob, "<f4")
        _check_finite_theta(stored)  # before widening, which warns on a signalling NaN
        model.theta[...] = stored
        model.train_mu = state.get("train_mu")
        model.train_sigma = state.get("train_sigma")
        model.chosen_n = state.get("chosen_n")
        model.epoch_losses = state.get("epoch_losses", [])
        if not is_number_list(model.epoch_losses):
            raise ValueError("epoch_losses must be a list of numbers")
        return model


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


def _cpu_count() -> int:
    """How many CPUs this process may run on: the size of its affinity mask,
    or 1 where the platform has no ``sched_getaffinity``."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _split(counts: Sequence[int], groups: int) -> list[list[int]]:
    """Positions into ``counts`` (row counts, most first) in ``groups``
    groups of about equal row totals: each position joins the group with the
    fewest rows so far, so each group lists its positions most rows first."""
    members: list[list[int]] = [[] for _ in range(groups)]
    totals = [0] * groups
    for k, count in enumerate(counts):
        g = totals.index(min(totals))
        members[g].append(k)
        totals[g] += count
    return members


def _shared(array: np.ndarray) -> np.ndarray:
    """A copy of ``array`` in anonymous shared memory, which forked workers share."""
    shared = np.frombuffer(mmap.mmap(-1, array.nbytes), array.dtype).reshape(array.shape)
    shared[...] = array
    return shared


class _Group:
    """The jobs that one process fits: their bank and the SGD loop's state.

    The jobs come most rows first, so batch ``b`` of an epoch runs on a
    leading slice of the bank: the jobs that still have rows. ``fit``
    writes the bank's ``flat``, each job's summed batch losses per epoch
    and the epoch in which each job's batch loss went non-finite (0 for
    none); these, and ``error`` for a worker's exception, are shared memory.

    ``width`` and ``longest`` are the call's widest ``input_dim`` and its
    longest job's row count: every batch gets as many rows as that job gives
    it, as in a one-process fit, so every array of a job's step has the same
    shape in any split.
    """

    def __init__(
        self,
        models: Sequence[Autoencoder],
        rows: Sequence[np.ndarray],
        seeds: Sequence[int],
        config: TrainConfig,
        width: int,
        longest: int,
    ):
        self.config = config
        self.longest = longest
        self.bank = _Stack(
            [model.feature_sizes for model in models],
            config.hidden_dim, config.code_dim, config.feature_weights,
            dtype=np.float32, width=width,
        )
        self.bank.flat = _shared(self.bank.flat)
        self.bank._bind(len(models))
        for k, model in enumerate(models):
            _copy(self.bank.views(k), model._stack.views(0))
        self.counts = np.array([len(actor_rows) for actor_rows in rows])
        self.rngs = [
            np.random.default_rng(np.random.SeedSequence([seed, len(actor_rows)]))
            for seed, actor_rows in zip(seeds, rows)
        ]
        # Every job's gather positions, then one padding row of zero slots.
        self.table = np.concatenate(
            [self.bank.positions(k, actor_rows) for k, actor_rows in enumerate(rows)]
            + [np.full((1, width), self.bank.zero)]
        )
        self.loss_sums = _shared(np.zeros((config.epochs, len(models))))
        self.diverged = _shared(np.zeros(len(models), dtype=np.int64))
        self.error = mmap.mmap(-1, 512)

    def fit(self) -> None:
        """Run every epoch."""
        config, bank, counts = self.config, self.bank, self.counts
        size = config.batch_size
        batches = -(-counts // size)
        first_row = np.concatenate([[0], np.cumsum(counts)])
        # epoch_rows[k] is job k's epoch: its permuted table rows, then the
        # padding row; batch b is a slice of its columns.
        epoch_rows = np.full((len(counts), batches[0] * size), len(self.table) - 1)

        # per batch: the bank's leading slice, columns, row weights, 0/1 real-row mask
        steps = []
        for b in range(batches[0]):
            live = np.clip(counts - b * size, 0, size)[: np.count_nonzero(batches > b), None]
            real = (np.arange(min(size, self.longest - b * size)) < live).astype(np.float32)
            columns = slice(b * size, b * size + real.shape[1])
            steps.append((bank.lead(len(live)), columns, (real / live).astype(np.float32), real))

        flat = bank.flat
        for epoch in range(config.epochs):
            for k, rng in enumerate(self.rngs):
                epoch_rows[k, : counts[k]] = first_row[k] + rng.permutation(counts[k])
            for stack, columns, weight, real in steps:
                pos = self.table[epoch_rows[: real.shape[0], columns]]
                cache = stack.forward(pos)
                sums = (cache["losses"] * real).sum(axis=1)
                if not np.isfinite(sums).all():
                    # Zero the diverged jobs, so that no NaN reaches a gradient
                    # (a weight of 0 would not do: 0 * NaN is NaN), and rerun.
                    for k in np.flatnonzero(~np.isfinite(sums)).tolist():
                        self.diverged[k] = epoch + 1
                        bank.clear(k)
                        for _, _, w, r in steps[: batches[k]]:
                            w[k] = 0.0
                            r[k] = 0.0
                    cache = stack.forward(pos)
                    sums = (cache["losses"] * real).sum(axis=1)
                self.loss_sums[epoch, : len(sums)] += sums
                flat -= config.learning_rate * stack.gradient(cache, weight)


def _work(group: _Group) -> NoReturn:
    """A forked worker: fit ``group`` in place and exit, with status 1 and
    its exception's type and message in ``group.error`` if the fit raises."""
    status = 1
    try:
        group.fit()
        status = 0
    except BaseException as exc:
        text = f"{type(exc).__name__}: {exc}".encode(errors="replace")[: len(group.error)]
        group.error[: len(text)] = text
    finally:
        os._exit(status)


def _fit_all(groups: Sequence[_Group]) -> None:
    """Fit group 0 in this process and each other group in a forked worker.

    If this process fails first (its fit raises, a fork fails, an
    interrupt), it kills every worker it started before reaping them.

    Raises:
        RuntimeError: a worker raised, exited with a non-zero status or was
            killed by a signal.
    """
    pids: list[int] = []
    try:
        for group in groups[1:]:
            pid = os.fork()
            if pid == 0:
                _work(group)
            pids.append(pid)
        groups[0].fit()
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status, group in zip(pids, statuses, groups[1:]):
        code = os.waitstatus_to_exitcode(status)
        if code == 0:
            continue
        # code is -N for signal N; most real-time signals have no name
        killed = {-sig.value: f"was killed by {sig.name}" for sig in signal.Signals}
        why = killed.get(code, f"exited with status {code}")
        error = group.error[:].rstrip(b"\0").decode(errors="replace")
        raise RuntimeError(f"training worker {pid} {why}" + (f": {error}" if error else ""))


def train(
    jobs: Sequence[TrainJob], config: TrainConfig
) -> list[Autoencoder | TrainingDivergedError]:
    """Fit one autoencoder per job by mini-batch SGD, the jobs in groups.

    Every job gets the model, seed, per-epoch permutation stream, batch
    count and per-batch mean loss it would get alone, so its fit equals a
    one-job ``train`` up to float32 roundoff; the jobs of a group only share
    the numpy calls. The jobs are split into ``min(CPUs, jobs)`` groups of
    about equal row totals, where CPUs is the size of the process's affinity
    mask (1 where the platform does not have one). This process fits group
    0, and one forked worker fits each other group; ``taskset`` or a cpuset
    limits their number. Each group's jobs share one float32 ``_Stack``, a
    bank: each model starts as its own float64 stack of one and is copied
    in through the bank's views of its actor (exactly, as its initial values
    are float32). Every bank is padded to the call's widest ``input_dim``,
    and every batch to the rows it has in a one-process fit, so the models
    are bit-identical however the jobs are split. A worker runs only the SGD
    loop, in its group's shared memory; this process copies each trained
    model out (widened exactly) and computes its statistics. Within a bank,
    jobs are stacked by row count, most first, so batch ``b`` of an epoch
    runs on a leading slice of the stack: only the jobs that still have
    rows. A batch short for some of them pads their rows with weight 0.

    Embedding rows are parameters: each step updates them together with the
    layer weights. After the last epoch a model's ``train_mu`` and
    ``train_sigma`` are the mean and population standard deviation of its
    final per-event losses over its whole dataset, computed in float64 as
    scoring computes them, and ``epoch_losses`` holds one mean loss per epoch.

    Returns:
        One result per job, in job order: the trained model, or a
        ``TrainingDivergedError`` naming the epoch in which that job's batch
        loss went non-finite. A diverged job's parameters and row weights
        are set to 0 for the rest of the loop, and the other jobs carry on.

    Raises:
        ValueError: a job's rows are not a 2-D integer array with 8 columns,
            are empty, or hold an index outside its feature's size.
        RuntimeError: a worker raised, exited with a non-zero status or was
            killed by a signal.
    """
    models, indices = [], []
    for job in jobs:
        rows = _check_rows(job.rows)
        if rows.shape[0] == 0:
            raise ValueError(f"dataset of {job.actor_id!r} is empty")
        models.append(
            Autoencoder(
                job.actor_id,
                job.feature_sizes,
                hidden_dim=config.hidden_dim,
                code_dim=config.code_dim,
                seed=job.seed,
                feature_weights=config.feature_weights,
            )
        )
        indices.append(rows)
    if not models:
        return []

    # Jobs by row count, most first; each group keeps that order.
    order = sorted(range(len(models)), key=lambda j: -len(indices[j]))
    counts = [len(indices[j]) for j in order]
    width = max(model.input_dim for model in models)
    members = [
        [order[k] for k in group] for group in _split(counts, min(_cpu_count(), len(models)))
    ]
    groups = [
        _Group(
            [models[j] for j in group], [indices[j] for j in group],
            [jobs[j].seed for j in group], config, width, counts[0],
        )
        for group in members
    ]
    _fit_all(groups)

    results: list[Autoencoder | TrainingDivergedError] = list(models)
    for group, fitted in zip(members, groups):
        for k, j in enumerate(group):
            if fitted.diverged[k]:
                results[j] = TrainingDivergedError(
                    f"non-finite loss in epoch {fitted.diverged[k]}"
                )
                continue
            model = models[j]
            _copy(model._stack.views(0), fitted.bank.views(k))
            model.epoch_losses = (fitted.loss_sums[:, k] / fitted.counts[k]).tolist()
            final_losses = model.losses(indices[j])
            model.train_mu = float(final_losses.mean())
            model.train_sigma = float(final_losses.std())
    return results


def _copy(target: Mapping[str, np.ndarray], source: Mapping[str, np.ndarray]) -> None:
    """Write each of ``source``'s named views into ``target``'s view of that name."""
    for key, view in target.items():
        view[...] = source[key]


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
    pos = model._stack.positions(0, np.asarray(row)[None])[None]
    analytic, numeric = _finite_differences(model._stack, pos, np.ones((1, 1)), epsilon)
    return float(_relative_error(analytic, numeric).max())
