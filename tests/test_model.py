"""Tests for the per-actor autoencoder: loss plumbing, gradients, training."""

from __future__ import annotations

import base64
import copy
import json
import errno
import math
import os
import signal
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loginwatch.encoding import FEATURE_ORDER, embedding_dim
from loginwatch.model import (
    Autoencoder,
    TrainConfig,
    TrainingDivergedError,
    TrainJob,
    _copy,
    _Group,
    _finite_differences,
    _relative_error,
    _sigmoid,
    _Stack,
    dice_coefficient,
    gradient_check,
    train,
)
from loginwatch.workers import cpu_count

SIZES = {
    "geohash": 3,
    "app_id": 3,
    "known_app": 1,
    "outcome": 2,
    "event_hour": 24,
    "weekday": 7,
    "client_os": 2,
    "client_device": 2,
}


def random_rows(count: int, seed: int) -> np.ndarray:
    """``count`` random index rows within SIZES, one draw per feature in order."""
    rng = np.random.default_rng(seed)
    bounds = [
        (0, SIZES["geohash"] + 1),
        (0, SIZES["app_id"] + 1),
        (0, 2),
        (0, SIZES["outcome"] + 1),
        (1, 25),
        (1, 8),
        (0, SIZES["client_os"] + 1),
        (0, SIZES["client_device"] + 1),
    ]
    rows = [
        [int(rng.integers(low, high)) for low, high in bounds] for _ in range(count)
    ]
    return np.array(rows, dtype=np.int64).reshape(count, len(FEATURE_ORDER))


def fit(
    rows, config: TrainConfig, sizes=SIZES, actor_id: str = "u1", seed: int = 0
) -> Autoencoder:
    """The model of a one-job ``train`` call."""
    (model,) = train([TrainJob(actor_id, rows, sizes, seed)], config)
    assert isinstance(model, Autoencoder), model
    return model


def views(model: Autoencoder, vector=None) -> dict:
    """Named views of ``model``'s parameters in ``vector`` (default: its own)."""
    return model._stack.views(0, vector)


def feature_columns(model: Autoencoder) -> dict[str, slice]:
    """Each feature's columns in x, in the reconstruction and in ``head``."""
    tables = views(model)
    columns, start = {}, 0
    for name in FEATURE_ORDER:
        width = tables[name].shape[1]
        columns[name] = slice(start, start + width)
        start += width
    return columns


def analytic_gradient(model: Autoencoder, rows) -> np.ndarray:
    """Gradient of the mean loss of ``rows``, in the layout of the model's stack."""
    pos = model._stack.positions(0, rows)[None]
    weight = np.full(pos.shape[:2], 1.0 / pos.shape[1])
    return model._stack.gradient(model._stack.forward(pos), weight)


def oracle_dissim(rec_row: np.ndarray, emb_row: np.ndarray) -> float:
    """Per-feature dissimilarity recomputed with scalar math."""
    p = [1.0 / (1.0 + math.exp(-v)) for v in rec_row.tolist()]
    g = [1.0 / (1.0 + math.exp(-v)) for v in emb_row.tolist()]
    overlap = sum(a * b for a, b in zip(p, g))
    denom = sum(a * a for a in p) + sum(b * b for b in g)
    return 1.0 - 2.0 * overlap / denom


def reference_forward(model: Autoencoder, row) -> tuple[dict, dict]:
    """Each feature's reconstruction and input embedding for one index row.

    Recomputed one matrix-vector product at a time from the named views of
    ``theta``, independently of the stacked forward pass.
    """
    params = views(model)
    emb = {name: params[name][int(index)] for name, index in zip(FEATURE_ORDER, row)}
    x = np.concatenate([emb[name] for name in FEATURE_ORDER])
    a1 = np.tanh(params["w1"] @ x + params["b1"])
    h = np.tanh(params["w2"] @ a1 + params["b2"])
    a3 = np.tanh(params["w3"] @ h + params["b3"])
    out = params["head"] @ a3 + params["head_bias"]
    rec, start = {}, 0
    for name in FEATURE_ORDER:
        rec[name] = out[start : start + emb[name].size]
        start += emb[name].size
    return rec, emb


def theta_blob(values) -> str:
    """``values`` as a stored ``theta``: hex of little-endian float32."""
    return np.asarray(values, dtype="<f4").tobytes().hex()


# Stored hex ``theta`` strings that the strict ``binascii.unhexlify`` refuses.
# ``bytes.fromhex`` would read the whitespace case as the original bytes.
THETA_DAMAGE = {
    "odd_length": lambda theta: theta[:-1],
    "not_hex_digit": lambda theta: theta[:8] + "g" + theta[9:],
    "embedded_whitespace": lambda theta: theta[:8] + " \n" + theta[8:],
}


def parameter_span(model: Autoencoder, key: str) -> slice:
    """Where parameter ``key`` sits in ``theta``.

    ``key`` is a layout key (``w1`` ... ``b3``) or ``heads.<feature>``,
    ``head_biases.<feature>`` or ``embeddings.<feature>`` for one feature's
    block.
    """
    where = views(model, np.arange(model.theta.size))  # each entry's own position
    part, _, feature = key.partition(".")
    if not feature:
        at = where[key]
    elif part == "embeddings":
        at = where[feature]
    else:
        at = where["head" if part == "heads" else "head_bias"][feature_columns(model)[feature]]
    return slice(int(at.min()), int(at.max()) + 1)


def spliced_blob(model: Autoencoder, key: str, value) -> str:
    """``model``'s stored ``theta`` with parameter ``key`` replaced by ``value``."""
    span = parameter_span(model, key)
    theta = model.theta
    parts = [theta[: span.start], np.ravel(value), theta[span.stop :]]
    return theta_blob(np.concatenate(parts))


class TestDiceCoefficient:
    def test_identical_vectors_give_one(self):
        v = np.array([0.3, 0.7, 0.1])
        assert dice_coefficient(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors_give_zero(self):
        assert dice_coefficient(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_partial_overlap(self):
        # 2*1 / (2 + 1) = 2/3
        got = dice_coefficient(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(2.0 / 3.0)

    def test_scale_sensitivity(self):
        # v against 2v: 2*2|v|^2 / (|v|^2 + 4|v|^2) = 4/5
        v = np.array([0.2, -0.4, 0.6])
        assert dice_coefficient(v, 2 * v) == pytest.approx(0.8)

    def test_both_all_zero_is_one(self):
        z = np.zeros(4)
        assert dice_coefficient(z, z) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            assert dice_coefficient(a, b) == pytest.approx(dice_coefficient(b, a))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dice_coefficient(np.zeros(3), np.zeros(4))


class TestSigmoid:
    @settings(max_examples=150)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    @example([0.0, -0.0, 5e-324, -5e-324, 36.8, 37.0, 700.0, 1e308, -1e308])
    @example([-699.9, -700.0, -700.1, -745.2, -800.0, -37.0, -1e-300])
    def test_one_exp_form(self, values):
        x = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow or 0/0 would warn
            s = _sigmoid(x)
        assert ((s >= 0.0) & (s <= 1.0)).all()
        assert (s > 0.0).all()  # clamped at -700, so it never reaches 0
        # x >= 0 takes the textbook form's exact steps; the same array shape
        # keeps numpy's exp on the same code path for both
        nonneg = x >= 0
        textbook = 1.0 / (1.0 + np.exp(-np.where(nonneg, x, 0.0)))
        assert np.array_equal(s[nonneg], textbook[nonneg])
        for value, got in zip(x.tolist(), s.tolist()):
            if -700.0 <= value < 0.0:
                expected = 1.0 / (1.0 + math.exp(-value))
                assert abs(got - expected) <= 4 * math.ulp(expected), value

    @pytest.mark.parametrize("dtype, floor", [(np.float32, -80.0), (np.float64, -700.0)])
    def test_clamp_fits_the_dtype(self, dtype, floor):
        # float32 exp overflows above 88.7, so the float64 floor would warn there
        x = np.array([-1e4, np.nextafter(floor, -np.inf), floor, 0.0, -floor, 1e4], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = _sigmoid(x)
        assert s.dtype == dtype
        assert ((s > 0.0) & (s <= 1.0)).all()
        assert s[0] == s[1] == s[2]  # clamped at the floor
        assert s[-1] == 1.0


class TestForward:
    def test_event_loss_matches_scalar_recomputation(self):
        model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=3)
        for row in random_rows(5, seed=9):
            rec, emb = reference_forward(model, row)
            expected = sum(oracle_dissim(rec[n], emb[n]) for n in FEATURE_ORDER)
            assert model.losses(row[None])[0] == pytest.approx(expected, rel=1e-10)

    def test_feature_weights_scale_sum_terms(self):
        weights = {"geohash": 2.0, "app_id": 0.5, "client_os": 0.0}
        model = Autoencoder(
            "u1", SIZES, hidden_dim=6, code_dim=4, seed=3, feature_weights=weights
        )
        row = random_rows(1, seed=4)[0]
        rec, emb = reference_forward(model, row)
        expected = 0.0
        for name in FEATURE_ORDER:
            expected += weights.get(name, 1.0) * oracle_dissim(rec[name], emb[name])
        assert model.losses(row[None])[0] == pytest.approx(expected, rel=1e-10)

    def test_head_widths_match_embeddings(self):
        model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=0)
        params = views(model)
        widths = [params[name].shape[1] for name in FEATURE_ORDER]
        assert model.input_dim == sum(widths)
        assert params["head"].shape == (model.input_dim, model.hidden_dim)
        assert params["head_bias"].shape == (model.input_dim,)
        # each feature owns as many columns of the input and the heads as its table is wide
        assert model._stack.segments[0].sum(axis=0).tolist() == widths

    def test_losses_matches_per_event_loop(self):
        model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=7)
        rows = random_rows(40, seed=8)
        batched = model.losses(rows)
        single = np.array([model.losses(row[None])[0] for row in rows])
        assert batched == pytest.approx(single, rel=1e-10)

    def test_losses_empty_input(self):
        model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=7)
        empty = np.zeros((0, len(FEATURE_ORDER)), dtype=np.int64)
        assert model.losses(empty).shape == (0,)

    def test_out_of_range_index_rejected(self):
        model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=0)
        row = [SIZES["geohash"] + 1, 0, 0, 0, 1, 1, 0, 0]  # in FEATURE_ORDER
        with pytest.raises(ValueError, match="geohash"):
            model.losses([row])

    @pytest.mark.parametrize(
        "rows",
        [
            np.ones((4, 8), dtype=float),
            np.ones((4, 8), dtype=bool),
            np.ones(8, dtype=np.int64),
            np.ones((4, 7), dtype=np.int64),
        ],
        ids=["float", "bool", "1-D", "7-column"],
    )
    def test_bad_rows_rejected(self, rows):
        # a float matrix would otherwise be truncated to indices silently
        model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=0)
        with pytest.raises(ValueError, match="2-D integer array with 8 columns"):
            model.losses(rows)
        with pytest.raises(ValueError, match="2-D integer array with 8 columns"):
            train([TrainJob("u1", rows, SIZES, 0)], TrainConfig(epochs=1))


class TestConstruction:
    def test_code_must_be_narrower_than_input(self):
        tiny = {name: 1 for name in FEATURE_ORDER}
        # every vocab of 1 embeds in 1 dimension, input width 8
        with pytest.raises(ValueError, match="code_dim"):
            Autoencoder("u1", tiny, hidden_dim=8, code_dim=8)
        model = Autoencoder("u1", tiny, hidden_dim=8, code_dim=7)
        assert model.input_dim == 8

    def test_missing_feature_size_rejected(self):
        sizes = dict(SIZES)
        del sizes["weekday"]
        with pytest.raises(ValueError, match="weekday"):
            Autoencoder("u1", sizes)

    def test_embedding_tables_have_oov_rows(self):
        model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=0)
        for name in FEATURE_ORDER:
            table = views(model)[name]
            assert table.shape == (SIZES[name] + 1, embedding_dim(SIZES[name]))
            assert np.all(np.abs(table) <= 0.05)

    def test_embedding_init_range_and_determinism(self):
        def tables(seed: int) -> np.ndarray:
            model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=seed)
            params = views(model)
            return np.concatenate([params[name].ravel() for name in FEATURE_ORDER])

        a, b, c = tables(11), tables(11), tables(12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(np.abs(a) <= 0.05)
        # values spread across the range rather than collapsing near zero
        assert np.abs(a).max() > 0.04

    def test_seed_controls_init(self):
        rows = random_rows(10, seed=0)
        a = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=1)
        b = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=1)
        c = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=2)
        assert np.array_equal(a.losses(rows), b.losses(rows))
        assert not np.array_equal(a.losses(rows), c.losses(rows))


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_analytic_matches_finite_differences(self, seed):
        model = Autoencoder("u1", SIZES, hidden_dim=5, code_dim=3, seed=seed)
        row = random_rows(1, seed=seed + 100)[0]
        assert gradient_check(model, row) < 1e-4

    def test_weighted_gradients(self):
        model = Autoencoder(
            "u1",
            SIZES,
            hidden_dim=5,
            code_dim=3,
            seed=5,
            feature_weights={"geohash": 3.0, "outcome": 0.25},
        )
        row = random_rows(1, seed=50)[0]
        assert gradient_check(model, row) < 1e-4

    def test_untouched_embedding_rows_get_zero_gradient(self):
        model = Autoencoder("u1", SIZES, hidden_dim=5, code_dim=3, seed=6)
        row = random_rows(1, seed=60)[0]
        grads = views(model, analytic_gradient(model, row[None]))
        for name, used in zip(FEATURE_ORDER, row):
            table = grads[name]
            for row in range(table.shape[0]):
                if row == used:
                    assert np.any(table[row] != 0.0)
                else:
                    assert np.all(table[row] == 0.0)

    def test_zero_weight_silences_head_gradient(self):
        model = Autoencoder(
            "u1", SIZES, hidden_dim=5, code_dim=3, seed=7,
            feature_weights={"client_os": 0.0},
        )
        row = random_rows(1, seed=70)[0]
        grads = views(model, analytic_gradient(model, row[None]))
        cols = feature_columns(model)["client_os"]
        assert np.all(grads["head"][cols] == 0.0)
        assert np.all(grads["head_bias"][cols] == 0.0)
        # the feature still feeds the encoder, so its embedding gradient survives
        assert np.any(grads["client_os"] != 0.0)


class TestTraining:
    def test_memorizes_a_single_pattern(self):
        row = random_rows(1, seed=11)[0]
        dataset = np.tile(row, (32, 1))
        config = TrainConfig(epochs=300, batch_size=32, learning_rate=0.1)
        model = fit(dataset, config)
        assert model.epoch_losses[-1] < 0.01
        assert model.epoch_losses[-1] < model.epoch_losses[0]

    def test_epoch_losses_and_stats_recorded(self):
        rows = random_rows(64, seed=12)
        model = fit(rows, TrainConfig(epochs=5), seed=1)
        assert len(model.epoch_losses) == 5
        assert model.train_mu is not None
        assert model.train_sigma is not None
        assert model.train_sigma >= 0.0
        final = model.losses(rows)
        assert model.train_mu == pytest.approx(float(final.mean()))
        assert model.train_sigma == pytest.approx(float(final.std()))

    def test_deterministic_given_seed(self):
        rows = random_rows(48, seed=13)
        config = TrainConfig(epochs=4)
        a = fit(rows, config, seed=9)
        b = fit(rows, config, seed=9)
        assert a.epoch_losses == b.epoch_losses
        assert np.array_equal(a.losses(rows), b.losses(rows))
        c = fit(rows, config, seed=10)
        assert not np.array_equal(a.losses(rows), c.losses(rows))

    def test_empty_dataset_rejected(self):
        empty = np.zeros((0, len(FEATURE_ORDER)), dtype=np.int64)
        with pytest.raises(ValueError, match="empty"):
            train([TrainJob("u1", empty, SIZES, 0)], TrainConfig())

    def test_index_beyond_declared_size_rejected(self):
        rows = random_rows(4, seed=14)
        sizes = dict(SIZES)
        sizes["event_hour"] = 1
        with pytest.raises(ValueError, match="event_hour"):
            train([TrainJob("u1", rows, sizes, 0)], TrainConfig(epochs=1))

    def test_non_finite_loss_reported_with_its_epoch(self, monkeypatch):
        rows = random_rows(8, seed=16)
        forward = _Stack.forward
        calls = []

        def poisoned_forward(stack, pos):
            calls.append(1)
            if len(calls) == 1:
                stack.params[0][0, 0, 0] = np.nan  # w1 of the one job
            return forward(stack, pos)

        monkeypatch.setattr(_Stack, "forward", poisoned_forward)
        (result,) = train([TrainJob("u1", rows, SIZES, 0)], TrainConfig(epochs=2))
        assert isinstance(result, TrainingDivergedError)
        assert "epoch 1" in str(result)


# Vocabularies that give the bank jobs of different input_dim: 31, 28 and 13.
WIDE_SIZES = {**SIZES, "geohash": 9}
COARSE_SIZES = {**SIZES, "event_hour": 1, "weekday": 1}


def rows_within(sizes, count: int, seed: int) -> np.ndarray:
    """``count`` random index rows, each column within its feature's size."""
    rng = np.random.default_rng(seed)
    highs = [sizes[name] + 1 for name in FEATURE_ORDER]
    return np.stack([rng.integers(0, high, size=count) for high in highs], axis=1)


def assert_same_fit(bank_model: Autoencoder, solo: Autoencoder) -> None:
    assert bank_model.actor_id == solo.actor_id
    assert np.allclose(bank_model.theta, solo.theta, rtol=0.0, atol=1e-12)
    assert np.allclose(bank_model.epoch_losses, solo.epoch_losses, rtol=0.0, atol=1e-12)
    assert bank_model.train_mu == pytest.approx(solo.train_mu, rel=0.0, abs=1e-12)
    assert bank_model.train_sigma == pytest.approx(solo.train_sigma, rel=0.0, abs=1e-12)


def ufunc_logging_array(log: list) -> type:
    """An ndarray subclass that logs ``(ufunc, dtype)`` of every ufunc result
    it takes part in (matmul and reductions included) and hands itself on to
    that result, so every array computed from it is logged in turn."""

    class Logged(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            def plain(arrays):
                return tuple(a.view(np.ndarray) if isinstance(a, Logged) else a for a in arrays)

            if "out" in kwargs:
                kwargs["out"] = plain(kwargs["out"])
            result = getattr(ufunc, method)(*plain(inputs), **kwargs)
            log.append((f"{ufunc.__name__}.{method}", result.dtype))
            return result.view(Logged)

    return Logged


class TestBank:
    """Several jobs in one ``train`` call fit as each would alone."""

    def jobs(self) -> list[TrainJob]:
        # 70 rows: 3 batches, the last one partial; 40 rows: 2 batches;
        # 100 rows: 4 batches; 20 rows: 1 partial batch
        return [
            TrainJob("wide", rows_within(WIDE_SIZES, 70, seed=1), WIDE_SIZES, seed=11),
            TrainJob("plain", rows_within(SIZES, 40, seed=2), SIZES, seed=12),
            TrainJob("coarse", rows_within(COARSE_SIZES, 100, seed=3), COARSE_SIZES, seed=13),
            TrainJob("tiny", rows_within(SIZES, 20, seed=4), SIZES, seed=14),
        ]

    @pytest.mark.parametrize("reverse", [False, True], ids=["given", "reversed"])
    def test_each_job_equals_its_one_job_fit(self, reverse):
        # the bank stacks its jobs by row count; no job order may change a model
        config = TrainConfig(
            epochs=4, batch_size=32, learning_rate=0.1, hidden_dim=6, code_dim=4,
            feature_weights={"outcome": 2.0},
        )
        jobs = self.jobs()[::-1] if reverse else self.jobs()
        bank = train(jobs, config)
        widths = [31, 28, 13, 28]
        assert [model.input_dim for model in bank] == (widths[::-1] if reverse else widths)
        for job, model in zip(jobs, bank):
            (solo,) = train([job], config)
            assert_same_fit(model, solo)

    def test_diverged_job_is_reported_and_the_others_carry_on(self, monkeypatch):
        # one process, so that the three jobs share one bank
        monkeypatch.setattr("loginwatch.workers.cpu_count", lambda: 1)
        config = TrainConfig(epochs=3, learning_rate=0.1, hidden_dim=6, code_dim=4)
        jobs = self.jobs()[:3]
        solos = [train([job], config)[0] for job in jobs]
        forward = _Stack.forward
        calls = []

        def poisoned_forward(stack, pos):
            if stack.segments.shape[0] == 3:
                calls.append(1)
                # Stacked by row count, the jobs sit as coarse, wide, plain;
                # the third three-job batch is the first batch of epoch 2.
                if len(calls) == 3:
                    stack.params[0][1, 0, 0] = np.nan  # w1 of "wide"
            return forward(stack, pos)

        monkeypatch.setattr(_Stack, "forward", poisoned_forward)
        wide, plain, coarse = train(jobs, config)
        assert isinstance(wide, TrainingDivergedError)
        assert str(wide) == "non-finite loss in epoch 2"
        assert_same_fit(plain, solos[1])
        assert_same_fit(coarse, solos[2])

    def test_gradient_matches_finite_differences_and_padding_gets_none(self):
        wide = Autoencoder("wide", WIDE_SIZES, hidden_dim=5, code_dim=3, seed=1)
        coarse = Autoencoder("coarse", COARSE_SIZES, hidden_dim=5, code_dim=3, seed=2)
        stack = _Stack([WIDE_SIZES, COARSE_SIZES], hidden_dim=5, code_dim=3)
        for k, model in enumerate((wide, coarse)):
            _copy(stack.views(k), views(model))
        # two rows for the wide job; one for the coarse job beside a padding row
        pos = np.full((2, 2, wide.input_dim), stack.zero)
        pos[0] = stack.positions(0, rows_within(WIDE_SIZES, 2, seed=5))
        pos[1, :1] = stack.positions(1, rows_within(COARSE_SIZES, 1, seed=6))
        weight = np.array([[0.5, 0.5], [1.0, 0.0]])
        analytic, numeric = _finite_differences(stack, pos, weight)

        # which job owns each entry of the stack; padding and the zero slot own none
        owner = np.full(stack.flat.size, -1)
        for k in (0, 1):
            for view in stack.views(k, owner).values():
                view[...] = k
        assert np.count_nonzero(owner == -1) == (
            5 * (31 - 13) * 2 + (31 - 13) + 1  # w1 columns, head rows, head_bias, zero slot
        )

        errors = _relative_error(analytic, numeric)
        for k in (0, 1):
            assert errors[owner == k].max() < 1e-4
        assert np.all(analytic[owner == -1] == 0.0)
        assert np.all(numeric[owner == -1] == 0.0)

    @settings(max_examples=25)
    @given(
        st.lists(
            st.fixed_dictionaries({name: st.integers(1, 60) for name in FEATURE_ORDER}),
            min_size=2,
            max_size=4,
        ),
    )
    def test_shared_stack_equals_stacks_of_one(self, sizes):
        weights = {"outcome": 2.0, "weekday": 0.5}
        models = [
            Autoencoder(f"u{k}", actor_sizes, hidden_dim=5, code_dim=3, seed=k,
                        feature_weights=weights)
            for k, actor_sizes in enumerate(sizes)
        ]
        stack = _Stack(sizes, 5, 3, weights)
        for k, model in enumerate(models):
            _copy(stack.views(k), views(model))
        rows = [rows_within(actor_sizes, 6, seed=k) for k, actor_sizes in enumerate(sizes)]
        pos = np.stack([stack.positions(k, actor_rows) for k, actor_rows in enumerate(rows)])
        cache = stack.forward(pos)
        for k, model in enumerate(models):
            assert np.allclose(cache["losses"][k], model.losses(rows[k]), rtol=0.0, atol=1e-12)

        owned = np.zeros(stack.flat.size, dtype=bool)
        for k in range(len(models)):
            for view in stack.views(k, owned).values():
                view[...] = True
        width = max(model.input_dim for model in models)
        # per narrower actor: w1 columns, head rows and head_bias entries; then the zero slot
        padding = sum((width - model.input_dim) * (2 * 5 + 1) for model in models) + 1
        assert np.count_nonzero(~owned) == padding
        gradient = stack.gradient(cache, np.full(pos.shape[:2], 1.0 / 6))
        assert np.all(gradient[~owned] == 0.0)
        assert np.all(stack.flat[~owned] == 0.0)

    def test_bank_computes_in_float32_and_models_stay_float64(self, monkeypatch):
        # One float64 operand (a row weight, the weight vector, the ones row)
        # would widen the step back to float64 and no other test would notice.
        log = []
        logged = ufunc_logging_array(log)
        arrays = []
        gradient = _Stack.gradient

        def logging_gradient(stack, cache, row_weight):
            grad = gradient(stack, cache, row_weight)
            arrays.extend([stack.flat, stack.weights, stack.segments, row_weight, grad])
            arrays.extend(cache.values())
            if not log:  # replay the first step, logging every ufunc result
                replay = copy.copy(stack)
                replay.flat = stack.flat.view(logged)
                replay._bind(len(row_weight))
                replayed = gradient(replay, replay.forward(cache["pos"]), row_weight)
                assert np.array_equal(replayed, grad)
            return grad

        monkeypatch.setattr(_Stack, "gradient", logging_gradient)
        jobs = self.jobs()
        models = train(jobs, TrainConfig(epochs=2, hidden_dim=6, code_dim=4))
        assert len(arrays) > 0 and len(log) > 0
        assert {a.dtype for a in arrays if a.dtype.kind == "f"} == {np.dtype(np.float32)}
        assert {dtype for _, dtype in log} == {np.dtype(np.float32)}, log

        for job, model in zip(jobs, models):
            assert model.theta.dtype == np.float64
            assert np.array_equal(model.theta, model.theta.astype(np.float32))
            assert model.losses(job.rows).dtype == np.float64
            blob = bytes.fromhex(model.to_state()["theta"])
            assert np.array_equal(np.frombuffer(blob, "<f4").astype(np.float64), model.theta)

    def test_float32_gradient_agrees_with_float64(self):
        # the same float32 values in a float32 and a float64 stack of two
        # jobs, the coarse one padded to the wide one's width
        weights = {"outcome": 2.0, "weekday": 0.5}
        wide = Autoencoder("wide", WIDE_SIZES, hidden_dim=5, code_dim=3, seed=1,
                           feature_weights=weights)
        coarse = Autoencoder("coarse", COARSE_SIZES, hidden_dim=5, code_dim=3, seed=2,
                             feature_weights=weights)
        stacks = {
            dtype: _Stack([WIDE_SIZES, COARSE_SIZES], 5, 3, weights, dtype=dtype)
            for dtype in (np.float32, np.float64)
        }
        for k, model in enumerate((wide, coarse)):
            _copy(stacks[np.float32].views(k), views(model))
        stacks[np.float64].flat[...] = stacks[np.float32].flat
        # eight rows for the wide job; five for the coarse job, then padding rows
        pos = np.full((2, 8, wide.input_dim), stacks[np.float64].zero)
        pos[0] = stacks[np.float64].positions(0, rows_within(WIDE_SIZES, 8, seed=5))
        pos[1, :5] = stacks[np.float64].positions(1, rows_within(COARSE_SIZES, 5, seed=6))
        weight = np.array([[1 / 8] * 8, [1 / 5] * 5 + [0.0] * 3])
        grads = {
            dtype: stack.gradient(stack.forward(pos), weight.astype(dtype))
            for dtype, stack in stacks.items()
        }
        assert grads[np.float32].dtype == np.float32

        # float32 keeps about 7 digits, and the gradient loses few of them
        # (3.7e-6 at most over 30 seeds)
        error = np.abs(grads[np.float32] - grads[np.float64]).max()
        assert error <= 1e-4 * np.abs(grads[np.float64]).max()

        owned = np.zeros(stacks[np.float64].flat.size, dtype=bool)
        for k in (0, 1):
            for view in stacks[np.float64].views(k, owned).values():
                view[...] = True
        assert np.count_nonzero(~owned) == (31 - 13) * (2 * 5 + 1) + 1  # padding, zero slot
        for grad in grads.values():
            assert np.all(grad[~owned] == 0.0)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raise_(exc: BaseException):
    raise exc


def assert_bit_identical(model: Autoencoder, reference: Autoencoder) -> None:
    assert model.actor_id == reference.actor_id
    assert np.array_equal(model.theta.view(np.uint64), reference.theta.view(np.uint64))
    assert np.array_equal(
        np.array(model.epoch_losses).view(np.uint64),
        np.array(reference.epoch_losses).view(np.uint64),
    )
    assert (model.train_mu, model.train_sigma) == (reference.train_mu, reference.train_sigma)


class TestSplit:
    """A ``train`` call split over forked workers fits as one process does."""

    def pin(self, monkeypatch, cpus: int) -> list[int]:
        """Force ``cpus`` CPUs; returns a list that grows by one per fork."""
        monkeypatch.setattr("loginwatch.workers.cpu_count", lambda: cpus)
        forks, fork = [], os.fork
        parent = os.getpid()

        def counted_fork():
            if os.getpid() == parent:
                forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        return forks

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_split_fit_is_bit_identical_to_one_process(self, monkeypatch, cpus):
        config = TrainConfig(
            epochs=4, batch_size=32, learning_rate=0.1, hidden_dim=6, code_dim=4,
            feature_weights={"outcome": 2.0},
        )
        # widths 31, 28, 13, 28 and 32; 70, 40, 100, 20 and 50 rows. With the
        # 32-wide job, a group padded only to its own widest job, or a batch
        # padded only to its group's longest job, gives some jobs other bits.
        widest = {**SIZES, "geohash": 11}
        jobs = TestBank().jobs() + [
            TrainJob("widest", rows_within(widest, 50, seed=5), widest, seed=15)
        ]
        forks = self.pin(monkeypatch, 1)
        single = train(jobs, config)
        assert forks == []
        forks = self.pin(monkeypatch, cpus)
        split = train(jobs, config)
        assert len(forks) == cpus - 1
        assert_no_child_left()
        for model, reference in zip(split, single):
            assert_bit_identical(model, reference)

    def test_divergence_in_a_worker_is_reported_with_its_epoch(self, monkeypatch):
        config = TrainConfig(epochs=3, learning_rate=0.1, hidden_dim=6, code_dim=4)
        jobs = TestBank().jobs()[:3]
        solos = [train([job], config)[0] for job in jobs]
        parent = os.getpid()
        forward = _Stack.forward
        calls = []

        def poisoned_forward(stack, pos):
            if os.getpid() != parent:
                calls.append(1)
                # Split by row count, the worker fits wide and plain; wide has
                # 3 batches, so its 4th is the first batch of epoch 2.
                assert stack.feature_sizes[0] == WIDE_SIZES
                if len(calls) == 4:
                    stack.params[0][0, 0, 0] = np.nan  # w1 of "wide"
            return forward(stack, pos)

        forks = self.pin(monkeypatch, 2)
        monkeypatch.setattr(_Stack, "forward", poisoned_forward)
        wide, plain, coarse = train(jobs, config)
        assert len(forks) == 1
        assert_no_child_left()
        assert isinstance(wide, TrainingDivergedError)
        assert str(wide) == "non-finite loss in epoch 2"
        assert_same_fit(plain, solos[1])
        assert_same_fit(coarse, solos[2])

    @pytest.mark.parametrize(
        "fail, message",
        [
            (lambda: os._exit(3), "exited with status 3"),
            (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by SIGKILL"),
            (lambda: raise_(ValueError("boom")), "exited with status 1: ValueError: boom"),
            (  # cut to the worker's 512-byte error buffer
                lambda: raise_(ValueError("boom" * 1000)),
                "exited with status 1: ValueError: (boom){125}",
            ),
        ],
        ids=["exit", "signal", "raise", "long raise"],
    )
    def test_failed_worker_makes_train_raise(self, monkeypatch, fail, message):
        parent = os.getpid()
        fit = _Group.fit

        def failing_fit(group):
            if os.getpid() != parent:
                fail()
            fit(group)

        self.pin(monkeypatch, 2)
        monkeypatch.setattr(_Group, "fit", failing_fit)
        with pytest.raises(RuntimeError, match=rf"^training worker \d+ {message}$"):
            train(TestBank().jobs(), TrainConfig(epochs=1, hidden_dim=6, code_dim=4))
        assert_no_child_left()

    @pytest.mark.parametrize("failing", ["fit", "fork"])
    def test_failing_parent_stops_its_workers(self, monkeypatch, failing):
        # A worker's fit sleeps 5 s. The parent fails at once, by an
        # interrupt in its own fit or by a second fork that fails, and must
        # not wait for the worker.
        parent = os.getpid()

        def fit(group):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(5)

        forks = self.pin(monkeypatch, 3)
        fork = os.fork

        def fork_once():
            if forks:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        if failing == "fork":
            monkeypatch.setattr(os, "fork", fork_once)
        monkeypatch.setattr(_Group, "fit", fit)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt if failing == "fit" else BlockingIOError):
            train(TestBank().jobs(), TrainConfig(epochs=1, hidden_dim=6, code_dim=4))
        assert time.monotonic() - start < 2.0
        assert len(forks) == (2 if failing == "fit" else 1)
        assert_no_child_left()

    @settings(max_examples=30)
    @given(st.data())
    def test_any_split_is_bit_identical_to_one_process(self, data):
        count = data.draw(st.integers(2, 6), label="jobs")
        # The marked job has a geohash size that no other job draws; its
        # own n-th forward call in the bank puts a NaN in its w1, in
        # whichever process fits it.
        marked = data.draw(st.integers(0, count - 1), label="marked job")
        jobs = []
        for j in range(count):
            sizes = {name: data.draw(st.integers(1, 29), label=name) for name in FEATURE_ORDER}
            if j == marked:
                sizes["geohash"] = 30
            rows = rows_within(sizes, data.draw(st.integers(1, 100), label="rows"), seed=j)
            jobs.append(TrainJob(f"u{j}", rows, sizes, seed=j))
        config = TrainConfig(
            epochs=data.draw(st.integers(1, 3), label="epochs"),
            batch_size=data.draw(st.integers(1, 32), label="batch size"),
            learning_rate=0.1, hidden_dim=6, code_dim=4,
        )
        calls = -(-len(jobs[marked].rows) // config.batch_size) * config.epochs
        poison_at = data.draw(st.integers(1, calls), label="poisoned call")
        cpus = data.draw(st.integers(2, 4), label="cpus")

        forward = _Stack.forward
        seen = []

        def poisoned_forward(stack, pos):
            if stack.flat.dtype == np.float32:
                for k in range(len(pos)):  # the bank's live jobs
                    if stack.feature_sizes[k] == jobs[marked].feature_sizes:
                        seen.append(1)
                        if len(seen) == poison_at:
                            stack.params[0][k, 0, 0] = np.nan
            return forward(stack, pos)

        results = {}
        for forced in (1, cpus):
            seen.clear()
            with pytest.MonkeyPatch.context() as patch:
                forks = self.pin(patch, forced)
                patch.setattr(_Stack, "forward", poisoned_forward)
                results[forced] = train(jobs, config)
            assert len(forks) == min(forced, count) - 1
            assert_no_child_left()
        assert isinstance(results[1][marked], TrainingDivergedError)
        for result, reference in zip(results[cpus], results[1]):
            if isinstance(reference, TrainingDivergedError):
                assert type(result) is TrainingDivergedError
                assert str(result) == str(reference)
            else:
                assert_bit_identical(result, reference)

    def test_one_job_never_forks(self, monkeypatch):
        forks = self.pin(monkeypatch, 4)
        model = fit(random_rows(40, seed=3), TrainConfig(epochs=2))
        assert forks == [] and model.epoch_losses

    def test_one_cpu_where_the_platform_has_no_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert cpu_count() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cpu_count() == 1

    def test_width_below_an_input_dim_refused(self):
        _Stack([WIDE_SIZES, COARSE_SIZES], 5, 3, width=40)  # 31 and 13 fit in 40
        with pytest.raises(ValueError, match="width 30 is below input_dim 31"):
            _Stack([WIDE_SIZES, COARSE_SIZES], 5, 3, width=30)


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(feature_weights={"geohash": -1.0})
        with pytest.raises(ValueError, match="'geohsah'"):
            TrainConfig(feature_weights={"geohsah": 2.0})
        for weight in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                TrainConfig(feature_weights={"geohash": weight})


class TestPersistence:
    def test_state_round_trip_is_bit_exact(self):
        rows = random_rows(40, seed=17)
        model = fit(rows, TrainConfig(epochs=3), seed=2)
        state = model.to_state()
        json.dumps(state)
        restored = Autoencoder.from_state(state)
        assert np.array_equal(model.losses(rows), restored.losses(rows))
        assert restored.train_mu == model.train_mu
        assert restored.train_sigma == model.train_sigma
        assert restored.epoch_losses == model.epoch_losses

    def test_state_survives_json_serialization(self):
        rows = random_rows(20, seed=18)
        model = fit(rows, TrainConfig(epochs=2), seed=3)
        rehydrated = json.loads(json.dumps(model.to_state()))
        restored = Autoencoder.from_state(rehydrated)
        assert np.array_equal(model.losses(rows), restored.losses(rows))

    def test_embedding_shape_mismatch_rejected(self):
        model = Autoencoder("u1", SIZES, hidden_dim=5, code_dim=3, seed=0)
        state = model.to_state()
        state["theta"] = spliced_blob(model, "embeddings.geohash", [[0.0]])
        with pytest.raises(ValueError, match="theta"):
            Autoencoder.from_state(state)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("b1", [0.3]),
            ("w1", [[0.1] * 3] * 5),
            ("b2", [0.0, 0.0, 0.0, 0.0]),
            ("w3", [[0.2, 0.2, 0.2]]),
            ("b3", 0.5),
            ("heads.app_id", [[0.1] * 5]),
            ("head_biases.geohash", [0.0]),
            ("head_biases.weekday", [[0.0] * 4] * 2),
        ],
    )
    def test_parameter_shape_mismatch_rejected(self, key, value):
        # a blob written with one parameter of another shape has another
        # length, so only the length check stops it loading and scoring
        model = Autoencoder("u1", SIZES, hidden_dim=5, code_dim=3, seed=0)
        state = model.to_state()
        state["theta"] = spliced_blob(model, key, value)
        assert len(state["theta"]) != len(model.to_state()["theta"])
        with pytest.raises(ValueError, match="theta"):
            Autoencoder.from_state(state)

    @pytest.mark.parametrize(
        "damage",
        [
            "one_value_short",
            "one_value_long",
            "float64",
            "base64",
            "odd_length",
            "not_hex_digit",
            "embedded_whitespace",
            "not_a_string",
            "feature_sizes_disagree",
            "hidden_dim_disagree",
            "feature_size_huge",
            "hidden_dim_huge",
        ],
    )
    def test_corrupt_theta_rejected(self, damage):
        model = Autoencoder("u1", SIZES, hidden_dim=5, code_dim=3, seed=0)
        state = model.to_state()
        if damage == "one_value_short":
            state["theta"] = theta_blob(model.theta[:-1])
        elif damage == "one_value_long":
            state["theta"] = theta_blob(np.append(model.theta, 0.0))
        elif damage == "float64":
            # the version-4 encoding: the right value count at twice the width
            state["theta"] = model.theta.astype("<f8").tobytes().hex()
        elif damage == "base64":  # the version-3 encoding of the same bytes
            state["theta"] = base64.b64encode(bytes.fromhex(state["theta"])).decode("ascii")
        elif damage in THETA_DAMAGE:
            state["theta"] = THETA_DAMAGE[damage](state["theta"])
        elif damage == "not_a_string":
            state["theta"] = model.theta.tolist()
        elif damage == "feature_sizes_disagree":
            state["feature_sizes"]["app_id"] = SIZES["app_id"] + 2
        elif damage == "hidden_dim_disagree":
            state["hidden_dim"] = 6
        elif damage == "feature_size_huge":  # refused before a layout this large is allocated
            state["feature_sizes"]["geohash"] = 10**15
        elif damage == "hidden_dim_huge":
            state["hidden_dim"] = 10**15
        with pytest.raises(ValueError, match="theta"):
            Autoencoder.from_state(state)

    @pytest.mark.parametrize("size", [0, -1])
    def test_feature_size_below_one_rejected(self, size):
        # the constructor refuses such a size, so a stored document may not
        # carry one either
        sizes = {**SIZES, "geohash": size}
        with pytest.raises(ValueError):
            Autoencoder("u1", sizes, hidden_dim=5, code_dim=3, seed=0)
        # the blob matches a vocabulary of one with its OOV row cut, so only
        # the size check stops this document
        one = Autoencoder("u1", {**SIZES, "geohash": 1}, hidden_dim=5, code_dim=3, seed=0)
        state = one.to_state()
        state["feature_sizes"]["geohash"] = size
        table = views(one)["geohash"]
        state["theta"] = spliced_blob(one, "embeddings.geohash", table[:1])
        with pytest.raises(ValueError, match="geohash"):
            Autoencoder.from_state(state)

    def test_state_layout_is_one_theta_blob(self):
        model = Autoencoder("u1", SIZES, hidden_dim=5, code_dim=3, seed=0)
        state = model.to_state()
        assert sorted(state) == sorted([
            "actor_id", "feature_sizes", "feature_weights", "hidden_dim",
            "code_dim", "theta", "train_mu", "train_sigma",
            "chosen_n", "epoch_losses",
        ])
        dims = {name: embedding_dim(SIZES[name]) for name in FEATURE_ORDER}
        input_dim = sum(dims.values())
        size = (
            5 * input_dim + 5  # w1 b1
            + 3 * 5 + 3  # w2 b2
            + 5 * 3 + 5  # w3 b3
            + input_dim * 5 + input_dim  # head head_bias
            + sum((SIZES[name] + 1) * dim for name, dim in dims.items())
        )
        blob = bytes.fromhex(state["theta"])
        assert len(blob) == 4 * size
        # little-endian float32, in the in-memory layout, bit for bit
        assert blob == model.theta.astype("<f4").tobytes()
        stored = views(model, np.frombuffer(blob, "<f4"))
        for name, dim in dims.items():
            assert stored[name].shape == (SIZES[name] + 1, dim)
            assert np.array_equal(stored[name], views(model)[name])

    def test_from_state_reproduces_losses_exactly(self):
        rows = random_rows(40, seed=19)
        config = TrainConfig(epochs=3, feature_weights={"outcome": 2.0})
        model = fit(rows, config, seed=4)
        restored = Autoencoder.from_state(model.to_state())
        assert np.array_equal(restored.theta, model.theta)
        assert np.array_equal(restored.losses(rows), model.losses(rows))

    def test_initial_values_are_float32_values(self):
        model = Autoencoder("u1", SIZES, hidden_dim=5, code_dim=3, seed=0)
        assert model.theta.dtype == np.float64
        assert np.array_equal(model.theta, model.theta.astype(np.float32))
        assert np.count_nonzero(model.theta) > model.theta.size // 2

    @pytest.mark.parametrize(
        "name, weight, message",
        [
            ("geohash", math.nan, "finite and >= 0"),
            ("geohash", math.inf, "finite and >= 0"),
            ("geohash", -1.0, "finite and >= 0"),
            ("geohash", 1e308, "at most float32's largest finite value"),
            ("geohash", "2", "must be a number"),
            ("geohash", True, "must be a number"),
            ("geohsah", 2.0, "names no feature"),
        ],
    )
    def test_stored_feature_weight_refused(self, name, weight, message):
        # as TrainConfig refuses it: a NaN weight makes every loss NaN, so
        # the model would never flag a login
        state = Autoencoder("u1", SIZES, hidden_dim=5, code_dim=3, seed=0).to_state()
        state["feature_weights"][name] = weight
        with pytest.raises(ValueError, match=message):
            Autoencoder.from_state(state)

    @settings(max_examples=80)
    @given(st.data())
    def test_mutated_state_is_refused_or_scores_in_range_rows(self, data):
        # a member dropped, retyped or resized, as a resealed stored document
        # can carry it: from_state refuses it with one of the errors that
        # registry.load turns into an unscorable actor, or the model scores
        state = Autoencoder("u1", SIZES, hidden_dim=5, code_dim=3, seed=0).to_state()
        sizes = [("feature_sizes", name) for name in FEATURE_ORDER]
        weights = [("feature_weights", name) for name in FEATURE_ORDER]
        action = data.draw(st.sampled_from(["drop", "retype", "resize"]), label="action")
        if action == "resize":
            path = data.draw(st.sampled_from(sizes + [("hidden_dim",), ("code_dim",)]))
            value = data.draw(st.integers(-2, 10**15), label="size")
        else:
            path = data.draw(st.sampled_from([(key,) for key in state] + sizes + weights))
            value = data.draw(
                st.sampled_from([None, True, "3", "", 2.5, -1.0, [], [1], {}, {"a": 1}]),
                label="value",
            )
        parent = state
        for step in path[:-1]:
            parent = parent[step]
        if action == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        try:
            model = Autoencoder.from_state(state)
        except (KeyError, TypeError, ValueError):
            return
        rows = rows_within(model.feature_sizes, 20, seed=7)
        losses = model.losses(rows)
        assert losses.shape == (20,)
        assert np.all(np.isfinite(losses))
