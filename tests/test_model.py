"""Tests for the per-actor autoencoder: loss plumbing, gradients, training."""

from __future__ import annotations

import base64
import json
import math

import numpy as np
import pytest

from loginwatch.encoding import FEATURE_ORDER, embedding_dim
from loginwatch.model import (
    Autoencoder,
    LossMode,
    TrainConfig,
    TrainingDivergedError,
    TrainJob,
    _Bank,
    _corner,
    _finite_differences,
    _relative_error,
    _Stack,
    dice_coefficient,
    gradient_check,
    train,
)

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


def analytic_gradient(model: Autoencoder, rows) -> np.ndarray:
    """Gradient of the mean loss of ``rows``, in the layout of ``theta``."""
    pos = model._positions(model._indices(rows))[None]
    weight = np.full(pos.shape[:2], 1.0 / pos.shape[1])
    return model._stack.gradient(model._stack.forward(pos), weight)


def oracle_dissim(rec_row: np.ndarray, emb_row: np.ndarray) -> float:
    """Per-feature dissimilarity recomputed with scalar math."""
    p = [1.0 / (1.0 + math.exp(-v)) for v in rec_row.tolist()]
    g = [1.0 / (1.0 + math.exp(-v)) for v in emb_row.tolist()]
    overlap = sum(a * b for a, b in zip(p, g))
    denom = sum(a * a for a in p) + sum(b * b for b in g)
    return 1.0 - 2.0 * overlap / denom


def theta_blob(values) -> str:
    """``values`` as a stored ``theta``: base64 of little-endian float64."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def parameter_span(model: Autoencoder, key: str) -> slice:
    """Where parameter ``key`` sits in ``theta``.

    ``key`` is a layout key (``w1`` ... ``b3``) or ``heads.<feature>``,
    ``head_biases.<feature>`` or ``embeddings.<feature>`` for one feature's
    block.
    """
    spans = {name: span for name, span, _ in model._layout}
    part, _, feature = key.partition(".")
    if not feature:
        return spans[key]
    if part == "embeddings":
        return spans[feature]
    cols = dict(model._feature_columns())[feature]
    width = model.hidden_dim if part == "heads" else 1
    start = spans["head" if part == "heads" else "head_bias"].start
    return slice(start + cols.start * width, start + cols.stop * width)


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


class TestForward:
    def test_event_loss_matches_scalar_recomputation(self):
        model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=3)
        for row in random_rows(5, seed=9):
            rec, emb = model.forward(row)
            expected = sum(oracle_dissim(rec[n], emb[n]) for n in FEATURE_ORDER)
            assert model.event_loss(row) == pytest.approx(expected, rel=1e-10)

    def test_product_mode_multiplies_dissimilarities(self):
        model = Autoencoder(
            "u1", SIZES, hidden_dim=6, code_dim=4, seed=3, loss_mode=LossMode.PRODUCT
        )
        row = random_rows(1, seed=4)[0]
        rec, emb = model.forward(row)
        expected = 1.0
        for name in FEATURE_ORDER:
            expected *= oracle_dissim(rec[name], emb[name])
        assert model.event_loss(row) == pytest.approx(expected, rel=1e-9)

    def test_feature_weights_scale_sum_terms(self):
        weights = {"geohash": 2.0, "app_id": 0.5, "client_os": 0.0}
        model = Autoencoder(
            "u1", SIZES, hidden_dim=6, code_dim=4, seed=3, feature_weights=weights
        )
        row = random_rows(1, seed=4)[0]
        rec, emb = model.forward(row)
        expected = 0.0
        for name in FEATURE_ORDER:
            expected += weights.get(name, 1.0) * oracle_dissim(rec[name], emb[name])
        assert model.event_loss(row) == pytest.approx(expected, rel=1e-10)

    def test_head_widths_match_embeddings(self):
        model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=0)
        rec, emb = model.forward(random_rows(1, seed=1)[0])
        for name in FEATURE_ORDER:
            assert rec[name].shape == emb[name].shape
            assert rec[name].shape == (model._views(model.theta)[name].shape[1],)

    def test_losses_matches_per_event_loop(self):
        model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=7)
        rows = random_rows(40, seed=8)
        batched = model.losses(rows)
        single = np.array([model.event_loss(row) for row in rows])
        assert batched == pytest.approx(single, rel=1e-10)

    def test_losses_empty_input(self):
        model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=7)
        empty = np.zeros((0, len(FEATURE_ORDER)), dtype=np.int64)
        assert model.losses(empty).shape == (0,)

    def test_out_of_range_index_rejected(self):
        model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=0)
        row = [SIZES["geohash"] + 1, 0, 0, 0, 1, 1, 0, 0]  # in FEATURE_ORDER
        with pytest.raises(ValueError, match="geohash"):
            model.event_loss(row)

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
            table = model._views(model.theta)[name]
            assert table.shape == (SIZES[name] + 1, embedding_dim(SIZES[name]))
            assert np.all(np.abs(table) <= 0.05)

    def test_embedding_init_range_and_determinism(self):
        def tables(seed: int) -> np.ndarray:
            model = Autoencoder("u1", SIZES, hidden_dim=6, code_dim=4, seed=seed)
            views = model._views(model.theta)
            return np.concatenate([views[name].ravel() for name in FEATURE_ORDER])

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

    def test_product_mode_gradients(self):
        model = Autoencoder(
            "u1", SIZES, hidden_dim=5, code_dim=3, seed=4, loss_mode=LossMode.PRODUCT
        )
        row = random_rows(1, seed=40)[0]
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
        grads = model._views(analytic_gradient(model, row[None]))
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
        grads = model._views(analytic_gradient(model, row[None]))
        cols = dict(model._feature_columns())["client_os"]
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

    @pytest.mark.parametrize(
        "mode, reverse",
        [pytest.param(mode, False, id=mode.value) for mode in LossMode]
        + [pytest.param(mode, True, id=f"{mode.value}-reversed") for mode in LossMode],
    )
    def test_each_job_equals_its_one_job_fit(self, mode, reverse):
        # the bank stacks its jobs by row count; no job order may change a model
        config = TrainConfig(
            epochs=4, batch_size=32, learning_rate=0.1, hidden_dim=6, code_dim=4,
            loss_mode=mode, feature_weights={"outcome": 2.0},
        )
        jobs = self.jobs()[::-1] if reverse else self.jobs()
        bank = train(jobs, config)
        widths = [31, 28, 13, 28]
        assert [model.input_dim for model in bank] == (widths[::-1] if reverse else widths)
        for job, model in zip(jobs, bank):
            (solo,) = train([job], config)
            assert_same_fit(model, solo)

    def test_diverged_job_is_reported_and_the_others_carry_on(self, monkeypatch):
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
        bank = _Bank([wide, coarse])
        stack = bank.stack
        # two rows for the wide job; one for the coarse job beside a padding row
        pos = np.full((2, 2, wide.input_dim), bank.zero)
        pos[0] = bank.positions(0, rows_within(WIDE_SIZES, 2, seed=5))
        pos[1, :1] = bank.positions(1, rows_within(COARSE_SIZES, 1, seed=6))
        weight = np.array([[0.5, 0.5], [1.0, 0.0]])
        analytic, numeric = _finite_differences(stack, pos, weight)

        # which job owns each entry of the bank; padding and the zero slot own none
        owner = np.full(stack.flat.size, -1)
        for k, model in enumerate(bank.models):
            for span, stacked, own in zip(stack.spans, stack.params, model._stack.params):
                block = owner[span].reshape(stacked.shape)
                block[k][_corner(own[0])] = k
                owner[span] = block.ravel()
            owner[bank._tables[k]] = k
        assert np.count_nonzero(owner == -1) == (
            5 * (31 - 13) * 2 + (31 - 13) + 1  # w1 columns, head rows, head_bias, zero slot
        )

        errors = _relative_error(analytic, numeric)
        for k in (0, 1):
            assert errors[owner == k].max() < 1e-4
        assert np.all(analytic[owner == -1] == 0.0)
        assert np.all(numeric[owner == -1] == 0.0)


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

    def test_loss_mode_coerced_from_string(self):
        assert TrainConfig(loss_mode="PRODUCT").loss_mode is LossMode.PRODUCT


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
            "float32",
            "not_base64",
            "not_a_string",
            "feature_sizes_disagree",
            "hidden_dim_disagree",
        ],
    )
    def test_corrupt_theta_rejected(self, damage):
        model = Autoencoder("u1", SIZES, hidden_dim=5, code_dim=3, seed=0)
        state = model.to_state()
        if damage == "one_value_short":
            state["theta"] = theta_blob(model.theta[:-1])
        elif damage == "one_value_long":
            state["theta"] = theta_blob(np.append(model.theta, 0.0))
        elif damage == "float32":
            # the right value count at half the width
            state["theta"] = base64.b64encode(
                model.theta.astype("<f4").tobytes()
            ).decode("ascii")
        elif damage == "not_base64":
            # a lenient decoder would skip the character and load the rest
            state["theta"] = state["theta"][:8] + "!" + state["theta"][8:]
        elif damage == "not_a_string":
            state["theta"] = model.theta.tolist()
        elif damage == "feature_sizes_disagree":
            state["feature_sizes"]["app_id"] = SIZES["app_id"] + 2
        elif damage == "hidden_dim_disagree":
            state["hidden_dim"] = 6
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
        table = one._views(one.theta)["geohash"]
        state["theta"] = spliced_blob(one, "embeddings.geohash", table[:1])
        with pytest.raises(ValueError, match="geohash"):
            Autoencoder.from_state(state)

    def test_state_layout_is_one_theta_blob(self):
        model = Autoencoder("u1", SIZES, hidden_dim=5, code_dim=3, seed=0)
        state = model.to_state()
        assert sorted(state) == sorted([
            "actor_id", "feature_sizes", "feature_weights", "hidden_dim",
            "code_dim", "loss_mode", "theta", "train_mu", "train_sigma",
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
        blob = base64.b64decode(state["theta"], validate=True)
        assert len(blob) == 8 * size
        # little-endian float64, in the in-memory layout, bit for bit
        assert blob == model.theta.astype("<f8").tobytes()
        views = model._views(np.frombuffer(blob, "<f8"))
        for name, dim in dims.items():
            assert views[name].shape == (SIZES[name] + 1, dim)
            assert np.array_equal(views[name], model._views(model.theta)[name])

    @pytest.mark.parametrize("mode", list(LossMode))
    def test_from_state_reproduces_losses_exactly(self, mode):
        rows = random_rows(40, seed=19)
        config = TrainConfig(epochs=3, loss_mode=mode, feature_weights={"outcome": 2.0})
        model = fit(rows, config, seed=4)
        restored = Autoencoder.from_state(model.to_state())
        assert np.array_equal(restored.theta, model.theta)
        assert np.array_equal(restored.losses(rows), model.losses(rows))
