"""Tests for threshold statistics, classification, F1, and the n sweep."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loginwatch.detect import (
    SWEEP_GRID,
    Classification,
    DegenerateValidationError,
    DetectionReport,
    LossStats,
    UndefinedMetricError,
    classify,
    f1_score,
    loss_stats,
    score_events,
    sweep_threshold,
)
from loginwatch.inject import Label
from loginwatch.model import TrainConfig

from test_model import SIZES, fit, random_rows


class TestLossStats:
    def test_population_standard_deviation(self):
        stats = loss_stats([1.0, 2.0, 3.0, 4.0])
        assert stats.mu == pytest.approx(2.5)
        # population variance (1/N): ((1.5^2 + 0.5^2) * 2) / 4 = 1.25
        assert stats.sigma == pytest.approx(math.sqrt(1.25))
        assert stats.count == 4

    def test_single_value(self):
        stats = loss_stats([0.7])
        assert stats.mu == 0.7
        assert stats.sigma == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            loss_stats([])


class TestClassify:
    def test_strictly_above_threshold_flags(self):
        stats = LossStats(mu=1.0, sigma=0.5, count=10)
        assert classify(2.1, stats, 2.0) is Classification.ANOMALY
        assert classify(1.9, stats, 2.0) is Classification.NORMAL

    def test_equality_is_normal(self):
        stats = LossStats(mu=1.0, sigma=0.5, count=10)
        assert classify(2.0, stats, 2.0) is Classification.NORMAL

    def test_zero_sigma_degenerates_to_mu(self):
        stats = LossStats(mu=1.0, sigma=0.0, count=10)
        assert classify(1.0, stats, 5.0) is Classification.NORMAL
        assert classify(1.0 + 1e-9, stats, 5.0) is Classification.ANOMALY

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            classify(1.0, LossStats(1.0, 0.5, 3), -0.1)

    def test_flagged_set_shrinks_as_n_grows(self):
        rng = np.random.default_rng(3)
        losses = rng.exponential(scale=1.0, size=500)
        stats = loss_stats(losses[:400])
        previous = None
        for n in SWEEP_GRID:
            flagged = {
                i
                for i, loss in enumerate(losses)
                if classify(float(loss), stats, n) is Classification.ANOMALY
            }
            if previous is not None:
                assert flagged <= previous
            previous = flagged


class TestF1Score:
    def test_known_values(self):
        assert f1_score(4, 3, 0) == pytest.approx(0.727, abs=1e-3)
        assert f1_score(31, 969, 0) == pytest.approx(0.060, abs=1e-3)
        assert f1_score(5, 0, 0) == 1.0

    def test_equals_harmonic_mean_of_precision_recall(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            tp = int(rng.integers(1, 50))
            fp = int(rng.integers(0, 50))
            fn = int(rng.integers(0, 50))
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            expected = 2 * precision * recall / (precision + recall)
            assert f1_score(tp, fp, fn) == pytest.approx(expected)

    def test_zero_when_no_true_positives(self):
        assert f1_score(0, 3, 0) == 0.0
        assert f1_score(0, 0, 7) == 0.0

    def test_undefined_for_empty_confusion(self):
        with pytest.raises(UndefinedMetricError):
            f1_score(0, 0, 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            f1_score(-1, 0, 0)


def brute_force_sweep(scored, stats):
    """Independent sweep: recompute each grid point with scalar code.

    ``scored`` holds (loss, injected) pairs. Returns the best n, its F1 and
    (tp, fp, fn, tn), and the F1 at every grid point.
    """
    best_n, best_f1, best_counts, curve = None, -1.0, None, []
    for n in [round(i * 0.1, 1) for i in range(101)]:
        tp = fp = fn = tn = 0
        for loss, injected in scored:
            flagged = loss > stats.mu + n * stats.sigma
            if flagged and injected:
                tp += 1
            elif flagged:
                fp += 1
            elif injected:
                fn += 1
            else:
                tn += 1
        if tp == 0:
            value = 0.0
        else:
            value = 2 * tp / (2 * tp + fp + fn)
        curve.append(value)
        if value >= best_f1:
            best_f1, best_n, best_counts = value, n, (tp, fp, fn, tn)
    return best_n, best_f1, best_counts, curve


def flags(normal: int, injected: int) -> np.ndarray:
    """``normal`` False entries followed by ``injected`` True ones."""
    return np.array([False] * normal + [True] * injected, dtype=bool)


# a few repeated values, so that losses tie with each other and with thresholds
SWEEP_LOSSES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]) | st.floats(0.0, 5.0)


class TestSweep:
    def test_grid_shape(self):
        assert len(SWEEP_GRID) == 101
        assert SWEEP_GRID[0] == 0.0
        assert SWEEP_GRID[-1] == 10.0
        assert SWEEP_GRID[1] == pytest.approx(0.1)

    def test_separable_losses_pick_largest_tied_n(self):
        # normals at 1.0, injected at 100: every n separates perfectly,
        # so the tie rule must land on the top of the grid
        stats = loss_stats([1.0] * 50)
        losses = [1.0] * 50 + [100.0] * 5
        result = sweep_threshold(losses, flags(50, 5), stats)
        assert result.best_f1 == 1.0
        assert result.best_n == 10.0
        assert result.confusion.tp == 5
        assert result.confusion.fp == 0
        assert result.confusion.fn == 0
        assert result.confusion.tn == 50

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        train_losses = rng.exponential(0.05, size=300)
        stats = loss_stats(train_losses)
        losses = [float(rng.exponential(0.05)) for _ in range(200)] + [
            float(rng.exponential(0.05) + 0.1) for _ in range(20)
        ]
        injected = flags(200, 20)
        result = sweep_threshold(losses, injected, stats)
        oracle_n, oracle_f1, _, _ = brute_force_sweep(list(zip(losses, injected)), stats)
        assert result.best_f1 == pytest.approx(oracle_f1)
        assert result.best_n == pytest.approx(oracle_n)

    @settings(max_examples=80)
    @given(st.data())
    def test_equals_brute_force_with_ties_and_zero_sigma(self, data):
        losses = data.draw(st.lists(SWEEP_LOSSES, min_size=2, max_size=30), label="losses")
        count = data.draw(st.integers(1, min(3, len(losses) - 1)), label="count")
        where = data.draw(
            st.lists(
                st.integers(0, len(losses) - 1), min_size=count, max_size=count, unique=True
            ),
            label="where",
        )
        injected = np.zeros(len(losses), dtype=bool)
        injected[where] = True
        stats = LossStats(
            mu=data.draw(st.sampled_from([0.5, 1.0]) | st.floats(0.0, 2.0), label="mu"),
            sigma=data.draw(st.just(0.0) | st.floats(0.0, 1.0), label="sigma"),
            count=10,
        )
        result = sweep_threshold(losses, injected, stats)
        best_n, best_f1, counts, curve = brute_force_sweep(list(zip(losses, injected)), stats)
        assert (result.best_n, result.best_f1) == (best_n, best_f1)
        c = result.confusion
        assert (c.tp, c.fp, c.fn, c.tn) == counts
        assert all(type(v) is int for v in (c.tp, c.fp, c.fn, c.tn))
        assert result.f1_curve == tuple(curve)
        assert all(type(v) is float for v in result.f1_curve)

    def test_curve_covers_grid(self):
        stats = loss_stats([1.0, 1.1, 0.9])
        result = sweep_threshold([0.9, 5.0], flags(1, 1), stats)
        assert len(result.f1_curve) == 101
        assert result.f1_curve[0] == result.best_f1 == 1.0

    def test_all_normal_rejected(self):
        stats = loss_stats([1.0])
        with pytest.raises(DegenerateValidationError):
            sweep_threshold([1.0], flags(1, 0), stats)

    def test_all_injected_rejected(self):
        stats = loss_stats([1.0])
        with pytest.raises(DegenerateValidationError):
            sweep_threshold([1.0], flags(0, 1), stats)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateValidationError):
            sweep_threshold([], flags(0, 0), loss_stats([1.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 losses but 1 injected flags"):
            sweep_threshold([1.0, 2.0], flags(0, 1), loss_stats([1.0]))

    @pytest.mark.parametrize(
        "injected",
        [
            [Label.NORMAL, Label.INJECTED],  # non-empty strings, each truthy
            [False, True],
            np.array([0, 1]),
            np.array([[False, True]]),
        ],
        ids=["labels", "list", "int-array", "2-d"],
    )
    def test_anything_but_a_bool_vector_refused(self, injected):
        with pytest.raises(ValueError, match="1-d numpy bool array") as caught:
            sweep_threshold([0.9, 5.0], injected, loss_stats([1.0, 1.1, 0.9]))
        assert not isinstance(caught.value, DegenerateValidationError)

    def test_shuffled_labels_score_poorly(self):
        # negative control: random labels on one loss distribution can't
        # reach a high F1 at any threshold
        rng = np.random.default_rng(17)
        losses = rng.exponential(0.05, size=400)
        stats = loss_stats(losses)
        injected = flags(360, 40)
        rng.shuffle(injected)
        result = sweep_threshold(losses, injected, stats)
        assert result.best_f1 < 0.4


def out_records(report: DetectionReport) -> list[dict]:
    """The report's ``score --out`` lines, parsed back into records."""
    return [json.loads(line) for line in report.to_jsonl().splitlines()]


class TestScoreEvents:
    def _trained(self):
        rows = random_rows(64, seed=30)
        model = fit(rows, TrainConfig(epochs=10), seed=5)
        return model, rows

    def test_losses_in_input_order(self):
        model, rows = self._trained()
        model.chosen_n = 3.0
        report = score_events(model, rows)
        assert np.array_equal(report.losses, model.losses(rows))
        assert report.threshold_n == 3.0
        assert report.mu == model.train_mu
        assert report.sigma == model.train_sigma

    def test_records_sorted_by_loss_descending(self):
        model, rows = self._trained()
        rows = np.concatenate([rows, rows[:8]])  # the last 8 rows repeat, so ties occur
        model.chosen_n = 2.0
        report = score_events(model, rows)
        records = out_records(report)
        keys = [(-r["loss"], r["position"]) for r in records]
        assert keys == sorted(keys)
        assert len({r["loss"] for r in records}) < len(records)
        assert sorted(r["position"] for r in records) == list(range(len(rows)))
        for r in records:
            assert r["loss"] == report.losses[r["position"]]
            assert r["actor_id"] == model.actor_id
            assert r["label"] is None

    def test_classifications_match_threshold(self):
        model, rows = self._trained()
        model.chosen_n = 1.0
        report = score_events(model, rows)
        cut = model.train_mu + 1.0 * model.train_sigma
        assert np.array_equal(report.flagged, report.losses > cut)
        for r in out_records(report):
            expected = Classification.ANOMALY if r["loss"] > cut else Classification.NORMAL
            assert r["classification"] == expected.value
        assert report.anomaly_count == sum(1 for loss in report.losses if loss > cut)
        assert report.anomaly_rate == report.anomaly_count / len(rows)

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 2.5])
    def test_classifications_match_scalar_classify(self, n):
        model, rows = self._trained()
        stats = LossStats(mu=model.train_mu, sigma=model.train_sigma, count=0)
        model.chosen_n = n
        report = score_events(model, rows)
        for loss, flagged in zip(report.losses.tolist(), report.flagged.tolist()):
            assert flagged == (classify(loss, stats, n) is Classification.ANOMALY)

    @pytest.mark.parametrize("sigma, n", [(0.25, 0.0), (0.0, 0.0), (0.0, 3.0)])
    def test_loss_exactly_at_threshold_is_normal(self, sigma, n):
        # mu is one row's loss and n * sigma is 0, so that row sits exactly
        # on the threshold
        model, rows = self._trained()
        losses = model.losses(rows)
        model.train_mu = float(losses[7])
        model.train_sigma = sigma
        stats = LossStats(mu=model.train_mu, sigma=sigma, count=0)
        model.chosen_n = n
        report = score_events(model, rows)
        for r in out_records(report):
            assert r["classification"] == classify(r["loss"], stats, n).value
        assert not report.flagged[7]
        assert report.anomaly_count == int((losses > losses[7]).sum()) > 0

    def test_negative_n_rejected(self):
        model, rows = self._trained()
        model.chosen_n = -0.1
        with pytest.raises(ValueError, match="n must be >= 0"):
            score_events(model, rows)

    def test_missing_threshold_rejected(self):
        model, rows = self._trained()
        model.chosen_n = None
        with pytest.raises(ValueError, match="threshold"):
            score_events(model, rows)

    def test_untrained_model_rejected(self):
        model, rows = self._trained()
        model.train_mu = None
        with pytest.raises(ValueError, match="statistics"):
            score_events(model, rows)


def reference_jsonl(actor_id: str, losses: list[float], flagged: list[bool]) -> str:
    """``score --out`` bytes built the plain way: sort, then ``json.dumps`` each record."""
    # loss descending, NaN last, equal losses in input order
    order = sorted(
        range(len(losses)),
        key=lambda i: (True, 0.0, i) if math.isnan(losses[i]) else (False, -losses[i], i),
    )
    return "".join(
        json.dumps(
            {
                "position": i,
                "actor_id": actor_id,
                "loss": losses[i],
                "classification": "ANOMALY" if flagged[i] else "NORMAL",
                "label": None,
            },
            sort_keys=True,
        )
        + "\n"
        for i in order
    )


class TestOutByteForm:
    """``DetectionReport.to_jsonl`` writes what ``json.dumps(record, sort_keys=True)`` would."""

    @staticmethod
    def _report(actor_id: str, losses: list[float]) -> DetectionReport:
        array = np.array(losses, dtype=float)
        return DetectionReport(
            actor_id=actor_id, threshold_n=1.0, mu=0.5, sigma=0.25,
            losses=array, flagged=array > 0.75,
        )

    @pytest.mark.parametrize(
        "losses",
        [
            [0.25, 1.5, 0.25, 1.5, 0.1 + 0.2, 1e-300, 12345678.9, 0.0, 2.0 / 3.0],
            [float("nan"), 0.5, math.inf, -math.inf, 1.0, float("nan"), math.inf],
            [0.75],
        ],
        ids=["ties-and-repr", "nan-and-infinities", "one-row"],
    )
    @pytest.mark.parametrize(
        "actor_id",
        [
            "u042",
            'quote"d',
            "back\\slash",
            "caf\u00e9-\u6f22-\U0001f600",
            "tab\tnew\nline\x00\x1f\x7f",
            "100%{x}",
        ],
        ids=["plain", "quote", "backslash", "non-ascii", "control", "format-chars"],
    )
    def test_bytes_equal_json_dumps(self, actor_id, losses):
        report = self._report(actor_id, losses)
        expected = reference_jsonl(actor_id, losses, [loss > 0.75 for loss in losses])
        assert report.to_jsonl() == expected

    def test_empty_report_writes_nothing(self):
        assert self._report("u042", []).to_jsonl() == ""
