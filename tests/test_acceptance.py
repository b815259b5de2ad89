"""End-to-end acceptance checks for the login anomaly pipeline.

Each test prints one ACCEPTANCE line naming the check and its outcome, so a
full run doubles as a go/no-go report. The 18-actor experiment dominates the
runtime; everything else finishes in seconds.
"""

import json
import math
import time

import numpy as np
import pytest

from loginwatch.apps import build_superset, login_frequencies, wilson_interval
from loginwatch.detect import (
    SWEEP_GRID,
    Classification,
    LossStats,
    classify,
    f1_score,
    loss_stats,
    sweep_threshold,
)
from loginwatch.encoding import (
    EncoderState,
    TimeMode,
    build_event_indices,
    encode_event,
    observed_hours,
)
from loginwatch.events import parse_event
from loginwatch.geo import geohash_decode, geohash_encode, haversine_miles
from loginwatch.inject import InjectionKind, InjectionSpec, Label, inject
from loginwatch.model import (
    Autoencoder,
    TrainConfig,
    dice_coefficient,
    gradient_check,
)
from loginwatch.pipeline import (
    PipelineConfig,
    primary_sweep,
    run_train_workflow,
    stratified_sample,
)
from loginwatch.synth import generate_actor_profile, generate_corpus, generate_logins

from test_model import SIZES, fit, random_rows

# training settings for the acceptance experiments; hotter and longer than the
# library defaults so every synthetic actor converges inside the time budget
ACCEPT_TRAIN = dict(epochs=400, learning_rate=0.1)
KM_PER_MILE = 1.609344


def announce(capsys, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_experiment_reproduction(capsys):
    t0 = time.perf_counter()
    records = generate_corpus(actor_count=18, days=90, seed=7)
    events = [parse_event(json.dumps(r), 1) for r in records]
    config = PipelineConfig(seed=7, train=TrainConfig(**ACCEPT_TRAIN))
    result = run_train_workflow(events, config)
    elapsed = time.perf_counter() - t0

    f1s = [primary_sweep(entry.metrics)["best_f1"] for entry in result.entries.values()]
    near_perfect = sum(1 for v in f1s if v >= 0.97)
    usable = sum(1 for v in f1s if v >= 0.70)
    ok = (
        len(f1s) == 18 and near_perfect >= 13 and usable >= 15 and elapsed < 600.0
    )
    announce(
        capsys,
        "experiment-reproduction",
        ok,
        f"{near_perfect}/18 >= 0.97, {usable}/18 >= 0.70, {elapsed:.0f}s",
    )
    assert len(f1s) == 18
    assert near_perfect >= 13
    assert usable >= 15
    assert elapsed < 600.0


def test_single_actor_perfect_separation(capsys):
    profile = generate_actor_profile(7, "u900")
    stream = [
        parse_event(json.dumps(r), 1) for r in generate_logins(profile, days=180)
    ]
    train_part, val_part = stream[:-1260], stream[-1260:]
    encoder = EncoderState(
        geohash_precision=3,
        time_mode=TimeMode.RAW,
        active_hours=observed_hours(train_part),
        indices=build_event_indices(train_part, 3),
        known_apps=build_superset(login_frequencies(train_part)).apps_for("u900"),
    )
    sizes = encoder.feature_sizes()

    def encode(evts):
        return np.array([encode_event(e, encoder) for e in evts], dtype=np.int64)

    sample = encode(train_part)[stratified_sample(len(train_part), 0.1, 10, seed=1234)]
    config = TrainConfig(**ACCEPT_TRAIN)
    model = fit(sample, config, sizes, actor_id=profile.actor_id, seed=99)
    mutated, labels = inject(
        val_part, InjectionSpec(kind=InjectionKind.LOCATION, fraction=0.1), seed=5
    )
    is_injected = np.array([label is Label.INJECTED for label in labels])
    injected = int(is_injected.sum())

    losses = model.losses(encode(mutated))
    stats = LossStats(mu=model.train_mu, sigma=model.train_sigma, count=len(sample))
    sweep = sweep_threshold(losses, is_injected, stats)
    c = sweep.confusion

    ok = injected == 126 and c.fp + c.fn <= 2
    announce(
        capsys,
        "single-actor-separation",
        ok,
        f"tp={c.tp} fp={c.fp} fn={c.fn} at n={sweep.best_n}",
    )
    assert injected == 126
    assert c.fp + c.fn <= 2


def test_f1_arithmetic(capsys):
    high = f1_score(4, 3, 0)  # precision 0.571, recall 1.0
    low = f1_score(31, 969, 0)  # precision 0.031, recall 1.0
    ok = abs(high - 0.727) <= 0.001 and abs(low - 0.060) <= 0.001
    announce(capsys, "f1-arithmetic", ok, f"{high:.3f}, {low:.3f}")
    assert high == pytest.approx(0.727, abs=1e-3)
    assert low == pytest.approx(0.060, abs=1e-3)


def test_wilson_means(capsys):
    worst = 0.0
    for z in (1.0, 1.645, 1.96, 2.576):
        for k, n in ((2, 4), (4, 8)):
            low, high = wilson_interval(k, n, z)
            worst = max(worst, abs((low + high) / 2 - 0.5))
    ok = worst <= 1e-9
    announce(capsys, "wilson-means", ok, f"max deviation {worst:.1e}")
    assert worst <= 1e-9


def test_wilson_coverage(capsys):
    # The Wilson interval is the set of p that the score test accepts, so its
    # exact coverage follows from the acceptance region (k/n - p)^2 <=
    # z^2 p(1-p)/n without calling wilson_interval. Binomial coverage
    # oscillates around the nominal 95% and overshoots at this lattice point
    # (0.97522), so the simulation is held to the exact value, not to a
    # window around nominal: the Wald interval and a Wilson interval without
    # the z^2/2n centre shift both cover 0.94737 here and must fail.
    n, p, z, draws = 20, 0.3, 1.96, 10_000
    exact = sum(
        math.comb(n, k) * p**k * (1 - p) ** (n - k)
        for k in range(n + 1)
        if (k / n - p) ** 2 <= z * z * p * (1 - p) / n
    )
    assert exact == pytest.approx(0.97522, abs=1e-4)

    rng = np.random.default_rng(123)
    hits = 0
    for k in rng.binomial(n, p, size=draws):
        low, high = wilson_interval(int(k), n, z)
        if low <= p <= high:
            hits += 1
    coverage = hits / draws
    # four binomial standard errors of the simulated proportion
    tolerance = 4 * math.sqrt(exact * (1 - exact) / draws)
    ok = abs(coverage - exact) <= tolerance and coverage >= 0.93
    announce(
        capsys,
        "wilson-coverage",
        ok,
        f"simulated {coverage:.4f}, exact {exact:.5f}, tolerance {tolerance:.4f}",
    )
    assert ok


def test_geohash_properties(capsys):
    def nested(inner, outer) -> bool:
        return (
            inner.lat_min >= outer.lat_min
            and inner.lat_max <= outer.lat_max
            and inner.lon_min >= outer.lon_min
            and inner.lon_max <= outer.lon_max
        )

    rng = np.random.default_rng(42)
    lats = rng.uniform(-90.0, 90.0, size=100_000)
    lons = rng.uniform(-180.0, 180.0, size=100_000)
    ok = True
    for lat, lon in zip(lats.tolist(), lons.tolist()):
        full = geohash_encode(lat, lon, 7)
        if geohash_encode(lat, lon, 3) != full[:3]:
            ok = False
            break
        if geohash_encode(lat, lon, 5) != full[:5]:
            ok = False
            break
        fine = geohash_decode(full)
        mid = geohash_decode(full[:5])
        coarse = geohash_decode(full[:3])
        if not (fine.contains(lat, lon) and nested(fine, mid) and nested(mid, coarse)):
            ok = False
            break

    spans = {
        geohash_decode(geohash_encode(lat, lon, 3)).lat_span
        for lat, lon in ((0.0, 0.0), (57.64911, 10.40744), (-33.9, 151.2))
    }
    lat_span_exact = spans == {1.40625}

    box = geohash_decode(geohash_encode(57.64911, 10.40744, 5))
    lon_mid = (box.lon_min + box.lon_max) / 2
    ns_km = haversine_miles(box.lat_min, lon_mid, box.lat_max, lon_mid) * KM_PER_MILE
    cell_ok = 4.9 * 0.9 <= ns_km <= 4.9 * 1.1

    equator = geohash_decode(geohash_encode(0.01, 0.01, 5))
    lat_mid = (equator.lat_min + equator.lat_max) / 2
    ew_km = (
        haversine_miles(lat_mid, equator.lon_min, lat_mid, equator.lon_max)
        * KM_PER_MILE
    )
    cell_ok = cell_ok and 4.9 * 0.9 <= ew_km <= 4.9 * 1.1

    announce(
        capsys,
        "geohash-properties",
        ok and lat_span_exact and cell_ok,
        f"100000 points, cell {ns_km:.2f} x {ew_km:.2f} km",
    )
    assert ok
    assert lat_span_exact
    assert cell_ok


def test_gradient_correctness(capsys):
    worst = 0.0
    for seed in range(20):
        model = Autoencoder("probe", SIZES, hidden_dim=5, code_dim=3, seed=seed)
        row = random_rows(1, seed=seed + 1000)[0]
        worst = max(worst, gradient_check(model, row))
    ok = worst < 1e-4
    announce(capsys, "gradient-correctness", ok, f"max rel err {worst:.2e}")
    assert worst < 1e-4


def test_dice_properties(capsys):
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(50):
        p = rng.uniform(0.05, 1.0, size=6)
        g = rng.uniform(0.05, 1.0, size=6)
        ok = ok and dice_coefficient(p, p) == 1.0
        ok = ok and dice_coefficient(p, g) == dice_coefficient(g, p)
    ok = ok and dice_coefficient(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    for size in (1, 3, 8):
        ones = np.ones(size)
        ok = ok and dice_coefficient(2.0 * ones, ones) == 4 / 5
    announce(capsys, "dice-properties", ok)
    assert ok


def test_threshold_monotonicity(capsys):
    ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        losses = rng.gamma(2.0, 1.5, size=400).tolist()
        stats = loss_stats(losses)
        previous = None
        for n in SWEEP_GRID:
            flagged = frozenset(
                i
                for i, loss in enumerate(losses)
                if classify(loss, stats, n) is Classification.ANOMALY
            )
            if previous is not None and not flagged <= previous:
                ok = False
            previous = flagged
    announce(capsys, "threshold-monotonicity", ok, "101-point grid, 5 loss sets")
    assert ok


def test_deterministic_reports(capsys):
    def run() -> bytes:
        records = generate_corpus(actor_count=5, days=45, seed=11)
        events = [parse_event(json.dumps(r), 1) for r in records]
        config = PipelineConfig(
            seed=11,
            min_events=150,
            train=TrainConfig(epochs=80, learning_rate=0.05),
        )
        return run_train_workflow(events, config).to_summary_json().encode()

    first, second = run(), run()
    ok = first == second
    announce(capsys, "deterministic-reports", ok, f"{len(first)} byte summary")
    assert first == second
