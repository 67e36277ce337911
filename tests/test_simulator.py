import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsplab.auction import FEATURE_DIM, F_PCTR, GspMechanism
from gsplab.simulator import (
    Rounds,
    World,
    WorldConfig,
    load_world_config,
    raw_metrics,
    save_world_config,
    scalarize,
)


# ---------------------------------------------------------------------------
# Configuration


def test_world_config_validation():
    with pytest.raises(ValueError):
        WorldConfig(slots=2, slot_ctr_factors=(1.0,))
    with pytest.raises(ValueError):
        WorldConfig(slots=2, slot_ctr_factors=(0.5, 1.0))
    with pytest.raises(ValueError):
        WorldConfig(slots=1, slot_ctr_factors=(1.5,))
    with pytest.raises(ValueError):
        WorldConfig(n_advertisers=2)  # three slots
    with pytest.raises(ValueError):
        WorldConfig(n_advertisers=0, slots=1, slot_ctr_factors=(1.0,))
    for noise in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError):
            WorldConfig(prediction_noise=noise)
    with pytest.raises(ValueError):
        WorldConfig(calibration_rounds=0)
    for bad in (dict(seed=-1),
                dict(slots=2, slot_ctr_factors=(float("nan"), 0.5))):
        with pytest.raises(ValueError):
            WorldConfig(**bad)


def test_world_config_round_trip(tmp_path):
    cfg = WorldConfig(n_advertisers=5, slots=2, slot_ctr_factors=(1.0, 0.4),
                      prediction_noise=0.05, seed=11)
    path = tmp_path / "world.ini"
    save_world_config(cfg, path)
    assert load_world_config(path) == cfg


# ---------------------------------------------------------------------------
# Sampling


def test_zero_noise_predictions_equal_truth():
    cfg = WorldConfig(prediction_noise=0.0, calibration_rounds=10, seed=3)
    world = World(cfg)
    rounds = world.sample_rounds(5, np.random.default_rng(0))
    assert np.allclose(rounds.feats[:, :, F_PCTR], world.true_ctr[None, :])


def test_truthful_bids_equal_values():
    world = World(WorldConfig(calibration_rounds=10, seed=3))
    rounds = world.sample_rounds(5, np.random.default_rng(0))
    assert np.array_equal(rounds.bids, rounds.values)


def test_sampling_deterministic():
    world = World(WorldConfig(calibration_rounds=10, seed=3))
    a = world.sample_rounds(7, np.random.default_rng(42))
    b = world.sample_rounds(7, np.random.default_rng(42))
    assert np.array_equal(a.bids, b.bids)
    assert np.array_equal(a.feats, b.feats)


def test_equal_configs_build_identical_worlds():
    w1 = World(WorldConfig(calibration_rounds=50, seed=9))
    w2 = World(WorldConfig(calibration_rounds=50, seed=9))
    assert np.array_equal(w1.true_ctr, w2.true_ctr)
    assert np.array_equal(w1.normalizers, w2.normalizers)


# ---------------------------------------------------------------------------
# Feedback realization


def test_zero_ctr_produces_nothing():
    world = World(WorldConfig(calibration_rounds=10, seed=3))
    world.true_ctr[:] = 0.0
    winners = np.zeros((100, world.slots), dtype=int)
    clicks, carts, orders = world.realize_batch(winners,
                                                np.random.default_rng(0))
    assert not clicks.any() and not carts.any() and not orders.any()


def test_certain_funnel_converts_every_impression():
    cfg = WorldConfig(slots=1, slot_ctr_factors=(1.0,),
                      calibration_rounds=10, seed=3)
    world = World(cfg)
    world.true_ctr[:] = 1.0
    world.true_acr[:] = 1.0
    world.true_cvr[:] = 1.0
    winners = np.zeros((200, 1), dtype=int)
    clicks, carts, orders = world.realize_batch(winners,
                                                np.random.default_rng(0))
    assert clicks.all() and carts.all() and orders.all()


def test_funnel_is_click_gated():
    world = World(WorldConfig(calibration_rounds=10, seed=3))
    rng = np.random.default_rng(5)
    winners = rng.integers(0, world.n_advertisers, size=(500, world.slots))
    clicks, carts, orders = world.realize_batch(winners, rng)
    assert not (carts & ~clicks).any()
    assert not (orders & ~clicks).any()


def test_monte_carlo_click_rate():
    world = World(WorldConfig(slots=1, slot_ctr_factors=(0.8,),
                              calibration_rounds=10, seed=3))
    n = 100_000
    winners = np.zeros((n, 1), dtype=int)
    clicks, _, _ = world.realize_batch(winners, np.random.default_rng(0))
    p = world.beta[0] * world.true_ctr[0]
    bound = 3.0 * np.sqrt(p * (1 - p) / n)
    assert abs(clicks.mean() - p) <= bound


# ---------------------------------------------------------------------------
# Metrics


def _feedback(n_rounds, slots, n_clicks, price, n_orders=0, gmv=0.0):
    """(R, K) settle-style feedback with the first n_clicks slots clicked."""
    clicks = np.zeros((n_rounds, slots), dtype=bool)
    clicks.flat[:n_clicks] = True
    orders = np.zeros_like(clicks)
    orders.flat[:n_orders] = True
    return {"clicks": clicks, "carts": np.zeros_like(clicks), "orders": orders,
            "prices": np.full(clicks.shape, price),
            "gmv": np.where(orders, gmv, 0.0)}


def _unit_world():
    world = World(WorldConfig(calibration_rounds=10, seed=3))
    world.normalizers = np.ones(5)
    return world


def test_rpm_arithmetic():
    # 300 clicks at 1.0 over 1000 impressions: RPM 300, CTR 0.3
    raw = raw_metrics(_feedback(500, 2, n_clicks=300, price=1.0))
    assert raw[0] == pytest.approx(300.0)
    assert raw[1] == pytest.approx(0.3)


def test_all_click_no_order_batch():
    raw = raw_metrics(_feedback(5, 2, n_clicks=10, price=0.5))
    rpm, ctr, acr, cvr, gpm = _unit_world().normalized(raw)
    assert cvr == 0.0
    assert gpm == 0.0
    assert ctr == 1.0


def test_metrics_clipped_to_unit_interval():
    raw = raw_metrics(_feedback(5, 2, n_clicks=10, price=1e5))
    assert _unit_world().normalized(raw)[0] == 1.0


def test_per_round_metrics_rows():
    played = _feedback(3, 2, n_clicks=3, price=2.0, n_orders=1, gmv=40.0)
    per_round = raw_metrics(played, per_round=True)
    # round 0: both slots clicked at 2.0, one order worth 40
    assert per_round[0] == pytest.approx([2000.0, 1.0, 0.0, 0.5, 20000.0])
    assert per_round[1] == pytest.approx([1000.0, 0.5, 0.0, 0.0, 0.0])
    assert np.all(per_round[2] == 0.0)


@settings(max_examples=40, deadline=None)
@given(n_rounds=st.integers(1, 300), sigma=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_per_round_metrics_average_to_episode(small_world, n_rounds, sigma,
                                              seed):
    # the critic's per-round reward and the reported episode metrics
    # come from one formula, so they agree before clipping
    rng = np.random.default_rng(seed)
    rounds = small_world.sample_rounds(n_rounds, rng)
    played = small_world.play(rounds, GspMechanism(sigma), rng)
    per_round = raw_metrics(played, per_round=True)
    assert per_round.shape == (n_rounds, 5)
    assert np.allclose(per_round.mean(axis=0), raw_metrics(played))


def test_scalarize_per_round_rows():
    rows = np.array([[0.4, 0.2, 0.1, 0.3, 0.5], [1.0, 0.0, 0.0, 0.0, 0.0]])
    f = scalarize(rows, (0.5, 0.5, 0, 0, 0))
    assert f == pytest.approx([0.3, 0.5])
    assert scalarize(rows[0], (0.5, 0.5, 0, 0, 0)) == f[0]


def test_scalarize_examples():
    vec = np.array([0.4, 0.2, 0.1, 0.3, 0.5])
    assert scalarize(vec, (1, 0, 0, 0, 0)) == pytest.approx(0.4)
    same = np.full(5, 0.37)
    assert scalarize(same, (0.5, 0.5, 0, 0, 0)) == pytest.approx(0.37)
    assert scalarize(same, (0.2, 0.2, 0.2, 0.2, 0.2)) == pytest.approx(0.37)


def test_scalarize_validation():
    vec = np.full(5, 0.3)
    with pytest.raises(ValueError):
        scalarize(vec, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        scalarize(vec, (0.5, 0.2, 0, 0, 0))


# ---------------------------------------------------------------------------
# Advertiser utility


def _settle_one(ctr, value, ppc):
    """Utility of advertiser 0 winning one single-slot round at ``ppc``."""
    world = World(WorldConfig(n_advertisers=2, slots=1, slot_ctr_factors=(1.0,),
                              calibration_rounds=10, seed=3))
    world.true_ctr[:] = ctr
    rounds = Rounds(bids=np.array([[value, 1.0]]),
                    values=np.array([[value, 1.0]]),
                    feats=np.zeros((1, 2, FEATURE_DIM)))
    played = world.settle(rounds, rounds.bids, np.array([[0, 1]]),
                          np.array([[ppc]]), np.random.default_rng(0))
    assert played["wins"].tolist() == [1, 0]
    return played["utility"]


def test_utility_no_clicks_is_zero():
    assert np.array_equal(_settle_one(0.0, value=5.0, ppc=1.0), [0.0, 0.0])


def test_utility_worked_example():
    assert _settle_one(1.0, value=10.0, ppc=9.55) == pytest.approx([0.45, 0.0])


def test_utility_positive_under_second_price(small_world):
    rng = np.random.default_rng(13)
    rounds = small_world.sample_rounds(500, rng)
    played = small_world.play(rounds, GspMechanism(1.0), rng)
    # truthful bids and p <= b per winner imply nonnegative total utility
    assert played["utility"].sum() >= 0.0


def test_benchmark_single_round_matches_play():
    world = World(WorldConfig(calibration_rounds=10, seed=3))
    rng1 = np.random.default_rng(77)
    ubar = world.benchmark_utilities(GspMechanism(1.0), 1, rng1)
    rng2 = np.random.default_rng(77)
    rounds = world.sample_rounds(1, rng2)
    played = world.play(rounds, GspMechanism(1.0), rng2)
    assert np.array_equal(ubar, played["utility"])


def test_benchmark_reproducible():
    world = World(WorldConfig(calibration_rounds=10, seed=3))
    a = world.benchmark_utilities(GspMechanism(1.0), 50,
                                  np.random.default_rng(5))
    b = world.benchmark_utilities(GspMechanism(1.0), 50,
                                  np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_benchmark_symmetry_for_identical_advertisers():
    world = World(WorldConfig(calibration_rounds=10, seed=3))
    world.true_ctr[:] = 0.25
    world.true_acr[:] = 0.1
    world.true_cvr[:] = 0.05
    world.price[:] = 20.0
    world.value_mu[:] = 0.5
    ubar = world.benchmark_utilities(GspMechanism(1.0), 200_000,
                                     np.random.default_rng(0))
    spread = (ubar.max() - ubar.min()) / ubar.mean()
    assert spread < 0.05


def test_benchmark_requires_rounds():
    world = World(WorldConfig(calibration_rounds=10, seed=3))
    with pytest.raises(ValueError):
        world.benchmark_utilities(GspMechanism(1.0), 0,
                                  np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Evaluation plumbing


def test_evaluate_requires_rounds(small_world):
    with pytest.raises(ValueError):
        small_world.evaluate(GspMechanism(1.0), 0, seed=4)


def test_evaluate_deterministic(small_world):
    m1, u1 = small_world.evaluate(GspMechanism(1.0), 200, seed=4)
    m2, u2 = small_world.evaluate(GspMechanism(1.0), 200, seed=4)
    assert m1 == m2
    assert np.array_equal(u1, u2)
