import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsplab import audit
from gsplab.audit import (
    BID_GRID,
    BID_HI,
    BID_LO,
    AuditConfig,
    _average_ranks,
    i_sic,
    monotonicity_metric,
    payment_error_rate,
    single_slot_world,
    spearman_rho,
)
from gsplab.auction import (
    F_PCTR,
    F_PCVR,
    FEATURE_DIM,
    DegenerateMultiplierError,
    DeepGspMechanism,
    Features,
    FixedScoreMechanism,
    GspMechanism,
    UgspMechanism,
    allocate_batch,
    price_batch,
)
from gsplab.nets import BidMultiplierNet
from gsplab.simulator import Rounds, World, WorldConfig
from gsplab.trainer import TrainConfig


class ConstantActor:
    """Bid-independent multiplier, no offset; the division price is exact."""

    def __init__(self, c=0.7):
        self.c = c

    def multiplier_batch(self, bids, feats):
        shape = np.asarray(bids, dtype=float).shape
        return np.full(shape, self.c), np.zeros(shape)


class DecayActor:
    """pi = exp(-b), no offset, so the rank score b * exp(-b) peaks at
    b = 1."""

    def multiplier_batch(self, bids, feats):
        bids = np.asarray(bids, dtype=float)
        return np.exp(-bids), np.zeros(bids.shape)


# ---------------------------------------------------------------------------
# Spearman correlation


def test_spearman_perfect_agreement():
    assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)


def test_spearman_perfect_reversal():
    assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_one_swap():
    assert spearman_rho([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_spearman_constant_sequence_is_none():
    assert spearman_rho([1, 2, 3], [5, 5, 5]) is None
    assert spearman_rho([2, 2, 2], [1, 2, 3]) is None


def test_spearman_average_ranks_for_ties():
    # ys ranks: [1, 2.5, 2.5, 4]; centered dot with xs ranks gives 0.9487
    rho = spearman_rho([1, 2, 3, 4], [0.0, 1.0, 1.0, 2.0])
    rx = np.array([1, 2, 3, 4], dtype=float)
    ry = np.array([1.0, 2.5, 2.5, 4.0])
    rx -= rx.mean()
    ry -= ry.mean()
    expected = (rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry))
    assert rho == pytest.approx(expected)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_average_ranks_match_brute_force(values):
    # few distinct values, so most inputs have ties
    xs = np.array(values, dtype=float)
    less = (xs[None, :] < xs[:, None]).sum(axis=1)
    equal = (xs[None, :] == xs[:, None]).sum(axis=1)
    assert np.array_equal(_average_ranks(xs), less + 0.5 * (equal + 1))


def test_spearman_validation():
    with pytest.raises(ValueError):
        spearman_rho([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman_rho([1], [1])


def test_audit_config_validation():
    assert AuditConfig(alpha=0.05).alpha == 0.05
    for alpha in (0.0, 0.05001, 1.0, float("nan")):
        with pytest.raises(ValueError):
            AuditConfig(alpha=alpha)


# ---------------------------------------------------------------------------
# Monotonicity metric


def _states(n=5):
    rng = np.random.default_rng(0)
    return [(float(b), rng.uniform(0, 1, FEATURE_DIM))
            for b in rng.uniform(0.5, 2.0, n)]


def test_monotonicity_constant_multiplier_is_one():
    result = monotonicity_metric(ConstantActor(), _states())
    assert result.t_m == pytest.approx(1.0)
    assert result.n_states == 5
    assert result.n_degenerate == 0


def test_monotonicity_matches_brute_force_grid():
    states = _states(4)
    result = monotonicity_metric(DecayActor(), states)

    def rank(v):
        order = np.argsort(v)
        r = np.empty(v.size)
        r[order] = np.arange(1, v.size + 1)
        return r

    rhos = []
    for b, _x in states:
        grid = np.linspace(0.1 * b, 10.0 * b, 20)
        scores = grid * np.exp(-grid)
        rg, rs = rank(grid), rank(scores)
        rhos.append(np.corrcoef(rg, rs)[0, 1])
    assert result.t_m == pytest.approx(np.mean(rhos), abs=1e-12)
    assert result.t_m < 0.5  # the humped score is far from monotone


def test_monotonicity_scores_every_grid_in_one_call():
    states = _states(6)
    calls = []

    class Recorder(DecayActor):
        def multiplier_batch(self, bids, feats):
            calls.append((np.array(bids), np.array(feats)))
            return super().multiplier_batch(bids, feats)

    result = monotonicity_metric(Recorder(), states)
    assert len(calls) == 1
    bids, feats = calls[0]
    assert bids.shape == (6 * BID_GRID,) and feats.shape == (6 * BID_GRID,
                                                            FEATURE_DIM)
    for i, (b, x) in enumerate(states):   # state i's grid, its features
        rows = slice(i * BID_GRID, (i + 1) * BID_GRID)
        assert np.array_equal(bids[rows],
                              np.linspace(BID_LO * b, BID_HI * b, BID_GRID))
        assert np.array_equal(feats[rows], np.tile(x, (BID_GRID, 1)))
    rhos = [spearman_rho(g, g * np.exp(-g)) for g in bids.reshape(6, -1)]
    assert result.t_m == np.mean(rhos)


def test_monotonicity_counts_degenerate_states():
    class ZeroActor:
        def multiplier_batch(self, bids, feats):
            return np.zeros((2,) + np.asarray(bids).shape)

    result = monotonicity_metric(ZeroActor(), _states(3))
    assert result.n_degenerate == 3
    assert np.isnan(result.t_m)


def test_monotonicity_rejects_empty_test_set():
    with pytest.raises(ValueError):
        monotonicity_metric(ConstantActor(), [])


# ---------------------------------------------------------------------------
# Payment error rate


def test_per_constant_multiplier_is_exact(small_world):
    config = AuditConfig(per_rounds=50)
    mech = DeepGspMechanism(ConstantActor())
    result = payment_error_rate(small_world, mech, config)
    assert result.mean == pytest.approx(1.0, abs=1e-4)
    assert result.p05 == pytest.approx(1.0, abs=1e-4)
    assert result.p95 == pytest.approx(1.0, abs=1e-4)
    assert result.n_excluded == 0
    assert result.n_winners == 50 * small_world.slots


class _GivenRoundsWorld:
    """Stands in for a World whose every sample is the given rounds."""

    def __init__(self, bids, feats, slots):
        self.bids, self.feats, self.slots = bids, feats, slots
        self.n_advertisers = bids.shape[1]

    def sample_rounds(self, n_rounds, rng):
        return Rounds(bids=self.bids.copy(), feats=self.feats.copy())


def _given_rounds(bids, pctr, pcvr=0.0, slots=1):
    bids = np.asarray(bids, dtype=float)
    feats = np.zeros(bids.shape + (FEATURE_DIM,))
    feats[..., F_PCTR] = pctr
    feats[..., F_PCVR] = pcvr
    return _GivenRoundsWorld(bids, feats, slots)


def test_per_excludes_degenerate_winners():
    # a zero-pCTR GSP winner has a zero multiplier: no division price;
    # in round 0 the zero-pCTR ad wins slot 2 on the bid tie-break
    world = _given_rounds([[1.0, 5.0, 1.0], [2.0, 1.0, 3.0]],
                          [[0.5, 0.0, 0.0], [0.3, 0.4, 0.1]], slots=2)
    result = payment_error_rate(world, GspMechanism(1.0),
                                AuditConfig(per_rounds=2))
    assert result.n_excluded == 1
    assert result.n_winners == 3
    assert result.mean == pytest.approx(1.0, abs=1e-4)


def test_per_without_auditable_winners_is_nan(small_world):
    result = payment_error_rate(small_world,
                                DeepGspMechanism(ConstantActor(0.0)),
                                AuditConfig(per_rounds=20))
    assert result.n_winners == 0
    assert result.n_excluded == 20 * small_world.slots
    assert np.isnan([result.mean, result.p05, result.p95]).all()


def test_per_gsp_is_exact(small_world):
    config = AuditConfig(per_rounds=50)
    result = payment_error_rate(small_world, GspMechanism(1.0), config)
    assert result.mean == pytest.approx(1.0, abs=1e-4)


def test_per_deterministic(small_world):
    config = AuditConfig(per_rounds=30, seed=7)
    a = payment_error_rate(small_world, GspMechanism(0.7), config)
    b = payment_error_rate(small_world, GspMechanism(0.7), config)
    assert a == b


# ---------------------------------------------------------------------------
# Incentive compatibility


@pytest.fixture(scope="module")
def one_slot(small_world):
    return single_slot_world(small_world)


def test_single_slot_world_shape(small_world, one_slot):
    assert one_slot.slots == 1
    assert one_slot.config.slot_ctr_factors == (
        small_world.config.slot_ctr_factors[0],)
    assert one_slot.n_advertisers == small_world.n_advertisers


def test_isic_gsp_is_truthful(one_slot):
    config = AuditConfig(alpha=0.01, isic_rounds=10_000)
    result = i_sic(GspMechanism(1.0), one_slot, config)
    assert result.value == pytest.approx(1.0, abs=0.02)


def test_isic_fixed_score_is_not_truthful(one_slot):
    # the golden example's (b/10)^0.4 * pctr^0.7 is not affine in the bid,
    # so its division price is not the critical bid and the audit fails
    config = AuditConfig(alpha=0.01, isic_rounds=10_000)
    assert i_sic(FixedScoreMechanism(), one_slot, config).value < 0.95


def test_isic_scorings_never_build_the_dense_features(one_slot,
                                                      monkeypatch):
    # the sampled matrix and both replays score the compact features
    rng = np.random.default_rng(12)
    actor = BidMultiplierNet(FEATURE_DIM, hidden=(16,), rng=rng)
    fit = one_slot.sample_rounds(100, rng)
    actor.fit_normalizer(fit.bids.ravel(), fit.feats.reshape(-1, FEATURE_DIM))

    def refuse(self, *args, **kwargs):
        raise AssertionError("the dense features were built")

    monkeypatch.setattr(Features, "__array__", refuse)
    for mechanism in (GspMechanism(1.0), DeepGspMechanism(actor)):
        i_sic(mechanism, one_slot, AuditConfig(isic_rounds=300))


def test_isic_degenerate_multiplier_raises(one_slot):
    # priced by price_batch, as the market is: no clamped division
    with pytest.raises(DegenerateMultiplierError):
        i_sic(DeepGspMechanism(ConstantActor(0.0)), one_slot,
              AuditConfig(isic_rounds=10))


def test_isic_requires_single_slot(small_world):
    if small_world.slots == 1:
        pytest.skip("fixture world already has one slot")
    with pytest.raises(ValueError):
        i_sic(GspMechanism(1.0), small_world)


def test_isic_rejects_large_alpha(one_slot):
    with pytest.raises(ValueError):
        i_sic(GspMechanism(1.0), one_slot, AuditConfig(alpha=0.05001))


def test_isic_deterministic(one_slot):
    config = AuditConfig(alpha=0.01, isic_rounds=1000, seed=3)
    a = i_sic(GspMechanism(1.0), one_slot, config)
    b = i_sic(GspMechanism(1.0), one_slot, config)
    assert a == b


# ---------------------------------------------------------------------------
# i-SIC against full replays


def _isic_rounds(world, config):
    """The rounds that i_sic samples for config."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x151C)))
    return world.sample_rounds(config.isic_rounds, rng)


def _reference_i_sic(mechanism, world, config):
    """i-SIC with every replay a full one: the whole (R, N) matrix, with
    one column's bids changed, through ``score_batch``, ``allocate_batch``
    and ``price_batch``."""
    rounds = _isic_rounds(world, config)
    a = config.alpha

    def replay(mult):
        u = np.zeros(rounds.bids.shape)
        won = np.zeros(rounds.bids.shape, dtype=bool)
        for i in range(world.n_advertisers):
            bids = rounds.bids.copy()
            bids[:, i] *= mult
            sc, pi, off = mechanism.score_batch(bids, rounds.feats)
            order = allocate_batch(sc, bids)
            price = price_batch(order, sc, pi, off, 1)[:, 0]
            won[:, i] = order[:, 0] == i
            u[:, i] = np.where(won[:, i], bids[:, i] - price, 0.0)
        return u, won

    u_up, _ = replay(1.0 + a)
    _, win_v = replay(1.0)
    u_down, _ = replay(1.0 - a)
    denom = float(np.mean(rounds.bids * win_v) * 2.0 * a)
    return float(np.mean(u_up - u_down) / denom)


def _duplicated_columns(rng):
    """Sampled rounds with columns 4 and 6 copies of column 1."""
    world = World(WorldConfig(slots=1, slot_ctr_factors=(1.0,), seed=1))
    rounds = world.sample_rounds(400, rng)
    world = _GivenRoundsWorld(rounds.bids, np.array(rounds.feats), slots=1)
    for col in (4, 6):
        world.bids[:, col] = world.bids[:, 1]
        world.feats[:, col] = world.feats[:, 1]
    return world


def _equal_scores(rng):
    """Bids 1, 2 and 4 with pCTR 1/(2b): every GSP(1) score is 0.5."""
    bids = rng.choice([1.0, 2.0, 4.0], size=(300, 5))
    return _given_rounds(bids, 0.5 / bids)


def _bid_ladder(rng):
    """Bids on {0.99, 1, 1.01, 2}: (1 +- 0.01) * 1 equals another's bid."""
    bids = rng.choice([0.99, 1.0, 1.01, 2.0], size=(300, 6))
    return _given_rounds(bids, rng.uniform(0.01, 0.2, bids.shape))


def _top_two_tie(world, mechanism):
    scores = mechanism.score_batch(world.bids, world.feats)[0]
    order = allocate_batch(scores, world.bids)
    rows = np.arange(world.bids.shape[0])
    return np.mean(scores[rows, order[:, 0]] == scores[rows, order[:, 1]])


TIE_CASES = {
    "duplicated-gsp": (_duplicated_columns, GspMechanism(1.0)),
    "duplicated-ugsp": (_duplicated_columns, UgspMechanism((1.0, 0.5, 0.2))),
    "duplicated-fixed": (_duplicated_columns, FixedScoreMechanism()),
    "equal-scores-gsp": (_equal_scores, GspMechanism(1.0)),
    "bid-ladder-gsp0": (_bid_ladder, GspMechanism(0.0)),
}


@pytest.mark.parametrize("case", sorted(TIE_CASES))
def test_isic_equals_full_replays_on_ties(case):
    make, mechanism = TIE_CASES[case]
    world = make(np.random.default_rng(6))
    assert _top_two_tie(world, mechanism) > 0.05   # the tie rule decides
    config = AuditConfig(alpha=0.01, isic_rounds=world.bids.shape[0])
    assert i_sic(mechanism, world, config).value == \
        _reference_i_sic(mechanism, world, config)


@pytest.mark.parametrize("n_advertisers", [1, 2, 3])
@pytest.mark.parametrize("mechanism", [
    GspMechanism(1.0), UgspMechanism((1.0, 0.5, 0.2)), FixedScoreMechanism(),
], ids=["gsp", "ugsp", "fixed"])
def test_isic_equals_full_replays_on_small_worlds(n_advertisers, mechanism):
    world = World(WorldConfig(n_advertisers=n_advertisers, slots=1,
                              slot_ctr_factors=(1.0,), seed=4,
                              calibration_rounds=50))
    config = AuditConfig(alpha=0.02, isic_rounds=500, seed=2)
    assert i_sic(mechanism, world, config).value == \
        _reference_i_sic(mechanism, world, config)


def test_isic_equals_full_replays_for_a_learned_score(one_slot):
    config = AuditConfig(alpha=0.01, isic_rounds=500, seed=4)
    mechanism = DeepGspMechanism(DecayActor())
    assert i_sic(mechanism, one_slot, config).value == \
        _reference_i_sic(mechanism, one_slot, config)


def test_isic_equals_full_replays_for_a_network(one_slot):
    # a network's score can depend on the rows scored with it: inference
    # runs in row blocks, and BLAS may round a row by its place in the
    # block.  i-SIC scores the whole (R, N) matrix, as full replays do.  At
    # this round count a replayed column's scores, run alone, differ from
    # the matrix's, and a replay that re-scored single columns read an
    # i-SIC 2 ulp off the full replays'
    rng = np.random.default_rng(5)
    actor = BidMultiplierNet(FEATURE_DIM, hidden=TrainConfig().hidden,
                             rng=rng)
    fit = one_slot.sample_rounds(500, rng)
    actor.fit_normalizer(fit.bids.ravel(), fit.feats.reshape(-1, FEATURE_DIM))
    config = AuditConfig(alpha=0.01, isic_rounds=1207, seed=5)
    mechanism = DeepGspMechanism(actor)
    rounds = _isic_rounds(one_slot, config)
    bids = (1.0 + config.alpha) * rounds.bids
    scores = mechanism.score_batch(bids, rounds.feats)[0]
    assert not all(np.array_equal(mechanism.score_batch(
        bids[:, i], rounds.feats[:, i, :])[0], scores[:, i])
        for i in range(one_slot.n_advertisers))
    assert i_sic(mechanism, one_slot, config).value == \
        _reference_i_sic(mechanism, one_slot, config)


class _ScoreCalls:
    """A mechanism that records the bid shape of every score_batch call."""

    def __init__(self, mechanism):
        self.mechanism, self.calls = mechanism, []

    def score_batch(self, bids, feats):
        self.calls.append(bids.shape)
        return self.mechanism.score_batch(bids, feats)


def test_isic_degenerate_winner_that_is_not_replayed_raises():
    # the last column wins every round on its offset with multiplier 0, so
    # the up replay finds a degenerate winner in a column it did not beat
    world = _given_rounds([[1.0, 2.0, 1.0]] * 4, [0.1, 0.1, 0.0],
                          pcvr=[0.0, 0.0, 1.0])
    mechanism = UgspMechanism((1.0, 0.0, 1.0))
    config = AuditConfig(isic_rounds=4)
    spy = _ScoreCalls(mechanism)
    with pytest.raises(DegenerateMultiplierError):
        i_sic(spy, world, config)
    assert spy.calls == [(4, 3), (4, 3)]   # raised at the up replay
    with pytest.raises(DegenerateMultiplierError):
        _reference_i_sic(mechanism, world, config)


class _DegenerateAtOne:
    """Multiplier 0 and offset 3 at a bid of exactly 1; elsewhere 3 * bid."""

    def score_batch(self, bids, feats):
        at_one = bids == 1.0
        pi = np.where(at_one, 0.0, 3.0)
        off = np.where(at_one, 3.0, 0.0)
        return bids * pi + off, pi, off


def test_isic_degenerate_truthful_winner_raises_before_the_down_replay():
    # column 0 wins at its sampled bid 1 with multiplier 0; each column
    # wins its up replay with multiplier 3, and only the truthful check
    # stands between it and the down replay
    world = _given_rounds([[1.0, 0.995]] * 4, [0.1, 0.1])
    spy = _ScoreCalls(_DegenerateAtOne())
    config = AuditConfig(isic_rounds=4)
    with pytest.raises(DegenerateMultiplierError):
        i_sic(spy, world, config)
    assert spy.calls == [(4, 2), (4, 2)]
    with pytest.raises(DegenerateMultiplierError):
        _reference_i_sic(spy.mechanism, world, config)


def test_isic_orders_the_sampled_matrix_once(one_slot, monkeypatch):
    calls = []

    def counted(scores, bids):
        calls.append(scores.shape)
        return allocate_batch(scores, bids)

    monkeypatch.setattr(audit, "allocate_batch", counted)
    i_sic(GspMechanism(1.0), one_slot, AuditConfig(isic_rounds=100))
    assert calls == [(100, one_slot.n_advertisers)]


def test_isic_scores_each_sampled_bid_once(one_slot):
    # the sampled matrix, then every bid at (1 + a)v and at (1 - a)v: the
    # truthful allocation is the sampled one and is not re-scored
    spy = _ScoreCalls(GspMechanism(1.0))
    i_sic(spy, one_slot, AuditConfig(isic_rounds=100))
    assert spy.calls == [(100, one_slot.n_advertisers)] * 3
