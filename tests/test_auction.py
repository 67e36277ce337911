import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsplab.auction import (
    FEATURE_DIM,
    DegenerateMultiplierError,
    DeepGspMechanism,
    FixedScoreMechanism,
    GspMechanism,
    UgspMechanism,
    allocate_batch,
    price_exact_binary_search,
)
from gsplab.nets import BidMultiplierNet

from conftest import auction_row, feature_vec, golden_request, run_engine


def _score(mech, bids, pctr=0.0, pcvr=0.0):
    """Rank scores of ``mech`` for a row of bids sharing one feature vector."""
    bids = np.asarray(bids, dtype=float)
    feats = np.broadcast_to(feature_vec(pctr=pctr, pcvr=pcvr),
                            bids.shape + (FEATURE_DIM,))
    return mech.score_batch(bids, feats)[0]


# ---------------------------------------------------------------------------
# Rank scores


def test_gsp_score_ecpm_column():
    scores = _score(GspMechanism(1.0), [10.0, 2.4], pctr=0.1)
    assert scores[0] == pytest.approx(1.0)
    assert _score(GspMechanism(1.0), [2.4], pctr=0.2)[0] == pytest.approx(0.48)


def test_gsp_score_zero_exponent_identity():
    assert _score(GspMechanism(0.0), [7.3, 0.0], pctr=0.3) == pytest.approx(
        [7.3, 0.0])


def test_ugsp_score_examples():
    assert _score(UgspMechanism((1, 0, 0)), [10.0], pctr=0.1)[0] == \
        pytest.approx(1.0)
    assert _score(UgspMechanism((1, 0, 1)), [0.0], pctr=0.2, pcvr=0.5)[0] == \
        pytest.approx(0.5)
    assert _score(UgspMechanism((0.5, 0.5, 0)), [2.4], pctr=0.2,
                  pcvr=0.3)[0] == pytest.approx(0.34)


def test_ugsp_score_negative_lambda_rejected():
    with pytest.raises(ValueError):
        UgspMechanism((1, -0.5, 0))


def test_fixed_score_column():
    # the printed 3-decimal reference truncates 0.19953, hence 6e-4
    mech = FixedScoreMechanism()
    assert _score(mech, [10.0], pctr=0.1)[0] == pytest.approx(0.199, abs=6e-4)
    assert _score(mech, [2.4], pctr=0.2)[0] == pytest.approx(0.183, abs=5e-4)
    assert _score(mech, [1.3], pctr=0.3)[0] == pytest.approx(0.190, abs=5e-4)


# ---------------------------------------------------------------------------
# Allocation (golden columns: Ad1, Ad2, Ad3)


def test_allocate_classic_ranking():
    order, _ = run_engine(GspMechanism(1.0), *golden_request(), 2)
    assert order[0].tolist() == [0, 1, 2]


def test_allocate_fixed_score_ranking():
    order, _ = run_engine(FixedScoreMechanism(), *golden_request(), 2)
    assert order[0].tolist() == [0, 2, 1]


def test_allocate_single_candidate():
    order, prices = run_engine(GspMechanism(), *auction_row([2.0], [0.4]), 1)
    assert order.tolist() == [[0]]
    assert prices.tolist() == [[0.0]]


def test_allocate_tie_breaks_by_bid_then_id():
    bids, feats = auction_row([4.0, 2.0, 4.0], [0.1, 0.2, 0.1])
    order, _ = run_engine(GspMechanism(1.0), bids, feats, 2)  # all score 0.4
    assert order[0].tolist() == [0, 2, 1]


@pytest.mark.parametrize("seed", range(20))
def test_allocate_equals_the_order_with_an_explicit_column_key(seed):
    # few distinct scores and bids, signed zeros and NaNs, so (score, bid)
    # ties are common: the order is the three-key sort's, column last
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 1.0, 2.0, np.nan])
    scores = rng.choice(values, size=(200, 8))
    bids = rng.choice(values, size=(200, 8))
    cols = np.broadcast_to(np.arange(8), scores.shape)
    assert np.array_equal(allocate_batch(scores, bids),
                          np.lexsort((cols, -bids, -scores)))


@pytest.mark.parametrize("shape", [(2_000, 8), (0, 8), (5, 1), (1, 8)],
                         ids=["planted-ties", "no-rows", "one-column",
                              "one-row"])
def test_allocate_equals_the_three_key_sort_on_continuous_scores(shape):
    # continuous scores leave almost every row strictly ordered, which one
    # argsort ranks; the planted rows tie, hold signed zeros or NaN and
    # are ranked again
    rng = np.random.default_rng(shape[0])
    scores = rng.uniform(0.0, 1.0, shape)
    bids = rng.uniform(0.0, 1.0, shape)
    if shape == (2_000, 8):
        scores[0, [2, 5, 7]] = scores[0, 1]         # tied scores
        bids[0, [5, 7]] = bids[0, 2]                # and tied bids
        scores[1, [3, 6]] = [0.0, -0.0]             # equal signed zeros
        scores[2, 4] = scores[3, [0, 5]] = np.nan
        scores[4] = 0.5                             # one score, any bids
    cols = np.broadcast_to(np.arange(shape[1]), shape)
    order = allocate_batch(scores, bids)
    assert order.shape == shape
    assert np.array_equal(order, np.lexsort((cols, -bids, -scores)))


def test_allocate_builds_no_full_size_float_temporary():
    # the order itself is one (R, N) int64 array; the ranking builds no
    # (R, N) float array beside it (no negated scores, no gathered ranks),
    # planted ties included
    rng = np.random.default_rng(11)
    scores = rng.uniform(0.0, 1.0, (20_000, 8))
    bids = rng.uniform(0.0, 1.0, scores.shape)
    scores[0, [2, 5]] = scores[0, 1]
    scores[1, 3] = np.nan
    tracemalloc.start()
    try:
        order = allocate_batch(scores, bids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cols = np.broadcast_to(np.arange(8), scores.shape)
    assert np.array_equal(order, np.lexsort((cols, -bids, -scores)))
    assert peak < order.nbytes + scores.nbytes


class _FixedActor:
    def multiplier_batch(self, bids, feats):
        return np.full(np.shape(bids), 0.5)


def test_offsets_without_terms_are_a_read_only_zero():
    # a consumer that writes into the shared zero fails loudly
    bids, feats = golden_request()
    for mech in (GspMechanism(1.0), FixedScoreMechanism(),
                 DeepGspMechanism(_FixedActor())):
        off = mech.score_batch(bids, feats)[2]
        assert off.shape == bids.shape and not off.any()
        with pytest.raises(ValueError):
            off[0, 0] = 1.0


# ---------------------------------------------------------------------------
# Pricing


def test_price_division_worked_example():
    _, prices = run_engine(FixedScoreMechanism(), *golden_request(), 2)
    assert prices[0, 0] == pytest.approx(9.55, abs=0.02)  # Ad1
    assert prices[0, 1] == pytest.approx(1.25, abs=0.01)  # Ad3


def test_price_division_classic_example():
    _, prices = run_engine(GspMechanism(1.0), *golden_request(), 2)
    assert prices[0] == pytest.approx([0.48 / 0.1, 0.39 / 0.2])


def test_last_ranked_pays_zero():
    bids, feats = auction_row([3.0, 1.0], [0.3, 0.2])
    _, prices = run_engine(GspMechanism(1.0), bids, feats, 2)
    assert prices[0, 1] == 0.0


def test_price_degenerate_multiplier_rejected():
    # zero pCTR is a zero GSP multiplier: that winner is rejected whether a
    # candidate ranks below it or it ranks last and would pay 0
    bids, feats = auction_row([1.0, 5.0, 1.0], [0.5, 0.0, 0.0])
    for n in (3, 2):
        with pytest.raises(DegenerateMultiplierError):
            run_engine(GspMechanism(1.0), bids[:, :n], feats[:, :n], 2)


# ---------------------------------------------------------------------------
# Exact critical-bid oracle (batched bisection)


def test_bisection_linear_score():
    z = price_exact_binary_search(lambda b: 0.02 * b, [0.190, 0.1], 20.0,
                                  tol_bid=1e-7)
    assert z == pytest.approx([9.50, 5.0], abs=1e-5)


def test_bisection_fixed_score_closed_form():
    targets = np.array([0.190, 0.150, 0.120])
    fn = lambda b: _score(FixedScoreMechanism(), b, pctr=0.1)
    z = price_exact_binary_search(fn, targets, 20.0, tol_bid=1e-7)
    expected = 10.0 * (targets / 0.1**0.7) ** (1.0 / 0.4)
    assert z == pytest.approx(expected, abs=1e-5)
    assert fn(z) == pytest.approx(targets, abs=1e-6)


def test_bisection_zero_target():
    z = price_exact_binary_search(lambda b: b, [0.0, 1.0], 5.0, 5e-6)
    assert z[0] == 0.0
    assert z[1] == pytest.approx(1.0, abs=1e-5)


def test_bisection_bracketing_failure():
    # the second winner's score can never reach its target: NaN, while
    # the first one still gets its critical bid
    z = price_exact_binary_search(lambda b: 0.01 * b, [0.05, 1.0], 10.0,
                                  1e-5)
    assert z[0] == pytest.approx(5.0, abs=1e-4)
    assert np.isnan(z[1])


def test_bisection_rejects_bad_bracket():
    with pytest.raises(ValueError):
        price_exact_binary_search(lambda b: b, [1.0], -1.0, 1e-6)
    with pytest.raises(ValueError):
        price_exact_binary_search(lambda b: b, [np.nan], 1.0, 1e-6)


def _exact_prices(bids, feats, slots, mech):
    """(division prices, critical bids) of the winners with a next score."""
    order, prices = run_engine(mech, bids, feats, slots)
    scores = mech.score_batch(bids, feats)[0]
    k = min(slots, bids.shape[1] - 1)
    win = order[0, :k]
    hi = np.maximum(bids[0, win], 1e-12)
    exact = price_exact_binary_search(
        lambda z: mech.score_batch(z, feats[0, win])[0],
        scores[0, order[0, 1:k + 1]], hi, 1e-6 * hi)
    return prices[0, :k], exact


def test_deep_gsp_batched_oracle_matches_one_row_bisection():
    rng = np.random.default_rng(11)
    actor = BidMultiplierNet(FEATURE_DIM, hidden=(8, 4), rng=rng)
    bids = rng.uniform(0.2, 4.0, (30, 6))
    feats = rng.uniform(0.0, 1.0, (30, 6, FEATURE_DIM))
    actor.fit_normalizer(bids.reshape(-1), feats.reshape(-1, FEATURE_DIM))
    mech = DeepGspMechanism(actor)
    scores, _pi, _off = mech.score_batch(bids, feats)
    order = allocate_batch(scores, bids)
    rows = np.arange(30)
    win, nxt = order[:, 0], order[:, 1]
    w_feats = feats[rows, win]
    target = scores[rows, nxt]
    hi = bids[rows, win]
    batched = price_exact_binary_search(
        lambda z: mech.score_batch(z, w_feats)[0], target, hi, 1e-6 * hi)
    assert np.isfinite(batched).all()
    for r in range(30):
        one = price_exact_binary_search(
            lambda z: mech.score_batch(z, w_feats[r:r + 1])[0],
            target[r:r + 1], hi[r:r + 1], 1e-6 * hi[r:r + 1])
        assert batched[r] == one[0]


# ---------------------------------------------------------------------------
# Auction totals (worked-example golden values)

_GOLDEN_PCTR = np.array([0.1, 0.2, 0.3])


def test_run_auction_classic_totals():
    order, prices = run_engine(GspMechanism(1.0), *golden_request(), 2)
    pctr = _GOLDEN_PCTR[order[0, :2]]
    assert prices[0] @ pctr == pytest.approx(0.87)
    assert pctr.sum() == pytest.approx(0.3)


def test_run_auction_fixed_score_totals():
    order, prices = run_engine(FixedScoreMechanism(), *golden_request(), 2)
    pctr = _GOLDEN_PCTR[order[0, :2]]
    assert prices[0] @ pctr == pytest.approx(1.329, abs=0.005)
    assert pctr.sum() == pytest.approx(0.4)


def test_run_auction_all_slots_filled():
    bids, feats = auction_row([3.0, 2.0, 1.0], [0.3, 0.2, 0.1])
    order, prices = run_engine(GspMechanism(1.0), bids, feats, 3)
    assert order[0].tolist() == [0, 1, 2]
    assert prices[0, 2] == 0.0  # the last ranked pays 0


# ---------------------------------------------------------------------------
# Hypothesis property suite

_candidates = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=50.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=2,
    max_size=10,
)


def _make_request(raw):
    """(bids, feats, slots) of one auction: half the candidates win."""
    bids, pctr, pcvr = (list(col) for col in zip(*raw))
    return (*auction_row(bids, pctr, pcvr), max(1, len(raw) // 2))


def _check_payment_dominance(raw, mech):
    bids, feats, k = _make_request(raw)
    order, prices = run_engine(mech, bids, feats, k)
    assert np.all(prices[0] <= bids[0, order[0, :k]] + 1e-9)


@given(_candidates)
@settings(max_examples=100, deadline=None)
def test_payment_dominance_gsp(raw):
    _check_payment_dominance(raw, GspMechanism(1.0))


@given(_candidates)
@settings(max_examples=100, deadline=None)
def test_payment_dominance_ugsp(raw):
    _check_payment_dominance(raw, UgspMechanism((1.0, 0.5, 0.25)))


@given(_candidates, st.floats(min_value=1.01, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_monotone_allocation(raw, factor):
    """Raising one bid never demotes that candidate under a monotone score."""
    bids, feats, k = _make_request(raw)
    mech = GspMechanism(1.0)
    before, _ = run_engine(mech, bids, feats, k)
    raised = bids.copy()
    raised[0, 0] *= factor
    after, _ = run_engine(mech, raised, feats, k)
    assert after[0].tolist().index(0) <= before[0].tolist().index(0)


def _check_exact_oracle(raw, mech):
    approx, exact = _exact_prices(*_make_request(raw), mech)
    assert exact.size
    assert exact == pytest.approx(approx, abs=1e-4)


@given(_candidates)
@settings(max_examples=60, deadline=None)
def test_exact_oracle_matches_division_gsp(raw):
    _check_exact_oracle(raw, GspMechanism(1.0))


@given(_candidates)
@settings(max_examples=60, deadline=None)
def test_exact_oracle_matches_division_ugsp(raw):
    _check_exact_oracle(raw, UgspMechanism((1.0, 0.4, 0.6)))


@given(_candidates)
@settings(max_examples=60, deadline=None)
def test_critical_bid_property(raw):
    """Bidding just below the payment loses the slot; just above keeps it."""
    bids, feats, k = _make_request(raw)
    mech = GspMechanism(1.0)
    order, prices = run_engine(mech, bids, feats, k)
    for slot, (ad, price) in enumerate(zip(order[0, :k], prices[0])):
        if price <= 1e-6:
            continue
        for delta, keeps in ((-1e-4 * price - 1e-9, False),
                             (1e-4 * price + 1e-9, True)):
            rebid = bids.copy()
            rebid[0, ad] = max(price + delta, 0.0)
            order2, _ = run_engine(mech, rebid, feats, k)
            rank2 = order2[0].tolist().index(ad)
            if keeps:
                assert rank2 <= slot
            else:
                assert rank2 > slot


@given(_candidates, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_run_auction_deterministic(raw, random):
    bids, feats, k = _make_request(raw)
    mech = GspMechanism(0.9)
    order, prices = run_engine(mech, bids, feats, k)
    again = run_engine(mech, bids, feats, k)
    assert np.array_equal(again[0], order)
    assert np.array_equal(again[1], prices)
    # under a column permutation the same candidates win at the same
    # prices; only exact (score, bid) ties may trade places
    perm = np.array(random.sample(range(bids.shape[1]), bids.shape[1]))
    order_p, prices_p = run_engine(mech, bids[:, perm], feats[:, perm], k)
    assert np.array_equal(prices_p, prices)
    scores = mech.score_batch(bids, feats)[0]
    ranked = perm[order_p[0]]
    assert np.array_equal(bids[0, ranked], bids[0, order[0]])
    assert np.array_equal(scores[0, ranked], scores[0, order[0]])
    keys = set(zip(bids[0].tolist(), scores[0].tolist()))
    if len(keys) == bids.shape[1]:
        assert np.array_equal(ranked, order[0])
