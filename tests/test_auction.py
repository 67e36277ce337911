import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsplab.auction import (
    FEATURE_DIM,
    DegenerateMultiplierError,
    AdCandidate,
    AuctionRequest,
    DeepGspMechanism,
    FixedScoreMechanism,
    GspMechanism,
    UgspMechanism,
    allocate_batch,
    price_exact_binary_search,
    run_auction,
)
from gsplab.nets import BidMultiplierNet

from conftest import feature_vec, golden_request


def _score(mech, bids, pctr=0.0, pcvr=0.0):
    """Rank scores of ``mech`` for a row of bids sharing one feature vector."""
    bids = np.asarray(bids, dtype=float)
    feats = np.broadcast_to(feature_vec(pctr=pctr, pcvr=pcvr),
                            bids.shape + (FEATURE_DIM,))
    return mech.score_batch(bids, feats)[0]


def _ranking(outcome):
    return [a for a, _s, _p in outcome.winners] + outcome.losers


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
# Candidate / request validation


def test_candidate_validation():
    with pytest.raises(ValueError):
        AdCandidate("a", -1.0, feature_vec(pctr=0.1))
    with pytest.raises(ValueError):
        AdCandidate("a", 1.0, feature_vec(pctr=1.5))
    with pytest.raises(ValueError):
        AdCandidate("a", float("inf"), feature_vec(pctr=0.1))


def test_request_validation():
    cands = [AdCandidate("a", 1.0, feature_vec(pctr=0.1))]
    with pytest.raises(ValueError):
        AuctionRequest(cands, slots=2, slot_ctr_factors=np.array([1.0, 0.5]))
    two = cands + [AdCandidate("b", 1.0, feature_vec(pctr=0.1))]
    with pytest.raises(ValueError):
        AuctionRequest(two, slots=2, slot_ctr_factors=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        AuctionRequest(two, slots=2, slot_ctr_factors=np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# Allocation


def test_allocate_classic_ranking():
    outcome = run_auction(golden_request(), GspMechanism(1.0))
    assert [(a, s) for a, s, _ in outcome.winners] == [("Ad1", 1), ("Ad2", 2)]
    assert outcome.losers == ["Ad3"]


def test_allocate_fixed_score_ranking():
    outcome = run_auction(golden_request(), FixedScoreMechanism())
    assert [(a, s) for a, s, _ in outcome.winners] == [("Ad1", 1), ("Ad3", 2)]
    assert outcome.losers == ["Ad2"]


def test_allocate_single_candidate():
    cand = AdCandidate("only", 2.0, feature_vec(pctr=0.4))
    request = AuctionRequest([cand], slots=1, slot_ctr_factors=np.array([1.0]))
    outcome = run_auction(request, GspMechanism(), reserve_price=0.1)
    assert outcome.winners == [("only", 1, 0.1)]
    assert outcome.losers == []


def test_allocate_tie_breaks_by_bid_then_id():
    cands = [
        AdCandidate("c_ad", 4.0, feature_vec(pctr=0.1)),
        AdCandidate("b_ad", 2.0, feature_vec(pctr=0.2)),
        AdCandidate("a_ad", 4.0, feature_vec(pctr=0.1)),
    ]
    request = AuctionRequest(cands, slots=2, slot_ctr_factors=np.array([1.0, 1.0]))
    outcome = run_auction(request, GspMechanism(1.0))  # all score 0.4
    assert [a for a, _s, _p in outcome.winners] == ["a_ad", "c_ad"]
    assert outcome.losers == ["b_ad"]


# ---------------------------------------------------------------------------
# Pricing


def test_price_division_worked_example():
    request = golden_request()
    outcome = run_auction(request, FixedScoreMechanism())
    assert outcome.price_of("Ad1") == pytest.approx(9.55, abs=0.02)
    assert outcome.price_of("Ad3") == pytest.approx(1.25, abs=0.01)


def test_price_division_classic_example():
    outcome = run_auction(golden_request(), GspMechanism(1.0))
    assert outcome.price_of("Ad1") == pytest.approx(0.48 / 0.1)
    assert outcome.price_of("Ad2") == pytest.approx(0.39 / 0.2)


def test_last_ranked_pays_reserve():
    cands = [
        AdCandidate("a", 3.0, feature_vec(pctr=0.3)),
        AdCandidate("b", 1.0, feature_vec(pctr=0.2)),
    ]
    request = AuctionRequest(cands, slots=2, slot_ctr_factors=np.array([1.0, 0.5]))
    outcome = run_auction(request, GspMechanism(1.0), reserve_price=0.25)
    assert outcome.price_of("b") == pytest.approx(0.25)


def test_price_degenerate_multiplier_rejected():
    # zero pCTR is a zero GSP multiplier: that winner is rejected whether a
    # candidate ranks below it or it ranks last and would pay the reserve
    cands = [
        AdCandidate("a", 1.0, feature_vec(pctr=0.5)),
        AdCandidate("b", 5.0, feature_vec(pctr=0.0)),
        AdCandidate("c", 1.0, feature_vec(pctr=0.0)),
    ]
    for n in (3, 2):
        request = AuctionRequest(cands[:n], slots=2,
                                 slot_ctr_factors=np.ones(2))
        with pytest.raises(DegenerateMultiplierError):
            run_auction(request, GspMechanism(1.0))


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
    z = price_exact_binary_search(lambda b: b, [0.0, 1.0], 5.0)
    assert z[0] == 0.0
    assert z[1] == pytest.approx(1.0, abs=1e-5)


def test_bisection_bracketing_failure():
    # the second winner's score can never reach its target: NaN, while
    # the first one still gets its critical bid
    z = price_exact_binary_search(lambda b: 0.01 * b, [0.05, 1.0], 10.0)
    assert z[0] == pytest.approx(5.0, abs=1e-4)
    assert np.isnan(z[1])


def test_bisection_rejects_bad_bracket():
    with pytest.raises(ValueError):
        price_exact_binary_search(lambda b: b, [1.0], -1.0)
    with pytest.raises(ValueError):
        price_exact_binary_search(lambda b: b, [np.nan], 1.0)


def _exact_prices(request, mech):
    """Critical bids of run_auction's winners that have a next score."""
    cands = sorted(request.candidates, key=lambda c: c.ad_id)
    bids = np.array([[c.bid for c in cands]])
    feats = np.stack([c.features for c in cands])[None]
    scores, _pi, _off = mech.score_batch(bids, feats)
    order = allocate_batch(scores, bids)[0]
    k = min(request.slots, len(cands) - 1)
    win = order[:k]
    exact = price_exact_binary_search(
        lambda z: mech.score_batch(z, feats[0, win])[0],
        scores[0, order[1:k + 1]], np.maximum(bids[0, win], 1e-12))
    return {cands[i].ad_id: p for i, p in zip(win, exact)}


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
        lambda z: mech.score_batch(z, w_feats)[0], target, hi)
    assert np.isfinite(batched).all()
    for r in range(30):
        one = price_exact_binary_search(
            lambda z: mech.score_batch(z, w_feats[r:r + 1])[0],
            target[r:r + 1], hi[r:r + 1])
        assert batched[r] == one[0]


# ---------------------------------------------------------------------------
# run_auction totals (worked-example golden values)


def test_run_auction_classic_totals():
    outcome = run_auction(golden_request(), GspMechanism(1.0))
    pctr = {"Ad1": 0.1, "Ad2": 0.2, "Ad3": 0.3}
    revenue = sum(p * pctr[a] for a, _s, p in outcome.winners)
    ctr = sum(pctr[a] for a, _s, _p in outcome.winners)
    assert revenue == pytest.approx(0.87)
    assert ctr == pytest.approx(0.3)


def test_run_auction_fixed_score_totals():
    outcome = run_auction(golden_request(), FixedScoreMechanism())
    pctr = {"Ad1": 0.1, "Ad2": 0.2, "Ad3": 0.3}
    revenue = sum(p * pctr[a] for a, _s, p in outcome.winners)
    ctr = sum(pctr[a] for a, _s, _p in outcome.winners)
    assert revenue == pytest.approx(1.329, abs=0.005)
    assert ctr == pytest.approx(0.4)


def test_run_auction_all_slots_filled():
    cands = [
        AdCandidate("a", 3.0, feature_vec(pctr=0.3)),
        AdCandidate("b", 2.0, feature_vec(pctr=0.2)),
        AdCandidate("c", 1.0, feature_vec(pctr=0.1)),
    ]
    request = AuctionRequest(cands, slots=3,
                             slot_ctr_factors=np.array([1.0, 0.7, 0.4]))
    outcome = run_auction(request, GspMechanism(1.0))
    assert not outcome.losers
    assert outcome.price_of("c") == 0.0  # reserve defaults to zero


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


def _make_request(raw, slots=None):
    cands = [
        AdCandidate(f"ad{i:02d}", bid, feature_vec(pctr=pctr, pcvr=pcvr))
        for i, (bid, pctr, pcvr) in enumerate(raw)
    ]
    k = slots if slots is not None else max(1, len(cands) // 2)
    return AuctionRequest(cands, slots=k, slot_ctr_factors=np.ones(k))


@given(_candidates)
@settings(max_examples=100, deadline=None)
def test_payment_dominance_gsp(raw):
    request = _make_request(raw)
    outcome = run_auction(request, GspMechanism(1.0))
    bids = {c.ad_id: c.bid for c in request.candidates}
    for ad, _slot, price in outcome.winners:
        assert price <= bids[ad] + 1e-9


@given(_candidates)
@settings(max_examples=100, deadline=None)
def test_payment_dominance_ugsp(raw):
    request = _make_request(raw)
    outcome = run_auction(request, UgspMechanism((1.0, 0.5, 0.25)))
    bids = {c.ad_id: c.bid for c in request.candidates}
    for ad, _slot, price in outcome.winners:
        assert price <= bids[ad] + 1e-9


@given(_candidates, st.floats(min_value=1.01, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_monotone_allocation(raw, factor):
    """Raising one bid never demotes that candidate under a monotone score."""
    request = _make_request(raw)
    mech = GspMechanism(1.0)
    before = _ranking(run_auction(request, mech))
    target = request.candidates[0]
    raised = AdCandidate(target.ad_id, target.bid * factor, target.features)
    bumped = [raised] + list(request.candidates[1:])
    request2 = AuctionRequest(bumped, request.slots, request.slot_ctr_factors)
    after = _ranking(run_auction(request2, mech))
    assert after.index(target.ad_id) <= before.index(target.ad_id)


@given(_candidates)
@settings(max_examples=60, deadline=None)
def test_exact_oracle_matches_division_gsp(raw):
    request = _make_request(raw)
    approx = run_auction(request, GspMechanism(1.0))
    exact = _exact_prices(request, GspMechanism(1.0))
    assert exact
    for ad, price in exact.items():
        assert price == pytest.approx(approx.price_of(ad), abs=1e-4)


@given(_candidates)
@settings(max_examples=60, deadline=None)
def test_exact_oracle_matches_division_ugsp(raw):
    mech = UgspMechanism((1.0, 0.4, 0.6))
    request = _make_request(raw)
    approx = run_auction(request, mech)
    exact = _exact_prices(request, mech)
    assert exact
    for ad, price in exact.items():
        assert price == pytest.approx(approx.price_of(ad), abs=1e-4)


@given(_candidates)
@settings(max_examples=60, deadline=None)
def test_critical_bid_property(raw):
    """Bidding just below the payment loses the slot; just above keeps it."""
    request = _make_request(raw)
    mech = GspMechanism(1.0)
    outcome = run_auction(request, mech)
    by_id = {c.ad_id: c for c in request.candidates}
    for ad, slot, price in outcome.winners:
        if price <= 1e-6:
            continue
        for delta, keeps in ((-1e-4 * price - 1e-9, False),
                             (1e-4 * price + 1e-9, True)):
            cand = by_id[ad]
            rebid = AdCandidate(ad, max(price + delta, 0.0), cand.features)
            others = [c for c in request.candidates if c.ad_id != ad]
            req2 = AuctionRequest([rebid] + others, request.slots,
                                  request.slot_ctr_factors)
            out2 = run_auction(req2, mech)
            slots2 = {a: s for a, s, _p in out2.winners}
            if keeps:
                assert slots2.get(ad, 99) <= slot
            else:
                assert slots2.get(ad, 99) > slot


@given(_candidates)
@settings(max_examples=40, deadline=None)
def test_run_auction_deterministic(raw):
    request = _make_request(raw)
    a = run_auction(request, GspMechanism(0.9))
    b = run_auction(request, GspMechanism(0.9))
    assert a == b
    shuffled = AuctionRequest(request.candidates[::-1], request.slots,
                              request.slot_ctr_factors)
    assert run_auction(shuffled, GspMechanism(0.9)) == a
