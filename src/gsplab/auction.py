"""Mechanism-agnostic auction engine.

Candidate ranking, top-K allocation, and payment computation for GSP,
uGSP, fixed nonlinear scores, and the learned bid-multiplier mechanism.
There is one engine, on (R, N) arrays of rounds x candidates: a
mechanism's ``score_batch``, then ``allocate_batch`` and ``price_batch``.
``run_auction`` is its single-auction (R = 1) wrapper.  Every rank score is expressed in affine-in-bid form

    r = bid * multiplier + offset

so that the second-price payment r_next -> critical bid is a single
division.  Pure multiplier mechanisms (GSP, learned) have offset 0, which
recovers the approximate inverse payment p = r_next / pi.  uGSP carries
its bid-independent utility terms in the offset, which makes the
division-based price equal to the exact critical bid.

An exact critical-bid oracle (bisection on any monotone score function,
all winners at once) is provided for payment-error audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Feature vector layout shared across the package.  Index constants are
# used everywhere a mechanism needs a specific feature.
F_PCTR = 0
F_PACR = 1
F_PCVR = 2
F_PRICE = 3
F_BUDGET = 4
F_CATEGORY = 5
F_USER = 6
FEATURE_DIM = 7

DEFAULT_EPS_DIV = 1e-9


class DegenerateMultiplierError(ValueError):
    """Multiplier too close to zero to divide a price by."""


def _check_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class AdCandidate:
    """One bidder entering an auction: bid plus non-bid feature vector.

    ``value`` is the private valuation; it is only known to the simulator
    and never read by any mechanism.
    """

    ad_id: str
    bid: float
    features: np.ndarray
    value: float | None = None

    def __post_init__(self):
        _check_finite("bid", self.bid)
        if self.bid < 0:
            raise ValueError(f"bid must be nonnegative, got {self.bid}")
        feats = np.asarray(self.features, dtype=float)
        object.__setattr__(self, "features", feats)
        if feats.ndim != 1:
            raise ValueError("features must be a 1-D vector")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        for idx in (F_PCTR, F_PACR, F_PCVR):
            if idx < feats.size and not 0.0 <= feats[idx] <= 1.0:
                raise ValueError(
                    f"predicted rate feature {idx} out of [0,1]: {feats[idx]}"
                )
        if F_PRICE < feats.size and feats[F_PRICE] < 0:
            raise ValueError("product_price must be nonnegative")

    @property
    def pctr(self):
        return float(self.features[F_PCTR])

    @property
    def pacr(self):
        return float(self.features[F_PACR])

    @property
    def pcvr(self):
        return float(self.features[F_PCVR])


@dataclass(frozen=True)
class AuctionRequest:
    """N candidates competing for K slots with position factors beta."""

    candidates: list
    slots: int
    slot_ctr_factors: np.ndarray

    def __post_init__(self):
        if len(self.candidates) < 1:
            raise ValueError("need at least one candidate")
        if not 1 <= self.slots <= len(self.candidates):
            raise ValueError(
                f"slots must be in [1, {len(self.candidates)}], got {self.slots}"
            )
        beta = np.asarray(self.slot_ctr_factors, dtype=float)
        object.__setattr__(self, "slot_ctr_factors", beta)
        if beta.shape != (self.slots,):
            raise ValueError("slot_ctr_factors must have length K")
        if np.any(beta <= 0) or np.any(beta > 1):
            raise ValueError("slot factors must lie in (0, 1]")
        if np.any(np.diff(beta) > 0):
            raise ValueError("slot factors must be non-increasing")
        dims = {c.features.size for c in self.candidates}
        if len(dims) != 1:
            raise ValueError("all candidates must share one feature length")


@dataclass(frozen=True)
class AuctionOutcome:
    winners: list  # ordered (ad_id, slot_index 1..K, price_per_click)
    losers: list  # ad_ids, best-ranked first

    def price_of(self, ad_id):
        for wid, _slot, price in self.winners:
            if wid == ad_id:
                return price
        raise KeyError(ad_id)


# ---------------------------------------------------------------------------
# Mechanisms: score_batch(bids, feats) -> (scores, multipliers, offsets)


@dataclass(frozen=True)
class GspMechanism:
    """Classic GSP with squashing exponent sigma: r = b * pctr^sigma."""

    sigma: float = 1.0

    def score_batch(self, bids, feats):
        pi = feats[..., F_PCTR] ** self.sigma
        return bids * pi, pi, np.zeros_like(pi)


@dataclass(frozen=True)
class UgspMechanism:
    """Utility-based GSP: r = l1*b*pctr + l2*pctr + l3*pcvr."""

    lambdas: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.lambdas) != 3 or min(self.lambdas) < 0:
            raise ValueError("lambdas must be three nonnegative reals")

    def score_batch(self, bids, feats):
        l1, l2, l3 = self.lambdas
        pi = l1 * feats[..., F_PCTR]
        offset = l2 * feats[..., F_PCTR] + l3 * feats[..., F_PCVR]
        return bids * pi + offset, pi, offset


# Python's float pow (C libm), elementwise: numpy's SIMD pow can differ in
# the last bit between CPUs, and the golden example prints every digit
_libm_pow = np.frompyfunc(pow, 2, 1)


@dataclass(frozen=True)
class FixedScoreMechanism:
    """The hand-set nonlinear score (b/10)^0.4 * pctr^0.7 (golden example)."""

    def score_batch(self, bids, feats):
        score = np.asarray(_libm_pow(bids / 10.0, 0.4)
                           * _libm_pow(feats[..., F_PCTR], 0.7), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            pi = np.where(bids > 0, score / np.maximum(bids, 1e-300), 0.0)
        return score, pi, np.zeros_like(score)


@dataclass(frozen=True)
class DeepGspMechanism:
    """Learned bid multiplier: r = b * pi_net(b, x)."""

    actor: object  # gsplab.nets.BidMultiplierNet

    def score_batch(self, bids, feats):
        pi = self.actor.multiplier_batch(bids.reshape(-1), feats.reshape(-1, feats.shape[-1]))
        pi = pi.reshape(bids.shape)
        return bids * pi, pi, np.zeros_like(pi)


# ---------------------------------------------------------------------------
# The auction engine: (R, N) arrays of rounds x candidates


def allocate_batch(scores, bids):
    """Per-row allocation order for (R, N) score and bid arrays.

    Returns an (R, N) array of candidate indices, best first.  Ties break
    by higher bid then lower index (lexicographic over zero-padded ids).
    """
    idx = np.broadcast_to(np.arange(scores.shape[-1]), scores.shape)
    return np.lexsort((idx, -bids, -scores))


def price_batch(order, scores, multipliers, offsets, slots, reserve_price=0.0,
                eps_div=DEFAULT_EPS_DIV):
    """Division-based prices for the top-``slots`` entries of each row.

    p_j = max(0, (r_{j+1} - offset_j) / pi_j); a winner ranked last overall
    pays the reserve.  Returns an (R, slots) array aligned with
    order[:, :slots].
    """
    rows = np.arange(order.shape[0])[:, None]
    ranked_scores = np.take_along_axis(scores, order, axis=1)
    win = order[:, :slots]
    pi = multipliers[rows, win]
    off = offsets[rows, win]
    if np.any(pi <= eps_div):
        raise DegenerateMultiplierError("degenerate multiplier among winners")
    n = scores.shape[1]
    prices = np.empty((order.shape[0], slots))
    for j in range(slots):
        if j + 1 < n:
            nxt = ranked_scores[:, j + 1]
            prices[:, j] = np.maximum(0.0, (nxt - off[:, j]) / pi[:, j])
        else:
            prices[:, j] = reserve_price
    return prices


def run_auction(request, mechanism, reserve_price=0.0):
    """Score, allocate, and price one auction on the batch path (R = 1).

    Candidates are stacked in ad_id order, so the engine's lower-index
    tie-break (after score, then bid) is a tie-break by ad_id.
    """
    cands = sorted(request.candidates, key=lambda c: c.ad_id)
    bids = np.array([[c.bid for c in cands]])
    feats = np.stack([c.features for c in cands])[None]
    scores, pi, off = mechanism.score_batch(bids, feats)
    order = allocate_batch(scores, bids)
    prices = price_batch(order, scores, pi, off, request.slots, reserve_price)
    ids = [cands[i].ad_id for i in order[0]]
    winners = [(ids[j], j + 1, float(prices[0, j]))
               for j in range(request.slots)]
    return AuctionOutcome(winners=winners, losers=ids[request.slots:])


def price_exact_binary_search(rank_fn, target, bid_hi, tol_bid=None):
    """Smallest bids z in [0, bid_hi] with rank_fn(z) >= target, by bisection.

    All winners are bisected together: ``target``, ``bid_hi`` and
    ``tol_bid`` are arrays (or scalars) of one shape, and each step makes
    one vectorised ``rank_fn(z)`` call on an array of that shape.  rank_fn
    must be monotone non-decreasing in the bid.  A winner whose bracket
    fails (rank_fn(bid_hi) < target) comes back as NaN.
    """
    target = np.asarray(target, dtype=float)
    hi = np.array(np.broadcast_to(bid_hi, target.shape), dtype=float)
    if not (np.all(np.isfinite(target)) and np.all(np.isfinite(hi))):
        raise ValueError("target and bid_hi must be finite")
    if np.any(hi < 0):
        raise ValueError("bid_hi must be nonnegative")
    tol = 1e-6 * np.maximum(hi, 1e-12) if tol_bid is None else tol_bid
    lo = np.zeros_like(hi)
    at_zero = rank_fn(lo) >= target
    unreachable = ~at_zero & (rank_fn(hi) < target)
    live = ~at_zero & ~unreachable & (hi - lo > tol)
    while np.any(live):
        mid = 0.5 * (lo + hi)
        up = rank_fn(mid) >= target
        hi = np.where(live & up, mid, hi)
        lo = np.where(live & ~up, mid, lo)
        live &= hi - lo > tol
    return np.where(at_zero, 0.0, np.where(unreachable, np.nan, hi))
