"""Mechanism-agnostic auction engine.

Candidate ranking, top-K allocation, and payment computation for GSP,
uGSP, fixed nonlinear scores, and the learned bid-multiplier mechanism.
There is one engine, on (R, N) arrays of rounds x candidates: a
mechanism's ``score_batch``, then ``allocate_batch`` and ``price_batch``;
a single auction is one row.  ``allocate_batch`` ranks every row by score
with one argsort, builds no (R, N) float temporary, and ranks again, by
(score, bid, column), only the rows whose scores tie, are signed zeros or
are NaN.  Every rank score is expressed in affine-in-bid form

    r = bid * multiplier + offset

so that the second-price payment r_next -> critical bid is a single
division.  Pure multiplier mechanisms (GSP) have offset 0, which
recovers the approximate inverse payment p = r_next / pi.  uGSP carries
its bid-independent utility terms in the offset, which makes the
division-based price equal to the exact critical bid.  GSP and uGSP give
their bid-independent (multiplier, offset) terms alone through
``terms``; the learned mechanism scales its base mechanism's multiplier
and keeps the base's offset.

An exact critical-bid oracle (bisection on any monotone score function,
all winners at once) is provided for payment-error audits.

A mechanism reads its features as an (R, N, FEATURE_DIM) array: an
ndarray, or sampled rounds' ``Features``, which store only what varies
and give each ``feats[..., F_X]`` column without building the dense
array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Feature vector layout shared across the package.  Index constants are
# used everywhere a mechanism needs a specific feature.  The predicted
# rates come first, then the advertiser's constants, then the user's
# feature, as ``Features`` stores them.
F_PCTR = 0
F_PACR = 1
F_PCVR = 2
F_PRICE = 3
F_BUDGET = 4
F_CATEGORY = 5
F_USER = 6
FEATURE_DIM = 7

# a winner's multiplier must exceed this for its price to be a division
EPS_DIV = 1e-9


class DegenerateMultiplierError(ValueError):
    """Multiplier too close to zero to divide a price by."""


class Features:
    """An (R, N, FEATURE_DIM) feature array stored by what varies.

    ``rates`` (R, N, 3) holds the predicted rates of each entry, ``user``
    (R, 1) the user feature of each round and ``static`` (N, 3) each
    advertiser's price, budget and category, which many arrays share.
    ``feats[..., F_X]`` (or ``feats[:, :, F_X]``) is the (R, N) column: a
    view of ``rates``, or a read-only broadcast view of ``static`` or
    ``user``.  Any other index, ``reshape`` or ``np.asarray`` reads the
    dense array, built on first need and kept, read-only.
    """

    def __init__(self, rates, user, static):
        self.rates, self.user, self.static = rates, user, static
        self.shape = (*rates.shape[:2], FEATURE_DIM)
        self._dense = None

    def __getitem__(self, key):
        rest = key[:-1] if isinstance(key, tuple) else None
        if (rest is not None
                and all(k is Ellipsis or isinstance(k, slice) for k in rest)
                and rest in ((Ellipsis,), (slice(None),) * 2)
                and isinstance(key[-1], (int, np.integer))):
            idx = range(FEATURE_DIM)[key[-1]]
            if idx < F_PRICE:
                return self.rates[..., idx]
            column = (self.static[:, idx - F_PRICE] if idx < F_USER
                      else self.user)
            return np.broadcast_to(column, self.shape[:2])
        return np.asarray(self)[key]

    def __array__(self, dtype=None, copy=None):
        if self._dense is None:
            dense = np.empty(self.shape)
            dense[..., :F_PRICE] = self.rates
            dense[..., F_PRICE:F_USER] = self.static
            dense[..., F_USER] = self.user
            dense.flags.writeable = False
            self._dense = dense
        return self._dense.astype(dtype or float, copy=bool(copy))

    def reshape(self, *shape):
        return np.asarray(self).reshape(*shape)


# ---------------------------------------------------------------------------
# Mechanisms: score_batch(bids, feats) -> (scores, multipliers, offsets);
# a mechanism without offsets returns a read-only broadcast zero


@dataclass(frozen=True)
class GspMechanism:
    """Classic GSP with squashing exponent sigma: r = b * pctr^sigma."""

    sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")

    def terms(self, feats):
        """(multipliers, offsets): the bid-independent terms of the score."""
        pi = feats[..., F_PCTR] ** self.sigma
        return pi, np.broadcast_to(0.0, pi.shape)

    def score_batch(self, bids, feats):
        pi, offset = self.terms(feats)
        return bids * pi, pi, offset


@dataclass(frozen=True)
class UgspMechanism:
    """Utility-based GSP: r = l1*b*pctr + l2*pctr + l3*pcvr."""

    lambdas: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if (len(self.lambdas) != 3
                or not all(0.0 <= x < math.inf for x in self.lambdas)):
            raise ValueError("lambdas must be three finite reals >= 0")

    def terms(self, feats):
        """(multipliers, offsets): the bid-independent terms of the score."""
        l1, l2, l3 = self.lambdas
        offset = l2 * feats[..., F_PCTR]
        offset += l3 * feats[..., F_PCVR]
        return l1 * feats[..., F_PCTR], offset

    def score_batch(self, bids, feats):
        pi, offset = self.terms(feats)
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
        return score, pi, np.broadcast_to(0.0, pi.shape)


@dataclass(frozen=True)
class DeepGspMechanism:
    """Learned rank score r = b * pi(b, x) + o(x): the actor's multiplier
    on its base mechanism's, and the base's offsets (see
    ``gsplab.nets.BidMultiplierNet``)."""

    actor: object  # gsplab.nets.BidMultiplierNet

    def score_batch(self, bids, feats):
        # the features go as they are, compact ``Features`` included
        pi, offset = (a.reshape(bids.shape) for a in
                      self.actor.multiplier_batch(bids.reshape(-1), feats))
        scores = bids * pi
        scores += offset
        return scores, pi, offset


# ---------------------------------------------------------------------------
# The auction engine: (R, N) arrays of rounds x candidates


def allocate_batch(scores, bids):
    """Per-row allocation order for (R, N) score and bid arrays.

    Returns an (R, N) array of candidate indices, best first.  Ties break
    by higher bid, then by lower column index: lexsort is stable, so equal
    (score, bid) pairs keep their column order.

    Each row is ranked by score alone first, with one ascending argsort
    read backwards, and checked one pair of adjacent ranks at a time, so
    no (R, N) float temporary is built.  A row whose ranked scores
    strictly decrease has only that order; the others, with tied scores,
    ±0 or NaN, are ranked again by the (score, bid, column) lexsort.
    """
    order = np.argsort(scores, axis=-1)[:, ::-1]
    rows = np.arange(scores.shape[0])
    tied = np.zeros(scores.shape[0], dtype=bool)
    ranked = (scores[rows, col] for col in order.T)
    above = next(ranked, None)
    for below in ranked:
        tied |= ~(above > below)
        above = below
    if tied.any():
        order[tied] = np.lexsort((-bids[tied], -scores[tied]))
    return order


def ranks_before(score_a, bid_a, col_a, score_b, bid_b, col_b):
    """Whether candidate a comes before candidate b in ``allocate_batch``'s
    order: higher score, then higher bid, then lower column index.

    Elementwise over arrays of one shape, for scores and bids that are not
    NaN.
    """
    return (score_a > score_b) | ((score_a == score_b) & (
        (bid_a > bid_b) | ((bid_a == bid_b) & (col_a < col_b))))


def price_batch(order, scores, multipliers, offsets, slots):
    """Division-based prices for the top-``slots`` entries of each row.

    p_j = max(0, (r_{j+1} - offset_j) / pi_j); a winner ranked last overall
    pays 0.  Returns an (R, slots) array aligned with
    order[:, :slots]; a winner's multiplier at or below EPS_DIV raises
    DegenerateMultiplierError.
    """
    rows = np.arange(order.shape[0])
    n = scores.shape[1]
    prices = np.empty((order.shape[0], slots))
    for j in range(slots):
        win = order[:, j]
        pi = multipliers[rows, win]
        if np.any(pi <= EPS_DIV):
            raise DegenerateMultiplierError("degenerate multiplier among winners")
        if j + 1 < n:
            nxt = scores[rows, order[:, j + 1]]
            prices[:, j] = np.maximum(0.0, (nxt - offsets[rows, win]) / pi)
        else:
            prices[:, j] = 0.0
    return prices


def price_exact_binary_search(rank_fn, target, bid_hi, tol_bid):
    """Smallest bids z in [0, bid_hi] with rank_fn(z) >= target, by bisection.

    All winners are bisected together: ``target``, ``bid_hi`` and
    ``tol_bid`` are arrays (or scalars) of one shape, and each step makes
    one vectorised ``rank_fn(z)`` call on an array of that shape, until
    each bracket is at most ``tol_bid`` wide.  rank_fn must be monotone
    non-decreasing in the bid.  A winner whose bracket fails
    (rank_fn(bid_hi) < target) comes back as NaN.
    """
    target = np.asarray(target, dtype=float)
    hi = np.array(np.broadcast_to(bid_hi, target.shape), dtype=float)
    if not (np.all(np.isfinite(target)) and np.all(np.isfinite(hi))):
        raise ValueError("target and bid_hi must be finite")
    if np.any(hi < 0):
        raise ValueError("bid_hi must be nonnegative")
    lo = np.zeros_like(hi)
    at_zero = rank_fn(lo) >= target
    unreachable = ~at_zero & (rank_fn(hi) < target)
    live = ~at_zero & ~unreachable & (hi - lo > tol_bid)
    while np.any(live):
        mid = 0.5 * (lo + hi)
        up = rank_fn(mid) >= target
        hi = np.where(live & up, mid, hi)
        lo = np.where(live & ~up, mid, lo)
        live &= hi - lo > tol_bid
    return np.where(at_zero, 0.0, np.where(unreachable, np.nan, hi))
