"""Economic-property measurement.

Three black-box statistics over a mechanism or trained model:
  - T_m: mean Spearman correlation between a bid grid and the resulting
    rank scores (monotonicity of the learned score).
  - PER: ratio of the division-based approximate payment to the exact
    critical bid recovered by bisection.
  - i-SIC: finite-perturbation incentive-compatibility estimate from
    paired bid perturbations with common random numbers (single slot),
    every advertiser replayed at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from gsplab.auction import (
    EPS_DIV,
    DegenerateMultiplierError,
    allocate_batch,
    price_batch,
    price_exact_binary_search,
    ranks_before,
)


# T_m's bid grid: BID_GRID uniform points on [BID_LO*b, BID_HI*b] around
# the observed bid b
BID_GRID = 20
BID_LO = 0.1
BID_HI = 10.0
# PER's tolerance: the bisection stops within PER_TOL times the winner's
# bid, and a price at or below PER_TOL counts as zero
PER_TOL = 1e-6
# the acceptance gates an audited model must pass: T_m at least T_M_MIN,
# mean PER within PER_RANGE and i-SIC at least ISIC_MIN
T_M_MIN = 0.96
PER_RANGE = (0.95, 1.05)
ISIC_MIN = 0.95


@dataclass
class AuditConfig:
    alpha: float = 0.01   # i-SIC perturbation
    n_states: int = 200   # T_m test states
    per_rounds: int = 200
    isic_rounds: int = 2000  # paired samples = rounds * advertisers
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 0.05:
            raise ValueError("alpha must lie in (0, 0.05]")


def _average_ranks(xs):
    """1-based ranks along the last axis, ties sharing their mean, from one
    sort: a key is the value's code, offset by its row's first index."""
    xs = np.asarray(xs, dtype=float)
    starts = np.arange(xs.size).reshape(xs.shape)[..., :1]
    keys = np.unique(xs, return_inverse=True)[1].reshape(xs.shape)
    keys += starts * xs.size
    sorted_keys = np.sort(keys, axis=None)
    return 0.5 * (np.searchsorted(sorted_keys, keys, side="left") + 1
                  + np.searchsorted(sorted_keys, keys, side="right")) - starts


def _spearman_rows(xs, ys):
    """(Spearman's rho, either row constant) of each row pair; centred
    ranks are half-integers, so rho is exact in any summation order."""
    constant = (np.all(xs == xs[..., :1], axis=-1)
                | np.all(ys == ys[..., :1], axis=-1))
    rx, ry = _average_ranks(xs), _average_ranks(ys)
    rx -= rx.mean(axis=-1, keepdims=True)
    ry -= ry.mean(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        rho = ((rx * ry).sum(axis=-1)
               / np.sqrt((rx * rx).sum(axis=-1) * (ry * ry).sum(axis=-1)))
    return rho, constant


def spearman_rho(xs, ys):
    """Spearman correlation with average-rank ties; None for a degenerate
    (constant) sequence, which callers must report rather than average in.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need two equal-length 1-D sequences of length >= 2")
    rho, constant = _spearman_rows(xs, ys)
    return None if constant else float(rho)


@dataclass
class MonotonicityResult:
    t_m: float
    n_states: int
    n_degenerate: int


def audit_states(world, config):
    """The T_m test states: config.n_states (bid, features) pairs.

    State i is advertiser i mod N of sampled round i, drawn from the
    config's seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xA0D)))
    rounds = world.sample_rounds(config.n_states, rng)
    n = world.n_advertisers
    return [(rounds.bids[i, i % n], rounds.feats[i, i % n])
            for i in range(config.n_states)]


def monotonicity_metric(actor, states, config=AuditConfig()):
    """Mean Spearman rho of rank score vs bid over a per-state bid grid.

    ``states`` is an iterable of (bid, features); the grid spans
    [BID_LO*bid, BID_HI*bid] with BID_GRID uniform points.  Every state's
    grid is scored, r = b * pi + o, in one multiplier_batch call and
    ranked in one pass.
    """
    states = list(states)
    if not states:
        raise ValueError("empty test set")
    b = np.array([s[0] for s in states], dtype=float)
    grid = np.linspace(BID_LO * b, BID_HI * b, BID_GRID, axis=1)
    feats = np.repeat([np.asarray(x, dtype=float) for _, x in states],
                      BID_GRID, axis=0)
    pi, offsets = (a.reshape(grid.shape)
                   for a in actor.multiplier_batch(grid.ravel(), feats))
    rhos, constant = _spearman_rows(grid, grid * pi + offsets)
    rhos = rhos[~constant]
    t_m = float(np.mean(rhos)) if rhos.size else float("nan")
    return MonotonicityResult(t_m=t_m, n_states=rhos.size,
                              n_degenerate=len(states) - rhos.size)


@dataclass
class PaymentErrorResult:
    mean: float
    p05: float
    p95: float
    n_winners: int
    n_excluded: int


def payment_error_rate(world, mechanism, config=AuditConfig()):
    """PER = approximate price / exact bisection price across winners.

    The approximate price is the market's own, ``price_batch``.  Winners
    with a degenerate multiplier, or whose exact oracle has no solution
    (bracketing failure, NaN), are excluded and counted; with none left,
    every statistic is NaN, which fails the gate.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x9E4)))
    rounds = world.sample_rounds(config.per_rounds, rng)
    scores, pi, off = mechanism.score_batch(rounds.bids, rounds.feats)
    order = allocate_batch(scores, rounds.bids)
    # winners without a next score pay 0 under both rules
    k = min(world.slots, world.n_advertisers - 1)
    rows = np.arange(rounds.n_rounds)[:, None]
    win = order[:, :k]
    divisible = pi > EPS_DIV
    ok = divisible[rows, win]
    # a stand-in multiplier keeps the excluded winners from failing the
    # whole batch in price_batch
    approx = price_batch(order, scores, np.where(divisible, pi, 1.0), off,
                         k)[ok]
    target = scores[rows, order[:, 1:k + 1]][ok]
    feats = rounds.feats[rows, win][ok]
    bid_hi = np.maximum(rounds.bids[rows, win][ok], 1e-9)
    exact = price_exact_binary_search(
        lambda z: mechanism.score_batch(z, feats)[0], target, bid_hi,
        tol_bid=PER_TOL * bid_hi)
    # a critical bid at zero counts as exact when both payments are ~zero
    keep = np.isfinite(exact) & ((exact > PER_TOL) | (approx <= PER_TOL))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(exact <= PER_TOL, 1.0, approx / exact)[keep]
    n_winners = ratios.size
    ratios = ratios if n_winners else np.array([np.nan])
    return PaymentErrorResult(
        mean=float(ratios.mean()),
        p05=float(np.percentile(ratios, 5)),
        p95=float(np.percentile(ratios, 95)),
        n_winners=n_winners,
        n_excluded=int(win.size - n_winners),
    )


@dataclass
class IsicResult:
    value: float


def i_sic(mechanism, world, config=AuditConfig()):
    """Finite-alpha incentive-compatibility score on a single-slot world.

    For every (round, advertiser), the auction is replayed with that
    advertiser bidding (1+a)v and (1-a)v while everyone else is held fixed
    (common random numbers).  With u(b) = win(b) * (b - p(b)),

        i-SIC = E[u((1+a)v) - u((1-a)v)] / (2a * E[v * win(v)]).

    win(v) is the sampled allocation itself.  A replay scores every
    perturbed bid in one (R, N) ``score_batch`` call, 3 calls in all, and
    ranks nothing: the others keep their order, so the sampled matrix is
    ordered once (``allocate_batch``).  An entry wins if it ``ranks_before``
    the best of the others and pays what ``price_batch`` charges one slot,
    max(0, (r_other - offset) / pi): full replays' values, bit for bit.

    A truthful (critical-bid-priced, monotone) mechanism scores 1 up to
    Monte-Carlo error.  A winning multiplier at or below EPS_DIV, the
    replayed column's or another's, raises DegenerateMultiplierError.
    """
    if world.slots != 1:
        raise ValueError("i-SIC is defined on single-slot worlds (K = 1)")
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x151C)))
    rounds = world.sample_rounds(config.isic_rounds, rng)
    a = config.alpha
    n = world.n_advertisers
    scores, pi, _ = mechanism.score_batch(rounds.bids, rounds.feats)
    rows = np.arange(rounds.n_rounds)[:, None]
    top = allocate_batch(scores, rounds.bids)[:, :2]
    win_v = top[:, :1] == np.arange(n)
    truthful_pi = pi[rows, top[:, :1]]
    if n > 1:
        # per round and column, the best of the others, which it must beat
        other = np.where(win_v, top[:, 1:], top[:, :1])
        other_sc, other_bid, other_pi = (
            m[rows, other] for m in (scores, rounds.bids, pi))
    del scores, pi

    def replay(mult):
        """(R, N) utilities when each advertiser alone bids mult * v."""
        b = mult * rounds.bids
        sc, pi_r, off = mechanism.score_batch(b, rounds.feats)
        won = (ranks_before(sc, b, np.arange(n), other_sc, other_bid, other)
               if n > 1 else np.ones(b.shape, dtype=bool))
        if (np.any(pi_r[won] <= EPS_DIV)
                or n > 1 and np.any(other_pi[~won] <= EPS_DIV)):
            raise DegenerateMultiplierError(
                "degenerate multiplier among winners")
        u = np.zeros(b.shape)
        # a lone candidate is ranked last overall and pays 0
        u[won] = b[won] - (
            np.maximum(0.0, (other_sc[won] - off[won]) / pi_r[won])
            if n > 1 else 0.0)
        return u

    u_up = replay(1.0 + a)
    # bidding v wins as sampled, so the truthful winners are the sampled ones
    if np.any(truthful_pi <= EPS_DIV):
        raise DegenerateMultiplierError("degenerate multiplier among winners")
    u_down = replay(1.0 - a)
    denom = float(np.mean(rounds.bids * win_v) * 2.0 * a)
    if abs(denom) < 1e-9:
        raise ZeroDivisionError("i-SIC denominator below 1e-9 (no wins?)")
    return IsicResult(value=float(np.mean(u_up - u_down) / denom))


def single_slot_world(world):
    """A copy of the world restricted to one slot (for i-SIC)."""
    from gsplab.simulator import World

    cfg = dc_replace(world.config, slots=1,
                     slot_ctr_factors=(world.config.slot_ctr_factors[0],))
    return World(cfg)


def failed_gates(t_m, per_mean, isic):
    """Names of the acceptance gates that the audit values fail, in the
    order T_m, PER, i-SIC; a NaN value fails its gate."""
    passed = {"T_m": t_m >= T_M_MIN,
              "PER": PER_RANGE[0] <= per_mean <= PER_RANGE[1],
              "i-SIC": isic >= ISIC_MIN}
    return [name for name, ok in passed.items() if not ok]
