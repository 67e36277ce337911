"""Economic-property measurement.

Three black-box statistics over a mechanism or trained model:
  - T_m: mean Spearman correlation between a bid grid and the resulting
    rank scores (monotonicity of the learned score).
  - PER: ratio of the division-based approximate payment to the exact
    critical bid recovered by bisection.
  - i-SIC: finite-perturbation incentive-compatibility estimate from
    paired bid perturbations with common random numbers (single slot).
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
    """1-based ranks; tied values share the mean of their positions."""
    xs = np.asarray(xs, dtype=float)
    sorted_xs = np.sort(xs)
    first = np.searchsorted(sorted_xs, xs, side="left")
    after_last = np.searchsorted(sorted_xs, xs, side="right")
    return 0.5 * (first + after_last + 1)


def spearman_rho(xs, ys):
    """Spearman correlation with average-rank ties.

    Returns None for degenerate (constant) sequences, which callers must
    report separately rather than average in.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need two equal-length 1-D sequences of length >= 2")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        return None
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


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
    grid is scored in one multiplier_batch call.
    """
    states = list(states)
    if not states:
        raise ValueError("empty test set")
    b = np.array([s[0] for s in states], dtype=float)
    grid = np.linspace(BID_LO * b, BID_HI * b, BID_GRID, axis=1)
    feats = np.repeat([np.asarray(x, dtype=float) for _, x in states],
                      BID_GRID, axis=0)
    pi = actor.multiplier_batch(grid.ravel(), feats).reshape(grid.shape)
    rhos, degenerate = [], 0
    for bids, row_pi in zip(grid, pi):
        rho = spearman_rho(bids, bids * row_pi)
        if rho is None:
            degenerate += 1
        else:
            rhos.append(rho)
    t_m = float(np.mean(rhos)) if rhos else float("nan")
    return MonotonicityResult(t_m=t_m, n_states=len(rhos),
                              n_degenerate=degenerate)


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
    (bracketing failure, NaN), are excluded and counted.
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
    if not ratios.size:
        raise ValueError("no auditable winners")
    return PaymentErrorResult(
        mean=float(ratios.mean()),
        p05=float(np.percentile(ratios, 5)),
        p95=float(np.percentile(ratios, 95)),
        n_winners=ratios.size,
        n_excluded=int(win.size - ratios.size),
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

    win(v) is the sampled allocation itself: bidding v leaves every score
    as sampled.  A replay re-scores the one column and ranks nothing: the
    others keep their order among themselves, so the sampled matrix is
    ordered once (``allocate_batch``) and each column keeps the best of
    the others.  The replayed entry wins when it ``ranks_before`` that
    one, and then pays what ``price_batch`` charges a single slot,
    max(0, (r_other - offset) / pi).  Values are those of full replays
    with ``allocate_batch`` and ``price_batch``, bit for bit, and the
    audit makes 1 + 2N ``score_batch`` calls: the sampled matrix, then
    one per column and perturbation.

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
    rows = np.arange(rounds.n_rounds)
    top = allocate_batch(scores, rounds.bids)[:, :2]
    win_v = top[:, :1] == np.arange(n)
    if n > 1:
        # row i: per round, the best of the others, which column i must beat
        other = np.where(win_v.T, top[:, 1], top[:, 0])
        others = list(zip(other, scores[rows, other], rounds.bids[rows, other],
                          pi[rows, other]))

    def replay(mult):
        """(R, N) utilities when advertiser i alone bids mult * v_i."""
        u = np.zeros(rounds.bids.shape)
        for i in range(n):
            b = mult * rounds.bids[:, i]
            sc_i, pi_i, off_i = mechanism.score_batch(b, rounds.feats[:, i, :])
            won, winner_pi = slice(None), pi_i
            if n > 1:
                col, other_sc, other_bid, other_pi = others[i]
                won = ranks_before(sc_i, b, i, other_sc, other_bid, col)
                winner_pi = np.where(won, pi_i, other_pi)
            if np.any(winner_pi <= EPS_DIV):
                raise DegenerateMultiplierError(
                    "degenerate multiplier among winners")
            # a lone candidate is ranked last overall and pays 0
            price = (np.maximum(0.0, (other_sc[won] - off_i[won]) / pi_i[won])
                     if n > 1 else 0.0)
            u[won, i] = b[won] - price
        return u

    u_up = replay(1.0 + a)
    # bidding v wins as sampled, so the truthful winners are the sampled ones
    if np.any(pi[rows, top[:, 0]] <= EPS_DIV):
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
