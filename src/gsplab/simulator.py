"""Synthetic ad market and feedback oracle.

Replaces proprietary auction logs with a seeded generative world:
advertisers carry ground-truth response rates (click, add-to-cart,
order), valuations are drawn per round from log-normal distributions,
every advertiser bids its valuation, and predicted rates are noisy
versions of the truth.  User behavior is realized with a click-gated
funnel, and the five platform metrics (RPM, CTR, ACR, CVR, GPM) are
aggregated from the realized feedback and scaled to [0,1] by normalizers
calibrated on a benchmark-mechanism run.

The generative parameters are the module constants below; a
``WorldConfig`` sets only the market's shape (advertisers, slots and
their click factors), the prediction noise, the calibration length and
the seed.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from gsplab.auction import (
    FEATURE_DIM,
    F_BUDGET,
    F_CATEGORY,
    F_PACR,
    F_PCTR,
    F_PCVR,
    F_PRICE,
    F_USER,
    GspMechanism,
    allocate_batch,
    price_batch,
)

# normalizer of a metric whose calibration episode reads 0
NORMALIZER_FLOOR = 1e-9
# headroom multiplier applied to the calibration episode's metrics to get
# the [0,1] normalizers
NORMALIZER_MARGIN = 4.0

# per-round valuation draw: lognormal(value_mu_i, VALUE_SIGMA), where
# value_mu_i is advertiser-specific, VALUE_MU + VALUE_MU_SPREAD * N(0, 1)
VALUE_MU = 0.5
VALUE_SIGMA = 0.4
VALUE_MU_SPREAD = 0.35
# ground-truth response model: Beta-distributed CTR per advertiser, and
# Beta-distributed cart and order rates given a click
CTR_ALPHA = 4.0
CTR_BETA = 16.0
CART_GIVEN_CLICK_ALPHA = 3.0
CART_GIVEN_CLICK_BETA = 7.0
ORDER_GIVEN_CLICK_ALPHA = 2.0
ORDER_GIVEN_CLICK_BETA = 8.0
# item price per advertiser: lognormal(PRICE_MU, PRICE_SIGMA)
PRICE_MU = 3.0
PRICE_SIGMA = 0.5


def check_bounds(config, low, *names, strict=False):
    """Raise ValueError naming the first field of ``names`` that is not
    finite and at least ``low`` (above ``low`` when ``strict``)."""
    for name in names:
        value = getattr(config, name)
        if not (low < value < math.inf if strict else low <= value < math.inf):
            raise ValueError(f"{name} must be finite and "
                             f"{'>' if strict else '>='} {low}, got {value!r}")


@dataclass
class WorldConfig:
    """Synthetic market shape; with the module constants and the seed it
    fully determines a World."""

    n_advertisers: int = 8
    slots: int = 3
    slot_ctr_factors: tuple = (1.0, 0.65, 0.45)
    # multiplicative log-normal noise on predicted rates
    prediction_noise: float = 0.15
    calibration_rounds: int = 500
    seed: int = 0

    def __post_init__(self):
        check_bounds(self, 1, "n_advertisers", "calibration_rounds")
        check_bounds(self, 0.0, "prediction_noise", "seed")
        if not 1 <= self.slots <= self.n_advertisers:
            raise ValueError(f"slots must lie in [1, n_advertisers], "
                             f"got {self.slots}")
        beta = tuple(float(b) for b in self.slot_ctr_factors)
        if len(beta) != self.slots:
            raise ValueError("slot_ctr_factors must have length slots")
        if not all(0 < b <= 1 for b in beta):
            raise ValueError("slot_ctr_factors must lie in (0, 1]")
        if any(b2 > b1 for b1, b2 in zip(beta, beta[1:])):
            raise ValueError("slot_ctr_factors must be non-increasing")
        object.__setattr__(self, "slot_ctr_factors", beta)


@dataclass
class Rounds:
    """A batch of sampled auction rounds with sealed ground truth.

    ``sample_rounds`` makes ``bids`` the ``values`` array itself (every
    advertiser bids its valuation): copy before writing to either.
    """

    bids: np.ndarray    # (R, N)
    values: np.ndarray  # (R, N)
    feats: np.ndarray   # (R, N, FEATURE_DIM)

    @property
    def n_rounds(self):
        return self.bids.shape[0]


@dataclass
class MetricsRecord:
    """The five normalized metrics of one episode, each in [0,1]."""

    rpm: float
    ctr: float
    acr: float
    cvr: float
    gpm: float

    def as_vector(self):
        return np.array([self.rpm, self.ctr, self.acr, self.cvr, self.gpm])


def raw_metrics(played, per_round=False):
    """(rpm, ctr, acr, cvr, gpm) before normalization from settled feedback.

    ``played`` holds the (R, K) ``clicks``, ``carts``, ``orders``,
    ``prices`` and ``gmv`` arrays that ``World.settle`` returns.  Each
    metric is a mean per impression, RPM and GPM per mille: over the
    whole episode as a 5-vector, or with ``per_round`` over each round's
    K slots as an (R, 5) array whose rows average to the episode vector.
    """
    clicks = played["clicks"]
    axis, n = (1, clicks.shape[1]) if per_round else (None, clicks.size)
    return np.stack([
        (clicks * played["prices"]).sum(axis=axis) / n * 1000.0,
        clicks.sum(axis=axis) / n,
        played["carts"].sum(axis=axis) / n,
        played["orders"].sum(axis=axis) / n,
        played["gmv"].sum(axis=axis) / n * 1000.0,
    ], axis=-1)


def scalarize(metrics, weights):
    """F = sum_j w_j f_j over the five normalized metrics.

    ``metrics`` is a MetricsRecord or 5-vector (returns a float) or an
    (R, 5) array of per-round metrics (returns one F per round).
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (5,):
        raise ValueError("expected five metric weights")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {w.sum()}")
    vec = metrics.as_vector() if isinstance(metrics, MetricsRecord) else np.asarray(metrics)
    f = vec @ w
    return float(f) if f.ndim == 0 else f


class World:
    """A sampled market: ground-truth rates per advertiser plus normalizers.

    Construction is fully determined by (config, config.seed): advertiser
    rates and metric normalizers never change afterwards, so two worlds
    built from equal configs behave identically.
    """

    def __init__(self, config):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        n = config.n_advertisers
        self.n_advertisers = n
        self.slots = config.slots
        self.beta = np.asarray(config.slot_ctr_factors, dtype=float)
        self.true_ctr = rng.beta(CTR_ALPHA, CTR_BETA, size=n)
        cart_cond = rng.beta(CART_GIVEN_CLICK_ALPHA, CART_GIVEN_CLICK_BETA,
                             size=n)
        order_cond = rng.beta(ORDER_GIVEN_CLICK_ALPHA, ORDER_GIVEN_CLICK_BETA,
                              size=n)
        self.true_acr = self.true_ctr * cart_cond
        self.true_cvr = self.true_ctr * order_cond
        self.price = rng.lognormal(PRICE_MU, PRICE_SIGMA, size=n)
        self.value_mu = VALUE_MU + VALUE_MU_SPREAD * rng.standard_normal(n)
        self.normalizers = np.ones(5)
        self._calibrate()

    # -- sampling -----------------------------------------------------------

    def sample_rounds(self, n_rounds, rng):
        """Draw valuations and noisy predictions for n_rounds; every
        advertiser bids its valuation."""
        cfg = self.config
        n = self.n_advertisers
        values = rng.lognormal(self.value_mu, VALUE_SIGMA, size=(n_rounds, n))
        feats = np.empty((n_rounds, n, FEATURE_DIM))
        for idx, true in ((F_PCTR, self.true_ctr), (F_PACR, self.true_acr),
                          (F_PCVR, self.true_cvr)):
            if cfg.prediction_noise > 0:
                noise = np.exp(cfg.prediction_noise * rng.standard_normal((n_rounds, n))
                               - 0.5 * cfg.prediction_noise**2)
            else:
                noise = 1.0
            feats[:, :, idx] = np.clip(true * noise, 0.0, 1.0)
        feats[:, :, F_PRICE] = self.price
        feats[:, :, F_BUDGET] = 1.0
        feats[:, :, F_CATEGORY] = np.arange(n) / max(n - 1, 1)
        feats[:, :, F_USER] = rng.standard_normal((n_rounds, 1))
        return Rounds(bids=values, values=values, feats=feats)

    # -- feedback ------------------------------------------------------------

    def realize_batch(self, winners, rng):
        """Draw click/cart/order bits for (R, K) winner index array."""
        click_p = self.beta[None, :] * self.true_ctr[winners]
        clicks = rng.random(winners.shape) < click_p
        with np.errstate(divide="ignore", invalid="ignore"):
            cart_cond = np.minimum(
                np.where(self.true_ctr > 0, self.true_acr / np.maximum(self.true_ctr, 1e-300), 0.0), 1.0)
            order_cond = np.minimum(
                np.where(self.true_ctr > 0, self.true_cvr / np.maximum(self.true_ctr, 1e-300), 0.0), 1.0)
        carts = clicks & (rng.random(winners.shape) < cart_cond[winners])
        orders = clicks & (rng.random(winners.shape) < order_cond[winners])
        return clicks, carts, orders

    # -- vectorized episode runner -------------------------------------------

    def play(self, rounds, mechanism, rng):
        """Run the mechanism on sampled rounds and realize feedback.

        Returns settle's dict: per-advertiser utilities and win counts,
        the allocation arrays and the (R, K) feedback arrays.
        """
        scores, pi, off = mechanism.score_batch(rounds.bids, rounds.feats)
        order = allocate_batch(scores, rounds.bids)
        prices = price_batch(order, scores, pi, off, self.slots)
        return self.settle(rounds, scores, order, prices, rng)

    def settle(self, rounds, scores, order, prices, rng):
        """Realize feedback for precomputed allocations and aggregate.

        The (R, K) ``clicks``, ``carts``, ``orders``, ``prices`` and
        ``gmv`` arrays of the result feed ``raw_metrics``.
        """
        winners = order[:, :self.slots]
        clicks, carts, orders_ = self.realize_batch(winners, rng)
        rows = np.arange(rounds.n_rounds)[:, None]
        win_values = rounds.values[rows, winners]
        gmv = orders_ * self.price[winners]
        utility = np.zeros(self.n_advertisers)
        wins = np.zeros(self.n_advertisers, dtype=int)
        np.add.at(utility, winners.ravel(),
                  (clicks * (win_values - prices)).ravel())
        np.add.at(wins, winners.ravel(), 1)
        return {
            "utility": utility, "wins": wins,
            "scores": scores, "order": order, "prices": prices,
            "clicks": clicks, "carts": carts, "orders": orders_, "gmv": gmv,
        }

    @property
    def bid_scale(self):
        """Typical bid level exp(mean value_mu + VALUE_SIGMA^2 / 2).

        The uGSP baselines scale their bid-independent weights by it.
        """
        return float(np.exp(self.value_mu.mean() + 0.5 * VALUE_SIGMA**2))

    def normalized(self, raw):
        """Raw metrics scaled by the calibrated normalizers, clipped at 1."""
        return np.minimum(raw / self.normalizers, 1.0)

    def evaluate(self, mechanism, n_rounds, seed):
        """Metrics and per-advertiser utilities over a fresh seeded episode."""
        if n_rounds < 1:
            raise ValueError("need at least one evaluation round")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        rounds = self.sample_rounds(n_rounds, rng)
        played = self.play(rounds, mechanism, rng)
        metrics = MetricsRecord(*self.normalized(raw_metrics(played)))
        return metrics, played["utility"]

    def benchmark_utilities(self, mechanism, n_rounds, rng):
        """Mean per-round utility vector over n_rounds of the benchmark."""
        if n_rounds < 1:
            raise ValueError("need at least one benchmark round")
        rounds = self.sample_rounds(n_rounds, rng)
        played = self.play(rounds, mechanism, rng)
        return played["utility"] / n_rounds

    # -- calibration -----------------------------------------------------------

    def _calibrate(self):
        cfg = self.config
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xCA11)))
        rounds = self.sample_rounds(cfg.calibration_rounds, rng)
        played = self.play(rounds, GspMechanism(sigma=1.0), rng)
        raw = raw_metrics(played)
        self.normalizers = np.maximum(NORMALIZER_MARGIN * raw, NORMALIZER_FLOOR)


# ---------------------------------------------------------------------------
# Config file I/O


def save_world_config(config, path):
    parser = configparser.ConfigParser()
    parser["world"] = {
        k: (",".join(str(x) for x in v) if isinstance(v, tuple) else str(v))
        for k, v in dataclasses.asdict(config).items()
    }
    with open(path, "w") as fh:
        parser.write(fh)


def config_from_section(cls, section):
    """Dataclass ``cls`` from one INI section; every key must be a field.

    Each value is parsed with the type of the field's default (tuples
    split on commas).  Unknown keys and unparsable values raise
    ValueError naming the key.
    """
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - set(defaults))
    if unknown:
        raise ValueError(f"unknown key(s): {', '.join(unknown)}")
    kwargs = {}
    for name, raw in section.items():
        default = defaults[name]
        try:
            if isinstance(default, tuple):
                kwargs[name] = tuple(type(default[0])(x) for x in raw.split(","))
            else:
                kwargs[name] = type(default)(raw)
        except ValueError as exc:
            raise ValueError(f"{name} = {raw!r}: {exc}") from exc
    return cls(**kwargs)


def load_world_config(path):
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise FileNotFoundError(path)
    return config_from_section(WorldConfig, parser["world"])
