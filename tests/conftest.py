import numpy as np
import pytest

from gsplab.auction import (
    F_PCTR,
    F_PCVR,
    FEATURE_DIM,
    allocate_batch,
    price_batch,
)
from gsplab.simulator import World, WorldConfig


def feature_vec(pctr=0.0, pacr=0.0, pcvr=0.0, price=0.0):
    x = np.zeros(FEATURE_DIM)
    x[0], x[1], x[2], x[3] = pctr, pacr, pcvr, price
    return x


def auction_row(bids, pctr, pcvr=0.0):
    """One auction as the engine's (1, N) bids and (1, N, F) features."""
    bids = np.array([bids], dtype=float)
    feats = np.zeros(bids.shape + (FEATURE_DIM,))
    feats[..., F_PCTR] = pctr
    feats[..., F_PCVR] = pcvr
    return bids, feats


def golden_request():
    """The worked three-ad example (Ad1..Ad3 are columns 0..2).

    Two slots with equal slot factors, so only the ranking matters.
    """
    return auction_row([10.0, 2.4, 1.3], [0.1, 0.2, 0.3])


def run_engine(mech, bids, feats, slots):
    """score_batch -> allocate_batch -> price_batch: (order, prices)."""
    scores, pi, off = mech.score_batch(bids, feats)
    order = allocate_batch(scores, bids)
    return order, price_batch(order, scores, pi, off, slots)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-12)


class KeepGrad:
    """An optimizer stand-in that records the gradient and leaves param."""

    def step(self, param, grad):
        self.grad = grad


def fd_param_grad(flatten_loss, flat, h=1e-5):
    """Central finite differences of a loss of the flat parameter vector."""
    grad = np.empty_like(flat)
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (flatten_loss(up) - flatten_loss(dn)) / (2 * h)
    return grad


def grad_err(analytic, fd):
    """Relative distance of an analytic gradient from finite differences."""
    return np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10)


@pytest.fixture(scope="session")
def small_world():
    return World(WorldConfig(seed=1))
