import numpy as np
import pytest

from gsplab.auction import FEATURE_DIM, AdCandidate, AuctionRequest
from gsplab.simulator import World, WorldConfig


def feature_vec(pctr=0.0, pacr=0.0, pcvr=0.0, price=0.0):
    x = np.zeros(FEATURE_DIM)
    x[0], x[1], x[2], x[3] = pctr, pacr, pcvr, price
    return x


def golden_request():
    """The worked three-ad, two-slot example with equal slot factors."""
    cands = [
        AdCandidate("Ad1", 10.0, feature_vec(pctr=0.1)),
        AdCandidate("Ad2", 2.4, feature_vec(pctr=0.2)),
        AdCandidate("Ad3", 1.3, feature_vec(pctr=0.3)),
    ]
    return AuctionRequest(cands, slots=2, slot_ctr_factors=np.array([1.0, 1.0]))


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-12)


@pytest.fixture(scope="session")
def small_world():
    return World(WorldConfig(seed=1))
