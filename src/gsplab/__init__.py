"""Desk-scale laboratory for multi-metric ad auctions.

Implements the GSP allocate/price framework with pluggable rank scores
(classic squashed GSP, utility-based uGSP, and a learned bid-multiplier
network), a synthetic market simulator, a single-step actor-critic
trainer, and an economic-property audit suite.
"""

from gsplab.auction import (
    DeepGspMechanism,
    FixedScoreMechanism,
    GspMechanism,
    UgspMechanism,
    price_exact_binary_search,
)
from gsplab.simulator import MetricsRecord, World, WorldConfig, scalarize
from gsplab.trainer import TrainConfig, train

__all__ = [
    "DeepGspMechanism",
    "FixedScoreMechanism",
    "GspMechanism",
    "MetricsRecord",
    "TrainConfig",
    "UgspMechanism",
    "World",
    "WorldConfig",
    "price_exact_binary_search",
    "scalarize",
    "train",
]
