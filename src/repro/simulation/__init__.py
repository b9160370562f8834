"""Cycle-driven simulation substrate (the Peersim role of the demo platform)."""

from .engine import CycleEngine
from .network import Message, Network, TrafficStats
from .node import Node
from .observers import Observer
from .rng import RngRegistry
from .slab import (
    ShardCoordinator,
    average_pairs_inplace,
    pair_online,
    slab_churn_step,
)

__all__ = [
    "CycleEngine",
    "Network",
    "Message",
    "TrafficStats",
    "Node",
    "Observer",
    "RngRegistry",
    "ShardCoordinator",
    "average_pairs_inplace",
    "pair_online",
    "slab_churn_step",
]
