"""Automatic model partitioning: profiling + graph partitioning.

The paper's hand-partitioned models exploit fast intra-LP communication;
this package does the same for arbitrary models: profile a sequential
pilot of the model's first events (:func:`profile_model`), then assign
objects to LPs with a strategy and materialize the partition
(:func:`apply_assignment`).
"""

from .graph import CommGraph, profile_model
from .rebalance import choose_moves
from .strategies import (
    apply_assignment,
    greedy_growth,
    kernighan_lin,
    partition_quality,
    round_robin,
)

__all__ = [
    "CommGraph",
    "apply_assignment",
    "choose_moves",
    "greedy_growth",
    "kernighan_lin",
    "partition_quality",
    "profile_model",
    "round_robin",
]
