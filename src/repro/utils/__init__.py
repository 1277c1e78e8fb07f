"""Shared utilities: ordered sets, id allocation, timers, graph helpers."""

from repro.utils.ordered_set import OrderedSet
from repro.utils.ids import IdAllocator
from repro.telemetry.clock import Stopwatch
from repro.utils.graph import (
    reachable_from,
    topological_order,
    transitive_closure,
    longest_path_lengths,
)

__all__ = [
    "OrderedSet",
    "IdAllocator",
    "Stopwatch",
    "reachable_from",
    "topological_order",
    "transitive_closure",
    "longest_path_lengths",
]
