"""Per-bank interference graphs over delivery live ranges."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.covering.solution import BlockSolution
from repro.regalloc.liveness import LiveRange, compute_live_ranges


@dataclass
class InterferenceGraph:
    """Undirected conflict graph of one register bank.

    Nodes are delivery task ids; an edge means the two values are live
    simultaneously and need distinct registers.
    """

    bank: str
    capacity: int
    nodes: List[int] = field(default_factory=list)
    edges: Dict[int, Set[int]] = field(default_factory=dict)

    def add_node(self, node: int) -> None:
        """Ensure ``node`` exists in the graph."""
        if node not in self.edges:
            self.nodes.append(node)
            self.edges[node] = set()

    def add_edge(self, a: int, b: int) -> None:
        """Add a conflict edge between two values."""
        if a == b:
            return
        self.add_node(a)
        self.add_node(b)
        self.edges[a].add(b)
        self.edges[b].add(a)

    def degree(self, node: int) -> int:
        """Number of conflicting neighbours."""
        return len(self.edges[node])

    def neighbours(self, node: int) -> Set[int]:
        """The set of values conflicting with ``node``."""
        return set(self.edges[node])


def build_interference_graphs(
    solution: BlockSolution,
) -> Dict[str, InterferenceGraph]:
    """One interference graph per register bank of the machine."""
    ranges = compute_live_ranges(solution)
    machine = solution.graph.machine
    graphs: Dict[str, InterferenceGraph] = {
        rf.name: InterferenceGraph(bank=rf.name, capacity=rf.size)
        for rf in machine.register_files
    }
    by_bank: Dict[str, List[LiveRange]] = {name: [] for name in graphs}
    for live_range in ranges.values():
        by_bank[live_range.bank].append(live_range)
    for bank, bank_ranges in by_bank.items():
        graph = graphs[bank]
        bank_ranges.sort(key=lambda r: (r.def_cycle, r.delivery))
        for i, first in enumerate(bank_ranges):
            graph.add_node(first.delivery)
            for second in bank_ranges[i + 1 :]:
                if first.overlaps(second):
                    graph.add_edge(first.delivery, second.delivery)
    return graphs
