"""The instruction-set databases of Section II.

The paper extracts two databases from the ISDL description before
building Split-Node DAGs:

- a correlation between target-processor operations and SUIF basic
  operations (:class:`OperationDatabase`), and
- all possible data transfers, "subsequently expanded to include
  multiple-step data transfers as well" (:class:`TransferDatabase`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import NoTransferPathError
from repro.ir.ops import Opcode
from repro.isdl.model import FunctionalUnit, Machine, MachineOp


@dataclass(frozen=True)
class OperationMatch:
    """One way to execute an IR opcode: ``op`` on ``unit``."""

    unit: str
    op: MachineOp


class OperationDatabase:
    """Maps IR opcodes to the machine operations that implement them.

    Only basic (single-operation) machine ops appear here; complex
    instructions are handled by the pattern-matching phase of the
    Split-Node DAG builder.
    """

    def __init__(self, machine: Machine):
        self._machine = machine
        self._matches: Dict[Opcode, List[OperationMatch]] = {}
        for unit in machine.units:
            for op in unit.operations:
                if op.is_complex:
                    continue
                opcode = op.semantics.opcode
                self._matches.setdefault(opcode, []).append(
                    OperationMatch(unit.name, op)
                )

    def matches(self, opcode: Opcode) -> List[OperationMatch]:
        """All (unit, op) pairs implementing ``opcode`` (stable order)."""
        return list(self._matches.get(opcode, []))

    def supported_opcodes(self) -> List[Opcode]:
        """Opcodes the machine can execute, in declaration order."""
        return list(self._matches)

    def alternative_count(self, opcode: Opcode) -> int:
        """Number of units that can execute ``opcode``."""
        return len(self._matches.get(opcode, ()))


@dataclass(frozen=True)
class TransferHop:
    """One bus crossing: move a word from ``source`` to ``destination``."""

    bus: str
    source: str
    destination: str

    def __str__(self) -> str:
        return f"{self.source}->{self.destination} via {self.bus}"


#: A transfer path is an ordered sequence of hops.
TransferPath = Tuple[TransferHop, ...]


class TransferDatabase:
    """All (multi-step) data-transfer paths between storage locations.

    Built by breadth-first search over the storage connectivity graph
    induced by the machine's buses.  For each (source, destination) pair
    the database records *every minimal-length* path; architectures with
    multiple buses therefore expose multiple path alternatives, which the
    covering engine chooses among heuristically (paper, Section IV-B).

    Reachability and hop counts are answered by a per-source BFS distance
    table (:meth:`has_path`, :meth:`distance`) without enumerating paths,
    and unreachable pairs are cached as negative results — neither query
    pays path enumeration or exception overhead on repeat.
    """

    def __init__(self, machine: Machine, max_hops: int = 4):
        self._machine = machine
        self._max_hops = max_hops
        self._paths: Dict[Tuple[str, str], List[TransferPath]] = {}
        #: source -> {reachable storage -> hops}; doubles as the negative
        #: cache (absence within the bound = no path, no re-search).
        self._distances: Dict[str, Dict[str, int]] = {}
        self._neighbours: Dict[str, List[TransferHop]] = {}
        for storage in machine.storage_names():
            hops: List[TransferHop] = []
            for bus in machine.buses:
                if storage in bus.connects:
                    for other in bus.connects:
                        if other != storage:
                            hops.append(TransferHop(bus.name, storage, other))
            self._neighbours[storage] = hops

    def paths(self, source: str, destination: str) -> List[TransferPath]:
        """All minimal-hop transfer paths from ``source`` to ``destination``.

        Returns ``[()]`` (one empty path) when source and destination are
        the same storage.  Raises :class:`NoTransferPathError` when the
        destination is unreachable within the hop bound.
        """
        if source == destination:
            return [()]
        key = (source, destination)
        result = self._paths.get(key)
        if result is None:
            # Reachability first: an unreachable pair is settled by the
            # (cached) distance table and never runs the path search —
            # before, the empty search result was re-derived as a raise
            # on every call.
            if destination not in self._distance_table(source):
                self._paths[key] = []
                raise NoTransferPathError(source, destination)
            result = self._search(source, destination)
            self._paths[key] = result
        if not result:
            raise NoTransferPathError(source, destination)
        return list(result)

    def _distance_table(self, source: str) -> Dict[str, int]:
        """Hop counts from ``source`` to every storage reachable within
        the bound — one plain BFS, no path materialisation."""
        table = self._distances.get(source)
        if table is None:
            table = {source: 0}
            frontier = [source]
            for level in range(1, self._max_hops + 1):
                next_frontier: List[str] = []
                for at in frontier:
                    for hop in self._neighbours[at]:
                        if hop.destination not in table:
                            table[hop.destination] = level
                            next_frontier.append(hop.destination)
                if not next_frontier:
                    break
                frontier = next_frontier
            self._distances[source] = table
        return table

    def has_path(self, source: str, destination: str) -> bool:
        """True if any transfer path exists (BFS table, no exceptions)."""
        if source == destination:
            return True
        return destination in self._distance_table(source)

    def distance(self, source: str, destination: str) -> int:
        """Minimal number of bus crossings between the two storages.

        Answered from the BFS distance table; raises
        :class:`NoTransferPathError` when unreachable within the bound.
        """
        if source == destination:
            return 0
        hops = self._distance_table(source).get(destination)
        if hops is None:
            raise NoTransferPathError(source, destination)
        return hops

    def _search(self, source: str, destination: str) -> List[TransferPath]:
        # BFS level by level; collect every path that first reaches the
        # destination at the minimal level.
        frontier: List[TransferPath] = [()]
        visited_levels = {source: 0}
        found: List[TransferPath] = []
        for level in range(1, self._max_hops + 1):
            next_frontier: List[TransferPath] = []
            for path in frontier:
                at = path[-1].destination if path else source
                for hop in self._neighbours[at]:
                    previous = visited_levels.get(hop.destination)
                    if previous is not None and previous < level:
                        continue  # strictly shorter route exists
                    visited_levels.setdefault(hop.destination, level)
                    extended = path + (hop,)
                    if hop.destination == destination:
                        found.append(extended)
                    else:
                        next_frontier.append(extended)
            if found:
                return found
            frontier = next_frontier
        return []

    def direct_transfers(self) -> List[TransferHop]:
        """Every single-hop transfer the machine supports (Section II's
        "data transfers explicitly stated in the machine description")."""
        result: List[TransferHop] = []
        for storage in self._machine.storage_names():
            result.extend(self._neighbours[storage])
        return result
