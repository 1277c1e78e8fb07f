"""Register-requirement tracking during covering (paper, Section IV-D).

"The available resources are determined by performing a liveness
analysis on the selected nodes and maintaining a running upper bound on
the number of required registers for each register bank."

A *delivery* is a task writing a value into a register file; the value
occupies one register from the cycle the delivery executes until the
cycle its last consumer executes (consumers read before writes take
effect, so a register freed in a cycle may be re-filled in the same
cycle).  :class:`PressureTracker` maintains, per bank, the set of live
deliveries and their still-uncovered consumers, and answers whether a
candidate clique — an int mask of task ids — keeps every bank within
capacity.

Because the tracker enforces ``occupancy <= bank size`` after every
scheduled instruction, live ranges form an interval graph whose maximum
clique is within capacity — which is why detailed register allocation
afterwards can never fail (Section IV-F).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.covering.taskgraph import TaskGraph
from repro.isdl.model import Machine
from repro.utils.bitset import mask_of, popcount


class PressureTracker:
    """Running per-bank liveness upper bounds over a covering in progress."""

    def __init__(self, graph: TaskGraph):
        self.graph = graph
        self.machine: Machine = graph.machine
        self._bank_sizes: Dict[str, int] = {
            rf.name: rf.size for rf in self.machine.register_files
        }
        #: bank -> {delivery task id -> set of uncovered consumer ids}
        self.live: Dict[str, Dict[int, Set[int]]] = {
            name: {} for name in self._bank_sizes
        }
        #: highest occupancy ever reached, per bank (register estimate).
        self.peak: Dict[str, int] = {name: 0 for name in self._bank_sizes}
        self._covered: Set[int] = set()
        #: dead deliveries (no consumers): they occupy a register until
        #: their result has been written (``latency`` cycles after
        #: issue) and then free automatically.  Maps delivery id to the
        #: remaining commits before release.
        self._transient: Dict[int, int] = {}
        self.dest_masks: Dict[str, int] = _dest_masks(graph)
        #: the per-cycle view :meth:`_over` reads; ``None`` once stale.
        self._view: Optional[List[Tuple[str, int, int, List[int]]]] = None

    # -- queries -----------------------------------------------------------

    def occupancy(self, bank: str) -> int:
        """Values currently live in ``bank``."""
        return len(self.live[bank])

    def capacity(self, bank: str) -> int:
        """Register count of ``bank``."""
        return self._bank_sizes[bank]

    def banks(self) -> List[str]:
        """Names of all tracked register banks."""
        return list(self._bank_sizes)

    def live_deliveries(self, bank: str) -> List[int]:
        """Deliveries currently occupying ``bank`` (sorted)."""
        return sorted(self.live[bank])

    def pending_consumers(self, delivery_id: int) -> Set[int]:
        """Uncovered consumers still needing this delivery."""
        bank = self.graph.tasks[delivery_id].dest_storage
        return set(self.live[bank].get(delivery_id, ()))

    def feasible(self, clique: int) -> bool:
        """Would scheduling the ``clique`` mask keep every bank within
        capacity?"""
        for _ in self._over(clique):
            return False
        return True

    def blocked_banks(self, clique: int) -> List[str]:
        """Banks whose capacity the ``clique`` mask would exceed."""
        return list(self._over(clique))

    def _over(self, clique: int) -> Iterator[str]:
        """The banks ``clique`` overfills, in bank order.

        A bank overflows when its occupancy, less the values the clique
        frees, plus the clique's deliveries into it, exceeds its size.
        A live value frees when its write lands this cycle (a dead
        transient) or when the clique holds every pending consumer of
        it (pinned values never free).
        """
        if self._view is None:
            self._view = self._cycle_view()
        for bank, excess, dest, frees in self._view:
            excess += popcount(clique & dest)
            if excess <= 0:
                continue
            for consumers in frees:
                if not consumers & ~clique:
                    excess -= 1
            if excess > 0:
                yield bank

    def _cycle_view(self) -> List[Tuple[str, int, int, List[int]]]:
        """Per bank, in bank order: occupancy minus capacity minus the
        transients that free this cycle, the mask of tasks delivering
        into the bank, and the consumer mask of each live value that
        frees once its consumers are all scheduled."""
        view = []
        for bank, occupants in self.live.items():
            excess = len(occupants) - self._bank_sizes[bank]
            frees = []
            for delivery_id, consumers in occupants.items():
                if delivery_id in self._transient:
                    if self._transient[delivery_id] <= 1:
                        excess -= 1  # dead value's write lands this cycle
                elif consumers and delivery_id not in self.graph.pinned:
                    frees.append(mask_of(consumers))
            view.append((bank, excess, self.dest_masks.get(bank, 0), frees))
        return view

    # -- state transitions ---------------------------------------------------

    def commit(self, clique: Iterable[int]) -> None:
        """Record that the clique's tasks executed (one instruction)."""
        self._view = None
        members = set(clique)
        self._covered |= members
        for bank, occupants in self.live.items():
            for delivery_id in list(occupants):
                if delivery_id in self._transient:
                    self._transient[delivery_id] -= 1
                    if self._transient[delivery_id] <= 0:
                        del occupants[delivery_id]
                        del self._transient[delivery_id]
                    continue
                occupants[delivery_id] -= members
                if (
                    not occupants[delivery_id]
                    and delivery_id not in self.graph.pinned
                ):
                    del occupants[delivery_id]
        for task_id in sorted(members):
            task = self.graph.tasks[task_id]
            bank = task.dest_storage
            if bank not in self.live:
                continue  # destination is a memory: no register pressure
            consumers = {
                c
                for c in self.graph.consumers_of(task_id)
                if c not in self._covered
            }
            if consumers or task_id in self.graph.pinned:
                self.live[bank][task_id] = consumers
            else:
                # Dead result: physically written ``latency`` cycles
                # after issue, reusable once the write has landed.
                self.live[bank][task_id] = set()
                self._transient[task_id] = self.graph.latency(task_id)
        for bank in self.live:
            self.peak[bank] = max(self.peak[bank], len(self.live[bank]))

    def rebuild(self, covered_cliques: List[List[int]]) -> None:
        """Recompute state from scratch after the task graph mutated
        (spill insertion rewires consumers)."""
        self.dest_masks = _dest_masks(self.graph)
        self.live = {name: {} for name in self._bank_sizes}
        self._covered = set()
        self._transient = {}
        saved_peak = dict(self.peak)
        self.peak = {name: 0 for name in self._bank_sizes}
        for clique in covered_cliques:
            self.commit([t for t in clique if t in self.graph.tasks])
        for bank in self.peak:
            self.peak[bank] = max(self.peak[bank], saved_peak[bank])

    def register_estimate(self) -> Dict[str, int]:
        """Peak simultaneous values per bank — the engine's estimate of
        register requirements (paper, Section III-A)."""
        return dict(self.peak)


def _dest_masks(graph: TaskGraph) -> Dict[str, int]:
    """Per-storage mask of the tasks delivering into it."""
    masks: Dict[str, int] = {}
    for task_id, task in graph.tasks.items():
        if task.dest_storage is not None:
            masks[task.dest_storage] = (
                masks.get(task.dest_storage, 0) | (1 << task_id)
            )
    return masks
