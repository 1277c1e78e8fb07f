"""Greedy minimum-cost clique covering with scheduling (paper, IV-D).

The covering loop repeatedly selects the clique that covers the largest
number of remaining uncovered *ready* tasks (tasks whose children have
all been covered — so a schedule falls out of the selection order) whose
register requirements stay within the per-bank liveness upper bound.
Ties are broken by a lookahead estimate of the number of cliques still
needed.  When no clique is register-feasible, a covered value is chosen
for spilling — based on the most-needed bank and the number of reloads
the spill will cause — the task graph is augmented with load/spill
transfers (Fig. 9), and the maximal cliques are regenerated.

Cliques, ready/admissible sets, and parallelism rows are integer
bitmasks, and clique lists carry no order (every selection key is unique
per mask).  State lives across the whole cover and is kept current
rather than rebuilt per decision: the ready set, the lookahead tables
(:class:`_Lookahead`) and the remaining-work floor are updated per
committed clique and recounted after a spill; the register tracker
answers feasibility on masks from one view per cycle; and after a spill
only the cliques whose members touch the rewired subgraph are
re-enumerated (:class:`_MaskCliqueCache`).  The straightforward loop
this one was derived from — ready set recomputed every cycle, every
clique rebuilt after a spill, feasibility over member sets — is kept as
a test-only differential oracle (``tests/reference_kernel.py``); the
``hotpath`` tests check that both make the same decision at every step.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import CoverageError
from repro.covering.cliques import (
    _enumerate_clique_masks,
    generate_maximal_clique_masks,
    legalize_clique_masks,
)
from repro.covering.config import HeuristicConfig
from repro.covering.parallelism import parallelism_masks
from repro.covering.pressure import PressureTracker
from repro.covering.taskgraph import TaskGraph, TaskKind
from repro.telemetry.session import current as _telemetry
from repro.utils.bitset import bits, iter_bits, mask_of, popcount


@dataclass
class CoverResult:
    """Outcome of covering one assignment."""

    schedule: List[List[int]]
    register_estimate: Dict[str, int]
    spill_count: int
    reload_count: int

    @property
    def instruction_count(self) -> int:
        """Number of VLIW words in the covering (code size)."""
        return len(self.schedule)


@dataclass
class CoverStats:
    """Per-call covering-loop statistics, accumulated in the loop and
    flushed to telemetry counters once when the call exits."""

    iterations: int = 0
    stall_nops: int = 0
    subset_fallbacks: int = 0
    lookahead_ties: int = 0
    spill_rounds: int = 0


#: Losing cliques kept per ``cover.step`` journal entry; the rest are
#: counted in ``alternatives_dropped`` so journals stay bounded.
_STEP_ALTERNATIVES_CAP = 16


def _journal_step(
    jr,
    graph: TaskGraph,
    uncovered: Set[int],
    now: int,
    chosen: List[int],
    feasible: List[List[int]],
    top: List[List[int]],
    tie: bool,
    via_subset: bool,
) -> None:
    """Record one clique-selection decision (paper IV-D).

    ``chosen``/``feasible``/``top`` arrive as sorted member-id lists, so
    the journal does not depend on how the loop represents cliques.  The
    lookahead estimates are recomputed here for *every* candidate — the
    selection itself only computes them on a top-size tie — so the entry
    can always say what the tie-break saw (or would have seen).
    """
    estimate = _Lookahead(graph, uncovered).estimate
    top_keys = {tuple(c) for c in top}
    losers = sorted(
        (c for c in feasible if c != chosen), key=lambda c: (-len(c), c)
    )
    dropped = max(0, len(losers) - _STEP_ALTERNATIVES_CAP)
    losers = losers[:_STEP_ALTERNATIVES_CAP]
    jr.emit(
        "cover.step",
        cycle=now,
        chosen={
            "members": chosen,
            "size": len(chosen),
            "lookahead": estimate(chosen),
        },
        alternatives=[
            {
                "members": c,
                "size": len(c),
                "lookahead": estimate(c),
                "top_tie": tuple(c) in top_keys,
            }
            for c in losers
        ],
        alternatives_dropped=dropped,
        tie_break="lookahead" if tie else "first",
        via_subset=via_subset,
    )


class _Lookahead:
    """The lookahead estimate of cliques still needed (paper IV-D's
    tie-break), kept current over one cover.

    The estimate for a candidate ``c`` is, over ``uncovered - c``, the
    busiest resource's task count or the longest dependence chain,
    whichever is larger.  Two tables make each candidate O(|c| + number
    of resources):

    - the per-resource task counts of the uncovered set;
    - for each uncovered task, its height: the longest chain of
      uncovered consumers above it (itself included), plus the number of
      uncovered tasks at each height.

    Every candidate member is ready, so it has no uncovered dependency:
    it can only sit at the bottom of a chain, and removing it shortens
    no chain above any other task.  So the heights stay exact when a
    clique of ready tasks commits — :meth:`commit` only takes its
    members out of the counts — and only a spill, which rewires the
    graph, needs :meth:`recount`.  A task of height h > 1 has an
    uncovered consumer of height h - 1, so the occupied heights run
    from 1 to the top without a gap; the longest chain left is the
    highest height ``c`` does not empty, found within |c| + 1 steps
    down from the top.  The empty candidate scores the whole uncovered
    set.
    """

    def __init__(self, graph: TaskGraph, uncovered: Set[int]) -> None:
        self.graph = graph
        self.recount(graph, uncovered)

    def recount(self, graph: TaskGraph, uncovered: Set[int]) -> None:
        """Build both tables over ``uncovered`` from scratch."""
        self.counts: Dict[str, int] = {}
        below: Dict[int, List[int]] = {}
        #: uncovered consumers of each task whose height is not final yet
        waiting = {task_id: 0 for task_id in uncovered}
        for task_id in uncovered:
            task = graph.tasks[task_id]
            self.counts[task.resource] = self.counts.get(task.resource, 0) + 1
            below[task_id] = [
                d for d in task.dependencies() if d in uncovered
            ]
            for dependency in below[task_id]:
                waiting[dependency] += 1
        # Top-down: a task's height is final once all its consumers'
        # are, and then raises each of its dependencies'.
        self.height = {task_id: 1 for task_id in uncovered}
        final = [task_id for task_id, count in waiting.items() if not count]
        while final:
            task_id = final.pop()
            for dependency in below[task_id]:
                self.height[dependency] = max(
                    self.height[dependency], self.height[task_id] + 1
                )
                waiting[dependency] -= 1
                if not waiting[dependency]:
                    final.append(dependency)
        self.top = max(self.height.values(), default=0)
        #: uncovered tasks per height, index 0 unused
        self.level = [0] * (self.top + 1)
        for height in self.height.values():
            self.level[height] += 1

    def commit(self, members: List[int]) -> None:
        """Drop a committed clique of ready tasks from both tables."""
        for task_id in members:
            self.counts[self.graph.tasks[task_id].resource] -= 1
            self.level[self.height.pop(task_id)] -= 1
        while self.top and not self.level[self.top]:
            self.top -= 1

    def estimate(self, members: List[int]) -> int:
        """Estimate for ``uncovered - members``; every member must be
        an uncovered task with no uncovered dependency."""
        removed: Dict[str, int] = {}
        emptied: Dict[int, int] = {}
        for task_id in members:
            resource = self.graph.tasks[task_id].resource
            removed[resource] = removed.get(resource, 0) + 1
            height = self.height[task_id]
            emptied[height] = emptied.get(height, 0) + 1
        bound = 0
        for resource, count in self.counts.items():
            count -= removed.get(resource, 0)
            if count > bound:
                bound = count
        height = self.top
        while height and self.level[height] == emptied.get(height, 0):
            height -= 1
        return max(bound, height)


def _feasible_subset(tracker: PressureTracker, clique: int) -> int:
    """Largest-effort feasible subset: greedily keep members (ascending
    id) while the subset stays within every bank's capacity."""
    subset = 0
    rest = clique
    while rest:
        low = rest & -rest
        if tracker.feasible(subset | low):
            subset |= low
        rest ^= low
    return subset


def _choose_spill_victim(
    graph: TaskGraph,
    tracker: PressureTracker,
    candidates: List[int],
    covered: Set[int],
    ready: Optional[Set[int]] = None,
    protected: Optional[Set[int]] = None,
    focus_bank: Optional[str] = None,
    explain: Optional[List[Dict[str, object]]] = None,
) -> int:
    """Pick the delivery to spill (paper IV-D): most-needed bank first,
    then — Belady-style — the value whose next use is *farthest* away
    (measured in uncovered prerequisite tasks of its nearest consumer),
    breaking ties toward the fewest reloads, the paper's criterion.
    ``candidates`` are the cycle's distinct candidate clique masks.

    Values read by the focused consumer's own dependency subtree
    (``protected``) are only spilled when nothing else is available, and
    values whose every consumer is already schedulable come last: their
    registers free on their own as soon as the consumers run.
    """
    bank_pressure: Dict[str, int] = {}
    for clique in candidates:
        for bank in tracker.blocked_banks(clique):
            bank_pressure[bank] = bank_pressure.get(bank, 0) + 1
    if not bank_pressure:
        # Nothing schedulable at all and no blocked bank: every bank at
        # capacity with pinned/live values; fall back to fullest bank.
        for bank in tracker.banks():
            bank_pressure[bank] = tracker.occupancy(bank)
    ordered_banks = sorted(
        bank_pressure, key=lambda b: (-bank_pressure[b], b)
    )
    if focus_bank is not None:
        # Relieve the bank the focused consumer is blocked on first —
        # spilling elsewhere cannot unblock it.
        ordered_banks = [focus_bank] + [
            b for b in ordered_banks if b != focus_bank
        ]
    for bank in ordered_banks:
        victims = [
            d
            for d in tracker.live_deliveries(bank)
            if d not in graph.pinned and tracker.pending_consumers(d)
        ]
        if victims:

            def next_use_distance(delivery: int) -> int:
                pending = tracker.pending_consumers(delivery)
                return min(
                    (
                        len(_uncovered_ancestors(graph, c, covered)) - 1
                        for c in pending
                        if c in graph.tasks
                    ),
                    default=0,
                )

            def rank(delivery: int):
                pending = tracker.pending_consumers(delivery)
                future = [
                    c
                    for c in pending
                    if ready is None or c not in ready
                ]
                shielded = protected is not None and delivery in protected
                return (
                    1 if shielded else 0,
                    0 if future else 1,
                    -next_use_distance(delivery),
                    len(future) if future else len(pending),
                    delivery,
                )

            if explain is not None:
                # Journal the full ranking of the bank that decided the
                # spill, smallest rank tuple (= chosen victim) first.
                for delivery in sorted(victims, key=rank):
                    score = rank(delivery)
                    explain.append(
                        {
                            "delivery": delivery,
                            "bank": bank,
                            "shielded": bool(score[0]),
                            "all_consumers_ready": bool(score[1]),
                            "next_use_distance": -score[2],
                            "pending_consumers": score[3],
                        }
                    )
            return min(victims, key=rank)
    raise CoverageError(
        "register files exhausted but no spillable value exists "
        "(all live values pinned); the block cannot be covered"
    )


def _uncovered_ancestors(
    graph: TaskGraph, task_id: int, covered: Set[int]
) -> Set[int]:
    """``task_id`` plus every uncovered task it transitively depends on."""
    result: Set[int] = set()
    stack = [task_id]
    while stack:
        current = stack.pop()
        if current in result or current in covered:
            continue
        result.add(current)
        stack.extend(
            d
            for d in graph.tasks[current].dependencies()
            if d not in covered
        )
    return result


def _pick_focus(
    graph: TaskGraph,
    tracker: PressureTracker,
    bank: str,
    covered: Set[int],
) -> Optional[int]:
    """The blocked consumer to drive to completion: a pending consumer
    of the congested bank with the fewest uncovered prerequisites."""
    consumers: Set[int] = set()
    for delivery in tracker.live_deliveries(bank):
        consumers |= tracker.pending_consumers(delivery)
    consumers = {c for c in consumers if c in graph.tasks}
    if not consumers:
        return None
    return min(
        consumers,
        key=lambda c: (len(_uncovered_ancestors(graph, c, covered)), c),
    )


def _pick_spill(
    graph: TaskGraph,
    tracker: PressureTracker,
    candidates: List[int],
    covered: Set[int],
    ready: Set[int],
    stuck_strategy: str,
    explain: Optional[List[Dict[str, object]]] = None,
) -> Tuple[int, Optional[int], str]:
    """One register-starvation decision (paper Fig. 9): pick the focus
    consumer, the bank to relieve, and the delivery to spill.

    Returns ``(victim, focus, focus_bank)``.
    """
    blocked = sorted(
        {b for c in candidates for b in tracker.blocked_banks(c)}
    )
    # Re-pick the focus at every stuck event: as the covering makes
    # partial progress, the nearest-to-ready blocked consumer changes
    # (it climbs the dependency subtree bottom-up), and protecting an
    # outdated focus's operands is what causes reload ping-pong.
    #
    # The sharpest signal is a READY task that is individually
    # infeasible: the bank refusing its arrival is exactly the one to
    # relieve, so drive that task and spill there.  Only when no such
    # task exists fall back to the nearest blocked consumer of the
    # most-contended bank.
    ready_infeasible = sorted(
        t for t in ready if not tracker.feasible(1 << t)
    ) if stuck_strategy == "arrival" else []
    if ready_infeasible:

        def enables_soonest(task_id: int) -> tuple:
            # Prefer the blocked task whose own consumers are
            # nearest to executable — its delivery directly enables
            # the next operation rather than parking a value.
            consumer_distance = min(
                (
                    len(_uncovered_ancestors(graph, c, covered))
                    for c in graph.consumers_of(task_id)
                    if c in graph.tasks
                ),
                default=len(graph.tasks),
            )
            return (consumer_distance, task_id)

        focus = min(ready_infeasible, key=enables_soonest)
        focus_blocked = tracker.blocked_banks(1 << focus)
        focus_bank = (
            focus_blocked[0]
            if focus_blocked
            else graph.tasks[focus].dest_storage
        )
    else:
        focus_bank = blocked[0] if blocked else max(
            tracker.banks(), key=lambda b: tracker.occupancy(b)
        )
        focus = _pick_focus(graph, tracker, focus_bank, covered)
    protected: Set[int] = set()
    if focus is not None:
        for member in _uncovered_ancestors(graph, focus, covered):
            for read in graph.tasks[member].reads:
                if read.producer is not None:
                    protected.add(read.producer)
    relieve = None
    if focus is not None and (not blocked or focus_bank in blocked):
        relieve = focus_bank
    victim = _choose_spill_victim(
        graph, tracker, candidates, covered, ready, protected, relieve, explain
    )
    return victim, focus, focus_bank


def cover_assignment(
    graph: TaskGraph,
    config: Optional[HeuristicConfig] = None,
    bound: Optional[int] = None,
    stuck_strategy: str = "consumer",
) -> Optional[CoverResult]:
    """Cover (and thereby schedule) every task of ``graph``.

    Args:
        graph: the assignment's task graph; mutated if spills are needed.
        config: heuristic settings.
        bound: branch-and-bound cut-off — return ``None`` as soon as the
            schedule so far plus a lower bound on the cycles its
            uncovered tasks still need (:class:`_RemainingWork`) reaches
            this length (a solution at least as good is known).
        stuck_strategy: how a register-starved state picks its focus:
            ``"consumer"`` drives the blocked consumer nearest to ready
            (default); ``"arrival"`` drives the ready-but-infeasible
            delivery whose consumers are nearest to executable.  The
            engine retries a starved assignment with the other strategy,
            so between them pathological reload churn is broken from
            both directions.

    Returns:
        A :class:`CoverResult`, or ``None`` when pruned by ``bound``.
    """
    config = config or HeuristicConfig.default()
    tm = _telemetry()
    with tm.span("covering.cover", detail=stuck_strategy, category="covering"):
        # Search statistics live in a per-call CoverStats and are flushed
        # from the local in the ``finally`` below: the loop has several
        # exit paths (done, bound prune, starvation) and all of them must
        # report, while a module-level global would be clobbered by
        # nested or retried coverings.
        stats = CoverStats()
        try:
            result = _cover_loop_masks(
                graph, config, bound, stuck_strategy, stats
            )
        finally:
            tm.count("cover.calls", 1)
            tm.count("cover.iterations", stats.iterations)
            tm.count("cover.stall_nops", stats.stall_nops)
            tm.count("cover.subset_fallbacks", stats.subset_fallbacks)
            tm.count("cover.lookahead_ties", stats.lookahead_ties)
            tm.count("cover.spill_rounds", stats.spill_rounds)
        if result is None:
            tm.count("cover.bound_prunes", 1)
        return result


class _MaskCliqueCache:
    """Legal clique masks over the current uncovered set, rebuilt
    incrementally after spills.  ``raw`` and ``legal`` hold distinct
    masks in no promised order: the loop's selection keys are unique per
    mask, so no decision reads the order.

    After :meth:`rebuild`, only cliques whose members *touch* the
    rewired subgraph are re-enumerated.  Touched means the task's
    parallelism row changed (or the task is new/gone): an old maximal
    clique all of whose members kept their exact row is still maximal
    (its candidate mask — the AND of its members' rows — is unchanged,
    hence still empty), and conversely any maximal clique of the new
    graph lying entirely in untouched tasks has an identical
    clique/candidate structure in the old graph, so it is already in the
    cached list.  Cliques intersecting the touched set are re-found by
    the restricted enumeration (see ``_enumerate_clique_masks``).

    Budget semantics stay exact by construction: the incremental path is
    only trusted when the *total* clique count stays strictly below
    ``max_cliques`` (where a full enumeration can never trip); in any
    other case — previous build tripped, restricted run tripped, or the
    merged total reaches the budget — it falls back to a full
    enumeration with its trip/top-up behavior.
    """

    def __init__(self) -> None:
        self.rows: Dict[int, int] = {}
        self.raw: List[int] = []
        self.tripped = False
        self.legal: List[int] = []

    def build(
        self, graph: TaskGraph, task_ids: List[int], config: HeuristicConfig
    ) -> None:
        """Full enumeration (initial build, or incremental fallback)."""
        self.rows = parallelism_masks(
            graph, task_ids, level_window=config.level_window
        )
        self.raw = generate_maximal_clique_masks(
            self.rows, config.max_cliques
        )
        self.tripped = (
            config.max_cliques is not None
            and len(self.raw) >= config.max_cliques
        )
        self.legal = legalize_clique_masks(graph, self.raw, graph.machine)

    def rebuild(
        self, graph: TaskGraph, task_ids: List[int], config: HeuristicConfig
    ) -> None:
        """Post-spill rebuild, incremental where provably exact."""
        if self.tripped:
            self.build(graph, task_ids, config)
            return
        new_rows = parallelism_masks(
            graph, task_ids, level_window=config.level_window
        )
        old_rows = self.rows
        untouched = 0
        touched = 0
        for task_id in task_ids:
            if old_rows.get(task_id) == new_rows[task_id]:
                untouched |= 1 << task_id
            else:
                touched |= 1 << task_id
        kept = [c for c in self.raw if not c & ~untouched]
        if touched:
            budget = None
            if config.max_cliques is not None:
                budget = config.max_cliques - len(kept)
            if budget is not None and budget <= 0:
                self.build(graph, task_ids, config)
                return
            fresh, tripped, _ = _enumerate_clique_masks(
                new_rows, budget, restrict=touched
            )
            if tripped or (
                config.max_cliques is not None
                and len(kept) + len(fresh) >= config.max_cliques
            ):
                self.build(graph, task_ids, config)
                return
        else:
            fresh = set()
        merged = kept + list(fresh)
        self.rows = new_rows
        self.raw = merged
        self.tripped = False
        self.legal = legalize_clique_masks(graph, merged, graph.machine)
        tm = _telemetry()
        if tm.enabled:
            tm.count("cover.incremental_rebuilds", 1)
            tm.count("cliques.mask_kernel_calls", 1)
            tm.count("cliques.enumerated", len(fresh))
            tm.record("cliques.incremental_kept", len(kept))


class _ReadyState:
    """Incremental ready-set bookkeeping.

    ``ready_mask`` holds the tasks whose dependencies are all covered
    *and* complete (multi-cycle latencies included).  Tasks whose last
    dependency was just covered wait in an arrival heap until their
    latest operand's completion cycle, instead of a full rescan per
    iteration.  After a spill rewires the graph the
    whole state is rebuilt (spills are rare; rewiring invalidates
    dependency counts wholesale).
    """

    def __init__(
        self,
        graph: TaskGraph,
        covered: Set[int],
        issue_cycle: Dict[int, int],
        now: int,
    ) -> None:
        self.reset(graph, covered, issue_cycle, now)

    def reset(
        self,
        graph: TaskGraph,
        covered: Set[int],
        issue_cycle: Dict[int, int],
        now: int,
    ) -> None:
        self.ready_mask = 0
        self.waiting: List[Tuple[int, int]] = []  # (ready_at, task) heap
        #: consumers of each *uncovered* producer, for dep countdown.
        self.consumers: Dict[int, List[int]] = {}
        self.deps: Dict[int, Set[int]] = {}
        self.unmet: Dict[int, int] = {}
        for task_id, task in graph.tasks.items():
            if task_id in covered:
                continue
            dep_set = set(task.dependencies())
            self.deps[task_id] = dep_set
            unmet = 0
            for dependency in dep_set:
                if dependency not in covered:
                    unmet += 1
                    self.consumers.setdefault(dependency, []).append(task_id)
            self.unmet[task_id] = unmet
            if unmet == 0:
                self._arm(graph, task_id, issue_cycle, now)

    def _arm(
        self,
        graph: TaskGraph,
        task_id: int,
        issue_cycle: Dict[int, int],
        now: int,
    ) -> None:
        ready_at = 0
        for dependency in self.deps[task_id]:
            done = issue_cycle[dependency] + graph.latency(dependency)
            if done > ready_at:
                ready_at = done
        if ready_at <= now:
            self.ready_mask |= 1 << task_id
        else:
            heapq.heappush(self.waiting, (ready_at, task_id))

    def advance(self, now: int) -> None:
        """Promote arrivals whose latest operand completed by ``now``."""
        while self.waiting and self.waiting[0][0] <= now:
            _, task_id = heapq.heappop(self.waiting)
            self.ready_mask |= 1 << task_id

    def commit(
        self,
        graph: TaskGraph,
        chosen: int,
        issue_cycle: Dict[int, int],
        now: int,
    ) -> None:
        """Mark the clique's members covered; arm freed consumers."""
        self.ready_mask &= ~chosen
        for member in iter_bits(chosen):
            for consumer in self.consumers.get(member, ()):
                self.unmet[consumer] -= 1
                if self.unmet[consumer] == 0:
                    self._arm(graph, consumer, issue_cycle, now)


class _RemainingWork:
    """A floor on the cycles the uncovered tasks still need: the busiest
    functional unit's uncovered OP tasks, or ⌈uncovered XFER tasks / bus
    count⌉, whichever is larger.  Kept current as cliques commit and
    recounted after each spill.

    It is a sound branch-and-bound floor — no later schedule of the same
    cover finishes in fewer cycles than ``len(schedule)`` plus it, spills
    included:

    - A cycle's tasks form one clique, and clique members never share a
      resource, so a unit issues at most one OP task per cycle and an
      XFER holds its bus for one cycle.
    - OP tasks are fixed by the assignment: ``TaskGraph.spill_delivery``
      adds and removes only XFER tasks.
    - A spill does not lower the XFER count.  It adds at least one
      spill hop, rewrites store and earlier-spill consumers in place,
      and replaces each removed pending transfer with a reload into the
      same storage, so the count could fall only if a delivery's
      pending transfers outnumbered their distinct destinations by two
      or more (e.g. three into one storage sharing one reload).  The
      soundness test in ``tests/test_cover_floor.py`` checks that no
      spill of its sweep (corpus, examples × machines, paper and
      hot-path blocks) lowers the count.
    """

    def __init__(self, graph: TaskGraph, uncovered: Set[int]) -> None:
        # A machine without buses has no XFER tasks to divide.
        self.buses = len(graph.machine.buses) or 1
        self.recount(graph, uncovered)

    def recount(self, graph: TaskGraph, uncovered: Set[int]) -> None:
        """Count ``uncovered`` from scratch."""
        #: uncovered OP tasks per functional unit
        self.ops: Dict[str, int] = {}
        self.xfers = 0
        for task_id in uncovered:
            task = graph.tasks[task_id]
            if task.kind is TaskKind.OP:
                self.ops[task.resource] = self.ops.get(task.resource, 0) + 1
            else:
                self.xfers += 1

    def commit(self, graph: TaskGraph, members: List[int]) -> None:
        """Drop a committed clique's members from the counts."""
        for task_id in members:
            task = graph.tasks[task_id]
            if task.kind is TaskKind.OP:
                self.ops[task.resource] -= 1
            else:
                self.xfers -= 1

    def cycles(self) -> int:
        """The fewest cycles the uncovered tasks can still take."""
        return max(
            max(self.ops.values(), default=0), -(-self.xfers // self.buses)
        )


def _cover_loop_masks(
    graph: TaskGraph,
    config: HeuristicConfig,
    bound: Optional[int],
    stuck_strategy: str,
    stats: CoverStats,
) -> Optional[CoverResult]:
    """The covering loop, with cliques and ready/admissible sets as
    ints, incremental ready maintenance, and incremental post-spill
    clique rebuilds.

    Under a ``bound`` it gives up as soon as the schedule so far plus
    the :class:`_RemainingWork` floor reaches the bound: before any
    clique is built, and at the top of every cycle."""
    jr = _telemetry().journal
    tracker = PressureTracker(graph)
    covered: Set[int] = set()
    schedule: List[List[int]] = []
    issue_cycle: Dict[int, int] = {}
    uncovered = set(graph.task_ids())
    uncovered_mask = mask_of(uncovered)
    remaining = _RemainingWork(graph, uncovered)
    if bound is not None and remaining.cycles() >= bound:
        return None
    lookahead = _Lookahead(graph, uncovered)
    cache = _MaskCliqueCache()
    cache.build(graph, sorted(uncovered), config)
    state = _ReadyState(graph, covered, issue_cycle, 0)
    spills_done = 0
    focus: Optional[int] = None
    focus_bank: str = ""

    while uncovered_mask:
        stats.iterations += 1
        if bound is not None and len(schedule) + remaining.cycles() >= bound:
            return None
        now = len(schedule)
        state.advance(now)
        ready_mask = state.ready_mask
        if not ready_mask:
            # Results still in flight (multi-cycle ops): stall one cycle.
            # A non-empty arrival heap is exactly that; otherwise scan,
            # which also stalls for in-flight operands of tasks with
            # *other* unmet deps.
            pending_latency = bool(state.waiting) or any(
                issue_cycle[d] + graph.latency(d) > now
                for t in iter_bits(uncovered_mask)
                for d in graph.tasks[t].dependencies()
                if d in covered
            )
            if pending_latency:
                stats.stall_nops += 1
                if jr.enabled:
                    jr.emit("cover.stall", cycle=now)
                schedule.append([])  # an explicit NOP word
                continue
            raise CoverageError("no ready task but tasks remain (cycle?)")
        if focus is not None and (
            focus in covered or focus not in graph.tasks
        ):
            focus = None  # the focused consumer executed (or was rewired)
        admissible_mask = ready_mask
        if focus is not None:
            allowed = mask_of(_uncovered_ancestors(graph, focus, covered))
            admissible_mask = ready_mask & (
                ~tracker.dest_masks.get(focus_bank, 0) | allowed
            )
            if not admissible_mask:
                admissible_mask = ready_mask  # nothing focusable; relax
        candidates: List[int] = []
        seen: Set[int] = set()
        for clique in cache.legal:
            shrunk = clique & admissible_mask
            if shrunk and shrunk not in seen:
                seen.add(shrunk)
                candidates.append(shrunk)
        feasible = [c for c in candidates if tracker.feasible(c)]
        via_subset = False
        if not feasible:
            subsets = {_feasible_subset(tracker, c) for c in candidates}
            feasible = [s for s in subsets if s]
            if feasible:
                stats.subset_fallbacks += 1
                via_subset = True
        if feasible:
            best_size = max(popcount(c) for c in feasible)
            top = [c for c in feasible if popcount(c) == best_size]
            tie = len(top) > 1 and config.lookahead
            if tie:
                stats.lookahead_ties += 1
                estimate = lookahead.estimate
                chosen = min(top, key=lambda c: (estimate(bits(c)), bits(c)))
            else:
                chosen = min(top, key=bits)
            chosen_ids = bits(chosen)
            if jr.enabled:
                _journal_step(
                    jr,
                    graph,
                    uncovered,
                    now,
                    list(chosen_ids),
                    [list(bits(c)) for c in feasible],
                    [list(bits(c)) for c in top],
                    tie,
                    via_subset,
                )
            tracker.commit(chosen_ids)
            remaining.commit(graph, chosen_ids)
            lookahead.commit(chosen_ids)
            covered.update(chosen_ids)
            uncovered.difference_update(chosen_ids)
            uncovered_mask &= ~chosen
            for task_id in chosen_ids:
                issue_cycle[task_id] = now
            state.commit(graph, chosen, issue_cycle, now)
            schedule.append(chosen_ids)
            continue
        # Spill path (paper Fig. 9).
        spills_done += 1
        stats.spill_rounds += 1
        if spills_done > config.max_spills:
            raise CoverageError(
                f"more than {config.max_spills} spills required; "
                f"register files are too small for this block"
            )
        ready = set(iter_bits(ready_mask))
        explain = [] if jr.enabled else None
        victim, focus, focus_bank = _pick_spill(
            graph, tracker, candidates, covered, ready, stuck_strategy,
            explain,
        )
        if jr.enabled:
            jr.emit(
                "cover.spill",
                cycle=now,
                victim=victim,
                victim_desc=graph.tasks[victim].describe(),
                focus=focus,
                focus_bank=focus_bank,
                candidates=explain,
            )
        graph.spill_delivery(victim, covered, ready=ready)
        uncovered = set(graph.task_ids()) - covered
        uncovered_mask = mask_of(uncovered)
        remaining.recount(graph, uncovered)
        lookahead.recount(graph, uncovered)
        tracker.rebuild(schedule)
        cache.rebuild(graph, sorted(uncovered), config)
        state.reset(graph, covered, issue_cycle, now)

    for delivery in sorted(graph.pinned):
        available = issue_cycle[delivery] + graph.latency(delivery)
        while len(schedule) < available:
            schedule.append([])
    if bound is not None and len(schedule) >= bound:
        return None  # completed, but no better than the known solution
    return CoverResult(
        schedule=schedule,
        register_estimate=tracker.register_estimate(),
        spill_count=graph.spill_count,
        reload_count=graph.reload_count,
    )

