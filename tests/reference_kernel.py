"""The reference covering kernel: a test-only differential oracle.

:mod:`repro.covering.cover` runs one covering loop, over integer
bitmasks, with an incremental ready set and incremental post-spill
clique rebuilds.  This module keeps the straightforward implementation
that loop was derived from, so tests can check that every decision
still matches it:

- :func:`parallelism_matrix` — the Fig. 7 conflict matrix, as lists;
- :func:`generate_maximal_cliques` — the Fig. 8 recursion as the paper
  writes it (greedy absorb, branching, the ``i < index`` prune);
- :func:`legalize_cliques` — IV-C.3 splitting plus the pairwise
  subsumption filter;
- :func:`blocked_banks` / :func:`feasible` — the register check over
  member sets, walking every bank's live values;
- :func:`cover_loop` — the IV-D loop that recomputes the ready set every
  cycle and rebuilds every clique after a spill.

:func:`reference_kernel` swaps :func:`cover_loop` in for the production
loop, so a whole compile (assignment exploration, spills, emission)
runs on the oracle; the ``reference_kernel`` pytest marker does the
same for one test.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import repro.covering.cliques as cliques
import repro.covering.cover as cover
from repro.covering.config import HeuristicConfig
from repro.covering.parallelism import task_levels
from repro.covering.pressure import PressureTracker
from repro.covering.taskgraph import TaskGraph
from repro.errors import CoverageError
from repro.isdl.model import Machine
from repro.telemetry.session import current as _telemetry
from repro.utils.bitset import mask_of
from repro.utils.graph import transitive_closure


@contextmanager
def reference_kernel() -> Iterator[None]:
    """Run every covering call inside the block on :func:`cover_loop`."""
    production = cover._cover_loop_masks
    cover._cover_loop_masks = cover_loop
    try:
        yield
    finally:
        cover._cover_loop_masks = production


#: (name, context) pairs for running a compile twice: on the production
#: covering loop, then on this oracle.
KERNELS = (("bitmask", nullcontext), ("reference", reference_kernel))


def parallelism_matrix(
    graph: TaskGraph,
    task_ids: Optional[List[int]] = None,
    level_window: Optional[int] = None,
) -> Tuple[List[List[int]], List[int]]:
    """Build the conflict matrix over ``task_ids`` (default: all tasks).

    Returns ``(matrix, index_to_task_id)``; ``matrix[i][j] == 0`` means
    the i-th and j-th tasks may share an instruction.  The diagonal is 1
    (a node is not "parallel with itself" — cliques add each node once).
    """
    if task_ids is None:
        task_ids = graph.task_ids()
    size = len(task_ids)
    matrix = [[0] * size for _ in range(size)]
    members = set(task_ids)
    adjacency = {
        t: [d for d in graph.tasks[t].dependencies() if d in members]
        for t in task_ids
    }
    descendants = transitive_closure(adjacency)
    if level_window is not None:
        from_top, from_bottom = task_levels(graph, task_ids)
    for i in range(size):
        matrix[i][i] = 1
        task_i = graph.tasks[task_ids[i]]
        for j in range(i + 1, size):
            task_j = graph.tasks[task_ids[j]]
            conflict = False
            if task_i.resource == task_j.resource:
                conflict = True
            elif (
                task_ids[j] in descendants[task_ids[i]]
                or task_ids[i] in descendants[task_ids[j]]
            ):
                conflict = True
            elif level_window is not None:
                if (
                    abs(from_top[task_ids[i]] - from_top[task_ids[j]])
                    > level_window
                    or abs(from_bottom[task_ids[i]] - from_bottom[task_ids[j]])
                    > level_window
                ):
                    conflict = True
            if conflict:
                matrix[i][j] = 1
                matrix[j][i] = 1
    return matrix, list(task_ids)


def generate_maximal_cliques(
    matrix: List[List[int]], max_cliques: Optional[int] = None
) -> List[FrozenSet[int]]:
    """All maximal cliques of the parallelism graph (Fig. 8).

    ``matrix`` is the conflict matrix (0 = parallel).  Returns cliques as
    frozensets of *matrix indices*, ordered by size descending, then
    lexicographically.  When the ``max_cliques`` budget trips, the
    cliques found so far are returned, topped up with singletons for any
    node not yet covered.
    """
    size = len(matrix)
    parallel = [[cell == 0 for cell in row] for row in matrix]
    found: Set[FrozenSet[int]] = set()
    #: states already expanded, with the smallest ``index`` they were
    #: expanded under — a smaller index explores a superset of branches,
    #: so only strictly-smaller revisits re-expand.
    visited: Dict[FrozenSet[int], int] = {}
    index_prunes = 0
    revisit_skips = 0
    budget_trips = 0
    singleton_topups = 0

    def gen_max_clique(members: List[int], index: int) -> None:
        nonlocal index_prunes, revisit_skips
        state = frozenset(members)
        seen_index = visited.get(state)
        if seen_index is not None and seen_index <= index:
            revisit_skips += 1
            return
        if len(visited) < cliques._VISITED_LIMIT or state in visited:
            visited[state] = index
        while True:
            candidates = [
                node
                for node in range(size)
                if all(parallel[member][node] for member in members)
            ]
            if not candidates:
                if max_cliques is not None and len(found) >= max_cliques:
                    raise cliques._CliqueBudgetExceeded
                found.add(frozenset(members))
                return
            # First loop: absorb the lowest-numbered candidate that does
            # not preclude any other candidate (all-pairwise-parallel
            # within the candidate set).
            node = next(
                (
                    c
                    for c in candidates
                    if all(parallel[c][d] for d in candidates if d != c)
                ),
                None,
            )
            if node is not None:
                if node < index:
                    index_prunes += 1
                    return  # pruning condition (Fig. 8)
                members = members + [node]
                continue
            break
        # Second loop: branch on each remaining compatible node.
        for node in candidates:
            gen_max_clique(members + [node], max(node, index))

    try:
        for seed in range(size):
            gen_max_clique([seed], seed)
    except cliques._CliqueBudgetExceeded:
        budget_trips = 1
        covered = set().union(*found) if found else set()
        for node in range(size):
            if node not in covered:
                found.add(frozenset({node}))
                singleton_topups += 1
    tm = _telemetry()
    if tm.enabled:
        tm.count("cliques.generation_calls", 1)
        tm.count("cliques.enumerated", len(found))
        tm.count("cliques.index_prunes", index_prunes)
        tm.count("cliques.revisit_skips", revisit_skips)
        tm.count("cliques.budget_trips", budget_trips)
        tm.count("cliques.singleton_topups", singleton_topups)
        tm.record("cliques.matrix_size", size)
    return sorted(found, key=lambda c: (-len(c), sorted(c)))


def legalize_cliques(
    graph: TaskGraph, candidates: Sequence[FrozenSet[int]], machine: Machine
) -> List[FrozenSet[int]]:
    """Split illegal cliques until every instruction meets the
    constraints (IV-C.3), dropping results subsumed by larger cliques.

    Raises :class:`CoverageError` when a task present in the input falls
    out of every legal clique.
    """
    if not machine.constraints:
        return list(candidates)
    jr = _telemetry().journal
    legal: Set[FrozenSet[int]] = set()
    work = list(candidates)
    seen: Set[FrozenSet[int]] = set()
    splits = 0
    while work:
        clique = work.pop()
        if clique in seen or not clique:
            continue
        seen.add(clique)
        violated = None
        culprit = None
        for constraint in machine.constraints:
            matches = cliques._violates(graph.tasks, clique, constraint)
            if matches:
                violated = matches
                culprit = constraint
                break
        if violated is None:
            legal.add(clique)
            continue
        # Break the violation: removing any node matching any term yields
        # a smaller clique; branch on each possibility.
        breakers = sorted({t for matched in violated for t in matched})
        splits += 1
        if jr.enabled:
            jr.emit(
                "clique.split",
                members=sorted(clique),
                constraint=str(culprit),
                breakers=breakers,
            )
        for task_id in breakers:
            work.append(clique - {task_id})
    # Drop cliques strictly contained in another legal clique.
    result = [c for c in legal if not any(c < other for other in legal)]
    tm = _telemetry()
    if tm.enabled:
        tm.count("cliques.illegal_split", splits)
        tm.count("cliques.subsumed_discarded", len(legal) - len(result))
    requested: Set[int] = set().union(*candidates) if candidates else set()
    covered: Set[int] = set().union(*result) if result else set()
    if requested - covered:
        cliques._raise_uncoverable(graph, machine, requested - covered)
    return sorted(result, key=lambda c: (-len(c), sorted(c)))


def blocked_banks(tracker: PressureTracker, members: Set[int]) -> List[str]:
    """Banks whose capacity scheduling ``members`` would exceed: per
    bank, occupancy minus the values freed this cycle (a dead value
    whose write lands, or a live unpinned value all of whose pending
    consumers are members) plus the members delivering into it."""
    graph = tracker.graph
    blocked = []
    for bank, occupants in tracker.live.items():
        freed = 0
        for delivery_id, consumers in occupants.items():
            if delivery_id in tracker._transient:
                if tracker._transient[delivery_id] <= 1:
                    freed += 1
            elif consumers and consumers.issubset(members):
                if delivery_id not in graph.pinned:
                    freed += 1
        arrivals = sum(
            1 for t in members if graph.tasks[t].dest_storage == bank
        )
        if len(occupants) - freed + arrivals > tracker.capacity(bank):
            blocked.append(bank)
    return blocked


def feasible(tracker: PressureTracker, members: Set[int]) -> bool:
    """Would scheduling ``members`` keep every bank within capacity?"""
    return not blocked_banks(tracker, members)


def feasible_subset(
    tracker: PressureTracker, clique: FrozenSet[int]
) -> FrozenSet[int]:
    """Greedily keep members (ascending id) while the subset stays
    feasible."""
    subset: Set[int] = set()
    for task_id in sorted(clique):
        if feasible(tracker, subset | {task_id}):
            subset.add(task_id)
    return frozenset(subset)


def build_cliques(
    graph: TaskGraph, task_ids: List[int], config: HeuristicConfig
) -> List[FrozenSet[int]]:
    """Maximal legal cliques over ``task_ids``, as task-id frozensets."""
    if not task_ids:
        return []
    matrix, index_map = parallelism_matrix(
        graph, task_ids, level_window=config.level_window
    )
    found = generate_maximal_cliques(matrix, config.max_cliques)
    as_tasks = [frozenset(index_map[i] for i in clique) for clique in found]
    return legalize_cliques(graph, as_tasks, graph.machine)


def cover_loop(
    graph: TaskGraph,
    config: HeuristicConfig,
    bound: Optional[int],
    stuck_strategy: str,
    stats: cover.CoverStats,
) -> Optional[cover.CoverResult]:
    """The reference covering loop: per-iteration ready recomputation,
    frozenset cliques, full clique rebuild after every spill.  Same
    signature and decisions as the production loop it stands in for."""
    jr = _telemetry().journal
    tracker = PressureTracker(graph)
    covered: Set[int] = set()
    schedule: List[List[int]] = []
    #: issue cycle of each covered task (for multi-cycle latencies).
    issue_cycle: Dict[int, int] = {}
    uncovered = set(graph.task_ids())
    # The production loop's branch-and-bound floor, at the same two
    # points: before any clique is built and at the top of every cycle.
    remaining = cover._RemainingWork(graph, uncovered)
    if bound is not None and remaining.cycles() >= bound:
        return None
    found = build_cliques(graph, sorted(uncovered), config)
    spills_done = 0
    focus: Optional[int] = None
    focus_bank: str = ""

    while uncovered:
        stats.iterations += 1
        if bound is not None and len(schedule) + remaining.cycles() >= bound:
            return None
        now = len(schedule)
        ready = {
            t
            for t in uncovered
            if all(
                d in covered and issue_cycle[d] + graph.latency(d) <= now
                for d in graph.tasks[t].dependencies()
            )
        }
        if not ready:
            # Results still in flight (multi-cycle ops): stall one cycle.
            pending_latency = any(
                issue_cycle[d] + graph.latency(d) > now
                for t in uncovered
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
        admissible = ready
        if focus is not None:
            # Reserve the congested bank for the focused consumer's own
            # dependency subtree.
            allowed = cover._uncovered_ancestors(graph, focus, covered)
            admissible = {
                t
                for t in ready
                if graph.tasks[t].dest_storage != focus_bank or t in allowed
            }
            if not admissible:
                admissible = ready  # nothing focusable is ready; relax
        candidates: List[FrozenSet[int]] = []
        seen: Set[FrozenSet[int]] = set()
        for clique in found:
            shrunk = frozenset(clique & admissible)
            if shrunk and shrunk not in seen:
                seen.add(shrunk)
                candidates.append(shrunk)
        allowed = [c for c in candidates if feasible(tracker, c)]
        via_subset = False
        if not allowed:
            # Try feasible subsets before resorting to a spill: a clique
            # may be blocked by one member only.
            subsets = {feasible_subset(tracker, c) for c in candidates}
            allowed = [s for s in subsets if s]
            if allowed:
                stats.subset_fallbacks += 1
                via_subset = True
        if allowed:
            best_size = max(len(c) for c in allowed)
            top = [c for c in allowed if len(c) == best_size]
            tie = len(top) > 1 and config.lookahead
            if tie:
                stats.lookahead_ties += 1
                estimate = cover._Lookahead(graph, uncovered).estimate
                chosen = min(
                    top, key=lambda c: (estimate(sorted(c)), sorted(c))
                )
            else:
                chosen = min(top, key=lambda c: sorted(c))
            if jr.enabled:
                cover._journal_step(
                    jr,
                    graph,
                    uncovered,
                    now,
                    sorted(chosen),
                    [sorted(c) for c in allowed],
                    [sorted(c) for c in top],
                    tie,
                    via_subset,
                )
            tracker.commit(chosen)
            remaining.commit(graph, sorted(chosen))
            covered |= chosen
            uncovered -= chosen
            for task_id in chosen:
                issue_cycle[task_id] = now
            schedule.append(sorted(chosen))
            continue
        # Spill path (paper Fig. 9).
        spills_done += 1
        stats.spill_rounds += 1
        if spills_done > config.max_spills:
            raise CoverageError(
                f"more than {config.max_spills} spills required; "
                f"register files are too small for this block"
            )
        explain = [] if jr.enabled else None
        victim, focus, focus_bank = cover._pick_spill(
            graph,
            tracker,
            [mask_of(c) for c in candidates],
            covered,
            ready,
            stuck_strategy,
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
        remaining.recount(graph, uncovered)
        tracker.rebuild(schedule)
        found = build_cliques(graph, sorted(uncovered), config)

    # A pinned value (branch condition) must have completed by the time
    # the control slot after the block body reads it.
    for delivery in sorted(graph.pinned):
        available = issue_cycle[delivery] + graph.latency(delivery)
        while len(schedule) < available:
            schedule.append([])
    if bound is not None and len(schedule) >= bound:
        return None  # completed, but no better than the known solution
    return cover.CoverResult(
        schedule=schedule,
        register_estimate=tracker.register_estimate(),
        spill_count=graph.spill_count,
        reload_count=graph.reload_count,
    )
