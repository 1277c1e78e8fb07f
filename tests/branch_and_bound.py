"""Branch-and-bound search for the minimum instruction count: a
test-only oracle.

:mod:`repro.optimal` proves minimal block lengths with a CDCL solver.
This module proves them a second, independent way, so
``tests/test_optimal_differential.py`` can check that the two agree
wherever both finish: a depth-first branch-and-bound over
(functional-unit assignment x schedule) with an admissible lower bound
(busiest resource / critical path), memoisation on covered-task sets,
and the heuristic engine's result as the initial upper bound.  The two
searches share only the assignment enumeration.

Scope notes:

- branching is over *shrunk maximal cliques* (plus greedy feasible
  subsets when register pressure blocks a full clique).  Augmenting an
  instruction with an extra ready task never hurts when registers are
  plentiful, so this preserves optimality for the unconstrained rows;
  under tight register files it is a very strong approximation.
- schedules requiring spills are not searched exactly; if no spill-free
  schedule exists under some assignment, that assignment contributes
  nothing (the paper notes the optimal solutions for its spill rows
  Ex6/Ex7 did not require spills).
- the search stops at ``node_budget`` expansions and reports whether the
  result is proven.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from repro.ir.dag import BlockDAG
from repro.isdl.model import Machine
from repro.covering.cliques import (
    generate_maximal_clique_masks,
    legalize_clique_masks,
)
from repro.covering.config import HeuristicConfig
from repro.covering.cover import _Lookahead
from repro.covering.parallelism import parallelism_masks
from repro.covering.engine import generate_block_solution
from repro.covering.taskgraph import TaskGraph
from repro.covering.assignment import explore_assignments
from repro.sndag.build import build_split_node_dag
from repro.utils.bitset import iter_bits
from repro.telemetry.clock import Stopwatch


@dataclass
class OptimalResult:
    """Outcome of the exact search.

    ``nodes_expanded`` against ``node_budget`` distinguishes a search
    that "timed out at 10" from one that timed out at 10M — gap reports
    need that context to weigh an unproven bound."""

    cost: int
    proven: bool
    nodes_expanded: int
    assignments_searched: int
    node_budget: int = 0
    cpu_seconds: float = 0.0


def _feasible(
    graph: TaskGraph,
    covered: FrozenSet[int],
    clique: FrozenSet[int],
    consumers: Dict[int, List[int]],
) -> bool:
    after = covered | clique
    counts = {rf.name: 0 for rf in graph.machine.register_files}
    capacity = {rf.name: rf.size for rf in graph.machine.register_files}
    for task_id in after:
        task = graph.tasks[task_id]
        bank = task.dest_storage
        if bank not in counts:
            continue
        pending = any(c not in after for c in consumers[task_id])
        # A dead result written in *this* instruction still occupies a
        # register at the end of the cycle.
        transient = not consumers[task_id] and task_id in clique
        if pending or transient or task_id in graph.pinned:
            counts[bank] += 1
            if counts[bank] > capacity[bank]:
                return False
    return True


def optimal_block_cost(
    dag: BlockDAG,
    machine: Machine,
    pin_value: Optional[int] = None,
    node_budget: int = 200_000,
    max_assignments: Optional[int] = None,
    upper_bound: Optional[int] = None,
) -> OptimalResult:
    """Minimum instruction count for ``dag`` on ``machine``.

    ``upper_bound`` seeds the search (default: the heuristic engine's
    result, which is always achievable).
    """
    watch = Stopwatch()
    with watch:
        sn = build_split_node_dag(dag, machine)
        if upper_bound is None:
            seed = generate_block_solution(
                dag, machine, HeuristicConfig.default(), pin_value=pin_value, sn=sn
            )
            upper_bound = seed.instruction_count
        best = upper_bound
        config = HeuristicConfig.heuristics_off()
        assignments = explore_assignments(sn, config)
        if max_assignments is not None:
            assignments = assignments[:max_assignments]
        nodes_expanded = 0
        exhausted = False
        for assignment in assignments:
            graph = TaskGraph(sn, assignment, pin_value=pin_value)
            if graph.has_multi_cycle_ops():
                from repro.errors import ReproError

                raise ReproError(
                    "optimal_block_cost models single-cycle machines "
                    "only; this assignment uses a multi-cycle operation"
                )
            all_tasks = frozenset(graph.task_ids())
            if not all_tasks:
                best = 0
                continue
            rows = parallelism_masks(
                graph, sorted(all_tasks), level_window=config.level_window
            )
            cliques = [
                frozenset(iter_bits(mask))
                for mask in legalize_clique_masks(
                    graph,
                    generate_maximal_clique_masks(rows, config.max_cliques),
                    graph.machine,
                )
            ]
            consumers = {
                t: graph.consumers_of(t) for t in graph.task_ids()
            }
            memo: Dict[FrozenSet[int], int] = {}
            stack: List[tuple] = [(frozenset(), 0)]
            while stack:
                covered, depth = stack.pop()
                if covered == all_tasks:
                    best = min(best, depth)
                    continue
                nodes_expanded += 1
                if nodes_expanded > node_budget:
                    exhausted = True
                    break
                remaining = set(all_tasks - covered)
                if depth + _Lookahead(graph, remaining).estimate([]) >= best:
                    continue
                known = memo.get(covered)
                if known is not None and known <= depth:
                    continue
                memo[covered] = depth
                ready = {
                    t
                    for t in remaining
                    if all(
                        d in covered
                        for d in graph.tasks[t].dependencies()
                    )
                }
                branches: Set[FrozenSet[int]] = set()
                for clique in cliques:
                    shrunk = frozenset(clique & ready)
                    if not shrunk:
                        continue
                    if _feasible(graph, covered, shrunk, consumers):
                        branches.add(shrunk)
                    else:
                        subset: Set[int] = set()
                        for task_id in sorted(shrunk):
                            trial = frozenset(subset | {task_id})
                            if _feasible(graph, covered, trial, consumers):
                                subset.add(task_id)
                        if subset:
                            branches.add(frozenset(subset))
                # Explore larger instructions first (depth-first with the
                # most promising branch on top of the stack).
                for branch in sorted(
                    branches, key=lambda c: (len(c), sorted(c))
                ):
                    stack.append((covered | branch, depth + 1))
            if exhausted:
                break
    return OptimalResult(
        cost=best,
        proven=not exhausted,
        nodes_expanded=nodes_expanded,
        assignments_searched=len(assignments),
        node_budget=node_budget,
        cpu_seconds=watch.elapsed,
    )
