"""A conventional phase-ordered code generator.

"The main reason why current code generators address these problems
sequentially is to simplify decision-making" (paper, Section I-B).
This baseline makes each decision in isolation:

1. **Instruction selection / unit binding** — every operation goes to a
   unit chosen without knowledge of scheduling: either the first unit
   that supports it (``strategy="first"``) or a round-robin over the
   supporting units (``strategy="round_robin"``).
2. **Transfer insertion** — whatever data movements the binding forces
   (this reuses the task-graph materialiser).
3. **Scheduling** — plain list scheduling by depth priority: each cycle
   greedily packs ready tasks in priority order, subject to resources,
   legality, and the register-pressure bound (spilling exactly like the
   main engine when stuck, so the comparison is fair).
4. Register allocation afterwards (shared with the main pipeline).

The output is a :class:`BlockSolution`, so every downstream stage —
allocation, emission, simulation — works identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import CoverageError, UnmappableOperationError
from repro.ir.dag import BlockDAG
from repro.isdl.model import Machine
from repro.covering.assignment import Assignment
from repro.covering.cliques import is_legal_instruction
from repro.covering.cover import _choose_spill_victim  # shared spill policy
from repro.covering.pressure import PressureTracker
from repro.covering.solution import BlockSolution
from repro.covering.taskgraph import TaskGraph
from repro.sndag.build import SplitNodeDAG, build_split_node_dag
from repro.sndag.nodes import Alternative
from repro.telemetry.clock import Stopwatch


def _naive_assignment(sn: SplitNodeDAG, strategy: str) -> Assignment:
    """Bind every operation without transfer/parallelism awareness."""
    choice: Dict[int, Alternative] = {}
    uses: Dict[str, int] = {u.name: 0 for u in sn.machine.units}
    for op_id in sorted(sn.alternatives_of):
        basic = [a for a in sn.alternatives(op_id) if not a.is_complex]
        if not basic:
            raise UnmappableOperationError(
                sn.dag.node(op_id).opcode, sn.machine.name
            )
        if strategy == "first":
            chosen = basic[0]
        elif strategy == "round_robin":
            chosen = min(basic, key=lambda a: (uses[a.unit], a.unit))
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        uses[chosen.unit] += 1
        choice[op_id] = chosen
    return Assignment(choice=choice, cost=0)


def _priorities(graph: TaskGraph) -> Dict[int, int]:
    """Depth toward the block's outputs: deeper tasks first."""
    consumers: Dict[int, List[int]] = {t: [] for t in graph.task_ids()}
    for task_id in graph.task_ids():
        for dependency in graph.tasks[task_id].dependencies():
            consumers[dependency].append(task_id)
    from repro.utils.graph import longest_path_lengths

    return longest_path_lengths(consumers)


def sequential_block_solution(
    dag: BlockDAG,
    machine: Machine,
    strategy: str = "round_robin",
    pin_value: Optional[int] = None,
    max_spills: int = 64,
) -> BlockSolution:
    """Compile one block with the phase-ordered baseline."""
    watch = Stopwatch()
    with watch:
        sn = build_split_node_dag(dag, machine)
        assignment = _naive_assignment(sn, strategy)
        graph = TaskGraph(sn, assignment, pin_value=pin_value)
        tracker = PressureTracker(graph)
        priority = _priorities(graph)
        covered: Set[int] = set()
        schedule: List[List[int]] = []
        issue_cycle: Dict[int, int] = {}
        spills = 0
        while len(covered) < len(graph.tasks):
            now = len(schedule)
            ready = sorted(
                (
                    t
                    for t in graph.task_ids()
                    if t not in covered
                    and all(
                        d in covered
                        and issue_cycle[d] + graph.latency(d) <= now
                        for d in graph.tasks[t].dependencies()
                    )
                ),
                key=lambda t: (-priority[t], t),
            )
            if not ready:
                in_flight = any(
                    d in covered
                    and issue_cycle[d] + graph.latency(d) > now
                    for t in graph.task_ids()
                    if t not in covered
                    for d in graph.tasks[t].dependencies()
                )
                if in_flight:
                    schedule.append([])  # stall for a multi-cycle result
                    continue
                raise CoverageError("list scheduler: no ready task")
            cycle: Set[int] = set()
            cycle_mask = 0
            resources: Set[str] = set()
            for task_id in ready:
                task = graph.tasks[task_id]
                if task.resource in resources:
                    continue
                candidate = cycle | {task_id}
                if not is_legal_instruction(
                    graph, frozenset(candidate), machine
                ):
                    continue
                if not tracker.feasible(cycle_mask | 1 << task_id):
                    continue
                cycle.add(task_id)
                cycle_mask |= 1 << task_id
                resources.add(task.resource)
            if not cycle:
                spills += 1
                if spills > max_spills:
                    raise CoverageError(
                        f"sequential baseline exceeded {max_spills} spills"
                    )
                victim = _choose_spill_victim(graph, tracker, [], covered)
                graph.spill_delivery(victim, covered)
                tracker.rebuild(schedule)
                priority = _priorities(graph)
                continue
            tracker.commit(cycle)
            covered |= cycle
            for task_id in cycle:
                issue_cycle[task_id] = now
            schedule.append(sorted(cycle))
        solution = BlockSolution(
            machine_name=machine.name,
            sn=sn,
            assignment=assignment,
            graph=graph,
            schedule=schedule,
            register_estimate=tracker.register_estimate(),
            spill_count=graph.spill_count,
            reload_count=graph.reload_count,
            assignments_explored=1,
        )
    solution.cpu_seconds = watch.elapsed
    return solution
