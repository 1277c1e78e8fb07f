"""Schedule quality metrics: how good is the schedule the search chose?

The decision journal says *why* each choice was made; this module says
*what it bought*: achieved block length against the critical-path and
resource lower bounds, IPC, per-resource slot utilization, and an
overhead breakdown (transfers, spills, reloads, stalls).  Everything is
computed from the final :class:`repro.covering.solution.BlockSolution`
— after peephole compaction, i.e. the schedule that is actually emitted
— and from the machine description, so the numbers are deterministic.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.covering.solution import BlockSolution
from repro.covering.taskgraph import TaskKind


def critical_path_bound(solution: BlockSolution) -> int:
    """Latency-weighted longest dependence chain, in cycles.

    ``est[t]`` is the earliest cycle task ``t`` could issue if resources
    were unlimited; the block body can never be shorter than the latest
    earliest-issue plus one (the issue slot itself).
    """
    graph = solution.graph
    est: Dict[int, int] = {}
    # Ascending task ids are not necessarily topological after spill
    # rewiring; order by the actual schedule, which is.
    for cycle_members in solution.schedule:
        for task_id in cycle_members:
            earliest = 0
            for dependency in graph.tasks[task_id].dependencies():
                done = est[dependency] + graph.latency(dependency)
                if done > earliest:
                    earliest = done
            est[task_id] = earliest
    if not est:
        return 0
    return max(est.values()) + 1


def resource_bound(solution: BlockSolution) -> int:
    """Busiest resource's task count — one slot per cycle per resource."""
    per_resource: Dict[str, int] = {}
    for cycle_members in solution.schedule:
        for task_id in cycle_members:
            resource = solution.graph.tasks[task_id].resource
            per_resource[resource] = per_resource.get(resource, 0) + 1
    return max(per_resource.values()) if per_resource else 0


def optimality_record(optimal: Any) -> Dict[str, Any]:
    """JSON-safe gap row from a
    :class:`repro.optimal.OptimalSolveResult` — how far the heuristic
    landed from the proven (or best-known) minimum, with the honesty
    flags a reader needs to weigh the claim."""
    return {
        "cost": optimal.cost,
        "heuristic_cost": optimal.heuristic_cost,
        "gap": optimal.gap,
        "proven": optimal.proven,
        "spill_free": optimal.spill_free,
        "budget_exhausted": optimal.budget_exhausted,
        "sat_calls": optimal.sat_calls,
        "conflicts": optimal.conflicts,
    }


def quality_report(
    solution: BlockSolution, optimal: Any = None
) -> Dict[str, Any]:
    """Quality metrics for one block's final schedule (JSON-safe).

    ``optimal`` is the block's
    :class:`repro.optimal.OptimalSolveResult` when it was compiled
    under the optimal backend; the report then carries the measured
    optimality gap.  The ``"optimal"`` key is always present (``None``
    under the heuristic backend) so report shapes stay comparable.
    """
    graph = solution.graph
    machine = graph.machine
    cycles = len(solution.schedule)
    scheduled = [t for members in solution.schedule for t in members]
    stall_cycles = sum(1 for members in solution.schedule if not members)
    overhead = {
        "op_slots": 0,
        "transfer_slots": 0,
        "spill_slots": 0,
        "reload_slots": 0,
        "stall_cycles": stall_cycles,
    }
    used: Dict[str, int] = {}
    for task_id in scheduled:
        task = graph.tasks[task_id]
        used[task.resource] = used.get(task.resource, 0) + 1
        if task.kind is TaskKind.OP:
            overhead["op_slots"] += 1
        elif task.is_spill:
            overhead["spill_slots"] += 1
        elif task.is_reload:
            overhead["reload_slots"] += 1
        else:
            overhead["transfer_slots"] += 1
    resources = sorted(
        {u.name for u in machine.units}
        | set(machine.bus_names())
        | set(used)
    )
    critical_path = critical_path_bound(solution)
    bound = max(critical_path, resource_bound(solution))
    return {
        "cycles": cycles,
        "tasks": len(scheduled),
        "critical_path": critical_path,
        "resource_bound": resource_bound(solution),
        "lower_bound": bound,
        "schedule_overhead": cycles - bound,
        "ipc": round(len(scheduled) / cycles, 4) if cycles else 0.0,
        "slot_utilization": {
            name: round(used.get(name, 0) / cycles, 4) if cycles else 0.0
            for name in resources
        },
        "overhead": overhead,
        "spills": solution.spill_count,
        "reloads": solution.reload_count,
        "register_estimate": dict(sorted(solution.register_estimate.items())),
        "optimal": (
            optimality_record(optimal) if optimal is not None else None
        ),
    }


def timeline(solution: BlockSolution) -> List[Dict[str, Any]]:
    """The schedule as one record per cycle, slot-by-slot (JSON-safe).

    The backbone of the HTML rendering and of linking verifier findings
    back to cycles; empty cycles appear with an empty slot list (stall
    NOPs are part of the schedule, not an artifact).
    """
    graph = solution.graph
    result: List[Dict[str, Any]] = []
    for cycle, members in enumerate(solution.schedule):
        slots = []
        for task_id in sorted(members):
            task = graph.tasks[task_id]
            kind = "op"
            if task.kind is TaskKind.XFER:
                if task.is_spill:
                    kind = "spill"
                elif task.is_reload:
                    kind = "reload"
                else:
                    kind = "transfer"
            slots.append(
                {
                    "task": task_id,
                    "resource": task.resource,
                    "kind": kind,
                    "desc": task.describe(),
                }
            )
        result.append({"cycle": cycle, "slots": slots})
    return result
