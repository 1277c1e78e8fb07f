"""The covering solution object (paper, Section IV-E).

A :class:`BlockSolution` is "a minimal-cost set of shrunk maximal cliques
that cover the Split-Node DAG": unit assignment made, operations and
transfers merged into VLIW instructions, register-bank allocation
performed (loads and spills added when necessary), and a schedule
determined.  Only detailed register allocation remains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.covering.assignment import Assignment
from repro.covering.taskgraph import TaskGraph
from repro.sndag.build import SplitNodeDAG


@dataclass
class BlockSolution:
    """The lowest-cost implementation found for one basic block."""

    machine_name: str
    sn: SplitNodeDAG
    assignment: Assignment
    graph: TaskGraph
    schedule: List[List[int]]
    register_estimate: Dict[str, int]
    spill_count: int
    reload_count: int
    assignments_explored: int
    cpu_seconds: float = 0.0

    @property
    def instruction_count(self) -> int:
        """Code size of the block body (control flow excluded)."""
        return len(self.schedule)

    def cycle_of(self, task_id: int) -> int:
        """Issue cycle of ``task_id`` (KeyError if unscheduled)."""
        for cycle, members in enumerate(self.schedule):
            if task_id in members:
                return cycle
        raise KeyError(f"task t{task_id} is not scheduled")

    def validate(self) -> None:
        """Schedule invariants: every task exactly once, dependencies
        complete (issue + latency) before their consumers issue, no
        resource scheduled twice per cycle."""
        seen: Dict[int, int] = {}
        for cycle, members in enumerate(self.schedule):
            resources = set()
            for task_id in members:
                if task_id in seen:
                    raise AssertionError(f"task t{task_id} scheduled twice")
                seen[task_id] = cycle
                resource = self.graph.tasks[task_id].resource
                if resource in resources:
                    raise AssertionError(
                        f"cycle {cycle}: resource {resource} used twice"
                    )
                resources.add(resource)
        for task_id, cycle in seen.items():
            for dependency in self.graph.tasks[task_id].dependencies():
                available = seen[dependency] + self.graph.latency(dependency)
                if available > cycle:
                    raise AssertionError(
                        f"task t{task_id} issued at {cycle} but its "
                        f"dependency t{dependency} completes at {available}"
                    )
        if set(seen) != set(self.graph.task_ids()):
            raise AssertionError("schedule does not cover every task")

    def describe(self) -> str:
        """Readable listing: one line per instruction."""
        lines = [
            f"block solution on {self.machine_name}: "
            f"{self.instruction_count} instructions, "
            f"{self.spill_count} spills, registers {self.register_estimate}"
        ]
        for cycle, members in enumerate(self.schedule):
            parts = " | ".join(
                self.graph.tasks[t].describe() for t in members
            )
            lines.append(f"  {cycle:3d}: {parts}")
        return "\n".join(lines)
