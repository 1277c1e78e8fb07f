"""The concurrent covering engine (paper, Section IV).

This package implements AVIV's central contribution: covering the
Split-Node DAG with a minimal-cost set of target instructions while
performing functional-unit assignment, operation/transfer grouping,
register-bank allocation, and scheduling *concurrently*:

- :mod:`repro.covering.config` — heuristic toggles (the paper's
  "multiple heuristics that can be turned off if desired").
- :mod:`repro.covering.assignment` — split-node functional-unit
  assignment exploration with the incremental cost function (IV-A).
- :mod:`repro.covering.taskgraph` — materialises one assignment as a
  graph of schedulable operation and transfer tasks, choosing among
  multiple transfer paths (IV-B), and supports spill insertion (Fig. 9).
- :mod:`repro.covering.parallelism` — the pairwise-parallelism relation
  (IV-C.1, Fig. 7).
- :mod:`repro.covering.cliques` — maximal-clique generation with the
  paper's pruning rule (Fig. 8), the level-window heuristic (IV-C.2),
  and illegal-instruction splitting (IV-C.3).
- :mod:`repro.covering.pressure` — running register-requirement upper
  bounds per register bank.
- :mod:`repro.covering.cover` — greedy minimum-cost clique covering
  with lookahead tie-breaking and spill handling (IV-D).
- :mod:`repro.covering.engine` — the Fig. 5 driver; produces a
  :class:`repro.covering.solution.BlockSolution`.
"""

from repro.covering.config import HeuristicConfig
from repro.covering.assignment import Assignment, explore_assignments
from repro.covering.taskgraph import Task, TaskGraph, TaskKind, ReadRef
from repro.covering.parallelism import parallelism_masks
from repro.covering.cliques import (
    generate_maximal_clique_masks,
    legalize_clique_masks,
)
from repro.covering.pressure import PressureTracker
from repro.covering.cover import cover_assignment
from repro.covering.solution import BlockSolution
from repro.covering.engine import generate_block_solution, solve_block

__all__ = [
    "HeuristicConfig",
    "Assignment",
    "explore_assignments",
    "Task",
    "TaskGraph",
    "TaskKind",
    "ReadRef",
    "parallelism_masks",
    "generate_maximal_clique_masks",
    "legalize_clique_masks",
    "PressureTracker",
    "cover_assignment",
    "BlockSolution",
    "generate_block_solution",
    "solve_block",
]
