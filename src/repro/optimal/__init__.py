"""The optimal backend: a constraint-solver oracle for assignment +
covering + scheduling, and the Optimal column of ``repro tables``.

This package encodes each functional-unit assignment's task graph as a
boolean constraint problem (:mod:`repro.optimal.encoding`), solves it
with a pure-python CDCL SAT core plus CP bounds propagation
(:mod:`repro.optimal.solver`), tightens the makespan bound by bound
under assumptions until UNSAT proves optimality, and replays every
model through the independent translation validator before trusting it
(:mod:`repro.optimal.certify`).

Entry point: :func:`optimal_block_solution` — returns an
:class:`OptimalSolveResult` carrying the best cost, whether it is
*proven* optimal (within the search scope), the certified solver
schedule when it beats the heuristic, and full solver statistics.
:mod:`repro.optimal.bench` declares the ``repro/bench-optimal/v1``
report that ``repro tables --json`` writes from these results.

Scope and honesty (details in ``docs/optimality.md``):

- the search space is ``explore_assignments(heuristics_off)`` ×
  spill-free schedules of each assignment's deterministic
  :class:`TaskGraph` — the same scope as the test-only branch-and-bound
  oracle (``tests/branch_and_bound.py``), so the two are
  differentially comparable;
- the heuristic engine's result seeds the upper bound, so the reported
  cost is **never worse than the heuristic's**;
- schedules requiring spills are not enumerated; when the heuristic
  needed spills and no spill-free schedule beats it, the heuristic
  result stands and ``spill_free`` is ``False``;
- ``proven`` is ``True`` only when every assignment was either solved
  to UNSAT at the final bound or shown infeasible, with no conflict
  budget exhaustion and no assignment truncation.

Unlike the branch-and-bound oracle, the solver handles multi-cycle
operation latencies natively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.covering.config import HeuristicConfig
from repro.covering.engine import generate_block_solution
from repro.covering.solution import BlockSolution
from repro.covering.taskgraph import TaskGraph
from repro.ir.dag import BlockDAG
from repro.isdl.model import Machine
from repro.optimal.bench import OPTIMAL_BENCH_SCHEMA, summarize_optimal_bench
from repro.optimal.certify import certify_solution, solution_from_model
from repro.optimal.encoding import AssignmentEncoding
from repro.optimal.solver import BoundsPropagator, CDCLSolver, SolverStats
from repro.sndag.build import SplitNodeDAG, build_split_node_dag
from repro.telemetry.clock import Stopwatch
from repro.telemetry.session import current as _telemetry

__all__ = [
    "AssignmentEncoding",
    "BoundsPropagator",
    "CDCLSolver",
    "OPTIMAL_BENCH_SCHEMA",
    "OptimalSolveResult",
    "SolverStats",
    "certify_solution",
    "optimal_block_solution",
    "solution_from_model",
    "summarize_optimal_bench",
]

#: Default total conflict budget across the whole block solve.
DEFAULT_CONFLICT_BUDGET = 50_000


@dataclass
class OptimalSolveResult:
    """Outcome of one optimal-backend block solve."""

    #: Best known block length (cycles); never worse than the heuristic.
    cost: int
    #: The heuristic engine's block length for the same (dag, machine,
    #: pin) — the seed upper bound.
    heuristic_cost: int
    #: True when the search completed: no budget exhaustion, no
    #: assignment truncation (see the package docstring for scope).
    proven: bool
    #: Certified solver schedule when it strictly beats the heuristic;
    #: ``None`` when the heuristic result already matches the optimum
    #: (or the budget ran out before an improvement was found).
    solution: Optional[BlockSolution]
    #: The heuristic engine's solution (always available).
    heuristic_solution: BlockSolution
    assignments_searched: int
    #: Assignments with no spill-free schedule under the final bound.
    unsat_assignments: int
    sat_calls: int
    conflicts: int
    decisions: int
    propagations: int
    learned_clauses: int
    restarts: int
    variables: int
    clauses: int
    conflict_budget: Optional[int]
    budget_exhausted: bool
    cpu_seconds: float = 0.0

    @property
    def gap(self) -> int:
        """Heuristic optimality gap in cycles (``>= 0`` always)."""
        return self.heuristic_cost - self.cost

    @property
    def spill_free(self) -> bool:
        """Whether the reported cost is achieved without spills."""
        if self.solution is not None:
            return True
        return self.heuristic_solution.spill_count == 0

    def best_solution(self) -> BlockSolution:
        """The schedule to emit: solver's when it won, else heuristic."""
        return (
            self.solution
            if self.solution is not None
            else self.heuristic_solution
        )

    def stats_dict(self) -> Dict[str, Any]:
        """JSON-safe solver statistics for reports and benches."""
        return {
            "assignments_searched": self.assignments_searched,
            "unsat_assignments": self.unsat_assignments,
            "sat_calls": self.sat_calls,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "learned_clauses": self.learned_clauses,
            "restarts": self.restarts,
            "variables": self.variables,
            "clauses": self.clauses,
            "conflict_budget": self.conflict_budget,
            "budget_exhausted": self.budget_exhausted,
        }


def optimal_block_solution(
    dag: BlockDAG,
    machine: Machine,
    pin_value: Optional[int] = None,
    config: Optional[HeuristicConfig] = None,
    conflict_budget: Optional[int] = DEFAULT_CONFLICT_BUDGET,
    max_assignments: Optional[int] = None,
    sn: Optional[SplitNodeDAG] = None,
    heuristic_solution: Optional[BlockSolution] = None,
) -> OptimalSolveResult:
    """Provably minimal block length for ``dag`` on ``machine``.

    Runs the heuristic engine first (under ``config``) to seed the
    upper bound, then proves or improves it assignment by assignment:
    each assignment's task graph is encoded once at the current bound
    and tightened with solver assumptions until UNSAT.  Every improving
    model is decoded and certified by the independent validator before
    it is accepted.

    Args:
        dag: the block to schedule.
        machine: the target processor.
        pin_value: original-DAG id that must stay register-resident to
            block end (a branch condition), as in the engine.
        config: heuristic configuration for the *seed* compile only;
            the exact search always enumerates all assignments.
        conflict_budget: total CDCL conflicts across the whole solve
            (``None`` = unlimited).  Exhaustion returns the best
            incumbent with ``proven=False``.
        max_assignments: cap on assignments searched (``None`` = all);
            truncation also clears ``proven``.
        sn: pre-built Split-Node DAG, if the caller has one.
        heuristic_solution: pre-computed heuristic solution for the
            same (dag, machine, pin), to skip the seed compile.

    Raises:
        CoverageError: no complete assignment exists (mirrors the
            heuristic engine: the block is genuinely uncompilable).
    """
    tm = _telemetry()
    watch = Stopwatch()
    with watch, tm.span("optimal.block", category="optimal"):
        if sn is None:
            sn = build_split_node_dag(dag, machine)
        heuristic = heuristic_solution
        if heuristic is None:
            heuristic = generate_block_solution(
                dag,
                machine,
                config or HeuristicConfig.default(),
                pin_value=pin_value,
                sn=sn,
            )
        best_cost = heuristic.instruction_count
        best_decoded: Optional[BlockSolution] = None
        search_config = HeuristicConfig.heuristics_off()
        from repro.covering.assignment import explore_assignments

        assignments = explore_assignments(sn, search_config)
        truncated = (
            max_assignments is not None
            and len(assignments) > max_assignments
        )
        if truncated:
            assignments = assignments[:max_assignments]
        budget_exhausted = False
        unsat_assignments = 0
        totals = SolverStats()
        variables = 0
        clauses = 0
        for assignment in assignments:
            graph = TaskGraph(sn, assignment, pin_value=pin_value)
            task_ids = graph.task_ids()
            if not task_ids:
                if best_cost > 0:
                    best_cost = 0
                    best_decoded = solution_from_model(
                        graph, assignment, {}, 0, len(assignments)
                    )
                continue
            horizon = best_cost - 1
            if horizon < 1:
                # Nothing shorter than the incumbent can hold any task.
                continue
            encoding = AssignmentEncoding(graph, horizon)
            variables += encoding.solver.num_vars
            if encoding.infeasible:
                unsat_assignments += 1
                continue
            clauses += encoding.solver.num_clauses
            improved_here = False
            length = horizon
            while True:
                remaining: Optional[int] = None
                if conflict_budget is not None:
                    remaining = conflict_budget - (
                        totals.conflicts + encoding.solver.stats.conflicts
                    )
                    if remaining <= 0:
                        budget_exhausted = True
                        break
                verdict = encoding.solve(length, remaining)
                tm.count("optimal.sat_calls", 1)
                if verdict is True:
                    cycle_of = encoding.schedule_from_model()
                    achieved = encoding.achieved_length(cycle_of)
                    best_decoded = solution_from_model(
                        graph,
                        assignment,
                        cycle_of,
                        achieved,
                        len(assignments),
                    )
                    best_cost = achieved
                    improved_here = True
                    length = achieved - 1
                elif verdict is False:
                    if not improved_here:
                        unsat_assignments += 1
                    break
                else:
                    budget_exhausted = True
                    break
            _accumulate(totals, encoding.solver.stats)
            if budget_exhausted:
                break
        proven = not budget_exhausted and not truncated
        improved = (
            best_decoded is not None
            and best_cost < heuristic.instruction_count
        )
        solution = best_decoded if improved else None
    result = OptimalSolveResult(
        cost=best_cost if improved else heuristic.instruction_count,
        heuristic_cost=heuristic.instruction_count,
        proven=proven,
        solution=solution,
        heuristic_solution=heuristic,
        assignments_searched=len(assignments),
        unsat_assignments=unsat_assignments,
        sat_calls=totals.sat_calls,
        conflicts=totals.conflicts,
        decisions=totals.decisions,
        propagations=totals.propagations,
        learned_clauses=totals.learned_clauses,
        restarts=totals.restarts,
        variables=variables,
        clauses=clauses,
        conflict_budget=conflict_budget,
        budget_exhausted=budget_exhausted,
        cpu_seconds=watch.elapsed,
    )
    tm.count("optimal.blocks", 1)
    tm.count("optimal.assignments", result.assignments_searched)
    tm.count("optimal.unsat_assignments", result.unsat_assignments)
    tm.count("optimal.conflicts", result.conflicts)
    tm.count("optimal.decisions", result.decisions)
    tm.count("optimal.propagations", result.propagations)
    tm.count("optimal.learned_clauses", result.learned_clauses)
    tm.count("optimal.restarts", result.restarts)
    tm.count("optimal.variables", result.variables)
    tm.count("optimal.clauses", result.clauses)
    if result.proven:
        tm.count("optimal.proven", 1)
    if result.budget_exhausted:
        tm.count("optimal.budget_exhausted", 1)
    if result.solution is not None:
        tm.count("optimal.improved", 1)
        tm.count("optimal.gap_cycles", result.gap)
    return result


def _accumulate(totals: SolverStats, stats: SolverStats) -> None:
    totals.decisions += stats.decisions
    totals.propagations += stats.propagations
    totals.conflicts += stats.conflicts
    totals.learned_clauses += stats.learned_clauses
    totals.restarts += stats.restarts
    totals.sat_calls += stats.sat_calls
