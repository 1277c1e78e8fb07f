"""Corpus-wide optimality-gap reports — ``repro gap --json``.

The report tracks how *good* the heuristic's answers are: for every
(workload, machine) pair the heuristic engine's block length is
compared against the constraint solver's provably minimal
one, turning the paper's "the hand-coded results are all optimal"
column into a measured, regenerable artifact.

Schema (``repro/bench-optimal/v1``)::

    {
      "schema": "repro/bench-optimal/v1",
      "summary": {
        "blocks": 10, "proven": 10, "improved": 6,
        "gap_cycles": 9, "budget_exhausted": 0
      },
      "entries": [
        {
          "workload": "Ex5", "machine": "arch1_r4", "registers": 4,
          "heuristic_cost": 15, "optimal_cost": 12, "gap": 3,
          "proven": true, "spill_free": true, "heuristic_spills": 0,
          "cpu_seconds": 1.43,
          "solver": { ... OptimalSolveResult.stats_dict() ... }
        }, ...
      ]
    }

Honesty: ``proven`` is per entry; a budget-exhausted solve keeps the
heuristic cost as an upper bound and says so (``budget_exhausted`` in
``solver``), it never pretends the gap is closed.  Written by
``repro gap --json`` and ``benchmarks/test_bench_optimal.py``; CI's
``optimal-smoke`` job regenerates and schema-validates it on every
push, and ``tests/test_optimal_backend.py`` pins the exact gaps of the
4-register rows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

OPTIMAL_BENCH_SCHEMA = "repro/bench-optimal/v1"

#: Integer statistics every entry's ``solver`` object must carry.
SOLVER_STAT_KEYS = (
    "assignments_searched",
    "unsat_assignments",
    "sat_calls",
    "conflicts",
    "decisions",
    "propagations",
    "learned_clauses",
    "restarts",
    "variables",
    "clauses",
)

#: The gap-bench corpus: (workload, machine key, registers per file).
#: The Table-I workloads on the example architecture at 4 registers,
#: the paper's spill rows (Ex6/Ex7 = Ex4/Ex5 at 2 registers), and the
#: Table-II retargetability sweep on Architecture II.
GAP_WORKLOADS: Tuple[Tuple[str, str, int], ...] = (
    ("Ex1", "arch1", 4),
    ("Ex2", "arch1", 4),
    ("Ex3", "arch1", 4),
    ("Ex4", "arch1", 4),
    ("Ex5", "arch1", 4),
    ("Ex4", "arch1", 2),
    ("Ex5", "arch1", 2),
    ("Ex1", "arch2", 4),
    ("Ex2", "arch2", 4),
    ("Ex3", "arch2", 4),
    ("Ex4", "arch2", 4),
    ("Ex5", "arch2", 4),
)


def collect_optimal_bench(
    workloads: Optional[List[Tuple[str, str, int]]] = None,
    conflict_budget: Optional[int] = 50_000,
) -> List[Dict[str, Any]]:
    """Solve each gap-bench workload to proven optimality (or budget).

    Returns the ``entries`` payload of the ``repro/bench-optimal/v1``
    report.
    """
    from repro.covering.config import HeuristicConfig
    from repro.isdl.builtin_machines import BUILTIN_MACHINES
    from repro.optimal import optimal_block_solution
    from repro.eval.workloads import WORKLOADS

    table = GAP_WORKLOADS if workloads is None else workloads
    by_name = {load.name: load for load in WORKLOADS}
    entries: List[Dict[str, Any]] = []
    for name, machine_key, registers in table:
        load = by_name[name]
        machine = BUILTIN_MACHINES[machine_key](registers)
        result = optimal_block_solution(
            load.build(),
            machine,
            config=HeuristicConfig.default(),
            conflict_budget=conflict_budget,
        )
        entries.append(
            {
                "workload": name,
                "machine": machine.name,
                "registers": registers,
                "heuristic_cost": result.heuristic_cost,
                "optimal_cost": result.cost,
                "gap": result.gap,
                "proven": result.proven,
                "spill_free": result.spill_free,
                "heuristic_spills": result.heuristic_solution.spill_count,
                "cpu_seconds": result.cpu_seconds,
                "solver": result.stats_dict(),
            }
        )
    return entries


def summarize_optimal_bench(
    entries: List[Dict[str, Any]],
) -> Dict[str, int]:
    """Corpus-wide totals for the report's ``summary`` object."""
    return {
        "blocks": len(entries),
        "proven": sum(1 for e in entries if e["proven"]),
        "improved": sum(1 for e in entries if e["gap"] > 0),
        "gap_cycles": sum(e["gap"] for e in entries),
        "budget_exhausted": sum(
            1 for e in entries if e["solver"]["budget_exhausted"]
        ),
    }


def format_gap_table(entries: List[Dict[str, Any]]) -> str:
    """Human-readable gap table (one line per entry, plus totals)."""
    lines = [
        "workload  machine       regs  heur  opt  gap  proven  spill-free"
    ]
    for entry in entries:
        proven = "yes" if entry["proven"] else "NO"
        spill_free = "yes" if entry["spill_free"] else "no"
        lines.append(
            f"{entry['workload']:8s}  {entry['machine']:12s}  "
            f"{entry['registers']:4d}  "
            f"{entry['heuristic_cost']:4d}  {entry['optimal_cost']:3d}  "
            f"{entry['gap']:3d}  {proven:6s}  {spill_free}"
        )
    summary = summarize_optimal_bench(entries)
    lines.append(
        f"{summary['blocks']} block(s): {summary['proven']} proven, "
        f"{summary['improved']} improved by the solver, "
        f"{summary['gap_cycles']} gap cycle(s) total, "
        f"{summary['budget_exhausted']} budget-exhausted"
    )
    return "\n".join(lines)
