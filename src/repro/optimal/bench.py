"""The heuristic-vs-optimal report — ``repro tables --json``.

The report tracks how *good* the heuristic's answers are: for every
row of the paper's Tables I and II the heuristic engine's block length
is compared against the constraint solver's provably minimal one,
turning the paper's "the hand-coded results are all optimal" column
into a measured, regenerable artifact.
The table harness's ``optimal_bench_report`` builds it from the table
rows; this module holds its schema stamp and totals.

Schema (``repro/bench-optimal/v1``)::

    {
      "schema": "repro/bench-optimal/v1",
      "summary": {
        "blocks": 12, "proven": 12, "improved": 8,
        "gap_cycles": 17, "budget_exhausted": 0
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
``repro tables --json`` and ``benchmarks/test_bench_optimal.py``; CI's
``optimal-smoke`` job regenerates and schema-validates it on every
push, and ``tests/test_optimal_backend.py`` pins the exact gaps of the
4-register rows.
"""

from __future__ import annotations

from typing import Any, Dict, List

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
