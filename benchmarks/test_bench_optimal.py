"""Corpus-wide optimality gap — ``results/BENCH_optimal.json``.

Builds the report ``repro tables --json`` writes (schema
``repro/bench-optimal/v1``) from the rows of Tables I and II, which the
session's ``table_rows`` fixture solves once to proven minimality with
the constraint-solver backend, and compares the heuristic engine's
block lengths against the proofs.  This turns the paper's
"hand-coded optimal" column into a regenerable artifact: the summary
says how many blocks the heuristic left cycles on, and by how much.
The exact gaps of the 4-register rows are pinned by
``tests/test_optimal_backend.py``.

Gate: every solve in the bench corpus must finish *proven* (the
workloads are sized for seconds, not budget-exhaustion), and no gap may
be negative (the driver guarantees the solver never reports worse than
the heuristic).
"""

from __future__ import annotations

from repro.artifacts import read_artifact, validate, write_artifact
from repro.eval import optimal_bench_report, run_experiment, workload
from repro.isdl import example_architecture
from repro.optimal import OPTIMAL_BENCH_SCHEMA


def test_bench_optimal_gap(benchmark, results_dir, table_rows):
    payload = benchmark.pedantic(
        lambda: optimal_bench_report(table_rows[1] + table_rows[2]),
        rounds=1,
        iterations=1,
    )
    path = results_dir / "BENCH_optimal.json"
    write_artifact(path, payload)
    read_artifact(path, OPTIMAL_BENCH_SCHEMA)  # round-trips schema-valid

    # Honesty gate: the bench corpus is sized to finish its proofs.
    for entry in payload["entries"]:
        assert entry["proven"], (
            f"{entry['workload']} on {entry['machine']}: solve "
            f"exhausted its conflict budget"
        )
        assert entry["gap"] >= 0, entry
        assert entry["solver"]["sat_calls"] > 0, entry

    # The corpus must demonstrate a real heuristic gap somewhere —
    # that is the point of the artifact (the paper's own tables show
    # the heuristic losing cycles on Ex2/Ex4/Ex5).
    assert payload["summary"]["improved"] > 0
    assert payload["summary"]["gap_cycles"] > 0
    assert payload["summary"]["budget_exhausted"] == 0


def test_bench_optimal_report_shape(benchmark):
    """A single-row report round-trips the schema."""
    row = benchmark.pedantic(
        lambda: run_experiment(workload("Ex1"), example_architecture(4), 4),
        rounds=1,
        iterations=1,
    )
    payload = optimal_bench_report([row])
    validate(payload, OPTIMAL_BENCH_SCHEMA)
    (entry,) = payload["entries"]
    assert entry["proven"]
    assert entry["cpu_seconds"] > 0
    assert entry["gap"] == entry["heuristic_cost"] - entry["optimal_cost"]
