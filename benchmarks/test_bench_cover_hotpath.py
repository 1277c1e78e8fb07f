"""Covering hot-path ledger — ``BENCH_cover.json``.

Compiles the clique-heavy workloads (sum-of-products and wide
reductions with the level window off, where clique enumeration and
covering dominate exactly as the paper predicts) and writes
``benchmarks/results/BENCH_cover.json`` (schema
``repro/bench-cover/v1``): per-workload wall clock, result metrics and
covering counters.

Gate: every workload exercises the clique and covering hot paths, and
the spill workload exercises the incremental clique rebuild.  Schedule
identity with the reference oracle is a tier-1 test
(``tests/test_cover_hotpath.py``).  CI regenerates and schema-validates
the file on every push.
"""

from __future__ import annotations

from repro.artifacts import read_artifact, validate, write_artifact
from repro.telemetry.bench import COVER_BENCH_SCHEMA, collect_cover_bench

from conftest import REPO_ROOT, full_mode, write_result


def test_bench_cover_hotpath(benchmark, results_dir):
    repeats = 5 if full_mode() else 3
    entries = benchmark.pedantic(
        lambda: collect_cover_bench(repeats=repeats), rounds=1, iterations=1
    )
    path = results_dir / "BENCH_cover.json"
    payload = {"schema": COVER_BENCH_SCHEMA, "entries": entries}
    write_artifact(path, payload)
    write_artifact(REPO_ROOT / "BENCH_cover.json", payload)
    read_artifact(path, COVER_BENCH_SCHEMA)  # round-trips schema-valid

    lines = ["workload       heavy  wall ms  instructions  spills"]
    for entry in entries:
        lines.append(
            f"{entry['workload']:13s}  {str(entry['heavy']):5s}"
            f"  {1000 * entry['wall_s']:7.1f}"
            f"  {entry['metrics']['instructions']:12d}"
            f"  {entry['metrics']['spills']:6d}"
        )
    write_result("cover_hotpath.txt", "\n".join(lines))

    # Every workload actually exercised the hot paths.
    for entry in entries:
        assert entry["counters"]["cliques.mask_kernel_calls"] > 0, (
            entry["workload"]
        )
        assert entry["counters"]["cover.iterations"] > 0, entry["workload"]
    assert any(entry["heavy"] for entry in entries), (
        "no clique-bound workloads in the bench table"
    )

    # The spill workload must actually spill — that is what exercises
    # the incremental clique rebuild path.
    spilled = next(e for e in entries if e["workload"] == "sop8-spill")
    assert spilled["metrics"]["spills"] > 0
    assert spilled["counters"].get("cover.incremental_rebuilds", 0) > 0


def test_bench_cover_report_shape(benchmark):
    """A single-workload collection round-trips the schema and records
    its timing."""
    entries = benchmark.pedantic(
        lambda: collect_cover_bench(["sop8-nowin"]), rounds=1, iterations=1
    )
    assert len(entries) == 1
    payload = {"schema": COVER_BENCH_SCHEMA, "entries": entries}
    validate(payload, COVER_BENCH_SCHEMA)
    assert entries[0]["wall_s"] > 0
