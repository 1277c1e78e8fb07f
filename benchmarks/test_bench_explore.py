"""Architecture-exploration frontier — ``results/BENCH_explore.json``.

Runs a smoke-sized exploration (the seeded population the
``explore-smoke`` CI job also uses; ``REPRO_FULL=1`` scales up to the
acceptance-criteria population of 50) and writes the
``repro/bench-explore/v1`` artifact to ``benchmarks/results/``.

Gate: the artifact is schema-valid, the frontier is non-trivial
(several mutually non-dominated machines), and regenerating the payload
from the same seed yields byte-identical content — the artifact is a
pure function of the seed, so any diff in review is a real behaviour
change, not noise.
"""

from __future__ import annotations

from repro.artifacts import read_artifact, write_artifact
from repro.explore import EXPLORE_SCHEMA, format_explore_table, run_explore

from conftest import full_mode, write_result

SEED = 0


def test_bench_explore(benchmark, results_dir, tmp_path):
    population = 50 if full_mode() else 12
    workers = 4 if full_mode() else 0
    payload, timing = benchmark.pedantic(
        lambda: run_explore(
            seed=SEED,
            population=population,
            workers=workers,
            cache_dir=str(tmp_path / "cache"),
        ),
        rounds=1,
        iterations=1,
    )
    path = results_dir / "BENCH_explore.json"
    write_artifact(path, payload)
    # Round-trips, schema-valid.
    assert read_artifact(path, EXPLORE_SCHEMA) == payload
    totals = payload["totals"]
    assert totals["candidates"] == population
    assert totals["frontier"] >= 3, "frontier should be non-trivial"
    assert totals["workloads_ok"] > 0

    # Pure function of the seed: the warm regeneration (same cache
    # directory, so every block hits) serializes to the same bytes.
    again, _ = run_explore(
        seed=SEED,
        population=population,
        workers=workers,
        cache_dir=str(tmp_path / "cache"),
    )
    write_artifact(tmp_path / "again.json", again)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    write_result(
        "explore_frontier.txt",
        format_explore_table(payload)
        + f"\n\n[{timing['evaluations']} evaluations, "
        f"workers={timing['workers']}]",
    )
