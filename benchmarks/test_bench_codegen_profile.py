"""Codegen self-profile — the compiler's own performance trajectory.

Compiles every Table-I workload under a telemetry session and writes
``benchmarks/results/BENCH_codegen.json`` (schema
``repro/bench-codegen/v1``): per-phase wall/CPU timings plus the search
counters (assignments scored/pruned, cliques enumerated, cover
iterations, spill rounds) for each workload.  CI validates the file on
every push, so a PR that regresses compile time or blows up the search
space shows up in the artifact diff rather than anecdotally.

Expected shape: covering dominates compile time on every workload (the
paper calls clique generation "the most time consuming portion of our
algorithm"), and the counters are exactly reproducible run to run —
the whole pipeline is deterministic.
"""

from __future__ import annotations

from repro.artifacts import read_artifact, validate, write_artifact
from repro.telemetry.bench import BENCH_SCHEMA, collect_codegen_bench

from conftest import REPO_ROOT, RESULTS_DIR, full_mode, write_result


_SMOKE_WORKLOADS = ["Ex1", "Ex2", "Ex3"]


def test_bench_codegen_profile(benchmark, results_dir):
    names = None if full_mode() else _SMOKE_WORKLOADS
    entries = benchmark.pedantic(
        lambda: collect_codegen_bench(names), rounds=1, iterations=1
    )
    path = results_dir / "BENCH_codegen.json"
    payload = {"schema": BENCH_SCHEMA, "entries": entries}
    write_artifact(path, payload)
    write_artifact(REPO_ROOT / "BENCH_codegen.json", payload)
    read_artifact(path, BENCH_SCHEMA)  # round-trips schema-valid

    lines = ["workload  instrs  spills  cover.iter  cliques  wall ms"]
    for entry in entries:
        counters = entry["report"]["counters"]
        wall = sum(
            p["wall_s"] for p in entry["report"]["phases"]
            if "/" not in p["path"]
        )
        lines.append(
            f"{entry['workload']:8s}  {entry['metrics']['instructions']:6d}"
            f"  {entry['metrics']['spills']:6d}"
            f"  {counters.get('cover.iterations', 0):10d}"
            f"  {counters.get('cliques.enumerated', 0):7d}"
            f"  {1000 * wall:7.1f}"
        )
    write_result("codegen_profile.txt", "\n".join(lines))

    # Shape assertions: the search actually ran, and covering dominates.
    for entry in entries:
        counters = entry["report"]["counters"]
        assert counters["cover.iterations"] > 0, entry["workload"]
        assert counters["cliques.enumerated"] > 0, entry["workload"]
        assert entry["metrics"]["instructions"] > 0, entry["workload"]
        by_path = {
            p["path"]: p["wall_s"] for p in entry["report"]["phases"]
        }
        covering = next(
            (v for k, v in by_path.items() if k.endswith("covering.block")),
            0.0,
        )
        total = next(
            (v for k, v in by_path.items() if k == "compile"), 0.0
        )
        assert covering > 0.5 * total, (
            f"{entry['workload']}: covering {covering:.4f}s not dominant "
            f"in {total:.4f}s"
        )


def test_bench_codegen_counters_deterministic(benchmark):
    """Two profiled compiles of the same workload agree counter for
    counter (the determinism CI leans on for golden comparisons)."""
    first = benchmark.pedantic(
        lambda: collect_codegen_bench(["Ex1"]), rounds=1, iterations=1
    )
    second = collect_codegen_bench(["Ex1"])
    c1 = first[0]["report"]["counters"]
    c2 = second[0]["report"]["counters"]
    assert c1 == c2
    validate({"schema": BENCH_SCHEMA, "entries": first}, BENCH_SCHEMA)
