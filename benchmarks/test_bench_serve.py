"""Batch-service cache efficiency under zipfian load — ``BENCH_serve.json``.

Runs the serve bench's cold/warm experiment: a zipfian mix of
(example × machine × config) jobs compiled twice against one persistent
block cache, first cold (empty directory) and then warm (the replay a
long-lived service or CI re-run sees).  Writes
``benchmarks/results/BENCH_serve.json`` (schema ``repro/bench-serve/v1``)
plus the repo-root artifact copy.

Gate: the warm replay must be bit-identical to the cold pass (assembly
and schedule maps per job — the cache must never change output), the
warm hit rate must be high (every job was seen before), and the warm
pass must clear the 2x wall-clock bar from the issue's acceptance
criteria.  CI's ``serve-smoke`` job regenerates and schema-validates the
file on every push.
"""

from __future__ import annotations

from repro.artifacts import read_artifact, validate, write_artifact
from repro.serve.bench import SERVE_BENCH_SCHEMA, collect_serve_bench

from conftest import REPO_ROOT, full_mode, write_result


def test_bench_serve(benchmark, results_dir):
    draws = 48 if full_mode() else 24
    entries = benchmark.pedantic(
        lambda: collect_serve_bench(draws=draws, seed=0, workers=0),
        rounds=1,
        iterations=1,
    )
    path = results_dir / "BENCH_serve.json"
    payload = {"schema": SERVE_BENCH_SCHEMA, "entries": entries}
    write_artifact(path, payload)
    write_artifact(REPO_ROOT / "BENCH_serve.json", payload)
    read_artifact(path, SERVE_BENCH_SCHEMA)  # round-trips schema-valid

    lines = [
        "mix               jobs  uniq  cold s  warm s  speedup"
        "  warm hit  identical"
    ]
    for entry in entries:
        lines.append(
            f"{entry['mix']:16s}  {entry['jobs']:4d}  {entry['unique_jobs']:4d}"
            f"  {entry['cold_s']:6.2f}  {entry['warm_s']:6.2f}"
            f"  {entry['speedup']:6.2f}x"
            f"  {entry['warm_hit_rate']:8.2f}"
            f"  {entry['identical']}"
        )
    write_result("serve_bench.txt", "\n".join(lines))

    for entry in entries:
        # Fidelity: warm results byte-for-byte equal to cold ones.
        assert entry["identical"], entry["mix"]
        # The zipfian mix actually repeats jobs (cold pass already hits
        # within the run) and the warm pass hits on everything.
        assert entry["jobs"] > entry["unique_jobs"]
        assert entry["warm_hit_rate"] >= 0.9, entry
        assert entry["cache"]["bad_entries"] == 0, entry
        # Speed: the acceptance bar — a warm replay at least 2x faster.
        assert entry["speedup"] >= 2.0, (
            f"{entry['mix']}: warm pass only {entry['speedup']:.2f}x "
            f"over cold"
        )


def test_bench_serve_report_shape(benchmark):
    """A tiny collection round-trips the schema and records both passes."""
    entries = benchmark.pedantic(
        lambda: collect_serve_bench(draws=10, seed=1, workers=0),
        rounds=1,
        iterations=1,
    )
    assert len(entries) == 1
    payload = {"schema": SERVE_BENCH_SCHEMA, "entries": entries}
    validate(payload, SERVE_BENCH_SCHEMA)
    entry = entries[0]
    assert entry["cold_s"] > 0 and entry["warm_s"] > 0
    assert entry["identical"] is True
