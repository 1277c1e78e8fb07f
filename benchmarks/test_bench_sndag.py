"""Split-Node DAG transfer materialisation — ``BENCH_sndag.json``.

Builds and compiles the Table I/II workloads on Architecture I and II
and writes ``benchmarks/results/BENCH_sndag.json`` (schema
``repro/bench-sndag/v1``): per-workload build times and the
transfer-node populations (the paper's up-front expansion vs on-demand
materialisation, avoided nodes, folded equivalent-cost paths).

Gate: the headline blowup case — Ex2 on Architecture I, whose eager
expansion creates the paper-visible 43 transfer nodes — must show a
real reduction.  CI regenerates and schema-validates the file on every
push, so a coverage regression shows up in the artifact diff.
"""

from __future__ import annotations

from repro.artifacts import read_artifact, validate, write_artifact
from repro.telemetry.bench import SNDAG_BENCH_SCHEMA, collect_sndag_bench

from conftest import REPO_ROOT, full_mode, write_result


def test_bench_sndag(benchmark, results_dir):
    repeats = 5 if full_mode() else 3
    entries = benchmark.pedantic(
        lambda: collect_sndag_bench(repeats=repeats), rounds=1, iterations=1
    )
    path = results_dir / "BENCH_sndag.json"
    payload = {"schema": SNDAG_BENCH_SCHEMA, "entries": entries}
    write_artifact(path, payload)
    write_artifact(REPO_ROOT / "BENCH_sndag.json", payload)
    read_artifact(path, SNDAG_BENCH_SCHEMA)  # round-trips schema-valid

    lines = [
        "workload  machine    xfer eager  xfer lazy  avoided  folded"
        "  build ms"
    ]
    for entry in entries:
        lines.append(
            f"{entry['workload']:8s}  {entry['machine']:9s}"
            f"  {entry['eager_transfer_nodes']:10d}"
            f"  {entry['lazy_transfer_nodes']:9d}"
            f"  {entry['avoided_transfer_nodes']:7d}"
            f"  {entry['paths_folded']:6d}"
            f"  {1000 * entry['lazy_build_s']:8.2f}"
        )
    write_result("sndag_materialization.txt", "\n".join(lines))

    # The headline blowup case (ISSUE/ROADMAP): Ex2 on Architecture I
    # eagerly expands 43 transfer nodes; lazy must materialise fewer.
    ex2 = next(
        e
        for e in entries
        if e["workload"] == "Ex2" and e["machine"].startswith("arch1")
    )
    assert ex2["eager_transfer_nodes"] == 43
    assert ex2["lazy_transfer_nodes"] < ex2["eager_transfer_nodes"]
    assert ex2["avoided_transfer_nodes"] > 0


def test_bench_sndag_report_shape(benchmark):
    """A single-workload collection round-trips the schema."""
    entries = benchmark.pedantic(
        lambda: collect_sndag_bench(["Ex1"]), rounds=1, iterations=1
    )
    assert len(entries) == 2  # Ex1 on Architecture I and II
    payload = {"schema": SNDAG_BENCH_SCHEMA, "entries": entries}
    validate(payload, SNDAG_BENCH_SCHEMA)
    for entry in entries:
        assert entry["lazy_build_s"] > 0
