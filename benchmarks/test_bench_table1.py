"""Table I — code generation for the example target architecture.

Regenerates every column of the paper's Table I: original and
Split-Node DAG node counts, registers per file, spills inserted,
optimal ("by hand") instruction count, AVIV's instruction count, and
CPU time; the parenthesised heuristics-off columns are produced for the
small blocks by default and for all blocks with ``REPRO_FULL=1``.

Expected shape versus the paper: AVIV within a few instructions of
optimal on every block; 2-register rows (Ex6/Ex7) cost more
instructions and may insert spills; heuristics-off never produces worse
code but takes far longer.
"""

from __future__ import annotations

from repro.eval import (
    PAPER_TABLE1,
    format_comparison,
    format_rows,
    run_table1,
)

from conftest import full_mode, write_result


def test_bench_table1(benchmark, table_rows):
    table1_rows = table_rows[1]
    benchmark.pedantic(
        lambda: run_table1(with_optimal=False), rounds=1, iterations=1
    )
    text = format_rows(table1_rows, "Table I — example target architecture")
    text += "\n\n" + format_comparison(
        table1_rows, PAPER_TABLE1, "Measured vs. paper (paper values in parens)"
    )
    write_result("table1.txt", text)
    # Shape assertions (who wins, by roughly what factor):
    by_name = {row.block: row for row in table1_rows}
    for row in table1_rows:
        assert row.validated, f"{row.block} failed end-to-end validation"
        # AVIV near-optimal on the 4-register rows (paper's worst gap
        # is 4); the 2-register rows may gap further — the paper's own
        # diagnosis: "the initial functional unit assignment cost
        # function did not detect that [its] assignments ... would
        # result in spills".  Heuristics-off recovers the optimum.
        limit = 4 if row.registers_per_file >= 4 else 8
        assert row.aviv - row.optimal.cost <= limit, row.block
        if row.aviv_no_heuristics is not None:
            assert row.aviv_no_heuristics - row.optimal.cost <= 1, row.block
    # Split-Node DAGs are several times larger than the original DAGs.
    for row in table1_rows:
        assert row.split_node_nodes >= 2 * row.original_nodes
    # Tight register files never produce *better* code.
    assert by_name["Ex6"].aviv >= by_name["Ex4"].aviv
    assert by_name["Ex7"].aviv >= by_name["Ex5"].aviv


def test_bench_table1_heuristics_off_small_blocks(benchmark):
    """The parenthesised columns for Ex1–Ex3: same or better quality at
    a multiple of the CPU time (the paper's heuristics ran in a fraction
    of the exhaustive time)."""
    from repro.covering import HeuristicConfig, generate_block_solution
    from repro.eval import workload
    from repro.isdl import example_architecture

    machine = example_architecture(4)
    names = (
        ["Ex1", "Ex2", "Ex3", "Ex4", "Ex5"] if full_mode() else ["Ex1", "Ex2", "Ex3"]
    )
    lines = ["Block  Aviv  Aviv(no heur)  CPU on  CPU off  slowdown"]

    def run_all():
        results = []
        for name in names:
            dag = workload(name).build()
            fast = generate_block_solution(
                dag, machine, HeuristicConfig.default()
            )
            slow = generate_block_solution(
                dag, machine, HeuristicConfig.heuristics_off()
            )
            results.append((name, fast, slow))
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for name, fast, slow in results:
        slowdown = slow.cpu_seconds / max(fast.cpu_seconds, 1e-9)
        lines.append(
            f"{name:5s}  {fast.instruction_count:4d}  "
            f"{slow.instruction_count:13d}  {fast.cpu_seconds:6.3f}  "
            f"{slow.cpu_seconds:7.3f}  {slowdown:8.1f}x"
        )
        # Heuristics-off explores a superset: never worse quality.
        assert slow.instruction_count <= fast.instruction_count
    write_result("table1_heuristics_off.txt", "\n".join(lines))
