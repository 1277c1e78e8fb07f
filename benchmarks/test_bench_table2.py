"""Table II — retargeting to Architecture II.

The paper removes SUB from U1 and deletes U3 entirely, re-runs Ex1–Ex5,
and observes that "for several of these basic blocks, removing a
functional unit does not degrade performance".

Expected shape: Split-Node DAGs shrink substantially versus Table I;
instruction counts stay close to the Table I results (within a couple
of instructions) despite a third of the datapath disappearing.
"""

from __future__ import annotations

from repro.eval import (
    PAPER_TABLE2,
    format_comparison,
    format_rows,
    run_table1,
    run_table2,
)

from conftest import write_result


def test_bench_table2(benchmark, table_rows):
    table2_rows = table_rows[2]
    benchmark.pedantic(
        lambda: run_table2(with_optimal=False), rounds=1, iterations=1
    )
    text = format_rows(table2_rows, "Table II — Architecture II")
    text += "\n\n" + format_comparison(
        table2_rows, PAPER_TABLE2, "Measured vs. paper (paper values in parens)"
    )
    write_result("table2.txt", text)
    for row in table2_rows:
        assert row.validated
        assert row.spills_inserted == 0  # paper: no spills at 4 regs
        assert row.aviv - row.optimal.cost <= 4


def test_bench_table2_vs_table1_shape(benchmark, table_rows):
    """Cross-table shape: smaller machine -> smaller Split-Node DAG,
    and similar code quality (paper: within ~1 instruction per block)."""
    table2_rows = table_rows[2]
    rows1 = benchmark.pedantic(
        lambda: run_table1(with_optimal=False), rounds=1, iterations=1
    )
    table1 = {row.block: row for row in rows1}
    lines = ["Block  SN(arch1)  SN(arch2)  Aviv(arch1)  Aviv(arch2)"]
    for row in table2_rows:
        one = table1[row.block]
        lines.append(
            f"{row.block:5s}  {one.split_node_nodes:9d}  "
            f"{row.split_node_nodes:9d}  {one.aviv:11d}  {row.aviv:11d}"
        )
        assert row.split_node_nodes < one.split_node_nodes
        # Removing a unit costs at most a few instructions (paper: <= 1).
        assert row.aviv <= one.aviv + 3
    write_result("table2_vs_table1.txt", "\n".join(lines))
