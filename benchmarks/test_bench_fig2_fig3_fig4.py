"""Figures 2, 3, and 4 — the running example.

- Fig. 2: the example basic-block DAG (regenerated as stats + DOT).
- Fig. 3: the example target architecture (regenerated as the machine
  description summary and its ISDL-lite source).
- Fig. 4: the Split-Node DAG of the Fig. 2 block on the Fig. 3 machine
  (regenerated as node-kind counts, the 2x2x3 = 12 assignment space the
  paper computes in Section IV-A, and DOT).
"""

from __future__ import annotations

import pytest

from repro.ir import BlockDAG, Opcode, dag_to_dot, format_dag
from repro.isdl import TransferDatabase, OperationDatabase, example_architecture, machine_to_isdl
from repro.sndag import build_split_node_dag, split_node_dag_to_dot

from conftest import write_result


def _fig2_dag() -> BlockDAG:
    dag = BlockDAG()
    a, b, c, d = dag.var("a"), dag.var("b"), dag.var("c"), dag.var("d")
    add = dag.operation(Opcode.ADD, (a, b))
    mul = dag.operation(Opcode.MUL, (c, d))
    sub = dag.operation(Opcode.SUB, (add, mul))
    dag.store("out", sub)
    return dag


def test_bench_fig2_block_dag(benchmark):
    dag = benchmark(_fig2_dag)
    stats = dag.stats()
    text = "Fig. 2 — sample basic block DAG\n"
    text += format_dag(dag) + "\n"
    text += f"stats: {stats}\n"
    write_result("fig2_dag.txt", text)
    write_result("fig2_dag.dot", dag_to_dot(dag, "fig2"))
    assert stats["operation_nodes"] == 3
    assert stats["leaf_nodes"] == 4


def test_bench_fig3_architecture(benchmark):
    machine = benchmark(example_architecture, 4)
    db = OperationDatabase(machine)
    transfers = TransferDatabase(machine)
    text = "Fig. 3 — example target architecture\n"
    text += machine.describe() + "\n\nISDL-lite source:\n"
    text += machine_to_isdl(machine) + "\n"
    text += "\noperation database:\n"
    for opcode in db.supported_opcodes():
        units = ", ".join(m.unit for m in db.matches(opcode))
        text += f"  {opcode.name}: {units}\n"
    text += f"direct transfers: {len(transfers.direct_transfers())}\n"
    write_result("fig3_architecture.txt", text)
    assert [m.unit for m in db.matches(Opcode.ADD)] == ["U1", "U2", "U3"]
    assert [m.unit for m in db.matches(Opcode.SUB)] == ["U1", "U2"]
    assert [m.unit for m in db.matches(Opcode.MUL)] == ["U2", "U3"]


def test_bench_fig4_split_node_dag(benchmark):
    machine = example_architecture(4)
    dag = _fig2_dag()
    sn = benchmark(build_split_node_dag, dag, machine)
    stats = sn.stats()
    text = "Fig. 4 — Split-Node DAG of the Fig. 2 block on the Fig. 3 machine\n"
    text += f"stats: {stats}\n"
    text += f"assignment space: {sn.assignment_space_size()} (paper: 2 x 2 x 3 = 12)\n"
    text += (
        "paper's Split-Node DAG had 30 nodes for the 8-node Ex1 block; "
        f"this block yields {sn.paper_node_count()} nodes with the eager "
        "transfer expansion (same growth shape)\n"
    )
    write_result("fig4_split_node_dag.txt", text)
    write_result("fig4_split_node_dag.dot", split_node_dag_to_dot(sn, "fig4"))
    assert sn.assignment_space_size() == 12
    assert stats["split_nodes"] == 4  # 3 ops + 1 store
    assert stats["alternative_nodes"] == 7  # 3 ADD + 2 SUB + 2 MUL
    assert sn.paper_node_count() >= 3 * dag.stats()["paper_nodes"]
