"""Figure 6 — pruning the search space of split-node assignments.

Regenerates the paper's worked example: the Fig. 2 block feeding a
COMPL sink that only unit U1 can execute.  The incremental costs must
come out exactly as in the figure — SUB@U1 = 0, SUB@U2 = 1 (pruned),
MUL@U2 = MUL@U3 (both explored), ADD@U1 = 2, ADD@U2 = 4 (pruned) — and
the pruned exploration must select exactly the two assignments with SUB
and ADD on U1.
"""

from __future__ import annotations

import pytest

from repro.covering import HeuristicConfig, explore_assignments
from repro.covering.assignment import _CostModel, _Partial
from repro.ir import BlockDAG, Opcode
from repro.isdl import fig6_architecture
from repro.sndag import build_split_node_dag

from conftest import write_result


def _fig6_dag() -> BlockDAG:
    dag = BlockDAG()
    a, b, c, d = dag.var("a"), dag.var("b"), dag.var("c"), dag.var("d")
    add = dag.operation(Opcode.ADD, (a, b))
    mul = dag.operation(Opcode.MUL, (c, d))
    sub = dag.operation(Opcode.SUB, (add, mul))
    compl = dag.operation(Opcode.NOT, (sub,))
    dag.store("out", compl)
    return dag


def _alt(sn, op_id, unit):
    return next(a for a in sn.alternatives(op_id) if a.unit == unit)


def test_bench_fig6_incremental_costs(benchmark):
    machine = fig6_architecture(4)
    dag = _fig6_dag()
    sn = build_split_node_dag(dag, machine)
    model = _CostModel(sn)
    ops = {dag.node(o).opcode: o for o in dag.operation_nodes()}
    compl, sub, mul, add = (
        ops[Opcode.NOT],
        ops[Opcode.SUB],
        ops[Opcode.MUL],
        ops[Opcode.ADD],
    )

    def compute_costs():
        partial = _Partial(choice={compl: _alt(sn, compl, "U1")}, cost=0)
        costs = {
            "SUB@U1": model.incremental_cost(partial, sub, _alt(sn, sub, "U1")),
            "SUB@U2": model.incremental_cost(partial, sub, _alt(sn, sub, "U2")),
        }
        partial = partial.extended(_alt(sn, sub, "U1"), 0)
        costs["MUL@U2"] = model.incremental_cost(
            partial, mul, _alt(sn, mul, "U2")
        )
        costs["MUL@U3"] = model.incremental_cost(
            partial, mul, _alt(sn, mul, "U3")
        )
        partial = partial.extended(_alt(sn, mul, "U2"), 0)
        costs["ADD@U1"] = model.incremental_cost(
            partial, add, _alt(sn, add, "U1")
        )
        costs["ADD@U2"] = model.incremental_cost(
            partial, add, _alt(sn, add, "U2")
        )
        return costs

    costs = benchmark(compute_costs)
    paper = {
        "SUB@U1": 0,
        "SUB@U2": 1,
        "ADD@U1": 2,
        "ADD@U2": 4,
    }
    lines = ["Fig. 6 — incremental assignment costs (paper value in parens)"]
    for key in ("SUB@U1", "SUB@U2", "MUL@U2", "MUL@U3", "ADD@U1", "ADD@U2"):
        expected = paper.get(key, "equal pair")
        lines.append(f"  {key}: {costs[key]} ({expected})")
    write_result("fig6_incremental_costs.txt", "\n".join(lines))
    for key, expected in paper.items():
        assert costs[key] == expected, key
    assert costs["MUL@U2"] == costs["MUL@U3"]  # "both paths are explored"


def test_bench_fig6_pruned_exploration(benchmark):
    machine = fig6_architecture(4)
    dag = _fig6_dag()
    sn = build_split_node_dag(dag, machine)
    assignments = benchmark(
        explore_assignments, sn, HeuristicConfig.default()
    )
    ops = {dag.node(o).opcode: o for o in dag.operation_nodes()}
    lines = [
        "Fig. 6 — surviving assignments after pruning "
        "(paper: the two with SUB and ADD on U1)"
    ]
    for assignment in assignments:
        placement = {
            dag.node(op).opcode.name: alt.unit
            for op, alt in assignment.choice.items()
        }
        lines.append(f"  cost {assignment.cost}: {placement}")
    write_result("fig6_pruned_assignments.txt", "\n".join(lines))
    assert len(assignments) == 2
    for assignment in assignments:
        assert assignment.unit_of(ops[Opcode.SUB]) == "U1"
        assert assignment.unit_of(ops[Opcode.ADD]) == "U1"
    assert {a.unit_of(ops[Opcode.MUL]) for a in assignments} == {"U2", "U3"}
