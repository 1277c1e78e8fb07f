"""Differential test: two independent optimality oracles must agree.

The test-only oracle ``tests/branch_and_bound.py`` proves minimal block
lengths by branch-and-bound over shrunk maximal cliques;
:mod:`repro.optimal` proves them by SAT with makespan tightening.  The
two searches share nothing but the assignment enumeration, so wherever
*both* claim a proof they must name the same number — any disagreement
is a soundness bug in one of them.
"""

import pytest

from repro.eval.workloads import WORKLOADS
from repro.isdl import example_architecture
from repro.optimal import optimal_block_solution

from branch_and_bound import optimal_block_cost
from conftest import build_fig2_dag, build_wide_dag


def _workload_dag(name):
    return next(w for w in WORKLOADS if w.name == name).build()


CASES = [
    ("fig2", build_fig2_dag, 4),
    ("fig2", build_fig2_dag, 2),
    ("wide3", lambda: build_wide_dag(3), 4),
    ("wide4", lambda: build_wide_dag(4), 4),
    ("Ex1", lambda: _workload_dag("Ex1"), 4),
    ("Ex2", lambda: _workload_dag("Ex2"), 4),
]


@pytest.mark.parametrize(
    "label,build,registers", CASES, ids=[f"{c[0]}-r{c[2]}" for c in CASES]
)
def test_proven_optima_agree(label, build, registers):
    machine = example_architecture(registers)
    exhaustive = optimal_block_cost(build(), machine)
    solver = optimal_block_solution(build(), machine)
    assert solver.proven, f"{label}: solver did not finish"
    if not exhaustive.proven:
        pytest.skip(f"{label}: exhaustive baseline hit its node budget")
    assert exhaustive.cost == solver.cost, (
        f"{label} r{registers}: exhaustive proved {exhaustive.cost}, "
        f"solver proved {solver.cost}"
    )


def test_node_budget_surfaced():
    """Satellite: the exhaustive result must say how hard it looked."""
    machine = example_architecture(4)
    result = optimal_block_cost(
        build_wide_dag(4), machine, node_budget=10
    )
    assert result.node_budget == 10
    assert result.nodes_expanded >= 0
    if not result.proven:
        # "timed out at 10", and the report can prove it.
        assert result.nodes_expanded >= 10


def test_truncated_budget_not_proven():
    machine = example_architecture(4)
    tight = optimal_block_cost(build_wide_dag(4), machine, node_budget=5)
    if tight.proven:
        pytest.skip("block too easy to exhaust a 5-node budget")
    full = optimal_block_cost(build_wide_dag(4), machine)
    assert full.node_budget > tight.node_budget
    assert tight.cost >= full.cost  # unproven bound is only an upper bound
