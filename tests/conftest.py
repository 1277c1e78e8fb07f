"""Shared fixtures: machines, canonical DAGs, and helpers."""

from __future__ import annotations

import random

import pytest

from reference_kernel import KERNELS, reference_kernel
from repro.ir import BasicBlock, BlockDAG, Function, Opcode
from repro.isdl import (
    architecture_two,
    control_flow_architecture,
    dual_bus_architecture,
    example_architecture,
    fig6_architecture,
    mac_dsp_architecture,
    single_unit_architecture,
)


@pytest.fixture(autouse=True)
def _seeded_rngs():
    """Pin the global RNG before every test.

    Nothing in the library is supposed to touch global randomness (the
    fuzzer threads explicit ``random.Random`` objects), but tests that
    build examples with ``random`` directly stay order-independent and
    reproducible this way.
    """
    random.seed(0x5EED)
    yield


@pytest.fixture(autouse=True)
def _reference_kernel_marker(request):
    """Tests marked ``reference_kernel`` run on the test-only reference
    covering loop (``tests/reference_kernel.py``) instead of production."""
    if request.node.get_closest_marker("reference_kernel") is None:
        yield
        return
    with reference_kernel():
        yield


@pytest.fixture
def arch1():
    """The paper's Fig. 3 architecture, 4 registers per file."""
    return example_architecture(4)


@pytest.fixture
def arch1_small():
    """Fig. 3 architecture with 2 registers per file (Ex6/Ex7 setting)."""
    return example_architecture(2)


@pytest.fixture
def arch2():
    """Table II's Architecture II."""
    return architecture_two(4)


@pytest.fixture
def arch_fig6():
    return fig6_architecture(4)


@pytest.fixture
def arch_dual():
    return dual_bus_architecture(4)


@pytest.fixture
def arch_mac():
    return mac_dsp_architecture(4)


@pytest.fixture
def arch_single():
    return single_unit_architecture(8)


@pytest.fixture
def arch_cf():
    return control_flow_architecture(4)


def build_fig2_dag() -> BlockDAG:
    """The paper's Fig. 2-style block: out = (a+b) - (c*d)."""
    dag = BlockDAG()
    a, b, c, d = dag.var("a"), dag.var("b"), dag.var("c"), dag.var("d")
    add = dag.operation(Opcode.ADD, (a, b))
    mul = dag.operation(Opcode.MUL, (c, d))
    sub = dag.operation(Opcode.SUB, (add, mul))
    dag.store("out", sub)
    return dag


def build_fig6_dag() -> BlockDAG:
    """Fig. 6's variant: the SUB feeds a COMPL (NOT) sink on U1."""
    dag = BlockDAG()
    a, b, c, d = dag.var("a"), dag.var("b"), dag.var("c"), dag.var("d")
    add = dag.operation(Opcode.ADD, (a, b))
    mul = dag.operation(Opcode.MUL, (c, d))
    sub = dag.operation(Opcode.SUB, (add, mul))
    compl = dag.operation(Opcode.NOT, (sub,))
    dag.store("out", compl)
    return dag


def build_wide_dag(width: int = 4) -> BlockDAG:
    """A two-level reduction over 2*width leaves (lots of parallelism)."""
    dag = BlockDAG()
    products = []
    for i in range(width):
        x = dag.var(f"x{i}")
        y = dag.var(f"y{i}")
        products.append(dag.operation(Opcode.MUL, (x, y)))
    total = products[0]
    for product in products[1:]:
        total = dag.operation(Opcode.ADD, (total, product))
    dag.store("sum", total)
    return dag


@pytest.fixture
def fig2_dag():
    return build_fig2_dag()


@pytest.fixture
def fig6_dag():
    return build_fig6_dag()


@pytest.fixture
def wide_dag():
    return build_wide_dag()


def single_block_function(dag: BlockDAG, name: str = "main") -> Function:
    function = Function(name)
    function.add_block(BasicBlock("entry", dag))
    return function


def solve_both_kernels(dag: BlockDAG, machine, **overrides):
    """Schedule ``dag`` with the production covering loop (``"bitmask"``)
    and the test-only reference oracle (``"reference"``), normalised
    word-by-word: kernel name -> (sorted schedule, spills, reloads), or
    ``("error", message)`` when covering fails.
    """
    from repro.covering import HeuristicConfig, generate_block_solution
    from repro.errors import CoverageError

    config = HeuristicConfig(**overrides)
    outcome = {}
    for kernel, context in KERNELS:
        try:
            with context():
                solution = generate_block_solution(dag, machine, config)
        except CoverageError as error:
            outcome[kernel] = ("error", str(error))
            continue
        outcome[kernel] = (
            [sorted(word) for word in solution.schedule],
            solution.spill_count,
            solution.reload_count,
        )
    return outcome
