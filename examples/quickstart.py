"""Quickstart: compile one basic block for the paper's Fig. 3 VLIW.

Run with::

    python examples/quickstart.py

Pipeline shown here: minic source → expression DAG → Split-Node DAG →
concurrent covering (unit assignment + grouping + register banks +
scheduling) → detailed register allocation → VLIW assembly → simulation,
validated against the reference interpreter.
"""

from repro import (
    compile_function,
    compile_source,
    example_architecture,
    interpret_function,
    run_program,
)
from repro.sndag import build_split_node_dag


def main() -> None:
    source = """
        # part of a DSP conditional arm (the paper's Ex1-style block)
        y0 = (a + b) * (a - c);
        y1 = y0 + d;
    """
    function = compile_source(source)
    machine = example_architecture(registers_per_file=4)
    print(machine.describe())
    print()

    block = next(iter(function))
    sn = build_split_node_dag(block.dag, machine)
    print(f"original DAG: {block.dag.stats()['paper_nodes']} nodes")
    print(f"Split-Node DAG: {sn.paper_node_count()} nodes "
          f"({sn.assignment_space_size()} possible assignments)")
    print()

    compiled = compile_function(function, machine)
    print(compiled.program.listing())
    print()

    inputs = {"a": 7, "b": 3, "c": 2, "d": 11}
    reference = interpret_function(function, inputs)
    result = run_program(compiled.program, machine, inputs)
    print(f"inputs:   {inputs}")
    print(f"simulator: y0={result.variables['y0']} y1={result.variables['y1']}")
    print(f"reference: y0={reference['y0']} y1={reference['y1']}")
    assert result.variables["y0"] == reference["y0"]
    assert result.variables["y1"] == reference["y1"]
    print(f"\nOK — {compiled.total_instructions} instructions, "
          f"{result.cycles} cycles")


if __name__ == "__main__":
    main()
