"""Reproduction of the paper's Tables I and II (Section VI).

Each row reports, for one basic block on one architecture: the original
DAG size, the Split-Node DAG size, registers per file, spills inserted,
the minimum ("by hand", here: the constraint solver's proven minimum,
:mod:`repro.optimal`) instruction count, the instruction count AVIV
finds, and CPU time — optionally also with all heuristics turned off
(the paper's parenthesised numbers).

Every row is validated end to end: the generated program is run on the
VLIW simulator and its outputs compared against the IR interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.ir.cfg import BasicBlock, Function
from repro.ir.interp import interpret_function
from repro.isdl.builtin_machines import architecture_two, example_architecture
from repro.isdl.model import Machine
from repro.asmgen.program import compile_dag
from repro.covering.config import HeuristicConfig
from repro.covering.engine import generate_block_solution
from repro.eval.workloads import WORKLOADS, Workload
from repro.optimal import DEFAULT_CONFLICT_BUDGET, optimal_block_solution
from repro.simulator.executor import run_program
from repro.sndag.build import build_split_node_dag


@dataclass
class ExperimentRow:
    """One table row, paper-style."""

    block: str
    machine: str
    original_nodes: int
    split_node_nodes: int
    registers_per_file: int
    spills_inserted: int
    by_hand: Optional[int]
    by_hand_proven: bool
    aviv: int
    cpu_seconds: float
    aviv_no_heuristics: Optional[int] = None
    cpu_seconds_no_heuristics: Optional[float] = None
    validated: bool = False
    #: Solver effort behind the ``by_hand`` column: conflicts the
    #: search actually spent against its conflict budget, so an unproven
    #: bound ("stopped at 10" vs "stopped at 10M") carries its context.
    by_hand_conflicts: Optional[int] = None
    by_hand_budget: Optional[int] = None


#: The paper's Table I (Ex6/Ex7 are Ex4/Ex5 at 2 registers per file).
#: Columns: original nodes, split nodes, regs, spills, by-hand, aviv,
#: aviv with heuristics off.
PAPER_TABLE1: Dict[str, Dict[str, int]] = {
    "Ex1": {"orig": 8, "sn": 30, "regs": 4, "spills": 0, "hand": 7, "aviv": 7, "off": 7},
    "Ex2": {"orig": 13, "sn": 56, "regs": 4, "spills": 0, "hand": 10, "aviv": 10, "off": 10},
    "Ex3": {"orig": 11, "sn": 55, "regs": 4, "spills": 0, "hand": 13, "aviv": 13, "off": 13},
    "Ex4": {"orig": 15, "sn": 81, "regs": 4, "spills": 0, "hand": 16, "aviv": 16, "off": 16},
    "Ex5": {"orig": 16, "sn": 106, "regs": 4, "spills": 0, "hand": 14, "aviv": 16, "off": 14},
    "Ex6": {"orig": 15, "sn": 81, "regs": 2, "spills": 2, "hand": 18, "aviv": 22, "off": 18},
    "Ex7": {"orig": 16, "sn": 106, "regs": 2, "spills": 1, "hand": 15, "aviv": 18, "off": 15},
}

#: The paper's Table II (Architecture II, no heuristics-off column).
PAPER_TABLE2: Dict[str, Dict[str, int]] = {
    "Ex1": {"orig": 8, "sn": 17, "regs": 4, "spills": 0, "hand": 8, "aviv": 8},
    "Ex2": {"orig": 13, "sn": 28, "regs": 4, "spills": 0, "hand": 11, "aviv": 12},
    "Ex3": {"orig": 11, "sn": 23, "regs": 4, "spills": 0, "hand": 13, "aviv": 13},
    "Ex4": {"orig": 15, "sn": 29, "regs": 4, "spills": 0, "hand": 16, "aviv": 17},
    "Ex5": {"orig": 16, "sn": 51, "regs": 4, "spills": 0, "hand": 15, "aviv": 15},
}


def _validate_end_to_end(load: Workload, machine: Machine) -> bool:
    """Compile, simulate, and compare against the IR interpreter."""
    dag = load.build()
    function = Function(load.name)
    function.add_block(BasicBlock("entry", dag))
    reference = interpret_function(function, load.inputs)
    compiled = compile_dag(dag, machine)
    simulated = run_program(compiled.program, machine, load.inputs)
    for symbol in dag.store_symbols():
        if simulated.variables.get(symbol) != reference.get(symbol):
            return False
    return True


def run_experiment(
    load: Workload,
    machine: Machine,
    registers_per_file: int,
    config: Optional[HeuristicConfig] = None,
    with_optimal: bool = True,
    with_heuristics_off: bool = False,
    optimal_budget: int = DEFAULT_CONFLICT_BUDGET,
    validate: bool = True,
) -> ExperimentRow:
    """Run one table row."""
    config = config or HeuristicConfig.default()
    dag = load.build()
    sn = build_split_node_dag(dag, machine)
    solution = generate_block_solution(dag, machine, config, sn=sn)
    by_hand: Optional[int] = None
    proven = False
    by_hand_conflicts: Optional[int] = None
    by_hand_budget: Optional[int] = None
    if with_optimal:
        optimal = optimal_block_solution(
            dag,
            machine,
            config=config,
            conflict_budget=optimal_budget,
            sn=sn,
            heuristic_solution=solution,
        )
        by_hand = optimal.cost
        proven = optimal.proven
        by_hand_conflicts = optimal.conflicts
        by_hand_budget = optimal.conflict_budget
    row = ExperimentRow(
        block=load.name,
        machine=machine.name,
        original_nodes=dag.stats()["paper_nodes"],
        split_node_nodes=sn.paper_node_count(),
        registers_per_file=registers_per_file,
        spills_inserted=solution.spill_count,
        by_hand=by_hand,
        by_hand_proven=proven,
        aviv=solution.instruction_count,
        cpu_seconds=solution.cpu_seconds,
        by_hand_conflicts=by_hand_conflicts,
        by_hand_budget=by_hand_budget,
    )
    if with_heuristics_off:
        off = generate_block_solution(
            dag, machine, HeuristicConfig.heuristics_off(), sn=sn
        )
        row.aviv_no_heuristics = off.instruction_count
        row.cpu_seconds_no_heuristics = off.cpu_seconds
    if validate:
        row.validated = _validate_end_to_end(load, machine)
    return row


def run_table1(
    config: Optional[HeuristicConfig] = None,
    with_optimal: bool = True,
    with_heuristics_off: bool = False,
    optimal_budget: int = DEFAULT_CONFLICT_BUDGET,
) -> List[ExperimentRow]:
    """Table I: Ex1–Ex5 on the Fig. 3 architecture at 4 registers per
    file, then Ex6/Ex7 (= Ex4/Ex5) at 2 registers per file."""
    rows: List[ExperimentRow] = []
    for load in WORKLOADS:
        rows.append(
            run_experiment(
                load,
                example_architecture(4),
                4,
                config,
                with_optimal=with_optimal,
                with_heuristics_off=with_heuristics_off,
                optimal_budget=optimal_budget,
            )
        )
    for index, name in enumerate(("Ex4", "Ex5")):
        load = next(w for w in WORKLOADS if w.name == name)
        row = run_experiment(
            load,
            example_architecture(2),
            2,
            config,
            with_optimal=with_optimal,
            with_heuristics_off=with_heuristics_off,
            optimal_budget=optimal_budget,
        )
        row.block = f"Ex{6 + index}"
        rows.append(row)
    return rows


def run_table2(
    config: Optional[HeuristicConfig] = None,
    with_optimal: bool = True,
    optimal_budget: int = DEFAULT_CONFLICT_BUDGET,
) -> List[ExperimentRow]:
    """Table II: Ex1–Ex5 on Architecture II (retargetability check)."""
    rows: List[ExperimentRow] = []
    for load in WORKLOADS:
        rows.append(
            run_experiment(
                load,
                architecture_two(4),
                4,
                config,
                with_optimal=with_optimal,
                optimal_budget=optimal_budget,
            )
        )
    return rows
