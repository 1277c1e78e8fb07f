"""Reproduction of the paper's Tables I and II (Section VI).

Each row reports, for one basic block on one architecture: the original
DAG size, the Split-Node DAG size, registers per file, spills inserted,
the minimum ("by hand", here: the constraint solver's proven minimum,
:mod:`repro.optimal`) instruction count, the instruction count AVIV
finds, and CPU time — optionally also with all heuristics turned off
(the paper's parenthesised numbers).

Every row compiles its block once and is validated end to end: that
program is run on the VLIW simulator and its outputs compared against
the IR interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.cfg import BasicBlock, Function
from repro.ir.interp import interpret_function
from repro.isdl.builtin_machines import BUILTIN_MACHINES
from repro.isdl.model import Machine
from repro.asmgen.program import compile_dag
from repro.covering.config import HeuristicConfig
from repro.covering.engine import generate_block_solution
from repro.eval.workloads import Workload, workload
from repro.optimal import (
    DEFAULT_CONFLICT_BUDGET,
    OptimalSolveResult,
    optimal_block_solution,
)
from repro.simulator.executor import run_program


@dataclass
class ExperimentRow:
    """One table row, paper-style."""

    block: str
    #: The workload compiled (``Ex4`` for the paper's Ex6 row).
    workload: str
    machine: str
    original_nodes: int
    split_node_nodes: int
    registers_per_file: int
    spills_inserted: int
    aviv: int
    cpu_seconds: float
    #: Whether the row's program matched the IR interpreter.
    validated: bool
    #: The solve behind the Optimal column (``None`` when not solved).
    optimal: Optional[OptimalSolveResult] = None
    aviv_no_heuristics: Optional[int] = None
    cpu_seconds_no_heuristics: Optional[float] = None

    @property
    def ok(self) -> bool:
        """Valid, and proven optimal when solved: no ``NO``, no ``*``."""
        return self.validated and (
            self.optimal is None or self.optimal.proven
        )


#: The rows of Tables I and II: (label, workload, machine, registers per
#: file).  Table I is Ex1–Ex5 on the Fig. 3 architecture at 4 registers
#: per file, then Ex6/Ex7 (= Ex4/Ex5) at 2; Table II is Ex1–Ex5 on
#: Architecture II.
PAPER_ROWS: Tuple[Tuple[str, str, str, int], ...] = (
    ("Ex1", "Ex1", "arch1", 4),
    ("Ex2", "Ex2", "arch1", 4),
    ("Ex3", "Ex3", "arch1", 4),
    ("Ex4", "Ex4", "arch1", 4),
    ("Ex5", "Ex5", "arch1", 4),
    ("Ex6", "Ex4", "arch1", 2),
    ("Ex7", "Ex5", "arch1", 2),
    ("Ex1", "Ex1", "arch2", 4),
    ("Ex2", "Ex2", "arch2", 4),
    ("Ex3", "Ex3", "arch2", 4),
    ("Ex4", "Ex4", "arch2", 4),
    ("Ex5", "Ex5", "arch2", 4),
)

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


def run_experiment(
    load: Workload,
    machine: Machine,
    registers_per_file: int,
    config: Optional[HeuristicConfig] = None,
    with_optimal: bool = True,
    with_heuristics_off: bool = False,
    optimal_budget: int = DEFAULT_CONFLICT_BUDGET,
) -> ExperimentRow:
    """Run one table row."""
    config = config or HeuristicConfig.default()
    dag = load.build()
    # Without peephole: it compacts the schedule in place, and the Aviv
    # and #Spills columns report the covering engine's counts.
    compiled = compile_dag(dag, machine, config, peephole=False)
    solution = compiled.blocks["entry"].solution
    function = Function(load.name)
    function.add_block(BasicBlock("entry", dag))
    reference = interpret_function(function, load.inputs)
    simulated = run_program(compiled.program, machine, load.inputs)
    row = ExperimentRow(
        block=load.name,
        workload=load.name,
        machine=machine.name,
        original_nodes=dag.stats()["paper_nodes"],
        split_node_nodes=solution.sn.paper_node_count(),
        registers_per_file=registers_per_file,
        spills_inserted=solution.spill_count,
        aviv=solution.instruction_count,
        cpu_seconds=solution.cpu_seconds,
        validated=all(
            simulated.variables.get(symbol) == reference.get(symbol)
            for symbol in dag.store_symbols()
        ),
    )
    if with_optimal:
        row.optimal = optimal_block_solution(
            dag,
            machine,
            config=config,
            conflict_budget=optimal_budget,
            sn=solution.sn,
            heuristic_solution=solution,
        )
    if with_heuristics_off:
        off = generate_block_solution(
            dag, machine, HeuristicConfig.heuristics_off(), sn=solution.sn
        )
        row.aviv_no_heuristics = off.instruction_count
        row.cpu_seconds_no_heuristics = off.cpu_seconds
    return row


def _run_rows(
    machine_key: str,
    config: Optional[HeuristicConfig],
    with_optimal: bool,
    with_heuristics_off: bool,
    optimal_budget: int,
) -> List[ExperimentRow]:
    """The :data:`PAPER_ROWS` on one machine, in order."""
    rows: List[ExperimentRow] = []
    for label, name, key, registers in PAPER_ROWS:
        if key != machine_key:
            continue
        row = run_experiment(
            workload(name),
            BUILTIN_MACHINES[key](registers),
            registers,
            config,
            with_optimal=with_optimal,
            with_heuristics_off=with_heuristics_off,
            optimal_budget=optimal_budget,
        )
        row.block = label
        rows.append(row)
    return rows


def run_table1(
    config: Optional[HeuristicConfig] = None,
    with_optimal: bool = True,
    with_heuristics_off: bool = False,
    optimal_budget: int = DEFAULT_CONFLICT_BUDGET,
) -> List[ExperimentRow]:
    """Table I: Ex1–Ex5 on the Fig. 3 architecture at 4 registers per
    file, then Ex6/Ex7 (= Ex4/Ex5) at 2 registers per file."""
    return _run_rows(
        "arch1", config, with_optimal, with_heuristics_off, optimal_budget
    )


def run_table2(
    config: Optional[HeuristicConfig] = None,
    with_optimal: bool = True,
    optimal_budget: int = DEFAULT_CONFLICT_BUDGET,
) -> List[ExperimentRow]:
    """Table II: Ex1–Ex5 on Architecture II (retargetability check)."""
    return _run_rows("arch2", config, with_optimal, False, optimal_budget)
