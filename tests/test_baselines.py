"""Tests for the sequential baseline and the test-only branch-and-bound
oracle (``tests/branch_and_bound.py``) that the solver is checked
against."""

import pytest

from repro.baselines import sequential_block_solution
from repro.covering import HeuristicConfig, generate_block_solution
from repro.isdl import example_architecture
from repro.regalloc import allocate_registers

from branch_and_bound import optimal_block_cost
from conftest import build_fig2_dag, build_wide_dag


class TestSequentialBaseline:
    def test_produces_valid_solution(self, arch1):
        solution = sequential_block_solution(build_fig2_dag(), arch1)
        solution.validate()
        allocate_registers(solution)

    def test_both_strategies_work(self, arch1):
        for strategy in ("first", "round_robin"):
            solution = sequential_block_solution(
                build_fig2_dag(), arch1, strategy=strategy
            )
            solution.validate()

    def test_unknown_strategy_rejected(self, arch1):
        with pytest.raises(ValueError):
            sequential_block_solution(
                build_fig2_dag(), arch1, strategy="psychic"
            )

    def test_never_beats_concurrent_engine_on_wide_block(self, arch1):
        # The whole point of the paper: phase-ordered decisions cost
        # instructions.  The baseline must never be better than AVIV with
        # exhaustive exploration.
        dag = build_wide_dag(4)
        aviv = generate_block_solution(
            dag, arch1, HeuristicConfig.heuristics_off()
        )
        baseline = sequential_block_solution(dag, arch1)
        assert baseline.instruction_count >= aviv.instruction_count

    def test_first_strategy_serialises_on_first_unit(self, arch1):
        solution = sequential_block_solution(
            build_wide_dag(3), arch1, strategy="first"
        )
        units = {
            t.unit
            for t in solution.graph.tasks.values()
            if t.unit is not None
        }
        # MULs must go to U2 (first supporting unit); ADDs to U1.
        assert units <= {"U1", "U2"}

    def test_spills_under_small_banks(self):
        machine = example_architecture(2)
        solution = sequential_block_solution(build_wide_dag(6), machine)
        solution.validate()
        for bank, estimate in solution.register_estimate.items():
            assert estimate <= 2

    def test_end_to_end_correctness(self, arch1):
        from repro.asmgen.emit import emit_block
        from repro.asmgen.layout import DataLayout
        from repro.asmgen.instruction import Program, Instruction, ControlSlot, ControlKind
        from repro.simulator import run_program

        dag = build_fig2_dag()
        solution = sequential_block_solution(dag, arch1)
        registers = allocate_registers(solution)
        layout = DataLayout()
        layout.add_variables(sorted(set(dag.var_symbols()) | set(dag.store_symbols())))
        instructions = emit_block(solution, registers, layout, "entry")
        program = Program(machine_name=arch1.name)
        program.instructions = instructions + [
            Instruction(control=ControlSlot(ControlKind.HALT))
        ]
        program.labels = {"entry": 0}
        program.symbols = layout.symbols
        program.data = layout.initial_data
        env = {"a": 4, "b": 5, "c": 6, "d": 7}
        result = run_program(program, arch1, env)
        assert result.variables["out"] == (4 + 5) - (6 * 7)


class TestOptimalSearch:
    def test_matches_known_optimum_fig2(self, arch1):
        result = optimal_block_cost(build_fig2_dag(), arch1)
        engine = generate_block_solution(build_fig2_dag(), arch1)
        assert result.cost <= engine.instruction_count
        assert result.proven
        assert result.assignments_searched == 12

    def test_never_worse_than_engine(self, arch1):
        for width in (2, 3):
            dag = build_wide_dag(width)
            engine = generate_block_solution(dag, arch1)
            result = optimal_block_cost(dag, arch1)
            assert result.cost <= engine.instruction_count

    def test_budget_exhaustion_flagged(self, arch1):
        result = optimal_block_cost(
            build_wide_dag(4), arch1, node_budget=5
        )
        assert not result.proven
        assert result.cost > 0  # still an achievable upper bound

    def test_max_assignments_cap(self, arch1):
        result = optimal_block_cost(
            build_fig2_dag(), arch1, max_assignments=2
        )
        assert result.assignments_searched == 2

    def test_upper_bound_seed_respected(self, arch1):
        engine = generate_block_solution(build_fig2_dag(), arch1)
        result = optimal_block_cost(
            build_fig2_dag(), arch1, upper_bound=engine.instruction_count
        )
        assert result.cost <= engine.instruction_count

    def test_cpu_seconds_reported(self, arch1):
        result = optimal_block_cost(build_fig2_dag(), arch1)
        assert result.cpu_seconds >= 0.0
