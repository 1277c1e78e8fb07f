"""Tests for multi-cycle operation latencies (exposed-pipeline VLIWs).

The paper's targets are single-cycle; this extension schedules around
``MachineOp.latency`` (dependents wait, NOP words fill unavoidable
stalls, branch conditions finish before the control slot reads them)
and the simulator models the delayed write-back.
"""

import pytest

from repro.asmgen import compile_dag, compile_function
from repro.covering import generate_block_solution, solve_block
from repro.ir import (
    BasicBlock,
    BlockDAG,
    Branch,
    Function,
    Jump,
    Opcode,
    Return,
    interpret_function,
)
from repro.isdl import parse_machine, pipelined_dsp_architecture
from repro.simulator import run_program

from conftest import build_fig2_dag


@pytest.fixture
def pipe():
    return pipelined_dsp_architecture(4)


def _check(dag, machine, env):
    function = Function("f")
    function.add_block(BasicBlock("entry", dag))
    reference = interpret_function(function, env)
    compiled = compile_dag(dag, machine)
    simulated = run_program(compiled.program, machine, env)
    for symbol in dag.store_symbols():
        assert simulated.variables[symbol] == reference[symbol], symbol
    return compiled


class TestScheduling:
    def test_dependent_waits_for_latency(self, pipe):
        dag = build_fig2_dag()
        solution = generate_block_solution(dag, pipe)
        solution.validate()  # validate() checks issue + latency
        graph = solution.graph
        mul = next(
            t.task_id for t in graph.tasks.values() if t.op_name == "MUL"
        )
        consumers = graph.consumers_of(mul)
        mul_cycle = solution.cycle_of(mul)
        for consumer in consumers:
            assert solution.cycle_of(consumer) >= mul_cycle + 2

    def test_nop_inserted_when_nothing_ready(self, pipe):
        # Two chained multiplies leave an unavoidable bubble.
        dag = BlockDAG()
        a, b, c = dag.var("a"), dag.var("b"), dag.var("c")
        first = dag.operation(Opcode.MUL, (a, b))
        second = dag.operation(Opcode.MUL, (first, c))
        dag.store("p", second)
        solution = generate_block_solution(dag, pipe)
        solution.validate()
        # With one dependence chain and a single bus, at least one
        # stall-or-fill cycle separates the MULs.
        graph = solution.graph
        muls = sorted(
            solution.cycle_of(t.task_id)
            for t in graph.tasks.values()
            if t.op_name == "MUL"
        )
        assert muls[1] - muls[0] >= 2

    def test_latency_query(self, pipe):
        dag = build_fig2_dag()
        solution = generate_block_solution(dag, pipe)
        graph = solution.graph
        for task in graph.tasks.values():
            if task.op_name == "MUL":
                assert graph.latency(task.task_id) == 2
            else:
                assert graph.latency(task.task_id) == 1
        assert graph.has_multi_cycle_ops()

    def test_branch_condition_completes_before_control(self, pipe):
        block = BasicBlock("entry")
        x, y = block.dag.var("x"), block.dag.var("y")
        product = block.dag.operation(Opcode.MUL, (x, y))
        block.dag.store("m", product)
        block.set_terminator(Branch(product, "then", "else"))
        solution, _ = solve_block(block, pipe)
        pinned = next(iter(solution.graph.pinned))
        assert (
            solution.cycle_of(pinned) + solution.graph.latency(pinned)
            <= solution.instruction_count
        )


class TestSimulation:
    def test_end_to_end_fig2(self, pipe):
        _check(build_fig2_dag(), pipe, {"a": 3, "b": 4, "c": 5, "d": 6})

    def test_end_to_end_chained_muls(self, pipe):
        dag = BlockDAG()
        a, b, c = dag.var("a"), dag.var("b"), dag.var("c")
        dag.store(
            "p",
            dag.operation(
                Opcode.MUL, (dag.operation(Opcode.MUL, (a, b)), c)
            ),
        )
        compiled = _check(dag, pipe, {"a": 2, "b": 3, "c": 7})
        result = run_program(
            compiled.program, pipe, {"a": 2, "b": 3, "c": 7}
        )
        assert result.variables["p"] == 42

    def test_end_to_end_under_pressure(self):
        machine = pipelined_dsp_architecture(2)
        dag = BlockDAG()
        total = None
        for i in range(4):
            product = dag.operation(
                Opcode.MUL, (dag.var(f"x{i}"), dag.var(f"y{i}"))
            )
            total = (
                product
                if total is None
                else dag.operation(Opcode.ADD, (total, product))
            )
        dag.store("sum", total)
        env = {f"x{i}": i + 1 for i in range(4)}
        env.update({f"y{i}": i - 2 for i in range(4)})
        _check(dag, machine, env)

    def test_control_flow_with_latency(self):
        source = parse_machine(
            """
            machine pipecf {
              memory DM size 256;
              regfile RF1 size 4;
              regfile RF2 size 4;
              unit U1 regfile RF1 { op ADD; op SUB; op LT; op GT; }
              unit U2 regfile RF2 { op ADD; op MUL latency 3; }
              bus B1 connects DM, RF1, RF2;
            }
            """
        )
        function = Function("f")
        entry = function.new_block("entry")
        x = entry.dag.var("x")
        squared = entry.dag.operation(Opcode.MUL, (x, x))
        entry.dag.store("sq", squared)
        condition = entry.dag.operation(
            Opcode.GT, (entry.dag.var("x"), entry.dag.const(0))
        )
        entry.set_terminator(Branch(condition, "pos", "done"))
        pos = function.new_block("pos")
        pos.dag.store(
            "sq",
            dag_neg := pos.dag.operation(
                Opcode.ADD, (pos.dag.var("sq"), pos.dag.const(1))
            ),
        )
        pos.set_terminator(Jump("done"))
        function.new_block("done")
        reference = interpret_function(function, {"x": 5})
        compiled = compile_function(function, source)
        result = run_program(compiled.program, source, {"x": 5})
        assert result.variables["sq"] == reference["sq"] == 26

    def test_single_cycle_machines_unaffected(self, arch1):
        # Same block, single-cycle machine: no NOPs appear.
        dag = build_fig2_dag()
        compiled = compile_dag(dag, arch1)
        assert all(
            not i.is_empty()
            for i in compiled.program.instructions[:-1]  # HALT excluded
        )


class TestBaselineAndPeephole:
    def test_sequential_baseline_respects_latency(self, pipe):
        from repro.baselines import sequential_block_solution

        dag = build_fig2_dag()
        solution = sequential_block_solution(dag, pipe)
        solution.validate()

    def test_peephole_keeps_latency_gaps(self, pipe):
        dag = build_fig2_dag()
        solution = generate_block_solution(dag, pipe)
        from repro.peephole import peephole_optimize

        peephole_optimize(solution)
        solution.validate()

    def test_optimal_search_rejects_multi_cycle(self, pipe):
        from branch_and_bound import optimal_block_cost
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            optimal_block_cost(build_fig2_dag(), pipe)
