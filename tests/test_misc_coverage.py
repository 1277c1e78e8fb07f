"""Focused tests for smaller behaviours across subsystems."""

import pytest

from repro.errors import (
    AssemblerError,
    ISDLParseError,
    LexError,
    NoTransferPathError,
    ParseError,
    UnmappableOperationError,
)
from repro.ir import BlockDAG, Opcode
from repro.isdl import TransferDatabase, example_architecture, parse_machine


class TestErrorMessages:
    def test_lex_error_carries_position(self):
        error = LexError("bad char", line=3, column=7)
        assert "3:7" in str(error)
        assert error.line == 3 and error.column == 7

    def test_parse_error_position(self):
        error = ParseError("oops", 2, 1)
        assert "2:1: oops" in str(error)

    def test_isdl_parse_error_position(self):
        error = ISDLParseError("nope", 5, 9)
        assert "5:9" in str(error)

    def test_unmappable_names_opcode_and_machine(self):
        error = UnmappableOperationError(Opcode.DIV, "tiny")
        assert "DIV" in str(error)
        assert "tiny" in str(error)

    def test_no_transfer_path_names_endpoints(self):
        error = NoTransferPathError("DM", "RF9")
        assert error.source == "DM"
        assert "RF9" in str(error)


class TestTransferDatabaseBounds:
    def test_max_hops_limits_search(self):
        # A chain of buses: DM-R1, R1-R2, R2-R3 — R3 is 3 hops away.
        machine = parse_machine(
            "machine chain { memory DM size 8;"
            " regfile R1 size 2; regfile R2 size 2; regfile R3 size 2;"
            " unit U1 regfile R1 { op ADD; }"
            " unit U2 regfile R2 { op ADD; }"
            " unit U3 regfile R3 { op ADD; }"
            " bus B1 connects DM, R1; bus B2 connects R1, R2;"
            " bus B3 connects R2, R3; }"
        )
        wide = TransferDatabase(machine, max_hops=4)
        assert wide.distance("DM", "R3") == 3
        narrow = TransferDatabase(machine, max_hops=2)
        with pytest.raises(NoTransferPathError):
            narrow.paths("DM", "R3")

    def test_three_hop_chain_compiles_and_runs(self):
        machine = parse_machine(
            "machine chain { memory DM size 32;"
            " regfile R1 size 3; regfile R2 size 3; regfile R3 size 3;"
            " unit U1 regfile R1 { op ADD; }"
            " unit U2 regfile R2 { op SUB; }"
            " unit U3 regfile R3 { op MUL; }"
            " bus B1 connects DM, R1; bus B2 connects R1, R2;"
            " bus B3 connects R2, R3; }"
        )
        from repro.asmgen import compile_dag
        from repro.simulator import run_program

        dag = BlockDAG()
        dag.store(
            "p", dag.operation(Opcode.MUL, (dag.var("a"), dag.var("b")))
        )
        compiled = compile_dag(dag, machine)
        result = run_program(compiled.program, machine, {"a": 6, "b": 7})
        assert result.variables["p"] == 42
        # The value had to ride three buses each way.
        buses_used = {
            t.bus
            for i in compiled.program.instructions
            for t in i.transfers
        }
        assert buses_used == {"B1", "B2", "B3"}


class TestEncoderLimits:
    def test_field_overflow_raises(self):
        from repro.assembler.encoder import _Cursor

        cursor = _Cursor()
        with pytest.raises(AssemblerError):
            cursor.write(3, 8)  # 8 needs 4 bits

    def test_unknown_op_rejected_at_encode(self):
        from repro.asmgen.instruction import (
            Instruction,
            OpSlot,
            Program,
            RegRef,
        )
        from repro.assembler import encode_program

        machine = example_architecture(4)
        program = Program(machine_name=machine.name)
        program.instructions.append(
            Instruction(
                ops=(
                    OpSlot(
                        "U1",
                        "MUL",  # U1 has no MUL
                        RegRef("RF1", 0),
                        (RegRef("RF1", 0), RegRef("RF1", 1)),
                    ),
                )
            )
        )
        with pytest.raises(AssemblerError):
            encode_program(program, machine)


class TestPipelineCustomisation:
    def test_custom_pass_list(self):
        from repro.frontend import compile_source
        from repro.opt import constant_fold, optimize_block

        function = compile_source("x = 1 + 2 + a * 1;", optimize=False)
        block = next(iter(function))
        optimize_block(block, passes=[constant_fold])
        # Folding ran (1+2 collapses) but algebraic didn't (a*1 stays).
        opcodes = [
            block.dag.node(o).opcode for o in block.dag.operation_nodes()
        ]
        assert Opcode.MUL in opcodes
        assert len(opcodes) == 2  # MUL and the outer ADD


class TestReportingEdgeCases:
    @staticmethod
    def _row(cost, proven):
        """A row whose Optimal cell reads ``cost`` (``None``: unsolved),
        its solve taken from one real Ex1 solve."""
        import dataclasses

        from repro.eval import run_experiment, workload

        row = run_experiment(
            workload("Ex1"), example_architecture(4), 4, optimal_budget=0
        )
        row.aviv = 6
        if cost is None:
            row.optimal = None
        else:
            row.optimal = dataclasses.replace(
                row.optimal, cost=cost, proven=proven
            )
        return row

    def test_unproven_optimal_gets_asterisk(self):
        from repro.eval.reporting import format_rows

        assert "5*" in format_rows([self._row(5, False)])

    def test_missing_optimal_renders_dash(self):
        from repro.eval.reporting import format_rows

        assert "-" in format_rows([self._row(None, False)])

    def test_legend_only_when_a_row_is_starred(self):
        from repro.eval.reporting import format_rows

        assert "(* =" not in format_rows([self._row(5, True)])
        assert "(* =" not in format_rows([self._row(None, False)])
        assert "(* =" in format_rows([self._row(5, False)])

    @pytest.mark.parametrize(
        "cost, proven, cell",
        [(None, False, "-"), (5, False, "+1*"), (5, True, "+1")],
    )
    def test_comparison_gap_cell(self, cost, proven, cell):
        from repro.eval.experiments import PAPER_TABLE1
        from repro.eval.reporting import format_comparison

        text = format_comparison([self._row(cost, proven)], PAPER_TABLE1)
        assert text.splitlines()[-1].endswith(f" {cell} [paper +0]")


class TestScheduleTableWithStalls:
    def test_nop_rows_render(self):
        from repro.covering import generate_block_solution
        from repro.covering.render import schedule_table
        from repro.isdl import pipelined_dsp_architecture

        dag = BlockDAG()
        a, b, c = dag.var("a"), dag.var("b"), dag.var("c")
        dag.store(
            "p",
            dag.operation(
                Opcode.MUL, (dag.operation(Opcode.MUL, (a, b)), c)
            ),
        )
        solution = generate_block_solution(
            dag, pipelined_dsp_architecture(4)
        )
        table = schedule_table(solution)
        rows = [
            line
            for line in table.splitlines()
            if line[:5].strip().isdigit()
        ]
        assert len(rows) == solution.instruction_count


class TestDegenerateBlocks:
    def _run(self, source, env):
        from repro.asmgen import compile_function
        from repro.frontend import compile_source
        from repro.simulator import run_program

        machine = example_architecture(4)
        compiled = compile_function(compile_source(source), machine)
        return compiled, run_program(compiled.program, machine, env)

    def test_empty_program_is_just_halt(self):
        compiled, result = self._run("", {})
        assert compiled.total_instructions == 1
        assert result.cycles == 1

    def test_store_constant_only(self):
        _compiled, result = self._run("x = 7;", {})
        assert result.variables["x"] == 7

    def test_copy_variable_memory_to_memory(self):
        compiled, result = self._run("y = x;", {"x": 9})
        assert result.variables["y"] == 9
        # No functional unit needed: a single DM->DM bus copy.
        assert all(
            not i.ops for i in compiled.program.instructions
        )

    def test_self_copy_is_harmless(self):
        _compiled, result = self._run("x = x;", {"x": 5})
        assert result.variables["x"] == 5

    def test_swap_through_temp(self):
        _compiled, result = self._run(
            "t = a; a = b; b = t;", {"a": 1, "b": 2}
        )
        assert result.variables["a"] == 2
        assert result.variables["b"] == 1


class TestLiveOutAndVariables:
    def test_live_out_candidates(self):
        dag = BlockDAG()
        dag.store("x", dag.var("a"))
        dag.store("y", dag.const(1))
        assert dag.live_out_candidates() == {"x", "y"}

    def test_program_listing_end_label(self):
        from repro.asmgen.instruction import Instruction, Program

        program = Program(machine_name="m")
        program.instructions.append(Instruction())
        program.labels["end"] = 1  # label after the last instruction
        listing = program.listing()
        assert listing.rstrip().endswith("end:")
