"""Tests for the experiment harness (Tables I and II)."""

import pytest

from repro.asmgen.program import compile_dag
from repro.errors import ReproError
from repro.eval import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    WORKLOADS,
    format_comparison,
    format_rows,
    run_experiment,
    run_table1,
    run_table2,
    workload,
)
from repro.isdl import architecture_two, example_architecture
from repro.telemetry import TelemetrySession, use_session


class TestWorkloads:
    def test_five_workloads(self):
        assert [w.name for w in WORKLOADS] == ["Ex1", "Ex2", "Ex3", "Ex4", "Ex5"]

    def test_node_counts_match_paper_exactly(self):
        for load in WORKLOADS:
            assert load.build().stats()["paper_nodes"] == load.paper_nodes

    def test_only_table_opcodes_used(self):
        from repro.ir.ops import Opcode

        allowed = {Opcode.ADD, Opcode.SUB, Opcode.MUL}
        for load in WORKLOADS:
            dag = load.build()
            opcodes = {
                dag.node(o).opcode for o in dag.operation_nodes()
            }
            assert opcodes <= allowed, load.name

    def test_lookup_by_name(self):
        assert workload("Ex3").name == "Ex3"
        with pytest.raises(ReproError):
            workload("Ex99")

    def test_inputs_cover_all_leaves(self):
        for load in WORKLOADS:
            dag = load.build()
            for symbol in dag.var_symbols():
                assert symbol in load.inputs, (load.name, symbol)

    def test_single_block(self):
        for load in WORKLOADS:
            load.build().validate()


class TestRunExperiment:
    def test_row_shape_and_validation(self):
        row = run_experiment(
            workload("Ex1"),
            example_architecture(4),
            4,
            with_optimal=True,
            optimal_budget=5_000,
        )
        assert row.block == "Ex1"
        assert row.original_nodes == 8
        assert row.split_node_nodes > row.original_nodes
        assert row.validated
        assert row.by_hand is not None
        assert row.by_hand <= row.aviv

    def test_heuristics_off_column(self):
        row = run_experiment(
            workload("Ex1"),
            example_architecture(4),
            4,
            with_optimal=False,
            with_heuristics_off=True,
        )
        assert row.aviv_no_heuristics is not None
        assert row.aviv_no_heuristics <= row.aviv

    def test_table2_shape(self):
        rows = run_table2(with_optimal=False)
        assert [r.block for r in rows] == ["Ex1", "Ex2", "Ex3", "Ex4", "Ex5"]
        assert all(r.validated for r in rows)
        assert all(r.machine.startswith("arch2") for r in rows)

    def test_architecture_two_shrinks_split_node_dag(self):
        big = run_experiment(
            workload("Ex1"), example_architecture(4), 4, with_optimal=False,
            validate=False,
        )
        small = run_experiment(
            workload("Ex1"), architecture_two(4), 4, with_optimal=False,
            validate=False,
        )
        assert small.split_node_nodes < big.split_node_nodes

    def test_small_register_files_cost_more(self):
        plenty = run_experiment(
            workload("Ex4"), example_architecture(4), 4, with_optimal=False,
            validate=False,
        )
        scarce = run_experiment(
            workload("Ex4"), example_architecture(2), 2, with_optimal=False,
            validate=False,
        )
        assert scarce.aviv >= plenty.aviv


class TestSplitNodeDagColumn:
    """The paper's "SN-DAG #Nodes" column: the node counts of the eager
    construction, which the built DAG reports through
    ``paper_node_count`` without building the transfer nodes."""

    def test_table1_counts(self):
        rows = run_table1(with_optimal=False)
        assert [r.split_node_nodes for r in rows] == [
            47, 73, 60, 98, 92, 98, 92,
        ]

    def test_table2_counts(self):
        rows = run_table2(with_optimal=False)
        assert [r.split_node_nodes for r in rows] == [28, 41, 32, 54, 51]


class TestCodeSize:
    """Code size on the example architecture (4 registers per file)."""

    #: (cover.iterations, cliques.generation_calls) per block.  The
    #: remaining-work floor stops the pruned covers early; on Ex1 and
    #: Ex2 all six stop before any clique is built.
    FLOOR_COUNTS = {"Ex1": (16, 2), "Ex2": (23, 2), "Ex3": (69, 8)}

    @pytest.mark.parametrize(
        "name, instructions", [("Ex1", 8), ("Ex2", 11), ("Ex3", 10)]
    )
    def test_compile_dag_counts(self, name, instructions):
        session = TelemetrySession()
        with use_session(session):
            compiled = compile_dag(
                workload(name).build(), example_architecture(4)
            )
        assert compiled.total_instructions == instructions
        assert compiled.total_spills == 0
        # One cover per explored assignment, six of the eight pruned
        # against the incumbent.
        assert session.counter("cover.calls") == 8
        assert session.counter("cover.bound_prunes") == 6
        iterations, generations = self.FLOOR_COUNTS[name]
        assert session.counter("cover.iterations") == iterations
        assert session.counter("cliques.generation_calls") == generations
        assert session.counter("cliques.enumerated") > 0


class TestReporting:
    def _rows(self):
        return [
            run_experiment(
                workload("Ex1"),
                example_architecture(4),
                4,
                with_optimal=False,
                validate=False,
            )
        ]

    def test_format_rows_contains_headers(self):
        text = format_rows(self._rows(), "Table I")
        assert "Table I" in text
        assert "Ex1" in text
        assert "SN-DAG" in text

    def test_format_comparison_includes_paper_values(self):
        text = format_comparison(self._rows(), PAPER_TABLE1)
        assert "(8)" in text  # paper's original node count for Ex1

    def test_paper_tables_complete(self):
        assert set(PAPER_TABLE1) == {f"Ex{i}" for i in range(1, 8)}
        assert set(PAPER_TABLE2) == {f"Ex{i}" for i in range(1, 6)}
        for row in PAPER_TABLE1.values():
            assert row["hand"] <= row["aviv"]
