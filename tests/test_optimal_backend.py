"""Tests for the optimal backend: driver honesty, engine plumbing,
fuzz-oracle wiring, explain integration, and the gap-bench schema."""

import copy

import pytest

from repro.asmgen.emit import emit_block
from repro.asmgen.layout import DataLayout
from repro.asmgen.program import compile_dag, compile_function
from repro.covering import (
    HeuristicConfig,
    generate_block_solution,
    solve_block,
)
from repro.errors import CoverageError
from repro.frontend import compile_source
from repro.ir import BasicBlock
from repro.isdl import example_architecture
from repro.isdl.builtin_machines import BUILTIN_MACHINES
from repro.artifacts import validate
from repro.eval import (
    PAPER_ROWS,
    optimal_bench_report,
    run_experiment,
    workload,
)
from repro.optimal import (
    OPTIMAL_BENCH_SCHEMA,
    OptimalSolveResult,
    optimal_block_solution,
    summarize_optimal_bench,
)
from repro.regalloc import allocate_registers
from repro.serve import BlockCache
from repro.verify import verify_block, verify_solution

from conftest import build_fig2_dag, build_wide_dag


def _verify_roundtrip(solution, block_name="entry"):
    """Decode the solution all the way to instructions and re-check it
    with the independent validator."""
    registers = allocate_registers(solution)
    layout = DataLayout()
    dag = solution.graph.sn.dag
    layout.add_variables(
        sorted(set(dag.var_symbols()) | set(dag.store_symbols()))
    )
    instructions = emit_block(solution, registers, layout, block_name)
    report = verify_block(solution, instructions, block_name=block_name)
    assert report.ok, report.describe()


class TestOptimalSolve:
    @pytest.mark.parametrize("registers", [4, 2])
    def test_never_worse_than_heuristic(self, registers):
        machine = example_architecture(registers)
        for dag in (build_fig2_dag(), build_wide_dag(4)):
            result = optimal_block_solution(dag, machine)
            assert result.cost <= result.heuristic_cost
            assert result.gap >= 0
            assert result.proven
            solution = result.best_solution()
            solution.validate()
            _verify_roundtrip(solution)

    def test_fig2_proven_length(self, arch1):
        result = optimal_block_solution(build_fig2_dag(), arch1)
        assert result.proven
        # ADD+MUL in parallel, SUB, store: nothing shorter exists.
        assert result.cost == len(result.best_solution().schedule)

    def test_improving_solution_is_strictly_better(self, arch1):
        # wide4 is the known heuristic-gap block on arch1.
        result = optimal_block_solution(build_wide_dag(4), arch1)
        if result.solution is not None:
            assert result.cost < result.heuristic_cost
            assert len(result.solution.schedule) == result.cost
            _verify_roundtrip(result.solution)
        else:
            assert result.gap == 0

    def test_empty_block_costs_nothing(self, arch1):
        from repro.ir import BlockDAG

        result = optimal_block_solution(BlockDAG(), arch1)
        assert result.cost == 0
        assert result.proven
        assert result.best_solution().schedule == []

    def test_budget_interruption_keeps_incumbent(self, arch1):
        dag = build_wide_dag(4)
        result = optimal_block_solution(dag, arch1, conflict_budget=0)
        assert result.budget_exhausted
        assert not result.proven
        # The heuristic incumbent stands; nothing is lost.
        assert result.cost == result.heuristic_cost
        assert result.best_solution() is result.heuristic_solution
        assert result.stats_dict()["budget_exhausted"] is True

    def test_assignment_truncation_clears_proven(self, arch1):
        dag = build_wide_dag(3)
        full = optimal_block_solution(dag, arch1)
        if full.assignments_searched < 2:
            pytest.skip("block has a single assignment")
        result = optimal_block_solution(dag, arch1, max_assignments=1)
        assert result.assignments_searched == 1
        assert not result.proven

    def test_uncoverable_block_mirrors_engine_error(self):
        from repro.ir import BlockDAG, Opcode

        tiny = example_architecture(1)  # binary ops need 2 registers
        dag = BlockDAG()
        dag.store(
            "x", dag.operation(Opcode.ADD, (dag.var("a"), dag.var("b")))
        )
        with pytest.raises(CoverageError):
            optimal_block_solution(dag, tiny)

    def test_multi_cycle_latency_machine(self):
        # The branch-and-bound oracle (tests/branch_and_bound.py)
        # refuses multi-cycle ops; the solver handles them natively.
        machine = BUILTIN_MACHINES["pipe"]()
        if not any(
            op.latency > 1 for u in machine.units for op in u.operations
        ):
            pytest.skip("pipe builtin no longer has multi-cycle ops")
        result = optimal_block_solution(build_fig2_dag(), machine)
        assert result.proven
        assert result.cost <= result.heuristic_cost
        _verify_roundtrip(result.best_solution())


class TestEnginePlumbing:
    def test_unknown_backend_rejected(self, arch1):
        with pytest.raises(ValueError):
            solve_block(
                BasicBlock("entry", build_fig2_dag()), arch1, backend="psychic"
            )

    def test_generator_optimal_backend(self, arch1):
        solution, optimal = solve_block(
            BasicBlock("entry", build_wide_dag(4)), arch1, backend="optimal"
        )
        solution.validate()
        assert verify_solution(solution).ok
        assert isinstance(optimal, OptimalSolveResult)
        heuristic = generate_block_solution(
            build_wide_dag(4), arch1, HeuristicConfig.default()
        )
        assert (
            solution.instruction_count <= heuristic.instruction_count
        )

    def test_compile_function_attaches_results(self, arch1):
        function = compile_source("out = (a + b) - (c * d);")
        compiled = compile_function(function, arch1, backend="optimal")
        assert compiled.blocks
        for block in compiled.blocks.values():
            assert block.optimal is not None
            assert block.optimal.cost <= block.optimal.heuristic_cost

    def test_compile_function_heuristic_leaves_none(self, arch1):
        function = compile_source("out = a + b;")
        compiled = compile_function(function, arch1)
        for block in compiled.blocks.values():
            assert block.optimal is None

    def test_optimal_backend_stays_off_the_cache(self, arch1, tmp_path):
        function = compile_source("out = (a + b) - (c * d);")
        cache_dir = str(tmp_path / "cache")
        compile_function(
            function, arch1, backend="optimal", cache_dir=cache_dir
        )
        assert len(BlockCache(cache_dir)) == 0

    def test_cached_heuristic_entry_does_not_shadow_optimal(
        self, arch1, tmp_path
    ):
        # Ex4 on arch1 is a measured heuristic gap: the cached heuristic
        # schedule is longer than the proven optimum.
        from repro.eval.workloads import WORKLOADS

        build = next(w for w in WORKLOADS if w.name == "Ex4").build
        cache_dir = str(tmp_path / "cache")
        heuristic = compile_dag(build(), arch1, cache_dir=cache_dir)
        assert len(BlockCache(cache_dir)) == 1
        optimal = compile_dag(
            build(), arch1, backend="optimal", cache_dir=cache_dir
        )
        block = optimal.blocks["entry"]
        assert block.optimal.proven
        assert block.body_size == block.optimal.cost
        assert block.body_size < heuristic.blocks["entry"].body_size
        assert len(BlockCache(cache_dir)) == 1

    def test_optimal_code_still_correct(self, arch1):
        from repro.ir.interp import interpret_function
        from repro.simulator import run_program

        source = "p = a * b; q = c * d; out = p + q;"
        inputs = {"a": 3, "b": 4, "c": 5, "d": 6}
        function = compile_source(source)
        compiled = compile_function(function, arch1, backend="optimal")
        result = run_program(compiled.program, arch1, inputs)
        reference = interpret_function(function, inputs)
        for name, expected in reference.items():
            assert result.variables[name] == expected


class TestExplainIntegration:
    def test_quality_report_carries_gap(self, arch1):
        from repro.explain.quality import quality_report

        result = optimal_block_solution(build_wide_dag(4), arch1)
        report = quality_report(result.best_solution(), optimal=result)
        record = report["optimal"]
        assert record is not None
        assert record["cost"] == result.cost
        assert record["gap"] == result.gap
        assert record["proven"] is result.proven

    def test_quality_report_defaults_to_none(self, arch1):
        from repro.explain.quality import quality_report

        solution = generate_block_solution(
            build_fig2_dag(), arch1, HeuristicConfig.default()
        )
        assert quality_report(solution)["optimal"] is None


class TestFuzzOracle:
    def _case(self, source, inputs):
        from repro.fuzz.oracle import FuzzCase
        from repro.isdl.writer import machine_to_isdl

        return FuzzCase(
            source=source,
            machine_isdl=machine_to_isdl(example_architecture(4)),
            inputs=inputs,
        )

    def test_oracle_records_blocks(self):
        from repro.fuzz.oracle import Outcome, run_case

        case = self._case("out = a + b * c;", {"a": 1, "b": 2, "c": 3})
        result = run_case(case, optimal_oracle=True, optimal_budget=5_000)
        assert result.outcome in (Outcome.OK, Outcome.OPTIMALITY)
        assert result.optimal_blocks
        assert (result.outcome is Outcome.OPTIMALITY) == (
            result.optimal_gap > 0
        )
        assert not result.outcome.is_failure
        assert result.optimal_gap == sum(
            record["gap"] for record in result.optimal_blocks
        )

    def test_oracle_finds_known_gap(self):
        # Ex2 on the example architecture is a measured heuristic gap
        # (the paper-table workload the solver improves by one cycle).
        from repro.eval.workloads import WORKLOADS
        from repro.fuzz.oracle import Outcome, run_case

        load = next(w for w in WORKLOADS if w.name == "Ex2")
        case = self._case(load.source, load.inputs)
        result = run_case(case, optimal_oracle=True)
        assert result.outcome is Outcome.OPTIMALITY
        assert result.optimal_gap >= 1
        assert result.optimal_proven
        assert "optimal" in result.describe()

    def test_gap_workloads_exact(self):
        # The exact heuristic-vs-proven-optimal gap of every 4-register
        # table row, Ex1..Ex5 on each machine.
        report = optimal_bench_report(
            [
                run_experiment(
                    workload(name), BUILTIN_MACHINES[key](registers), registers
                )
                for _, name, key, registers in PAPER_ROWS
                if registers == 4
            ]
        )
        gaps = {}
        for entry in report["entries"]:
            gaps.setdefault(entry["machine"], []).append(entry["gap"])
        assert gaps == {
            "arch1_r4": [0, 1, 0, 1, 3],
            "arch2_r4": [0, 1, 0, 2, 1],
        }
        assert report["summary"] == {
            "blocks": 10, "proven": 10, "improved": 6, "gap_cycles": 9,
            "budget_exhausted": 0,
        }

    def test_oracle_off_by_default(self):
        from repro.fuzz.oracle import run_case

        case = self._case("out = a + b;", {"a": 1, "b": 2})
        result = run_case(case)
        assert result.optimal_blocks == []
        assert result.optimal_gap == 0

    def test_campaign_aggregates_gaps(self, tmp_path):
        from repro.fuzz.campaign import CampaignStats
        from repro.fuzz.oracle import CaseResult, Outcome

        stats = CampaignStats(seed=0, iterations_requested=2)
        stats.outcomes[Outcome.OPTIMALITY] += 1
        stats.optimal_gap_cases = 1
        stats.optimal_gap_cycles = 3
        stats.optimal_proven_cases = 2
        assert "optimality: 1 case(s) with a gap" in stats.summary()
        assert stats.failure_count == 0


class TestBenchSchema:
    @pytest.fixture(scope="class")
    def solved(self):
        """The report of one real table row: Ex1 on arch1."""
        row = run_experiment(workload("Ex1"), example_architecture(4), 4)
        return optimal_bench_report([row])

    @pytest.fixture
    def report(self, solved):
        return copy.deepcopy(solved)

    @staticmethod
    def _edit(report, **overrides):
        """Edit the report's entry and recompute its totals, so only the
        edited rule can reject it."""
        report["entries"][0].update(overrides)
        report["summary"] = summarize_optimal_bench(report["entries"])

    def test_valid_report_passes(self, report):
        validate(report, OPTIMAL_BENCH_SCHEMA)
        assert report["summary"]["blocks"] == 1

    def test_schema_tag_required(self, report):
        report["schema"] = "repro/bench-optimal/v0"
        with pytest.raises(ValueError):
            validate(report, OPTIMAL_BENCH_SCHEMA)

    def test_gap_arithmetic_checked(self, report):
        self._edit(report, gap=2)
        with pytest.raises(ValueError):
            validate(report, OPTIMAL_BENCH_SCHEMA)

    def test_negative_gap_rejected(self, report):
        entry = report["entries"][0]
        self._edit(
            report, optimal_cost=entry["heuristic_cost"] + 2, gap=-2
        )
        with pytest.raises(ValueError):
            validate(report, OPTIMAL_BENCH_SCHEMA)

    def test_proven_with_exhausted_budget_is_contradiction(self, report):
        report["entries"][0]["solver"]["budget_exhausted"] = True
        self._edit(report)
        with pytest.raises(ValueError):
            validate(report, OPTIMAL_BENCH_SCHEMA)

    def test_summary_mismatch_rejected(self, report):
        report["summary"]["proven"] = 0
        with pytest.raises(ValueError):
            validate(report, OPTIMAL_BENCH_SCHEMA)

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError):
            validate(optimal_bench_report([]), OPTIMAL_BENCH_SCHEMA)
