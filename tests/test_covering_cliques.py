"""Tests for the parallelism relation (Fig. 7) and clique generation
(Fig. 8), the level-window heuristic, and constraint legality."""

from repro.covering import (
    HeuristicConfig,
    TaskGraph,
    TaskKind,
    explore_assignments,
    generate_maximal_clique_masks,
    legalize_clique_masks,
    parallelism_masks,
)
from repro.covering.cliques import is_legal_instruction
from repro.covering.parallelism import task_levels
from repro.ir import BlockDAG, Opcode
from repro.sndag import build_split_node_dag
from repro.utils.bitset import bits, mask_of


def _graph_for(dag, machine, index=0):
    sn = build_split_node_dag(dag, machine)
    assignments = explore_assignments(sn, HeuristicConfig.heuristics_off())
    return TaskGraph(sn, assignments[index])


def _parallel(rows, a, b):
    return bool(rows[a] >> b & 1)


def _rows_from_matrix(matrix):
    """Bitmask rows of a paper-style conflict matrix (0 = parallel)."""
    return {
        i: mask_of(j for j, cell in enumerate(row) if cell == 0 and j != i)
        for i, row in enumerate(matrix)
    }


class TestMatrix:
    def test_diagonal_is_one(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        rows = parallelism_masks(graph)
        assert not any(_parallel(rows, t, t) for t in rows)

    def test_symmetric(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        rows = parallelism_masks(graph)
        for a in rows:
            for b in rows:
                assert _parallel(rows, a, b) == _parallel(rows, b, a)

    def test_same_resource_conflicts(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        rows = parallelism_masks(graph)
        for task_a in rows:
            for task_b in rows:
                if task_a != task_b and (
                    graph.tasks[task_a].resource
                    == graph.tasks[task_b].resource
                ):
                    assert not _parallel(rows, task_a, task_b)

    def test_dependence_conflicts(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        rows = parallelism_masks(graph)
        for task_id in graph.task_ids():
            for dependency in graph.tasks[task_id].dependencies():
                assert not _parallel(rows, task_id, dependency)

    def test_fig7_style_pairs(self, fig2_dag, arch1):
        """The Fig. 7 narrative: an ADD on U3 is parallel with a MUL on
        U2 (different units, no dependence)."""
        dag = BlockDAG()
        a, b, c, d = dag.var("a"), dag.var("b"), dag.var("c"), dag.var("d")
        add = dag.operation(Opcode.ADD, (a, b))
        mul = dag.operation(Opcode.MUL, (c, d))
        dag.store("s", add)
        dag.store("p", mul)
        sn = build_split_node_dag(dag, arch1)
        target = next(
            x
            for x in explore_assignments(sn, HeuristicConfig.heuristics_off())
            if x.unit_of(add) == "U3" and x.unit_of(mul) == "U2"
        )
        graph = TaskGraph(sn, target)
        rows = parallelism_masks(graph)
        add_task = next(
            t.task_id for t in graph.tasks.values() if t.op_name == "ADD"
        )
        mul_task = next(
            t.task_id for t in graph.tasks.values() if t.op_name == "MUL"
        )
        assert _parallel(rows, add_task, mul_task)

    def test_level_window_adds_conflicts(self, wide_dag, arch1):
        graph = _graph_for(wide_dag, arch1)
        loose = parallelism_masks(graph, level_window=None)
        tight = parallelism_masks(graph, level_window=0)
        assert all(tight[t] & ~loose[t] == 0 for t in loose)

    def test_task_levels_bounds(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        from_top, from_bottom = task_levels(graph, graph.task_ids())
        assert min(from_bottom.values()) == 0
        assert min(from_top.values()) == 0
        sinks = [t for t in graph.task_ids() if not graph.consumers_of(t)]
        assert all(from_top[t] == 0 for t in sinks)


class TestCliqueGeneration:
    def test_fig7_matrix_produces_fig8_cliques(self):
        """The paper's exact example: nodes N2, N9, N10, N14 with the
        Fig. 7 matrix yield cliques (N2), (N10,N9), (N10,N14)."""
        # Index order: N2, N9, N10, N14 (matrix copied from Fig. 7; the
        # paper leaves the diagonal at 0, a node is never self-parallel).
        rows = _rows_from_matrix(
            [
                [0, 1, 1, 1],
                [1, 0, 0, 1],
                [1, 0, 0, 0],
                [1, 1, 0, 0],
            ]
        )
        cliques = generate_maximal_clique_masks(rows)
        named = {
            mask_of({0}): "C1",
            mask_of({1, 2}): "C2",
            mask_of({2, 3}): "C3",
        }
        assert set(cliques) == set(named)

    def test_all_parallel_single_clique(self):
        rows = _rows_from_matrix([[0] * 4 for _ in range(4)])
        assert generate_maximal_clique_masks(rows) == [mask_of({0, 1, 2, 3})]

    def test_all_conflicting_singletons(self):
        rows = _rows_from_matrix([[1] * 3 for _ in range(3)])
        assert set(generate_maximal_clique_masks(rows)) == {
            mask_of({0}),
            mask_of({1}),
            mask_of({2}),
        }

    def test_every_node_covered(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        rows = parallelism_masks(graph)
        covered = 0
        for clique in generate_maximal_clique_masks(rows):
            covered |= clique
        assert covered == mask_of(graph.task_ids())

    def test_no_clique_is_subset_of_another(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        cliques = generate_maximal_clique_masks(parallelism_masks(graph))
        for clique in cliques:
            assert not any(
                clique & ~other == 0 for other in cliques if other != clique
            )

    def test_cliques_are_actual_cliques(self, wide_dag, arch1):
        graph = _graph_for(wide_dag, arch1)
        rows = parallelism_masks(graph)
        for clique in generate_maximal_clique_masks(rows):
            members = bits(clique)
            for i in members:
                for j in members:
                    if i != j:
                        assert _parallel(rows, i, j)

    def test_level_window_reduces_clique_count(self, wide_dag, arch1):
        graph = _graph_for(wide_dag, arch1)
        loose = parallelism_masks(graph, level_window=None)
        tight = parallelism_masks(graph, level_window=0)
        assert len(generate_maximal_clique_masks(tight)) <= len(
            generate_maximal_clique_masks(loose)
        )


class TestLegality:
    def _constrained_graph(self, arch_mac):
        dag = BlockDAG()
        pairs = []
        for name in ("a", "b", "c", "d"):
            pairs.append(dag.var(name))
        s1 = dag.operation(Opcode.ADD, (pairs[0], pairs[1]))
        s2 = dag.operation(Opcode.ADD, (pairs[2], pairs[3]))
        dag.store("x", s1)
        dag.store("y", s2)
        sn = build_split_node_dag(dag, arch_mac)
        target = next(
            a
            for a in explore_assignments(sn, HeuristicConfig.heuristics_off())
            if {alt.unit for alt in a.choice.values()} == {"U1", "U3"}
        )
        return TaskGraph(sn, target), s1, s2

    def test_constraint_violation_detected(self, arch_mac):
        graph, s1, s2 = self._constrained_graph(arch_mac)
        add_tasks = [
            t.task_id
            for t in graph.tasks.values()
            if t.kind is TaskKind.OP and t.op_name == "ADD"
        ]
        both = frozenset(add_tasks)
        # arch_mac forbids U1.ADD together with U3.ADD.
        assert not is_legal_instruction(graph, both, arch_mac)

    def test_legalize_splits_violating_clique(self, arch_mac):
        graph, *_ = self._constrained_graph(arch_mac)
        add_tasks = mask_of(
            t.task_id
            for t in graph.tasks.values()
            if t.kind is TaskKind.OP
        )
        legal = legalize_clique_masks(graph, [add_tasks], arch_mac)
        assert legal
        for clique in legal:
            assert is_legal_instruction(
                graph, frozenset(bits(clique)), arch_mac
            )
            assert clique != add_tasks and clique & ~add_tasks == 0

    def test_no_constraints_passthrough(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        cliques = [mask_of(graph.task_ids()[:2])]
        assert legalize_clique_masks(graph, cliques, arch1) == cliques

    def test_wildcard_term_matches_transfers(self, arch_mac):
        graph, *_ = self._constrained_graph(arch_mac)
        xfer = next(
            t for t in graph.tasks.values() if t.kind is TaskKind.XFER
        )
        from repro.covering.cliques import _matches_term

        assert _matches_term(xfer, xfer.resource, "*")
        assert not _matches_term(xfer, xfer.resource, "ADD")
