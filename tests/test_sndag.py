"""Tests for the Split-Node DAG (paper, Section III)."""

import pytest

from repro.covering import generate_block_solution
from repro.errors import UnmappableOperationError
from repro.ir import BlockDAG, Opcode
from repro.isdl import parse_machine
from repro.sndag import (
    build_split_node_dag,
    find_pattern_matches,
    format_split_node_dag,
    split_node_dag_to_dot,
)


class TestFig4Structure:
    """The paper's Fig. 4: the Fig. 2 block on the Fig. 3 architecture."""

    def test_assignment_space_is_2x2x3(self, fig2_dag, arch1):
        sn = build_split_node_dag(fig2_dag, arch1)
        assert sn.assignment_space_size() == 12  # 2 x 2 x 3 (paper text)

    def test_one_split_per_operation_and_store(self, fig2_dag, arch1):
        sn = build_split_node_dag(fig2_dag, arch1)
        stats = sn.stats()
        # 3 operations + 1 store.
        assert stats["split_nodes"] == 4

    def test_alternative_counts_per_operation(self, fig2_dag, arch1):
        sn = build_split_node_dag(fig2_dag, arch1)
        by_op = {}
        for op_id in fig2_dag.operation_nodes():
            opcode = fig2_dag.node(op_id).opcode
            by_op[opcode] = len(sn.alternatives(op_id))
        assert by_op[Opcode.ADD] == 3
        assert by_op[Opcode.SUB] == 2
        assert by_op[Opcode.MUL] == 2

    def test_value_nodes_for_leaves(self, fig2_dag, arch1):
        sn = build_split_node_dag(fig2_dag, arch1)
        assert sn.stats()["value_nodes"] == 4

    def test_transfer_nodes_shared_between_consumers(self, arch1):
        # The same value consumed twice on the same unit needs one
        # transfer node per hop ("paths ... can reconverge"): the counted
        # transfer nodes of ``a`` serve both MULs, while a second leaf
        # in its place adds its own DM->RF2 and DM->RF3 hops.
        def eager_count(shared):
            dag = BlockDAG()
            a, b, c = dag.var("a"), dag.var("b"), dag.var("c")
            other = a if shared else dag.var("a2")
            mul1 = dag.operation(Opcode.MUL, (a, b))
            mul2 = dag.operation(Opcode.MUL, (other, c))
            dag.store("x", dag.operation(Opcode.SUB, (mul1, mul2)))
            return build_split_node_dag(dag, arch1).eager_transfer_node_count()

        assert eager_count(shared=True) == 14
        assert eager_count(shared=False) == 14 + 2

    def test_smaller_on_architecture_two(self, fig2_dag, arch1, arch2):
        big = build_split_node_dag(fig2_dag, arch1).paper_node_count()
        small = build_split_node_dag(fig2_dag, arch2).paper_node_count()
        assert small < big  # Table II vs Table I shape

    def test_unmappable_operation_raises(self, fig2_dag, arch1):
        dag = BlockDAG()
        dag.store("x", dag.operation(Opcode.DIV, (dag.var("a"), dag.var("b"))))
        with pytest.raises(UnmappableOperationError):
            build_split_node_dag(dag, arch1)

    def test_children_of_split_are_its_alternatives(self, fig2_dag, arch1):
        sn = build_split_node_dag(fig2_dag, arch1)
        for op_id, split_id in sn.split_of.items():
            node = sn.node(split_id)
            if op_id in sn.alternatives_of:
                assert set(node.children) == set(sn.alternatives_of[op_id])

    def test_render_text_and_dot(self, fig2_dag, arch1):
        sn = generate_block_solution(fig2_dag, arch1).sn
        text = format_split_node_dag(sn)
        assert "split" in text
        dot = split_node_dag_to_dot(sn)
        assert dot.startswith("digraph") and "diamond" in dot


class TestTransferChainReconvergence:
    """Paths reconverge in the paper's transfer-node count: a hop moving
    the same value between the same storages over the same bus is one
    node, however many minimal paths run through it."""

    @pytest.fixture
    def shared_final_hop_machine(self):
        # Two parallel buses DM<->R1 and a single R1<->R2 link: the two
        # minimal DM->R2 paths differ in their first hop but share the
        # final R1->R2 hop over B3.
        return parse_machine(
            "machine m { memory DM size 8;"
            " regfile R1 size 2; regfile R2 size 2;"
            " unit U1 regfile R1 { op SUB; }"
            " unit U2 regfile R2 { op ADD; }"
            " bus B1 connects DM, R1;"
            " bus B2 connects DM, R1;"
            " bus B3 connects R1, R2; }"
        )

    def test_shared_final_hop_keeps_both_feeders(self, shared_final_hop_machine):
        dag = BlockDAG()
        a, b = dag.var("a"), dag.var("b")
        dag.store("x", dag.operation(Opcode.ADD, (a, b)))
        sn = build_split_node_dag(dag, shared_final_hop_machine)
        assert len(sn.transfer_db.paths("DM", "R2")) == 2
        assert len(sn.transfer_db.paths("R2", "DM")) == 2
        # Per moved value (a, b, and the sum on its way back to DM):
        # both B1/B2 feeders and the shared B3 hop once, 3 rather than
        # the 4 hops of two separate chains.
        assert sn.eager_transfer_node_count() == 3 * 3


class TestPatternMatching:
    def _mac_dag(self):
        dag = BlockDAG()
        x, y, acc = dag.var("x"), dag.var("y"), dag.var("acc")
        mul = dag.operation(Opcode.MUL, (x, y))
        add = dag.operation(Opcode.ADD, (mul, acc))
        dag.store("acc", add)
        return dag, mul, add

    def test_mac_pattern_found(self, arch_mac):
        dag, mul, add = self._mac_dag()
        matches = find_pattern_matches(dag, arch_mac)
        assert len(matches) == 1
        match = matches[0]
        assert match.root == add
        assert set(match.covers) == {add, mul}
        assert match.unit == "U2"
        assert len(match.operands) == 3

    def test_no_patterns_on_plain_machine(self, arch1):
        dag, *_ = self._mac_dag()
        assert find_pattern_matches(dag, arch1) == []

    def test_multi_consumer_interior_blocks_match(self, arch_mac):
        dag = BlockDAG()
        x, y, acc = dag.var("x"), dag.var("y"), dag.var("acc")
        mul = dag.operation(Opcode.MUL, (x, y))
        add = dag.operation(Opcode.ADD, (mul, acc))
        # mul is consumed twice: the MAC cannot absorb it.
        other = dag.operation(Opcode.SUB, (mul, acc))
        dag.store("a", add)
        dag.store("b", other)
        assert find_pattern_matches(dag, arch_mac) == []

    def test_stored_interior_blocks_match(self, arch_mac):
        dag = BlockDAG()
        x, y, acc = dag.var("x"), dag.var("y"), dag.var("acc")
        mul = dag.operation(Opcode.MUL, (x, y))
        add = dag.operation(Opcode.ADD, (mul, acc))
        dag.store("m", mul)  # intermediate observable
        dag.store("acc", add)
        assert find_pattern_matches(dag, arch_mac) == []

    def test_commutative_order_not_matched_blindly(self, arch_mac):
        # MAC pattern is ADD(MUL, acc); ADD(acc, MUL) is a different tree
        # shape and must not match (pattern matching is syntactic).
        dag = BlockDAG()
        x, y, acc = dag.var("x"), dag.var("y"), dag.var("acc")
        mul = dag.operation(Opcode.MUL, (x, y))
        add = dag.operation(Opcode.ADD, (acc, mul))
        dag.store("acc", add)
        assert find_pattern_matches(dag, arch_mac) == []

    def test_complex_alternative_in_split_node_dag(self, arch_mac):
        dag, mul, add = self._mac_dag()
        sn = build_split_node_dag(dag, arch_mac)
        alternatives = sn.alternatives(add)
        complex_alts = [a for a in alternatives if a.is_complex]
        assert len(complex_alts) == 1
        assert complex_alts[0].op_name == "MAC"
        assert set(complex_alts[0].covers) == {add, mul}

    def test_two_independent_macs_both_match(self, arch_mac):
        dag = BlockDAG()
        names = ["x0", "h0", "a0", "x1", "h1", "a1"]
        x0, h0, a0, x1, h1, a1 = (dag.var(n) for n in names)
        add0 = dag.operation(
            Opcode.ADD, (dag.operation(Opcode.MUL, (x0, h0)), a0)
        )
        add1 = dag.operation(
            Opcode.ADD, (dag.operation(Opcode.MUL, (x1, h1)), a1)
        )
        dag.store("r0", add0)
        dag.store("r1", add1)
        matches = find_pattern_matches(dag, arch_mac)
        assert len(matches) == 2
