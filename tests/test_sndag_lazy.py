"""Lazy transfer materialisation: unit tests and the differential suite.

The Split-Node DAG materialises TRANSFER nodes on demand instead of the
paper's eager up-front expansion.  The eager numbers it no longer builds
are pinned here (:meth:`SplitNodeDAG.eager_transfer_node_count` must
keep reproducing them), as are the transfer nodes a compile of each
paper workload materialises, and the sweep at the bottom checks production
covering against the test-only reference oracle on every example
program x machine file, and on the frozen fuzz corpus.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.asmgen.program import compile_function
from repro.covering import HeuristicConfig, generate_block_solution
from repro.errors import NoTransferPathError, ReproError
from repro.eval import WORKLOADS, workload
from repro.frontend import compile_source
from repro.fuzz import load_case
from repro.ir import BlockDAG, Opcode
from repro.isdl import BUILTIN_MACHINES, parse_machine
from repro.sndag import SNKind, build_split_node_dag

from conftest import build_fig2_dag
from reference_kernel import KERNELS

REPO = Path(__file__).parent.parent
MACHINE_FILES = sorted((REPO / "machines").glob("*.isdl"))
EXAMPLE_FILES = sorted((REPO / "examples").glob("*.minic"))
CORPUS_FILES = sorted((Path(__file__).parent / "corpus").glob("gen-*.json"))

#: Small fixed exploration budget, matching the golden-schedule suite:
#: the differential property must hold at any budget, so the cheap one
#: keeps the full examples-x-machines matrix fast.
SMALL = {"num_assignments": 2, "frontier_limit": 16}

#: The node populations the paper's eager construction builds for the
#: Fig. 2 DAG: (value, split, alternative, transfer).
EAGER_FIG2 = {
    "arch1": (4, 4, 7, 19),
    "dualbus": (4, 4, 7, 28),
    "arch2": (4, 4, 4, 8),
}


class TestLazyConstruction:
    def test_lazy_build_creates_no_transfer_nodes(self, fig2_dag, arch1):
        sn = build_split_node_dag(fig2_dag, arch1)
        assert sn.stats()["transfer_nodes"] == 0

    def test_non_transfer_population_matches_eager(self):
        for name, (values, splits, alternatives, _) in EAGER_FIG2.items():
            machine = parse_machine(
                (REPO / "machines" / f"{name}.isdl").read_text()
            )
            stats = build_split_node_dag(build_fig2_dag(), machine).stats()
            assert (
                stats["value_nodes"],
                stats["split_nodes"],
                stats["alternative_nodes"],
            ) == (values, splits, alternatives), name

    def test_unknown_mode_rejected(self, fig2_dag, arch1):
        # One construction is left: the old mode selectors are gone.
        with pytest.raises(TypeError):
            build_split_node_dag(fig2_dag, arch1, mode="eager")
        with pytest.raises(TypeError):
            HeuristicConfig(sndag_mode="lazy")

    def test_materialize_transfer_dedups_demands(self, fig2_dag, arch1):
        sn = build_split_node_dag(fig2_dag, arch1)
        leaf = fig2_dag.leaf_nodes()[0]
        first = sn.materialize_transfer(leaf, "DM", "RF2")
        created = sn.stats()["transfer_nodes"]
        assert created == 1  # single-bus machine: one-hop chain
        assert sn.materialize_transfer(leaf, "DM", "RF2") == first
        assert sn.stats()["transfer_nodes"] == created

    def test_materialized_chains_reconverge_like_eager(self, fig2_dag, arch_dual):
        # Two demands whose canonical chains share a prefix reuse the
        # shared hops via the same _transfer_index as the eager build.
        sn = build_split_node_dag(fig2_dag, arch_dual)
        leaf = fig2_dag.leaf_nodes()[0]
        sn.materialize_transfer(leaf, "DM", "RF1")
        one_hop = sn.stats()["transfer_nodes"]
        sn.materialize_transfer(leaf, "DM", "RF3")
        # DM->RF3 goes through an adjacent file; if the canonical route
        # runs over the already-materialized DM->RF1 hop, it is shared.
        chain = sn.transfer_db.canonical_path("DM", "RF3")
        expected = one_hop + len(chain)
        if chain[0].destination == "RF1":
            expected -= 1
        assert sn.stats()["transfer_nodes"] == expected

    def test_eager_count_matches_eager_build(self):
        # The transfer nodes the paper's eager construction built for
        # the Fig. 2 DAG, before and after a compile materialised some.
        for name, (*_, transfers) in EAGER_FIG2.items():
            machine = parse_machine(
                (REPO / "machines" / f"{name}.isdl").read_text()
            )
            sn = build_split_node_dag(build_fig2_dag(), machine)
            assert sn.eager_transfer_node_count() == transfers, name
            solution = generate_block_solution(build_fig2_dag(), machine)
            assert solution.sn.eager_transfer_node_count() == transfers, name

    def test_paper_node_count_is_the_eager_total(self):
        for name, counts in EAGER_FIG2.items():
            machine = parse_machine(
                (REPO / "machines" / f"{name}.isdl").read_text()
            )
            solution = generate_block_solution(build_fig2_dag(), machine)
            assert solution.sn.stats()["transfer_nodes"] > 0
            assert solution.sn.paper_node_count() == sum(counts), name

    def test_both_modes_reject_unreachable_machines(self):
        # The builder checks the reachability the eager expansion
        # needed, so a machine the paper's construction rejected is
        # still rejected up front.
        machine = parse_machine(
            "machine m { memory DM size 8; regfile R1 size 2;"
            " regfile R2 size 2;"
            " unit U1 regfile R1 { op ADD; } unit U2 regfile R2 { op SUB; }"
            " bus B1 connects DM, R1; }"
        )
        dag = BlockDAG()
        a, b = dag.var("a"), dag.var("b")
        dag.store("x", dag.operation(Opcode.SUB, (a, b)))  # needs R2
        with pytest.raises(NoTransferPathError):
            build_split_node_dag(dag, machine)

    def test_lazy_solution_materializes_fewer_than_eager(self, fig2_dag, arch1):
        solution = generate_block_solution(fig2_dag, arch1)
        stats = solution.sn.transfer_stats()
        assert stats["materialized"] == solution.sn.stats()["transfer_nodes"]
        assert stats["materialized"] < stats["eager"]
        assert stats["avoided"] == stats["eager"] - stats["materialized"]

    def test_equivalent_paths_fold_into_canonical(self):
        # Two parallel DM<->R1 buses: eager builds a transfer node per
        # bus, lazy folds them into one canonical chain and counts it.
        machine = parse_machine(
            "machine m { memory DM size 8; regfile R1 size 4;"
            " unit U1 regfile R1 { op ADD; }"
            " bus B1 connects DM, R1;"
            " bus B2 connects DM, R1; }"
        )
        dag = BlockDAG()
        dag.store("x", dag.operation(Opcode.ADD, (dag.var("a"), dag.var("b"))))
        solution = generate_block_solution(dag, machine)
        assert solution.sn.transfer_paths_folded > 0
        buses = {
            n.bus
            for n in solution.sn.nodes.values()
            if n.kind is SNKind.TRANSFER
        }
        assert len(buses) <= 1  # canonical representative only


#: TRANSFER nodes a default-config compile of each paper workload
#: materialises, on Architecture I and II (4 registers per file).
MATERIALIZED = {
    "arch1": {"Ex1": 20, "Ex2": 26, "Ex3": 26, "Ex4": 36, "Ex5": 30},
    "arch2": {"Ex1": 9, "Ex2": 10, "Ex3": 10, "Ex4": 20, "Ex5": 21},
}


class TestPaperWorkloadMaterialization:
    @pytest.mark.parametrize("machine_key", sorted(MATERIALIZED))
    def test_materialized_transfer_nodes(self, machine_key):
        machine = BUILTIN_MACHINES[machine_key](4)
        counts = {
            load.name: generate_block_solution(
                load.build(), machine, HeuristicConfig()
            ).sn.transfer_stats()["materialized"]
            for load in WORKLOADS
        }
        assert counts == MATERIALIZED[machine_key]

    def test_ex2_blowup_is_avoided(self, arch1):
        # Ex2 on Architecture I: the paper's eager expansion would build
        # 43 transfer nodes; the compile materialises 26.
        solution = generate_block_solution(
            workload("Ex2").build(), arch1, HeuristicConfig()
        )
        stats = solution.sn.transfer_stats()
        assert (stats["eager"], stats["materialized"], stats["avoided"]) == (
            43, 26, 17,
        )


def _canonical_compile(function, machine, config):
    """Schedule every block and canonicalise, or a stable error tag."""
    try:
        compiled = compile_function(function, machine, config)
    except ReproError as error:
        return ("error", type(error).__name__)
    return {
        name: [
            sorted(
                block.solution.graph.tasks[task_id].describe()
                for task_id in word
            )
            for word in block.solution.schedule
        ]
        for name, block in compiled.blocks.items()
    }


@pytest.mark.parametrize(
    "example", EXAMPLE_FILES, ids=lambda p: p.stem
)
@pytest.mark.parametrize(
    "machine_file", MACHINE_FILES, ids=lambda p: p.stem
)
def test_examples_bit_identical_across_modes(example, machine_file):
    function = compile_source(example.read_text())
    machine = parse_machine(machine_file.read_text())
    config = HeuristicConfig(**SMALL)
    outcomes = {}
    for kernel, context in KERNELS:
        with context():
            outcomes[kernel] = _canonical_compile(function, machine, config)
    assert outcomes["bitmask"] == outcomes["reference"], (
        f"{example.stem} on {machine_file.stem}: production and the "
        f"reference oracle disagree"
    )


@pytest.mark.parametrize("case_file", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_bit_identical_across_modes(case_file):
    case = load_case(case_file)
    function = compile_source(case.source)
    machine = parse_machine(case.machine_isdl)
    config = case.heuristic_config()
    outcomes = {}
    for kernel, context in KERNELS:
        with context():
            outcomes[kernel] = _canonical_compile(function, machine, config)
    assert outcomes["bitmask"] == outcomes["reference"], (
        f"{case_file.stem}: production and the reference oracle disagree"
    )
