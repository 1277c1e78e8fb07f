"""Counted transfer nodes: unit tests and the differential suite.

The Split-Node DAG counts the paper's TRANSFER nodes instead of building
them, and covering never changes it.  The eager numbers it no longer
builds are pinned here (:meth:`SplitNodeDAG.eager_transfer_node_count`
must keep reproducing them), as is the DAG being the same before and
after covering and after a block-cache round trip.  The sweep at the
bottom checks production covering against the test-only reference
oracle on every example program x machine file, and on the frozen fuzz
corpus.
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
from repro.serve import BlockCache
from repro.sndag import build_split_node_dag

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
        # Value, split and alternative nodes only; the 19 transfer nodes
        # of the paper's Fig. 4 are counted, not built.
        sn = build_split_node_dag(fig2_dag, arch1)
        assert sn.stats() == {
            "value_nodes": 4,
            "split_nodes": 4,
            "alternative_nodes": 7,
            "total": 15,
        }
        assert sn.paper_node_count() == 15 + 19

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

    def test_eager_count_matches_eager_build(self):
        # The transfer nodes the paper's eager construction built for
        # the Fig. 2 DAG, before and after a compile.
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


class TestPaperWorkloadMaterialization:
    """The paper's transfer-node counts on its own workloads."""

    def test_ex2_blowup_is_avoided(self, arch1):
        # Ex2 on Architecture I: the paper's eager expansion would build
        # 43 transfer nodes; none is built.
        solution = generate_block_solution(
            workload("Ex2").build(), arch1, HeuristicConfig()
        )
        assert solution.sn.eager_transfer_node_count() == 43
        assert len(solution.sn) == 30


class TestReadOnlyAfterBuild:
    """Covering reads the Split-Node DAG and never changes it."""

    def test_covering_leaves_the_dag_unchanged(self):
        # Ex1-Ex5 on Architectures I and II, and the Fig. 2 block on the
        # two-bus machine.
        cases = [
            (f"{load.name}@{key}", load.build(), BUILTIN_MACHINES[key](4))
            for key in ("arch1", "arch2")
            for load in WORKLOADS
        ]
        cases.append(
            ("fig2@dualbus", build_fig2_dag(), BUILTIN_MACHINES["dualbus"](4))
        )
        for name, dag, machine in cases:
            sn = build_split_node_dag(dag, machine)
            before = dict(sn.nodes)
            solution = generate_block_solution(dag, machine, sn=sn)
            assert solution.sn is sn, name
            assert sn.nodes == before, name

    def test_cache_hit_carries_the_fresh_dag(self, arch1, tmp_path):
        # A hit rebuilds the DAG from (dag, machine); it must equal the
        # one the fresh compile that stored the entry carried.
        cache = BlockCache(tmp_path)
        dag = workload("Ex2").build()
        fresh = generate_block_solution(dag, arch1, disk_cache=cache)
        hit = generate_block_solution(dag, arch1, disk_cache=cache)
        assert hit is not fresh and hit.sn is not fresh.sn
        assert hit.sn.stats() == fresh.sn.stats()
        assert hit.sn.nodes == fresh.sn.nodes
        assert len(hit.sn) == 30


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
