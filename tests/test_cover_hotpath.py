"""Differential and regression tests for the bitmask covering kernel.

The covering hot path exists twice: the original set/matrix
implementation (``clique_kernel="reference"``) and the integer-bitmask
kernel with incremental ready-set maintenance, incremental post-spill
clique rebuilds, and the block-solution memo (``"bitmask"``, the
default).  The contract is *bit identity*: same schedules, same spill
decisions, same instruction counts, on every workload.  These tests
enforce that contract differentially and pin the bugfixes that rode
along (call-scoped loop stats, the uncoverable-task diagnostic, the
visited-memo cap, stall-NOP/bound interaction, empty-NOP round-trips).
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.covering import (
    CodeGenerator,
    HeuristicConfig,
    TaskGraph,
    cover_assignment,
    explore_assignments,
    generate_block_solution,
)
import repro.covering.cliques as cliques_module
import repro.covering.cover as cover_module
from repro.covering.engine import machine_fingerprint
from repro.covering.parallelism import parallelism_masks, parallelism_matrix
from repro.errors import CoverageError, ReproError
from repro.eval.workloads import WORKLOADS
from repro.ir import BlockDAG, Opcode
from repro.isdl import (
    example_architecture,
    parse_machine,
    pipelined_dsp_architecture,
)
from repro.sndag import build_split_node_dag
from repro.telemetry import TelemetrySession, use_session
from repro.utils.bitset import bits, mask_of

from conftest import build_fig2_dag, build_wide_dag, solve_both_kernels

CORPUS_FILES = sorted((Path(__file__).parent / "corpus").glob("*.json"))

BITMASK = HeuristicConfig(clique_kernel="bitmask")
REFERENCE = HeuristicConfig(clique_kernel="reference")


def _graph_for(dag, machine, config=None, pin_value=None):
    sn = build_split_node_dag(dag, machine)
    assignments = explore_assignments(
        sn, config or HeuristicConfig.default()
    )
    return TaskGraph(sn, assignments[0], pin_value=pin_value)


# The both-kernel solver lives in conftest (solve_both_kernels) so the
# golden-schedule regression tests share the exact same canonical form.
_solve = solve_both_kernels


def _build_sop_dag(terms):
    dag = BlockDAG()
    parts = []
    for i in range(terms):
        product = dag.operation(
            Opcode.MUL, (dag.var(f"a{i}"), dag.var(f"b{i}"))
        )
        parts.append(dag.operation(Opcode.ADD, (product, dag.var(f"c{i}"))))
    total = parts[0]
    for part in parts[1:]:
        total = dag.operation(Opcode.ADD, (total, part))
    dag.store("acc", total)
    return dag


@pytest.mark.hotpath
class TestKernelEquivalence:
    """Bit-identical schedules under both kernels, everywhere."""

    @pytest.mark.parametrize(
        "load", WORKLOADS, ids=lambda load: load.name
    )
    @pytest.mark.parametrize("registers", [2, 4])
    def test_paper_workloads(self, load, registers):
        machine = example_architecture(registers)
        outcome = _solve(load.build(), machine)
        assert outcome["bitmask"] == outcome["reference"], load.name

    @pytest.mark.parametrize("registers", [2, 4])
    def test_wide_dag_no_window(self, registers):
        # Level window off is the clique-dense regime the bitmask
        # kernel was built for; spills on the 2-register machine also
        # exercise the incremental rebuild path.
        machine = example_architecture(registers)
        outcome = _solve(
            build_wide_dag(8), machine, level_window=None,
            num_assignments=2,
        )
        assert outcome["bitmask"] == outcome["reference"]

    @pytest.mark.parametrize("registers", [2, 4])
    def test_sum_of_products_spills(self, registers):
        machine = example_architecture(registers)
        outcome = _solve(
            _build_sop_dag(6), machine, level_window=None,
            num_assignments=2,
        )
        assert outcome["bitmask"] == outcome["reference"]

    def test_pipelined_machine_with_stalls(self):
        # Multi-cycle latencies drive the incremental ready state's
        # waiting heap; the kernels must agree on every stall.
        dag = BlockDAG()
        a, b, c = dag.var("a"), dag.var("b"), dag.var("c")
        first = dag.operation(Opcode.MUL, (a, b))
        second = dag.operation(Opcode.MUL, (first, c))
        dag.store("p", second)
        outcome = _solve(dag, pipelined_dsp_architecture(4))
        assert outcome["bitmask"] == outcome["reference"]

    def test_tight_clique_budget(self):
        # A tiny max_cliques forces the budget-trip + singleton-top-up
        # path, where traversal order decides which cliques exist.
        outcome = _solve(
            build_wide_dag(8),
            example_architecture(4),
            level_window=None,
            num_assignments=2,
            max_cliques=6,
        )
        assert outcome["bitmask"] == outcome["reference"]

    def test_clique_lists_identical(self):
        # Below the covering loop: the raw legalized clique lists agree
        # member-for-member, in order.
        from repro.covering.cliques import (
            generate_maximal_cliques,
            generate_maximal_clique_masks,
            legalize_cliques,
            legalize_clique_masks,
        )

        graph = _graph_for(build_wide_dag(6), example_architecture(4))
        task_ids = graph.task_ids()
        matrix, index_map = parallelism_matrix(
            graph, task_ids, level_window=None
        )
        as_tasks = [
            frozenset(index_map[i] for i in clique)
            for clique in generate_maximal_cliques(matrix)
        ]
        reference = legalize_cliques(graph, as_tasks, graph.machine)
        rows = parallelism_masks(graph, task_ids, level_window=None)
        masks = legalize_clique_masks(
            graph, generate_maximal_clique_masks(rows), graph.machine
        )
        assert [sorted(c) for c in reference] == [bits(m) for m in masks]


@pytest.mark.hotpath
@pytest.mark.corpus
@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda path: path.stem)
def test_corpus_cases_agree_across_kernels(path):
    """Every frozen fuzz reproducer behaves identically under both
    kernels (outcome class, instruction count, spills, cycles)."""
    from repro.fuzz import load_case, run_case

    case = load_case(path)
    results = {}
    for kernel in ("bitmask", "reference"):
        variant = dataclasses.replace(
            case, config={**case.config, "clique_kernel": kernel}
        )
        result = run_case(variant)
        results[kernel] = (
            result.outcome,
            result.instructions,
            result.spills,
            result.cycles,
        )
    assert results["bitmask"] == results["reference"]


class TestUncoverableDiagnostic:
    """A task with no legal implementation must raise a precise error,
    not silently drop out of every clique (the old behavior left the
    covering loop to starve and spill forever)."""

    MACHINE = """
    machine mono {
      memory DM size 256;
      regfile RF1 size 4;
      unit U1 regfile RF1 { op ADD; op MUL; }
      bus B1 connects DM, RF1;
      constraint never U1.MUL;
    }
    """

    @pytest.mark.parametrize("config", [BITMASK, REFERENCE])
    def test_banned_op_raises_precise_error(self, config):
        machine = parse_machine(self.MACHINE)
        dag = BlockDAG()
        dag.store(
            "p", dag.operation(Opcode.MUL, (dag.var("a"), dag.var("b")))
        )
        with pytest.raises(CoverageError) as excinfo:
            generate_block_solution(dag, machine, config)
        message = str(excinfo.value)
        assert "no legal implementation" in message
        assert "MUL" in message
        assert "violates" in message

    def test_legal_ops_still_compile(self):
        machine = parse_machine(self.MACHINE)
        dag = BlockDAG()
        dag.store(
            "s", dag.operation(Opcode.ADD, (dag.var("a"), dag.var("b")))
        )
        solution = generate_block_solution(dag, machine)
        solution.validate()

    def test_diagnostic_identical_across_kernels(self):
        machine = parse_machine(self.MACHINE)
        dag = BlockDAG()
        dag.store(
            "p", dag.operation(Opcode.MUL, (dag.var("a"), dag.var("b")))
        )
        messages = {}
        for config in (BITMASK, REFERENCE):
            with pytest.raises(CoverageError) as excinfo:
                generate_block_solution(dag, machine, config)
            messages[config.clique_kernel] = str(excinfo.value)
        assert messages["bitmask"] == messages["reference"]


class TestLoopStatsScoping:
    """Covering-loop stats are call-scoped: a covering run nested inside
    another (telemetry probes, tooling hooks) must not corrupt the outer
    call's counters — the old module-level ``_LOOP_STATS`` did."""

    def _iterations(self, run):
        session = TelemetrySession()
        with use_session(session):
            run()
        return session.report().to_dict()["counters"]["cover.iterations"]

    def test_nested_cover_counts_add_exactly(self, monkeypatch):
        outer_dag = build_fig2_dag()
        inner_dag = build_wide_dag(3)
        machine = example_architecture(4)

        outer_alone = self._iterations(
            lambda: generate_block_solution(outer_dag, machine, REFERENCE)
        )
        inner_alone = self._iterations(
            lambda: generate_block_solution(inner_dag, machine, BITMASK)
        )

        original = cover_module._build_cliques
        fired = []

        def nesting_build_cliques(*args, **kwargs):
            if not fired:
                fired.append(True)
                # A full covering run while the outer loop is mid-flight.
                generate_block_solution(inner_dag, machine, BITMASK)
            return original(*args, **kwargs)

        monkeypatch.setattr(
            cover_module, "_build_cliques", nesting_build_cliques
        )
        combined = self._iterations(
            lambda: generate_block_solution(outer_dag, machine, REFERENCE)
        )
        assert fired, "the nesting hook never ran"
        assert combined == outer_alone + inner_alone


class TestVisitedCap:
    """The clique recursion's visited memo is capped: past the cap it
    stops absorbing new states (a pure prune, so results are unchanged)
    instead of growing without bound."""

    def test_tiny_cap_same_cliques(self, monkeypatch):
        from repro.covering.cliques import (
            generate_maximal_cliques,
            generate_maximal_clique_masks,
        )

        graph = _graph_for(
            build_wide_dag(6),
            example_architecture(4),
            config=HeuristicConfig(level_window=None, num_assignments=2),
        )
        matrix, _ = parallelism_matrix(
            graph, graph.task_ids(), level_window=None
        )
        rows = parallelism_masks(
            graph, graph.task_ids(), level_window=None
        )
        unlimited_sets = generate_maximal_cliques(matrix)
        unlimited_masks = generate_maximal_clique_masks(rows)
        monkeypatch.setattr(cliques_module, "_VISITED_LIMIT", 4)
        assert generate_maximal_cliques(matrix) == unlimited_sets
        assert generate_maximal_clique_masks(rows) == unlimited_masks


class TestBlockSolutionMemo:
    """Structurally identical blocks compile once per CodeGenerator."""

    def test_second_compile_hits(self):
        generator = CodeGenerator(example_architecture(4))
        session = TelemetrySession()
        with use_session(session):
            first = generator.compile_dag(build_fig2_dag())
            second = generator.compile_dag(build_fig2_dag())
        counters = session.report().to_dict()["counters"]
        assert counters["cover.memo_misses"] == 1
        assert counters["cover.memo_hits"] == 1
        assert second.schedule == first.schedule
        assert second.spill_count == first.spill_count
        second.validate()

    def test_hit_returns_private_copy(self):
        generator = CodeGenerator(example_architecture(4))
        first = generator.compile_dag(build_fig2_dag())
        pristine = [sorted(word) for word in first.schedule]
        # Mutate the returned solution the way downstream passes do.
        first.schedule = []
        first.graph.tasks.clear()
        second = generator.compile_dag(build_fig2_dag())
        assert [sorted(word) for word in second.schedule] == pristine
        assert second.graph.tasks
        second.validate()

    def test_different_machines_do_not_collide(self):
        session = TelemetrySession()
        with use_session(session):
            small = CodeGenerator(example_architecture(2))
            large = CodeGenerator(example_architecture(4))
            small.compile_dag(build_wide_dag(5))
            large.compile_dag(build_wide_dag(5))
        counters = session.report().to_dict()["counters"]
        assert counters["cover.memo_misses"] == 2
        assert counters.get("cover.memo_hits", 0) == 0

    def test_fingerprints_are_content_hashes(self):
        assert build_fig2_dag().fingerprint() == build_fig2_dag().fingerprint()
        assert (
            build_fig2_dag().fingerprint()
            != build_wide_dag(3).fingerprint()
        )
        assert machine_fingerprint(
            example_architecture(4)
        ) == machine_fingerprint(example_architecture(4))
        assert machine_fingerprint(
            example_architecture(4)
        ) != machine_fingerprint(example_architecture(2))


class TestStallNopBoundInteraction:
    """Stall NOPs count against the branch-and-bound instruction bound:
    a schedule that only reaches the bound because of latency padding is
    still pruned (returns None), and one cycle of slack admits it."""

    def _chained_mul_dag(self):
        dag = BlockDAG()
        a, b, c = dag.var("a"), dag.var("b"), dag.var("c")
        first = dag.operation(Opcode.MUL, (a, b))
        second = dag.operation(Opcode.MUL, (first, c))
        dag.store("p", second)
        return dag

    @pytest.mark.parametrize("config", [BITMASK, REFERENCE])
    def test_bound_counts_stall_nops(self, config):
        machine = pipelined_dsp_architecture(4)
        dag = self._chained_mul_dag()
        free = cover_assignment(_graph_for(dag, machine), config)
        assert any(not word for word in free.schedule), (
            "expected at least one stall NOP between chained MULs"
        )
        length = free.instruction_count
        pruned = cover_assignment(
            _graph_for(dag, machine), config, bound=length
        )
        assert pruned is None
        admitted = cover_assignment(
            _graph_for(dag, machine), config, bound=length + 1
        )
        assert admitted is not None
        assert admitted.instruction_count == length

    @pytest.mark.parametrize("config", [BITMASK, REFERENCE])
    def test_pinned_latency_padding_counts_against_bound(self, config):
        # Pinning a multi-cycle result (a branch condition that is never
        # stored) pads the schedule until the value is written back;
        # that trailing padding also hits the bound.
        machine = pipelined_dsp_architecture(4)
        dag = BlockDAG()
        dag.store(
            "s", dag.operation(Opcode.ADD, (dag.var("a"), dag.var("b")))
        )
        condition = dag.operation(
            Opcode.MUL, (dag.var("x"), dag.var("y"))
        )
        sn = build_split_node_dag(dag, machine)
        assignment = explore_assignments(sn, config)[0]
        padded = cover_assignment(
            TaskGraph(sn, assignment, pin_value=condition), config
        )
        unpadded = cover_assignment(TaskGraph(sn, assignment), config)
        assert padded.instruction_count > unpadded.instruction_count
        assert not padded.schedule[-1], "expected trailing NOP padding"
        pruned = cover_assignment(
            TaskGraph(sn, assignment, pin_value=condition),
            config,
            bound=padded.instruction_count,
        )
        assert pruned is None
        admitted = cover_assignment(
            TaskGraph(sn, assignment, pin_value=condition),
            config,
            bound=padded.instruction_count + 1,
        )
        assert admitted is not None
        assert admitted.instruction_count == padded.instruction_count


class TestEmptyNopRoundTrips:
    """Stall cycles emit empty instruction words; those words must
    survive the assembler text format, the binary encoding, and the
    simulator."""

    def _compiled(self):
        from repro.asmgen import compile_dag

        dag = BlockDAG()
        a, b, c = dag.var("a"), dag.var("b"), dag.var("c")
        first = dag.operation(Opcode.MUL, (a, b))
        second = dag.operation(Opcode.MUL, (first, c))
        dag.store("p", second)
        machine = pipelined_dsp_architecture(4)
        return compile_dag(dag, machine), machine

    def test_compiled_program_contains_empty_word(self):
        compiled, _ = self._compiled()
        assert any(
            instruction.is_empty()
            for instruction in compiled.program.instructions[:-1]
        )

    def test_text_round_trip(self):
        from repro.assembler import parse_assembly, program_to_text

        compiled, machine = self._compiled()
        text = program_to_text(compiled.program)
        reparsed = parse_assembly(text, machine)
        assert program_to_text(reparsed) == text

    def test_binary_round_trip(self):
        # Binary encoding drops labels, so compare structure and
        # behavior rather than exact text.
        from repro.assembler import decode_program, encode_program
        from repro.simulator import run_program

        compiled, machine = self._compiled()
        blob = encode_program(compiled.program, machine)
        decoded = decode_program(blob, machine)
        assert len(decoded.instructions) == len(
            compiled.program.instructions
        )
        assert [i.is_empty() for i in decoded.instructions] == [
            i.is_empty() for i in compiled.program.instructions
        ]
        env = {"a": 2, "b": 3, "c": 7}
        assert (
            run_program(decoded, machine, env).variables
            == run_program(compiled.program, machine, env).variables
        )

    def test_simulator_executes_through_nops(self):
        from repro.simulator import run_program

        compiled, machine = self._compiled()
        env = {"a": 2, "b": 3, "c": 7}
        result = run_program(compiled.program, machine, env)
        assert result.variables["p"] == 42


# ----------------------------------------------------------------------
# The near-linear rewrites against their brute-force definitions
# ----------------------------------------------------------------------


@st.composite
def _bitmask_graphs(draw):
    """Parallelism rows over 1–24 sparse task ids, any edge density."""
    ids = draw(
        st.lists(st.integers(0, 47), min_size=1, max_size=24, unique=True)
    )
    density = draw(st.floats(0.0, 1.0))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = {node: 0 for node in ids}
    for position, a in enumerate(ids):
        for b in ids[position + 1 :]:
            if rng.random() < density:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    restrict = 0
    if draw(st.booleans()):
        restrict = mask_of(draw(st.lists(st.sampled_from(ids), max_size=6)))
    budget = draw(st.one_of(st.none(), st.integers(0, 24)))
    return rows, budget, restrict


def _recount(graph, remaining):
    """The lookahead estimate from scratch: busiest resource or longest
    dependence chain over ``remaining``."""
    if not remaining:
        return 0
    per_resource = {}
    for task_id in remaining:
        resource = graph.tasks[task_id].resource
        per_resource[resource] = per_resource.get(resource, 0) + 1
    depth = {}

    def chain(task_id):
        if task_id not in depth:
            depth[task_id] = 1 + max(
                (
                    chain(d)
                    for d in graph.tasks[task_id].dependencies()
                    if d in remaining
                ),
                default=0,
            )
        return depth[task_id]

    return max(max(per_resource.values()), max(map(chain, remaining)))


class TestNearLinearRewrites:
    """Pivoting enumeration returns exactly what the Fig. 8 recursion
    returns — budget trips and the cliques a trip keeps included — and
    the largest-first subsumption filter equals the pairwise one."""

    @settings(max_examples=400, deadline=None)
    @given(_bitmask_graphs())
    def test_enumeration_equals_fig8(self, graph):
        rows, budget, restrict = graph
        found, tripped, stats = cliques_module._enumerate_clique_masks(
            rows, budget, restrict
        )
        fig8_found, fig8_tripped, fig8_stats = (
            cliques_module._fig8_clique_masks(rows, budget, restrict)
        )
        assert (found, tripped) == (fig8_found, fig8_tripped)
        if stats[2]:
            assert stats[:2] == fig8_stats
        else:
            # The pivoting pass only answers where Fig. 8 cannot trip.
            assert stats == [0, 0, 0]
            assert budget is None or len(found) < budget

    @settings(max_examples=300, deadline=None)
    @given(
        st.sets(st.integers(1, (1 << 12) - 1), max_size=60)
    )
    def test_subsumption_filter_equals_pairwise(self, cliques):
        pairwise = [
            c
            for c in cliques
            if not any(c != other and c & ~other == 0 for other in cliques)
        ]
        assert sorted(cliques_module._drop_subsumed(cliques)) == sorted(
            pairwise
        )

    @pytest.mark.parametrize("registers", [2, 4])
    @pytest.mark.parametrize("load", WORKLOADS, ids=lambda load: load.name)
    def test_lookahead_equals_full_recount(self, load, registers):
        # Random covering states (a dependence-closed covered set) and
        # random candidates among the ready tasks: the O(|c|) estimate
        # equals recounting ``uncovered - c`` from scratch.
        graph = _graph_for(load.build(), example_architecture(registers))
        rng = random.Random(registers)
        for _ in range(40):
            covered = set()
            for _ in range(rng.randrange(len(graph.tasks))):
                ready = [
                    t
                    for t in graph.task_ids()
                    if t not in covered
                    and all(d in covered for d in graph.tasks[t].dependencies())
                ]
                covered.add(rng.choice(ready))
            uncovered = set(graph.task_ids()) - covered
            ready = sorted(
                t
                for t in uncovered
                if not set(graph.tasks[t].dependencies()) & uncovered
            )
            estimate = cover_module._Lookahead(graph, uncovered).estimate
            for size in range(len(ready) + 1):
                members = sorted(rng.sample(ready, size))
                assert estimate(members) == _recount(
                    graph, uncovered - set(members)
                )

    def test_budget_regime_is_exercised(self):
        # A dense 10-node graph has more maximal cliques than a budget
        # of 3, so Fig. 8 must take over (and trips).
        rows = {
            node: ((1 << 10) - 1) & ~(1 << node) & ~(1 << (node ^ 1))
            for node in range(10)
        }
        found, tripped, stats = cliques_module._enumerate_clique_masks(
            rows, 3
        )
        assert tripped and stats[2] == 1
        assert found == cliques_module._fig8_clique_masks(rows, 3)[0]


# ----------------------------------------------------------------------
# The TaskGraph consumer index
# ----------------------------------------------------------------------


def _scan_consumers(graph, task_id):
    return [
        other
        for other in graph.task_ids()
        if any(r.producer == task_id for r in graph.tasks[other].reads)
    ]


class TestConsumerIndex:
    """``TaskGraph`` keeps a producer→consumers index through its own
    mutators; ``validate()`` compares it with a full scan."""

    def _check(self, graph):
        graph.validate()
        for task_id in graph.task_ids():
            assert graph.consumers_of(task_id) == _scan_consumers(
                graph, task_id
            )

    def _spilled_solutions(self, source, machine):
        from repro.asmgen import compile_function
        from repro.frontend import compile_source

        compiled = compile_function(
            compile_source(source), machine, peephole=False
        )
        solutions = [block.solution for block in compiled.blocks.values()]
        assert sum(s.spill_count for s in solutions) > 0
        return solutions

    def test_fir4_on_arch1_after_spills_and_peephole(self):
        from repro.peephole import peephole_optimize

        source = (Path(__file__).parent.parent / "examples" / "fir4.minic")
        for solution in self._spilled_solutions(
            source.read_text(), example_architecture(4)
        ):
            self._check(solution.graph)
            peephole_optimize(solution)
            self._check(solution.graph)

    def test_ex5_on_two_registers_after_spills_and_peephole(self):
        from repro.eval.workloads import workload
        from repro.peephole import peephole_optimize

        solution = generate_block_solution(
            workload("Ex5").build(), example_architecture(2)
        )
        assert solution.spill_count > 0
        self._check(solution.graph)
        peephole_optimize(solution)
        self._check(solution.graph)

    def test_bypassing_the_mutators_fails_validation(self):
        graph = _graph_for(build_fig2_dag(), example_architecture(4))
        reader = next(
            t
            for t in graph.task_ids()
            if any(r.producer is not None for r in graph.tasks[t].reads)
        )
        graph.tasks[reader].reads = ()
        with pytest.raises(CoverageError, match="consumer index"):
            graph.validate()


# ----------------------------------------------------------------------
# Assignment exploration's per-unit root lists
# ----------------------------------------------------------------------


def _full_scan_roots(partial, unit):
    """The same-unit roots the cost model used to find by scanning
    every op of ``partial.choice``."""
    return sorted(
        other_id
        for other_id, other_alt in partial.choice.items()
        if other_alt.unit == unit and other_alt.covers[0] == other_id
    )


def _full_scan_cost(model, partial, op_id, alternative):
    """``incremental_cost`` as it was before the root lists: the
    parallelism and register terms from a scan of ``partial.choice``."""
    from repro.ir.ops import Opcode as Op, is_leaf

    machine = model.machine
    rf = machine.unit(alternative.unit).register_file
    covered = set(alternative.covers)
    root = alternative.covers[0]
    cost = 0
    for consumer_id in model.consumers.get(root, ()):
        if model.dag.node(consumer_id).opcode is Op.STORE:
            cost += model.distance(rf, machine.data_memory)
            continue
        chosen = partial.choice.get(consumer_id)
        if chosen is None or consumer_id in covered:
            continue
        cost += model.distance(rf, machine.unit(chosen.unit).register_file)
    for operand_id in model._operands_of(op_id, alternative):
        if is_leaf(model.dag.node(operand_id).opcode):
            cost += model.distance(machine.data_memory, rf)
    overlapping = 1
    for other_id, other_alt in partial.choice.items():
        if other_id in partial.absorbed or other_alt.unit != alternative.unit:
            continue
        if other_alt.covers[0] != other_id:
            continue
        if model.independent(other_id, root):
            overlapping += 1
            if other_id not in covered:
                cost += 1
    if model.config.register_aware_assignment:
        excess = overlapping - machine.rf_of_unit(alternative.unit).size
        if excess > 0:
            cost += excess * model.config.spill_penalty
    return cost


@pytest.mark.corpus
def test_assignment_costs_match_full_scan_on_corpus(monkeypatch):
    """Every incremental cost explored on the frozen corpus — with and
    without the register-aware penalty — equals the old full scan, and
    every partial's root lists equal the scan's same-unit roots."""
    from repro.covering.assignment import _CostModel
    from repro.frontend import compile_source
    from repro.fuzz import load_case

    original = _CostModel.incremental_cost
    calls = []

    def checked(model, partial, op_id, alternative):
        cost = original(model, partial, op_id, alternative)
        for unit, roots in partial.roots.items():
            assert sorted(roots) == _full_scan_roots(partial, unit)
        assert cost == _full_scan_cost(model, partial, op_id, alternative)
        calls.append(cost)
        return cost

    monkeypatch.setattr(_CostModel, "incremental_cost", checked)
    for path in CORPUS_FILES:
        case = load_case(path)
        try:
            function = compile_source(case.source)
        except ReproError:
            continue
        base = case.heuristic_config()
        for register_aware in (False, True):
            config = base.with_(register_aware_assignment=register_aware)
            for block in function:
                try:
                    explore_assignments(
                        build_split_node_dag(block.dag, case.machine),
                        config,
                    )
                except ReproError:
                    continue
    assert len(calls) > 1000
