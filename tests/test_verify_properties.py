"""Property tests for the translation validator (``repro.verify``).

Two halves, both marked ``verify``:

- **Certification sweep**: every corpus program is compiled against all
  bundled machine files; every combination the engine can cover must certify with zero violations.  Machines that
  genuinely cannot implement a program (missing opcodes, too few
  connections) are coverage-skips, not failures — the same contract the
  ``repro verify`` CLI reports.
- **Seeded mutations**: starting from a certified schedule, each of five
  hand-crafted corruptions (swap two words, drop a transfer, drop a
  stall NOP, double-cover a node, overfill a bank) must be caught, and
  caught as the *expected* violation kind.  This is the test that keeps
  the validator honest: a checker that never fires proves nothing.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from pathlib import Path

import pytest

from repro.asmgen.program import compile_function
from repro.covering import HeuristicConfig, generate_block_solution
from repro.errors import CoverageError
from repro.frontend import compile_source
from repro.fuzz import load_case
from repro.ir import BlockDAG, Opcode
from repro.isdl import parse_machine, pipelined_dsp_architecture
from repro.verify import ViolationKind, verify_function, verify_solution

REPO = Path(__file__).parent.parent
CORPUS_FILES = sorted((Path(__file__).parent / "corpus").glob("*.json"))
MACHINE_FILES = sorted((REPO / "machines").glob("*.isdl"))

#: Small exploration budgets keep the 320-combination sweep fast; the
#: validator checks the *output*, so search width is irrelevant to it.
SMALL = {"num_assignments": 2, "frontier_limit": 16}

MONO_MACHINE = """
machine mono {{
  memory DM size 256;
  regfile RF1 size {size};
  unit U1 regfile RF1 {{ op ADD; op MUL; }}
  bus B1 connects DM, RF1;
}}
"""


@lru_cache(maxsize=None)
def _machine(path: Path):
    return parse_machine(path.read_text())


@lru_cache(maxsize=None)
def _corpus_source(path: Path) -> str:
    return load_case(path).source


def _config() -> HeuristicConfig:
    return HeuristicConfig.default().with_(**SMALL)


def _solved(dag: BlockDAG, machine):
    solution = generate_block_solution(dag, machine, _config())
    baseline = verify_solution(solution)
    assert baseline.ok, "\n".join(v.describe() for v in baseline.violations)
    return solution


def _chain_dag() -> BlockDAG:
    """(a * b + c) stored — loads, an inter-task chain, and a store."""
    dag = BlockDAG()
    product = dag.operation(Opcode.MUL, (dag.var("a"), dag.var("b")))
    dag.store("r", dag.operation(Opcode.ADD, (product, dag.var("c"))))
    return dag


def _two_products_dag() -> BlockDAG:
    """a*b + c*d — two simultaneously live intermediates."""
    dag = BlockDAG()
    left = dag.operation(Opcode.MUL, (dag.var("a"), dag.var("b")))
    right = dag.operation(Opcode.MUL, (dag.var("c"), dag.var("d")))
    dag.store("s", dag.operation(Opcode.ADD, (left, right)))
    return dag


# ----------------------------------------------------------------------
# Certification sweep
# ----------------------------------------------------------------------


@pytest.mark.verify
@pytest.mark.parametrize("machine_path", MACHINE_FILES, ids=lambda p: p.stem)
@pytest.mark.parametrize("corpus_path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_certifies_on_every_machine(corpus_path, machine_path):
    machine = _machine(machine_path)
    function = compile_source(_corpus_source(corpus_path))
    try:
        compiled = compile_function(function, machine, _config())
    except CoverageError:
        pytest.skip(f"{machine.name} cannot cover {corpus_path.stem}")
    violations = [
        violation
        for report in verify_function(compiled)
        for violation in report.violations
    ]
    assert not violations, "\n".join(v.describe() for v in violations)


@pytest.mark.verify
def test_sweep_is_not_vacuous():
    """At least one (program, machine) pair must actually certify —
    otherwise the sweep above could silently skip everything."""
    machine = _machine(MACHINE_FILES[0])
    function = compile_source(_corpus_source(CORPUS_FILES[0]))
    try:
        compiled = compile_function(function, machine, _config())
    except CoverageError:
        pytest.skip("first pairing uncoverable; sweep covers the rest")
    assert all(report.ok for report in verify_function(compiled))


# ----------------------------------------------------------------------
# Seeded mutations: each corruption yields its *expected* kind
# ----------------------------------------------------------------------


@pytest.mark.verify
class TestSeededMutations:
    def test_swapped_words_break_dependence_order(self):
        solution = _solved(
            _chain_dag(), parse_machine(MONO_MACHINE.format(size=4))
        )
        cycle_of = {
            task_id: cycle
            for cycle, word in enumerate(solution.schedule)
            for task_id in word
        }
        pair = next(
            (cycle_of[dep], cycle_of[task_id])
            for task_id, task in sorted(solution.graph.tasks.items())
            for dep in task.dependencies()
            if cycle_of[dep] != cycle_of[task_id]
        )
        earlier, later = pair
        schedule = list(solution.schedule)
        schedule[earlier], schedule[later] = (
            schedule[later],
            schedule[earlier],
        )
        solution.schedule = schedule
        report = verify_solution(solution)
        assert not report.ok
        assert ViolationKind.DEPENDENCE_ORDER.value in report.kinds()

    def test_dropped_transfer_breaks_value_flow(self):
        solution = _solved(
            _chain_dag(), parse_machine(MONO_MACHINE.format(size=4))
        )
        graph = solution.graph
        xfer_id = next(
            task_id
            for task_id, task in sorted(graph.tasks.items())
            if task.kind.value == "xfer" and graph.consumers_of(task_id)
        )
        del graph.tasks[xfer_id]
        solution.schedule = [
            [t for t in word if t != xfer_id]
            for word in solution.schedule
        ]
        report = verify_solution(solution)
        assert not report.ok
        assert ViolationKind.VALUE_FLOW.value in report.kinds()

    def test_dropped_stall_nop_breaks_dependence_order(self):
        # Chained multi-cycle MULs on the pipelined machine force at
        # least one empty stall word; deleting it compacts the schedule
        # past a latency.
        dag = BlockDAG()
        first = dag.operation(Opcode.MUL, (dag.var("a"), dag.var("b")))
        dag.store(
            "p", dag.operation(Opcode.MUL, (first, dag.var("c")))
        )
        solution = _solved(dag, pipelined_dsp_architecture(4))
        empty = next(
            cycle
            for cycle, word in enumerate(solution.schedule)
            if not word
        )
        solution.schedule = (
            solution.schedule[:empty] + solution.schedule[empty + 1 :]
        )
        report = verify_solution(solution)
        assert not report.ok
        assert ViolationKind.DEPENDENCE_ORDER.value in report.kinds()

    def test_double_covered_node_is_flagged(self):
        solution = _solved(
            _chain_dag(), parse_machine(MONO_MACHINE.format(size=4))
        )
        graph = solution.graph
        op_id = next(
            task_id
            for task_id, task in sorted(graph.tasks.items())
            if task.kind.value == "op"
        )
        clone_id = max(graph.tasks) + 1
        graph.tasks[clone_id] = dataclasses.replace(
            graph.tasks[op_id], task_id=clone_id
        )
        solution.schedule = list(solution.schedule) + [[clone_id]]
        report = verify_solution(solution)
        assert not report.ok
        assert (
            ViolationKind.DOUBLE_COVERED_OPERATION.value in report.kinds()
        )

    def test_overfilled_bank_is_flagged(self):
        # Certify against the 4-register machine, then re-verify the
        # same schedule claiming the bank only has one register: the
        # independently recomputed occupancy must overflow.
        solution = _solved(
            _two_products_dag(), parse_machine(MONO_MACHINE.format(size=4))
        )
        solution.graph.machine = parse_machine(MONO_MACHINE.format(size=1))
        report = verify_solution(solution)
        assert not report.ok
        assert ViolationKind.BANK_OVERFLOW.value in report.kinds()
        assert report.kinds().count(ViolationKind.BANK_OVERFLOW.value) == 1


# ----------------------------------------------------------------------
# Structural mutations of the schedule map itself
# ----------------------------------------------------------------------


@pytest.mark.verify
class TestScheduleMapMutations:
    def test_unscheduled_task_is_flagged(self):
        solution = _solved(
            _chain_dag(), parse_machine(MONO_MACHINE.format(size=4))
        )
        victim = solution.schedule[0][0]
        solution.schedule = [
            [t for t in word if t != victim]
            for word in solution.schedule
        ]
        report = verify_solution(solution)
        assert ViolationKind.UNSCHEDULED_TASK.value in report.kinds()

    def test_phantom_task_is_flagged(self):
        solution = _solved(
            _chain_dag(), parse_machine(MONO_MACHINE.format(size=4))
        )
        phantom = max(solution.graph.tasks) + 7
        solution.schedule = list(solution.schedule) + [[phantom]]
        report = verify_solution(solution)
        assert ViolationKind.PHANTOM_TASK.value in report.kinds()

    def test_twice_issued_task_is_flagged(self):
        solution = _solved(
            _chain_dag(), parse_machine(MONO_MACHINE.format(size=4))
        )
        victim = solution.schedule[0][0]
        solution.schedule = list(solution.schedule) + [[victim]]
        report = verify_solution(solution)
        assert ViolationKind.DUPLICATE_TASK.value in report.kinds()


# ----------------------------------------------------------------------
# Fuzz wiring: validator violations are a distinct failure class
# ----------------------------------------------------------------------


def _fake_verify_function(compiled):
    """Stand-in validator that always reports one dependence-order
    violation, for exercising the fuzz plumbing without a compiler bug."""
    from repro.verify import VerificationReport

    report = VerificationReport(block="entry")
    report.add(
        ViolationKind.DEPENDENCE_ORDER,
        "seeded violation for the wiring test",
        cycle=0,
    )
    return [report]


@pytest.mark.verify
@pytest.mark.fuzz
class TestFuzzValidatorOutcome:
    CASE_SOURCE = "r = a + b;\n"

    def _case(self):
        from repro.fuzz import FuzzCase

        return FuzzCase(
            source=self.CASE_SOURCE,
            machine_isdl=MONO_MACHINE.format(size=4),
            inputs={"a": 1, "b": 2},
            config=dict(SMALL),
        )

    def test_clean_case_is_ok_with_validation(self):
        from repro.fuzz import Outcome, run_case

        result = run_case(self._case(), validate=True)
        assert result.outcome is Outcome.OK

    def test_violation_becomes_validator_outcome(self, monkeypatch):
        import repro.fuzz.oracle as oracle

        monkeypatch.setattr(
            oracle, "verify_function", _fake_verify_function
        )
        result = oracle.run_case(self._case(), validate=True)
        assert result.outcome is oracle.Outcome.VALIDATOR
        assert result.outcome.is_failure
        assert result.violations == [
            ViolationKind.DEPENDENCE_ORDER.value
        ]
        assert "dependence-order" in result.detail
        # Opting out skips the check entirely.
        assert (
            oracle.run_case(self._case(), validate=False).outcome
            is oracle.Outcome.OK
        )

    def test_campaign_counts_and_shrinks_validator_findings(
        self, monkeypatch, tmp_path
    ):
        import repro.fuzz.oracle as oracle
        from repro.fuzz import Outcome, run_campaign

        monkeypatch.setattr(
            oracle, "verify_function", _fake_verify_function
        )
        stats = run_campaign(
            seed=11,
            iterations=2,
            artifacts_dir=tmp_path,
            max_shrink_evaluations=40,
        )
        assert stats.outcomes[Outcome.VALIDATOR] >= 1
        finding = next(
            f
            for f in stats.findings
            if f.result.outcome is Outcome.VALIDATOR
        )
        assert finding.result.violations[0] == (
            ViolationKind.DEPENDENCE_ORDER.value
        )
        # The shrinker accepted candidates failing on the *same*
        # invariant, and the summary names it.
        assert finding.shrink is not None
        assert finding.shrink.result.violations[0] == (
            ViolationKind.DEPENDENCE_ORDER.value
        )
        assert "invariant: dependence-order" in stats.summary()
        assert finding.reproducer is not None and finding.reproducer.exists()
