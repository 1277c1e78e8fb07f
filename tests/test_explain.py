"""The decision journal and ``repro explain`` (src/repro/explain/).

The contract under test is threefold: journaling observes without
perturbing (schedules identical with journaling on or off), journals
are deterministic (byte-identical across repeated runs *and* against
the test-only reference covering oracle), and the report explains the
acceptance example — for the Fig. 6 workload every covering step names
the winning clique with its lookahead estimate and, whenever more than
one clique was feasible, at least one losing alternative.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import build_fig6_dag
from reference_kernel import reference_kernel

from repro.artifacts import validate
from repro.covering.config import HeuristicConfig
from repro.explain import (
    DECISION_KINDS,
    DecisionJournal,
    EXPLAIN_SCHEMA,
    build_explain_report,
    compile_with_journal,
    diff_reports,
    explain_source,
    find_decision,
    render_diff_text,
    render_html,
    render_text,
)
from repro.isdl import example_architecture
from repro.isdl.builtin_machines import BUILTIN_MACHINES

EXAMPLES = Path(__file__).parent.parent / "examples"

FIR4 = (EXAMPLES / "fir4.minic").read_text()


def _explain(source, machine, **overrides):
    config = HeuristicConfig.default().with_(**overrides)
    report, compiled, error = explain_source(
        source, machine, config, meta={"machine": machine.name}
    )
    assert error is None, error
    return report, compiled


class TestJournal:
    def test_scoping_and_counts(self):
        journal = DecisionJournal()
        journal.begin_block("bb0")
        journal.emit("assignment.select", selected=1)
        journal.begin_attempt(0, "forward")
        journal.emit("cover.step", cycle=0)
        journal.end_attempt()
        journal.end_block()
        journal.emit("block.solution", assignment=0)
        assert len(journal) == 3
        assert journal.by_kind() == {
            "assignment.select": 1,
            "block.solution": 1,
            "cover.step": 1,
        }
        step = journal.entries[1]
        assert step["block"] == "bb0"
        assert step["attempt"] == 0
        assert step["strategy"] == "forward"
        unscoped = journal.entries[2]
        assert unscoped["block"] is None and unscoped["attempt"] is None
        assert journal.block_entries("bb0") == journal.entries[:2]
        assert journal.block_entries(None) == [unscoped]

    def test_emit_rejects_nothing_but_registry_catches_drift(self):
        # The emitter is a hot-path append; the *validator* owns kind
        # hygiene so a typo cannot silently ship.
        journal = DecisionJournal()
        journal.emit("not.a.kind")
        report = build_explain_report(journal)
        with pytest.raises(ValueError, match="unknown decision kind"):
            validate(report, EXPLAIN_SCHEMA)

    def test_seq_strictly_increasing(self):
        journal = DecisionJournal()
        for _ in range(5):
            journal.emit("cover.stall", cycle=0)
        seqs = [e["seq"] for e in journal.entries]
        assert seqs == sorted(set(seqs))


class TestDeterminism:
    def test_two_runs_byte_identical(self, arch_fig6):
        first, _ = _explain(FIR4, arch_fig6)
        second, _ = _explain(FIR4, arch_fig6)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_kernels_byte_identical(self, arch_fig6):
        with reference_kernel():
            reference, _ = _explain(FIR4, arch_fig6)
        bitmask, _ = _explain(FIR4, arch_fig6)
        assert json.dumps(reference, sort_keys=True) == json.dumps(
            bitmask, sort_keys=True
        )

    @pytest.mark.parametrize("machine_key", ["arch1", "dualbus", "mac"])
    def test_kernels_byte_identical_across_machines(self, machine_key):
        machine = BUILTIN_MACHINES[machine_key]()
        with reference_kernel():
            reference, _ = _explain(FIR4, machine)
        bitmask, _ = _explain(FIR4, machine)
        assert json.dumps(reference, sort_keys=True) == json.dumps(
            bitmask, sort_keys=True
        )

    def test_journaling_does_not_change_output(self, arch_fig6):
        from repro.asmgen.program import compile_function
        from repro.frontend import compile_source

        function = compile_source(FIR4)
        plain = compile_function(function, arch_fig6)
        journal, journaled, error = compile_with_journal(
            compile_source(FIR4), arch_fig6
        )
        assert error is None
        assert len(journal) > 0
        assert plain.program.listing() == journaled.program.listing()

    def test_null_journal_is_inert(self):
        from repro.telemetry.session import NULL_JOURNAL, NullSession

        assert not NULL_JOURNAL.enabled
        assert NullSession.journal is NULL_JOURNAL
        # Every hook is a no-op and the null journal stores nothing
        # (the tracemalloc guard in test_telemetry.py proves it
        # allocates nothing either).
        NULL_JOURNAL.begin_block("bb0")
        NULL_JOURNAL.begin_attempt(0, "forward")
        NULL_JOURNAL.emit("cover.step", cycle=0)
        NULL_JOURNAL.end_attempt()
        NULL_JOURNAL.end_block()
        assert not hasattr(NULL_JOURNAL, "entries")


class TestAcceptance:
    """`repro explain examples/fir4.minic -m fig6 --json` (ISSUE gate)."""

    def test_fir4_on_fig6_schema_and_steps(self, arch_fig6):
        report, compiled = _explain(FIR4, arch_fig6)
        validate(report, EXPLAIN_SCHEMA)
        assert report["schema"] == EXPLAIN_SCHEMA
        counts = report["decision_counts"]
        assert counts.get("cover.step", 0) > 0
        assert counts.get("assignment.bind", 0) > 0
        steps = [
            entry
            for block in report["blocks"]
            for entry in block["decisions"]
            if entry["kind"] == "cover.step"
        ]
        contested = 0
        for step in steps:
            chosen = step["data"]["chosen"]
            # The winning clique is always named, with members and the
            # lookahead estimate that justified it.
            assert isinstance(chosen["members"], list) and chosen["members"]
            assert isinstance(chosen["lookahead"], int)
            for alternative in step["data"]["alternatives"]:
                assert isinstance(alternative["lookahead"], int)
                assert alternative["members"] != chosen["members"]
            if step["data"]["alternatives"]:
                contested += 1
        # Most of fir4's covering steps had real competition; every
        # contested step journals >= 1 pruned alternative.
        assert contested >= len(steps) // 2

    def test_fig6_block_names_winner_and_losers(self, arch_fig6):
        """The paper's Fig. 6 example block, step by step."""
        from repro.asmgen.program import compile_dag

        journal = DecisionJournal()
        from repro.telemetry.session import TelemetrySession, use_session

        with use_session(TelemetrySession(journal=journal)):
            compiled = compile_dag(build_fig6_dag(), arch_fig6)
        report = build_explain_report(journal, compiled)
        validate(report, EXPLAIN_SCHEMA)
        steps = [
            entry
            for block in report["blocks"]
            for entry in block["decisions"]
            if entry["kind"] == "cover.step"
        ]
        assert steps, "Fig. 6 block journaled no covering steps"
        assert any(step["data"]["alternatives"] for step in steps)
        for step in steps:
            assert step["data"]["chosen"]["members"]
            assert "lookahead" in step["data"]["chosen"]
        assert any(
            entry["kind"] == "block.solution"
            for block in report["blocks"]
            for entry in block["decisions"]
        )

    def test_quality_report_shape(self, arch_fig6):
        report, compiled = _explain(FIR4, arch_fig6)
        blocks = [b for b in report["blocks"] if b["quality"] is not None]
        assert blocks
        for block in blocks:
            quality = block["quality"]
            assert quality["cycles"] >= quality["lower_bound"] > 0
            assert quality["schedule_overhead"] >= 0
            assert quality["ipc"] > 0
            overhead = quality["overhead"]
            slot_total = (
                overhead["op_slots"]
                + overhead["transfer_slots"]
                + overhead["spill_slots"]
                + overhead["reload_slots"]
            )
            assert slot_total == quality["tasks"]
            assert len(block["timeline"]) == quality["cycles"]
            solution = compiled.blocks[block["name"]].solution
            assert quality["cycles"] == len(solution.schedule)


class TestRenderers:
    def test_text_and_html_render(self, arch_fig6):
        report, _ = _explain(FIR4, arch_fig6)
        text = render_text(report)
        assert "cycles vs lower bound" in text
        assert "chose" in text
        full = render_text(report, full=True)
        assert len(full) > len(text)
        page = render_html(report)
        assert page.startswith("<!DOCTYPE html>")
        assert 'class="timeline"' in page
        assert "&" not in report["meta"].get("machine", "") or "&amp;" in page

    def test_diff_identical_and_diverged(self, arch_fig6):
        report, _ = _explain(FIR4, arch_fig6)
        again, _ = _explain(FIR4, arch_fig6)
        diff = diff_reports(report, again, "x", "y")
        assert diff["identical"]
        assert "identical" in render_diff_text(diff)
        # fir4 makes the same decisions on fig6 and on arch1.
        arch1, _ = _explain(FIR4, example_architecture(4))
        assert diff_reports(report, arch1, "fig6", "arch1")["identical"]
        arch2, _ = _explain(FIR4, BUILTIN_MACHINES["arch2"]())
        diff = diff_reports(arch1, arch2, "arch1", "arch2")
        assert not diff["identical"]
        diverged = [b for b in diff["blocks"] if b["status"] == "diverged"]
        assert diverged
        divergence = diverged[0]["divergence"]
        assert divergence["arch1"]["kind"] == "assignment.bind"
        assert divergence["arch2"]["kind"] == "assignment.bind"
        assert diverged[0]["quality_delta"]["cycles"] == [49, 56]
        assert "DIVERGED" in render_diff_text(diff)


class TestLinking:
    def test_find_decision_by_task_and_cycle(self, arch_fig6):
        report, compiled = _explain(FIR4, arch_fig6)
        block = next(b for b in report["blocks"] if b["quality"] is not None)
        step = next(
            e for e in block["decisions"] if e["kind"] == "cover.step"
        )
        task = step["data"]["chosen"]["members"][0]
        link = find_decision(report, block["name"], task=task)
        assert link is not None
        assert link["kind"] in ("cover.step", "cover.spill")
        assert isinstance(link["seq"], int) and link["summary"]
        by_cycle = find_decision(
            report, block["name"], cycle=step["data"]["cycle"]
        )
        assert by_cycle is not None
        assert find_decision(report, "no-such-block", task=task) is None

    def test_journal_survives_failed_compile(self):
        # A machine with no MUL support fails coverage; the journal up
        # to the failure is still reported, with the error in meta.
        from repro.isdl.parser import parse_machine

        machine = parse_machine(
            """
            machine add_only {
              wordsize 32;
              memory DM size 64;
              regfile RF1 size 4;
              unit U1 regfile RF1 { op ADD; op SUB; }
              bus B1 connects DM, RF1;
            }
            """
        )
        report, compiled, error = explain_source(
            "x = a * b;\n", machine, meta={"machine": machine.name}
        )
        assert error is not None, "add-only machine covered a MUL"
        assert compiled is None
        validate(report, EXPLAIN_SCHEMA)
        assert "error" in report["meta"]


class TestKindsRegistry:
    def test_registry_matches_emitters(self):
        """Every kind the pipeline can emit is registered (grep-proof)."""
        import repro.covering.assignment
        import repro.covering.cliques
        import repro.covering.cover
        import repro.covering.engine
        import repro.covering.taskgraph
        import inspect

        emitted = set()
        for module in (
            repro.covering.assignment,
            repro.covering.cliques,
            repro.covering.cover,
            repro.covering.engine,
            repro.covering.taskgraph,
        ):
            source = inspect.getsource(module)
            for kind in DECISION_KINDS:
                if f'"{kind}"' in source:
                    emitted.add(kind)
        assert emitted <= DECISION_KINDS
        # Every registered kind comes from the covering layer.
        assert DECISION_KINDS - emitted == set()
