"""Self-tests for the differential fuzzing subsystem.

The load-bearing test here is the injected-miscompile check: a fault
hook deliberately breaks transfer insertion after compilation, and the
oracle must (a) notice the wrong final state and (b) shrink the failing
case to a handful of statements.  That proves the whole apparatus —
generator, oracle, shrinker — actually detects miscompiles rather than
vacuously reporting OK.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.frontend.parser import parse_program
from repro.fuzz import (
    CaseResult,
    Outcome,
    count_statements,
    load_case,
    random_inputs,
    random_machine,
    random_program,
    render_program,
    run_campaign,
    run_case,
    save_reproducer,
    shrink_case,
)
from repro.fuzz.campaign import generate_case
from repro.fuzz.machgen import supported_opcodes
from repro.fuzz.oracle import (
    DEFAULT_OPTIMAL_BUDGET,
    FuzzCase,
    break_first_transfer,
)
from repro.isdl.parser import parse_machine
from repro.isdl.writer import machine_to_isdl

pytestmark = pytest.mark.fuzz

CORPUS = Path(__file__).parent / "corpus"


class TestGenerators:
    def test_machine_roundtrips_through_isdl(self):
        for seed in range(25):
            machine = random_machine(random.Random(seed), index=seed)
            machine.validate()
            reparsed = parse_machine(machine_to_isdl(machine))
            assert reparsed == machine, f"seed {seed}"

    def test_machine_supports_core_ops(self):
        from repro.ir.ops import Opcode

        for seed in range(25):
            machine = random_machine(random.Random(seed))
            supported = supported_opcodes(machine)
            assert {Opcode.ADD, Opcode.SUB, Opcode.LT} <= supported

    def test_program_renders_and_reparses_identically(self):
        for seed in range(25):
            rng = random.Random(seed)
            machine = random_machine(rng)
            program = random_program(rng, machine)
            source = render_program(program)
            assert parse_program(source) == program, f"seed {seed}"

    def test_generation_is_deterministic(self):
        first = generate_case(seed=11, iteration=4)
        second = generate_case(seed=11, iteration=4)
        assert first.source == second.source
        assert first.machine_isdl == second.machine_isdl
        assert first.inputs == second.inputs
        assert first.config == second.config

    def test_different_iterations_differ(self):
        cases = {generate_case(0, i).source for i in range(8)}
        assert len(cases) > 1


class TestOracle:
    def test_generated_cases_pass_or_coverage(self):
        for iteration in range(6):
            case = generate_case(seed=91, iteration=iteration)
            result = run_case(case)
            assert not result.outcome.is_failure, (
                f"iteration {iteration}: {result.describe()}\n"
                f"{case.source}\n{case.machine_isdl}"
            )

    def test_mismatch_reports_variables(self):
        # Interpreter says out = a + b; simulating with a broken final
        # state must list the differing variable.
        case = FuzzCase(
            source="out = (a + b);\n",
            machine_isdl=machine_to_isdl(random_machine(random.Random(3))),
            inputs={"a": 2, "b": 3},
        )
        result = run_case(case, post_compile_hook=break_first_transfer)
        if result.outcome is Outcome.MISMATCH:
            assert result.mismatches
            names = [name for name, _, _ in result.mismatches]
            assert "out" in names

    def test_nonterminating_classified(self):
        case = generate_case(seed=0, iteration=0)
        looping = case.replace(
            source="i0 = 0;\nwhile ((i0 < 10)) {\n  out = (out + 1);\n}\n"
        )
        result = run_case(looping, max_steps=200)
        assert result.outcome is Outcome.NONTERMINATING


class TestInjectedMiscompile:
    def _find_injected_failure(self):
        """First generated case where the broken-transfer hook causes a
        detectable failure (mismatch or fault)."""
        for iteration in range(12):
            case = generate_case(seed=7, iteration=iteration)
            result = run_case(case, post_compile_hook=break_first_transfer)
            if result.outcome.is_failure:
                return case, result
        pytest.fail("fault injection never produced a detectable failure")

    def test_broken_transfer_is_caught_and_shrunk(self):
        case, result = self._find_injected_failure()
        shrunk = shrink_case(
            case,
            target=result,
            post_compile_hook=break_first_transfer,
            max_evaluations=150,
        )
        # The minimized case still fails the same way without help.
        replay = run_case(
            shrunk.case, post_compile_hook=break_first_transfer
        )
        assert replay.outcome is result.outcome
        assert count_statements(shrunk.case.source) <= 10
        # ... and the unbroken pipeline compiles it correctly.
        clean = run_case(shrunk.case)
        assert not clean.outcome.is_failure


class TestShrink:
    def test_count_statements(self):
        source = (
            "a = 1;\n"
            "if ((a < 2)) {\n  b = 2;\n} else {\n  b = 3;\n}\n"
            "while ((a < 4)) {\n  a = (a + 1);\n}\n"
        )
        assert count_statements(source) == 6

    def test_non_failure_returned_unchanged(self):
        case = generate_case(seed=91, iteration=0)
        outcome = run_case(case)
        shrunk = shrink_case(case, target=outcome)
        assert shrunk.case.source == case.source
        assert shrunk.evaluations == 0


class TestCorpusIO:
    def test_save_load_roundtrip(self, tmp_path):
        case = generate_case(seed=5, iteration=2)
        result = CaseResult(Outcome.OK, reference={"out": 7})
        path = save_reproducer(case, result, tmp_path, stem="example")
        loaded = load_case(path)
        assert loaded.source == case.source
        assert loaded.machine_isdl == case.machine_isdl
        assert loaded.inputs == case.inputs
        assert loaded.config == case.config

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 99, "program": "", "machine": ""}')
        with pytest.raises(ValueError, match="format"):
            load_case(path)

    def test_journal_rides_along_and_replays(self, tmp_path):
        import json

        from repro.artifacts import validate
        from repro.explain import EXPLAIN_SCHEMA, capture_case_journal

        case = generate_case(seed=5, iteration=2)
        result = CaseResult(Outcome.OK, reference={"out": 7})
        journal = capture_case_journal(case)
        path = save_reproducer(
            case, result, tmp_path, stem="journaled", journal=journal
        )
        payload = json.loads(path.read_text())
        validate(payload["journal"], EXPLAIN_SCHEMA)
        assert payload["journal"]["meta"]["origin"] == "fuzz"
        # The extra key is ignored by the loader: the case replays
        # exactly as an unjournaled reproducer would.
        loaded = load_case(path)
        assert loaded.source == case.source


class TestCampaign:
    def test_smoke_campaign_is_clean(self, tmp_path):
        stats = run_campaign(
            seed=1, iterations=4, artifacts_dir=tmp_path
        )
        assert stats.iterations_run == 4
        assert stats.failure_count == 0, stats.summary()
        assert not list(tmp_path.iterdir())  # no reproducers written
        assert "seed=1" in stats.summary()

    def test_campaign_writes_reproducer_on_failure(self, tmp_path):
        stats = run_campaign(
            seed=7,
            iterations=6,
            artifacts_dir=tmp_path,
            post_compile_hook=break_first_transfer,
            max_shrink_evaluations=40,
        )
        assert stats.failure_count > 0
        assert stats.findings
        written = list(tmp_path.glob("*.json"))
        assert written, "expected minimized reproducers on disk"
        # Reproducer files load back into runnable cases, and carry the
        # minimized case's decision journal.
        load_case(written[0])
        import json

        from repro.artifacts import validate
        from repro.explain import EXPLAIN_SCHEMA

        payload = json.loads(written[0].read_text())
        assert "journal" in payload
        validate(payload["journal"], EXPLAIN_SCHEMA)

    def test_time_budget_stops_early(self):
        stats = run_campaign(seed=2, iterations=500, time_budget=1.0)
        assert stats.iterations_run < 500

    def test_random_inputs_cover_array(self):
        inputs = random_inputs(random.Random(0))
        assert "a" in inputs
        assert any(name.startswith("arr[") for name in inputs)


class TestCli:
    def test_fuzz_command_clean_run(self, capsys):
        from repro.cli import main

        code = main(["fuzz", "--seed", "91", "--iterations", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "fuzz campaign" in captured.out

    @pytest.mark.parametrize(
        "flags, budget",
        [([], DEFAULT_OPTIMAL_BUDGET), (["--optimal-budget", "7"], 7)],
        ids=["default", "given"],
    )
    def test_fuzz_optimal_budget_reaches_the_campaign(
        self, monkeypatch, capsys, flags, budget
    ):
        import repro.fuzz
        from repro.cli import main

        seen = {}

        def campaign(**kwargs):
            seen.update(kwargs)
            return run_campaign(seed=91, iterations=0)

        monkeypatch.setattr(repro.fuzz, "run_campaign", campaign)
        assert main(["fuzz", "--iterations", "0", *flags]) == 0
        assert seen["optimal_budget"] == budget

    def test_fuzz_replay_command(self, capsys, tmp_path):
        from repro.cli import main

        case = generate_case(seed=91, iteration=0)
        result = run_case(case)
        path = save_reproducer(case, result, tmp_path, stem="replayme")
        code = main(["fuzz", "--replay", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "outcome" in captured.out

    def test_replay_rejects_unknown_config_field(self, capsys, tmp_path):
        # A reproducer written by a build with a config field this one
        # lacks is bad input, not a compiler crash.
        from repro.cli import main

        data = json.loads((CORPUS / "gen-00.json").read_text())
        data["config"]["clique_kernel"] = "reference"
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(data))
        code = main(["fuzz", "--replay", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"cannot replay {path}" in captured.err
        assert "'clique_kernel'" in captured.err
        assert "REGRESSION" not in captured.err
        with pytest.raises(ValueError, match="clique_kernel"):
            load_case(path)
