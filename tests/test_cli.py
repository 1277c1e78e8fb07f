"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main, resolve_machine
from repro.errors import ReproError

from reference_kernel import reference_kernel

FIR4 = str(Path(__file__).parent.parent / "examples" / "fir4.minic")


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.minic"
    path.write_text("y = (a + b) * (a - c);\nz = y + 1;\n")
    return str(path)


class TestResolveMachine:
    def test_builtin(self):
        assert resolve_machine("arch1").name == "arch1_r4"

    def test_builtin_with_registers(self):
        machine = resolve_machine("arch1:2")
        assert machine.rf_of_unit("U1").size == 2

    def test_isdl_file(self, tmp_path):
        path = tmp_path / "m.isdl"
        path.write_text(
            "machine filemachine { memory DM size 16; regfile R size 2;"
            " unit U regfile R { op ADD; } bus B connects DM, R; }"
        )
        assert resolve_machine(str(path)).name == "filemachine"

    def test_unknown_raises(self):
        with pytest.raises(ReproError):
            resolve_machine("no_such_machine")


class TestCommands:
    def test_machines_lists_builtins(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        for key in ("arch1", "arch2", "mac", "single"):
            assert key in out

    def test_describe(self, capsys):
        assert main(["describe", "-m", "arch2"]) == 0
        out = capsys.readouterr().out
        assert "unit U2" in out or "U2" in out
        assert "machine arch2_r4" in out

    def test_compile_prints_listing(self, program_file, capsys):
        assert main(["compile", program_file, "-m", "arch1"]) == 0
        out = capsys.readouterr().out
        assert "bb0:" in out  # frontend block label
        assert "HALT" in out

    def test_compile_writes_artifacts(self, program_file, tmp_path, capsys):
        asm = tmp_path / "out.s"
        binary = tmp_path / "out.bin"
        code = main(
            [
                "compile",
                program_file,
                "-m",
                "arch1",
                "--asm",
                str(asm),
                "--bin",
                str(binary),
            ]
        )
        assert code == 0
        assert asm.exists() and ".machine arch1_r4" in asm.read_text()
        assert binary.exists() and binary.stat().st_size > 0
        # The written assembly re-parses and behaves identically.
        from repro.assembler import parse_assembly
        from repro.isdl import example_architecture
        from repro.simulator import run_program

        machine = example_architecture(4)
        program = parse_assembly(asm.read_text(), machine)
        result = run_program(
            program, machine, {"a": 5, "b": 3, "c": 1}
        )
        assert result.variables["y"] == (5 + 3) * (5 - 1)

    def test_run_reports_variables(self, program_file, capsys):
        code = main(
            [
                "run",
                program_file,
                "-m",
                "arch1",
                "--set",
                "a=5",
                "--set",
                "b=3",
                "--set",
                "c=1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "y = 32" in out
        assert "z = 33" in out

    def test_bin_is_object_file(self, program_file, tmp_path, capsys):
        from repro.assembler import load_object

        binary = tmp_path / "out.avo"
        main(
            ["compile", program_file, "-m", "arch1", "--bin", str(binary)]
        )
        image = load_object(binary.read_bytes())
        assert image.machine_name == "arch1_r4"
        assert image.symbols["y"] >= 0

    def test_disasm_object_file(self, program_file, tmp_path, capsys):
        binary = tmp_path / "out.avo"
        main(
            ["compile", program_file, "-m", "arch1", "--bin", str(binary)]
        )
        capsys.readouterr()
        assert main(["disasm", str(binary), "-m", "arch1"]) == 0
        out = capsys.readouterr().out
        assert "HALT" in out

    def test_simulate_object_file(self, program_file, tmp_path, capsys):
        binary = tmp_path / "out.avo"
        main(
            ["compile", program_file, "-m", "arch1", "--bin", str(binary)]
        )
        capsys.readouterr()
        code = main(
            [
                "simulate",
                str(binary),
                "-m",
                "arch1",
                "--set",
                "a=5",
                "--set",
                "b=3",
                "--set",
                "c=1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "y = 32" in out

    def test_run_with_trace(self, program_file, capsys):
        main(
            [
                "run",
                program_file,
                "-m",
                "arch1",
                "--set",
                "a=1",
                "--trace",
            ]
        )
        out = capsys.readouterr().out
        assert "@" in out  # trace lines show pc

    def test_run_bad_binding(self, program_file, capsys):
        assert (
            main(["run", program_file, "-m", "arch1", "--set", "oops"]) == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_unknown_machine_exit_code(self, program_file, capsys):
        assert main(["run", program_file, "-m", "ghost"]) == 2

    def test_compile_heuristics_off(self, program_file, capsys):
        assert (
            main(
                ["compile", program_file, "-m", "arch2", "--heuristics-off"]
            )
            == 0
        )

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestProfiling:
    def test_describe_json(self, capsys):
        import json

        assert main(["describe", "-m", "arch1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "arch1_r4"
        assert {u["name"] for u in payload["units"]} >= {"U1"}
        assert all("size" in rf for rf in payload["register_files"])

    def test_compile_profile_prints_report(self, program_file, capsys):
        assert (
            main(["compile", program_file, "-m", "arch1", "--profile"]) == 0
        )
        captured = capsys.readouterr()
        assert "HALT" in captured.out  # listing still on stdout
        assert "telemetry report" in captured.err
        assert "covering.cover" in captured.err
        assert "cover.iterations" in captured.err
        assert "assign.pruned_min_cost" in captured.err
        assert "cliques.enumerated" in captured.err
        assert "cover.spill_rounds" in captured.err

    def test_compile_trace_out_writes_valid_trace(
        self, program_file, tmp_path, capsys
    ):
        import json

        from repro.telemetry import validate_trace

        trace_path = tmp_path / "t.json"
        code = main(
            [
                "compile",
                program_file,
                "-m",
                "arch1",
                "--profile",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        validate_trace(trace)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_run_profile(self, program_file, capsys):
        code = main(
            [
                "run",
                program_file,
                "-m",
                "arch1",
                "--set",
                "a=5",
                "--set",
                "b=3",
                "--set",
                "c=1",
                "--profile",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "y = 32" in captured.out
        assert "telemetry report" in captured.err
        assert "sim.cycles" in captured.err

    def test_profile_command(self, program_file, capsys):
        assert main(["profile", program_file, "-m", "arch1"]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "simulate" in out
        assert "cover.iterations" in out

    def test_profile_command_json(self, program_file, capsys):
        import json

        assert (
            main(["profile", program_file, "-m", "arch1", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["cover.iterations"] > 0
        assert any(
            p["path"] == "compile" for p in payload["phases"]
        )
        assert payload["meta"]["machine"] == "arch1_r4"


class TestExplain:
    def test_explain_text(self, program_file, capsys):
        assert main(["explain", program_file, "-m", "arch1"]) == 0
        out = capsys.readouterr().out
        assert "explain report" in out
        assert "cycles vs lower bound" in out
        assert "chose" in out

    def test_explain_json_is_schema_valid(self, program_file, capsys):
        import json

        from repro.artifacts import validate

        assert main(["explain", program_file, "-m", "arch1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        validate(report, "repro/explain/v1")
        assert report["decision_counts"].get("cover.step", 0) > 0

    def test_explain_kernels_identical_via_cli(self, program_file, capsys):
        # Production, then the test-only reference oracle swapped in for
        # the covering loop: byte-identical CLI output.
        command = ["explain", program_file, "-m", "arch1", "--json"]
        assert main(command) == 0
        bitmask = capsys.readouterr().out
        with reference_kernel():
            assert main(command) == 0
        reference = capsys.readouterr().out
        assert bitmask == reference

    def test_explain_html(self, program_file, tmp_path, capsys):
        out_file = tmp_path / "report.html"
        assert (
            main(
                ["explain", program_file, "-m", "arch1", "--html", str(out_file)]
            )
            == 0
        )
        page = out_file.read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert "timeline" in page

    def test_explain_diff_kernels_exit_zero(
        self, program_file, capsys, monkeypatch
    ):
        # ``--diff`` on the same machine, its second run on the reference
        # oracle: no decision differs, so the diff is identical (exit 0).
        import repro.explain

        production = repro.explain.explain_source
        runs = []

        def second_run_on_oracle(*args, **kwargs):
            runs.append(1)
            if len(runs) == 1:
                return production(*args, **kwargs)
            with reference_kernel():
                return production(*args, **kwargs)

        monkeypatch.setattr(
            repro.explain, "explain_source", second_run_on_oracle
        )
        code = main(
            ["explain", program_file, "-m", "arch1", "--diff", "arch1"]
        )
        out = capsys.readouterr().out
        assert len(runs) == 2
        assert code == 0
        assert "identical" in out

    def test_explain_diff_machines_exit_one(self, program_file, capsys):
        code = main(
            ["explain", program_file, "-m", "arch1", "--diff", "arch2"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "DIVERGED" in out
        assert "assignment.bind" in out

    def test_explain_diff_same_decisions_exit_zero(self, capsys):
        # fir4 makes the same decisions on fig6 and on arch1, so the
        # two machines diff as identical.
        code = main(
            ["explain", FIR4, "-m", "fig6", "--diff", "arch1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "identical" in out

    def test_verify_json_links_decisions(self, program_file, capsys):
        import json

        code = main(["verify", program_file, "-m", "arch1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        result = payload["results"][0]
        assert result["status"] == "ok"
        # Healthy compiles have no violations to link; the schema spot
        # for the link is per violation record (exercised directly in
        # tests/test_explain.py via find_decision).
        for block in result["blocks"]:
            assert block["violations"] == []


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "{missing}", "-m", "arch1"],
            ["compile", "{program}", "-m", "arch1:x"],
            ["run", "{program}", "-m", "arch1", "--set", "a=x"],
            ["explore", "--population", "0"],
            ["explore", "--population", "-3"],
        ],
        ids=[
            "missing-source",
            "register-suffix",
            "set-value",
            "explore-empty-population",
            "explore-negative-population",
        ],
    )
    def test_bad_input_is_a_one_line_error(
        self, argv, program_file, tmp_path, capsys
    ):
        missing = str(tmp_path / "nope.minic")
        argv = [
            arg.format(missing=missing, program=program_file) for arg in argv
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestMalformedArtifacts:
    def test_metrics_with_null_bounds_is_a_one_line_error(
        self, tmp_path, capsys
    ):
        import json

        from repro.obs.export import snapshot_export
        from repro.obs.metrics import MetricsSnapshot

        payload = snapshot_export(MetricsSnapshot())
        good = tmp_path / "good.json"
        good.write_text(json.dumps(payload))
        payload["histograms"]["obs.request_blocks"]["bounds"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        for argv in (["metrics", str(bad)],
                     ["metrics", str(good), "--diff", str(bad)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: $.histograms")
            assert "bounds" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "{not json",
            '[{"job_id": "j", "source": "y = a;", "machine": "",'
            ' "config": "abc"}]',
        ],
        ids=["missing", "not-json", "config-not-an-object"],
    )
    def test_bad_batch_jobs_file_is_a_one_line_error(
        self, tmp_path, capsys, content
    ):
        path = tmp_path / "jobs.json"
        if content is not None:
            path.write_text(content)
        assert main(["batch", "--jobs", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "{program}", "-m", "arch1", "--asm", "{out}"],
            ["compile", "{program}", "-m", "arch1", "--bin", "{out}"],
            ["compile", "{program}", "-m", "arch1", "--trace-out", "{out}"],
            ["compile", "{program}", "-m", "arch1", "--cache-dir", "{out}"],
            ["run", "{program}", "-m", "arch1", "--trace-out", "{out}"],
            ["profile", "{program}", "-m", "arch1", "--trace-out", "{out}"],
            ["batch", "{program}", "-m", "arch1", "--json", "{out}"],
            ["batch", "{program}", "-m", "arch1", "--metrics-out", "{out}"],
            ["tables", "--table", "2", "--json", "{out}"],
            ["explore", "--population", "1", "--json", "{out}"],
            ["explore", "--population", "1", "--json", "-",
             "--metrics-out", "{out}"],
            ["explain", "{program}", "-m", "arch1", "--html", "{out}"],
            ["serve", "--metrics-out", "{out}"],
            ["serve", "--events-out", "{out}"],
            ["serve", "--flight-dir", "{out}"],
        ],
        ids=lambda argv: "-".join(
            [argv[0], next(a for a in argv[::-1] if a.startswith("--"))[2:]]
        ),
    )
    def test_unwritable_output_is_a_one_line_error(
        self, argv, program_file, tmp_path, monkeypatch, capsys
    ):
        import io

        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "out")
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                '{"job_id": "j", "source": "y = a + b;", "machine": "arch1"}\n'
            ),
        )
        argv = [arg.format(program=program_file, out=out) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith("\n") and "Traceback" not in err
        assert err.splitlines()[-1].startswith("error: ")
        assert err.count("error: ") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "file", "prog.minic"
        ]
