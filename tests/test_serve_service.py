"""The batch service surface: jobs, reports, the stream loop, the CLI.

Everything above the cache: ``CompileJob`` round-trips, ``execute_job``
statuses (ok / structured coverage failure / crash-as-error), batch
reports and their validator, the zipfian mix generator, the JSON-lines
``repro serve`` loop, and the ``repro batch`` / ``repro serve`` CLI
entry points.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.artifacts import validate
from repro.cli import main
from repro.isdl import control_flow_architecture, example_architecture
from repro.isdl.writer import machine_to_isdl
from repro.serve import (
    CompileJob,
    execute_job,
    make_batch_report,
    run_batch,
    serve_stream,
    zipfian_mix,
)

ARCH1_ISDL = machine_to_isdl(example_architecture(4))
CF_ISDL = machine_to_isdl(control_flow_architecture(4))

GOOD = CompileJob(
    job_id="good",
    source="y = (a + b) - (c * d);",
    machine_isdl=ARCH1_ISDL,
)
#: arch1 has no comparison units: a branch is a *structured* failure.
UNCOVERABLE = CompileJob(
    job_id="uncoverable",
    source="if (a > b) { y = a; } else { y = b; }",
    machine_isdl=ARCH1_ISDL,
)
BROKEN = CompileJob(
    job_id="broken", source="y = ((;", machine_isdl=ARCH1_ISDL
)


class TestCompileJob:
    def test_round_trip(self):
        job = CompileJob(
            job_id="j1",
            source="y = a;",
            machine_isdl=ARCH1_ISDL,
            config={"num_assignments": 2},
            validate=True,
        )
        assert CompileJob.from_dict(job.to_dict()) == job


class TestExecuteJob:
    def test_ok_result_shape(self):
        result = execute_job(GOOD.to_dict())
        assert result["status"] == "ok"
        assert result["machine"] == "arch1_r4"
        assert result["metrics"]["instructions"] > 0
        assert result["metrics"]["blocks"] >= 1
        assert "y" in result["assembly"] or result["assembly"]
        assert result["schedules"]
        assert result["wall_s"] > 0
        assert set(result["cache"]) == {
            "hits", "misses", "stores", "evictions", "bad_entries",
        }

    def test_coverage_is_structured(self):
        result = execute_job(UNCOVERABLE.to_dict())
        assert result["status"] == "coverage_error"
        assert result["error"]
        assert result["assembly"] is None

    def test_crash_is_error_not_exception(self):
        result = execute_job(BROKEN.to_dict())
        assert result["status"] == "error"
        assert result["error"]

    def test_validate_flag(self):
        result = execute_job(
            CompileJob(
                job_id="v",
                source="y = a + b;",
                machine_isdl=ARCH1_ISDL,
                validate=True,
            ).to_dict()
        )
        assert result["status"] == "ok"

    def test_cache_counters_flow_through(self, tmp_path):
        cache_dir = str(tmp_path)
        cold = execute_job(GOOD.to_dict(), cache_dir)
        warm = execute_job(GOOD.to_dict(), cache_dir)
        assert cold["cache"]["stores"] > 0
        assert warm["cache"]["hits"] > 0
        assert warm["assembly"] == cold["assembly"]
        assert warm["schedules"] == cold["schedules"]


class TestRunBatch:
    def test_report_shape_and_totals(self, tmp_path):
        report = run_batch(
            [GOOD, UNCOVERABLE, BROKEN], cache_dir=str(tmp_path)
        )
        validate(report)
        totals = report["totals"]
        assert totals["jobs"] == 3
        assert totals["ok"] == 1
        assert totals["structured_failures"] == 1
        assert totals["errors"] == 1
        assert [r["job_id"] for r in report["results"]] == [
            "good", "uncoverable", "broken",
        ]

    def test_failures_do_not_poison_cache_stats(self, tmp_path):
        report = run_batch([BROKEN, GOOD], cache_dir=str(tmp_path))
        assert report["totals"]["cache"]["bad_entries"] == 0

    def test_validator_rejects_tampered_reports(self):
        report = run_batch([GOOD])
        validate(report)
        for mutate in (
            lambda r: r.update(schema="repro/serve/v999"),
            lambda r: r["totals"].update(jobs=7),
            lambda r: r["results"][0].update(status="weird"),
            lambda r: r["results"][0].pop("cache"),
        ):
            broken = json.loads(json.dumps(report))
            mutate(broken)
            with pytest.raises(ValueError):
                validate(broken)

    def test_empty_batch(self):
        report = make_batch_report([])
        validate(report)
        assert report["totals"]["cache_hit_rate"] == 0.0


class TestZipfianMix:
    def test_deterministic_and_complete(self):
        universe = [
            CompileJob(job_id=f"j{i}", source="y = a;", machine_isdl="")
            for i in range(5)
        ]
        first = zipfian_mix(universe, draws=20, seed=9)
        again = zipfian_mix(universe, draws=20, seed=9)
        assert [j.job_id for j in first] == [j.job_id for j in again]
        assert len(first) == 20
        # Every universe member appears; the head outdraws the tail.
        counts = {j.job_id: 0 for j in universe}
        for job in first:
            counts[job.job_id] += 1
        assert all(counts.values())
        assert counts["j0"] >= counts["j4"]

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            zipfian_mix([], draws=4)


class TestServeStream:
    def test_good_and_bad_lines(self, tmp_path):
        requests = [
            json.dumps(
                {"id": "r1", "source": "y = a + b;", "machine": "arch1"}
            ),
            "{this is not json",
            json.dumps({"id": "r3", "source": "y = a;", "machine": "arch1"}),
            "",  # blank lines are skipped, not errors
        ]
        output = io.StringIO()
        served = serve_stream(requests, output, cache_dir=str(tmp_path))
        assert served == {"requests": 3, "ok": 2, "failed": 1}
        lines = [json.loads(l) for l in output.getvalue().splitlines()]
        assert [l["status"] for l in lines] == ["ok", "error", "ok"]
        assert lines[1]["error"].startswith("bad request")

    def test_inline_machine_isdl(self):
        output = io.StringIO()
        request = json.dumps(
            {"id": "x", "source": "y = a + b;", "machine_isdl": ARCH1_ISDL}
        )
        served = serve_stream([request], output)
        assert served["ok"] == 1
        (line,) = output.getvalue().splitlines()
        assert json.loads(line)["machine"] == "arch1_r4"


class TestCLI:
    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "prog.minic"
        path.write_text("y = (a + b) - (c * d);\n")
        return str(path)

    def test_batch_two_machines(self, program_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "batch", program_file,
                "-m", "arch1", "-m", "arch2",
                "--cache-dir", str(tmp_path / "cache"),
                "--json", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        validate(report)
        assert report["totals"]["ok"] == 2
        err = capsys.readouterr().err
        assert "2 job(s)" in err

    def test_batch_jobs_file(self, tmp_path, capsys):
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(
            json.dumps([GOOD.to_dict(), UNCOVERABLE.to_dict()])
        )
        code = main(["batch", "--jobs", str(jobs_path), "--json", "-"])
        assert code == 0  # structured failures are results, not crashes
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["totals"]["structured_failures"] == 1

    def test_batch_exit_code_on_error(self, tmp_path):
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(json.dumps([BROKEN.to_dict()]))
        assert main(["batch", "--jobs", str(jobs_path)]) == 1

    def test_batch_requires_work(self, capsys):
        assert main(["batch"]) == 2

    def test_compile_cache_dir_flag(self, program_file, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(
            ["compile", program_file, "-m", "arch1", "--cache-dir", str(cache)]
        ) == 0
        assert len(list(cache.glob("*.json"))) > 1  # entries + index
        assert main(
            ["compile", program_file, "-m", "arch1", "--cache-dir", str(cache)]
        ) == 0
        capsys.readouterr()

    def test_serve_loop(self, tmp_path, capsys, monkeypatch):
        request = json.dumps(
            {"id": "s1", "source": "y = a + b;", "machine": "arch1"}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        code = main(["serve", "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        captured = capsys.readouterr()
        (line,) = captured.out.splitlines()
        assert json.loads(line)["status"] == "ok"
        assert "1 ok" in captured.err
