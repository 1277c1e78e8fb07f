"""The bench-trend regression gate: collection, baselines, the CLI.

Synthetic BENCH artifacts in a tmp root exercise every gate semantic
(directions, tolerances, non-gating timing metrics, missing and new
metrics); the CLI tests drive ``repro trend`` end to end including the
exit-1-on-tamper acceptance criterion; and one test pins the *real*
committed baseline against the committed BENCH artifacts so the gate
the CI runs is also the gate the test suite runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.artifacts import read_artifact, validate, write_artifact
from repro.cli import main
from repro.obs.trend import (
    DEFAULT_BASELINE,
    TREND_BASELINE_SCHEMA,
    TREND_SCHEMA,
    collect_current_metrics,
    compare,
    format_trend_table,
    make_baseline,
)
from repro.optimal.bench import SOLVER_STAT_KEYS
from repro.telemetry.bench import CORE_COUNTERS, COVER_COUNTERS

REPO = Path(__file__).parent.parent

def _optimal_entries():
    """20 proven blocks: 12 improved by the solver, 18 gap cycles."""
    entries = []
    for index in range(20):
        gap = 2 if index < 6 else 1 if index < 12 else 0
        entries.append({
            "workload": f"Ex{index}", "machine": "arch1_r4", "registers": 4,
            "heuristic_cost": 10 + gap, "optimal_cost": 10, "gap": gap,
            "proven": True, "spill_free": True, "heuristic_spills": 0,
            "cpu_seconds": 0.1,
            "solver": {
                **dict.fromkeys(SOLVER_STAT_KEYS, 1),
                "budget_exhausted": False,
            },
        })
    return entries


def _explore_candidates():
    """12 candidates: 5 on the frontier, 7 with one failed workload."""
    candidates = []
    for index in range(12):
        failed = index >= 5
        candidates.append({
            "name": f"m{index}", "area": index, "failures": int(failed),
            "workloads_ok": int(not failed), "frontier": not failed,
            "metrics": {
                "instructions": 0 if failed else 20 - index, "spills": 0,
                "cycles": 0 if failed else 20 - index, "gap": 0,
            },
            "workloads": [
                {"workload": "w", "status": "coverage_error",
                 "error": "no unit", "metrics": None}
                if failed else
                {"workload": "w", "status": "ok", "error": None,
                 "metrics": {"instructions": 20 - index}}
            ],
        })
    return candidates


BENCHES = {
    "BENCH_codegen.json": {
        "schema": "repro/bench-codegen/v1",
        "entries": [
            {
                "workload": "fir4",
                "machine": "arch1_r4",
                "metrics": {"instructions": 20, "spills": 2},
                "report": {
                    "phases": [
                        {"path": "compile", "calls": 1, "wall_s": 0.1,
                         "cpu_s": 0.1},
                    ],
                    "counters": dict.fromkeys(CORE_COUNTERS, 1),
                },
            }
        ],
    },
    "BENCH_cover.json": {
        "schema": "repro/bench-cover/v1",
        "entries": [
            {
                "workload": "sop8",
                "machine": "arch1_r4",
                "metrics": {"instructions": 30},
                "wall_s": 0.5,
                "heavy": True,
                "config": {},
                "counters": dict.fromkeys(COVER_COUNTERS, 1),
            }
        ],
    },
    "BENCH_serve.json": {
        "schema": "repro/bench-serve/v1",
        "entries": [
            {
                "mix": "zipf",
                "warm_hit_rate": 0.9,
                "identical": True,
                "speedup": 3.0,
                "jobs": 8, "unique_jobs": 4, "workers": 0,
                "cold_s": 3.0, "warm_s": 1.0, "cold_hit_rate": 0.5,
                "cold_jobs_per_second": 2.7, "warm_jobs_per_second": 8.0,
                "cache": {"hits": 9},
            }
        ],
    },
    "BENCH_sndag.json": {
        "schema": "repro/bench-sndag/v1",
        "entries": [
            {
                "workload": "fir4",
                "machine": "fig6",
                "lazy_transfer_nodes": 10,
                "lazy_build_s": 0.01,
                "eager_transfer_nodes": 19, "avoided_transfer_nodes": 9,
                "paths_folded": 0, "eager_total_nodes": 40,
                "lazy_total_nodes": 31, "metrics": {},
            }
        ],
    },
    "BENCH_optimal.json": {
        "schema": "repro/bench-optimal/v1",
        "summary": {
            "blocks": 20, "proven": 20, "budget_exhausted": 0,
            "gap_cycles": 18, "improved": 12,
        },
        "entries": _optimal_entries(),
    },
    "BENCH_explore.json": {
        "schema": "repro/bench-explore/v1",
        "meta": {
            "seed": 0, "population": 12, "budget": 0,
            "axes": ["area", "instructions", "gap"], "workloads": ["w"],
        },
        "candidates": _explore_candidates(),
        "frontier": [
            {"name": f"m{index}", "area": index,
             "instructions": 20 - index, "gap": 0, "isdl": "machine m"}
            for index in range(5)
        ],
        "totals": {
            "frontier": 5, "candidates": 12, "workload_failures": 7,
            "workloads_ok": 5,
        },
    },
}


@pytest.fixture
def bench_root(tmp_path):
    for name, payload in BENCHES.items():
        (tmp_path / name).write_text(json.dumps(payload))
    return tmp_path


class TestCollect:
    def test_flattens_every_artifact(self, bench_root):
        metrics = collect_current_metrics(bench_root)
        assert metrics["codegen.fir4.arch1_r4.instructions"] == {
            "value": 20, "direction": "min", "tolerance": 0.0, "gate": True,
        }
        assert metrics["cover.sop8.arch1_r4.instructions"]["value"] == 30
        assert metrics["serve.zipf.warm_hit_rate"]["direction"] == "max"
        assert metrics["optimal.summary.gap_cycles"]["direction"] == "min"
        assert metrics["explore.totals.workload_failures"]["direction"] == "min"
        assert metrics["sndag.fir4.fig6.lazy_transfer_nodes"]["gate"]

    def test_timing_metrics_do_not_gate(self, bench_root):
        metrics = collect_current_metrics(bench_root)
        assert metrics["serve.zipf.speedup"]["gate"] is False
        # Covering and Split-Node DAG timings stay in their artifacts
        # (absolute seconds) and are not trend metrics at all.
        assert not [
            name
            for name in metrics
            if name.startswith(("cover.", "sndag."))
            and not name.endswith(("instructions", "lazy_transfer_nodes"))
        ]

    def test_missing_artifacts_contribute_nothing(self, tmp_path):
        assert collect_current_metrics(tmp_path) == {}


class TestBaseline:
    def test_round_trip(self, bench_root, tmp_path):
        baseline = make_baseline(collect_current_metrics(bench_root))
        assert baseline["schema"] == TREND_BASELINE_SCHEMA
        path = tmp_path / "baseline.json"
        write_artifact(path, baseline)
        assert read_artifact(path, TREND_BASELINE_SCHEMA) == baseline

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda b: b.update(schema="nope"),
            lambda b: b.update(metrics={}),
            lambda b: b["metrics"]["optimal.summary.proven"].update(
                direction="sideways"
            ),
            lambda b: b["metrics"]["optimal.summary.proven"].update(
                tolerance=-1
            ),
            lambda b: b["metrics"]["optimal.summary.proven"].update(
                value="many"
            ),
            lambda b: b["metrics"]["optimal.summary.proven"].pop("gate"),
        ],
    )
    def test_tampered_baseline_rejected(self, bench_root, tamper):
        baseline = make_baseline(collect_current_metrics(bench_root))
        tamper(baseline)
        with pytest.raises(ValueError):
            validate(baseline, TREND_BASELINE_SCHEMA)


class TestCompare:
    def _baseline(self, bench_root):
        return make_baseline(collect_current_metrics(bench_root))

    def test_unchanged_is_ok(self, bench_root):
        baseline = self._baseline(bench_root)
        report = compare(baseline, collect_current_metrics(bench_root))
        assert report["schema"] == TREND_SCHEMA
        assert report["ok"]
        assert report["regressions"] == []
        assert "trend: OK" in format_trend_table(report)

    def test_min_metric_rising_regresses(self, bench_root):
        baseline = self._baseline(bench_root)
        current = collect_current_metrics(bench_root)
        current["codegen.fir4.arch1_r4.instructions"]["value"] = 25
        report = compare(baseline, current)
        assert not report["ok"]
        assert report["regressions"] == ["codegen.fir4.arch1_r4.instructions"]
        assert "trend: REGRESSION" in format_trend_table(report)

    def test_max_metric_falling_regresses(self, bench_root):
        baseline = self._baseline(bench_root)
        current = collect_current_metrics(bench_root)
        current["optimal.summary.proven"]["value"] = 19
        assert compare(baseline, current)["regressions"] == [
            "optimal.summary.proven"
        ]

    def test_improvement_is_ok(self, bench_root):
        baseline = self._baseline(bench_root)
        current = collect_current_metrics(bench_root)
        current["codegen.fir4.arch1_r4.instructions"]["value"] = 15
        current["optimal.summary.proven"]["value"] = 25
        assert compare(baseline, current)["ok"]

    def test_tolerance_allows_slack(self, bench_root):
        baseline = self._baseline(bench_root)
        baseline["metrics"]["serve.zipf.warm_hit_rate"]["tolerance"] = 0.1
        current = collect_current_metrics(bench_root)
        current["serve.zipf.warm_hit_rate"]["value"] = 0.85  # within 10%
        assert compare(baseline, current)["ok"]
        current["serve.zipf.warm_hit_rate"]["value"] = 0.7  # beyond it
        assert not compare(baseline, current)["ok"]

    def test_ungated_drop_is_info(self, bench_root):
        baseline = self._baseline(bench_root)
        current = collect_current_metrics(bench_root)
        current["serve.zipf.speedup"]["value"] = 0.1
        report = compare(baseline, current)
        assert report["ok"]
        row = next(
            r for r in report["rows"]
            if r["metric"] == "serve.zipf.speedup"
        )
        assert row["status"] == "info"

    def test_missing_gated_metric_regresses(self, bench_root):
        baseline = self._baseline(bench_root)
        current = collect_current_metrics(bench_root)
        del current["optimal.summary.proven"]
        report = compare(baseline, current)
        assert not report["ok"]
        assert report["missing"] == ["optimal.summary.proven"]

    def test_new_metric_is_informational(self, bench_root):
        baseline = self._baseline(bench_root)
        current = collect_current_metrics(bench_root)
        current["codegen.new_workload.arch1_r4.instructions"] = {
            "value": 9, "direction": "min", "tolerance": 0.0, "gate": True,
        }
        report = compare(baseline, current)
        assert report["ok"]
        assert report["new_metrics"] == [
            "codegen.new_workload.arch1_r4.instructions"
        ]


class TestTrendCli:
    def test_freeze_baseline_then_gate(self, bench_root, capsys):
        assert main(["trend", "--root", str(bench_root)
                     , "--write-baseline"]) == 0
        baseline_path = bench_root / DEFAULT_BASELINE
        assert baseline_path.exists()
        assert main(["trend", "--root", str(bench_root)]) == 0
        assert "trend: OK" in capsys.readouterr().out

    def test_tampered_baseline_exits_1(self, bench_root, capsys):
        main(["trend", "--root", str(bench_root), "--write-baseline"])
        baseline_path = bench_root / DEFAULT_BASELINE
        baseline = json.loads(baseline_path.read_text())
        baseline["metrics"]["optimal.summary.proven"]["value"] = 25
        baseline_path.write_text(json.dumps(baseline))
        assert main(["trend", "--root", str(bench_root)]) == 1
        out = capsys.readouterr().out
        assert "regression" in out
        assert "trend: REGRESSION" in out

    def test_json_report(self, bench_root, tmp_path):
        main(["trend", "--root", str(bench_root), "--write-baseline"])
        report_path = tmp_path / "report.json"
        assert main(
            ["trend", "--root", str(bench_root), "--json", str(report_path)]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == TREND_SCHEMA and report["ok"]

    def test_malformed_ledger_is_a_one_line_error(self, bench_root, capsys):
        assert main(["trend", "--root", str(bench_root),
                     "--write-baseline"]) == 0
        capsys.readouterr()
        path = bench_root / "BENCH_cover.json"
        payload = json.loads(path.read_text())
        del payload["entries"][0]["metrics"]
        path.write_text(json.dumps(payload))
        assert main(["trend", "--root", str(bench_root)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {path}: $.entries[0]: missing key 'metrics'\n"
        )

    def test_missing_baseline_is_actionable(self, bench_root, capsys):
        assert main(["trend", "--root", str(bench_root)]) == 2
        assert "--write-baseline" in capsys.readouterr().err

    def test_empty_root_refuses_to_freeze(self, tmp_path):
        assert main(["trend", "--root", str(tmp_path),
                     "--write-baseline"]) == 2

    def test_committed_baseline_gates_committed_benches(self, capsys):
        """The acceptance criterion: the real repo passes its own gate."""
        assert (REPO / DEFAULT_BASELINE).exists(), (
            "benchmarks/trend_baseline.json must be committed"
        )
        assert main(["trend", "--root", str(REPO)]) == 0
        assert "trend: OK" in capsys.readouterr().out


class TestMetricsCli:
    def _export(self, tmp_path, name="m.json"):
        from repro.obs.export import snapshot_export
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.count("obs.requests_total", 2)
        registry.observe("obs.request_instructions", 11)
        path = tmp_path / name
        write_artifact(path, snapshot_export(registry.snapshot()))
        return path

    def test_render_and_prom(self, tmp_path, capsys):
        path = self._export(tmp_path)
        assert main(["metrics", str(path)]) == 0
        assert "obs.requests_total" in capsys.readouterr().out
        assert main(["metrics", str(path), "--prom"]) == 0
        assert "# TYPE obs_requests_total counter" in capsys.readouterr().out

    def test_diff_exit_codes(self, tmp_path, capsys):
        a = self._export(tmp_path, "a.json")
        b = self._export(tmp_path, "b.json")
        assert main(["metrics", str(a), "--diff", str(b)]) == 0
        payload = json.loads(b.read_text())
        payload["counters"]["obs.requests_total"] = 7
        # keep it valid, just different
        b.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        assert main(["metrics", str(a), "--diff", str(b)]) == 1
        assert "obs.requests_total" in capsys.readouterr().out

    def test_tampered_export_is_an_error(self, tmp_path, capsys):
        path = self._export(tmp_path)
        payload = json.loads(path.read_text())
        payload["counters"]["obs.requests_total"] = -5
        path.write_text(json.dumps(payload))
        assert main(["metrics", str(path)]) == 2
        assert "non-negative" in capsys.readouterr().err
