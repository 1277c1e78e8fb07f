"""The service-metrics catalog, snapshots, and exporters.

Recording into a :class:`MetricsSnapshot` is checked against the
declared catalog (unknown names and wrong kinds raise); the exporters
are tested both for acceptance of their own output and for rejection
of tampered payloads, and ``repro metrics`` renders, diffs and rejects
exports end to end.  That the fleet view folded from result records is
independent of worker count is tested in ``test_obs_service.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.artifacts import read_artifact, validate, write_artifact
from repro.cli import main
from repro.obs.export import (
    METRICS_SCHEMA,
    diff_metrics,
    render_metrics_diff,
    render_metrics_table,
    snapshot_export,
    snapshot_from_export,
    to_prometheus,
)
from repro.obs.metrics import (
    METRIC_CATALOG,
    HistogramState,
    MetricsSnapshot,
    histogram_quantile,
)


class TestCatalog:
    def test_every_name_is_namespaced(self):
        assert all(name.startswith("obs.") for name in METRIC_CATALOG)

    def test_kinds_are_consistent(self):
        for spec in METRIC_CATALOG.values():
            assert spec.kind in ("counter", "gauge", "histogram")
            assert (spec.buckets is not None) == (spec.kind == "histogram")
            assert spec.help

    def test_histogram_bounds_strictly_increasing(self):
        for spec in METRIC_CATALOG.values():
            if spec.kind == "histogram":
                assert list(spec.buckets) == sorted(set(spec.buckets))


class TestRegistry:
    """Recording into a snapshot is checked against the catalog."""

    def test_counters_accumulate(self):
        snapshot = MetricsSnapshot()
        snapshot.count("obs.requests_total")
        snapshot.count("obs.requests_total", 4)
        assert snapshot.counter("obs.requests_total") == 5
        assert snapshot.counter("obs.requests_ok") == 0

    def test_unknown_name_raises(self):
        snapshot = MetricsSnapshot()
        with pytest.raises(KeyError, match="METRIC_CATALOG"):
            snapshot.count("obs.nonexistent")
        with pytest.raises(KeyError):
            snapshot.set_gauge("obs.nope", 1.0)
        with pytest.raises(KeyError):
            snapshot.observe("obs.never", 1.0)

    def test_wrong_kind_raises(self):
        snapshot = MetricsSnapshot()
        with pytest.raises(KeyError, match="is a gauge"):
            snapshot.count("obs.workers")
        with pytest.raises(KeyError, match="is a counter"):
            snapshot.observe("obs.requests_total", 1)

    def test_counters_are_monotonic(self):
        snapshot = MetricsSnapshot()
        with pytest.raises(ValueError, match="monotonic"):
            snapshot.count("obs.requests_total", -1)

    def test_gauge_overwrites(self):
        snapshot = MetricsSnapshot()
        snapshot.set_gauge("obs.workers", 4)
        snapshot.set_gauge("obs.workers", 2)
        assert snapshot.gauges["obs.workers"] == 2.0


class TestHistograms:
    def test_bucketing_is_le(self):
        state = HistogramState(bounds=(1, 2, 4))
        for value in (1, 2, 3, 4, 99):
            state.observe(value)
        assert state.counts == [1, 1, 2, 1]
        assert state.count == 5
        assert state.minimum == 1
        assert state.maximum == 99

    def test_quantiles_are_bucket_bounds(self):
        state = HistogramState(bounds=(1, 2, 4, 8))
        for value in (1, 2, 2, 3, 5):
            state.observe(value)
        assert state.quantile(0.50) == 2.0
        assert state.quantile(0.90) == 8.0

    def test_overflow_quantile_reports_maximum(self):
        state = HistogramState(bounds=(1, 2))
        state.observe(50)
        assert state.quantile(0.99) == 50.0

    def test_empty_quantile_is_zero(self):
        assert histogram_quantile((1, 2), [0, 0, 0], 0.5) == 0.0


def _canonical(payload):
    """The bytes :func:`repro.artifacts.write_artifact` writes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _snapshot(counts, observations, gauge=None):
    snapshot = MetricsSnapshot()
    for name, n in counts:
        snapshot.count(name, n)
    for value in observations:
        snapshot.observe("obs.request_instructions", value)
    if gauge is not None:
        snapshot.set_gauge("obs.workers", gauge)
    return snapshot


class TestExport:
    def test_export_fills_catalog_and_validates(self):
        payload = snapshot_export(_snapshot([("obs.requests_total", 1)], [7]))
        validate(payload, METRICS_SCHEMA)
        assert payload["schema"] == METRICS_SCHEMA
        assert payload["volatile_included"] is False
        deterministic = {
            name for name, spec in METRIC_CATALOG.items() if not spec.volatile
        }
        seen = (
            set(payload["counters"])
            | set(payload["gauges"])
            | set(payload["histograms"])
        )
        assert seen == deterministic
        assert payload["counters"]["obs.requests_ok"] == 0

    def test_volatile_export_carries_everything(self):
        payload = snapshot_export(
            _snapshot([], [], gauge=2), include_volatile=True
        )
        validate(payload, METRICS_SCHEMA)
        assert "obs.request_wall_seconds" in payload["histograms"]
        assert payload["gauges"]["obs.workers"] == 2.0

    def test_round_trip_through_snapshot(self):
        snapshot = _snapshot([("obs.requests_total", 2)], [5, 9])
        payload = snapshot_export(snapshot)
        rebuilt = snapshot_from_export(payload)
        assert _canonical(snapshot_export(rebuilt)) == _canonical(payload)

    def test_write_and_read(self, tmp_path):
        path = tmp_path / "metrics.json"
        payload = snapshot_export(_snapshot([("obs.requests_total", 1)], []))
        write_artifact(path, payload)
        assert path.read_text() == _canonical(payload)
        assert read_artifact(path, METRICS_SCHEMA) == payload

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda p: p.update(schema="repro/metrics/v0"),
            lambda p: p.update(volatile_included="yes"),
            lambda p: p["counters"].update({"obs.requests_total": -1}),
            lambda p: p["counters"].update({"obs.made_up": 0}),
            lambda p: p["counters"].pop("obs.requests_total"),
            lambda p: p["histograms"]["obs.request_instructions"].update(
                count=99
            ),
            lambda p: p["histograms"]["obs.request_instructions"].update(
                p50=123.0
            ),
            lambda p: p["histograms"]["obs.request_instructions"].update(
                bounds=[1, 2]
            ),
        ],
    )
    def test_tampered_export_rejected(self, tamper):
        payload = snapshot_export(_snapshot([("obs.requests_total", 1)], [7]))
        tamper(payload)
        with pytest.raises(ValueError):
            validate(payload, METRICS_SCHEMA)

    def test_empty_histogram_with_minmax_rejected(self):
        payload = snapshot_export(_snapshot([], []))
        payload["histograms"]["obs.request_blocks"]["min"] = 1
        with pytest.raises(ValueError, match="min/max"):
            validate(payload, METRICS_SCHEMA)


class TestPrometheus:
    def test_text_format(self):
        text = to_prometheus(_snapshot([("obs.requests_total", 3)], [5, 900]))
        assert "# HELP obs_requests_total" in text
        assert "# TYPE obs_requests_total counter" in text
        assert "obs_requests_total 3" in text
        assert 'obs_request_instructions_bucket{le="+Inf"} 2' in text
        assert "obs_request_instructions_count 2" in text
        assert "obs_request_instructions_sum 905" in text
        # volatile metrics are present in a scrape
        assert "# TYPE obs_request_wall_seconds histogram" in text

    def test_buckets_are_cumulative(self):
        text = to_prometheus(_snapshot([], [1, 2, 3]))
        lines = [
            line
            for line in text.splitlines()
            if line.startswith("obs_request_instructions_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 3


class TestDiffAndRender:
    def test_identical(self):
        payload = snapshot_export(_snapshot([("obs.requests_total", 1)], []))
        diff = diff_metrics(payload, payload)
        assert diff["identical"]
        assert render_metrics_diff(diff) == "snapshots are identical"

    def test_changed(self):
        before = snapshot_export(_snapshot([("obs.requests_total", 1)], [5]))
        after = snapshot_export(_snapshot([("obs.requests_total", 4)], [5, 6]))
        diff = diff_metrics(before, after)
        assert not diff["identical"]
        kinds = {row["metric"]: row for row in diff["changes"]}
        assert kinds["obs.requests_total"]["delta"] == 3
        assert kinds["obs.request_instructions"]["delta"] == 1
        assert "obs.requests_total" in render_metrics_diff(diff)

    def test_render_table(self):
        payload = snapshot_export(_snapshot([("obs.requests_total", 2)], [9]))
        table = render_metrics_table(payload)
        assert "obs.requests_total" in table
        assert "p50" in table


class TestMetricsCli:
    def _export(self, tmp_path, name="m.json"):
        path = tmp_path / name
        write_artifact(
            path,
            snapshot_export(_snapshot([("obs.requests_total", 2)], [11])),
        )
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
