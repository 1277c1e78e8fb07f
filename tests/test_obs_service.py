"""Observability wired through the services: events, flight, exports.

The service-level invariants: the fleet metrics folded from
``execute_job`` result records count what each result says,
``run_batch`` exports are byte-identical at any worker count,
``serve_stream`` survives garbage lines with structured errors while
logging validated events, and the flight recorder dumps a
self-contained artifact for slow and failing requests.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.artifacts import read_artifact, validate, write_artifact
from repro.isdl import example_architecture
from repro.isdl.writer import machine_to_isdl
from repro.obs.events import (
    EVENTS_SCHEMA,
    EventLog,
    make_request_id,
    read_events,
    request_event,
    stream_event,
)
from repro.obs.export import (
    METRICS_SCHEMA,
    snapshot_export,
    snapshot_from_export,
)
from repro.obs.metrics import MetricsSnapshot
from repro.obs.recorder import (
    FLIGHT_SCHEMA,
    FLIGHT_SUMMARY_SCHEMA,
    FlightRecorder,
)
from repro.serve import (
    CompileJob,
    execute_job,
    fleet_snapshot,
    run_batch,
    serve_stream,
)

ARCH1_ISDL = machine_to_isdl(example_architecture(4))

JOBS = [
    CompileJob(job_id="j1", source="y = a + b;", machine_isdl=ARCH1_ISDL),
    CompileJob(
        job_id="j2", source="y = (a + b) - (c * d);", machine_isdl=ARCH1_ISDL
    ),
    CompileJob(job_id="j3", source="y = a * 3 + b;", machine_isdl=ARCH1_ISDL),
    CompileJob(job_id="j4", source="y = a - b + c;", machine_isdl=ARCH1_ISDL),
]


class TestRequestIds:
    def test_deterministic(self):
        assert make_request_id(3, "payload") == make_request_id(3, "payload")
        assert make_request_id(3, "payload").startswith("req-000003-")

    def test_content_sensitive(self):
        assert make_request_id(1, "a") != make_request_id(1, "b")
        assert make_request_id(1, "a") != make_request_id(2, "a")


class TestEvents:
    def test_event_log_validates_and_counts(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit(stream_event("stream_start"))
            log.emit(request_event("req-000001-abc", "ok"))
            log.emit(stream_event("stream_end", requests=1))
            assert log.emitted == 3
        events = read_events(path)
        assert [e["event"] for e in events] == [
            "stream_start", "request", "stream_end",
        ]

    def test_borrowed_sink(self):
        sink = io.StringIO()
        log = EventLog(sink)
        log.emit(stream_event("stream_start"))
        log.close()
        assert json.loads(sink.getvalue())["event"] == "stream_start"

    def test_malformed_event_rejected_at_emit(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        with pytest.raises(ValueError, match="status"):
            log.emit(request_event("req-000001-abc", "exploded"))
        log.close()

    @pytest.mark.parametrize(
        "record",
        [
            {"event": "request"},
            {"schema": "repro/events/v1", "event": "nope"},
            request_event("nope-1", "ok"),
            {**request_event("req-000001-a", "ok"), "metrics": None},
            {**request_event("req-000001-a", "error"), "error": None},
        ],
    )
    def test_event_rejections(self, record):
        with pytest.raises(ValueError):
            validate(record, EVENTS_SCHEMA)


class TestExecuteJobObs:
    def test_result_carries_snapshot(self):
        result = execute_job(JOBS[0].to_dict())
        assert "obs" not in result
        snapshot = fleet_snapshot([result])
        assert snapshot.counter("obs.requests_total") == 1
        assert snapshot.counter("obs.requests_ok") == 1
        assert (
            snapshot.counter("obs.instructions_total")
            == result["metrics"]["instructions"]
        )
        hist = snapshot.histograms["obs.request_wall_seconds"]
        assert hist.count == 1
        assert result["telemetry"]["spans"]
        assert "flight" not in result

    def test_flight_payload_on_request(self):
        result = execute_job(JOBS[0].to_dict(), flight=True)
        flight = result["flight"]
        assert isinstance(flight["trace"]["traceEvents"], list)
        assert isinstance(flight["journal"], list) and flight["journal"]
        assert flight["telemetry"]["phases"]

    def test_error_counted(self):
        result = execute_job(
            CompileJob(
                job_id="broken", source="y = ((;", machine_isdl=ARCH1_ISDL
            ).to_dict()
        )
        snapshot = fleet_snapshot([result])
        assert snapshot.counter("obs.requests_error") == 1
        assert snapshot.counter("obs.requests_ok") == 0


class TestBatchByteIdentity:
    def test_workers_1_vs_4_exports_identical(self, tmp_path):
        exports = {}
        for workers in (1, 4):
            report = run_batch(
                JOBS, cache_dir=str(tmp_path / f"cache{workers}"),
                workers=workers,
            )
            fleet = fleet_snapshot(report["results"])
            path = tmp_path / f"metrics{workers}.json"
            write_artifact(path, snapshot_export(fleet))
            exports[workers] = path.read_bytes()
        assert exports[1] == exports[4]

    def test_serial_matches_pool(self, tmp_path):
        serial = fleet_snapshot(run_batch(JOBS)["results"])
        pooled = fleet_snapshot(run_batch(JOBS, workers=2)["results"])
        write_artifact(tmp_path / "serial.json", snapshot_export(serial))
        write_artifact(tmp_path / "pooled.json", snapshot_export(pooled))
        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "pooled.json"
        ).read_bytes()

    def test_stepwise_fold_matches_whole_fold(self):
        # The serve loop folds one result at a time into its stream
        # snapshot; that must equal folding the whole list at once.
        results = run_batch(JOBS)["results"]
        stepwise = MetricsSnapshot()
        for result in results:
            fleet_snapshot([result], into=stepwise)
        assert snapshot_export(stepwise, include_volatile=True) == (
            snapshot_export(fleet_snapshot(results), include_volatile=True)
        )

    def test_report_embeds_fleet_obs(self):
        report = run_batch(JOBS[:2], workers=0)
        obs = report["obs"]
        assert obs["volatile_included"] is True
        assert obs["counters"]["obs.requests_total"] == 2
        assert obs["gauges"]["obs.workers"] == 0


def _stream_lines():
    return [
        json.dumps(
            {"id": "good-1", "source": "y = a + b;", "machine_isdl": ARCH1_ISDL}
        ),
        "this is not json {{{",
        json.dumps(
            {"id": "good-2", "source": "y = a * b;", "machine_isdl": ARCH1_ISDL}
        ),
    ]


class TestServeStreamObs:
    def test_good_garbage_good(self, tmp_path):
        """A garbage line yields a structured error with a request ID and
        the stream keeps serving — the ISSUE 10 regression scenario."""
        out = io.StringIO()
        served = serve_stream(
            _stream_lines(),
            out,
            metrics_out=str(tmp_path / "metrics.json"),
            events_out=str(tmp_path / "events.jsonl"),
        )
        assert served == {"requests": 3, "ok": 2, "failed": 1}
        lines = [json.loads(l) for l in out.getvalue().splitlines()]
        assert [l["status"] for l in lines] == ["ok", "error", "ok"]
        bad = lines[1]
        assert bad["error"].startswith("bad request")
        assert bad["request_id"] == make_request_id(2, _stream_lines()[1])
        # response lines stay lean: snapshots live in the side channels
        assert all("obs" not in l and "flight" not in l for l in lines)

        export = json.loads((tmp_path / "metrics.json").read_text())
        assert export["counters"]["obs.requests_total"] == 3
        assert export["counters"]["obs.requests_ok"] == 2
        assert export["counters"]["obs.requests_bad"] == 1
        assert export["histograms"]["obs.request_line_bytes"]["count"] == 3

        events = read_events(tmp_path / "events.jsonl")
        assert [e["event"] for e in events] == [
            "stream_start", "request", "request", "request", "stream_end",
        ]
        statuses = [e["status"] for e in events if e["event"] == "request"]
        assert statuses == ["ok", "bad_request", "ok"]
        assert events[-1]["ok"] == 2
        assert export["counters"]["obs.events_emitted"] == len(events)

    def test_stream_metrics_deterministic_across_runs(self, tmp_path):
        for run in ("a", "b"):
            serve_stream(
                _stream_lines(),
                io.StringIO(),
                metrics_out=str(tmp_path / f"{run}.json"),
            )
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()

    def test_flight_recorder_dumps_complete_artifacts(self, tmp_path):
        flight_dir = tmp_path / "flight"
        out = io.StringIO()
        serve_stream(
            _stream_lines(),
            out,
            flight_dir=str(flight_dir),
            flight_threshold=0.0,  # every request is "slow": all dump
        )
        lines = [json.loads(l) for l in out.getvalue().splitlines()]
        artifacts = sorted(flight_dir.glob("flight-req-*.json"))
        assert len(artifacts) == 3
        for path, line, result in zip(artifacts, _stream_lines(), lines):
            artifact = read_artifact(path, FLIGHT_SCHEMA)
            assert artifact["request"] == line
            assert artifact["result"]["status"] == result["status"]
        # the ok requests are complete incident packages
        ok = read_artifact(artifacts[0], FLIGHT_SCHEMA)
        assert ok["reason"] == "slow"
        assert ok["trace"]["traceEvents"]
        assert ok["journal"]
        assert ok["telemetry"]["phases"]
        assert ok["metrics"]["counters"]["obs.requests_ok"] == 1
        # the garbage line failed outright -> reason "failed", no compile
        bad = read_artifact(artifacts[1], FLIGHT_SCHEMA)
        assert bad["reason"] == "failed"
        assert bad["result"]["error"].startswith("bad request")

        summary = read_artifact(
            flight_dir / "flight-summary.json", FLIGHT_SUMMARY_SCHEMA
        )
        assert summary["schema"] == "repro/flight-summary/v1"
        assert summary["dumps"] == 3
        assert len(summary["last"]) == 3
        assert {s["request_id"] for s in summary["slowest"]} == {
            read_artifact(a, FLIGHT_SCHEMA)["request_id"] for a in artifacts
        }

    def test_no_threshold_only_failures_dump(self, tmp_path):
        flight_dir = tmp_path / "flight"
        serve_stream(_stream_lines(), io.StringIO(), flight_dir=str(flight_dir))
        artifacts = sorted(flight_dir.glob("flight-req-*.json"))
        assert len(artifacts) == 1
        artifact = read_artifact(artifacts[0], FLIGHT_SCHEMA)
        assert artifact["reason"] == "failed"


class TestFlightRecorderUnit:
    RESULT_OK = {"job_id": "j", "status": "ok"}
    RESULT_BAD = {"job_id": "j", "status": "error", "error": "boom"}

    def test_rings_are_bounded(self, tmp_path):
        recorder = FlightRecorder(tmp_path, last_n=2, slowest_n=2)
        for seq in range(5):
            recorder.observe(
                make_request_id(seq, str(seq)), "{}", self.RESULT_OK,
                wall_s=float(seq),
            )
        rings = recorder.rings()
        assert len(rings["last"]) == 2
        assert [s["wall_s"] for s in rings["slowest"]] == [4.0, 3.0]
        assert recorder.dumps == 0

    def test_coverage_error_is_not_an_incident(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        name = recorder.observe(
            "req-000001-aa", "{}",
            {"job_id": "j", "status": "coverage_error"}, wall_s=0.1,
        )
        assert name is None

    def test_failure_dumps_without_flight_payload(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        name = recorder.observe(
            "req-000001-aa", "{}", self.RESULT_BAD, wall_s=0.1
        )
        artifact = read_artifact(tmp_path / name, FLIGHT_SCHEMA)
        assert artifact["reason"] == "failed"
        assert artifact["telemetry"] is None

    def test_tampered_artifact_rejected(self, tmp_path):
        recorder = FlightRecorder(tmp_path, threshold_s=0.0)
        name = recorder.observe(
            "req-000001-aa", "{}", self.RESULT_OK, wall_s=0.5
        )
        artifact = read_artifact(tmp_path / name, FLIGHT_SCHEMA)
        artifact["reason"] = "vibes"
        with pytest.raises(ValueError, match="reason"):
            validate(artifact, FLIGHT_SCHEMA)


def _pinned(export, *names):
    """``obs.<name>`` values of an export: counters and gauges as
    numbers, histograms as ``(count, total)``."""
    values = []
    for name in names:
        full = f"obs.{name}"
        if full in export["histograms"]:
            entry = export["histograms"][full]
            values.append((entry["count"], entry["total"]))
        elif full in export["counters"]:
            values.append(export["counters"][full])
        else:
            values.append(export["gauges"][full])
    return tuple(values)


class TestExportPins:
    """Exact fleet exports for fixed inputs.

    The values were measured on the per-worker-snapshot implementation
    the fold over result records replaced; any drift in what the fleet
    view counts shows here.
    """

    def test_batch_canonical_export(self):
        report = run_batch(JOBS)
        export = snapshot_export(snapshot_from_export(report["obs"]))
        assert _pinned(
            export, "requests_total", "requests_ok", "instructions_total",
            "blocks_total", "spills_total",
        ) == (4, 4, 25, 4, 0)
        assert _pinned(
            export, "request_instructions", "request_blocks",
            "request_spills",
        ) == ((4, 25), (4, 4), (4, 0))

    def test_cold_then_warm_cache_counts(self, tmp_path):
        names = ("cache_hits", "cache_misses", "cache_stores", "cache_hit_rate")
        cold = run_batch(JOBS, cache_dir=str(tmp_path))
        warm = run_batch(JOBS, cache_dir=str(tmp_path))
        assert _pinned(cold["obs"], *names) == (0, 4, 4, 0.0)
        assert _pinned(warm["obs"], *names) == (4, 0, 0, 1.0)

    def test_stream_canonical_export(self, tmp_path):
        path = tmp_path / "metrics.json"
        serve_stream(_stream_lines(), io.StringIO(), metrics_out=str(path))
        export = read_artifact(path, METRICS_SCHEMA)
        assert _pinned(
            export, "requests_total", "requests_ok", "requests_bad",
            "instructions_total", "blocks_total", "request_line_bytes",
        ) == (3, 2, 1, 10, 2, (3, 838))
