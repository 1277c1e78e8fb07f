"""Tests for the telemetry subsystem: sessions, spans, counters,
reports, Chrome-trace export, and the guarantee that the null session
changes nothing."""

import json
import tracemalloc

import pytest

from repro.frontend import compile_source
from repro.isdl import example_architecture
from repro.asmgen.program import compile_function
from repro.eval import workload
from repro.telemetry import (
    Histogram,
    NULL_SESSION,
    Stopwatch,
    TelemetryReport,
    TelemetrySession,
    chrome_trace,
    current,
    use_session,
    validate_trace,
)

SOURCE = "y = (a + b) * (a - c);\nz = y + 1;\n"


def _compile_profiled(source=SOURCE, machine=None):
    machine = machine or example_architecture(4)
    function = compile_source(source)
    session = TelemetrySession()
    with use_session(session):
        compiled = compile_function(function, machine)
    return compiled, session


class TestSession:
    def test_default_session_is_null(self):
        assert current() is NULL_SESSION
        assert not current().enabled

    def test_use_session_swaps_and_restores(self):
        session = TelemetrySession()
        with use_session(session):
            assert current() is session
            inner = TelemetrySession()
            with use_session(inner):
                assert current() is inner
            assert current() is session
        assert current() is NULL_SESSION

    def test_span_nesting_records_parents(self):
        session = TelemetrySession()
        with session.span("outer"):
            with session.span("inner"):
                pass
            with session.span("inner"):
                pass
        assert [s.name for s in session.spans] == ["outer", "inner", "inner"]
        outer, first, second = session.spans
        assert outer.parent == -1
        assert first.parent == outer.index == 0
        assert second.parent == 0
        assert first.path() == ["outer", "inner"]
        assert outer.wall >= first.wall >= 0.0

    def test_span_label_with_detail(self):
        session = TelemetrySession()
        with session.span("compile", "main") as span:
            pass
        assert span.label == "compile:main"
        assert span.name == "compile"

    def test_counters_and_histograms(self):
        session = TelemetrySession()
        session.count("a")
        session.count("a", 4)
        session.record("h", 2)
        session.record("h", 10)
        assert session.counter("a") == 5
        assert session.counter("missing") == 0
        histogram = session.histograms["h"]
        assert histogram.count == 2
        assert histogram.minimum == 2
        assert histogram.maximum == 10
        assert histogram.mean == 6.0

    def test_merge_counters(self):
        session = TelemetrySession()
        session.count("sim.cycles", 1)
        session.merge_counters({"sim.cycles": 9, "sim.nops": 2})
        assert session.counter("sim.cycles") == 10
        assert session.counter("sim.nops") == 2

    def test_annotate(self):
        session = TelemetrySession(meta={"machine": "m"})
        session.annotate(source="f.minic")
        assert session.meta == {"machine": "m", "source": "f.minic"}

    def test_empty_histogram_to_dict(self):
        assert Histogram().to_dict()["count"] == 0

    def test_null_session_probes_are_noops(self):
        null = NULL_SESSION
        with null.span("anything", "detail", category="c"):
            null.count("x", 5)
            null.record("y", 1.0)
            null.annotate(a=1)
            null.merge_counters({"z": 3})
        assert null.counter("x") == 0
        # span() hands back one shared object: no per-probe allocation.
        assert null.span("a") is null.span("b")


class TestPipelineInstrumentation:
    def test_profiled_compile_collects_phases_and_counters(self):
        compiled, session = _compile_profiled()
        names = {s.name for s in session.spans}
        for phase in (
            "compile",
            "compile.block",
            "covering.block",
            "sndag.build",
            "covering.assignments",
            "covering.cover",
            "peephole",
            "regalloc",
        ):
            assert phase in names, phase
        for counter in (
            "assign.alternatives_scored",
            "assign.pruned_min_cost",
            "cliques.enumerated",
            "cover.iterations",
            "cover.spill_rounds",
            "covering.instructions",
            "asmgen.instructions",
        ):
            assert counter in session.counters, counter
        assert (
            session.counter("covering.instructions")
            == compiled.body_instructions
        )
        assert session.histograms["assign.beam_occupancy"].count > 0

    def test_identical_compiles_produce_identical_counters(self):
        for source in (SOURCE, workload("Ex1").source):
            _, first = _compile_profiled(source)
            _, second = _compile_profiled(source)
            assert first.counters == second.counters, source
            assert {
                name: h.to_dict() for name, h in first.histograms.items()
            } == {
                name: h.to_dict() for name, h in second.histograms.items()
            }
            assert [s.path() for s in first.spans] == [
                s.path() for s in second.spans
            ]

    def test_telemetry_does_not_change_output(self):
        machine = example_architecture(4)
        baseline = compile_function(compile_source(SOURCE), machine)
        profiled, _ = _compile_profiled()
        assert (
            baseline.program.listing() == profiled.program.listing()
        )
        assert baseline.total_spills == profiled.total_spills

    def test_simulator_counters_bridge(self):
        from repro.simulator.stats import profile_run

        compiled, _ = _compile_profiled()
        session = TelemetrySession()
        with use_session(session):
            stats = profile_run(
                compiled.program,
                compiled.machine,
                {"a": 5, "b": 3, "c": 1},
            )
        assert session.counter("sim.cycles") == stats.cycles
        assert session.counter("sim.instructions") > 0
        assert any(n.startswith("sim.unit.") for n in session.counters)

    def test_null_session_compile_allocates_nothing_in_telemetry(self):
        import repro.explain  # noqa: F401 -- journal hooks must stay free

        machine = example_architecture(4)
        function = compile_source(SOURCE)
        compile_function(function, machine)  # warm every code path/cache
        # Filter to the probe layer: the engine's Stopwatch (pre-dating
        # telemetry, kept for cpu_seconds) legitimately allocates in
        # clock.py on every path; the null *session* must not, and
        # neither may the decision-journal hooks (NullJournal) nor any
        # code in repro.explain while journaling is off.
        telemetry_filters = [
            tracemalloc.Filter(True, "*/repro/telemetry/session.py"),
            tracemalloc.Filter(True, "*/repro/explain/*"),
        ]
        tracemalloc.start(5)
        try:
            compile_function(function, machine)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = snapshot.filter_traces(telemetry_filters).statistics(
            "filename"
        )
        leaked = sum(s.size for s in stats)
        assert leaked == 0, f"null path allocated {leaked} bytes: {stats}"


class TestReport:
    def test_aggregates_calls_per_path(self):
        _, session = _compile_profiled()
        report = TelemetryReport.from_session(session)
        cover = report.phase("covering.cover")
        assert cover is not None
        assert cover.calls >= 1
        assert cover.wall >= 0.0
        assert report.counter("cover.iterations") > 0
        assert report.total_wall() > 0.0

    def test_describe_renders_phases_and_counters(self):
        _, session = _compile_profiled()
        session.annotate(source="s.minic", function="main", machine="m")
        text = session.report().describe()
        assert "telemetry report" in text
        assert "main" in text and "s.minic" in text
        assert "covering.cover" in text
        assert "cover.iterations" in text
        assert "wall ms" in text

    def test_to_dict_is_json_safe_and_sorted(self):
        _, session = _compile_profiled()
        payload = session.report().to_dict()
        encoded = json.dumps(payload)  # must not raise
        assert json.loads(encoded) == payload
        counters = list(payload["counters"])
        assert counters == sorted(counters)
        assert all("path" in p for p in payload["phases"])


class TestChromeTrace:
    def test_trace_from_compile_validates(self):
        _, session = _compile_profiled()
        trace = chrome_trace(session)
        validate_trace(trace)  # must not raise
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, "no X events"
        for event in complete:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert event["pid"] == 1 and event["tid"] == 1
        timestamps = [e["ts"] for e in complete]
        assert timestamps == sorted(timestamps)
        assert any(e["ph"] == "M" for e in events)

    def test_trace_json_round_trips(self, tmp_path):
        _, session = _compile_profiled()
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(chrome_trace(session)))
        validate_trace(json.loads(path.read_text()))

    def test_validate_rejects_non_object(self):
        with pytest.raises(ValueError):
            validate_trace([])

    def test_validate_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            validate_trace(
                {"traceEvents": [{"ph": "Q", "name": "x", "ts": 0}]}
            )

    def test_validate_rejects_unsorted(self):
        events = [
            {"ph": "X", "name": "a", "ts": 10, "dur": 1, "pid": 1, "tid": 1},
            {"ph": "X", "name": "b", "ts": 0, "dur": 1, "pid": 1, "tid": 1},
        ]
        with pytest.raises(ValueError):
            validate_trace({"traceEvents": events})

    def test_validate_rejects_x_without_dur(self):
        with pytest.raises(ValueError):
            validate_trace(
                {
                    "traceEvents": [
                        {"ph": "X", "name": "a", "ts": 0, "pid": 1, "tid": 1}
                    ]
                }
            )


class TestStopwatchShim:
    def test_elapsed_while_running(self):
        watch = Stopwatch()
        watch.start()
        sum(range(1000))
        running_elapsed = watch.elapsed
        assert running_elapsed > 0.0
        watch.stop()
        assert watch.elapsed >= running_elapsed

    def test_context_manager_returns_watch(self):
        watch = Stopwatch()
        with watch as entered:
            assert entered is watch


class TestExecutionStatsDeterminism:
    def test_slot_utilization_keys_sorted(self):
        from repro.simulator.stats import profile_run

        compiled, _ = _compile_profiled()
        stats = profile_run(
            compiled.program, compiled.machine, {"a": 1, "b": 2, "c": 3}
        )
        utilization = stats.slot_utilization(compiled.machine)
        machine = compiled.machine
        expected = sorted(machine.unit_names()) + sorted(machine.bus_names())
        assert list(utilization) == expected

    def test_to_counters_keys_sorted_and_flat(self):
        from repro.simulator.stats import profile_run

        compiled, _ = _compile_profiled()
        stats = profile_run(
            compiled.program, compiled.machine, {"a": 1, "b": 2, "c": 3}
        )
        counters = stats.to_counters()
        assert counters["sim.cycles"] == stats.cycles
        assert all(isinstance(v, int) for v in counters.values())
        sim_units = [k for k in counters if k.startswith("sim.unit.")]
        assert sim_units == sorted(sim_units)
