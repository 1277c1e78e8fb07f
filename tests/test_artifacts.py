"""The one artifact checker: registration, reads and writes, mutations.

Every in-scope ``repro/*/v1`` stamp is registered in
:data:`repro.artifacts.SCHEMAS`; and a mutation sweep over one small
valid sample per stamp proves the checker never crashes: each
key path (the first three items of every list) is replaced with
``None, [], {}, "x", -1, 1.5, True`` and deleted, and ``validate`` must
either accept or raise :class:`ValueError` — and reject every deletion
the sample does not list as optional.
"""

from __future__ import annotations

import fnmatch
import json

import pytest

from repro.artifacts import SCHEMAS, read_artifact, validate, write_artifact

#: Every stamp the table must cover (the block codec and cache
#: envelopes are deliberately out of scope).
STAMPS = (
    "repro/bench-optimal/v1",
    "repro/bench-explore/v1",
    "repro/serve/v1",
    "repro/explain/v1",
    "repro/metrics/v1",
    "repro/events/v1",
    "repro/flight/v1",
    "repro/flight-summary/v1",
)

REPLACEMENTS = (None, [], {}, "x", -1, 1.5, True)


# ----------------------------------------------------------------------
# One small valid sample per stamp (builder, deletable key patterns)
# ----------------------------------------------------------------------


def _optimal():
    from repro.optimal.bench import summarize_optimal_bench

    entries = [
        {
            "workload": "Ex2",
            "machine": "arch1_r4",
            "registers": 4,
            "heuristic_cost": 11,
            "optimal_cost": 10,
            "gap": 1,
            "proven": True,
            "spill_free": True,
            "heuristic_spills": 0,
            "cpu_seconds": 0.5,
            "solver": {
                "assignments_searched": 3,
                "unsat_assignments": 2,
                "sat_calls": 4,
                "conflicts": 30,
                "decisions": 40,
                "propagations": 500,
                "learned_clauses": 25,
                "restarts": 0,
                "variables": 100,
                "clauses": 400,
                "conflict_budget": 50000,
                "budget_exhausted": False,
            },
        }
    ]
    return {
        "schema": "repro/bench-optimal/v1",
        "summary": summarize_optimal_bench(entries),
        "entries": entries,
    }


def _explore():
    from repro.explore import (
        default_workloads,
        load_base_machines,
        run_explore,
    )

    payload, _timing = run_explore(
        seed=1,
        population=3,
        bases=load_base_machines()[:2],
        workloads=default_workloads(None)[:2],
    )
    return payload


def _jobs():
    from repro.isdl import example_architecture
    from repro.isdl.writer import machine_to_isdl
    from repro.serve import CompileJob

    isdl = machine_to_isdl(example_architecture(4))
    return [
        CompileJob("good", "y = (a + b) - (c * d);", isdl),
        CompileJob("branchy", "if (a > b) { y = a; } else { y = b; }", isdl),
    ]


def _batch():
    from repro.serve import run_batch

    return run_batch(_jobs())


def _explain():
    from repro.explain import explain_source
    from repro.isdl import example_architecture

    report, _compiled, _error = explain_source(
        "y = (a + b) * (a - c);", example_architecture(4)
    )
    return report


def _metrics():
    from repro.obs.export import snapshot_export
    from repro.obs.metrics import MetricsSnapshot

    snapshot = MetricsSnapshot()
    snapshot.count("obs.requests_total", 2)
    snapshot.observe("obs.request_instructions", 11)
    snapshot.set_gauge("obs.workers", 2.0)
    return snapshot_export(snapshot)


def _event():
    from repro.obs.events import request_event

    return request_event(
        "req-000001-abc",
        "error",
        job_id="good",
        machine="arch1_r4",
        wall_s=0.25,
        metrics={"instructions": 7},
        error="boom",
        telemetry={"spans": [{"path": "compile", "calls": 1}]},
        journal_entries=3,
        flight_artifact="flight-req-000001-abc.json",
    )


def _flight():
    return {
        "schema": "repro/flight/v1",
        "reason": "slow",
        "request_id": "req-000001-abc",
        "threshold_s": 0.0,
        "wall_s": 0.25,
        "request": '{"id": "good"}',
        "result": {"job_id": "good", "status": "ok"},
        "metrics": {"schema": "repro/metrics/v1"},
        "telemetry": {"phases": []},
        "trace": {"traceEvents": [{"ph": "X", "name": "compile"}]},
        "journal": [{"seq": 0, "kind": "block.solution"}],
    }


def _flight_summary(tmp_path):
    from repro.obs.recorder import FlightRecorder

    recorder = FlightRecorder(tmp_path, threshold_s=1.0)
    for seq, status in enumerate(("ok", "error", "coverage_error")):
        recorder.observe(
            f"req-00000{seq}-abc", "{}",
            {"job_id": f"j{seq}", "status": status}, wall_s=0.1 * seq,
        )
    return json.loads(recorder.write_summary().read_text())


#: stamp -> (sample builder, key-path patterns whose deletion is fine).
#: Paths join keys with "/" and write list indices as "*".
SAMPLES = {
    "repro/bench-optimal/v1": (_optimal, (
        "entries/*/solver/conflict_budget",
    )),
    "repro/bench-explore/v1": (_explore, (
        "meta/requested_population", "meta/machgen_share",
        "candidates/*/origin", "candidates/*/optimal",
        "candidates/*/metrics/tasks", "candidates/*/metrics/lower_bound",
        "candidates/*/metrics/ipc", "candidates/*/workloads/*/workload",
        "candidates/*/workloads/*/metrics",
        "candidates/*/workloads/*/metrics/*",
        "candidates/*/workloads/*/error",
        "frontier/*/origin", "frontier/*/ipc",
    )),
    "repro/serve/v1": (_batch, (
        "workers", "totals/cache", "totals/cache/*",
        "results/*/request_id", "results/*/machine", "results/*/wall_s",
        "results/*/telemetry", "results/*/telemetry/*",
        "results/*/metrics", "results/*/metrics/*",
        "results/*/assembly", "results/*/schedules", "results/*/schedules/*",
        "results/*/error", "obs", "obs/gauges/*",
    )),
    "repro/explain/v1": (_explain, (
        "meta/*", "blocks/*/decisions/*/data/*",
        "blocks/*/quality/*/*", "blocks/*/timeline/*/*/*",
    )),
    "repro/metrics/v1": (_metrics, ()),
    "repro/events/v1": (_event, (
        "telemetry", "telemetry/spans/*/calls", "journal_entries",
        "flight_artifact", "metrics/*",
    )),
    "repro/flight/v1": (_flight, (
        "result/job_id", "metrics/*", "telemetry/*", "trace/traceEvents/*",
        "journal/*/*",
    )),
    "repro/flight-summary/v1": (_flight_summary, ()),
}


def _build(stamp, tmp_path):
    builder = SAMPLES[stamp][0]
    return builder(tmp_path) if builder is _flight_summary else builder()


def _key_paths(value, prefix=()):
    """Every key path into ``value``: all object keys, the first three
    items of every list."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = range(min(3, len(value)))
    else:
        return
    for key in keys:
        yield prefix + (key,)
        yield from _key_paths(value[key], prefix + (key,))


def _pattern_path(path):
    return "/".join("*" if isinstance(k, int) else str(k) for k in path)


def _outcome(payload):
    try:
        validate(payload)
    except ValueError:
        return "rejected"
    return "accepted"


def _mutations(payload):
    """(path, label, outcome) for every mutation of ``payload``; each
    mutation is applied in place and undone before the next."""
    for path in list(_key_paths(payload)):
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        original = parent[key]
        for replacement in REPLACEMENTS:
            parent[key] = replacement
            yield path, f"= {json.dumps(replacement)}", _outcome(payload)
        parent[key] = original
        if isinstance(parent, dict):
            items = list(parent.items())
            del parent[key]
            yield path, "deleted", _outcome(payload)
            parent.clear()
            parent.update(items)


class TestRegistry:
    def test_every_stamp_registered(self):
        assert sorted(SCHEMAS) == sorted(STAMPS)

    def test_unknown_and_mismatched_stamps_rejected(self):
        with pytest.raises(ValueError, match="unknown artifact schema"):
            validate({"schema": "repro/bench-optimal/v0"})
        with pytest.raises(ValueError, match=r"\$\.schema"):
            validate(_optimal(), "repro/bench-explore/v1")
        for payload in (None, [], "x", {"schema": ["repro/metrics/v1"]}):
            with pytest.raises(ValueError):
                validate(payload)

    def test_errors_name_the_json_path(self):
        payload = _metrics()
        payload["histograms"]["obs.request_blocks"]["bounds"] = None
        with pytest.raises(ValueError) as caught:
            validate(payload)
        assert str(caught.value) == (
            '$.histograms["obs.request_blocks"].bounds: expected a list, '
            "got null"
        )


class TestReadWrite:
    def test_write_is_canonical_and_atomic(self, tmp_path):
        payload = _optimal()
        target = tmp_path / "nested" / "gap.json"
        write_artifact(target, payload)
        assert target.read_text() == (
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        assert sorted(p.name for p in target.parent.iterdir()) == [
            "gap.json"
        ]
        assert read_artifact(target, "repro/bench-optimal/v1") == payload

    def test_write_validates_first(self, tmp_path):
        payload = _optimal()
        payload["entries"][0]["gap"] = 2
        target = tmp_path / "gap.json"
        with pytest.raises(ValueError, match="gap 2 != heuristic"):
            write_artifact(target, payload)
        assert list(tmp_path.iterdir()) == []

    def test_read_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="broken.json"):
            read_artifact(path)
        path.write_text(json.dumps({"schema": "repro/metrics/v1"}))
        with pytest.raises(ValueError, match=r"broken.json: \$: missing"):
            read_artifact(path)
        with pytest.raises(OSError):
            read_artifact(tmp_path / "absent.json")


@pytest.mark.parametrize("stamp", STAMPS)
def test_mutation_sweep(stamp, tmp_path):
    payload = _build(stamp, tmp_path)
    validate(payload, stamp)
    optional = SAMPLES[stamp][1]
    accepted_deletions = []
    count = 0
    for path, label, outcome in _mutations(payload):
        count += 1
        if label == "deleted" and outcome == "accepted":
            pattern = _pattern_path(path)
            if not any(fnmatch.fnmatchcase(pattern, o) for o in optional):
                accepted_deletions.append(pattern)
    assert count > 10
    assert accepted_deletions == []
    validate(payload, stamp)  # every mutation was undone
