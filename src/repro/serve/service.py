"""The batch compile service: many (source, machine, config) jobs.

``run_batch`` fans compile jobs across a ``ProcessPoolExecutor``
(blocks and jobs are independent) with every worker sharing one
persistent block cache (:mod:`repro.serve.cache`), and returns a
structured ``repro/serve/v1`` report: one result object per job — the
assembly listing, the per-block schedule map, headline metrics
(instructions, spills, blocks), cache telemetry, and a status that
distinguishes *structured* failures (a machine that cannot cover the
program) from crashes.

Jobs cross the process boundary as plain dicts (source text + ISDL
text), so a worker never depends on the parent's object graph; the same
``execute_job`` function also backs the in-process path (``workers=0``)
that tests and the ``repro serve`` line-oriented mode use.

The ``obs.*`` fleet metrics are not recorded while compiling: every one
is a function of fields each result record already carries (status,
metrics, wall time, cache counts), and :func:`fleet_snapshot` computes
them with one fold over the results in job order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import MetricsSnapshot

#: Versioned envelope of a batch report.
SERVE_SCHEMA = "repro/serve/v1"

#: Job statuses that are *results*, not crashes.
STRUCTURED_FAILURES = ("coverage_error", "verification_error")

#: Every status a job result can carry.
JOB_STATUSES = ("ok",) + STRUCTURED_FAILURES + ("error",)


@dataclass
class CompileJob:
    """One compile request.

    ``source`` is minic text and ``machine_isdl`` an ISDL-lite machine
    description — both self-contained strings, so a job can be shipped
    to a worker process, spooled to disk, or replayed later.
    """

    job_id: str
    source: str
    machine_isdl: str
    config: Dict[str, Any] = field(default_factory=dict)
    validate: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "source": self.source,
            "machine": self.machine_isdl,
            "config": dict(self.config),
            "validate": self.validate,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompileJob":
        return cls(
            job_id=str(data["job_id"]),
            source=data["source"],
            machine_isdl=data["machine"],
            config=dict(data.get("config", {})),
            validate=bool(data.get("validate", False)),
        )


#: Cache counters surfaced per job result.
CACHE_COUNTERS = ("hits", "misses", "stores", "evictions", "bad_entries")


def execute_job(
    payload: Dict[str, Any],
    cache_dir: Optional[str] = None,
    flight: bool = False,
) -> Dict[str, Any]:
    """Compile one job dict and return its result dict.

    Module-level and dict-in/dict-out so ``ProcessPoolExecutor`` can
    pickle it; imports stay inside so pool workers pay them once.

    Every result carries the job's cache counts under ``"cache"`` (read
    from its telemetry session) and a deterministic telemetry span
    summary under ``"telemetry"``.  With ``flight=True`` the compile
    also records a decision journal and Chrome trace, returned under
    ``"flight"`` for the flight recorder to dump — the caller pops that
    key before writing the result anywhere.
    """
    from repro.asmgen.program import compile_function
    from repro.covering.config import HeuristicConfig
    from repro.errors import CoverageError, ReproError, VerificationError
    from repro.explain import DecisionJournal
    from repro.frontend import compile_source
    from repro.isdl.parser import parse_machine
    from repro.telemetry import TelemetryReport, TelemetrySession, use_session

    job = CompileJob.from_dict(payload)
    result: Dict[str, Any] = {
        "job_id": job.job_id,
        "request_id": payload.get("request_id"),
        "status": "ok",
        "machine": None,
        "error": None,
        "metrics": {},
        "assembly": None,
        "schedules": {},
        "cache": {},
        "wall_s": 0.0,
    }
    journal = DecisionJournal() if flight else None
    session = TelemetrySession(journal=journal) if flight else TelemetrySession()
    started = time.perf_counter()
    try:
        machine = parse_machine(job.machine_isdl)
        result["machine"] = machine.name
        config = HeuristicConfig.default().with_(**job.config)
        with use_session(session):
            function = compile_source(job.source)
            compiled = compile_function(
                function,
                machine,
                config,
                validate=job.validate,
                cache_dir=cache_dir,
            )
        result["metrics"] = {
            "instructions": compiled.total_instructions,
            "body_instructions": compiled.body_instructions,
            "spills": compiled.total_spills,
            "blocks": len(compiled.blocks),
        }
        result["assembly"] = compiled.program.listing()
        result["schedules"] = {
            name: [sorted(word) for word in block.solution.schedule]
            for name, block in sorted(compiled.blocks.items())
        }
    except CoverageError as error:
        result["status"] = "coverage_error"
        result["error"] = str(error)
    except VerificationError as error:
        result["status"] = "verification_error"
        result["error"] = str(error)
    except ReproError as error:
        result["status"] = "error"
        result["error"] = str(error)
    except Exception as error:  # noqa: BLE001 - reported, not swallowed
        result["status"] = "error"
        result["error"] = f"{type(error).__name__}: {error}"
    result["wall_s"] = time.perf_counter() - started
    result["cache"] = {
        name: session.counter(f"serve.cache_{name}")
        for name in CACHE_COUNTERS
    }
    report = TelemetryReport.from_session(session)
    result["telemetry"] = report.span_summary()
    if flight:
        result["flight"] = {
            "telemetry": report.to_dict(),
            "trace": session.chrome_trace(),
            "journal": list(journal.entries),
        }
    return result


def run_batch(
    jobs: Iterable[CompileJob],
    cache_dir: Optional[str] = None,
    workers: int = 0,
    chunksize: int = 1,
) -> Dict[str, Any]:
    """Compile every job and return the ``repro/serve/v1`` report.

    Args:
        jobs: compile requests, in order; results keep that order.
        cache_dir: persistent block-cache directory shared by every
            worker (``None`` = no cross-job caching).
        workers: process-pool width; ``0`` compiles in-process (serial,
            deterministic — what the differential tests compare the
            pool against).
        chunksize: jobs per pool task (only with ``workers > 0``).
    """
    from repro.obs.events import make_request_id

    ordered = [job.to_dict() for job in jobs]
    for seq, payload in enumerate(ordered):
        payload["request_id"] = make_request_id(
            seq, json.dumps(payload, sort_keys=True)
        )
    started = time.perf_counter()
    if workers > 0:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    partial(execute_job, cache_dir=cache_dir),
                    ordered,
                    chunksize=max(1, chunksize),
                )
            )
    else:
        results = [execute_job(payload, cache_dir) for payload in ordered]
    wall = time.perf_counter() - started
    return make_batch_report(results, wall_s=wall, workers=workers)


def make_batch_report(
    results: List[Dict[str, Any]],
    wall_s: float = 0.0,
    workers: int = 0,
) -> Dict[str, Any]:
    """Wrap per-job results in the versioned envelope with totals.

    The fleet snapshot of the results is exported under the report's
    top-level ``"obs"`` key with volatile metrics included — the report
    is a diagnostic document, not the canonical byte-stable export.
    """
    from repro.obs.export import snapshot_export

    fleet = fleet_snapshot(results)
    fleet.set_gauge("obs.workers", float(workers))
    cache = {
        name: fleet.counter(f"obs.cache_{name}") for name in CACHE_COUNTERS
    }
    ok = fleet.counter("obs.requests_ok")
    structured = sum(
        fleet.counter(f"obs.requests_{status}")
        for status in STRUCTURED_FAILURES
    )
    return {
        "schema": SERVE_SCHEMA,
        "workers": workers,
        "results": results,
        "obs": snapshot_export(fleet, include_volatile=True),
        "totals": {
            "jobs": len(results),
            "ok": ok,
            "structured_failures": structured,
            "errors": len(results) - ok - structured,
            "wall_s": wall_s,
            "jobs_per_second": (len(results) / wall_s) if wall_s > 0 else 0.0,
            "cache": cache,
            "cache_hit_rate": fleet.gauges.get("obs.cache_hit_rate", 0.0),
        },
    }


def fleet_snapshot(
    results: Iterable[Dict[str, Any]],
    into: Optional[MetricsSnapshot] = None,
) -> MetricsSnapshot:
    """Fold result records into the ``obs.*`` fleet metrics.

    Each result adds its status, its ok-request sizes, its wall time
    and its cache counts; ``obs.cache_hit_rate`` is then recomputed
    from the running totals.  The fold records into ``into`` when given
    (the ``repro serve`` loop folds one result at a time), else into a
    fresh snapshot.  Results keep job order under any pool width and
    every step is a sum, so the fleet view is independent of the
    worker count.
    """
    fleet = MetricsSnapshot() if into is None else into
    for result in results:
        fleet.count("obs.requests_total")
        fleet.count(f"obs.requests_{result['status']}")
        if result["status"] == "ok":
            metrics = result["metrics"]
            fleet.count("obs.instructions_total", metrics["instructions"])
            fleet.count("obs.spills_total", metrics["spills"])
            fleet.count("obs.blocks_total", metrics["blocks"])
            fleet.observe("obs.request_instructions", metrics["instructions"])
            fleet.observe("obs.request_blocks", metrics["blocks"])
            fleet.observe("obs.request_spills", metrics["spills"])
        fleet.observe("obs.request_wall_seconds", result["wall_s"])
        for name in CACHE_COUNTERS:
            fleet.count(f"obs.cache_{name}", result["cache"][name])
    hits = fleet.counter("obs.cache_hits")
    probes = hits + fleet.counter("obs.cache_misses")
    if probes:
        fleet.set_gauge("obs.cache_hit_rate", hits / probes)
    return fleet


def serve_stream(
    requests: Iterable[str],
    output,
    cache_dir: Optional[str] = None,
    validate: bool = False,
    metrics_out: Optional[str] = None,
    events_out: Optional[str] = None,
    flight_dir: Optional[str] = None,
    flight_threshold: Optional[float] = None,
) -> Dict[str, int]:
    """The ``repro serve`` loop: JSON job lines in, JSON result lines out.

    Each input line is one request object::

        {"id": "job-1", "source": "y = a + b;", "machine": "arch1"}
        {"id": "job-2", "source_path": "examples/fir4.minic",
         "machine_isdl": "...", "config": {"num_assignments": 2}}

    ``machine`` is a CLI machine spec (builtin key or ISDL path);
    ``machine_isdl`` inlines the description.  Results are written to
    ``output`` one JSON object per line, in request order, with the same
    shape as :func:`execute_job` results.  Every request gets a stable
    content-derived ID (``req-<seq>-<digest>``) echoed in the response
    line, the events log, and any flight-recorder artifact.  A
    malformed or non-JSON line produces a structured ``status:
    "error"`` response (and an ``obs.requests_bad`` bump) instead of
    killing the service.  Returns a small summary (requests served /
    ok / failed).

    Observability side channels, all optional:

    - ``metrics_out`` — canonical deterministic ``repro/metrics/v1``
      export of the whole stream: the stream-level counts recorded in
      the loop plus every compiled result folded by
      :func:`fleet_snapshot`.
    - ``events_out`` — ``repro/events/v1`` JSON-lines request log.
    - ``flight_dir`` (+ ``flight_threshold`` seconds) — flight recorder
      dumping self-contained artifacts for slow or failing requests.
    """
    from repro.cli import resolve_machine
    from repro.isdl.writer import machine_to_isdl
    from repro.obs.events import (
        EventLog,
        make_request_id,
        request_event,
        stream_event,
    )
    from repro.artifacts import write_artifact
    from repro.obs.export import snapshot_export
    from repro.obs.recorder import FlightRecorder

    stream = MetricsSnapshot()
    event_log = EventLog(events_out) if events_out is not None else None
    recorder = (
        FlightRecorder(flight_dir, threshold_s=flight_threshold)
        if flight_dir is not None
        else None
    )
    if event_log is not None:
        event_log.emit(stream_event("stream_start"))

    served = {"requests": 0, "ok": 0, "failed": 0}
    for line in requests:
        line = line.strip()
        if not line:
            continue
        served["requests"] += 1
        request_id = make_request_id(served["requests"], line)
        stream.observe("obs.request_line_bytes", len(line.encode("utf-8")))
        bad_request = False
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            if "source" in request:
                source = request["source"]
            else:
                with open(request["source_path"]) as handle:
                    source = handle.read()
            if "machine_isdl" in request:
                machine_isdl = request["machine_isdl"]
            else:
                machine_isdl = machine_to_isdl(
                    resolve_machine(request["machine"])
                )
            job = CompileJob(
                job_id=str(request.get("id", served["requests"])),
                source=source,
                machine_isdl=machine_isdl,
                config=dict(request.get("config", {})),
                validate=bool(request.get("validate", validate)),
            )
            payload = job.to_dict()
            payload["request_id"] = request_id
            result = execute_job(payload, cache_dir, flight=recorder is not None)
        except Exception as error:  # noqa: BLE001 - the service must live
            bad_request = True
            result = {
                "job_id": None,
                "request_id": request_id,
                "status": "error",
                "error": f"bad request: {error}",
                "metrics": {},
                "cache": {name: 0 for name in CACHE_COUNTERS},
                "wall_s": 0.0,
            }
            stream.count("obs.requests_total")
            stream.count("obs.requests_bad")
        else:
            fleet_snapshot([result], into=stream)
        flight_payload = result.pop("flight", None)
        artifact_name = None
        if recorder is not None:
            artifact_metrics = {}
            if not bad_request:
                artifact_metrics = snapshot_export(
                    fleet_snapshot([result]), include_volatile=True
                )
            artifact_name = recorder.observe(
                request_id,
                line,
                result,
                result.get("wall_s", 0.0),
                metrics=artifact_metrics,
                flight=flight_payload,
            )
            if artifact_name is not None:
                stream.count("obs.flight_dumps")
        if event_log is not None:
            event_log.emit(
                request_event(
                    request_id,
                    "bad_request" if bad_request else result["status"],
                    job_id=result.get("job_id"),
                    machine=result.get("machine"),
                    wall_s=result.get("wall_s"),
                    metrics=result.get("metrics") or {},
                    error=result.get("error"),
                    telemetry=result.get("telemetry"),
                    journal_entries=(
                        len(flight_payload["journal"])
                        if flight_payload is not None
                        else None
                    ),
                    flight_artifact=artifact_name,
                )
            )
        if result["status"] == "ok":
            served["ok"] += 1
        else:
            served["failed"] += 1
        output.write(json.dumps(result, sort_keys=True) + "\n")
        try:
            output.flush()
        except (AttributeError, OSError):
            pass

    if event_log is not None:
        event_log.emit(stream_event("stream_end", **served))
        stream.count("obs.events_emitted", event_log.emitted)
        event_log.close()
    if recorder is not None:
        recorder.write_summary()
    if metrics_out is not None:
        write_artifact(metrics_out, snapshot_export(stream))
    return served
