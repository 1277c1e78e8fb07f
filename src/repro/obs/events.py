"""Structured request logs: the ``repro/events/v1`` JSON-lines format.

Every request a long-running service handles becomes one JSON line —
machine-parseable, schema-stamped, and linked to the rest of the
observability stack: the event carries the request's **stable request
ID** (also echoed in the response and in any flight-recorder artifact),
a compact summary of the compile's **telemetry span tree**, and the
size of its **decision journal**, so a log line can be joined against
the heavier artifacts it indexes.

Request IDs are deterministic, not random: ``req-<seq>-<digest>`` where
``seq`` is the request's position in the stream and ``digest`` a
SHA-256 prefix of the raw request payload.  Replaying the same request
script therefore yields the same IDs — which is what lets tests (and
incident debugging) correlate a request across the events log, the
response stream, and the flight recorder.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Versioned stamp on every event line.
EVENTS_SCHEMA = "repro/events/v1"

#: Event kinds a stream may contain.  A request event carries a job
#: status, or ``bad_request`` for a line that never became a job.
EVENT_KINDS = ("stream_start", "request", "stream_end")


def make_request_id(seq: int, payload: Union[str, bytes]) -> str:
    """Stable request ID: stream position + content digest."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8", "replace")
    digest = hashlib.sha256(payload).hexdigest()[:12]
    return f"req-{seq:06d}-{digest}"


def stream_event(event: str, **data: Any) -> Dict[str, Any]:
    """A ``stream_start`` / ``stream_end`` marker event."""
    record = {"schema": EVENTS_SCHEMA, "event": event}
    record.update(data)
    return record


def request_event(
    request_id: str,
    status: str,
    job_id: Optional[str] = None,
    machine: Optional[str] = None,
    wall_s: Optional[float] = None,
    metrics: Optional[Dict[str, Any]] = None,
    error: Optional[str] = None,
    telemetry: Optional[Dict[str, Any]] = None,
    journal_entries: Optional[int] = None,
    flight_artifact: Optional[str] = None,
) -> Dict[str, Any]:
    """One request's event record (validated at emit time)."""
    record: Dict[str, Any] = {
        "schema": EVENTS_SCHEMA,
        "event": "request",
        "request_id": request_id,
        "status": status,
        "job_id": job_id,
        "machine": machine,
        "wall_s": wall_s,
        "metrics": metrics or {},
        "error": error,
    }
    if telemetry is not None:
        record["telemetry"] = telemetry
    if journal_entries is not None:
        record["journal_entries"] = journal_entries
    if flight_artifact is not None:
        record["flight_artifact"] = flight_artifact
    return record


class EventLog:
    """An append-only JSON-lines event sink.

    Accepts a path (opened and owned by the log) or any object with a
    ``write`` method (borrowed — the caller closes it).  Every record
    is validated before being written, so a malformed event is a bug at
    the emit site, never a corrupt log.
    """

    def __init__(self, sink: Union[str, Path, Any]) -> None:
        if hasattr(sink, "write"):
            self._stream = sink
            self._owned = False
        else:
            self._stream = open(sink, "w")
            self._owned = True
        self.emitted = 0

    def emit(self, record: Dict[str, Any]) -> None:
        from repro.artifacts import validate

        validate(record, EVENTS_SCHEMA)
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self.emitted += 1

    def close(self) -> None:
        try:
            self._stream.flush()
        except (AttributeError, OSError):
            pass
        if self._owned:
            self._stream.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load and validate every event line in ``path``."""
    from repro.artifacts import validate

    events = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        validate(record, EVENTS_SCHEMA)
        events.append(record)
    return events
