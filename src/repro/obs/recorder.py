"""The flight recorder: bounded request history + incident artifacts.

A production service cannot keep every request, but it must be able to
answer "what just happened" and "what was the worst thing that
happened".  :class:`FlightRecorder` keeps two bounded rings — the
**last N** requests and the **slowest N** requests — and, for any
request that exceeds a latency threshold or fails outright
(verification failure or crash; coverage rejections are structured
results, not incidents), dumps a **self-contained artifact**: the raw
request, the structured result, the request's own metrics snapshot,
the full telemetry report, the decision journal, and a Chrome trace
ready for ``chrome://tracing``.  One file answers the incident — no
grepping four systems.

Artifacts are ``repro/flight/v1`` JSON documents named after the
request ID; ``write_summary`` additionally persists the two rings as
``flight-summary.json`` (``repro/flight-summary/v1``) when the stream
ends.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Versioned stamp of a per-request incident artifact.
FLIGHT_SCHEMA = "repro/flight/v1"

#: Versioned stamp of the end-of-stream ring summary.
FLIGHT_SUMMARY_SCHEMA = "repro/flight-summary/v1"

#: Result statuses that always trigger a dump (failures — coverage
#: rejections are structured results and do not).
FAILING_STATUSES = ("verification_error", "error")


class FlightRecorder:
    """Bounded last-N / slowest-N request history with incident dumps.

    Args:
        root: directory artifacts are written into (created eagerly).
        last_n: ring size for the most recent requests.
        slowest_n: ring size for the slowest requests.
        threshold_s: latency above which a request is dumped as a
            ``slow`` incident; ``None`` disables latency dumps (failing
            requests are always dumped).
    """

    def __init__(
        self,
        root: Union[str, Path],
        last_n: int = 16,
        slowest_n: int = 8,
        threshold_s: Optional[float] = None,
    ) -> None:
        if last_n < 1 or slowest_n < 1:
            raise ValueError("ring sizes must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.threshold_s = threshold_s
        self._last: deque = deque(maxlen=last_n)
        self._slowest_n = slowest_n
        self._slowest: List[Dict[str, Any]] = []
        self.dumps = 0

    # ------------------------------------------------------------------

    def observe(
        self,
        request_id: str,
        request: Any,
        result: Dict[str, Any],
        wall_s: float,
        metrics: Optional[Dict[str, Any]] = None,
        flight: Optional[Dict[str, Any]] = None,
    ) -> Optional[str]:
        """Record one finished request; dump an artifact if it was slow
        or failing.  Returns the artifact filename when one was written.

        ``flight`` is the heavyweight payload ``execute_job`` collects
        when a recorder is active: the telemetry report, the Chrome
        trace, and the decision journal entries.
        """
        summary = {
            "request_id": request_id,
            "job_id": result.get("job_id"),
            "status": result.get("status"),
            "wall_s": wall_s,
        }
        self._last.append(summary)
        self._note_slow(summary)
        reason = self._dump_reason(result, wall_s)
        if reason is None:
            return None
        return self._dump(
            reason, request_id, request, result, wall_s, metrics, flight
        )

    def _dump_reason(
        self, result: Dict[str, Any], wall_s: float
    ) -> Optional[str]:
        if result.get("status") in FAILING_STATUSES:
            return "failed"
        if self.threshold_s is not None and wall_s >= self.threshold_s:
            return "slow"
        return None

    def _note_slow(self, summary: Dict[str, Any]) -> None:
        self._slowest.append(summary)
        self._slowest.sort(
            key=lambda s: (-s["wall_s"], s["request_id"])
        )
        del self._slowest[self._slowest_n:]

    def _dump(
        self,
        reason: str,
        request_id: str,
        request: Any,
        result: Dict[str, Any],
        wall_s: float,
        metrics: Optional[Dict[str, Any]],
        flight: Optional[Dict[str, Any]],
    ) -> str:
        from repro.artifacts import write_artifact

        flight = flight or {}
        artifact = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "request_id": request_id,
            "threshold_s": self.threshold_s,
            "wall_s": wall_s,
            "request": request,
            "result": result,
            "metrics": metrics or {},
            "telemetry": flight.get("telemetry"),
            "trace": flight.get("trace"),
            "journal": flight.get("journal"),
        }
        name = f"flight-{request_id}.json"
        write_artifact(self.root / name, artifact)
        self.dumps += 1
        return name

    # ------------------------------------------------------------------

    def rings(self) -> Dict[str, Any]:
        """The current last-N and slowest-N request summaries."""
        return {
            "last": list(self._last),
            "slowest": list(self._slowest),
        }

    def write_summary(self) -> Path:
        """Persist the rings as ``flight-summary.json``; returns the path."""
        from repro.artifacts import write_artifact

        payload = {
            "schema": FLIGHT_SUMMARY_SCHEMA,
            "dumps": self.dumps,
            "threshold_s": self.threshold_s,
        }
        payload.update(self.rings())
        path = self.root / "flight-summary.json"
        write_artifact(path, payload)
        return path


