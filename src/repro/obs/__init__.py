"""Service-level observability for the compile services.

``repro.telemetry`` answers "what did *this one compile* do"; this
package answers "what is the *service* doing" — fleet-wide metric
snapshots folded from the services' result records
(:mod:`repro.obs.metrics`), structured JSON-lines request logs
(:mod:`repro.obs.events`), Prometheus/JSON exporters
(:mod:`repro.obs.export`), and a bounded flight recorder for slow or
failing requests (:mod:`repro.obs.recorder`).

Everything in this package is pure stdlib and deterministic by
construction: fleet snapshots are sums over results kept in request
order, request IDs are content-derived, and the canonical JSON export
excludes volatile (timing-dependent) metrics so the same seeded
workload produces byte-identical exports at any worker count.
"""

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
)
from repro.obs.recorder import (
    FLIGHT_SCHEMA,
    FLIGHT_SUMMARY_SCHEMA,
    FlightRecorder,
)

__all__ = [
    "EVENTS_SCHEMA",
    "METRICS_SCHEMA",
    "FLIGHT_SCHEMA",
    "FLIGHT_SUMMARY_SCHEMA",
    "METRIC_CATALOG",
    "EventLog",
    "FlightRecorder",
    "HistogramState",
    "MetricsSnapshot",
    "diff_metrics",
    "make_request_id",
    "read_events",
    "render_metrics_diff",
    "render_metrics_table",
    "request_event",
    "snapshot_export",
    "snapshot_from_export",
    "stream_event",
    "to_prometheus",
]
