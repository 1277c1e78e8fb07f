"""Pipeline telemetry: phase spans, search counters, trace export.

The compiler's own behavior — where compile time goes, how many
assignments the beam pruned, how many cliques were enumerated, how many
spill rounds fired — is observable through this package:

- :class:`TelemetrySession` collects hierarchical phase **spans**
  (wall + CPU time), named **counters**, and **histograms**;
- :func:`use_session` activates a session; instrumented pipeline code
  probes the current session via :func:`current`;
- the default :class:`NullSession` makes every probe a no-op with zero
  allocations, so uninstrumented compilation pays nothing;
- :meth:`TelemetrySession.report` aggregates a per-compilation
  :class:`TelemetryReport` (text table or JSON dict);
- :func:`chrome_trace` exports spans as Chrome ``chrome://tracing``
  trace-event JSON, checked by :func:`validate_trace`.

See ``docs/observability.md`` for the span/counter model and the
counter glossary tied to the paper's concepts.
"""

from repro.telemetry.clock import Stopwatch, cpu_clock, wall_clock
from repro.telemetry.session import (
    Histogram,
    NullSession,
    NULL_SESSION,
    SpanRecord,
    TelemetrySession,
    current,
    use_session,
)
from repro.telemetry.report import PhaseStats, TelemetryReport
from repro.telemetry.trace import chrome_trace, validate_trace

__all__ = [
    "Stopwatch",
    "cpu_clock",
    "wall_clock",
    "Histogram",
    "NullSession",
    "NULL_SESSION",
    "SpanRecord",
    "TelemetrySession",
    "current",
    "use_session",
    "PhaseStats",
    "TelemetryReport",
    "chrome_trace",
    "validate_trace",
]
