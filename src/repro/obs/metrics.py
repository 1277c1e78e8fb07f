"""Service metrics: counters, gauges and histograms for a fleet.

:mod:`repro.telemetry` observes **one compilation**; this module
observes a **fleet of requests**.  A :class:`MetricsSnapshot` holds
monotonic counters, gauges, and fixed-bucket histograms as plain data.
The services never record into one while compiling: each request
returns a result record (status, metrics, wall time, cache counts),
and the fleet view is one fold over those records in request order
(:func:`repro.serve.service.fleet_snapshot`, and the candidate fold in
:mod:`repro.explore.service`).  Results keep job order under any pool
width and every fold step is a sum, so the fleet view is the same for
any worker count — the property the byte-identical ``--metrics-out``
exports rely on (see :mod:`repro.obs.export`).

Every metric must be **declared** in :data:`METRIC_CATALOG` before it
can be recorded; unknown names and wrong kinds raise immediately.  The
catalog carries the help text the Prometheus exporter emits and a
``volatile`` flag separating deterministic metrics (request counts,
instruction totals, size histograms — identical for identical inputs)
from wall-clock and scheduling-dependent ones (latency histograms,
shared-cache hit counts under a pool).  The canonical JSON export
drops volatile metrics so the artifact is byte-reproducible; the
Prometheus text export keeps them because a scrape *wants* live
latency.

Histogram buckets are **exact fixed bounds** (cumulative ``le``
semantics, like Prometheus): two processes observing the same values
produce identical bucket counts, and the p50/p90/p99 estimates —
computed from the bucket counts, never from a sample reservoir — are
deterministic too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

Number = Union[int, float]

#: Latency bucket upper bounds, in seconds (Prometheus ``le`` style).
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Code-size bucket bounds (instructions per request).
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)

#: Small-count bucket bounds (blocks, spills per request).
SMALL_BUCKETS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)

#: Request payload size bounds, in bytes.
BYTES_BUCKETS: Tuple[float, ...] = (64, 256, 1024, 4096, 16384, 65536)


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric: its kind, documentation, and determinism."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    volatile: bool = False
    buckets: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"{self.name}: unknown metric kind {self.kind!r}")
        if self.kind == "histogram":
            if not self.buckets:
                raise ValueError(f"{self.name}: histogram needs buckets")
            if list(self.buckets) != sorted(set(self.buckets)):
                raise ValueError(
                    f"{self.name}: buckets must be strictly increasing"
                )
        elif self.buckets is not None:
            raise ValueError(f"{self.name}: only histograms take buckets")


def _catalog(*specs: MetricSpec) -> Dict[str, MetricSpec]:
    table: Dict[str, MetricSpec] = {}
    for spec in specs:
        if spec.name in table:
            raise ValueError(f"duplicate metric {spec.name!r}")
        table[spec.name] = spec
    return table


#: Every ``obs.*`` metric the service layer may record.  The counter
#: glossary gate (``tests/test_counter_glossary.py``) asserts each name
#: here is documented in ``docs/observability.md``, so a metric cannot
#: land without documentation.
METRIC_CATALOG: Dict[str, MetricSpec] = _catalog(
    # -- request outcomes (deterministic) ------------------------------
    MetricSpec("obs.requests_total", "counter",
               "Requests observed by the service layer."),
    MetricSpec("obs.requests_ok", "counter",
               "Requests that compiled successfully."),
    MetricSpec("obs.requests_coverage_error", "counter",
               "Requests the target machine genuinely cannot cover "
               "(structured failures, not crashes)."),
    MetricSpec("obs.requests_verification_error", "counter",
               "Requests whose schedule failed the independent "
               "translation validator."),
    MetricSpec("obs.requests_error", "counter",
               "Requests that failed for any other reason "
               "(parse errors, crashes reported as results)."),
    MetricSpec("obs.requests_bad", "counter",
               "Malformed request lines answered with a structured "
               "JSON error instead of killing the serve loop."),
    # -- compile outputs (deterministic) -------------------------------
    MetricSpec("obs.instructions_total", "counter",
               "VLIW instructions emitted across all ok requests."),
    MetricSpec("obs.spills_total", "counter",
               "Spills across all ok requests."),
    MetricSpec("obs.blocks_total", "counter",
               "Basic blocks compiled across all ok requests."),
    # -- exploration (deterministic) -----------------------------------
    MetricSpec("obs.candidates_total", "counter",
               "Candidate machines evaluated by the exploration "
               "service."),
    MetricSpec("obs.workloads_total", "counter",
               "Per-candidate workload compiles attempted."),
    MetricSpec("obs.workloads_ok", "counter",
               "Per-candidate workload compiles that succeeded."),
    MetricSpec("obs.workloads_failed", "counter",
               "Per-candidate workload compiles that failed "
               "(data points, not errors)."),
    MetricSpec("obs.frontier_size", "gauge",
               "Pareto-frontier size of the latest exploration run."),
    # -- events / flight recorder --------------------------------------
    MetricSpec("obs.events_emitted", "counter",
               "Structured repro/events/v1 lines written."),
    MetricSpec("obs.flight_dumps", "counter",
               "Flight-recorder artifacts dumped for slow or failing "
               "requests.", volatile=True),
    # -- block cache (volatile: pool scheduling decides which worker
    # -- wins a store race, so exact counts vary across worker counts) -
    MetricSpec("obs.cache_hits", "counter",
               "Persistent block-cache probes served from disk.",
               volatile=True),
    MetricSpec("obs.cache_misses", "counter",
               "Persistent block-cache probes that missed.",
               volatile=True),
    MetricSpec("obs.cache_stores", "counter",
               "Block solutions written to the persistent cache.",
               volatile=True),
    MetricSpec("obs.cache_evictions", "counter",
               "LRU victims removed from the persistent cache.",
               volatile=True),
    MetricSpec("obs.cache_bad_entries", "counter",
               "Corrupt persistent-cache entries rejected on probe.",
               volatile=True),
    MetricSpec("obs.cache_hit_rate", "gauge",
               "hits / (hits + misses) over the fleet view.",
               volatile=True),
    # -- fleet shape (volatile: configuration, not behaviour) ----------
    MetricSpec("obs.workers", "gauge",
               "Process-pool width of the run that produced this "
               "snapshot.", volatile=True),
    # -- histograms ----------------------------------------------------
    MetricSpec("obs.request_instructions", "histogram",
               "Instructions per ok request.", buckets=SIZE_BUCKETS),
    MetricSpec("obs.request_blocks", "histogram",
               "Basic blocks per ok request.", buckets=SMALL_BUCKETS),
    MetricSpec("obs.request_spills", "histogram",
               "Spills per ok request.", buckets=SMALL_BUCKETS),
    MetricSpec("obs.request_line_bytes", "histogram",
               "Request payload size in bytes (serve stream).",
               buckets=BYTES_BUCKETS),
    MetricSpec("obs.request_wall_seconds", "histogram",
               "End-to-end request latency in seconds.",
               volatile=True, buckets=LATENCY_BUCKETS_S),
)


def histogram_quantile(
    bounds: Tuple[float, ...],
    counts: List[int],
    q: float,
    maximum: Optional[float] = None,
) -> float:
    """Deterministic quantile estimate from cumulative-``le`` buckets.

    Returns the upper bound of the first bucket whose cumulative count
    reaches ``q`` of the total; observations in the overflow bucket
    report the recorded maximum (exact bucket arithmetic, no sampling,
    so two runs over the same observations agree bit for bit).
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    target = math.ceil(q * total)
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= target:
            return float(bound)
    return float(maximum if maximum is not None else bounds[-1])


@dataclass
class HistogramState:
    """Fixed-bucket histogram data."""

    bounds: Tuple[float, ...]
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError(
                f"histogram needs {len(self.bounds) + 1} buckets, "
                f"got {len(self.counts)}"
            )

    def observe(self, value: Number) -> None:
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[position] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def quantile(self, q: float) -> float:
        return histogram_quantile(
            self.bounds, self.counts, q, maximum=self.maximum
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HistogramState":
        return cls(
            bounds=tuple(data["bounds"]),
            counts=[int(n) for n in data["counts"]],
            count=int(data["count"]),
            total=float(data["total"]),
            minimum=data.get("min"),
            maximum=data.get("max"),
        )


@dataclass
class MetricsSnapshot:
    """Recorded values of declared metrics.

    Strict by design: recording a name absent from
    :data:`METRIC_CATALOG` (or with the wrong kind) raises, which is
    what keeps the documentation glossary complete and stops a
    misspelt name from being dropped silently by the exporters.  Only
    metrics that were actually recorded appear here (exports fill in
    the full catalog with zeros; see :mod:`repro.obs.export`).
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramState] = field(default_factory=dict)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` (>= 0) to a monotonic counter."""
        _spec(name, "counter")
        if n < 0:
            raise ValueError(f"counter {name!r} is monotonic; got n={n}")
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: Number) -> None:
        """Set a gauge to ``value``."""
        _spec(name, "gauge")
        self.gauges[name] = float(value)

    def observe(self, name: str, value: Number) -> None:
        """Record one histogram observation."""
        state = self.histograms.get(name)
        if state is None:
            spec = _spec(name, "histogram")
            state = self.histograms[name] = HistogramState(
                bounds=tuple(spec.buckets or ())
            )
        state.observe(value)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)


def _spec(name: str, kind: str) -> MetricSpec:
    spec = METRIC_CATALOG.get(name)
    if spec is None:
        raise KeyError(
            f"metric {name!r} is not declared in METRIC_CATALOG — declare "
            f"(and document) it before recording"
        )
    if spec.kind != kind:
        raise KeyError(f"metric {name!r} is a {spec.kind}, not a {kind}")
    return spec
