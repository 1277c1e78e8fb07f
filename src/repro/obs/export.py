"""Metric-snapshot exporters: canonical JSON and Prometheus text.

Two audiences, two formats:

- **``repro/metrics/v1`` JSON** — the canonical artifact written by
  ``--metrics-out`` and consumed by ``repro metrics``.  It fills in the
  *entire* catalog (untouched metrics export as zeros) so every export
  has the same shape, and by default it excludes volatile metrics
  (latencies, pool-scheduling-dependent cache counts), so the same
  seeded workload produces **byte-identical** exports regardless of
  worker count — the property the concurrency tests and the obs-smoke
  CI job assert with a plain ``cmp``.
- **Prometheus text format** — what a monitoring stack scrapes.  It
  keeps the volatile metrics (a scrape *wants* live latency), renders
  histograms as cumulative ``_bucket{le=...}`` series, and carries the
  catalog help text as ``# HELP`` lines.

Its :mod:`repro.artifacts` rules re-derive every internal consistency
property (known names, bucket arithmetic, quantile recomputation), so a
tampered or hand-built export is rejected, not trusted.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from repro.obs.metrics import (
    METRIC_CATALOG,
    HistogramState,
    MetricsSnapshot,
)

#: Versioned envelope of the canonical JSON export.
METRICS_SCHEMA = "repro/metrics/v1"

#: Quantiles stamped onto every exported histogram.
QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


def snapshot_export(
    snapshot: MetricsSnapshot, include_volatile: bool = False
) -> Dict[str, Any]:
    """The ``repro/metrics/v1`` payload for ``snapshot``.

    Every catalog metric appears (zeros when untouched); volatile
    metrics appear only with ``include_volatile=True``, and the flag is
    recorded in the payload so a validator knows which shape to expect.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, Optional[float]] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for name in sorted(METRIC_CATALOG):
        spec = METRIC_CATALOG[name]
        if spec.volatile and not include_volatile:
            continue
        if spec.kind == "counter":
            counters[name] = snapshot.counters.get(name, 0)
        elif spec.kind == "gauge":
            gauges[name] = snapshot.gauges.get(name)
        else:
            state = snapshot.histograms.get(name)
            if state is None:
                state = HistogramState(bounds=tuple(spec.buckets or ()))
            entry = state.to_dict()
            for label, q in QUANTILES:
                entry[label] = state.quantile(q)
            histograms[name] = entry
    return {
        "schema": METRICS_SCHEMA,
        "volatile_included": include_volatile,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def snapshot_from_export(payload: Dict[str, Any]) -> MetricsSnapshot:
    """Rebuild a :class:`MetricsSnapshot` from a validated export."""
    return MetricsSnapshot(
        counters=dict(payload["counters"]),
        gauges={
            name: float(value)
            for name, value in payload["gauges"].items()
            if value is not None
        },
        histograms={
            name: HistogramState.from_dict(entry)
            for name, entry in payload["histograms"].items()
        },
    )


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_value(value: Union[int, float]) -> str:
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(snapshot: MetricsSnapshot) -> str:
    """The snapshot in the Prometheus text exposition format (volatile
    metrics included — a scrape wants live latency)."""
    lines: List[str] = []
    for name in sorted(METRIC_CATALOG):
        spec = METRIC_CATALOG[name]
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} {spec.help}")
        if spec.kind == "counter":
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {snapshot.counters.get(name, 0)}")
        elif spec.kind == "gauge":
            lines.append(f"# TYPE {prom} gauge")
            value = snapshot.gauges.get(name)
            lines.append(f"{prom} {_prom_value(value if value is not None else 0)}")
        else:
            lines.append(f"# TYPE {prom} histogram")
            state = snapshot.histograms.get(name)
            if state is None:
                state = HistogramState(bounds=tuple(spec.buckets or ()))
            cumulative = 0
            for bound, count in zip(state.bounds, state.counts):
                cumulative += count
                lines.append(
                    f'{prom}_bucket{{le="{_prom_value(bound)}"}} {cumulative}'
                )
            lines.append(f'{prom}_bucket{{le="+Inf"}} {state.count}')
            lines.append(f"{prom}_sum {_prom_value(state.total)}")
            lines.append(f"{prom}_count {state.count}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Rendering / diffing
# ----------------------------------------------------------------------


def render_metrics_table(payload: Dict[str, Any]) -> str:
    """Human-readable table of a validated export."""
    lines: List[str] = [
        f"metrics snapshot ({payload['schema']}"
        + (", volatile included)" if payload["volatile_included"] else ")")
    ]
    width = max(
        (len(n) for section in ("counters", "gauges", "histograms")
         for n in payload[section]),
        default=10,
    )
    for name in sorted(payload["counters"]):
        lines.append(f"  {name:<{width}}  {payload['counters'][name]}")
    for name in sorted(payload["gauges"]):
        value = payload["gauges"][name]
        lines.append(
            f"  {name:<{width}}  "
            + ("-" if value is None else f"{value:g}")
        )
    for name in sorted(payload["histograms"]):
        entry = payload["histograms"][name]
        lines.append(
            f"  {name:<{width}}  count {entry['count']}  "
            f"p50 {entry['p50']:g}  p90 {entry['p90']:g}  "
            f"p99 {entry['p99']:g}"
        )
    return "\n".join(lines)


def diff_metrics(
    before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-metric deltas between two validated exports.

    Only names present in both payloads are compared (so a
    deterministic export diffs cleanly against a volatile-included
    one); histograms compare observation counts and totals.
    """
    rows: List[Dict[str, Any]] = []
    for name in sorted(set(before["counters"]) & set(after["counters"])):
        a, b = before["counters"][name], after["counters"][name]
        if a != b:
            rows.append(
                {"metric": name, "kind": "counter", "before": a,
                 "after": b, "delta": b - a}
            )
    for name in sorted(set(before["gauges"]) & set(after["gauges"])):
        a, b = before["gauges"][name], after["gauges"][name]
        if a != b:
            rows.append(
                {"metric": name, "kind": "gauge", "before": a, "after": b,
                 "delta": None if a is None or b is None else b - a}
            )
    for name in sorted(set(before["histograms"]) & set(after["histograms"])):
        a, b = before["histograms"][name], after["histograms"][name]
        if a["counts"] != b["counts"] or a["total"] != b["total"]:
            rows.append(
                {"metric": name, "kind": "histogram",
                 "before": a["count"], "after": b["count"],
                 "delta": b["count"] - a["count"]}
            )
    return {"identical": not rows, "changes": rows}


def render_metrics_diff(diff: Dict[str, Any]) -> str:
    if diff["identical"]:
        return "snapshots are identical"
    lines = [f"{len(diff['changes'])} metric(s) differ"]
    for row in diff["changes"]:
        delta = row["delta"]
        rendered = "?" if delta is None else f"{delta:+g}"
        lines.append(
            f"  {row['metric']:<28}  {row['before']} -> {row['after']} "
            f"({rendered})"
        )
    return "\n".join(lines)
