"""The bench-trend regression gate: ``repro trend``.

The repo root accumulates ``BENCH_*.json`` artifacts (codegen quality,
cover speed, serve cache behaviour, Split-Node DAG laziness, optimality
gaps, exploration frontiers) but until now nothing *watched* them — a
PR could quietly regress instruction counts or drop proven-optimal
blocks and the numbers would just change in place.  This module turns
the bench trajectory into a gate:

- ``collect_current_metrics`` flattens every BENCH artifact into a
  named scalar trend metric, each carrying a **direction** ("min" means
  lower is better, "max" means higher is better), a relative
  **tolerance**, and a **gate** flag (timing-derived metrics are
  recorded but never gate — CI machines are noisy; quality metrics are
  exact and do gate).
- ``make_baseline`` freezes those metrics into a committed
  ``repro/trend-baseline/v1`` manifest
  (``benchmarks/trend_baseline.json``).
- ``compare`` re-collects and reports per-metric deltas; any gated
  metric that moved in the losing direction beyond its tolerance — or
  vanished entirely — is a **regression**, and ``repro trend`` exits
  nonzero.  New metrics are reported but never fail the gate, so
  adding a benchmark does not require touching the baseline in the
  same commit.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Versioned stamp of the committed baseline manifest.
TREND_BASELINE_SCHEMA = "repro/trend-baseline/v1"

#: Versioned stamp of a comparison report.
TREND_SCHEMA = "repro/trend/v1"

#: Where the committed baseline lives, relative to the repo root.
DEFAULT_BASELINE = "benchmarks/trend_baseline.json"

#: Comparison slack for exact (tolerance-0) float metrics.
_EPS = 1e-9


def _metric(
    value: Union[int, float, bool],
    direction: str,
    tolerance: float = 0.0,
    gate: bool = True,
) -> Dict[str, Any]:
    if isinstance(value, bool):
        value = int(value)
    return {
        "value": value,
        "direction": direction,
        "tolerance": tolerance,
        "gate": gate,
    }


def _load(root: Path, name: str) -> Optional[Dict[str, Any]]:
    path = root / f"BENCH_{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def collect_current_metrics(
    root: Union[str, Path] = "."
) -> Dict[str, Dict[str, Any]]:
    """Flatten every repo-root ``BENCH_*.json`` into named trend metrics.

    Missing artifacts simply contribute no metrics — the comparison
    side decides whether that constitutes a regression (it does, when
    the baseline gates a metric the current tree no longer produces).
    """
    metrics: Dict[str, Dict[str, Any]] = {}

    codegen = _load(Path(root), "codegen")
    if codegen:
        for entry in codegen.get("entries", ()):
            stem = f"codegen.{entry['workload']}.{entry['machine']}"
            m = entry["metrics"]
            metrics[f"{stem}.instructions"] = _metric(m["instructions"], "min")
            metrics[f"{stem}.spills"] = _metric(m["spills"], "min")

    cover = _load(Path(root), "cover")
    if cover:
        for entry in cover.get("entries", ()):
            stem = f"cover.{entry['workload']}.{entry['machine']}"
            metrics[f"{stem}.instructions"] = _metric(
                entry["metrics"]["instructions"], "min"
            )

    serve = _load(Path(root), "serve")
    if serve:
        for entry in serve.get("entries", ()):
            stem = f"serve.{entry['mix']}"
            metrics[f"{stem}.warm_hit_rate"] = _metric(
                entry["warm_hit_rate"], "max"
            )
            metrics[f"{stem}.identical"] = _metric(entry["identical"], "max")
            metrics[f"{stem}.speedup"] = _metric(
                entry["speedup"], "max", gate=False
            )

    sndag = _load(Path(root), "sndag")
    if sndag:
        for entry in sndag.get("entries", ()):
            stem = f"sndag.{entry['workload']}.{entry['machine']}"
            metrics[f"{stem}.lazy_transfer_nodes"] = _metric(
                entry["lazy_transfer_nodes"], "min"
            )

    optimal = _load(Path(root), "optimal")
    if optimal:
        summary = optimal.get("summary", {})
        if summary:
            metrics["optimal.summary.proven"] = _metric(
                summary["proven"], "max"
            )
            metrics["optimal.summary.budget_exhausted"] = _metric(
                summary["budget_exhausted"], "min"
            )
            metrics["optimal.summary.gap_cycles"] = _metric(
                summary["gap_cycles"], "min"
            )
            metrics["optimal.summary.improved"] = _metric(
                summary["improved"], "max"
            )

    explore = _load(Path(root), "explore")
    if explore:
        totals = explore.get("totals", {})
        if totals:
            metrics["explore.totals.frontier"] = _metric(
                totals["frontier"], "max"
            )
            metrics["explore.totals.candidates"] = _metric(
                totals["candidates"], "max"
            )
            metrics["explore.totals.workload_failures"] = _metric(
                totals["workload_failures"], "min"
            )

    return metrics


# ----------------------------------------------------------------------
# Baseline manifest
# ----------------------------------------------------------------------


def make_baseline(
    metrics: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """Freeze collected metrics into a ``repro/trend-baseline/v1``
    manifest."""
    return {
        "schema": TREND_BASELINE_SCHEMA,
        "metrics": {name: dict(metrics[name]) for name in sorted(metrics)},
    }


def write_baseline(path: Union[str, Path], baseline: Dict[str, Any]) -> None:
    validate_baseline(baseline)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n"
    )


def load_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    baseline = json.loads(Path(path).read_text())
    validate_baseline(baseline)
    return baseline


def validate_baseline(payload: Any) -> None:
    """Raise :class:`ValueError` unless ``payload`` is a well-formed
    baseline manifest."""
    if not isinstance(payload, dict):
        raise ValueError("trend baseline must be a JSON object")
    if payload.get("schema") != TREND_BASELINE_SCHEMA:
        raise ValueError(
            f"trend baseline schema must be {TREND_BASELINE_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("trend baseline needs a non-empty 'metrics' object")
    for name, entry in metrics.items():
        where = f"baseline metric {name!r}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object")
        if not isinstance(entry.get("value"), (int, float)):
            raise ValueError(f"{where} needs a numeric 'value'")
        if entry.get("direction") not in ("min", "max"):
            raise ValueError(f"{where} direction must be 'min' or 'max'")
        tolerance = entry.get("tolerance")
        if not isinstance(tolerance, (int, float)) or tolerance < 0:
            raise ValueError(f"{where} needs a non-negative 'tolerance'")
        if not isinstance(entry.get("gate"), bool):
            raise ValueError(f"{where} needs a boolean 'gate'")


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def _is_regression(entry: Dict[str, Any], current: float) -> bool:
    base = entry["value"]
    tolerance = entry["tolerance"]
    if entry["direction"] == "min":
        return current > base + abs(base) * tolerance + _EPS
    return current < base - abs(base) * tolerance - _EPS


def compare(
    baseline: Dict[str, Any],
    current: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    """Per-metric comparison of current BENCH values against the
    committed baseline; the ``repro/trend/v1`` report."""
    rows: List[Dict[str, Any]] = []
    regressions: List[str] = []
    missing: List[str] = []
    for name in sorted(baseline["metrics"]):
        entry = baseline["metrics"][name]
        present = name in current
        value = current[name]["value"] if present else None
        if not present:
            status = "missing"
            if entry["gate"]:
                missing.append(name)
                regressions.append(name)
        elif entry["gate"] and _is_regression(entry, value):
            status = "regression"
            regressions.append(name)
        elif entry["gate"]:
            status = "ok"
        else:
            status = "info"
        rows.append(
            {
                "metric": name,
                "direction": entry["direction"],
                "tolerance": entry["tolerance"],
                "gate": entry["gate"],
                "baseline": entry["value"],
                "current": value,
                "delta": None if value is None else value - entry["value"],
                "status": status,
            }
        )
    new_metrics = sorted(set(current) - set(baseline["metrics"]))
    return {
        "schema": TREND_SCHEMA,
        "ok": not regressions,
        "rows": rows,
        "regressions": regressions,
        "missing": missing,
        "new_metrics": new_metrics,
    }


def format_trend_table(report: Dict[str, Any], verbose: bool = False) -> str:
    """Human-readable rendering of a comparison report.

    By default only non-``ok`` rows are listed (plus a one-line
    summary); ``verbose`` prints every row.
    """
    rows = report["rows"]
    shown = rows if verbose else [r for r in rows if r["status"] != "ok"]
    gated = sum(1 for r in rows if r["gate"])
    lines = [
        f"trend: {gated} gated metric(s), "
        f"{len(report['regressions'])} regression(s), "
        f"{len(report['new_metrics'])} new"
    ]
    if shown:
        width = max(len(r["metric"]) for r in shown)
        for row in shown:
            current = "-" if row["current"] is None else f"{row['current']:g}"
            lines.append(
                f"  {row['status']:<10} {row['metric']:<{width}}  "
                f"{row['baseline']:g} -> {current} "
                f"({row['direction']}, tol {row['tolerance']:g})"
            )
    for name in report["new_metrics"]:
        lines.append(f"  new        {name}")
    lines.append("trend: OK" if report["ok"] else "trend: REGRESSION")
    return "\n".join(lines)
