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
- Every artifact is read through :func:`repro.artifacts.read_artifact`,
  so a malformed ledger is a :class:`ValueError` naming the file, never
  a crash halfway through flattening.
- ``compare`` re-collects and reports per-metric deltas; any gated
  metric that moved in the losing direction beyond its tolerance — or
  vanished entirely — is a **regression**, and ``repro trend`` exits
  nonzero.  New metrics are reported but never fail the gate, so
  adding a benchmark does not require touching the baseline in the
  same commit.
"""

from __future__ import annotations

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


def _load(root: Path, name: str, schema: str) -> Optional[Dict[str, Any]]:
    from repro.artifacts import read_artifact

    path = root / f"BENCH_{name}.json"
    if not path.exists():
        return None
    return read_artifact(path, schema)


def collect_current_metrics(
    root: Union[str, Path] = "."
) -> Dict[str, Dict[str, Any]]:
    """Flatten every repo-root ``BENCH_*.json`` into named trend metrics.

    Missing artifacts simply contribute no metrics — the comparison
    side decides whether that constitutes a regression (it does, when
    the baseline gates a metric the current tree no longer produces).
    A malformed one raises :class:`ValueError` naming the file.
    """
    from repro.explore.service import EXPLORE_SCHEMA
    from repro.optimal.bench import OPTIMAL_BENCH_SCHEMA
    from repro.serve.bench import SERVE_BENCH_SCHEMA
    from repro.telemetry.bench import (
        BENCH_SCHEMA,
        COVER_BENCH_SCHEMA,
        SNDAG_BENCH_SCHEMA,
    )

    root = Path(root)
    metrics: Dict[str, Dict[str, Any]] = {}

    codegen = _load(root, "codegen", BENCH_SCHEMA)
    for entry in codegen["entries"] if codegen else ():
        stem = f"codegen.{entry['workload']}.{entry['machine']}"
        m = entry["metrics"]
        metrics[f"{stem}.instructions"] = _metric(m["instructions"], "min")
        metrics[f"{stem}.spills"] = _metric(m["spills"], "min")

    cover = _load(root, "cover", COVER_BENCH_SCHEMA)
    for entry in cover["entries"] if cover else ():
        stem = f"cover.{entry['workload']}.{entry['machine']}"
        metrics[f"{stem}.instructions"] = _metric(
            entry["metrics"]["instructions"], "min"
        )

    serve = _load(root, "serve", SERVE_BENCH_SCHEMA)
    for entry in serve["entries"] if serve else ():
        stem = f"serve.{entry['mix']}"
        metrics[f"{stem}.warm_hit_rate"] = _metric(
            entry["warm_hit_rate"], "max"
        )
        metrics[f"{stem}.identical"] = _metric(entry["identical"], "max")
        metrics[f"{stem}.speedup"] = _metric(
            entry["speedup"], "max", gate=False
        )

    sndag = _load(root, "sndag", SNDAG_BENCH_SCHEMA)
    for entry in sndag["entries"] if sndag else ():
        stem = f"sndag.{entry['workload']}.{entry['machine']}"
        metrics[f"{stem}.lazy_transfer_nodes"] = _metric(
            entry["lazy_transfer_nodes"], "min"
        )

    optimal = _load(root, "optimal", OPTIMAL_BENCH_SCHEMA)
    if optimal:
        summary = optimal["summary"]
        for key, direction in (
            ("proven", "max"),
            ("budget_exhausted", "min"),
            ("gap_cycles", "min"),
            ("improved", "max"),
        ):
            metrics[f"optimal.summary.{key}"] = _metric(
                summary[key], direction
            )

    explore = _load(root, "explore", EXPLORE_SCHEMA)
    if explore:
        totals = explore["totals"]
        for key, direction in (
            ("frontier", "max"),
            ("candidates", "max"),
            ("workload_failures", "min"),
        ):
            metrics[f"explore.totals.{key}"] = _metric(
                totals[key], direction
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
