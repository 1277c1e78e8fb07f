"""Per-compilation telemetry reports.

A :class:`TelemetryReport` is an immutable snapshot of a session:
the span tree aggregated per phase path (calls, wall, CPU), every
counter, every histogram, and the session metadata.  It renders as a
human-readable per-phase table (``describe``) and as a JSON-safe dict
(``to_dict``) — the ``repro profile --json`` output and the
``telemetry`` object of a ``repro/flight/v1`` dump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.session import TelemetrySession


@dataclass
class PhaseStats:
    """Aggregated timings for one phase path (e.g. compile → block →
    covering.block → covering.cover)."""

    path: Tuple[str, ...]
    calls: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    first_start: float = float("inf")

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": "/".join(self.path),
            "calls": self.calls,
            "wall_s": self.wall,
            "cpu_s": self.cpu,
        }


@dataclass
class TelemetryReport:
    """Snapshot of one session, ready for rendering or serialisation."""

    meta: Dict[str, Any] = field(default_factory=dict)
    phases: List[PhaseStats] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def from_session(cls, session: "TelemetrySession") -> "TelemetryReport":
        """Aggregate a session's raw spans into per-path phase stats."""
        by_path: Dict[Tuple[str, ...], PhaseStats] = {}
        for record in session.spans:
            path = tuple(record.path())
            stats = by_path.get(path)
            if stats is None:
                stats = by_path[path] = PhaseStats(path=path)
            stats.calls += 1
            stats.wall += record.wall
            stats.cpu += record.cpu
            stats.first_start = min(stats.first_start, record.start)
        # Tree order: depth-first by (first occurrence, path) so parents
        # always precede their children and siblings keep wall order.
        phases = sorted(
            by_path.values(), key=lambda s: (s.path[:-1], s.first_start, s.path)
        )
        phases = _tree_order(phases)
        return cls(
            meta=dict(session.meta),
            phases=phases,
            counters={k: session.counters[k] for k in sorted(session.counters)},
            histograms={
                k: session.histograms[k].to_dict()
                for k in sorted(session.histograms)
            },
        )

    def phase(self, name: str) -> Optional[PhaseStats]:
        """The first phase whose final path component is ``name``."""
        for stats in self.phases:
            if stats.name == name:
                return stats
        return None

    def counter(self, name: str) -> int:
        """Counter value (0 when absent)."""
        return self.counters.get(name, 0)

    def total_wall(self) -> float:
        """Wall seconds across top-level phases."""
        return sum(s.wall for s in self.phases if s.depth == 0)

    def describe(self) -> str:
        """The per-phase report: timings tree, counters, histograms."""
        lines: List[str] = []
        title = "telemetry report"
        describing = []
        if "function" in self.meta:
            describing.append(str(self.meta["function"]))
        if "source" in self.meta:
            describing.append(f"({self.meta['source']})")
        if "machine" in self.meta:
            describing.append(f"on {self.meta['machine']}")
        if describing:
            title += " — " + " ".join(describing)
        lines.append(title)
        if self.phases:
            width = max(
                (2 * s.depth + len(s.name) for s in self.phases), default=5
            )
            width = max(width, len("phase"))
            lines.append(
                f"{'phase':<{width}}  {'calls':>6}  {'wall ms':>9}  {'cpu ms':>9}"
            )
            for stats in self.phases:
                label = "  " * stats.depth + stats.name
                lines.append(
                    f"{label:<{width}}  {stats.calls:>6}  "
                    f"{1e3 * stats.wall:>9.3f}  {1e3 * stats.cpu:>9.3f}"
                )
        if self.counters:
            lines.append("counters")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name:<{width}}  {self.counters[name]}")
        if self.histograms:
            lines.append("histograms")
            width = max(len(name) for name in self.histograms)
            for name in sorted(self.histograms):
                h = self.histograms[name]
                lines.append(
                    f"  {name:<{width}}  count {h['count']}  min {h['min']:g}"
                    f"  mean {h['mean']:.2f}  max {h['max']:g}"
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (sorted counter/histogram keys, phase tree
        order preserved)."""
        return {
            "meta": dict(self.meta),
            "phases": [s.to_dict() for s in self.phases],
            "counters": dict(self.counters),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def span_summary(self) -> Dict[str, Any]:
        """Deterministic span-tree digest for request logs.

        Only structure (paths, in tree order) and call counts — no wall
        or CPU times — so the same compile always produces the same
        summary and the events log stays byte-reproducible.
        """
        return {
            "spans": [
                {"path": "/".join(s.path), "calls": s.calls}
                for s in self.phases
            ],
        }


def _tree_order(phases: List[PhaseStats]) -> List[PhaseStats]:
    """Depth-first order: every phase directly after its parent chain."""
    children: Dict[Tuple[str, ...], List[PhaseStats]] = {}
    for stats in phases:
        children.setdefault(stats.path[:-1], []).append(stats)
    ordered: List[PhaseStats] = []

    def visit(path: Tuple[str, ...]) -> None:
        for stats in sorted(
            children.get(path, ()), key=lambda s: (s.first_start, s.path)
        ):
            ordered.append(stats)
            visit(stats.path)

    visit(())
    # Orphans (spans opened inside a span that closed first) are kept at
    # the end rather than dropped.
    seen = {id(s) for s in ordered}
    ordered.extend(s for s in phases if id(s) not in seen)
    return ordered
