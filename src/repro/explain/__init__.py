"""Search decision journal + schedule quality explanation.

Why did the covering search choose *this* schedule?  The package
answers that with a structured decision journal recorded through the
telemetry probe pattern (zero-cost when off), a schedule quality
report (achieved length vs. lower bounds, utilization, overhead), and
renderers for the ``repro explain`` CLI: text, versioned JSON
(`repro/explain/v1`), self-contained HTML, and decision-by-decision
diffs of two runs.

The journal is deterministic by construction — bit-identical across
repeated runs, and against the test-only reference covering loop — so
it doubles as an equivalence witness and ships inside fuzz
reproducers.
"""

from repro.explain.capture import (
    capture_case_journal,
    compile_with_journal,
    explain_source,
    find_decision,
)
from repro.explain.diff import diff_reports, render_diff_text
from repro.explain.html import render_html
from repro.explain.journal import DECISION_KINDS, DecisionJournal
from repro.explain.quality import (
    critical_path_bound,
    quality_report,
    resource_bound,
    timeline,
)
from repro.explain.report import (
    EXPLAIN_SCHEMA,
    build_explain_report,
    render_text,
)

__all__ = [
    "DECISION_KINDS",
    "DecisionJournal",
    "EXPLAIN_SCHEMA",
    "build_explain_report",
    "capture_case_journal",
    "compile_with_journal",
    "critical_path_bound",
    "diff_reports",
    "explain_source",
    "find_decision",
    "quality_report",
    "render_diff_text",
    "render_html",
    "render_text",
    "resource_bound",
    "timeline",
]
