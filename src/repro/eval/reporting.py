"""Table formatting for experiment results, and their
``repro/bench-optimal/v1`` report."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.eval.experiments import ExperimentRow
from repro.optimal.bench import OPTIMAL_BENCH_SCHEMA, summarize_optimal_bench


def _fmt_instr(row: ExperimentRow) -> str:
    text = str(row.aviv)
    if row.aviv_no_heuristics is not None:
        text += f" ({row.aviv_no_heuristics})"
    return text


def _fmt_cpu(row: ExperimentRow) -> str:
    text = f"{row.cpu_seconds:.3f}"
    if row.cpu_seconds_no_heuristics is not None:
        text += f" ({row.cpu_seconds_no_heuristics:.3f})"
    return text


def _fmt_hand(row: ExperimentRow) -> str:
    if row.optimal is None:
        return "-"
    cost = str(row.optimal.cost)
    return cost if row.optimal.proven else f"{cost}*"


def _fmt_gap(row: ExperimentRow) -> str:
    if row.optimal is None:
        return "-"
    gap = f"+{row.aviv - row.optimal.cost}"
    return gap if row.optimal.proven else f"{gap}*"


_HEADERS = [
    "Block",
    "Orig #Nodes",
    "SN-DAG #Nodes",
    "#Regs/File",
    "#Spills",
    "Optimal",
    "Aviv",
    "CPU (s)",
    "Valid",
]


def format_rows(rows: List[ExperimentRow], title: str = "") -> str:
    """Render rows in the paper's column layout."""
    table: List[List[str]] = [_HEADERS]
    for row in rows:
        table.append(
            [
                row.block,
                str(row.original_nodes),
                str(row.split_node_nodes),
                str(row.registers_per_file),
                str(row.spills_inserted),
                _fmt_hand(row),
                _fmt_instr(row),
                _fmt_cpu(row),
                "yes" if row.validated else "NO",
            ]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(_HEADERS))]
    lines = []
    if title:
        lines.append(title)
    for index, entries in enumerate(table):
        lines.append(
            "  ".join(e.rjust(w) for e, w in zip(entries, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    starred = [
        row
        for row in rows
        if row.optimal is not None and not row.optimal.proven
    ]
    if starred:
        lines.append(
            "(* = conflict budget exhausted; value is an upper bound)"
        )
    for row in starred:
        lines.append(
            f"  * {row.block}: stopped after {row.optimal.conflicts} of "
            f"{row.optimal.conflict_budget} conflict(s)"
        )
    return "\n".join(lines)


def format_comparison(
    rows: List[ExperimentRow],
    paper: Dict[str, Dict[str, int]],
    title: str = "",
) -> str:
    """Side-by-side measured vs. paper values for a table."""
    headers = [
        "Block",
        "orig (paper)",
        "sn (paper)",
        "spills (paper)",
        "optimal (paper hand)",
        "aviv (paper)",
        "gap vs opt [paper gap]",
    ]
    table = [headers]
    for row in rows:
        expected = paper.get(row.block, {})
        paper_gap = (
            expected.get("aviv", 0) - expected.get("hand", 0)
            if expected
            else None
        )
        table.append(
            [
                row.block,
                f"{row.original_nodes} ({expected.get('orig', '?')})",
                f"{row.split_node_nodes} ({expected.get('sn', '?')})",
                f"{row.spills_inserted} ({expected.get('spills', '?')})",
                f"{_fmt_hand(row)} ({expected.get('hand', '?')})",
                f"{row.aviv} ({expected.get('aviv', '?')})",
                f"{_fmt_gap(row)} [paper +{paper_gap}]",
            ]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for index, entries in enumerate(table):
        lines.append("  ".join(e.rjust(w) for e, w in zip(entries, widths)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def optimal_bench_report(rows: List[ExperimentRow]) -> Dict[str, Any]:
    """The ``repro/bench-optimal/v1`` report of solved rows: one entry
    per row, AVIV's block length beside the solver's."""
    entries = []
    for row in rows:
        solve = row.optimal
        entries.append(
            {
                "workload": row.workload,
                "machine": row.machine,
                "registers": row.registers_per_file,
                "heuristic_cost": solve.heuristic_cost,
                "optimal_cost": solve.cost,
                "gap": solve.gap,
                "proven": solve.proven,
                "spill_free": solve.spill_free,
                "heuristic_spills": solve.heuristic_solution.spill_count,
                "cpu_seconds": solve.cpu_seconds,
                "solver": solve.stats_dict(),
            }
        )
    return {
        "schema": OPTIMAL_BENCH_SCHEMA,
        "summary": summarize_optimal_bench(entries),
        "entries": entries,
    }
