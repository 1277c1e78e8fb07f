"""Building and rendering `repro/explain/v1` reports.

A report is the JSON-safe, versioned form of one compilation's decision
journal: entries grouped per basic block (in first-appearance order),
each block optionally annotated with the schedule quality metrics and
cycle-by-cycle timeline of its *final* compiled form.

Reports are deterministic by construction: no timestamps, every list
explicitly ordered — the acceptance gate is that repeated runs, and the
test-only reference covering loop, produce byte-identical
serializations.  The report's shape and invariants live in
:mod:`repro.artifacts`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.explain.journal import DecisionJournal

#: Version tag carried by every report; bump on shape changes.
EXPLAIN_SCHEMA = "repro/explain/v1"


def build_explain_report(
    journal: DecisionJournal,
    compiled: Optional[Any] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the `repro/explain/v1` report for one compilation.

    Args:
        journal: the recorded decision journal.
        compiled: the :class:`repro.asmgen.program.CompiledFunction`, if
            compilation succeeded — supplies per-block quality metrics
            and timelines.  ``None`` for failed compiles (the journal up
            to the failure is still reported).
        meta: free-form report metadata (source path, machine name).
            Never include anything run-dependent (timings): the report
            must be bit-identical across runs.
    """
    from repro.explain.quality import quality_report, timeline

    block_order: List[Optional[str]] = []
    for entry in journal.entries:
        if entry["block"] not in block_order:
            block_order.append(entry["block"])
    compiled_blocks = dict(getattr(compiled, "blocks", {}) or {})
    blocks = []
    for name in block_order:
        record: Dict[str, Any] = {
            "name": name,
            "decisions": journal.block_entries(name),
            "quality": None,
            "timeline": None,
        }
        compiled_block = compiled_blocks.get(name)
        if compiled_block is not None:
            record["quality"] = quality_report(
                compiled_block.solution,
                optimal=getattr(compiled_block, "optimal", None),
            )
            record["timeline"] = timeline(compiled_block.solution)
        blocks.append(record)
    # Compiled blocks that never journaled a decision (e.g. an empty
    # block) still get a quality record so the report covers the whole
    # function.
    for name, compiled_block in compiled_blocks.items():
        if name not in block_order:
            blocks.append(
                {
                    "name": name,
                    "decisions": [],
                    "quality": quality_report(
                        compiled_block.solution,
                        optimal=getattr(compiled_block, "optimal", None),
                    ),
                    "timeline": timeline(compiled_block.solution),
                }
            )
    return {
        "schema": EXPLAIN_SCHEMA,
        "meta": dict(meta or {}),
        "decision_counts": journal.by_kind(),
        "blocks": blocks,
    }


def _describe_entry(entry: Dict[str, Any]) -> str:
    """One text line for a journal entry."""
    data = entry["data"]
    kind = entry["kind"]
    if kind == "cover.step":
        chosen = data["chosen"]
        alternatives = data["alternatives"]
        detail = (
            f"cycle {data['cycle']}: chose {chosen['members']} "
            f"(size {chosen['size']}, lookahead {chosen['lookahead']})"
        )
        if alternatives:
            runner = alternatives[0]
            detail += (
                f" over {len(alternatives)} alternative(s), best "
                f"{runner['members']} (lookahead {runner['lookahead']})"
            )
        detail += f"; tie-break={data['tie_break']}"
        if data["via_subset"]:
            detail += ", via feasible subset"
        return detail
    if kind == "cover.spill":
        return (
            f"cycle {data['cycle']}: spilled t{data['victim']} "
            f"({data['victim_desc']}), focus={data['focus']}, "
            f"bank={data['focus_bank']}, "
            f"{len(data['candidates'])} candidate(s) ranked"
        )
    if kind == "cover.stall":
        return f"cycle {data['cycle']}: stall NOP (results in flight)"
    if kind == "assignment.bind":
        kept = sum(1 for a in data["alternatives"] if a["kept"])
        return (
            f"op n{data['op']} (partial {data['partial']}): "
            f"kept {kept}/{len(data['alternatives'])} alternatives"
        )
    if kind == "assignment.beam":
        return (
            f"beam at op n{data['op']}: dropped {data['dropped']} "
            f"partial(s) over limit {data['limit']}"
        )
    if kind == "assignment.select":
        return (
            f"selected {data['selected']}/{data['complete']} complete "
            f"assignments, costs {data['costs']}"
        )
    if kind == "transfer.path":
        return (
            f"{data['source']} -> {data['target']}: chose "
            f"{data['chosen']} (load {data['load']}) over "
            f"{len(data['alternatives'])} path(s)"
        )
    if kind == "clique.split":
        return (
            f"split {data['members']} on {data['constraint']} "
            f"(breakers {data['breakers']})"
        )
    if kind == "cover.attempt":
        return (
            f"assignment {data['assignment']} (cost {data['cost']}, "
            f"bound {data['bound']})"
        )
    if kind == "cover.outcome":
        if data["status"] == "covered":
            return (
                f"covered: {data['instructions']} instructions, "
                f"{data['spills']} spills, {data['reloads']} reloads"
            )
        if data["status"] == "pruned":
            return "pruned by the branch-and-bound incumbent"
        return f"failed: {data.get('error', '?')}"
    if kind == "block.solution":
        return (
            f"winner: assignment {data['assignment']} — "
            f"{data['instructions']} instructions, {data['spills']} "
            f"spills, {data['reloads']} reloads"
        )
    return str(data)


def render_text(report: Dict[str, Any], full: bool = False) -> str:
    """Human-readable rendering of a report.

    The default shows the per-block decision summary and quality
    metrics; ``full=True`` additionally lists every journal entry.
    """
    lines: List[str] = []
    meta = report["meta"]
    title = "explain report"
    if meta.get("source"):
        title += f" — {meta['source']}"
    if meta.get("machine"):
        title += f" on {meta['machine']}"
    lines.append(title)
    counts = report["decision_counts"]
    if counts:
        lines.append(
            "decisions: "
            + ", ".join(f"{kind} x{counts[kind]}" for kind in sorted(counts))
        )
    for block in report["blocks"]:
        name = block["name"] if block["name"] is not None else "<unscoped>"
        lines.append(f"\nblock {name}:")
        quality = block["quality"]
        if quality is not None:
            lines.append(
                f"  quality: {quality['cycles']} cycles vs lower bound "
                f"{quality['lower_bound']} (critical path "
                f"{quality['critical_path']}, resource bound "
                f"{quality['resource_bound']}), ipc {quality['ipc']}"
            )
            overhead = quality["overhead"]
            lines.append(
                f"  overhead: {overhead['op_slots']} op / "
                f"{overhead['transfer_slots']} transfer / "
                f"{overhead['spill_slots']} spill / "
                f"{overhead['reload_slots']} reload slots, "
                f"{overhead['stall_cycles']} stall cycle(s)"
            )
            busiest = sorted(
                quality["slot_utilization"].items(),
                key=lambda item: (-item[1], item[0]),
            )[:4]
            lines.append(
                "  utilization: "
                + ", ".join(f"{name}={value}" for name, value in busiest)
            )
            optimal = quality.get("optimal")
            if optimal is not None:
                status = (
                    "proven" if optimal["proven"] else "budget-limited"
                )
                lines.append(
                    f"  optimal: {optimal['cost']} cycles ({status}) vs "
                    f"heuristic {optimal['heuristic_cost']} — gap "
                    f"{optimal['gap']}"
                )
        steps = [e for e in block["decisions"] if e["kind"] == "cover.step"]
        spills = [e for e in block["decisions"] if e["kind"] == "cover.spill"]
        lines.append(
            f"  {len(block['decisions'])} decision(s): {len(steps)} covering "
            f"step(s), {len(spills)} spill(s)"
        )
        if full:
            for entry in block["decisions"]:
                scope = ""
                if entry["attempt"] is not None:
                    scope = f"[a{entry['attempt']}/{entry['strategy']}] "
                lines.append(
                    f"    #{entry['seq']:<4d} {entry['kind']:<18s} "
                    f"{scope}{_describe_entry(entry)}"
                )
        else:
            for entry in steps:
                lines.append(f"    {_describe_entry(entry)}")
    return "\n".join(lines)
