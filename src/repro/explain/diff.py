"""Decision-by-decision comparison of two explain reports.

``repro explain --diff`` compiles the same source twice (two machines,
or two heuristic settings) and wants to know *where the
searches first part ways* — not a textual diff of two JSON dumps, but
the first journal entry at which block X's decision stream diverges,
plus the quality delta that divergence bought.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


def _comparable(entry: Dict[str, Any]) -> Dict[str, Any]:
    """A journal entry minus its global sequence number.

    Seq values count every decision in the compilation, so a divergence
    in an early block would make every later entry "differ" by seq
    alone; the comparison cares about the decision itself.
    """
    return {k: v for k, v in entry.items() if k != "seq"}


def _first_divergence(
    a: List[Dict[str, Any]], b: List[Dict[str, Any]]
) -> Optional[Tuple[int, Optional[Dict], Optional[Dict]]]:
    """Index and entries of the first differing decision, else ``None``."""
    for index, (entry_a, entry_b) in enumerate(zip(a, b)):
        if _comparable(entry_a) != _comparable(entry_b):
            return index, entry_a, entry_b
    if len(a) != len(b):
        shorter = min(len(a), len(b))
        return (
            shorter,
            a[shorter] if shorter < len(a) else None,
            b[shorter] if shorter < len(b) else None,
        )
    return None


def diff_reports(
    report_a: Dict[str, Any],
    report_b: Dict[str, Any],
    label_a: str = "a",
    label_b: str = "b",
) -> Dict[str, Any]:
    """Compare two explain reports block by block (JSON-safe result)."""
    blocks_a = {block["name"]: block for block in report_a["blocks"]}
    blocks_b = {block["name"]: block for block in report_b["blocks"]}
    names: List[Optional[str]] = []
    for block in report_a["blocks"]:
        names.append(block["name"])
    for block in report_b["blocks"]:
        if block["name"] not in names:
            names.append(block["name"])
    blocks = []
    identical = True
    for name in names:
        block_a = blocks_a.get(name)
        block_b = blocks_b.get(name)
        if block_a is None or block_b is None:
            identical = False
            blocks.append(
                {
                    "name": name,
                    "status": "only_" + (label_a if block_b is None else label_b),
                    "divergence": None,
                    "quality_delta": None,
                }
            )
            continue
        divergence = _first_divergence(
            block_a["decisions"], block_b["decisions"]
        )
        quality_delta = None
        if block_a["quality"] and block_b["quality"]:
            quality_delta = {
                key: [block_a["quality"][key], block_b["quality"][key]]
                for key in ("cycles", "ipc", "spills", "reloads")
                if block_a["quality"][key] != block_b["quality"][key]
            }
        if divergence is None and not quality_delta:
            blocks.append(
                {
                    "name": name,
                    "status": "identical",
                    "divergence": None,
                    "quality_delta": None,
                }
            )
            continue
        identical = False
        record: Dict[str, Any] = {
            "name": name,
            "status": "diverged",
            "divergence": None,
            "quality_delta": quality_delta or None,
        }
        if divergence is not None:
            index, entry_a, entry_b = divergence
            record["divergence"] = {
                "index": index,
                label_a: entry_a,
                label_b: entry_b,
            }
        blocks.append(record)
    return {
        "identical": identical,
        "labels": [label_a, label_b],
        "blocks": blocks,
    }


def render_diff_text(diff: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`diff_reports` output."""
    label_a, label_b = diff["labels"]
    lines = [f"explain diff: {label_a} vs {label_b}"]
    if diff["identical"]:
        lines.append("identical: every block made the same decisions")
        return "\n".join(lines)
    for block in diff["blocks"]:
        name = block["name"] if block["name"] is not None else "<unscoped>"
        if block["status"] == "identical":
            lines.append(f"block {name}: identical")
            continue
        if block["status"].startswith("only_"):
            lines.append(
                f"block {name}: only present in {block['status'][5:]}"
            )
            continue
        lines.append(f"block {name}: DIVERGED")
        divergence = block["divergence"]
        if divergence is not None:
            lines.append(f"  first divergence at decision {divergence['index']}:")
            for label in (label_a, label_b):
                entry = divergence[label]
                if entry is None:
                    lines.append(f"    {label}: <stream ended>")
                else:
                    lines.append(
                        f"    {label}: {entry['kind']} {entry['data']}"
                    )
        if block["quality_delta"]:
            for key, (value_a, value_b) in sorted(
                block["quality_delta"].items()
            ):
                lines.append(
                    f"  quality {key}: {label_a}={value_a} {label_b}={value_b}"
                )
    return "\n".join(lines)
