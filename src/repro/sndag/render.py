"""Text and DOT renderings of Split-Node DAGs (for Fig. 4 and debugging)."""

from __future__ import annotations

from typing import List

from repro.sndag.build import SplitNodeDAG
from repro.sndag.nodes import SNKind


def format_split_node_dag(sn: SplitNodeDAG) -> str:
    """One line per node: id, kind, description, children."""
    lines: List[str] = [repr(sn)]
    for node_id in sorted(sn.nodes):
        node = sn.nodes[node_id]
        children = ", ".join(f"s{c}" for c in node.children)
        suffix = f" -> [{children}]" if children else ""
        lines.append(f"  s{node_id}: {node.describe()}{suffix}")
    return "\n".join(lines)


_SHAPES = {
    SNKind.VALUE: "plaintext",
    SNKind.SPLIT: "diamond",
    SNKind.ALTERNATIVE: "ellipse",
}


def split_node_dag_to_dot(sn: SplitNodeDAG, name: str = "sndag") -> str:
    """Graphviz DOT export in the style of the paper's Fig. 4."""
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for node_id in sorted(sn.nodes):
        node = sn.nodes[node_id]
        label = node.describe().replace('"', "'")
        lines.append(
            f'  s{node_id} [label="{label}", shape={_SHAPES[node.kind]}];'
        )
    for node_id in sorted(sn.nodes):
        for child in sn.nodes[node_id].children:
            lines.append(f"  s{node_id} -> s{child};")
    lines.append("}")
    return "\n".join(lines)
