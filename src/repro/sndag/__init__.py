"""The Split-Node DAG (paper, Section III).

The Split-Node DAG makes every implementation choice explicit: each
operation of a basic-block DAG becomes a *split node* whose children are
*alternative* nodes — one per (functional unit, machine op) that can
execute it, including complex-instruction matches.  The paper also puts
a *data transfer node* on every inter-unit / memory path a value might
take; those are counted for the paper's node-count column, not built,
and covering inserts the transfers one assignment needs.
"""

from repro.sndag.nodes import SNKind, SNNode, Alternative
from repro.sndag.build import SplitNodeDAG, build_split_node_dag
from repro.sndag.patterns import PatternMatch, find_pattern_matches
from repro.sndag.render import split_node_dag_to_dot, format_split_node_dag

__all__ = [
    "SNKind",
    "SNNode",
    "Alternative",
    "SplitNodeDAG",
    "build_split_node_dag",
    "PatternMatch",
    "find_pattern_matches",
    "split_node_dag_to_dot",
    "format_split_node_dag",
]
