"""Node kinds of the Split-Node DAG."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class SNKind(enum.Enum):
    """Kinds of Split-Node DAG nodes.

    VALUE
        A leaf of the original DAG (variable or constant), resident in
        data memory at block entry.
    SPLIT
        Corresponds to one operation (or store) node of the original DAG;
        its children are the alternatives (for a store, the stored
        value's SPLIT or VALUE node).
    ALTERNATIVE
        One concrete way of performing the split node's operation: a
        machine op on a functional unit (possibly a complex instruction
        covering several original operations).

    The paper's transfer nodes are not built: the DAG only counts them
    (:meth:`~repro.sndag.build.SplitNodeDAG.eager_transfer_node_count`),
    and the covering task graph inserts the transfers one assignment
    needs.
    """

    VALUE = "value"
    SPLIT = "split"
    ALTERNATIVE = "alternative"


@dataclass(frozen=True)
class Alternative:
    """Payload of an ALTERNATIVE node: which machine op on which unit.

    ``covers`` lists the original-DAG operation ids this alternative
    implements — one id for a basic op, several for a complex
    instruction.  ``from_pattern`` marks alternatives produced by the
    pattern matcher, whose operand order comes from the recorded
    :class:`~repro.sndag.patterns.PatternMatch` rather than from the
    original node (this includes single-operation machine ops with
    permuted operand semantics).
    """

    unit: str
    op_name: str
    covers: Tuple[int, ...]
    from_pattern: bool = False

    @property
    def is_complex(self) -> bool:
        """True when this alternative covers several operations."""
        return len(self.covers) > 1


@dataclass(frozen=True)
class SNNode:
    """One Split-Node DAG node.

    Attributes:
        node_id: dense id within the Split-Node DAG.
        kind: the node kind (see :class:`SNKind`).
        original_id: the original-DAG node this derives from — the
            operation or store for SPLIT/ALTERNATIVE, the leaf for VALUE.
        alternative: payload for ALTERNATIVE nodes.
        children: structural descendants (alternatives under a split,
            operand splits/values under an alternative, the stored
            value's split/value under a store split).
    """

    node_id: int
    kind: SNKind
    original_id: int
    alternative: Optional[Alternative] = None
    children: Tuple[int, ...] = ()

    def describe(self) -> str:
        """Short human-readable tag used in renders and errors."""
        if self.kind is SNKind.VALUE:
            return f"value(n{self.original_id})"
        if self.kind is SNKind.SPLIT:
            return f"split(n{self.original_id})"
        alt = self.alternative
        tag = "+".join(f"n{c}" for c in alt.covers)
        return f"{alt.op_name}@{alt.unit}[{tag}]"
