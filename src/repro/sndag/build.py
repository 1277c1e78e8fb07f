"""Construction of the Split-Node DAG (paper, Sections III-A/III-B).

For the basic-block DAG and target machine, the builder creates:

- one VALUE node per leaf (variables and constants live in data memory);
- one SPLIT node per operation, with one ALTERNATIVE child per
  (functional unit, machine op) that can execute it — including complex
  instruction matches from the pattern matcher;
- one SPLIT node per store, linked to the stored value's node.

The resulting object carries everything the covering engine needs — the
alternatives per operation, the transfer database, and the pattern
matches — and reports the node count of the paper's "Split-Node DAG
#Nodes" column (:meth:`SplitNodeDAG.paper_node_count`).  It is not
changed after :func:`build_split_node_dag` returns.

Transfer nodes
--------------

The paper's construction ("subsequently expanded to include
multiple-step data transfers as well") also puts a TRANSFER node on
every minimal path between every (storage, storage) pair a value might
cross.  Those nodes dominate the DAG (transfer ≈ 5 × split nodes on
Ex2), and nothing here reads them: the covering task graph
(:mod:`repro.covering.taskgraph`) inserts the transfers one assignment
needs as its own XFER tasks, answering path questions from the
:class:`~repro.isdl.databases.TransferDatabase`.  So they are counted,
not built: :meth:`SplitNodeDAG.eager_transfer_node_count` walks the
same paths without creating nodes.  Construction still checks
reachability for exactly the pairs the eager expansion would have
enumerated, so an unmappable machine fails the same way.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import NoTransferPathError, UnmappableOperationError
from repro.ir.dag import BlockDAG
from repro.ir.ops import is_leaf, is_operation
from repro.isdl.databases import OperationDatabase, TransferDatabase
from repro.isdl.model import Machine
from repro.sndag.nodes import Alternative, SNKind, SNNode
from repro.sndag.patterns import PatternMatch, find_pattern_matches
from repro.telemetry.session import current as _telemetry
from repro.utils.ids import IdAllocator


class SplitNodeDAG:
    """The Split-Node DAG of one basic block on one machine."""

    def __init__(self, dag: BlockDAG, machine: Machine):
        self.dag = dag
        self.machine = machine
        self.op_db = OperationDatabase(machine)
        self.transfer_db = TransferDatabase(machine)
        self.pattern_matches: List[PatternMatch] = []
        self._ids = IdAllocator()
        self.nodes: Dict[int, SNNode] = {}
        #: original op/store id -> SPLIT node id
        self.split_of: Dict[int, int] = {}
        #: original leaf id -> VALUE node id
        self.value_of: Dict[int, int] = {}
        #: original op id -> ALTERNATIVE node ids (complex ones included)
        self.alternatives_of: Dict[int, List[int]] = {}
        #: eager-equivalent transfer-node count (computed on demand).
        self._eager_transfer_count: Optional[int] = None

    # -- construction helpers (used by build_split_node_dag) -------------

    def _new_node(self, **kwargs) -> int:
        node_id = self._ids.allocate()
        self.nodes[node_id] = SNNode(node_id=node_id, **kwargs)
        return node_id

    def _set_children(self, node_id: int, children: List[int]) -> None:
        node = self.nodes[node_id]
        self.nodes[node_id] = replace(node, children=tuple(children))

    # -- queries ----------------------------------------------------------

    def terminal_node(self, original_id: int) -> int:
        """The Split-Node-DAG node producing this value: the VALUE node
        for leaves, the SPLIT node for operations."""
        node = self.dag.node(original_id)
        if is_leaf(node.opcode):
            return self.value_of[original_id]
        return self.split_of[original_id]

    def eager_transfer_node_count(self) -> int:
        """Transfer nodes the eager construction would have built.

        Mirrors the eager enumeration — every minimal path between every
        possible (producing storage, consuming storage) pair, for
        operand deliveries and stores alike — but only counts the
        distinct (value, source, destination, bus) hop keys instead of
        creating nodes.
        """
        if self._eager_transfer_count is not None:
            return self._eager_transfer_count
        keys: Set[Tuple[int, str, str, str]] = set()

        def count_paths(moved: int, source: str, destination: str) -> None:
            if source == destination:
                return
            for path in self.transfer_db.paths(source, destination):
                for hop in path:
                    keys.add((moved, hop.source, hop.destination, hop.bus))

        for op_id in self.alternatives_of:
            for alt_id in self.alternatives_of[op_id]:
                alternative = self.nodes[alt_id].alternative
                destination = self.machine.unit(alternative.unit).register_file
                for operand_id in _alternative_operands(self, op_id, alternative):
                    for source in _possible_storages(self, operand_id):
                        count_paths(operand_id, source, destination)
        for store_id in self.dag.stores:
            producer = self.dag.node(store_id).operands[0]
            for source in _possible_storages(self, producer):
                count_paths(producer, source, self.machine.data_memory)
        self._eager_transfer_count = len(keys)
        return self._eager_transfer_count

    def node(self, node_id: int) -> SNNode:
        """Look up a Split-Node DAG node by id."""
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def alternatives(self, original_op: int) -> List[Alternative]:
        """Implementation choices for an original operation node."""
        return [
            self.nodes[a].alternative for a in self.alternatives_of[original_op]
        ]

    def assignment_space_size(self) -> int:
        """Number of possible split-node covering assignments.

        The paper computes this "by multiplying the number of possible
        target processor operations covering each split-node" — e.g.
        2 x 2 x 3 for Fig. 4.  Complex alternatives are included, so this
        slightly over-counts when patterns absorb interior nodes.
        """
        size = 1
        for op_id in sorted(self.alternatives_of):
            size *= max(1, len(self.alternatives_of[op_id]))
        return size

    def stats(self) -> Dict[str, int]:
        """Node counts per kind; the paper's column, which adds the
        transfer nodes, is :meth:`paper_node_count`."""
        counts = {kind: 0 for kind in SNKind}
        for node in self.nodes.values():
            counts[node.kind] += 1
        return {
            "value_nodes": counts[SNKind.VALUE],
            "split_nodes": counts[SNKind.SPLIT],
            "alternative_nodes": counts[SNKind.ALTERNATIVE],
            "total": len(self.nodes),
        }

    def paper_node_count(self) -> int:
        """The paper's "Split-Node DAG #Nodes": every node plus the
        transfer nodes the eager construction would have built."""
        return len(self.nodes) + self.eager_transfer_node_count()

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"SplitNodeDAG(machine={self.machine.name!r}, "
            f"total={s['total']}, "
            f"splits={s['split_nodes']}, alts={s['alternative_nodes']})"
        )


def build_split_node_dag(dag: BlockDAG, machine: Machine) -> SplitNodeDAG:
    """Convert a basic-block DAG into its Split-Node DAG on ``machine``.

    No transfer nodes are built (see the module docstring); construction
    accepts and rejects exactly the (DAG, machine) pairs the paper's
    eager expansion would.

    Raises :class:`UnmappableOperationError` if some operation cannot be
    executed by any functional unit (directly or inside a complex match).
    """
    dag.validate()
    tm = _telemetry()
    with tm.span("sndag.build", category="sndag"):
        sn = _build_split_node_dag(dag, machine)
    if tm.enabled:
        stats = sn.stats()
        tm.count("sndag.value_nodes", stats["value_nodes"])
        tm.count("sndag.split_nodes", stats["split_nodes"])
        tm.count("sndag.alternative_nodes", stats["alternative_nodes"])
        tm.count("sndag.pattern_matches", len(sn.pattern_matches))
        tm.record("sndag.assignment_space", sn.assignment_space_size())
    return sn


def _build_split_node_dag(dag: BlockDAG, machine: Machine) -> SplitNodeDAG:
    sn = SplitNodeDAG(dag, machine)
    sn.pattern_matches = find_pattern_matches(dag, machine)
    matches_by_root: Dict[int, List[PatternMatch]] = {}
    for match in sn.pattern_matches:
        matches_by_root.setdefault(match.root, []).append(match)

    # VALUE nodes for leaves.
    for leaf_id in dag.leaf_nodes():
        sn.value_of[leaf_id] = sn._new_node(
            kind=SNKind.VALUE, original_id=leaf_id
        )

    # SPLIT + ALTERNATIVE nodes for operations (bottom-up so that operand
    # split/value nodes exist when alternatives link to them).
    absorbed_somewhere = {
        op_id
        for match in sn.pattern_matches
        for op_id in match.covers[1:]
    }
    for op_id in dag.schedule_order():
        node = dag.node(op_id)
        if not is_operation(node.opcode):
            continue
        basic_matches = sn.op_db.matches(node.opcode)
        complex_matches = matches_by_root.get(op_id, [])
        if not basic_matches and not complex_matches and op_id not in absorbed_somewhere:
            raise UnmappableOperationError(node.opcode, machine.name)
        split_id = sn._new_node(kind=SNKind.SPLIT, original_id=op_id)
        sn.split_of[op_id] = split_id
        alternative_ids: List[int] = []
        for match in basic_matches:
            children = _operand_links(
                sn, consumer_unit=match.unit, operand_ids=node.operands
            )
            alternative_ids.append(
                sn._new_node(
                    kind=SNKind.ALTERNATIVE,
                    original_id=op_id,
                    alternative=Alternative(
                        unit=match.unit,
                        op_name=match.op.name,
                        covers=(op_id,),
                    ),
                    children=tuple(children),
                )
            )
        for match in complex_matches:
            children = _operand_links(
                sn, consumer_unit=match.unit, operand_ids=match.operands
            )
            alternative_ids.append(
                sn._new_node(
                    kind=SNKind.ALTERNATIVE,
                    original_id=op_id,
                    alternative=Alternative(
                        unit=match.unit,
                        op_name=match.op.name,
                        covers=match.covers,
                        from_pattern=True,
                    ),
                    children=tuple(children),
                )
            )
        sn.alternatives_of[op_id] = alternative_ids
        sn._set_children(split_id, alternative_ids)

    # SPLIT nodes for stores, linked to the stored value's node.  Same
    # reachability contract as the eager expansion: the value must be
    # able to get back to data memory from every producing storage.
    for store_id in dag.stores:
        producer = dag.node(store_id).operands[0]
        split_id = sn._new_node(kind=SNKind.SPLIT, original_id=store_id)
        sn.split_of[store_id] = split_id
        children: List[int] = []
        for source in _possible_storages(sn, producer):
            if not sn.transfer_db.has_path(source, machine.data_memory):
                raise NoTransferPathError(source, machine.data_memory)
            children = [sn.terminal_node(producer)]
        sn._set_children(split_id, children)
    return sn


def _possible_storages(sn: SplitNodeDAG, original_id: int) -> List[str]:
    """Every storage the value of ``original_id`` may be produced in."""
    node = sn.dag.node(original_id)
    if is_leaf(node.opcode):
        return [sn.machine.data_memory]
    storages: List[str] = []
    for alt in sn.alternatives(original_id):
        rf = sn.machine.unit(alt.unit).register_file
        if rf not in storages:
            storages.append(rf)
    return storages


def _alternative_operands(
    sn: SplitNodeDAG, op_id: int, alternative: Alternative
) -> Tuple[int, ...]:
    """External operand ids of an alternative (pattern-aware)."""
    if not alternative.from_pattern:
        return sn.dag.node(op_id).operands
    for match in sn.pattern_matches:
        if (
            match.root == op_id
            and match.unit == alternative.unit
            and match.op.name == alternative.op_name
        ):
            return match.operands
    return sn.dag.node(op_id).operands


def _operand_links(
    sn: SplitNodeDAG, consumer_unit: str, operand_ids: Tuple[int, ...]
) -> List[int]:
    """Children of an alternative on ``consumer_unit``: for each operand,
    the nodes delivering that operand into the unit's register file.

    The link goes straight to the operand's terminal (its VALUE or SPLIT
    node).  Reachability from every other possible source storage is
    verified, as the eager expansion would (unmappable machines fail
    identically); the task graph inserts the transfers themselves.
    """
    destination = sn.machine.unit(consumer_unit).register_file
    children: List[int] = []
    for operand_id in operand_ids:
        terminal = sn.terminal_node(operand_id)
        for source in _possible_storages(sn, operand_id):
            if source != destination and not sn.transfer_db.has_path(
                source, destination
            ):
                raise NoTransferPathError(source, destination)
            if terminal not in children:
                children.append(terminal)
    return children
