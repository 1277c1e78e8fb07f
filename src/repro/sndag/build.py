"""Construction of the Split-Node DAG (paper, Sections III-A/III-B).

For the basic-block DAG and target machine, the builder creates:

- one VALUE node per leaf (variables and constants live in data memory);
- one SPLIT node per operation, with one ALTERNATIVE child per
  (functional unit, machine op) that can execute it — including complex
  instruction matches from the pattern matcher;
- one SPLIT node per store, whose implementations are transfers of the
  stored value back to data memory;
- TRANSFER nodes on the paths a value takes between storages — memory
  → consuming unit for leaves, producing unit → consuming unit for
  operation results, producing unit → memory for stores — created on
  demand (below).  Paths reconverge: a transfer hop moving the same
  value between the same storages over the same bus is created once,
  and a chain arriving at a shared hop from a different predecessor
  merges into the hop's children.

The resulting object carries everything the covering engine needs — the
alternatives per operation, the transfer database, and the pattern
matches — and reports the node count of the paper's "Split-Node DAG
#Nodes" column (:meth:`SplitNodeDAG.paper_node_count`).

Transfer materialisation
------------------------

The paper's construction ("subsequently expanded to include
multiple-step data transfers as well") is *eager*: every minimal path
between every reachable (storage, storage) pair a value might cross is
expanded into TRANSFER node chains up front.  Those nodes dominate the
DAG (transfer ≈ 5 × split nodes on Ex2) while the covering engine
itself answers all path questions straight from the
:class:`~repro.isdl.databases.TransferDatabase`.

This builder therefore skips the up-front expansion: construction still
verifies reachability for exactly the pairs the eager build would have
enumerated (so unmappable machines fail identically), but TRANSFER
nodes are only materialised on demand — :meth:`SplitNodeDAG.
materialize_transfer` is called by the task-graph builder for each
(value, source → destination) movement the chosen assignment actually
needs, and all equivalent-cost minimal paths of a pair fold into the
transfer database's canonical representative chain.  Alternative and
store-split children link directly to the operand/producer terminals.
:meth:`SplitNodeDAG.eager_transfer_node_count` counts what the eager
expansion would have built without building it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import NoTransferPathError, UnmappableOperationError
from repro.ir.dag import BlockDAG
from repro.ir.ops import Opcode, is_leaf, is_operation
from repro.isdl.databases import OperationDatabase, TransferDatabase, TransferPath
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
        #: (moved original id, source, destination, bus) -> TRANSFER id
        self._transfer_index: Dict[Tuple[int, str, str, str], int] = {}
        #: (moved original id, source, destination) demands already
        #: answered, -> last hop's node id
        self._demanded: Dict[Tuple[int, str, str], Optional[int]] = {}
        #: equivalent-cost minimal paths folded into the canonical
        #: representative across all demands so far.
        self.transfer_paths_folded = 0
        #: eager-equivalent transfer-node count (computed on demand).
        self._eager_transfer_count: Optional[int] = None

    # -- construction helpers (used by build_split_node_dag) -------------

    def _new_node(self, **kwargs) -> int:
        node_id = self._ids.allocate()
        self.nodes[node_id] = SNNode(node_id=node_id, **kwargs)
        return node_id

    def _set_children(self, node_id: int, children: List[int]) -> None:
        node = self.nodes[node_id]
        self.nodes[node_id] = SNNode(
            node_id=node.node_id,
            kind=node.kind,
            original_id=node.original_id,
            alternative=node.alternative,
            bus=node.bus,
            source=node.source,
            destination=node.destination,
            children=tuple(children),
        )

    def transfer_chain(
        self, moved_original: int, path: TransferPath, terminal: Optional[int]
    ) -> Optional[int]:
        """Create (or reuse) TRANSFER nodes for ``path``.

        ``terminal`` is the Split-Node-DAG node producing the moved value
        (a VALUE node or a SPLIT node); the first hop points at it.
        Returns the last hop's node id, or ``terminal`` for empty paths.

        Paths reconverge: a hop moving the same value between the same
        storages over the same bus is shared.  A chain arriving at a
        shared hop with a *different* predecessor merges its predecessor
        into the hop's children (the hop can be fed either way) instead
        of silently dropping the new route.
        """
        below = terminal
        for hop in path:
            key = (moved_original, hop.source, hop.destination, hop.bus)
            node_id = self._transfer_index.get(key)
            if node_id is None:
                node_id = self._new_node(
                    kind=SNKind.TRANSFER,
                    original_id=moved_original,
                    bus=hop.bus,
                    source=hop.source,
                    destination=hop.destination,
                    children=(below,) if below is not None else (),
                )
                self._transfer_index[key] = node_id
            else:
                node = self.nodes[node_id]
                if below is not None and below not in node.children:
                    self._set_children(node_id, list(node.children) + [below])
            below = node_id
        return below

    # -- transfer materialisation -----------------------------------------

    def terminal_node(self, original_id: int) -> int:
        """The Split-Node-DAG node a transfer chain of this value starts
        from: the VALUE node for leaves, the SPLIT node for operations."""
        node = self.dag.node(original_id)
        if is_leaf(node.opcode):
            return self.value_of[original_id]
        return self.split_of[original_id]

    def materialize_transfer(
        self, value_id: int, source: str, destination: str
    ) -> Optional[int]:
        """Materialise the transfer chain one demanded movement needs.

        Called by the task-graph builder for each (value, source →
        destination) data movement the chosen assignment requires.  The
        pair's equivalent-cost minimal paths fold into the transfer
        database's canonical representative, whose hop chain is created
        once and shared across demands.  Returns the last hop's node id
        (``None`` when source and destination coincide).
        """
        if source == destination:
            return None
        key = (value_id, source, destination)
        if key in self._demanded:
            return self._demanded[key]
        path = self.transfer_db.canonical_path(source, destination)
        folded = self.transfer_db.path_count(source, destination) - 1
        before = len(self.nodes)
        last = self.transfer_chain(value_id, path, self.terminal_node(value_id))
        created = len(self.nodes) - before
        self._demanded[key] = last
        self.transfer_paths_folded += folded
        tm = _telemetry()
        if tm.enabled:
            tm.count("sndag.transfer_nodes", created)
            tm.count("sndag.transfer_nodes_materialized", created)
            if folded:
                tm.count("sndag.transfer_paths_folded", folded)
            jr = tm.journal
            if jr.enabled:
                jr.emit(
                    "sndag.materialize",
                    value=value_id,
                    source=source,
                    destination=destination,
                    buses=[h.bus for h in path],
                    created=created,
                    folded=folded,
                )
        return last

    def eager_transfer_node_count(self) -> int:
        """Transfer nodes the eager construction would have built.

        Mirrors the eager enumeration — every minimal path between every
        possible (producing storage, consuming storage) pair, for
        operand deliveries and stores alike — but only counts the
        distinct (value, source, destination, bus) hop keys instead of
        creating nodes.  It is the baseline the materialised count is
        measured against (``avoided = eager - materialized``).
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

    # -- queries ----------------------------------------------------------

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

    def producer_storage(self, original_id: int, unit: Optional[str]) -> str:
        """Where a value lives: DM for leaves, the unit's RF for ops."""
        node = self.dag.node(original_id)
        if is_leaf(node.opcode):
            return self.machine.data_memory
        if unit is None:
            raise ValueError(f"operation n{original_id} needs a unit")
        return self.machine.unit(unit).register_file

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
        """Node counts per kind, of the nodes built so far (TRANSFER
        nodes appear on demand); the paper's column is
        :meth:`paper_node_count`."""
        counts = {kind: 0 for kind in SNKind}
        for node in self.nodes.values():
            counts[node.kind] += 1
        return {
            "value_nodes": counts[SNKind.VALUE],
            "split_nodes": counts[SNKind.SPLIT],
            "alternative_nodes": counts[SNKind.ALTERNATIVE],
            "transfer_nodes": counts[SNKind.TRANSFER],
            "total": len(self.nodes),
        }

    def paper_node_count(self) -> int:
        """The paper's "Split-Node DAG #Nodes": every node but the
        TRANSFER ones, plus the transfer nodes the eager construction
        would have built."""
        stats = self.stats()
        return (
            stats["total"]
            - stats["transfer_nodes"]
            + self.eager_transfer_node_count()
        )

    def transfer_stats(self) -> Dict[str, int]:
        """Materialisation accounting for the transfer-node layer.

        ``materialized`` counts TRANSFER nodes actually in the DAG,
        ``eager`` what the eager construction would have built, and
        ``avoided`` their difference (clamped at zero: spill/reload
        demands can materialise movements the eager enumeration never
        contained).
        """
        materialized = self.stats()["transfer_nodes"]
        eager = self.eager_transfer_node_count()
        return {
            "materialized": materialized,
            "eager": eager,
            "avoided": max(0, eager - materialized),
            "paths_folded": self.transfer_paths_folded,
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"SplitNodeDAG(machine={self.machine.name!r}, "
            f"total={s['total']}, "
            f"splits={s['split_nodes']}, alts={s['alternative_nodes']}, "
            f"xfers={s['transfer_nodes']})"
        )


def build_split_node_dag(dag: BlockDAG, machine: Machine) -> SplitNodeDAG:
    """Convert a basic-block DAG into its Split-Node DAG on ``machine``.

    Transfer chains are created later, on demand per assignment (see
    the module docstring); construction accepts and rejects exactly the
    (DAG, machine) pairs the paper's eager expansion would.

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
        tm.count("sndag.transfer_nodes", stats["transfer_nodes"])
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

    # SPLIT nodes for stores: implementations are transfers of the stored
    # value from each possible producing storage back to data memory.
    # Same reachability contract as the eager expansion, no path chains:
    # the value must be able to get back to data memory from every
    # producing storage.
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
    identically); transfer chains appear later, on demand, per chosen
    assignment.
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
