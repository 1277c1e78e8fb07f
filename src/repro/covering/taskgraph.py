"""Materialising an assignment as a graph of schedulable tasks.

A *task* is one resource-occupying action the machine can perform in one
instruction slot:

- an **OP** task executes a machine operation on a functional unit,
  reading operands from the unit's register file and writing the result
  back to it;
- an **XFER** task moves one word across one bus hop — loading a leaf
  value from data memory, forwarding an intermediate result between
  register files, writing a stored value back to memory, or (after spill
  insertion) spilling and reloading.

Tasks carry :class:`ReadRef` edges naming which task delivered each value
they consume (``producer is None`` for values resident in data memory at
block entry).  The covering step schedules tasks into cliques; pressure
tracking, register allocation, and assembly emission are all phrased in
terms of *deliveries*: a task that writes into a register file creates a
register-resident value whose lifetime ends at its last consumer.

Spilling (paper Fig. 9): :meth:`TaskGraph.spill_delivery` inserts a spill
transfer of a register-resident value to data memory, replaces pending
transfers of the value ("transfer nodes that are no longer required are
removed") with reloads from memory, and rewires remaining consumers.

Transfer-path selection (paper, Section IV-B): when the machine offers
several minimal paths between two storages, the builder picks the one
whose buses currently carry the fewest transfers — a parallelism-driven
choice, since congested buses serialise instructions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import CoverageError
from repro.ir.dag import BlockDAG
from repro.ir.ops import Opcode, is_leaf
from repro.isdl.databases import TransferPath
from repro.isdl.model import Machine
from repro.covering.assignment import Assignment
from repro.sndag.build import SplitNodeDAG
from repro.telemetry.session import current as _telemetry
from repro.utils.ids import IdAllocator


class TaskKind(enum.Enum):
    """Task categories: functional-unit OPs and bus XFERs."""
    OP = "op"
    XFER = "xfer"


@dataclass(frozen=True)
class ReadRef:
    """One value a task consumes.

    Attributes:
        producer: id of the task that delivered the value into
            ``storage`` — ``None`` when the value has been in data memory
            since block entry (leaves and constants).
        storage: the storage location the value is read from.
        value: original-DAG id of the value being read.
    """

    producer: Optional[int]
    storage: str
    value: int


@dataclass
class Task:
    """One schedulable action.  See module docstring."""

    task_id: int
    kind: TaskKind
    resource: str  # functional unit for OP, bus for XFER
    value: int  # original-DAG id of the produced / moved value
    reads: Tuple[ReadRef, ...]
    dest_storage: str  # register file, or a memory for stores/spills
    # OP payload:
    unit: Optional[str] = None
    op_name: Optional[str] = None
    covers: Tuple[int, ...] = ()
    # XFER payload:
    bus: Optional[str] = None
    source_storage: Optional[str] = None
    store_symbol: Optional[str] = None  # set on store transfers
    is_spill: bool = False
    is_reload: bool = False
    #: anti-dependences: tasks that must execute before this one even
    #: though no value flows between them (a store overwriting a
    #: variable must wait for every reader of its entry value).
    extra_after: Tuple[int, ...] = ()

    def dependencies(self) -> List[int]:
        """Ids of tasks that must execute strictly before this one."""
        deps = [r.producer for r in self.reads if r.producer is not None]
        deps.extend(self.extra_after)
        return deps

    def describe(self) -> str:
        """Short human-readable tag used in traces and errors."""
        if self.kind is TaskKind.OP:
            tag = "+".join(f"n{c}" for c in self.covers)
            return f"t{self.task_id}:{self.op_name}@{self.unit}[{tag}]"
        flags = "S" if self.is_spill else ("L" if self.is_reload else "")
        store = f" store {self.store_symbol}" if self.store_symbol else ""
        return (
            f"t{self.task_id}:{flags}xfer n{self.value} "
            f"{self.source_storage}->{self.dest_storage} via {self.bus}{store}"
        )


class TaskGraph:
    """The schedulable form of one assignment (mutable under spilling)."""

    def __init__(
        self,
        sn: SplitNodeDAG,
        assignment: Assignment,
        pin_value: Optional[int] = None,
    ):
        self.sn = sn
        self.machine: Machine = sn.machine
        self.dag: BlockDAG = sn.dag
        self.assignment = assignment
        self.tasks: Dict[int, Task] = {}
        #: producer id -> ids of the live tasks reading its delivery.
        #: Kept current by :meth:`add_task`, :meth:`set_reads` and
        #: :meth:`remove_task`, the only ways tasks and reads change.
        self._consumers: Dict[int, Set[int]] = {}
        self._ids = IdAllocator()
        #: (value original id, storage) -> delivering task id; a value may
        #: be re-delivered after a spill, in which case this tracks the
        #: *latest* delivery (used only during construction).
        self._delivered: Dict[Tuple[int, str], Optional[int]] = {}
        #: transfers per bus, for the congestion-driven path choice.
        self._bus_load: Dict[str, int] = {b: 0 for b in self.machine.bus_names()}
        self.spill_count = 0
        self.reload_count = 0
        #: deliveries that must stay register-resident to the end of the
        #: block (branch condition values).
        self.pinned: Set[int] = set()
        #: how the terminator's control slot reads its condition value
        #: (set by pinning; None for straight-line blocks).
        self.condition_read: Optional[ReadRef] = None
        self._build(pin_value)

    @classmethod
    def restore(
        cls,
        sn: SplitNodeDAG,
        assignment: Assignment,
        tasks: List[Task],
        next_task_id: int,
        bus_load: Dict[str, int],
        pinned: Set[int],
        condition_read: Optional[ReadRef],
        spill_count: int,
        reload_count: int,
    ) -> "TaskGraph":
        """A graph rebuilt from saved state (the block cache's decoder)
        rather than from its assignment."""
        graph = cls.__new__(cls)
        graph.sn = sn
        graph.machine = sn.machine
        graph.dag = sn.dag
        graph.assignment = assignment
        graph.tasks = {}
        graph._consumers = {}
        for task in tasks:
            graph.add_task(task)
        graph._ids = IdAllocator(next_task_id)
        graph._delivered = {}
        graph._bus_load = {b: 0 for b in graph.machine.bus_names()}
        graph._bus_load.update(bus_load)
        graph.spill_count = spill_count
        graph.reload_count = reload_count
        graph.pinned = set(pinned)
        graph.condition_read = condition_read
        return graph

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self, pin_value: Optional[int]) -> None:
        for root_id, alternative in self._ops_in_schedule_order():
            unit = self.machine.unit(alternative.unit)
            rf = unit.register_file
            operand_ids = self._operands_of(root_id, alternative)
            reads = tuple(
                self._ensure_delivery(operand, rf) for operand in operand_ids
            )
            task_id = self._new_task(
                kind=TaskKind.OP,
                resource=alternative.unit,
                value=root_id,
                reads=reads,
                dest_storage=rf,
                unit=alternative.unit,
                op_name=alternative.op_name,
                covers=alternative.covers,
            )
            self._delivered[(root_id, rf)] = task_id
        for store_id in self.dag.stores:
            self._build_store(store_id)
        if pin_value is not None:
            self._pin(pin_value)
        self._add_store_anti_dependences()

    def _add_store_anti_dependences(self) -> None:
        """A store overwrites its variable's data-memory word; every task
        that reads that variable's *entry* value straight from memory
        (leaf loads and memory-to-memory store copies) must run first."""
        stores_by_symbol: Dict[str, int] = {}
        for task_id, task in self.tasks.items():
            if task.store_symbol is not None:
                stores_by_symbol[task.store_symbol] = task_id
        if not stores_by_symbol:
            return
        readers: Dict[str, List[int]] = {}
        for task_id, task in self.tasks.items():
            for read in task.reads:
                if read.producer is not None:
                    continue
                leaf = self.dag.node(read.value)
                if leaf.opcode is Opcode.VAR and leaf.symbol in stores_by_symbol:
                    readers.setdefault(leaf.symbol, []).append(task_id)
        for symbol, store_id in stores_by_symbol.items():
            blocking = tuple(
                t for t in sorted(readers.get(symbol, [])) if t != store_id
            )
            if blocking:
                store = self.tasks[store_id]
                store.extra_after = store.extra_after + blocking

    def _ops_in_schedule_order(self):
        order = {
            node_id: position
            for position, node_id in enumerate(self.dag.schedule_order())
        }
        return sorted(
            self.assignment.covering_ops(), key=lambda item: order[item[0]]
        )

    def _operands_of(self, root_id: int, alternative) -> Tuple[int, ...]:
        if not alternative.from_pattern:
            return self.dag.node(root_id).operands
        for match in self.sn.pattern_matches:
            if (
                match.root == root_id
                and match.unit == alternative.unit
                and match.op.name == alternative.op_name
            ):
                return match.operands
        raise CoverageError(
            f"complex alternative {alternative.op_name}@{alternative.unit} "
            f"at n{root_id} has no recorded pattern match"
        )

    def _home_storage(self, value_id: int) -> str:
        """Where a value is first produced under this assignment."""
        node = self.dag.node(value_id)
        if is_leaf(node.opcode):
            return self.machine.data_memory
        alternative = self.assignment.choice[value_id]
        return self.machine.unit(alternative.unit).register_file

    def _ensure_delivery(self, value_id: int, target: str) -> ReadRef:
        """Make the value available in ``target`` and return a ReadRef."""
        source = self._home_storage(value_id)
        if source == target:
            return ReadRef(
                self._delivered.get((value_id, source)), source, value_id
            )
        existing = self._delivered.get((value_id, target))
        if existing is not None:
            return ReadRef(existing, target, value_id)
        return self._build_chain(value_id, source, target)

    def _build_chain(self, value_id: int, source: str, target: str) -> ReadRef:
        path = self._choose_path(
            source, target, value_id=value_id, skip_delivered=True
        )
        current = ReadRef(
            self._delivered.get((value_id, source)), source, value_id
        )
        for hop in path:
            cached = self._delivered.get((value_id, hop.destination))
            if cached is not None:
                current = ReadRef(cached, hop.destination, value_id)
                continue
            task_id = self._new_task(
                kind=TaskKind.XFER,
                resource=hop.bus,
                value=value_id,
                reads=(current,),
                dest_storage=hop.destination,
                bus=hop.bus,
                source_storage=hop.source,
            )
            self._bus_load[hop.bus] += 1
            self._delivered[(value_id, hop.destination)] = task_id
            current = ReadRef(task_id, hop.destination, value_id)
        return current

    def _choose_path(
        self,
        source: str,
        target: str,
        value_id: Optional[int] = None,
        skip_delivered: bool = False,
        always_last: bool = False,
    ) -> TransferPath:
        """Least-congested minimal path (Section IV-B's heuristic).

        Congestion counts only the hops the caller would actually
        materialise: with ``skip_delivered``, a hop whose destination
        already holds the value (the ``_delivered`` cache) creates no
        transfer task and so charges no bus load.  ``always_last``
        exempts the final hop — store builders always emit it to carry
        the store symbol, delivered or not.  Charging skipped hops used
        to bias the choice away from paths that were actually cheaper.

        When ``value_id`` is given, the demanded movement is also
        reported to the Split-Node DAG, which materialises its canonical
        transfer chain.
        """
        paths = self.sn.transfer_db.paths(source, target)

        def materialises(hop, is_last: bool) -> bool:
            if not skip_delivered or (always_last and is_last):
                return True
            return self._delivered.get((value_id, hop.destination)) is None

        def congestion(p: TransferPath) -> int:
            last = len(p) - 1
            return sum(
                self._bus_load[h.bus]
                for i, h in enumerate(p)
                if materialises(h, i == last)
            )

        chosen = min(paths, key=lambda p: (congestion(p), tuple(h.bus for h in p)))
        if len(paths) > 1:
            jr = _telemetry().journal
            if jr.enabled:
                jr.emit(
                    "transfer.path",
                    source=source,
                    target=target,
                    chosen=[h.bus for h in chosen],
                    load=congestion(chosen),
                    alternatives=sorted(
                        (
                            {
                                "buses": [h.bus for h in p],
                                "load": congestion(p),
                            }
                            for p in paths
                            if p is not chosen
                        ),
                        key=lambda a: (a["load"], a["buses"]),
                    ),
                )
        if value_id is not None:
            self.sn.materialize_transfer(value_id, source, target)
        return chosen

    def _build_store(self, store_id: int) -> None:
        store = self.dag.node(store_id)
        value_id = store.operands[0]
        source = self._home_storage(value_id)
        dm = self.machine.data_memory
        if source == dm:
            # Storing an unmodified leaf.  If the leaf's own variable is
            # also overwritten by this block (swap patterns like
            # ``t = a; a = b; b = t``), plain memory-to-memory copies
            # form an anti-dependence cycle: each copy must read before
            # the other writes.  Routing the value through a register
            # reads the entry value early and breaks the cycle.
            leaf = self.dag.node(value_id)
            conflicting = (
                leaf.opcode is Opcode.VAR
                and leaf.symbol != store.symbol
                and leaf.symbol in self.dag.store_symbols()
            )
            if conflicting:
                staging = self.machine.units[0].register_file
                for rf in (u.register_file for u in self.machine.units):
                    if self._delivered.get((value_id, rf)) is not None:
                        staging = rf
                        break
                read = self._ensure_delivery(value_id, staging)
                path = self._choose_path(staging, dm, value_id=value_id)
                current = read
                for hop in path[:-1]:
                    task_id = self._new_task(
                        kind=TaskKind.XFER,
                        resource=hop.bus,
                        value=value_id,
                        reads=(current,),
                        dest_storage=hop.destination,
                        bus=hop.bus,
                        source_storage=hop.source,
                    )
                    self._bus_load[hop.bus] += 1
                    current = ReadRef(task_id, hop.destination, value_id)
                last = path[-1]
                self._new_task(
                    kind=TaskKind.XFER,
                    resource=last.bus,
                    value=value_id,
                    reads=(current,),
                    dest_storage=dm,
                    bus=last.bus,
                    source_storage=last.source,
                    store_symbol=store.symbol,
                )
                self._bus_load[last.bus] += 1
                return
            # Otherwise: a single memory-to-memory copy over any bus
            # that reaches data memory.
            read = ReadRef(None, dm, value_id)
            bus = self._dm_bus()
            self._new_task(
                kind=TaskKind.XFER,
                resource=bus,
                value=value_id,
                reads=(read,),
                dest_storage=dm,
                bus=bus,
                source_storage=dm,
                store_symbol=store.symbol,
            )
            self._bus_load[bus] += 1
            return
        # Move the value to the storage adjacent to memory, then one
        # dedicated hop into memory carrying the store symbol.
        path = self._choose_path(
            source, dm, value_id=value_id, skip_delivered=True, always_last=True
        )
        prefix, last = path[:-1], path[-1]
        current = ReadRef(
            self._delivered.get((value_id, source)), source, value_id
        )
        for hop in prefix:
            cached = self._delivered.get((value_id, hop.destination))
            if cached is not None:
                current = ReadRef(cached, hop.destination, value_id)
                continue
            task_id = self._new_task(
                kind=TaskKind.XFER,
                resource=hop.bus,
                value=value_id,
                reads=(current,),
                dest_storage=hop.destination,
                bus=hop.bus,
                source_storage=hop.source,
            )
            self._bus_load[hop.bus] += 1
            self._delivered[(value_id, hop.destination)] = task_id
            current = ReadRef(task_id, hop.destination, value_id)
        self._new_task(
            kind=TaskKind.XFER,
            resource=last.bus,
            value=value_id,
            reads=(current,),
            dest_storage=dm,
            bus=last.bus,
            source_storage=last.source,
            store_symbol=store.symbol,
        )
        self._bus_load[last.bus] += 1

    def _dm_bus(self) -> str:
        dm = self.machine.data_memory
        for bus in self.machine.buses:
            if dm in bus.connects:
                return bus.name
        raise CoverageError(f"no bus reaches data memory {dm!r}")

    def _pin(self, value_id: int) -> None:
        """Keep ``value_id`` register-resident through the end of the
        block (it is read by the control slot of the terminator)."""
        source = self._home_storage(value_id)
        if source == self.machine.data_memory:
            # Branch on a plain variable: reuse an existing register copy
            # if one was already loaded for an operation, otherwise load
            # it into the first unit's register file for the control slot.
            target = self.machine.units[0].register_file
            for rf in (u.register_file for u in self.machine.units):
                if self._delivered.get((value_id, rf)) is not None:
                    target = rf
                    break
            read = self._ensure_delivery(value_id, target)
        else:
            read = ReadRef(
                self._delivered.get((value_id, source)), source, value_id
            )
        if read.producer is None:
            raise CoverageError(
                f"cannot pin value n{value_id}: no delivering task"
            )
        self.pinned.add(read.producer)
        self.condition_read: Optional[ReadRef] = read

    def _new_task(self, **kwargs) -> int:
        task_id = self._ids.allocate()
        self.add_task(Task(task_id=task_id, **kwargs))
        return task_id

    # ------------------------------------------------------------------
    # Mutation (keeps the consumer index current)
    # ------------------------------------------------------------------

    def add_task(self, task: Task) -> None:
        """Insert ``task`` under its own id."""
        self.tasks[task.task_id] = task
        self._index_reads(task.task_id, task.reads)

    def set_reads(self, task_id: int, reads: Tuple[ReadRef, ...]) -> None:
        """Replace what ``task_id`` reads."""
        task = self.tasks[task_id]
        self._unindex_reads(task_id, task.reads)
        task.reads = reads
        self._index_reads(task_id, reads)

    def remove_task(self, task_id: int) -> None:
        """Delete ``task_id``.  Tasks still reading it keep their reads
        (and their index entries) until rewired."""
        self._unindex_reads(task_id, self.tasks.pop(task_id).reads)

    def _index_reads(self, task_id: int, reads: Tuple[ReadRef, ...]) -> None:
        for read in reads:
            if read.producer is not None:
                self._consumers.setdefault(read.producer, set()).add(task_id)

    def _unindex_reads(
        self, task_id: int, reads: Tuple[ReadRef, ...]
    ) -> None:
        for read in reads:
            if read.producer is not None:
                self._consumers[read.producer].discard(task_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def task_ids(self) -> List[int]:
        """All live task ids, ascending."""
        return sorted(self.tasks)

    def latency(self, task_id: int) -> int:
        """Cycles until the task's result is available (transfers: 1)."""
        task = self.tasks[task_id]
        if task.kind is TaskKind.OP:
            machine_op = self.machine.unit(task.unit).op_named(task.op_name)
            if machine_op is not None:
                return machine_op.latency
        return 1

    def has_multi_cycle_ops(self) -> bool:
        """True when any schedulable task takes more than one cycle."""
        return any(self.latency(t) > 1 for t in self.tasks)

    def adjacency(self) -> Dict[int, List[int]]:
        """task -> its dependency tasks (edges point at producers)."""
        return {
            task_id: self.tasks[task_id].dependencies()
            for task_id in self.task_ids()
        }

    def consumers_of(self, task_id: int) -> List[int]:
        """Tasks that read the delivery made by ``task_id``, ascending."""
        return sorted(self._consumers.get(task_id, ()))

    def register_deliveries(self) -> List[int]:
        """Tasks whose result occupies a register (dest is a register file)."""
        rf_names = {r.name for r in self.machine.register_files}
        return [
            task_id
            for task_id in self.task_ids()
            if self.tasks[task_id].dest_storage in rf_names
        ]

    # ------------------------------------------------------------------
    # Spilling (paper, Fig. 9)
    # ------------------------------------------------------------------

    def spill_delivery(
        self,
        delivery_id: int,
        covered: Set[int],
        ready: Optional[Set[int]] = None,
    ) -> Tuple[int, List[int]]:
        """Spill the register-resident value delivered by ``delivery_id``.

        Inserts a spill transfer (register file → data memory) and
        redirects consumers that would *later* require the value to
        reloads from memory (one reload per destination storage),
        removing pending transfers that are no longer required (Fig. 9).

        Consumers in ``ready`` (schedulable right now) keep reading the
        register copy — the value stays live until they and the spill
        have executed, but their operands need no round trip through
        memory.  If every pending consumer is ready, the latest one is
        rewired anyway so the spill actually shortens the lifetime.
        With ``ready=None`` every pending consumer is rewired.

        Returns ``(spill_task_id, new_task_ids)`` where ``new_task_ids``
        includes the spill and all reloads, so the caller can regenerate
        cliques over the updated task set.

        Raises :class:`CoverageError` when the delivery is pinned or has
        no uncovered consumers (nothing would be gained).
        """
        if delivery_id in self.pinned:
            raise CoverageError(f"delivery t{delivery_id} is pinned; cannot spill")
        delivery = self.tasks[delivery_id]
        bank = delivery.dest_storage
        value_id = delivery.value
        dm = self.machine.data_memory
        all_pending = [
            c for c in self.consumers_of(delivery_id) if c not in covered
        ]
        if not all_pending:
            raise CoverageError(
                f"delivery t{delivery_id} has no uncovered consumers"
            )
        if ready is None:
            pending = all_pending
        else:
            pending = [c for c in all_pending if c not in ready]
            if not pending:
                pending = [max(all_pending)]
        # The spill itself: bank -> memory (first hop of a minimal path;
        # on multi-hop architectures the spill slot must be bus-adjacent
        # to the bank, so we spill via the full chain).
        spill_path = self._choose_path(bank, dm, value_id=value_id)
        current = ReadRef(delivery_id, bank, value_id)
        spill_ids: List[int] = []
        for hop in spill_path:
            task_id = self._new_task(
                kind=TaskKind.XFER,
                resource=hop.bus,
                value=value_id,
                reads=(current,),
                dest_storage=hop.destination,
                bus=hop.bus,
                source_storage=hop.source,
                is_spill=True,
            )
            self._bus_load[hop.bus] += 1
            spill_ids.append(task_id)
            current = ReadRef(task_id, hop.destination, value_id)
        spill_id = spill_ids[-1]
        self.spill_count += 1
        memory_read = ReadRef(spill_id, dm, value_id)

        new_ids: List[int] = list(spill_ids)
        reload_for_storage: Dict[str, ReadRef] = {}

        def reload_into(target: str) -> ReadRef:
            if target in reload_for_storage:
                return reload_for_storage[target]
            path = self._choose_path(dm, target, value_id=value_id)
            ref = memory_read
            for hop in path:
                task_id = self._new_task(
                    kind=TaskKind.XFER,
                    resource=hop.bus,
                    value=value_id,
                    reads=(ref,),
                    dest_storage=hop.destination,
                    bus=hop.bus,
                    source_storage=hop.source,
                    is_reload=True,
                )
                self._bus_load[hop.bus] += 1
                new_ids.append(task_id)
                ref = ReadRef(task_id, hop.destination, value_id)
            self.reload_count += 1
            reload_for_storage[target] = ref
            return ref

        for consumer_id in pending:
            consumer = self.tasks[consumer_id]
            if consumer.kind is TaskKind.OP:
                replacement = reload_into(consumer.dest_storage)
                self.set_reads(
                    consumer_id,
                    tuple(
                        replacement if r.producer == delivery_id else r
                        for r in consumer.reads
                    ),
                )
                continue
            # A pending transfer reading the spilled value out of the
            # bank is "no longer required" (Fig. 9): its own consumers
            # are served by a fresh chain from memory instead.
            destination = consumer.dest_storage
            if destination == dm:
                # Store or earlier spill: rewrite to copy straight from
                # the spill slot in memory.
                self.set_reads(consumer_id, (memory_read,))
                consumer.source_storage = dm
                consumer.bus = self._dm_bus()
                consumer.resource = consumer.bus
                continue
            replacement = reload_into(destination)
            for downstream_id in self.consumers_of(consumer_id):
                self.set_reads(
                    downstream_id,
                    tuple(
                        replacement if r.producer == consumer_id else r
                        for r in self.tasks[downstream_id].reads
                    ),
                )
            self._bus_load[consumer.bus] -= 1
            self.remove_task(consumer_id)
        return spill_id, [i for i in new_ids if i in self.tasks]

    def validate(self) -> None:
        """Structural invariants: the consumer index matches the reads,
        reads reference live tasks, register deliveries have consumers
        or are pinned, dependencies acyclic."""
        from repro.utils.graph import topological_order

        scanned: Dict[int, Set[int]] = {}
        for task_id, task in self.tasks.items():
            for read in task.reads:
                if read.producer is not None:
                    scanned.setdefault(read.producer, set()).add(task_id)
        indexed = {p: c for p, c in self._consumers.items() if c}
        if indexed != scanned:
            stale = sorted(
                p
                for p in set(indexed) | set(scanned)
                if indexed.get(p) != scanned.get(p)
            )
            raise CoverageError(
                "consumer index out of date (tasks or reads changed "
                f"outside TaskGraph's mutators) for producers {stale}"
            )
        for task in self.tasks.values():
            for read in task.reads:
                if read.producer is not None and read.producer not in self.tasks:
                    raise CoverageError(
                        f"{task.describe()} reads deleted task t{read.producer}"
                    )
        for delivery_id in self.register_deliveries():
            if delivery_id in self.pinned:
                continue
            if not self.consumers_of(delivery_id):
                raise CoverageError(
                    f"register delivery {self.tasks[delivery_id].describe()} "
                    f"has no consumers"
                )
        topological_order(self.adjacency())
