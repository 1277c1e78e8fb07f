"""JSON (de)serialization of :class:`~repro.covering.solution.BlockSolution`.

The persistent block cache (:mod:`repro.serve.cache`) stores covering
solutions on disk.  A solution is a web of objects — the Split-Node DAG,
the chosen assignment, the task graph, the schedule — but only part of
that web is *search output*; the rest is deterministically derivable
from the cache key's inputs.  The codec exploits the split:

- **Serialized**: the assignment (per-operation alternative choices and
  cost), every task of the task graph (including spill/reload transfers
  inserted during covering), the pin set, the condition read, the
  schedule, and the solution's headline metrics.
- **Rebuilt on load**: the Split-Node DAG.  ``build_split_node_dag`` is
  a pure function of ``(dag, machine)``, both of which are pinned by the
  cache key (DAG fingerprint + machine fingerprint), and covering never
  changes the DAG it built, so the rebuilt one equals the fresh
  compile's.  Decoded solutions consult only its alternatives (the
  validator's covering check).

Deserialization therefore needs the original ``BlockDAG`` and
``Machine``; the cache hands them in from the compile request that
probed it.  A round-tripped solution is structurally interchangeable
with the original: downstream passes (peephole, register allocation,
emission, the independent validator) see the same tasks, the same
schedule, and a Split-Node DAG with the same alternatives.

``CODEC_FORMAT`` stamps every payload; bump it whenever the encoded
shape (or the meaning of any field) changes so stale cache entries are
rejected instead of misdecoded.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.covering.assignment import Assignment
from repro.covering.solution import BlockSolution
from repro.covering.taskgraph import ReadRef, Task, TaskGraph, TaskKind
from repro.ir.dag import BlockDAG
from repro.isdl.model import Machine
from repro.sndag.build import build_split_node_dag
from repro.sndag.nodes import Alternative

#: Payload format stamp; entries carrying any other value are rejected.
CODEC_FORMAT = "repro/block-solution/v1"


class CodecError(ValueError):
    """A payload that cannot be decoded into a valid solution."""


def _alternative_to_dict(alternative: Alternative) -> Dict[str, Any]:
    return {
        "unit": alternative.unit,
        "op": alternative.op_name,
        "covers": list(alternative.covers),
        "from_pattern": alternative.from_pattern,
    }


def _alternative_from_dict(data: Dict[str, Any]) -> Alternative:
    return Alternative(
        unit=data["unit"],
        op_name=data["op"],
        covers=tuple(int(c) for c in data["covers"]),
        from_pattern=bool(data["from_pattern"]),
    )


def _read_to_list(read: ReadRef) -> List[Any]:
    return [read.producer, read.storage, read.value]


def _read_from_list(data: List[Any]) -> ReadRef:
    producer, storage, value = data
    return ReadRef(
        producer=None if producer is None else int(producer),
        storage=str(storage),
        value=int(value),
    )


def _task_to_dict(task: Task) -> Dict[str, Any]:
    return {
        "id": task.task_id,
        "kind": task.kind.value,
        "resource": task.resource,
        "value": task.value,
        "reads": [_read_to_list(r) for r in task.reads],
        "dest": task.dest_storage,
        "unit": task.unit,
        "op": task.op_name,
        "covers": list(task.covers),
        "bus": task.bus,
        "source": task.source_storage,
        "store_symbol": task.store_symbol,
        "is_spill": task.is_spill,
        "is_reload": task.is_reload,
        "extra_after": list(task.extra_after),
    }


def _task_from_dict(data: Dict[str, Any]) -> Task:
    return Task(
        task_id=int(data["id"]),
        kind=TaskKind(data["kind"]),
        resource=str(data["resource"]),
        value=int(data["value"]),
        reads=tuple(_read_from_list(r) for r in data["reads"]),
        dest_storage=str(data["dest"]),
        unit=data["unit"],
        op_name=data["op"],
        covers=tuple(int(c) for c in data["covers"]),
        bus=data["bus"],
        source_storage=data["source"],
        store_symbol=data["store_symbol"],
        is_spill=bool(data["is_spill"]),
        is_reload=bool(data["is_reload"]),
        extra_after=tuple(int(t) for t in data["extra_after"]),
    )


def solution_to_dict(solution: BlockSolution) -> Dict[str, Any]:
    """The JSON-ready form of a covering solution."""
    graph = solution.graph
    assignment = solution.assignment
    return {
        "format": CODEC_FORMAT,
        "machine_name": solution.machine_name,
        "assignment": {
            "cost": assignment.cost,
            "choice": [
                [op_id, _alternative_to_dict(alternative)]
                for op_id, alternative in sorted(assignment.choice.items())
            ],
        },
        "graph": {
            "tasks": [
                _task_to_dict(graph.tasks[task_id])
                for task_id in sorted(graph.tasks)
            ],
            "next_task_id": graph._ids.next_id,
            "bus_load": dict(sorted(graph._bus_load.items())),
            "pinned": sorted(graph.pinned),
            "condition_read": (
                None
                if graph.condition_read is None
                else _read_to_list(graph.condition_read)
            ),
            "spill_count": graph.spill_count,
            "reload_count": graph.reload_count,
        },
        "schedule": [list(word) for word in solution.schedule],
        "register_estimate": dict(sorted(solution.register_estimate.items())),
        "spill_count": solution.spill_count,
        "reload_count": solution.reload_count,
        "assignments_explored": solution.assignments_explored,
        "cpu_seconds": solution.cpu_seconds,
    }


def solution_from_dict(
    data: Dict[str, Any], dag: BlockDAG, machine: Machine
) -> BlockSolution:
    """Rebuild a solution for ``(dag, machine)`` from its JSON form.

    Raises:
        CodecError: on a format-stamp mismatch or a structurally broken
            payload.  Callers (the cache) treat this as a miss.
    """
    try:
        return _decode(data, dag, machine)
    except CodecError:
        raise
    except Exception as error:  # noqa: BLE001 - any malformed payload
        raise CodecError(f"undecodable solution payload: {error}") from error


def _decode(
    data: Dict[str, Any], dag: BlockDAG, machine: Machine
) -> BlockSolution:
    if not isinstance(data, dict):
        raise CodecError("solution payload must be a JSON object")
    stamp = data.get("format")
    if stamp != CODEC_FORMAT:
        raise CodecError(
            f"solution format {stamp!r} does not match {CODEC_FORMAT!r}"
        )
    sn = build_split_node_dag(dag, machine)
    choice: Dict[int, Alternative] = {}
    # Alternatives are frozen and compared by value; interning the
    # decoded ones keeps complex ops sharing one object, like the
    # original assignment did.
    interned: Dict[Tuple, Alternative] = {}
    for op_id, alternative_data in data["assignment"]["choice"]:
        alternative = _alternative_from_dict(alternative_data)
        key = (
            alternative.unit,
            alternative.op_name,
            alternative.covers,
            alternative.from_pattern,
        )
        choice[int(op_id)] = interned.setdefault(key, alternative)
    assignment = Assignment(
        choice=choice, cost=int(data["assignment"]["cost"])
    )

    graph_data = data["graph"]
    condition_read: Optional[ReadRef] = None
    if graph_data["condition_read"] is not None:
        condition_read = _read_from_list(graph_data["condition_read"])
    graph = TaskGraph.restore(
        sn,
        assignment,
        tasks=[_task_from_dict(t) for t in graph_data["tasks"]],
        next_task_id=int(graph_data["next_task_id"]),
        bus_load={
            str(name): int(load)
            for name, load in graph_data["bus_load"].items()
        },
        pinned={int(t) for t in graph_data["pinned"]},
        condition_read=condition_read,
        spill_count=int(graph_data["spill_count"]),
        reload_count=int(graph_data["reload_count"]),
    )

    solution = BlockSolution(
        machine_name=str(data["machine_name"]),
        sn=sn,
        assignment=assignment,
        graph=graph,
        schedule=[[int(t) for t in word] for word in data["schedule"]],
        register_estimate={
            str(bank): int(count)
            for bank, count in data["register_estimate"].items()
        },
        spill_count=int(data["spill_count"]),
        reload_count=int(data["reload_count"]),
        assignments_explored=int(data["assignments_explored"]),
        cpu_seconds=float(data["cpu_seconds"]),
    )
    # Structural sanity before the solution is handed to downstream
    # passes: a payload that parses but violates schedule invariants
    # (torn write, hand-edited entry) must read as a miss, never reach
    # emission.
    try:
        graph.validate()
        solution.validate()
    except Exception as error:  # noqa: BLE001 - AssertionError/CoverageError
        raise CodecError(f"decoded solution fails validation: {error}") from error
    # Cross-check against the *probed* DAG: a forged entry can carry a
    # matching key around a solution for some other block.  The decoded
    # tasks must cover exactly this DAG's operations and deliver exactly
    # its stores.
    covered = set()
    for task in graph.tasks.values():
        if task.kind is TaskKind.OP:
            covered.update(task.covers)
    if covered != set(dag.operation_nodes()):
        raise CodecError(
            "decoded tasks do not cover the probed DAG's operations"
        )
    delivered = sorted(
        task.store_symbol
        for task in graph.tasks.values()
        if task.store_symbol is not None and not task.is_spill
    )
    if delivered != sorted(dag.store_symbols()):
        raise CodecError(
            "decoded tasks do not deliver the probed DAG's stores"
        )
    return solution
