"""Small deterministic graph algorithms used across the library.

All functions operate on adjacency mappings ``{node: iterable_of_successors}``
with hashable nodes.  Iteration order of the input mapping determines tie
breaking, so callers that need reproducible results should pass dicts with
stable key order (every graph in this library does).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Set, TypeVar

from repro.errors import IRError

N = TypeVar("N", bound=Hashable)

Adjacency = Mapping[N, Iterable[N]]


def reachable_from(adjacency: Adjacency, roots: Iterable[N]) -> Set[N]:
    """Return the set of nodes reachable from ``roots`` (inclusive)."""
    seen: Set[N] = set()
    stack: List[N] = list(roots)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adjacency.get(node, ()))
    return seen


def topological_order(adjacency: Adjacency) -> List[N]:
    """Kahn topological sort over all keys of ``adjacency``.

    Edges point from a node to its successors; the returned list places
    every node before all of its successors.  Raises :class:`IRError` if
    the graph has a cycle.
    """
    indegree: Dict[N, int] = {node: 0 for node in adjacency}
    for node in adjacency:
        for succ in adjacency[node]:
            if succ not in indegree:
                indegree[succ] = 0
            indegree[succ] += 1
    ready = [node for node in indegree if indegree[node] == 0]
    order: List[N] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for succ in adjacency.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != len(indegree):
        raise IRError("graph contains a cycle; topological order undefined")
    return order


def transitive_closure(adjacency: Adjacency) -> Dict[N, Set[N]]:
    """Return ``{node: set_of_all_descendants}`` (node excluded).

    Computed in reverse topological order so each node's closure is the
    union of its successors' closures — O(V·E) set unions, fine at the
    basic-block scales this library works with.
    """
    order = topological_order(adjacency)
    closure: Dict[N, Set[N]] = {}
    for node in reversed(order):
        descendants: Set[N] = set()
        for succ in adjacency.get(node, ()):
            descendants.add(succ)
            descendants |= closure[succ]
        closure[node] = descendants
    return closure


def descendant_masks(
    adjacency: Adjacency, positions: Mapping[N, int]
) -> Dict[N, int]:
    """Bitmask transitive closure: ``{node: mask_of_all_descendants}``.

    Like :func:`transitive_closure` but with each node's descendant set
    encoded as an int whose bit ``positions[d]`` is set for every
    descendant ``d`` (node excluded).  Unions become single ``|=`` ops on
    machine-word-packed ints, which is what makes the parallelism rows
    cheap to build.
    """
    order = topological_order(adjacency)
    masks: Dict[N, int] = {}
    for node in reversed(order):
        mask = 0
        for succ in adjacency.get(node, ()):
            mask |= masks[succ] | (1 << positions[succ])
        masks[node] = mask
    return masks


def longest_path_lengths(adjacency: Adjacency) -> Dict[N, int]:
    """Longest path (in edges) from each node to any sink.

    Sinks get 0.  This is the "level from the bottom" used by the clique
    level-window heuristic (paper, Section IV-C.2).
    """
    order = topological_order(adjacency)
    length: Dict[N, int] = {}
    for node in reversed(order):
        succs = list(adjacency.get(node, ()))
        length[node] = 0 if not succs else 1 + max(length[s] for s in succs)
    return length
