"""The pairwise-parallelism relation (paper, Section IV-C.1, Fig. 7).

The paper's matrix holds 0 where tasks i and j can execute in the same
instruction and 1 otherwise; here each task's row is an integer bitmask
of the tasks it is parallel with.  Two tasks conflict when they share a
resource (the same functional unit or the same bus) or when a dependence
path connects them.  The optional level-window heuristic (IV-C.2)
additionally marks pairs whose levels from the top/bottom of the
assignment's task DAG differ too much, which shrinks the clique space.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.covering.taskgraph import TaskGraph
from repro.utils.graph import descendant_masks, longest_path_lengths


def task_levels(
    graph: TaskGraph, task_ids: List[int]
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """(level from top, level from bottom) of each task.

    Levels are longest-path distances in the dependence DAG restricted to
    ``task_ids``: bottom = toward producers, top = toward final
    consumers.
    """
    members = set(task_ids)
    down: Dict[int, List[int]] = {
        t: [d for d in graph.tasks[t].dependencies() if d in members]
        for t in task_ids
    }
    up: Dict[int, List[int]] = {t: [] for t in task_ids}
    for task_id in task_ids:
        for dependency in down[task_id]:
            up[dependency].append(task_id)
    from_bottom = longest_path_lengths(down)
    from_top = longest_path_lengths(up)
    return from_top, from_bottom


def parallelism_masks(
    graph: TaskGraph,
    task_ids: Optional[List[int]] = None,
    level_window: Optional[int] = None,
) -> Dict[int, int]:
    """The parallel relation as integer bitmasks in *task-id* space.

    Returns ``{task_id: row}`` where bit ``t`` of ``row`` is set exactly
    when the two tasks are parallel (a 0 in the paper's matrix).  Bits
    of tasks outside ``task_ids`` — and the diagonal — are never set, so
    ``row & full`` is a no-op and clique masks stay inside the working
    set.

    Resource conflicts come from one OR per resource group, dependence
    conflicts from bitmask transitive closures (both directions), and
    the level-window heuristic from per-level bucket masks with prefix
    ORs — no Python pair loop.
    """
    if task_ids is None:
        task_ids = graph.task_ids()
    full = 0
    for task_id in task_ids:
        full |= 1 << task_id
    members = set(task_ids)
    position = {t: t for t in task_ids}
    adjacency = {
        t: [d for d in graph.tasks[t].dependencies() if d in members]
        for t in task_ids
    }
    reverse: Dict[int, List[int]] = {t: [] for t in task_ids}
    for task_id in task_ids:
        for dependency in adjacency[task_id]:
            reverse[dependency].append(task_id)
    descendants = descendant_masks(adjacency, position)
    ancestors = descendant_masks(reverse, position)
    by_resource: Dict[str, int] = {}
    for task_id in task_ids:
        resource = graph.tasks[task_id].resource
        by_resource[resource] = by_resource.get(resource, 0) | (1 << task_id)
    allowed_top: Dict[int, int] = {}
    allowed_bottom: Dict[int, int] = {}
    if level_window is not None:
        from_top, from_bottom = task_levels(graph, task_ids)
        for levels, allowed in (
            (from_top, allowed_top),
            (from_bottom, allowed_bottom),
        ):
            top = max(levels[t] for t in task_ids) if task_ids else 0
            buckets = [0] * (top + 1)
            for task_id in task_ids:
                buckets[levels[task_id]] |= 1 << task_id
            prefix = [0] * (top + 2)  # prefix[l+1] = OR of levels <= l
            for level in range(top + 1):
                prefix[level + 1] = prefix[level] | buckets[level]
            for task_id in task_ids:
                level = levels[task_id]
                high = prefix[min(level + level_window, top) + 1]
                low = prefix[max(level - level_window, 0)]
                allowed[task_id] = high & ~low
    rows: Dict[int, int] = {}
    for task_id in task_ids:
        conflict = (
            by_resource[graph.tasks[task_id].resource]
            | descendants[task_id]
            | ancestors[task_id]
            | (1 << task_id)
        )
        row = full & ~conflict
        if level_window is not None:
            row &= allowed_top[task_id] & allowed_bottom[task_id]
        rows[task_id] = row
    return rows
