"""Maximal-clique generation and instruction legality (paper, IV-C).

:func:`generate_maximal_clique_masks` enumerates the maximal cliques of
the parallelism graph (Fig. 8) over integer bitmask rows.  It runs
pivoting Bron–Kerbosch, and keeps the Fig. 8 recursion for the one case
where its traversal order matters: when the ``max_cliques`` budget is
reached.

:func:`legalize_clique_masks` implements IV-C.3: each proposed
instruction is compared with the ISDL constraints; an illegal grouping
is split into smaller cliques until every constraint is met.

Both return distinct masks in no promised order: no covering decision
reads it, so neither pays to sort.  Only the ``clique.split`` journal
sees the order, and legalization fixes it while the journal is on.

The paper-literal versions of both — the Fig. 8 recursion over a
conflict matrix and a pairwise subsumption filter — live on as a
test-only differential oracle in ``tests/reference_kernel.py``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.covering.taskgraph import Task, TaskGraph, TaskKind
from repro.errors import CoverageError
from repro.isdl.model import Constraint, Machine
from repro.telemetry.session import current as _telemetry
from repro.utils.bitset import bits, iter_bits, popcount


class _CliqueBudgetExceeded(Exception):
    """Internal: unwinds the recursion when ``max_cliques`` is hit."""


#: Cap on the ``visited`` memo of the Fig. 8 recursion.  The memo is
#: purely a time-saving prune (skipping re-expansion of a member set
#: already explored under a smaller-or-equal index), so on dense
#: matrices — where distinct member sets grow combinatorially — we stop
#: *inserting* new states past this many entries rather than let the
#: dict blow up memory.  Existing entries keep being consulted and
#: updated, so results are unchanged.
_VISITED_LIMIT = 1 << 18


def _enumerate_clique_masks(
    rows: Dict[int, int],
    budget: Optional[int],
    restrict: int = 0,
) -> Tuple[Set[int], bool, List[int]]:
    """Maximal cliques over integer bitmask rows, with Fig. 8's budget.

    ``rows`` maps each node to the mask of nodes it is parallel with
    (self bit clear).  Returns ``(found_masks, budget_tripped,
    [index_prunes, revisit_skips, fig8_fallbacks])``.

    Enumeration runs pivoting Bron–Kerbosch first
    (:func:`_pivot_clique_masks`).  Below ``budget`` the Fig. 8
    recursion cannot trip — it only ever holds maximal cliques — and the
    set of maximal cliques is unique, so the pivoting result *is* the
    Fig. 8 result.  When the pivoting count reaches the budget, which
    cliques survive depends on Fig. 8's traversal order, so the Fig. 8
    recursion (:func:`_fig8_clique_masks`) runs and alone decides the
    result; the Fig. 8 statistics are non-zero only then.

    A non-zero ``restrict`` keeps only the cliques intersecting it (both
    enumerations prune a branch once ``members | candidates`` misses
    it), which is what makes the post-spill incremental rebuild exact.
    """
    if budget is None or budget > 0:
        found = _pivot_clique_masks(rows, budget, restrict)
        if found is not None:
            return found, False, [0, 0, 0]
    found, tripped, stats = _fig8_clique_masks(rows, budget, restrict)
    return found, tripped, stats + [1]


def _pivot_clique_masks(
    rows: Dict[int, int], budget: Optional[int], restrict: int = 0
) -> Optional[Set[int]]:
    """Every maximal clique by Bron–Kerbosch with Tomita pivoting, or
    ``None`` as soon as the count reaches ``budget``.

    Each branch holds ``members`` (the clique so far), ``candidates``
    (nodes parallel with every member) and ``excluded`` (nodes parallel
    with every member whose cliques an earlier sibling already produced).
    Branching only on candidates *not* parallel with the pivot — the node
    of ``candidates | excluded`` with the most parallel candidates —
    reports every maximal clique exactly once.  Every clique reported
    below a branch lies inside ``members | candidates``, so a branch
    missing a non-zero ``restrict`` is cut without losing any clique
    that intersects it.
    """
    found: Set[int] = set()
    everything = 0
    for node in rows:
        everything |= 1 << node
    if not everything or (restrict and not everything & restrict):
        return found

    def expand(members: int, candidates: int, excluded: int) -> None:
        # ``candidates`` is non-empty and ``members | candidates`` meets
        # ``restrict`` (when set): the caller checked both.
        best = -1
        pivot_row = 0
        rest = candidates | excluded
        while rest:
            low = rest & -rest
            row = rows[low.bit_length() - 1] & candidates
            count = popcount(row)
            if count > best:
                best, pivot_row = count, row
            rest ^= low
        rest = candidates & ~pivot_row
        while rest:
            low = rest & -rest
            row = rows[low.bit_length() - 1]
            grown = members | low
            inside = candidates & row
            if restrict and not ((grown | inside) & restrict):
                pass
            elif inside:
                expand(grown, inside, excluded & row)
            elif not excluded & row:
                found.add(grown)  # nothing left to add or exclude: maximal
                if budget is not None and len(found) >= budget:
                    raise _CliqueBudgetExceeded
            candidates ^= low
            excluded |= low
            rest ^= low

    try:
        expand(0, everything, 0)
    except _CliqueBudgetExceeded:
        return None
    finally:
        # ``expand`` reaches itself through its closure; breaking that
        # cycle frees ``found`` with its last reference instead of at
        # the next garbage collection.
        del expand
    return found


def _fig8_clique_masks(
    rows: Dict[int, int],
    budget: Optional[int],
    restrict: int = 0,
) -> Tuple[Set[int], bool, List[int]]:
    """The Fig. 8 recursion over integer bitmask rows.

    Returns ``(found_masks, budget_tripped, [index_prunes,
    revisit_skips])``.  The traversal — seed order, the greedy absorb of
    the lowest non-precluding candidate, the ``i < index`` prune, the
    visited memo, and the budget check — follows the paper's pseudo-code
    step for step, which decides the result in the
    traversal-order-dependent budget-trip regime.

    A non-zero ``restrict`` prunes any branch that can no longer reach a
    clique intersecting it: every clique produced below a state is a
    subset of ``members | compatible``, and on any unrestricted path
    that produces a clique C, ``members ⊆ C ⊆ members | compatible``
    holds at every step — so the prune loses exactly the cliques
    disjoint from ``restrict`` and nothing else.
    """
    found: Set[int] = set()
    visited: Dict[int, int] = {}
    stats = [0, 0]  # index_prunes, revisit_skips

    def gen(members: int, compatible: int, index: int) -> None:
        if restrict and not ((members | compatible) & restrict):
            return
        seen_index = visited.get(members)
        if seen_index is not None and seen_index <= index:
            stats[1] += 1
            return
        if len(visited) < _VISITED_LIMIT or members in visited:
            visited[members] = index
        while True:
            if not compatible:
                if budget is not None and len(found) >= budget:
                    raise _CliqueBudgetExceeded
                found.add(members)
                return
            # First loop: absorb the lowest-numbered candidate that does
            # not preclude any other candidate.  ``compatible & ~rows[c]``
            # is the candidates *not* parallel with c (always including c
            # itself); equal to c's own bit means c precludes nothing.
            node = -1
            rest = compatible
            while rest:
                low = rest & -rest
                if compatible & ~rows[low.bit_length() - 1] == low:
                    node = low.bit_length() - 1
                    break
                rest ^= low
            if node < 0:
                break
            if node < index:
                stats[0] += 1
                return  # pruning condition (Fig. 8)
            members |= 1 << node
            compatible &= rows[node]
        # Second loop: branch on each remaining compatible node.
        rest = compatible
        while rest:
            low = rest & -rest
            node = low.bit_length() - 1
            gen(members | low, compatible & rows[node], max(node, index))
            rest ^= low

    tripped = False
    try:
        for seed in sorted(rows):
            gen(1 << seed, rows[seed], seed)
    except _CliqueBudgetExceeded:
        tripped = True
    finally:
        del gen  # as in _pivot_clique_masks: free ``visited`` now
    return found, tripped, stats


def generate_maximal_clique_masks(
    rows: Dict[int, int], max_cliques: Optional[int] = None
) -> List[int]:
    """All maximal cliques over bitmask parallelism rows (Fig. 8).

    Input rows come from
    :func:`repro.covering.parallelism.parallelism_masks` (task-id bit
    space); output cliques are distinct ints with one bit per member
    task, in no promised order.  Every node appears in at least one
    clique; a clique may contain a single node.

    ``max_cliques`` bounds the enumeration — the paper calls clique
    generation "the most time consuming portion of our algorithm".  When
    the budget trips, the cliques found so far are returned, topped up
    with singletons for any node not yet covered (so covering always has
    a usable candidate per node).
    """
    found, tripped, stats = _enumerate_clique_masks(rows, max_cliques)
    singleton_topups = 0
    if tripped:
        covered = 0
        for mask in found:
            covered |= mask
        for node in sorted(rows):
            if not (covered >> node) & 1:
                found.add(1 << node)
                singleton_topups += 1
    tm = _telemetry()
    if tm.enabled:
        tm.count("cliques.mask_kernel_calls", 1)
        tm.count("cliques.generation_calls", 1)
        tm.count("cliques.enumerated", len(found))
        tm.count("cliques.index_prunes", stats[0])
        tm.count("cliques.revisit_skips", stats[1])
        tm.count("cliques.fig8_fallbacks", stats[2])
        tm.count("cliques.budget_trips", 1 if tripped else 0)
        tm.count("cliques.singleton_topups", singleton_topups)
        tm.record("cliques.matrix_size", len(rows))
    return list(found)


def _matches_term(task: Task, resource: str, op_name: str) -> bool:
    if task.resource != resource:
        return False
    if op_name == "*":
        return True
    return task.kind is TaskKind.OP and task.op_name == op_name


def _violates(
    tasks: Dict[int, Task], clique: FrozenSet[int], constraint: Constraint
) -> List[List[int]]:
    """Per constraint term, the clique members matching it (empty list
    somewhere = constraint not violated)."""
    matches: List[List[int]] = []
    for term in constraint.terms:
        matched = [
            t
            for t in sorted(clique)
            if _matches_term(tasks[t], term.resource, term.op_name)
        ]
        if not matched:
            return []
        matches.append(matched)
    return matches


def is_legal_instruction(
    graph: TaskGraph, clique: FrozenSet[int], machine: Machine
) -> bool:
    """True when ``clique`` violates no ISDL constraint."""
    return all(
        not _violates(graph.tasks, clique, constraint)
        for constraint in machine.constraints
    )


def _raise_uncoverable(
    graph: TaskGraph, machine: Machine, missing: Set[int]
) -> None:
    """A task fell out of *every* legal clique: its singleton instruction
    violates a constraint, so no covering exists.  Raising here turns
    what would otherwise be an endless spill spiral ending in a
    misleading "register files too small" error into a precise one."""
    details = []
    for task_id in sorted(missing):
        task = graph.tasks[task_id]
        culprits = [
            str(constraint)
            for constraint in machine.constraints
            if _violates(graph.tasks, frozenset({task_id}), constraint)
        ]
        details.append(
            f"{task.describe()} (violates: {'; '.join(culprits) or '?'})"
        )
    raise CoverageError(
        f"no legal implementation on the assigned unit for "
        f"{len(missing)} task(s) — even as a single-operation "
        f"instruction each violates an ISDL constraint of machine "
        f"{machine.name!r}: " + "; ".join(details)
    )


def legalize_clique_masks(
    graph: TaskGraph, cliques: Sequence[int], machine: Machine
) -> List[int]:
    """Split illegal cliques until every instruction meets the
    constraints (IV-C.3), dropping results subsumed by larger cliques.

    Cliques are ints in task-id bit space; the result holds distinct
    masks in no promised order.  The legal set is the closure of the
    split rule over the input, whatever order the worklist takes, so
    only the journal sees that order: with the journal on, the worklist
    is first sorted by size descending, then members, so ``clique.split``
    events come out in one fixed order.  Raises :class:`CoverageError`
    when a task present in the input falls out of every legal clique
    (its singleton grouping already violates a constraint) — covering
    could never schedule it.
    """
    if not machine.constraints:
        return list(cliques)
    # One mask per constraint term: the tasks matching it.  A clique
    # violates a constraint when it intersects every term's mask.
    term_masks: List[List[int]] = []
    for constraint in machine.constraints:
        masks = []
        for term in constraint.terms:
            mask = 0
            for task_id, task in graph.tasks.items():
                if _matches_term(task, term.resource, term.op_name):
                    mask |= 1 << task_id
            masks.append(mask)
        term_masks.append(masks)
    jr = _telemetry().journal
    legal: Set[int] = set()
    work = list(cliques)
    if jr.enabled:
        work.sort(key=lambda m: (-popcount(m), bits(m)))
    seen: Set[int] = set()
    splits = 0
    while work:
        clique = work.pop()
        if clique in seen or not clique:
            continue
        seen.add(clique)
        violated: Optional[int] = None
        culprit: Optional[Constraint] = None
        for constraint, masks in zip(machine.constraints, term_masks):
            if all(clique & mask for mask in masks):
                breakers = 0
                for mask in masks:
                    breakers |= clique & mask
                violated = breakers
                culprit = constraint
                break
        if violated is None:
            legal.add(clique)
            continue
        splits += 1
        if jr.enabled:
            jr.emit(
                "clique.split",
                members=bits(clique),
                constraint=str(culprit),
                breakers=bits(violated),
            )
        for low in _low_bits(violated):
            work.append(clique & ~low)
    result = _drop_subsumed(legal)
    tm = _telemetry()
    if tm.enabled:
        tm.count("cliques.illegal_split", splits)
        tm.count("cliques.subsumed_discarded", len(legal) - len(result))
    requested = 0
    for clique in cliques:
        requested |= clique
    covered = 0
    for clique in result:
        covered |= clique
    if requested & ~covered:
        _raise_uncoverable(
            graph, machine, set(iter_bits(requested & ~covered))
        )
    return result


def _drop_subsumed(cliques: Set[int]) -> List[int]:
    """The cliques not strictly contained in another one.

    Walks the cliques largest-first: everything that could contain a
    clique is strictly larger and so already decided, and a clique
    contained in any other is contained in a kept (maximal) one.  So a
    clique is tested only against the kept cliques, through one mask per
    task whose bit *i* marks the *i*-th kept clique containing that task:
    the AND of its members' masks is non-zero exactly when some kept
    clique contains it.
    """
    kept: List[int] = []
    containing: Dict[int, int] = {}
    for clique in sorted(cliques, key=popcount, reverse=True):
        common = -1
        for task_id in iter_bits(clique):
            common &= containing.get(task_id, 0)
            if not common:
                break
        if common:
            continue
        flag = 1 << len(kept)
        kept.append(clique)
        for task_id in iter_bits(clique):
            containing[task_id] = containing.get(task_id, 0) | flag
    return kept


def _low_bits(mask: int) -> List[int]:
    """The isolated set bits of ``mask``, ascending (as one-bit masks)."""
    result = []
    while mask:
        low = mask & -mask
        result.append(low)
        mask ^= low
    return result
