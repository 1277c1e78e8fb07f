"""Exploring split-node functional-unit assignments (paper, Section IV-A).

The number of complete assignments grows multiplicatively with the block
size, so the search is pruned with an *incremental cost* charged when a
split node is bound to an alternative.  The cost captures the two factors
the paper names: data transfers the binding makes necessary, and
parallelism it forgoes.

Split nodes are bound "in order of increasing level from the top of the
Split-Node DAG"; at each node, only minimum-incremental-cost alternatives
survive (Fig. 6's pruning) unless pruning is disabled, and finally the
``num_assignments`` cheapest complete assignments are selected for
in-depth covering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.dag import BlockDAG
from repro.ir.ops import Opcode, is_leaf
from repro.isdl.model import Machine
from repro.covering.config import HeuristicConfig
from repro.sndag.build import SplitNodeDAG
from repro.sndag.nodes import Alternative
from repro.telemetry.session import current as _telemetry
from repro.utils.graph import transitive_closure


@dataclass(frozen=True)
class Assignment:
    """A complete split-node covering assignment.

    ``choice`` maps each original operation id to the alternative that
    covers it.  Operations absorbed into a complex instruction map to the
    *root's* alternative (so every operation id is a key).
    """

    choice: Dict[int, Alternative]
    cost: int

    def unit_of(self, op_id: int) -> str:
        """Functional unit covering the given operation."""
        return self.choice[op_id].unit

    def covering_ops(self) -> List[Tuple[int, Alternative]]:
        """(root op id, alternative) pairs, one per emitted machine op."""
        seen: Set[int] = set()
        result: List[Tuple[int, Alternative]] = []
        for op_id in sorted(self.choice):
            alternative = self.choice[op_id]
            root = alternative.covers[0]
            if root not in seen:
                seen.add(root)
                result.append((root, alternative))
        return result

    def signature(self) -> Tuple[Tuple[int, str, str], ...]:
        """Hashable identity used to deduplicate assignments."""
        return tuple(
            (op_id, alt.unit, alt.op_name)
            for op_id, alt in sorted(self.choice.items())
        )


@dataclass
class _Partial:
    """A partial assignment open during exploration."""

    choice: Dict[int, Alternative]
    cost: int
    #: op ids absorbed by an already-chosen complex alternative
    absorbed: Set[int] = field(default_factory=set)
    #: unit -> op ids in ``choice`` that root their alternative there
    #: (``choice[x].covers[0] == x``): the ops occupying that unit.
    #: Derived from ``choice`` when not given; :meth:`extended` keeps it
    #: current, so ``choice`` must not be mutated afterwards.
    roots: Optional[Dict[str, Tuple[int, ...]]] = None

    def __post_init__(self) -> None:
        if self.roots is None:
            self.roots = {}
            for op_id, alternative in self.choice.items():
                if alternative.covers[0] == op_id:
                    self.roots[alternative.unit] = self.roots.get(
                        alternative.unit, ()
                    ) + (op_id,)

    def extended(
        self, alternative: Alternative, increment: int
    ) -> "_Partial":
        """A copy with ``alternative`` bound to every op it covers."""
        choice = dict(self.choice)
        roots = dict(self.roots)
        for covered_id in alternative.covers:
            previous = choice.get(covered_id)
            if previous is not None and previous.covers[0] == covered_id:
                roots[previous.unit] = tuple(
                    r for r in roots[previous.unit] if r != covered_id
                )
            choice[covered_id] = alternative
        root = alternative.covers[0]
        roots[alternative.unit] = roots.get(alternative.unit, ()) + (root,)
        absorbed = set(self.absorbed)
        absorbed.update(alternative.covers[1:])
        return _Partial(choice, self.cost + increment, absorbed, roots)


class _CostModel:
    """Computes the incremental cost of binding one split node."""

    def __init__(
        self, sn: SplitNodeDAG, config: Optional[HeuristicConfig] = None
    ):
        self.config = config or HeuristicConfig.default()
        self.sn = sn
        self.machine = sn.machine
        self.dag = sn.dag
        self.consumers = self.dag.consumers()
        # Dependence between operations: q depends on s if s is reachable
        # from q through operand edges.
        closure = transitive_closure(self.dag.adjacency())
        self._descendants = closure

    def independent(self, a: int, b: int) -> bool:
        """True when no dependence path connects the two original nodes."""
        return b not in self._descendants[a] and a not in self._descendants[b]

    def distance(self, source: str, destination: str) -> int:
        """Bus-hop distance between two storages.

        Answered straight from the transfer database's BFS distance
        table — the database caches per-source tables itself, so the
        local memo this model used to keep is gone.
        """
        return self.sn.transfer_db.distance(source, destination)

    def incremental_cost(
        self, partial: _Partial, op_id: int, alternative: Alternative
    ) -> int:
        """Transfers made necessary plus parallelism foregone (Fig. 6).

        - one unit of cost per bus hop needed to deliver this node's
          value to each already-assigned consumer (and to memory for each
          store consumer);
        - one unit per bus hop needed to load each *leaf* operand of the
          alternative from data memory;
        - one unit for each already-assigned, dependence-independent
          operation placed on the same unit (a grouping opportunity
          irrevocably lost).
        """
        machine = self.machine
        rf = machine.unit(alternative.unit).register_file
        cost = 0
        covered = set(alternative.covers)
        # Transfers to already-assigned consumers of the produced value.
        root = alternative.covers[0]
        for consumer_id in self.consumers.get(root, ()):  # users of root's value
            consumer = self.dag.node(consumer_id)
            if consumer.opcode is Opcode.STORE:
                cost += self.distance(rf, machine.data_memory)
                continue
            chosen = partial.choice.get(consumer_id)
            if chosen is None or consumer_id in covered:
                continue
            consumer_rf = machine.unit(chosen.unit).register_file
            cost += self.distance(rf, consumer_rf)
        # Loads for leaf operands of the alternative.
        operand_ids = self._operands_of(op_id, alternative)
        for operand_id in operand_ids:
            if is_leaf(self.dag.node(operand_id).opcode):
                cost += self.distance(machine.data_memory, rf)
        # Parallelism foregone against every already-assigned operation
        # on the same unit (only the root of a complex op occupies it).
        for other_id in partial.roots.get(alternative.unit, ()):
            if other_id in covered or other_id in partial.absorbed:
                continue
            if self.independent(other_id, root):
                cost += 1
        if self.config.register_aware_assignment:
            cost += self._register_penalty(partial, root, alternative)
        return cost

    def _register_penalty(
        self, partial: _Partial, root: int, alternative: Alternative
    ) -> int:
        """Penalty for likely spills (the paper's ongoing-work extension).

        Estimates how many values could be simultaneously live in the
        unit's register bank: this operation's result plus every value
        already produced on the same unit by an operation with no
        dependence path to this one (an independent producer's value may
        overlap ours).  Each value beyond the bank's capacity costs
        ``spill_penalty`` units, steering the beam away from assignments
        the covering step would have to rescue with loads and spills.
        """
        machine = self.machine
        bank_size = machine.rf_of_unit(alternative.unit).size
        overlapping = 1  # our own result
        for other_id in partial.roots.get(alternative.unit, ()):
            if other_id in partial.absorbed:
                continue
            if self.independent(other_id, root):
                overlapping += 1
        excess = overlapping - bank_size
        if excess <= 0:
            return 0
        return excess * self.config.spill_penalty

    def _operands_of(
        self, op_id: int, alternative: Alternative
    ) -> Tuple[int, ...]:
        if not alternative.from_pattern:
            return self.dag.node(op_id).operands
        # Complex alternative: external operands are those found by the
        # pattern matcher.
        for match in self.sn.pattern_matches:
            if (
                match.root == op_id
                and match.unit == alternative.unit
                and match.op.name == alternative.op_name
            ):
                return match.operands
        return self.dag.node(op_id).operands


def explore_assignments(
    sn: SplitNodeDAG, config: Optional[HeuristicConfig] = None
) -> List[Assignment]:
    """Enumerate complete assignments, cheapest first.

    With ``config.assignment_pruning`` the per-node minimum-incremental-
    cost rule prunes the search (Fig. 6); the returned list is truncated
    to ``config.num_assignments``.
    """
    config = config or HeuristicConfig.default()
    tm = _telemetry()
    jr = tm.journal
    with tm.span("covering.assignments", category="covering"):
        model = _CostModel(sn, config)
        dag = sn.dag
        # Level from the top: process shallow (root-side) nodes first.
        depth = dag.depth_from_roots()
        op_ids = sorted(
            sn.alternatives_of,
            key=lambda op_id: (depth[op_id], op_id),
        )
        # Search statistics accumulate in locals (one counter flush at
        # the end) so the hot loop stays probe-free.
        alternatives_scored = 0
        pruned_min_cost = 0
        beam_truncated = 0
        frontier: List[_Partial] = [_Partial(choice={}, cost=0)]
        for op_id in op_ids:
            next_frontier: List[_Partial] = []
            for partial_index, partial in enumerate(frontier):
                if op_id in partial.absorbed:
                    next_frontier.append(partial)
                    continue
                scored: List[Tuple[int, Alternative]] = []
                for alternative in sn.alternatives(op_id):
                    if any(c in partial.absorbed for c in alternative.covers):
                        continue
                    increment = model.incremental_cost(partial, op_id, alternative)
                    scored.append((increment, alternative))
                alternatives_scored += len(scored)
                if not scored:
                    continue  # no usable alternative under this partial
                best: Optional[int] = None
                if config.assignment_pruning:
                    best = min(increment for increment, _ in scored)
                    kept = [item for item in scored if item[0] == best]
                    pruned_min_cost += len(scored) - len(kept)
                else:
                    kept = scored
                if jr.enabled and len(scored) > 1:
                    jr.emit(
                        "assignment.bind",
                        op=op_id,
                        partial=partial_index,
                        alternatives=sorted(
                            (
                                {
                                    "unit": alt.unit,
                                    "op": alt.op_name,
                                    "cost": cost,
                                    "kept": best is None or cost == best,
                                }
                                for cost, alt in scored
                            ),
                            key=lambda a: (a["cost"], a["unit"], a["op"]),
                        ),
                    )
                scored = kept
                for increment, alternative in scored:
                    next_frontier.append(
                        partial.extended(alternative, increment)
                    )
            if config.frontier_limit is not None and len(next_frontier) > config.frontier_limit:
                next_frontier.sort(key=lambda p: p.cost)
                dropped = len(next_frontier) - config.frontier_limit
                beam_truncated += dropped
                if jr.enabled:
                    jr.emit(
                        "assignment.beam",
                        op=op_id,
                        limit=config.frontier_limit,
                        dropped=dropped,
                        kept_max_cost=next_frontier[config.frontier_limit - 1].cost,
                        dropped_min_cost=next_frontier[config.frontier_limit].cost,
                    )
                next_frontier = next_frontier[: config.frontier_limit]
            frontier = next_frontier
            if tm.enabled:
                tm.record("assign.beam_occupancy", len(frontier))
        complete = [
            Assignment(choice=partial.choice, cost=partial.cost)
            for partial in frontier
            if len(partial.choice) == len(sn.alternatives_of)
        ]
        complete.sort(key=lambda a: (a.cost, a.signature()))
        deduped: List[Assignment] = []
        seen: Set[Tuple] = set()
        for assignment in complete:
            signature = assignment.signature()
            if signature not in seen:
                seen.add(signature)
                deduped.append(assignment)
        if config.num_assignments is not None:
            deduped = deduped[: config.num_assignments]
        if jr.enabled:
            jr.emit(
                "assignment.select",
                complete=len(complete),
                selected=len(deduped),
                costs=[a.cost for a in deduped],
            )
    tm.count("assign.split_nodes_bound", len(op_ids))
    tm.count("assign.alternatives_scored", alternatives_scored)
    tm.count("assign.pruned_min_cost", pruned_min_cost)
    tm.count("assign.beam_truncated", beam_truncated)
    tm.count("assign.complete", len(complete))
    tm.count("assign.selected", len(deduped))
    return deduped
