"""Heuristic configuration for the covering engine.

"AVIV incorporates multiple heuristics that can be turned off if
desired" (paper, Section VI).  Table I's parenthesised columns are the
same engine with :meth:`HeuristicConfig.heuristics_off`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class HeuristicConfig:
    """Tunable knobs of the covering engine.

    Attributes:
        assignment_pruning: prune the functional-unit-assignment search
            at each split node to the minimum-incremental-cost
            alternatives (Fig. 6's "X" marks).  Off = keep every
            alternative at every node.
        num_assignments: how many lowest-cost complete assignments to
            explore in depth ("select several lowest cost assignments").
            ``None`` = explore all complete assignments found.
        frontier_limit: safety cap on simultaneously-open partial
            assignments during exploration (lowest accumulated cost
            kept).  ``None`` = unbounded.
        level_window: the IV-C.2 clique-reduction heuristic — two nodes
            may only be grouped when both their level-from-top and
            level-from-bottom differ by at most this much.  ``None`` =
            heuristic off (all pairwise-parallel nodes may merge).
        lookahead: break covering ties with the estimated number of
            cliques still required (IV-D).  Off = first-found wins.
        branch_and_bound: abandon covering an assignment as soon as its
            instruction count so far, plus a floor on the cycles its
            uncovered tasks still need, reaches the best complete
            solution so far.
        max_spills: hard cap on spill insertions per assignment, to turn
            pathological register starvation into an error instead of an
            unbounded loop.
        max_cliques: budget for maximal-clique enumeration per covering
            round (the paper's "most time consuming portion"); when
            exceeded, covering proceeds with the cliques found so far
            plus singletons.  ``None`` = unbounded.
        register_aware_assignment: the paper's stated ongoing work —
            "modifying the initial functional unit assignment cost
            function to incorporate register resource limits so that it
            can detect assignments that are likely to require spills".
            When on, binding an operation to a unit whose register bank
            is already oversubscribed by the partial assignment incurs
            ``spill_penalty`` per excess value.
        spill_penalty: cost units charged per value expected to exceed a
            register bank's capacity (only with
            ``register_aware_assignment``).
    """

    assignment_pruning: bool = True
    num_assignments: Optional[int] = 8
    frontier_limit: Optional[int] = 128
    level_window: Optional[int] = 2
    lookahead: bool = True
    branch_and_bound: bool = True
    max_spills: int = 64
    max_cliques: Optional[int] = 20_000
    register_aware_assignment: bool = False
    spill_penalty: int = 2

    @classmethod
    def default(cls) -> "HeuristicConfig":
        """The configuration used for the paper's headline columns."""
        return cls()

    @classmethod
    def heuristics_off(cls, frontier_limit: Optional[int] = None) -> "HeuristicConfig":
        """Exhaustive assignment exploration, no clique reduction.

        This mirrors Table I's parenthesised runs: all split-node
        assignments are generated and explored, and the level-window
        clique heuristic is disabled.  Note (as the paper does) that this
        still "does not result in an exact algorithm ... since we do not
        explore all possible schedules".
        """
        return cls(
            assignment_pruning=False,
            num_assignments=None,
            frontier_limit=frontier_limit,
            level_window=None,
            lookahead=True,
            branch_and_bound=True,
        )

    def with_(self, **changes) -> "HeuristicConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
