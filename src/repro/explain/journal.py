"""The decision journal: a structured record of *why* the search chose.

The covering search makes a handful of consequential decision kinds —
beam keep/prune during assignment exploration (paper, Fig. 6), transfer
path selection (IV-B), clique selection per covering step with its
lookahead tie-break (IV-D), constraint-driven clique splits (IV-C.3),
and spill-victim ranking (Fig. 9).  Telemetry counters say how *often*
each fired; a :class:`DecisionJournal` records each occurrence with the
losing candidates and their scores, so a schedule can be audited
decision by decision.

A journal rides on a :class:`repro.telemetry.TelemetrySession`
(``TelemetrySession(journal=DecisionJournal())``); instrumented code
reaches it through ``current().journal`` and guards every payload
construction with ``journal.enabled``, so the default
:data:`repro.telemetry.session.NULL_JOURNAL` costs one attribute load
and a branch.  Everything recorded is deterministic — plain ints,
strings, and sorted lists, never wall-clock times or set iteration
order — so two compiles of the same input produce byte-identical
journals.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: Every decision kind a journal entry may carry, with the paper section
#: the decision implements (see ``docs/observability.md``).
DECISION_KINDS = frozenset(
    {
        "assignment.bind",  # split-node alternatives kept/pruned (Fig. 6)
        "assignment.beam",  # frontier truncated to the beam limit
        "assignment.select",  # complete assignments ranked and selected
        "transfer.path",  # transfer path chosen among minimal paths (IV-B)
        "cover.attempt",  # one assignment entered detailed covering
        "cover.outcome",  # how that covering ended
        "cover.step",  # clique selected for one cycle, with losers (IV-D)
        "cover.stall",  # stall NOP inserted for in-flight results
        "cover.spill",  # spill victim ranked and chosen (Fig. 9)
        "clique.split",  # clique split to satisfy an ISDL constraint
        "block.solution",  # the winning assignment for the block
    }
)


class DecisionJournal:
    """An append-only, deterministic record of search decisions.

    Entries are plain dicts with a fixed shape::

        {"seq": 0, "kind": "cover.step", "block": "entry",
         "attempt": 0, "strategy": "consumer", "data": {...}}

    ``block``/``attempt``/``strategy`` are scope fields stamped from the
    markers the engine and asmgen layers set (``begin_block`` /
    ``begin_attempt``); they are ``None`` outside any scope.  ``data``
    is the kind-specific payload, JSON-safe by construction.
    """

    enabled = True

    def __init__(self) -> None:
        self.entries: List[Dict[str, Any]] = []
        self._seq = 0
        self._block: Optional[str] = None
        self._attempt: Optional[int] = None
        self._strategy: Optional[str] = None

    # -- scope markers ---------------------------------------------------

    def begin_block(self, name: str) -> None:
        """Subsequent entries belong to basic block ``name``."""
        self._block = name
        self._attempt = None
        self._strategy = None

    def end_block(self) -> None:
        """Close the current block scope."""
        self._block = None
        self._attempt = None
        self._strategy = None

    def begin_attempt(self, index: int, strategy: str) -> None:
        """Subsequent entries belong to covering attempt ``index`` under
        the given spill-focus ``strategy``."""
        self._attempt = index
        self._strategy = strategy

    def end_attempt(self) -> None:
        """Close the current attempt scope (stay inside the block)."""
        self._attempt = None
        self._strategy = None

    # -- recording -------------------------------------------------------

    def emit(self, kind: str, **data: Any) -> None:
        """Append one decision record under the current scope."""
        self.entries.append(
            {
                "seq": self._seq,
                "kind": kind,
                "block": self._block,
                "attempt": self._attempt,
                "strategy": self._strategy,
                "data": data,
            }
        )
        self._seq += 1

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def by_kind(self) -> Dict[str, int]:
        """Entry count per decision kind (sorted keys)."""
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry["kind"]] = counts.get(entry["kind"], 0) + 1
        return {kind: counts[kind] for kind in sorted(counts)}

    def block_entries(self, block: Optional[str]) -> List[Dict[str, Any]]:
        """All entries recorded under the given block scope."""
        return [e for e in self.entries if e["block"] == block]
