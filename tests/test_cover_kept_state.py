"""The covering loop's kept state against fresh recomputation.

Two structures live across a whole cover instead of being rebuilt at
each decision: the lookahead tables (``cover._Lookahead``, committed per
clique and recounted after each spill) and the register tracker's
per-cycle mask view (``PressureTracker``).  Over the sweep of
``tests/test_cover_floor.py`` — the frozen fuzz corpus, every example ×
machine file, the paper workloads and the clique-heavy hot-path
workloads — each answer they give is held against a from-scratch one:

- at every lookahead tie, the kept tables estimate each top candidate
  exactly as tables built fresh over the uncovered set do;
- at every cycle, mask feasibility and the blocked banks of every
  candidate equal the set-based oracle in ``tests/reference_kernel.py``.
"""

from __future__ import annotations

import repro.covering.cover as cover
from repro.covering.pressure import PressureTracker
from repro.utils.bitset import iter_bits

import reference_kernel as oracle
from test_cover_floor import _solve_sweep


def test_kept_lookahead_estimates_like_a_fresh_one(monkeypatch):
    base = cover._Lookahead
    #: id(graph) -> the running cover's covered set (updated in place)
    covered_of = {}
    estimates = []

    reset = cover._ReadyState.reset

    def seen_reset(state, graph, covered, issue_cycle, now):
        covered_of[id(graph)] = covered
        reset(state, graph, covered, issue_cycle, now)

    class Kept(base):
        def estimate(self, members):
            kept = super().estimate(members)
            uncovered = set(self.graph.tasks) - covered_of[id(self.graph)]
            assert kept == base(self.graph, uncovered).estimate(members)
            estimates.append(kept)
            return kept

    monkeypatch.setattr(cover._ReadyState, "reset", seen_reset)
    monkeypatch.setattr(cover, "_Lookahead", Kept)
    _solve_sweep()
    assert len(estimates) > 10000


def test_mask_feasibility_equals_the_set_oracle(monkeypatch):
    feasible = PressureTracker.feasible
    blocked_banks = PressureTracker.blocked_banks
    calls = {"feasible": 0, "blocked": 0, "infeasible": 0}

    def checked_feasible(tracker, clique):
        answer = feasible(tracker, clique)
        members = set(iter_bits(clique))
        assert answer == oracle.feasible(tracker, members)
        calls["feasible"] += 1
        calls["infeasible"] += not answer
        return answer

    def checked_blocked_banks(tracker, clique):
        answer = blocked_banks(tracker, clique)
        members = set(iter_bits(clique))
        assert answer == oracle.blocked_banks(tracker, members)
        calls["blocked"] += 1
        return answer

    monkeypatch.setattr(PressureTracker, "feasible", checked_feasible)
    monkeypatch.setattr(PressureTracker, "blocked_banks", checked_blocked_banks)
    _solve_sweep()
    assert calls["feasible"] > 50000
    assert calls["infeasible"] > 10000
    assert calls["blocked"] > 10000
