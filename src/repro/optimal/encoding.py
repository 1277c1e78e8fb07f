"""Lowering one functional-unit assignment to boolean constraints.

The optimal backend searches the same space as the covering engine —
per-assignment spill-free schedules of the materialised
:class:`~repro.covering.taskgraph.TaskGraph` — but exhaustively: a SAT
model *is* a schedule, and UNSAT at makespan ``L`` *proves* no schedule
of length ``<= L`` exists under that assignment.

Variables (per task ``t`` with CP-pruned issue window ``[est, lst]``):

``x[t,c]``
    task ``t`` issues at cycle ``c`` (exactly one per task).
``issued[t,c]``
    the ladder ``issue(t) <= c`` — made *exact* (``issued[t,c] ->
    issued[t,c-1] or x[t,c]``) so it can serve three masters: at-most-one
    issue per task, dependence ordering, and live-range tracking.
``live[t,c]``
    delivery ``t`` occupies a register of its bank at the end of cycle
    ``c`` — forced true exactly when the checker's recomputed live range
    (:func:`repro.verify.checker._check_banks` semantics) covers ``c``.

Constraints:

1. exactly one issue cycle per task (ladder encoding);
2. dependence ordering with latencies: ``x[t,c] -> issued[d, c - L(d)]``;
3. per-cycle resource exclusivity (unit / bus slots, paper Section IV-C);
4. ISDL "never" constraints: per cycle, one matched-term indicator per
   constraint term, and not all terms may match (paper Section III);
5. register-bank occupancy: per bank and cycle, at most ``size`` live
   deliveries (sequential-counter cardinality);
6. pinned branch conditions reserve their bank through block end and
   extend the makespan by their latency.

Makespan minimisation happens *outside* the encoding: the driver builds
one encoding at the entry horizon and tightens the bound with
**assumptions only** — the assumption for "length <= L" is the
conjunction of ladder literals ``issued[t, L - need(t)]``, so learned
clauses survive every tightening step (iterative UNSAT-tightening).

Honesty notes (also in ``docs/optimality.md``): transfer-path selection
inside an assignment follows the TaskGraph's deterministic
least-congested choice, and spilled schedules are not enumerated — the
same scope as the test-only branch-and-bound oracle
(``tests/branch_and_bound.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.covering.taskgraph import TaskGraph, TaskKind
from repro.optimal.solver import (
    BoundsPropagator,
    CDCLSolver,
    add_at_most_k,
    add_at_most_one,
)


class AssignmentEncoding:
    """SAT encoding of "this assignment schedules in ``<= horizon``
    cycles", supporting assumption-based tightening to any smaller
    bound."""

    def __init__(self, graph: TaskGraph, horizon: int) -> None:
        self.graph = graph
        self.horizon = horizon
        self.solver = CDCLSolver()
        self.infeasible = False
        self.lower_bound = 0
        #: inclusive issue windows after CP propagation.
        self.windows: Dict[int, Tuple[int, int]] = {}
        self._x: Dict[int, Dict[int, int]] = {}
        self._issued: Dict[int, Dict[int, int]] = {}
        #: constant-true literal (a fixed variable), for window edges.
        self._true = self.solver.new_var()
        self.solver.add_clause([self._true])
        self._consumers = {
            t: graph.consumers_of(t) for t in graph.task_ids()
        }
        if not self._propagate_windows():
            self.infeasible = True
            return
        self._build_issue_ladders()
        self._build_dependences()
        self._build_resource_exclusivity()
        self._build_isdl_constraints()
        self._build_bank_occupancy()

    # ------------------------------------------------------------------
    # CP layer: prune windows before building any clause
    # ------------------------------------------------------------------

    def _span(self, task_id: int) -> int:
        """Trailing cycles the task's issue reserves against the horizon
        (pinned deliveries must also *complete* inside the block)."""
        if task_id in self.graph.pinned:
            return self.graph.latency(task_id)
        return 1

    def _propagate_windows(self) -> bool:
        graph = self.graph
        cp = BoundsPropagator(self.horizon)
        for task_id in graph.task_ids():
            cp.add_task(
                task_id,
                resource=graph.tasks[task_id].resource,
                span=self._span(task_id),
            )
        for task_id in graph.task_ids():
            for dep in graph.tasks[task_id].dependencies():
                cp.add_arc(dep, task_id, graph.latency(dep))
        if not cp.propagate():
            return False
        self.lower_bound = cp.lower_bound()
        for task_id in graph.task_ids():
            self.windows[task_id] = cp.window(task_id)
        return True

    # ------------------------------------------------------------------
    # Literal accessors (constants folded at the window edges)
    # ------------------------------------------------------------------

    def issued_lit(self, task_id: int, cycle: int) -> int:
        """Literal for ``issue(t) <= cycle`` (constant at the edges)."""
        est, lst = self.windows[task_id]
        if cycle < est:
            return -self._true
        if cycle >= lst:
            return self._true
        return self._issued[task_id][cycle]

    def _add(self, lits: List[int]) -> None:
        """Add a clause, folding the constant-true variable away."""
        if self._true in lits:
            return
        reduced = [l for l in lits if l != -self._true]
        if not self.solver.add_clause(reduced):
            self.infeasible = True

    # ------------------------------------------------------------------
    # Constraint builders
    # ------------------------------------------------------------------

    def _build_issue_ladders(self) -> None:
        for task_id, (est, lst) in sorted(self.windows.items()):
            xs = {
                c: self.solver.new_var() for c in range(est, lst + 1)
            }
            self._x[task_id] = xs
            ladder = {
                c: self.solver.new_var() for c in range(est, lst)
            }
            self._issued[task_id] = ladder
            # At least one issue cycle.
            self._add([xs[c] for c in range(est, lst + 1)])
            for c in range(est, lst + 1):
                below = self.issued_lit(task_id, c - 1)
                here = self.issued_lit(task_id, c)
                # x -> issued, monotone chain, and exactness
                # (issued[c] -> issued[c-1] or x[c]).
                self._add([-xs[c], here])
                self._add([-below, here])
                self._add([-here, below, xs[c]])
                # At most one issue: x[c] forbids any earlier issue.
                self._add([-xs[c], -below])

    def _build_dependences(self) -> None:
        graph = self.graph
        for task_id in graph.task_ids():
            for dep in graph.tasks[task_id].dependencies():
                delay = graph.latency(dep)
                for c, x in self._x[task_id].items():
                    self._add([-x, self.issued_lit(dep, c - delay)])

    def _build_resource_exclusivity(self) -> None:
        graph = self.graph
        by_resource: Dict[str, List[int]] = {}
        for task_id in graph.task_ids():
            by_resource.setdefault(
                graph.tasks[task_id].resource, []
            ).append(task_id)
        for resource, members in sorted(by_resource.items()):
            if len(members) < 2:
                continue
            for cycle in range(self.horizon):
                lits = [
                    self._x[t][cycle]
                    for t in members
                    if cycle in self._x[t]
                ]
                add_at_most_one(self.solver, lits)

    def _build_isdl_constraints(self) -> None:
        """Per cycle, forbid any word matching every term of a "never"
        constraint — the exact semantics of the independent checker:
        a term matches when *some* slot carries the named resource (and
        op, unless the term op is the wildcard)."""
        graph = self.graph
        for constraint in graph.machine.constraints:
            candidates: List[List[int]] = []
            for term in constraint.terms:
                matching = [
                    t
                    for t in graph.task_ids()
                    if self._term_matches(t, term.resource, term.op_name)
                ]
                candidates.append(matching)
            if any(not group for group in candidates):
                continue  # some term can never match: constraint is moot
            for cycle in range(self.horizon):
                term_lits: List[int] = []
                feasible = True
                for group in candidates:
                    xs = [
                        self._x[t][cycle]
                        for t in group
                        if cycle in self._x[t]
                    ]
                    if not xs:
                        feasible = False
                        break
                    if len(xs) == 1:
                        term_lits.append(xs[0])
                    else:
                        matched = self.solver.new_var()
                        for x in xs:
                            self._add([-x, matched])
                        term_lits.append(matched)
                if not feasible:
                    continue
                self._add([-lit for lit in term_lits])

    def _term_matches(self, task_id: int, resource: str, op_name: str) -> bool:
        task = self.graph.tasks[task_id]
        if task.resource != resource:
            return False
        if op_name == "*":
            return True
        return task.kind is TaskKind.OP and task.op_name == op_name

    def _build_bank_occupancy(self) -> None:
        """Checker-exact live ranges + per-cycle cardinality.

        A delivery is live at (the end of) cycle ``c`` when it has
        issued by ``c`` and its last consumer has not (dead results:
        through issue + latency; pinned conditions: through block end).
        """
        graph = self.graph
        sizes = {rf.name: rf.size for rf in graph.machine.register_files}
        deliveries: Dict[str, List[int]] = {}
        for task_id in graph.register_deliveries():
            deliveries.setdefault(
                graph.tasks[task_id].dest_storage, []
            ).append(task_id)
        live: Dict[Tuple[int, int], int] = {}
        for bank, members in sorted(deliveries.items()):
            capacity = sizes[bank]
            if len(members) <= capacity:
                continue  # the bank can hold every delivery at once
            for t in members:
                est, _ = self.windows[t]
                consumers = self._consumers[t]
                pinned = t in self.graph.pinned
                latency = graph.latency(t)
                for c in range(est, self.horizon):
                    var = self.solver.new_var()
                    live[(t, c)] = var
                    issued_t = self.issued_lit(t, c)
                    if pinned:
                        # Pinned: live from issue through block end.
                        self._add([-issued_t, var])
                        continue
                    if not consumers:
                        # Dead result: live for `latency` cycles.
                        self._add(
                            [
                                -issued_t,
                                self.issued_lit(t, c - latency),
                                var,
                            ]
                        )
                        continue
                    for u in consumers:
                        # Consumer not yet issued at c => still live.
                        self._add(
                            [-issued_t, self.issued_lit(u, c), var]
                        )
            for cycle in range(self.horizon):
                lits = [
                    live[(t, cycle)]
                    for t in members
                    if (t, cycle) in live
                ]
                add_at_most_k(self.solver, lits, capacity)

    # ------------------------------------------------------------------
    # Solving and decoding
    # ------------------------------------------------------------------

    def assumptions_for(self, length: int) -> Optional[List[int]]:
        """Assumption literals forcing schedule length ``<= length``;
        ``None`` when some task provably cannot fit (trivially UNSAT)."""
        assumptions: List[int] = []
        for task_id in sorted(self.windows):
            limit = length - self._span(task_id)
            lit = self.issued_lit(task_id, limit)
            if lit == -self._true:
                return None
            if lit == self._true:
                continue
            assumptions.append(lit)
        return assumptions

    def solve(
        self, length: int, conflict_budget: Optional[int] = None
    ) -> Optional[bool]:
        """SAT/UNSAT/budget-exhausted for "schedules in <= length"."""
        if self.infeasible:
            return False
        if length < self.lower_bound:
            return False
        assumptions = self.assumptions_for(length)
        if assumptions is None:
            return False
        return self.solver.solve(assumptions, conflict_budget)

    def schedule_from_model(self) -> Dict[int, int]:
        """``task id -> issue cycle`` decoded from the current model."""
        cycle_of: Dict[int, int] = {}
        for task_id, xs in self._x.items():
            for cycle, var in xs.items():
                if self.solver.model_value(var):
                    cycle_of[task_id] = cycle
                    break
        return cycle_of

    def achieved_length(self, cycle_of: Dict[int, int]) -> int:
        """Block length implied by a decoded schedule."""
        if not cycle_of:
            return 0
        return max(
            cycle + self._span(task_id)
            for task_id, cycle in cycle_of.items()
        )
