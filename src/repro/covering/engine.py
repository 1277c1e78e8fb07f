"""The overall covering driver (paper, Fig. 5).

    Explore possible split-node functional unit assignments
      - estimate cost of assignment
      - select several lowest cost assignments to explore in detail
    For each selected assignment
      - insert required data transfers
      - generate all maximal groupings of nodes executable in parallel
      - select a minimal-cost set of maximal groupings covering all nodes
    Final solution is the lowest-cost solution found above

:func:`generate_block_solution` runs this pipeline for one basic-block
DAG; :class:`CodeGenerator` adds convenience and caching around it.
"""

from __future__ import annotations

import copy
import hashlib
import os
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.errors import CoverageError
from repro.ir.cfg import BasicBlock, Branch
from repro.ir.dag import BlockDAG
from repro.isdl.model import Machine
from repro.covering.assignment import explore_assignments
from repro.covering.config import HeuristicConfig
from repro.covering.cover import cover_assignment
from repro.covering.solution import BlockSolution
from repro.covering.taskgraph import TaskGraph
from repro.sndag.build import SplitNodeDAG, build_split_node_dag
from repro.telemetry.clock import Stopwatch
from repro.telemetry.session import current as _telemetry

if TYPE_CHECKING:  # imported lazily at runtime: serve depends on covering
    from repro.serve.cache import BlockCache


#: Memo key: (DAG fingerprint, machine fingerprint, config, pin_value).
_MemoKey = Tuple[str, str, HeuristicConfig, Optional[int]]

#: Entries kept per memo before the least recently used are evicted.
_MEMO_CAPACITY = 256


def machine_fingerprint(machine: Machine) -> str:
    """Stable content hash of a machine description.

    Hashes the canonical ISDL rendering, so two `Machine` objects that
    describe the same processor — regardless of identity — share block
    solutions.  Cached on the instance: machines are immutable in
    practice once built.
    """
    cached = getattr(machine, "_isdl_fingerprint", None)
    if cached is None:
        from repro.isdl.writer import machine_to_isdl

        cached = hashlib.sha256(machine_to_isdl(machine).encode()).hexdigest()
        machine._isdl_fingerprint = cached
    return cached


def _clone_solution(solution: BlockSolution) -> BlockSolution:
    """Deep copy of a memoized solution, sharing the immutable parts.

    Downstream passes mutate solutions — peephole deletes tasks from
    ``solution.graph.tasks`` and reassigns ``solution.schedule`` — so a
    memo hit must hand out a private copy.  The Split-Node DAG, machine,
    source DAG, and assignment are never mutated, so they are pre-seeded
    into the deepcopy memo and stay shared.
    """
    shared = {
        id(solution.sn): solution.sn,
        id(solution.assignment): solution.assignment,
        id(solution.graph.machine): solution.graph.machine,
    }
    dag = getattr(solution.sn, "dag", None)
    if dag is not None:
        shared[id(dag)] = dag
    return copy.deepcopy(solution, shared)


def generate_block_solution(
    dag: BlockDAG,
    machine: Machine,
    config: Optional[HeuristicConfig] = None,
    pin_value: Optional[int] = None,
    sn: Optional[SplitNodeDAG] = None,
    memo: Optional[Dict[_MemoKey, BlockSolution]] = None,
    disk_cache: Optional["BlockCache"] = None,
) -> BlockSolution:
    """Produce the lowest-cost covering of one basic-block DAG.

    Args:
        dag: the block to compile.
        machine: the target processor.
        config: heuristic settings (default: the paper's headline mode).
        pin_value: original-DAG id of a value that must remain register-
            resident at block end (a branch condition).
        sn: a pre-built Split-Node DAG, if the caller already has one.
        memo: optional block-solution cache keyed by (DAG fingerprint,
            machine fingerprint, config, pin_value); repeated blocks
            compile once and hits return a private deep copy.  True LRU:
            a hit refreshes the entry, eviction removes the least
            recently used.
        disk_cache: optional persistent cache
            (:class:`repro.serve.cache.BlockCache`) probed after the
            in-memory memo and filled on every fresh compile; hits skip
            the covering search entirely and warm the memo.

    Raises:
        CoverageError: if no assignment can be covered (e.g. register
            files too small for any implementation).
    """
    config = config or HeuristicConfig.default()
    tm = _telemetry()
    jr = tm.journal
    key: Optional[_MemoKey] = None
    if memo is not None or disk_cache is not None:
        key = (
            dag.fingerprint(),
            machine_fingerprint(machine),
            config,
            pin_value,
        )
    if memo is not None:
        hit = memo.pop(key, None)
        if hit is not None:
            memo[key] = hit  # move to end: most recently used
            tm.count("cover.memo_hits", 1)
            if jr.enabled:
                jr.emit(
                    "memo.hit",
                    dag=key[0][:12],
                    machine=key[1][:12],
                    pin=pin_value,
                )
            return _clone_solution(hit)
        tm.count("cover.memo_misses", 1)
        if jr.enabled:
            jr.emit(
                "memo.miss",
                dag=key[0][:12],
                machine=key[1][:12],
                pin=pin_value,
            )
    if disk_cache is not None:
        cached = disk_cache.get(key, dag, machine)
        if cached is not None:
            if memo is not None:
                if len(memo) >= _MEMO_CAPACITY:
                    memo.pop(next(iter(memo)))
                memo[key] = _clone_solution(cached)
            return cached
    watch = Stopwatch()
    with watch, tm.span("covering.block", category="covering"):
        if sn is None:
            sn = build_split_node_dag(dag, machine)
        assignments = explore_assignments(sn, config)
        if not assignments:
            raise CoverageError(
                f"no complete functional-unit assignment exists for this "
                f"block on machine {machine.name!r}"
            )
        best: Optional[BlockSolution] = None
        best_index = -1
        failures = []
        for index, assignment in enumerate(assignments):
            bound = None
            if best is not None and config.branch_and_bound:
                bound = best.instruction_count
            result = None
            graph = None
            # Register starvation is resolved by a focused spill policy;
            # two complementary focus strategies exist, and an assignment
            # that thrashes under one usually converges under the other.
            for strategy in ("consumer", "arrival"):
                jr.begin_attempt(index, strategy)
                if jr.enabled:
                    jr.emit(
                        "cover.attempt",
                        assignment=index,
                        cost=assignment.cost,
                        bound=bound,
                    )
                graph = TaskGraph(sn, assignment, pin_value=pin_value)
                try:
                    result = cover_assignment(
                        graph, config, bound, stuck_strategy=strategy
                    )
                    if jr.enabled:
                        if result is None:
                            jr.emit("cover.outcome", status="pruned")
                        else:
                            jr.emit(
                                "cover.outcome",
                                status="covered",
                                instructions=result.instruction_count,
                                spills=result.spill_count,
                                reloads=result.reload_count,
                            )
                except CoverageError as error:
                    failures.append(error)
                    tm.count("covering.strategy_failures", 1)
                    if jr.enabled:
                        jr.emit("cover.outcome", status="failed", error=str(error))
                    continue
                finally:
                    jr.end_attempt()
                break
            if result is None:
                continue  # pruned by the bound or uncoverable
            if best is None or result.instruction_count < best.instruction_count:
                if best is not None:
                    tm.count("covering.best_improved", 1)
                best = BlockSolution(
                    machine_name=machine.name,
                    sn=sn,
                    assignment=assignment,
                    graph=graph,
                    schedule=result.schedule,
                    register_estimate=result.register_estimate,
                    spill_count=result.spill_count,
                    reload_count=result.reload_count,
                    assignments_explored=len(assignments),
                )
                best_index = index
        if best is not None:
            if tm.enabled:
                xfer = sn.transfer_stats()
                tm.count("sndag.transfer_nodes_avoided", xfer["avoided"])
            tm.count("covering.blocks", 1)
            tm.count("covering.spills", best.spill_count)
            tm.count("covering.reloads", best.reload_count)
            tm.count("covering.instructions", best.instruction_count)
            if jr.enabled:
                jr.emit(
                    "block.solution",
                    assignment=best_index,
                    instructions=best.instruction_count,
                    spills=best.spill_count,
                    reloads=best.reload_count,
                    register_estimate=dict(sorted(best.register_estimate.items())),
                )
    if best is None:
        detail = f"; last error: {failures[-1]}" if failures else ""
        raise CoverageError(
            f"every explored assignment failed to cover on machine "
            f"{machine.name!r}{detail}"
        )
    best.cpu_seconds = watch.elapsed
    if memo is not None and key is not None:
        if len(memo) >= _MEMO_CAPACITY:
            # Least recently used first: hits reinsert at the end, so
            # the dict's insertion order is the recency order.
            memo.pop(next(iter(memo)))
        # Store a pristine copy: the returned solution will be mutated
        # downstream (peephole), the cached one must stay untouched.
        memo[key] = _clone_solution(best)
    if disk_cache is not None and key is not None:
        # Serialized immediately, so downstream mutation of the
        # returned solution cannot leak into the persisted entry.
        disk_cache.put(key, best)
    return best


class CodeGenerator:
    """Front door for block-level code generation on one machine.

    Carries a block-solution memo: blocks with identical DAGs (same
    fingerprint, same pin) compile once per generator — a win for
    unrolled loops and repeated basic blocks within a function.

    With ``cache_dir=`` the memo is backed by the **persistent**
    content-addressed block cache (:mod:`repro.serve.cache`): solutions
    survive the process and warm-start later compiles anywhere that
    points at the same directory — the batch service, repeated CLI
    runs, the fuzz harness, CI.

    With ``validate=True`` every produced solution (memo and disk-cache
    hits included) is re-checked by the independent translation
    validator (:mod:`repro.verify`) before being returned, and a
    :class:`repro.errors.VerificationError` carrying the structured
    violation list is raised when any paper invariant is broken.

    With ``backend="optimal"`` each block is solved to proven minimal
    length by the constraint-solver oracle (:mod:`repro.optimal`): the
    heuristic result seeds the bound, the solver proves or improves it,
    and every improving schedule is certified by the validator before
    emission.  Optimal compiles bypass the memo and disk cache (cached
    heuristic schedules must never shadow a proof) and leave the full
    :class:`repro.optimal.OptimalSolveResult` of the most recent block
    in ``last_optimal``.
    """

    def __init__(
        self,
        machine: Machine,
        config: Optional[HeuristicConfig] = None,
        validate: bool = False,
        cache_dir: Optional[Union[str, "os.PathLike"]] = None,
        cache: Optional["BlockCache"] = None,
        backend: str = "heuristic",
        conflict_budget: Optional[int] = None,
    ):
        if backend not in ("heuristic", "optimal"):
            raise ValueError(
                f"unknown backend {backend!r}: want 'heuristic' or "
                f"'optimal'"
            )
        self.machine = machine
        self.config = config or HeuristicConfig.default()
        self.validate = validate
        self.backend = backend
        self.conflict_budget = conflict_budget
        #: The optimal backend's full result for the last compiled
        #: block (``None`` under the heuristic backend).
        self.last_optimal = None
        self._memo: Dict[_MemoKey, BlockSolution] = {}
        if cache is None and cache_dir is not None:
            # Lazy import: repro.serve sits on top of the covering
            # layer; engine must stay importable without it at load
            # time.
            from repro.serve.cache import BlockCache

            cache = BlockCache(cache_dir)
        self.cache = cache

    def compile_dag(
        self, dag: BlockDAG, pin_value: Optional[int] = None
    ) -> BlockSolution:
        """Cover one expression DAG; see :func:`generate_block_solution`."""
        if self.backend == "optimal":
            return self._compile_optimal(dag, pin_value)
        solution = generate_block_solution(
            dag,
            self.machine,
            self.config,
            pin_value=pin_value,
            memo=self._memo,
            disk_cache=self.cache,
        )
        if self.validate:
            self._validate(solution)
        return solution

    def _compile_optimal(
        self, dag: BlockDAG, pin_value: Optional[int]
    ) -> BlockSolution:
        # Lazy import: repro.optimal drives the covering engine for its
        # heuristic seed, so the engine must not require it at load
        # time.
        from repro.optimal import (
            DEFAULT_CONFLICT_BUDGET,
            optimal_block_solution,
        )

        budget = self.conflict_budget
        if budget is None:
            budget = DEFAULT_CONFLICT_BUDGET
        result = optimal_block_solution(
            dag,
            self.machine,
            pin_value=pin_value,
            config=self.config,
            conflict_budget=budget,
        )
        self.last_optimal = result
        solution = result.best_solution()
        if self.validate:
            self._validate(solution)
        return solution

    def _validate(self, solution: BlockSolution) -> None:
        # Imported lazily: repro.verify must stay import-independent of
        # the covering layer it audits, and vice versa.
        from repro.errors import VerificationError
        from repro.verify import verify_solution

        tm = _telemetry()
        with tm.span("verify.block", category="verify"):
            report = verify_solution(solution)
        tm.count("verify.blocks", 1)
        tm.count("verify.checks", report.checks)
        tm.count("verify.violations", len(report.violations))
        if not report.ok:
            raise VerificationError(
                f"schedule failed translation validation "
                f"({len(report.violations)} violation(s)):\n"
                + "\n".join(v.describe() for v in report.violations),
                violations=report.violations,
            )

    def compile_block(self, block: BasicBlock) -> BlockSolution:
        """Cover a basic block, pinning its branch condition if any."""
        pin_value = None
        if isinstance(block.terminator, Branch):
            pin_value = block.terminator.condition
        return self.compile_dag(block.dag, pin_value=pin_value)
