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
DAG; :func:`solve_block` covers one basic block with either backend.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Optional, Tuple

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

if TYPE_CHECKING:  # imported lazily at runtime: both depend on covering
    from repro.optimal import OptimalSolveResult
    from repro.serve.cache import BlockCache


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


def generate_block_solution(
    dag: BlockDAG,
    machine: Machine,
    config: Optional[HeuristicConfig] = None,
    pin_value: Optional[int] = None,
    sn: Optional[SplitNodeDAG] = None,
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
        disk_cache: optional persistent cache
            (:class:`repro.serve.cache.BlockCache`) keyed by (DAG
            fingerprint, machine fingerprint, config, pin_value); a hit
            skips the covering search entirely, and a fresh solution is
            stored.

    Raises:
        CoverageError: if no assignment can be covered (e.g. register
            files too small for any implementation).
    """
    config = config or HeuristicConfig.default()
    tm = _telemetry()
    jr = tm.journal
    if disk_cache is not None:
        key = (
            dag.fingerprint(),
            machine_fingerprint(machine),
            config,
            pin_value,
        )
        cached = disk_cache.get(key, dag, machine)
        if cached is not None:
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
    if disk_cache is not None:
        # Serialized immediately, so downstream mutation of the
        # returned solution cannot leak into the persisted entry.
        disk_cache.put(key, best)
    return best


def solve_block(
    block: BasicBlock,
    machine: Machine,
    config: Optional[HeuristicConfig] = None,
    cache: Optional["BlockCache"] = None,
    backend: str = "heuristic",
    conflict_budget: Optional[int] = None,
) -> Tuple[BlockSolution, Optional["OptimalSolveResult"]]:
    """Cover one basic block, pinning its branch condition if any.

    ``backend="heuristic"`` runs :func:`generate_block_solution`, served
    from and stored to ``cache`` when one is given; the second element
    of the result is ``None``.

    ``backend="optimal"`` solves the block to proven minimal length
    with the constraint-solver oracle (:mod:`repro.optimal`): the
    heuristic result seeds the bound, the solver proves or improves it
    within ``conflict_budget``, and every improving schedule is
    certified by the validator.  The solve's full
    :class:`repro.optimal.OptimalSolveResult` is the second element.
    It never touches ``cache``: a cached heuristic schedule must not
    shadow a proof.

    Raises:
        ValueError: on an unknown ``backend``.
    """
    pin_value = None
    if isinstance(block.terminator, Branch):
        pin_value = block.terminator.condition
    if backend == "heuristic":
        solution = generate_block_solution(
            block.dag, machine, config, pin_value=pin_value, disk_cache=cache
        )
        return solution, None
    if backend != "optimal":
        raise ValueError(
            f"unknown backend {backend!r}: want 'heuristic' or 'optimal'"
        )
    # Lazy import: repro.optimal drives this engine for its heuristic
    # seed, so the engine must not require it at load time.
    from repro.optimal import DEFAULT_CONFLICT_BUDGET, optimal_block_solution

    if conflict_budget is None:
        conflict_budget = DEFAULT_CONFLICT_BUDGET
    result = optimal_block_solution(
        block.dag,
        machine,
        pin_value=pin_value,
        config=config,
        conflict_budget=conflict_budget,
    )
    return result.best_solution(), result
