"""The architecture-exploration service: ``run_explore``.

Orchestrates the full loop the paper's introduction sketches —
generate machine variants, compile a workload suite on each, rank, and
report — as one deterministic, parallel pipeline:

1. **Population** (:mod:`repro.explore.population`): a seeded stream of
   base machines, parametric mutants, and machgen samples.
2. **Evaluation** (:mod:`repro.explore.evaluate`): every candidate
   compiles the whole suite, fanned across a ``ProcessPoolExecutor``
   (``workers > 0``) with all workers sharing one persistent block
   cache; ``workers = 0`` evaluates in-process.  ``pool.map`` keeps
   candidate order, and compilation itself is deterministic, so the
   result stream is identical for any worker count.
3. **Optional tightening**: with ``budget > 0``, frontier candidates'
   small gapped workloads are re-solved by the optimal backend
   (:mod:`repro.optimal`) to label how much of each gap is heuristic
   slack vs intrinsic; the frontier axes stay on the heuristic numbers.
4. **Artifact**: the ``repro/bench-explore/v1`` payload — candidates,
   per-workload records, and the Pareto frontier over
   ``(area, instructions, gap)``.  The payload carries **no wall-clock
   or worker-count data**, so a fixed seed reproduces it byte for byte
   across machines and ``--workers`` settings; timing is returned
   separately for the CLI to print, together with the ``obs.*`` fleet
   snapshot folded from the candidate records.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.explore.evaluate import (
    default_workloads,
    evaluate_candidate,
    make_payloads,
    tighten_candidate,
)
from repro.explore.pareto import pareto_frontier
from repro.explore.population import ExploreCandidate, build_population
from repro.obs.metrics import MetricsSnapshot
from repro.telemetry import current as _telemetry

#: Versioned envelope of the exploration artifact.
EXPLORE_SCHEMA = "repro/bench-explore/v1"

#: The frontier's cost axes, all minimised, in vector order.
AXES: Tuple[str, ...] = ("area", "instructions", "gap")

#: Blocks above this task count are not worth an exact re-solve under a
#: smoke-sized conflict budget (the optimal backend's frontier).
TIGHTEN_TASK_LIMIT = 24


def candidate_vector(record: Dict[str, Any]) -> Optional[Tuple[float, ...]]:
    """The candidate's frontier cost vector, or ``None`` when any
    workload failed (no comparable total exists)."""
    if record["failures"]:
        return None
    metrics = record["metrics"]
    return (record["area"], metrics["instructions"], metrics["gap"])


def _aggregate(candidate: ExploreCandidate, evaluation: Dict[str, Any]) -> Dict[str, Any]:
    """Fold per-workload records into one candidate artifact record."""
    instructions = spills = cycles = tasks = lower = gap = 0
    failures = 0
    for record in evaluation["workloads"]:
        if record["status"] != "ok":
            failures += 1
            continue
        metrics = record["metrics"]
        instructions += metrics["instructions"]
        spills += metrics["spills"]
        cycles += metrics["cycles"]
        tasks += metrics["tasks"]
        lower += metrics["lower_bound"]
        gap += metrics["gap"]
    evaluated = len(evaluation["workloads"]) - failures
    return {
        "name": candidate.name,
        "origin": candidate.origin,
        "area": candidate.area,
        "failures": failures,
        "workloads_ok": evaluated,
        "metrics": {
            "instructions": instructions,
            "spills": spills,
            "cycles": cycles,
            "tasks": tasks,
            "lower_bound": lower,
            "gap": gap,
            "ipc": round(tasks / cycles, 4) if cycles else 0.0,
        },
        "workloads": evaluation["workloads"],
        "optimal": None,
        "frontier": False,
    }


def run_explore(
    seed: int = 0,
    population: int = 50,
    workers: int = 0,
    budget: int = 0,
    workloads: Optional[Sequence[Tuple[str, str]]] = None,
    bases: Optional[Sequence[Any]] = None,
    cache_dir: Optional[str] = None,
    machgen_share: float = 0.35,
    config: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one exploration; returns ``(payload, timing)``.

    ``payload`` is the deterministic ``repro/bench-explore/v1``
    artifact; ``timing`` holds the wall-clock and worker-count facts
    that must stay *out* of the artifact for it to be bit-reproducible
    across worker counts.
    """
    tm = _telemetry()
    started = time.perf_counter()
    suite = list(workloads) if workloads is not None else default_workloads(".")
    if not suite:
        raise ValueError("exploration needs at least one workload")

    with tm.span("explore.population", category="explore"):
        candidates = build_population(
            seed, population, bases=bases, machgen_share=machgen_share
        )
    payloads = make_payloads(candidates, suite, config=config)

    with tm.span("explore.evaluate", category="explore"):
        evaluations = _map_candidates(payloads, workers, cache_dir)

    records = [
        _aggregate(candidate, evaluation)
        for candidate, evaluation in zip(candidates, evaluations)
    ]
    failures = sum(r["failures"] for r in records)

    vectors = {record["name"]: candidate_vector(record) for record in records}
    frontier_names = pareto_frontier(vectors)
    by_name = {record["name"]: record for record in records}
    for name in frontier_names:
        by_name[name]["frontier"] = True

    if budget > 0:
        with tm.span("explore.tighten", category="explore"):
            _tighten_frontier(
                by_name, frontier_names, candidates, suite, budget,
                workers, config,
            )

    isdl_by_name = {c.name: c.isdl for c in candidates}
    frontier = [
        {
            "name": name,
            "origin": by_name[name]["origin"],
            "area": by_name[name]["area"],
            "instructions": by_name[name]["metrics"]["instructions"],
            "gap": by_name[name]["metrics"]["gap"],
            "ipc": by_name[name]["metrics"]["ipc"],
            "isdl": isdl_by_name[name],
        }
        for name in frontier_names
    ]
    payload = {
        "schema": EXPLORE_SCHEMA,
        "meta": {
            "seed": seed,
            "population": len(records),
            "requested_population": population,
            "budget": budget,
            "machgen_share": machgen_share,
            "axes": list(AXES),
            "workloads": [name for name, _source in suite],
        },
        "candidates": records,
        "frontier": frontier,
        "totals": {
            "candidates": len(records),
            "frontier": len(frontier),
            "workload_failures": failures,
            "workloads_ok": sum(r["workloads_ok"] for r in records),
        },
    }
    # Fleet-level metrics ride the *timing* side channel, never the
    # artifact, which stays the byte-reproducible document it always was.
    fleet = _fleet_snapshot(records)
    fleet.set_gauge("obs.frontier_size", float(len(frontier)))
    fleet.set_gauge("obs.workers", float(workers))
    timing = {
        "wall_s": time.perf_counter() - started,
        "workers": workers,
        "evaluations": len(records) * len(suite),
        "obs": fleet,
    }
    return payload, timing


def _fleet_snapshot(records: List[Dict[str, Any]]) -> MetricsSnapshot:
    """Fold candidate records into the ``obs.*`` fleet metrics.

    Records keep candidate order under any pool width and every step is
    a sum, so the fleet view is independent of the worker count.
    """
    fleet = MetricsSnapshot()
    for record in records:
        fleet.count("obs.candidates_total")
        for workload in record["workloads"]:
            fleet.count("obs.workloads_total")
            if workload["status"] != "ok":
                fleet.count("obs.workloads_failed")
                continue
            fleet.count("obs.workloads_ok")
            metrics = workload["metrics"]
            fleet.observe("obs.request_instructions", metrics["instructions"])
            fleet.observe("obs.request_spills", metrics["spills"])
    return fleet


def _map_candidates(
    payloads: List[Dict[str, Any]],
    workers: int,
    cache_dir: Optional[str],
) -> List[Dict[str, Any]]:
    """Evaluate payloads in order, pooled or in-process."""
    if workers > 0:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(
                pool.map(
                    partial(evaluate_candidate, cache_dir=cache_dir),
                    payloads,
                )
            )
    return [evaluate_candidate(payload, cache_dir) for payload in payloads]


def _tighten_frontier(
    by_name: Dict[str, Dict[str, Any]],
    frontier_names: List[str],
    candidates: Sequence[ExploreCandidate],
    suite: Sequence[Tuple[str, str]],
    budget: int,
    workers: int,
    config: Optional[Dict[str, Any]],
) -> None:
    """Annotate frontier candidates with exact small-block gap labels."""
    tm = _telemetry()
    sources = dict(suite)
    isdl_by_name = {c.name: c.isdl for c in candidates}
    payloads = []
    for name in frontier_names:
        record = by_name[name]
        worthwhile = [
            {"name": wl["workload"], "source": sources[wl["workload"]]}
            for wl in record["workloads"]
            if wl["status"] == "ok"
            and wl["metrics"]["gap"] > 0
            and wl["metrics"]["max_block_tasks"] <= TIGHTEN_TASK_LIMIT
        ]
        if worthwhile:
            payloads.append(
                {
                    "name": name,
                    "isdl": isdl_by_name[name],
                    "workloads": worthwhile,
                    "config": dict(config or {}),
                }
            )
    if not payloads:
        return
    if workers > 0:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(partial(tighten_candidate, budget=budget), payloads)
            )
    else:
        results = [tighten_candidate(payload, budget) for payload in payloads]
    for result in results:
        tightened = {
            "budget": budget,
            "workloads": result["workloads"],
        }
        by_name[result["name"]]["optimal"] = tightened
        tm.count("explore.tightened_workloads", len(result["workloads"]))
        for record in result["workloads"]:
            if record["status"] == "ok":
                tm.count(
                    "explore.gap_cycles_closed",
                    record["heuristic_cycles"] - record["optimal_cycles"],
                )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def format_explore_table(payload: Dict[str, Any], top: int = 12) -> str:
    """Human-readable summary: the frontier plus the closest also-rans."""
    lines = [
        f"explored {payload['totals']['candidates']} machine(s), "
        f"{payload['totals']['workload_failures']} workload failure(s); "
        f"frontier holds {payload['totals']['frontier']}"
    ]
    lines.append("")
    lines.append(
        f"{'machine':24s} {'origin':28s} {'area':>6s} {'instr':>6s} "
        f"{'gap':>4s} {'ipc':>6s}  frontier"
    )
    ranked = sorted(
        payload["candidates"],
        key=lambda r: (
            not r["frontier"],
            r["failures"] > 0,
            r["metrics"]["instructions"] if not r["failures"] else 0,
            r["area"],
            r["name"],
        ),
    )
    for record in ranked[:top]:
        metrics = record["metrics"]
        if record["failures"]:
            cost = f"{'fail':>6s} {'-':>4s} {'-':>6s}"
        else:
            cost = (
                f"{metrics['instructions']:6d} {metrics['gap']:4d} "
                f"{metrics['ipc']:6.2f}"
            )
        marker = "*" if record["frontier"] else ""
        lines.append(
            f"{record['name']:24.24s} {record['origin']:28.28s} "
            f"{record['area']:6d} {cost}  {marker}"
        )
    if len(payload["candidates"]) > top:
        lines.append(f"... {len(payload['candidates']) - top} more")
    return "\n".join(lines)
