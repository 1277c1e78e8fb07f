"""Candidate evaluation: one machine against the workload suite.

``evaluate_candidate`` is the unit of work the exploration service fans
out across its process pool: module-level and dict-in/dict-out so a
``ProcessPoolExecutor`` can pickle it, with imports inside so pool
workers pay them once (the same discipline as
:func:`repro.serve.service.execute_job`).  Every compile goes through
the persistent block cache when ``cache_dir`` is given, so re-exploring
a neighbourhood of the machine space is warm.  Evaluation records no
service metrics: the exploration service folds its ``obs.*`` fleet view
from the workload records returned here.

A workload record carries the schedule-quality metrics the ranking
axes need — code size, spills, per-block cycles against the
critical-path/resource lower bound (the *gap*), IPC, and per-resource
slot utilization — aggregated over the function's blocks from
:func:`repro.explain.quality.quality_report`.  Failures are data
points, not errors: a machine that cannot cover a workload records a
``coverage_error`` status and stays in the population.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Statuses an evaluation can report per workload.
WORKLOAD_STATUSES = ("ok", "coverage_error", "error")


def default_workloads(repo_root: Optional[str] = None) -> List[Tuple[str, str]]:
    """The default ``(name, minic source)`` suite.

    Always contains the paper's Table I/II blocks (Ex1–Ex5, inlined
    from :mod:`repro.eval.workloads` so no file access is needed); when
    ``repo_root`` holds an ``examples/`` directory, the bundled DSP
    loop kernels ride along.  ``branchy`` is deliberately excluded: it
    needs comparison opcodes most candidate machines lack, which would
    disqualify nearly the whole population from the frontier — add it
    explicitly when exploring control-flow-capable machine families.
    """
    from pathlib import Path

    from repro.eval.workloads import WORKLOADS

    suite: List[Tuple[str, str]] = [(w.name, w.source) for w in WORKLOADS]
    if repo_root is not None:
        for name in ("dotprod", "fir4"):
            path = Path(repo_root) / "examples" / f"{name}.minic"
            if path.exists():
                suite.append((name, path.read_text()))
    return suite


def corpus_workloads(corpus_dir: str) -> List[Tuple[str, str]]:
    """The frozen fuzz corpus as extra workloads (constraint-dense
    programs the fuzzer already found interesting)."""
    from pathlib import Path

    from repro.fuzz.corpus import load_case

    suite: List[Tuple[str, str]] = []
    for path in sorted(Path(corpus_dir).glob("*.json")):
        case = load_case(path)
        suite.append((path.stem, case.source))
    return suite


def evaluate_candidate(
    payload: Dict[str, Any], cache_dir: Optional[str] = None
) -> Dict[str, Any]:
    """Evaluate one candidate dict against its workload suite.

    ``payload`` is self-contained: ``{"name", "isdl", "workloads":
    [{"name", "source"}, ...], "config": {...}}`` — a worker process
    never depends on the parent's object graph.  Returns the candidate
    result with one record per workload, in suite order.
    """
    from repro.asmgen.program import compile_function
    from repro.covering.config import HeuristicConfig
    from repro.errors import CoverageError, ReproError
    from repro.explain.quality import quality_report
    from repro.frontend import compile_source
    from repro.isdl.parser import parse_machine

    result: Dict[str, Any] = {
        "name": payload["name"],
        "workloads": [],
    }
    machine = parse_machine(payload["isdl"])
    config = HeuristicConfig.default().with_(**payload.get("config", {}))
    for workload in payload["workloads"]:
        record: Dict[str, Any] = {
            "workload": workload["name"],
            "status": "ok",
            "error": None,
            "metrics": None,
        }
        try:
            function = compile_source(workload["source"])
            compiled = compile_function(
                function, machine, config, cache_dir=cache_dir
            )
        except CoverageError as error:
            record["status"] = "coverage_error"
            record["error"] = str(error)
        except ReproError as error:
            record["status"] = "error"
            record["error"] = str(error)
        except Exception as error:  # noqa: BLE001 - reported, not swallowed
            record["status"] = "error"
            record["error"] = f"{type(error).__name__}: {error}"
        else:
            record["metrics"] = _workload_metrics(compiled, quality_report)
        result["workloads"].append(record)
    return result


def _workload_metrics(compiled, quality_report) -> Dict[str, Any]:
    """Aggregate per-block quality reports into one workload record."""
    machine = compiled.machine
    cycles = tasks = lower = gap = 0
    busy: Dict[str, float] = {
        name: 0.0 for name in machine.unit_names() + machine.bus_names()
    }
    block_tasks: List[int] = []
    for name in sorted(compiled.blocks):
        block = compiled.blocks[name]
        quality = quality_report(block.solution)
        cycles += quality["cycles"]
        tasks += quality["tasks"]
        lower += quality["lower_bound"]
        gap += quality["schedule_overhead"]
        block_tasks.append(quality["tasks"])
        for resource, fraction in quality["slot_utilization"].items():
            if resource in busy:
                busy[resource] += fraction * quality["cycles"]
    utilization = {
        resource: round(total / cycles, 4) if cycles else 0.0
        for resource, total in sorted(busy.items())
    }
    return {
        "instructions": compiled.total_instructions,
        "body_instructions": compiled.body_instructions,
        "spills": compiled.total_spills,
        "blocks": len(compiled.blocks),
        "cycles": cycles,
        "tasks": tasks,
        "lower_bound": lower,
        "gap": gap,
        "max_block_tasks": max(block_tasks) if block_tasks else 0,
        "ipc": round(tasks / cycles, 4) if cycles else 0.0,
        "utilization": utilization,
    }


def tighten_candidate(
    payload: Dict[str, Any],
    budget: int,
    cache_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Re-solve a candidate's gapped workloads with the optimal backend.

    ``payload`` carries only the workloads worth the effort (the
    service pre-filters to small-block workloads with a nonzero
    heuristic gap).  Returns per-workload optimal block-length sums and
    whether every block's minimality proof closed inside ``budget``
    conflicts — annotation for the artifact; the frontier axes stay on
    the heuristic numbers, so a bigger budget never changes the
    frontier, only how honestly its gaps are labelled.
    """
    from repro.asmgen.program import compile_function
    from repro.covering.config import HeuristicConfig
    from repro.errors import ReproError
    from repro.frontend import compile_source
    from repro.isdl.parser import parse_machine

    machine = parse_machine(payload["isdl"])
    config = HeuristicConfig.default().with_(**payload.get("config", {}))
    result: Dict[str, Any] = {"name": payload["name"], "workloads": []}
    for workload in payload["workloads"]:
        record: Dict[str, Any] = {
            "workload": workload["name"],
            "status": "ok",
            "optimal_cycles": 0,
            "heuristic_cycles": 0,
            "proven": True,
        }
        try:
            function = compile_source(workload["source"])
            compiled = compile_function(
                function,
                machine,
                config,
                cache_dir=None,  # optimal solves are never cached
                backend="optimal",
                conflict_budget=budget,
            )
        except ReproError as error:
            record["status"] = "error"
            record["error"] = str(error)
        except Exception as error:  # noqa: BLE001 - reported, not swallowed
            record["status"] = "error"
            record["error"] = f"{type(error).__name__}: {error}"
        else:
            for name in sorted(compiled.blocks):
                solve = compiled.blocks[name].optimal
                if solve is None:
                    continue
                record["optimal_cycles"] += solve.cost
                record["heuristic_cycles"] += solve.heuristic_cost
                record["proven"] = record["proven"] and solve.proven
        result["workloads"].append(record)
    return result


def make_payloads(
    candidates: Sequence[Any],
    workloads: Sequence[Tuple[str, str]],
    config: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Self-contained evaluation payloads, one per candidate."""
    suite = [{"name": name, "source": source} for name, source in workloads]
    return [
        {
            "name": candidate.name,
            "isdl": candidate.isdl,
            "workloads": suite,
            "config": dict(config or {}),
        }
        for candidate in candidates
    ]
