"""Machine-readable code-generator benchmark reports.

``BENCH_codegen.json`` tracks the compiler's own performance trajectory:
for each workload, the per-phase timings and search counters of one
profiled compilation plus the headline result metrics (instructions,
spills, cycles).  The file is written by
``benchmarks/test_bench_codegen_profile.py`` and by
``repro profile --bench-out``; CI validates it on every push, so any PR
that regresses compile time or blows up the search shows up in the
artifact diff.  Each ledger's shape lives in :mod:`repro.artifacts`.

Schema (``repro/bench-codegen/v1``)::

    {
      "schema": "repro/bench-codegen/v1",
      "entries": [
        {
          "workload": "Ex1",
          "machine": "arch1_r4",
          "metrics": {"instructions": 7, "spills": 0, ...},
          "report": { ... TelemetryReport.to_dict() ... }
        }, ...
      ]
    }

``BENCH_cover.json`` (schema ``repro/bench-cover/v1``) is the covering
hot-path ledger: each entry compiles one clique-heavy workload and
records its best wall clock, its result metrics and the covering
counters.  Entries flagged ``"heavy": true`` are the clique-bound
workloads (level window off).  Written by
``benchmarks/test_bench_cover_hotpath.py``; CI regenerates and
schema-validates it on every push.

``BENCH_sndag.json`` (schema ``repro/bench-sndag/v1``) is the
transfer-materialisation ledger: each entry builds and compiles one
Table I/II workload and records the build time and the transfer-node
populations — what the paper's eager expansion would have built up
front vs what was materialised on demand, plus avoided nodes and folded
equivalent paths.  Written by ``benchmarks/test_bench_sndag.py``; CI
regenerates and schema-validates it on every push.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

BENCH_SCHEMA = "repro/bench-codegen/v1"

COVER_BENCH_SCHEMA = "repro/bench-cover/v1"

#: Search counters every bench entry must carry (the paper's
#: interesting internals).
CORE_COUNTERS = (
    "assign.alternatives_scored",
    "cliques.enumerated",
    "cover.iterations",
)


def bench_entry(
    workload: str,
    machine: str,
    report: Dict[str, Any],
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One ``BENCH_codegen.json`` entry from a report dict."""
    return {
        "workload": workload,
        "machine": machine,
        "metrics": dict(metrics or {}),
        "report": report,
    }


def collect_codegen_bench(
    workload_names: Optional[List[str]] = None,
) -> List[Dict[str, Any]]:
    """Profile the Table-I workloads on the example architecture.

    Compiles each workload under a fresh :class:`TelemetrySession` and
    returns one bench entry per workload — the payload of
    ``BENCH_codegen.json``.
    """
    from repro.asmgen.program import compile_dag
    from repro.eval.workloads import WORKLOADS
    from repro.isdl.builtin_machines import example_architecture
    from repro.telemetry.session import TelemetrySession, use_session

    machine = example_architecture(4)
    entries: List[Dict[str, Any]] = []
    for load in WORKLOADS:
        if workload_names is not None and load.name not in workload_names:
            continue
        dag = load.build()
        session = TelemetrySession(
            meta={"source": load.name, "machine": machine.name}
        )
        with use_session(session):
            compiled = compile_dag(dag, machine)
        entries.append(
            bench_entry(
                load.name,
                machine.name,
                session.report().to_dict(),
                metrics={
                    "instructions": compiled.total_instructions,
                    "body_instructions": compiled.body_instructions,
                    "spills": compiled.total_spills,
                    "original_nodes": dag.stats()["paper_nodes"],
                },
            )
        )
    return entries


# ----------------------------------------------------------------------
# BENCH_cover.json — covering hot-path ledger
# ----------------------------------------------------------------------

#: Counters sampled from a telemetry run of each cover-bench workload
#: (presence is validated so the hot path cannot silently stop being
#: exercised).
COVER_COUNTERS = (
    "cliques.mask_kernel_calls",
    "cover.iterations",
)


def _sum_of_products_dag(terms: int):
    """``acc = sum(a_i * b_i + c_i)`` — wide, clique-dense, MUL+ADD mix.

    With the level window off, every pair of independent MUL/ADD tasks
    is a clique candidate, which is exactly the regime the paper calls
    "the most time consuming portion of our algorithm".
    """
    from repro.ir.dag import BlockDAG
    from repro.ir.ops import Opcode

    dag = BlockDAG()
    parts = []
    for i in range(terms):
        a = dag.var(f"a{i}")
        b = dag.var(f"b{i}")
        c = dag.var(f"c{i}")
        product = dag.operation(Opcode.MUL, (a, b))
        parts.append(dag.operation(Opcode.ADD, (product, c)))
    total = parts[0]
    for part in parts[1:]:
        total = dag.operation(Opcode.ADD, (total, part))
    dag.store("acc", total)
    return dag


def _wide_reduction_dag(width: int):
    """``sum = sum(x_i * y_i)`` — the tests' wide-DAG shape, scaled up."""
    from repro.ir.dag import BlockDAG
    from repro.ir.ops import Opcode

    dag = BlockDAG()
    products = []
    for i in range(width):
        x = dag.var(f"x{i}")
        y = dag.var(f"y{i}")
        products.append(dag.operation(Opcode.MUL, (x, y)))
    total = products[0]
    for product in products[1:]:
        total = dag.operation(Opcode.ADD, (total, product))
    dag.store("sum", total)
    return dag


#: The cover-bench workload table: (name, DAG factory, register-file
#: size for ``example_architecture``, config overrides, heavy).  The
#: workloads marked ``heavy`` are clique-bound (level window off, so
#: clique enumeration and covering dominate); the unmarked entry tracks
#: the default (windowed) configuration where assignment exploration
#: shares the profile.
COVER_WORKLOADS = (
    ("sop8-nowin", lambda: _sum_of_products_dag(8), 4,
     {"level_window": None, "num_assignments": 2}, True),
    ("sop8-spill", lambda: _sum_of_products_dag(8), 2,
     {"level_window": None, "num_assignments": 2}, True),
    ("wide14-nowin", lambda: _wide_reduction_dag(14), 4,
     {"level_window": None, "num_assignments": 2}, True),
    ("wide12-window", lambda: _wide_reduction_dag(12), 4,
     {"num_assignments": 2}, False),
)


def collect_cover_bench(
    workload_names: Optional[List[str]] = None,
    repeats: int = 1,
) -> List[Dict[str, Any]]:
    """Compile each cover-bench workload (best-of-``repeats`` wall
    clock), plus one extra run under a telemetry session that samples
    the hot-path counters.  Returns the ``entries`` payload of
    ``BENCH_cover.json``.
    """
    import dataclasses

    from repro.covering.config import HeuristicConfig
    from repro.covering.engine import generate_block_solution
    from repro.isdl.builtin_machines import example_architecture
    from repro.telemetry.session import TelemetrySession, use_session

    # One throwaway compile so lazy imports and fingerprint caches are
    # warm before any timed run (the first one timed would otherwise
    # absorb them).
    generate_block_solution(
        _wide_reduction_dag(2),
        example_architecture(4),
        HeuristicConfig(num_assignments=1),
    )
    entries: List[Dict[str, Any]] = []
    for name, build, registers, overrides, heavy in COVER_WORKLOADS:
        if workload_names is not None and name not in workload_names:
            continue
        machine = example_architecture(registers)
        base = HeuristicConfig(**overrides)
        dag = build()
        best = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            solution = generate_block_solution(dag, machine, base)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        session = TelemetrySession(
            meta={"source": name, "machine": machine.name}
        )
        with use_session(session):
            generate_block_solution(dag, machine, base)
        counters = {
            key: value
            for key, value in session.report().to_dict()["counters"].items()
            if key.startswith(("cliques.", "cover."))
        }
        entries.append(
            {
                "workload": name,
                "machine": machine.name,
                "config": {
                    key: value
                    for key, value in dataclasses.asdict(base).items()
                },
                "heavy": heavy,
                "wall_s": best,
                "metrics": {
                    "instructions": solution.instruction_count,
                    "spills": solution.spill_count,
                    "reloads": solution.reload_count,
                    "original_nodes": dag.stats()["paper_nodes"],
                },
                "counters": counters,
            }
        )
    return entries


# ----------------------------------------------------------------------
# Split-Node DAG transfer-materialisation bench (BENCH_sndag.json)
# ----------------------------------------------------------------------

SNDAG_BENCH_SCHEMA = "repro/bench-sndag/v1"


def collect_sndag_bench(
    workload_names: Optional[List[str]] = None,
    repeats: int = 1,
) -> List[Dict[str, Any]]:
    """Transfer-node populations of each Table I/II workload.

    For every Table I/II workload on Architecture I and II, the builder
    runs (best-of-``repeats`` wall clock), the block is compiled, and the
    transfer-node populations are recorded: what the paper's eager
    expansion would have built up front vs what was materialised on
    demand across the explored assignments.  Returns the ``entries``
    payload of ``BENCH_sndag.json``.
    """
    from repro.covering.config import HeuristicConfig
    from repro.covering.engine import generate_block_solution
    from repro.eval.workloads import WORKLOADS
    from repro.isdl.builtin_machines import architecture_two, example_architecture
    from repro.sndag.build import build_split_node_dag

    machines = (example_architecture(4), architecture_two(4))
    entries: List[Dict[str, Any]] = []
    for load in WORKLOADS:
        if workload_names is not None and load.name not in workload_names:
            continue
        dag = load.build()
        for machine in machines:
            best = None
            for _ in range(max(1, repeats)):
                start = time.perf_counter()
                build_split_node_dag(dag, machine)
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best:
                    best = elapsed
            solution = generate_block_solution(
                dag, machine, HeuristicConfig()
            )
            sn = solution.sn
            stats = sn.transfer_stats()
            entries.append(
                {
                    "workload": load.name,
                    "machine": machine.name,
                    "lazy_build_s": best,
                    "eager_transfer_nodes": stats["eager"],
                    "lazy_transfer_nodes": stats["materialized"],
                    "avoided_transfer_nodes": stats["avoided"],
                    "paths_folded": stats["paths_folded"],
                    "eager_total_nodes": sn.paper_node_count(),
                    "lazy_total_nodes": sn.stats()["total"],
                    "metrics": {
                        "instructions": solution.instruction_count,
                        "spills": solution.spill_count,
                        "reloads": solution.reload_count,
                    },
                }
            )
    return entries


