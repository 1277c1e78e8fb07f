"""The requests each workload sends, and their helpers.

Requests call ``repro`` through module attributes (``lower.compile_source``
rather than a name imported into this module), so the traced pass's
wrappers, installed on those attributes, see every call.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence, Tuple

import repro.asmgen.program as asm_program
import repro.assembler.encoder as encoder
import repro.frontend.lower as lower
import repro.isdl.parser as isdl_parser
import repro.opt.passes as passes
import repro.serve.service as service
from repro.ir.cfg import BasicBlock, Function

from bench.workloads import Item, pool_workers


def block_dag(source: str, discard: Sequence[str]):
    """A paper block lowered to its single DAG, its discarded stores
    removed and dead code dropped."""
    (block,) = list(lower.compile_source(source))
    dag = block.dag
    if discard:
        for symbol in discard:
            dag.remove_store(symbol)
        dag, _ = passes.dead_code_elimination(dag)
    return dag


def block_function(dag) -> Function:
    """The one-block function ``compile_dag`` compiles ``dag`` as."""
    function = Function("main")
    function.add_block(BasicBlock("entry", dag))
    return function


def compile_block(source: str, discard: Sequence[str], machine) -> Tuple[Any, Any]:
    """paper-blocks request: source → block DAG → compile_dag → encode."""
    compiled = asm_program.compile_dag(block_dag(source, discard), machine)
    return compiled, encoder.encode_program(compiled.program, machine)


def compile_program(source: str, machine_isdl: str) -> Tuple[Any, Any]:
    """examples-cold request: the ``repro compile`` path, no cache."""
    machine = isdl_parser.parse_machine(machine_isdl)
    function = lower.compile_source(source)
    compiled = asm_program.compile_function(function, machine)
    return compiled, encoder.encode_program(compiled.program, machine)


def compile_job(item: Item) -> service.CompileJob:
    return service.CompileJob(
        job_id=item.label,
        source=item.source(),
        machine_isdl=item.machine_isdl(),
        config=dict(item.config),
    )


def run_batch(jobs: Sequence[service.CompileJob], cache_dir: Path):
    """batch-* request: one ``run_batch`` over the pool."""
    return service.run_batch(jobs, cache_dir=str(cache_dir), workers=pool_workers())
