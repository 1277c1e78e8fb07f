"""One pass of one workload, in this process.

A pass sets up (reads and parses inputs, sends one warm-up request,
loads the batch references), runs rounds until its size is reached,
reads the peak RSS, and then runs the untimed correctness gate.  A
*timed* pass has telemetry off (``repro``'s default ``NullSession``) and
no wrappers; a *traced* pass installs :mod:`bench.trace`'s wrappers.

The batch references — direct compiles of every job, which also fill
``batch-warm``'s cache — are made beforehand by :func:`prepare`, in
another process, so that a pass starts no process but its batch pool
and its peak RSS is that of its own requests.  ``bench run`` and
``bench measure`` give :func:`prepare` and each pass a fresh
interpreter; the self-tests call both directly.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from bench import OUT, gate, trace
from bench.requests import (
    block_dag,
    block_function,
    compile_block,
    compile_job,
    compile_program,
    isdl_parser,
    lower,
    run_batch,
)
from bench.workloads import WORKLOADS, Item, Workload, digest, pool_workers, rng


@dataclass(frozen=True)
class Size:
    """A fixed number of rounds, or as many rounds as fit in ``seconds``
    (at least one; the last round is always finished)."""

    rounds: Optional[int] = None
    seconds: Optional[float] = None

    def done(self, rounds_run: int, elapsed: float) -> bool:
        if self.rounds is not None:
            return rounds_run >= self.rounds
        return rounds_run >= 1 and elapsed >= self.seconds


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest waited-for child
    (in a fresh pass process, a batch pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def prepare(name: str, seed: int, directory: Path, smoke: bool = False) -> None:
    """Write a batch workload's direct references to
    ``directory/references.json`` and, for ``batch-warm``, fill the cache
    ``directory/warm`` with the same compiles.  Other workloads need
    nothing prepared."""
    workload = WORKLOADS[name]
    if workload.kind != "batch":
        return
    items = workload.smoke_items if smoke else workload.items
    directory = Path(directory)
    warm = fresh_dir(directory / "warm") if workload.warm else None
    references = gate.reference_batch(
        items, seed, str(warm) if warm else None, pool_workers()
    )
    write_json(directory / "references.json", references)


def run_pass(
    name: str,
    seed: int,
    size: Size,
    traced: bool = False,
    smoke: bool = False,
    prepared: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run one pass of workload ``name``; the result document.

    ``prepared`` is the directory :func:`prepare` filled for the same
    workload, seed and ``smoke``; a batch workload needs it.
    """
    workload = WORKLOADS[name]
    items = workload.smoke_items if smoke else workload.items
    scratch = fresh_dir(OUT / "scratch" / f"{name}-{os.getpid()}")
    try:
        runner = _runner(workload, items, seed, smoke, scratch)
        runner.prepare(prepared)
        result = _drive(runner, size, traced, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result.update(workload=name, seed=seed, mode="traced" if traced else "timed")
    return result


def _drive(runner, size: Size, traced: bool, scratch: Path) -> Dict[str, Any]:
    tracer = trace.Tracer(scratch / "spool") if traced else None
    installation = trace.install(tracer) if traced else None
    rows: List[Dict[str, Any]] = []
    try:
        started = time.perf_counter()
        round_index = 0
        while not size.done(round_index, time.perf_counter() - started):
            for request in runner.round(round_index):
                if tracer is not None:
                    tracer.request = len(rows)
                    begin = time.perf_counter()
                    output = tracer.call(trace.REQUEST, runner.send, (request,), {})
                    latency = time.perf_counter() - begin
                    tracer.merge_workers()
                else:
                    begin = time.perf_counter()
                    output = runner.send(request)
                    latency = time.perf_counter() - begin
                rows.append(dict(runner.row(request, output),
                                 round=round_index, latency_s=latency))
            runner.end_round(round_index)
            round_index += 1
    finally:
        if installation is not None:
            installation.restore()
    rss = peak_rss_mb()
    distinct = runner.distinct()
    attempted, failed, reasons = gate.judge(
        (output for row in rows for output in runner.outputs(row)), distinct
    )
    result: Dict[str, Any] = {
        "rounds": round_index,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons[:20],
        "quality": gate.totals(distinct),
        "distinct": {label: {k: v for k, v in record.items() if k != "errors"}
                     for label, record in distinct.items()},
        "schedule_changes": gate.schedule_changes(distinct, gate.load_golden()),
        "peak_rss_mb": rss,
        "rows": rows,
    }
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, installation, rows)
        write_json(OUT / f"{runner.workload.name}.trace.json",
                   trace.chrome_trace(tracer.spans))
    return result


def _trace_summary(tracer: trace.Tracer, installation, rows) -> Dict[str, Any]:
    """Per-request layer rows plus the totals the per-layer metrics use."""
    by_request = trace.request_layers(tracer.spans)
    for index, row in enumerate(rows):
        row["layers"] = by_request.get(index, {})
    totals = {layer: [0.0, 0] for layer in trace.LAYERS}
    facts: Dict[str, float] = dict.fromkeys(
        ("cliques", "raw", "legal", "covers", "pruned", "assignments", "gets",
         "hits", "job_s", "batch_s", "request_s", "request_self_s"), 0
    )
    puts: Dict[int, List[str]] = {}
    for layer, _, request, _, duration, self_s, args in tracer.spans:
        if layer == trace.REQUEST:
            facts["request_s"] += duration
            facts["request_self_s"] += self_s
            continue
        totals[layer][0] += self_s
        totals[layer][1] += 1
        args = args or {}
        for fact in ("cliques", "raw", "legal", "pruned", "assignments"):
            facts[fact] += args.get(fact, 0)
        if layer == "covering.cover":
            facts["covers"] += 1
        elif layer == "serve.cache.get":
            facts["gets"] += 1
            facts["hits"] += args["hit"]
        elif layer == "serve.cache.put":
            puts.setdefault(request, []).append(args["entry"])
        elif layer == "serve.execute_job":
            facts["job_s"] += duration
        elif layer == "serve.run_batch":
            facts["batch_s"] += duration
    facts["duplicates"] = sum(len(e) - len(set(e)) for e in puts.values())
    return {
        "requests": len(rows),
        "layers": totals,
        "facts": facts,
        "workers": pool_workers(),
        "absent": installation.absent,
        "missing": [".".join(target[1:]) for target in installation.missing],
    }


def _runner(workload: Workload, items, seed: int, smoke: bool, scratch: Path):
    kind = _BatchPass if workload.kind == "batch" else _CompilePass
    return kind(workload, items, seed, smoke, scratch)


class _CompilePass:
    """paper-blocks and examples-cold: one compile per request.

    Construction is the set-up ``setup_s`` times: read the inputs, parse
    the machines a request does not parse itself, and send one request
    of the cheapest item.
    """

    def __init__(self, workload: Workload, items: Sequence[Item], seed: int,
                 smoke: bool, scratch: Path):
        self.workload = workload
        self.items = list(items)
        self.seed = seed
        self.sources = {item.label: item.source() for item in items}
        self.discards = {item.label: item.discard() for item in items}
        if workload.kind == "block":
            machines = {item.machine: item.machine_isdl() for item in items}
            self.machines = {stem: isdl_parser.parse_machine(text)
                             for stem, text in machines.items()}
        else:
            self.machines = {item.machine: item.machine_isdl() for item in items}
        #: First successful output of each item: what the gate checks.
        self.first: Dict[str, Any] = {}
        self._compile(workload.cheapest)

    def prepare(self, prepared: Optional[Path]) -> None:
        pass

    def round(self, index: int) -> List[Item]:
        order = list(self.items)
        rng("order", self.seed, self.workload.name, index).shuffle(order)
        return order

    def _compile(self, item: Item):
        source = self.sources[item.label]
        machine = self.machines[item.machine]
        if self.workload.kind == "block":
            return compile_block(source, self.discards[item.label], machine)
        return compile_program(source, machine)

    def send(self, item: Item):
        try:
            compiled, image = self._compile(item)
        except Exception as error:  # noqa: BLE001 - counted as a failure
            return f"error: {type(error).__name__}: {error}", None
        self.first.setdefault(item.label, (compiled, image))
        return "ok", digest(compiled.program.listing())

    def row(self, item: Item, output) -> Dict[str, Any]:
        status, listing = output
        return {"request": item.label, "status": status, "digest": listing}

    def end_round(self, index: int) -> None:
        pass

    def outputs(self, row):
        yield row["request"], row["status"], row["digest"]

    def distinct(self) -> Dict[str, Dict[str, Any]]:
        records = {}
        by_label = {item.label: item for item in self.items}
        for label, (compiled, image) in self.first.items():
            item = by_label[label]
            if self.workload.kind == "block":
                function = block_function(block_dag(self.sources[label], self.discards[label]))
                machine = self.machines[item.machine]
            else:
                function = lower.compile_source(self.sources[label])
                machine = isdl_parser.parse_machine(self.machines[item.machine])
            records[label] = gate.distinct_record(
                label, function, compiled, image, machine, self.seed
            )
        return records


class _BatchPass:
    """batch-cold and batch-warm: one ``run_batch`` of the workload's job
    mix per request, on a fresh empty cache per batch or on the cache
    :func:`prepare` filled.

    Construction (what ``setup_s`` times) builds the jobs and sends a
    one-job batch of the cheapest item; :meth:`prepare` loads the direct
    references.
    """

    def __init__(self, workload: Workload, items: Sequence[Item], seed: int,
                 smoke: bool, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        jobs = {item.label: compile_job(item) for item in items}
        self.mix = [jobs[label] for label in (workload.smoke_mix if smoke else workload.mix)]
        self.warm_cache: Optional[Path] = None
        self.references: Dict[str, Dict[str, Any]] = {}
        run_batch([jobs[workload.cheapest.label]], self._cache(-1))
        self.end_round(-1)

    def prepare(self, prepared: Optional[Path]) -> None:
        if prepared is None:
            raise ValueError(f"{self.workload.name} needs a directory bench.runner.prepare filled")
        prepared = Path(prepared)
        self.references = json.loads((prepared / "references.json").read_text())
        if self.workload.warm:
            self.warm_cache = prepared / "warm"

    def _cache(self, index: int) -> Path:
        if self.warm_cache is not None:
            return self.warm_cache
        return fresh_dir(self.scratch / "cold" / str(index))

    def round(self, index: int):
        return [(self.mix, self._cache(index))]

    def send(self, request):
        jobs, cache_dir = request
        return run_batch(jobs, cache_dir)

    def row(self, request, report) -> Dict[str, Any]:
        return {
            "request": "batch",
            "jobs": [
                [r["job_id"], r["status"],
                 digest(r["assembly"]) if r["status"] == "ok" else None, r["wall_s"]]
                for r in report["results"]
            ],
            "cache": report["totals"]["cache"],
        }

    def end_round(self, index: int) -> None:
        if self.warm_cache is None:
            shutil.rmtree(self.scratch / "cold" / str(index), ignore_errors=True)

    def outputs(self, row):
        for label, status, listing, _ in row["jobs"]:
            yield label, status, listing

    def distinct(self) -> Dict[str, Dict[str, Any]]:
        return self.references


def write_json(path, payload: Any) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def setup_launch(name: str, seed: int) -> None:
    """One ``setup_s`` launch, after start-up and imports: the set-up of
    a pass, without the batch references."""
    workload = WORKLOADS[name]
    scratch = fresh_dir(OUT / "scratch" / f"setup-{name}-{os.getpid()}")
    try:
        _runner(workload, workload.items, seed, False, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
