"""Outside-in per-layer tracing for the traced pass.

The traced pass wraps layer entry points from outside the program: each
row of :data:`WRAP_TARGETS` names a layer and the ``(module, attribute)``
where the *caller* looks the entry point up, so replacing that attribute
puts a span around every call.  A ``Class.method`` attribute is patched
on the class.  A target that no longer exists (internals get renamed)
is reported and skipped; a layer none of whose targets exist is marked
``absent`` and reads zero.  Tracing never fails a run.

Spans go to an in-memory buffer.  Pool workers forked by
``repro.serve.service.run_batch`` inherit the wrappers; each worker
appends its spans to ``<spool>/<pid>.jsonl`` after every
``execute_job`` returns, and the driver merges those files after the
batch.  A span's self time is its duration minus the time covered by its
child spans (children nest strictly inside one process).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, module, attribute) — where each layer's entry point is looked
#: up by its caller.
WRAP_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("frontend.parse", "repro.frontend.parser", "parse_program"),
    ("frontend.unroll", "repro.opt.unroll", "unroll_constant_loops"),
    ("frontend.lower", "repro.frontend.lower", "lower_program"),
    ("opt", "repro.opt.pipeline", "optimize_function"),
    ("isdl.parse", "repro.isdl.parser", "parse_machine"),
    ("sndag.build", "repro.covering.engine", "build_split_node_dag"),
    ("sndag.build", "repro.serve.codec", "build_split_node_dag"),
    ("covering.engine", "repro.covering.engine", "generate_block_solution"),
    ("covering.assignments", "repro.covering.engine", "explore_assignments"),
    ("covering.taskgraph", "repro.covering.engine", "TaskGraph"),
    ("covering.cover", "repro.covering.engine", "cover_assignment"),
    ("covering.parallelism", "repro.covering.cover", "parallelism_masks"),
    ("covering.cliques", "repro.covering.cover", "generate_maximal_clique_masks"),
    ("covering.cliques", "repro.covering.cover", "_enumerate_clique_masks"),
    ("covering.legalize", "repro.covering.cover", "legalize_clique_masks"),
    ("covering.spill", "repro.covering.taskgraph", "TaskGraph.spill_delivery"),
    ("covering.spill", "repro.covering.pressure", "PressureTracker.rebuild"),
    ("peephole", "repro.asmgen.program", "peephole_optimize"),
    ("regalloc", "repro.asmgen.program", "allocate_registers"),
    ("asmgen.emit", "repro.asmgen.program", "emit_block"),
    ("asmgen.program", "repro.asmgen.program", "compile_function"),
    ("assembler.encode", "repro.assembler.encoder", "encode_program"),
    ("serve.cache.get", "repro.serve.cache", "BlockCache.get"),
    ("serve.cache.put", "repro.serve.cache", "BlockCache.put"),
    ("serve.execute_job", "repro.serve.service", "execute_job"),
    ("serve.run_batch", "repro.serve.service", "run_batch"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in WRAP_TARGETS))

#: The benchmark's own span around each timed request; its self time is
#: the part of the request no layer accounts for.
REQUEST = "request"

#: Layer whose return, inside a pool worker, flushes that worker's spans.
_JOB_LAYER = "serve.execute_job"

Counter = Callable[[tuple, dict, Any], Dict[str, Any]]

#: Per-call facts recorded in a span's args, keyed by (layer, attribute).
COUNTERS: Dict[Tuple[str, str], Counter] = {
    ("covering.cliques", "generate_maximal_clique_masks"):
        lambda args, kwargs, result: {"cliques": len(result)},
    ("covering.cliques", "_enumerate_clique_masks"):
        lambda args, kwargs, result: {"cliques": len(result[0])},
    ("covering.legalize", "legalize_clique_masks"):
        lambda args, kwargs, result: {"raw": len(args[1]), "legal": len(result)},
    ("covering.cover", "cover_assignment"):
        lambda args, kwargs, result: {"pruned": int(result is None)},
    ("covering.assignments", "explore_assignments"):
        lambda args, kwargs, result: {"assignments": len(result)},
    ("serve.cache.get", "BlockCache.get"):
        lambda args, kwargs, result: {"hit": int(result is not None)},
    ("serve.cache.put", "BlockCache.put"):
        lambda args, kwargs, result: {"entry": args[0].entry_name(args[1])},
}

# A span: (layer, pid, request, start_s, duration_s, self_s, args).
Span = Tuple[str, int, int, float, float, float, Optional[Dict[str, Any]]]


class Tracer:
    """Span buffer plus the nesting stack that yields self times."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.request = -1
        self._children: List[float] = []
        self._in_worker = False

    def call(
        self,
        layer: str,
        function: Callable,
        args: tuple,
        kwargs: dict,
        counter: Optional[Counter] = None,
    ) -> Any:
        """Run ``function`` inside a span of ``layer``."""
        if layer == _JOB_LAYER and os.getpid() != self.pid:
            # First job in a forked worker: drop the parent's buffer.
            self.pid = os.getpid()
            self.spans = []
            self._children = []
            self._in_worker = True
        self._children.append(0.0)
        start = time.perf_counter()
        facts = None
        try:
            result = function(*args, **kwargs)
            if counter is not None:
                facts = counter(args, kwargs, result)
            return result
        finally:
            duration = time.perf_counter() - start
            children = self._children.pop()
            if self._children:
                self._children[-1] += duration
            self.spans.append(
                (layer, self.pid, self.request, start, duration,
                 duration - children, facts)
            )
            if layer == _JOB_LAYER and self._in_worker:
                self._flush()

    def _flush(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        with open(self.spool / f"{self.pid}.jsonl", "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def merge_workers(self) -> None:
        """Adopt the spans pool workers spooled for the current request."""
        if not self.spool.is_dir():
            return
        for path in sorted(self.spool.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                layer, pid, _, start, duration, self_s, facts = json.loads(line)
                self.spans.append(
                    (layer, pid, self.request, start, duration, self_s, facts)
                )
            path.unlink()


class Installation:
    """The wrappers a traced pass installed, and how to take them out."""

    def __init__(self, layers: Sequence[str]) -> None:
        self.layers = list(layers)
        self.missing: List[Tuple[str, str, str]] = []
        self.installed: List[Tuple[str, str, str]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    @property
    def absent(self) -> List[str]:
        """Layers none of whose targets could be wrapped."""
        present = {row[0] for row in self.installed}
        return [layer for layer in self.layers if layer not in present]

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str, Any]:
    """(owner, name, current value) of a dotted attribute in a module."""
    owner: Any = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if name not in owner.__dict__:
            raise AttributeError(f"{owner.__name__} defines no {name}")
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def install(
    tracer: Tracer,
    targets: Optional[Sequence[Tuple[str, str, str]]] = None,
) -> Installation:
    """Wrap every target (default :data:`WRAP_TARGETS`) that resolves;
    warn about the ones that do not."""
    if targets is None:
        targets = WRAP_TARGETS
    done = Installation(dict.fromkeys(row[0] for row in targets))
    for layer, module_name, attribute in targets:
        try:
            owner, name, original = _resolve(module_name, attribute)
        except (ImportError, AttributeError) as error:
            warnings.warn(
                f"trace target {module_name}.{attribute} for layer "
                f"{layer!r} is missing ({error}); layer may read absent",
                RuntimeWarning,
                stacklevel=2,
            )
            done.missing.append((layer, module_name, attribute))
            continue
        counter = COUNTERS.get((layer, attribute))
        done._undo.append((owner, name, original))
        setattr(owner, name, _wrap(tracer, layer, original, counter))
        done.installed.append((layer, module_name, attribute))
    return done


def _wrap(tracer: Tracer, layer: str, original: Any, counter) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.call(layer, original, args, kwargs, counter)

    return traced


def chrome_trace(spans: Sequence[Span]) -> Dict[str, Any]:
    """Chrome trace-event document (``chrome://tracing``, Perfetto)."""
    events = []
    for layer, pid, request, start, duration, self_s, facts in spans:
        args = {"request": request, "self_us": round(self_s * 1e6, 3)}
        if facts:
            args.update(facts)
        events.append({
            "name": layer,
            "cat": "bench",
            "ph": "X",
            "ts": round(start * 1e6, 3),
            "dur": round(duration * 1e6, 3),
            "pid": pid,
            "tid": pid,
            "args": args,
        })
    events.sort(key=lambda event: (event["pid"], event["ts"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def request_layers(spans: Sequence[Span]) -> Dict[int, Dict[str, List[float]]]:
    """Per request: ``{layer: [self_s, calls]}`` over every process."""
    table: Dict[int, Dict[str, List[float]]] = {}
    for layer, _, request, _, _, self_s, _ in spans:
        cell = table.setdefault(request, {}).setdefault(layer, [0.0, 0])
        cell[0] += self_s
        cell[1] += 1
    return table
