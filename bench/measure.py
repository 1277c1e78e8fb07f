"""Fresh-process passes and set-up launches, and the metrics they yield.

Each pass runs in its own interpreter (``python -m bench _pass``), so
one workload's imports, caches and heap never leak into another's
timings; a batch workload's references are prepared in one more
(``python -m bench _prepare``).  ``setup_s`` is the median of five
fresh launches of ``python -m bench _setup``, each timed from process
start to exit.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from bench import CHECKOUT, OUT
from bench.metrics import END_TO_END, per_layer
from bench.stats import percentile, summary
from bench.trace import LAYERS
from bench.workloads import WORKLOADS

#: Fresh launches whose median is ``setup_s``, split before and after the
#: timed pass so that one slow stretch of a shared machine moves fewer
#: of them.
SETUP_LAUNCHES = 5


def _environment() -> Dict[str, str]:
    temp = OUT / "tmp"
    temp.mkdir(parents=True, exist_ok=True)
    # Temp files (pool semaphores, tempfile users) stay in the checkout;
    # a pinned hash seed keeps set iteration, hence work, identical.
    return dict(os.environ, TMPDIR=str(temp), PYTHONHASHSEED="0")


def launch(args: List[str], timeout: float) -> float:
    """Run ``python -m bench <args>`` from the checkout root; its wall
    time.  On timeout the whole process group is killed and reaped.

    The wait blocks in ``waitpid``: ``Popen.wait(timeout=...)`` polls
    with sleeps of up to 50 ms, which would quantize the time.
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "bench", *args],
        cwd=CHECKOUT,
        env=_environment(),
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    timer = threading.Timer(timeout, _kill_group, (process.pid,))
    timer.start()
    try:
        code = process.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    if code == -signal.SIGKILL:
        raise RuntimeError(f"bench {args[0]} exceeded {timeout:.0f}s")
    if code != 0:
        raise RuntimeError(f"bench {' '.join(args)} exited with {code}")
    return elapsed


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def setup_samples(name: str, seed: int, timeout: float, count: int) -> List[float]:
    args = ["_setup", "--workload", name, "--seed", str(seed)]
    return [launch(args, timeout) for _ in range(count)]


def fresh_pass(
    name: str,
    seed: int,
    rounds: Optional[int],
    seconds: Optional[float],
    traced: bool,
    prepared: Optional[str],
    timeout: float,
) -> Dict[str, Any]:
    """One pass in a fresh interpreter; its result document."""
    mode = "traced" if traced else "timed"
    out = OUT / "passes" / f"{name}-{mode}-{seed}-{os.getpid()}.json"
    args = ["_pass", "--workload", name, "--seed", str(seed), "--out", str(out)]
    args += ["--rounds", str(rounds)] if rounds is not None else ["--seconds", str(seconds)]
    args += ["--traced"] if traced else []
    args += ["--prepared", prepared] if prepared else []
    launch(args, timeout)
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink()


def _samples(result: Dict[str, Any]) -> Iterator[Tuple[Any, float]]:
    """``(request, latency)`` of every request a pass timed.  A batch
    workload's requests are its jobs, keyed by their place in the mix,
    with the compile time the pool worker measured."""
    for row in result["rows"]:
        if "jobs" in row:
            for place, job in enumerate(row["jobs"]):
                yield place, job[3]
        else:
            yield row["request"], row["latency_s"]


def best_latencies(result: Dict[str, Any]) -> List[float]:
    """Each distinct request's fastest latency in a pass.

    Other tenants of a shared machine slow whole stretches of a run, by
    up to 1.8x; the fastest of a request's samples is the estimate of
    its cost that they move least.
    """
    best: Dict[Any, float] = {}
    for key, latency in _samples(result):
        best[key] = min(best.get(key, latency), latency)
    return list(best.values())


def throughput(result: Dict[str, Any]) -> float:
    """Requests of one round over the round's busy time, each request
    (a batch workload: the whole batch) at its fastest."""
    rows = result["rows"]
    if "jobs" in rows[0]:
        return len(rows[0]["jobs"]) / min(row["latency_s"] for row in rows)
    best = best_latencies(result)
    return len(best) / sum(best)


def end_to_end(timed: Dict[str, Any], setup: List[float]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric from a timed pass and set-up launches."""
    best = best_latencies(timed)
    attempted = max(1, timed["attempted"])
    values = {
        "latency_p50_s": percentile(best, 50),
        "latency_p90_s": percentile(best, 90),
        "throughput_rps": throughput(timed),
        "ok_frac": (attempted - timed["failed"]) / attempted,
        "setup_s": percentile(setup, 50),
        "peak_rss_mb": timed["peak_rss_mb"],
        **timed["quality"],
    }
    metrics = {}
    for name, unit, _, _ in END_TO_END:
        metrics[name] = {"value": values[name], "unit": unit}
    samples = summary([latency for _, latency in _samples(timed)])
    metrics["latency_p50_s"].update(distinct=len(best), samples=samples)
    metrics["setup_s"].update(samples=summary(setup))
    return metrics


def layer_metrics(traced: Dict[str, Any], timed: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric from a traced pass (and a timed pass for
    the tracing overhead)."""
    spans = traced["trace"]
    requests = max(1, spans["requests"])
    facts = spans["facts"]
    values: Dict[str, float] = {}
    for layer in LAYERS:
        self_s, calls = spans["layers"][layer]
        values[f"{layer}.self_s"] = self_s / requests
        values[f"{layer}.calls"] = calls / requests

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values.update({
        "covering.cliques.count": facts["cliques"] / requests,
        "covering.legalize.legal_ratio": ratio(facts["legal"], facts["raw"]),
        "covering.cover.prune_ratio": ratio(facts["pruned"], facts["covers"]),
        "covering.assignments.count": facts["assignments"] / requests,
        "serve.cache.hit_ratio": ratio(facts["hits"], facts["gets"]),
        "serve.duplicate_compiles": facts["duplicates"] / requests,
        "serve.pool_utilization": ratio(
            facts["job_s"], spans["workers"] * facts["batch_s"]
        ),
        "trace.overhead_frac": percentile(best_latencies(traced), 50)
        / percentile(best_latencies(timed), 50) - 1.0,
        "trace.unattributed_frac": ratio(facts["request_self_s"], facts["request_s"]),
        "schedule_changes": traced["schedule_changes"],
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer()}


def measure_workload(
    name: str,
    seed: int,
    *,
    timed_size: Dict[str, Any],
    traced_size: Optional[Dict[str, Any]],
    with_setup: bool,
    timeout: float = 900.0,
) -> Dict[str, Any]:
    """Set-up launches, a timed pass and (optionally) a traced pass of
    one workload, each in fresh interpreters; the workload report."""
    prepared = None
    if WORKLOADS[name].kind == "batch":
        prepared = str(OUT / "prepared" / f"{name}-{seed}-{os.getpid()}")
    try:
        if prepared:
            launch(["_prepare", "--workload", name, "--seed", str(seed), "--dir", prepared],
                   timeout)
        setup: List[float] = []
        before = (SETUP_LAUNCHES + 1) // 2
        if with_setup:
            setup += setup_samples(name, seed, timeout, before)
        timed = fresh_pass(name, seed, traced=False, prepared=prepared, timeout=timeout,
                           **timed_size)
        if with_setup:
            setup += setup_samples(name, seed, timeout, SETUP_LAUNCHES - before)
        report: Dict[str, Any] = {
            "attempted": timed["attempted"],
            "failed": timed["failed"],
            "failures": timed["failures"],
            "rounds": timed["rounds"],
            "distinct": timed["distinct"],
            "rows": timed["rows"],
        }
        if with_setup:
            report["metrics"] = end_to_end(timed, setup)
        if traced_size is not None:
            traced = fresh_pass(name, seed, traced=True, prepared=prepared, timeout=timeout,
                                **traced_size)
            report["per_layer"] = layer_metrics(traced, timed)
            report["attempted"] += traced["attempted"]
            report["failed"] += traced["failed"]
            report["failures"] += [f for f in traced["failures"]
                                   if f not in report["failures"]]
            report["traced_rows"] = traced["rows"]
            report["absent"] = traced["trace"]["absent"]
            report["missing_targets"] = traced["trace"]["missing"]
        return report
    finally:
        if prepared:
            shutil.rmtree(prepared, ignore_errors=True)
