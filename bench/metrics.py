"""Metric definitions: names, units, directions and regression bounds.

``END_TO_END`` is what a user of the compiler sees; each bound is the
share of the parent's median by which a metric may worsen before a
change counts as a regression.  The quality metrics are deterministic,
so their bound only absorbs float rounding: any change of one unit
fails it.  ``BENCHMARK.json`` at the checkout root mirrors this table
(a self-test keeps the two equal).

``PER_LAYER`` comes from the traced pass.  Every layer of
:data:`bench.trace.LAYERS` yields ``<layer>.self_s`` (self seconds per
request) and ``<layer>.calls`` (calls per request); the ratios and
counts below are measured at the same wrappers.
"""

from __future__ import annotations

from typing import List, Tuple

from bench.trace import LAYERS

#: Bound for metrics that must not move at all: positive, and below one
#: unit of every quality total (all are under 10,000).
EXACT = 0.0001
#: Bound for timings, three times their widest spread.  Over ten 20 s
#: runs at different seeds on a shared 2-core machine the spread
#: (quartile distance over median) of each latency and throughput was
#: 1.5-3% on the compile workloads and 4-8% on the batch workloads
#: (widest: batch-warm throughput, whose batches each start a pool), and
#: of ``setup_s`` 7-11%.
TIMING = 0.25

# (name, unit, better, bound)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("latency_p50_s", "s", "lower", TIMING),
    ("latency_p90_s", "s", "lower", TIMING),
    ("throughput_rps", "1/s", "higher", TIMING),
    ("ok_frac", "frac", "higher", EXACT),
    ("code_words", "words", "lower", EXACT),
    ("sim_cycles", "cycles", "lower", EXACT),
    ("spills", "count", "lower", EXACT),
    ("setup_s", "s", "lower", TIMING),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Counts and ratios beside the per-layer self times, with their units.
LAYER_FACTS: Tuple[Tuple[str, str, str], ...] = (
    ("covering.cliques.count", "count", "lower"),
    ("covering.legalize.legal_ratio", "ratio", "higher"),
    ("covering.cover.prune_ratio", "ratio", "higher"),
    ("covering.assignments.count", "count", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.duplicate_compiles", "count", "lower"),
    ("serve.pool_utilization", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("schedule_changes", "count", "lower"),
)


def per_layer() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    rows: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        rows.append((f"{layer}.self_s", "s", "lower"))
        rows.append((f"{layer}.calls", "count", "lower"))
    rows.extend(LAYER_FACTS)
    return rows

