"""An injected sleep in one layer shows where it should, and only there.

The sleep wraps ``repro.covering.engine.cover_assignment`` in this test
process only (batch pool workers inherit it by fork).  ``examples-cold``
compiles without a cache, so it must regress; ``batch-warm`` serves
every block from a filled cache and never covers, so it must not
regress.  Four pairs on a shared machine may leave ``batch-warm``'s
verdict ``unresolved``; that its pool never calls ``cover_assignment``
is checked exactly, on a traced pass.
"""

from __future__ import annotations

import contextlib
import time

import repro.covering.engine as engine

from bench.measure import best_latencies
from bench.metrics import TIMING
from bench.runner import Size, prepare, run_pass
from bench.stats import percentile, verdict

SLEEP_S = 0.004
PAIRS = 4


@contextlib.contextmanager
def sleepy_cover():
    original = engine.cover_assignment

    def sleepy(*args, **kwargs):
        time.sleep(SLEEP_S)
        return original(*args, **kwargs)

    engine.cover_assignment = sleepy
    try:
        yield
    finally:
        engine.cover_assignment = original


def _p50(name: str, seed: int, rounds: int, slow: bool, prepared) -> float:
    with sleepy_cover() if slow else contextlib.nullcontext():
        result = run_pass(name, seed, Size(rounds=rounds), smoke=True, prepared=prepared)
    assert result["failed"] == 0, result["failures"]
    return percentile(best_latencies(result), 50)


def _paired(name: str, rounds: int, out_dir):
    base, head = [], []
    for pair in range(PAIRS):
        prepared = out_dir / f"prepared-{name}-{pair}"
        prepare(name, pair, prepared, smoke=True)
        for slow in ((False, True) if pair % 2 == 0 else (True, False)):
            (head if slow else base).append(_p50(name, pair, rounds, slow, prepared))
    return base, head


def test_sleep_in_cover_regresses_examples_cold_only(out_dir):
    base, head = _paired("examples-cold", 3, out_dir)
    assert verdict(base, head, "lower", TIMING)["verdict"] == "regressed"
    base, head = _paired("batch-warm", 20, out_dir)
    result = verdict(base, head, "lower", TIMING)
    assert result["verdict"] != "regressed", result
    with sleepy_cover():
        traced = run_pass("batch-warm", 0, Size(rounds=2), traced=True, smoke=True,
                          prepared=out_dir / "prepared-batch-warm-0")
    assert traced["failed"] == 0
    assert traced["trace"]["layers"]["covering.cover"][1] == 0
    assert traced["trace"]["layers"]["serve.cache.get"][1] > 0


def test_sleep_is_attributed_to_covering_cover(out_dir):
    clean = run_pass("examples-cold", 1, Size(rounds=1), traced=True, smoke=True)
    with sleepy_cover():
        slow = run_pass("examples-cold", 1, Size(rounds=1), traced=True, smoke=True)
    before, after = clean["trace"], slow["trace"]
    self_s, calls = after["layers"]["covering.cover"]
    assert calls == before["layers"]["covering.cover"][1] > 0
    injected = calls * SLEEP_S
    # The sleep runs inside the covering.cover span and outside any child.
    assert self_s >= injected
    assert self_s - before["layers"]["covering.cover"][0] >= 0.7 * injected
    for layer, (other_s, _) in after["layers"].items():
        if layer != "covering.cover":
            assert other_s - before["layers"][layer][0] < 0.25 * injected, layer
    assert after["facts"]["request_self_s"] < 0.05 * after["facts"]["request_s"]
