"""Wrapping, self time, worker spooling and missing wrap targets."""

from __future__ import annotations

import json
import os
import time
import types

import pytest

from bench import trace
from bench.measure import layer_metrics
from bench.runner import Size, run_pass


def _nested_module():
    module = types.ModuleType("fake_layers")

    def leaf(delay):
        time.sleep(delay)
        return delay

    def outer(delay):
        time.sleep(delay)
        return module.leaf(delay) + module.leaf(delay)

    module.leaf = leaf
    module.outer = outer
    return module


def test_self_time_is_duration_minus_child_spans(tmp_path, monkeypatch):
    module = _nested_module()
    monkeypatch.setitem(__import__("sys").modules, "fake_layers", module)
    tracer = trace.Tracer(tmp_path)
    installed = trace.install(
        tracer, [("outer", "fake_layers", "outer"), ("leaf", "fake_layers", "leaf")]
    )
    try:
        tracer.request = 0
        tracer.call(trace.REQUEST, module.outer, (0.02,), {})
    finally:
        installed.restore()
    assert module.outer.__name__ == "outer" and not hasattr(module.outer, "__wrapped__")
    layers = trace.request_layers(tracer.spans)[0]
    assert layers["leaf"][1] == 2
    assert layers["leaf"][0] == pytest.approx(0.04, abs=0.015)
    assert layers["outer"][0] == pytest.approx(0.02, abs=0.015)
    total = sum(span[4] for span in tracer.spans if span[0] == trace.REQUEST)
    assert sum(cell[0] for cell in layers.values()) == pytest.approx(total, rel=1e-9)


def test_worker_spans_spool_per_pid_and_merge(tmp_path):
    tracer = trace.Tracer(tmp_path / "spool")
    tracer.request = 3
    tracer.pid = -1  # as if this process had been forked from the driver
    tracer.call("serve.execute_job", lambda: None, (), {})
    assert tracer.spans == []
    spooled = list((tmp_path / "spool").glob("*.jsonl"))
    assert [path.name for path in spooled] == [f"{os.getpid()}.jsonl"]
    driver = trace.Tracer(tmp_path / "spool")
    driver.request = 7
    driver.merge_workers()
    assert [(s[0], s[2]) for s in driver.spans] == [("serve.execute_job", 7)]
    assert not list((tmp_path / "spool").glob("*.jsonl"))


def test_chrome_trace_events(tmp_path):
    tracer = trace.Tracer(tmp_path)
    tracer.call("covering.cover", lambda: None, (), {}, lambda a, k, r: {"pruned": 1})
    document = trace.chrome_trace(tracer.spans)
    (event,) = document["traceEvents"]
    assert event["name"] == "covering.cover" and event["ph"] == "X"
    assert event["args"]["pruned"] == 1
    json.dumps(document)


def test_every_wrap_target_resolves_today():
    tracer = trace.Tracer(".")
    installed = trace.install(tracer)
    installed.restore()
    assert installed.missing == []
    assert installed.absent == []


def test_missing_target_marks_the_layer_absent_and_the_run_goes_on(out_dir, monkeypatch):
    renamed = tuple(
        (layer, module, "cover_assignment_renamed" if layer == "covering.cover" else attribute)
        for layer, module, attribute in trace.WRAP_TARGETS
    )
    monkeypatch.setattr(trace, "WRAP_TARGETS", renamed)
    with pytest.warns(RuntimeWarning, match="cover_assignment_renamed"):
        traced = run_pass("examples-cold", 1, Size(rounds=1), traced=True, smoke=True)
    assert traced["failed"] == 0
    assert traced["trace"]["absent"] == ["covering.cover"]
    assert traced["trace"]["layers"]["covering.cover"] == [0.0, 0]
    metrics = layer_metrics(traced, traced)
    assert metrics["covering.cover.self_s"]["value"] == 0.0
    assert metrics["covering.cliques.calls"]["value"] > 0
    assert (out_dir / "examples-cold.trace.json").is_file()
