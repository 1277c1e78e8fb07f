"""BENCHMARK.json, the metric tables, the vendored inputs, the batch mix
and the goldens agree; a checkout without ``src/`` refuses to run."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from repro.serve.bench import DEFAULT_UNIVERSE, zipfian_mix

from bench import BENCH_DIR, CHECKOUT
from bench.gate import load_golden
from bench.metrics import END_TO_END, per_layer
from bench.workloads import INPUTS, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _definition():
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def test_benchmark_json_mirrors_the_tables():
    document = _definition()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["paths"] == ["bench"]
    assert document["command"][:3] == ["python3", "-m", "bench"]
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    for entry in document["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in document["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]] == per_layer()
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    names += [w["name"] for w in document["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in document["end_to_end"] + document["per_layer"])
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_inputs_are_vendored_and_every_item_has_a_golden():
    golden = load_golden()
    for workload in WORKLOADS.values():
        assert workload.cheapest in workload.items
        assert workload.cheapest in workload.smoke_items
        assert set(workload.smoke_items) <= set(workload.items)
        for item in workload.items:
            assert (INPUTS / item.program).is_file()
            assert (INPUTS / "machines" / f"{item.machine}.isdl").is_file()
            assert item.label in golden, item.label


def test_the_batch_mix_is_the_serve_bench_zipf_mix():
    universe = WORKLOADS["batch-cold"].items
    serve_ranked = [(Path(example).stem, machine, config)
                    for _, example, machine, config in DEFAULT_UNIVERSE]
    ours = [(Path(item.program).stem, item.machine, dict(item.config)) for item in universe]
    assert ours[:-1] == serve_ranked
    assert universe[-1].label == "fir4@dualbus"
    for workload in (WORKLOADS["batch-cold"], WORKLOADS["batch-warm"]):
        labels = [item.label for item in workload.items]
        assert list(workload.mix) == zipfian_mix(labels, 24, seed=0)
        smoke = [item.label for item in workload.smoke_items]
        assert list(workload.smoke_mix) == zipfian_mix(smoke, 6, seed=0)


def test_a_checkout_without_src_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = _definition()["command"] + [
        "--workload", "paper-blocks", "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    command[0] = sys.executable
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "repro" in done.stderr
