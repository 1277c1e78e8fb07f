"""Exploration determinism across worker counts.

The acceptance contract for ``repro explore`` is that the artifact is
a pure function of the seed: a serial run, a pooled run, and a pooled
run warm-started from a shared cache directory must all serialize to
the same bytes.  The payload therefore carries no wall-clock or
worker-count data (timing is returned separately), ``pool.map``
preserves candidate order, and compilation itself is deterministic.

Kept deliberately small (a handful of bases, a trimmed workload suite)
but marked ``slow`` alongside the other multi-process tests.
"""

from __future__ import annotations

import pytest

from repro.artifacts import write_artifact
from repro.explore import default_workloads, load_base_machines, run_explore

pytestmark = pytest.mark.slow

SEED = 3
POPULATION = 6


@pytest.fixture(scope="module")
def inputs():
    return {
        "bases": load_base_machines()[:3],
        "workloads": default_workloads(None)[:3],
    }


def _artifact_bytes(payload, directory):
    """Validate and write ``payload`` as ``BENCH_explore.json``; its bytes."""
    path = directory / "BENCH_explore.json"
    write_artifact(path, payload)
    return path.read_bytes()


@pytest.fixture(scope="module")
def serial_bytes(inputs, tmp_path_factory):
    payload, timing = run_explore(
        seed=SEED, population=POPULATION, workers=1, **inputs
    )
    assert timing["workers"] == 1
    return _artifact_bytes(payload, tmp_path_factory.mktemp("serial"))


def test_pooled_run_is_byte_identical(inputs, serial_bytes, tmp_path):
    payload, timing = run_explore(
        seed=SEED, population=POPULATION, workers=4, **inputs
    )
    assert timing["workers"] == 4
    assert _artifact_bytes(payload, tmp_path) == serial_bytes


def test_cache_warmed_run_is_byte_identical(inputs, serial_bytes, tmp_path):
    cache = str(tmp_path / "cache")
    cold, _ = run_explore(
        seed=SEED, population=POPULATION, workers=4, cache_dir=cache, **inputs
    )
    assert _artifact_bytes(cold, tmp_path) == serial_bytes
    # Second run over the now-populated cache: every block is a hit,
    # and hits must not leak into the artifact either.
    warm, _ = run_explore(
        seed=SEED, population=POPULATION, workers=4, cache_dir=cache, **inputs
    )
    assert _artifact_bytes(warm, tmp_path) == serial_bytes
