"""Concurrency stress: many workers, one cache directory, no torn state.

Runs an overlapping zipfian job mix through the process pool with every
worker hammering one shared cache directory, and checks the three things
the atomic-write discipline promises:

- the pooled results are **byte-identical** to a serial (``workers=0``)
  run of the same mix against a separate cache;
- no partial files survive — no ``*.tmp`` leftovers, and every entry in
  the shared directory parses as a complete, correctly stamped document;
- a warm pooled rerun over the now-populated directory hits on every
  job and still matches the serial outputs.

Kept deliberately modest in size (pool startup dominates) but marked
``slow`` alongside the other multi-process tests.
"""

from __future__ import annotations

import json

import pytest

from repro.serve import run_batch, zipfian_mix
from repro.serve.bench import build_universe
from repro.serve.cache import CACHE_FORMAT

pytestmark = pytest.mark.slow


def outputs(report):
    return [
        (r["job_id"], r["status"], r["assembly"], r["schedules"])
        for r in report["results"]
    ]


@pytest.fixture(scope="module")
def mix():
    universe = build_universe(repo_root=None)  # cwd == repo root under pytest
    # Drop the slowest universe member to keep the stress test snappy;
    # the remaining mix still overlaps heavily across workers.
    universe = [job for job in universe if job.job_id != "dotprod@fig6"]
    return zipfian_mix(universe, draws=14, seed=3)


def test_pool_matches_serial_and_writes_atomically(mix, tmp_path):
    shared = tmp_path / "shared-cache"
    serial = run_batch(mix, cache_dir=str(tmp_path / "serial-cache"), workers=0)
    pooled = run_batch(mix, cache_dir=str(shared), workers=3)
    assert outputs(pooled) == outputs(serial)
    assert pooled["totals"]["ok"] == len(mix)

    # Atomicity: nothing half-written survives the stampede.
    assert not list(shared.glob("*.tmp"))
    entries = [p for p in shared.glob("*.json") if p.name != "index.json"]
    assert entries
    for path in entries:
        document = json.loads(path.read_bytes())  # parses completely
        assert document["format"] == CACHE_FORMAT
        assert set(document) >= {"format", "key", "solution"}

    # Warm pooled rerun: every job hits, and the output is still
    # identical to the serial run.
    warm = run_batch(mix, cache_dir=str(shared), workers=3)
    assert outputs(warm) == outputs(serial)
    assert warm["totals"]["cache_hit_rate"] == 1.0
    assert warm["totals"]["cache"]["misses"] == 0
    assert warm["totals"]["cache"]["bad_entries"] == 0


def test_duplicate_jobs_race_on_one_key(tmp_path):
    """Every worker compiles the *same* job: maximal write contention on
    a single entry name must still yield one good entry and identical
    results."""
    universe = build_universe(repo_root=None)
    hot = next(job for job in universe if job.job_id == "fir4@arch1")
    jobs = [hot] * 6
    shared = tmp_path / "cache"
    pooled = run_batch(jobs, cache_dir=str(shared), workers=3)
    assert {r["status"] for r in pooled["results"]} == {"ok"}
    assemblies = {r["assembly"] for r in pooled["results"]}
    assert len(assemblies) == 1
    assert not list(shared.glob("*.tmp"))
    serial = run_batch([hot], cache_dir=str(tmp_path / "other"), workers=0)
    assert serial["results"][0]["assembly"] in assemblies
