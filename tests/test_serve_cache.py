"""The persistent block cache: correctness of hits, LRU, and wiring.

Covers the cache-layer satellites of the serving issue:

- a disk hit is **bit-identical** to a cold compile — assembly text and
  per-block schedule map — for example programs across machines and
  both covering loops (production and the test-only reference oracle),
  and the warm result passes the independent translation validator
  (the property/differential harness);
- LRU eviction respects both the entry and byte budgets and a *touched*
  entry survives where an untouched one is evicted.
"""

from __future__ import annotations

import pytest

from repro.covering.config import HeuristicConfig
from repro.covering.engine import generate_block_solution, machine_fingerprint
from repro.frontend import compile_source
from repro.ir import BlockDAG, Opcode
from repro.serve import BlockCache
from repro.serve.service import CACHE_COUNTERS
from repro.telemetry import TelemetrySession, use_session
from repro.verify import verify_function

from conftest import build_fig2_dag, build_wide_dag


def cache_key(dag, machine, config=None, pin=None):
    config = config or HeuristicConfig.default()
    return (dag.fingerprint(), machine_fingerprint(machine), config, pin)


def chain_dag(length, seed=0):
    """A distinct additive chain per (length, seed): cold-insert fodder."""
    dag = BlockDAG()
    total = dag.var(f"s{seed}_0")
    for i in range(1, length + 1):
        total = dag.operation(Opcode.ADD, (total, dag.var(f"s{seed}_{i}")))
    dag.store("out", total)
    return dag


class TestBlockCache:
    def test_put_get_roundtrip(self, arch1, tmp_path):
        cache = BlockCache(tmp_path)
        dag = build_fig2_dag()
        key = cache_key(dag, arch1)
        solution = generate_block_solution(dag, arch1)
        session = TelemetrySession()
        with use_session(session):
            assert cache.get(key, dag, arch1) is None  # cold miss
            cache.put(key, solution)
            hit = cache.get(key, dag, arch1)
        assert hit is not None
        assert [sorted(w) for w in hit.schedule] == [
            sorted(w) for w in solution.schedule
        ]
        assert {
            name: session.counter(f"serve.cache_{name}")
            for name in CACHE_COUNTERS
        } == {
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "evictions": 0,
            "bad_entries": 0,
        }
        assert len(cache) == 1

    def test_distinct_keys_distinct_entries(self, arch1, tmp_path):
        cache = BlockCache(tmp_path)
        fig2, wide = build_fig2_dag(), build_wide_dag(2)
        cache.put(cache_key(fig2, arch1), generate_block_solution(fig2, arch1))
        cache.put(cache_key(wide, arch1), generate_block_solution(wide, arch1))
        assert len(cache) == 2
        # Same DAG under a different config is a different key.
        wide_config = HeuristicConfig.default().with_(num_assignments=2)
        assert cache.get(cache_key(fig2, arch1, wide_config), fig2, arch1) is None

    def test_entry_budget_evicts_lru(self, arch1, tmp_path):
        cache = BlockCache(tmp_path, max_entries=2)
        dags = [chain_dag(2, seed) for seed in range(3)]
        keys = [cache_key(dag, arch1) for dag in dags]
        cache.put(keys[0], generate_block_solution(dags[0], arch1))
        cache.put(keys[1], generate_block_solution(dags[1], arch1))
        # Touch entry 0: it becomes the most recently used.
        assert cache.get(keys[0], dags[0], arch1) is not None
        session = TelemetrySession()
        with use_session(session):
            cache.put(keys[2], generate_block_solution(dags[2], arch1))
        assert session.counter("serve.cache_evictions") == 1
        assert len(cache) == 2
        # The untouched entry 1 was the victim; the hot entry survived.
        assert cache.get(keys[0], dags[0], arch1) is not None
        assert cache.get(keys[1], dags[1], arch1) is None

    def test_byte_budget_evicts(self, arch1, tmp_path):
        dag = build_fig2_dag()
        solution = generate_block_solution(dag, arch1)
        probe = BlockCache(tmp_path / "probe")
        probe.put(cache_key(dag, arch1), solution)
        entry_bytes = probe.entry_path(cache_key(dag, arch1)).stat().st_size
        cache = BlockCache(tmp_path / "small", max_bytes=entry_bytes + 8)
        dags = [chain_dag(1, seed) for seed in range(3)]
        session = TelemetrySession()
        with use_session(session):
            for dag in dags:
                cache.put(
                    cache_key(dag, arch1), generate_block_solution(dag, arch1)
                )
        assert session.counter("serve.cache_evictions") >= 1
        assert len(cache) <= 2

    def test_index_rebuilt_from_scan(self, arch1, tmp_path):
        cache = BlockCache(tmp_path)
        dag = build_fig2_dag()
        key = cache_key(dag, arch1)
        cache.put(key, generate_block_solution(dag, arch1))
        cache.index_path.write_text("{ not json")
        # A trashed index costs LRU precision, never correctness.
        fresh = BlockCache(tmp_path)
        assert fresh.get(key, dag, arch1) is not None

    def test_clear(self, arch1, tmp_path):
        cache = BlockCache(tmp_path)
        dag = build_fig2_dag()
        cache.put(cache_key(dag, arch1), generate_block_solution(dag, arch1))
        cache.clear()
        assert len(cache) == 0

    def test_budgets_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            BlockCache(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            BlockCache(tmp_path, max_bytes=0)


EXAMPLES = {
    "fir4": "examples/fir4.minic",
    "dotprod": "examples/dotprod.minic",
}


@pytest.mark.parametrize("example", sorted(EXAMPLES))
@pytest.mark.parametrize("machine_name", ["arch1", "fig6"])
@pytest.mark.parametrize(
    "kernel",
    ["bitmask", pytest.param("reference", marks=pytest.mark.reference_kernel)],
)
def test_disk_hit_bit_identical_and_validator_clean(
    example, machine_name, kernel, tmp_path, repo_root, arch1, arch_fig6
):
    """The differential property: example × machine × covering loop
    (production, or the test-only reference oracle), a cache-hit compile
    must equal the cold compile byte for byte and pass translation
    validation."""
    from repro.asmgen.program import compile_function

    machine = {"arch1": arch1, "fig6": arch_fig6}[machine_name]
    config = HeuristicConfig.default()
    function = compile_source((repo_root / EXAMPLES[example]).read_text())
    cache_dir = str(tmp_path / "cache")

    cold_session = TelemetrySession()
    with use_session(cold_session):
        cold = compile_function(function, machine, config, cache_dir=cache_dir)
    assert cold_session.counter("serve.cache_stores") > 0
    assert cold_session.counter("serve.cache_hits") == 0

    warm_session = TelemetrySession()
    with use_session(warm_session):  # every block a disk hit
        warm = compile_function(function, machine, config, cache_dir=cache_dir)
    assert warm_session.counter("serve.cache_hits") > 0
    assert warm_session.counter("serve.cache_misses") == 0
    assert warm_session.counter("serve.cache_bad_entries") == 0

    assert warm.program.listing() == cold.program.listing()
    for name, block in cold.blocks.items():
        warm_schedule = [
            sorted(word) for word in warm.blocks[name].solution.schedule
        ]
        assert warm_schedule == [
            sorted(word) for word in block.solution.schedule
        ]
    reports = [r for r in verify_function(warm) if not r.ok]
    assert not reports, [
        v.describe() for r in reports for v in r.violations
    ]


@pytest.fixture
def repo_root():
    import pathlib

    return pathlib.Path(__file__).parent.parent
