"""Hostile cache contents: every bad entry is a miss, never a miscompile.

The cache trusts nothing it reads back.  Each test plants a specific
pathology in the cache directory — truncation, garbage bytes, a format
stamp from a future version, an entry for a *different* key at the same
filename (hash-prefix collision / stale file), and a well-formed
document whose payload fails structural validation — and asserts the
probe rejects it (``serve.cache_bad_entries``), removes it, and that an
end-to-end compile over the poisoned cache still produces output
identical to a cold compile.
"""

from __future__ import annotations

import json

import pytest

from repro.covering.config import HeuristicConfig
from repro.covering.engine import generate_block_solution
from repro.serve import BlockCache, key_to_dict
from repro.serve.cache import CACHE_FORMAT
from repro.telemetry import TelemetrySession, use_session

from test_serve_cache import cache_key, chain_dag

from conftest import build_fig2_dag, build_wide_dag


@pytest.fixture
def arch(arch1):
    return arch1


@pytest.fixture
def seeded(arch, tmp_path):
    """A cache holding one good fig2 entry, plus its key and path."""
    cache = BlockCache(tmp_path)
    dag = build_fig2_dag()
    key = cache_key(dag, arch)
    cache.put(key, generate_block_solution(dag, arch))
    return cache, dag, key, cache.entry_path(key)


def assert_rejected(cache, dag, key, arch, expected_bad=1):
    session = TelemetrySession()
    with use_session(session):
        assert cache.get(key, dag, arch) is None
    assert session.counter("serve.cache_bad_entries") == expected_bad
    assert session.counter("serve.cache_hits") == 0
    assert not cache.entry_path(key).exists()  # dropped best-effort


class TestBadEntries:
    def test_truncated_entry(self, seeded, arch):
        cache, dag, key, path = seeded
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert_rejected(cache, dag, key, arch)

    def test_garbage_bytes(self, seeded, arch):
        cache, dag, key, path = seeded
        path.write_bytes(b"\x00\xff\x13garbage not json\x7f")
        assert_rejected(cache, dag, key, arch)

    def test_empty_file(self, seeded, arch):
        cache, dag, key, path = seeded
        path.write_bytes(b"")
        assert_rejected(cache, dag, key, arch)

    def test_json_but_not_an_object(self, seeded, arch):
        cache, dag, key, path = seeded
        path.write_text(json.dumps([1, 2, 3]))
        assert_rejected(cache, dag, key, arch)

    def test_version_mismatch(self, seeded, arch):
        cache, dag, key, path = seeded
        document = json.loads(path.read_bytes())
        document["format"] = "repro/block-cache/v999"
        path.write_text(json.dumps(document))
        assert_rejected(cache, dag, key, arch)

    def test_colliding_key_is_a_miss(self, seeded, arch):
        # A file at the right name whose stored key belongs to a
        # different compile: the hash-prefix collision / stale-entry
        # case the full-key comparison exists for.
        cache, dag, key, path = seeded
        document = json.loads(path.read_bytes())
        other = cache_key(build_wide_dag(2), arch)
        document["key"] = key_to_dict(other)
        path.write_text(json.dumps(document))
        assert_rejected(cache, dag, key, arch)

    def test_structurally_invalid_payload(self, seeded, arch):
        # Parses, right format, right key — but the solution inside
        # lost a task, so codec validation must refuse it.
        cache, dag, key, path = seeded
        document = json.loads(path.read_bytes())
        document["solution"]["graph"]["tasks"].pop()
        path.write_text(json.dumps(document))
        assert_rejected(cache, dag, key, arch)

    def test_schedule_tampered_payload(self, seeded, arch):
        cache, dag, key, path = seeded
        document = json.loads(path.read_bytes())
        document["solution"]["schedule"] = [[999_999]]
        path.write_text(json.dumps(document))
        assert_rejected(cache, dag, key, arch)

    def test_wrong_solution_for_key(self, seeded, arch):
        # The worst case: a *valid* solution document for a different
        # DAG planted under this key.  Decoding rebuilds against the
        # probed DAG and the structural check refuses the mismatch.
        cache, dag, key, path = seeded
        other_dag = chain_dag(3, seed=7)
        other = generate_block_solution(other_dag, arch)
        from repro.serve import solution_to_dict

        document = json.loads(path.read_bytes())
        document["solution"] = solution_to_dict(other)
        path.write_text(json.dumps(document))
        assert_rejected(cache, dag, key, arch)

    def test_format_constant(self):
        assert CACHE_FORMAT == "repro/block-cache/v1"


class TestPoisonedEndToEnd:
    def test_compile_over_poison_matches_cold(self, arch, tmp_path, monkeypatch):
        """Corrupt every entry after a cold run; the warm run must
        count bad entries, recompile cold, and emit identical output."""
        from repro.asmgen.program import compile_function
        from repro.frontend import compile_source

        monkeypatch.chdir("/root/repo")
        function = compile_source(open("examples/fir4.minic").read())
        config = HeuristicConfig.default()
        cache_dir = tmp_path / "cache"
        cold = compile_function(function, arch, config, cache_dir=str(cache_dir))
        entries = [
            p for p in cache_dir.glob("*.json") if p.name != "index.json"
        ]
        assert entries
        for path in entries:
            path.write_bytes(b"{poisoned")
        session = TelemetrySession()
        with use_session(session):
            warm = compile_function(
                function, arch, config, cache_dir=str(cache_dir)
            )
        assert session.counter("serve.cache_bad_entries") == len(entries)
        assert session.counter("serve.cache_hits") == 0
        assert session.counter("serve.cache_stores") == len(entries)
        assert warm.program.listing() == cold.program.listing()
        # The poison was replaced by good entries: a third run hits.
        session = TelemetrySession()
        with use_session(session):
            third = compile_function(
                function, arch, config, cache_dir=str(cache_dir)
            )
        assert session.counter("serve.cache_hits") == len(entries)
        assert session.counter("serve.cache_bad_entries") == 0
        assert third.program.listing() == cold.program.listing()
