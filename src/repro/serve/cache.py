"""Persistent content-addressed block-solution cache.

Stores the block solutions of :mod:`repro.covering.engine` on disk so
compiles warm-start **across processes** — the batch service, repeated
CLI invocations, the fuzz harness, and CI runs all share one cache
directory.

Key anatomy
-----------
An entry is addressed by the key the covering engine computes::

    (dag.fingerprint(), machine_fingerprint(machine), config, pin_value)

rendered canonically to JSON (the config as its sorted field dict) and
hashed with SHA-256.  The entry *filename* is a 16-hex-character prefix
of that hash; the **full key is stored inside the entry** and compared
on every probe, so a prefix collision — or a stale file left by an
older key that hashed to the same prefix — reads as a miss, never as a
wrong solution.

On-disk layout
--------------
::

    <cache_dir>/
        index.json            # LRU ledger: {entry: {bytes, tick}}
        <16 hex chars>.json   # one entry per cached block solution

Every entry is a self-describing JSON document::

    {"format": "repro/block-cache/v1",
     "key": {"dag": ..., "machine": ..., "config": {...}, "pin": ...},
     "solution": { ... repro/block-solution/v1 ... }}

Writes are atomic: content goes to a ``.tmp`` file in the cache
directory and is ``os.replace``d into place, so concurrent readers and
writers never observe a torn entry.  The index is advisory — written
with the same tmp+rename discipline, rebuilt from a directory scan when
missing or unreadable — so losing an index update under concurrency
costs at most LRU precision, never correctness.

Defense in depth
----------------
A probe trusts nothing on disk.  Unreadable files, truncated or garbage
JSON, format-stamp mismatches, key mismatches, and payloads that decode
but fail the schedule's structural invariants are all counted under
``serve.cache_bad_entries``, deleted best-effort, and treated as plain
misses; the compile then proceeds cold and re-stores a good entry.

Telemetry (all zero-overhead without a session): each cache event is
recorded once, into the telemetry session, as ``serve.cache_hits``,
``serve.cache_misses``, ``serve.cache_stores``, ``serve.cache_evictions``
or ``serve.cache_bad_entries``.  The batch service copies a job's
session counts into its result record, and the fleet's ``obs.cache_*``
metrics are folded from those records (:mod:`repro.serve.service`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.covering.config import HeuristicConfig
from repro.covering.solution import BlockSolution
from repro.ir.dag import BlockDAG
from repro.isdl.model import Machine
from repro.serve.codec import (
    CODEC_FORMAT,
    CodecError,
    solution_from_dict,
    solution_to_dict,
)
from repro.telemetry.session import current as _telemetry

#: Entry envelope format; bump together with :data:`CODEC_FORMAT` bumps.
CACHE_FORMAT = "repro/block-cache/v1"

#: Filename stem length (hex chars of the key hash).  Deliberately short
#: enough that prefix collisions are conceivable and the full-key check
#: is load-bearing, long enough that they are rare in practice.
NAME_HEX = 16

#: Cache key tuple as produced by the covering engine.
CacheKey = Tuple[str, str, HeuristicConfig, Optional[int]]


def key_to_dict(key: CacheKey) -> Dict[str, Any]:
    """JSON-ready form of a cache key (config as its sorted field dict)."""
    dag_fp, machine_fp, config, pin = key
    return {
        "dag": dag_fp,
        "machine": machine_fp,
        "config": dict(sorted(dataclasses.asdict(config).items())),
        "pin": pin,
    }


def key_digest(key: CacheKey) -> str:
    """Full SHA-256 hex digest of the canonical key rendering."""
    canonical = json.dumps(
        key_to_dict(key), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


class BlockCache:
    """A size-bounded, LRU-evicted, on-disk block-solution cache.

    Safe for concurrent use from many processes sharing ``root``: entry
    and index writes are atomic renames, probes re-validate everything
    they read, and the LRU ledger degrades gracefully under lost
    updates.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: int = 4096,
        max_bytes: int = 256 * 1024 * 1024,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def entry_name(self, key: CacheKey) -> str:
        """Filename of the entry this key addresses."""
        return key_digest(key)[:NAME_HEX] + ".json"

    def entry_path(self, key: CacheKey) -> Path:
        return self.root / self.entry_name(key)

    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    # ------------------------------------------------------------------
    # Probe / store
    # ------------------------------------------------------------------

    def get(
        self, key: CacheKey, dag: BlockDAG, machine: Machine
    ) -> Optional[BlockSolution]:
        """The cached solution for ``key``, or ``None`` on a miss.

        ``dag`` and ``machine`` must be the objects the key was derived
        from; the decoded solution is rebuilt against them.
        """
        path = self.entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self._count("misses")
            return None
        try:
            document = json.loads(raw)
            if not isinstance(document, dict):
                raise CodecError("cache entry is not a JSON object")
            if document.get("format") != CACHE_FORMAT:
                raise CodecError(
                    f"cache entry format {document.get('format')!r} "
                    f"does not match {CACHE_FORMAT!r}"
                )
            if document.get("key") != key_to_dict(key):
                raise CodecError(
                    "cache entry key does not match the probed key "
                    "(hash-prefix collision or stale entry)"
                )
            solution = solution_from_dict(
                document.get("solution"), dag, machine
            )
        except (CodecError, ValueError, KeyError, TypeError) as error:
            self._reject(path, error)
            return None
        self._count("hits")
        self._touch(path.name)
        return solution

    def put(self, key: CacheKey, solution: BlockSolution) -> None:
        """Store ``solution`` under ``key`` (atomic; then evict LRU)."""
        document = {
            "format": CACHE_FORMAT,
            "codec": CODEC_FORMAT,
            "key": key_to_dict(key),
            "solution": solution_to_dict(solution),
        }
        payload = json.dumps(document, sort_keys=True).encode()
        name = self.entry_name(key)
        self._atomic_write(self.root / name, payload)
        self._count("stores")
        self._record(name, len(payload))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _count(self, what: str) -> None:
        _telemetry().count(f"serve.cache_{what}")

    def _reject(self, path: Path, error: Exception) -> None:
        """A bad entry: count it, log it as a miss, drop the file."""
        self._count("bad_entries")
        self._count("misses")
        tm = _telemetry()
        if tm.enabled:
            tm.annotate(last_bad_cache_entry=f"{path.name}: {error}")
        try:
            path.unlink()
        except OSError:
            pass
        self._forget(path.name)

    def _atomic_write(self, path: Path, payload: bytes) -> None:
        handle = tempfile.NamedTemporaryFile(
            mode="wb",
            dir=str(self.root),
            prefix=path.stem + ".",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    # -- the LRU index -------------------------------------------------

    def _load_index(self) -> Dict[str, Any]:
        """The index, rebuilt from a directory scan when unreadable."""
        try:
            document = json.loads(self.index_path.read_bytes())
            if (
                isinstance(document, dict)
                and document.get("format") == CACHE_FORMAT
                and isinstance(document.get("entries"), dict)
                and isinstance(document.get("tick"), int)
            ):
                return document
        except (OSError, ValueError):
            pass
        return self._rebuild_index()

    def _rebuild_index(self) -> Dict[str, Any]:
        entries: Dict[str, Dict[str, int]] = {}
        listing = []
        for path in self.root.glob("*.json"):
            if path.name == "index.json":
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            listing.append((stat.st_mtime, path.name, stat.st_size))
        listing.sort()
        for tick, (_, name, size) in enumerate(listing):
            entries[name] = {"bytes": size, "tick": tick}
        return {
            "format": CACHE_FORMAT,
            "tick": len(listing),
            "entries": entries,
        }

    def _save_index(self, index: Dict[str, Any]) -> None:
        try:
            self._atomic_write(
                self.index_path,
                json.dumps(index, sort_keys=True).encode(),
            )
        except OSError:
            pass  # advisory: next reader rebuilds from the scan

    def _touch(self, name: str) -> None:
        index = self._load_index()
        entry = index["entries"].get(name)
        if entry is None:
            try:
                entry = {"bytes": (self.root / name).stat().st_size}
            except OSError:
                return
            index["entries"][name] = entry
        index["tick"] += 1
        entry["tick"] = index["tick"]
        self._save_index(index)

    def _forget(self, name: str) -> None:
        index = self._load_index()
        if index["entries"].pop(name, None) is not None:
            self._save_index(index)

    def _record(self, name: str, size: int) -> None:
        """Register a fresh entry in the ledger and evict over budget."""
        index = self._load_index()
        index["tick"] += 1
        index["entries"][name] = {"bytes": size, "tick": index["tick"]}
        self._evict(index, protect=name)
        self._save_index(index)

    def _evict(self, index: Dict[str, Any], protect: str) -> None:
        entries = index["entries"]

        def over_budget() -> bool:
            total = sum(e.get("bytes", 0) for e in entries.values())
            return len(entries) > self.max_entries or total > self.max_bytes

        while over_budget():
            victims = [n for n in entries if n != protect]
            if not victims:
                break  # a single huge protected entry; keep it
            victim = min(victims, key=lambda n: entries[n].get("tick", 0))
            entries.pop(victim)
            try:
                (self.root / victim).unlink()
            except OSError:
                pass
            self._count("evictions")

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(
            1
            for path in self.root.glob("*.json")
            if path.name != "index.json"
        )

    def clear(self) -> None:
        """Remove every entry and the index."""
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
            except OSError:
                pass
