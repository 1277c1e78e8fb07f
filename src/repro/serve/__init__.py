"""Batch compile service with a persistent content-addressed block cache.

The compiler as something that absorbs traffic:

- :mod:`repro.serve.codec` — JSON (de)serialization of block solutions
  (``repro/block-solution/v1``), rebuilding the deterministic parts of
  the object web from the cache key's inputs.
- :mod:`repro.serve.cache` — :class:`BlockCache`, the on-disk cache
  keyed by ``(DAG fingerprint, machine fingerprint, config, pin)``:
  atomic writes, version-stamped entries, full-key verification,
  size-bounded LRU eviction, and ``serve.*`` telemetry.
- :mod:`repro.serve.service` — ``run_batch`` (process-pool fan-out,
  structured ``repro/serve/v1`` results) and ``serve_stream`` (the
  ``repro serve`` JSON-lines loop).
- :mod:`repro.serve.bench` — the zipfian job mix the batch benchmark
  workloads and the serve tests draw from.

Single compiles opt in through ``compile_function(..., cache_dir=...)``;
see ``docs/serving.md``.
"""

from repro.serve.cache import BlockCache, key_digest, key_to_dict
from repro.serve.codec import (
    CODEC_FORMAT,
    CodecError,
    solution_from_dict,
    solution_to_dict,
)
from repro.serve.bench import zipfian_mix
from repro.serve.service import (
    SERVE_SCHEMA,
    CompileJob,
    execute_job,
    fleet_snapshot,
    make_batch_report,
    run_batch,
    serve_stream,
)

__all__ = [
    "BlockCache",
    "key_digest",
    "key_to_dict",
    "CODEC_FORMAT",
    "CodecError",
    "solution_from_dict",
    "solution_to_dict",
    "zipfian_mix",
    "SERVE_SCHEMA",
    "CompileJob",
    "execute_job",
    "fleet_snapshot",
    "make_batch_report",
    "run_batch",
    "serve_stream",
]
