"""Self-tests import ``repro`` from this checkout's ``src/`` and keep
every file a pass writes under a per-test directory."""

from __future__ import annotations

import pytest

from bench import use_checkout_src

use_checkout_src()


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    """Point the passes' output directory (traces, scratch caches) at a
    temporary directory."""
    import bench.runner

    monkeypatch.setattr(bench.runner, "OUT", tmp_path)
    return tmp_path
