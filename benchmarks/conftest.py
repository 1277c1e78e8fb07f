"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper.  Besides the
pytest-benchmark timing, each bench writes its reproduction artefact
(the table text, the figure data, the DOT file) to
``benchmarks/results/`` so the output survives pytest's capture.

Environment:
    REPRO_FULL=1  run the expensive variants (heuristics-off rows for
                  every Table I block, larger explore runs).
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def full_mode() -> bool:
    return os.environ.get("REPRO_FULL", "") == "1"


def write_result(name: str, text: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path


@pytest.fixture(scope="session")
def table_rows():
    """Tables I and II with the optimal column, ``{1: rows, 2: rows}``:
    solved once per session for every bench that reads them."""
    from repro.eval import run_table1, run_table2

    return {
        1: run_table1(with_optimal=True, with_heuristics_off=full_mode()),
        2: run_table2(with_optimal=True),
    }


@pytest.fixture
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
