"""The spill-heavy scaling probe, pinned by counts.

The loop nest below unrolls fully into one 36-statement block that
compiles to 169 instructions with 41 spills on ``machines/arch1.isdl``.
Blocks like it are where covering time goes to the post-spill clique
rebuilds, so the probe pins what the covering loop does — spill rounds,
incremental rebuilds, cliques enumerated, loop iterations — and the
listing it produces.  Timings are left to ``python -m bench``: a count
moves only when the search itself changes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.asmgen.program import compile_function
from repro.cli import resolve_machine
from repro.frontend import compile_source
from repro.telemetry import TelemetrySession, use_session

ROOT = Path(__file__).resolve().parents[1]

PROBE = (
    "for (i = 0; i < 6; i = i + 1) { for (j = 0; j < 6; j = j + 1) "
    "{ y[j] = y[j] + x[i] * c[j]; } }"
)


def test_spill_heavy_probe_counts():
    machine = resolve_machine(str(ROOT / "machines" / "arch1.isdl"))
    session = TelemetrySession()
    with use_session(session):
        compiled = compile_function(compile_source(PROBE), machine)
    listing = compiled.program.listing()
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "b794f93c74fceea8f4199c008624c83c7043766f592e5117439515a23eab71c1"
    )
    assert len(compiled.program.instructions) == 169
    assert sum(b.solution.spill_count for b in compiled.blocks.values()) == 41
    assert session.counter("cover.spill_rounds") == 344
    assert session.counter("cover.incremental_rebuilds") == 344
    assert session.counter("cliques.enumerated") == 1325887
    assert session.counter("cover.iterations") == 1617
