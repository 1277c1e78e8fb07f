"""Golden-schedule regression tests.

Three canonical programs — the paper's Fig. 6 block on the Fig. 6
machine file plus two frozen corpus reproducers on their own machines —
are compiled with the production covering loop and with the test-only
reference oracle, and compared word-for-word against checked-in golden
schedules (``tests/golden/*.json``).  The schedules must be
bit-identical between the two *and* across time: any change to
covering, scheduling, spilling, or peephole that moves a slot shows up
as a readable JSON diff instead of a silent drift.

Regenerate after an intentional change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_schedules.py

and review the diff like any other code change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.asmgen.program import compile_function
from repro.covering import HeuristicConfig
from repro.frontend import compile_source
from repro.fuzz import load_case
from repro.isdl import parse_machine
from repro.verify import verify_function

from conftest import build_fig6_dag, single_block_function
from reference_kernel import KERNELS

REPO = Path(__file__).parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"
CORPUS_DIR = Path(__file__).parent / "corpus"

#: Fixed small exploration budget: goldens pin the *output* for one
#: configuration; search-width sweeps belong to the hotpath suite.
CONFIG = {"num_assignments": 2, "frontier_limit": 16}

GOLDEN_CASES = ("fig6", "gen-00", "gen-04")


def _load_program(name):
    """Return ``(function, machine)`` for a golden case name."""
    if name == "fig6":
        machine = parse_machine((REPO / "machines" / "fig6.isdl").read_text())
        return single_block_function(build_fig6_dag()), machine
    case = load_case(CORPUS_DIR / f"{name}.json")
    return compile_source(case.source), parse_machine(case.machine_isdl)


def _canonical(function, machine):
    """Compile and canonicalise every block schedule: per-cycle sorted
    task descriptions plus spill/reload counts."""
    config = HeuristicConfig.default().with_(**CONFIG)
    compiled = compile_function(function, machine, config)
    blocks = {}
    for block_name, block in compiled.blocks.items():
        solution = block.solution
        blocks[block_name] = {
            "schedule": [
                sorted(
                    solution.graph.tasks[task_id].describe()
                    for task_id in word
                )
                for word in solution.schedule
            ],
            "spills": solution.spill_count,
            "reloads": solution.reload_count,
        }
    return compiled, blocks


@pytest.mark.verify
@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden_schedule(name):
    function, machine = _load_program(name)
    canonical = {}
    for kernel, context in KERNELS:
        with context():
            compiled, blocks = _canonical(function, machine)
        # Golden schedules must also certify: the validator is the
        # independent witness that the pinned schedule is *legal*, not
        # just reproducible.
        reports = verify_function(compiled)
        assert all(r.ok for r in reports), "\n".join(
            v.describe() for r in reports for v in r.violations
        )
        canonical[kernel] = blocks
    assert canonical["bitmask"] == canonical["reference"], (
        f"{name}: production and the reference oracle disagree"
    )
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(canonical["bitmask"], indent=2, sort_keys=True)
            + "\n"
        )
    golden = json.loads(path.read_text())
    assert canonical["bitmask"] == golden, (
        f"{name}: schedule drifted from {path} "
        f"(regenerate with REPRO_REGEN_GOLDEN=1 if intentional)"
    )


def test_golden_files_exist():
    for name in GOLDEN_CASES:
        assert (GOLDEN_DIR / f"{name}.json").exists(), (
            f"missing golden file for {name}; run with "
            f"REPRO_REGEN_GOLDEN=1 to create it"
        )
