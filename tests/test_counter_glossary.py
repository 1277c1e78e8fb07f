"""The counter glossary in docs/observability.md is complete.

Every counter and histogram a real compilation (plus a simulated run)
can emit must appear in the glossary table — matched by name or by an
fnmatch pattern like ``sim.unit.*`` — so the documentation cannot
silently drift as instrumentation is added.  The emitting workload is
the frozen fuzz corpus: it exercises spills, constraint splits, clique
enumeration, and the validator, which is as close to "every counter
the pipeline has" as a deterministic test can get.
"""

from __future__ import annotations

import re
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from repro.asmgen.program import compile_function
from repro.errors import ReproError
from repro.frontend import compile_source
from repro.fuzz.corpus import load_case
from repro.simulator.stats import profile_run
from repro.telemetry import TelemetrySession, use_session

REPO = Path(__file__).parent.parent
GLOSSARY = REPO / "docs" / "observability.md"
CORPUS = REPO / "tests" / "corpus"


def glossary_patterns():
    """Counter names/patterns from the markdown table's first column."""
    patterns = []
    for line in GLOSSARY.read_text().splitlines():
        if not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        patterns.extend(re.findall(r"`([^`]+)`", first_cell))
    return patterns


def emitted_names():
    """Counter + histogram names from compiling the whole corpus and
    simulating one program."""
    session = TelemetrySession()
    compiled = None
    function = None
    with use_session(session):
        for path in sorted(CORPUS.glob("*.json")):
            case = load_case(path)
            try:
                function = compile_source(case.source)
                compiled = compile_function(
                    function,
                    case.machine,
                    case.heuristic_config(),
                    validate=True,
                )
            except ReproError:
                continue  # coverage rejections still emitted counters
        assert compiled is not None, "no corpus case compiled"
        profile_run(compiled.program, compiled.machine, {})
    return sorted(set(session.counters) | set(session.histograms))


def test_glossary_table_parses():
    patterns = glossary_patterns()
    assert len(patterns) > 40
    assert "cover.iterations" in patterns
    assert any("*" in p for p in patterns)


def test_every_emitted_counter_is_documented():
    patterns = glossary_patterns()
    missing = [
        name
        for name in emitted_names()
        if not any(fnmatchcase(name, pattern) for pattern in patterns)
    ]
    assert not missing, (
        "counters emitted but absent from the docs/observability.md "
        f"glossary: {missing}"
    )


def test_every_obs_catalog_metric_is_documented():
    """The service-metrics catalog (repro.obs) is part of the glossary.

    The registry is catalog-strict, so METRIC_CATALOG *is* the complete
    inventory of obs.* names — every one must be matched by a glossary
    row so a new service metric cannot land undocumented.
    """
    from repro.obs.metrics import METRIC_CATALOG

    patterns = glossary_patterns()
    assert all(name.startswith("obs.") for name in METRIC_CATALOG)
    missing = [
        name
        for name in sorted(METRIC_CATALOG)
        if not any(fnmatchcase(name, pattern) for pattern in patterns)
    ]
    assert not missing, (
        "obs catalog metrics absent from the docs/observability.md "
        f"glossary: {missing}"
    )
