"""Reproducer files: frozen fuzz cases replayed by the test suite.

A reproducer is a single JSON file carrying everything
:func:`repro.fuzz.oracle.run_case` needs — minic source, machine ISDL,
inputs, config overrides — plus the *expected* result: the outcome
classification and, for passing cases, the interpreter's final
environment.  ``tests/corpus/`` holds a fixed set of these; the pytest
suite replays each one with zero randomness, so every interesting
program/machine shape the fuzzer ever pinned down stays covered forever,
and a semantic regression in either the compiler or the interpreter
shows up as a corpus failure with the full case attached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.covering.config import HeuristicConfig
from repro.fuzz.oracle import CaseResult, FuzzCase, Outcome, run_case

#: Bump when the schema changes; loaders reject unknown formats loudly.
CORPUS_FORMAT = 1


def case_to_dict(
    case: FuzzCase,
    result: Optional[CaseResult] = None,
    description: str = "",
) -> Dict[str, Any]:
    """The JSON-ready form of a case (and optionally its expectation)."""
    data: Dict[str, Any] = {
        "format": CORPUS_FORMAT,
        "description": description,
        "seed": case.seed,
        "iteration": case.iteration,
        "program": case.source,
        "machine": case.machine_isdl,
        "inputs": dict(case.inputs),
        "config": dict(case.config),
    }
    if result is not None:
        data["expected"] = {
            "outcome": result.outcome.value,
            "variables": dict(result.reference),
        }
    return data


def case_from_dict(data: Dict[str, Any]) -> FuzzCase:
    """Rebuild a case from its JSON form.

    Raises :class:`ValueError` for an unknown format or a config field
    this build's :class:`HeuristicConfig` does not have (a reproducer
    written by a build with other settings), naming the field.
    """
    if data.get("format") != CORPUS_FORMAT:
        raise ValueError(
            f"unknown corpus format {data.get('format')!r} "
            f"(this build reads format {CORPUS_FORMAT})"
        )
    config = dict(data.get("config", {}))
    known = {field.name for field in fields(HeuristicConfig)}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(
            f"unknown config field(s) {', '.join(map(repr, unknown))}; "
            f"this build's HeuristicConfig has no such setting"
        )
    return FuzzCase(
        source=data["program"],
        machine_isdl=data["machine"],
        inputs={k: int(v) for k, v in data.get("inputs", {}).items()},
        config=config,
        seed=data.get("seed"),
        iteration=data.get("iteration"),
    )


def save_reproducer(
    case: FuzzCase,
    result: CaseResult,
    directory: Union[str, Path],
    stem: Optional[str] = None,
    description: str = "",
    journal: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write one reproducer file and return its path.

    ``journal`` is an optional `repro/explain/v1` report of the case's
    compile (see :mod:`repro.explain`): minimized findings ship with
    the decision journal of the failing block so "why did the search
    schedule it that way" is answerable straight from the artifact.
    Loaders ignore the key, so journaled files replay unchanged.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if stem is None:
        seed = "x" if case.seed is None else case.seed
        iteration = "x" if case.iteration is None else case.iteration
        stem = f"{result.outcome.value}-s{seed}-i{iteration}"
    path = directory / f"{stem}.json"
    payload = case_to_dict(case, result, description=description)
    if journal is not None:
        payload["journal"] = journal
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_case(path: Union[str, Path]) -> FuzzCase:
    """Load the case half of a reproducer file."""
    return case_from_dict(json.loads(Path(path).read_text()))


@dataclass
class ReplayResult:
    """Outcome of replaying one reproducer against expectations."""

    case: FuzzCase
    result: CaseResult
    expected_outcome: Optional[Outcome]
    expected_variables: Dict[str, int]
    problems: list

    @property
    def ok(self) -> bool:
        return not self.problems


def replay_file(path: Union[str, Path]) -> ReplayResult:
    """Re-run one reproducer and diff the result against its record.

    Checks two things: the outcome classification is unchanged, and —
    when the file recorded a reference environment — the interpreter
    still computes the same final values (so silent semantic drift in
    :mod:`repro.ir` is caught too, not just compiler regressions).
    """
    data = json.loads(Path(path).read_text())
    case = case_from_dict(data)
    result = run_case(case)

    expected = data.get("expected") or {}
    expected_outcome = (
        Outcome(expected["outcome"]) if "outcome" in expected else None
    )
    expected_variables = {
        k: int(v) for k, v in expected.get("variables", {}).items()
    }

    problems = []
    if expected_outcome is not None and result.outcome is not expected_outcome:
        problems.append(
            f"outcome changed: expected {expected_outcome.value}, "
            f"got {result.outcome.value} ({result.detail})"
        )
    if expected_variables and result.outcome is Outcome.OK:
        if result.reference != expected_variables:
            changed = sorted(
                set(result.reference.items())
                ^ set(expected_variables.items())
            )
            problems.append(f"reference environment drifted: {changed[:6]}")
    return ReplayResult(
        case, result, expected_outcome, expected_variables, problems
    )
