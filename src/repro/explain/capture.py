"""Running a compilation under a decision journal.

The journal hooks live in the covering/assignment/scheduling layers and
fire through whatever :class:`repro.telemetry.session.TelemetrySession`
is current; this module owns the other half — install a fresh journal,
compile, and hand back (journal, compiled artifact, error).  The
compilation is *never* altered by journaling: the hooks only observe,
so the schedule is byte-for-byte the one a plain compile produces.

Also here: :func:`capture_case_journal` (journal a fuzz reproducer's
failing compile) and :func:`find_decision` (link a verifier violation
back to the journal entry that scheduled the offending task/cycle).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.covering.config import HeuristicConfig
from repro.explain.journal import DecisionJournal
from repro.explain.report import build_explain_report
from repro.frontend import compile_source
from repro.isdl.model import Machine
from repro.telemetry.session import TelemetrySession, use_session


def compile_with_journal(
    function: Any,
    machine: Machine,
    config: Optional[HeuristicConfig] = None,
    peephole: bool = True,
    validate: bool = False,
) -> Tuple[DecisionJournal, Optional[Any], Optional[Exception]]:
    """Compile ``function`` with decision journaling on.

    Returns ``(journal, compiled, error)``: on success ``error`` is
    ``None``; on failure ``compiled`` is ``None`` and the journal holds
    every decision made up to the point of failure — exactly what a
    fuzz reproducer wants to ship.
    """
    from repro.asmgen.program import compile_function

    journal = DecisionJournal()
    session = TelemetrySession(journal=journal)
    compiled: Optional[Any] = None
    error: Optional[Exception] = None
    with use_session(session):
        try:
            compiled = compile_function(
                function,
                machine,
                config,
                peephole=peephole,
                validate=validate,
            )
        except Exception as failure:  # CLI/fuzz decide how to surface it
            error = failure
    return journal, compiled, error


def explain_source(
    source: str,
    machine: Machine,
    config: Optional[HeuristicConfig] = None,
    peephole: bool = True,
    meta: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[str, Any], Optional[Any], Optional[Exception]]:
    """Compile minic source and build its validated explain report."""
    from repro.artifacts import validate

    function = compile_source(source)
    journal, compiled, error = compile_with_journal(
        function, machine, config, peephole=peephole
    )
    report_meta = dict(meta or {})
    if error is not None:
        report_meta["error"] = f"{type(error).__name__}: {error}"
    report = build_explain_report(journal, compiled, meta=report_meta)
    validate(report)
    return report, compiled, error


def capture_case_journal(case: Any) -> Dict[str, Any]:
    """Journal a fuzz case's compile; the validated explain report.

    ``case`` is a :class:`repro.fuzz.oracle.FuzzCase`.  Used after
    shrinking so the minimized reproducer ships with the decision
    journal of its failing block.
    """
    from repro.artifacts import validate

    function = compile_source(case.source)
    journal, compiled, error = compile_with_journal(
        function, case.machine, case.heuristic_config()
    )
    meta: Dict[str, Any] = {
        "origin": "fuzz",
        "machine": case.machine.name,
        "seed": case.seed,
        "iteration": case.iteration,
    }
    if error is not None:
        meta["error"] = f"{type(error).__name__}: {error}"
    report = build_explain_report(journal, compiled, meta=meta)
    validate(report)
    return report


def find_decision(
    report: Dict[str, Any],
    block: str,
    task: Optional[int] = None,
    cycle: Optional[int] = None,
) -> Optional[Dict[str, Any]]:
    """The journal entry that placed ``task`` (or touched ``cycle``).

    Linking is by task id first: the ``cover.step`` whose chosen clique
    contains the task, or the ``cover.spill`` that spilled it.  Task ids
    survive the peephole pass unchanged, while cycles shift when words
    merge — so a cycle match (entries journaled at the violation's
    cycle) is only the fallback.  Returns a compact link
    ``{"seq", "kind", "summary"}`` or ``None``.
    """
    for record in report["blocks"]:
        if record["name"] != block:
            continue
        if task is not None:
            for entry in record["decisions"]:
                data = entry["data"]
                if entry["kind"] == "cover.step" and task in data["chosen"]["members"]:
                    return _decision_link(entry)
                if entry["kind"] == "cover.spill" and data["victim"] == task:
                    return _decision_link(entry)
        if cycle is not None:
            for entry in record["decisions"]:
                if entry["kind"] not in (
                    "cover.step",
                    "cover.spill",
                    "cover.stall",
                ):
                    continue
                if entry["data"].get("cycle") == cycle:
                    return _decision_link(entry)
    return None


def _decision_link(entry: Dict[str, Any]) -> Dict[str, Any]:
    from repro.explain.report import _describe_entry

    return {
        "seq": entry["seq"],
        "kind": entry["kind"],
        "summary": _describe_entry(entry),
    }
