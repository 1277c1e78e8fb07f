"""Delta-debugging shrinker for failing fuzz cases.

Given a case whose oracle outcome is a failure, the shrinker searches
for the smallest variant that still fails *the same way*.  Three parts
of a case are reduced, cheapest signal first:

1. **program** — statements are deleted, control-flow constructs are
   replaced by their bodies, and expressions are replaced by their
   operands or small literals, all on the AST so every candidate is
   syntactically valid by construction;
2. **machine** — constraints, redundant buses, spare functional units
   and individual operations are dropped (candidates are re-validated
   before they are tried, so an ill-formed machine can never masquerade
   as the original compiler crash);
3. **inputs** — initial values are zeroed and dropped.

"Fails the same way" means the same :class:`~repro.fuzz.oracle.Outcome`
— and for ``COMPILE_CRASH`` also the same exception class, so a shrink
step that *introduces* a different bug (e.g. exposing a division by
zero to the interpreter) is rejected rather than hijacking the search.
The search is greedy first-improvement to a fixpoint, bounded by an
evaluation budget because every probe is a full compile + simulate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.frontend import ast
from repro.frontend.parser import parse_program
from repro.fuzz.oracle import (
    DEFAULT_MAX_CYCLES,
    DEFAULT_MAX_STEPS,
    CaseResult,
    FuzzCase,
    Outcome,
    PostCompileHook,
    run_case,
)
from repro.fuzz.render import render_program
from repro.isdl.model import Machine
from repro.isdl.writer import machine_to_isdl

Stmts = Tuple[ast.Stmt, ...]


def count_statements(program: Union[str, ast.Program]) -> int:
    """Total statement nodes (assignments and control flow) in a program."""
    if isinstance(program, str):
        program = parse_program(program)

    def visit(statements: Stmts) -> int:
        total = 0
        for statement in statements:
            total += 1
            if isinstance(statement, ast.If):
                total += visit(statement.then) + visit(statement.orelse)
            elif isinstance(statement, (ast.While, ast.For)):
                total += visit(statement.body)
        return total

    return visit(program.statements)


# -- candidate generation (programs) ------------------------------------


def _expr_variants(expr: ast.Expr) -> Iterator[ast.Expr]:
    """Strictly simpler replacements for one expression."""
    if isinstance(expr, ast.Binary):
        yield expr.left
        yield expr.right
    elif isinstance(expr, ast.Unary):
        yield expr.operand
    if isinstance(expr, ast.Num):
        if expr.value not in (0, 1):
            yield ast.Num(1)
            yield ast.Num(0)
    else:
        yield ast.Num(0)


def _stmt_variants(statement: ast.Stmt) -> Iterator[Union[ast.Stmt, Stmts]]:
    """Simpler forms of one statement.

    A plain statement yields statements; a control-flow construct may
    also yield a statement *tuple* (its body) to be spliced in place.
    """
    if isinstance(statement, ast.Assign):
        for variant in _expr_variants(statement.expr):
            yield dataclasses.replace(statement, expr=variant)
        return
    if isinstance(statement, ast.If):
        yield statement.then
        if statement.orelse:
            yield statement.orelse
            yield dataclasses.replace(statement, orelse=())
        for body in _block_variants(statement.then):
            yield dataclasses.replace(statement, then=body)
        for body in _block_variants(statement.orelse):
            yield dataclasses.replace(statement, orelse=body)
        for variant in _expr_variants(statement.cond):
            yield dataclasses.replace(statement, cond=variant)
        return
    if isinstance(statement, (ast.While, ast.For)):
        yield statement.body
        for body in _block_variants(statement.body):
            if body:  # empty loop bodies don't parse
                yield dataclasses.replace(statement, body=body)
        return


def _block_variants(statements: Stmts) -> Iterator[Stmts]:
    """Simpler forms of a statement list: drop one statement, or
    replace one statement with a simpler form of itself."""
    for index in range(len(statements)):
        yield statements[:index] + statements[index + 1 :]
    for index, statement in enumerate(statements):
        for variant in _stmt_variants(statement):
            if isinstance(variant, tuple):
                yield statements[:index] + variant + statements[index + 1 :]
            else:
                yield (
                    statements[:index]
                    + (variant,)
                    + statements[index + 1 :]
                )


def _program_candidates(source: str) -> Iterator[str]:
    try:
        program = parse_program(source)
    except Exception:  # noqa: BLE001 - unparseable input: nothing to do
        return
    for statements in _block_variants(program.statements):
        if statements:  # the empty program is never a useful reproducer
            yield render_program(ast.Program(statements))


# -- candidate generation (machines) ------------------------------------


def _machine_variants(machine: Machine) -> Iterator[Machine]:
    if machine.constraints:
        yield dataclasses.replace(machine, constraints=())
        if len(machine.constraints) > 1:
            for index in range(len(machine.constraints)):
                kept = (
                    machine.constraints[:index]
                    + machine.constraints[index + 1 :]
                )
                yield dataclasses.replace(machine, constraints=kept)
    if len(machine.units) > 1:
        for index in range(len(machine.units)):
            yield dataclasses.replace(
                machine,
                units=machine.units[:index] + machine.units[index + 1 :],
            )
    for u_index, unit in enumerate(machine.units):
        if len(unit.operations) <= 1:
            continue
        for o_index in range(len(unit.operations)):
            ops = unit.operations[:o_index] + unit.operations[o_index + 1 :]
            units = list(machine.units)
            units[u_index] = dataclasses.replace(unit, operations=ops)
            yield dataclasses.replace(machine, units=tuple(units))
    if len(machine.buses) > 1:
        for index in range(len(machine.buses)):
            yield dataclasses.replace(
                machine,
                buses=machine.buses[:index] + machine.buses[index + 1 :],
            )


def _machine_candidates(machine_isdl: str) -> Iterator[str]:
    from repro.isdl.parser import parse_machine

    try:
        machine = parse_machine(machine_isdl)
    except Exception:  # noqa: BLE001
        return
    for variant in _machine_variants(machine):
        try:
            variant.validate()
        except Exception:  # noqa: BLE001 - skip ill-formed candidates
            continue
        yield machine_to_isdl(variant)


# -- candidate generation (inputs) --------------------------------------


def _input_candidates(inputs: Dict[str, int]) -> Iterator[Dict[str, int]]:
    for name in sorted(inputs):
        trimmed = dict(inputs)
        del trimmed[name]
        yield trimmed
    for name in sorted(inputs):
        if inputs[name] != 0:
            zeroed = dict(inputs)
            zeroed[name] = 0
            yield zeroed


# -- the search ---------------------------------------------------------


@dataclass
class ShrinkResult:
    """The minimized case plus bookkeeping about the search."""

    case: FuzzCase
    result: CaseResult
    evaluations: int
    #: statement count before/after, for reports.
    statements_before: int
    statements_after: int


def _same_failure(target: CaseResult, candidate: CaseResult) -> bool:
    if candidate.outcome is not target.outcome:
        return False
    if target.outcome is Outcome.COMPILE_CRASH:
        # Keep the same exception class: shrinking must not wander off
        # to a different bug.
        return candidate.detail.split(":", 1)[0].split(" ", 1)[0] == (
            target.detail.split(":", 1)[0].split(" ", 1)[0]
        )
    if target.outcome is Outcome.VALIDATOR:
        # Minimize to the *invariant*, not to any validator failure:
        # the candidate must still break the same leading violation
        # kind (e.g. dependence-order), so delta debugging converges on
        # the smallest program exhibiting that specific broken
        # guarantee.
        if not target.violations or not candidate.violations:
            return bool(target.violations) == bool(candidate.violations)
        return target.violations[0] in candidate.violations
    return True


def shrink_case(
    case: FuzzCase,
    target: Optional[CaseResult] = None,
    post_compile_hook: Optional[PostCompileHook] = None,
    max_evaluations: int = 300,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    validate: bool = True,
) -> ShrinkResult:
    """Minimize ``case`` while preserving its failure outcome.

    ``target`` is the known oracle result for ``case``; when omitted it
    is recomputed (one extra evaluation).  Returns the smallest variant
    found within the evaluation budget — possibly ``case`` unchanged.
    """
    evaluations = 0

    def probe(candidate: FuzzCase) -> CaseResult:
        nonlocal evaluations
        evaluations += 1
        return run_case(
            candidate,
            post_compile_hook=post_compile_hook,
            max_steps=max_steps,
            max_cycles=max_cycles,
            validate=validate,
        )

    if target is None:
        target = probe(case)
    if not target.outcome.is_failure:
        return ShrinkResult(
            case,
            target,
            evaluations,
            count_statements(case.source),
            count_statements(case.source),
        )

    statements_before = count_statements(case.source)
    best, best_result = case, target

    def try_candidates(candidates: Iterator[FuzzCase]) -> bool:
        """First-improvement step: returns True if ``best`` advanced."""
        nonlocal best, best_result
        for candidate in candidates:
            if evaluations >= max_evaluations:
                return False
            result = probe(candidate)
            if _same_failure(target, result):
                best, best_result = candidate, result
                return True
        return False

    progress = True
    while progress and evaluations < max_evaluations:
        progress = False
        # Program first: smaller programs make every later probe cheaper.
        while evaluations < max_evaluations and try_candidates(
            best.replace(source=source)
            for source in _program_candidates(best.source)
        ):
            progress = True
        while evaluations < max_evaluations and try_candidates(
            best.replace(machine_isdl=isdl)
            for isdl in _machine_candidates(best.machine_isdl)
        ):
            progress = True
        while evaluations < max_evaluations and try_candidates(
            best.replace(inputs=inputs)
            for inputs in _input_candidates(best.inputs)
        ):
            progress = True

    return ShrinkResult(
        best,
        best_result,
        evaluations,
        statements_before,
        count_statements(best.source),
    )
