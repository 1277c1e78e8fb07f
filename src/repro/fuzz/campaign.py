"""The fuzz loop behind ``repro fuzz``.

Each iteration is fully determined by ``(seed, iteration)``: a private
``random.Random(f"{seed}:{iteration}")`` drives machine generation,
program generation, input generation, and config selection, so any
iteration can be regenerated in isolation — the campaign never threads
one RNG through the whole run.  Per iteration the campaign

1. generates a machine, renders it to ISDL, and asserts the
   writer -> parser round-trip reproduces an equal model (the ISDL
   layer is fuzzed for free);
2. generates a terminating, machine-compatible program and inputs;
3. picks a covering configuration (mostly small exploration budgets —
   wide assignment searches are where the engine burns time, and the
   oracle cares about correctness, not code quality);
4. runs the differential oracle;
5. on a true failure, shrinks the case and writes a reproducer file.

Coverage rejections (machines genuinely too small for the program) are
counted but are not failures; campaigns report them so a drift in the
generator/engine balance is visible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.fuzz.corpus import save_reproducer
from repro.fuzz.machgen import random_machine
from repro.fuzz.oracle import (
    DEFAULT_MAX_CYCLES,
    DEFAULT_MAX_STEPS,
    DEFAULT_OPTIMAL_BUDGET,
    CaseResult,
    FuzzCase,
    Outcome,
    PostCompileHook,
    run_case,
)
from repro.fuzz.progen import random_inputs, random_program
from repro.fuzz.render import render_program
from repro.fuzz.shrink import ShrinkResult, shrink_case
from repro.isdl.parser import parse_machine
from repro.isdl.writer import machine_to_isdl

#: Covering configurations sampled per iteration.  Small exploration
#: budgets dominate so a 50-iteration smoke run stays inside a CI
#: minute-budget; the last two entries keep the wider search paths and
#: the heuristics-off path honest.
CONFIG_CHOICES: List[Dict[str, Any]] = [
    {"num_assignments": 2, "frontier_limit": 16},
    {"num_assignments": 2, "frontier_limit": 16},
    {"num_assignments": 3, "frontier_limit": 32, "max_cliques": 64},
    {"num_assignments": 2, "frontier_limit": 16, "level_window": None},
    {"num_assignments": 2, "frontier_limit": 16, "lookahead": False},
    {"num_assignments": 4, "frontier_limit": 32},
    {
        "assignment_pruning": False,
        "num_assignments": 2,
        "frontier_limit": 16,
    },
]


@dataclass
class Finding:
    """One true failure: the original case, its result, and the shrink."""

    case: FuzzCase
    result: CaseResult
    shrink: Optional[ShrinkResult] = None
    reproducer: Optional[Path] = None

    @property
    def minimized(self) -> FuzzCase:
        return self.shrink.case if self.shrink else self.case


@dataclass
class CampaignStats:
    """Aggregate results of one campaign."""

    seed: int
    iterations_requested: int
    iterations_run: int = 0
    outcomes: Dict[Outcome, int] = field(
        default_factory=lambda: {outcome: 0 for outcome in Outcome}
    )
    findings: List[Finding] = field(default_factory=list)
    roundtrip_failures: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    #: optimality-oracle aggregates (zero unless the oracle ran):
    #: cases with a measured gap, total gap cycles, and cases whose
    #: solves all completed within budget.
    optimal_gap_cases: int = 0
    optimal_gap_cycles: int = 0
    optimal_proven_cases: int = 0

    @property
    def failure_count(self) -> int:
        return len(self.findings) + len(self.roundtrip_failures)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"fuzz campaign: seed={self.seed} "
            f"iterations={self.iterations_run}/{self.iterations_requested} "
            f"elapsed={self.elapsed:.1f}s"
        ]
        counts = ", ".join(
            f"{outcome.value}={count}"
            for outcome, count in self.outcomes.items()
            if count
        )
        lines.append(f"outcomes: {counts or 'none'}")
        if self.optimal_gap_cases or self.outcomes.get(Outcome.OPTIMALITY):
            lines.append(
                f"optimality: {self.optimal_gap_cases} case(s) with a "
                f"gap, {self.optimal_gap_cycles} cycle(s) total, "
                f"{self.optimal_proven_cases} case(s) fully proven"
            )
        for failure in self.roundtrip_failures:
            lines.append(f"ISDL ROUND-TRIP FAILURE: {failure}")
        for finding in self.findings:
            case = finding.minimized
            lines.append(
                f"FAILURE [{finding.result.outcome.value}] "
                f"seed={case.seed} iteration={case.iteration}"
            )
            if finding.result.violations:
                # A validator finding names the broken paper invariant;
                # the shrinker preserved the leading kind.
                lines.append(
                    f"  invariant: {finding.result.violations[0]}"
                )
            if finding.shrink is not None:
                lines.append(
                    f"  shrunk {finding.shrink.statements_before} -> "
                    f"{finding.shrink.statements_after} statements "
                    f"({finding.shrink.evaluations} probes)"
                )
            if finding.reproducer is not None:
                lines.append(f"  reproducer: {finding.reproducer}")
            lines.append(
                "  "
                + finding.result.describe().replace("\n", "\n  ")
            )
        return "\n".join(lines)


def generate_case(seed: int, iteration: int) -> FuzzCase:
    """Deterministically generate iteration ``iteration`` of ``seed``.

    Raises ``AssertionError`` when the generated machine fails the ISDL
    writer/parser round-trip — that is itself a finding.
    """
    rng = random.Random(f"{seed}:{iteration}")
    machine = random_machine(rng, index=iteration)
    isdl = machine_to_isdl(machine)
    reparsed = parse_machine(isdl)
    assert reparsed == machine, (
        f"machine {machine.name!r} failed the writer/parser round-trip"
    )
    program = random_program(
        rng, machine, max_statements=rng.choice((6, 10, 12, 16))
    )
    return FuzzCase(
        source=render_program(program),
        machine_isdl=isdl,
        inputs=random_inputs(rng),
        config=rng.choice(CONFIG_CHOICES),
        seed=seed,
        iteration=iteration,
    )


def run_campaign(
    seed: int,
    iterations: int,
    time_budget: Optional[float] = None,
    artifacts_dir: Optional[Union[str, Path]] = None,
    shrink: bool = True,
    max_shrink_evaluations: int = 200,
    post_compile_hook: Optional[PostCompileHook] = None,
    progress: Optional[Callable[[int, CaseResult], None]] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    validate: bool = True,
    cache_dir: Optional[str] = None,
    optimal_oracle: bool = False,
    optimal_budget: int = DEFAULT_OPTIMAL_BUDGET,
) -> CampaignStats:
    """Run one fuzz campaign and return its statistics.

    Args:
        seed: campaign seed; iteration ``i`` is derived from
            ``f"{seed}:{i}"`` and is reproducible on its own.
        iterations: how many (program, machine, config) triples to try.
        time_budget: optional wall-clock cap in seconds; the campaign
            stops cleanly after the iteration that exceeds it.
        artifacts_dir: where minimized reproducers are written (one JSON
            file per finding); ``None`` writes nothing.
        shrink: minimize failures before reporting.
        post_compile_hook: test-only fault injection (see
            :func:`repro.fuzz.oracle.break_first_transfer`).
        progress: callback invoked after every iteration.
        validate: run the independent translation validator on every
            compiled block; violations are reported as the distinct
            ``validator`` failure class and shrunk toward the smallest
            case breaking the same invariant.
        cache_dir: persistent block-cache directory
            (:mod:`repro.serve.cache`); repeated campaigns over the
            same seeds warm-start their compiles.  Shrinking always
            runs cold so thousands of short-lived mutants do not churn
            the cache.
        optimal_oracle: additionally solve every correct case's blocks
            with the constraint-solver backend (:mod:`repro.optimal`)
            and record the heuristic-vs-optimal gap; gap cases are the
            ``optimality`` outcome (reported, not a failure).
        optimal_budget: CDCL conflict budget per block solve for the
            optimal oracle.
    """
    stats = CampaignStats(seed=seed, iterations_requested=iterations)
    start = time.monotonic()
    for iteration in range(iterations):
        if time_budget is not None and time.monotonic() - start > time_budget:
            break
        try:
            case = generate_case(seed, iteration)
        except AssertionError as error:
            stats.roundtrip_failures.append(str(error))
            stats.iterations_run += 1
            continue
        result = run_case(
            case,
            post_compile_hook=post_compile_hook,
            max_steps=max_steps,
            max_cycles=max_cycles,
            validate=validate,
            cache_dir=cache_dir,
            optimal_oracle=optimal_oracle,
            optimal_budget=optimal_budget,
        )
        stats.iterations_run += 1
        stats.outcomes[result.outcome] += 1
        if result.optimal_blocks:
            if result.optimal_gap > 0:
                stats.optimal_gap_cases += 1
                stats.optimal_gap_cycles += result.optimal_gap
            if result.optimal_proven:
                stats.optimal_proven_cases += 1
        if result.outcome.is_failure:
            finding = Finding(case=case, result=result)
            if shrink:
                finding.shrink = shrink_case(
                    case,
                    target=result,
                    post_compile_hook=post_compile_hook,
                    max_evaluations=max_shrink_evaluations,
                    max_steps=max_steps,
                    max_cycles=max_cycles,
                    validate=validate,
                )
            if artifacts_dir is not None:
                best = finding.minimized
                best_result = (
                    finding.shrink.result if finding.shrink else result
                )
                # Attach the decision journal of the minimized case's
                # compile; a journaling failure must never eat the
                # reproducer itself.
                try:
                    from repro.explain import capture_case_journal

                    journal = capture_case_journal(best)
                except Exception:
                    journal = None
                finding.reproducer = save_reproducer(
                    best,
                    best_result,
                    artifacts_dir,
                    description=(
                        f"minimized finding from seed={seed} "
                        f"iteration={iteration}"
                    ),
                    journal=journal,
                )
            stats.findings.append(finding)
        if progress is not None:
            progress(iteration, result)
    stats.elapsed = time.monotonic() - start
    return stats
