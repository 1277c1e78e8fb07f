"""The differential oracle: compile, simulate, compare, classify.

One :class:`FuzzCase` is a self-contained (program, machine, inputs,
config) quadruple — everything needed to reproduce a run byte for byte.
:func:`run_case` drives it end to end:

1. parse the minic source and lower/optimize it to an IR function;
2. run the reference interpreter (:func:`repro.ir.interp
   .interpret_function`) — the executable semantics;
3. compile with the full AVIV pipeline (assignment exploration, clique
   covering, transfer insertion, spilling, register allocation,
   peephole, emission);
4. run the VLIW simulator on the emitted program;
5. compare the simulator's final data memory against the interpreter's
   final environment, variable by variable.

Every exit from that pipeline is classified into an :class:`Outcome` so
campaign reports separate true findings (miscompiles, crashes, simulator
faults) from expected rejections (a machine whose register files are
genuinely too small raises ``CoverageError``; that is the documented
contract, not a bug).
"""

from __future__ import annotations

import enum
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.asmgen.program import CompiledFunction, compile_function
from repro.covering.config import HeuristicConfig
from repro.errors import CoverageError, IRError, ReproError
from repro.frontend import compile_source
from repro.ir.arith import wrap
from repro.ir.interp import interpret_function
from repro.isdl.model import Machine
from repro.isdl.parser import parse_machine
from repro.simulator.executor import run_program
from repro.verify import verify_function

#: Interpreter block executions allowed per case.
DEFAULT_MAX_STEPS = 20_000
#: Simulator cycles allowed per case.
DEFAULT_MAX_CYCLES = 200_000
#: CDCL conflict budget per block solve of the optimal oracle.
DEFAULT_OPTIMAL_BUDGET = 20_000


class Outcome(enum.Enum):
    """Classification of one differential run."""

    #: Simulator and interpreter agree on every variable.
    OK = "ok"
    #: The covering engine rejected the pair (register files too small /
    #: no transfer path / unmappable op).  Expected for hostile machines.
    COVERAGE = "coverage"
    #: The source program exceeded the interpreter's step bound.  Only
    #: reachable through shrinking (generated programs terminate).
    NONTERMINATING = "nonterminating"
    #: The compiler raised something other than ``CoverageError`` —
    #: always a bug.
    COMPILE_CRASH = "compile-crash"
    #: The emitted program faulted or livelocked on the simulator —
    #: always a bug.
    SIM_FAULT = "sim-fault"
    #: The independent translation validator found an invariant
    #: violation in a compiled block (see :mod:`repro.verify`) —
    #: always a bug, even when the final state happens to match.
    VALIDATOR = "validator"
    #: The emitted program computed different values — a miscompile.
    MISMATCH = "mismatch"
    #: The run was correct, but the optimal oracle *proved* at least
    #: one block's heuristic schedule longer than necessary.  A quality
    #: finding with the gap recorded, not a correctness bug — the
    #: heuristic is allowed to be suboptimal (the paper's own tables
    #: show gaps); campaigns report it so the corpus-wide gap is
    #: visible.
    OPTIMALITY = "optimality"

    @property
    def is_failure(self) -> bool:
        """True for outcomes that indicate a bug in the code generator."""
        return self in (
            Outcome.COMPILE_CRASH,
            Outcome.SIM_FAULT,
            Outcome.VALIDATOR,
            Outcome.MISMATCH,
        )


#: A hook run on the compiled function before simulation.  Used by the
#: fuzzer's own tests to inject miscompiles and prove the oracle catches
#: and shrinks them; ``None`` in production.
PostCompileHook = Callable[[CompiledFunction], None]


@dataclass
class FuzzCase:
    """One reproducible differential-testing input."""

    source: str
    machine_isdl: str
    inputs: Dict[str, int] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    iteration: Optional[int] = None

    _machine: Optional[Machine] = field(
        default=None, repr=False, compare=False
    )

    @property
    def machine(self) -> Machine:
        """The parsed machine (cached)."""
        if self._machine is None:
            self._machine = parse_machine(self.machine_isdl)
        return self._machine

    def heuristic_config(self) -> HeuristicConfig:
        """The covering configuration this case runs under."""
        return HeuristicConfig.default().with_(**self.config)

    def replace(self, **changes: Any) -> "FuzzCase":
        """A copy with fields replaced (machine cache invalidated)."""
        merged = dict(
            source=self.source,
            machine_isdl=self.machine_isdl,
            inputs=self.inputs,
            config=self.config,
            seed=self.seed,
            iteration=self.iteration,
        )
        merged.update(changes)
        return FuzzCase(**merged)


@dataclass
class CaseResult:
    """Outcome plus evidence for one oracle run."""

    outcome: Outcome
    detail: str = ""
    #: (variable, simulator value, interpreter value) for mismatches.
    mismatches: List[Tuple[str, int, int]] = field(default_factory=list)
    instructions: int = 0
    spills: int = 0
    cycles: int = 0
    reference: Dict[str, int] = field(default_factory=dict)
    #: validator violation kinds in report order (VALIDATOR outcomes);
    #: the first entry is the invariant the shrinker preserves.
    violations: List[str] = field(default_factory=list)
    #: per-block gap records from the optimal oracle (when enabled):
    #: ``{"block", "heuristic", "optimal", "gap", "proven"}``.
    optimal_blocks: List[Dict[str, Any]] = field(default_factory=list)
    #: total proven heuristic-vs-optimal gap across blocks, in cycles.
    optimal_gap: int = 0
    #: every block's solve completed without budget exhaustion.
    optimal_proven: bool = False

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [f"outcome: {self.outcome.value}"]
        if self.detail:
            lines.append(self.detail)
        for name, simulated, expected in self.mismatches[:8]:
            lines.append(
                f"  {name}: simulator {simulated}, interpreter {expected}"
            )
        for record in self.optimal_blocks:
            if record["gap"]:
                proven = "proven" if record["proven"] else "budget-limited"
                lines.append(
                    f"  {record['block']}: heuristic {record['heuristic']} "
                    f"vs optimal {record['optimal']} ({proven})"
                )
        return "\n".join(lines)


def _crash_detail(error: BaseException) -> str:
    frames = traceback.extract_tb(error.__traceback__)
    location = ""
    if frames:
        last = frames[-1]
        location = f" at {last.filename.rsplit('/', 1)[-1]}:{last.lineno}"
    return f"{type(error).__name__}{location}: {error}"


def run_case(
    case: FuzzCase,
    post_compile_hook: Optional[PostCompileHook] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    validate: bool = True,
    cache_dir: Optional[str] = None,
    optimal_oracle: bool = False,
    optimal_budget: int = DEFAULT_OPTIMAL_BUDGET,
) -> CaseResult:
    """Run one case through the full differential pipeline.

    With ``validate`` (the default) every compiled block is also
    certified by the independent translation validator, so an invariant
    violation is reported as :data:`Outcome.VALIDATOR` — naming *which*
    paper invariant broke — even when the simulated final state would
    have matched the interpreter.

    With ``cache_dir`` block solutions come from (and fill) the
    persistent block cache (:mod:`repro.serve.cache`), so repeated
    campaigns warm-start; the oracle still checks the full output, so a
    cache that ever changed a schedule would be caught here.

    With ``optimal_oracle`` a third comparison runs on correct cases:
    every block is re-solved by the constraint-solver backend
    (:mod:`repro.optimal`, capped at ``optimal_budget`` conflicts) and
    the heuristic's block length compared against the certified
    optimum.  A case whose heuristic left provable cycles on the table
    is classified :data:`Outcome.OPTIMALITY` with the per-block gaps
    recorded — a measured quality finding, not a failure.
    """
    # 1-2: front end + reference semantics.  Frontend errors on fuzzer
    # output are compiler bugs (the generator emits only valid minic).
    try:
        function = compile_source(case.source)
        reference = interpret_function(
            function, case.inputs, max_steps=max_steps
        )
    except IRError as error:
        if "non-termination" in str(error):
            return CaseResult(Outcome.NONTERMINATING, detail=str(error))
        return CaseResult(Outcome.COMPILE_CRASH, detail=_crash_detail(error))
    except Exception as error:  # noqa: BLE001 - classified, not swallowed
        return CaseResult(Outcome.COMPILE_CRASH, detail=_crash_detail(error))

    # 3: the AVIV pipeline.
    try:
        compiled = compile_function(
            function,
            case.machine,
            case.heuristic_config(),
            cache_dir=cache_dir,
        )
    except CoverageError as error:
        return CaseResult(Outcome.COVERAGE, detail=str(error))
    except Exception as error:  # noqa: BLE001
        return CaseResult(Outcome.COMPILE_CRASH, detail=_crash_detail(error))

    # 3b: translation validation of every block (schedule + emission).
    # Runs before fault-injection hooks: the hooks mutate the flat
    # program to test the *differential* oracle downstream.
    if validate:
        reports = [r for r in verify_function(compiled) if not r.ok]
        if reports:
            kinds = [kind for r in reports for kind in r.kinds()]
            detail = "; ".join(
                v.describe() for r in reports for v in r.violations[:4]
            )
            return CaseResult(
                Outcome.VALIDATOR,
                detail=detail,
                violations=kinds,
                instructions=compiled.total_instructions,
                spills=compiled.total_spills,
            )

    if post_compile_hook is not None:
        post_compile_hook(compiled)

    # 4: execute on the VLIW simulator.
    try:
        result = run_program(
            compiled.program,
            case.machine,
            dict(case.inputs),
            max_cycles=max_cycles,
        )
    except ReproError as error:
        return CaseResult(
            Outcome.SIM_FAULT,
            detail=_crash_detail(error),
            instructions=compiled.total_instructions,
            spills=compiled.total_spills,
        )

    # 5: compare final states.  A variable missing from the reference
    # environment was never written: its expected value is its initial
    # one (zero-initialised data memory unless the case set it).
    mismatches: List[Tuple[str, int, int]] = []
    for name in sorted(result.variables):
        expected = reference.get(name, wrap(case.inputs.get(name, 0)))
        if result.variables[name] != expected:
            mismatches.append((name, result.variables[name], expected))
    if mismatches:
        return CaseResult(
            Outcome.MISMATCH,
            detail=f"{len(mismatches)} variable(s) differ",
            mismatches=mismatches,
            instructions=compiled.total_instructions,
            spills=compiled.total_spills,
            cycles=result.cycles,
            reference=reference,
        )

    # 6 (optional): the optimality oracle.  Correctness is settled by
    # now; re-solve each block exactly and measure what the heuristic
    # left on the table.
    optimal_blocks: List[Dict[str, Any]] = []
    optimal_gap = 0
    optimal_proven = False
    if optimal_oracle:
        try:
            optimal_blocks, optimal_proven = _optimal_gaps(
                function, case, optimal_budget
            )
        except ReproError as error:
            # The solver certifies every model against the independent
            # validator; a failure here is a real backend bug.
            return CaseResult(
                Outcome.COMPILE_CRASH,
                detail=_crash_detail(error),
                instructions=compiled.total_instructions,
                spills=compiled.total_spills,
            )
        optimal_gap = sum(record["gap"] for record in optimal_blocks)
    outcome = Outcome.OPTIMALITY if optimal_gap > 0 else Outcome.OK
    return CaseResult(
        outcome,
        detail=(
            f"heuristic left {optimal_gap} cycle(s) on the table"
            if optimal_gap
            else ""
        ),
        instructions=compiled.total_instructions,
        spills=compiled.total_spills,
        cycles=result.cycles,
        reference=reference,
        optimal_blocks=optimal_blocks,
        optimal_gap=optimal_gap,
        optimal_proven=optimal_proven,
    )


def _optimal_gaps(function, case: FuzzCase, budget: int):
    """Per-block heuristic-vs-optimal gap records for one function."""
    from repro.ir.cfg import Branch
    from repro.optimal import optimal_block_solution

    records: List[Dict[str, Any]] = []
    proven = True
    for block in function:
        pin_value = None
        if isinstance(block.terminator, Branch):
            pin_value = block.terminator.condition
        solve = optimal_block_solution(
            block.dag,
            case.machine,
            pin_value=pin_value,
            config=case.heuristic_config(),
            conflict_budget=budget,
        )
        proven = proven and solve.proven
        records.append(
            {
                "block": block.name,
                "heuristic": solve.heuristic_cost,
                "optimal": solve.cost,
                "gap": solve.gap,
                "proven": solve.proven,
            }
        )
    return records, proven


def break_first_transfer(compiled: CompiledFunction) -> None:
    """Deliberately miscompile: redirect the first register-bound data
    transfer to a different register, as a broken transfer-insertion pass
    would.  Used by the self-tests to prove the oracle catches and
    shrinks real miscompiles; never called in production fuzzing.
    """
    from dataclasses import replace as dc_replace

    from repro.asmgen.instruction import RegRef

    machine = compiled.machine
    program = compiled.program
    for position, instruction in enumerate(program.instructions):
        for t_index, transfer in enumerate(instruction.transfers):
            destination = transfer.destination
            if not isinstance(destination, RegRef):
                continue
            size = machine.register_file(destination.register_file).size
            if size < 2:
                continue
            broken = dc_replace(
                transfer,
                destination=RegRef(
                    destination.register_file,
                    (destination.index + 1) % size,
                ),
            )
            transfers = list(instruction.transfers)
            transfers[t_index] = broken
            program.instructions[position] = dc_replace(
                instruction, transfers=tuple(transfers)
            )
            return
