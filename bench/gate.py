"""The untimed correctness gate.

Every distinct compiled program is simulated (``run_program``) on two
input vectors — a fixed reference vector, whose cycle count is the
``sim_cycles`` metric, and one drawn from the run's seed — and compared
with the independent IR interpreter (``interpret_function``).  The
translation validator (``verify_function``) certifies every block.
Then every request's listing must equal its item's checked listing:
later rounds of a compile workload equal the first, and every batch
job equals a direct, pool-free compile of that job (which, for
``batch-warm``, is also the cold compile that filled the cache).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import repro.asmgen.program as asm_program
import repro.assembler.encoder as encoder
import repro.frontend.lower as lower
import repro.isdl.parser as isdl_parser
import repro.ir.interp as interp
import repro.simulator.executor as executor
import repro.verify as verify
from repro.covering.config import HeuristicConfig

from bench import BENCH_DIR
from bench.workloads import Item, digest, rng

GOLDEN = BENCH_DIR / "golden" / "listings.json"

#: Simulation inputs are drawn uniformly from this closed range; it keeps
#: branchy's data-dependent loop short.
INPUT_RANGE = (-20, 20)


def inputs_for(function, *seed: Any) -> Dict[str, int]:
    """Seeded values for every variable ``function`` reads."""
    names = sorted({name for block in function for name in block.dag.var_symbols()})
    draw = rng("inputs", *seed)
    return {name: draw.randint(*INPUT_RANGE) for name in names}


def distinct_record(
    label: str, function, compiled, image, machine, seed: int
) -> Dict[str, Any]:
    """Check one compiled program; the facts the metrics are built from."""
    errors: List[str] = []
    cycles = 0
    stores = {name for block in function for name in block.dag.store_symbols()}
    for which in ("reference", seed):
        inputs = inputs_for(function, which, label)
        try:
            expected = interp.interpret_function(function, inputs)
            result = executor.run_program(compiled.program, machine, inputs)
        except Exception as error:  # noqa: BLE001 - reported as a failure
            errors.append(
                f"{label}: simulation on {which} inputs raised "
                f"{type(error).__name__}: {error}"
            )
            continue
        if which == "reference":
            cycles = result.cycles
        wrong = sorted(
            name
            for name, value in expected.items()
            if name in result.variables and result.variables[name] != value
        )
        missing = sorted(stores - set(result.variables))
        if wrong or missing:
            errors.append(
                f"{label}: simulator disagrees with interpreter on {which} "
                f"inputs (wrong {wrong}, missing {missing})"
            )
    for report in verify.verify_function(compiled):
        if not report.ok:
            errors.append(
                f"{label}: validator found {len(report.violations)} violation(s)"
            )
    return {
        "digest": digest(compiled.program.listing()),
        "words": len(image.words),
        "spills": compiled.total_spills,
        "cycles": cycles,
        "errors": errors,
    }


def direct_reference(item: Item, seed: int, cache_dir: Optional[str]) -> Dict[str, Any]:
    """Compile one batch job directly (no pool, no batch service) and
    check it.  With ``cache_dir`` the compile also fills that cache."""
    try:
        machine = isdl_parser.parse_machine(item.machine_isdl())
        function = lower.compile_source(item.source())
        config = HeuristicConfig.default().with_(**dict(item.config))
        compiled = asm_program.compile_function(
            function, machine, config, cache_dir=cache_dir
        )
        image = encoder.encode_program(compiled.program, machine)
    except Exception as error:  # noqa: BLE001 - reported as a failure
        return {"digest": None, "words": 0, "spills": 0, "cycles": 0,
                "errors": [f"{item.label}: direct compile raised "
                           f"{type(error).__name__}: {error}"]}
    return distinct_record(item.label, function, compiled, image, machine, seed)


def judge(
    outputs: Iterable[Tuple[str, str, Optional[str]]],
    distinct: Dict[str, Dict[str, Any]],
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, reasons)`` over ``(label, status, digest)``
    outputs: an output fails unless it compiled, its item passed the
    checks, and its listing equals the item's checked listing."""
    attempted = failed = 0
    reasons: List[str] = []
    for label, status, listing_digest in outputs:
        attempted += 1
        record = distinct.get(label)
        if status != "ok":
            reason = f"{label}: request failed ({status})"
        elif record is None:
            reason = f"{label}: no checked reference"
        elif record["errors"]:
            reason = record["errors"][0]
        elif listing_digest != record["digest"]:
            reason = f"{label}: listing differs from the checked one"
        else:
            continue
        failed += 1
        if reason not in reasons:
            reasons.append(reason)
    return attempted, failed, reasons


def load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def schedule_changes(distinct: Dict[str, Dict[str, Any]], golden: Dict[str, str]) -> int:
    """Distinct requests whose listing differs from ``bench/golden/``."""
    return sum(1 for label, record in distinct.items() if golden.get(label) != record["digest"])


def totals(distinct: Dict[str, Dict[str, Any]]) -> Dict[str, int]:
    """Quality metrics summed over distinct requests."""
    return {
        "code_words": sum(r["words"] for r in distinct.values()),
        "sim_cycles": sum(r["cycles"] for r in distinct.values()),
        "spills": sum(r["spills"] for r in distinct.values()),
    }


def reference_batch(
    items: Sequence[Item], seed: int, cache_dir: Optional[str], workers: int
) -> Dict[str, Dict[str, Any]]:
    """Direct references for a batch universe, compiled on a
    ``spawn`` pool of ``workers`` processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        records = list(pool.map(
            direct_reference,
            items,
            [seed] * len(items),
            [cache_dir] * len(items),
        ))
    return {item.label: record for item, record in zip(items, records)}
